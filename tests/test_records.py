"""Value semantics of the package's records: equality, hashing, immutability,
repr and pickling, each pinned to what the dataclass versions of these
classes did.  RotationPlan, ImprovementReport, SweepRow and EmpiricalResult
now store only their inputs and derive the rest, so their reprs show fewer
fields than the dataclass versions did; the derived values are pinned by
attribute instead."""

from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction

import pytest

from qkdplan.advmodel import Mode, SecurityParams
from qkdplan.empirics import Z_99, EmpiricalResult, ToyCipherParams, TrialConfig
from qkdplan.exactmath import FixedDecimal
from qkdplan.planner import ImprovementReport, SweepRow, compute_q_star
from qkdplan.rotation import RotationEvent, SessionState, simulate_pool

PARAMS = SecurityParams(16, 1 << 14, 4, Fraction(1, 128))
PLAN = compute_q_star(Mode.CTR, PARAMS, 8)  # q_star 7
DELTA, BENEFIT = FixedDecimal(17, 1), FixedDecimal(33, 1)

PARAMS_REPR = (
    "SecurityParams(lambda_bits=16, s_min=16384, blocks_per_file=4, eps_max=Fraction(1, 128), "
    "ecbc_denominator=<EcbcDenominator.TWO_N: 'two-n'>)"
)
PLAN_REPR = (
    f"RotationPlan(mode=<Mode.CTR: 'ctr'>, params={PARAMS_REPR}, q_star=7, file_size_bytes=8, block_bits=16)"
)
REPORT_FIELDS = "k=2, delta_bits=FixedDecimal(scaled=17, digits=1)"
EVENT_REPR = "RotationEvent(event_index=0, old_key_id=0, new_key_id=1, at_file_count=7)"


def session(key_cost=Fraction(1)):
    return SessionState(PLAN, 16, 1, key_cost, None, [0, 1], 8)


# name: (a fresh record, one that must differ from it, its repr)
CASES = {
    "SecurityParams": (
        lambda: SecurityParams(16, 1 << 14, 4, 2**-7),  # stored narrowed, as Fraction(1, 128)
        SecurityParams(16, 1 << 14, 4, Fraction(1, 64)),
        PARAMS_REPR,
    ),
    "FixedDecimal": (lambda: FixedDecimal(-15, 3), FixedDecimal(-150, 4), "FixedDecimal(scaled=-15, digits=3)"),
    "RotationPlan": (lambda: compute_q_star(Mode.CTR, PARAMS, 8), compute_q_star(Mode.CBC, PARAMS, 8), PLAN_REPR),
    "ImprovementReport": (
        lambda: ImprovementReport(2, DELTA),
        SweepRow(2, DELTA, BENEFIT),  # same first two fields, another class
        f"ImprovementReport({REPORT_FIELDS})",
    ),
    "SweepRow": (
        lambda: SweepRow(2, DELTA, BENEFIT),
        ImprovementReport(2, DELTA),
        f"SweepRow({REPORT_FIELDS}, benefit=FixedDecimal(scaled=33, digits=1))",
    ),
    "ToyCipherParams": (
        lambda: ToyCipherParams(16, 7),
        ToyCipherParams(16, 8),
        "ToyCipherParams(block_bits=16, key_seed=7)",
    ),
    "TrialConfig": (
        lambda: TrialConfig(Mode.CBC, 12, 8, 4, 100, 3),
        TrialConfig(Mode.CTR, 12, 8, 4, 100, 3),
        "TrialConfig(mode=<Mode.CBC: 'cbc'>, block_bits=12, q_files=8, blocks_per_file=4, trials=100, rng_seed=3)",
    ),
    "EmpiricalResult": (
        lambda: EmpiricalResult(Fraction(1, 3), 100, 25),
        EmpiricalResult(Fraction(1, 3), 100, 26),
        "EmpiricalResult(theoretical_bound=Fraction(1, 3), trials=100, collisions=25)",
    ),
    "RotationEvent": (lambda: RotationEvent(0, 0, 1, 7), RotationEvent(0, 0, 2, 7), EVENT_REPR),
    "SessionState": (
        session,
        session(Fraction(2)),
        f"SessionState(plan={PLAN_REPR}, toy_block_bits=16, rotation_factor=1, "
        "key_cost=Fraction(1, 1), pool=None, key_ids=[0, 1], total_files=8)",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_semantics(name):
    make, other, shown = CASES[name]
    one, two = make(), make()
    assert type(one).__name__ == name
    assert one == two and one is not two
    assert one != other and other != one
    assert repr(one) == shown
    assert pickle.loads(pickle.dumps(one)) == copy.copy(one) == copy.deepcopy(one) == one
    if name == "SessionState":
        # mutable, so unhashable; equality leaves out the pool and key schedule
        with pytest.raises(TypeError):
            hash(one)
        two.pool = simulate_pool(2, 128, 0)
        two._key_schedule = object()
        assert one == two
        two.total_files += 1
        assert one != two
        return
    assert hash(one) == hash(two)
    for field in one._fields:
        with pytest.raises(AttributeError):
            setattr(one, field, getattr(other, field, 0))
        with pytest.raises(AttributeError):
            delattr(one, field)
    with pytest.raises(AttributeError):
        one.note = "unlisted"
    assert one == two and repr(one) == shown


def test_derived_values_are_read_from_the_stored_fields():
    assert PLAN.eps_at_q_star == Fraction(63, 8192)
    assert PLAN.worst_case_bits == FixedDecimal(7022720077, 9)
    for report in (ImprovementReport(2, DELTA), SweepRow(2, DELTA, BENEFIT)):
        assert report.lower_bound_bits == FixedDecimal(10**12, 12)
        assert report.upper_bound_bits == FixedDecimal(2 * 10**12, 12)
    result = EmpiricalResult(Fraction(1, 3), 100, 25)
    assert result.collision_fraction == 0.25
    assert result.half_width_99 == Z_99 * math.sqrt(0.25 * 0.75 / 100)
    derived = [(PLAN, "worst_case_bits"), (ImprovementReport(2, DELTA), "upper_bound_bits"), (result, "half_width_99")]
    for record, name in derived:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


@pytest.mark.parametrize("trials, collisions", [(0, 0), (-1, 0), (100, -1), (100, 101)])
def test_empirical_result_counts_must_define_the_fraction(trials, collisions):
    with pytest.raises(ValueError):
        EmpiricalResult(Fraction(1, 3), trials, collisions)
