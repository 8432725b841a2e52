"""Planner tests.

The 128-bit reference scenario (1.5 KB files, min-entropy floor 2**121,
ceiling 2**-80) has frozen expected values computed by two independent
routes before implementation: an exact doubling/bisection script for the Q*
figures and an mpmath 40-digit script for the gain figures.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from paper_formulas import paper_bound, paper_one_plus_x

from qkdplan import planner
from qkdplan.advmodel import EcbcDenominator, Mode, SecurityParams, bound_at
from qkdplan.exactmath import log2_rational
from qkdplan.planner import (
    ImprovementReport,
    InfeasibleTargetError,
    SweepRow,
    benefit,
    blocks_per_file,
    compute_q_star,
    improvement_bits,
    sweep_k,
    volume_kb,
    volume_mb,
)

FILE_BYTES = 1536  # 1.5 KB


def reference_params(denom: EcbcDenominator = EcbcDenominator.TWO_N) -> SecurityParams:
    return SecurityParams.from_bits(128, 121, 96, target_bits=80, ecbc_denominator=denom)


def test_blocks_per_file():
    assert blocks_per_file(1536, 128) == 96
    assert blocks_per_file(1537, 128) == 97  # partial block counts whole
    assert blocks_per_file(1, 128) == 1
    with pytest.raises(ValueError):
        blocks_per_file(0, 128)
    with pytest.raises(ValueError):
        blocks_per_file(16, 12)


def test_volume_units_are_1024_based():
    assert volume_kb(4608) == Fraction(9, 2)
    assert volume_mb(1 << 21) == 2


def test_q_star_ctr_frozen():
    plan = compute_q_star(Mode.CTR, reference_params(), FILE_BYTES)
    assert plan.q_star == 1210759
    assert plan.eps_at_q_star <= Fraction(1, 1 << 80)
    assert bound_at(Mode.CTR, reference_params(), plan.q_star + 1) > Fraction(1, 1 << 80)
    # worst case sits essentially on the ceiling
    assert str(plan.worst_case_bits).startswith("80.000")
    assert plan.max_data_volume_bytes == 1210759 * 1536


def test_q_star_cbc_frozen():
    plan = compute_q_star(Mode.CBC, reference_params(), FILE_BYTES)
    assert plan.q_star == 123575


def test_q_star_ecbc_frozen_both_denominators():
    two_n = compute_q_star(Mode.ECBC_MAC, reference_params(), FILE_BYTES)
    assert two_n.q_star == 247135
    compat = compute_q_star(
        Mode.ECBC_MAC, reference_params(EcbcDenominator.PAPER_COMPAT_N), FILE_BYTES
    )
    assert compat.q_star == 174751


def test_q_star_volumes_frozen():
    ctr = compute_q_star(Mode.CTR, reference_params(), FILE_BYTES)
    assert volume_kb(ctr.max_data_volume_bytes) == Fraction(18161385, 10)  # 1816138.5 KB
    assert abs(volume_mb(ctr.max_data_volume_bytes) - Fraction(17735, 10)) < Fraction(1, 2)
    cbc = compute_q_star(Mode.CBC, reference_params(), FILE_BYTES)
    assert abs(volume_mb(cbc.max_data_volume_bytes) - 181) < Fraction(1, 2)
    ecbc = compute_q_star(
        Mode.ECBC_MAC, reference_params(EcbcDenominator.PAPER_COMPAT_N), FILE_BYTES
    )
    assert abs(volume_mb(ecbc.max_data_volume_bytes) - 256) < Fraction(1, 2)
    # the published MB figures are also rows of qkdplan.cli.PUBLISHED_FIGURES,
    # checked exactly in tests/test_acceptance.py


def test_q_star_derives_file_size_when_omitted():
    plan = compute_q_star(Mode.CTR, reference_params())
    assert plan.file_size_bytes == 1536
    assert plan.q_star == 1210759


def test_q_star_rejects_inconsistent_file_size():
    with pytest.raises(ValueError, match="blocks"):
        compute_q_star(Mode.CTR, reference_params(), 3000)


def test_q_star_respects_block_bits_override():
    # 96 blocks of 64 bits = 768 bytes, security parameter still 128
    plan = compute_q_star(Mode.CTR, reference_params(), 768, block_bits=64)
    assert plan.q_star == 1210759
    assert plan.file_size_bytes == 768


def test_infeasible_targets():
    tight = SecurityParams.from_bits(16, 14, 4, target_bits=14)
    with pytest.raises(InfeasibleTargetError):
        compute_q_star(Mode.CTR, tight)
    # ECBC constant floor 2/D: ceiling below it is a distinct infeasibility
    floor = SecurityParams.from_bits(8, 6, 2, eps_max=Fraction(1, 1 << 10))
    with pytest.raises(InfeasibleTargetError, match="floor"):
        compute_q_star(Mode.ECBC_MAC, floor)


def test_small_scale_plan_used_by_demos():
    params = SecurityParams.from_bits(16, 14, 4, target_bits=9)
    plan = compute_q_star(Mode.CTR, params, 8)
    assert plan.q_star == 3


# ------------------------------------------------------------- improvements


def test_improvement_frozen_k2():
    p = reference_params()
    cases = {
        (Mode.CTR, EcbcDenominator.TWO_N): ("1.999923746", 1210759),
        (Mode.CBC, EcbcDenominator.TWO_N): ("1.999992216", 123575),
        (Mode.ECBC_MAC, EcbcDenominator.TWO_N): ("1.999968870", 247135),
        (Mode.ECBC_MAC, EcbcDenominator.PAPER_COMPAT_N): ("1.999977987", 174751),
    }
    for (mode, denom), (prefix, q_star) in cases.items():
        params = reference_params(denom)
        report = improvement_bits(mode, params, q_star, 2)
        assert str(report.delta_bits).startswith(prefix), (mode, denom)
        # and every one of them is within the coarser published rounding
        assert abs(report.delta_bits.as_fraction() - Fraction(199996, 100000)) < Fraction(1, 10000) or mode is not Mode.ECBC_MAC


def test_improvement_closed_and_direct_agree():
    # The gain by the paper's closed form, log2(k) + log2(1 + X), and by the
    # direct difference log2 bound(Q*) - log2 bound(Q*/k), both taken from
    # tests/paper_formulas.py, agree with the reported delta_bits.
    p = reference_params()
    for mode in Mode:
        plan = compute_q_star(mode, p, FILE_BYTES)
        for k in (2, 3, 16, 1024):
            r = improvement_bits(mode, p, plan.q_star, k)
            digits = r.delta_bits.digits

            def log2(value: Fraction) -> Fraction:
                return log2_rational(value, digits).as_fraction()

            closed = log2(Fraction(k)) + log2(paper_one_plus_x(mode, p, plan.q_star, k))
            direct = log2(paper_bound(mode, p, Fraction(plan.q_star))) - log2(
                paper_bound(mode, p, Fraction(plan.q_star, k))
            )
            for path in (closed, direct):
                gap = r.delta_bits.as_fraction() - path
                assert abs(gap) < Fraction(1, 10**9), (mode, k)


def test_improvement_bracket_random_small_params():
    rng = random.Random(404)
    for _ in range(60):
        params = SecurityParams.from_bits(
            rng.randrange(16, 64),
            rng.randrange(10, 50),
            rng.randrange(1, 32),
            target_bits=rng.randrange(3, 20),
        )
        mode = rng.choice(list(Mode))
        try:
            plan = compute_q_star(mode, params)
        except InfeasibleTargetError:
            continue
        if plan.q_star < 2:
            continue
        k = rng.randrange(2, min(plan.q_star, 4096) + 1)
        r = improvement_bits(mode, params, plan.q_star, k)
        bracket = r.lower_bound_bits, r.delta_bits, r.upper_bound_bits
        low, gain, high = (value.as_fraction() for value in bracket)
        assert low < gain < high


def test_improvement_k1_and_validation():
    p = reference_params()
    r = improvement_bits(Mode.CTR, p, 1210759, 1)
    assert r.delta_bits.scaled == 0 and r.upper_bound_bits.scaled == 0
    with pytest.raises(ValueError):
        improvement_bits(Mode.CTR, p, 1210759, 0)
    with pytest.raises(ValueError, match="idle"):
        improvement_bits(Mode.CTR, p, 10, 11)


@settings(max_examples=200)
@given(
    st.sampled_from(list(Mode)),
    st.integers(16, 128),
    st.integers(10, 121),
    st.integers(1, 96),
    st.integers(3, 80),
    st.integers(1, 1 << 20),
)
def test_reported_levels_and_brackets_come_from_one_log2(mode, lam, s_bits, blocks, target, k):
    params = SecurityParams.from_bits(lam, s_bits, blocks, target_bits=target)
    try:
        plan = compute_q_star(mode, params)
    except InfeasibleTargetError:
        return
    assert plan.worst_case_bits.scaled == -log2_rational(plan.eps_at_q_star).scaled
    report = improvement_bits(mode, params, plan.q_star, min(k, plan.q_star))
    assert report.lower_bound_bits == log2_rational(Fraction(report.k), 12)
    assert report.upper_bound_bits.scaled == 2 * report.lower_bound_bits.scaled


def test_a_bracket_of_a_record_with_no_valid_k_is_refused():
    delta = improvement_bits(Mode.CTR, reference_params(), 1210759, 2).delta_bits
    for bad, error in ((0, ValueError), (-3, ValueError), (2.5, TypeError), (True, TypeError)):
        with pytest.raises(error):
            ImprovementReport(bad, delta)
        with pytest.raises(error):
            SweepRow(bad, delta, delta)


# ------------------------------------------------------------------ benefit


def test_benefit_frozen_k2_unit_cost():
    p = reference_params()
    rep = benefit(Mode.CTR, p, 1210759, 2, Fraction(1))
    # q_star * delta / 2 with delta ~ 1.9999237
    assert abs(rep.benefit.as_fraction() - Fraction(1210713)) < 1
    assert benefit(Mode.CTR, p, 1210759, 1, Fraction(1)).benefit.scaled == 0


def test_benefit_scales_inversely_with_cost():
    p = reference_params()
    one = benefit(Mode.CBC, p, 123575, 4, Fraction(1)).benefit.as_fraction()
    three = benefit(Mode.CBC, p, 123575, 4, Fraction(3)).benefit.as_fraction()
    assert abs(one - 3 * three) < Fraction(1, 10**6)
    with pytest.raises(ValueError):
        benefit(Mode.CBC, p, 123575, 4, Fraction(0))
    # the key cost's cap: its benefit could not be printed
    with pytest.raises(ValueError, match="8192 bits"):
        benefit(Mode.CBC, p, 123575, 4, Fraction(1, 10**5000))


def test_sweep_rows_and_monotonicity():
    p = reference_params()
    ks = [1 << i for i in range(11)]
    rows = sweep_k(Mode.CTR, p, 1210759, ks)
    assert [r.k for r in rows] == ks
    assert rows[0].delta_bits.scaled == 0 and rows[0].benefit.scaled == 0
    deltas = [r.delta_bits.as_fraction() for r in rows]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    benefits = [r.benefit.as_fraction() for r in rows[1:]]  # k >= 2
    assert all(a > b for a, b in zip(benefits, benefits[1:]))
    assert sweep_k(Mode.CTR, p, 1210759, []) == []


def test_a_sweep_evaluates_the_bound_once(monkeypatch):
    calls = []
    real = planner.bound_parts

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(planner, "bound_parts", counted)
    p = reference_params()
    rows = sweep_k(Mode.CBC, p, 123575, [1 << i for i in range(11)], Fraction(3, 2))
    assert len(rows) == 11
    assert calls == [(Mode.CBC, p, 123575)]


@pytest.mark.parametrize("mode", list(Mode))
def test_sweep_rows_are_benefit_at_each_k(mode):
    rng = random.Random(3333)
    for _ in range(6):
        params = SecurityParams.from_bits(
            rng.choice((64, 96, 128)), rng.randrange(40, 64), rng.randrange(1, 64), target_bits=rng.randrange(20, 40)
        )
        q_star = compute_q_star(mode, params).q_star
        ks = sorted({1, q_star, *(rng.randrange(1, q_star + 1) for _ in range(8))})
        for cost in (Fraction(1), Fraction(3, 7), Fraction(1000, 3)):
            rows = sweep_k(mode, params, q_star, ks, cost)
            assert rows == [benefit(mode, params, q_star, k, cost) for k in ks]
            assert [row.delta_bits for row in rows] == [improvement_bits(mode, params, q_star, k).delta_bits for k in ks]


def test_q_star_is_checked_before_any_k():
    p = reference_params()
    for bad, error in ((-1, ValueError), (2.0, TypeError), (True, TypeError)):
        # an empty sweep, or an invalid k, still meets the invalid Q* first
        with pytest.raises(error, match="natural number required"):
            sweep_k(Mode.CTR, p, bad, [])
        with pytest.raises(error, match="natural number required"):
            benefit(Mode.CTR, p, bad, 0, Fraction(1))
        with pytest.raises(error, match="natural number required"):
            improvement_bits(Mode.CTR, p, bad, 0)
    # with a valid Q*, each k meets the same checks, with the same messages, in every entry point
    for call in (
        lambda k: sweep_k(Mode.CTR, p, 10, [1, k]),
        lambda k: benefit(Mode.CTR, p, 10, k, Fraction(1)),
        lambda k: improvement_bits(Mode.CTR, p, 10, k),
    ):
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            call(0)
        with pytest.raises(ValueError, match=r"^natural number required, -2 is negative$"):
            call(-2)
        with pytest.raises(TypeError, match=r"^natural number required, got float$"):
            call(2.0)
        with pytest.raises(ValueError, match=r"^k=11 exceeds q_star=10; keys would sit idle$"):
            call(11)
