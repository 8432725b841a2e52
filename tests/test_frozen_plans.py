"""Frozen digests of the planner's outputs, and the integer gain ratio
against its Fraction definition.

The digests were computed before the rotation gain moved from a ratio of two
bound_at Fractions to one integer ratio, and must not change: a planner
rewrite that alters one digit of Q*, of the bound at Q*, of a gain, of its
bracket or of a benefit fails here.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from qkdplan.advmodel import EcbcDenominator, Mode, SecurityParams, bound_at, bound_parts
from qkdplan.exactmath import _log2, log2_rational
from qkdplan.planner import InfeasibleTargetError, compute_q_star, improvement_bits, sweep_k

# The default sweep list of the CLI, plus k that are not powers of two
K_VALUES = [1 << i for i in range(11)] + [3, 5, 1000]
KEY_COSTS = (Fraction(1), Fraction(7, 3))

# name -> (lambda_bits, s_min, blocks_per_file, eps_max); every Q* is >= 1000
PROBLEMS = {
    "reference": (128, 1 << 121, 96, Fraction(1, 1 << 80)),
    "short-block": (64, 1 << 60, 2, Fraction(1, 1 << 40)),
    "odd-floor": (96, 3**50, 7, Fraction(3, 10**18)),
}

MODES = (
    (Mode.CTR, EcbcDenominator.TWO_N),
    (Mode.CBC, EcbcDenominator.TWO_N),
    (Mode.ECBC_MAC, EcbcDenominator.TWO_N),
    (Mode.ECBC_MAC, EcbcDenominator.PAPER_COMPAT_N),
)

# SHA-256 over the plan line and one line per (cost, k) sweep row
DIGESTS = {
    ('odd-floor', Mode.CTR, EcbcDenominator.TWO_N): "66996e284137a84dc8ad3a02f54b043210e0bf96a9ea0d3368b8238b771b4aef",
    ('odd-floor', Mode.CBC, EcbcDenominator.TWO_N): "ecfe02c2b3893afb377e1356977803bbe8a42d44bb8a5414edb4c633d2196dc2",
    ('odd-floor', Mode.ECBC_MAC, EcbcDenominator.TWO_N): "2c8295170db496564ee8c840d403d720955fa70f8bd3721aae8ae54c2f667ab1",
    ('odd-floor', Mode.ECBC_MAC, EcbcDenominator.PAPER_COMPAT_N): "4d0c0eed2d0b312744d99da095aaa1d528061275b85d49aa99f13b27b5fb9c6f",
    ('reference', Mode.CTR, EcbcDenominator.TWO_N): "2e75b3034a64452642647c2f3e3ed6fb5fa32bd12924c44fa689f97680f37dcc",
    ('reference', Mode.CBC, EcbcDenominator.TWO_N): "55a51f608ce9030d556de5655841d16d03945e4ddd3df38d00044843586d0863",
    ('reference', Mode.ECBC_MAC, EcbcDenominator.TWO_N): "85a7dab5d36bf47d4a46b21e17074ca85803502eb8ae0c903680515ebe1ca705",
    ('reference', Mode.ECBC_MAC, EcbcDenominator.PAPER_COMPAT_N): "b408f00fcbca6780c4fdab8b8f4b4e389368fb37c6d926660a6020f08e42de6a",
    ('short-block', Mode.CTR, EcbcDenominator.TWO_N): "01af90725d767f5d7b0cffa5173ed6518449c3882b7f4b7210a26b163a499e4b",
    ('short-block', Mode.CBC, EcbcDenominator.TWO_N): "d0d5d179466e87ca422a30d862d2cf72cbda29d15f820217be7da3eb565de7ea",
    ('short-block', Mode.ECBC_MAC, EcbcDenominator.TWO_N): "6224ecb635f45d14693128b23e81d0bdec99904de16d12b958f8f0aed7cbe8f9",
    ('short-block', Mode.ECBC_MAC, EcbcDenominator.PAPER_COMPAT_N): "f7949ce47f8e28e09002b3c3a87bff6b972737d0d4a7217d983389cc40eb4500",
}


def _plan_text(problem: str, mode: Mode, denom: EcbcDenominator) -> str:
    lam, s_min, l, eps = PROBLEMS[problem]
    params = SecurityParams(lam, s_min, l, eps, denom)
    plan = compute_q_star(mode, params)
    lines = [f"{plan.q_star} {plan.eps_at_q_star} {plan.worst_case_bits}"]
    for cost in KEY_COSTS:
        for row in sweep_k(mode, params, plan.q_star, K_VALUES, cost):
            lines.append(
                f"{cost} {row.k} {row.delta_bits} {row.lower_bound_bits} {row.upper_bound_bits} {row.benefit}"
            )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize(("mode", "denom"), MODES, ids=lambda v: v.value)
def test_plan_outputs_are_frozen(problem, mode, denom):
    digest = hashlib.sha256(_plan_text(problem, mode, denom).encode()).hexdigest()
    assert digest == DIGESTS[(problem, mode, denom)]


def test_integer_ratio_is_the_bound_ratio():
    # bound(Q*)/bound(Q*/k) as two bound_at Fractions, against k*num/den
    # from bound_parts, and the reported gain against the Fraction ratio
    rng = random.Random(1717)
    checked = 0
    while checked < 300:
        lam = rng.randrange(24, 200)
        params = SecurityParams(
            lam,
            rng.randrange(2, 1 << rng.randrange(8, lam + 8)),
            rng.randrange(1, 200),
            Fraction(rng.randrange(1, 1 << 20), 1 << rng.randrange(21, lam)),
            rng.choice(list(EcbcDenominator)),
        )
        mode = rng.choice(list(Mode))
        try:
            q_star = compute_q_star(mode, params).q_star
        except InfeasibleTargetError:
            continue
        if q_star < 2:
            continue
        k = rng.choice([2, 3, q_star, rng.randrange(2, q_star + 1)])
        lin, quad, const = bound_parts(mode, params, q_star)
        num, den = k * (lin + quad + const), k * lin + quad + k * k * const
        ratio = bound_at(mode, params, Fraction(q_star)) / bound_at(mode, params, Fraction(q_star, k))
        assert Fraction(k * num, den) == ratio, (mode, params, q_star, k)
        digits = 12
        want = log2_rational(Fraction(k), digits) + log2_rational(ratio / k, digits)
        assert improvement_bits(mode, params, q_star, k).delta_bits == want
        checked += 1


def test_log2_of_an_unreduced_pair():
    rng = random.Random(2929)
    for _ in range(500):
        num = rng.randrange(1, 1 << rng.randrange(1, 300))
        den = rng.randrange(1, 1 << rng.randrange(1, 300))
        scale = rng.randrange(1, 1 << rng.randrange(1, 200))
        digits = rng.randrange(1, 40)
        want = log2_rational(Fraction(num, den), digits)
        assert _log2(num * scale, den * scale, digits) == want
        assert _log2(num, den, digits) == want
