"""Advantage model tests.

Frozen expected values were derived by hand from the closed formulas and
cross-checked with an independent high-precision script before being recorded
here.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from qkdplan.advmodel import MAX_EXPONENT_BITS, EcbcDenominator, Mode, SecurityParams, bound_at
from qkdplan.planner import InfeasibleTargetError, compute_q_star


def reference_params(eps_bits: int = 80, denom: EcbcDenominator = EcbcDenominator.TWO_N) -> SecurityParams:
    # 128-bit block cipher, 1.5 KB files (96 blocks), min-entropy floor 2**121
    return SecurityParams.from_bits(128, 121, 96, target_bits=eps_bits, ecbc_denominator=denom)


def test_params_validation():
    p = reference_params()
    assert p.domain_size == 1 << 128
    assert p.s_min == 1 << 121
    assert p.eps_max == Fraction(1, 1 << 80)
    with pytest.raises(ValueError):
        SecurityParams(0, 4, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        SecurityParams(8, 1, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        SecurityParams(8, 4, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        SecurityParams(8, 4, 1, Fraction(0))
    with pytest.raises(ValueError):
        SecurityParams(8, 4, 1, Fraction(1))
    with pytest.raises(ValueError):
        SecurityParams.from_bits(8, 4, 1)  # neither target nor eps
    with pytest.raises(ValueError):
        SecurityParams.from_bits(8, 4, 1, target_bits=3, eps_max=Fraction(1, 8))


def test_s_min_and_eps_have_a_size_rule():
    # s_min <= 2**MAX_EXPONENT_BITS; eps's numerator and denominator fit in
    # 2*MAX_EXPONENT_BITS bits.  Wider values are rejected before any
    # arithmetic: a 10**6-bit s_min used to take over a second to plan.
    top = 1 << MAX_EXPONENT_BITS
    wide = 1 << 2 * MAX_EXPONENT_BITS
    SecurityParams(128, top, 96, Fraction(1, 1 << 80))
    SecurityParams(128, 1 << 121, 96, Fraction(wide - 2, wide - 1))
    start = time.perf_counter()
    for s_min, eps, message in (
        (top + 1, Fraction(1, 1 << 80), "s_min must lie in"),
        (1 << 10**6, Fraction(1, 1 << 80), "s_min must lie in"),
        (1 << 121, Fraction(1, wide), "eps_max numerator and denominator"),
        (1 << 121, Fraction(wide - 1, wide + 1), "eps_max numerator and denominator"),
        (1 << 121, Fraction(1, 1 << 10**6), "eps_max numerator and denominator"),
    ):
        with pytest.raises(ValueError, match=message):
            SecurityParams(128, s_min, 96, eps)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("bits", [(1, 1, 1), (4096, 4096, 4096), (4096, 4096, 4000), (64, 4096, 4090), (4096, 1, 1)])
def test_every_from_bits_input_still_plans(bits):
    lam, s_min_bits, target_bits = bits
    for mode in Mode:
        params = SecurityParams.from_bits(lam, s_min_bits, 1, target_bits=target_bits)
        try:
            compute_q_star(mode, params)
        except InfeasibleTargetError:
            pass


def test_bound_formulas_exact_small_case():
    p = SecurityParams.from_bits(16, 14, 4, target_bits=9)
    n, s, l = 1 << 16, 1 << 14, 4
    for q in (0, 1, 3, 7):
        assert bound_at(Mode.CTR, p, Fraction(q)) == Fraction(q * l, s) + Fraction(2 * q * q * l, n)
        assert bound_at(Mode.CBC, p, Fraction(q)) == Fraction(q * l, s) + Fraction(2 * q * q * l * l, n)
        assert bound_at(Mode.ECBC_MAC, p, Fraction(q)) == Fraction(2 * q * l, s) + Fraction(
            q * q * (l * l + 1) + 2, 2 * n
        )


def test_ecbc_bound_nonzero_at_q_zero():
    # the +2 term keeps the MAC bound strictly positive even before any use
    p = reference_params()
    assert bound_at(Mode.ECBC_MAC, p, Fraction(0)) == Fraction(2, 2 << 128)
    assert bound_at(Mode.CTR, p, Fraction(0)) == 0


def test_bound_at_accepts_fractional_files():
    p = reference_params()
    q = Fraction(1210759, 2)
    direct = q * 96 / (1 << 121) + 2 * q * q * 96 / (1 << 128)
    assert bound_at(Mode.CTR, p, q) == direct


def test_bounds_monotone_in_q():
    rng = random.Random(77)
    for _ in range(30):
        p = SecurityParams.from_bits(
            rng.randrange(12, 40),
            rng.randrange(8, 36),
            rng.randrange(1, 64),
            target_bits=rng.randrange(4, 30),
        )
        for mode in Mode:
            qs = sorted(rng.randrange(0, 1 << 20) for _ in range(4))
            vals = [bound_at(mode, p, Fraction(q)) for q in qs]
            for lo, hi, qlo, qhi in zip(vals, vals[1:], qs, qs[1:]):
                if qlo != qhi:
                    assert lo < hi


def test_bound_at_rejects_negative_q():
    with pytest.raises(ValueError):
        bound_at(Mode.CTR, reference_params(), Fraction(-1))
