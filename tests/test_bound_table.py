"""Property tests: everything derived from the bound table agrees with the
paper's formulas, which tests/paper_formulas.py writes out on its own."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from paper_formulas import paper_birthday, paper_bound, unit_scan_limit

from qkdplan.advmodel import EcbcDenominator, Mode, SecurityParams, bound_at
from qkdplan.empirics import TrialConfig, estimate_collision_probability
from qkdplan.planner import InfeasibleTargetError, compute_q_star

PROPERTY = settings(max_examples=150)


@st.composite
def problems(draw, max_blocks: int = 1 << 12, max_gap_bits: int = 130):
    """A valid SecurityParams.  lambda lies up to 2 bits below and 130 above
    the target's bit count; s_min is l * 2**target scaled by 2**-1 up to
    2**max_gap_bits, so the entropy term alone admits about 2**gap files."""
    target = draw(st.integers(3, 130))
    l = draw(st.integers(1, max_blocks))
    return SecurityParams.from_bits(
        target + draw(st.integers(-2, 130)),
        target + l.bit_length() + draw(st.integers(-1, max_gap_bits)),
        l,
        target_bits=target,
        ecbc_denominator=draw(st.sampled_from(EcbcDenominator)),
    )


@PROPERTY
@given(
    st.sampled_from(Mode),
    problems(),
    st.integers(0, 1 << 64),
)
def test_bound_at_is_the_paper_bound(mode: Mode, params: SecurityParams, q: int) -> None:
    assert bound_at(mode, params, q) == paper_bound(mode, params, Fraction(q))


@PROPERTY
@given(
    st.sampled_from([Mode.CTR, Mode.CBC]),
    st.integers(8, 12),
    st.integers(1, 16),
    st.integers(1, 8),
    st.integers(0, 1 << 32),
)
def test_monte_carlo_bound_is_the_paper_birthday_term(mode: Mode, bits: int, q: int, l: int, seed: int) -> None:
    result = estimate_collision_probability(TrialConfig(mode, bits, q, l, trials=1000, rng_seed=seed))
    assert result.theoretical_bound == paper_birthday(mode, bits, q, l)


@PROPERTY
@given(st.sampled_from(Mode), problems(max_blocks=16, max_gap_bits=13))
def test_q_star_is_the_paper_unit_scan(mode: Mode, params: SecurityParams) -> None:
    # the entropy term caps Q* near 2**(13 + 1), so the walk stays short
    scan = unit_scan_limit(mode, params, 1 << 15)
    try:
        assert compute_q_star(mode, params).q_star == scan
    except InfeasibleTargetError:
        assert scan == 0


@PROPERTY
@given(st.sampled_from(Mode), problems())
def test_q_star_is_maximal_under_the_paper_bound(mode: Mode, params: SecurityParams) -> None:
    # Q* here reaches about 2**55, far past what the unit scan can walk
    try:
        q_star = compute_q_star(mode, params).q_star
    except InfeasibleTargetError:
        assert paper_bound(mode, params, Fraction(1)) > params.eps_max
        return
    at_q, at_next = (paper_bound(mode, params, Fraction(q)) for q in (q_star, q_star + 1))
    assert at_q <= params.eps_max < at_next
