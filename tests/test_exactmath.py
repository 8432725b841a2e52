"""Exact arithmetic kernel tests.

Expected log values were computed independently with mpmath at 50 digits and
frozen here; a randomized mpmath cross-check runs alongside the frozen cases.
"""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qkdplan
from qkdplan import exactmath
from qkdplan.exactmath import (
    MAX_EXPONENT_BITS,
    FixedDecimal,
    as_natural,
    log2_rational,
    max_q_quadratic,
    parse_rational,
    render_rational,
)


def test_natural_rejects_negative_and_nonint():
    with pytest.raises(ValueError):
        as_natural(-1)
    with pytest.raises(TypeError):
        as_natural(1.5)  # type: ignore[arg-type]


def test_rational_parse_and_render():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("1.5") == Fraction(3, 2)
    assert parse_rational("7") == Fraction(7)
    assert render_rational(Fraction(3, 4)) == "3/4"
    assert render_rational(Fraction(8, 4)) == "2"
    assert parse_rational(render_rational(Fraction(12345, 67))) == Fraction(12345, 67)
    for bad in ("-1/2", "1/0", " 1/2", "1/2\n", "1e-10000000", "1E+0099999", "1/" + "7" * 5000):
        with pytest.raises(ValueError):
            parse_rational(bad)


_WIDE = 1 << 2 * MAX_EXPONENT_BITS


@settings(max_examples=100)
@given(st.integers(0, _WIDE - 1), st.integers(1, _WIDE - 1))
@example(_WIDE - 1, _WIDE - 2)  # the longest text: two coprime 2467-digit integers
def test_every_rendered_rational_parses(p: int, q: int):
    assert parse_rational(render_rational(Fraction(p, q))) == Fraction(p, q)


# ---------------------------------------------------------------- FixedDecimal


def test_fixed_decimal_render_and_round_trip():
    x = FixedDecimal(1584962501, 9)
    assert str(x) == "1.584962501"
    assert x.as_fraction() == Fraction(1584962501, 10**9)
    assert str(FixedDecimal(-5, 2)) == "-0.05"
    assert str(FixedDecimal(1200, 3)) == "1.200"
    assert str(FixedDecimal(7, 0)) == "7"


def test_fixed_decimal_from_fraction_rounds_to_nearest():
    assert FixedDecimal.from_fraction(Fraction(1, 3), 6).scaled == 333333
    assert FixedDecimal.from_fraction(Fraction(2, 3), 6).scaled == 666667
    assert FixedDecimal.from_fraction(Fraction(-1, 3), 6).scaled == -333333
    assert FixedDecimal.from_fraction(Fraction(1, 2), 0).scaled == 1  # ties away


def test_fixed_decimal_arithmetic_aligns_scales():
    a = FixedDecimal(1500, 3)  # 1.500
    b = FixedDecimal(25, 2)  # 0.25
    assert str(a + b) == "1.750"
    assert str(-a) == "-1.500"
    assert str(2 * b) == "0.50"


def test_fixed_decimal_error_paths():
    with pytest.raises(ValueError):
        FixedDecimal(1, -1)


# ------------------------------------------------------------ max_q_quadratic


def _scan_max_q(a: int, b: int, c: int, cap: int = 10**6) -> int:
    q = 0
    while q < cap and a * (q + 1) * (q + 1) + b * (q + 1) <= c:
        q += 1
    assert q < cap
    return q


def test_max_q_quadratic_small_cases():
    assert max_q_quadratic(1, 0, 100) == 10
    assert max_q_quadratic(1, 0, 99) == 9
    assert max_q_quadratic(5, 14, 0) == 0
    assert max_q_quadratic(5, 5, 1) == 0


def test_max_q_quadratic_large_frozen_case():
    # 128-bit domain, 96-block files, rho floor 2**-121, target 2**-80,
    # multiplied through by 2**128
    assert max_q_quadratic(2 * 96, 96 << 7, 1 << 48) == 1210759


def test_max_q_quadratic_matches_linear_scan():
    rng = random.Random(202)
    for _ in range(120):
        a = rng.randrange(1, 50)
        b = rng.randrange(0, 50)
        c = rng.randrange(0, 5000)
        assert max_q_quadratic(a, b, c) == _scan_max_q(a, b, c)


def test_max_q_quadratic_rejects_bad_inputs():
    for bad in ((0, 1, 1), (-1, 1, 1), (1, 1, -1)):
        with pytest.raises(ValueError):
            max_q_quadratic(*bad)
    with pytest.raises(TypeError):
        max_q_quadratic(Fraction(1, 2), 1, 1)


# Each block breaks the solver or the gain on purpose and requires its
# certificate to raise; the script refuses to run with asserts enabled.
_BROKEN_UNDER_O = """
from qkdplan import exactmath, planner
from qkdplan.advmodel import Mode, SecurityParams

if __debug__:
    raise SystemExit("expected python -O")

def raises(fn, *args):
    try:
        fn(*args)
    except AssertionError as exc:
        print("raised", exc)
    else:
        raise SystemExit(fn.__name__ + " returned without its certificate")

real_isqrt = exactmath.isqrt
exactmath.isqrt = lambda n: 0  # collapses the integer root to Q=0
raises(exactmath.max_q_quadratic, 1, 0, 100)
exactmath.isqrt = real_isqrt

planner.bound_parts = lambda mode, params, q: (q, 0, 0, 1)  # a linear bound: ratio exactly k
params = SecurityParams.from_bits(16, 14, 4, target_bits=9)
raises(planner.improvement_bits, Mode.CTR, params, 3, 2)
raises(planner.benefit, Mode.CTR, params, 3, 2, 1)
raises(planner.sweep_k, Mode.CTR, params, 3, [1, 2])
"""


def test_certificates_raise_under_optimize():
    src = Path(qkdplan.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_UNDER_O], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("raised ") == 4, proc.stdout


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a certificate must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(qkdplan.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# --------------------------------------------------------------- log2_rational


def test_log2_frozen_values():
    assert str(log2_rational(Fraction(3), 12)) == "1.584962500721"
    assert str(log2_rational(Fraction(3), 9)) == "1.584962501"
    assert str(log2_rational(Fraction(5, 512), 9)) == "-6.678071905"
    assert str(log2_rational(Fraction(1), 9)) == "0.000000000"
    assert log2_rational(Fraction(1 << 260), 6).as_fraction() == 260


def test_log2_powers_of_two_are_exact():
    for e in (-300, -5, -1, 0, 1, 17, 128, 260):
        got = log2_rational(Fraction(2) ** e, 9)
        assert got.as_fraction() == e


# Operands of 1 to 400 bits, so log2 spans about +-400 and 60 decimals still
# leave mpmath's 90 significant digits well clear of the rounding step.
_operands = st.integers(1, 400).flatmap(lambda bits: st.integers(1, 1 << bits))


@settings(max_examples=400)
@given(_operands, _operands, st.integers(1, 60))
def test_log2_matches_mpmath_oracle(p: int, q: int, digits: int):
    got = log2_rational(Fraction(p, q), digits)
    with mpmath.workdps(90):
        want = mpmath.log(mpmath.mpf(p) / mpmath.mpf(q), 2)
        err = abs(mpmath.mpf(got.scaled) / mpmath.mpf(10) ** digits - want)
        assert err < mpmath.mpf(10) ** -digits


def test_log2_rejects_nonpositive_and_bad_precision():
    with pytest.raises(ValueError):
        log2_rational(Fraction(0))
    with pytest.raises(ValueError):
        log2_rational(Fraction(-3, 2))
    with pytest.raises(ValueError):
        log2_rational(Fraction(3), 0)


# ------------------------------------------------- the filtered log2 fast path


# Operands of 1 to 1500 bits, so the ratio reaches beyond 2**+-1000.
_wide_operands = st.integers(1, 1500).flatmap(lambda bits: st.integers(1, 1 << bits))


@settings(max_examples=400)
@given(_wide_operands, _wide_operands, st.integers(1, 60))
@example(1, 1, 25)
@example((1 << 1400) + 1, 3, 26)
def test_filtered_log2_is_the_squaring_loop(p: int, q: int, digits: int):
    assert exactmath._log2(p, q, digits) == exactmath._log2_squaring(p, q, digits)


def _count_loop_calls(monkeypatch) -> list[tuple]:
    calls = []
    loop = exactmath._log2_squaring

    def counted(num, den, digits):
        calls.append((num, den, digits))
        return loop(num, den, digits)

    monkeypatch.setattr(exactmath, "_log2_squaring", counted)
    return calls


def test_log2_next_to_a_rounding_midpoint_takes_the_loop(monkeypatch):
    # log2(num / 2**1400) is within 2**-390 of a rounding midpoint in
    # (-1000, 1000), far inside any d <= 25 digit step's 2**-frac_bits of it
    calls = _count_loop_calls(monkeypatch)
    rng = random.Random(32)
    den = 1 << 1400
    cases = 0
    with mpmath.workprec(1600):
        for digits in (1, 2, 5, 9, 12, 18, 25):
            for _ in range(6):
                scale = 10**digits
                midpoint = Fraction(2 * rng.randrange(-1000 * scale, 1000 * scale) + 1, 2 * scale)
                power = mpmath.power(2, mpmath.mpf(midpoint.numerator) / midpoint.denominator)
                num = int(mpmath.floor(power * den))
                before = len(calls)
                got = exactmath._log2(num, den, digits)
                assert calls[before:] == [(num, den, digits)]
                assert abs(got.as_fraction() - midpoint) <= Fraction(1, 2 * scale)
                cases += 1
    assert len(calls) == cases == 42


def test_log2_fast_path_serves_up_to_25_digits(monkeypatch):
    calls = _count_loop_calls(monkeypatch)
    assert str(exactmath._log2(3, 1, 12)) == "1.584962500721"
    assert str(exactmath._log2(3, 1, 25)) == "1.5849625007211561814537389"
    assert calls == []
    assert str(exactmath._log2(3, 1, 26)) == "1.58496250072115618145373894"
    assert calls == [(3, 1, 26)]


def test_log2_table_and_two_over_ln2_match_mpmath():
    bits = exactmath._EST_BITS
    with mpmath.workprec(4 * bits):
        unit = mpmath.mpf(2) ** bits
        for j in range(256):
            want = mpmath.log(1 + mpmath.mpf(j) / 256, 2) * unit
            assert abs(exactmath._log2_entry(j) - want) < 1.01, j
        assert abs(exactmath._two_over_ln2() - 2 / mpmath.log(2) * unit) < 1


@settings(max_examples=300)
@given(st.integers(1 << exactmath._EST_BITS, (2 << exactmath._EST_BITS) - 1))
@example((2 << exactmath._EST_BITS) - 1)
@example((257 << exactmath._EST_BITS - 8) - 1)  # the top of table cell 0
def test_log2_estimate_is_within_its_error_budget(mant: int):
    # the module docstring's budget: within 2**6 units of 2**-_EST_BITS
    bits = exactmath._EST_BITS
    with mpmath.workprec(4 * bits):
        want = mpmath.log(mpmath.mpf(mant) / mpmath.mpf(2) ** bits, 2) * mpmath.mpf(2) ** bits
        assert abs(exactmath._log2_estimate(mant) - want) < 2**6


def test_importing_the_package_fills_no_log2_table():
    src = Path(qkdplan.__file__).resolve().parents[1]
    probe = (
        "import qkdplan.cli\n"
        "from qkdplan import exactmath as x\n"
        "print([f.cache_info().currsize for f in (x._log2_entry, x._atanh_one_third, x._two_over_ln2)])"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "[0, 0, 0]", proc.stderr
