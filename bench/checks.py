"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports qkdplan.  The per-mode advantage bounds are written out
again from the paper's formulas, Q* comes from the quadratic formula with an
integer square root, rotation gains come from mpmath at 50 significant
digits, and Monte Carlo collision counts are compared with exact collision
probabilities.  Every check raises CheckFailed (never ``assert``, which
``python -O`` strips) with a message naming what disagreed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

# mpmath works at this many significant digits.
MP_DIGITS = 50

# Pooled Monte Carlo counts may sit at most this many standard deviations
# from their exact expectation.  Fixed before any run; the chance that a
# correct program trips it is about 6e-7 per pooled count.
Z_BOUND = 5.0

# The program reports gains to 12 decimals and levels to 9.
GAIN_DIGITS = 12
LEVEL_DIGITS = 9


class CheckFailed(Exception):
    """An output of the program disagrees with the reference computation."""


@dataclass(frozen=True)
class Problem:
    """One planning problem in the paper's terms, all sizes as exponents.

    N = 2**lam is the block domain, s_min = 2**s_bits the min-entropy floor,
    l the blocks per file, eps = 2**-target_bits the advantage ceiling.
    """

    mode: str
    denominator: str
    lam: int
    s_bits: int
    l: int
    target_bits: int

    @property
    def eps(self) -> Fraction:
        return Fraction(1, 1 << self.target_bits)


def bound(p: Problem, q: Fraction | int) -> Fraction:
    """The paper's per-mode advantage bound after q files (q may be fractional)."""
    q = Fraction(q)
    n = 1 << p.lam
    s = 1 << p.s_bits
    l = p.l
    if p.mode == "ctr":
        return q * l / s + 2 * q * q * l / n
    if p.mode == "cbc":
        return q * l / s + 2 * q * q * l * l / n
    if p.mode == "ecbc-mac":
        d = 2 * n if p.denominator == "two-n" else n
        return 2 * q * l / s + (q * q * (l * l + 1) + 2) / d
    raise ValueError(f"unknown mode {p.mode!r}")


@functools.lru_cache(maxsize=1 << 12)
def cleared(p: Problem) -> tuple[int, int, int, int]:
    """Integers (a, b, c0, m) with m * bound(Q) = a*Q^2 + b*Q + c0 for all Q.

    bound is quadratic in Q, so its values at 0, 1 and 2 fix the
    coefficients: c0 from bound(0), 2a from the second difference.
    """
    b0, b1, b2 = bound(p, 0), bound(p, 1), bound(p, 2)
    a_r = (b2 - 2 * b1 + b0) / 2
    b_r = b1 - b0 - a_r
    m = math.lcm(a_r.denominator, b_r.denominator, b0.denominator, p.eps.denominator)
    return int(a_r * m), int(b_r * m), int(b0 * m), m


def q_star(p: Problem) -> int:
    """Largest whole Q with bound(Q) <= eps, by the quadratic formula.

    With the bound cleared to integers, a*Q^2 + b*Q <= c is solved by
    floor((sqrt(b^2 + 4ac) - b) / 2a) with math.isqrt; the result is then
    moved by at most one step until it is maximal against the rational
    bound itself.
    """
    a, b, c0, m = cleared(p)
    c = p.eps * m - c0
    if c < 0:
        return 0
    q = (math.isqrt(b * b + 4 * a * int(c)) - b) // (2 * a)
    if bound(p, q + 1) <= p.eps:
        q += 1
    elif bound(p, q) > p.eps:
        q -= 1
    if bound(p, q) > p.eps or bound(p, q + 1) <= p.eps:
        raise CheckFailed(f"reference solve for {p} is not maximal at {q}")
    return q


def rotation_ratio(p: Problem, q: int, k: int) -> tuple[int, int]:
    """bound(Q)/bound(Q/k) as (numerator, denominator) integers.

    m*bound(Q/k)*k^2 = a*Q^2 + b*Q*k + c0*k^2, so the ratio is
    k^2 (a Q^2 + b Q + c0) / (a Q^2 + b Q k + c0 k^2).
    """
    a, b, c0, _ = cleared(p)
    return k * k * (a * q * q + b * q + c0), a * q * q + b * q * k + c0 * k * k


# Reference values are computed with mpmath and held as integers in units
# of 10**-FIX, so comparing one with a reported decimal is integer work.
# mpmath is imported where it is used, so that a workload's set-up, which
# imports this module to draw its inputs, does not pay for it.
FIX = 30


def _log2_fixed(num: int, den: int) -> int:
    """round(log2(num/den) * 10**FIX)."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        return int(mpmath.nint(mpmath.log(mpmath.mpf(num) / den, 2) * 10**FIX))


def _fixed(reported: str) -> int:
    """A decimal string exactly, in units of 10**-FIX."""
    digits = reported.removeprefix("-")
    whole, _, frac = digits.partition(".")
    if not (whole + frac).isdigit() or len(frac) > FIX:
        raise CheckFailed(f"{reported!r} is not a decimal of at most {FIX} places")
    value = int(whole + frac.ljust(FIX, "0"))
    return -value if reported.startswith("-") else value


def _render(fixed: int) -> str:
    whole, frac = divmod(abs(fixed), 10**FIX)
    return f"{'-' if fixed < 0 else ''}{whole}.{frac:0{FIX}d}"


def _close(name: str, reported: str, truth: int, tol: int) -> None:
    """|reported - truth| <= tol, both in units of 10**-FIX; one unit of slack
    covers the rounding of the reference itself."""
    err = abs(_fixed(reported) - truth)
    if err > tol + 1:
        raise CheckFailed(
            f"{name}={reported} but reference is {_render(truth)} "
            f"(off by {err / 10**FIX:.1e}, tolerance {tol / 10**FIX:.1e})"
        )


GAIN_STEP = 10 ** (FIX - GAIN_DIGITS)
LEVEL_STEP = 10 ** (FIX - LEVEL_DIGITS)


def check_q_star(p: Problem, reported: int) -> int:
    """Reported Q* must equal the reference solve; returns the reference."""
    expected = q_star(p)
    if reported != expected:
        raise CheckFailed(f"{p}: q_star={reported}, reference {expected}")
    return expected


@functools.lru_cache(maxsize=1 << 12)
def gain_truth(p: Problem, q: int, k: int) -> int:
    """log2 of bound(Q*)/bound(Q*/k), the security gained by k-way rotation,
    in units of 10**-FIX."""
    return _log2_fixed(*rotation_ratio(p, q, k))


@functools.lru_cache(maxsize=64)
def _log2_k(k: int) -> int:
    return _log2_fixed(k, 1)


def check_gain(p: Problem, q: int, k: int, delta: str, lower: str, upper: str) -> None:
    """A reported gain row: the gain, its bracket, and the strict bracket."""
    if k == 1:
        for name, value in (("delta", delta), ("lower", lower), ("upper", upper)):
            if Fraction(value) != 0:
                raise CheckFailed(f"{p} k=1: {name}={value}, expected 0")
        return
    # The exact bracket: log2 k < gain < 2 log2 k iff k < ratio < k^2.
    num, den = rotation_ratio(p, q, k)
    if not k * den < num < k * k * den:
        raise CheckFailed(f"{p} q={q} k={k}: bound ratio {num / den} outside (k, k^2)")
    # The reported gain is log2 k plus log2(1+X), each rounded to the step.
    _close(f"{p} q={q} k={k} delta", delta, gain_truth(p, q, k), 2 * GAIN_STEP)
    _close(f"k={k} lower", lower, _log2_k(k), GAIN_STEP)
    _close(f"k={k} upper", upper, 2 * _log2_k(k), 2 * GAIN_STEP)
    if not _fixed(lower) <= _fixed(delta) <= _fixed(upper):
        raise CheckFailed(f"{p} k={k}: delta {delta} outside [{lower}, {upper}]")


def check_direct(p: Problem, q: int, k: int, closed: str, direct: str) -> None:
    """The two gain paths `improve` prints, each against the reference."""
    _close(f"{p} k={k} closed_form", closed, gain_truth(p, q, k), 2 * GAIN_STEP)
    _close(f"{p} k={k} direct", direct, gain_truth(p, q, k), 2 * GAIN_STEP)


def check_level(p: Problem, q: int, reported: str) -> None:
    """worst_case_bits = -log2 bound(Q*), to the reported 9 decimals."""
    value = bound(p, q)
    _close(f"{p} worst_case_bits", reported, _log2_fixed(value.denominator, value.numerator), LEVEL_STEP)


def check_benefit(p: Problem, q: int, k: int, cost: Fraction, reported: str) -> None:
    """benefit = Q* * gain / (k * cost); the gain enters rounded to 12 decimals."""
    num, den = q * cost.denominator, k * cost.numerator
    truth = (num * gain_truth(p, q, k) + den // 2) // den
    # the gain's rounding and the reference gain's half unit, both scaled by
    # Q*/(k*cost), plus the reported value's own rounding
    tol = num * (2 * GAIN_STEP + 1) // den + 1 + LEVEL_STEP
    _close(f"{p} k={k} benefit", reported, truth, tol)


# ------------------------------------------------------------ Monte Carlo


def ctr_collision_probability(block_bits: int, q: int, l: int) -> Fraction:
    """P(two of q counter runs of length l overlap) on a circle of N points.

    With uniform starting points, P(no overlap) = N*(q-1)!*C(N-ql+q-1, q-1)/N^q:
    fix the first run, then count the ways to place the others in the gaps.
    """
    n = 1 << block_bits
    if q * l > n:
        return Fraction(1)
    free = n * math.factorial(q - 1) * math.comb(n - q * l + q - 1, q - 1)
    return 1 - Fraction(free, n**q)


def cbc_collision_probability(block_bits: int, q: int, l: int) -> Fraction:
    """P(some two of q*l i.i.d. uniform cipher inputs are equal)."""
    n = 1 << block_bits
    distinct = Fraction(1)
    for i in range(q * l):
        distinct *= Fraction(n - i, n)
    return 1 - distinct


def check_collisions(label: str, collisions: int, trials: int, probability: Fraction) -> None:
    """A pooled collision count must lie within Z_BOUND sigma of its expectation."""
    p = float(probability)
    sigma = math.sqrt(trials * p * (1.0 - p))
    z = (collisions - trials * p) / sigma
    if not abs(z) <= Z_BOUND:
        raise CheckFailed(
            f"{label}: {collisions} collisions in {trials} trials, expected "
            f"{trials * p:.1f} (z={z:.2f}, bound {Z_BOUND})"
        )


# --------------------------------------------------------------- rotation


def check_schedule(
    events: list[tuple[int, int, int, int]], files: int, cap: int, keys_consumed: int
) -> None:
    """Lazy rotation: event i fires at file (i+1)*cap and keys chain in order.

    events are (event_index, old_key_id, new_key_id, at_file_count).
    """
    expected_keys = -(-files // cap)
    if keys_consumed != expected_keys:
        raise CheckFailed(f"{keys_consumed} keys for {files} files at cap {cap}, expected {expected_keys}")
    if len(events) != expected_keys - 1:
        raise CheckFailed(f"{len(events)} rotations for {files} files at cap {cap}")
    for i, (index, old, new, at) in enumerate(events):
        if index != i or at != (i + 1) * cap:
            raise CheckFailed(f"event {i} is ({index}, at file {at}), expected at {(i + 1) * cap}")
        if new == old or (i and old != events[i - 1][2]):
            raise CheckFailed(f"event {i} breaks the key chain: {old} -> {new}")


def check_ciphertext(mode: str, block_bytes: int, plaintext: bytes, ciphertext: bytes) -> None:
    """Length (1+ceil(len/b))*b for CTR/CBC, b for the MAC tag; CTR keystream distinct."""
    blocks = max(1, -(-len(plaintext) // block_bytes))
    expected = block_bytes if mode == "ecbc-mac" else (1 + blocks) * block_bytes
    if len(ciphertext) != expected:
        raise CheckFailed(f"{mode}: {len(ciphertext)} bytes for a {len(plaintext)}-byte file, expected {expected}")
    if mode == "ctr" and not any(plaintext):
        stream = [ciphertext[i : i + block_bytes] for i in range(block_bytes, len(ciphertext), block_bytes)]
        if len(set(stream)) != len(stream):
            raise CheckFailed("ctr: repeated keystream block within one file")
