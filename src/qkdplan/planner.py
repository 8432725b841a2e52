"""Rotation planning: how many files one key may encrypt, and what splitting
the schedule across k keys buys.

``compute_q_star`` turns the mode's advantage bound (advmodel's bound table)
into the integer constraint a*Q^2 + b*Q <= c and maximizes exactly.
``improvement_bits`` quantifies the security gained by encrypting Q*/k files
under each of k keys instead of Q* under one: ``delta_bits`` is
log2(bound(Q*) / bound(Q*/k)), the gain against one key.  With advmodel's
bound_parts (L, B, C, M) at Q*, M cancels and that ratio is k*num/den for
the integers num = k(L+B+C) and den = kL + B + k^2*C, with no Fraction.
It always lies strictly between k and k^2 for k >= 2, i.e. den < num < k*den,
so the gain lies between log2(k) and 2*log2(k): rotation at least halves the
effective exposure per key but cannot beat the square-law limit of the
bound.  The bracket is checked on the integers before any rounding;
a report stores only k and delta_bits and derives the bracket from k.
A sweep over many k checks Q* and evaluates the bound once, then forms
each k's integers from the same (L, B, C).

An adversary who sees all k keys' traffic gets up to k*bound(Q*/k) by the
hybrid bound over k independent keys, so the whole schedule's gain is
delta_bits - log2(k) = log2(num/den), which lies in (0, log2(k)).
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache

from .advmodel import Mode, SecurityParams, bound_at, bound_parts, budget_quadratic, check_key_cost
from .exactmath import (
    DEFAULT_PRECISION,
    FixedDecimal,
    _log2_scaled,
    _Record,
    as_natural,
    log2_rational,
    max_q_quadratic,
)

_IMPROVEMENT_PRECISION = 12  # internal; reports round no further than this


class InfeasibleTargetError(ValueError):
    """The advantage ceiling cannot be met by even a single file."""


class RotationPlan(_Record):
    """Result of maximizing the per-key file budget for one mode.

    Stores the inputs and Q*; the bound at Q* and the worst-case security
    level -log2 of it are derived on read.
    """

    __slots__ = _fields = ("mode", "params", "q_star", "file_size_bytes", "block_bits")

    def __init__(
        self,
        mode: Mode,
        params: SecurityParams,
        q_star: int,
        file_size_bytes: int,
        block_bits: int,  # the width that chunks file_size_bytes into params.blocks_per_file
    ) -> None:
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "q_star", q_star)
        object.__setattr__(self, "file_size_bytes", file_size_bytes)
        object.__setattr__(self, "block_bits", block_bits)

    @property
    def eps_at_q_star(self) -> Fraction:
        return bound_at(self.mode, self.params, self.q_star)

    @property
    def worst_case_bits(self) -> FixedDecimal:
        return FixedDecimal(-log2_rational(self.eps_at_q_star, DEFAULT_PRECISION).scaled, DEFAULT_PRECISION)

    @property
    def max_data_volume_bytes(self) -> int:
        return self.q_star * self.file_size_bytes


class ImprovementReport(_Record):
    """Security gained by a k-way key rotation of a fixed Q* schedule.

    delta_bits is the gain against one key, log2(bound(Q*) / bound(Q*/k)),
    bracketed by lower_bound_bits = log2 k and upper_bound_bits = 2 log2 k,
    which are derived from k, an int >= 1.  delta_bits - lower_bound_bits is
    the whole schedule's gain, in (0, log2 k).
    """

    __slots__ = _fields = ("k", "delta_bits")

    def __init__(self, k: int, delta_bits: FixedDecimal) -> None:
        if type(k) is not int:
            raise TypeError(f"k must be an int, got {type(k).__name__}")
        if k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "delta_bits", delta_bits)

    @property
    def lower_bound_bits(self) -> FixedDecimal:
        return FixedDecimal(_log2_k(self.k), _IMPROVEMENT_PRECISION)

    @property
    def upper_bound_bits(self) -> FixedDecimal:
        return FixedDecimal(2 * _log2_k(self.k), _IMPROVEMENT_PRECISION)


class SweepRow(ImprovementReport):
    """A rotation gain at k, with its bracket and its benefit per key spent."""

    __slots__ = ("benefit",)
    _fields = ImprovementReport._fields + __slots__

    def __init__(self, k: int, delta_bits: FixedDecimal, benefit: FixedDecimal) -> None:
        ImprovementReport.__init__(self, k, delta_bits)
        object.__setattr__(self, "benefit", benefit)


def blocks_per_file(file_size_bytes: int, block_bits: int) -> int:
    """Cipher blocks needed for one file, final partial block counted whole."""
    if as_natural(file_size_bytes) == 0:
        raise ValueError("file_size_bytes must be >= 1")
    if as_natural(block_bits) < 8 or block_bits % 8:
        raise ValueError("block_bits must be a positive multiple of 8")
    return (file_size_bytes * 8 + block_bits - 1) // block_bits


def volume_kb(size_bytes: int) -> Fraction:
    return Fraction(as_natural(size_bytes), 1024)


def volume_mb(size_bytes: int) -> Fraction:
    return Fraction(as_natural(size_bytes), 1024 * 1024)


def compute_q_star(
    mode: Mode,
    params: SecurityParams,
    file_size_bytes: int | None = None,
    block_bits: int | None = None,
) -> RotationPlan:
    """Maximize files per key subject to the mode's advantage ceiling.

    file_size_bytes, when given, must chunk (at block_bits, default the
    security parameter) into exactly params.blocks_per_file blocks; when
    omitted the per-file size is derived from the block count, which needs
    block_bits >= 1.  The plan records both, so calling this again with the
    plan's mode, params, file_size_bytes and block_bits rebuilds it.  Raises
    InfeasibleTargetError when not even one file fits under the ceiling.
    """
    if block_bits is None:
        block_bits = params.lambda_bits
    if file_size_bytes is None:
        if as_natural(block_bits) < 1:
            raise ValueError("block_bits must be >= 1")
        file_size_bytes = (params.blocks_per_file * block_bits + 7) // 8
    else:
        implied = blocks_per_file(file_size_bytes, block_bits)
        if implied != params.blocks_per_file:
            raise ValueError(
                f"file of {file_size_bytes} bytes is {implied} blocks of "
                f"{block_bits} bits, but params.blocks_per_file is "
                f"{params.blocks_per_file}"
            )

    a, b, c = budget_quadratic(mode, params)
    if c < 0:
        raise InfeasibleTargetError(
            "advantage ceiling is below the bound's constant floor const/D"
        )
    q_star = max_q_quadratic(a, b, c)
    if q_star == 0:
        raise InfeasibleTargetError(
            "advantage ceiling rules out encrypting even one file"
        )
    return RotationPlan(mode, params, q_star, file_size_bytes, block_bits)


def improvement_bits(
    mode: Mode,
    params: SecurityParams,
    q_star: int,
    k: int,
) -> ImprovementReport:
    """Security-level gain of a k-way rotation, with its strict bracket.

    Requires 1 <= k <= q_star so each key still encrypts at least one file.
    k=1 is the degenerate no-rotation case and reports all zeros.
    """
    return ImprovementReport(k, FixedDecimal(_gain(mode, params, q_star)(k), _IMPROVEMENT_PRECISION))


def _gain(mode: Mode, params: SecurityParams, q_star: int) -> Callable[[int], int]:
    """delta_bits.scaled as a function of k, with Q* checked and the bound evaluated once, here."""
    lin, quad, const, _ = bound_parts(mode, params, as_natural(q_star))

    def delta_scaled(k: int) -> int:
        if as_natural(k) < 1:
            raise ValueError("k must be >= 1")
        if k > q_star:
            raise ValueError(f"k={k} exceeds q_star={q_star}; keys would sit idle")
        if k == 1:
            return 0
        # bound(Q*)/bound(Q*/k) = k*num/den; log2 k < gain < 2 log2 k iff
        # den < num < k*den, checked before rounding.
        num = k * (lin + quad + const)
        den = k * lin + quad + k * k * const
        if not den < num < k * den:
            raise AssertionError(f"bound ratio {k}*{num}/{den} at k={k} lies outside ({k}, {k * k})")
        # Rounded as log2 k + log2(num/den): both terms round into [0, log2 k],
        # so the reported gain cannot step outside the reported bracket.
        return _log2_k(k) + _log2_scaled(num, den, _IMPROVEMENT_PRECISION)

    return delta_scaled


@lru_cache(maxsize=256)
def _log2_k(k: int) -> int:
    """log2 k, for an int k >= 1, scaled to the gain's precision; a sweep
    asks for the same few k."""
    return _log2_scaled(k, 1, _IMPROVEMENT_PRECISION)


def benefit(
    mode: Mode,
    params: SecurityParams,
    q_star: int,
    k: int,
    key_cost: Fraction,
) -> SweepRow:
    """The gain at k with its bracket, plus its benefit: the security gained
    per unit of key material spent, Q* * delta / (k * cost), rounded to
    DEFAULT_PRECISION."""
    return _rows(mode, params, q_star, [k], key_cost)[0]


def sweep_k(
    mode: Mode,
    params: SecurityParams,
    q_star: int,
    k_values: list[int],
    key_cost: Fraction = Fraction(1),
) -> list[SweepRow]:
    """A sweep row is benefit at each k, in the given order."""
    return _rows(mode, params, q_star, k_values, key_cost)


def _rows(mode: Mode, params: SecurityParams, q_star: int, k_values: list[int], key_cost: Fraction) -> list[SweepRow]:
    """benefit at each k, with the key cost, Q* and the bound checked or evaluated once."""
    cost_num, cost_den = check_key_cost(key_cost).as_integer_ratio()
    gain = _gain(mode, params, q_star)
    # Q* * delta / (k * cost) rounded half up, as a floor since delta >= 0
    num, unit = 2 * q_star * cost_den * 10**DEFAULT_PRECISION, 10**_IMPROVEMENT_PRECISION * cost_num
    rows = []
    for k in k_values:
        delta, den = gain(k), unit * k
        per_cost = FixedDecimal((delta * num + den) // (2 * den), DEFAULT_PRECISION)
        rows.append(SweepRow(k, FixedDecimal(delta, _IMPROVEMENT_PRECISION), per_cost))
    return rows
