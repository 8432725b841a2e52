"""Rotation planning: how many files one key may encrypt, and what splitting
the schedule across k keys buys.

``compute_q_star`` turns the mode's advantage bound (advmodel's bound table)
into the integer constraint a*Q^2 + b*Q <= c and maximizes exactly.
``improvement_bits`` quantifies the security gained by encrypting Q*/k files
under each of k keys instead of Q* under one: the gain is
log2(bound(Q*) / bound(Q*/k)), computed once from one exact rational.  That
ratio always lies strictly between k and k^2 for k >= 2, so the gain lies
between log2(k) and 2*log2(k): rotation at least halves the effective
exposure per key but cannot beat the square-law limit of the birthday terms.
The bracket is checked on the exact ratio before any rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .advmodel import Mode, SecurityParams, bound_at, budget_quadratic
from .exactmath import (
    DEFAULT_PRECISION,
    FixedDecimal,
    as_natural,
    log2_rational,
    max_q_quadratic,
)

__all__ = [
    "InfeasibleTargetError",
    "RotationPlan",
    "ImprovementReport",
    "SweepRow",
    "blocks_per_file",
    "volume_kb",
    "volume_mb",
    "compute_q_star",
    "improvement_bits",
    "benefit",
    "sweep_k",
]

_IMPROVEMENT_PRECISION = 12  # internal; reports round no further than this


class InfeasibleTargetError(ValueError):
    """The advantage ceiling cannot be met by even a single file."""


@dataclass(frozen=True)
class RotationPlan:
    """Result of maximizing the per-key file budget for one mode."""

    mode: Mode
    params: SecurityParams
    q_star: int
    eps_at_q_star: Fraction
    worst_case_bits: FixedDecimal
    file_size_bytes: int
    block_bits: int  # the width that chunks file_size_bytes into params.blocks_per_file

    @property
    def max_data_volume_bytes(self) -> int:
        return self.q_star * self.file_size_bytes


@dataclass(frozen=True)
class ImprovementReport:
    """Security gained by a k-way key rotation of a fixed Q* schedule."""

    k: int
    delta_bits: FixedDecimal
    lower_bound_bits: FixedDecimal  # log2(k)
    upper_bound_bits: FixedDecimal  # 2*log2(k)


@dataclass(frozen=True)
class SweepRow(ImprovementReport):
    """A rotation gain at k, with its bracket and its benefit per key spent."""

    benefit: FixedDecimal


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
    omitted the per-file size is derived from the block count.  The plan
    records both, so calling this again with the plan's mode, params,
    file_size_bytes and block_bits rebuilds it.  Raises
    InfeasibleTargetError when not even one file fits under the ceiling.
    """
    if block_bits is None:
        block_bits = params.lambda_bits
    if file_size_bytes is None:
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
    eps_at = bound_at(mode, params, Fraction(q_star))
    return RotationPlan(
        mode=mode,
        params=params,
        q_star=q_star,
        eps_at_q_star=eps_at,
        worst_case_bits=-log2_rational(eps_at, DEFAULT_PRECISION),
        file_size_bytes=file_size_bytes,
        block_bits=block_bits,
    )


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
    if as_natural(k) < 1:
        raise ValueError("k must be >= 1")
    if k > as_natural(q_star):
        raise ValueError(f"k={k} exceeds q_star={q_star}; keys would sit idle")

    zero = FixedDecimal(0, _IMPROVEMENT_PRECISION)
    if k == 1:
        return ImprovementReport(1, zero, zero, zero)

    ratio = bound_at(mode, params, Fraction(q_star)) / bound_at(mode, params, Fraction(q_star, k))
    # log2 k < gain < 2 log2 k iff k < ratio < k^2; checked before rounding.
    if not k < ratio < k * k:
        raise AssertionError(f"bound ratio {ratio} at k={k} lies outside ({k}, {k * k})")
    # Rounded as log2 k + log2(ratio / k): both terms round into [0, log2 k],
    # so the reported gain cannot step outside the reported bracket.
    log2_k = log2_rational(Fraction(k), _IMPROVEMENT_PRECISION)
    return ImprovementReport(
        k=k,
        delta_bits=log2_k + log2_rational(ratio / k, _IMPROVEMENT_PRECISION),
        lower_bound_bits=log2_k,
        upper_bound_bits=2 * log2_k,
    )


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
    key_cost = Fraction(key_cost)
    if key_cost <= 0:
        raise ValueError("key_cost must be > 0")
    report = improvement_bits(mode, params, q_star, k)
    value = report.delta_bits.as_fraction() * q_star / (k * key_cost)
    return SweepRow(**vars(report), benefit=FixedDecimal.from_fraction(value, DEFAULT_PRECISION))


def sweep_k(
    mode: Mode,
    params: SecurityParams,
    q_star: int,
    k_values: list[int],
    key_cost: Fraction = Fraction(1),
) -> list[SweepRow]:
    """A sweep row is benefit at each k, in the given order."""
    return [benefit(mode, params, q_star, k, key_cost) for k in k_values]
