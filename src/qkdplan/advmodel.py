"""Adversary advantage model for QKD-keyed symmetric modes.

A QKD link hands the encryptor keys that are only statistically close to
uniform: the distribution's min-entropy floor s_min says no single key value
has probability above 1/s_min.  Against a computationally unbounded guessing
adversary that term contributes q_blocks / s_min; the mode itself adds the
usual birthday terms over the cipher's block domain of size N = 2**lambda.

Per-mode advantage after Q files of l blocks each:

    CTR       Q*l/s_min  +  2*Q^2*l   / N
    CBC       Q*l/s_min  +  2*Q^2*l^2 / N
    ECBC-MAC  2*Q*l/s_min + (Q^2*l^2 + Q^2 + 2) / D

ECBC's denominator D is configurable: the collision analysis gives D = 2N,
while D = N reproduces a common more conservative printed form; both are kept
selectable so planned figures can be matched either way.

``bound_terms`` is the only place these formulas are written down: it returns
each mode's integer coefficients of lin*Q/s_min + (quad*Q^2 + const)/D.  The
bound, the planner's quadratic budget (cleared to integers here and nowhere
else), the Monte Carlo birthday bound and the rotation gain are all derived
from that record.  Everything is an exact integer or Fraction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import as_natural

__all__ = [
    "Mode",
    "EcbcDenominator",
    "SecurityParams",
    "BoundTerms",
    "bound_terms",
    "budget_quadratic",
    "bound_at",
]

# Cap on lambda_bits, s_min_bits and target_bits: far above any real cipher
# or entropy floor, and small enough that 1 << bits stays cheap.
MAX_EXPONENT_BITS = 4096


class Mode(enum.Enum):
    CTR = "ctr"
    CBC = "cbc"
    ECBC_MAC = "ecbc-mac"


class EcbcDenominator(enum.Enum):
    """Block-domain denominator used by the ECBC-MAC collision terms."""

    TWO_N = "two-n"
    PAPER_COMPAT_N = "paper-compat-n"


@dataclass(frozen=True)
class BoundTerms:
    """One mode's advantage bound as integer coefficients:

        bound(Q) = lin*Q/s_min + (quad*Q^2 + const)/den
    """

    lin: int
    quad: int
    const: int
    den: int


def bound_terms(
    mode: Mode,
    blocks_per_file: int,
    domain_size: int,
    ecbc_denominator: EcbcDenominator = EcbcDenominator.TWO_N,
) -> BoundTerms:
    """The per-mode bound table for files of blocks_per_file blocks over a
    block domain of domain_size values."""
    l = blocks_per_file
    if mode is Mode.CTR:
        return BoundTerms(lin=l, quad=2 * l, const=0, den=domain_size)
    if mode is Mode.CBC:
        return BoundTerms(lin=l, quad=2 * l * l, const=0, den=domain_size)
    if mode is Mode.ECBC_MAC:
        den = 2 * domain_size if ecbc_denominator is EcbcDenominator.TWO_N else domain_size
        return BoundTerms(lin=2 * l, quad=l * l + 1, const=2, den=den)
    raise TypeError(f"unknown mode: {mode!r}")


def _exponent(name: str, bits: int) -> int:
    if not 1 <= as_natural(bits) <= MAX_EXPONENT_BITS:
        raise ValueError(f"{name} must lie in [1, {MAX_EXPONENT_BITS}]")
    return bits


@dataclass(frozen=True)
class SecurityParams:
    """Static parameters of one planning problem.

    lambda_bits     cipher block / security parameter; N = 2**lambda_bits
    s_min           min-entropy floor magnitude (typically a power of two)
    blocks_per_file l, cipher blocks in one fixed-size file
    eps_max         advantage ceiling the plan must respect
    ecbc_denominator  which D the ECBC-MAC terms divide by
    """

    lambda_bits: int
    s_min: int
    blocks_per_file: int
    eps_max: Fraction
    ecbc_denominator: EcbcDenominator = EcbcDenominator.TWO_N

    def __post_init__(self) -> None:
        _exponent("lambda_bits", self.lambda_bits)
        if as_natural(self.s_min) < 2:
            raise ValueError("s_min must be >= 2")
        if as_natural(self.blocks_per_file) < 1:
            raise ValueError("blocks_per_file must be >= 1")
        eps = Fraction(self.eps_max)
        if not 0 < eps < 1:
            raise ValueError("eps_max must lie in (0, 1)")
        object.__setattr__(self, "eps_max", eps)
        if not isinstance(self.ecbc_denominator, EcbcDenominator):
            raise TypeError("ecbc_denominator must be an EcbcDenominator")

    @classmethod
    def from_bits(
        cls,
        lambda_bits: int,
        s_min_bits: int,
        blocks_per_file: int,
        target_bits: int | None = None,
        eps_max: Fraction | None = None,
        ecbc_denominator: EcbcDenominator = EcbcDenominator.TWO_N,
    ) -> "SecurityParams":
        """Power-of-two convenience: s_min = 2**s_min_bits, eps = 2**-target_bits."""
        if (target_bits is None) == (eps_max is None):
            raise ValueError("give exactly one of target_bits / eps_max")
        if eps_max is None:
            eps_max = Fraction(1, 1 << _exponent("target_bits", target_bits))
        s_min = 1 << _exponent("s_min_bits", s_min_bits)
        return cls(lambda_bits, s_min, blocks_per_file, eps_max, ecbc_denominator)

    @property
    def domain_size(self) -> int:
        return 1 << self.lambda_bits

    def terms(self, mode: Mode) -> BoundTerms:
        """This problem's row of the bound table for mode."""
        return bound_terms(mode, self.blocks_per_file, self.domain_size, self.ecbc_denominator)


def bound_at(mode: Mode, params: SecurityParams, q_files: Fraction) -> Fraction:
    """Advantage bound at a possibly fractional file count.

    The rational q_files form exists so callers can evaluate at Q/k exactly
    when comparing rotated against unrotated schedules.
    """
    q = Fraction(q_files)
    if q < 0:
        raise ValueError("q_files must be >= 0")
    t = params.terms(mode)
    return t.lin * q / params.s_min + (t.quad * q * q + t.const) / t.den


def budget_quadratic(mode: Mode, params: SecurityParams) -> tuple[int, int, int]:
    """Integers (a, b, c) with bound_at(Q) <= eps_max exactly when
    a*Q^2 + b*Q <= c.

    With eps_max = p/r, the constraint is multiplied through by s_min*D*r.
    c is negative when the bound's constant term alone exceeds eps_max.
    """
    t = params.terms(mode)
    s = params.s_min
    p, r = params.eps_max.as_integer_ratio()
    return t.quad * s * r, t.lin * t.den * r, p * s * t.den - t.const * s * r
