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
each mode's integer coefficients (lin, quad, const, den) of
lin*Q/s_min + (quad*Q^2 + const)/den.  The Monte Carlo birthday bound reads
that row directly; everything else goes through ``bound_parts``, the one
evaluation of the bound, as four integers over the common denominator
M = s_min*D:

    bound(Q) = (L + B + C) / M,
    L = lin*Q*D,  B = s_min*quad*Q^2,  C = s_min*const.

The bound at a whole file count, the planner's quadratic budget (cleared to
integers here and nowhere else) and the rotation gain's ratio
bound(Q)/bound(Q/k) = k * k(L+B+C) / (kL + B + k^2*C) all derive from
(L, B, C, M).  Everything is an exact integer or Fraction.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .exactmath import MAX_EXPONENT_BITS, _Record, as_natural


class Mode(enum.Enum):
    CTR = "ctr"
    CBC = "cbc"
    ECBC_MAC = "ecbc-mac"


class EcbcDenominator(enum.Enum):
    """Block-domain denominator used by the ECBC-MAC collision terms."""

    TWO_N = "two-n"
    PAPER_COMPAT_N = "paper-compat-n"


def bound_terms(
    mode: Mode,
    blocks_per_file: int,
    domain_size: int,
    ecbc_denominator: EcbcDenominator = EcbcDenominator.TWO_N,
) -> tuple[int, int, int, int]:
    """The per-mode bound table for files of blocks_per_file blocks over a
    block domain of domain_size values, as (lin, quad, const, den)."""
    l = blocks_per_file
    if mode is Mode.CTR:
        return l, 2 * l, 0, domain_size
    if mode is Mode.CBC:
        return l, 2 * l * l, 0, domain_size
    if mode is Mode.ECBC_MAC:
        den = 2 * domain_size if ecbc_denominator is EcbcDenominator.TWO_N else domain_size
        return 2 * l, l * l + 1, 2, den
    raise TypeError(f"unknown mode: {mode!r}")


def check_key_cost(cost: Fraction) -> Fraction:
    """Validate and return a per-key cost as a Fraction: positive, with a
    numerator and a denominator of at most 2*MAX_EXPONENT_BITS bits, so the
    cost and its multiples print well inside the interpreter's 4300-digit
    limit on int-to-str conversion."""
    cost = _narrow_rational("key_cost", cost)
    if cost <= 0:
        raise ValueError(f"key_cost {cost} is not positive")
    return cost


def _narrow_rational(name: str, value: Fraction) -> Fraction:
    """value as a Fraction whose numerator and denominator fit in
    2*MAX_EXPONENT_BITS bits, checked before any arithmetic on it."""
    value = Fraction(value)
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > 2 * MAX_EXPONENT_BITS:
        raise ValueError(f"{name} numerator and denominator must fit in {2 * MAX_EXPONENT_BITS} bits")
    return value


def _exponent(name: str, bits: int) -> int:
    if not 1 <= as_natural(bits) <= MAX_EXPONENT_BITS:
        raise ValueError(f"{name} must lie in [1, {MAX_EXPONENT_BITS}]")
    return bits


class SecurityParams(_Record):
    """Static parameters of one planning problem.

    lambda_bits     cipher block / security parameter; N = 2**lambda_bits
    s_min           min-entropy floor magnitude (typically a power of two),
                    at most 2**MAX_EXPONENT_BITS
    blocks_per_file l, cipher blocks in one fixed-size file
    eps_max         advantage ceiling the plan must respect; its numerator
                    and denominator fit in 2*MAX_EXPONENT_BITS bits
    ecbc_denominator  which D the ECBC-MAC terms divide by
    """

    __slots__ = _fields = ("lambda_bits", "s_min", "blocks_per_file", "eps_max", "ecbc_denominator")

    def __init__(
        self,
        lambda_bits: int,
        s_min: int,
        blocks_per_file: int,
        eps_max: Fraction,
        ecbc_denominator: EcbcDenominator = EcbcDenominator.TWO_N,
    ) -> None:
        _exponent("lambda_bits", lambda_bits)
        if not 2 <= as_natural(s_min) <= 1 << MAX_EXPONENT_BITS:
            raise ValueError(f"s_min must lie in [2, 2**{MAX_EXPONENT_BITS}]")
        if as_natural(blocks_per_file) < 1:
            raise ValueError("blocks_per_file must be >= 1")
        eps = _narrow_rational("eps_max", eps_max)
        if not 0 < eps < 1:
            raise ValueError("eps_max must lie in (0, 1)")
        if not isinstance(ecbc_denominator, EcbcDenominator):
            raise TypeError("ecbc_denominator must be an EcbcDenominator")
        object.__setattr__(self, "lambda_bits", lambda_bits)
        object.__setattr__(self, "s_min", s_min)
        object.__setattr__(self, "blocks_per_file", blocks_per_file)
        object.__setattr__(self, "eps_max", eps)
        object.__setattr__(self, "ecbc_denominator", ecbc_denominator)

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


def bound_parts(mode: Mode, params: SecurityParams, q_files: int) -> tuple[int, int, int, int]:
    """The bound at q_files files as four integers (L, B, C, M):
    bound(Q) = (L + B + C) / M, with M = s_min*D, L = lin*Q*D,
    B = s_min*quad*Q^2 and C = s_min*const.

    Scaling Q by 1/k divides L by k and B by k^2 and leaves C, so the rotation
    gain's ratio needs no second evaluation and no Fraction.
    """
    lin, quad, const, den = bound_terms(mode, params.blocks_per_file, 1 << params.lambda_bits, params.ecbc_denominator)
    s = params.s_min
    return lin * q_files * den, s * quad * q_files * q_files, s * const, s * den


def bound_at(mode: Mode, params: SecurityParams, q_files: int) -> Fraction:
    """Advantage bound after q_files whole files."""
    lin, quad, const, denom = bound_parts(mode, params, as_natural(q_files))
    return Fraction(lin + quad + const, denom)


def budget_quadratic(mode: Mode, params: SecurityParams) -> tuple[int, int, int]:
    """Integers (a, b, c) with bound_at(Q) <= eps_max exactly when
    a*Q^2 + b*Q <= c.

    With eps_max = p/r, r*(L + B + C) <= p*M is read off bound_parts at
    Q = 1: a = r*B(1), b = r*L(1) and c = p*M - r*C.  c is negative when
    the bound's constant term alone exceeds eps_max.
    """
    lin, quad, const, denom = bound_parts(mode, params, 1)
    p, r = params.eps_max.as_integer_ratio()
    return quad * r, lin * r, p * denom - const * r
