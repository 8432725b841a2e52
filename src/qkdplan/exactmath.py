"""Exact arithmetic kernel: integers, rationals, fixed-point decimals, and the
two nonstandard primitives everything else leans on.

All planning quantities in this package are rationals with power-of-two
denominators blown up to hundreds of bits, so every computation here is exact
until the final human-facing rounding step.  Floats never enter any result
path.

The two primitives:

``max_q_quadratic``
    largest natural Q with a*Q^2 + b*Q <= c, for naturals a >= 1, b and c.
    One integer square root gives the floor of the positive root.  The
    answer is re-verified by exact evaluation at Q and Q+1, so a wrong root
    cannot produce a silently wrong result.

``log2_rational``
    log2 of a positive rational to a requested number of decimal digits,
    correctly computed without floats.  Integer part from bit lengths;
    fractional bits by the classic square-and-compare recurrence, run on a
    fixed-point mantissa with 64 guard bits so the accumulated truncation
    stays far below the rounding step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

__all__ = [
    "FixedDecimal",
    "DEFAULT_PRECISION",
    "as_natural",
    "parse_rational",
    "render_rational",
    "max_q_quadratic",
    "log2_rational",
]

DEFAULT_PRECISION = 9

# Guard bits for the fixed-point log2 mantissa; truncation over all the
# squarings stays below 2**-GUARD, far under any supported decimal step.
_LOG2_GUARD_BITS = 64


def as_natural(value: int) -> int:
    """Validate and return a nonnegative integer."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"natural number required, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"natural number required, {value} is negative")
    return value


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse a nonnegative rational from "p/q", a decimal string, or an int."""
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if value < 0:
        raise ValueError(f"nonnegative rational required, got {text!r}")
    return value


def render_rational(value: Fraction) -> str:
    """Render as "p/q" (or bare "p" for integers); parse_rational inverts this."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class FixedDecimal:
    """Signed fixed-point decimal: the value is scaled / 10**digits.

    Used for every human-facing bit count.  Producers guarantee the rendered
    value is within 10**-digits of the true real number; arithmetic between
    FixedDecimals is exact (scales are aligned, never reduced).
    """

    scaled: int
    digits: int

    def __post_init__(self) -> None:
        if self.digits < 0:
            raise ValueError("digits must be >= 0")

    @classmethod
    def from_fraction(cls, value: Fraction, digits: int) -> "FixedDecimal":
        """Nearest fixed-point value (ties away from zero)."""
        scale = 10**digits
        num, den = (value * scale).as_integer_ratio()
        if num >= 0:
            scaled = (2 * num + den) // (2 * den)
        else:
            scaled = -((2 * -num + den) // (2 * den))
        return cls(scaled, digits)

    def as_fraction(self) -> Fraction:
        return Fraction(self.scaled, 10**self.digits)

    def __float__(self) -> float:
        return self.scaled / 10**self.digits

    def __str__(self) -> str:
        scale = 10**self.digits
        sign = "-" if self.scaled < 0 else ""
        whole, frac = divmod(abs(self.scaled), scale)
        if self.digits == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{frac:0{self.digits}d}"

    def _aligned(self, other: "FixedDecimal") -> tuple[int, int, int]:
        digits = max(self.digits, other.digits)
        a = self.scaled * 10 ** (digits - self.digits)
        b = other.scaled * 10 ** (digits - other.digits)
        return a, b, digits

    def __add__(self, other: "FixedDecimal") -> "FixedDecimal":
        a, b, digits = self._aligned(other)
        return FixedDecimal(a + b, digits)

    def __sub__(self, other: "FixedDecimal") -> "FixedDecimal":
        a, b, digits = self._aligned(other)
        return FixedDecimal(a - b, digits)

    def __neg__(self) -> "FixedDecimal":
        return FixedDecimal(-self.scaled, self.digits)

    def __mul__(self, factor: int) -> "FixedDecimal":
        if not isinstance(factor, int):
            return NotImplemented
        return FixedDecimal(self.scaled * factor, self.digits)

    __rmul__ = __mul__

    def __lt__(self, other: "FixedDecimal") -> bool:
        a, b, _ = self._aligned(other)
        return a < b

    def __le__(self, other: "FixedDecimal") -> bool:
        a, b, _ = self._aligned(other)
        return a <= b


def max_q_quadratic(a: int, b: int, c: int) -> int:
    """Largest natural Q with a*Q^2 + b*Q <= c; 0 when even Q=1 fails.

    a, b, c must be naturals with a >= 1.  The answer is the floor of the
    positive root (sqrt(b^2 + 4ac) - b) / 2a.  Flooring the square root first
    leaves that floor unchanged, because the rest subtracts the integer b and
    divides by the positive integer 2a.  The returned Q is confirmed maximal
    by exact evaluation at Q and Q+1.
    """
    as_natural(b)
    as_natural(c)
    if as_natural(a) < 1:
        raise ValueError("a must be >= 1")
    q = (isqrt(b * b + 4 * a * c) - b) // (2 * a)
    if not a * q * q + b * q <= c < a * (q + 1) * (q + 1) + b * (q + 1):
        raise AssertionError(f"Q={q} is not the largest solution of {a}*Q^2 + {b}*Q <= {c}")
    return q


def _floor_log2(value: Fraction) -> int:
    """floor(log2(p/q)) via bit lengths plus one exact comparison."""
    p, q = value.numerator, value.denominator
    e = p.bit_length() - q.bit_length()  # true floor is e or e-1
    if e >= 0:
        return e if (q << e) <= p else e - 1
    return e if q <= (p << -e) else e - 1


def log2_rational(value: Fraction, precision_digits: int = DEFAULT_PRECISION) -> FixedDecimal:
    """log2 of a positive rational, rounded to precision_digits decimals.

    The rendered value differs from the true logarithm by less than
    10**-precision_digits.  Fractional bits come from repeatedly squaring the
    mantissa m in [1, 2): each squaring emits one bit of log2(m).  The
    mantissa lives in fixed point with 64 guard bits, so truncation over the
    ~4*digits squarings is negligible against the decimal rounding step.
    """
    value = Fraction(value)
    if value <= 0:
        raise ValueError("log2 requires a positive value")
    if precision_digits < 1:
        raise ValueError("precision_digits must be >= 1")

    # 10**-d in bits, plus slack so decimal rounding dominates all error.
    frac_bits = (precision_digits * 10 + 2) // 3 + 8
    width = frac_bits + _LOG2_GUARD_BITS

    e = _floor_log2(value)
    p, q = value.numerator, value.denominator
    # mantissa m = value / 2**e in [1, 2), as floor(m * 2**width)
    if e >= 0:
        mant = (p << width) // (q << e)
    else:
        mant = (p << (width - e)) // q

    one = 1 << width
    bits = 0
    for _ in range(frac_bits):
        mant = (mant * mant) >> width
        bits <<= 1
        if mant >= 2 * one:
            bits |= 1
            mant >>= 1

    # bits / 2**frac_bits approximates log2(mantissa) from below; convert to
    # decimal with round-half-up, folding any carry into the integer part.
    scale = 10**precision_digits
    frac_scaled = (2 * bits * scale + (1 << frac_bits)) >> (frac_bits + 1)
    return FixedDecimal(e * scale + frac_scaled, precision_digits)
