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
    computed without floats.  The result is faithful (within 10^-d) but not
    always the nearest: a value just above a rounding midpoint can round
    down.  Integer part from bit lengths; fractional bits by the classic
    square-and-compare recurrence, run on a fixed-point mantissa with 64
    guard bits so the accumulated truncation stays far below the rounding
    step.  The work is done by ``_log2`` on an integer pair (num, den) that
    need not be in lowest terms: the integer part and the floor of the
    mantissa depend only on the value num/den, so the rotation gain's ratio
    is passed as the two integers it is built from, with no gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import attrgetter

DEFAULT_PRECISION = 9

# Cap on lambda_bits, s_min_bits and target_bits, and half the bit width of
# a rational's numerator or denominator: far above any real cipher or
# entropy floor, and small enough that 1 << bits stays cheap.
MAX_EXPONENT_BITS = 4096
# two integers below 2**(2*MAX_EXPONENT_BITS) and a slash
_LONGEST_RATIONAL = 2 * len(str((1 << 2 * MAX_EXPONENT_BITS) - 1)) + 1

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


def parse_rational(text: str) -> Fraction:
    """Parse a nonnegative rational from "p/q" or a decimal string ("1.5",
    "1e-3") with no surrounding whitespace.  Fraction turns an exponent N
    into 10**N, so text longer, or with a longer exponent, than a rational
    of 2*MAX_EXPONENT_BITS-bit parts can have is rejected before Fraction
    reads it; render_rational's text of every such rational parses."""
    if text != text.strip():
        raise ValueError(f"rational {text!r} has surrounding whitespace")
    exponent = text.lower().partition("e")[2]
    if len(text) > _LONGEST_RATIONAL or len(exponent.lstrip("+-").lstrip("0_")) > 4:
        shown = text if len(text) <= 24 else f"{text[:20]}..."
        raise ValueError(f"rational {shown}: numerator and denominator must fit in {2 * MAX_EXPONENT_BITS} bits")
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


class _Record:
    """Base of the package's immutable value records.

    A subclass names its fields, in constructor order, in both __slots__ and
    _fields, and its __init__ checks its arguments and stores each field with
    object.__setattr__.  Assigning or deleting a field afterwards raises
    AttributeError.  Two records are equal when they are of the same class
    and their field tuples are equal, and equal records hash equal.  The repr
    is Name(field=value, ...), and pickle and copy rebuild a record through
    its __init__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # one C-level getter per class reads the field tuple
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values(self)

    def _asdict(self) -> dict[str, object]:
        """The fields by name, in constructor order."""
        return dict(zip(self._fields, self._values(self)))


class FixedDecimal(_Record):
    """Signed fixed-point decimal: the value is scaled / 10**digits.

    Used for every human-facing bit count.  Producers guarantee the rendered
    value is within 10**-digits of the true real number; arithmetic between
    FixedDecimals is exact (scales are aligned, never reduced).
    """

    __slots__ = _fields = ("scaled", "digits")

    def __init__(self, scaled: int, digits: int) -> None:
        if digits < 0:
            raise ValueError("digits must be >= 0")
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "digits", digits)

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

    def __neg__(self) -> "FixedDecimal":
        return FixedDecimal(-self.scaled, self.digits)

    def __mul__(self, factor: int) -> "FixedDecimal":
        if not isinstance(factor, int):
            return NotImplemented
        return FixedDecimal(self.scaled * factor, self.digits)

    __rmul__ = __mul__


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


def log2_rational(value: Fraction, precision_digits: int = DEFAULT_PRECISION) -> FixedDecimal:
    """log2 of a positive rational, rounded to precision_digits decimals.

    The rendered value differs from the true logarithm by less than
    10**-precision_digits.
    """
    value = Fraction(value)
    if value <= 0:
        raise ValueError("log2 requires a positive value")
    if precision_digits < 1:
        raise ValueError("precision_digits must be >= 1")
    return _log2(value.numerator, value.denominator, precision_digits)


def _log2(num: int, den: int, precision_digits: int) -> FixedDecimal:
    """log2(num/den) for positive integers num and den, in lowest terms or
    not, rounded as log2_rational rounds it.

    Fractional bits come from repeatedly squaring the mantissa m in [1, 2):
    each squaring emits one bit of log2(m).  The mantissa lives in fixed
    point with 64 guard bits, so truncation over the ~4*digits squarings is
    negligible against the decimal rounding step.
    """
    # 10**-d in bits, plus slack so decimal rounding dominates all error.
    frac_bits = (precision_digits * 10 + 2) // 3 + 8
    width = frac_bits + _LOG2_GUARD_BITS

    # floor(log2(num/den)) is e or e-1; one exact comparison decides
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        e -= (den << e) > num
    else:
        e -= den > (num << -e)
    # mantissa m = (num/den) / 2**e in [1, 2), as floor(m * 2**width)
    if e >= 0:
        mant = (num << width) // (den << e)
    else:
        mant = (num << (width - e)) // den
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
