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
    step.  The work is done by ``_log2_scaled``, which returns the scaled
    integer, on an integer pair (num, den) that need not be in lowest terms:
    the integer part and the floor of the mantissa depend only on the value
    num/den, so the rotation gain's ratio is passed as the two integers it
    is built from, with no gcd.

    The loop's value.  With F fraction bits (d digits take F =
    floor((10d + 2)/3) + 8) and W = F + 64, the loop reads V = bits / 2^F
    for L = log2 of the mantissa m in [1, 2), and L - 2^-F - 2^-(F+61) <
    V <= L: the unread tail is below 2^-F, and the mantissa's first floor
    and two floors per squaring, each a relative loss under 2^-W, cost
    under 5 * 2^-W in all.  The result is round-half-up of V to d decimals.

    The filter in front of it (Ziv's estimate-then-retry, ACM TOMS 1991, on
    a Tang-style table, ACM TOMS 1990), in integers with G = 100 fraction
    bits: j = floor(256 (m - 1)) picks c = 1 + j/256 and log2(c) from a
    256-entry table filled on first use, and L - log2(c) = (2/ln 2)
    atanh(s) with s = (m - c)/(m + c) < 2^-9.  Error budget, in units of
    2^-G:
      - table entry: under 1.01.  It and 2/ln 2 are ratios of atanh series
        at 16 extra bits, atanh(1/3) being (ln 2)/2.
      - fixed-point rounding of s: the floored mantissa moves s by under
        0.5, and s's own floor costs under 1.
      - series: six or fewer terms after the first, each rounded down by
        under 1.6, and under 0.5 for the terms dropped once one rounds to
        zero (the truncation).
      - times 2/ln 2 < 2.886, plus 1 for the product's floor; 2/ln 2 is
        within one unit, which moves the product by under 0.01.
    So the estimate E is within 36 < 2^6 units of L, and |V - E| <
    2^-F + 2^-(F+61) + 2^-(G-6) < 2^-(F-1) whenever F <= G - 8, which holds
    up to d = 25.  When round-half-up takes one value over all of
    [E - 2^-(F-1), E + 2^-(F-1)], V lies in that interval and the loop
    would print that value, so it is returned; otherwise, or for d above
    25, the loop runs.  Outputs are the loop's, bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
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
# Fraction bits of the table-and-series estimate of log2; it serves every
# precision up to 25 digits (frac_bits <= _EST_BITS - 8).
_EST_BITS = 100
# Extra fraction bits of the series behind the table and 2/ln 2.
_EST_GUARD = 16


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

    The display record that every reported bit count is built into once;
    producers guarantee it renders within 10**-digits of the true value.
    """

    __slots__ = _fields = ("scaled", "digits")

    def __init__(self, scaled: int, digits: int) -> None:
        if type(scaled) is not int or type(digits) is not int:
            raise TypeError(f"scaled and digits must be ints, got {type(scaled).__name__} and {type(digits).__name__}")
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
    if as_natural(precision_digits) < 1:
        raise ValueError("precision_digits must be >= 1")
    return FixedDecimal(_log2_scaled(value.numerator, value.denominator, precision_digits), precision_digits)


def _log2_scaled(num: int, den: int, precision_digits: int) -> int:
    """log2(num/den) * 10**precision_digits for positive integers num and
    den, in lowest terms or not, rounded as log2_rational rounds it: always
    the squaring loop's output, which the table-and-series estimate gives
    whenever it can certify it (see the module docstring).
    """
    frac_bits = _log2_frac_bits(precision_digits)
    if frac_bits <= _EST_BITS - 8:
        e, mant = _mantissa(num, den, _EST_BITS)
        estimate = _log2_estimate(mant)
        # round-half-up of every value within 2**-(frac_bits-1) of the
        # estimate; when the ends agree, so does the loop's value
        scale = 10**precision_digits
        centre = 2 * estimate * scale + (1 << _EST_BITS)
        spread = scale << (_EST_BITS - frac_bits + 2)
        frac_scaled = (centre - spread) >> (_EST_BITS + 1)
        if frac_scaled == (centre + spread) >> (_EST_BITS + 1):
            return e * scale + frac_scaled
    return _log2_squaring(num, den, precision_digits)


def _log2_frac_bits(precision_digits: int) -> int:
    """Fraction bits of log2 that a precision_digits result is rounded from:
    10**-d in bits, plus slack so decimal rounding dominates all error."""
    return (precision_digits * 10 + 2) // 3 + 8


def _mantissa(num: int, den: int, width: int) -> tuple[int, int]:
    """(e, floor(m * 2**width)) with num/den = m * 2**e and m in [1, 2)."""
    # floor(log2(num/den)) is e or e-1; one exact comparison decides
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        e -= (den << e) > num
    else:
        e -= den > (num << -e)
    if e >= 0:
        return e, (num << width) // (den << e)
    return e, (num << (width - e)) // den


def _log2_squaring(num: int, den: int, precision_digits: int) -> int:
    """_log2_scaled by the squaring loop alone.

    Fractional bits come from repeatedly squaring the mantissa m in [1, 2):
    each squaring emits one bit of log2(m).  The mantissa lives in fixed
    point with 64 guard bits, so truncation over the ~4*digits squarings is
    negligible against the decimal rounding step.
    """
    frac_bits = _log2_frac_bits(precision_digits)
    width = frac_bits + _LOG2_GUARD_BITS
    e, mant = _mantissa(num, den, width)
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
    return e * scale + frac_scaled


def _log2_estimate(mant: int) -> int:
    """log2(m) * 2**_EST_BITS within 2**6 units, from mant = floor(m *
    2**_EST_BITS) with m in [1, 2): log2(1 + j/256) from the table plus
    (2/ln 2) * atanh(s), where s = (m - c)/(m + c) < 2**-9 for c = 1 + j/256."""
    j = (mant >> (_EST_BITS - 8)) - 256
    c = (256 + j) << (_EST_BITS - 8)
    series = _atanh(((mant - c) << _EST_BITS) // (mant + c), _EST_BITS)
    return _log2_entry(j) + ((_two_over_ln2() * series) >> _EST_BITS)


def _atanh(s: int, bits: int) -> int:
    """atanh(x) * 2**bits from s = floor(x * 2**bits), 0 <= x <= 1/3: the
    series sum of x**n / n over odd n in fixed point, each term rounded
    down, so below atanh(s / 2**bits) by under 2 units per term."""
    s2 = (s * s) >> bits
    term = total = s
    n = 1
    while term:
        term = (term * s2) >> bits
        n += 2
        total += term // n
    return total


@cache
def _atanh_one_third() -> int:
    """atanh(1/3) = (ln 2)/2, at _EST_BITS + _EST_GUARD fraction bits."""
    bits = _EST_BITS + _EST_GUARD
    return _atanh((1 << bits) // 3, bits)


@cache
def _two_over_ln2() -> int:
    """2/ln 2 * 2**_EST_BITS, within one unit."""
    return (1 << (2 * _EST_BITS + _EST_GUARD)) // _atanh_one_third()


@cache
def _log2_entry(j: int) -> int:
    """log2(1 + j/256) * 2**_EST_BITS, within 1.01 units: the ratio of
    atanh(j/(512 + j)) to atanh(1/3), both at _EST_GUARD extra bits."""
    bits = _EST_BITS + _EST_GUARD
    return (_atanh((j << bits) // (512 + j), bits) << _EST_BITS) // _atanh_one_third()
