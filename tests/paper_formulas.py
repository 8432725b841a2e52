"""The paper's per-mode formulas, written out apart from qkdplan as test oracles.

qkdplan derives every bound from one coefficient table (advmodel.bound_terms);
these functions restate the published expressions directly so the tests
compare the table against the paper rather than against itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from qkdplan.advmodel import EcbcDenominator, Mode, SecurityParams


def ecbc_denominator(params: SecurityParams) -> int:
    """D = 2N from the collision analysis, or N for the compatible form."""
    n = 1 << params.lambda_bits
    return 2 * n if params.ecbc_denominator is EcbcDenominator.TWO_N else n


def paper_bound(mode: Mode, params: SecurityParams, q: Fraction) -> Fraction:
    """Advantage after q files of l blocks: the paper's three expressions."""
    q = Fraction(q)
    n = 1 << params.lambda_bits
    s = params.s_min
    l = params.blocks_per_file
    if mode is Mode.CTR:
        return q * l / s + 2 * q * q * l / n
    if mode is Mode.CBC:
        return q * l / s + 2 * q * q * l * l / n
    return 2 * q * l / s + (q * q * (l * l + 1) + 2) / ecbc_denominator(params)


def paper_birthday(mode: Mode, block_bits: int, q: int, l: int) -> Fraction:
    """The collision term alone: 2*Q^2*l/N (CTR) or 2*Q^2*l^2/N (CBC)."""
    n = 1 << block_bits
    return Fraction(2 * q * q * l, n) if mode is Mode.CTR else Fraction(2 * q * q * l * l, n)


def paper_one_plus_x(mode: Mode, params: SecurityParams, q_star: int, k: int) -> Fraction:
    """1 + X, the paper's closed-form factor: the k-rotation gain is
    log2(k) + log2(1 + X)."""
    n = 1 << params.lambda_bits
    s = params.s_min
    l = params.blocks_per_file
    q = Fraction(q_star)
    if mode is Mode.CTR:
        x = Fraction(2 * (k - 1)) * q * s / (k * n + 2 * q * s)
    elif mode is Mode.CBC:
        x = Fraction(2 * (k - 1)) * q * l * s / (k * n + 2 * q * l * s)
    else:
        d = ecbc_denominator(params)
        num = q * q * (l * l + 1) * (1 - Fraction(1, k)) + 2 * (1 - k)
        den = 2 * d * q * l / s + q * q * (l * l + 1) / k + 2 * k
        x = num / den
    return 1 + x


def unit_scan_limit(mode: Mode, params: SecurityParams, cap: int) -> int:
    """Brute-force oracle: walk q upward one step at a time, exactly.

    Clears all denominators once, then applies the second-difference update
    (f(q+1) - f(q) grows by 2a each step) so the walk is pure integer adds.
    Independent of the bisection solver by construction.
    """
    n = 1 << params.lambda_bits
    l = params.blocks_per_file
    s = params.s_min
    eps = params.eps_max
    if mode is Mode.ECBC_MAC:
        dom = ecbc_denominator(params)
        m = lcm(s, dom, eps.denominator)
        quad = (l * l + 1) * (m // dom)
        lin = 2 * l * (m // s)
        budget = eps.numerator * (m // eps.denominator) - 2 * (m // dom)
    else:
        m = lcm(s, n, eps.denominator)
        quad = (2 * l * l if mode is Mode.CBC else 2 * l) * (m // n)
        lin = l * (m // s)
        budget = eps.numerator * (m // eps.denominator)
    if budget < 0:
        return 0
    q = 0
    f = 0
    step = quad + lin
    while f + step <= budget and q < cap:
        f += step
        step += 2 * quad
        q += 1
    assert q < cap, "scan cap hit; raise cap or shrink the instance"
    return q
