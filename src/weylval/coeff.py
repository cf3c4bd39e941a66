"""Exact coefficient field: arbitrary-precision rationals plus root helpers.

`Rat` is the stdlib `fractions.Fraction`; this module adds the handful of
exact operations the rest of the package needs (odd/even n-th roots, 2-adic
valuation, text round-trip) without introducing any floating point.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    EvenRootOfNegative,
    NoRationalRoot,
    ParseError,
    clipped,
)

Rat = Fraction


def parse_rat(text: str) -> Rat:
    """Parse "p/q" or "p" (optionally signed) into a Rat.

    >>> parse_rat("-3/4")
    Fraction(-3, 4)
    """
    try:
        return Rat(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(
            f"bad rational literal {clipped(repr(text))}: {clipped(str(exc))}"
        ) from None


def json_int(value) -> int:
    """int() of a JSON field; a JSON boolean is not taken as 0 or 1, and a
    JSON float is not truncated."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an integer, got {clipped(repr(value))}")
    return int(value)


def _decimal_digits(k: int) -> int:
    """Number of decimal digits of a nonzero int, without writing it out."""
    k = abs(k)
    log = math.log10(k)
    near = round(log)
    if abs(log - near) < 1e-6:
        # too close to a power of ten for the float to decide
        return near + (k >= 10**near)
    return int(log) + 1


def format_rat(value: Rat) -> str:
    """Render a Rat as "p/q", or "p" when the denominator is 1.

    A numerator or denominator past the interpreter's int-to-text digit
    limit raises BudgetExceeded.  Lifting the limit is no way out: on a
    2-vCPU Xeon, str(2**4000000) takes 28 s.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        if abs(value.numerator) >= value.denominator:
            part, k = "numerator", value.numerator
        else:
            part, k = "denominator", value.denominator
        raise BudgetExceeded(
            f"{part} has {_decimal_digits(k)} digits, above the limit of "
            f"{sys.get_int_max_str_digits()} for writing an integer as text"
        ) from None


def _int_nth_root(value: int, n: int) -> int | None:
    """Exact n-th root of a nonnegative integer, or None."""
    if value < 0:
        raise ValueError("negative base")
    if value in (0, 1):
        return value
    # integer Newton from 2^ceil(bits/n) >= the root decreases strictly until
    # it reaches the floor of the root
    root = 1 << -(-value.bit_length() // n)
    while (smaller := ((n - 1) * root + value // root ** (n - 1)) // n) < root:
        root = smaller
    return root if root**n == value else None


def nth_root(value: Rat, n: int) -> Rat:
    """Exact rational n-th root with real-root sign semantics.

    Odd n: the unique real root (sign follows the base).  Even n: the
    positive root of a positive base; a negative base raises
    EvenRootOfNegative.  A base with no exact rational root raises
    NoRationalRoot.

    >>> nth_root(Rat(-27, 8), 3)
    Fraction(-3, 2)
    """
    if n <= 0:
        raise ValueError("root index must be positive")
    if n == 1:
        return value
    if value < 0 and n % 2 == 0:
        raise EvenRootOfNegative(f"even root of {format_rat(value)}")
    sign = -1 if value < 0 else 1
    num = _int_nth_root(abs(value.numerator), n)
    den = _int_nth_root(value.denominator, n)
    if num is None or den is None:
        raise NoRationalRoot(f"{format_rat(value)} has no rational {n}-th root")
    return Rat(sign * num, den)


def v2(value: Rat | int) -> int:
    """2-adic valuation of a nonzero rational or int: v_2(p) - v_2(q) for
    p/q in lowest terms, read off the lowest set bits.

    >>> v2(12)
    2
    >>> v2(Rat(1, 4))
    -2
    """
    p, q = value.numerator, value.denominator
    if not p:
        raise ValueError("v_2(0) is undefined")
    return (p & -p).bit_length() - (q & -q).bit_length()


def sgn(value: Rat | int) -> int:
    """Sign of a rational or int as -1, 0, or 1, read off its numerator, as
    a Fraction keeps its sign there: no Fraction comparison is made."""
    p = value.numerator
    return (p > 0) - (p < 0)
