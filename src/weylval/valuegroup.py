"""Totally ordered value group elements.

An element denotes  q + k_xi * (scale * sqrt(2)) - k_mu * mu  where q and
scale are exact rationals, k_xi and k_mu are integers, and mu is a positive
infinitesimal (smaller than every positive rational).  Comparisons are exact:
the sqrt(2) part is decided by comparing squares, never by floating point.
A separate Infinity sentinel represents the value of 0.

`_sign_a_plus_b_sqrt2` serves both `ValueGroupElement.cmp` and the int value
keys of the evaluator's level scan (`evaluate._key_cmp`).
"""

from __future__ import annotations

from typing import Union

from .coeff import Rat, format_rat, json_int, parse_rat
from .errors import ParseError, clipped
from .records import Record


def _sign_a_plus_b_sqrt2(a: Rat, b: Rat) -> int:
    """Exact sign of a + b*sqrt(2), for rationals or ints."""
    if b == 0:
        return -1 if a < 0 else (1 if a > 0 else 0)
    if a == 0:
        return -1 if b < 0 else 1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with 2 b^2 on the side of the positive term
    if a > 0:  # b < 0
        return 1 if a * a > 2 * b * b else -1
    return 1 if 2 * b * b > a * a else -1


class ValueGroupElement(Record):
    """One value:  q + k_xi*(xi_scale*sqrt(2)) - k_mu*mu.

    Immutable by convention, as `WeylElement`; equal fields make equal,
    equally hashed values.
    """

    __slots__ = ("q", "k_xi", "k_mu", "xi_scale")

    def __init__(self, q: Rat = Rat(0), k_xi: int = 0, k_mu: int = 0, xi_scale: Rat = Rat(1)):
        if k_xi or xi_scale != 1:
            if xi_scale <= 0:
                raise ValueError("xi_scale must be a positive rational")
            # normalize: elements without an irrational part carry scale 1
            if not k_xi:
                xi_scale = Rat(1)
        self.q, self.k_xi, self.k_mu, self.xi_scale = q, k_xi, k_mu, xi_scale

    # -- arithmetic ---------------------------------------------------------

    def _xi_coeff(self) -> Rat:
        return self.k_xi * self.xi_scale

    def _merge_scale(self, other: "ValueGroupElement") -> Rat:
        if self.k_xi == 0:
            return other.xi_scale
        if other.k_xi == 0 or self.xi_scale == other.xi_scale:
            return self.xi_scale
        raise ValueError("cannot add values with different xi scales")

    def add(self, other: "Value") -> "Value":
        if isinstance(other, VInfinity):
            return INFINITY
        scale = self._merge_scale(other)
        return ValueGroupElement(
            self.q + other.q, self.k_xi + other.k_xi, self.k_mu + other.k_mu, scale
        )

    def neg(self) -> "ValueGroupElement":
        return ValueGroupElement(-self.q, -self.k_xi, -self.k_mu, self.xi_scale)

    def sub(self, other: "ValueGroupElement") -> "ValueGroupElement":
        return self.add(other.neg())

    def scalar_mul(self, k: int) -> "ValueGroupElement":
        if k == 1:
            return self
        return ValueGroupElement(self.q * k, self.k_xi * k, self.k_mu * k, self.xi_scale)

    __add__ = add
    __neg__ = neg
    __sub__ = sub

    # -- order --------------------------------------------------------------

    def cmp(self, other: "Value") -> int:
        """-1, 0, or 1.  Larger k_mu means smaller value (mu is positive)."""
        if isinstance(other, VInfinity):
            return -1
        if self.k_xi == other.k_xi and (self.k_xi == 0 or self.xi_scale == other.xi_scale):
            # equal sqrt(2) parts: the rational parts decide, cross-multiplied
            a, b = self.q, other.q
            lhs, rhs = a.numerator * b.denominator, b.numerator * a.denominator
            if lhs != rhs:
                return -1 if lhs < rhs else 1
        else:
            real = _sign_a_plus_b_sqrt2(
                self.q - other.q, self._xi_coeff() - other._xi_coeff()
            )
            if real != 0:
                return real
        if self.k_mu != other.k_mu:
            return -1 if self.k_mu > other.k_mu else 1
        return 0

    def is_zero(self) -> bool:
        return self.q == 0 and self.k_xi == 0 and self.k_mu == 0

    # -- text / JSON --------------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        if self.q != 0 or (self.k_xi == 0 and self.k_mu == 0):
            parts.append(format_rat(self.q))
        if self.k_xi != 0:
            piece = f"{abs(self.k_xi)}*XI"
            if not parts:
                parts.append(piece if self.k_xi > 0 else f"-{piece}")
            else:
                parts.append(("+ " if self.k_xi > 0 else "- ") + piece)
        if self.k_mu != 0:
            # stored as "- k_mu * MU": positive k_mu subtracts
            piece = f"{abs(self.k_mu)}*MU"
            if not parts:
                parts.append(f"-{piece}" if self.k_mu > 0 else piece)
            else:
                parts.append(("- " if self.k_mu > 0 else "+ ") + piece)
        return " ".join(parts)

    def to_json(self) -> dict:
        out = {"q": format_rat(self.q), "k_xi": self.k_xi, "k_mu": self.k_mu}
        if self.k_xi != 0:
            out["scale"] = format_rat(self.xi_scale)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ValueGroupElement":
        try:
            return cls(
                parse_rat(str(data.get("q", "0"))),
                json_int(data.get("k_xi", 0)),
                json_int(data.get("k_mu", 0)),
                parse_rat(str(data.get("scale", "1"))),
            )
        except (TypeError, AttributeError, ValueError) as exc:
            raise ParseError(f"bad value object {clipped(repr(data))}: {exc}") from None

    @classmethod
    def rational(cls, q) -> "ValueGroupElement":
        return _rational(Rat(q))


_ONE = Rat(1)


def _rational(q: Rat) -> ValueGroupElement:
    """The value q of a Rat, with no sqrt(2) or mu part: built without
    `__init__`, whose scale check such a value never needs."""
    out = object.__new__(ValueGroupElement)
    out.q, out.k_xi, out.k_mu, out.xi_scale = q, 0, 0, _ONE
    return out


class VInfinity:
    """Value of the zero element; absorbs addition, beats every element."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def add(self, other):
        return self

    __add__ = add
    __radd__ = add

    def cmp(self, other) -> int:
        return 0 if isinstance(other, VInfinity) else 1

    def __str__(self) -> str:
        return "infinity"

    def to_json(self) -> str:
        return "infinity"


INFINITY = VInfinity()

Value = Union[ValueGroupElement, VInfinity]


def cmp(a: Value, b: Value) -> int:
    """Three-way comparison usable with either kind of value."""
    return a.cmp(b)
