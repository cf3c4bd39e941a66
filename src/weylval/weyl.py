"""Exact arithmetic in the first Weyl algebra.

Elements are finite sums  sum c_{i,j} x^i y^j  stored in normal form (all x
powers to the left of all y powers) with exact rational coefficients.  The
defining relation is  y*x - x*y = 1.  y exponents must stay nonnegative; x
exponents may be any integer (Laurent extension), which the valuation
machinery needs internally.  The spec-facing normal form uses nonnegative
exponents only; `apply_to_poly` enforces that.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, Iterable, List, Tuple, Union

from .coeff import Rat, format_rat
from .errors import NegativeXPower, NonzeroRequired

Monomial = Tuple[int, int]  # (x exponent, y exponent)
IntTerm = Tuple[int, int, int]  # (x exponent, y exponent, integer coefficient)


def _integer_terms(terms: Dict[Monomial, Rat]) -> Tuple[List[IntTerm], int]:
    """The terms as (i, j, numerator) over one shared denominator."""
    den = lcm(*(coeff.denominator for coeff in terms.values()))
    return [(i, j, coeff.numerator * (den // coeff.denominator))
            for (i, j), coeff in terms.items()], den


def _add_leibniz(out: Dict[Monomial, int], right: List[IntTerm], a: int, b: int, p: int) -> None:
    """Add p x^a y^b R to `out`, R an integer term list, in normal form.

    Uses y^b x^c = sum_t C(b,t) c(c-1)...(c-t+1) x^{c-t} y^{b-t}, which
    stops at t = min(b, c) when c >= 0; coefficient t+1 is coefficient t
    times (b-t)(c-t)/(t+1), an exact division.  This is the package's one
    Leibniz loop.
    """
    get = out.get
    for c, d, q in right:
        coeff = p * q
        last = b if c < 0 or b < c else c
        t = 0
        while True:
            key = (a + c - t, b + d - t)
            acc = get(key, 0) + coeff
            # a cancelled key leaves at once: a key that comes back moves
            # to the end of the term order
            if acc:
                out[key] = acc
            else:
                del out[key]
            if t == last:
                break
            coeff = coeff * (b - t) * (c - t) // (t + 1)
            t += 1


def _leibniz_row(right: List[IntTerm], b: int) -> List[IntTerm]:
    """The row y^b R as integer terms, made straight from the Leibniz rule.

    A row is never built from the one below it, so y^20000 x^100 makes one
    row of 101 terms, not 20,001 rows.
    """
    row: Dict[Monomial, int] = {}
    _add_leibniz(row, right, 0, b, 1)
    return [(i, j, c) for (i, j), c in row.items()]


def _add_shifted(out: Dict[Monomial, int], row: List[IntTerm], terms: Iterable[Tuple[int, int]]) -> None:
    """Add p x^a (y^b R) to `out` for each (a, p) in `terms`, given the row
    y^b R: x^a y^b R = x^a (y^b R), one multiply-add per (term, row term)."""
    get = out.get
    for a, p in terms:
        for c, d, q in row:
            key = (a + c, d)
            acc = get(key, 0) + p * q
            if acc:
                out[key] = acc
            else:
                del out[key]


class LeftTable:
    """The rows y^b R of one integer right operand R, each made once and kept.

    A tower element's table lives on its descriptor, so every digit
    expansion there reuses the rows the ones before it made.  Only the rows
    asked for are made.
    """

    __slots__ = ("right", "rows")

    def __init__(self, right: List[IntTerm]):
        self.right = right
        self.rows: Dict[int, List[IntTerm]] = {}

    def row(self, b: int) -> List[IntTerm]:
        """y^b R as integer terms, cancelled keys dropped."""
        row = self.rows.get(b)
        if row is None:
            row = self.rows[b] = _leibniz_row(self.right, b)
        return row


def _int_product(left: Iterable[IntTerm], right: List[IntTerm]) -> Dict[Monomial, int]:
    """The normal-form product of two integer term lists, cancelled keys dropped.

    The left terms are grouped by y-degree.  A group of one term goes
    through the Leibniz loop straight into the output, as a row read once
    does not pay for its making; a larger group makes its row y^b R once,
    shifts it by each of its terms and drops it.  So the product holds at
    most one row besides its output.
    """
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for a, b, p in left:
        groups.setdefault(b, []).append((a, p))
    out: Dict[Monomial, int] = {}
    for b, terms in groups.items():
        if len(terms) == 1:
            (a, p), = terms
            _add_leibniz(out, right, a, b, p)
        else:
            _add_shifted(out, _leibniz_row(right, b), terms)
    return out


class WeylElement:
    """A normal-form element of the (Laurent-in-x) Weyl algebra.

    Elements are immutable values: every operation returns a new element
    and no code mutates `terms` after construction, so caches (such as the
    tower elements stored on a descriptor) share them freely.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Dict[Monomial, Rat] | None = None):
        self.terms: Dict[Monomial, Rat] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff != 0:
                    if key[1] < 0:
                        raise ValueError("y exponents must be nonnegative")
                    self.terms[key] = Rat(coeff)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "WeylElement":
        return cls()

    @classmethod
    def scalar(cls, c) -> "WeylElement":
        return cls({(0, 0): Rat(c)})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "WeylElement":
        return cls({(i, j): Rat(c)})

    @classmethod
    def x(cls) -> "WeylElement":
        return cls.monomial(1, 0)

    @classmethod
    def y(cls) -> "WeylElement":
        return cls.monomial(0, 1)

    # -- ring operations ----------------------------------------------------

    def add(self, other: "WeylElement") -> "WeylElement":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        result = WeylElement()
        result.terms = out
        return result

    def neg(self) -> "WeylElement":
        result = WeylElement()
        result.terms = {key: -coeff for key, coeff in self.terms.items()}
        return result

    def sub(self, other: "WeylElement") -> "WeylElement":
        return self.add(other.neg())

    def mul(self, other: "WeylElement") -> "WeylElement":
        """Exact product; moves every y of self past every x of other.

        Both operands are scaled to integers over their own common
        denominator, and `_int_product` forms the normal-ordered product on
        ints, where terms of self that share a y-degree share one row
        y^b other.  Each surviving term becomes one Rat at the end.
        """
        result = WeylElement()
        if not self.terms or not other.terms:
            return result
        if len(self.terms) == 1 and len(other.terms) == 1:
            ((a, b), p), = self.terms.items()
            ((c, d), q), = other.terms.items()
            if b == 0 or c == 0:
                # no y of self meets an x of other: already in normal form
                result.terms = {(a + c, b + d): p * q}
                return result
        left, da = _integer_terms(self.terms)
        right, db = _integer_terms(other.terms)
        den = da * db
        result.terms = {key: Rat(acc, den) for key, acc in _int_product(left, right).items()}
        return result

    def pow(self, n: int) -> "WeylElement":
        """self^n by n products on ints through `_int_product`, each
        making its rows y^b self anew, with one Rat per term at the end."""
        if n < 0:
            raise ValueError("negative powers are not normal-form elements")
        result = WeylElement()
        if len(self.terms) == 1:
            ((i, j), c), = self.terms.items()
            if i == 0 or j == 0:
                # c x^i and c y^j commute with themselves: no Leibniz terms
                result.terms = {(i * n, j * n): c**n}
                return result
        right, den = _integer_terms(self.terms)
        acc: Dict[Monomial, int] = {(0, 0): 1}
        for _ in range(n):
            acc = _int_product([(i, j, c) for (i, j), c in acc.items()], right)
        den **= n
        result.terms = {key: Rat(c, den) for key, c in acc.items()}
        return result

    __add__ = add
    __sub__ = sub
    __neg__ = neg
    __mul__ = mul
    __pow__ = pow

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.terms == other.terms

    def __hash__(self):
        # taken once: every session that reads an element looks it up in
        # its element memo, and a large element hashes at about 1 us a term
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash

    def max_degrees(self) -> Tuple[int, int]:
        if not self.terms:
            return (0, 0)
        return (
            max(i for i, _ in self.terms),
            max(j for _, j in self.terms),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for (i, j), coeff in sorted(self.terms.items(), reverse=True):
            factors: list[str] = []
            if i != 0:
                factors.append("x" if i == 1 else f"x^{i}")
            if j != 0:
                factors.append("y" if j == 1 else f"y^{j}")
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                text = format_rat(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{format_rat(mag)}*{body}"
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + text)
        return " ".join(pieces)

    __repr__ = __str__


Word = Iterable[Union[str, Rat, int, WeylElement]]


def normalize(word: Word) -> WeylElement:
    """Multiply a written-order sequence of generators/scalars into normal form.

    Each item is "x", "y", a rational scalar, or an already-built element.

    >>> str(normalize(["y", "y", "x"]))
    'x*y^2 + 2*y'
    """
    result = WeylElement.scalar(1)
    for item in word:
        if isinstance(item, str):
            if item == "x":
                factor = WeylElement.x()
            elif item == "y":
                factor = WeylElement.y()
            else:
                raise ValueError(f"unknown generator {item!r}")
        elif isinstance(item, WeylElement):
            factor = item
        else:
            factor = WeylElement.scalar(item)
        result = result.mul(factor)
    return result


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """a*b - b*a."""
    return a.mul(b).sub(b.mul(a))


Poly1 = list  # dense univariate polynomial over Rat, index = power of t


def apply_to_poly(w: WeylElement, poly: Poly1) -> Poly1:
    """Apply w as a differential operator: x acts as (p -> t*p), y as d/dt.

    The left factor acts outermost:  apply(a*b, p) = apply(a, apply(b, p)).
    Raises NegativeXPower if w is not polynomial in x.
    """

    def d_dt(p: Poly1) -> Poly1:
        return [p[k] * k for k in range(1, len(p))]

    def times_t(p: Poly1, i: int) -> Poly1:
        return [Rat(0)] * i + list(p)

    out: Poly1 = []
    for (i, j), coeff in w.terms.items():
        if i < 0:
            raise NegativeXPower("operator application needs x exponents >= 0")
        piece = list(poly)
        for _ in range(j):
            piece = d_dt(piece)
        piece = times_t(piece, i)
        piece = [c * coeff for c in piece]
        # accumulate
        if len(piece) > len(out):
            out, piece = piece, out
        for k, c in enumerate(piece):
            out[k] = out[k] + c
    while out and out[-1] == 0:
        out.pop()
    return out


class WeylFraction:
    """Formal fraction num/den of Weyl elements, den nonzero.

    No reduction is attempted; only valuation and residue queries use these.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: WeylElement, den: WeylElement):
        if den.is_zero():
            raise NonzeroRequired("fraction denominator must be nonzero")
        self.num = num
        self.den = den

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__
