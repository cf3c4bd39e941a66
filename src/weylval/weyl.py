"""Exact arithmetic in the first Weyl algebra.

Elements are finite sums  sum c_{i,j} x^i y^j  in normal form (all x powers
to the left of all y powers), stored as integer `Rows` over one reduced
denominator, the format the product kernel reads and writes.  The defining
relation is  y*x - x*y = 1.  y exponents must stay nonnegative; x
exponents may be any integer (Laurent extension), which the valuation
machinery needs internally.  The spec-facing normal form uses nonnegative
exponents only; `apply_to_poly` enforces that.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Iterable, List, Tuple

from .coeff import Rat, format_rat
from .errors import NegativeXPower, NonzeroRequired

Monomial = Tuple[int, int]  # (x exponent, y exponent)
# An element as rows {y exponent: {x exponent: numerator}} over one
# denominator, the format the product kernel reads and writes.  No row is
# empty and no numerator is 0.
Rows = Dict[int, Dict[int, int]]
# A row y^b R, grouped by y-degree: [(d, [(c, q), ...]), ...] for the terms
# q x^c y^d.  `_add_shifted` reads a row in this form, and a descriptor keeps
# its rows y^b w_i in it.  A kept row is only read, and lists iterate faster
# than dicts: with rows in the `Rows` form `_add_shifted` ran 3-7% slower,
# and the benchmark's `tower` workload about 4% slower.
Row = List[Tuple[int, List[Tuple[int, int]]]]


def _add_leibniz(out: Rows, right: Rows, a: int, b: int, p: int) -> None:
    """Add p x^a y^b R to the rows `out`, R integer rows, in normal form.

    Uses y^b x^c = sum_t C(b,t) c(c-1)...(c-t+1) x^{c-t} y^{b-t}, which
    stops at t = min(b, c) when c >= 0; coefficient t+1 is coefficient t
    times (b-t)(c-t)/(t+1), an exact division.  This is the package's one
    Leibniz loop.  A numerator that cancels leaves its row, and a row left
    empty leaves `out`.
    """
    get = out.get
    for d, terms in right.items():
        for c, q in terms.items():
            coeff = p * q
            last = b if c < 0 or b < c else c
            i, j = a + c, b + d
            t = 0
            while True:
                row = get(j)
                if row is None:
                    out[j] = {i: coeff}
                else:
                    acc = row.get(i, 0) + coeff
                    if acc:
                        row[i] = acc
                    else:
                        del row[i]
                        if not row:
                            del out[j]
                if t == last:
                    break
                coeff = coeff * (b - t) * (c - t) // (t + 1)
                t += 1
                i -= 1
                j -= 1


def _leibniz_row(right: Rows, b: int) -> Row:
    """The row y^b R, grouped by y-degree, made straight from the Leibniz rule.

    A row is never built from the one below it, so y^20000 x^100 makes one
    row of 101 terms, not 20,001 rows.
    """
    rows: Rows = {}
    _add_leibniz(rows, right, 0, b, 1)
    return [(d, list(terms.items())) for d, terms in rows.items()]


def _add_shifted(out: Rows, row: Row, terms: Iterable[Tuple[int, int]]) -> None:
    """Add p x^a (y^b R) to the rows `out` for each (a, p) in `terms`, given
    the row y^b R: x^a y^b R = x^a (y^b R).

    One lookup in `out` per y-degree of the row, then one int-keyed
    multiply-add per (term, row term).  `terms` is read once per y-degree,
    so it must not be a view of a row of `out`.
    """
    for d, entries in row:
        target = out.get(d)
        if target is None:
            target = out[d] = {}
        get = target.get
        for a, p in terms:
            for c, q in entries:
                i = a + c
                acc = get(i, 0) + p * q
                if acc:
                    target[i] = acc
                else:
                    del target[i]
        if not target:
            del out[d]


def _int_product(left: Rows, right: Rows) -> Rows:
    """The normal-form product of two integer `Rows`, as `Rows`.

    Each row of `left` holds the terms of one y-degree b.  A row of one
    term goes through the Leibniz loop straight into the output, as a row
    y^b R read once does not pay for its making; a larger row makes y^b R
    once, shifts it by each of its terms and drops it.  So the product
    holds at most one row besides its output.
    """
    out: Rows = {}
    for b, terms in left.items():
        if len(terms) == 1:
            (a, p), = terms.items()
            _add_leibniz(out, right, a, b, p)
        else:
            _add_shifted(out, _leibniz_row(right, b), terms.items())
    return out


def _element(rows: Rows, den: int) -> "WeylElement":
    """The element sum rows / den, rows and den divided in place by their
    gcd: the canonical stored form."""
    g = gcd(den, *(c for row in rows.values() for c in row.values())) if den != 1 else 1
    if g != 1:
        for row in rows.values():
            for i in row:
                row[i] //= g
        den //= g
    element = WeylElement.__new__(WeylElement)
    element.rows, element.den = rows, den
    return element


class WeylElement:
    """A normal-form element of the (Laurent-in-x) Weyl algebra.

    Stored as `rows` {y exponent: {x exponent: numerator}} over `den`, in
    one canonical form: den >= 1 and prime to every numerator, no empty row
    and no zero numerator, and zero is ({}, 1).  So equal elements have
    equal (den, rows).  Elements are immutable values: every operation
    returns a new element and no code mutates `rows` after construction, so
    caches (such as the tower elements stored on a descriptor) share them
    freely.
    """

    __slots__ = ("rows", "den", "_hash")

    def __init__(self, terms: Dict[Monomial, Rat] | None = None):
        kept = {key: Rat(c) for key, c in terms.items() if c != 0} if terms else {}
        if any(j < 0 for _, j in kept):
            raise ValueError("y exponents must be nonnegative")
        den = lcm(*(coeff.denominator for coeff in kept.values()))
        rows: Rows = {}
        for (i, j), coeff in kept.items():
            rows.setdefault(j, {})[i] = coeff.numerator * (den // coeff.denominator)
        self.rows, self.den = rows, den

    @property
    def terms(self) -> Dict[Monomial, Rat]:
        """The terms {(i, j): Rat}, built afresh on each read."""
        den = self.den
        return {(i, j): Rat(c, den) for j, row in self.rows.items() for i, c in row.items()}

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
        """self + other, over the lcm of the two denominators."""
        den = lcm(self.den, other.den)
        scale = den // self.den
        rows = {j: {i: c * scale for i, c in row.items()} for j, row in self.rows.items()}
        _add_shifted(rows, [(j, row.items()) for j, row in other.rows.items()],
                     [(0, den // other.den)])
        return _element(rows, den)

    def neg(self) -> "WeylElement":
        return _element({j: {i: -c for i, c in row.items()} for j, row in self.rows.items()},
                        self.den)

    def sub(self, other: "WeylElement") -> "WeylElement":
        return self.add(other.neg())

    def mul(self, other: "WeylElement") -> "WeylElement":
        """Exact product; moves every y of self past every x of other.

        `_int_product` forms the normal-ordered product of the two stored
        `Rows`, where terms of self that share a y-degree share one row
        y^b other, over the product of the denominators; one gcd pass
        reduces it.
        """
        return _element(_int_product(self.rows, other.rows), self.den * other.den)

    def pow(self, n: int) -> "WeylElement":
        """self^n by n products through `_int_product`, each making its rows
        y^b self anew, over den^n; one gcd pass reduces the power.  A power
        of c x^i or c y^j makes no products, so x^(10^20) costs nothing."""
        if n < 0:
            raise ValueError("negative powers are not normal-form elements")
        rows = self.rows
        if sum(map(len, rows.values())) == 1:
            (j, row), = rows.items()
            (i, c), = row.items()
            if i == 0 or j == 0:
                # c x^i and c y^j commute with themselves: no Leibniz terms
                return _element({j * n: {i * n: c**n}}, self.den**n)
        acc: Rows = {0: {0: 1}}
        for _ in range(n):
            acc = _int_product(acc, rows)
        return _element(acc, self.den**n)

    __add__ = add
    __sub__ = sub
    __neg__ = neg
    __mul__ = mul
    __pow__ = pow

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and (self.den, self.rows) == (other.den, other.rows)

    def __hash__(self):
        # taken once: every session that reads an element looks it up in
        # its element memo, and a large element hashes at about 0.2 us a
        # term on a 2-vCPU Xeon
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.den, frozenset(
                (j, frozenset(row.items())) for j, row in self.rows.items()
            )))
            return self._hash

    def __str__(self) -> str:
        if not self.rows:
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
