"""Truncated Puiseux series, the Ore ring over them, and z-sequence valuations.

A PuiseuxSeries is a finite sum of c * x^{-q} terms plus an optional
precision horizon: the element is exact for exponents below `known_up_to`
and unknown beyond it.  OrePoly is a polynomial in one skew variable over
these coefficients with the commutation rule (variable * p = p * variable
+ p'), which covers both the y-basis and every z-basis at once.

A ZSequence carries the data z_{i+1} = z_i - gamma_{i+1} x^{-r_{i+1}} with
z_0 = y, finished by an irrational terminal value, an infinite rule with a
limit r*, or nothing (a bare prefix).  z_eval serves every tail with one
loop: it rewrites an element over z_0, z_1, ... one entry at a time and
stops at the first expansion whose least term value v(q_j) + j v(z_k) is
attained once, as in MacLane's key-polynomial expansions.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .coeff import Rat, format_rat, parse_rat
from .errors import (
    DepthExceeded,
    NonzeroValue,
    ParseError,
    TruncationLoss,
    clipped,
)
from .records import Record
from .valuegroup import INFINITY, Value, ValueGroupElement
from .weyl import WeylElement


# -- Puiseux series ---------------------------------------------------------------


class PuiseuxSeries(Record):
    """Sum of c * x^{-q} with strictly increasing q; exact below known_up_to."""

    __slots__ = ("terms", "known_up_to")

    def __init__(self, terms: Tuple[Tuple[Rat, Rat], ...], known_up_to: Optional[Rat] = None):
        self.terms, self.known_up_to = terms, known_up_to

    @staticmethod
    def make(
        pairs: Sequence[Tuple[Rat, Rat]], known_up_to: Optional[Rat] = None
    ) -> "PuiseuxSeries":
        acc: Dict[Rat, Rat] = {}
        for q, c in pairs:
            old = acc.get(q)
            acc[q] = c if old is None else old + c
        out = [
            (q, c)
            for q, c in sorted(acc.items())
            if c and (known_up_to is None or q < known_up_to)
        ]
        return PuiseuxSeries(tuple(out), known_up_to)

    @staticmethod
    def zero() -> "PuiseuxSeries":
        return PuiseuxSeries((), None)

    @staticmethod
    def scalar(c: Rat) -> "PuiseuxSeries":
        return PuiseuxSeries.make([(Rat(0), Rat(c))])

    @staticmethod
    def x_power(e: Rat) -> "PuiseuxSeries":
        """x^e, stored as the exponent record q = -e."""
        return PuiseuxSeries.make([(Rat(-e), Rat(1))])

    def is_exact_zero(self) -> bool:
        return not self.terms and self.known_up_to is None

    def leading(self) -> Optional[Tuple[Rat, Rat]]:
        return self.terms[0] if self.terms else None

    def value_floor(self) -> Tuple[bool, Value]:
        """(is_exact, bound): the value if certain, else a lower bound."""
        if self.terms:
            return True, ValueGroupElement.rational(self.terms[0][0])
        if self.known_up_to is None:
            return True, INFINITY
        return False, ValueGroupElement.rational(self.known_up_to)

    def add(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        bound = _min_bound(self.known_up_to, other.known_up_to)
        return PuiseuxSeries.make(self.terms + other.terms, bound)

    def neg(self) -> "PuiseuxSeries":
        return PuiseuxSeries(
            tuple((q, -c) for q, c in self.terms), self.known_up_to
        )

    def sub(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self.add(other.neg())

    def scale(self, c: Rat) -> "PuiseuxSeries":
        if c == 0:
            return PuiseuxSeries((), self.known_up_to)
        return PuiseuxSeries(
            tuple((q, c * coeff) for q, coeff in self.terms), self.known_up_to
        )

    def mul(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        bound = _product_horizon(
            self.terms[0][0] if self.terms else None,
            self.known_up_to,
            other.terms[0][0] if other.terms else None,
            other.known_up_to,
        )
        pairs = [
            (qa + qb, ca * cb)
            for qa, ca in self.terms
            for qb, cb in other.terms
        ]
        return PuiseuxSeries.make(pairs, bound)

    def delta(self) -> "PuiseuxSeries":
        """Derivative: x^{-q} goes to -q x^{-q-1}; the horizon shifts by 1."""
        bound = None if self.known_up_to is None else self.known_up_to + 1
        return PuiseuxSeries.make(
            [(q + 1, -q * c) for q, c in self.terms if q != 0], bound
        )

    def __str__(self) -> str:
        parts = [
            (format_rat(c) if q == 0 else f"{format_rat(c)}*x^({format_rat(-q)})")
            for q, c in self.terms
        ]
        if self.known_up_to is not None:
            parts.append(f"O(x^({format_rat(-self.known_up_to)}))")
        return " + ".join(parts) if parts else "0"


def _min_bound(a: Optional[Rat], b: Optional[Rat]) -> Optional[Rat]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _product_horizon(lead_f, bound_f, lead_g, bound_g):
    """Horizon of f * g from each factor's leading exponent and horizon (None
    where absent): unknown(f) * leading(g), unknown * unknown,
    leading(f) * unknown(g).  Takes Rats, or ints over a common denominator."""
    bounds = []
    if bound_f is not None:
        if lead_g is not None:
            bounds.append(bound_f + lead_g)
        if bound_g is not None:
            bounds.append(bound_f + bound_g)
    if bound_g is not None and lead_f is not None:
        bounds.append(bound_g + lead_f)
    return min(bounds) if bounds else None


# -- Ore polynomials ---------------------------------------------------------------


class OrePoly(Record):
    """Sum p_i(x) * t^i over Puiseux coefficients, with t p = p t + p'."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Tuple[PuiseuxSeries, ...]):
        self.coeffs = coeffs

    @staticmethod
    def make(coeffs: Sequence[PuiseuxSeries]) -> "OrePoly":
        out = list(coeffs)
        while out and out[-1].is_exact_zero():
            out.pop()
        return OrePoly(tuple(out))

    @staticmethod
    def zero() -> "OrePoly":
        return OrePoly(())

    @staticmethod
    def from_series(p: PuiseuxSeries) -> "OrePoly":
        return OrePoly.make([p])

    @staticmethod
    def variable() -> "OrePoly":
        return OrePoly.make([PuiseuxSeries.zero(), PuiseuxSeries.scalar(Rat(1))])

    def is_zero_record(self) -> bool:
        return all(c.is_exact_zero() for c in self.coeffs)

    def coeff(self, i: int) -> PuiseuxSeries:
        return self.coeffs[i] if i < len(self.coeffs) else PuiseuxSeries.zero()

    def add(self, other: "OrePoly") -> "OrePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return OrePoly.make(
            [self.coeff(i).add(other.coeff(i)) for i in range(n)]
        )

    def neg(self) -> "OrePoly":
        return OrePoly.make([c.neg() for c in self.coeffs])

    def sub(self, other: "OrePoly") -> "OrePoly":
        return self.add(other.neg())

    def scale_series(self, p: PuiseuxSeries) -> "OrePoly":
        """Left-multiply every coefficient by p (p commutes with nothing here,
        but left coefficients multiply on the left, so this is exact)."""
        return OrePoly.make([p.mul(c) for c in self.coeffs])


# -- the Ore product kernel ------------------------------------------------------------

# A series over the common denominator D of one product: its terms as
# (q * D, c) pairs in ascending order, and its horizon as known_up_to * D.
_Scaled = Tuple[List[Tuple[int, Rat]], Optional[int]]
_EXACT_ZERO: _Scaled = ([], None)


def _common_denominator(coeffs: Sequence[PuiseuxSeries]) -> int:
    d = 1
    for p in coeffs:
        for q, _ in p.terms:
            d = math.lcm(d, q.denominator)
        if p.known_up_to is not None:
            d = math.lcm(d, p.known_up_to.denominator)
    return d


def _to_scaled(p: PuiseuxSeries, d: int) -> _Scaled:
    bound = p.known_up_to
    return (
        [(q.numerator * (d // q.denominator), c) for q, c in p.terms],
        None if bound is None else bound.numerator * (d // bound.denominator),
    )


def _from_scaled(coeffs: List[_Scaled], d: int) -> OrePoly:
    return OrePoly.make(
        [
            PuiseuxSeries(
                tuple((Rat(e, d), c) for e, c in terms),
                None if bound is None else Rat(bound, d),
            )
            for terms, bound in coeffs
        ]
    )


def _derivatives(p: _Scaled, d: int, order: int) -> List[_Scaled]:
    """p, p', ..., p^{(order)}, cut at the first exact zero."""
    out: List[_Scaled] = []
    while p != _EXACT_ZERO and len(out) <= order:
        out.append(p)
        terms, bound = p
        p = (
            [(e + d, c * Rat(-e, d)) for e, c in terms if e],
            None if bound is None else bound + d,
        )
    return out


def _add_scaled(f: _Scaled, g: _Scaled) -> _Scaled:
    """PuiseuxSeries.add over a common denominator."""
    bound = _min_bound(f[1], g[1])
    acc = dict(f[0])
    for e, c in g[0]:
        old = acc.get(e)
        acc[e] = c if old is None else old + c
    return (
        sorted((e, c) for e, c in acc.items() if c and (bound is None or e < bound)),
        bound,
    )


def _ore_product(left: Sequence[_Scaled], right: Sequence[List[_Scaled]]) -> List[_Scaled]:
    """Coefficients of (sum_i p_i t^i)(sum_j g_j t^j).

    right[j] lists g_j and its derivatives, at least up to order
    len(left) - 1 or to the first exact zero; t^i g = sum_k C(i,k) g^{(k)}
    t^{i-k} sends p_i g_j^{(k)} to t^{i-k+j}.  Each part has the horizon of
    PuiseuxSeries.mul and an output coefficient the least horizon of its
    parts, as PuiseuxSeries.add would give it, so no term at or past that
    is computed.
    """
    width = max(len(left) + len(right) - 1, 0)
    bounds: List[Optional[int]] = [None] * width
    parts = []
    for i, (p_terms, p_bound) in enumerate(left):
        if not p_terms and p_bound is None:
            continue
        p_lead = p_terms[0][0] if p_terms else None
        for j, derivs in enumerate(right):
            for k, (g_terms, g_bound) in enumerate(derivs[: i + 1]):
                n = i - k + j
                g_lead = g_terms[0][0] if g_terms else None
                bounds[n] = _min_bound(
                    bounds[n], _product_horizon(p_lead, p_bound, g_lead, g_bound)
                )
                if p_terms and g_terms:
                    parts.append((n, math.comb(i, k), p_terms, g_terms))
    sums: List[Dict[int, Rat]] = [{} for _ in range(width)]
    for n, comb, p_terms, g_terms in parts:
        bound, acc = bounds[n], sums[n]
        for e1, c1 in p_terms:
            if comb != 1:
                c1 = comb * c1
            for e2, c2 in g_terms:
                e = e1 + e2
                if bound is not None and e >= bound:
                    break
                old = acc.get(e)
                acc[e] = c1 * c2 if old is None else old + c1 * c2
    return [
        (sorted((e, c) for e, c in acc.items() if c), bound)
        for acc, bound in zip(sums, bounds)
    ]


def ore_mul(f: OrePoly, g: OrePoly) -> OrePoly:
    """Product with t^i * p = sum_k C(i,k) p^{(k)} t^{i-k}."""
    d = _common_denominator(f.coeffs + g.coeffs)
    left = [_to_scaled(p, d) for p in f.coeffs]
    right = [_derivatives(_to_scaled(q, d), d, len(left) - 1) for q in g.coeffs]
    return _from_scaled(_ore_product(left, right), d)


def shift_variable(f: OrePoly, a: PuiseuxSeries) -> OrePoly:
    """Rewrite f over the shifted variable: substitute t = s + a exactly.

    Evaluated by Horner, each step one product by s + a, using
    s^j a = sum_k C(j,k) a^{(k)} s^{j-k}; the skew rule is
    basis-independent, so the result is again an OrePoly.
    """
    d = _common_denominator(f.coeffs + (a,))
    # out has at most len(f) - 1 coefficients when it is multiplied
    shifted_var = [
        _derivatives(_to_scaled(a, d), d, len(f.coeffs) - 2),
        [([(0, Rat(1))], None)],
    ]
    out: List[_Scaled] = []
    for p_i in reversed(f.coeffs):
        out = _ore_product(out, shifted_var)
        out[0] = _add_scaled(out[0], _to_scaled(p_i, d))
    return _from_scaled(out, d)


def embed(element: WeylElement) -> OrePoly:
    """Exact image of a Weyl element: x^i y^j with y as the skew variable."""
    rows, den = element.rows, element.den
    return OrePoly.make([
        PuiseuxSeries.make([(Rat(-i), Rat(c, den)) for i, c in rows.get(j, {}).items()])
        for j in range(max(rows, default=0) + 1)
    ])


# -- z-sequences --------------------------------------------------------------------


class ZTerminal(Record):
    """v(z_k) is this irrational value for the last index k."""

    __slots__ = ("value",)

    def __init__(self, value: ValueGroupElement):
        self.value = value


class ZRule(Record):
    """Entries continue forever along entry_fn; r_i increases to `limit`."""

    __slots__ = ("name", "entry_fn", "limit")

    def __init__(self, name: str, entry_fn: Callable[[int], Tuple[Rat, Rat]], limit: Rat):
        self.name, self.entry_fn, self.limit = name, entry_fn, limit


def builtin_z_rule(name: str) -> ZRule:
    text = name.strip()
    if text == "halving_to_one":
        return ZRule(
            "halving_to_one", lambda i: (1 - Rat(1, 2**i), Rat(1)), Rat(1)
        )
    raise ParseError(f"unknown builtin z rule {clipped(repr(name))}")


class ZSequence:
    def __init__(
        self,
        entries: Sequence[Tuple[Rat, Rat]],
        tail: Optional[object] = None,
    ):
        self.explicit_entries = [
            (r if isinstance(r, Rat) else Rat(r), g if isinstance(g, Rat) else Rat(g))
            for r, g in entries
        ]
        self.tail = tail
        self._cache: Dict[int, Tuple[Rat, Rat]] = {}
        last = None
        for r, g in self.explicit_entries:
            if g == 0:
                raise ParseError("z-sequence gamma must be nonzero")
            if r >= 1 or (last is not None and r <= last):
                raise ParseError("z-sequence exponents must increase and stay < 1")
            last = r
        terminal = self.terminal
        if terminal is not None:
            t = terminal.value
            if t.k_xi == 0 or t.k_mu != 0:
                raise ParseError("z-sequence terminal value must be irrational")
            if last is not None and t.cmp(ValueGroupElement.rational(last)) <= 0:
                raise ParseError(
                    f"z-sequence terminal value {t} must lie above the last "
                    f"exponent {format_rat(last)}"
                )

    @property
    def terminal(self) -> Optional[ZTerminal]:
        return self.tail if isinstance(self.tail, ZTerminal) else None

    @property
    def rule(self) -> Optional[ZRule]:
        return self.tail if isinstance(self.tail, ZRule) else None

    def has_entry(self, i: int) -> bool:
        return i <= len(self.explicit_entries) or self.rule is not None

    def entry(self, i: int) -> Tuple[Rat, Rat]:
        if i < 1:
            raise ValueError("entries are 1-based")
        if i <= len(self.explicit_entries):
            return self.explicit_entries[i - 1]
        if self.rule is not None:
            if i not in self._cache:
                self._cache[i] = self.rule.entry_fn(i)
            return self._cache[i]
        raise DepthExceeded(f"z-sequence exhausted at entry {i}", consulted=i)

    def to_json(self) -> dict:
        out: dict = {
            "entries": [
                {"r": format_rat(r), "gamma": format_rat(g)}
                for r, g in self.explicit_entries
            ]
        }
        if self.terminal:
            out["tail"] = {"kind": "irrational", "value": self.terminal.value.to_json()}
        elif self.rule:
            out["tail"] = {
                "kind": "rule",
                "rule": self.rule.name,
                "limit": format_rat(self.rule.limit),
            }
        else:
            out["tail"] = None
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ZSequence":
        if not isinstance(data, dict):
            raise ParseError("z-sequence JSON must be an object")
        if not isinstance(data.get("entries", []), list):
            raise ParseError("z-sequence entries must be a list")
        entries = []
        for e in data.get("entries", []):
            try:
                entries.append((parse_rat(str(e["r"])), parse_rat(str(e["gamma"]))))
            except (KeyError, TypeError) as exc:
                raise ParseError(f"bad z-sequence entry {clipped(repr(e))}: {exc}") from None
        tail_data = data.get("tail")
        tail: Optional[object] = None
        if tail_data is not None:
            if not isinstance(tail_data, dict):
                raise ParseError("z-sequence tail must be an object")
            kind = tail_data.get("kind")
            if kind == "irrational":
                tail = ZTerminal(ValueGroupElement.from_json(tail_data.get("value", {})))
            elif kind == "rule":
                tail = builtin_z_rule(str(tail_data.get("rule", "")))
            else:
                raise ParseError(f"unknown z tail kind {clipped(repr(kind))}")
        return cls(entries, tail)


def a_series(zseq: ZSequence, depth: int, exact: bool = False) -> PuiseuxSeries:
    """a_depth = sum_{i<=depth} gamma_i x^{-r_i}.

    For rule tails the honest horizon is the next exponent; `exact` marks the
    prefix itself as an exact element (used for exact basis changes).
    """
    pairs = [zseq.entry(i) for i in range(1, depth + 1)]
    bound: Optional[Rat] = None
    if not exact and zseq.has_entry(depth + 1):
        bound = zseq.entry(depth + 1)[0]
    return PuiseuxSeries.make([(r, g) for r, g in pairs], bound)


# -- z-sequence valuations ------------------------------------------------------------


def _z_eval_full(
    zseq: ZSequence, f: OrePoly, depth_limit: int
) -> Tuple[Value, Optional[Rat]]:
    """(value, residue or None); the certificate is in z_eval's docstring.
    The terminal's v(z_N) is irrational, so no two candidates tie there and
    an unknown bound equal to the minimum cannot cancel it."""
    if f.is_zero_record():
        return INFINITY, None
    if zseq.terminal is None and zseq.rule is None:
        raise DepthExceeded("bare z-sequence prefix defines no tail regime")
    last = len(zseq.explicit_entries) if zseq.rule is None else None
    g, k = f, 0
    while True:
        at_terminal = k == last
        if at_terminal:
            v_z = zseq.terminal.value
        else:
            r_next, gamma_next = zseq.entry(k + 1)
            v_z = ValueGroupElement.rational(r_next)
        exact: List[Tuple[ValueGroupElement, int]] = []
        bounds: List[ValueGroupElement] = []
        for j, q_j in enumerate(g.coeffs):
            is_exact, floor = q_j.value_floor()
            if floor is INFINITY:
                continue
            cand = floor.add(v_z.scalar_mul(j))
            if is_exact:
                exact.append((cand, j))
            else:
                bounds.append(cand)
        if not exact:
            raise TruncationLoss("all coefficients are unknown at this precision")
        best, best_j = exact[0]
        for cand, j in exact[1:]:
            if cand.cmp(best) < 0:
                best, best_j = cand, j
        if at_terminal:
            if any(bound.cmp(best) < 0 for bound in bounds):
                raise TruncationLoss(
                    "an unknown coefficient could undercut the minimum"
                )
        elif sum(cand.cmp(best) == 0 for cand, _ in exact) > 1 or any(
            bound.cmp(best) <= 0 for bound in bounds
        ):
            if zseq.rule is not None and k >= depth_limit:
                raise DepthExceeded(
                    f"no certified minimum within {depth_limit} shifts",
                    consulted=k + 1,
                )
            g = shift_variable(g, PuiseuxSeries.make([(r_next, gamma_next)]))
            k += 1
            continue
        if not best.is_zero():
            return best, None
        residue = g.coeffs[best_j].leading()[1]
        return best, residue * gamma_next ** best_j if best_j else residue


def z_eval(zseq: ZSequence, f: OrePoly, depth_limit: int = 64) -> Value:
    """v(f) for the valuation defined by the z-sequence.

    f is rewritten over z_k = z_{k-1} - gamma_k x^{-r_k} one entry at a
    time, f = sum_j q_j z_k^j, until the least v(q_j) + j v(z_k) is attained
    at one j only; that minimum is v(f).  Proof: v(z_k) = r_{k+1}, since
    z_k = gamma_{k+1} x^{-r_{k+1}} + z_{k+1} and v(z_{k+1}) > r_{k+1}, so
    the terms have the values of the candidates, and a unique minimum is the
    value of the sum by the valuation axiom.  A terminal sequence reaches its
    terminal; a rule raises DepthExceeded after `depth_limit` shifts, a bare
    prefix at once, and TruncationLoss marks coefficients too imprecise.
    """
    return _z_eval_full(zseq, f, depth_limit)[0]


def z_residue(zseq: ZSequence, f: OrePoly, depth_limit: int = 64) -> Rat:
    """Residue of a value-0 element: lc(q_j) gamma_{k+1}^j at its certified
    minimum, where q_j z_k^j leads with lc(q_j) (gamma_{k+1} x^{-r_{k+1}})^j."""
    value, coeff = _z_eval_full(zseq, f, depth_limit)
    if value is INFINITY or not value.is_zero():
        raise NonzeroValue(f"element has value {value}, not 0")
    assert coeff is not None
    return coeff


def tilde_eval(zseq: ZSequence, f: OrePoly, depth_limit: int = 64) -> Value:
    """Value over the infinitesimally-extended group: v(z) = r* - mu.

    Rewrites f over the deep z-variable at doubling depths and takes
    min_j v(q_j) + j(r* - mu), stopping once the verdict survives two
    doublings (single agreements can be flukes when a prefix sum happens
    to be a root of a coefficient).

    Input convention — tail-faithful coefficients: a truncation bound on an
    input coefficient asserts that its hidden tail follows the sequence's
    own continuation, the only truncated elements the infinitesimal
    extension contributes.  Under that reading a rewritten coefficient with
    no decidable term is exactly zero, which is what lets the deep
    variable's infinitesimal value surface.  Fully exact inputs never
    invoke the convention and agree with z_eval.
    """
    rule = zseq.rule
    if rule is None:
        raise ValueError("tilde evaluation needs an infinite-rule tail")
    r_star = rule.limit
    if f.is_zero_record():
        return INFINITY

    def attempt(depth: int) -> Value:
        g = shift_variable(f, a_series(zseq, depth, exact=True))
        best: Value = INFINITY
        for j, q_j in enumerate(g.coeffs):
            exact, floor = q_j.value_floor()
            if floor is INFINITY or not exact:
                continue
            assert isinstance(floor, ValueGroupElement)
            cand = ValueGroupElement(floor.q + j * r_star, 0, j)
            if cand.cmp(best) < 0:
                best = cand
        return best

    depth = 1
    verdicts: List[Value] = []
    while depth <= depth_limit:
        verdicts.append(attempt(depth))
        window = verdicts[-3:]
        if len(window) == 3 and all(u.cmp(window[0]) == 0 for u in window):
            return window[0]
        depth *= 2
    raise DepthExceeded(
        f"tilde value did not stabilize within depth {depth_limit}",
        consulted=depth_limit,
    )
