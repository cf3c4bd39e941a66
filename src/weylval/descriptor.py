"""Tower descriptors: the data defining one valuation.

A descriptor lists steps (m_i, n_i, beta_i), i >= 1, building the tower
    w_0 = y,   w_i = x^{m_i} w_{i-1}^{n_i} - beta_i,
with generator values v(x) = -1, v(w_{i-1}) = m_i/n_i.  A tail either
declares the last tower element's value irrational (rank-two value group),
or supplies a rule generating steps forever, or is absent (the descriptor is
a prefix truncation).  Index 0 in pair computations refers to x itself via
the convention (m_0, n_0) = (1, -1) with conceptual beta_0 = 1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .coeff import Rat, format_rat, json_int, parse_rat, sgn, nth_root, v2
from .errors import (
    BudgetExceeded,
    DeclarationInconsistent,
    DepthExceeded,
    MissingSignChoice,
    ParseError,
    clipped,
)
from .valuegroup import Value, ValueGroupElement
from .weyl import Row, WeylElement, _leibniz_row


@dataclass(frozen=True)
class OmegaStep:
    m: int
    n: int
    beta: Rat

    def ratio(self) -> Rat:
        return Rat(self.m, self.n)


class GroupKind:
    TWO_DIVISIBLE = "TwoDivisibleRationalSubgroup"
    NON_TWO_DIVISIBLE = "NonTwoDivisibleRationalSubgroup"
    RANK_TWO = "RankTwo"


@dataclass(frozen=True)
class IrrationalTerminal:
    """Tail declaring v(w_N) = value, a positive irrational."""

    value: ValueGroupElement


@dataclass(frozen=True)
class InfiniteRule:
    """Tail generating steps for every index >= 1.

    `limit` is the closed-form sum of the step ratios m_i/n_i over every
    i >= 1, or None when some ratio is not positive, so that the partial
    sums are not known to increase.
    """

    name: str
    step_fn: Callable[[int], OmegaStep]
    declared_kind: str
    limit: Optional[Rat]


Tail = Optional[object]  # IrrationalTerminal | InfiniteRule | None


_CONSTANT_RE = re.compile(r"constant\(\s*(-?\d+)\s*,\s*(\d+)\s*,\s*([^,)]+)\)\s*$")


def builtin_rule(name: str) -> InfiniteRule:
    """Builtin step rules addressable from descriptor files.

    "halving" is the family i -> (1, 2^i, 1) (2-divisible value group).
    "constant(m,n,beta)" is the geometric family i -> (m, n^i, beta); with
    odd n it gives a non-2-divisible rational value group.
    """
    text = name.strip()
    if text == "halving":
        return InfiniteRule(
            "halving",
            lambda i: OmegaStep(1, 2**i, Rat(1)),
            GroupKind.TWO_DIVISIBLE,
            Rat(1),
        )
    match = _CONSTANT_RE.match(text)
    if match:
        m, n, beta = int(match.group(1)), int(match.group(2)), parse_rat(match.group(3))
        if n < 2:
            raise ParseError("constant(m,n,beta) needs n >= 2")
        kind = (
            GroupKind.NON_TWO_DIVISIBLE if n % 2 == 1 else GroupKind.TWO_DIVISIBLE
        )
        return InfiniteRule(
            f"constant({m},{n},{format_rat(beta)})",
            lambda i: OmegaStep(m, n**i, beta),
            kind,
            Rat(m, n - 1) if m > 0 else None,
        )
    raise ParseError(f"unknown builtin rule {clipped(repr(name))}")


class OmegaDescriptor:
    """Steps + tail + stored residue-unit signs."""

    def __init__(
        self,
        steps: List[OmegaStep],
        tail: Tail = None,
        alpha_signs: Optional[Dict[Tuple[int, int], int]] = None,
    ):
        self.explicit_steps = list(steps)
        self.tail = tail
        self.alpha_signs = dict(alpha_signs or {})
        for (i, j), sign in self.alpha_signs.items():
            if not (1 <= i < j) or sign not in (-1, 1):
                raise DeclarationInconsistent(
                    f"alpha sign for ({i},{j}) must have 1 <= i < j and sign +-1"
                )
        self._cache: Dict[int, OmegaStep] = {}
        self._h: Dict[int, int] = {}  # h(i), read for every pair by the extension gate
        # w_1 .. w_K, built by omega_element; always a contiguous prefix
        self._tower: Dict[int, TowerElement] = {}
        # the row terms tower_row may still keep, over the whole tower
        self._row_room = TOWER_ROW_TERM_BUDGET
        # digit walks over steps 1..r, keyed by r, built by digit_walk
        self._digit_walks: Dict[int, DigitWalk] = {}
        if isinstance(tail, IrrationalTerminal):
            t = tail.value
            if t.k_xi == 0 or t.k_mu != 0:
                raise DeclarationInconsistent(
                    "terminal value must be irrational (k_xi != 0, k_mu = 0)"
                )

    # -- step access ---------------------------------------------------------

    def has_step(self, i: int) -> bool:
        return i <= len(self.explicit_steps) or isinstance(self.tail, InfiniteRule)

    def step(self, i: int) -> OmegaStep:
        """1-based step access; materializes rule steps on demand."""
        if i < 1:
            raise ValueError("step indices are 1-based")
        if i <= len(self.explicit_steps):
            return self.explicit_steps[i - 1]
        if isinstance(self.tail, InfiniteRule):
            if i not in self._cache:
                self._cache[i] = self.tail.step_fn(i)
            return self._cache[i]
        raise DepthExceeded(f"descriptor exhausted at step {i}", consulted=i)

    @property
    def terminal(self) -> Optional[IrrationalTerminal]:
        return self.tail if isinstance(self.tail, IrrationalTerminal) else None

    @property
    def rule(self) -> Optional[InfiniteRule]:
        return self.tail if isinstance(self.tail, InfiniteRule) else None

    @property
    def terminal_index(self) -> Optional[int]:
        """Tower index N with v(w_N) irrational, when a terminal is declared."""
        return len(self.explicit_steps) if self.terminal else None

    # -- generator values ----------------------------------------------------

    def generator_value(self, i: int) -> Value:
        """v(w_i) for i >= -1 (w_{-1} = x, w_0 = y)."""
        if i < -1:
            raise ValueError("generator indices start at -1")
        if i == -1:
            return ValueGroupElement.rational(-1)
        if self.terminal and i == self.terminal_index:
            return self.terminal.value
        step = self.step(i + 1)
        return ValueGroupElement.rational(step.ratio())

    def pair_mn(self, i: int) -> Tuple[int, int]:
        """(m_i, n_i) with the index-0 convention (1, -1)."""
        if i == 0:
            return (1, -1)
        step = self.step(i)
        return (step.m, step.n)

    def beta(self, i: int) -> Rat:
        """beta_i with the conceptual beta_0 = 1."""
        if i == 0:
            return Rat(1)
        return self.step(i).beta

    def h(self, i: int) -> int:
        """2-adic depth of |n_i| (h_0 = 0)."""
        h = self._h.get(i)
        if h is None:
            h = self._h[i] = v2(self.pair_mn(i)[1])
        return h

    # -- JSON -----------------------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {
            "steps": [
                {"m": s.m, "n": s.n, "beta": format_rat(s.beta)}
                for s in self.explicit_steps
            ]
        }
        if self.terminal:
            out["tail"] = {"kind": "irrational", "value": self.terminal.value.to_json()}
        elif self.rule:
            out["tail"] = {
                "kind": "rule",
                "rule": self.rule.name,
                "group_kind": self.rule.declared_kind,
            }
        if self.alpha_signs:
            out["alpha_signs"] = [
                {"i": i, "j": j, "sign": sign}
                for (i, j), sign in sorted(self.alpha_signs.items())
            ]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "OmegaDescriptor":
        if not isinstance(data, dict):
            raise ParseError("descriptor JSON must be an object")
        for key in ("steps", "alpha_signs"):
            if not isinstance(data.get(key, []), list):
                raise ParseError(f"descriptor {key} must be a list")
        steps = []
        for entry in data.get("steps", []):
            try:
                steps.append(
                    OmegaStep(
                        json_int(entry["m"]), json_int(entry["n"]), parse_rat(str(entry["beta"]))
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad step entry {clipped(repr(entry))}: {exc}") from None
        tail_data = data.get("tail")
        tail: Tail = None
        if tail_data is not None:
            if not isinstance(tail_data, dict):
                raise ParseError("descriptor tail must be an object")
            kind = tail_data.get("kind")
            if kind == "irrational":
                tail = IrrationalTerminal(
                    ValueGroupElement.from_json(tail_data.get("value", {}))
                )
            elif kind == "rule":
                tail = builtin_rule(str(tail_data.get("rule", "")))
                declared = tail_data.get("group_kind")
                if declared is not None and declared != tail.declared_kind:
                    raise DeclarationInconsistent(
                        f"rule {tail.name} has group kind {tail.declared_kind}, "
                        f"not {declared}"
                    )
            else:
                raise ParseError(f"unknown tail kind {clipped(repr(kind))}")
        alpha_signs: Dict[Tuple[int, int], int] = {}
        for entry in data.get("alpha_signs", []):
            try:
                key = (json_int(entry["i"]), json_int(entry["j"]))
                alpha_signs[key] = json_int(entry["sign"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad alpha sign entry {clipped(repr(entry))}: {exc}") from None
        return cls(steps, tail, alpha_signs)


# -- pair data ----------------------------------------------------------------


@dataclass(frozen=True)
class PairData:
    i: int
    j: int
    d: int
    k_ij: int
    k_ji: int


def pair_data(desc: OmegaDescriptor, i: int, j: int) -> PairData:
    """Crossing data for generator indices 0 <= i != j (0 means x).

    d = gcd(|m_j n_i|, |m_i n_j|);  K_ij = m_j n_i / d;  K_ji = m_i n_j / d.
    """
    if i == j or i < 0 or j < 0:
        raise ValueError("pair_data needs distinct indices >= 0")
    m_i, n_i = desc.pair_mn(i)
    m_j, n_j = desc.pair_mn(j)
    d = math.gcd(abs(m_j * n_i), abs(m_i * n_j))
    k_ij, k_ji = (m_j * n_i) // d, (m_i * n_j) // d
    # cross identity that pins the sign conventions
    assert k_ij * m_i * n_j == k_ji * m_j * n_i
    return PairData(i, j, d, k_ij, k_ji)


def _alpha_root_data(desc: OmegaDescriptor, i: int, j: int):
    """(d_odd, l1, l2) with alpha_{i,j}^{d_odd} = beta_i^{l1} beta_j^{-l2}."""
    data = pair_data(desc, i, j)
    m_i, _ = desc.pair_mn(i)
    m_j, _ = desc.pair_mn(j)
    d_odd = data.d >> v2(data.d)
    if (d_odd * m_j) % data.d or (d_odd * m_i) % data.d:
        raise AssertionError("odd-part shortcut exponents must be integral")
    return d_odd, (d_odd * m_j) // data.d, (d_odd * m_i) // data.d


def _is_stored_sign_pair(desc: OmegaDescriptor, i: int, j: int) -> bool:
    """Pairs whose residue unit needs a stored sign: both n even (so i,j >= 1)."""
    if i == 0 or j == 0:
        return False
    return desc.pair_mn(i)[1] % 2 == 0 and desc.pair_mn(j)[1] % 2 == 0


def _stored_sign(desc: OmegaDescriptor, i: int, j: int) -> int:
    key = (min(i, j), max(i, j))
    if key in desc.alpha_signs:
        return desc.alpha_signs[key]
    if desc.rule is not None:
        # infinitely many pairs exist; unstored ones default to +1
        return 1
    raise MissingSignChoice(f"pair {key} needs a stored residue-unit sign")


def alpha(desc: OmegaDescriptor, i: int, j: int) -> Rat:
    """Residue of w_{i-1}^{K_ij} w_{j-1}^{-K_ji}, exact rational mode.

    Raises NoRationalRoot when the residue exists as a real number but not in
    Q, and MissingSignChoice when both n_i, n_j are even and the descriptor
    stores no sign for the pair.
    """
    if i == j:
        return Rat(1)
    if i > j:
        return 1 / alpha(desc, j, i)
    data = pair_data(desc, i, j)
    beta_i, beta_j = desc.beta(i), desc.beta(j)
    m_i, _ = desc.pair_mn(i)
    m_j, _ = desc.pair_mn(j)
    if _is_stored_sign_pair(desc, i, j):
        sign = _stored_sign(desc, i, j)
        target = beta_i**m_j * beta_j ** (-m_i)
        return sign * nth_root(target, data.d)
    d_odd, l1, l2 = _alpha_root_data(desc, i, j)
    base = beta_i**l1 * beta_j ** (-l2)
    return nth_root(base, d_odd)


def alpha_sign(desc: OmegaDescriptor, i: int, j: int) -> int:
    """Sign of the residue unit, computable even when its value is irrational."""
    if i == j:
        return 1
    if i > j:
        return alpha_sign(desc, j, i)
    if _is_stored_sign_pair(desc, i, j):
        return _stored_sign(desc, i, j)
    _, l1, l2 = _alpha_root_data(desc, i, j)
    sign = sgn(desc.beta(i)) ** abs(l1) * sgn(desc.beta(j)) ** abs(l2)
    return 1 if sign >= 0 else -1


# -- tower elements -----------------------------------------------------------


# Largest y-degree n_1 n_2 ... n_i of a tower element omega_element builds.
# On a 2-vCPU Xeon, halving's w_3 (64) builds in 0.02 s; constant(1,3,1)'s
# w_3 (729) takes 18 s and 85 MB, and halving's w_4 (1024) did not finish
# in 5 minutes.  The evaluator asks for a tower element only when an
# element's least-weight terms cancel: y^729 on constant(1,3,1) reads 243
# off its one term, while x y^731 - y^728 there needs w_3 and is refused.
TOWER_Y_DEGREE_BUDGET = 256

# Most row terms y^b w_i that `tower_row` keeps on one descriptor; past it
# a row is made for each division that asks for it and dropped.  The
# benchmark keeps at most 1,678 on one descriptor.  Rows serve only elements
# whose least-weight terms cancel, as no other element is divided: 2000
# random elements on one halving descriptor (total degree up to 40, every
# fourth a y^k, k up to 160) all certify on their own terms, in 0.1 s on a
# 2-vCPU Xeon, and make no row.  Each of the first 600 of them times w_1
# does reach the digit expansion: keeping every row, they keep 85,761 row
# terms and peak at 28.4 MB; under this budget they peak at 17.6 MB but
# take 8.9 s against about 3 s, as a row past the budget is made again at
# every division that asks for it.  Clearing the kept rows when the budget
# is full does not help: on 600 of the plain elements, when each was still
# divided, making and dropping took 13.6 s and 22 MB, clearing 14.5 s and
# 24 MB, and keeping every row 5.2 s and 33 MB.  Keeping rows is what pays
# for this code: with no row kept, the benchmark's `tower` workload (seed
# 4242, 4 alternating pairs of 15 s runs) fell from 445.5 to 292.0 ops/s.
TOWER_ROW_TERM_BUDGET = 2048


class TowerElement:
    """A built tower element w_i and what a digit expansion reads of it.

    `lead` is the x exponent of its top term x^lead y^d (a divisor's top row
    is that one term), `size` its term count, and `rows` the rows y^b w_i
    that `tower_row` has kept so far, keyed by b.
    """

    __slots__ = ("element", "lead", "size", "rows")

    def __init__(self, element: WeylElement):
        rows = element.rows
        self.element = element
        self.lead = max(rows[max(rows)]) if rows else None
        self.size = sum(map(len, rows.values()))
        self.rows: Dict[int, Row] = {}


def omega_element(desc: OmegaDescriptor, i: int) -> WeylElement:
    """Expanded normal form of w_i, built once per descriptor and shared.

    An m_k < 0 makes w_i Laurent in x.  Raises BudgetExceeded, before
    building anything, if the y-degree of w_i is above
    TOWER_Y_DEGREE_BUDGET.  Errors are raised afresh on every call; only
    built elements are stored, each as a `TowerElement` in `desc._tower`.
    """
    if i < -1:
        raise ValueError("tower indices start at -1")
    if i == -1:
        return WeylElement.x()
    if i == 0:
        return WeylElement.y()
    tower = desc._tower
    if i in tower:
        return tower[i].element
    degree = 1
    for k in range(1, i + 1):
        degree *= desc.step(k).n
    if degree > TOWER_Y_DEGREE_BUDGET:
        raise BudgetExceeded(
            f"tower element w_{i} has y-degree {degree}, above the budget "
            f"of {TOWER_Y_DEGREE_BUDGET}"
        )
    built = len(tower)
    element = tower[built].element if built else WeylElement.y()
    for k in range(built + 1, i + 1):
        step = desc.step(k)
        element = WeylElement.monomial(step.m, 0).mul(element.pow(step.n)).sub(
            WeylElement.scalar(step.beta)
        )
        tower[k] = TowerElement(element)
    return element


def tower_row(desc: OmegaDescriptor, record: TowerElement, b: int) -> Row:
    """The row y^b w_i of a tower element of `desc`, made once and kept.

    Every digit expansion on the descriptor reuses the rows the ones before
    it made, until they hold TOWER_ROW_TERM_BUDGET terms; a row that does
    not fit in what is left is made and returned, not kept.
    """
    row = record.rows.get(b)
    if row is None:
        row = _leibniz_row(record.element.rows, b)
        size = sum(len(entries) for _, entries in row)
        if size <= desc._row_room:
            desc._row_room -= size
            record.rows[b] = row
    return row


# -- value group shape ---------------------------------------------------------


def group_kind(desc: OmegaDescriptor) -> str:
    if desc.terminal:
        return GroupKind.RANK_TWO
    if desc.rule:
        return desc.rule.declared_kind
    return GroupKind.NON_TWO_DIVISIBLE


def basis_slot(desc: OmegaDescriptor) -> Optional[Tuple[int, int]]:
    """(H, b) for the 2-torsion basis of the rational part, or None.

    H is the maximal 2-adic step depth, b the first step index attaining it;
    b = 0 denotes the x slot (all-odd-n descriptors, H = 0).  None means the
    rational part is 2-divisible (no slot).
    """
    if group_kind(desc) == GroupKind.TWO_DIVISIBLE:
        return None
    return two_adic_slot(desc, data_window(desc))


def two_adic_slot(desc: OmegaDescriptor, r: int) -> Tuple[int, int]:
    """(H, b): the largest 2-adic depth h_i over steps 1..r and the first
    step b attaining it, with b = 0 (x, h_0 = 0) when every n_i is odd."""
    b = max(range(r + 1), key=desc.h)
    return desc.h(b), b


# (L_r, h_max, b, v_b L_r, digits) over steps 1..r: L_0 = 1 and
# L_i = lcm(L_{i-1}, n_i); (h_max, b) is `two_adic_slot`; v_b = m_b/n_b is
# the value of w_{b-1}, with v_0 = -1; digits holds (i, e_i, u_i, u_i^{-1}
# mod e_i) for i = r down to 1, with e_i = L_i/L_{i-1} and u_i = m_i L_i/n_i.
DigitWalk = Tuple[int, int, int, int, Tuple[Tuple[int, int, int, int], ...]]


def digit_walk(desc: OmegaDescriptor, r: int) -> DigitWalk:
    """The tables of the canonical digit walk over steps 1..r (`DigitWalk`).

    They depend only on the descriptor and r, so each is built once per
    descriptor; errors are raised afresh on every call.
    """
    walk = desc._digit_walks.get(r)
    if walk is None:
        lcms = [1]
        for i in range(1, r + 1):
            lcms.append(math.lcm(lcms[-1], desc.step(i).n))
        h_max, b = two_adic_slot(desc, r)
        m_b, n_b = desc.pair_mn(b)
        digits = []
        for i in range(r, 0, -1):
            step = desc.step(i)
            e_i = lcms[i] // lcms[i - 1]
            u_i = step.m * lcms[i] // step.n
            digits.append((i, e_i, u_i, pow(u_i, -1, e_i)))
        walk = (lcms[r], h_max, b, m_b * lcms[r] // n_b, tuple(digits))
        desc._digit_walks[r] = walk
    return walk


def prefix_sum(desc: OmegaDescriptor, k: int) -> Rat:
    """-1 + sum_{i=1..k} m_i/n_i  (the k-th product-value partial sum)."""
    total = Rat(-1)
    for i in range(1, k + 1):
        total += desc.step(i).ratio()
    return total


def level_limit(desc: OmegaDescriptor) -> Optional[Rat]:
    """r* = sup of the levels h_k = sum_{i<=k} m_i/n_i over k >= 1, on a rule.

    None on a terminal or bare-prefix descriptor, and wherever a step past
    the first has a ratio that is not positive: only a strictly increasing
    h_k stays below its supremum at every k.
    """
    rule = desc.rule
    if rule is None or rule.limit is None:
        return None
    total = rule.limit
    for i, step in enumerate(desc.explicit_steps, start=1):
        if i >= 2 and step.m <= 0:
            return None
        total += step.ratio() - rule.step_fn(i).ratio()
    return total


# Most rule steps a rule descriptor's data window may take in past its
# explicit steps.  `validate` grows with the cube of a window of one 2-adic
# depth: on a 2-vCPU Xeon, constant(1,3,1) with a stored sign on (1, 63)
# validates in 0.12 s (0.36 s as a process), and with one on (1, 128) in
# 0.9 s, its triple loop reading each pair's sign from a table.
DATA_WINDOW_BUDGET = 64


def data_window(desc: OmegaDescriptor) -> int:
    """Steps 1..W that hold every datum the descriptor gives: its explicit
    steps and, on a rule, both steps of every stored sign, then rule steps
    up to an index of at least 2 and, on a 2-divisible rule, up to the
    first whose 2-adic depth h is above every explicit step's.

    That window is complete: every step k > W is a rule step in no stored
    pair, with h_k = h_W on a non-2-divisible rule and h_k > h_W, the
    window's strict maximum, on a 2-divisible one, and alpha_sign(i, k) =
    alpha_sign(min(i, W), W) at every slot i < k (alpha_sign(W, W) = 1).
    - Rule steps past step 1 share their shape and beta, and their pairs
      past the stored ones take the default sign +1: every pair of two even
      steps, so of two rule steps on a 2-divisible rule.
    - On a pair (i, k) with an odd n, alpha_sign raises sgn(beta_i) and
      sgn(beta_k) to m_k/2^s and m_i/2^s, s = v2(gcd(m_k n_i, m_i n_k)):
      with n_k odd, s = min(v2(m_k n_i), v2(m_i)), and with n_k even, n_i
      and m_k are odd and s = 0.  Neither depends on k, and between two odd
      rule steps both powers are equal, so the sign is +1.
    So every condition that `validate`, `check_extendable`, `basis_slot`
    and `resolve_gammas` read on steps past W is one they read on W.
    Raises BudgetExceeded, naming the step, when the window would take in
    more than DATA_WINDOW_BUDGET rule steps.
    """
    explicit = len(desc.explicit_steps)
    if desc.rule is None:
        return explicit
    last = max(max((j for _, j in desc.alpha_signs), default=0), explicit, 1) + 1
    if desc.rule.declared_kind == GroupKind.TWO_DIVISIBLE:
        top = max((v2(s.n) for s in desc.explicit_steps if s.n), default=0)
        while last - explicit <= DATA_WINDOW_BUDGET and desc.h(last) <= top:
            last += 1
    if last - explicit > DATA_WINDOW_BUDGET:
        raise BudgetExceeded(
            f"the data window reaches step {last}, more than the budget of "
            f"{DATA_WINDOW_BUDGET} rule steps past the explicit ones"
        )
    return last


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str


def validate(desc: OmegaDescriptor) -> List[Violation]:
    """Check descriptor well-formedness over its `data_window`, which sees
    every step past it; on a rule the levels h_k must also stay below 1 at
    every k, which `level_limit` reads.  Returns a list of violations
    (empty means valid).
    """
    out: List[Violation] = []
    depth = data_window(desc)

    steps = [desc.step(i) for i in range(1, depth + 1)]

    for idx, step in enumerate(steps, start=1):
        if step.n < 1:
            out.append(Violation("StepShape", f"step {idx}: n must be >= 1"))
            continue
        if math.gcd(abs(step.m), step.n) != 1:
            out.append(
                Violation("StepShape", f"step {idx}: gcd(|m|, n) must be 1")
            )
        if step.beta == 0:
            out.append(Violation("StepShape", f"step {idx}: beta must be nonzero"))
        if idx == 1 and Rat(step.m, step.n) >= 1:
            out.append(Violation("StepShape", "step 1: m/n must be < 1"))
        if idx >= 2 and step.m <= 0:
            out.append(
                Violation("StepShape", f"step {idx}: m must be positive beyond step 1")
            )

    if any(v.rule == "StepShape" for v in out):
        return out  # downstream checks assume well-shaped steps

    # product-value partial sums stay negative
    for k in range(1, depth + 1):
        if prefix_sum(desc, k) >= 0:
            out.append(
                Violation("PrefixSum", f"partial sum at k = {k} is not negative")
            )
            break
    if desc.rule and not out:
        # h_k increases strictly to r*, so every h_k < 1 iff r* <= 1; r*
        # exists, as StepShape found every ratio past step 1 positive
        limit = level_limit(desc)
        assert limit is not None
        if limit > 1:
            out.append(
                Violation(
                    "PrefixSum",
                    f"partial sums past step {depth} reach 0: the levels h_k "
                    "tend to r* > 1",
                )
            )
    if desc.terminal:
        n = len(desc.explicit_steps)
        t = desc.terminal.value
        if not ValueGroupElement.rational(0).cmp(t) < 0:
            out.append(Violation("TerminalShape", "terminal value must be positive"))
        total = ValueGroupElement.rational(prefix_sum(desc, n)).add(t)
        if not total.cmp(ValueGroupElement.rational(0)) < 0:
            out.append(
                Violation("PrefixSum", "prefix sum plus terminal value is not negative")
            )

    # sign constancy over even-n steps
    even_signs = {sgn(s.beta) for s in steps if s.n % 2 == 0}
    if len(even_signs) > 1:
        out.append(
            Violation("SignConstancy", "beta signs differ across even-n steps")
        )

    # every pair of even-n steps needs a stored sign; a rule defaults to +1
    if desc.rule is None:
        missing = [
            (i, j)
            for i in range(1, depth + 1)
            for j in range(i + 1, depth + 1)
            if _is_stored_sign_pair(desc, i, j) and (i, j) not in desc.alpha_signs
        ]
        out.extend(
            Violation("MissingSignChoice", f"pair {key} needs a stored residue-unit sign")
            for key in missing
        )
        if missing:
            return out

    # triple condition: alpha_{a,b} alpha_{a,c} alpha_{b,c} > 0 when
    # h_a = h_b <= h_c (indices include 0 = x with h_0 = 0)
    h = [desc.h(i) for i in range(depth + 1)]
    # the sign of every pair the triples read, computed once and stored in
    # both orders: (a, c) with c != a and h_c >= h_a, for each a whose
    # depth another index shares
    signs: Dict[Tuple[int, int], int] = {}
    for a in range(depth + 1):
        if h.count(h[a]) > 1:
            for c in range(depth + 1):
                if c != a and h[c] >= h[a] and (a, c) not in signs:
                    signs[a, c] = signs[c, a] = alpha_sign(desc, min(a, c), max(a, c))
    for a in range(depth + 1):
        for b in range(a + 1, depth + 1):
            if h[a] != h[b]:
                continue
            for c in range(depth + 1):
                if c in (a, b) or h[c] < h[a]:
                    continue
                if signs[a, b] * signs[a, c] * signs[b, c] <= 0:
                    detail = f"residue-unit signs inconsistent on ({a},{b},{c})"
                    out.append(Violation("TripleCondition", detail))
    return out
