"""Extending a Weyl-algebra valuation to the Ore ring over Puiseux series.

Three stages: an extendability gate (two sign conditions over the data
window), resolution of the per-step real roots gamma-tilde (with the one
free sign in the non-2-divisible case), and the conversion state machine
that turns an omega tower into a z-sequence entry by entry.  The
conversion reads the descriptor, the roots and closed-form residues only:
it calls neither the evaluator nor the Ore product, so the round trip in
`oracles` compares two computations that share no code beyond the
descriptor and the exact arithmetic.

The conversion keeps its remainder symbolic: a list of records
(scalar, x-exponent, atoms, z), where each atom is an opaque value-0 factor
with a closed-form residue, one cofactor tail
S_{i,j} = sum_{k=1..n-j} C(k+j-1, j) gamma_i^{k-1} b_i^{n-j-k} of step i,
with b_i = x^{m_i/n_i} w_{i-1} and n = n_i (the root cofactor B_i is
S_{i,0}: (b_i - gamma_i) S_{i,0} = b_i^n - beta_i, and
(b_i - gamma_i) S_{i,j+1} = S_{i,j} - residue(S_{i,j})), and z is the
index of the record's one z variable, or None.  Commutation corrections
add at least 1 to a record's value, which puts them above every emission
and above the terminal, so they are dropped at birth.

A record's level is the entry exponent it would emit, and no record ever
gives rise to one below its own level.  Every entry exponent is below 1,
and on a rule every one is at most some tower level h_k, which increases
strictly to r* (`level_limit`).  So records at or above the cut
min(1, r*) can never be emitted, and every stored record sits below it:
each is cut where it is made (`_telescope`, `_substitute`), and the
deviation store, which keeps its frame, is cut again where sigma moves
(`_close_step`).  Without the cut, the remainder on constant(1,3,1) grows
threefold per entry.  `CONVERSION_RECORD_BUDGET` is read in `_fold` as
each telescoped batch is added, and once more when a step close stores
its deviation.

Every x-exponent the conversion keeps is an int over one running
denominator (`_Conversion`), so exponents add and compare exactly as ints
and equal exponents are equal ints; scalars and the roots gamma_i stay
`Rat`.
"""

from __future__ import annotations

from itertools import chain
from math import comb, gcd
from typing import Dict, List, Optional, Tuple

from .coeff import Rat, format_rat, nth_root
from .descriptor import (
    OmegaDescriptor,
    alpha_sign,
    basis_slot,
    data_window,
    level_limit,
)
from .errors import (
    BudgetExceeded,
    ConversionInternalError,
    DepthExceeded,
    NotExtendable,
    SignChoiceForbidden,
    SignChoiceRequired,
)
from .records import Record
from .series import ZSequence, ZTerminal
from .valuegroup import ValueGroupElement, cmp as value_cmp


# -- extendability ------------------------------------------------------------------


class ExtendViolation(Record):
    """Which of the two extension conditions failed, and where."""

    __slots__ = ("condition", "indices", "detail")

    def __init__(self, condition: int, indices: Tuple[int, ...], detail: str):
        self.condition, self.indices, self.detail = condition, indices, detail

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "indices": list(self.indices),
            "detail": self.detail,
        }


def check_extendable(desc: OmegaDescriptor) -> Optional[ExtendViolation]:
    """None when both extension conditions hold over the data window, which
    sees every step past it (`data_window`).

    Condition 1: every even-n step has a positive beta, so the real root
    gamma_i exists.  Condition 2: for h_i < h_j <= h_l the alpha signs
    alpha(i,j) and alpha(i,l) agree; index 0 is the x slot with h = 0.
    Through alpha(i, j) = gamma_i^{K_ij} gamma_j^{-K_ji}, condition 2 gives
    gamma_i one sign, which the conversion reads (`_gamma_tilde`).
    """
    window = data_window(desc)
    for i in range(1, window + 1):
        step = desc.step(i)
        if step.n % 2 == 0 and step.beta < 0:
            return ExtendViolation(
                1, (i,), f"step {i} has even n={step.n} with beta<0"
            )
    h = {i: desc.h(i) for i in range(0, window + 1)}
    for i in range(0, window + 1):
        linked = [j for j in range(1, window + 1) if h[i] < h[j]]
        if len(linked) < 2:
            continue
        # Signs are +-1, so the first disagreeing pair of a pairwise scan is
        # (head, l) at the first l whose sign differs from head's.  Each sign
        # is read once, the first pair's two in h order as that scan reads
        # them, so a missing stored sign is reported for the same pair.
        head, first = linked[0], None
        for l in linked[1:]:
            if first is None and h[head] <= h[l]:
                first = alpha_sign(desc, i, head)
            sign = alpha_sign(desc, i, l)
            if first is None:
                first = alpha_sign(desc, i, head)
            if sign != first:
                j = head
                if h[j] > h[l]:
                    j, l = l, j
                return ExtendViolation(
                    2,
                    (i, j, l),
                    f"alpha({i},{j}) and alpha({i},{l}) have opposite signs",
                )
    return None


# -- gamma resolution ----------------------------------------------------------------


class GammaResolution(Record):
    """Real roots gamma_i with gamma_i^{n_i} = beta_i, signs pinned by alpha.

    `gammas` holds the roots over the data window; `gamma(i)` is the one
    accessor.  A step past the window has odd n or alpha(i, i + 1) = +1, so
    its root is the real root, which `deeper` keeps, as the conversion
    reads every root again at each later entry.  Equality and hashing read
    the window's roots and the sign choice only, not `desc` or `deeper`.
    """

    __slots__ = ("gammas", "free_choice_index", "chosen_sign", "desc", "deeper")

    def __init__(
        self,
        gammas: Tuple[Rat, ...],
        free_choice_index: Optional[int],
        chosen_sign: Optional[int],
        desc: OmegaDescriptor,
        deeper: Optional[Dict[int, Rat]] = None,
    ):
        self.gammas = gammas
        self.free_choice_index = free_choice_index
        self.chosen_sign = chosen_sign
        self.desc = desc
        self.deeper: Dict[int, Rat] = {} if deeper is None else deeper

    def __eq__(self, other: object) -> bool:
        return type(other) is GammaResolution and (
            self.gammas, self.free_choice_index, self.chosen_sign
        ) == (other.gammas, other.free_choice_index, other.chosen_sign)

    def __hash__(self) -> int:
        return hash((self.gammas, self.free_choice_index, self.chosen_sign))

    def gamma(self, i: int) -> Rat:
        if i < 1:
            raise ValueError("step indices are 1-based")
        if i <= len(self.gammas):
            return self.gammas[i - 1]
        root = self.deeper.get(i)
        if root is None:
            step = self.desc.step(i)
            root = self.deeper[i] = nth_root(step.beta, step.n)
        return root

    def to_json(self) -> dict:
        out: dict = {"gammas": [format_rat(g) for g in self.gammas]}
        if self.free_choice_index is not None:
            out["free_choice_index"] = self.free_choice_index
            out["chosen_sign"] = self.chosen_sign
        return out


def _gamma_tilde(
    desc: OmegaDescriptor, i: int, window: int,
    free_index: Optional[int], chosen_sign: Optional[int],
) -> Rat:
    """gamma_i for a step i of the data window, the real n_i-th root of
    beta_i, with its sign.

    b_i = x^{m_i/n_i} w_{i-1} has residue gamma_i, and the x powers cancel in
    alpha's monomial, so alpha(i, j) = gamma_i^{K_ij} gamma_j^{-K_ji} (K from
    `pair_data`).  For h_j > h_i, K_ij is odd and K_ji even, so alpha(i, j)
    has the sign of gamma_i; for h_j = h_i both are odd.  An even step takes
    `chosen_sign` at the free step b; else its sign against a step of larger
    h in the window, later steps first; else, on a 2-divisible rule, it is
    the window's last step, whose sign against the next is +1; else it
    shares the largest h with b and takes chosen_sign * alpha(b, i).
    """
    step = desc.step(i)
    root = nth_root(step.beta, step.n)
    if step.n % 2 == 1:
        return root
    if i == free_index:
        return chosen_sign * root
    hi = desc.h(i)
    for j in chain(range(i + 1, window + 1), range(1, i)):
        if desc.h(j) > hi:
            return alpha_sign(desc, i, j) * root
    if free_index is None:
        return root
    return chosen_sign * alpha_sign(desc, free_index, i) * root


def free_step(desc: OmegaDescriptor) -> Optional[int]:
    """Run the extension gate, raising NotExtendable on a violation; then the
    step b of `basis_slot`, whose root sign is free, when its height is at
    least 1, else None."""
    violation = check_extendable(desc)
    if violation is not None:
        raise NotExtendable(
            f"extension condition {violation.condition} fails: {violation.detail}"
        )
    slot = basis_slot(desc)
    if slot is not None and slot[0] >= 1:
        return slot[1]
    return None


def resolve_gammas(
    desc: OmegaDescriptor, sign_choice: Optional[int] = None
) -> GammaResolution:
    """All gamma-tilde over the data window; the free sign only where the
    value group admits one (non-2-divisible with a deepest even step)."""
    free_index = free_step(desc)
    if free_index is None:
        if sign_choice is not None:
            raise SignChoiceForbidden("this descriptor leaves no free sign")
    elif sign_choice is None:
        raise SignChoiceRequired(f"a sign choice is required at step {free_index}")
    elif sign_choice not in (1, -1):
        raise SignChoiceRequired("sign choice must be +1 or -1")
    window = data_window(desc)
    gammas = tuple(
        _gamma_tilde(desc, i, window, free_index, sign_choice)
        for i in range(1, window + 1)
    )
    return GammaResolution(gammas, free_index, sign_choice, desc)


# -- cofactor machinery ---------------------------------------------------------------


def tail_count(n: int, k: int, j: int) -> int:
    """Coefficient table of the cofactor tails: C(k+j-1, j).

    Row 0 (the root cofactor) is all ones and row j+1 holds the prefix sums
    of row j, whose closed form is the hockey-stick identity.  Row j has
    n - j entries; for j >= 1 the prefix one past the end (k = n - j + 1)
    is accepted and equals the full row-(j-1) total, which is the residue
    multiplier of the depth-(j-1) tail.
    """
    if not (0 <= j <= n and 1 <= k <= n - j + 1):
        raise ValueError(f"tail_count({n}, {k}, {j}) is outside the table")
    return comb(k + j - 1, j)


def cofactor_tail_residue(
    desc: OmegaDescriptor, res: GammaResolution, i: int, j: int
) -> Rat:
    """S_{i,j} at b_i = gamma: C(n, j+1) gamma^{n-j-1}."""
    n = desc.step(i).n
    return tail_count(n, n - j, j + 1) * res.gamma(i) ** (n - j - 1)


# -- the conversion state machine -----------------------------------------------------


class _Atom(Record):
    """The cofactor tail S_{i,j}, for 0 <= j <= n_i - 2 (S_{i,n_i-1} is 1)."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        self.i, self.j = i, j


class _Record(Record):
    """scalar x^{xexp/den} (product of atoms) z_z, with den the running
    denominator of the conversion that holds it, so xexp is an int."""

    __slots__ = ("scalar", "xexp", "atoms", "z")

    def __init__(self, scalar: Rat, xexp: int, atoms: Tuple[_Atom, ...], z: Optional[int]):
        self.scalar, self.xexp, self.atoms, self.z = scalar, xexp, atoms, z


# Records (remainder plus deviation store) a conversion may hold.  Every
# stored record sits below the cut, so all of them count; `_fold` reads the
# count as each telescoped batch is added, and `_close_step` once more after
# storing the new deviation, so no iteration passes the budget by more than
# one batch.  The benchmark's conversions hold at most 1 and the largest in
# the tests, a rule conversion with its cut lifted, 1,254; with m_1 < 0 the
# records grow about twelvefold per entry.
CONVERSION_RECORD_BUDGET = 4096


class _Conversion:
    """The conversion state machine of `omega_to_z`.

    Every x-exponent it keeps (records' xexp, `sigma`, `floor`, `zfloor`
    and `last_r`, the last entry's) is an int e standing for e/den, over
    one shared denominator `den`: the cut's, made lcm(den, n) by `_widen`
    before step k+1's ratio m/n is read, which scales every stored
    exponent alike.  So exponents add and compare exactly as ints, equal
    exponents are equal ints, and none is ever a float (depth 1024 on
    halving has den = 2^1024).  A `Rat` is made for an emitted entry and
    for the one comparison with an irrational terminal.

    `devs[i]` holds omega_i's deviation from its root; a list that the cut
    or a substitution empties is dropped, so each pass walks live records.
    """

    def __init__(self, desc: OmegaDescriptor, res: GammaResolution, depth: int):
        self.desc = desc
        self.res = res
        self.depth = depth
        self.entries: List[Tuple[Rat, Rat]] = []
        self.k = 0
        self.bbar = Rat(1)   # product of the residues of S_{i,0}
        self.b_atoms: Tuple[_Atom, ...] = ()  # S_{1,0} ... S_{k,0}, as atoms
        self.C: List[_Record] = []
        self.devs: Dict[int, List[_Record]] = {}
        self.iteration = 0
        limit = level_limit(desc)
        cut = Rat(1) if limit is None else min(Rat(1), limit)
        self.den = cut.denominator
        self.sigma = 0  # sum of m_i/n_i over closed steps
        self.last_r: Optional[int] = None
        # xexp floors of the cut min(1, r*) (`_below_cut`): sigma - cut, and
        # sigma + last_r - cut for z-records (None before the first entry)
        self.floor = -cut.numerator
        self.zfloor: Optional[int] = None

    # -- exponents -------------------------------------------------------------

    def _widen(self, n: int) -> None:
        """Make den a multiple of n, scaling every stored exponent with it."""
        f = n // gcd(self.den, n)
        if f == 1:
            return
        self.den *= f
        self.sigma *= f
        self.floor *= f
        if self.last_r is not None:
            self.last_r *= f
            self.zfloor *= f

        def scaled(records: List[_Record]) -> List[_Record]:
            return [_Record(rec.scalar, rec.xexp * f, rec.atoms, rec.z) for rec in records]

        self.C = scaled(self.C)
        self._map_devs(scaled)

    def _map_devs(self, fn) -> None:
        """Replace each deviation list by fn of it, dropping empty results."""
        self.devs = {i: out for i, recs in self.devs.items() if (out := fn(recs))}

    # -- atom data -----------------------------------------------------------

    def _atom_residue(self, a: _Atom) -> Rat:
        return cofactor_tail_residue(self.desc, self.res, a.i, a.j)

    def _residue(self, rec: _Record) -> Rat:
        assert rec.z is None
        out = rec.scalar
        for a in rec.atoms:
            out *= self._atom_residue(a)
        return out

    # -- record algebra --------------------------------------------------------

    def _tail(self, i: int, j: int) -> Tuple[_Atom, ...]:
        """S_{i,j} as atoms: none for the constant last tail."""
        return (_Atom(i, j),) if j < self.desc.step(i).n - 1 else ()

    def _below_cut(self, xexp: int, z: Optional[int]) -> bool:
        """Whether a record of x-exponent xexp and z variable z sits below
        the cut min(1, r*); no other record is kept.

        A z-free record's level is sigma - xexp, the entry exponent r it
        would emit as a head.  Nothing at or above the cut can ever be
        emitted or consumed, nor can any record descended from it:
        - `_close_step` shifts xexp and sigma by the same m/n, so a record's
          level is invariant (the deviation store keeps its xexp, so it is
          cut again there);
        - children from `_telescope` never sit below their parent's level,
          because deviations have positive value;
        - `_substitute` turns a z-record into a z-free record at level
          sigma - xexp + r with r > last_r, so sigma - xexp + last_r bounds
          every level it can reach from below;
        - every emission and every consumed head is at a level at most
          h_{k+1} = sigma + m_{k+1}/n_{k+1}; on a rule the levels h_k
          increase strictly to r*, so that is below r*, and every entry
          exponent is below 1.
        """
        if z is None:
            return xexp > self.floor
        return self.zfloor is None or xexp > self.zfloor

    def _telescope(self, rec: _Record) -> List[_Record]:
        """rec minus its residue part, below the cut: replace each atom in
        turn by its deviation S_{i,j} - residue = (b_i - gamma) S_{i,j+1},
        read from the live deviation store, folding the residues of the
        atoms after it.  The cut reads only a child's xexp and z, so each
        child is tested before it is built: the same children are kept, in
        the same order, and scalars, atoms and suffix residues are made only
        for a record that keeps one."""
        assert rec.z is None
        devs = self.devs
        kept = [
            [d for d in devs[a.i] if self._below_cut(rec.xexp + d.xexp, d.z)]
            if a.i in devs else []
            for a in rec.atoms
        ]
        if not any(kept):
            return []
        # suffixes[p] is the product of the residues after atom p
        suffixes = [Rat(1)]
        for a in reversed(rec.atoms[1:]):
            suffixes.append(suffixes[-1] * self._atom_residue(a))
        suffixes.reverse()
        out: List[_Record] = []
        for p, a in enumerate(rec.atoms):
            if kept[p]:
                scalar = rec.scalar * suffixes[p]
                head, tail = rec.atoms[:p], self._tail(a.i, a.j + 1)
                out.extend(
                    _Record(scalar * d.scalar, rec.xexp + d.xexp, head + d.atoms + tail, d.z)
                    for d in kept[p]
                )
        return out

    # -- maintenance -----------------------------------------------------------

    def _check_budget(self) -> None:
        alive = len(self.C) + sum(map(len, self.devs.values()))
        if alive > CONVERSION_RECORD_BUDGET:
            raise BudgetExceeded(
                f"conversion holds {alive} records at iteration {self.iteration}, "
                f"above the budget of {CONVERSION_RECORD_BUDGET}"
            )

    def _emit(self, r: int, gamma: Rat) -> None:
        """Append the entry (r/den, gamma) and substitute it."""
        assert gamma != 0
        if r >= self.den:
            raise ConversionInternalError(
                f"entry exponent {format_rat(Rat(r, self.den))} is not below 1"
            )
        if self.last_r is not None and r <= self.last_r:
            raise ConversionInternalError(
                f"entry exponent {format_rat(Rat(r, self.den))} does not increase "
                f"past {format_rat(self.entries[-1][0])}"
            )
        self.entries.append((Rat(r, self.den), gamma))
        self.last_r = r
        self.zfloor = self.floor + r
        self._substitute(r, gamma)

    def _substitute(self, r: int, gamma: Rat) -> None:
        """z_l = gamma x^{-r} + z_{l+1} in every stored record, keeping the
        new records below the cut."""

        def walk(records: List[_Record]) -> List[_Record]:
            out: List[_Record] = []
            for rec in records:
                if rec.z is None:
                    out.append(rec)
                    continue
                xexp = rec.xexp - r
                if xexp > self.floor:
                    out.append(_Record(rec.scalar * gamma, xexp, rec.atoms, None))
                if rec.xexp > self.zfloor:
                    out.append(_Record(rec.scalar, rec.xexp, rec.atoms, rec.z + 1))
            return out

        self.C = walk(self.C)
        self._map_devs(walk)

    def _fold(self, heads: List[_Record], emitted: bool) -> None:
        """Add to the remainder the `_telescope` deviations of the consumed
        heads and, when an entry (r, gamma) was just emitted, of its record
        gamma x^{sigma - r} prod_{i<=k} S_{i,0}; the record budget is read
        as each batch is added."""
        if emitted:
            gamma = self.entries[-1][1]
            heads = heads + [_Record(gamma, self.sigma - self.last_r, self.b_atoms, None)]
        for rec in heads:
            self.C.extend(self._telescope(rec))
            self._check_budget()

    def _close_step(self, mn: int, heads: List[_Record], emitted: bool) -> None:
        """Close step k+1, of ratio mn/den: shift by it to the frame of
        sigma + mn and fold there, then store omega_{k+1}'s deviation from
        its root as devs[k+1] and update bbar and k."""
        self.sigma += mn
        self.floor += mn
        if self.last_r is not None:
            self.zfloor = self.floor + self.last_r
        # the deviation store keeps its xexp, so its levels rose by m/n
        self._map_devs(lambda recs: [r for r in recs if self._below_cut(r.xexp, r.z)])
        self.C = [_Record(rec.scalar, rec.xexp + mn, rec.atoms, rec.z) for rec in self.C]
        self._fold(
            [_Record(rec.scalar, rec.xexp + mn, rec.atoms, rec.z) for rec in heads], emitted
        )
        z = len(self.entries)
        below = self._below_cut(self.sigma, z)
        stored = ([_Record(Rat(1), self.sigma, self.b_atoms, z)] if below else []) + self.C
        if stored:
            self.devs[self.k + 1] = stored
        self._check_budget()
        b_new = self._tail(self.k + 1, 0)
        self.C = [_Record(rec.scalar, rec.xexp, rec.atoms + b_new, rec.z) for rec in self.C]
        self.b_atoms += b_new
        self.bbar *= cofactor_tail_residue(self.desc, self.res, self.k + 1, 0)
        self.k += 1

    # -- the emission rule ---------------------------------------------------------

    def _heads(self) -> Tuple[Optional[int], List[_Record], List[_Record]]:
        """The least value among z-free records, the records attaining it,
        and the other records."""
        best: Optional[int] = None
        heads: List[_Record] = []
        rest: List[_Record] = []
        for rec in self.C:
            if rec.z is None:
                value = -rec.xexp
                if best is None or value < best:
                    rest += heads
                    best, heads = value, [rec]
                    continue
                if value == best:
                    heads.append(rec)
                    continue
            elif rec.xexp >= self.sigma:
                raise ConversionInternalError(
                    f"a z-record at x-exponent {format_rat(Rat(rec.xexp, self.den))} "
                    f"is not below sigma = {format_rat(Rat(self.sigma, self.den))}"
                )
            rest.append(rec)
        return best, heads, rest

    def _omega_value(self):
        """v(omega_k): the irrational terminal value at the terminal index,
        None past a bare prefix, else the ratio m/n of step k+1 as an int
        over den, which is widened to hold it."""
        if self.k == self.desc.terminal_index:
            return self.desc.terminal.value
        if not self.desc.has_step(self.k + 1):
            return None
        step = self.desc.step(self.k + 1)
        self._widen(step.n)
        return step.m * (self.den // step.n)

    def run(self) -> ZSequence:
        """Emit entries at the least of v(omega_k) and the heads' value.

        The entry's gamma is gamma_{k+1}, when omega_k is at the least, less
        the residues of the heads there, over bbar.  A zero gamma emits
        nothing: with omega_k at the least its step closes, at any depth;
        otherwise the heads cancel, an internal error.  The depth is read
        just before an entry is due, so a conversion that holds its entries
        returns them rather than that error.
        """
        max_iter = 8 * (self.depth + data_window(self.desc) + 4)
        for iteration in range(max_iter):
            self.iteration = iteration
            # first: widening den rescales the records `_heads` hands out
            w = self._omega_value()
            head_val, heads, rest = self._heads()
            if w is None and head_val is None:
                return ZSequence(self.entries, None)
            if head_val is None:
                order = -1
            elif w is None:
                order = 1
            elif isinstance(w, int):
                order = (w > head_val) - (w < head_val)
            else:
                order = value_cmp(w, ValueGroupElement.rational(Rat(head_val, self.den)))
            omega_at = order <= 0
            if order < 0:
                heads, rest = [], self.C
            if omega_at and self.k == self.desc.terminal_index:
                total = w.add(ValueGroupElement.rational(Rat(self.sigma, self.den)))
                return ZSequence(self.entries, ZTerminal(total))
            # without heads gamma is gamma_{k+1}, never zero, and it is read
            # only once an entry is due
            gamma = None
            if heads:
                root = self.res.gamma(self.k + 1) if omega_at else 0
                gamma = root - sum(map(self._residue, heads))
            if gamma == 0 and omega_at:
                # omega_k's root cancels the heads: the step closes, no entry
                self.C = rest
                self._close_step(w, heads, emitted=False)
                continue
            if len(self.entries) >= self.depth:
                return ZSequence(self.entries, None)
            if gamma == 0:
                raise ConversionInternalError(
                    "remainder heads cancel exactly; a deeper expansion "
                    "order would be needed"
                )
            if gamma is None:
                gamma = self.res.gamma(self.k + 1)
            least = w if omega_at else head_val
            self.C = rest
            self._emit(least + self.sigma, gamma / self.bbar)
            if omega_at:
                self._close_step(w, heads, emitted=True)
            else:
                self._fold(heads, emitted=True)
        raise DepthExceeded(
            f"conversion did not settle within {max_iter} iterations",
            consulted=self.k,
        )


def omega_to_z(
    desc: OmegaDescriptor, res: GammaResolution, depth: int
) -> ZSequence:
    """Convert the omega tower to its z-sequence, emitting up to `depth`
    entries; rank-two descriptors finish with the irrational terminal."""
    return _Conversion(desc, res, depth).run()
