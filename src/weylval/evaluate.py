"""Valuation evaluation on Weyl elements: the production evaluator.

`Valuation(desc, depth_limit)` is the way into the evaluator: a session that
computes each element's leading data once and reads value, residue and every
ordering's sign from it.  The free functions open a session per call.  A
session memoizes only what its traffic re-reads: generator keys, commutators
and leading data (`Valuation` says why).  Sorts are recomputed, and word keys
are not stored: a digit pool's words carry theirs from the digit recursion,
and only the words of a level that does not certify are keyed again.

An element is first read on its own terms (`_least_monomials`): weighed by
-i + j v(y), its least-weight terms give v(F) at once, with no division,
when their residues do not cancel, as in most elements of the benchmark's
`query` and in every power y^k.  Only an element whose least-weight terms
cancel, or that the digit pool would refuse for its depth, goes on.

The main path works on pools of terms coeff * word, where a word is a product
of two kinds of factor: generator powers x^k, w_i^k and formal sum-inverse
blocks.  Levels are processed in increasing value order; a level is
certified as v(F) as soon as the relative residues of its terms do not
cancel, otherwise every term is rewritten exactly into terms of strictly
larger value.  The scan compares words on int `Key`s, (num, den, k_xi) for
num/den + k_xi xi, and builds one `ValueGroupElement` per certified level.
The digit pool is level-first: v(F) is the least level of F's tower-digit
expansion when that level does not cancel, so the pool builds only that
level's words, found from one key per row of each leaf of the expansion,
and keeps every other word in unbuilt chunks, and every quotient whose
words all lie above the level undivided, until the level cancels.

The cross-checks of this evaluator (the commutative shadow, the samplers)
live in `oracles`; of this module they use only `Valuation` and `_rho`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from .coeff import Rat, nth_root, sgn, v2
from .descriptor import (
    OmegaDescriptor, alpha, data_window, digit_walk, omega_element, pair_data, tower_row,
)
from .errors import BudgetExceeded, DepthExceeded, NonzeroRequired, NonzeroValue, WeylvalError
from .valuegroup import INFINITY, Value, ValueGroupElement, _sign_a_plus_b_sqrt2
from .weyl import Rows, WeylElement, WeylFraction, _add_shifted

if TYPE_CHECKING:
    from .orderings import OrderingDescriptor

# A word is a tuple of factors.  A generator power is the int pair (slot, k):
# slot 0 is x and slot s >= 1 is w_{s-1}, whose value m_s/n_s comes from
# step s.  The other factor is a SumInverse block, not a tuple; code tells
# the two apart by type.
Factor = Union[Tuple[int, int], "SumInverse"]
Word = Tuple[Factor, ...]
Emission = Tuple[Rat, Word]
Element = Union[WeylElement, WeylFraction]
_ZERO_VALUE = ValueGroupElement.rational(0)

# A value num/den + k_xi xi as ints, with den > 0 and left unreduced.  xi is
# the session's `scale` times sqrt(2): the terminal is the only source of an
# irrational part, and it refuses a nonzero k_mu.
Key = Tuple[int, int, int]
# A word with its coefficient and key; a digit pool's coefficients may be ints.
Keyed = Tuple[Word, Union[int, Rat], Key]
# A leaf of the digit expansion, kept unbuilt: its rows of int numerators
# over one denominator, and the suffix word of its divisor powers with the
# suffix's key.  Row j, entry i stands for the word x^i y^j suffix.
Chunk = Tuple[Rows, int, Word, Key]
# A quotient of the digit expansion left undivided: its rows over their
# denominator, the suffix and its key, the divisor's index and the power of
# the divisor that the quotient stands at.
Tail = Tuple[Rows, int, Word, Key, int, int]


def _key_cmp(a: Key, b: Key, scale: Rat) -> int:
    """-1, 0 or 1 as the value of key a is below, equal to or above b's."""
    (na, da, ka), (nb, db, kb) = a, b
    if ka == kb:
        lhs, rhs = na * db, nb * da
        return -1 if lhs < rhs else (1 if lhs > rhs else 0)
    # a - b times da db scale.den > 0
    return _sign_a_plus_b_sqrt2(
        (na * db - nb * da) * scale.denominator, (ka - kb) * scale.numerator * da * db
    )


def _key_add(a: Key, b: Key, k: int) -> Key:
    """The key of a + k b, over a's denominator when b's divides it."""
    (na, da, ka), (nb, db, kb) = a, b
    if da % db == 0:
        return (na + k * nb * (da // db), da, ka + k * kb)
    return (na * db + k * nb * da, da * db, ka + k * kb)


class SumInverse:
    """Formal inverse of sum_{j<n} word^{n-1-j} rho^j.

    `word` is a pure value-0 word with residue rho; the block has value 0
    and residue 1/(n rho^{n-1}).  A block is identified by (word, n): rho is
    a function of the word, and hashing it would cost a `Fraction` hash on
    every lookup of a word that holds the block.
    """

    __slots__ = ("word", "n", "rho")

    def __init__(self, word: Word, n: int, rho: Rat):
        self.word, self.n, self.rho = word, n, rho

    def __eq__(self, other: object) -> bool:
        return type(other) is SumInverse and (self.word, self.n) == (other.word, other.n)

    def __hash__(self) -> int:
        return hash((self.word, self.n))


def _concat(*parts: Iterable[Factor]) -> Word:
    """Concatenate factor sequences, dropping zero powers and merging
    adjacent powers of one slot."""
    out: List[Factor] = []
    for part in parts:
        for f in part:
            if type(f) is not tuple:
                out.append(f)
            elif f[1]:
                if out and type(out[-1]) is tuple and out[-1][0] == f[0]:
                    k = out[-1][1] + f[1]
                    if k:
                        out[-1] = (f[0], k)
                    else:
                        out.pop()
                else:
                    out.append(f)
    return tuple(out)


def _invert_pure(word: Word) -> Word:
    return tuple((s, -k) for s, k in reversed(word))


def _word_exponents(word: Word) -> Dict[int, int]:
    """Net exponents of the generator powers, keyed by slot."""
    out: Dict[int, int] = {}
    for f in word:
        if type(f) is tuple:
            out[f[0]] = out.get(f[0], 0) + f[1]
    return {s: k for s, k in out.items() if k}


class Valuation:
    """One evaluation session: a descriptor read under one depth limit.

    `value`, `residue` and `sign` read each element's `LeadingData`, which
    is computed at most once, by `leading_data`; the free functions
    `eval_element` and `orderings.sign` open one session per call.
    A step counts against the depth limit when a generator's value is read
    (`gen_key`) or a divisor is chosen (`_DigitPool` divides by w_i for
    i <= depth_limit only).  Residues, commutators and the canonical
    representative read the descriptor directly: they serve words whose
    generator values were read first, or a level already certified.

    The level scan compares words on int `Key`s: each generator value is read
    once, as a key (`gen_key`).  A digit pool's word gets its key from the
    digit recursion; a word made by a sort or an expansion gets it from
    `word_key`, the sum of its factors' keys.  The shadow in `oracles` reads
    `key_value(gen_key(i))`, the same value rebuilt from its key, and keeps
    its own `ValueGroupElement` arithmetic.

    The session memoizes only what its traffic re-reads: `_gen_keys`, as
    every digit pool, every division in it, every leaf row that holds y and
    every word key reads generator keys (1,081 of 1,825 lookups hit over the
    90 ops of 3 seed-1 rounds of bench `tower`; over the 1,600 ops of 40
    seed-1 rounds of bench `query` every element certifies on its own
    least-weight terms, which read v(y) and the deepest divisor's value once
    per session, and none of 9,075 lookups hits);
    `_commutators`, as nested commutators recurse into the same pairs
    (1,249 of 2,336 lookups hit over the tests); and `_elements`, as the
    CLI's `sign` reads every ordering from one session.  Word keys and
    sorts are not memoized: a query certifies its first level in one pass,
    so no word is keyed or sorted twice, and a lookup would hash the whole
    word, which costs about as much as summing its key.
    """

    def __init__(self, desc: OmegaDescriptor, depth_limit: int = 64):
        self.desc = desc
        self.depth_limit = depth_limit
        self.scale = desc.terminal.value.xi_scale if desc.terminal else Rat(1)
        self._gen_keys: Dict[int, Key] = {}
        self._commutators: Dict[tuple, Tuple[Emission, ...]] = {}
        self._elements: Dict[WeylElement, LeadingData] = {}

    def leading(self, element: WeylElement) -> LeadingData:
        """Value, relative residue, and representative parities of an element."""
        data = self._elements.get(element)
        if data is None:
            data = leading_data(self, element)
            self._elements[element] = data
        return data

    def _parts(self, element: Element) -> Tuple[LeadingData, LeadingData]:
        # an element is read as the fraction element / 1
        if isinstance(element, WeylFraction):
            return self.leading(element.num), self.leading(element.den)
        return self.leading(element), _UNIT_LEADING

    def value(self, element: Element) -> Value:
        """v(element), v(num) - v(den) for a fraction; Infinity for zero."""
        return _quotient_value(*self._parts(element))

    def residue(self, element: Element) -> Rat:
        """Residue of a value-0 element or fraction; NonzeroValue otherwise."""
        num, den = self._parts(element)
        value = _quotient_value(num, den)
        if value is INFINITY or not value.is_zero():
            raise NonzeroValue(f"element has value {value}, not 0")
        # equal values share their canonical representative, which cancels;
        # the representative of value 0 is the empty word, so over 1 the
        # relative residue is already the absolute one
        assert num.ref == den.ref
        return num.lam / den.lam

    def sign(self, ordering: OrderingDescriptor, element: Element) -> int:
        """Sign of a nonzero element or fraction under a compatible ordering.

        The sign of the relative residue times the ordering's character on
        the representative's parities; sign(num / den) = sign(num) sign(den).
        """
        num, den = self._parts(element)
        if num.value is INFINITY:
            raise NonzeroRequired("the zero element has no sign")
        assert num.lam and den.lam
        return sgn(num.lam * den.lam) * ordering.character(
            num.eps_basis + den.eps_basis, num.eps_terminal + den.eps_terminal
        )

    def gen_key(self, i: int) -> Key:
        """The key of v(w_i), read once; step i + 1 counts against the depth
        limit, or step i when w_i carries the terminal value."""
        key = self._gen_keys.get(i)
        if key is None:
            step = i if i == self.desc.terminal_index else i + 1
            if i >= 0 and step > self.depth_limit:
                raise DepthExceeded(
                    f"depth limit {self.depth_limit} exceeded at step {step}",
                    consulted=step,
                )
            if 0 <= i < step and (pair := self.desc.step(step)).n >= 1:
                # m/n straight off the step, as `generator_value` builds two
                # Fractions and a ValueGroupElement and a session misses once
                # on each generator it reads; it still reads x, the terminal
                # and any step that `validate` would refuse
                key = (pair.m, pair.n, 0)
            else:
                value = self.desc.generator_value(i)
                key = (value.q.numerator, value.q.denominator, value.k_xi)
            self._gen_keys[i] = key
        return key

    def word_key(self, word: Word) -> Key:
        """The key of v(word), summed over its generator powers; sum-inverse
        blocks have value 0."""
        key = (0, 1, 0)
        for f in word:
            if type(f) is tuple:
                key = _key_add(key, self.gen_key(f[0] - 1), f[1])
        return key

    def key_value(self, key: Key) -> ValueGroupElement:
        num, den, k_xi = key
        return ValueGroupElement(Rat(num, den), k_xi, 0, self.scale)


# -- kernel residue map rho -----------------------------------------------------


def _signed_root(target: Rat, k: int) -> Rat:
    # unique real k-th root for odd k (k may be negative)
    if k < 0:
        target, k = 1 / target, -k
    return nth_root(target, k)


def _rho(ctx: Valuation, vec: Dict[int, int]) -> Rat:
    """Residue of the zero-value monomial with exponent vector `vec`.

    Defined on kernel vectors of the value pairing; reduces the support one
    slot at a time through residue units alpha, extracting odd roots.
    """
    vec = {s: k for s, k in vec.items() if k}
    if not vec:
        return Rat(1)
    supp = sorted(vec)
    if len(supp) == 1:
        b = supp[0]
        m_b, n_b = ctx.desc.pair_mn(b)
        if b == 0 or m_b != 0:
            raise AssertionError("exponent vector is not a kernel vector")
        # gcd(|m|, n) = 1 forces n_b = 1 here, so w_{b-1} itself has residue beta_b
        return ctx.desc.beta(b) ** vec[b]
    if len(supp) == 2 and supp[0] == 0:
        b = supp[1]
        m_b, n_b = ctx.desc.pair_mn(b)
        t, r = divmod(vec[b], n_b)
        if r or vec[0] != t * m_b:
            raise AssertionError("exponent vector is not a kernel vector")
        return ctx.desc.beta(b) ** t
    a, b = supp[0], supp[1]
    data = pair_data(ctx.desc, a, b)
    if data.k_ij % 2 == 0:
        a, b = b, a
        data = pair_data(ctx.desc, a, b)
    assert data.k_ij % 2 == 1  # one orientation always has an odd crossing count
    k_a = vec.get(a, 0)
    reduced = {s: k * data.k_ij for s, k in vec.items()}
    reduced[a] = 0
    reduced[b] = vec.get(b, 0) * data.k_ij + k_a * data.k_ji
    target = alpha(ctx.desc, a, b) ** k_a * _rho(ctx, reduced)
    return _signed_root(target, data.k_ij)


def _si_sigma(si: SumInverse) -> Rat:
    return 1 / (si.n * si.rho ** (si.n - 1))


def _word_residue(ctx: Valuation, word: Word) -> Rat:
    """Residue of a value-0 word: rho of its exponents times block residues."""
    out = _rho(ctx, _word_exponents(word))
    for f in word:
        if type(f) is SumInverse:
            out *= _si_sigma(f)
    return out


# -- commutators of generator powers --------------------------------------------


def _factor_commutator(ctx: Valuation, f: Factor, g: Factor) -> Tuple[Emission, ...]:
    """[f, g] = f g - g f as emissions; every word has value > v(f) + v(g)."""
    key = (f, g)
    if key in ctx._commutators:
        return ctx._commutators[key]
    out = tuple(_factor_commutator_raw(ctx, f, g))
    ctx._commutators[key] = out
    return out


def _negated(emissions: Iterable[Emission]) -> List[Emission]:
    return [(-c, w) for c, w in emissions]


def _factor_commutator_raw(ctx: Valuation, f: Factor, g: Factor) -> List[Emission]:
    if type(f) is not tuple or type(g) is not tuple:
        raise AssertionError("sum-inverse blocks sit at the right end and never commute")
    (s, k), (t, l) = f, g
    if s == t:
        return []
    if s == 0 or (t and s > t):
        return _negated(_factor_commutator(ctx, g, f))
    # now f = w_{s-1}^k; g is x^l or w_{t-1}^l with s < t
    if k != 1:
        return _power_commutator(ctx, s, k, g)
    if t == 0:
        return _base_wx(ctx, s, l)
    if l != 1:
        # [f, B^l] = -[B^l, f]
        return _negated(_power_commutator(ctx, t, l, f))
    return _base_ww(ctx, s, t)


def _power_commutator(ctx: Valuation, s: int, k: int, g: Factor) -> List[Emission]:
    # [A^k, g] from [A, g] for A in slot s: k > 0 spreads over positions,
    # k < 0 conjugates
    if k < 0:
        inner = _factor_commutator(ctx, (s, -k), g)
        wrap = ((s, k),)
        return [(-c, _concat(wrap, u, wrap)) for c, u in inner]
    inner = _factor_commutator(ctx, (s, 1), g)
    out: List[Emission] = []
    for ell in range(1, k + 1):
        for c, u in inner:
            out.append((c, _concat(((s, k - ell),), u, ((s, ell - 1),))))
    return out


def _base_wx(ctx: Valuation, s: int, a: int) -> List[Emission]:
    # [w_{s-1}, x^a]; the base of the tower is [y, x^a] = a x^{a-1}, and
    # above it [x^m w_{s-2}^n - beta, x^a] = x^m [w_{s-2}^n, x^a]
    if a == 0:
        return []
    if s == 1:
        return [(Rat(a), _concat(((0, a - 1),)))]
    step = ctx.desc.step(s - 1)
    return [
        (c, _concat(((0, step.m),), u))
        for c, u in _factor_commutator(ctx, (s - 1, step.n), (0, a))
    ]


def _base_ww(ctx: Valuation, s: int, t: int) -> List[Emission]:
    # [w_{s-1}, w_{t-1}] for s < t, unfolding
    # w_{t-1} = x^m w_{t-2}^n - beta with step t-1's (m, n, beta)
    step = ctx.desc.step(t - 1)
    out: List[Emission] = []
    for c, u in _factor_commutator(ctx, (s, 1), (0, step.m)):
        out.append((c, _concat(u, ((t - 1, step.n),))))
    for c, u in _factor_commutator(ctx, (s, 1), (t - 1, step.n)):
        out.append((c, _concat(((0, step.m),), u)))
    return out


# -- exact expansions ------------------------------------------------------------


def _expand_pure(ctx: Valuation, word: Word) -> List[Emission]:
    """Emissions of (word - residue(word)) for a pure value-0 word.

    If the exponent vector is outside the unit-product lattice, pass to the
    N-th power against a sum-inverse block; inside it, strip one unit product
    a_s = x^{m_s} w_{s-1}^{n_s} at a time and finish by sorting the remaining
    zero-exponent word, which cancels to 1; each reordering swap costs one
    commutator, whose value strictly exceeds 0.
    """
    exps = _word_exponents(word)
    n_fold = 1
    for s, k in exps.items():
        if s == 0:
            continue
        n_s = ctx.desc.pair_mn(s)[1]
        n_fold = math.lcm(n_fold, n_s // math.gcd(abs(k), n_s))
    if n_fold > 1:
        rho_p = _rho(ctx, exps)
        si = SumInverse(word, n_fold, rho_p)
        powered = _concat(*([word] * n_fold))
        return [(c, u + (si,)) for c, u in _expand_pure(ctx, powered)]
    out: List[Emission] = []
    scalar = Rat(1)
    main = word
    for s in sorted(s for s in exps if s != 0):
        step = ctx.desc.step(s)
        d_s = exps[s] // step.n
        for _ in range(abs(d_s)):
            if d_s > 0:
                out.append(
                    (scalar, _concat(main, ((s, -step.n), (0, -step.m), (s + 1, 1))))
                )
                main = _concat(main, ((s, -step.n), (0, -step.m)))
                scalar *= step.beta
            else:
                out.append((-scalar / step.beta, _concat(main, ((s + 1, 1),))))
                main = _concat(main, ((0, step.m), (s, step.n)))
                scalar /= step.beta
    unit, corrections = _sort_word(ctx, main)
    assert unit == (), "zero-exponent word must sort and cancel to 1"
    for c, u in corrections:
        out.append((scalar * c, u))
    return out


def _expand_si(ctx: Valuation, si: SumInverse) -> List[Emission]:
    """Emissions of (block - residue(block)) for a sum-inverse block.

    With S the inverted sum and sigma = 1/S(rho) the block's residue,
    block - sigma = -sigma (S - S(rho)) block, as the block commutes with S;
    so every emission ends with the block, and no word ever has a block
    left of a generator.
    """
    q_word, n, rho_q = si.word, si.n, si.rho
    sigma = _si_sigma(si)
    pure = _expand_pure(ctx, q_word)
    out: List[Emission] = []
    for p in range(n - 1):
        mid = _concat(*([q_word] * (n - 2 - p)))
        weight = -(p + 1) * rho_q**p * sigma
        for c, u in pure:
            out.append((weight * c, _concat(mid, u, (si,))))
    return out


def _sort_word(ctx: Valuation, word: Word) -> Tuple[Word, List[Emission]]:
    """Sorted form of a word plus the exact corrections the reordering costs.

    The sorted form has the generator powers in slot order, with adjacent
    equal generators merged and zero powers dropped, and then the word's
    sum-inverse blocks, which every word carries at its right end and which
    therefore never move.  Each swap f g = g f + [f, g] materializes its
    commutator at the swap: every word of [f, g], spliced between the prefix
    and the suffix, becomes a correction.  A splice is a tuple
    concatenation, so a correction may hold adjacent powers of one slot
    until it is sorted.  Only the word itself is sorted, by a finite bubble
    pass, while the corrections are returned unsorted.  They all have value
    strictly greater than the word (full recursive normalization would not
    terminate for sum-inverse blocks, whose normal form is an infinite
    series of increasing values), so callers sort them only if the worklist
    ever reaches their level.
    """
    items = list(_concat(word))
    corrections: List[Emission] = []
    while True:
        swap_at = None
        for p in range(len(items) - 1):
            f, g = items[p], items[p + 1]
            if type(g) is tuple and f[0] > g[0]:
                swap_at = p
                break
        if swap_at is None:
            return tuple(items), corrections
        prefix, suffix = tuple(items[:swap_at]), tuple(items[swap_at + 2 :])
        for c, u in _factor_commutator(ctx, f, g):
            corrections.append((c, prefix + u + suffix))
        items = list(_concat(prefix, (g, f), suffix))


def _expand_zero(ctx: Valuation, word: Word, res: Rat) -> List[Emission]:
    """Exact emissions of (word - res) for a value-0 word; each value > 0."""
    main, out = _sort_word(ctx, word)
    split = len(main)
    while split and type(main[split - 1]) is SumInverse:
        split -= 1
    pure, blocks = main[:split], main[split:]
    rho_p = _rho(ctx, _word_exponents(pure))
    sigmas = [_si_sigma(b) for b in blocks]
    assert rho_p * math.prod(sigmas, start=Rat(1)) == res
    for c, u in _expand_pure(ctx, pure):
        out.append((c, u + blocks))
    running = rho_p
    for idx, block in enumerate(blocks):
        rest = blocks[idx + 1 :]
        for c, u in _expand_si(ctx, block):
            out.append((running * c, u + rest))
        running *= sigmas[idx]
    return out


# -- canonical level representative ---------------------------------------------


@dataclass(frozen=True)
class CanonicalRef:
    word: Word
    eps_basis: int
    eps_terminal: int


def _canonical_ref(ctx: Valuation, g: Value) -> CanonicalRef:
    """Canonical generator word with value g, with its two residue parities.

    The parities record whether the representative needs one odd copy of the
    2-torsion basis generator and of the terminal tower element; squares of
    kernel monomials always have positive residue, which makes the choice of
    the even bulk irrelevant for signs.

    The bulk, of value half = (q - eps_b v_b)/2, is written in tower digits
    on ints.  With L_0 = 1, L_i = lcm(L_{i-1}, n_i), e_i = L_i/L_{i-1} and
    u_i = m_i L_i/n_i, which is prime to e_i, the walk from i = r down to 1
    starts from the integer H_r = half L_r, takes d_i = H_i u_i^{-1} mod e_i
    and sets H_{i-1} = (H_i - d_i u_i)/e_i, an exact division.  The word is
    x^{-2 H_0} prod w_{i-1}^{2 d_i}, times w_{b-1}^{eps_b} and the terminal
    power, so the exponent of every w_{i-1} with i <= r lies in [0, 2 e_i - 1].
    The tables of the walk come from `digit_walk`, once per (descriptor, r).
    """
    desc = ctx.desc
    assert isinstance(g, ValueGroupElement)
    if g.is_zero():
        return CanonicalRef((), 0, 0)
    c_t = 0
    q = g.q
    if g.k_xi:
        term = desc.terminal
        assert term is not None and g.xi_scale == term.value.xi_scale
        c_t, rem = divmod(g.k_xi, term.value.k_xi)
        assert rem == 0
        q = g.q - c_t * term.value.q
    r = data_window(desc)
    walk = digit_walk(desc, r)
    while walk[0] % q.denominator:
        r += 1
        walk = digit_walk(desc, r)
    lcm_r, h_max, b, slot_value, digits = walk
    eps_b = 1 if q and v2(q) == -h_max else 0
    # scaled = H_r = (q - eps_b v_b) L_r / 2
    twice = q.numerator * (lcm_r // q.denominator) - eps_b * slot_value
    assert twice % 2 == 0
    scaled = twice // 2
    exps = [0] * (r + 1)
    exps[b] = eps_b
    for i, e_i, u_i, inv_u in digits:
        d_i = scaled * inv_u % e_i
        scaled, rem = divmod(scaled - d_i * u_i, e_i)
        assert rem == 0
        exps[i] += 2 * d_i
    exps[0] -= 2 * scaled
    factors = [(s, k) for s, k in enumerate(exps) if k]
    if c_t:
        factors.append((len(desc.explicit_steps) + 1, c_t))
    return CanonicalRef(tuple(factors), eps_b, c_t & 1)


# -- the worklist ----------------------------------------------------------------


@dataclass(frozen=True)
class LeadingData:
    """Certified leading behavior of an element.

    value: v(F); lam: residue of F relative to the canonical representative
    (None only when F = 0); ref: the representative word of (slot, k)
    powers; the parities feed the ordering sign computation.
    """

    value: Value
    lam: Optional[Rat]
    ref: Word
    eps_basis: int
    eps_terminal: int


_ZERO_LEADING = LeadingData(INFINITY, None, (), 0, 0)
_UNIT_LEADING = LeadingData(_ZERO_VALUE, Rat(1), (), 0, 0)


def _quotient_value(num: LeadingData, den: LeadingData) -> Value:
    if num.value is INFINITY:
        return INFINITY
    return num.value.sub(den.value)


def _accumulate(pool: Dict[Word, Rat], word: Word, c: Rat) -> None:
    """pool[word] += c, a missing word counting as 0."""
    old = pool.get(word)
    pool[word] = c if old is None else old + c


def _digit_word(i: int, j: int, suffix: Word) -> Word:
    """The digit word x^i y^j suffix."""
    if j:
        suffix = ((1, j),) + suffix
    return ((0, i),) + suffix if i else suffix


def _chunk_words(ctx: Valuation, chunks: Iterable[Chunk]) -> List[Keyed]:
    """The keyed words x^i y^j suffix of digit chunks, one per row entry,
    each coefficient over its chunk's denominator."""
    x_key = ctx.gen_key(-1)
    out: List[Keyed] = []
    for rows, den, suffix, key in chunks:
        for j, row in rows.items():
            row_key = _key_add(key, ctx.gen_key(0), j) if j else key
            for i, c in row.items():
                word_key = _key_add(row_key, x_key, i) if i else row_key
                out.append((_digit_word(i, j, suffix), c if den == 1 else Rat(c, den), word_key))
    return out


def _leading(ctx: Valuation, keyed: List[Keyed], pool: Optional[_DigitPool]) -> LeadingData:
    """Certify the leading level of a keyed list of words and a digit pool.

    One pass per level keeps the scan exact yet lazy.  A pass compares each
    word's key once with the least so far, which splits the least level
    from the ``rest`` as it finds it.  Only the level's words are sorted,
    into ``canon``, where equal content merges and cancels eagerly.  Sorting
    keeps a word's value, so ``canon`` holds the level alone: the pass
    certifies it, or finds it empty, or rewrites all of it at strictly
    larger values.  Only then is ``pending`` built, from the rest, the
    pool's other words, the sorts' corrections (which sit strictly above
    the level and join unsorted) and the level's expansions.  The rest keeps
    its keys, and the next pass keys only the words the corrections and
    expansions add, with `word_key`.

    From a `_DigitPool`, ``keyed`` holds the least level's words alone, and
    the pool every other word, strictly above that level, in unbuilt chunks
    and undivided tails: a level that certifies never builds them, and the
    first level that does not has the pool build them all (`rest`).  Digit
    words are distinct and in slot order, so they need no merge and sort
    without swaps; their coefficients may be ints.  A keyed list from
    elsewhere comes with no pool.
    """
    word_key, scale = ctx.word_key, ctx.scale
    while keyed:
        level = keyed[0][2]
        least: List[Keyed] = []
        rest: List[Keyed] = []
        for item in keyed:
            order = _key_cmp(item[2], level, scale)
            if order > 0:
                rest.append(item)
            elif order == 0:
                least.append(item)
            else:
                rest += least
                least = [item]
                level = item[2]
        canon: Dict[Word, Rat] = {}
        sorts: List[Tuple[Rat, List[Emission]]] = []
        for w, c, _ in least:
            sw, corrections = _sort_word(ctx, w)
            _accumulate(canon, sw, c)
            sorts.append((c, corrections))
        group = [(w, c) for w, c in canon.items() if c]
        members = []
        if group:
            value = ctx.key_value(level)
            ref = _canonical_ref(ctx, value)
            inv_ref = _invert_pure(ref.word)
            lam = Rat(0)
            for w, c in group:
                rel = _concat(inv_ref, w)
                res = _word_residue(ctx, rel)
                members.append((w, c, rel, res))
                lam += c * res
            if lam != 0:
                return LeadingData(value, lam, ref.word, ref.eps_basis, ref.eps_terminal)
        if pool is not None:
            rest += pool.rest()
            pool = None
        pending = {w: c for w, c, _ in rest}
        keys = {w: key for w, _, key in rest}
        for c, corrections in sorts:
            for cc, cu in corrections:
                _accumulate(pending, cu, c * cc)
        for w, c, rel, res in members:
            for cc, ww in _expand_zero(ctx, rel, res):
                _accumulate(pending, _concat(ref.word, ww), c * cc)
        # a key is a nonempty tuple, so `or` keys only the words rest lacks
        keyed = [(w, c, keys.get(w) or word_key(w)) for w, c in pending.items() if c]
    return _ZERO_LEADING


# Term pairs (quotient term, divisor term) that the digit expansion of one
# element may hand to the product kernel, counted over the divisions done.
# Only an element whose least-weight terms cancel is expanded
# (`_least_monomials`), so a power y^k never reaches the budget.  The
# benchmark's elements need at most 7,692, and on constant(1,3,1) x y^57 -
# y^54 needs 10,325 before its least level certifies (0.02 s on a 2-vCPU
# Xeon), x y^97 - y^94 61,605 and x y^111 - y^108 91,397, while x y^727 -
# y^724 would need 7.5 million (68 million, 69 s and 146 MB, to expand it
# whole).
DIGIT_WORK_BUDGET = 65536


def _least_weight(rows: Rows, y_key: Key) -> Key:
    """The key of mu_0(rows), the least weight -i + j v(y) of their terms
    x^i y^j: as v(x) = -1, the weight of each row's largest x power.  v(y)
    is m_1/n_1, rational."""
    num, den, _ = y_key
    return (min(j * num - max(row) * den for j, row in rows.items()), den, 0)


def _divisor_degrees(ctx: Valuation, deg_y: int) -> List[int]:
    """The y-degrees n_1, n_1 n_2, ... of the divisors w_1 .. w_K that the
    digit expansion of an element of y-degree deg_y divides by: every one
    up to deg_y, with K capped at the deepest divisor (`_DigitPool`)."""
    desc = ctx.desc
    max_index = ctx.depth_limit
    if desc.rule is None:
        top = len(desc.explicit_steps) if desc.terminal else len(desc.explicit_steps) - 1
        max_index = min(max_index, top)
    degrees: List[int] = []
    d_index = 1
    while len(degrees) < max_index:
        d_index *= abs(desc.step(len(degrees) + 1).n)
        if d_index > deg_y:
            break
        degrees.append(d_index)
    return degrees


class _DigitPool:
    """The digit pool of one element: its tower-digit expansion, read
    level-first.  `keyed` holds the least level's words, and `rest` builds
    every other word.  `leading_data` builds one only for an element that
    `_least_monomials` leaves, and hands it the divisor degrees it read.

    Digit words have the form x^i w_0^{j_0} ... w_K^{j_K} with every digit
    below the next step's power, obtained by successive right division by
    tower elements from the deepest one down.  The division absorbs the bulk
    cancellation between plain monomials algebraically, so the level scan
    afterwards starts from words whose values rarely collide.  Digit
    expansions are unique, so each word occurs once.

    The expansion runs on a copy of the element's stored `Rows` and
    denominator, the product kernel's format, as each division subtracts
    from the rows in place.  A division by a tower element with top term
    x^lead y^d walks the y-degrees from the top down to d: the row at degree
    deg becomes the quotient row x^{i - lead} y^{deg - d}, and `_add_shifted`
    subtracts its product with the divisor straight from the dividend's
    rows, shifting the row y^{deg - d} w_i by each negated quotient term.
    That cancels the row at deg and changes only lower ones.  The divisor's
    lead, term count and denominator E are read from its `TowerElement` on
    the descriptor, and its rows from `tower_row`, which keeps them there
    for every later expansion within TOWER_ROW_TERM_BUDGET.  The row
    denominator grows, by E, only when E != 1, so it can differ between
    branches.  The term pairs (quotient term, divisor term) of the divisions
    done are counted per element, those of resumed tails included; past
    DIGIT_WORK_BUDGET the expansion raises BudgetExceeded.

    A leaf of the recursion, whose rows no divisor fits, is kept whole as a
    `Chunk`: its rows, their denominator, and the suffix of divisor powers
    with its key, which rides down the recursion.  Its words x^i y^j suffix
    are not built here.  As v(x) = -1, the word of row j with the largest i
    lies strictly below every other word of that row; so one key per leaf
    row, that word's, compared with the least so far, finds the least level
    and every word on it.  Only those words are built, each with its
    coefficient (the row's int numerator over a denominator of 1, one Rat
    otherwise) and the level's key, and taken out of their chunks, whose
    words thus all lie strictly above the level.

    Quotients are put off as well.  `_divide` divides by w_k at powers
    0, 1, 2, ...; before it divides the quotient Q left at power p >= 1, it
    bounds every word Q can still emit from below by
    B = key + p v(w_k) + mu_0(Q), with `key` the suffix's and mu_0(Q) the
    least weight -i + j v(y) of Q's terms x^i y^j (`_least_weight`).  If B
    lies strictly above the least key found so far, Q is kept undivided as
    a `Tail` and the division stops.  `rest` resumes each tail through
    `_divide`, as it stands, and then builds the chunks' words; so a level
    that certifies never divides a tail.

    Why B bounds the tail.  The proof uses `validate`'s StepShape checks,
    m_1/n_1 < 1 and m_i > 0 past step 1, and its TerminalShape check that a
    terminal value is positive.  Weigh x^i y^j by -i + j v(y), v(y) =
    m_1/n_1, and let mu_0(F) be the least weight of F's terms.
    1. In the normal form of x^a y^b x^c y^e, the Leibniz term that drops t
       pairs y x weighs t (1 - v(y)) >= 0 more than the two factors' weights
       together.  So mu_0(FG) >= mu_0(F) + mu_0(G).
    2. Let tau_k be the weight of w_k's top term x^lead y^d.  The top term
       of a product is the product of the top terms, so tau_1 =
       -m_1 + n_1 v(y) = 0 and tau_k = -m_k + n_k tau_{k-1} < 0 for k >= 2.
       By 1 and induction on k, every term of w_k = x^{m_k} w_{k-1}^{n_k}
       - beta_k weighs at least tau_k, beta_k's 0 too.  And v(w_k) > 0 for
       k >= 1, as m_{k+1} > 0 or the terminal value is positive, so
       tau_k < v(w_k).
    3. A division step subtracts q w_k, where the quotient term q =
       x^{i - lead} y^{deg - d} weighs t - tau_k for the weight t of the
       dividend's term x^i y^deg.  By 1 and 2, q w_k weighs at least t, so
       the dividend's mu_0 never falls, and each quotient term weighs at
       least mu_0(R) - tau_k for the dividend R.
    4. Divide R by w_k: let Q_0 = R, Q_{p+1} the quotient of Q_p and R_p
       its remainder.  By 3, mu_0(Q_{p'}) >= mu_0(Q_p) - (p' - p) tau_k for
       p' >= p, and mu_0(R_{p'}) >= mu_0(Q_{p'}).  R_{p'} has y-degree below
       d, so by induction on the y-degree (a leaf's word x^i y^j has v equal
       to its weight) each digit word u of R_{p'} has v(u) >= mu_0(R_{p'}).
       So every word u w_k^{p'} suffix with p' >= p has value at least
       key + mu_0(Q_p) + p v(w_k) + (p' - p)(v(w_k) - tau_k) >= B.  With
       p = 0 and an empty suffix this is the induction step: every digit
       word of R has value at least mu_0(R).
    On a descriptor that fails these checks, which the CLI refuses to read,
    B is not a bound and the level found may be wrong.

    The deepest divisor is the last tower element whose value is declared:
    w_N under an irrational terminal after N steps, w_{N-1} on a bare prefix
    of N steps (which leaves v(w_N) undeclared), and any w_i under an
    infinite rule; its index is capped at depth_limit in every case, so the
    divisors read steps 1..depth_limit only.  A division by w_i reads
    v(w_i) (`gen_key`) once it is past power 0, and a leaf reads v(y) only
    for a row that holds y.  A depth refusal there is raised once the
    expansion is done, so BudgetExceeded takes precedence over it.  No
    quotient is put off once a refusal is pending, as the key read then is
    a placeholder, and a bound built on it does not hold.  So a resumed
    tail reads no key past the depth limit: it reads only v(y) and v(w_i)
    for i up to its divisor's index k, whose steps lie at or below that of
    v(w_k), which was read without a refusal when the tail was put off.
    """

    __slots__ = (
        "ctx", "degrees", "x_key", "y_key", "chunks", "tails", "refusals", "level", "least",
        "work", "keyed",
    )

    def __init__(self, ctx: Valuation, element: WeylElement, degrees: Optional[List[int]] = None):
        self.ctx = ctx
        self.chunks: List[Chunk] = []
        self.tails: List[Tail] = []
        self.refusals: List[DepthExceeded] = []
        # the least level's key, and (chunk, j, i) for each word on it
        self.level: Key = (0, 1, 0)
        self.least: List[Tuple[Chunk, int, int]] = []
        self.work = 0
        self.keyed: List[Keyed] = []
        self.degrees: List[int] = []
        self.x_key: Key = ctx.gen_key(-1)
        self.y_key: Optional[Key] = None
        if not element.rows:
            return
        rows = {j: dict(row) for j, row in element.rows.items()}
        self.degrees = _divisor_degrees(ctx, max(rows)) if degrees is None else degrees
        if self.degrees:
            # a division needs step 1, so v(y) is then read without a refusal
            self.y_key = ctx.gen_key(0)
        self._rec(rows, element.den, (), (0, 1, 0))
        if self.refusals:
            raise self.refusals[0]
        # the level's words are built alone, and taken out of their chunks
        for (chunk_rows, chunk_den, suffix, _), j, i in self.least:
            c = chunk_rows[j].pop(i)
            self.keyed.append(
                (_digit_word(i, j, suffix), c if chunk_den == 1 else Rat(c, chunk_den), self.level)
            )

    def _read_key(self, index: int) -> Key:
        # a depth refusal waits until the expansion ends, as a budget
        # refusal takes precedence over it
        try:
            return self.ctx.gen_key(index)
        except DepthExceeded as exc:
            self.refusals.append(exc)
            return (0, 1, 0)

    def _rec(self, rows: Rows, den: int, suffix: Word, key: Key) -> None:
        # the suffix holds one factor (slot, power >= 1) per enclosing
        # division of nonzero power, in rising slots >= 2, and x^i y^j sits
        # in slots 0 and 1; `key` is the suffix's
        index = bisect_right(self.degrees, max(rows))
        if index:
            self._divide(rows, den, suffix, key, index, 0)
            return
        chunk = (rows, den, suffix, key)
        self.chunks.append(chunk)
        x_key, scale, least = self.x_key, self.ctx.scale, self.least
        for j, row in rows.items():
            # v(x) = -1: the largest x power is the row's least word
            i = max(row)
            row_key = _key_add(key, self._read_key(0), j) if j else key
            word_key = _key_add(row_key, x_key, i)
            if least:
                order = _key_cmp(word_key, self.level, scale)
                if order > 0:
                    continue
                if order < 0:
                    least.clear()
            self.level = word_key
            least.append((chunk, j, i))

    def _divide(self, rows: Rows, den: int, suffix: Word, key: Key, index: int, power: int) -> None:
        # divide `rows`, the quotient at `power`, by w_index until no
        # quotient is left or the next one is put off, and expand each
        # remainder
        desc = self.ctx.desc
        d_index = self.degrees[index - 1]
        record = desc._tower.get(index)
        if record is None:
            omega_element(desc, index)
            record = desc._tower[index]
        lead, size, e_den = record.lead, record.size, record.element.den
        digit_key = _key_add(key, self._read_key(index), power) if power else key
        while True:
            quotient: Rows = {}
            for deg in range(max(rows), d_index - 1, -1):
                row = rows.get(deg)
                if row is None:
                    continue
                self.work += len(row) * size
                if self.work > DIGIT_WORK_BUDGET:
                    raise BudgetExceeded(
                        f"digit expansion by w_{index} handed {self.work} term pairs "
                        f"to the product kernel, above the budget of {DIGIT_WORK_BUDGET}"
                    )
                quotient[deg - d_index] = {i - lead: c for i, c in row.items()}
                negated = [(i - lead, -c) for i, c in row.items()]
                if e_den != 1:
                    den *= e_den
                    for part in (rows, quotient):
                        for r in part.values():
                            for i in r:
                                r[i] *= e_den
                _add_shifted(rows, tower_row(desc, record, deg - d_index), negated)
            if rows:
                self._rec(rows, den, ((index + 1, power),) + suffix if power else suffix, digit_key)
            if not quotient:
                return
            rows, power = quotient, power + 1
            digit_key = _key_add(key, self._read_key(index), power)
            if self.least and not self.refusals:
                bound = _key_add(digit_key, _least_weight(rows, self.y_key), 1)
                if _key_cmp(bound, self.level, self.ctx.scale) > 0:
                    self.tails.append((rows, den, suffix, key, index, power))
                    return

    def rest(self) -> List[Keyed]:
        """The keyed words besides the level's: the tails are divided first,
        through `_divide`, and then every chunk's words are built."""
        while self.tails:
            self._divide(*self.tails.pop())
        return _chunk_words(self.ctx, self.chunks)


def _least_monomials(ctx: Valuation, element: WeylElement, degrees: List[int]) -> Optional[LeadingData]:
    """The leading data of a nonzero element read off its own least-weight
    terms, with no division; None when their residues cancel, or when the
    digit pool would refuse the element for its depth.

    Weigh x^i y^j by -i + j v(y), v(y) = m_1/n_1, and let mu_0(F) be the
    least weight of F's terms, as in `_DigitPool`.  Within a row the least
    weight sits at the largest x power, so one int weight per row, j m_1 -
    i n_1, finds the least-weight terms.  Two of them weigh the same iff
    their exponents differ by a multiple of (m_1, n_1), as gcd(m_1, n_1) =
    1: they are c_t x^{i0 + t m_1} y^{j0 + t n_1}, t = 0 .. T.  With S =
    sum c_t beta_1^t != 0, v(F) = mu_0(F) and F's residue relative to the
    canonical representative ref is S res(ref^-1 x^i0 y^j0).

    Why.  The proof uses `validate`'s StepShape check m_1/n_1 < 1.
    1. v(x^i y^j) = -i + j v(y), as v is multiplicative; so each other term
       of F has value above mu_0, and so has their sum.
    2. The normal form of x^i0 (x^{m_1} y^{n_1})^t y^j0 is x^{i0 + t m_1}
       y^{j0 + t n_1} plus Leibniz terms that drop s >= 1 pairs y x, each of
       weight s (1 - v(y)) > 0 above mu_0 (point 1 of `_DigitPool`).
    3. x^{m_1} y^{n_1} = w_1 + beta_1 with v(w_1) > 0 (point 2 of
       `_DigitPool`), so (x^{m_1} y^{n_1})^t - beta_1^t has value > 0.
    By 1 to 3, F - S x^i0 y^j0 has value above mu_0, while S x^i0 y^j0 has
    value mu_0; so v(F) = mu_0, with the relative residue above, which is
    what `_DigitPool` and `_leading` certify, since v(F) is the least level
    of F's digit expansion when that level does not cancel.  On a
    descriptor that fails StepShape, which the CLI refuses to read, the
    value found may be wrong.

    The stage reads v(y) and v(w_K) for the deepest divisor w_K the pool
    would divide by (`degrees`, from `_divisor_degrees`), the deepest step
    the pool reads.  If either lies past the depth limit, or anything else
    raises a WeylvalError, it returns None, so that the pool's answer or
    refusal stands, and its budget refusal keeps precedence over a depth
    refusal.  An element whose pool runs past DIGIT_WORK_BUDGET or
    TOWER_Y_DEGREE_BUDGET is answered here when its least level certifies.
    """
    rows = element.rows
    try:
        if degrees:
            ctx.gen_key(len(degrees))
        # an element in x alone needs no v(y): its least term is its largest x power
        num, den, k_xi = ctx.gen_key(0) if len(rows) > 1 or 0 not in rows else (0, 1, 0)
        if k_xi:
            return None
        weights = [j * num - max(row) * den for j, row in rows.items()]
        level = min(weights)
        least = [j for j, weight in zip(rows, weights) if weight == level]
        j0 = min(least)
        i0 = max(rows[j0])
        total, q_power = rows[j0][i0], 1
        if len(least) > 1:
            if math.gcd(num, den) != 1:
                return None
            # equal weights and gcd(m_1, n_1) = 1 put the term of row j at
            # t = (j - j0)/n_1, an int, and x^{i0 + t m_1}
            coeffs = [0] * ((max(least) - j0) // den + 1)
            for j in least:
                t = (j - j0) // den
                coeffs[t] = rows[j][i0 + t * num]
            # S q^T = sum c_t p^t q^(T - t) for beta_1 = p/q, by Horner on ints
            beta = ctx.desc.beta(1)
            p, q = beta.numerator, beta.denominator
            total = 0
            for c in reversed(coeffs):
                total, q_power = total * p + c * q_power, q_power * q
            if not total:
                return None
            q_power //= q
        value = ctx.key_value((level, den, 0))
        ref = _canonical_ref(ctx, value)
        res = _word_residue(ctx, _concat(_invert_pure(ref.word), _digit_word(i0, j0, ())))
    except WeylvalError:
        return None
    return LeadingData(value, Rat(total, q_power * element.den) * res, ref.word,
                       ref.eps_basis, ref.eps_terminal)


def leading_data(session: Valuation, element: WeylElement) -> LeadingData:
    """Leading data of one element, computed afresh; `Valuation.leading`
    calls it once per element and keeps the result.

    The element's own least-weight terms settle it when they do not cancel
    (`_least_monomials`); otherwise its digit pool does.  Every leading
    computation runs here, so code that wraps this name (the benchmark's
    tracer) sees each one.
    """
    degrees = None
    if element.rows:
        degrees = _divisor_degrees(session, max(element.rows))
        data = _least_monomials(session, element, degrees)
        if data is not None:
            return data
    pool = _DigitPool(session, element, degrees)
    return _leading(session, pool.keyed, pool)


def eval_element(desc: OmegaDescriptor, element: Element, depth_limit: int = 64) -> Value:
    """The valuation of an element or left fraction; Infinity for zero."""
    return Valuation(desc, depth_limit).value(element)
