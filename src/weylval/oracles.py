"""The checking layer: cross-checks and samplers beside the production core.

Each oracle here computes a value or tests an axiom by a route the core does
not take, so agreement is evidence and disagreement is a defect in one of
the two.  What each shares with the core:

- The commutative shadow (`shadow_eval`) re-evaluates an element on
  commutative Laurent monomials.  It shares with the main evaluator only the
  kernel residue map `_rho` and the generator values a `Valuation` session
  reads from the descriptor, each rebuilt from its key
  (`key_value(gen_key(i))`); it never reads a session's leading data or word
  keys, and sums its values as `ValueGroupElement`s.  It is known to be
  wrong once a cancellation reaches the normal-ordering corrections, which
  it does not see: it gives 0 for v(w_2) = xi/8 on `worked` and for
  v(x*y*w_1^2 - 1) = 1/8 on `halving` (ROADMAP F5).
- `roundtrip_check` compares the main evaluator with `z_eval` after
  `omega_to_z`.  The conversion and `z_eval` share no code with the
  evaluator beyond the descriptor and the exact arithmetic (`coeff`,
  `valuegroup`, `weyl`).
- `strongly_abelian_sample` (v([a, b]) > v(a) + v(b)) and
  `compatibility_check` (the ordering axioms) sample through one
  `Valuation` session, with inputs drawn by `sample_element`.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coeff import Rat
from .descriptor import OmegaDescriptor
from .evaluate import Valuation, _rho
from .extension import GammaResolution, omega_to_z
from .orderings import OrderingDescriptor
from .records import Record
from .series import embed, z_eval
from .valuegroup import INFINITY, Value, ValueGroupElement, cmp as value_cmp
from .weyl import WeylElement, commutator


# -- commutative shadow ------------------------------------------------------------

# Shadow monomial key: (gens, blocks) where gens is a sorted tuple of
# (slot, exponent) over slot 0 = X, slot s = the commutative stand-in for
# w_{s-1}, and blocks is a sorted tuple of commutative sum-inverse markers
# (gens_of_q, n, rho) with multiplicity.
SKey = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[tuple, int, Rat], ...]]


def _skey(gens: Dict[int, int], blocks: Iterable[tuple] = ()) -> SKey:
    return (
        tuple(sorted((s, k) for s, k in gens.items() if k)),
        tuple(sorted(blocks, key=lambda b: (b[0], b[1]))),
    )


def _sgens(key: SKey) -> Dict[int, int]:
    return dict(key[0])


def _shadow_value(ctx: Valuation, key: SKey) -> ValueGroupElement:
    total = ValueGroupElement.rational(0)
    for s, k in key[0]:
        if s == 0:
            total = total.add(ValueGroupElement.rational(-k))
        else:
            total = total.add(ctx.key_value(ctx.gen_key(s - 1)).scalar_mul(k))
    return total


def _shadow_residue(ctx: Valuation, key: SKey) -> Rat:
    out = _rho(ctx, _sgens(key))
    for _, n, rho_q in key[1]:
        out *= 1 / (n * rho_q ** (n - 1))
    return out


def _shadow_mul(key: SKey, gens: Dict[int, int], scale_blocks: Iterable[tuple] = ()) -> SKey:
    merged = _sgens(key)
    for s, k in gens.items():
        merged[s] = merged.get(s, 0) + k
    return _skey(merged, key[1] + tuple(scale_blocks))


def _shadow_expand_pure(ctx: Valuation, gens: Dict[int, int]) -> List[Tuple[Rat, SKey]]:
    """Commutative emissions of (monomial - residue), all of value > 0."""
    gens = {s: k for s, k in gens.items() if k}
    n_fold = 1
    for s, k in gens.items():
        if s == 0:
            continue
        n_s = ctx.desc.pair_mn(s)[1]
        n_fold = math.lcm(n_fold, n_s // math.gcd(abs(k), n_s))
    if n_fold > 1:
        rho_p = _rho(ctx, gens)
        block = (_skey(gens)[0], n_fold, rho_p)
        powered = {s: k * n_fold for s, k in gens.items()}
        return [
            (c, _skey(_sgens(k2), k2[1] + (block,)))
            for c, k2 in _shadow_expand_pure(ctx, powered)
        ]
    # inside the unit-product lattice: telescope across the unit products
    slots = sorted(s for s in gens if s != 0)
    d = {s: gens[s] // ctx.desc.pair_mn(s)[1] for s in slots}
    out: List[Tuple[Rat, SKey]] = []
    prefix_scalar = Rat(1)
    for pos, s in enumerate(slots):
        step = ctx.desc.step(s)
        # suffix exponents: remaining unit products beyond position pos
        suffix: Dict[int, int] = {}
        for s2 in slots[pos + 1 :]:
            step2 = ctx.desc.step(s2)
            suffix[0] = suffix.get(0, 0) + d[s2] * step2.m
            suffix[s2] = suffix.get(s2, 0) + d[s2] * step2.n
        for c, mono in _shadow_power_minus_residue(ctx, s, d[s]):
            merged = dict(mono)
            for s2, k2 in suffix.items():
                merged[s2] = merged.get(s2, 0) + k2
            out.append((prefix_scalar * c, _skey(merged)))
        prefix_scalar *= step.beta ** d[s]
    return out


def _shadow_power_minus_residue(
    ctx: Valuation, s: int, d: int
) -> List[Tuple[Rat, Dict[int, int]]]:
    """a_s^d - beta_s^d as monomials, each containing one positive w_s power."""
    step = ctx.desc.step(s)
    if d == 0:
        return []
    if d < 0:
        inner = _shadow_power_minus_residue(ctx, s, -d)
        out = []
        for c, mono in inner:
            merged = {0: d * step.m, s: d * step.n}
            for k, v in mono.items():
                merged[k] = merged.get(k, 0) + v
            out.append((-c * step.beta**d, merged))
        return out
    # a^d - beta^d = (a - beta) sum_c a^{d-1-c} beta^c and a - beta is the
    # next tower variable w_s
    out = []
    for c_idx in range(d):
        power = d - 1 - c_idx
        mono = {0: power * step.m, s: power * step.n}
        mono[s + 1] = mono.get(s + 1, 0) + 1
        out.append((step.beta**c_idx, mono))
    return out


def _shadow_expand_block(ctx: Valuation, block: tuple) -> List[Tuple[Rat, SKey]]:
    q_gens_t, n, rho_q = block
    sigma = 1 / (n * rho_q ** (n - 1))
    q_gens = dict(q_gens_t)
    pure = _shadow_expand_pure(ctx, q_gens)
    out: List[Tuple[Rat, SKey]] = []
    for p in range(n - 1):
        weight = -(p + 1) * rho_q**p * sigma
        reps = n - 2 - p
        for c, key in pure:
            merged = _sgens(key)
            for s, k in q_gens.items():
                merged[s] = merged.get(s, 0) + k * reps
            out.append((weight * c, _skey(merged, key[1] + (block,))))
    return out


def shadow_eval(
    desc: OmegaDescriptor, element: WeylElement, depth_limit: int = 64
) -> Value:
    """Independent commutative re-evaluation of v(element).

    Maps the normal form to a commutative Laurent polynomial and runs the
    same level discipline with plain monomial algebra: no commutator
    corrections exist, and cancellations are resolved by the tower rewrite
    a_s - beta_s = w_s alone.
    """
    ctx = Valuation(desc, depth_limit)
    pool = {_skey({0: i, 1: j}): c for (i, j), c in element.terms.items()}
    while pool:
        values = {key: _shadow_value(ctx, key) for key in pool}
        level: Optional[ValueGroupElement] = None
        for val in values.values():
            if level is None or val.cmp(level) < 0:
                level = val
        group = sorted(key for key, val in values.items() if val.cmp(level) == 0)
        ref = _sgens(group[0])
        inv_ref = {s: -k for s, k in ref.items()}
        lam = Rat(0)
        members = []
        for key in group:
            rel = _shadow_mul(key, inv_ref)
            res = _shadow_residue(ctx, rel)
            members.append((key, rel, res))
            lam += pool[key] * res
        if lam != 0:
            return level
        for key, rel, res in members:
            c = pool.pop(key)
            emissions: List[Tuple[Rat, SKey]] = []
            rel_gens = _sgens(rel)
            blocks = rel[1]
            rho_p = _rho(ctx, rel_gens)
            sigmas = [1 / (n * rq ** (n - 1)) for _, n, rq in blocks]
            for cc, kk in _shadow_expand_pure(ctx, rel_gens):
                emissions.append((cc, _skey(_sgens(kk), kk[1] + blocks)))
            running = rho_p
            for idx, block in enumerate(blocks):
                rest = blocks[idx + 1 :]
                for cc, kk in _shadow_expand_block(ctx, block):
                    emissions.append(
                        (running * cc, _skey(_sgens(kk), kk[1] + rest))
                    )
                running *= sigmas[idx]
            for cc, kk in emissions:
                nk = _shadow_mul(kk, ref)
                pool[nk] = pool.get(nk, Rat(0)) + c * cc
        pool = {k: v for k, v in pool.items() if v}
    return INFINITY


# -- samplers ----------------------------------------------------------------------


def sample_element(
    rng: random.Random, max_degree: int = 8, max_terms: int = 6, coeff_bound: int = 9
) -> WeylElement:
    """Random nonzero element with total degree at most max_degree."""
    while True:
        terms: Dict[Tuple[int, int], Rat] = {}
        for _ in range(rng.randint(1, max_terms)):
            i = rng.randint(0, max_degree)
            j = rng.randint(0, max_degree - i)
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                terms[(i, j)] = terms.get((i, j), Rat(0)) + Rat(c)
        element = WeylElement({k: v for k, v in terms.items() if v})
        if not element.is_zero():
            return element


class SampleReport:
    """A sampled check: its trial count and the violations it found, which
    the check appends to."""

    __slots__ = ("trials", "violations")

    def __init__(self, trials: int, violations: Optional[List[dict]] = None):
        self.trials = trials
        self.violations: List[dict] = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"trials": self.trials, "violations": self.violations}


def strongly_abelian_sample(
    desc: OmegaDescriptor,
    seed: int,
    trials: int,
    max_degree: int = 5,
    depth_limit: int = 64,
) -> SampleReport:
    """Check v([a, b]) > v(a) + v(b) on random nonzero pairs."""
    rng = random.Random(seed)
    session = Valuation(desc, depth_limit)
    report = SampleReport(trials=trials)
    for _ in range(trials):
        a = sample_element(rng, max_degree=max_degree, max_terms=4, coeff_bound=5)
        b = sample_element(rng, max_degree=max_degree, max_terms=4, coeff_bound=5)
        va = session.value(a)
        vb = session.value(b)
        vc = session.value(commutator(a, b))
        bound = va.add(vb) if va is not INFINITY and vb is not INFINITY else INFINITY
        if not (vc is INFINITY or (bound is not INFINITY and vc.cmp(bound) > 0)):
            report.violations.append(
                {"a": str(a), "b": str(b), "v_a": str(va), "v_b": str(vb), "v_comm": str(vc)}
            )
    return report


def compatibility_check(
    desc: OmegaDescriptor,
    ordering: OrderingDescriptor,
    trials: int = 200,
    seed: int = 0,
    max_degree: int = 5,
    depth_limit: int = 64,
) -> SampleReport:
    """Sample the ordering axioms the sign oracle must satisfy.

    Per trial: squares are positive, sign is multiplicative, and adding a
    strictly higher-value element does not change the sign (which is exactly
    invariance of sign across equivalent elements).
    """
    rng = random.Random(seed)
    session = Valuation(desc, depth_limit)
    report = SampleReport(trials=trials)
    for _ in range(trials):
        f = sample_element(rng, max_degree=max_degree, max_terms=4, coeff_bound=5)
        g = sample_element(rng, max_degree=max_degree, max_terms=4, coeff_bound=5)
        s_f = session.sign(ordering, f)
        s_g = session.sign(ordering, g)
        if session.sign(ordering, g.mul(g)) != 1:
            report.violations.append({"kind": "square", "g": str(g)})
        if session.sign(ordering, f.mul(g)) != s_f * s_g:
            report.violations.append(
                {"kind": "multiplicativity", "f": str(f), "g": str(g)}
            )
        c = value_cmp(session.value(f), session.value(g))
        if c != 0:
            s_low = s_f if c < 0 else s_g
            if session.sign(ordering, f.add(g)) != s_low:
                report.violations.append(
                    {"kind": "equivalence", "f": str(f), "g": str(g)}
                )
    return report


# -- round trip ------------------------------------------------------------------------


class RoundtripReport(Record):
    __slots__ = ("trials", "mismatches")

    def __init__(self, trials: int, mismatches: Tuple[str, ...]):
        self.trials, self.mismatches = trials, mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


def roundtrip_check(
    desc: OmegaDescriptor,
    res: GammaResolution,
    samples: Sequence[WeylElement],
    depth: int = 16,
    depth_limit: int = 64,
) -> RoundtripReport:
    """z_eval after embedding must match eval on the Weyl algebra."""
    zseq = omega_to_z(desc, res, depth)
    session = Valuation(desc, depth_limit)
    mismatches: List[str] = []
    for element in samples:
        direct = session.value(element)
        via_z = z_eval(zseq, embed(element), depth_limit)
        if value_cmp(direct, via_z) != 0:
            mismatches.append(f"{element}: {direct} vs {via_z}")
    return RoundtripReport(len(samples), tuple(mismatches))
