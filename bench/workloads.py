"""The three workloads: seeded input rounds and the operation each input is.

A run is a whole number of rounds, and every round has the same make-up.
Random elements take their monomials from ``sample_element`` run on a stream
that depends only on the round index, and their coefficients (nonzero, at
most 9 in size) from ``random.Random(f"{seed}:{r}")``.  So the same seed gives
the same inputs, two seeds give different elements with the same monomials,
and the make-up of a run's costs does not depend on the seed.  Warm-up is
round -1 of the run's seed, which no timed round uses, so a cache kept across
calls cannot answer timed inputs in advance.

Each operation calls the package's public functions through the ``weylval``
module object (``wv.name(...)``) so that the traced run, which patches those
names, sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import weylval as wv

# The five descriptors of tests/conftest.py, copied so the benchmark does not
# import the test suite.
FIXTURES: Dict[str, dict] = {
    "worked": {
        "steps": [{"m": 1, "n": 2, "beta": "1"}, {"m": 1, "n": 4, "beta": "1"}],
        "tail": {
            "kind": "irrational",
            "value": {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "1/8"},
        },
        "alpha_signs": [{"i": 1, "j": 2, "sign": 1}],
    },
    "single_terminal": {
        "steps": [{"m": 1, "n": 2, "beta": "4"}],
        "tail": {
            "kind": "irrational",
            "value": {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "1/3"},
        },
    },
    "halving": {"steps": [], "tail": {"kind": "rule", "rule": "halving"}},
    "constant131": {"steps": [], "tail": {"kind": "rule", "rule": "constant(1,3,1)"}},
    "single24": {"steps": [{"m": 1, "n": 2, "beta": "4"}]},
}


def load_descriptors() -> Dict[str, "wv.OmegaDescriptor"]:
    return {name: wv.OmegaDescriptor.from_json(data) for name, data in FIXTURES.items()}


@dataclass(frozen=True)
class Op:
    """One timed operation.  `group` ties together ops checked jointly."""

    kind: str
    fixture: str
    group: int
    role: str
    args: tuple


# -- query -----------------------------------------------------------------------

QUERY_FIXTURES = ("worked", "single_terminal", "halving", "constant131", "single24")
QUERY_PAIRS = 2  # (f, g) pairs per fixture per round: 4 ops each


def random_element(monomials: random.Random, rng: random.Random) -> "wv.WeylElement":
    """An element of degree at most 6 with sample_element's monomials."""
    support = wv.sample_element(monomials, max_degree=6).terms
    return wv.WeylElement({m: rng.choice((-1, 1)) * rng.randint(1, 9) for m in support})


def query_round(rng: random.Random, seed: str, r: int, descs) -> List[Op]:
    monomials = random.Random(f"monomials:{r}")
    ops: List[Op] = []
    for name in QUERY_FIXTURES:
        for _ in range(QUERY_PAIRS):
            f = random_element(monomials, rng)
            g = random_element(monomials, rng)
            group = len(ops)
            for role, element in (("f", f), ("g", g), ("fg", f.mul(g)), ("gg", g.mul(g))):
                # The op gets the text; the checks evaluate the element itself.
                ops.append(Op("query", name, group, role, (wv.format_expr(element), element)))
    return ops


def run_query(op: Op, descs, state) -> tuple:
    """What `weylval eval` and `weylval sign` do: parse, value, every sign.

    An element whose value a bare prefix leaves undetermined raises
    DepthExceeded; that is its correct answer, recorded as value None.
    """
    desc = descs[op.fixture]
    element = wv.parse_expr(op.args[0])
    try:
        value = wv.eval_element(desc, element)
    except wv.DepthExceeded:
        return (None, ())
    signs = tuple(wv.sign(desc, o, element) for o in wv.enumerate_orderings(desc))
    return (value, signs)


# -- tower -----------------------------------------------------------------------

# Product shapes ((i, k), (j, l), ...) meaning w_i^k * w_j^l, one op each per
# round, in rising cost.  y-degrees: halving w_0..w_3 = 1, 2, 8, 64;
# constant(1,3,1) w_0..w_2 = 1, 3, 27.
TOWER_SHAPES: Dict[str, Tuple[tuple, ...]] = {
    "halving": (
        ((0, 1), (1, 2)),
        ((1, 3),),
        ((0, 2), (1, 3)),
        ((1, 1), (2, 1)),
        ((0, 3), (2, 1)),
        ((1, 4), (2, 1)),
        ((2, 2),),
        ((2, 4),),
        ((1, 4), (2, 4)),
        ((2, 6),),
        ((3, 1),),
    ),
    "constant131": (
        ((0, 3), (1, 1)),
        ((0, 2), (1, 2)),
        ((1, 4),),
        ((0, 1), (1, 5)),
        ((1, 6),),
        ((2, 1),),
        ((1, 1), (2, 1)),
        ((1, 3), (2, 1)),
        ((1, 6), (2, 1)),
        ((2, 2),),
        ((1, 9), (2, 1)),
    ),
}
# Sums of two products: the pair of shapes and how many per round.  Both
# pairs cost about 15 ms, between the 12 products below them and the 10
# above, so the median op of a run lies inside this run of like-cost sums and
# op_p50_ms does not sit on a gap between two cost levels.
TOWER_SUMS: Dict[str, Tuple[tuple, tuple, int]] = {
    "halving": (((1, 3),), ((1, 4), (2, 1)), 4),
    "constant131": (((0, 1), (1, 5)), ((1, 6),), 4),
}
TOWER_MAX_X = 2


def tower_round(rng: random.Random, seed: str, r: int, descs) -> List[Op]:
    """Products and sums with every shape fixed, so that rounds cost alike.

    The x power of each product and of each part of a sum is a seeded offset
    plus the round index, modulo TOWER_MAX_X + 1: three rounds (a 15 s run)
    hold every power once, whatever the seed, and no two rounds repeat an
    element.  The offsets of a sum's parts are drawn until the parts' values
    differ in every round.
    """
    offsets = random.Random(f"{seed}:x")
    powers = TOWER_MAX_X + 1
    # Warm-up (round -1) takes x powers above TOWER_MAX_X, which no timed round uses.
    lift = powers if r < 0 else 0
    ops: List[Op] = []
    for name, shapes in TOWER_SHAPES.items():
        desc = descs[name]
        for shape in shapes:
            a = (offsets.randrange(powers) + r) % powers + lift
            ops.append(Op("tower", name, len(ops), "product", ((1, a, shape),)))
        first, second, count = TOWER_SUMS[name]
        for _ in range(count):
            while True:
                da, db = offsets.randrange(powers), offsets.randrange(powers)
                if all(
                    part_value(desc, (da + t) % powers, first)
                    != part_value(desc, (db + t) % powers, second)
                    for t in range(powers)
                ):
                    break
            parts = tuple(
                (rng.choice((-1, 1)) * rng.randint(1, 9), (d + r) % powers + lift, shape)
                for d, shape in ((da, first), (db, second))
            )
            ops.append(Op("tower", name, len(ops), "sum", parts))
    return ops


def part_value(desc, a: int, shape) -> "wv.Rat":
    """v(x^a w_i^k w_j^l) = -a + k m_{i+1}/n_{i+1} + l m_{j+1}/n_{j+1}."""
    return -a + sum(k * wv.Rat(desc.step(i + 1).m, desc.step(i + 1).n) for i, k in shape)


def build_tower_element(desc, parts) -> "wv.WeylElement":
    """sum of c * x^a * w_i^k * w_j^l over the parts."""
    total = wv.WeylElement.zero()
    for c, a, shape in parts:
        term = wv.WeylElement.monomial(a, 0, c)
        for i, k in shape:
            term = term.mul(wv.omega_element(desc, i).pow(k))
        total = total.add(term)
    return total


def run_tower(op: Op, descs, state) -> tuple:
    desc = descs[op.fixture]
    element = build_tower_element(desc, op.args)
    value = wv.eval_element(desc, element)
    signs = tuple(wv.sign(desc, o, element) for o in wv.enumerate_orderings(desc))
    return (value, signs)


# -- convert ---------------------------------------------------------------------

CONVERT_RULES = ("halving", "constant131")
CONVERT_MAX_DEPTH = 9  # depth 10 and deeper raises IndexError on a rule (F2)
CONVERT_TERMINALS = ("worked", "single_terminal")
CONVERT_TERMINAL_DEPTH = 16  # the depth roundtrip_check converts to
# Round-trip samples per (terminal, sign choice) per round.  With 50 ops a
# round, a 15 s run (15 rounds, 750 ops) puts its p95 tail in the middle of
# the fifteen depth-7 conversions of constant(1,3,1), not on the edge between
# two cost levels.
CONVERT_SAMPLES = 7


def convert_round(rng: random.Random, seed: str, r: int, descs) -> List[Op]:
    monomials = random.Random(f"monomials:{r}")
    ops: List[Op] = []
    for name in CONVERT_RULES:
        group = len(ops)
        for depth in range(1, CONVERT_MAX_DEPTH + 1):
            ops.append(Op("convert", name, group, "rule", (None, depth)))
    for name in CONVERT_TERMINALS:
        for choice in (1, -1):
            ops.append(
                Op("convert", name, len(ops), "terminal", (choice, CONVERT_TERMINAL_DEPTH))
            )
    for name in CONVERT_TERMINALS:
        for choice in (1, -1):
            for _ in range(CONVERT_SAMPLES):
                element = random_element(monomials, rng)
                ops.append(Op("roundtrip", name, len(ops), "sample", (choice, element)))
    return ops


def run_convert(op: Op, descs, state) -> object:
    desc = descs[op.fixture]
    if op.kind == "convert":
        choice, depth = op.args
        zseq = wv.omega_to_z(desc, wv.resolve_gammas(desc, choice), depth)
        # Later round-trip samples of this round reuse the terminal z-sequences.
        state[(op.fixture, choice)] = zseq
        return zseq
    choice, element = op.args
    zseq = state[(op.fixture, choice)]
    return (wv.eval_element(desc, element), wv.z_eval(zseq, wv.embed(element)))


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[random.Random, str, int, dict], List[Op]]
    run: Callable[[Op, dict, dict], object]
    # Nominal cost of one round in reference seconds at the commit that
    # defined the benchmark: a run makes round(seconds / round_ref_s) rounds,
    # so its input list depends only on the seed and --seconds.
    round_ref_s: float
    # Warm-up runs this many ops from the start of a warm-up round.
    warmup_ops: int


WORKLOADS: Dict[str, Workload] = {
    "query": Workload(query_round, run_query, 0.28, 40),
    "tower": Workload(tower_round, run_tower, 4.8, 10),
    "convert": Workload(convert_round, run_convert, 1.0, 50),
}


def round_inputs(workload: Workload, seed: str, r: int, descs) -> List[Op]:
    return workload.make_round(random.Random(f"{seed}:{r}"), seed, r, descs)
