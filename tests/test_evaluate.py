"""Main valuation engine: values, residues, fractions, sessions, and the shadow oracle."""

import copy
import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from weylval import (
    BudgetExceeded,
    DeclarationInconsistent,
    DepthExceeded,
    INFINITY,
    NonzeroValue,
    OmegaDescriptor,
    Rat,
    Valuation,
    ValueGroupElement,
    WeylElement,
    WeylFraction,
    WeylvalError,
    builtin_rule,
    check_extendable,
    cmp,
    commutator,
    enumerate_orderings,
    eval_element,
    omega_element,
    omega_to_z,
    parse_expr,
    resolve_gammas,
    sample_element,
    shadow_eval,
    sign,
    strongly_abelian_sample,
)
from weylval import cli, descriptor, evaluate
from weylval.coeff import sgn, v2
from weylval.descriptor import GroupKind, InfiniteRule, OmegaStep, data_window, validate

from conftest import SINGLE_TERMINAL_JSON, WORKED_JSON
from test_extension import random_extendable
from test_weyl import reference_mul


def rational(*args):
    return ValueGroupElement.rational(Rat(*args))


def elem(terms):
    return WeylElement({k: Rat(v) for k, v in terms.items()})


X = WeylElement.x()
Y = WeylElement.y()


def digit_pool(session, element):
    """`_DigitPool` of a nonzero element over its divisor degrees, as
    `leading_data` builds it."""
    degrees = evaluate._divisor_degrees(session, max(element.rows))
    return evaluate._DigitPool(session, element, degrees)


def keyed_pool(session, pool):
    """A pool {word: coeff} as the keyed list that `_leading` takes, with no
    digit pool behind it, zero words dropped."""
    return [(w, c, session.word_key(w)) for w, c in pool.items() if c], None


def monomial_gap_value(desc, exponents):
    """v(word - residue(word)) for the value-0 word with the given powers of
    (x, w_0, ..., w_{r-1}), one per slot.  Negative powers make Laurent
    words that no `WeylElement` can write, whose gaps reach sum-inverse
    blocks."""
    session = Valuation(desc)
    word = tuple((s, k) for s, k in enumerate(exponents) if k)
    num, _, k_xi = session.word_key(word)
    if num or k_xi:
        raise NonzeroValue("monomial must have value 0")
    pool = {word: Rat(1)}
    pool[()] = pool.get((), Rat(0)) - evaluate._word_residue(session, word)
    return evaluate._leading(session, *keyed_pool(session, pool)).value


def equivalent(desc, a, b):
    """a ~ b: equal values and the difference sits strictly higher."""
    session = Valuation(desc)
    va = session.value(a)
    if cmp(va, session.value(b)) != 0:
        return False
    return cmp(session.value(a.sub(b)), va) > 0


class TestEval:
    def test_generator(self, worked):
        assert eval_element(worked, Y) == rational(1, 2)
        assert eval_element(worked, X) == rational(-1)

    def test_zero_is_infinity(self, worked):
        assert eval_element(worked, WeylElement.zero()) is INFINITY

    def test_square_unit_difference(self, worked):
        # x^2 y^4 - 1 groups as (x y^2)^2 - 1 at tentative value 0
        assert eval_element(worked, elem({(2, 4): 1, (0, 0): -1})) == rational(1, 4)

    def test_reordered_product(self, worked):
        # y*x normalizes to x*y + 1: min(-1/2, 0)
        assert eval_element(worked, Y.mul(X)) == rational(-1, 2)

    def test_tower_values(self, worked):
        assert eval_element(worked, omega_element(worked, 1)) == rational(1, 4)
        top = eval_element(worked, omega_element(worked, 2))
        assert top.k_xi == 1 and top.q == 0 and top.xi_scale == Rat(1, 8)

    def test_commutator_spot_value(self, worked):
        assert eval_element(
            worked, commutator(omega_element(worked, 1), X)
        ) == rational(-1, 2)

    def test_depth_exhaustion_on_bare_prefix(self, single24):
        # the second tower level is undetermined by a one-step descriptor:
        # w_1 = x*y^2 - 4, and both oracles stop at the missing step 2
        w1 = omega_element(single24, 1)
        assert w1 == elem({(1, 2): 1, (0, 0): -4})
        for oracle in (eval_element, shadow_eval):
            with pytest.raises(DepthExceeded) as info:
                oracle(single24, w1)
            assert info.value.consulted == 2

    def test_depth_limit_holds_with_cached_tower(self):
        # the tower memo lives on the descriptor; the depth limit of each
        # call is still checked before a stored element is read
        d = OmegaDescriptor.from_json({"steps": [], "tail": {"kind": "rule", "rule": "halving"}})
        e = X.mul(omega_element(d, 2))
        consulted = []
        for _ in range(2):
            with pytest.raises(DepthExceeded) as info:
                eval_element(d, e, depth_limit=2)
            consulted.append(info.value.consulted)
            omega_element(d, 3)
        assert consulted == [3, 3]
        with pytest.raises(DepthExceeded) as info:
            eval_element(d, omega_element(d, 3), depth_limit=1)
        assert info.value.consulted == 2
        # a session's caches are its own: a deep session that evaluated the
        # element leaves a shallow one as strict as before
        assert Valuation(d, 64).value(e) == rational(-7, 8)
        with pytest.raises(DepthExceeded) as info:
            Valuation(d, 2).value(e)
        assert info.value.consulted == 3

    def test_bare_prefix_determined_values(self, single24):
        # the one-step prefix fixes v(x) and v(w_0) = v(y), so these values
        # need no division by the undeclared w_1
        assert eval_element(single24, Y.pow(3)) == rational(3, 2)
        assert eval_element(single24, X.mul(Y).pow(2)) == rational(-1)
        assert eval_element(single24, Y) == rational(1, 2)


# Bare prefix (0,1,3), (1,2,1): v(y) = m_1/n_1 = 0, so w_0 = y is a unit with
# residue beta_1 and w_1 = y - 3 has value 1/2
ZERO_RATIO_JSON = {"steps": [{"m": 0, "n": 1, "beta": "3"}, {"m": 1, "n": 2, "beta": "1"}]}


class TestZeroFirstRatio:
    def test_values_residue_and_signs(self):
        desc = OmegaDescriptor.from_json(ZERO_RATIO_JSON)
        w1 = Y.sub(WeylElement.scalar(Rat(3)))
        assert eval_element(desc, Y) == rational(0)
        assert Valuation(desc).residue(Y) == 3
        assert eval_element(desc, w1) == rational(1, 2)
        assert eval_element(desc, w1.pow(2)) == rational(1)
        assert [sign(desc, o, w1) for o in enumerate_orderings(desc)] == [1, -1]

    def test_shadow_compare_agrees(self, capsys, tmp_path):
        path = tmp_path / "zero_ratio.json"
        path.write_text(json.dumps(ZERO_RATIO_JSON))
        assert cli.main(["shadow-compare", "--desc", str(path), "--trials", "50"]) == 0
        assert json.loads(capsys.readouterr().out) == {"trials": 50, "disagreements": []}


class TestStepWithoutPositiveN:
    """A descriptor built in process with a step n < 1, which `validate`
    refuses as StepShape, is refused by the evaluator as well: it would
    divide by n = 0, or bisect y-degrees that fall to 0."""

    @pytest.mark.parametrize(
        "steps, index", [([(1, 0, 1)], 1), ([(1, 2, 1), (1, 0, 1)], 2), ([(1, -2, 1)], 1)]
    )
    @pytest.mark.parametrize("tail", ["halving", None])
    def test_is_refused_naming_the_step(self, steps, index, tail):
        rule = builtin_rule(tail) if tail else None
        desc = OmegaDescriptor([OmegaStep(m, n, Rat(b)) for m, n, b in steps], rule)
        detail = f"step {index}: n must be >= 1"
        for element in (Y, X, X.mul(Y.pow(2)).sub(WeylElement.scalar(1))):
            for depth in (0, 64):
                with pytest.raises(DeclarationInconsistent, match=f"^{detail}$"):
                    eval_element(desc, element, depth)
        assert [(v.rule, v.detail) for v in validate(desc)] == [("StepShape", detail)]

    def test_every_reader_of_the_steps_refuses_it(self):
        # every reader of the steps refuses an explicit step (1, 0, 1) over
        # halving, and a rule whose step 2 has n = 0, on every read, where
        # it would divide by n, answer w_2 = x - 1, or divide y^3 by the
        # y-degrees 2, 0, 0, ... without end; `validate` still reports the
        # explicit step
        explicit = OmegaDescriptor([OmegaStep(1, 0, Rat(1))], builtin_rule("halving"))
        # the conversion refuses before it reads a gamma resolution
        readers = [check_extendable, resolve_gammas, enumerate_orderings,
                   lambda d: omega_to_z(d, None, 3)]
        for reader in readers * 2:
            with pytest.raises(DeclarationInconsistent, match="^step 1: n must be >= 1$"):
                reader(explicit)
        assert [(v.rule, v.detail) for v in validate(explicit)] == [
            ("StepShape", "step 1: n must be >= 1")]
        rule = InfiniteRule("n0", lambda i: OmegaStep(1, 2 if i == 1 else 0, Rat(1)),
                            GroupKind.TWO_DIVISIBLE, Rat(1))
        desc = OmegaDescriptor([], rule)
        readers = [lambda d: omega_element(d, 2), lambda d: eval_element(d, Y.pow(3)), validate]
        for reader in readers * 2:
            with pytest.raises(DeclarationInconsistent, match="^step 2: n must be >= 1$"):
                reader(desc)
        assert desc.step(1) == OmegaStep(1, 2, Rat(1))


FIXTURE_NAMES = ["worked", "single_terminal", "halving", "constant131", "single24"]


def _reads(session, orderings, element):
    """The value and every sign of an element in a session; None if refused."""
    try:
        value = session.value(element)
        signs = [] if value is INFINITY else [session.sign(o, element) for o in orderings]
    except DepthExceeded:
        return None
    return value, signs


class TestDepthFloor:
    def test_generators_below_the_rule_window(self, halving):
        # the canonical representative reads the data window, which does
        # not count against the limit
        assert eval_element(halving, Y, depth_limit=1) == rational(1, 2)
        assert eval_element(halving, X, depth_limit=1) == rational(-1)
        # x reads no step at all, and y reads step 1
        assert eval_element(halving, X.pow(3), depth_limit=0) == rational(-3)
        with pytest.raises(DepthExceeded) as info:
            eval_element(halving, Y.add(X), depth_limit=0)
        assert info.value.consulted == 1
        # y^3 is divided by w_1, whose value is step 2's datum
        with pytest.raises(DepthExceeded) as info:
            eval_element(halving, Y.pow(3).mul(X), depth_limit=1)
        assert info.value.consulted == 2
        assert eval_element(halving, Y.pow(3).mul(X), depth_limit=2) == rational(1, 2)

    def test_a_budget_refusal_comes_before_a_depth_refusal(self, halving, constant131):
        # under depth limit 1 or 2, y^100 is divided by w_1 or w_2, whose
        # value lies past the limit; on halving that division also runs past
        # the work budget, and the budget refusal wins.  The budget counts the
        # divisions done, and at limit 2 the expansion puts off quotients by
        # w_1 before it first reads v(w_2), so it crosses the budget at a
        # later division than the full expansion, whose count there is 65,612
        # (and 65,604 by w_1 on constant(1,3,1))
        y100 = Y.pow(100)
        for desc, limit, index, work in ((halving, 1, 1, 65562), (halving, 2, 2, 65890),
                                         (constant131, 2, 2, 65577)):
            with pytest.raises(BudgetExceeded) as budget:
                Valuation(desc, limit).leading(y100)
            assert str(budget.value) == (
                f"digit expansion by w_{index} handed {work} "
                "term pairs to the product kernel, above the budget of 65536"
            )
        with pytest.raises(DepthExceeded) as depth:
            Valuation(constant131, 1).leading(y100)
        assert str(depth.value) == "depth limit 1 exceeded at step 2"

    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_shallow_answers_equal_deep_ones(self, request, fixture):
        desc = request.getfixturevalue(fixture)
        orderings = enumerate_orderings(desc)
        w1 = omega_element(desc, 1)
        rng = random.Random(f"depth-floor:{fixture}")
        elements = [X, Y, w1, X.mul(w1), w1.pow(2).add(Y)]
        elements += [sample_element(rng, max_degree=5, max_terms=4) for _ in range(6)]
        deep = Valuation(desc)
        answered = 0
        for depth in range(9):
            shallow = Valuation(desc, depth)
            for element in elements:
                read = _reads(shallow, orderings, element)
                if read is not None:
                    answered += 1
                    assert read == _reads(deep, orderings, element)
        assert answered > len(elements)


class TestResidue:
    def test_first_unit(self, worked):
        assert Valuation(worked).residue(elem({(1, 2): 1})) == Rat(1)

    def test_scalar(self, worked):
        assert Valuation(worked).residue(WeylElement.scalar(Rat(5))) == Rat(5)

    def test_unit_square(self, worked):
        assert Valuation(worked).residue(elem({(2, 4): 1})) == Rat(1)

    def test_nonzero_value_rejected(self, worked):
        with pytest.raises(NonzeroValue):
            Valuation(worked).residue(Y)

    def test_multiplicativity(self, worked, rng):
        units = [
            elem({(1, 2): 1}),
            elem({(1, 2): 1, (0, 0): 3}),
            elem({(2, 4): 1, (1, 2): 5}),
        ]
        for f in units:
            for g in units:
                res = Valuation(worked).residue
                assert res(f.mul(g)) == res(f) * res(g)


class TestFractions:
    def test_value_difference(self, worked):
        assert eval_element(
            worked, WeylFraction(Y.pow(2), Y)
        ) == rational(1, 2)

    def test_zero_value_unit(self, worked):
        frac = WeylFraction(elem({(1, 2): 1}), WeylElement.scalar(Rat(1)))
        assert eval_element(worked, frac) == rational(0)
        assert Valuation(worked).residue(frac) == Rat(1)

    def test_cancelling_powers(self, worked):
        frac = WeylFraction(Y.pow(2), Y.pow(2))
        assert eval_element(worked, frac) == rational(0)
        assert Valuation(worked).residue(frac) == Rat(1)


def _outcome(query, *args):
    try:
        return ("ok", query(*args))
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "consulted", None))


def reference_digit_pool(desc, element, depth_limit=64):
    """The digit expansion by repeated right division on Rat coefficients,
    each product summed term by term, as an oracle."""
    if desc.rule is not None:
        max_index = depth_limit
    elif desc.terminal is not None:
        max_index = min(len(desc.explicit_steps), depth_limit)
    else:
        max_index = min(len(desc.explicit_steps) - 1, depth_limit)
    pool = {}

    def divmod_right(dividend, divisor, d, lead_x):
        quotient, rest = WeylElement.zero(), dividend
        while rest.terms:
            deg = max(j for _, j in rest.terms)
            if deg < d:
                break
            block = WeylElement(
                {(i - lead_x, deg - d): c for (i, j), c in rest.terms.items() if j == deg}
            )
            quotient = quotient.add(block)
            rest = rest.sub(reference_mul(block, divisor))
        return quotient, rest

    def rec(part, suffix):
        if not part.terms:
            return
        deg_y = max(j for _, j in part.terms)
        index, d_index = 0, 1
        while index < max_index and d_index * desc.step(index + 1).n <= deg_y:
            index, d_index = index + 1, d_index * desc.step(index + 1).n
        if index == 0:
            for (i, j), c in part.terms.items():
                pool[((0, i),) * bool(i) + ((1, j),) * bool(j) + suffix] = c
            return
        divisor = omega_element(desc, index)
        lead_x = next(i for (i, j) in divisor.terms if j == d_index)
        power, rest = 0, part
        while rest.terms:
            rest, digit = divmod_right(rest, divisor, d_index, lead_x)
            rec(digit, ((index + 1, power),) * bool(power) + suffix)
            power += 1

    rec(element, ())
    return pool


def checked_digit_pool(session, element):
    """The digit pool of `_DigitPool` as {word: coeff}, its leaf words and its
    tails' together, after checking that each word occurs once and carries
    the key of its value, that the pool's level is the least key of its leaf
    words, and that every tail word lies strictly above that level."""
    digits = digit_pool(session, element)
    leaves, level = list(digits.keyed), digits.level
    tails = digits.rest()
    keyed = leaves + tails
    pool = {w: c for w, c, _ in keyed}
    assert len(pool) == len(keyed)
    for w, _, key in keyed:
        assert evaluate._key_cmp(key, session.word_key(w), session.scale) == 0
    if keyed:
        order = [evaluate._key_cmp(key, level, session.scale) for _, _, key in keyed]
        assert min(order[:len(leaves)]) == 0 and min(order[len(leaves):], default=1) == 1
    return pool


RATIONAL_BETA_STEPS = [
    [(1, 2, "3/2"), (1, 3, "-5/7")],
    [(1, 3, "-5/7"), (2, 2, "1/4")],
    [(0, 2, "2/9"), (1, 2, "7/4"), (1, 2, "-1/3")],
]


class TestDigitPool:
    @pytest.mark.parametrize("steps", RATIONAL_BETA_STEPS, ids=str)
    @pytest.mark.parametrize("tail", ["terminal", "prefix"])
    def test_rational_beta_matches_reference(self, steps, tail):
        data = {"steps": [{"m": m, "n": n, "beta": b} for m, n, b in steps]}
        if tail == "terminal":
            data["tail"] = WORKED_JSON["tail"]
        d = OmegaDescriptor.from_json(data)
        # the tower's integer forms have denominators E != 1, so the rows'
        # denominator grows during the division
        assert omega_element(d, 1).den != 1
        top = 1
        for _, n, _ in steps:
            top *= n
        rng = random.Random(f"digits:{steps}:{tail}")
        kinds = set()
        for _ in range(40):
            terms = {
                (rng.randint(-2, 4), rng.randint(0, 2 * top + 1)): Rat(
                    rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)
                )
                for _ in range(rng.randint(1, 6))
            }
            element = WeylElement(terms)
            pool = checked_digit_pool(Valuation(d), element)
            assert pool == reference_digit_pool(d, element)
            kinds.update(type(c) for c in pool.values())
        # emissions over a denominator other than 1 are Rats
        assert Fraction in kinds

    def test_fixture_towers_match_reference(self, worked, halving, constant131, single24):
        rng = random.Random(31)
        for d in (worked, halving, constant131, single24):
            for _ in range(10):
                element = sample_element(rng, max_degree=9)
                pool = checked_digit_pool(Valuation(d), element)
                assert pool == reference_digit_pool(d, element)
                # integer coefficients over integral towers stay ints
                assert all(type(c) is int for c in pool.values())
                # the divisor index is capped at the depth limit on every tail,
                # and a word that holds w_1 reads step 2, past that limit
                reference = reference_digit_pool(d, element, 1)
                try:
                    pool = checked_digit_pool(Valuation(d, 1), element)
                except DepthExceeded as exc:
                    assert str(exc) == "depth limit 1 exceeded at step 2"
                    assert any(f[0] == 2 for w in reference for f in w)
                else:
                    assert pool == reference


FIXTURE_JSONS = {
    "worked": WORKED_JSON,
    "single_terminal": SINGLE_TERMINAL_JSON,
    "halving": {"steps": [], "tail": {"kind": "rule", "rule": "halving"}},
    "constant131": {"steps": [], "tail": {"kind": "rule", "rule": "constant(1,3,1)"}},
    "single24": {"steps": [{"m": 1, "n": 2, "beta": "4"}]},
    **{
        f"rational {steps}": {
            "steps": [{"m": m, "n": n, "beta": b} for m, n, b in steps],
            "tail": WORKED_JSON["tail"],
        }
        for steps in RATIONAL_BETA_STEPS
    },
}


class TestDescriptorTables:
    @pytest.mark.parametrize("name", list(FIXTURE_JSONS))
    def test_warm_tables_answer_as_fresh_ones(self, name):
        # a descriptor keeps the rows y^b w_i of its tower elements and the
        # canonical digit walks; elements read them in either order, at
        # several depth limits, and must answer as on a fresh descriptor
        data = FIXTURE_JSONS[name]
        fresh = OmegaDescriptor.from_json(data)
        rng = random.Random(f"tables:{name}")
        batch = [sample_element(rng, max_degree=9) for _ in range(6)]
        w1 = omega_element(fresh, 1)
        batch += [
            Y.pow(12),
            Y.pow(27),
            elem({(3, 9): Rat(2, 3), (1, 2): -1, (0, 0): 5}),
            w1,
            w1.mul(w1).add(Y),
            X.mul(Y.pow(5)).mul(w1),
            Y.pow(40),
        ]
        depths = (1, 2, 64)
        want = {
            (k, depth): _outcome(
                evaluate.leading_data, Valuation(OmegaDescriptor.from_json(data), depth), f
            )
            for k, f in enumerate(batch)
            for depth in depths
        }
        # a valid descriptor answers; the malformed rational towers only
        # compare their errors
        if not validate(fresh):
            assert "ok" in {outcome[0] for outcome in want.values()}
        for order in (1, -1):
            shared = OmegaDescriptor.from_json(data)
            got = {
                (k, depth): _outcome(evaluate.leading_data, Valuation(shared, depth), f)
                for k, f in list(enumerate(batch))[::order]
                for depth in depths
            }
            assert got == want
            # single24 never divides: its bare prefix declares no v(w_1)
            warm = any(record.rows for record in shared._tower.values())
            assert warm == (name != "single24")
        if name.startswith("rational"):
            assert omega_element(fresh, 1).den != 1


    @pytest.mark.parametrize("name", list(FIXTURE_JSONS))
    def test_evaluation_leaves_its_inputs_unchanged(self, name):
        # the digit expansion subtracts from a copy of the element's stored
        # rows, and the divisors' records hold the tower elements handed out
        desc = OmegaDescriptor.from_json(FIXTURE_JSONS[name])
        rng = random.Random(f"read-only:{name}")
        batch = [sample_element(rng, max_degree=9) for _ in range(4)]
        batch += [Y.pow(27), elem({(3, 9): Rat(2, 3), (1, 2): -1, (0, 0): 5}), Y.pow(40)]
        for i in range(1, 4):
            try:
                batch.append(omega_element(desc, i))
            except (WeylvalError, IndexError):
                break
        before = [(copy.deepcopy(f.rows), f.den, hash(f)) for f in batch]
        for f in batch:
            _outcome(evaluate.leading_data, Valuation(desc, 64), f)
        assert [(f.rows, f.den, hash(f)) for f in batch] == before
        if name.startswith("rational") and desc._tower:
            assert omega_element(desc, 1).den != 1
        for record in desc._tower.values():
            assert any(record.element is f for f in batch)

    def test_kept_rows_stay_within_their_budget(self, monkeypatch):
        # high y-degree elements on one halving descriptor, whose least-weight
        # terms cancel, ask for more rows y^b w_i than the budget holds; the
        # rows past it are made per division and dropped, and every answer is
        # a fresh descriptor's
        data, budget = FIXTURE_JSONS["halving"], descriptor.TOWER_ROW_TERM_BUDGET
        batch = [parse_expr(expr) for expr in (
            "x*y^66 - y^64", "x*y^70 - y^68", "x^7*y^66 - x^6*y^64 + y^65", "x*y^74 - y^72",
            "2*x^3*y^72 - 2*x^2*y^70 - x*y^40", "x*y^78 - y^76",
        )]

        def kept(desc):
            return sum(sum(len(entries) for _, entries in row)
                       for record in desc._tower.values() for row in record.rows.values())

        def answers(desc_for):
            return [_outcome(evaluate.leading_data, Valuation(desc_for(), 64), f) for f in batch]

        want = answers(lambda: OmegaDescriptor.from_json(data))
        assert "ok" in {outcome[0] for outcome in want}
        shared = OmegaDescriptor.from_json(data)
        assert answers(lambda: shared) == want
        assert kept(shared) <= budget
        assert kept(shared) + shared._row_room == budget
        # without the budget the same batch keeps more rows than it allows
        monkeypatch.setattr(descriptor, "TOWER_ROW_TERM_BUDGET", 1 << 30)
        unbounded = OmegaDescriptor.from_json(data)
        assert answers(lambda: unbounded) == want
        assert kept(unbounded) > budget

    def test_session_tables_warmed_deep_keep_every_shallow_read(self):
        # a depth-64 session fills the generator keys, the divisor degrees
        # and the orderings kept on the descriptor; every value, residue and
        # sign at depth limits 0-3, answer or refusal, is then a fresh
        # descriptor's, as the depth check runs on every call
        rng = random.Random(38)
        datas = [FIXTURE_JSONS[name] for name in FIXTURE_NAMES]
        datas += [random_valid_descriptor(rng).to_json() for _ in range(100)]
        batch = [WeylElement.monomial(i, j) for i in range(3) for j in range(5)]
        batch += [X.mul(Y).add(Y.pow(3)), Y.pow(2).add(X), Y.pow(9),
                  WeylFraction(Y.pow(2), Y), WeylFraction(X, X.mul(Y))]

        def reads(desc, depth, elements):
            session = Valuation(desc, depth)
            orderings = _outcome(enumerate_orderings, desc)
            out = [orderings]
            for f in elements:
                out += [_outcome(session.value, f), _outcome(session.residue, f)]
                if orderings[0] == "ok":
                    out += [_outcome(session.sign, o, f) for o in orderings[1]]
            return out

        kinds = set()
        for data in datas:
            warm = OmegaDescriptor.from_json(data)
            elements = batch + [w.mul(Y) for w in tower_elements(warm, 1)]
            reads(warm, 64, elements)
            assert warm._gen_keys and warm._orderings is not None
            for depth in range(4):
                got = reads(warm, depth, elements)
                assert got == reads(OmegaDescriptor.from_json(data), depth, elements)
                kinds.update(read[0] for read in got)
        assert {"ok", "DepthExceeded", "NonzeroValue"} <= kinds
        warm = OmegaDescriptor.from_json(FIXTURE_JSONS["halving"])
        reads(warm, 64, batch)
        with pytest.raises(DepthExceeded) as info:
            Valuation(warm, 0).value(Y)
        assert info.value.consulted == 1

    def test_a_depth_refusal_reads_no_step(self):
        # the depth check comes before the key is read, and a refused read
        # keeps nothing
        desc = OmegaDescriptor.from_json(FIXTURE_JSONS["halving"])
        with pytest.raises(DepthExceeded) as info:
            Valuation(desc, 2).gen_key(5)
        assert info.value.consulted == 6
        assert not desc._cache and 5 not in desc._gen_keys
        assert Valuation(desc, 6).gen_key(5) == (1, 64, 0)
        assert desc._gen_keys[5] == (6, (1, 64, 0))
        with pytest.raises(DepthExceeded):
            Valuation(desc, 5).gen_key(5)

    def test_divisor_degrees_are_the_step_walk(self):
        # the slices of the kept prefix equal the per-call walk over the
        # steps, on one descriptor read at every depth limit and y-degree in
        # shuffled order

        def walk(desc, depth_limit, deg_y):
            max_index = depth_limit
            if desc.rule is None:
                top = len(desc.explicit_steps) if desc.terminal else len(desc.explicit_steps) - 1
                max_index = min(max_index, top)
            degrees, d_index = [], 1
            while len(degrees) < max_index:
                d_index *= abs(desc.step(len(degrees) + 1).n)
                if d_index > deg_y:
                    break
                degrees.append(d_index)
            return degrees

        rng = random.Random(381)
        descs = [OmegaDescriptor.from_json(FIXTURE_JSONS[name]) for name in FIXTURE_NAMES]
        descs += [random_valid_descriptor(rng) for _ in range(40)]
        cases = [(depth, deg_y) for depth in [*range(9), 64] for deg_y in range(301)]
        lengths = set()
        for desc in descs:
            rng.shuffle(cases)
            for depth, deg_y in cases:
                got = evaluate._divisor_degrees(Valuation(desc, depth), deg_y)
                assert got == walk(desc, depth, deg_y)
                lengths.add(len(got))
        assert {0, 1, 2, 3} <= lengths

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_orderings_are_a_new_list_on_each_call(self, name):
        desc = OmegaDescriptor.from_json(FIXTURE_JSONS[name])
        first = enumerate_orderings(desc)
        second = enumerate_orderings(desc)
        assert first == second and first is not second
        first.clear()
        assert enumerate_orderings(desc) == second and len(second) in (1, 2, 4)

    def test_orderings_past_the_window_budget_refuse_on_every_call(self):
        # n_1 = 2^4000 over halving puts the data window past its budget,
        # which a 2-divisible group never reads: its one ordering comes
        # back on every call; a stored sign on (1, 70) over constant(1,3,1)
        # puts the window past it too, and its slot needs the window, so
        # every call raises and nothing is kept
        deep = OmegaDescriptor.from_json({"steps": [{"m": 1, "n": 2**4000, "beta": "1"}],
                                          "tail": {"kind": "rule", "rule": "halving"}})
        for _ in range(3):
            (only,) = enumerate_orderings(deep)
            assert only.omega_index is None and not only.terminal
        assert deep._window is None
        far = OmegaDescriptor.from_json({"steps": [],
                                         "tail": {"kind": "rule", "rule": "constant(1,3,1)"},
                                         "alpha_signs": [{"i": 1, "j": 70, "sign": 1}]})
        refusal = ("BudgetExceeded", "the data window reaches step 71, more than the budget "
                   "of 64 rule steps past the explicit ones", None)
        for _ in range(3):
            assert _outcome(enumerate_orderings, far) == refusal
        assert far._orderings is None and far._window is None


class TestSession:
    @pytest.mark.parametrize(
        "fixture", ["worked", "single_terminal", "halving", "constant131", "single24"]
    )
    def test_reads_match_one_shot_calls(self, request, fixture):
        desc = request.getfixturevalue(fixture)
        orderings = enumerate_orderings(desc)
        w1 = omega_element(desc, 1)
        session = Valuation(desc)
        rng = random.Random(29)
        kinds = set()
        for _ in range(8):
            f = sample_element(rng, max_degree=5, max_terms=4, coeff_bound=5)
            g = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=5)
            for h in (
                f,
                g.mul(w1).add(WeylElement.scalar(Rat(3))),
                WeylFraction(f, g),
                WeylFraction(f.mul(g), g.mul(f)),
            ):
                reads = [_outcome(session.value, h), _outcome(session.residue, h)]
                reads += [_outcome(session.sign, o, h) for o in orderings]
                calls = [_outcome(eval_element, desc, h), _outcome(Valuation(desc).residue, h)]
                calls += [_outcome(sign, desc, o, h) for o in orderings]
                assert reads == calls
                kinds.update(read[0] for read in reads)
        assert "ok" in kinds
        # a bare prefix leaves some values undetermined, in both ways alike
        assert ("DepthExceeded" in kinds) == (fixture == "single24")

    def test_sign_command_reads_one_leading_computation(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "worked.json"
        path.write_text(json.dumps(WORKED_JSON))
        runs = []
        original = evaluate._leading

        def counted(ctx, keyed, pool):
            runs.append(1)
            return original(ctx, keyed, pool)

        monkeypatch.setattr(evaluate, "_leading", counted)
        assert cli.main(["sign", "--desc", str(path), "--expr", "x*y^2 - 1 + y^3"]) == 0
        assert len(json.loads(capsys.readouterr().out)["signs"]) == 4
        assert len(runs) == 1

    def test_every_leading_computation_is_traced(self, worked, monkeypatch):
        # a wrapper of `leading_data` sees a session's reads and the free
        # functions' alike, once per element
        calls = []
        original = evaluate.leading_data

        def counted(session, element):
            calls.append(element)
            return original(session, element)

        monkeypatch.setattr(evaluate, "leading_data", counted)
        element = parse_expr("x*y^2 - 1 + y^3")
        session = Valuation(worked)
        signs = [session.sign(o, element) for o in enumerate_orderings(worked)]
        assert len(signs) == 4 and calls == [element]
        calls.clear()
        assert eval_element(worked, element) == session.value(element)
        assert calls == [element]

    def test_element_computed_once(self, worked):
        session = Valuation(worked)
        f = elem({(1, 2): 1, (0, 1): 3})
        assert session.leading(f) is session.leading(elem({(0, 1): 3, (1, 2): 1}))


class TestLevelScan:
    def test_a_level_that_merges_to_zero(self, worked, monkeypatch):
        # y*x and x*y sort to the same word at level -1/2 and cancel there;
        # the sorting correction [y, x] = 1 is all that is left, at level 0
        certified = []
        original = evaluate._canonical_ref
        monkeypatch.setattr(
            evaluate, "_canonical_ref", lambda *args: certified.append(args[1]) or original(*args)
        )
        yx, xy = ((1, 1), (0, 1)), ((0, 1), (1, 1))
        session = Valuation(worked)
        data = evaluate._leading(session, *keyed_pool(session, {yx: Rat(1), xy: Rat(-1)}))
        assert (data.value, data.lam, data.ref) == (rational(0), Rat(1), ())
        assert certified == [rational(0)]

    @pytest.mark.parametrize(
        "word, expected", [(((0, 1), (1, 1), (2, 1)), rational(-1, 4)), (((2, 1),), rational(0))]
    )
    def test_a_word_above_a_cancelling_level_survives(self, worked, word, expected):
        # y*x - x*y cancels at level -1/2 and leaves [y, x] = 1 at level 0; a
        # word above the cancelling level waits in the rest of the first pass,
        # and the lesser of it and the correction leads: x y w_1, of value
        # -1/4, or else the correction, under w_1 of value 1/4
        yx, xy = ((1, 1), (0, 1)), ((0, 1), (1, 1))
        session = Valuation(worked)
        data = evaluate._leading(session, *keyed_pool(session, {yx: Rat(1), xy: Rat(-1), word: 3}))
        assert data.value == expected
        element = word_element(worked, word).mul(WeylElement.scalar(3)).add(commutator(Y, X))
        assert data.value == eval_element(worked, element)


    @staticmethod
    def _count(monkeypatch, compared, keyed):
        cmp, key = evaluate._key_cmp, Valuation.word_key
        monkeypatch.setattr(evaluate, "_key_cmp", lambda *args: compared.append(args) or cmp(*args))
        monkeypatch.setattr(Valuation, "word_key", lambda self, w: keyed.append(w) or key(self, w))

    def test_a_certifying_pool_compares_each_word_once(self, halving, monkeypatch):
        # x w_1^3 + 2 y^5 - 7 x^2 w_2 certifies its first level, -7 x^2 w_2:
        # one key comparison per leaf row after the first finds it, one per
        # quotient left at a power >= 1 once a level is found tests its bound
        # (4, none above the level), and one per word splits the level from
        # the rest; each of the 12 words of its 8 rows in 5 leaves is built
        # once, with its key, and no word is keyed again
        w1, w2 = omega_element(halving, 1), omega_element(halving, 2)
        element = X.mul(w1.pow(3)).add(elem({(0, 5): 2})).sub(elem({(2, 0): 7}).mul(w2))
        session = Valuation(halving)
        compared, keyed, built = [], [], []
        self._count(monkeypatch, compared, keyed)
        digit_word = evaluate._digit_word
        monkeypatch.setattr(
            evaluate, "_digit_word", lambda *args: built.append(args) or digit_word(*args)
        )
        digits = digit_pool(session, element)
        leaves, rows = {args[2] for args in built}, {args[1:] for args in built}
        assert (len(leaves), len(rows), len(digits.tails), len(compared)) == (5, 8, 0, 11)
        assert evaluate._leading(session, digits.keyed, digits).value == rational(-15, 8)
        assert len(compared) == 23
        assert len(built) == len(set(built)) == len(digits.keyed) == 12
        assert (((0, 2), (3, 1)), -7, (-15, 8, 0)) in digits.keyed
        assert keyed == []

    def test_rest_words_keep_their_keys(self, worked, halving, monkeypatch):
        compared, keyed = [], []
        self._count(monkeypatch, compared, keyed)
        # the rest word x y w_1 of the first pass is not keyed again on the
        # second, which keys only the correction [y, x] = 1
        yx, xy, word = ((1, 1), (0, 1)), ((0, 1), (1, 1)), ((0, 1), (1, 1), (2, 1))
        session = Valuation(worked)
        pool = [(w, c, session.word_key(w)) for w, c in ((yx, 1), (xy, -1), (word, 3))]
        keyed.clear()
        assert evaluate._leading(session, pool, None).value == rational(-1, 4)
        assert keyed == [()]
        # F5's element x y w_1^2 - 1 cancels on two levels; every word its
        # sorts and expansions add is keyed once
        keyed.clear()
        f = X.mul(Y).mul(omega_element(halving, 1).pow(2)).sub(WeylElement.scalar(1))
        session = Valuation(halving)
        assert evaluate.leading_data(session, f).value == rational(1, 8)
        assert keyed and len(set(keyed)) == len(keyed)


# Every element of this suite whose first level cancels or whose sorts swap,
# as `leading_data` meets it (some at several depth limits), with its
# fixture; among them F5's x y w_1^2 - 1 on worked and halving, the
# constant(1,3,1) element whose sort splices 162 correction words, and the
# five elements of the benchmark's `query` workload (seeds 1 and 2, rounds
# -1 to 53) that reach a digit pool, which the last five entries are.
CANCELLING_ELEMENTS = [
    ("single24", "x*y^2 - 4"),
    ("single24", "x^2*y^2 - 4*x"),
    ("single24", "x^2*y^4 + 2*x*y^3 - 8*x*y^2 + y + 16"),
    ("single24", "x^2*y^7 + 5*x*y^6 - 4*x*y^5"),
    ("single24", "x^3*y^3 + x^2*y^2 - 4*x^2*y - 4*x*y^2 + 19"),
    ("single24", "5*x^4*y^2 - 20*x^3 + x^2*y^3 + x*y^2 - 4*x*y + 3"),
    ("single24", "-8*x^5*y^2 + 32*x^4 - 5*x^3*y^2 + 20*x^2 + 3"),
    ("single24", "5*x^3*y^2 - 20*x^2 + 3"),
    ("single24", "x^5*y^2 - 4*x^4 - 3*x^3*y^3 - 3*x^2*y^2 + 12*x^2*y + 3"),
    ("single24", "-3*x^3*y^3 + 2*x^2*y^4 - 3*x^2*y^2 + 12*x^2*y + 4*x*y^3 - 13*x*y^2 + 2*x*y + 20"),
    ("single24", "-2*x^4*y^3 - 2*x^3*y^2 + 8*x^3*y - 5*y^2"),
    ("single24", "4*x^4*y^3 + 4*x^3*y^2 - 16*x^3*y + 5*y"),
    ("single24", "-x^2*y^4 - 2*x^2*y^3 - 2*x*y^3 + 2*x*y^2 + 8*x*y - 4*y"),
    ("single24", "-x^5*y^2 + 4*x^4 + 4*x*y^4 - 3*x*y + 8*y^3 - 16*y^2"),
    ("single24", "5*x^5*y^2 - 20*x^4 + 5*x^3*y^2 - 22*x^2"),
    ("single24", "4*x^4*y^3 - 3*x^4*y^2 + 4*x^3*y^3 + 4*x^3*y^2 - 16*x^3*y + 12*x^3"
                 " + 4*x^2*y^2 - 16*x^2*y - 3*x^2 - 5*y"),
    ("single24", "4*x^4*y^2 - 16*x^3 - 4*y^2"),
    ("single24", "-x^5*y^2 + 4*x^4 + x^2*y^3 + x*y^2 - 4*x*y - y"),
    ("single24", "-2*x*y^3 + y^2 + 8*y"),
    ("single24", "5*x^5*y^2 + 4*x^4*y^2 - 20*x^4 - 5*x^3*y^3 - 16*x^3 - 5*x^2*y^2"
                 " + 20*x^2*y + 3*x^2"),
    ("single24", "-5*x^4*y^2 + 20*x^3 - 5*x^2 + x*y"),
    ("single24", "2*x^4*y^3 + x^4*y^2 + 2*x^3*y^2 - 8*x^3*y - 4*x^3 - y"),
    ("single24", "-2*x^5*y^2 + 8*x^4 - 3*x^2 + 5*x"),
    ("single24", "4*x^5*y^2 - 16*x^4 + 6*x^2"),
    ("single24", "-5*x^4*y^3 - 7*x^3*y^2 + 20*x^3*y + 8*x^2 - 2*x*y"),
    ("single24", "x^4*y^2 - 4*x^3 - 8*x^2 + 3*x*y^5 + 9*y^4 - 12*y^3"),
    ("single24", "5*x^4*y^2 - 20*x^3 - 2*x^2*y^3 - 5*x*y^6 - 2*x*y^2 + 4*x*y - 20*y^5 + 20*y^4"),
    ("single24", "5*x^4*y^2 + 4*x^3*y^4 - 20*x^3 + 8*x^2*y^3 - 16*x^2*y^2 + 5*x*y^2 - 3*x*y - 19"),
    ("single24", "2*x*y^5 - 2*x*y^2 + 6*y^4 - 8*y^3 - y^2 + 8"),
    ("single24", "-5*x^4*y^2 - 3*x^3*y^3 + 20*x^3 - 3*x^2*y^2 + 12*x^2*y + 4*x*y"),
    ("single24", "3*x^4*y^2 - 12*x^3 - 1"),
    ("single24", "5*x^5*y^2 - 20*x^4 - 2*x*y"),
    ("single24", "4*x^5*y^2 - 16*x^4 - 5"),
    ("single24", "-5*x^4*y^3 - 5*x^3*y^2 + 20*x^3*y + 3*x*y^4 + 6*y^3 - 16*y^2"),
    ("single24", "x^5*y^2 + 4*x^4*y^2 - 4*x^4 - 16*x^3 + 5*y^2"),
    ("single24", "-2*x^5*y^2 + 8*x^4 - 3*x^3*y^3 - 3*x^2*y^2 + 12*x^2*y - 4*x^2"),
    ("single24", "2*x^4*y^2 - 8*x^3 + 2*x*y"),
    ("worked", "x^3*y^5 + 4*x^2*y^4 - 2*x^2*y^3 + 2*x*y^3 - 2*x*y^2 + x*y - 1"),
    ("halving", "x^3*y^5 + 4*x^2*y^4 - 2*x^2*y^3 + 2*x*y^3 - 2*x*y^2 + x*y - 1"),
    ("halving", "x^4*y^7 + 8*x^3*y^6 - 2*x^3*y^5 + 12*x^2*y^5 - 6*x^2*y^4 + x^2*y^3 - 1"),
    ("constant131", "x^4*y^11 + 15*x^3*y^10 - 3*x^3*y^8 + 57*x^2*y^9 - 21*x^2*y^7"
                    " + 3*x^2*y^5 + 48*x*y^8 - 24*x*y^6 + 6*x*y^4 - x*y^2 - 1"),
    ("worked", "-3*x^4*y^2 + 2*x^3*y^2 + 3*x^3 + 2*x^2*y^2 + 5*x^2*y"),
    ("worked", "-3*x^4*y^6 + 2*x^3*y^6 - 48*x^3*y^5 + 3*x^3*y^4 + 2*x^2*y^6 + 29*x^2*y^5"
               " - 216*x^2*y^4 + 36*x^2*y^3 + 16*x*y^5 + 112*x*y^4 - 288*x*y^3 + 108*x*y^2 + 24*y^4"
               " + 108*y^3 - 72*y^2 + 72*y"),
    ("worked", "9*x^8*y^4 - 12*x^7*y^4 + 72*x^7*y^3 - 18*x^7*y^2 - 8*x^6*y^4 - 114*x^6*y^3"
               " + 120*x^6*y^2 - 54*x^6*y + 9*x^6 + 8*x^5*y^4 - 28*x^5*y^3 - 216*x^5*y^2 + 66*x^5*y"
               " - 54*x^5 + 4*x^4*y^4 + 60*x^4*y^3 + 35*x^4*y^2 + 6*x^4*y + 81*x^4 + 16*x^3*y^3"
               " + 92*x^3*y^2 + 70*x^3*y + 36*x^3 + 8*x^2*y^2 + 20*x^2*y"),
    ("halving", "5*x^4*y^2 - 7*x^3*y^2 - 5*x^3 + 3*y^3"),
    ("halving", "20*x^10*y^2 - 35*x^9*y^3 - 28*x^9*y^2 + 240*x^9*y - 20*x^9 + 49*x^8*y^3"
                " - 320*x^8*y^2 - 301*x^8*y + 600*x^8 + 448*x^7*y^2 - 460*x^7*y - 870*x^7"
                " + 12*x^6*y^3 + 644*x^6*y + 360*x^6 - 21*x^5*y^4 + 216*x^5*y^2 - 504*x^5"
                " - 20*x^4*y^6 - 297*x^4*y^3 + 1080*x^4*y + 28*x^3*y^6 + 20*x^3*y^4 - 1044*x^3*y^2"
                " + 1440*x^3 - 612*x^2*y + 432*x - 12*y^7"),
]


def expanded_leading(session, element):
    """`_leading` over the whole digit pool keyed at once, every tail divided
    before the scan, as it ran before the pool put its tails off."""
    digits = digit_pool(session, element)
    digits.rest()
    return evaluate._leading(session, digits.keyed, None)


class TestPoolTails:
    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_deferred_tails_lead_as_the_expanded_pool(self, request, fixture, monkeypatch):
        # value, lam, ref and parities, or the refusal's type and message,
        # equal the expanded pool's at depth limits 0, 1, 2 and 64; the
        # budget counts the divisions done, so an element whose expansion
        # runs past it may still certify on a level below its undivided
        # tails, and its expanded pool is then read under a raised budget
        desc = request.getfixturevalue(fixture)
        cancelling = [parse_expr(expr) for name, expr in CANCELLING_ELEMENTS if name == fixture]
        cancelling.append(X.mul(Y).mul(omega_element(desc, 1).pow(2)).sub(WeylElement.scalar(1)))
        # a tower element added to a cancelling element may wait in a tail
        # above the cancelled level and lead after it
        batch = cancelling + [f.add(w) for f in cancelling for w in tower_elements(desc, 3)]
        batch.append(parse_expr("(x^3*y^5 + 2*x*y^2 - 5)*(x^2*y^4 - 3*x*y + 7)"))
        if desc.rule is not None:
            batch += [Y.pow(76), Y.pow(100)]
        rng = random.Random(f"level-first:{fixture}")
        for _ in range(8):
            f, g = sample_element(rng, max_degree=6), sample_element(rng, max_degree=6)
            batch += [f, f.mul(g)]
        kinds, past_budget = set(), []
        for depth in (0, 1, 2, 64):
            for element in batch:
                got = _outcome(evaluate.leading_data, Valuation(desc, depth), element)
                want = _outcome(expanded_leading, Valuation(desc, depth), element)
                if got[0] == "ok" and want[0] == "BudgetExceeded":
                    past_budget.append((depth, element))
                    with monkeypatch.context() as raised:
                        raised.setattr(evaluate, "DIGIT_WORK_BUDGET", 1 << 20)
                        want = _outcome(expanded_leading, Valuation(desc, depth), element)
                assert got == want
                kinds.add(got[0])
        assert "ok" in kinds and "DepthExceeded" in kinds
        assert ("BudgetExceeded" in kinds) == (desc.rule is not None)
        # y^100 on constant(1,3,1) certifies at 100/3, and y^76 and y^100 on
        # halving at 38 and 50, on their own least-weight terms, where the
        # expanded pool runs past the budget
        power = {"halving": [Y.pow(76), Y.pow(100)], "constant131": [Y.pow(100)]}.get(fixture, [])
        assert past_budget == [(64, f) for f in power]

    @pytest.mark.parametrize(
        "fixture, word, expected",
        [
            ("halving", ((4, 1),), {"q": "1/16"}),
            ("worked", ((0, 1), (2, 3), (3, 2)), {"q": "-1/4", "k_xi": 2, "k_mu": 0, "scale": "1/8"}),
        ],
    )
    def test_a_tail_word_above_a_cancelling_level_leads(self, request, fixture, word, expected):
        # F5's x y w_1^2 - 1 cancels at level 0 and leads at 1/8 on halving,
        # at xi on worked; the digit word w_3, or x w_1^3 w_2^2, lies between
        # the two, waits in an undivided tail while level 0 is scanned, and
        # then leads
        desc = request.getfixturevalue(fixture)
        f5 = X.mul(Y).mul(omega_element(desc, 1).pow(2)).sub(WeylElement.scalar(1))
        session = Valuation(desc)
        element = f5.add(word_element(desc, word))
        digits = digit_pool(session, element)
        level = [w for w, _, key in digits.keyed
                 if evaluate._key_cmp(key, digits.level, session.scale) == 0]
        assert level == [(), ((0, 1), (1, 1), (2, 2))]
        # the word waits in an undivided tail, which `_leading` resumes
        assert word not in {w for w, _, _ in digits.keyed}
        assert word in {w for w, _, _ in digit_pool(session, element).rest()}
        data = evaluate._leading(session, digits.keyed, digits)
        assert data.value == ValueGroupElement.from_json(expected)
        assert data.value.cmp(eval_element(desc, f5)) < 0


def random_valid_descriptor(rng):
    """A random descriptor that `validate` accepts: 1-3 steps,
    m_1 of either sign, residue units rational or not, random alpha signs,
    and a terminal, a rule or a bare prefix."""
    while True:
        steps = []
        for idx in range(1, rng.randint(1, 3) + 1):
            n = rng.choice([1, 2, 3, 4, 6, 8])
            m = rng.choice([-3, -1, 1, 3, 5]) if idx == 1 else rng.choice([1, 2, 3])
            beta = Rat(rng.choice([1, 2, 3, -2]), rng.choice([1, 1, 2, 3]))
            if rng.random() < 0.6:
                beta = abs(beta) ** n * (rng.choice([1, -1]) if n % 2 else 1)
            steps.append({"m": m, "n": n, "beta": str(beta)})
        data = {"steps": steps}
        tail = rng.choice(["prefix", "terminal", "halving", "constant(1,3,1)"])
        if tail == "terminal":
            data["tail"] = SINGLE_TERMINAL_JSON["tail"]
        elif tail != "prefix":
            data["tail"] = {"kind": "rule", "rule": tail}
        data["alpha_signs"] = [
            {"i": i, "j": j, "sign": rng.choice([1, -1])}
            for i in range(1, len(steps) + 1)
            for j in range(i + 1, len(steps) + 1)
            if steps[i - 1]["n"] % 2 == 0 and steps[j - 1]["n"] % 2 == 0
        ]
        try:
            desc = OmegaDescriptor.from_json(data)
        except WeylvalError:
            continue
        if not validate(desc):
            return desc


def ordering_signs(orderings, data):
    """Every ordering's sign of an element from its leading data."""
    return [sgn(data.lam) * o.character(data.eps_basis, data.eps_terminal)
            for o in orderings]


def direct_least_monomial(session, element, degrees):
    """The least-weight stage on a monomial c x^i y^j with no value class:
    its reference and residue computed afresh for its own value, as an
    oracle.  The leading data; None where the stage leaves the monomial to
    the pool before it reads them; or the WeylvalError that reading them
    raises, which sends the monomial to the pool too."""
    ((j, row),) = element.rows.items()
    ((i, c),) = row.items()
    try:
        if degrees:
            session.gen_key(len(degrees))
        num, den, k_xi = session.gen_key(0) if j else (0, 1, 0)
    except WeylvalError:
        return None
    if k_xi:
        return None
    value = session.key_value((j * num - i * den, den, 0))
    try:
        ref = evaluate._canonical_ref(session, value)
        word = evaluate._concat(evaluate._invert_pure(ref.word), evaluate._digit_word(i, j, ()))
        res = evaluate._word_residue(session, word)
    except WeylvalError as exc:
        return exc
    return evaluate.LeadingData(value, Rat(c, element.den) * res, ref.word,
                                ref.eps_basis, ref.eps_terminal)


class TestLeastMonomials:
    @pytest.mark.parametrize("fixture", ["halving", "constant131"])
    def test_powers_of_y_need_no_pool(self, request, fixture, monkeypatch):
        # y^k has one term, of weight k m_1/n_1, which certifies with no
        # division, past both budgets of the digit expansion; its data is
        # the pool's where the pool answers, and its signs are sign(y)^k
        desc = request.getfixturevalue(fixture)
        orderings = enumerate_orderings(desc)
        pooled = {k: expanded_leading(Valuation(desc), Y.pow(k)) for k in (1, 2, 3, 5, 8, 13, 30)}
        y_signs = ordering_signs(orderings, pooled[1])

        def refuse(*args):
            raise AssertionError("the digit pool was reached")

        monkeypatch.setattr(evaluate, "_DigitPool", refuse)
        v_y = desc.step(1).ratio()
        for k in range(1, 730):
            data = Valuation(desc).leading(WeylElement.monomial(0, k))
            assert data.value == rational(k * v_y)
            assert ordering_signs(orderings, data) == [s**k for s in y_signs]
            assert data == pooled.get(k, data)

    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_cancelling_elements_reach_the_pool(self, request, fixture):
        # a cancelling element's least-weight terms cancel, and so do those
        # of every tower element and every product of two
        desc = request.getfixturevalue(fixture)
        towers = tower_elements(desc, 3)
        batch = [parse_expr(expr) for name, expr in CANCELLING_ELEMENTS if name == fixture]
        batch += towers + [f.mul(g) for k, f in enumerate(towers) for g in towers[k:]]
        for element in batch:
            session = Valuation(desc)
            degrees = evaluate._divisor_degrees(session, max(element.rows))
            assert evaluate._least_monomials(session, element, degrees) is None

    def test_random_descriptors_lead_as_the_expanded_pool(self, monkeypatch):
        # value, lam, ref and parities, or the refusal's type and message,
        # equal the expanded pool's at depth limits 1 and 64; where the pool
        # runs past its budget, its expansion under a raised budget
        rng = random.Random(35)
        certified, kinds, shapes = [], set(), set()
        least_monomials = evaluate._least_monomials
        monkeypatch.setattr(
            evaluate, "_least_monomials",
            lambda *args: certified.append(least_monomials(*args)) or certified[-1],
        )
        # y itself carries the terminal value of the first descriptor
        irrational_y = OmegaDescriptor.from_json({"steps": [], "tail": SINGLE_TERMINAL_JSON["tail"]})
        for desc in [irrational_y] + [random_valid_descriptor(rng) for _ in range(100)]:
            shapes.add("terminal" if desc.terminal else "rule" if desc.rule else "prefix")
            if desc.explicit_steps and desc.explicit_steps[0].m < 0:
                shapes.add("m_1 < 0")
            f, g = sample_element(rng, max_degree=5), sample_element(rng, max_degree=4)
            batch = [f, f.mul(g).mul(WeylElement.scalar(Rat(1, rng.randint(2, 9)))),
                     Y.pow(rng.randint(2, 40)),
                     elem({(rng.randint(0, 4), rng.randint(1, 12)): 1, (0, 0): rng.randint(1, 5)})]
            batch += [w.mul(g) for w in tower_elements(desc, 1)]
            for depth in (1, 64):
                for element in batch:
                    got = _outcome(evaluate.leading_data, Valuation(desc, depth), element)
                    want = _outcome(expanded_leading, Valuation(desc, depth), element)
                    if got[0] == "ok" and want[0] == "BudgetExceeded":
                        with monkeypatch.context() as raised:
                            raised.setattr(evaluate, "DIGIT_WORK_BUDGET", 1 << 22)
                            want = _outcome(expanded_leading, Valuation(desc, depth), element)
                    assert got == want
                    kinds.add(got[0])
        assert shapes == {"terminal", "rule", "prefix", "m_1 < 0"}
        assert {"ok", "DepthExceeded", "NoRationalRoot"} <= kinds
        # most elements certify before the pool, and some reach it
        assert None in certified and certified.count(None) < len(certified) / 2

    def test_value_classes_answer_as_the_direct_computation(self):
        # every c x^i y^j, 0 <= i <= 8 and 0 <= j <= 16, in shuffled order
        # at depth limits 1 and 64 on one descriptor each: the stage's data
        # from its value classes equals the direct computation's, and a
        # class whose build refuses raises the direct refusal, type and
        # message, and is not kept
        rng = random.Random(36)
        descs = [OmegaDescriptor.from_json(FIXTURE_JSONS[name]) for name in FIXTURE_NAMES]
        descs += [random_valid_descriptor(rng) for _ in range(100)]
        cases = [(i, j, depth) for i in range(9) for j in range(17) for depth in (1, 64)]
        answered, refused = 0, 0
        for desc in descs:
            rng.shuffle(cases)
            for i, j, depth in cases:
                element = WeylElement({(i, j): Rat(rng.choice([1, -2, 3]), rng.choice([1, 5]))})
                session = Valuation(desc, depth)
                degrees = evaluate._divisor_degrees(session, j)
                want = direct_least_monomial(session, element, degrees)
                got = evaluate._least_monomials(session, element, degrees)
                if not isinstance(want, WeylvalError):
                    assert got == want
                    answered += want is not None
                    continue
                assert got is None
                refused += 1
                num, den, _ = session.gen_key(0) if j else (0, 1, 0)
                t, j_r = divmod(j, den)
                p = (i - t * num) % 2
                with pytest.raises(type(want)) as info:
                    evaluate._least_class(session, p, j_r, num, den)
                assert str(info.value) == str(want)
                assert (p, j_r) not in desc._classes
            assert len(desc._classes) <= 2 * desc.step(1).n
        assert any(desc.step(1).m < 0 for desc in descs)
        assert answered > 20000 and refused > 50

    def test_a_warm_table_keeps_depth_refusals(self):
        # the classes are read after the depth checks, so a table warmed at
        # depth limit 64 leaves every shallower answer and refusal as on a
        # fresh descriptor: y still reads step 1 at depth limit 0
        data = FIXTURE_JSONS["halving"]
        warm = OmegaDescriptor.from_json(data)
        batch = [WeylElement.monomial(i, j) for i in range(5) for j in range(9)]
        batch += [X.mul(Y).add(Y.pow(3)), Y.pow(2).add(X)]
        for element in batch:
            Valuation(warm, 64).leading(element)
        assert len(warm._classes) == 4
        for depth in range(4):
            fresh = OmegaDescriptor.from_json(data)
            for element in batch:
                assert _outcome(Valuation(warm, depth).leading, element) == _outcome(
                    Valuation(fresh, depth).leading, element)
        with pytest.raises(DepthExceeded) as info:
            Valuation(warm, 0).leading(Y)
        assert info.value.consulted == 1

    def test_a_window_over_its_budget_refuses_on_every_call(self):
        # n_1 = 2^4000 over halving puts the data window past its budget,
        # and the reference of every nonzero value reads it: 1 answers,
        # while x^2, in 1's class of value 0, which never reads the window,
        # refuses as x and x^4 do, in either order and on every call
        data = {"steps": [{"m": 1, "n": 2**4000, "beta": "1"}],
                "tail": {"kind": "rule", "rule": "halving"}}
        refusal = ("BudgetExceeded", "the data window reaches step 66, more than the "
                   "budget of 64 rule steps past the explicit ones", None)
        one = ("ok", evaluate.LeadingData(rational(0), Rat(1), (), 0, 0))
        for exprs in (["1", "x", "x^2", "2*x^2-1", "x^4"], ["x^2", "x^4", "2*x^2-1", "x", "1"]):
            desc = OmegaDescriptor.from_json(data)
            for expr in exprs * 2:
                got = _outcome(Valuation(desc).leading, parse_expr(expr))
                assert got == (one if expr == "1" else refusal)
            assert desc._window is None and list(desc._classes) == [(0, 0)]


def reference_tail_bound(session, tail):
    """The key of key + p v(w_k) + mu_0(Q) for a tail, with mu_0(Q) the
    least weight -i + j v(y) over every term x^i y^j of the quotient Q."""
    rows, _, _, key, index, power = tail
    v_y = session.desc.generator_value(0).q
    mu_0 = min(j * v_y - i for j, row in rows.items() for i in row)
    bound = evaluate._key_add(key, session.gen_key(index), power)
    return evaluate._key_add(bound, (mu_0.numerator, mu_0.denominator, 0), 1)


def tail_violations(session, element):
    """Divide each undivided tail of an element's digit pool in full, through
    the pool's own division, one tail at a time: the words that lie below
    their tail's bound or not strictly above the least level, and the number
    of tails."""
    digits = digit_pool(session, element)
    tails, digits.tails = digits.tails, []
    out = []
    for tail in tails:
        bound = reference_tail_bound(session, tail)
        digits.tails = [tail]
        for word, _, _ in digits.rest():
            key = session.word_key(word)
            if (evaluate._key_cmp(key, bound, session.scale) < 0
                    or evaluate._key_cmp(key, digits.level, session.scale) <= 0):
                out.append(word)
    return out, len(tails)


def tail_batch(desc, seed):
    """Products f g of sampled elements, alone and plus w_1 and w_2, after
    y^6 (6 x y^2) + x y^2 - 1, whose least word on worked is w_1, found
    only in the quotient by w_1 at power 1, under rows of several x powers."""
    rng = random.Random(f"tails:{seed}")
    out = [parse_expr("y^6*(6*x*y^2) + x*y^2 - 1")]
    for _ in range(6):
        fg = sample_element(rng, max_degree=6).mul(sample_element(rng, max_degree=6))
        out += [fg] + [fg.add(w) for w in tower_elements(desc, 2)]
    return out


def tail_check(named_descs):
    """(words off their bound, tails divided) over the tail batches of
    several descriptors at depth limits 2 and 64."""
    words, tails = [], 0
    for name, desc in named_descs:
        for element in tail_batch(desc, name):
            for depth in (2, 64):
                try:
                    found, count = tail_violations(Valuation(desc, depth), element)
                except DepthExceeded:
                    continue
                words += found
                tails += count
    return words, tails


class TestTailBound:
    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_tail_words_lie_at_or_above_their_bound(self, request, fixture):
        # every word of an undivided tail has value at least key + p v(w_k)
        # + mu_0(Q), and so lies strictly above the level; single24's bare
        # prefix never divides, so it leaves no tail
        words, tails = tail_check([(fixture, request.getfixturevalue(fixture))])
        assert words == []
        assert (tails > 0) == (fixture != "single24")

    def test_random_descriptors_keep_the_bound(self):
        # a seeded batch of valid descriptors, whose tails on m_1 < 0,
        # terminal and rule towers are each checked
        rng = random.Random(32)
        words, tails = [], {"m_1 < 0": 0, "terminal": 0, "rule": 0}
        for k in range(20):
            desc = random_extendable(rng)
            found, count = tail_check([(k, desc)])
            words += found
            for kind, holds in (("m_1 < 0", desc.step(1).m < 0), ("terminal", desc.terminal),
                                ("rule", desc.rule)):
                tails[kind] += count if holds else 0
        assert words == []
        assert all(tails.values()), tails

    def test_the_smallest_x_power_is_no_bound(self, worked, monkeypatch):
        # the least weight of a row sits at its largest x power, as v(x) = -1;
        # a bound read off the smallest one puts off words at or below the
        # level, such as w_1 of the first element of worked's batch
        def smallest(rows, y_key):
            num, den, _ = y_key
            return (min(j * num - min(row) * den for j, row in rows.items()), den, 0)

        monkeypatch.setattr(evaluate, "_least_weight", smallest)
        words, _ = tail_check([("worked", worked)])
        assert words


def tower_elements(desc, top):
    """w_1 .. w_top, as far as the descriptor builds them."""
    out = []
    for i in range(1, top + 1):
        try:
            out.append(omega_element(desc, i))
        except WeylvalError:
            break
    return out


def word_element(desc, word):
    """The Weyl element of a word of generator powers: x^k in slot 0, and
    the tower element w_{s-1} from `omega_element` in slot s >= 1."""
    out = WeylElement.scalar(1)
    for s, k in word:
        out = out.mul(WeylElement.monomial(k, 0) if s == 0 else omega_element(desc, s - 1).pow(k))
    return out


class TestSortWord:
    @pytest.mark.parametrize(
        "fixture", ["worked", "halving", "constant131", "single24", "single_terminal"]
    )
    def test_sorting_is_an_exact_weyl_identity(self, request, fixture):
        # word = sorted + sum c u over the corrections, each swap's
        # commutator spliced in; each u sits strictly above the word
        desc = request.getfixturevalue(fixture)
        session = Valuation(desc)
        # slots 0..3 whose tower element builds, with its y-degree: a bare
        # prefix stops early
        degrees = {0: 0}
        for s in (1, 2, 3):
            try:
                degrees[s] = max(omega_element(desc, s - 1).rows)
            except WeylvalError:
                break
        slots = list(degrees)
        try:
            for s in slots:
                session.gen_key(s - 1)
            declared = True
        except DepthExceeded:
            declared = False
        rng = random.Random(23)
        words = []
        while len(words) < 150:
            word = []
            for _ in range(rng.randint(2, 4)):
                s = rng.choice(slots)
                word.append((s, rng.randint(-4, 4) if s == 0 else rng.randint(0, 3)))
            # y-degree 27 at most keeps the products in `word_element` small
            if sum(degrees[s] * k for s, k in word) <= 27:
                words.append(tuple(word))
        swapped = 0
        for word in words:
            sorted_word, corrections = evaluate._sort_word(session, word)
            swapped += bool(corrections)
            total = word_element(desc, sorted_word)
            for c, u in corrections:
                total = total.add(word_element(desc, u).mul(WeylElement.scalar(c)))
            assert total == word_element(desc, word)
            if declared:
                key = session.word_key(word)
                for _, u in corrections:
                    assert evaluate._key_cmp(session.word_key(u), key, session.scale) > 0
        assert swapped > 50


class TestMonomialGap:
    def test_single_index(self, worked):
        # x*y^2 - its residue lands at the next tower value
        assert monomial_gap_value(worked, (1, 2)) == rational(1, 4)

    def test_scalar_word(self, worked):
        assert monomial_gap_value(worked, (0,)) is INFINITY

    def test_nonzero_word_rejected(self, worked):
        with pytest.raises(NonzeroValue):
            monomial_gap_value(worked, (0, 1))

    def test_equal_minimum_with_cancellation(self):
        # Steps (1,3),(1,4),(1,4),(1,7): the word w0^3 * w1^{-4} has value 0
        # and both factors sit at next-level value 1/4; their leading
        # contributions cancel (3*4 - 4*3 = 0 in lcm weights), so the gap
        # drops past 1/4 down the tower: 1/4 + 1/7 = 11/28.
        dd = OmegaDescriptor.from_json(
            {
                "steps": [
                    {"m": 1, "n": 3, "beta": "1"},
                    {"m": 1, "n": 4, "beta": "1"},
                    {"m": 1, "n": 4, "beta": "1"},
                    {"m": 1, "n": 7, "beta": "1"},
                ],
                "alpha_signs": [{"i": 2, "j": 3, "sign": 1}],
            }
        )
        gap = monomial_gap_value(dd, (0, 3, -4))
        assert gap == rational(11, 28)
        assert gap.cmp(rational(1, 4)) > 0
        # unique-minimum control on the same tower
        assert monomial_gap_value(dd, (1, 3, 0)) == rational(1, 4)

    # The w_1 power is not a multiple of the next step's n, so the word is
    # outside the unit-product lattice and its gap goes through a sum-inverse
    # block, which the word sorter has to move past the generators.
    @pytest.mark.parametrize(
        "fixture, exponents, expected",
        [
            ("worked", (1, 1, 2), {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "1/8"}),
            ("halving", (1, 1, 2), {"q": "1/8"}),
            ("halving", (2, 3, 2), {"q": "1/8"}),
            ("constant131", (1, 2, 3), {"q": "1/27"}),
        ],
    )
    def test_gap_through_sum_inverse_block(self, request, fixture, exponents, expected):
        desc = request.getfixturevalue(fixture)
        gap = monomial_gap_value(desc, exponents)
        assert gap == ValueGroupElement.from_json(expected)
        assert gap == eval_element(desc, omega_element(desc, 2))
        a, k0, k1 = exponents
        word = X.pow(a).mul(Y.pow(k0)).mul(omega_element(desc, 1).pow(k1))
        rho = Valuation(desc).residue(word)
        assert gap == eval_element(desc, word.sub(WeylElement.scalar(rho)))

    def test_cancelling_gaps_expand_a_sum_inverse_block(self, worked, monkeypatch):
        # A = x^-2 y^-3 w_1^-2 and B = x y w_1^2 have value 0, and A - rho_A and
        # B - rho_B lead at the same level with relative residues lam_A and
        # lam_B; lam_B (A - rho_A) - lam_A (B - rho_B) cancels there, and the
        # next level is reached through the expansion of a sum-inverse block.
        # Pinned: the value and residue the evaluator gives.
        calls = []
        original = evaluate._expand_si
        monkeypatch.setattr(
            evaluate, "_expand_si", lambda *args: calls.append(args) or original(*args)
        )
        session = Valuation(worked)
        gaps = []
        for word in (((0, -2), (1, -3), (2, -2)), ((0, 1), (1, 1), (2, 2))):
            rho = evaluate._word_residue(session, word)
            pool = keyed_pool(session, {word: Rat(1), (): -rho})
            gaps.append((word, rho, evaluate._leading(session, *pool)))
        (a, rho_a, lead_a), (b, rho_b, lead_b) = gaps
        assert lead_a.value == lead_b.value
        assert not calls
        pool = {a: lead_b.lam, b: -lead_a.lam, (): lead_a.lam * rho_b - lead_b.lam * rho_a}
        combined = evaluate._leading(session, *keyed_pool(session, pool))
        assert combined.value.cmp(lead_a.value) > 0
        assert (combined.value, combined.lam) == (rational(1, 4), Rat(-3, 2))
        assert calls


# Steps (1,8,-8), (1,6,-1) under a terminal: a representative of v(x) whose
# bulk is not in tower digits can need the square root of 8
NO_RATIONAL_ROOT_JSON = {
    "steps": [{"m": 1, "n": 8, "beta": "-8"}, {"m": 1, "n": 6, "beta": "-1"}],
    "tail": {"kind": "irrational", "value": {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "1/100"}},
    "alpha_signs": [{"i": 1, "j": 2, "sign": 1}],
}


def digit_bounds(desc, r):
    """{i: 2 e_i - 1} for tower slots i = 1..r, with e_i = L_i / L_{i-1}."""
    bounds, lcm = {}, 1
    for i in range(1, r + 1):
        deeper = math.lcm(lcm, desc.step(i).n)
        bounds[i] = 2 * (deeper // lcm) - 1
        lcm = deeper
    return bounds


def reference_canonical_ref(session, g):
    """The canonical representative by a walk on Fractions: `half`, the
    bulk's value, loses d_i m_i/n_i per step, read through `step.ratio()`."""
    desc = session.desc
    if g.is_zero():
        return evaluate.CanonicalRef((), 0, 0)
    c_t = 0
    q = g.q
    if g.k_xi:
        c_t = g.k_xi // desc.terminal.value.k_xi
        q = g.q - c_t * desc.terminal.value.q
    r = data_window(desc)
    lcms = [1]
    for i in range(1, r + 1):
        lcms.append(math.lcm(lcms[-1], desc.step(i).n))
    while lcms[-1] % q.denominator:
        r += 1
        lcms.append(math.lcm(lcms[-1], desc.step(r).n))
    h_max, b = 0, 0
    for i in range(1, r + 1):
        if desc.h(i) > h_max:
            h_max, b = desc.h(i), i
    eps_b = 1 if q != 0 and v2(q) == -h_max else 0
    v_b = Rat(-1) if b == 0 else desc.step(b).ratio()
    half = (q - eps_b * v_b) / 2
    exps = [0] * (r + 1)
    exps[b] = eps_b
    for i in range(r, 0, -1):
        step = desc.step(i)
        e_i = lcms[i] // lcms[i - 1]
        u_i = step.m * lcms[i] // step.n
        d_i = (half * lcms[i]).numerator * pow(u_i, -1, e_i) % e_i
        half -= d_i * step.ratio()
        exps[i] += 2 * d_i
    assert half.denominator == 1
    exps[0] -= 2 * half.numerator
    factors = [(s, k) for s, k in enumerate(exps) if k]
    if c_t:
        factors.append((len(desc.explicit_steps) + 1, c_t))
    return evaluate.CanonicalRef(tuple(factors), eps_b, c_t & 1)


# Steps (1,3^i,1) for i <= 8 and then (1,2,1) under constant(1,3,1): the
# basis generator is w_8, behind eight odd steps
DEEP_BASIS_JSON = {
    "steps": [{"m": 1, "n": 3**i, "beta": "1"} for i in range(1, 9)]
    + [{"m": 1, "n": 2, "beta": "1"}],
    "tail": {"kind": "rule", "rule": "constant(1,3,1)"},
}


class TestCanonicalRef:
    @pytest.mark.parametrize(
        "fixture", FIXTURE_NAMES + ["no_rational_root", "zero_ratio", "deep_basis"]
    )
    def test_matches_the_fraction_walk(self, request, fixture):
        extra = {
            "no_rational_root": NO_RATIONAL_ROOT_JSON,
            "zero_ratio": ZERO_RATIO_JSON,
            "deep_basis": DEEP_BASIS_JSON,
        }
        if fixture in extra:
            desc = OmegaDescriptor.from_json(extra[fixture])
        else:
            desc = request.getfixturevalue(fixture)
        session = Valuation(desc)
        # on a rule, slots up to 13 read steps past the data window
        r = 13 if desc.rule else len(desc.explicit_steps)
        slots = list(range(r + 1)) + ([r + 1] if desc.terminal else [])
        rng = random.Random(fixture)
        for _ in range(40):
            word = tuple((s, rng.randint(-9, 9)) for s in rng.sample(slots, min(3, len(slots))))
            value = session.key_value(session.word_key(word))
            assert evaluate._canonical_ref(session, value) == reference_canonical_ref(
                session, value
            )

    def test_denominators_past_the_data_window(self, halving):
        session = Valuation(halving)
        for k in range(9, 13):
            value = rational(1, 2**k)
            ref = evaluate._canonical_ref(session, value)
            assert ref == reference_canonical_ref(session, value)
            assert (ref.word, ref.eps_basis) == (((k, 1),), 1)

    @pytest.mark.parametrize(
        "fixture", ["worked", "halving", "constant131", "single24", "single_terminal"]
    )
    def test_digits_stay_within_their_bound(self, request, fixture):
        desc = request.getfixturevalue(fixture)
        session = Valuation(desc)
        # tower slots 1..r hold w_0..w_{r-1}; a terminal w_N sits in slot N + 1
        r = 8 if desc.rule else len(desc.explicit_steps)
        slots = list(range(r + 1)) + ([r + 1] if desc.terminal else [])
        bounds = digit_bounds(desc, r)
        rng = random.Random(7)
        for _ in range(60):
            word = tuple((s, rng.randint(-40, 40)) for s in slots)
            value = session.key_value(session.word_key(word))
            ref = evaluate._canonical_ref(session, value)
            assert session.key_value(session.word_key(ref.word)) == value
            for s, k in ref.word:
                if s in bounds:
                    assert 0 <= k <= bounds[s]
                else:
                    assert s == 0 or (desc.terminal and s == r + 1)

    def test_representative_needs_no_irrational_root(self):
        desc = OmegaDescriptor.from_json(NO_RATIONAL_ROOT_JSON)
        for text, q in (("x", -1), ("6*x^6 + 9*x^3*y^2", -6)):
            element = parse_expr(text)
            assert eval_element(desc, element) == rational(q)
            assert shadow_eval(desc, element) == rational(q)


def reference_word_value(session, word):
    """v(word) summed as ValueGroupElements, factor by factor.

    A generator power adds its generator value times its exponent, and a
    sum-inverse block nothing.
    """
    total = rational(0)
    for f in word:
        if type(f) is tuple:
            value = session.key_value(session.gen_key(f[0] - 1))
            total = total.add(value.scalar_mul(f[1]))
    return total


KEYS = st.tuples(st.integers(-60, 60), st.integers(1, 12), st.integers(-3, 3))
SCALES = st.fractions(min_value=Fraction(1, 12), max_value=5, max_denominator=12).filter(
    lambda q: q > 0
)


def sign_with_sqrt2(p, r):
    """Sign of p + r sqrt(2) for fractions, with sqrt(2) to 50 digits.

    The test's numerators and denominators are below 1,000, so a nonzero
    p + r sqrt(2) is far above the rounding error.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        sqrt2 = Decimal(2).sqrt()
        d = Decimal(p.numerator) / p.denominator + Decimal(r.numerator) / r.denominator * sqrt2
    return (d > 0) - (d < 0)


class TestValueKeys:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(KEYS, KEYS, st.integers(0, 4), SCALES)
    # 2/3 against sqrt(2)/2, and 1 against sqrt(2)/2: close enough that a
    # key comparison which drops a denominator factor gets the sign wrong
    @example((2, 3, 0), (0, 1, 1), 0, Fraction(1, 2))
    @example((0, 1, 1), (1, 1, 0), 0, Fraction(1, 2))
    def test_comparison_agrees_with_the_value_group(self, a, b, equal, scale):
        if equal:
            # the same value over a multiplied denominator
            b = (a[0] * equal, a[1] * equal, a[2])
        want = sign_with_sqrt2(
            Fraction(a[0], a[1]) - Fraction(b[0], b[1]), (a[2] - b[2]) * scale
        )
        assert ValueGroupElement(Fraction(a[0], a[1]), a[2], 0, scale).cmp(
            ValueGroupElement(Fraction(b[0], b[1]), b[2], 0, scale)
        ) == want
        assert evaluate._key_cmp(a, b, scale) == want
        assert evaluate._key_cmp(b, a, scale) == -want

    @pytest.mark.parametrize(
        "fixture", ["worked", "halving", "constant131", "single24", "single_terminal"]
    )
    def test_word_keys_match_the_reference_sum(self, request, fixture):
        desc = request.getfixturevalue(fixture)
        session, reference = Valuation(desc), Valuation(desc)
        # slots 0..r hold x, w_0..w_{r-1}; a terminal w_N sits in slot N + 1
        r = 6 if desc.rule else len(desc.explicit_steps)
        slots = list(range(r + 1)) + ([r + 1] if desc.terminal else [])
        block = evaluate.SumInverse(((1, 2),), 2, Rat(1))
        rng = random.Random(11)
        previous = None
        for _ in range(150):
            word = []
            for _ in range(rng.randint(1, 5)):
                word.append((rng.choice(slots), rng.randint(-9, 9) or 1))
            if rng.random() < 0.2:
                word.append(block)
            word = tuple(word)
            key = session.word_key(word)
            want = reference_word_value(reference, word)
            assert session.key_value(key) == want
            if previous is not None:
                assert evaluate._key_cmp(key, previous[0], session.scale) == want.cmp(previous[1])
            previous = (key, want)


class TestSumInverseBlocks:
    @pytest.mark.parametrize(
        "fixture, exponents",
        [("worked", (1, 1, 2)), ("halving", (2, 3, 2)), ("constant131", (1, 2, 3))],
    )
    def test_emissions_end_with_their_block(self, request, fixture, exponents):
        session = Valuation(request.getfixturevalue(fixture))
        word = tuple((s, k) for s, k in enumerate(exponents) if k)
        (si,) = {u[-1] for _, u in evaluate._expand_pure(session, word)}
        assert type(si) is evaluate.SumInverse
        emissions = evaluate._expand_si(session, si)
        assert emissions
        for _, u in emissions:
            assert u[-1] == si
            # no generator right of a block
            first = next(p for p, f in enumerate(u) if type(f) is evaluate.SumInverse)
            assert all(type(f) is evaluate.SumInverse for f in u[first:])


class TestUnitGenerators:
    # The monoid of value-0 monomials over x, w_0, w_1 on `worked` is
    # generated by x*w_0^2, x*w_0*w_1^2 and x*w_1^4.
    def test_single_step(self, worked):
        assert eval_element(worked, X.mul(Y.pow(2))) == rational(0)

    def test_two_steps(self, worked):
        w1 = omega_element(worked, 1)
        for word in (X.mul(Y).mul(w1.pow(2)), X.mul(w1.pow(4))):
            assert eval_element(worked, word) == rational(0)


class TestEquivalence:
    def test_reflexive(self, worked):
        f = elem({(1, 2): 1, (0, 1): 3})
        assert equivalent(worked, f, f)

    def test_higher_order_perturbation(self, worked):
        base = elem({(1, 2): 1})
        w1sq = omega_element(worked, 1).pow(2)
        assert equivalent(worked, base, base.add(w1sq))

    def test_different_values(self, worked):
        assert not equivalent(worked, Y, X)

    def test_same_value_different_residue(self, worked):
        one = WeylElement.scalar(Rat(1))
        two = WeylElement.scalar(Rat(2))
        assert not equivalent(worked, one, two)

    def test_multiplication_congruence(self, worked, rng):
        base = elem({(1, 2): 1})
        pert = base.add(omega_element(worked, 1).pow(2))
        for _ in range(10):
            c = sample_element(rng, max_degree=3, max_terms=3, coeff_bound=5)
            if c.is_zero():
                continue
            assert equivalent(worked, c.mul(base), c.mul(pert))
            assert equivalent(worked, base.mul(c), pert.mul(c))


class TestShadowOracle:
    def test_spot_values(self, worked):
        assert shadow_eval(worked, elem({(2, 4): 1, (0, 0): -1})) == rational(1, 4)
        assert shadow_eval(worked, Y) == rational(1, 2)

    def test_agreement_batch(self, worked, rng):
        for _ in range(60):
            f = sample_element(rng, max_degree=6, max_terms=5, coeff_bound=9)
            main = eval_element(worked, f)
            shadow = shadow_eval(worked, f)
            if main is INFINITY:
                assert shadow is INFINITY
            else:
                assert main.cmp(shadow) == 0

    def test_agreement_batch_bare_prefix(self, single24, rng):
        # on a bare prefix both oracles give the same value, or both find
        # it undetermined; g*w_1 + k (k of low degree) hits both outcomes
        w1 = omega_element(single24, 1)
        outcomes = set()
        for _ in range(40):
            f = sample_element(rng, max_degree=6, max_terms=5, coeff_bound=9)
            g = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=5)
            k = sample_element(rng, max_degree=2, max_terms=2, coeff_bound=5)
            for h in (f, g.mul(w1).add(k)):
                results = []
                for oracle in (eval_element, shadow_eval):
                    try:
                        results.append(oracle(single24, h))
                    except DepthExceeded:
                        results.append(None)
                main, shadow = results
                if main is None or main is INFINITY:
                    assert shadow is main
                else:
                    assert main.cmp(shadow) == 0
                outcomes.add(main is None)
        assert outcomes == {False, True}


class TestValuationLaws:
    def test_product_rule(self, worked, rng):
        for _ in range(40):
            f = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=7)
            g = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=7)
            if f.is_zero() or g.is_zero():
                continue
            assert eval_element(worked, f.mul(g)).cmp(
                eval_element(worked, f).add(eval_element(worked, g))
            ) == 0

    def test_ultrametric(self, worked, rng):
        for _ in range(40):
            f = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=7)
            g = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=7)
            vf, vg = eval_element(worked, f), eval_element(worked, g)
            vs = eval_element(worked, f.add(g))
            low = vf if vf.cmp(vg) <= 0 else vg
            assert vs.cmp(low) >= 0
            if vf is not INFINITY and vg is not INFINITY and vf.cmp(vg) != 0:
                assert vs.cmp(low) == 0

    def test_commutator_dominance(self, worked):
        # v([x, y]) = 0 > v(x) + v(y) = -1/2
        assert eval_element(worked, commutator(X, Y)) == rational(0)
        assert rational(0).cmp(rational(-1, 2)) > 0

    def test_strongly_abelian_report(self, worked):
        report = strongly_abelian_sample(worked, seed=5, trials=40, max_degree=4)
        assert report.trials == 40
        assert report.violations == []

    def test_power_comparison(self, worked, rng):
        # pairs 1 + f, 1 + g (value 0, residue 1): the difference value is
        # preserved by powers 2, 3, and -1
        for _ in range(12):
            f = sample_element(rng, max_degree=3, max_terms=3, coeff_bound=5)
            g = sample_element(rng, max_degree=3, max_terms=3, coeff_bound=5)
            one = WeylElement.scalar(Rat(1))
            seven = Y.pow(7)  # v = 7/2 forces the perturbations above 0
            a = one.add(seven.mul(f))
            b = one.add(seven.mul(g))
            base = eval_element(worked, a.sub(b))
            if base is INFINITY:
                continue
            for n in (2, 3):
                assert eval_element(worked, a.pow(n).sub(b.pow(n))).cmp(base) == 0
            inverse_diff = WeylFraction(b.sub(a), a.mul(b))
            assert eval_element(worked, inverse_diff).cmp(base) == 0


class TestSampler:
    def test_reproducible(self):
        a = sample_element(random.Random(3), max_degree=5)
        b = sample_element(random.Random(3), max_degree=5)
        assert a == b

    def test_degree_bound(self, rng):
        for _ in range(20):
            f = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=5)
            for (i, j) in f.terms:
                assert 0 <= i <= 4 and 0 <= j <= 4
