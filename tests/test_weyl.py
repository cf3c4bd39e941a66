"""Normal-form arithmetic on the x/y generators and the operator oracle."""

import random
import tracemalloc
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from weylval import Rat, Valuation, WeylElement, apply_to_poly, commutator, evaluate, weyl
from weylval.descriptor import OmegaDescriptor, OmegaStep, TowerElement, omega_element, tower_row
from weylval.weyl import _int_product


def elem(terms):
    return WeylElement({k: Rat(v) for k, v in terms.items()})


X = WeylElement.x()
Y = WeylElement.y()
ONE = WeylElement.scalar(Rat(1))


def random_element(rng, max_degree=6, max_terms=4, coeff_bound=9):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree)
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[(i, j)] = terms.get((i, j), 0) + c
    return WeylElement({k: Rat(v) for k, v in terms.items() if v})


def random_poly(rng, degree=12):
    return [Rat(rng.randint(-9, 9)) for _ in range(degree + 1)]


class TestNormalize:
    """Written-order products of generators and scalars, in normal form."""

    def test_defining_relation(self):
        assert Y.mul(X) == elem({(1, 1): 1, (0, 0): 1})

    def test_already_normal(self):
        assert X.mul(Y) == elem({(1, 1): 1})

    def test_two_rewrites(self):
        # y^2 x = x y^2 + 2 y
        assert Y.mul(Y).mul(X) == elem({(1, 2): 1, (0, 1): 2})

    def test_scalars_and_elements_in_words(self):
        f = elem({(1, 2): 1})
        # 3 * y * (x*y^2) = 3*x*y^3 + 3*y^2
        assert WeylElement.scalar(Rat(3)).mul(Y).mul(f) == elem({(1, 3): 3, (0, 2): 3})


class TestMul:
    def test_square_of_unit_relation(self):
        f = elem({(1, 2): 1, (0, 0): -1})
        expected = elem({(2, 4): 1, (1, 3): 2, (1, 2): -2, (0, 0): 1})
        assert f.mul(f) == expected

    def test_identity(self):
        f = elem({(3, 2): 5, (0, 1): -2})
        assert f.mul(ONE) == f
        assert ONE.mul(f) == f

    def test_associativity_sample(self):
        rng = random.Random(7)
        for _ in range(40):
            a, b, c = (random_element(rng, 4, 3, 5) for _ in range(3))
            assert a.mul(b).mul(c) == a.mul(b.mul(c))

    def test_distributivity_sample(self):
        rng = random.Random(8)
        for _ in range(40):
            a, b, c = (random_element(rng, 4, 3, 5) for _ in range(3))
            assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


def _falling(c, t):
    out = 1
    for s in range(t):
        out *= c - s
    return out


def reference_mul(a, b):
    """The Leibniz product summed term by term in Rat, as an oracle."""
    out = {}
    for (i, j), c1 in a.terms.items():
        for (k, l), c2 in b.terms.items():
            for t in range(j + 1):
                coeff = comb(j, t) * _falling(k, t)
                if coeff:
                    key = (i + k - t, j + l - t)
                    out[key] = out.get(key, Rat(0)) + c1 * c2 * coeff
    return WeylElement(out)


laurent_elements = st.dictionaries(
    st.tuples(st.integers(-4, 5), st.integers(0, 5)),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    max_size=5,
).map(WeylElement)

nonzero_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool)

single_terms = st.builds(
    WeylElement.monomial,
    st.integers(-4, 5),
    st.integers(0, 5),
    nonzero_fractions,
)


class TestIntegerKernel:
    @settings(max_examples=200, deadline=None)
    @given(laurent_elements, laurent_elements)
    def test_matches_reference(self, a, b):
        product = a.mul(b)
        assert product == reference_mul(a, b)
        assert all(c != 0 for c in product.terms.values())

    @settings(max_examples=60, deadline=None)
    @given(laurent_elements, laurent_elements, laurent_elements)
    def test_associative(self, a, b, c):
        assert a.mul(b).mul(c) == a.mul(b.mul(c))

    @settings(max_examples=200, deadline=None)
    @given(single_terms, single_terms)
    def test_single_terms_match_reference(self, a, b):
        # c x^a * d x^c y^d and c x^a y^b * d y^d skip the Leibniz sum
        assert a.mul(b) == reference_mul(a, b)

    def test_single_terms_in_normal_form(self):
        assert WeylElement.monomial(-2, 0, 3).mul(elem({(5, 1): Rat(1, 2)})).terms == {
            (3, 1): Rat(3, 2)
        }
        assert elem({(1, 2): 2}).mul(Y.pow(3)).terms == {(1, 5): 2}
        assert Y.mul(X).terms == {(1, 1): 1, (0, 0): 1}

    def test_cancels_to_zero(self):
        # [y, x] = 1, [y^2, x] = 2y, [y, x^-1] = -x^-2
        inv = WeylElement.monomial(-1, 0)
        assert Y.mul(X).sub(X.mul(Y)).sub(ONE).is_zero()
        assert Y.pow(2).mul(X).sub(X.mul(Y.pow(2))).sub(elem({(0, 1): 2})).is_zero()
        assert Y.mul(inv).sub(inv.mul(Y)).add(WeylElement.monomial(-2, 0)).is_zero()
        # inside one product: (y - x)(y + x) = y^2 - x^2 + 1, the x*y terms cancel
        assert Y.sub(X).mul(Y.add(X)).terms == {(0, 2): 1, (2, 0): -1, (0, 0): 1}

    def test_empty_operands(self):
        f = elem({(1, 2): Rat(2, 3)})
        for a, b in ((WeylElement.zero(), f), (f, WeylElement.zero())):
            assert a.mul(b).terms == {}
        assert WeylElement.zero().mul(WeylElement.zero()).terms == {}

    def test_negative_x_power(self):
        # y x^{-1} = x^{-1} y - x^{-2}; the sum does not stop at t = c
        inv = WeylElement.monomial(-1, 0)
        assert Y.pow(2).mul(inv) == elem({(-1, 2): 1, (-2, 1): -2, (-3, 0): 2})

    def test_mixed_denominators(self):
        a = elem({(0, 1): Rat(1, 2), (0, 0): Rat(1, 3)})
        b = elem({(1, 0): Rat(3, 4), (2, 0): Rat(-5, 6)})
        assert a.mul(b) == reference_mul(a, b)
        assert a.mul(b).terms[(0, 0)] == Rat(3, 8)


def row_element(row, den=1):
    """A grouped row [(d, [(c, q), ...])] over `den` as an element."""
    return WeylElement({(c, d): Rat(q, den) for d, entries in row for c, q in entries})


def rows_element(rows, den=1):
    """Integer rows {d: {c: q}} over `den` as an element."""
    return WeylElement({(c, d): Rat(q, den) for d, row in rows.items() for c, q in row.items()})


class TestLeftTable:
    """The table of rows y^b w_i that a descriptor keeps for each tower element."""

    @settings(max_examples=200, deadline=None)
    @given(laurent_elements, st.integers(0, 12))
    def test_row_is_y_power_times_operand(self, right, b):
        row = tower_row(OmegaDescriptor([]), TowerElement(right), b)
        degrees = [d for d, _ in row]
        assert len(set(degrees)) == len(degrees)
        for _, entries in row:
            assert entries
            assert len({c for c, _ in entries}) == len(entries)
            assert all(q != 0 for _, q in entries)
        assert row_element(row, right.den) == reference_mul(Y.pow(b), right)

    def test_a_row_is_made_once(self):
        desc, record = OmegaDescriptor([]), TowerElement(rows_element({1: {2: 3}, 0: {-1: -2}}))
        row = tower_row(desc, record, 4)
        assert tower_row(desc, record, 4) is row
        assert list(record.rows) == [4]

    def test_a_high_row_is_made_alone(self):
        # y^500 x^3 = x^3 y^500 + 1500 x^2 y^499 + 748500 x y^498 + 124251000 y^497,
        # made without the 500 rows below it
        record = TowerElement(X.pow(3))
        row = tower_row(OmegaDescriptor([]), record, 500)
        assert list(record.rows) == [500]
        assert sorted(row, reverse=True) == [
            (500, [(3, 1)]), (499, [(2, 1500)]), (498, [(1, 748500)]), (497, [(0, 124251000)])
        ]

    def test_rows_past_the_room_are_made_not_kept(self):
        # for R = (1 + x)^3, row y^1 R holds 7 terms and row y^2 R holds 9
        desc, record = OmegaDescriptor([]), TowerElement(ONE.add(X).pow(3))
        desc._row_room = 10
        kept = tower_row(desc, record, 1)
        assert desc._row_room == 3 and list(record.rows) == [1]
        row = tower_row(desc, record, 2)
        assert tower_row(desc, record, 2) is not row and tower_row(desc, record, 2) == row
        assert desc._row_room == 3 and list(record.rows) == [1]
        assert tower_row(desc, record, 1) is kept
        assert row_element(row) == reference_mul(Y.pow(2), ONE.add(X).pow(3))

    def test_lead_and_size_of_a_tower_element(self):
        # w_1 = x y^2 - 3 has top term x y^2 and two terms
        desc = OmegaDescriptor([OmegaStep(1, 2, Rat(3))])
        w1 = omega_element(desc, 1)
        record = desc._tower[1]
        assert record.element is w1
        assert (record.lead, record.size) == (1, 2)


class TestIntProduct:
    @settings(max_examples=200, deadline=None)
    @given(laurent_elements, laurent_elements)
    def test_matches_reference(self, a, b):
        left, da = a.rows, a.den
        right, db = b.rows, b.den
        out = _int_product(left, right)
        assert all(row and all(q != 0 for q in row.values()) for row in out.values())
        assert rows_element(out, da * db) == reference_mul(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-4, 5), st.integers(0, 5), nonzero_fractions, nonzero_fractions,
           laurent_elements)
    def test_a_cancelled_y_degree_leaves_no_row(self, i, j, p, q, extra):
        # p x^i (y - x) * q (y + x) y^j: the x^{i+1} y^{j+1} of x^i y x y^j
        # cancels the one of -x^{i+1} y y^j, and with it the whole row j + 1;
        # `extra`, moved to y-degrees j + 3 and up, adds rows the left
        # operand cannot bring down to j + 1
        a = elem({(i, 1): p, (i + 1, 0): -p})
        b = elem({(0, j + 1): q, (1, j): q})
        shifted = elem({(k, d + j + 3): c for (k, d), c in extra.terms.items()})
        for right_operand in (b, b.add(shifted)):
            left, da = a.rows, a.den
            right, db = right_operand.rows, right_operand.den
            out = _int_product(left, right)
            assert j + 1 not in out
            assert all(row and all(c != 0 for c in row.values()) for row in out.values())
            assert rows_element(out, da * db) == reference_mul(a, right_operand)

    def test_a_row_is_made_per_shared_y_degree(self, monkeypatch):
        # (1 + x)(1 + y)^6 holds two terms at each y-degree 0..6, so each
        # row y^b (1 + x)^3 is made once; (1 + y)^6 holds one, and takes the
        # Leibniz loop straight into the output
        paired = ONE.add(X).mul(ONE.add(Y).pow(6))
        single = ONE.add(Y).pow(6)
        right = ONE.add(X).pow(3)
        made = []
        real = weyl._leibniz_row
        monkeypatch.setattr(weyl, "_leibniz_row", lambda terms, b: made.append(b) or real(terms, b))
        assert paired.mul(right) == reference_mul(paired, right)
        assert sorted(made) == list(range(7))
        made.clear()
        assert single.mul(right) == reference_mul(single, right)
        assert made == []

    def test_a_product_holds_one_row_besides_its_output(self):
        # rows y^b (1 + x)^40 for b = 0..40 hold about 20 times the terms of
        # the product; made one at a time, the peak stays near the output
        left = ONE.add(X).mul(ONE.add(Y).pow(40))
        right = ONE.add(X).pow(40)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            product = left.mul(right)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(product.terms) == 1722
        assert peak - before < 3 * (held - before)


def repeated_mul(a, n):
    out = ONE
    for _ in range(n):
        out = reference_mul(out, a)
    return out


class TestPow:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize(
        "base",
        [
            WeylElement.monomial(3, 0),
            WeylElement.monomial(-2, 0),
            WeylElement.monomial(0, 4),
            WeylElement.monomial(-1, 0, Rat(-2, 3)),
            WeylElement.monomial(4, 0, 7),
            WeylElement.monomial(0, 2, Rat(5, 2)),
            WeylElement.scalar(Rat(-3, 4)),
            WeylElement.monomial(1, 1, 2),
            X.add(Y),
        ],
    )
    def test_matches_repeated_mul(self, base, n):
        power = base.pow(n)
        assert power == repeated_mul(base, n)
        assert all(type(c) is Rat and c != 0 for c in power.terms.values())

    @settings(max_examples=80, deadline=None)
    @given(laurent_elements, st.integers(0, 4))
    def test_rational_elements_match_repeated_mul(self, base, n):
        # the powers run on ints over den^n: each term's Rat is made once
        power = base.pow(n)
        assert power == repeated_mul(base, n)
        assert all(type(c) is Rat and c != 0 for c in power.terms.values())

    def test_zero_element(self):
        assert WeylElement.zero().pow(0) == ONE
        assert WeylElement.zero().pow(3).is_zero()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            X.pow(-1)


def assert_canonical(f):
    """den >= 1 and prime to every numerator, no empty row, no zero; so
    zero is stored as ({}, 1)."""
    numerators = [c for row in f.rows.values() for c in row.values()]
    assert f.den >= 1 and gcd(f.den, *numerators) == 1
    assert all(f.rows.values()) and all(numerators)


class TestStoredForm:
    @settings(max_examples=200, deadline=None)
    @given(laurent_elements, laurent_elements)
    def test_every_route_stores_the_canonical_form(self, a, b):
        for f in (a, a.add(b), a.sub(b), a.neg(), a.mul(b), a.pow(2), a.sub(a)):
            assert_canonical(f)
            rebuilt = WeylElement(f.terms)
            assert rebuilt == f and hash(rebuilt) == hash(f)

    def test_two_routes_give_one_element(self, monkeypatch, worked):
        # (x/2 + 1/2)*2 is formed over the denominator 2 before its gcd
        # pass, and y*x - x*y cancels the whole row of y-degree 1
        pairs = [
            (elem({(1, 0): Rat(1, 2), (0, 0): Rat(1, 2)}).mul(WeylElement.scalar(2)), X.add(ONE)),
            (Y.mul(X).sub(X.mul(Y)), ONE),
        ]
        calls = []
        real = evaluate.leading_data
        monkeypatch.setattr(evaluate, "leading_data", lambda s, f: calls.append(f) or real(s, f))
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            session = Valuation(worked)
            calls.clear()
            assert session.leading(a) is session.leading(b)
            assert len(calls) == 1

    def test_terms_is_a_fresh_dict(self):
        f = elem({(1, 2): Rat(3, 4), (0, 0): -1})
        terms = f.terms
        terms[(1, 2)] = Rat(7)
        terms[(5, 5)] = Rat(1)
        del terms[(0, 0)]
        assert f == elem({(1, 2): Rat(3, 4), (0, 0): -1})
        assert f.terms == {(1, 2): Rat(3, 4), (0, 0): Rat(-1)}
        assert (f.rows, f.den) == ({2: {1: 3}, 0: {0: -4}}, 4)


class TestCommutator:
    def test_canonical(self):
        assert commutator(Y, X) == ONE

    def test_self(self):
        f = elem({(2, 3): 4, (1, 0): 1})
        assert commutator(f, f) == WeylElement.zero()

    def test_unit_with_x(self):
        # [x y^2 - 1, x] = 2 x y
        f = elem({(1, 2): 1, (0, 0): -1})
        assert commutator(f, X) == elem({(1, 1): 2})

    def test_antisymmetry_and_bilinearity(self):
        rng = random.Random(9)
        for _ in range(30):
            a, b, c = (random_element(rng, 4, 3, 5) for _ in range(3))
            assert commutator(a, b) == commutator(b, a).neg()
            assert commutator(a.add(b), c) == commutator(a, c).add(
                commutator(b, c)
            )


class TestOperatorOracle:
    """x acts as multiplication by t, y as d/dt; the action is faithful on
    the tested degree window."""

    def test_derivative(self):
        assert apply_to_poly(Y, [Rat(0), Rat(0), Rat(0), Rat(1)]) == [
            Rat(0),
            Rat(0),
            Rat(3),
        ]

    def test_t_ddt(self):
        xy = elem({(1, 1): 1})
        assert apply_to_poly(xy, [Rat(0), Rat(0), Rat(1)]) == [
            Rat(0),
            Rat(0),
            Rat(2),
        ]

    def test_canonical_relation_acts_as_identity(self):
        rng = random.Random(10)
        yx_minus_xy = commutator(Y, X)
        for _ in range(10):
            p = random_poly(rng, 8)
            assert apply_to_poly(yx_minus_xy, p) == p

    def test_product_action_composes(self):
        rng = random.Random(11)
        for _ in range(60):
            a = random_element(rng, 6, 3, 5)
            b = random_element(rng, 6, 3, 5)
            p = random_poly(rng, 12)
            assert apply_to_poly(a.mul(b), p) == apply_to_poly(
                a, apply_to_poly(b, p)
            )


def tower_steps_strategy():
    step = st.tuples(
        st.integers(1, 2), st.sampled_from([2, 3, 4]), st.integers(1, 4)
    )
    return st.lists(step, min_size=1, max_size=3)


def build_tower(steps):
    """omega_i = x^{m_i} omega_{i-1}^{n_i} - beta_i starting from omega_0 = y."""
    towers = [Y]
    for m, n, beta in steps:
        prev = towers[-1]
        term = WeylElement.monomial(m, 0, Rat(1)).mul(prev.pow(n))
        towers.append(term.sub(WeylElement.scalar(Rat(beta))))
    return towers


def ladder_expansion(steps, towers):
    """Independent nested closed form for [omega_i, x], built by the
    derivative-ladder recursion instead of a direct product difference."""
    m1, n1, _ = steps[0]
    expansion = WeylElement.monomial(m1, n1 - 1, Rat(n1))
    for level, (m, n, _) in enumerate(steps[1:], start=1):
        prev = towers[level]
        x_m = WeylElement.monomial(m, 0, Rat(1))
        total = WeylElement.zero()
        for ell in range(1, n + 1):
            total = total.add(
                prev.pow(n - ell).mul(expansion).mul(prev.pow(ell - 1))
            )
        expansion = x_m.mul(total)
    return expansion


class TestCommutatorLadder:
    @settings(max_examples=12, deadline=None)
    @given(tower_steps_strategy())
    def test_nested_closed_form(self, steps):
        towers = build_tower(steps)
        assert commutator(towers[-1], X) == ladder_expansion(steps, towers)
