"""Puiseux coefficients, the skew polynomial ring, and z-sequence valuations."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from weylval import (
    DepthExceeded,
    INFINITY,
    NonzeroValue,
    OrePoly,
    ParseError,
    PuiseuxSeries,
    Rat,
    TruncationLoss,
    ValueGroupElement,
    WeylElement,
    ZSequence,
    a_series,
    builtin_z_rule,
    embed,
    ore_mul,
    shift_variable,
    tilde_eval,
    z_eval,
    z_residue,
)
from weylval.series import ZRule, ZTerminal


def series(pairs, bound=None):
    return PuiseuxSeries.make(
        [(Rat(q), Rat(c)) for q, c in pairs],
        None if bound is None else Rat(bound),
    )


def rational(*args):
    return ValueGroupElement.rational(Rat(*args))


Y = OrePoly.variable()
ONE = OrePoly.from_series(PuiseuxSeries.scalar(Rat(1)))


def xi(scale):
    return ValueGroupElement(Rat(0), 1, 0, Rat(*scale))


@pytest.fixture
def terminal_seq():
    # single entry r=1/2, terminal value sqrt(2)/2 in (1/2, 1)
    return ZSequence([(Rat(1, 2), Rat(1))], ZTerminal(xi((1, 2))))


@pytest.fixture
def terminal_seq3():
    return ZSequence(
        [(Rat(1, 2), Rat(1)), (Rat(3, 4), Rat(1, 2)), (Rat(7, 8), Rat(2))],
        ZTerminal(xi((2, 3))),
    )


@pytest.fixture
def limit_one():
    return ZSequence([], builtin_z_rule("halving_to_one"))


@pytest.fixture
def limit_half():
    # r_i = 1/2 - 1/2^{i+1} increases to 1/2
    return ZSequence(
        [], ZRule("approach_half", lambda i: (Rat(1, 2) - Rat(1, 2 ** (i + 1)), Rat(1)), Rat(1, 2))
    )


def geometric_rule(limit, seed=0):
    """r_i = limit - limit/2^i with gammas drawn from a fixed seed."""
    limit = Rat(limit)
    draw = random.Random(seed)
    gammas = [Rat(draw.choice([1, 2, -1, 3])) for _ in range(96)]
    return ZSequence(
        [], ZRule(f"to {limit}", lambda i: (limit - limit / 2**i, gammas[i - 1]), limit)
    )


def z_variable(zseq, k):
    """z_k = y - a_k over the y-basis."""
    return Y.sub(OrePoly.from_series(a_series(zseq, k, exact=True)))


class TestPuiseuxSeries:
    def test_make_merges_and_sorts(self):
        p = series([(2, 3), (1, 1), (2, -3)])
        assert p.terms == ((Rat(1), Rat(1)),)

    def test_make_drops_terms_past_horizon(self):
        p = series([(1, 1), (5, 2)], bound=3)
        assert p.terms == ((Rat(1), Rat(1)),)
        assert p.known_up_to == Rat(3)

    def test_x_power_value(self):
        # v(x) = -1, so x^e carries value -e
        assert PuiseuxSeries.x_power(Rat(2)).value_floor() == (True, rational(-2))
        assert PuiseuxSeries.x_power(Rat(-1, 2)).value_floor() == (
            True,
            rational(1, 2),
        )

    def test_value_floor_states(self):
        assert PuiseuxSeries.zero().value_floor() == (True, INFINITY)
        inexact, bound = series([], bound=4).value_floor()
        assert not inexact and bound == rational(4)

    def test_add_propagates_weakest_bound(self):
        p = series([(1, 1)], bound=5).add(series([(2, 1)], bound=3))
        assert p.known_up_to == Rat(3)
        assert p.terms == ((Rat(1), Rat(1)), (Rat(2), Rat(1)))

    def test_mul_error_horizon(self):
        # unknown tail of p times leading of q limits the product horizon
        p = series([(0, 1)], bound=4)
        q = series([(1, 2)])
        out = p.mul(q)
        assert out.terms == ((Rat(1), Rat(2)),)
        assert out.known_up_to == Rat(5)

    def test_mul_horizon_from_the_right_factor(self):
        # leading(p) times the unknown tail of q limits the product horizon
        out = series([(1, 3)]).mul(series([(0, 1)], bound=2))
        assert out.terms == ((Rat(1), Rat(3)),)
        assert out.known_up_to == Rat(3)
        both = series([(0, 1)], bound=4).mul(series([(1, 1)], bound=3))
        assert both.known_up_to == Rat(3)

    def test_cancellation_keeps_horizon(self):
        p = series([(1, 1)], bound=6).sub(series([(1, 1)]))
        assert p.terms == ()
        assert p.known_up_to == Rat(6)

    def test_delta_power_rule(self):
        assert PuiseuxSeries.x_power(Rat(-1, 2)).delta().terms == (
            (Rat(3, 2), Rat(-1, 2)),
        )

    def test_delta_constant(self):
        assert PuiseuxSeries.scalar(Rat(1)).delta().terms == ()

    def test_delta_linearity(self):
        p = series([(1, 1), (2, 2)])
        assert p.delta().terms == ((Rat(2), Rat(-1)), (Rat(3), Rat(-4)))

    def test_delta_raises_value_by_one(self):
        for p in [series([(1, 3)]), series([(-5, 2), (7, 1)])]:
            lead_q = p.terms[0][0]
            if lead_q == 0:
                continue
            assert p.delta().terms[0][0] == lead_q + 1


class TestSeriesText:
    def test_spec_format(self):
        text = "1*x^(-1/2) + 3*x^(-2) + O(x^(-5))"
        p = PuiseuxSeries.make([(Rat(1, 2), Rat(1)), (Rat(2), Rat(3))], Rat(5))
        assert str(p) == text


class TestOreMul:
    def test_skew_relation(self):
        # y * x^{-1} = x^{-1} y - x^{-2}
        out = ore_mul(Y, OrePoly.from_series(PuiseuxSeries.x_power(Rat(-1))))
        assert out.coeff(1).terms == ((Rat(1), Rat(1)),)
        assert out.coeff(0).terms == ((Rat(2), Rat(-1)),)

    def test_identity(self):
        f = OrePoly.make([series([(1, 2)]), series([(0, 1)])])
        assert ore_mul(f, ONE) == f
        assert ore_mul(ONE, f) == f

    def test_matches_weyl_normal_form(self):
        # y^2 * x = x y^2 + 2 y under the embedding
        x, y = WeylElement.x(), WeylElement.y()
        lhs = ore_mul(ore_mul(Y, Y), embed(x))
        assert lhs == embed(y.mul(y).mul(x))

    def test_embedding_is_multiplicative(self):
        rng = random.Random(23)
        for _ in range(25):
            terms_a = {
                (rng.randint(0, 3), rng.randint(0, 3)): Rat(rng.randint(-4, 4))
                for _ in range(3)
            }
            terms_b = {
                (rng.randint(0, 3), rng.randint(0, 3)): Rat(rng.randint(-4, 4))
                for _ in range(3)
            }
            a = WeylElement(terms_a)
            b = WeylElement(terms_b)
            assert ore_mul(embed(a), embed(b)) == embed(a.mul(b))

    def test_associativity(self):
        rng = random.Random(29)
        for _ in range(20):
            polys = []
            for _ in range(3):
                coeffs = [
                    series(
                        [
                            (Rat(rng.randint(-4, 8), rng.randint(1, 3)), rng.randint(-5, 5))
                            for _ in range(rng.randint(0, 2))
                        ]
                    )
                    for _ in range(rng.randint(1, 3))
                ]
                polys.append(OrePoly.make(coeffs))
            a, b, c = polys
            assert ore_mul(ore_mul(a, b), c) == ore_mul(a, ore_mul(b, c))

    def test_shift_variable_inverts(self):
        a = series([(Rat(1, 2), 1), (Rat(3, 4), 2)])
        f = OrePoly.make([series([(1, 1)]), series([(0, 2)]), series([(0, 1)])])
        there = shift_variable(f, a)
        back = shift_variable(there, a.neg())
        assert back == f


def reference_ore_mul(f, g):
    """Term-by-term product: every part goes through PuiseuxSeries.add."""
    n = len(f.coeffs) + len(g.coeffs)
    acc = [PuiseuxSeries.zero() for _ in range(max(n, 1))]
    for i, p_i in enumerate(f.coeffs):
        if p_i.is_exact_zero():
            continue
        for j, q_j in enumerate(g.coeffs):
            if q_j.is_exact_zero():
                continue
            derivative = q_j
            for k in range(i + 1):
                if k:
                    derivative = derivative.delta()
                part = p_i.mul(derivative).scale(Rat(math.comb(i, k)))
                acc[i - k + j] = acc[i - k + j].add(part)
    return OrePoly.make(acc)


def reference_shift(f, a):
    """Horner over reference_ore_mul by s + a."""
    shifted_var = OrePoly.make([a, PuiseuxSeries.scalar(Rat(1))])
    out = OrePoly.zero()
    for p_i in reversed(f.coeffs):
        out = reference_ore_mul(out, shifted_var).add(OrePoly.from_series(p_i))
    return out


# Exponents over mixed denominators, negative ones included; a horizon may
# sit on a series with no terms, and coefficients from a small pool cancel.
exponents = st.builds(
    Rat, st.integers(-6, 8), st.sampled_from([1, 1, 2, 3, 4, 6])
)
puiseux = st.builds(
    lambda pairs, bound: PuiseuxSeries.make(
        [(q, Rat(c)) for q, c in pairs], bound
    ),
    st.lists(st.tuples(exponents, st.integers(-2, 2)), max_size=3),
    st.none() | exponents,
)
ore_polys = st.lists(puiseux, max_size=4).map(OrePoly.make)

X = PuiseuxSeries.x_power(Rat(1))
CANCELLING = OrePoly.make([PuiseuxSeries.scalar(Rat(1)), X.neg()])


class TestOreKernelAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(ore_polys, ore_polys)
    # (1 - x t) x = x - x^2 t - x: coefficient 0 cancels to exact zero
    @example(CANCELLING, OrePoly.from_series(X))
    @example(
        OrePoly.make([series([(0, 1)], bound=3), X.neg()]),
        OrePoly.from_series(X),
    )
    @example(OrePoly.from_series(series([], bound=Rat(1, 2))), Y)
    @example(OrePoly.zero(), Y)
    def test_ore_mul(self, f, g):
        assert ore_mul(f, g) == reference_ore_mul(f, g)

    @settings(max_examples=150, deadline=None)
    @given(ore_polys, puiseux)
    # t - x shifted by x: coefficient 0 cancels to exact zero
    @example(OrePoly.make([X.neg(), PuiseuxSeries.scalar(Rat(1))]), X)
    @example(Y, series([(Rat(-1, 2), 3)], bound=Rat(5, 3)))
    @example(OrePoly.from_series(series([(1, 2)])), PuiseuxSeries.zero())
    @example(OrePoly.make([series([], bound=2), series([(0, 1)])]), X)
    def test_shift_variable(self, f, a):
        assert shift_variable(f, a) == reference_shift(f, a)


class TestZSequence:
    def test_json_roundtrip(self, terminal_seq3, limit_one):
        for zs in (terminal_seq3, limit_one):
            again = ZSequence.from_json(zs.to_json())
            assert again.to_json() == zs.to_json()

    def test_entry_access(self, limit_one):
        assert limit_one.entry(3) == (Rat(7, 8), Rat(1))
        with pytest.raises(ValueError):
            limit_one.entry(0)

    def test_exhausted_bare(self):
        bare = ZSequence([(Rat(1, 2), Rat(1))], None)
        with pytest.raises(DepthExceeded):
            bare.entry(2)

    def test_validation(self):
        with pytest.raises(ParseError):
            ZSequence([(Rat(1, 2), Rat(0))], None)
        with pytest.raises(ParseError):
            ZSequence([(Rat(1, 2), Rat(1)), (Rat(1, 4), Rat(1))], None)
        with pytest.raises(ParseError):
            ZSequence([(Rat(3, 2), Rat(1))], None)

    @pytest.mark.parametrize(
        "tail", [{"kind": "limit"}, {"kind": "rule", "rule": "doubling"}]
    )
    def test_unknown_tail_is_a_parse_error(self, tail):
        with pytest.raises(ParseError):
            ZSequence.from_json({"entries": [{"r": "1/2", "gamma": "1"}], "tail": tail})

    @pytest.mark.parametrize(
        "data",
        [
            "not a dict",
            {"entries": 5},
            {"entries": [5]},
            {"entries": [{"r": "1/2"}]},
            {"entries": [{"r": "1/2", "gamma": "1"}], "tail": 5},
            {"entries": [], "tail": {"kind": "irrational", "value": 5}},
        ],
    )
    def test_from_json_rejects_bad_shapes(self, data):
        with pytest.raises(ParseError):
            ZSequence.from_json(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"entries": ["x" * 100000]},
            {"entries": [], "tail": {"kind": "x" * 100000}},
            {"entries": [], "tail": {"kind": "rule", "rule": "x" * 100000}},
        ],
    )
    def test_errors_do_not_echo_the_whole_input(self, data):
        with pytest.raises(ParseError) as info:
            ZSequence.from_json(data)
        assert len(str(info.value)) < 200

    def test_terminal_must_lie_above_the_last_exponent(self):
        # xi/2 = sqrt(2)/2 is about 0.707
        for r in (Rat(3, 4), Rat(71, 100)):
            with pytest.raises(ParseError):
                ZSequence([(Rat(1, 2), Rat(1)), (r, Rat(1))], ZTerminal(xi((1, 2))))
        assert ZSequence([(Rat(7, 10), Rat(1))], ZTerminal(xi((1, 2)))).terminal

    def test_terminal_must_be_irrational(self):
        with pytest.raises(ParseError):
            ZSequence([(Rat(1, 2), Rat(1))], ZTerminal(rational(3, 4)))

    def test_a_series_honest_vs_exact(self, limit_one):
        honest = a_series(limit_one, 2)
        assert honest.known_up_to == Rat(7, 8)
        exact = a_series(limit_one, 2, exact=True)
        assert exact.known_up_to is None
        assert exact.terms == ((Rat(1, 2), Rat(1)), (Rat(3, 4), Rat(1)))


class TestTranslate:
    # Re-basing at z_ell: f over y is shift_variable(f, a_ell) over z_ell,
    # with a_ell = a_series(seq, ell, exact=True).
    def test_identity(self, terminal_seq3):
        a0 = a_series(terminal_seq3, 0, exact=True)
        assert a0.terms == ()
        assert shift_variable(Y, a0) == Y

    def test_slice(self, terminal_seq3):
        a1 = a_series(terminal_seq3, 1, exact=True)
        assert a1.terms == ((Rat(1, 2), Rat(1)),)
        assert shift_variable(Y, a1) == Y.add(OrePoly.from_series(a1))

    def test_value_preservation(self, terminal_seq3):
        a1 = a_series(terminal_seq3, 1, exact=True)
        shifted = ZSequence(terminal_seq3.explicit_entries[1:], terminal_seq3.tail)
        cases = [
            Y,
            OrePoly.make([PuiseuxSeries.x_power(Rat(-1)), PuiseuxSeries.scalar(Rat(2))]),
            OrePoly.make(
                [PuiseuxSeries.scalar(Rat(3)), PuiseuxSeries.zero(), PuiseuxSeries.scalar(Rat(1))]
            ),
        ]
        for f in cases:
            v0 = z_eval(terminal_seq3, f)
            v1 = z_eval(shifted, shift_variable(f, a1))
            assert v0.cmp(v1) == 0


class TestZEvalTerminal:
    def test_variable(self, terminal_seq):
        assert z_eval(terminal_seq, Y) == rational(1, 2)

    def test_pure_series(self, terminal_seq):
        assert z_eval(terminal_seq, OrePoly.from_series(PuiseuxSeries.x_power(Rat(-5)))) == rational(5)

    def test_zero(self, terminal_seq):
        assert z_eval(terminal_seq, OrePoly.zero()) is INFINITY

    def test_terminal_value_reached(self, terminal_seq):
        # y - x^{-1/2} is exactly the terminal variable
        f = Y.sub(OrePoly.from_series(PuiseuxSeries.x_power(Rat(-1, 2))))
        got = z_eval(terminal_seq, f)
        assert got.k_xi == 1 and got.q == 0

    def test_residues(self, terminal_seq):
        assert z_residue(terminal_seq, OrePoly.from_series(PuiseuxSeries.scalar(Rat(1)))) == Rat(1)
        # x^{r_1} z_0 has value 0 and leading-term residue 1
        f = OrePoly.make([PuiseuxSeries.zero(), PuiseuxSeries.x_power(Rat(1, 2))])
        assert z_eval(terminal_seq, f) == rational(0)
        assert z_residue(terminal_seq, f) == Rat(1)

    def test_residue_needs_value_zero(self, terminal_seq):
        with pytest.raises(NonzeroValue):
            z_residue(terminal_seq, OrePoly.from_series(PuiseuxSeries.x_power(Rat(-5))))

    def test_truncation_undercut(self, terminal_seq):
        # unknown constant coefficient could fall below the candidate minimum
        f = OrePoly.make([PuiseuxSeries((), Rat(-10)), PuiseuxSeries.scalar(Rat(1))])
        with pytest.raises(TruncationLoss):
            z_eval(terminal_seq, f)

    def test_truncation_all_unknown(self, terminal_seq):
        f = OrePoly.make([PuiseuxSeries((), Rat(5))])
        with pytest.raises(TruncationLoss):
            z_eval(terminal_seq, f)

    def test_depth_limit_does_not_stop_a_terminal(self, terminal_seq3):
        # z_3 sits at the terminal, three shifts away
        z3 = z_variable(terminal_seq3, 3)
        for depth_limit in (0, 1, 2):
            assert z_eval(terminal_seq3, z3, depth_limit) == xi((2, 3))


class TestZEvalLimitBelowOne:
    def test_variable(self, limit_half):
        assert z_eval(limit_half, Y) == rational(1, 4)

    def test_prefix_difference(self, limit_half):
        a3 = a_series(limit_half, 3, exact=True)
        f = Y.sub(OrePoly.from_series(a3))
        assert z_eval(limit_half, f) == rational(15, 32)

    def test_product_rule(self, limit_half):
        a2 = a_series(limit_half, 2, exact=True)
        f = Y.sub(OrePoly.from_series(a2))
        g = ore_mul(f, f)
        assert z_eval(limit_half, g).cmp(z_eval(limit_half, f).scalar_mul(2)) == 0


class TestZEvalLimitNineTenths:
    def test_square_of_a_variable(self):
        # (y - a_2)^2 = z_2^2 carries a -a_2' term of value r_1 + 1 = 29/20
        # over y; commutative substitution reads that as its value
        nine_tenths = geometric_rule(Rat(9, 10))
        z2 = z_variable(nine_tenths, 2)
        assert z_eval(nine_tenths, z2) == rational(63, 80)
        assert z_eval(nine_tenths, ore_mul(z2, z2)) == rational(63, 40)


class TestZEvalRuleTails:
    @pytest.mark.parametrize("limit", [Rat(1, 2), Rat(3, 4), Rat(9, 10), Rat(1)])
    def test_values_are_multiplicative(self, limit):
        rng = random.Random(20261018)
        zseq = geometric_rule(limit, seed=7)

        def factor():
            pick = rng.random()
            if pick < 0.6:
                return z_variable(zseq, rng.randint(0, 4))
            if pick < 0.75:
                return OrePoly.from_series(
                    PuiseuxSeries.x_power(Rat(rng.randint(-4, 4), rng.choice([1, 2, 4])))
                )
            coeffs = [
                series([(Rat(rng.randint(-4, 8), rng.choice([1, 2, 4, 8])), rng.randint(1, 3))])
                for _ in range(rng.randint(1, 3))
            ]
            return OrePoly.make(coeffs)

        for _ in range(16):
            f, g = factor(), ore_mul(factor(), factor())
            total = z_eval(zseq, f).add(z_eval(zseq, g))
            assert z_eval(zseq, ore_mul(f, g)).cmp(total) == 0

    def test_residue_at_a_higher_power(self):
        zseq = geometric_rule(Rat(1, 2), seed=3)
        r1, gamma1 = zseq.entry(1)
        # x^{r_1} y has value 0 over z_0, led by x^{r_1} (gamma_1 x^{-r_1})
        f = OrePoly.make([PuiseuxSeries.zero(), PuiseuxSeries.x_power(r1)])
        assert z_residue(zseq, f) == gamma1
        # adding 5 ties at value 0; over z_1 it is (gamma_1 + 5) + x^{r_1} z_1
        f = OrePoly.make([PuiseuxSeries.scalar(Rat(5)), PuiseuxSeries.x_power(r1)])
        assert z_residue(zseq, f) == gamma1 + 5

    def test_all_unknown_coefficients(self, limit_one):
        f = OrePoly.make([series([], bound=3), series([], bound=1)])
        with pytest.raises(TruncationLoss):
            z_eval(limit_one, f)

    def test_depth_limit_counts_shifts(self, limit_one):
        z5 = z_variable(limit_one, 5)
        with pytest.raises(DepthExceeded):
            z_eval(limit_one, z5, depth_limit=4)
        assert z_eval(limit_one, z5, depth_limit=5) == rational(63, 64)


class TestZEvalLimitOne:
    def test_variable(self, limit_one):
        assert z_eval(limit_one, Y) == rational(1, 2)

    def test_rewrite_beats_naive_expansion(self, limit_one):
        a2 = a_series(limit_one, 2, exact=True)
        f = Y.sub(OrePoly.from_series(a2))
        square = ore_mul(f, f)
        assert z_eval(limit_one, square) == rational(7, 4)

    def test_residue(self, limit_one):
        assert z_residue(limit_one, OrePoly.from_series(PuiseuxSeries.scalar(Rat(7)))) == Rat(7)

    def test_finite_depth_consistency(self, limit_one):
        # stabilized answer equals the depth-k shifted minimum for large k
        a4 = a_series(limit_one, 4, exact=True)
        f = Y.sub(OrePoly.from_series(a4))
        assert z_eval(limit_one, f) == rational(31, 32)

    def test_bare_prefix_has_no_regime(self):
        bare = ZSequence([(Rat(1, 2), Rat(1))], None)
        with pytest.raises(DepthExceeded):
            z_eval(bare, Y)


class TestTildeEval:
    def test_truncated_full_difference(self, limit_one):
        # the unresolved tail sits at value 1 - mu
        z = Y.sub(OrePoly.from_series(a_series(limit_one, 6)))
        got = tilde_eval(limit_one, z)
        assert (got.q, got.k_xi, got.k_mu) == (Rat(1), 0, 1)

    def test_additivity_with_x(self, limit_one):
        z = Y.sub(OrePoly.from_series(a_series(limit_one, 6)))
        zx = ore_mul(z, OrePoly.from_series(PuiseuxSeries.x_power(Rat(1))))
        got = tilde_eval(limit_one, zx)
        assert (got.q, got.k_mu) == (Rat(0), 1)

    def test_pure_series_is_rational(self, limit_one):
        got = tilde_eval(limit_one, OrePoly.from_series(PuiseuxSeries.x_power(Rat(-3))))
        assert got == rational(3)
        assert got.k_mu == 0

    def test_exact_inputs_agree_with_z_eval(self, limit_one):
        for depth in (1, 2, 3):
            f = Y.sub(OrePoly.from_series(a_series(limit_one, depth, exact=True)))
            t = tilde_eval(limit_one, f)
            v = z_eval(limit_one, f)
            assert t.cmp(v) == 0 and t.k_mu == 0

    def test_needs_rule_tail(self, terminal_seq):
        with pytest.raises(ValueError):
            tilde_eval(terminal_seq, Y)

    def test_infinitesimal_orders_below_value_one(self, limit_one):
        z = Y.sub(OrePoly.from_series(a_series(limit_one, 6)))
        got = tilde_eval(limit_one, z)
        assert got.cmp(rational(1)) < 0
        assert got.cmp(rational(31, 32)) > 0
