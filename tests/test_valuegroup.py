"""Exact order and group arithmetic on values q + k_xi*xi - k_mu*mu."""

import pytest
from hypothesis import given, strategies as st

from weylval import INFINITY, Rat, ValueGroupElement, cmp
from weylval.valuegroup import _sign_a_plus_b_sqrt2


def vge(q, k_xi=0, k_mu=0, scale=Rat(1)):
    return ValueGroupElement(Rat(q), k_xi, k_mu, scale)


elements = st.builds(
    vge,
    st.fractions(min_value=-50, max_value=50, max_denominator=64),
    st.integers(-6, 6),
    st.integers(-6, 6),
)

scaled_elements = st.builds(
    vge,
    st.fractions(min_value=-4, max_value=4, max_denominator=16),
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.sampled_from([Rat(1), Rat(1, 8), Rat(3, 2)]),
)


class TestOrder:
    def test_rational_order(self):
        assert vge(Rat(1, 2)).cmp(vge(Rat(3, 4))) < 0

    def test_irrational_beats_close_rationals(self):
        # xi = sqrt(2): 1.414... sits between 1.41 and 1.42
        assert vge(Rat(141, 100)).cmp(vge(0, k_xi=1)) < 0
        assert vge(Rat(142, 100)).cmp(vge(0, k_xi=1)) > 0

    def test_scaled_irrational(self):
        # xi/8 = 0.1767...
        assert vge(Rat(17, 100)).cmp(vge(0, k_xi=1, scale=Rat(1, 8))) < 0
        assert vge(Rat(18, 100)).cmp(vge(0, k_xi=1, scale=Rat(1, 8))) > 0

    def test_infinitesimal_tiebreak(self):
        # 1 > 1 - mu: larger k_mu means subtracting mu
        assert vge(1).cmp(vge(1, k_mu=1)) > 0

    def test_mu_only_breaks_exact_ties(self):
        # any real-part gap beats any mu multiple
        assert vge(1, k_mu=1000).cmp(vge(Rat(999, 1000))) > 0

    def test_infinity_is_top(self):
        assert INFINITY.cmp(vge(10**9)) > 0
        assert vge(10**9).cmp(INFINITY) < 0
        assert INFINITY.cmp(INFINITY) == 0

    def test_equal_xi_count_under_different_scales(self):
        # 1/2 + xi = 1.914... > 1 + xi/8 = 1.176..., though 1/2 < 1
        assert vge(Rat(1, 2), k_xi=1).cmp(vge(1, k_xi=1, scale=Rat(1, 8))) > 0

    @given(scaled_elements, scaled_elements)
    def test_matches_the_sign_of_the_difference(self, a, b):
        real = _sign_a_plus_b_sqrt2(
            a.q - b.q, a.k_xi * a.xi_scale - b.k_xi * b.xi_scale
        )
        mu = (a.k_mu < b.k_mu) - (a.k_mu > b.k_mu)
        assert a.cmp(b) == (real or mu)

    @given(elements, elements)
    def test_antisymmetry(self, a, b):
        assert a.cmp(b) == -b.cmp(a)

    @given(elements, elements, elements)
    def test_transitivity(self, a, b, c):
        if a.cmp(b) <= 0 and b.cmp(c) <= 0:
            assert a.cmp(c) <= 0

    @given(elements, elements, elements)
    def test_translation_invariance(self, a, b, c):
        assert a.cmp(b) == a.add(c).cmp(b.add(c))


class TestGroup:
    def test_add(self):
        assert vge(Rat(1, 2)).add(vge(Rat(-1))) == vge(Rat(-1, 2))

    def test_scalar_mul(self):
        assert vge(Rat(1, 4), 1, 2).scalar_mul(3) == vge(Rat(3, 4), 3, 6)

    def test_add_infinity(self):
        assert vge(1).add(INFINITY) is INFINITY
        assert INFINITY.add(vge(1)) is INFINITY

    @given(elements, elements)
    def test_commutative(self, a, b):
        assert a.add(b) == b.add(a)

    @given(elements)
    def test_neg(self, a):
        assert a.add(a.neg()).is_zero()

    def test_mixed_scales_rejected_or_normalized(self):
        a = vge(0, k_xi=1, scale=Rat(1, 8))
        b = vge(0, k_xi=2, scale=Rat(1, 8))
        assert a.add(a) == b


class TestJson:
    def test_roundtrip(self):
        a = vge(Rat(3, 4), 1, 2, Rat(1, 8))
        assert ValueGroupElement.from_json(a.to_json()) == a

    def test_cmp_helper(self):
        assert cmp(vge(0), INFINITY) < 0

    def test_str_forms(self):
        assert str(INFINITY) == "infinity"
        assert "MU" in str(vge(1, k_mu=1))
        assert "XI" in str(vge(0, k_xi=1))
