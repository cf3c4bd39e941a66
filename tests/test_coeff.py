"""Rational coefficient helpers."""

import pytest
from hypothesis import given, strategies as st

from weylval import Rat, format_rat, parse_rat
from weylval.coeff import nth_root, sgn, v2
from weylval.errors import BudgetExceeded, EvenRootOfNegative, NoRationalRoot, ParseError


rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


class TestParseFormat:
    def test_integer(self):
        assert parse_rat("7") == Rat(7)

    def test_fraction(self):
        assert parse_rat("-3/4") == Rat(-3, 4)

    def test_whitespace(self):
        assert parse_rat(" 1/2 ") == Rat(1, 2)

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_rat("1/0")
        with pytest.raises(ParseError):
            parse_rat("x")

    @given(rationals)
    def test_roundtrip(self, q):
        assert parse_rat(format_rat(Rat(q))) == Rat(q)

    @pytest.mark.parametrize("value, part, digits", [
        (Rat(10**5000), "numerator", 5001),
        (Rat(-(10**5000 - 1)), "numerator", 5000),
        (Rat(1, 3**10000), "denominator", 4772),
    ])
    def test_past_the_text_limit(self, value, part, digits):
        # raised at once: the interpreter refuses before writing any digit
        with pytest.raises(BudgetExceeded, match=f"{part} has {digits} digits"):
            format_rat(value)


class TestNthRoot:
    def test_cube_root(self):
        assert nth_root(Rat(8), 3) == Rat(2)

    def test_square_root_of_fraction(self):
        assert nth_root(Rat(9, 4), 2) == Rat(3, 2)

    def test_negative_odd(self):
        assert nth_root(Rat(-27), 3) == Rat(-3)

    def test_negative_even_rejected(self):
        with pytest.raises(EvenRootOfNegative):
            nth_root(Rat(-4), 2)

    def test_irrational_rejected(self):
        with pytest.raises(NoRationalRoot):
            nth_root(Rat(2), 2)

    @given(rationals.filter(lambda q: q != 0), st.integers(1, 5))
    def test_root_of_power(self, q, n):
        base = Rat(q)
        if n % 2 == 0:
            base = abs(base)
        assert nth_root(base**n, n) == base

    # beyond float precision (the first two) and float range (the third)
    @pytest.mark.parametrize(
        "root, n",
        [(3**40 + 7, 2), (10**20 + 1, 3), (10**200, 2)],
        ids=["square", "cube", "square-beyond-float-range"],
    )
    def test_large_integer_roots(self, root, n):
        assert nth_root(Rat(root**n), n) == root
        with pytest.raises(NoRationalRoot):
            nth_root(Rat(root**n + 1), n)

    @given(st.integers(2, 10**80), st.integers(2, 7))
    def test_large_root_of_power(self, root, n):
        assert nth_root(Rat(root**n, 3**n), n) == Rat(root, 3)
        with pytest.raises(NoRationalRoot):
            nth_root(Rat(root**n - 1), n)


class TestTwoAdic:
    def test_even_integer(self):
        assert v2(Rat(12)) == 2
        assert v2(12) == 2

    def test_odd_denominator_negative(self):
        assert v2(Rat(3, 8)) == -3

    def test_odd(self):
        assert v2(Rat(5)) == 0

    @given(rationals.filter(lambda q: q != 0), rationals.filter(lambda q: q != 0))
    def test_additive_on_products(self, a, b):
        assert v2(Rat(a) * Rat(b)) == v2(Rat(a)) + v2(Rat(b))

    def test_odd_part(self):
        # the odd part of k is k >> v2(k), as `descriptor` takes it
        assert 24 >> v2(24) == 3
        assert -40 >> v2(-40) == -5
        with pytest.raises(ValueError):
            v2(0)

    def test_sgn(self):
        assert sgn(Rat(3, 7)) == 1
        assert sgn(Rat(-2)) == -1
        assert sgn(Rat(0)) == 0

    def test_sgn_reads_ints_and_rationals_off_the_numerator(self):
        cases = [(7, 1), (-3, -1), (0, 0), (Rat(0), 0), (Rat(-10**60, 7), -1),
                 (Rat(1, 10**60), 1), (Rat(-5, 3), -1)]
        for value, want in cases:
            got = sgn(value)
            assert got == want and type(got) is int
