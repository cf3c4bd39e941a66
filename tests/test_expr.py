"""Expression text format: grammar, precedence, and round-tripping."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from weylval import BudgetExceeded, ParseError, Rat, WeylElement, format_expr, parse_expr
from weylval.expr import EXPR_WORK_BUDGET


def elem(terms):
    return WeylElement({k: Rat(v) for k, v in terms.items()})


class TestParse:
    def test_generators(self):
        assert parse_expr("x") == WeylElement.x()
        assert parse_expr("y") == WeylElement.y()
        assert parse_expr("5") == WeylElement.scalar(Rat(5))
        assert parse_expr("3/4") == WeylElement.scalar(Rat(3, 4))

    def test_power_binds_tighter_than_star(self):
        # x*y^2 is x*(y^2), not (x*y)^2
        assert parse_expr("x*y^2") == elem({(1, 2): 1})

    def test_written_order_is_preserved(self):
        # y*x reorders to normal form x*y + 1
        assert parse_expr("y*x") == elem({(1, 1): 1, (0, 0): 1})
        assert parse_expr("x*y") == elem({(1, 1): 1})

    def test_parentheses(self):
        assert parse_expr("(x*y^2 - 1)^2") == elem(
            {(2, 4): 1, (1, 3): 2, (1, 2): -2, (0, 0): 1}
        )

    def test_unary_minus(self):
        assert parse_expr("-x") == elem({(1, 0): -1})
        assert parse_expr("--x") == WeylElement.x()
        assert parse_expr("3 - -y") == elem({(0, 0): 3, (0, 1): 1})

    def test_sum_and_difference(self):
        assert parse_expr("x + y - 2") == elem(
            {(1, 0): 1, (0, 1): 1, (0, 0): -2}
        )

    def test_tower_expression(self):
        got = parse_expr("x*(x*y^2 - 1)^4 - 1")
        base = elem({(1, 2): 1, (0, 0): -1})
        want = WeylElement.x().mul(base.pow(4)).sub(WeylElement.scalar(Rat(1)))
        assert got == want

    def test_whitespace_tolerated(self):
        assert parse_expr("  x * y ^ 2  ") == elem({(1, 2): 1})


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "x y",  # juxtaposition is not multiplication
            "2x",
            "x^y",  # exponent must be a number
            "x^(2)",
            "x^-1",  # exponents are nonnegative
            "x^1/2",  # and integral
            "(x",
            "x)",
            "x *",
            "* x",
            "z",
            "x & y",
            "1//2",
            "1/0",  # zero denominators
            "3/0*x",
            "y^2/0",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_expr(bad)


class TestPowerBudget:
    @pytest.mark.parametrize(
        "text, work",
        [
            ("(x+1)^2000", 128_066_000),  # 3.3 s unbounded
            ("3^99999999*x", 99_999_999),  # a 158-million-bit coefficient
            ("(x*y)^300", 9_045_050),
            ("((x+1)^100)^100", 7_850_810_700),
        ],
    )
    def test_over_budget_raises_before_powering(self, text, work):
        assert work > EXPR_WORK_BUDGET
        with pytest.raises(BudgetExceeded, match=f"needs {work} work units"):
            parse_expr(text)

    def test_one_term_powers_of_one_generator_cost_nothing(self):
        assert parse_expr("x^100000000000000000000") == elem({(10**20, 0): 1})
        assert parse_expr("(-y)^100000000000000000001") == elem({(0, 10**20 + 1): -1})

    def test_under_budget_powers_as_before(self):
        base = elem({(1, 0): 1, (0, 0): 1})
        assert parse_expr("(x+1)^300") == base.pow(300)
        assert parse_expr("2^4000000") == WeylElement.scalar(Rat(2) ** 4000000)


class TestRoundtrip:
    def test_examples(self):
        for text in ["x*y^2 + 2*y", "x^2*y^4 + 2*x*y^3 - 2*x*y^2 + 1", "0"]:
            assert format_expr(parse_expr(text)) == text

    def test_zero(self):
        assert format_expr(WeylElement.zero()) == "0"
        assert parse_expr("0") == WeylElement.zero()

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.fractions(
                min_value=-9, max_value=9, max_denominator=7
            ).filter(lambda q: q != 0),
            min_size=1,
            max_size=5,
        )
    )
    def test_print_then_parse_is_identity(self, terms):
        f = WeylElement({k: Rat(v) for k, v in terms.items()})
        assert parse_expr(format_expr(f)) == f

    def test_random_parse_print_parse(self):
        rng = random.Random(13)
        atoms = ["x", "y", "2", "1/3", "(x*y - 1)"]
        for _ in range(50):
            text = "*".join(rng.choice(atoms) for _ in range(rng.randint(1, 4)))
            f = parse_expr(text)
            assert parse_expr(format_expr(f)) == f
