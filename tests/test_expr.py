"""Expression text format: grammar, precedence, and round-tripping."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from weylval import (
    BudgetExceeded, ParseError, Rat, WeylElement, WeylvalError, eval_element, format_expr,
    parse_expr, sample_element,
)
from weylval.expr import EXPR_WORK_BUDGET, _normal_form, _Parser, _product_work


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


class TestProductBudget:
    def test_over_budget_raises_before_multiplying(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the product was computed")

        monkeypatch.setattr(WeylElement, "mul", refuse)
        with pytest.raises(BudgetExceeded, match="product at position 8 needs 2968829688 work units"):
            parse_expr("y^100000*x^100000")

    def test_under_budget_products_as_before(self, halving):
        product = parse_expr("y^2000*x^2000")
        assert product == WeylElement.monomial(0, 2000).mul(WeylElement.monomial(2000, 0))
        assert eval_element(halving, product).q == -1000

    def test_printed_normal_forms_are_not_charged(self):
        assert parse_expr("x^100000*y^100000") == elem({(100000, 100000): 1})

    def test_bounds_the_leibniz_terms(self):
        """Each term pair x^a y^b, x^c y^d makes min(b, c) + 1 Leibniz terms,
        b + 1 when c < 0; the estimate counts at least that many."""
        rng = random.Random(5)
        for _ in range(200):
            left, right = sample_element(rng, max_degree=6), sample_element(rng, max_degree=6)
            if rng.random() < 0.3:
                right = right.mul(WeylElement.monomial(-rng.randint(1, 4), 0))
            terms = sum(
                (b if c < 0 else min(b, c)) + 1
                for (_, b) in left.terms
                for (c, _) in right.terms
            )
            assert terms <= _product_work(left, right)


class TestExpressionBudget:
    def test_the_operations_of_one_expression_share_the_budget(self, monkeypatch):
        # (x+1)^600 fits the budget on its own; a second one added to it
        # takes the expression's total past the budget, and is refused
        # before it is computed
        single = parse_expr("(x+1)^600")
        assert single == elem({(1, 0): 1, (0, 0): 1}).pow(600)
        powers = []
        pow_ = WeylElement.pow
        monkeypatch.setattr(WeylElement, "pow", lambda self, n: powers.append(n) or pow_(self, n))
        with pytest.raises(BudgetExceeded) as info:
            parse_expr("(x+1)^600 + (x+1)^600")
        assert powers == [600]
        assert str(info.value) == (
            "power 600 at position 18 needs 3606600 work units, 7213200 with the earlier "
            "operations, above the budget of 4194304")

    def test_products_and_powers_are_charged_together(self):
        # y^4000*x^4000 and (x+1)^600 each fit; the product's charge after
        # the power's passes the budget
        parse_expr("y^4000*x^4000")
        with pytest.raises(
            BudgetExceeded, match="product at position 18 needs 3504876 work units, 7111476 with"
        ):
            parse_expr("(x+1)^600 + y^4000*x^4000")

    def test_normal_forms_are_not_charged_however_long(self):
        text = " + ".join(f"x^100000*y^{k}" for k in range(1, 201))
        assert parse_expr(text) == WeylElement({(100000, k): Rat(1) for k in range(1, 201)})


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


def outcome(parse, text):
    """The terms in item order, or the error's type and message."""
    try:
        return list(parse(text).terms.items())
    except WeylvalError as exc:
        return type(exc), str(exc)


def grammar(text):
    return _Parser(text).parse()


LONG = "1" * 5000  # past int's 4300-digit text-conversion limit

# Pieces of text the normal-form path refuses or must read as the grammar
# does: other factor orders, juxtaposition, zero coefficients, zero
# denominators, whitespace inside a power, long literals, non-ASCII digits.
PIECES = [
    "x", "y", "x^2", "y^3", "x^0", "3", "1/2", "7/4*x", "2*x", "0", "0*x", "0/5*y",
    "1/0", "3/0*x", "0/0", "y*x", "y^2*x", "x*3", "x*x", "3*2", "3x", "xy", "-1x",
    "x y", "x ^ 2", " 2 * x ^ 3 * y ", "1 /2", "x^2^2", "2^3", "(x)", "(x - 1)^2",
    "x^1/2", LONG, f"{LONG}*x", f"x^{LONG}", "\u0663", "\u0663*x", "x^\u0663", "\u00a0x",
]


@st.composite
def printed_forms(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
        max_size=5,
    ))
    return format_expr(WeylElement({k: Rat(v) for k, v in terms.items()}))


@st.composite
def built_terms(draw):
    """A term put together from a coefficient, x and y parts and joins, in
    either order, with or without the '*' between them."""
    parts = [draw(st.sampled_from(["", "0", "1", "12", "3/4", "0/5", "1/0", "-2"])),
             draw(st.sampled_from(["", "x", "x^3", "x ^ 2", "x^0"])),
             draw(st.sampled_from(["", "y", "y^2", "y^ 10"]))]
    if draw(st.booleans()):
        parts = draw(st.permutations(parts))
    joins = st.sampled_from(["*", "*", " * ", "", " "])
    text = ""
    for part in parts:
        if part:
            text += (draw(joins) if text else "") + part
    return text


expressions = st.builds(
    lambda lead, pieces, seps: lead + "".join(
        (sep if k else "") + piece for k, (sep, piece) in enumerate(zip(seps, pieces))
    ),
    st.sampled_from(["", "", "-", "- ", "+", "--", " "]),
    st.lists(st.one_of(
        printed_forms(),
        st.integers(0, 10**6).map(lambda n: format_expr(sample_element(random.Random(n)))),
        built_terms(),
        st.sampled_from(PIECES),
    ), min_size=1, max_size=5),
    st.lists(st.sampled_from([" + ", " - ", "+", "-", "  -  ", " ", "*", "", " + -"]),
             min_size=5, max_size=5),
)


class TestNormalFormPath:
    """`parse_expr` reads printed normal forms without the grammar walk; on
    every text it agrees with the grammar, in item order and in errors."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(expressions)
    def test_agrees_with_the_grammar(self, text):
        assert outcome(parse_expr, text) == outcome(grammar, text)

    @pytest.mark.parametrize("text", [
        "x^2*y^4 + 2*x*y^3 - 2*x*y^2 + 1",
        "-3/4*x^6 - y + 9",
        "2*x + x",  # repeats accumulate in place
        "x - x + y",  # a cancelled key leaves
        "x - x + y + x",  # and comes back at the end
        "0*x + 0/5*y^2 + 1",  # zero coefficients add nothing
        "  - 2 * x ^ 3 * y  +  x ^ 0  ",
        "007*x^002",
    ])
    def test_takes_printed_normal_forms(self, text):
        assert _normal_form(text) is not None
        assert outcome(parse_expr, text) == outcome(grammar, text)

    @pytest.mark.parametrize("text", [
        "", " ", "(x)", "2^3*x", "x^2^2", "y*x", "x*3", "x*x", "3x", "xy", "-1x",
        "x y", "+x", "--x", "x + -y", "x +", "1/0", "3/0*x", "0/0", "1 /2", "x^1/2",
        LONG, f"{LONG}*x", f"0*x^{LONG}", "\u0663*x", "x^\u0663", "x & y", "z",
    ])
    def test_refused_shapes_take_the_grammar_path(self, text):
        assert _normal_form(text) is None
        assert outcome(parse_expr, text) == outcome(grammar, text)

    def test_refused_shapes_keep_their_errors(self):
        with pytest.raises(ParseError, match="trailing input at position 1: 'x'"):
            parse_expr("3x")
        with pytest.raises(ParseError, match="expected an operand at position 0"):
            parse_expr("+x")
        with pytest.raises(ParseError, match="bad rational literal '1/0'"):
            parse_expr("1/0")
        with pytest.raises(ParseError, match="Exceeds the limit"):
            parse_expr(f"x^{LONG}")
