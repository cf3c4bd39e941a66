"""Expression text format for Weyl elements.

Grammar (no juxtaposition; ^ binds tighter than *; * preserves written order):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | power
    power   := primary ('^' NUMBER)*
    primary := NUMBER | 'x' | 'y' | '(' expr ')'

NUMBER is an integer or p/q rational literal.  Exponents must be nonnegative
integers.  The printer in `weyl.WeylElement.__str__` emits this grammar, so
parse/print round-trips.  The estimated costs of an expression's powers
and products add up, and the first one that takes the total above
EXPR_WORK_BUDGET raises BudgetExceeded before it is computed.

The texts the CLI and the benchmark hand to `parse_expr` are mostly printed
normal forms: an optional leading '-', then terms joined by '+' or '-', each
an optional integer or p/q coefficient, then optional x[^i], then optional
y[^j], joined by '*'.  `parse_expr` reads that shape term by term with one
anchored pattern and adds each term's coefficient straight into the
element's integer rows, skipping the tokenizer and the grammar walk.  Any
other text, including every malformed one, takes the grammar path, so its
result and its errors are the grammar's.
"""

from __future__ import annotations

import re
from math import gcd

from .coeff import parse_rat
from .errors import BudgetExceeded, ParseError
from .weyl import Rows, WeylElement, _element

# Work units the powers and products of one expression may cost together.
# A power is charged the term pairs that `WeylElement.pow`'s linear loop
# hands to the product kernel, each weighed by the 64-bit words of the
# result's coefficients, plus those coefficients' bits.  On a 2-vCPU Xeon,
# (x+1)^600 costs 3,606,600 units and parses in 0.1 s; (x+1)^2000 would cost
# 128 million and take 1.6 s, and 3^99999999 would build a 158-million-bit
# integer.  A power of c x^i or c y^j makes no pairs, so
# x^100000000000000000000 costs nothing.  A product is charged the same way
# (`_product_work`): y^4000*x^4000 costs 3,504,876 units, and
# y^100000*x^100000, which would run out of memory, 2,968,829,688.  The
# charges of one expression add up (`_Parser.charge`), so a long text of
# cheap operations is bounded too: (x+1)^600 parses, and (x+1)^600 +
# (x+1)^600 is refused before its second power is computed.  The
# normal-form path computes no powers and no products, so it never checks
# the budget.
EXPR_WORK_BUDGET = 1 << 22


def _power_work(base: WeylElement, n: int) -> int:
    """Work units of base^n, from bounds on its size.

    Over the common denominator, each factor adds about the bits of the
    numerators' absolute sum and of the denominator; base^k, k < n, has at
    most (k dx + 1)(k dy + 1) terms, dx and dy being the largest x and y
    exponents of base, and each meets every term of base once.
    """
    rows, den = base.rows, base.den
    if not rows:
        return 0
    coeffs = [c for row in rows.values() for c in row.values()]
    bits = n * (sum(map(abs, coeffs)).bit_length() + den.bit_length() - 2)
    dx = max(max(row) for row in rows.values())
    dy = max(rows)
    if len(coeffs) == 1 and (dx == 0 or dy == 0):
        return bits
    s1, s2 = n * (n - 1) // 2, (n - 1) * n * (2 * n - 1) // 6
    pairs = len(coeffs) * (n + (dx + dy) * s1 + dx * dy * s2)
    return pairs * (1 + bits // 64) + bits


def _product_work(left: WeylElement, right: WeylElement) -> int:
    """Work units of left * right, from bounds on its size: each Leibniz
    term the product kernel makes counts as a term pair, weighed by the
    64-bit words of its coefficient.

    A term x^a y^b of left meets a term x^c y^d of right in t + 1 Leibniz
    terms, t = min(b, c), or t = b when c < 0.  The t-th coefficient is p q
    times C(b, t) c (c - 1) ... (c - t + 1), which is at most
    min(2^b, b^t) (|c| + t)^t.  So with X the largest |c| of right, each
    row y^b of left is bounded at once from its term count, and no pair of
    terms is visited.
    """
    if not left.rows or not right.rows:
        return 0
    xs = [c for row in right.rows.values() for c in row]
    big_x = max(map(abs, xs))
    negative = min(xs) < 0
    width = len(xs)
    sizes = (
        sum(abs(p) for row in left.rows.values() for p in row.values()).bit_length()
        + sum(abs(q) for row in right.rows.values() for q in row.values()).bit_length()
    )
    work = 0
    for b, row in left.rows.items():
        t = b if negative else min(b, big_x)
        bits = sizes + t * (big_x + t).bit_length() + min(b, t * b.bit_length())
        work += len(row) * width * (t + 1) * (1 + bits // 64)
    return work

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[xy])|(?P<op>[-+*^()]))"
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # "num" | "name" | "op" | "end"
        self.text, self.pos = text, pos


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} at {pos}")
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.work = 0  # work units charged so far, by `charge`

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def charge(self, what: str, pos: int, work: int) -> None:
        """Add one operation's work units to the expression's total, and
        refuse it, naming its position, when the total passes the budget."""
        self.work += work
        if self.work > EXPR_WORK_BUDGET:
            earlier = "" if self.work == work else f", {self.work} with the earlier operations"
            raise BudgetExceeded(
                f"{what} at position {pos} needs {work} work units{earlier}, "
                f"above the budget of {EXPR_WORK_BUDGET}"
            )

    def expect_op(self, op: str) -> None:
        token = self.take()
        if token.kind != "op" or token.text != op:
            raise ParseError(f"expected {op!r} at position {token.pos}")

    def parse(self) -> WeylElement:
        result = self.expr()
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"trailing input at position {token.pos}: {token.text!r}")
        return result

    def expr(self) -> WeylElement:
        result = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            result = result.add(rhs) if op == "+" else result.sub(rhs)
        return result

    def term(self) -> WeylElement:
        result = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            token = self.take()
            right = self.factor()
            self.charge("product", token.pos, _product_work(result, right))
            result = result.mul(right)
        return result

    def factor(self) -> WeylElement:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            return self.factor().neg()
        return self.power()

    def power(self) -> WeylElement:
        base = self.primary()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            token = self.take()
            if token.kind != "num":
                raise ParseError(f"exponent must be a number at position {token.pos}")
            exponent = parse_rat(token.text)
            if exponent.denominator != 1 or exponent < 0:
                raise ParseError(
                    f"exponent must be a nonnegative integer at position {token.pos}"
                )
            n = int(exponent)
            self.charge(f"power {n}", token.pos, _power_work(base, n))
            base = base.pow(n)
        return base

    def primary(self) -> WeylElement:
        token = self.take()
        if token.kind == "num":
            return WeylElement.scalar(parse_rat(token.text))
        if token.kind == "name":
            return WeylElement.x() if token.text == "x" else WeylElement.y()
        if token.kind == "op" and token.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected an operand at position {token.pos}")


# One term of a printed normal form and the whitespace around it: an optional
# coefficient, then optional x[^i], then optional y[^j], with a '*' only
# between two parts that are there (the conditional groups).  [0-9], not \d,
# so that a non-ASCII digit takes the grammar path; the lookahead in front of
# a term refuses an empty one.
_NF_TERM = (
    r"\s*(?:(?P<p>[0-9]+)(?:/(?P<q>[0-9]+))?)?"
    r"(?:(?(p)\s*\*\s*)(?P<x>x)(?:\s*\^\s*(?P<i>[0-9]+))?)?"
    r"(?:(?(p)\s*\*\s*|(?(x)\s*\*\s*))(?P<y>y)(?:\s*\^\s*(?P<j>[0-9]+))?)?\s*"
)
_NF_FIRST = re.compile(r"\s*(-?)(?=\s*[0-9xy])" + _NF_TERM)
_NF_NEXT = re.compile(r"([-+])(?=\s*[0-9xy])" + _NF_TERM)


def _normal_form(text: str) -> WeylElement | None:
    """The element a printed normal form names, or None for any other text.

    Terms add up into integer rows over a common denominator `scale`, as
    `WeylElement.add` adds them: a repeated key accumulates in place, a key
    that cancels leaves its row and a row left empty leaves, so the stored
    rows and their order are the grammar path's.  A zero denominator and a
    literal past int's text-conversion limit give None, and the grammar
    reports them.
    """
    rows: Rows = {}
    scale = 1
    end = len(text)
    match = _NF_FIRST.match(text)
    while match is not None:
        sign, p, q, x, i, y, j = match.groups()
        try:
            num = 1 if p is None else int(p)
            den = 1 if q is None else int(q)
            xi = 0 if x is None else 1 if i is None else int(i)
            yj = 0 if y is None else 1 if j is None else int(j)
        except ValueError:
            return None
        if not den:
            return None
        if num:
            if sign == "-":
                num = -num
            if scale % den:
                step = den // gcd(scale, den)
                for row in rows.values():
                    for k in row:
                        row[k] *= step
                scale *= step
            row = rows.setdefault(yj, {})
            acc = row.get(xi, 0) + num * (scale // den)
            if acc:
                row[xi] = acc
            else:
                del row[xi]
                if not row:
                    del rows[yj]
        pos = match.end()
        if pos == end:
            return _element(rows, scale)
        match = _NF_NEXT.match(text, pos)
    return None


def parse_expr(text: str) -> WeylElement:
    """Parse expression text into a normal-form Weyl element.

    >>> str(parse_expr("(x*y^2 - 1)^2"))
    'x^2*y^4 + 2*x*y^3 - 2*x*y^2 + 1'
    """
    element = _normal_form(text)
    if element is None:
        try:
            element = _Parser(text).parse()
        except RecursionError:
            # the grammar walk recurses once per '(' and per unary '-'
            raise ParseError("expression nests too deeply to parse") from None
    return element


def format_expr(element: WeylElement) -> str:
    return str(element)
