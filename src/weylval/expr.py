"""Expression text format for Weyl elements.

Grammar (no juxtaposition; ^ binds tighter than *; * preserves written order):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | power
    power   := primary ('^' NUMBER)*
    primary := NUMBER | 'x' | 'y' | '(' expr ')'

NUMBER is an integer or p/q rational literal.  Exponents must be nonnegative
integers.  The printer in `weyl.WeylElement.__str__` emits this grammar, so
parse/print round-trips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .coeff import parse_rat
from .errors import ParseError
from .weyl import WeylElement

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[xy])|(?P<op>[-+*^()]))"
)


@dataclass
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} at {pos}")
        for kind in ("num", "name", "op"):
            if match.group(kind) is not None:
                tokens.append(_Token(kind, match.group(kind), match.start(kind)))
                break
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

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
            self.take()
            result = result.mul(self.factor())
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
            base = base.pow(int(exponent))
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


def parse_expr(text: str) -> WeylElement:
    """Parse expression text into a normal-form Weyl element.

    >>> str(parse_expr("(x*y^2 - 1)^2"))
    'x^2*y^4 + 2*x*y^3 - 2*x*y^2 + 1'
    """
    return _Parser(text).parse()


def format_expr(element: WeylElement) -> str:
    return str(element)
