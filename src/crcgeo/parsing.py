"""Recursive-descent parser for the scalar expression grammar.

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary minus <
``^``, with ``^`` right-associative.  Primaries are rational and decimal
literals, the imaginary unit ``i``, ``sqrt(x)`` (sugar for ``x^(1/2)``),
declared identifiers, and parenthesized expressions.  Exponents must fold
to rational constants.  ``parse`` builds raw scalar nodes over a variable
table.  Errors carry the byte offset of the offending token in the text
as given.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .scalars import (
    Const,
    Expr,
    I,
    Mul,
    ParseError,
    Pow,
    QC,
    UndeclaredIdentifierError,
    Var,
    VariableTable,
    normalize,
)

HALF = Fraction(1, 2)
MINUS_ONE_EXP = Fraction(-1)


class Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    offset: int


# Whitespace, then a number, an identifier, an operator, or any other
# character, which is an error.  The wedge ``/\`` of form notation is one
# operator that no rule takes, so it is refused at its first character.
_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d*)?|\.\d+)|([^\W\d]\w*)|(/\\|[-+*/^(),])|(\S))")
_KINDS = (None, "num", "ident", "op")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN.finditer(text):
        k = m.lastindex
        if k == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        tokens.append(Token(_KINDS[k], m.group(k), m.start(k)))
    tokens.append(Token("end", "", len(text)))
    return tokens


def _number_to_expr(text: str, offset: int) -> Expr:
    try:
        if "." in text:
            return Const(QC.of(Fraction(text)))
        return Const(QC(int(text)))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad numeric literal {text!r}", offset)


class Parser:
    """The grammar over one text: each ``parse_*`` method builds the raw
    scalar nodes of its rule."""

    def __init__(self, text: str, table: VariableTable):
        self.tokens = tokenize(text)
        self.pos = 0
        self.tok = self.tokens[0]  # the next token; the last one is "end"
        self.table = table

    def advance(self) -> Token:
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.tok
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.offset)
        return self.advance()

    def parse_all(self) -> Expr:
        node = self.parse_sum()
        tail = self.tok
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing input {tail.text!r}", tail.offset)
        return node

    def parse_sum(self) -> Expr:
        node = self.parse_product()
        while True:
            tok = self.tok
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.parse_product()
                node = node + rhs if tok.text == "+" else node - rhs
            else:
                return node

    def parse_product(self) -> Expr:
        node = self.parse_unary()
        while True:
            tok = self.tok
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.parse_unary()
                node = Mul((node, rhs if tok.text == "*" else Pow(rhs, MINUS_ONE_EXP)))
            else:
                return node

    def parse_unary(self) -> Expr:
        # also the exponent operand: a leading minus binds to the exponent
        tok = self.tok
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        tok = self.tok
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            offset = self.tok.offset
            exp = normalize(self.parse_unary())
            if not isinstance(exp, Const) or exp.value.b:
                raise ParseError("exponent must be a rational constant", offset)
            return Pow(base, exp.value.re)
        return base

    def parse_primary(self) -> Expr:
        tok = self.tok
        if tok.kind == "num":
            self.advance()
            return _number_to_expr(tok.text, tok.offset)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return I
            if tok.text == "sqrt":
                self.expect_op("(")
                inner = self.parse_sum()
                self.expect_op(")")
                return Pow(inner, HALF)
            v = self.table.get(tok.text)
            if v is None:
                raise UndeclaredIdentifierError(tok.text, tok.offset)
            return Var(v)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, identifier or '('", tok.offset)


def parse(text: str, table: VariableTable) -> Expr:
    """Parse an expression string over the declared variables."""
    return Parser(text, table).parse_all()
