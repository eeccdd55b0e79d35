"""Recursive-descent parser for the expression grammar of scalars and forms.

Grammar (precedence low to high): ``+ -`` < ``/\\`` < ``* /`` < unary
minus < ``^``, with ``^`` right-associative.  Primaries are rational and
decimal literals, the imaginary unit ``i``, ``sqrt(x)`` (sugar for
``x^(1/2)``), declared identifiers, and parenthesized expressions.
Exponents must fold to rational constants.  Errors carry the byte offset
of the offending token in the text as given.

One grammar serves two readers.  ``parse`` builds raw scalar nodes over a
variable table, and there the wedge ``/\\`` is an error;
``forms.parse_form`` subclasses the parser so that the same grammar code
builds forms on a chart.
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
# character, which is an error.
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
    """The grammar over one text.  Grammar methods (``parse_*``) add, subtract
    and negate values with their own operators, and build every other value
    with the builder methods at the end of the class: raw scalar nodes here."""

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

    def parse_all(self):
        node = self.parse_sum()
        tail = self.tok
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing input {tail.text!r}", tail.offset)
        return node

    def parse_sum(self):
        node = self.parse_wedge()
        while True:
            tok = self.tok
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.parse_wedge()
                node = node + rhs if tok.text == "+" else node - rhs
            else:
                return node

    def parse_wedge(self):
        node = self.parse_product()
        while True:
            tok = self.tok
            if tok.kind == "op" and tok.text == "/\\":
                self.advance()
                node = self.wedge(node, self.parse_product(), tok)
            else:
                return node

    def parse_product(self):
        node = self.parse_unary()
        while True:
            tok = self.tok
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.parse_unary()
                node = self.mul(node, rhs, tok) if tok.text == "*" else self.div(node, rhs, tok)
            else:
                return node

    def parse_unary(self):
        # also the exponent operand: a leading minus binds to the exponent
        tok = self.tok
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_primary()
        tok = self.tok
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            offset = self.tok.offset
            return self.power(base, self.rational(self.parse_unary(), offset), tok)
        return base

    def parse_primary(self):
        tok = self.tok
        if tok.kind == "num":
            self.advance()
            return self.constant(_number_to_expr(tok.text, tok.offset))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return self.constant(I)
            if tok.text == "sqrt":
                self.expect_op("(")
                inner = self.parse_sum()
                self.expect_op(")")
                return self.power(inner, HALF, tok)
            return self.identifier(tok)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, identifier or '('", tok.offset)

    # -- builders: raw scalar nodes ---------------------------------------

    def constant(self, e: Expr):
        return e

    def identifier(self, tok: Token):
        v = self.table.get(tok.text)
        if v is None:
            raise UndeclaredIdentifierError(tok.text, tok.offset)
        return Var(v)

    def mul(self, a, b, tok: Token):
        return Mul((a, b))

    def div(self, a, b, tok: Token):
        return Mul((a, Pow(b, MINUS_ONE_EXP)))

    def wedge(self, a, b, tok: Token):
        raise ParseError("the wedge operator '/\\' joins forms, not scalars", tok.offset)

    def power(self, base, exp: Fraction, tok: Token):
        return Pow(base, exp)

    def rational(self, e: Expr, offset: int) -> Fraction:
        """Fold an exponent to a rational constant."""
        n = normalize(e)
        if isinstance(n, Const) and not n.value.b:
            return n.value.re
        raise ParseError("exponent must be a rational constant", offset)


def parse(text: str, table: VariableTable) -> Expr:
    """Parse an expression string over the declared variables."""
    return Parser(text, table).parse_all()
