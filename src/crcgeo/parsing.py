"""Recursive-descent parser for the scalar expression grammar.

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary minus <
``^``, with ``^`` right-associative.  Primaries are rational and decimal
literals, the imaginary unit ``i``, ``sqrt(x)`` (sugar for ``x^(1/2)``),
declared identifiers, and parenthesized expressions.  Exponents must fold
to rational constants.  ``parse`` builds raw scalar nodes over a variable
table; a run of ``+ -`` (or ``* /``) is one n-ary ``Add`` (``Mul``), so
flat input of any length does not nest.  Errors carry the byte offset
of the offending token in the text as given.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import (
    MINUS_ONE,
    Add,
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

# Whitespace, then a number, an identifier, an operator, or any other
# character, which is an error.  The wedge ``/\`` of form notation is one
# operator that no rule takes, so it is refused at its first character.
_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d*)?|\.\d+)|([^\W\d]\w*)|(/\\|[-+*/^(),])|(\S))")
_KINDS = (None, "num", "ident", "op")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text`` as ``(kind, text, offset)`` tuples, of kind
    ``"num"``, ``"ident"`` or ``"op"``, and a last ``("end", "", len(text))``.
    An operator's text is no other kind's, so the grammar tests operators
    by their text alone."""
    tokens = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        k = m.lastindex
        if k == 4:
            raise ParseError(f"unexpected character {m[4]!r}", m.start(4))
        append((_KINDS[k], m[k], m.start(k)))
    append(("end", "", len(text)))
    return tokens


def _number_to_expr(text: str, offset: int) -> Expr:
    try:
        if "." in text:
            return Const(QC.of(Fraction(text)))
        return Const(QC(int(text)))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad numeric literal {text!r}", offset)


class Parser:
    """The grammar over one text: each ``parse_*`` method reads the tokens
    from ``pos`` on and builds the raw scalar nodes of its rule, with the
    constructors of ``Expr``'s operators."""

    __slots__ = ("tokens", "pos", "table")

    def __init__(self, text: str, table: VariableTable):
        self.tokens = tokenize(text)
        self.pos = 0
        self.table = table

    def expect_op(self, op: str) -> None:
        _, text, offset = self.tokens[self.pos]
        if text != op:
            raise ParseError(f"expected {op!r}", offset)
        self.pos += 1

    def parse_all(self) -> Expr:
        node = self.parse_sum()
        kind, text, offset = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", offset)
        return node

    def parse_sum(self) -> Expr:
        terms = [self.parse_product()]
        tokens = self.tokens
        while True:
            op = tokens[self.pos][1]
            if op == "+":
                self.pos += 1
                terms.append(self.parse_product())
            elif op == "-":
                self.pos += 1
                terms.append(Mul((MINUS_ONE, self.parse_product())))
            else:
                return Add(tuple(terms)) if len(terms) > 1 else terms[0]

    def parse_product(self) -> Expr:
        factors = [self.parse_unary()]
        tokens = self.tokens
        while True:
            op = tokens[self.pos][1]
            if op == "*":
                self.pos += 1
                factors.append(self.parse_unary())
            elif op == "/":
                self.pos += 1
                factors.append(Pow(self.parse_unary(), MINUS_ONE_EXP))
            else:
                return Mul(tuple(factors)) if len(factors) > 1 else factors[0]

    def parse_unary(self) -> Expr:
        # also the exponent operand: a leading minus binds to the exponent,
        # and ``^`` to the primary before it
        tokens = self.tokens
        if tokens[self.pos][1] == "-":
            self.pos += 1
            return Mul((MINUS_ONE, self.parse_unary()))
        base = self.parse_primary()
        if tokens[self.pos][1] != "^":
            return base
        self.pos += 1
        offset = tokens[self.pos][2]
        exp = normalize(self.parse_unary())
        if not isinstance(exp, Const) or exp.value.b:
            raise ParseError("exponent must be a rational constant", offset)
        return Pow(base, exp.value.re)

    def parse_primary(self) -> Expr:
        kind, text, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return _number_to_expr(text, offset)
        if kind == "ident":
            if text == "i":
                return I
            if text == "sqrt":
                self.expect_op("(")
                inner = self.parse_sum()
                self.expect_op(")")
                return Pow(inner, HALF)
            v = self.table.get(text)
            if v is None:
                raise UndeclaredIdentifierError(text, offset)
            return Var(v)
        if text == "(":
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, identifier or '('", offset)


def parse(text: str, table: VariableTable) -> Expr:
    """Parse an expression string over the declared variables."""
    return Parser(text, table).parse_all()
