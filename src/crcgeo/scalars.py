"""Exact symbolic scalars over Q(i) with reality-tagged variables.

Expressions are immutable trees built from rational-complex constants,
variables, sums, products and rational powers.  ``normalize`` flattens a
tree into a sum of monomials whose atoms are variables and opaque power
bases (radicals ``base**(p/q)`` and inverted polynomials ``base**(-k)``).
Radical rewrites are deliberately light: the integer-part split
``base**e -> base**floor(e) * base**(e - floor(e))`` for ``e >= 1``,
prime factorization of positive rational radicands, one rule for what
leaves a fractional power (its base's positive content, ``_extract_content``),
and a recombination pass that lifts monomial groups divisible by a radical
base into the next power of the atom (which keeps derivative cascades of
closed-form radicals in factored shape).  No general algebraic-extension
engine is attempted; the normal form is canonical on Laurent polynomials,
deterministic, idempotent on every tree of ROADMAP item 13's scan, and on
real variables value-or-error: a tree's value, where it has one, is kept.

This module owns every zero decision, along two routes.  The exact one
is ``certify_zero``: it clears all denominators and radical offsets by a
monomial that is nonvanishing wherever the expression is defined, so a
surviving zero certifies the identity; a ``False`` only means "not
proven", never "nonzero".  The sampled one is ``is_identically_zero``: it
normalizes, tries the certificate, and only then judges values at seeded
points of a caller-supplied box from ``sample_values``, the one sampler,
which also serves the tube's positivity check and alone decides which
drawn point counts (see its docstring).
Certificate verdicts are memoized per node like the kernel's other
results.  Forms, the suites and the tube pipeline call these two and
decide nothing themselves.

Reality tags drive conjugation: ``real``/``positive_real`` variables are
fixed, ``imaginary`` ones negate, ``unit_modulus`` ones invert, and
``complex_paired`` ones swap with their partner.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import sys
import weakref
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

REAL = "real"
IMAGINARY = "imaginary"
UNIT_MODULUS = "unit_modulus"
COMPLEX_PAIRED = "complex_paired"
POSITIVE_REAL = "positive_real"

# the one table of declaration keywords, for variables and chart generators
KINDS = {"real": REAL, "positive": POSITIVE_REAL, "imaginary": IMAGINARY,
         "unit": UNIT_MODULUS, "unit_modulus": UNIT_MODULUS, "pair": COMPLEX_PAIRED}

_RESERVED_NAMES = {"i", "sqrt"}


class ExprError(Exception):
    """Base error for the scalar kernel."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UndeclaredIdentifierError(ParseError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"undeclared identifier '{name}'", offset)
        self.name = name


class DomainEvalError(ExprError):
    """Raised when numeric evaluation leaves the expression's domain."""


class RealityViolationError(ExprError):
    """Raised when a binding or substitution contradicts a reality tag."""


class ZeroTestInconclusiveError(ExprError):
    """Raised when too few sampled points are admissible."""


class WorkBudgetError(ExprError):
    """Raised when a power or a printed coefficient would exceed its work budget."""


# ---------------------------------------------------------------------------
# rational-complex constants


# Size a coefficient raised to an integer power may reach, estimated as
# |k| times floor(log2) of the largest numerator or denominator of its
# real and imaginary parts in lowest terms (doubled, plus one, when it is
# not real).  The parts of a result within it stay under 12000 bits, so
# they print within Python's 4300-digit limit on converting an int to text.
# Only ``QC.pow_int`` checks it, and only for a power that grows, |k| > 1.
_POWER_BITS_BUDGET = 6000


class QC:
    """The Gaussian rational ``(a + b*i)/d`` over Python ints, with ``d > 0``
    and ``gcd(a, b, d) == 1``, so equal values have equal fields.

    ``QC(a, b, d)`` takes fields already in that form (``QC(n)`` is the
    integer n); ``QC.of`` builds one from int or Fraction parts.  No value
    changes once built: arithmetic returns a new one, reduced with one
    ``math.gcd``, with a fast path between real values (``b == 0``).  ``re``
    and ``im`` give the parts as Fractions, for parsers and printers."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int = 0, d: int = 1):
        self.a = a
        self.b = b
        self.d = d

    @staticmethod
    def of(re, im=0) -> "QC":
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError(f"expected int or Fraction parts, got {re!r}, {im!r}")
        p, q = re.denominator, im.denominator
        return _reduced(re.numerator * q, im.numerator * p, p * q)

    re = property(lambda self: Fraction(self.a, self.d))
    im = property(lambda self: Fraction(self.b, self.d))

    def __eq__(self, other):
        return (type(other) is QC and self.a == other.a and self.b == other.b
                and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"QC({self.a}, {self.b}, {self.d})"

    def __add__(self, other: "QC") -> "QC":
        d, e = self.d, other.d
        if d == 1 and e == 1:
            return QC(self.a + other.a, self.b + other.b)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "QC") -> "QC":
        d, e = self.d, other.d
        if d == 1 and e == 1:
            return QC(self.a - other.a, self.b - other.b)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __mul__(self, other: "QC") -> "QC":
        a, b, d = self.a, self.b, self.d
        x, y, e = other.a, other.b, other.d
        if not b and not y:
            a *= x
            d *= e
            if d == 1:
                return QC(a)
            g = gcd(a, d)
            return QC(a // g, 0, d // g)
        return _reduced(a * x - b * y, a * y + b * x, d * e)

    def __neg__(self) -> "QC":
        return QC(-self.a, -self.b, self.d)

    def conjugate(self) -> "QC":
        return QC(self.a, -self.b, self.d)

    def inverse(self) -> "QC":
        a, b, d = self.a, self.b, self.d
        if not b:
            if not a:
                raise DomainEvalError("division by zero constant")
            return QC(d, 0, a) if a > 0 else QC(-d, 0, -a)
        return _reduced(a * d, -b * d, a * a + b * b)

    def pow_int(self, k: int) -> "QC":
        a, b, d = self.a, self.b, self.d
        if k > 1 or k < -1:
            log2 = max(n.bit_length() for x in (a, b) for g in (gcd(x, d),)
                       for n in (x // g, d // g)) - 1
            if abs(k) * (2 * log2 + 1 if b else log2) > _POWER_BITS_BUDGET:
                raise WorkBudgetError(
                    f"raising a coefficient to the power {k} exceeds the work budget "
                    f"of {_POWER_BITS_BUDGET} bits")
        if k < 0:
            inv = self.inverse()
            a, b, d, k = inv.a, inv.b, inv.d, -k
        if not b:
            return QC(a ** k, 0, d ** k)
        x, y = 1, 0
        for _ in range(k):
            x, y = x * a - y * b, x * b + y * a
        return _reduced(x, y, d ** k)

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    @property
    def is_one(self) -> bool:
        return self.a == 1 and self.d == 1 and not self.b

    def to_complex(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        return complex(self.a / self.d, self.b / self.d)


def _reduced(a: int, b: int, d: int) -> QC:
    """``(a + b*i)/d`` in lowest terms, for ``d > 0``."""
    g = gcd(a, b, d)
    return QC(a, b, d) if g == 1 else QC(a // g, b // g, d // g)


QC_ONE = QC(1)


# ---------------------------------------------------------------------------
# variables


class Variable(NamedTuple):
    name: str
    reality: str
    partner: str | None = None

    def __repr__(self):
        return f"Variable({self.name}:{self.reality})"


def declared(kind: str, names: Sequence[str]) -> list[Variable]:
    """The variables of one declaration: ``names`` tagged ``KINDS[kind]``.
    A ``pair`` takes two distinct names, each the other's partner."""
    reality = KINDS.get(kind)
    if reality is None:
        raise ExprError(f"unknown kind {kind!r}")
    if reality != COMPLEX_PAIRED:
        return [Variable(n, reality) for n in names]
    if len(names) != 2 or names[0] == names[1]:
        raise ExprError("a pair declaration needs two distinct names")
    a, b = names
    return [Variable(a, reality, b), Variable(b, reality, a)]


def is_name(name: str) -> bool:
    """The name rule of variables and generators: a letter, then letters,
    digits or underscores, and not reserved."""
    return (bool(name) and name[0].isalpha() and name.replace("_", "a").isalnum()
            and name not in _RESERVED_NAMES)


class VariableTable:
    """Registry of declared variables; names are unique within a table."""

    def __init__(self):
        self._vars: dict[str, Variable] = {}

    def declare(self, kind: str, *names: str) -> list[Variable]:
        """Declare ``names`` as variables of ``kind``, a key of ``KINDS``."""
        out = declared(kind, names)
        for v in out:
            if not is_name(v.name):
                raise ExprError(f"invalid variable name '{v.name}'")
            if v.name in self._vars:
                raise ExprError(f"variable '{v.name}' already declared")
            self._vars[v.name] = v
        return out

    def real(self, *names: str) -> list[Variable]:
        return self.declare("real", *names)

    def positive(self, *names: str) -> list[Variable]:
        return self.declare("positive", *names)

    def imaginary(self, *names: str) -> list[Variable]:
        return self.declare("imaginary", *names)

    def unit_modulus(self, *names: str) -> list[Variable]:
        return self.declare("unit", *names)

    def pair(self, name: str, partner: str) -> tuple[Variable, Variable]:
        return tuple(self.declare("pair", name, partner))

    def __getitem__(self, name: str) -> Variable:
        return self._vars[name]

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def get(self, name: str) -> Variable | None:
        return self._vars.get(name)

    def variables(self) -> list[Variable]:
        return list(self._vars.values())


# ---------------------------------------------------------------------------
# expression trees

NumberLike = Union[int, Fraction, QC, "Expr"]


class Expr:
    """Immutable symbolic expression node, hash-consed.

    Every node is built through the weak intern table ``_INTERN``, so while
    a node is alive, building a structurally equal one returns that same
    object.  Equality and hashing are therefore ``object``'s identity
    tests, which run in C.  A node caches its sort key once it has served
    as a monomial atom.
    """

    __slots__ = ("__weakref__", "_skey")

    def __add__(self, other: NumberLike) -> "Expr":
        return Add((self, lift(other)))

    def __radd__(self, other: NumberLike) -> "Expr":
        return Add((lift(other), self))

    def __sub__(self, other: NumberLike) -> "Expr":
        return Add((self, Mul((MINUS_ONE, lift(other)))))

    def __rsub__(self, other: NumberLike) -> "Expr":
        return Add((lift(other), Mul((MINUS_ONE, self))))

    def __mul__(self, other: NumberLike) -> "Expr":
        return Mul((self, lift(other)))

    def __rmul__(self, other: NumberLike) -> "Expr":
        return Mul((lift(other), self))

    def __truediv__(self, other: NumberLike) -> "Expr":
        return Mul((self, Pow(lift(other), Fraction(-1))))

    def __rtruediv__(self, other: NumberLike) -> "Expr":
        return Mul((lift(other), Pow(self, Fraction(-1))))

    def __neg__(self) -> "Expr":
        return Mul((MINUS_ONE, self))

    def __pow__(self, e) -> "Expr":
        return Pow(self, Fraction(e))


# Structure key -> live node.  A key holds the node's children, which are
# canonical because they are alive, so key equality is structural equality.
# An entry leaves the table when its node dies, never on ``clear_caches()``.
_INTERN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# Lookups read the table's own dict of weak references and call the one
# found, both in C (``WeakValueDictionary.get`` is Python code).  Calling
# ``_NO_REF`` returns None, as a dead reference does; either way the new
# node's reference replaces the entry.  It is written straight into that
# dict, as ``_INTERN[key] = node`` would write a ``KeyedRef``, but built in
# C: ``_KeyRef`` has no Python ``__new__``, and the table's removal
# callback reads only its ``key``.
_INTERN_REFS: dict = _INTERN.data
_NO_REF = type(None)
_INTERN_REMOVE = _INTERN._remove


class _KeyRef(weakref.ref):
    __slots__ = ("key",)


def _interned(cls, key, *values):
    """The live node of ``cls`` under ``key``, or a new one whose
    ``__slots__`` hold ``values`` in order, registered under ``key``."""
    node = _INTERN_REFS.get(key, _NO_REF)()
    if node is None:
        node = object.__new__(cls)
        node._skey = None
        for name, value in zip(cls.__slots__, values):
            setattr(node, name, value)
        ref = _KeyRef(node, _INTERN_REMOVE)
        ref.key = key
        _INTERN_REFS[key] = ref
    return node


class Const(Expr):
    __slots__ = ("value", "_complex")

    def __new__(cls, value: QC):
        return _interned(cls, ("C", value.a, value.b, value.d), value, None)

    def __repr__(self):
        return f"Const({qc_text(self.value)})"


class Var(Expr):
    __slots__ = ("var",)

    def __new__(cls, var: Variable):
        return _interned(cls, ("V", var), var)

    def __repr__(self):
        return f"Var({self.var.name})"


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple):
        return _interned(cls, ("A", terms), terms)

    def __repr__(self):
        return "Add(" + ", ".join(map(repr, self.terms)) + ")"


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple):
        return _interned(cls, ("M", factors), factors)

    def __repr__(self):
        return "Mul(" + ", ".join(map(repr, self.factors)) + ")"


class Pow(Expr):
    __slots__ = ("base", "exp", "_fexp")

    def __new__(cls, base: Expr, exp):
        if type(exp) is not Fraction:  # also turns a _KeyExp into a Fraction
            exp = Fraction(exp)
        # the key holds ints, which hash in C, where Fraction's hash is Python
        return _interned(cls, ("P", base, exp.numerator, exp.denominator), base, exp, None)

    def __repr__(self):
        return f"Pow({self.base!r}, {self.exp})"


ZERO = Const(QC(0))
ONE = Const(QC_ONE)
I = Const(QC(0, 1))
MINUS_ONE = Const(QC(-1))


def lift(x: NumberLike) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(x if isinstance(x, QC) else QC.of(x))


# ---------------------------------------------------------------------------
# normalization to a sum of monomials
#
# A monomial is (coefficient, pows) where pows is a tuple of (atom, exponent)
# sorted by atom key.  Atoms are Var nodes, positive-rational Const bases of
# irrational powers, and canonical non-monomial expressions (sum bases).
# An integral exponent is stored as an int and any other as an interned
# ``_KeyExp`` (``_key_exp``): ints add and hash in C, a ``_KeyExp`` carries
# its hash, and since equal values hash alike the memos see the same keys
# as with Fractions throughout.

_PowsKey = tuple


_NF_MEMO: dict = {}
_NORM_MEMO: dict = {}
_CONJ_MEMO: dict = {}
_DIFF_MEMO: dict = {}
_FREEVARS_MEMO: dict = {}
_CERT_MEMO: dict = {}
_QUOT_MEMO: dict = {}
_MUL_MEMO: dict = {}
_MONO_MEMO: dict = {}
_SUBST_MEMO: dict = {}
_TEXT_MEMO: dict = {}
_EXPS: dict = {}
# what ``kept`` functions returned, by (function, arguments)
_KEPT: dict = {}


def clear_caches() -> None:
    """Empty the memos (normal forms, conjugates, derivatives, certificates,
    quotients, accepted substitutions, renderings), the exponent table and
    what ``kept`` functions returned (the jet model, the dga charts, the
    forms layer's word merges): a new generation.  Live nodes stay
    interned, with their cached sort keys, complex values and float
    exponents."""
    for memo in (_NF_MEMO, _NORM_MEMO, _CONJ_MEMO, _DIFF_MEMO,
                 _FREEVARS_MEMO, _CERT_MEMO, _QUOT_MEMO,
                 _MUL_MEMO, _MONO_MEMO, _SUBST_MEMO, _TEXT_MEMO, _EXPS, _KEPT):
        memo.clear()


def kept(build):
    """``build`` returning, for arguments it has seen in this generation,
    what it returned then.  For constructions (charts, forms, models,
    tables) that no caller changes; the arguments hash by value or
    identity.  It keeps the jet model, one dga chart per set of zeroed
    families and the forms layer's table of word merges."""
    @functools.wraps(build)
    def keeper(*args):
        key = (build, args)
        if key not in _KEPT:
            _KEPT[key] = build(*args)
        return _KEPT[key]
    return keeper


def _atom_sort_key(atom: Expr):
    key = atom._skey
    if key is None:
        if type(atom) is Var:
            key = (0, atom.var.name)
        elif type(atom) is Const:
            key = (1, qc_text(atom.value))
        else:
            key = (2, _render(atom))
        atom._skey = key
    return key


class _KeyExp(Fraction):
    """A non-integral exponent in a pows key: one instance per value (see
    ``_key_exp``), its hash, equal to ``Fraction``'s, computed once.
    Arithmetic on it gives plain Fractions, ``Pow`` converts it and
    ``QC.of`` reads its ints, so it never reaches a node."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash


def _key_exp(e):
    """An exponent as a pows key stores it: int when integral, else the
    interned ``_KeyExp`` of its value."""
    if type(e) is int or type(e) is _KeyExp:
        return e
    num, den = e.numerator, e.denominator
    if den == 1:
        return num
    shared = _EXPS.get((num, den))
    if shared is None:
        shared = _KeyExp(num, den)
        shared._hash = Fraction.__hash__(shared)
        _EXPS[num, den] = shared
    return shared


def _mono_key(pows: _PowsKey):
    return tuple([(_atom_sort_key(a), e) for a, e in pows])


def _item_key(item):
    return _atom_sort_key(item[0])


def _add_exp(powmap: dict, atom: Expr, e) -> None:
    cur = powmap.get(atom)
    powmap[atom] = e if cur is None else cur + e


def _mono_parts(pows: _PowsKey) -> tuple:
    """``(sort key, factors, laurent)`` of a monomial key: ``_mono_key(pows)``,
    its ``Var``/``Pow`` factors in order, and whether it holds no sum atom,
    built once per key value (``_MONO_MEMO``)."""
    parts = _MONO_MEMO.get(pows)
    if parts is None:
        parts = _MONO_MEMO[pows] = (
            _mono_key(pows), tuple([atom if e == 1 else Pow(atom, e) for atom, e in pows]),
            not any(_is_sum_atom(atom) for atom, _ in pows))
    return parts


def _rebuild(nf: dict) -> Expr:
    items = [(_mono_parts(pows), c) for pows, c in nf.items() if not c.is_zero]
    if not items:
        return ZERO
    items.sort(key=lambda it: it[0][0])
    monos = []
    for (_, factors, _), c in items:
        if not factors:
            monos.append(Const(c))
        elif not c.is_one:
            monos.append(Mul((Const(c),) + factors))
        else:
            monos.append(factors[0] if len(factors) == 1 else Mul(factors))
    return monos[0] if len(monos) == 1 else Add(tuple(monos))


def _nf_add_into(acc: dict, nf: Mapping) -> None:
    for pows, c in nf.items():
        cur = acc.get(pows)
        new = c if cur is None else cur + c
        if new.is_zero:
            acc.pop(pows, None)
        else:
            acc[pows] = new


def _is_sum_atom(atom: Expr) -> bool:
    return not isinstance(atom, (Var, Const))


# Monomial products one expansion of a power of a sum, or one product of
# normal forms, may make.  The heaviest expansion in the tests and benchmark
# workloads is estimated at 2448; an expansion at the budget takes about
# 2-3 s on one core.
_EXPANSION_BUDGET = 200_000


def _fix_monomial(coeff: QC, powmap: dict) -> dict:
    """Canonicalize one monomial of a nonzero coefficient: the one place
    where a power becomes monomials.  A constant atom's integer part folds
    into the coefficient, a sum atom's integer part expands, and a sum atom
    at a negative integral power splits into content and primitive
    (``_extract_content``) unless it is its own primitive, so the result
    may hold several monomials.

    An expansion multiplies by a ``terms``-term sum ``n`` times; after j
    factors at most C(terms+j-1, j) monomials remain, so the n steps make
    at most terms * C(terms+n-1, n-1) products, which also bounds the
    expanded term count, C(terms+n-1, n).  Over ``_EXPANSION_BUDGET``
    products it is refused.
    """
    for atom, e in powmap.items():
        if e.denominator == 1 and e < 0 and _is_sum_atom(atom):
            c, content, primitive = _extract_content(_nf(atom), fractional=False)
            if primitive is not atom:
                # a content atom may be the primitive itself, so exponents add
                split = {a: x for a, x in powmap.items() if a is not atom}
                for a, x in content + ((primitive, 1),):
                    _add_exp(split, a, x * e)
                return _fix_monomial(coeff * c.pow_int(int(e)), split)
    reduced: dict = {}
    expansions: list[dict] = []
    for atom, e in powmap.items():
        if not e:
            continue
        if isinstance(atom, Const) and (e.denominator == 1 or e >= 1 or e < 0):
            # fold integer parts of constant powers into the coefficient
            whole = e.numerator // e.denominator
            coeff = coeff * atom.value.pow_int(whole)
            e = e - whole
            if not e:
                continue
        elif _is_sum_atom(atom) and e >= 1:
            n = int(e) if e.denominator == 1 else int(e.numerator // e.denominator)
            base_nf = _nf(atom)
            terms = len(base_nf)
            if terms * math.comb(terms + n - 1, n - 1) > _EXPANSION_BUDGET:
                raise WorkBudgetError(
                    f"expanding a {terms}-term sum to the power {n} exceeds the work "
                    f"budget of {_EXPANSION_BUDGET} monomial products")
            for _ in range(n):
                expansions.append(base_nf)
            e = e - n
            if not e:
                continue
        reduced[atom] = _key_exp(e)
    pows = tuple(sorted(reduced.items(), key=_item_key))
    result = {pows: coeff}
    for base_nf in expansions:
        result = _nf_mul(result, base_nf)
    return result


def _nf_mul(a: Mapping, b: Mapping) -> dict:
    """The product of two normal forms.  ``_MUL_MEMO`` keeps the product of
    two monomial keys, by value, as ``_fix_monomial``'s terms at unit
    coefficient; scaled by ``c = ca*cb`` (never zero) they are exactly, in
    order, the terms of ``_fix_monomial(c, ...)``, as canonicalizing a
    monomial is linear in its coefficient."""
    acc: dict = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            c = ca * cb
            unit = _MUL_MEMO.get((pa, pb))
            if unit is None:
                powmap = dict(pa)
                for atom, e in pb:
                    cur = powmap.get(atom)
                    powmap[atom] = e if cur is None else cur + e
                unit = _MUL_MEMO[pa, pb] = tuple(_fix_monomial(QC_ONE, powmap).items())
            for pows, u in unit:
                cur = acc.get(pows)
                new = c * u if cur is None else cur + c * u
                if new.is_zero:
                    acc.pop(pows, None)
                else:
                    acc[pows] = new
    return acc


def _factor_positive_int(n: int) -> list:
    """Prime factorization by trial division; a large leftover cofactor is
    kept unfactored (still a valid atom base)."""
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            n //= p
            out.append(p)
    q = 17
    while q * q <= n and q < 100000:
        while n % q == 0:
            n //= q
            out.append(q)
        q += 2
    if n > 1:
        out.append(n)
    return out


def _atom_certified_positive(atom: Expr, exp: Fraction) -> bool:
    """True when atom**exp is positive wherever it is defined: a positive
    constant or variable, or any atom at a fractional power."""
    if isinstance(atom, Const):
        return not atom.value.b and atom.value.a > 0
    return exp.denominator != 1 or isinstance(atom, Var) and atom.var.reality == POSITIVE_REAL


def _nf_pow(base: Expr, e: Fraction) -> dict:
    """Normal form of base**e.  An integer power of a monomial multiplies
    its exponents, and ``_fix_monomial`` expands or splits one of a sum; a
    fractional power, of a monomial or a sum, splits the base as content *
    primitive (``_extract_content``) and keeps the primitive as one atom.
    ``_fix_monomial`` makes the monomials of each."""
    nf = _nf(base)
    if e == 0:
        return {(): QC_ONE}
    if e == 1:
        return dict(nf)
    if not nf:
        if e < 0:
            raise DomainEvalError("zero raised to a negative power")
        return {}
    if e.denominator == 1:
        k = int(e)
        if len(nf) > 1:
            return _fix_monomial(QC_ONE, {base: k})
        (pows, c), = nf.items()
        return _fix_monomial(c.pow_int(k), {atom: ex * k for atom, ex in pows})
    content_coeff, content_pows, primitive = _extract_content(nf, fractional=True)
    # the positive rational content splits into prime radicals, which cancel
    powmap: dict = {}
    for n, power in ((content_coeff.a, e), (content_coeff.d, -e)):
        for p in _factor_positive_int(n):
            _add_exp(powmap, Const(QC(p)), power)
    for atom, ex in content_pows:
        _add_exp(powmap, atom, ex * e)
    if primitive is not ONE:
        _add_exp(powmap, primitive, e)
    return _fix_monomial(QC_ONE, powmap)


def _extract_content(nf: Mapping, fractional: bool):
    """Factor a nonzero normal form as content * primitive.

    For a sum atom at a negative integer power (``_fix_monomial``) the
    content is the full common atom powers and the coefficient of the
    primitive's leading monomial, so the sign of a sum atom does not depend
    on the atoms it shares.  Under a fractional power e (``_nf_pow``),
    ``(content*P)**e = content**e * P**e`` must hold wherever the left side
    is defined, so the content is what is positive there: the common atoms
    ``_atom_certified_positive`` accepts and the positive rational content
    of the coefficients.  A monomial whose coefficient is that content, and
    whose other atoms are real variables, one at an odd power f**k and the
    rest E at even powers, gives up f**k too: E is never negative, so the
    monomial is positive only where f is, and ``(f**k*E)**e = f**(k*e) * E**e``.
    """
    common: dict | None = None
    for pows in nf:
        pmap = dict(pows)
        if common is None:
            common = pmap
        else:
            common = {
                a: min(e, pmap[a]) for a, e in common.items()
                if a in pmap and min(e, pmap[a]) != 0
            }
    common = common or {}
    if fractional:
        coeff = _positive_rational_content(list(nf.values()))
        uncertified = [a for a, e in common.items() if not _atom_certified_positive(a, e)]
        odd = [a for a in uncertified if common[a] % 2]
        if (len(nf) == 1 and len(odd) == 1 and next(iter(nf.values())) == coeff
                and all(isinstance(a, Var) and a.var.reality == REAL for a in uncertified)):
            uncertified.remove(odd[0])
        for a in uncertified:
            del common[a]
    divided: dict = {}
    for pows, c in nf.items():
        pmap = dict(pows)
        for a, e in common.items():
            pmap[a] = pmap[a] - e
        key = tuple(sorted(((a, _key_exp(e)) for a, e in pmap.items() if e),
                           key=_item_key))
        divided[key] = c
    if not fractional:
        coeff = divided[min(divided, key=_mono_key)]
    inv = coeff.inverse()
    primitive = _rebuild({key: inv * c for key, c in divided.items()})
    content_pows = tuple(sorted(common.items(), key=_item_key))
    return coeff, content_pows, primitive


def _positive_rational_content(coeffs: Sequence[QC]) -> QC:
    """The positive rational generating the parts of ``coeffs`` as a group:
    those of ``(a + b*i)/d`` generate ``gcd(a, b)/d``, in lowest terms as
    ``gcd(a, b, d) == 1``, and several such ``n/d`` generate
    ``gcd(n...)/lcm(d...)``, again in lowest terms.  A zero adds nothing."""
    num = gcd(*[x for c in coeffs for x in (c.a, c.b)])
    return QC(num, 0, math.lcm(*[c.d for c in coeffs])) if num else QC_ONE


_QUOT_MAX_STEPS = 60


def _graded_quotient(nf: Mapping, base: Mapping):
    """nf / base, or None when there is none or ``_QUOT_MAX_STEPS`` steps
    do not find it.

    Every atom of the divisor, variable, constant radical or sum atom, is
    taken as an indeterminate.  The divisor never touches the part of a
    monomial outside its own atoms, so the dividend's monomials sharing
    that part divide on their own, in the domain Q(i)[A^Q] of Laurent
    polynomials with rational exponents.  There one polynomial is a
    Groebner basis of its ideal, so division in a graded order (total
    degree, then lex in ``_atom_sort_key`` order) decides formal
    divisibility: a quotient's terms come out leading term first, and each
    lies at or above the group's least exponents minus the divisor's
    (these add under multiplication), so a quotient term below that floor
    proves there is no quotient.

    A formal identity ``nf = q*base`` gives ``_nf_mul(q, base) == nf``:
    ``_nf_mul`` applies ``_fix_monomial`` to each monomial product,
    ``_fix_monomial`` is linear, and it fixes every monomial of the normal
    form nf (a sum atom nf holds at a negative integral power is its own
    primitive).  Each quotient term goes through ``_fix_monomial`` as well,
    which folds a constant radical's integer part into the coefficient;
    products keep their value and form, as the integer parts still add up
    (floor(a) + floor(a - floor(a) + b) = floor(a + b)).  A sum atom's
    quotient exponent must stay below 1, its ceiling: the greatest
    exponents add too, so at 1 or more every divisor monomial holds that
    atom at a negative power, and the expansion ``_fix_monomial`` would
    make of the term does not fold back under ``_nf_mul``; a split at a
    negative integral power keeps the value but need not fold back either.
    The division knows no relation between atoms, such as ``r^2 = 2`` for
    ``r = 2^(1/2)``, so it refuses ``(x^2 - 2)/(x + 2^(1/2))``.
    """
    order = sorted({atom for pows in base for atom, _ in pows}, key=_atom_sort_key)
    inside = set(order)

    def split(pows):
        exps = dict(pows)
        return (tuple([item for item in pows if item[0] not in inside]),
                tuple([exps.get(a, 0) for a in order]))

    def graded(e):
        return sum(e), e

    divisor = {split(pows)[1]: c for pows, c in base.items()}
    lead = max(divisor, key=graded)
    lead_inv = divisor[lead].inverse()
    floor = [min(col) for col in zip(*divisor)]
    ceiling = [1 if _is_sum_atom(a) else math.inf for a in order]
    groups: dict = {}
    for pows, c in nf.items():
        rest, e = split(pows)
        groups.setdefault(rest, {})[e] = c
    quotient: dict = {}
    steps = 0
    for rest, remainder in groups.items():
        low = [min(col) - f for col, f in zip(zip(*remainder), floor)]
        while remainder:
            steps += 1
            top = max(remainder, key=graded)
            qe = tuple([t - x for t, x in zip(top, lead)])
            if steps > _QUOT_MAX_STEPS or any(
                    q < f or q >= c for q, f, c in zip(qe, low, ceiling)):
                return None
            qc = remainder[top] * lead_inv
            for e, c in divisor.items():
                p = tuple([q + x for q, x in zip(qe, e)])
                new = -(qc * c) if p not in remainder else remainder[p] - qc * c
                if new.is_zero:
                    del remainder[p]
                else:
                    remainder[p] = new
            powmap = dict(rest)
            powmap.update(zip(order, qe))
            _nf_add_into(quotient, _fix_monomial(qc, powmap))
    return quotient


def _exact_quotient(nf: Mapping, base: Mapping):
    """nf / base by ``_graded_quotient`` when it exists and is found, else
    None.

    Outcomes are memoized per (dividend, divisor) pair; a quotient is
    stored and returned as a fresh dict, so callers may mutate it.
    """
    key = (frozenset(nf.items()), frozenset(base.items()))
    if key in _QUOT_MEMO:
        cached = _QUOT_MEMO[key]
        return None if cached is None else dict(cached)
    quotient = _graded_quotient(nf, base)
    _QUOT_MEMO[key] = None if quotient is None else tuple(quotient.items())
    return quotient


def _collapse(nf: dict) -> dict:
    """Lift monomial groups divisible by a radical base into the next
    power of the atom: sum_e P**e Q_e with B | Q_e becomes P**(e+1) (Q_e/B).
    Keeps derivative cascades of closed-form radicals in factored shape."""
    if len(nf) < 2 or len(nf) > 400:
        return nf
    atoms = set()
    for pows, _ in nf.items():
        for a, x in pows:
            if x < 0 and _is_sum_atom(a):
                atoms.add(a)
    if not atoms:
        return nf
    changed = True
    while changed:
        changed = False
        for atom in sorted(atoms, key=_atom_sort_key):
            groups: dict = {}
            for pows, c in nf.items():
                exp = 0
                rest = []
                for a, x in pows:
                    if a == atom:
                        exp = x
                    else:
                        rest.append((a, x))
                groups.setdefault(exp, {})[tuple(rest)] = c
            exps = sorted(e for e in groups if e < 0)
            if not exps:
                continue
            base_nf = _nf(atom)
            for e in exps:
                quotient = _exact_quotient(groups[e], base_nf)
                if quotient is None:
                    continue
                target = groups.setdefault(e + 1, {})
                _nf_add_into(target, quotient)
                del groups[e]
                changed = True
            if changed:
                rebuilt: dict = {}
                for e, group in groups.items():
                    for rest, c in group.items():
                        powmap = dict(rest)
                        if e != 0:
                            powmap[atom] = e
                        _nf_add_into(rebuilt, _fix_monomial(c, powmap))
                nf = rebuilt
    return nf


def _nf(e: Expr) -> dict:
    cached = _NF_MEMO.get(e)
    if cached is not None:
        return cached
    if isinstance(e, Const):
        out = {} if e.value.is_zero else {(): e.value}
    elif isinstance(e, Var):
        out = {((e, 1),): QC_ONE}
    elif isinstance(e, Add):
        acc: dict = {}
        for t in e.terms:
            _nf_add_into(acc, _nf(t))
        out = _collapse(acc)
    elif isinstance(e, Mul):
        # derive every factor first, so a pole after a zero factor raises
        # as one before it does; a normal form times the unit monomial is
        # itself, term for term
        factors = [_nf(f) for f in e.factors]
        acc = dict(factors[0]) if factors else {(): QC_ONE}
        products = 0
        for nf in factors[1:]:
            if not acc:
                break
            products += len(acc) * len(nf)
            if products > _EXPANSION_BUDGET:
                raise WorkBudgetError(f"a product of {len(factors)} factors exceeds the work "
                                      f"budget of {_EXPANSION_BUDGET} monomial products")
            acc = _nf_mul(acc, nf)
        out = _collapse(acc)
    elif isinstance(e, Pow):
        out = _collapse(_nf_pow(e.base, e.exp))
    else:
        raise TypeError(f"not an expression: {e!r}")
    _NF_MEMO[e] = out
    return out


def normalize(e: Expr) -> Expr:
    """Canonical sum-of-monomials form; idempotent and evaluation-preserving.

    The result keeps the normal form it was rebuilt from, so ``_nf`` does
    not walk it again where it becomes a factor or term, when that form has
    no sum atom: on Laurent polynomials ``_nf(_rebuild(nf)) == nf``, while
    a sum atom may come back in another shape (ROADMAP item 4)."""
    cached = _NORM_MEMO.get(e)
    if cached is not None:
        return cached
    nf = _nf(e)
    result = _rebuild(nf)
    _NORM_MEMO[e] = result
    _NORM_MEMO[result] = result
    if all(_mono_parts(pows)[2] for pows in nf):
        _NF_MEMO[result] = nf
    return result


def is_zero_expr(e: Expr) -> bool:
    return normalize(e) == ZERO


_CERTIFY_BUDGET = 200_000  # monomials of the cleared numerator


def certify_zero(e: Expr) -> bool:
    """Sound structural zero certificate.

    Multiplies by a monomial in the expression's own denominators and
    radical bases (all nonvanishing wherever the expression is defined) and
    checks that the cleared normal form collapses to zero.  ``True`` proves
    the identity on the expression's domain; ``False`` is inconclusive
    (including when the estimated clearing work exceeds the budget).  The
    verdict depends on the node alone, so ``_CERT_MEMO`` keeps it until
    ``clear_caches()``.
    """
    verdict = _CERT_MEMO.get(e)
    if verdict is None:
        verdict = _CERT_MEMO[e] = _clears_to_zero(e)
    return verdict


def _clears_to_zero(e: Expr) -> bool:
    nf = _nf(e)
    if not nf:
        return True
    minima: dict = {}
    for pows, _ in nf.items():
        for atom, ex in pows:
            cur = minima.get(atom)
            minima[atom] = ex if cur is None else min(cur, ex)
    clearing = {a: -m for a, m in minima.items() if m < 0}
    if not clearing:
        return False
    estimate = len(nf)
    for a, m in clearing.items():
        if _is_sum_atom(a):
            estimate *= max(1, len(_nf(a))) ** min(int(m) + 1, 12)
        if estimate > _CERTIFY_BUDGET:
            return False
    cleared: dict = {}
    for pows, c in nf.items():
        powmap = dict(pows)
        for a, m in clearing.items():
            _add_exp(powmap, a, m)
        _nf_add_into(cleared, _fix_monomial(c, powmap))
        if len(cleared) > _CERTIFY_BUDGET:
            return False
    return not cleared


# ---------------------------------------------------------------------------
# structural queries


def free_variables(e: Expr) -> frozenset:
    cached = _FREEVARS_MEMO.get(e)
    if cached is None:
        cached = _FREEVARS_MEMO[e] = _collect_vars(e)
    return cached


def _collect_vars(e: Expr) -> frozenset:
    """The variables of ``e``, visiting each distinct node once (a shared
    DAG can have exponentially many paths)."""
    out: set = set()
    seen: set = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, Var):
            out.add(node.var)
        elif isinstance(node, Add):
            stack.extend(node.terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Pow):
            stack.append(node.base)
    return frozenset(out)


# ---------------------------------------------------------------------------
# calculus and conjugation


def differentiate(e: Expr, v: Variable) -> Expr:
    """Exact partial derivative; paired variables are independent."""
    n = normalize(e)
    key = (n, v)
    cached = _DIFF_MEMO.get(key)
    if cached is None:
        cached = normalize(_d(n, v))
        _DIFF_MEMO[key] = cached
    return cached


def _d(e: Expr, v: Variable) -> Expr:
    """The product rule on a normal form, with no term whose derivative
    factor is ``ZERO``: a normal form has no pole for a dropped factor to hide."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.var == v else ZERO
    if isinstance(e, Add):
        terms = tuple(dt for dt in (_d(t, v) for t in e.terms) if dt is not ZERO)
    elif isinstance(e, Mul):
        fs = e.factors
        terms = tuple(Mul(fs[:i] + (df,) + fs[i + 1:])
                      for i, df in enumerate(_d(f, v) for f in fs) if df is not ZERO)
    elif isinstance(e, Pow):
        db = _d(e.base, v)
        return ZERO if db is ZERO else Mul((Const(QC.of(e.exp)), Pow(e.base, e.exp - 1), db))
    else:
        raise TypeError(f"not an expression: {e!r}")
    return Add(terms) if terms else ZERO


def conjugate(e: Expr) -> Expr:
    """Antilinear involution determined by the reality tags."""
    cached = _CONJ_MEMO.get(e)
    if cached is None:
        cached = normalize(_map_leaves(e, _conj_leaf, {}))
        _CONJ_MEMO[e] = cached
    return cached


def _conj_leaf(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(e.value.conjugate())
    r = e.var.reality
    if r in (REAL, POSITIVE_REAL):
        return e
    if r == IMAGINARY:
        return Mul((MINUS_ONE, e))
    if r == UNIT_MODULUS:
        return Pow(e, Fraction(-1))
    return Var(Variable(e.var.partner, COMPLEX_PAIRED, e.var.name))


def _map_leaves(node: Expr, leaf, memo: dict) -> Expr:
    """``node`` with each ``Const`` and ``Var`` replaced by ``leaf(node)``,
    rebuilding each distinct node once (``memo``, fresh per walk: a shared
    DAG can have exponentially many paths); hash-consing makes it the node
    a tree rebuild gives.  A module-level walker, as a nested one that
    calls itself would be a reference cycle holding ``memo``."""
    out = memo.get(node)
    if out is None:
        if isinstance(node, (Const, Var)):
            out = leaf(node)
        elif isinstance(node, Add):
            out = Add(tuple([_map_leaves(t, leaf, memo) for t in node.terms]))
        elif isinstance(node, Mul):
            out = Mul(tuple([_map_leaves(f, leaf, memo) for f in node.factors]))
        elif isinstance(node, Pow):
            out = Pow(_map_leaves(node.base, leaf, memo), node.exp)
        else:
            raise TypeError(f"not an expression: {node!r}")
        memo[node] = out
    return out


def substitute(e: Expr, bindings: Mapping[Variable, Expr]) -> Expr:
    """Simultaneous substitution; conjugate partners follow automatically,
    and every binding must respect its variable's reality tag.
    ``_SUBST_MEMO`` keeps an accepted substitution's result by ``e`` and
    its lifted bindings; a refused one is not stored and raises again."""
    lifted = tuple([(v, lift(s)) for v, s in bindings.items()])
    key = (e, lifted)
    cached = _SUBST_MEMO.get(key)
    if cached is not None:
        return cached
    full = dict(lifted)
    for v, s in lifted:
        if v.reality == COMPLEX_PAIRED:
            partner = Variable(v.partner, COMPLEX_PAIRED, v.name)
            if partner not in full:
                full[partner] = conjugate(s)
    for v, s in full.items():
        _check_substitution_reality(v, s, full)
    cached = _SUBST_MEMO[key] = normalize(_map_leaves(
        e, lambda leaf: leaf if isinstance(leaf, Const) else full.get(leaf.var, leaf), {}))
    return cached


def _check_substitution_reality(v: Variable, s: Expr, full: Mapping) -> None:
    s = normalize(s)  # an unnormalized radical quotient can miss cancellations
    if v.reality in (REAL, POSITIVE_REAL):
        if not is_zero_expr(conjugate(s) - s):
            raise RealityViolationError(
                f"substitution for real variable {v.name} is not self-conjugate")
    elif v.reality == IMAGINARY:
        if not is_zero_expr(conjugate(s) + s):
            raise RealityViolationError(
                f"substitution for imaginary variable {v.name} is not anti-self-conjugate")
    elif v.reality == UNIT_MODULUS:
        if not is_zero_expr(conjugate(s) * s - ONE):
            raise RealityViolationError(
                f"substitution for unit-modulus variable {v.name} does not have modulus one")
    elif v.reality == COMPLEX_PAIRED:
        partner = Variable(v.partner, COMPLEX_PAIRED, v.name)
        ps = full.get(partner)
        if ps is not None and not is_zero_expr(conjugate(s) - normalize(ps)):
            raise RealityViolationError(
                f"substitutions for {v.name} and {v.partner} are not conjugate")


# ---------------------------------------------------------------------------
# numeric evaluation


_EVAL_TOL = 1e-9


def _check_binding(v: Variable, z: complex, point: Mapping[str, complex]) -> None:
    scale = 1.0 + abs(z)
    if v.reality in (REAL, POSITIVE_REAL):
        if abs(z.imag) > _EVAL_TOL * scale:
            raise RealityViolationError(f"{v.name} must be real, got {z}")
        if v.reality == POSITIVE_REAL and z.real <= 0:
            raise RealityViolationError(f"{v.name} must be positive, got {z}")
    elif v.reality == IMAGINARY:
        if abs(z.real) > _EVAL_TOL * scale:
            raise RealityViolationError(f"{v.name} must be imaginary, got {z}")
    elif v.reality == UNIT_MODULUS:
        if abs(abs(z) - 1.0) > _EVAL_TOL * scale:
            raise RealityViolationError(f"{v.name} must have modulus one, got {z}")
    elif v.reality == COMPLEX_PAIRED:
        w = point.get(v.partner)
        if w is not None and abs(z.conjugate() - w) > _EVAL_TOL * (1.0 + abs(z) + abs(w)):
            raise RealityViolationError(f"{v.name} and {v.partner} are not conjugate")


def evaluate(e: Expr, point: Mapping) -> complex:
    """IEEE double evaluation by ``_eval_tree``, with a fresh memo;
    fractional powers need positive real bases."""
    by_name: dict[str, complex] = {}
    for k, z in point.items():
        name = k.name if isinstance(k, Variable) else k
        by_name[name] = complex(z)
    vars_present = free_variables(e)
    for v in vars_present:
        if v.name not in by_name:
            if v.reality == COMPLEX_PAIRED and v.partner in by_name:
                by_name[v.name] = by_name[v.partner].conjugate()
            else:
                raise DomainEvalError(f"no binding for variable {v.name}")
    for v in vars_present:
        _check_binding(v, by_name[v.name], by_name)
    value = _eval_point(e, by_name, {})
    if not cmath.isfinite(value):
        raise DomainEvalError(f"non-finite value {value}")
    return value


def _real_power(base: complex, exp: float) -> complex:
    """``base ** exp`` for a non-integral ``exp``: the principal branch,
    defined only on positive real bases."""
    if abs(base.imag) > 1e-10 * (1.0 + abs(base)) or base.real <= 0:
        raise DomainEvalError(
            f"fractional power needs a positive real base, got {base}")
    return complex(base.real ** exp)


def _eval_point(e: Expr, point: Mapping[str, complex], memo: dict) -> complex:
    """``_eval_tree`` with a value outside the float range as a
    ``DomainEvalError``: an overflow, or a negative power whose base
    underflowed to 0."""
    try:
        return _eval_tree(e, point, memo)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainEvalError(f"value outside the floating-point range ({exc})") from None


def _eval_tree(e: Expr, point: Mapping[str, complex], memo: dict) -> complex:
    """Value of ``e`` at ``point``, which maps each variable name to its
    value.  Each distinct sum, product and power is computed once
    (``memo``): a sum adds its terms to int 0, a product multiplies
    ``1.0+0.0j`` by its factors, left to right.  Children are visited left
    to right, depth first, so the first failure is the one a walk of the
    whole tree meets first."""
    value = memo.get(e)
    if value is not None:
        return value
    cls = type(e)
    if cls is Const:
        value = e._complex
        if value is None:
            value = e._complex = e.value.to_complex()
        return value
    if cls is Var:
        return point[e.var.name]
    if cls is Pow:
        base = _eval_tree(e.base, point, memo)
        if e.exp.denominator == 1:
            k = int(e.exp)
            if k < 0 and base == 0:
                raise DomainEvalError("division by zero")
            value = pow(base, k)
        else:
            fexp = e._fexp
            if fexp is None:
                fexp = e._fexp = float(e.exp)
            value = _real_power(base, fexp)
    elif cls is Mul:
        value = 1.0 + 0.0j
        for f in e.factors:
            value = value * _eval_tree(f, point, memo)
    elif cls is Add:
        value = sum([_eval_tree(t, point, memo) for t in e.terms])
    else:
        raise TypeError(f"not an expression: {e!r}")
    memo[e] = value
    return value


# ---------------------------------------------------------------------------
# randomized identity testing

Box = Mapping[str, tuple]


def _check_interval(v: Variable, box: Box) -> None:
    """Refuse a positive variable whose interval reaches below 0."""
    if v.reality == POSITIVE_REAL and v.name in box and box[v.name][0] < 0:
        lo, hi = box[v.name]
        raise RealityViolationError(f"{v.name} must be positive, got interval [{lo}, {hi}]")


def sample_point(variables: Sequence[Variable], box: Box, rng: random.Random) -> dict:
    """Draw one tag-respecting point of ``box`` for ``variables``, in their
    order: each takes its own interval or its partner's (a unit-modulus one
    as an angle), and a paired one drawn after its partner is the partner's
    conjugate.  A variable with no interval raises
    ``ZeroTestInconclusiveError``, and a positive one whose interval reaches
    below 0 ``RealityViolationError`` (``_check_interval``)."""
    point: dict[str, complex] = {}
    for v in variables:
        name = v.name
        if name in point:
            continue
        if v.reality == COMPLEX_PAIRED and v.partner in point:
            point[name] = point[v.partner].conjugate()
            continue
        key = name if name in box else (v.partner if v.partner and v.partner in box else None)
        if key is None:
            raise ZeroTestInconclusiveError(f"no box interval for variable {name}")
        _check_interval(v, box)
        lo, hi = box[key]
        if v.reality in (REAL, POSITIVE_REAL):
            point[name] = complex(rng.uniform(lo, hi))
        elif v.reality == IMAGINARY:
            point[name] = complex(0.0, rng.uniform(lo, hi))
        elif v.reality == UNIT_MODULUS:
            point[name] = cmath.exp(1j * rng.uniform(lo, hi))
        else:
            point[name] = complex(rng.uniform(lo, hi), rng.uniform(lo, hi))
    return point


def _modulus(value: complex) -> float:
    """``abs(value)``, with a modulus past the float range, which finite
    parts near it can have, as a ``DomainEvalError``."""
    try:
        return abs(value)
    except OverflowError:
        raise DomainEvalError(f"modulus of {value} outside the floating-point range") from None


def _eval_with_scale(e_norm: Expr, point: Mapping[str, complex]) -> tuple:
    """``(value, scale)`` of the normal form at ``point``: its value, as
    ``evaluate`` gives it, and the sum of its terms' moduli.  A domain
    error, an overflow, or a non-finite term or scale raises
    ``DomainEvalError``."""
    terms = e_norm.terms if isinstance(e_norm, Add) else (e_norm,)
    memo: dict = {}  # shared by the terms: their atoms recur
    scale = 0.0
    for t in terms:
        value = _eval_point(t, point, memo)
        if not cmath.isfinite(value):
            raise DomainEvalError(f"non-finite value {value}")
        scale += _modulus(value)
    if not math.isfinite(scale):
        raise DomainEvalError("non-finite sum of terms")
    # from the terms in the memo; finite, as the scale is
    return _eval_tree(e_norm, point, memo), scale


def sample_values(e_norm: Expr, box: Box, count: int, seed: int) -> Iterable:
    """``(point, value, scale)`` at up to ``count`` informative points of
    ``box``, in draw order (see ``_eval_with_scale``).

    ``random.Random(seed)`` draws at most ``max(count*8, 64)`` points, one
    at a time: each is evaluated when drawn, with the tree walk ``evaluate``
    uses, so a reader that stops early draws and evaluates no further
    point.  A point with a pole or a non-finite value is inadmissible, and
    one of scale 0 (every term 0, as when all underflow) tells nothing;
    neither is yielded.  Draws that run out with none yielded raise
    ``ZeroTestInconclusiveError``.  Deterministic for a fixed seed.
    """
    variables = sorted(free_variables(e_norm), key=lambda v: v.name)
    rng = random.Random(seed)
    found = underflows = 0
    for _ in range(max(count * 8, 64)):
        if found >= count:
            return
        point = sample_point(variables, box, rng)
        try:
            value, scale = _eval_with_scale(e_norm, point)
        except DomainEvalError:
            continue
        if not scale:
            underflows += 1
            continue
        found += 1
        yield point, value, scale
    if not found:
        raise ZeroTestInconclusiveError(
            "every term is 0 (underflow) at the sampled points that hit no "
            "singularity; zero test inconclusive" if underflows else
            "all sampled points hit singularities; zero test inconclusive")


def is_identically_zero(e: Expr, box: Box, trials: int = 16, seed: int = 0) -> bool:
    """Zero test: True if ``certify_zero`` proves the normal form zero,
    False if it is one monomial of variables to integer powers, else True
    iff |e| <= 1e-9*scale at ``trials`` points of ``sample_values``, where
    scale is the sum of the terms' moduli there: the rule is relative, so
    a constant factor leaves the verdict as it is.

    ``_check_interval`` vets ``e``'s variables before any route answers.
    The certificate is memoized per node; the sampling runs on every call.
    Deterministic for a fixed seed.  Fewer than ``trials`` points make it
    inconclusive (``ZeroTestInconclusiveError``).
    """
    for v in sorted(free_variables(e), key=lambda v: v.name):
        _check_interval(v, box)
    n = normalize(e)
    if n == ZERO or certify_zero(n):
        return True
    if not isinstance(n, Add) and all(isinstance(atom, Var) and ex.denominator == 1
                                      for atom, ex in _split_mono(n)[1]):
        return False  # one monomial of variables vanishes on no open set
    successes = 0
    for _, val, scale in sample_values(n, box, trials, seed):
        # cancellation in double precision leaves about 1e-15 of the scale
        if not _modulus(val) <= 1e-9 * scale:
            return False
        successes += 1
    if successes < max(trials, 1):  # trials < 1 reads no point: no verdict
        raise ZeroTestInconclusiveError(
            f"only {successes}/{trials} sample points were admissible")
    return True


# ---------------------------------------------------------------------------
# printing


def frac_text(x: Fraction) -> str:
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:  # past the interpreter's limit on int-to-text digits
        raise WorkBudgetError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits "
            "to print") from None


def qc_text(c: QC) -> str:
    if not c.b:
        return frac_text(c.re)
    imag = abs(c.im)
    istr = "i" if imag == 1 else f"{frac_text(imag)}*i"
    sign = "" if c.b > 0 else "-"
    if not c.a:
        return sign + istr
    return f"({frac_text(c.re)} {sign or '+'} {istr})"


def _exp_text(e: Fraction) -> str:
    if e.denominator == 1 and e >= 0:
        return str(e.numerator)
    return f"({frac_text(e)})"


def _factor_text(atom: Expr, e: Fraction) -> str:
    if isinstance(atom, Var):
        base = atom.var.name
    elif isinstance(atom, Const):
        v = atom.value
        base = qc_text(v)
        # qc_text parenthesizes a value with both parts; a pure imaginary,
        # negative or fractional base needs its own
        if (not v.a) if v.b else (v.a < 0 or v.d != 1):
            base = f"({base})"
    else:
        base = f"({_atom_sort_key(atom)[1]})"
    return base if e == 1 else f"{base}^{_exp_text(e)}"


def _render(n: Expr) -> str:
    """Render an already-canonical tree structurally (no re-normalization)."""
    if isinstance(n, Var):
        return n.var.name
    if isinstance(n, Const):
        return qc_text(n.value)
    terms = n.terms if isinstance(n, Add) else (n,)
    parts: list[str] = []
    for idx, t in enumerate(terms):
        coeff, factors = _split_mono(t)
        negative = not coeff.b and coeff.a < 0
        if negative:
            coeff = -coeff
        body_parts = []
        if not coeff.is_one or not factors:
            c_txt = qc_text(coeff)
            # only a pure imaginary coefficient prints with '*' outside parentheses
            body_parts.append(f"({c_txt})" if "*" in c_txt and c_txt[0] != "(" else c_txt)
        body_parts.extend(_factor_text(a, ex) for a, ex in factors)
        body = "*".join(body_parts)
        if idx == 0:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


def to_text(e: Expr) -> str:
    """Render in the CLI grammar; ``parse(to_text(e))`` normalizes to
    ``normalize(e)``.  ``_TEXT_MEMO`` keeps the text by normal form."""
    n = normalize(e)
    text = _TEXT_MEMO.get(n)
    if text is None:
        text = _TEXT_MEMO[n] = _render(n)
    return text


def _split_mono(t: Expr):
    coeff = QC_ONE
    factors = []
    for f in (t.factors if isinstance(t, Mul) else (t,)):
        if isinstance(f, Const):
            coeff = coeff * f.value
        elif isinstance(f, Pow):
            factors.append((f.base, f.exp))
        else:
            factors.append((f, Fraction(1)))
    return coeff, tuple(factors)


def sqrt(e: NumberLike) -> Expr:
    return Pow(lift(e), Fraction(1, 2))
