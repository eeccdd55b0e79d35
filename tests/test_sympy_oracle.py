"""Differential test of the scalar kernel against sympy (dev-only oracle).

On seeded random trees, ``evaluate``, ``normalize`` and ``differentiate``
must agree with sympy at exact rational sample points, and the kernel's
division by a sum of variables must refuse exactly what sympy's ``cancel``
leaves with a denominator that is not a monomial.  sympy computes
from the input tree alone, so its answers do not depend on how the kernel
represents coefficients or exponents.  Skipped when sympy is missing; it
is not a dependency of the package.
"""

import random
from fractions import Fraction

import pytest

from crcgeo import scalars
from crcgeo.scalars import (
    QC,
    Add,
    Const,
    DomainEvalError,
    Mul,
    Pow,
    Var,
    VariableTable,
    ZERO,
    differentiate,
    evaluate,
    normalize,
    to_text,
)

sympy = pytest.importorskip("sympy")


def _tree(rng, variables, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return Var(rng.choice(variables))
        return Const(QC.of(Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                           rng.choice([0, 0, 1, -2])))
    op = rng.choice(["add", "add", "mul", "mul", "pow"])
    if op == "pow":
        exp = rng.choice([2, 3, -1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])
        return Pow(_tree(rng, variables, depth - 1), exp)
    parts = tuple(_tree(rng, variables, depth - 1) for _ in range(rng.randint(2, 3)))
    return Add(parts) if op == "add" else Mul(parts)


def _to_sympy(e, symbols):
    if isinstance(e, Const):
        v = e.value
        return (sympy.Rational(v.re.numerator, v.re.denominator)
                + sympy.I * sympy.Rational(v.im.numerator, v.im.denominator))
    if isinstance(e, Var):
        return symbols[e.var.name]
    if isinstance(e, Add):
        return sympy.Add(*(_to_sympy(t, symbols) for t in e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*(_to_sympy(f, symbols) for f in e.factors))
    return sympy.Pow(_to_sympy(e.base, symbols),
                     sympy.Rational(e.exp.numerator, e.exp.denominator))


def _sympy_value(expr, exact_point):
    value = complex(sympy.N(expr.subs(exact_point), 30))
    if value != value or abs(value) == float("inf"):
        raise ValueError("sympy value is not finite")
    return value


def _close(got, want):
    return abs(got - want) <= 1e-7 * (1 + abs(want))


def test_kernel_agrees_with_sympy_on_random_trees():
    table = VariableTable()
    variables = table.positive("x", "y") + table.real("z")
    symbols = {"x": sympy.Symbol("x", positive=True),
               "y": sympy.Symbol("y", positive=True),
               "z": sympy.Symbol("z", real=True)}
    rng = random.Random(20261018)
    checked = {"evaluate": 0, "normalize": 0, "differentiate": 0}
    for _ in range(150):
        tree = _tree(rng, variables, rng.randint(1, 4))
        var = rng.choice(variables)
        sym = _to_sympy(tree, symbols)
        sym_d = sympy.diff(sym, symbols[var.name])
        try:
            norm = normalize(tree)
            deriv = differentiate(tree, var)
        except DomainEvalError:
            continue  # a literal division by zero in the tree
        for _ in range(3):
            exact = {name: Fraction(rng.randint(3, 24), rng.randint(4, 12))
                     for name in ("x", "y", "z")}
            exact["z"] *= rng.choice([1, -1])
            point = {name: float(q) for name, q in exact.items()}
            subs = {symbols[name]: sympy.Rational(q.numerator, q.denominator)
                    for name, q in exact.items()}
            try:
                value = evaluate(tree, point)
                want = _sympy_value(sym, subs)
            except (DomainEvalError, ValueError, TypeError):
                continue  # outside the tree's domain (a pole or a negative radicand)
            assert _close(value, want), ("evaluate", tree, exact)
            checked["evaluate"] += 1
            assert _close(evaluate(norm, point), want), ("normalize", tree, exact)
            checked["normalize"] += 1
            try:
                got_d = evaluate(deriv, point)
                want_d = _sympy_value(sym_d, subs)
            except (DomainEvalError, ValueError, TypeError):
                continue
            assert _close(got_d, want_d), ("differentiate", tree, var, exact)
            checked["differentiate"] += 1
    assert min(checked.values()) >= 300, checked


def _laurent(rng, variables, n_terms):
    """A Var-only sum of ``n_terms`` monomials with integer exponents,
    negative ones included, and rational coefficients."""
    return Add(tuple(Const(QC.of(Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3))))
                     * Mul(tuple(Pow(Var(v), Fraction(rng.randint(-2, 3)))
                                 for v in variables))
                     for _ in range(n_terms)))


def test_var_only_division_refuses_only_what_sympy_cannot_cancel():
    # _exact_quotient refuses N/B exactly when cancel(N/B) keeps a
    # denominator that is not a monomial
    table = VariableTable()
    variables = table.positive("x", "y", "z")
    symbols = {name: sympy.Symbol(name, positive=True) for name in ("x", "y", "z")}
    rng = random.Random(37)
    verdicts = {True: 0, False: 0}
    for _ in range(120):
        vs = variables[:rng.randint(1, 3)]
        b = normalize(_laurent(rng, vs, rng.randint(2, 3)))
        n = normalize(_laurent(rng, variables, rng.randint(1, 3)) * b
                      + rng.choice((0, _laurent(rng, vs, 1))))
        if n == ZERO or not isinstance(b, Add):
            continue
        found = scalars._exact_quotient(scalars._nf(n), scalars._nf(b)) is not None
        _, den = sympy.fraction(sympy.cancel(_to_sympy(n, symbols) / _to_sympy(b, symbols)))
        monomial = len(sympy.Poly(den, *symbols.values()).terms()) == 1
        assert found == monomial, (to_text(n), to_text(b))
        verdicts[found] += 1
    assert min(verdicts.values()) > 40, verdicts
