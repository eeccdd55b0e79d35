"""Seeded expression trees for the ``expr_stream`` workload.

The benchmark owns every part of an expression job except the program
under test: it draws a tree, prints it to text with its own printer, and
computes the expected answer with its own float interpreter.  The program
only ever sees the printed text.

A tree is a nested tuple:

    ("var", name) | ("const", Fraction) | ("add", a, b) | ("sub", a, b)
    | ("mul", a, b) | ("div", a, b) | ("pow", base, Fraction) | ("sqrt", a)

``random_tree`` draws the shapes of ``tests/test_scalars._random_tree``:
sums, products, differences, ``1/(l*l+1)``, integer powers and radical
powers ``(l*l+1)^(1/2)``, ``(l*l+1)^(3/2)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

VARIABLES = ("t1", "t2", "t3")
BOX = (0.6, 1.6)

_INT_EXPS = (Fraction(2), Fraction(3), Fraction(-1))
_RADICAL_EXPS = (Fraction(1, 2), Fraction(3, 2))


class OutsideDomain(ArithmeticError):
    """The reference interpreter met a pole or a radical of a non-positive base."""


def random_tree(rng, depth: int):
    """A tree of depth at most ``depth`` drawn from ``rng``."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ("var", rng.choice(VARIABLES))
        return ("const", Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    op = rng.choice(("add", "mul", "pow", "sub", "inv"))
    left = random_tree(rng, depth - 1)
    if op in ("add", "mul", "sub"):
        return (op, left, random_tree(rng, depth - 1))
    positive = ("add", ("mul", left, left), ("const", Fraction(1)))
    if op == "inv":
        return ("div", ("const", Fraction(1)), positive)
    exp = rng.choice(_INT_EXPS + _RADICAL_EXPS)
    if exp.denominator != 1:
        return ("pow", positive, exp)
    return ("pow", left, exp)


# ---------------------------------------------------------------------------
# printing

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 4, "sqrt": 5, "var": 5}


def _prec(t) -> int:
    if t[0] == "const":
        if t[1] < 0:
            return 3
        return 5 if t[1].denominator == 1 else 2
    return _PREC[t[0]]


def _wrap(t, need: int) -> str:
    text = render(t)
    return f"({text})" if _prec(t) < need else text


def render(t) -> str:
    """Text in the grammar of ``crcgeo.parsing`` that parses back to ``t``'s shape."""
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind == "const":
        return str(t[1])
    if kind == "add":
        return f"{_wrap(t[1], 1)} + {_wrap(t[2], 2)}"
    if kind == "sub":
        return f"{_wrap(t[1], 1)} - {_wrap(t[2], 2)}"
    if kind == "mul":
        return f"{_wrap(t[1], 2)}*{_wrap(t[2], 3)}"
    if kind == "div":
        return f"{_wrap(t[1], 2)}/{_wrap(t[2], 3)}"
    if kind == "pow":
        return f"{_wrap(t[1], 5)}^({t[2]})"
    if kind == "sqrt":
        return f"sqrt({render(t[1])})"
    raise ValueError(f"not a tree: {t!r}")


# ---------------------------------------------------------------------------
# rewriting into an equal expression


def rewrite(t, rng):
    """An expression equal to ``t`` on the box, written differently.

    Every rule is an identity wherever ``t`` is defined: commuting sums and
    products, ``a - b = a + (-1)*b``, expanding integer powers, ``b^(-1)
    = 1/b``, ``b^(1/2) = sqrt(b)``, ``b^(3/2) = b*sqrt(b)`` (radical bases
    are ``l*l+1 > 0``) and distributing a product over a sum.
    """
    kind = t[0]
    if kind in ("var", "const"):
        return t
    if kind == "sqrt":
        return ("sqrt", rewrite(t[1], rng))
    if kind == "pow":
        base, exp = rewrite(t[1], rng), t[2]
        if rng.random() < 0.5:
            if exp == 2:
                return ("mul", base, base)
            if exp == 3:
                return ("mul", base, ("mul", base, base))
            if exp == -1:
                return ("div", ("const", Fraction(1)), base)
            if exp == Fraction(1, 2):
                return ("sqrt", base)
            if exp == Fraction(3, 2):
                return ("mul", base, ("sqrt", base))
        return ("pow", base, exp)
    a, b = rewrite(t[1], rng), rewrite(t[2], rng)
    flip = rng.random() < 0.5
    if kind == "add":
        return ("add", b, a) if flip else ("add", a, b)
    if kind == "sub":
        return ("add", a, ("mul", ("const", Fraction(-1)), b)) if flip else ("sub", a, b)
    if kind == "mul":
        if b[0] == "add" and rng.random() < 0.5:
            return ("add", ("mul", a, b[1]), ("mul", a, b[2]))
        return ("mul", b, a) if flip else ("mul", a, b)
    return ("div", a, b)


def perturb(t, labels):
    """``t`` plus a nonzero multiple of a variable: never equal to ``t`` on the box."""
    shift = ("mul", ("const", Fraction(1, labels.randint(2, 9))),
             ("var", labels.choice(VARIABLES)))
    return ("add", t, shift)


# ---------------------------------------------------------------------------
# reference interpreter


def value(t, point) -> tuple[float, float]:
    """(value, magnitude) of ``t`` at ``point``.

    The magnitude evaluates sums as sums of absolute values; it scales the
    rounding error of the value and so sets the comparison tolerance.
    Raises ``OutsideDomain`` at poles and radicals of non-positive bases.
    A divisor counts as zero when it is within rounding of zero, so that a
    denominator that is identically zero is a pole however the floats
    round it.
    """
    kind = t[0]
    if kind == "var":
        v = point[t[1]]
        return v, abs(v)
    if kind == "const":
        v = float(t[1])
        return v, abs(v)
    if kind == "sqrt":
        return _power(value(t[1], point), Fraction(1, 2))
    if kind == "pow":
        return _power(value(t[1], point), t[2])
    (a, ma), (b, mb) = value(t[1], point), value(t[2], point)
    if kind == "add":
        return a + b, ma + mb
    if kind == "sub":
        return a - b, ma + mb
    if kind == "mul":
        return a * b, ma * mb
    if _vanishes(b, mb):
        raise OutsideDomain("division by zero")
    return a / b, ma / abs(b)


def _vanishes(b: float, magnitude: float) -> bool:
    return abs(b) <= 1e-12 * magnitude


def _power(base: tuple[float, float], exp: Fraction) -> tuple[float, float]:
    b, mb = base
    if exp.denominator != 1:
        if b <= 0:
            raise OutsideDomain("radical of a non-positive base")
        return b ** float(exp), mb ** float(exp)
    if exp < 0 and _vanishes(b, mb):
        raise OutsideDomain("division by zero")
    k = int(exp)
    return b ** k, (mb ** k if k > 0 else abs(b) ** k)


def derivative(t, point, var: str, step: float = 1e-4) -> tuple[float, float]:
    """Central-difference derivative with a Richardson step, and its error estimate."""
    def central(h: float) -> float:
        up, down = dict(point), dict(point)
        up[var] += h
        down[var] -= h
        return (value(t, up)[0] - value(t, down)[0]) / (2 * h)

    coarse, fine = central(step), central(step / 2)
    return (4 * fine - coarse) / 3, abs(fine - coarse)


def close(got: float, want: float, magnitude: float, rel: float = 1e-9) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * (1.0 + magnitude)
