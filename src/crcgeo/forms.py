"""Graded exterior algebra over a declared chart.

A Chart fixes an ordered list of 1-form generators (with conjugation
links), an exterior-derivative rule for each generator, and a 1-form rule
for the differential of each scalar variable.  FormExpr stores a form of
homogeneous degree as a map from strictly increasing generator index
words to scalar coefficients; construction normalizes coefficients and
prunes zeros, and wedge ordering signs are applied automatically.
``Chart.combine`` sums scaled forms in one pass, normalizing once per
word, for ``+``, ``-`` and longer sums; ``d`` takes no derivative along a
variable whose scalar rule is the zero form, which declares a constant.
``rewrite`` expands each word once, image by image, into unnormalized
partial products summed per word, and builds and normalizes only its
result, with no form per image.

Forms decide no zero question themselves: ``certify_zero`` and
``vanishes`` hand each coefficient to the kernel's ``certify_zero`` and
``is_identically_zero``.

There is no manifold abstraction: every computation happens in one of a
handful of concrete charts, and basis changes are explicit substitutions
(``rewrite``).  Generators without a d-rule are inert; applying ``d`` to a
form that touches them raises ``MissingRuleError``.  ``verify_d_squared``
certifies d(d g) = 0 for each generator whose rule touches only ruled
generators, and ``install_rules`` raises on the first that fails unless
told not to check.
"""

from __future__ import annotations

import functools
import gc
from typing import Mapping, Sequence

from .scalars import (
    Add,
    COMPLEX_PAIRED,
    Expr,
    ExprError,
    IMAGINARY,
    MINUS_ONE,
    Mul,
    ONE,
    REAL,
    Variable,
    VariableTable,
    ZERO,
    certify_zero,
    conjugate,
    declared,
    differentiate,
    free_variables,
    is_identically_zero,
    is_name,
    kept,
    lift,
    normalize,
    substitute,
    to_text,
)


class ChartError(ExprError):
    pass


class MissingRuleError(ChartError):
    def __init__(self, kind: str, name: str):
        super().__init__(f"no {kind} rule installed for '{name}'")
        self.name = name


def gc_paused(fn):
    """``fn`` with the cyclic garbage collector off while it runs.

    For the pipeline entry points: a run allocates far more containers
    than it frees while its memos grow, so each collection would rescan
    the memos, and its garbage is freed by reference counts.  The
    collector is turned back on afterwards, also after an exception, only
    if it was on at the call, so nested calls and a caller that turned it
    off keep their state."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def g_real(name: str) -> Variable:
    return Variable(name, REAL)


def g_imaginary(name: str) -> Variable:
    return Variable(name, IMAGINARY)


def g_pair(name: str, partner: str) -> list[Variable]:
    return declared("pair", (name, partner))


@kept
def _word_merges() -> dict:
    """The generation's table of ``_merge_word`` results by word pair."""
    return {}


def _merge_word(merges: dict, w1: tuple, w2: tuple):
    """Concatenate index words, sort, return (sorted_word, sign) or None;
    read from ``merges`` (``_word_merges()``) once computed."""
    merged = merges.get((w1, w2), merges)  # the table itself: not yet seen
    if merged is not merges:
        return merged
    word = list(w1 + w2)
    sign = 1
    # insertion sort counting transpositions; small words only
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            word[j - 1], word[j] = word[j], word[j - 1]
            sign = -sign
            j -= 1
    merged = merges[w1, w2] = None if len(set(word)) < len(word) else (tuple(word), sign)
    return merged


def _signed(c: Expr, sign: int) -> Expr:
    """``c`` times ``sign``, +1 adding no factor: ``_collapse`` returns its
    output, a product's normal form, unchanged (seeded trees test this)."""
    return c if sign > 0 else Mul((c, MINUS_ONE))


def _sums(pieces) -> dict[tuple, Expr]:
    """``{word: coefficient}`` summing the ``(word, coeff)`` pairs of
    ``pieces``, unnormalized: each word's coefficients add up left to
    right, the first as it is."""
    out: dict[tuple, Expr] = {}
    for word, coeff in pieces:
        cur = out.get(word)
        out[word] = coeff if cur is None else Add((cur, coeff))
    return out


def _summed(chart: "Chart", degree: int, pieces) -> "FormExpr":
    """The form of ``degree`` with the coefficients ``_sums(pieces)``."""
    return FormExpr(chart, degree, _sums(pieces))


def _wedge_pieces(merges: dict, terms1, terms2):
    """The signed ``(word, coeff)`` products of two sequences of terms."""
    for w1, c1 in terms1:
        for w2, c2 in terms2:
            merged = _merge_word(merges, w1, w2)
            if merged is not None:
                yield merged[0], _signed(Mul((c1, c2)), merged[1])


class Chart:
    """Ordered coframe context: generators, d-rules, scalar differentials.
    A generator is a ``Variable`` tagged real (conj(g) = g), imaginary
    (conj(g) = -g) or paired; its name is no variable of ``table``."""

    def __init__(self, table: VariableTable, generators: Sequence[Variable]):
        self.table = table
        self.generators = tuple(generators)
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        if len(self._index) != len(self.generators):
            raise ChartError("duplicate generator names")
        for g in self.generators:
            if g.reality not in (REAL, IMAGINARY, COMPLEX_PAIRED):
                raise ChartError(f"generator {g.name} is {g.reality}, "
                                 "not real, imaginary or pair")
            if not is_name(g.name):
                raise ChartError(f"invalid generator name '{g.name}'")
            if g.name in table:
                raise ChartError(f"generator {g.name} is also a variable")
            if g.reality == COMPLEX_PAIRED:
                idx = self._index.get(g.partner)
                p = None if idx is None else self.generators[idx]
                if p is None or p.reality != COMPLEX_PAIRED or p.partner != g.name:
                    raise ChartError(f"generator {g.name} lacks its conjugate partner")
        # rules as term dicts: a form refers to its chart, so forms would cycle
        self._d_rules: dict[str, dict] = {}
        self._scalar_rules: dict[str, dict] = {}
        self._frozen = False

    # -- construction ------------------------------------------------------

    def install_rules(self, d_rules: Mapping[str, "FormExpr"],
                      scalar_rules: Mapping[str, "FormExpr"] | None = None,
                      check: bool = True) -> "Chart":
        """Install the d-rules and scalar rules once.  A paired generator
        without a rule gets the conjugate of its partner's.  With ``check``
        a generator whose d(d g) is not certified zero raises."""
        if self._frozen:
            raise ChartError("chart rules already installed")
        for name, rule in d_rules.items():
            self._require_gen(name)
            if rule.degree != 2:
                raise ChartError(f"d rule for {name} must have degree 2")
            self._d_rules[name] = rule.terms
        if scalar_rules:
            for vname, rule in scalar_rules.items():
                if vname not in self.table:
                    raise ChartError(f"scalar rule for undeclared variable {vname}")
                if rule.degree != 1:
                    raise ChartError(f"scalar rule for {vname} must have degree 1")
                self._scalar_rules[vname] = rule.terms
        for g in self.generators:
            if (g.reality == COMPLEX_PAIRED and g.name not in self._d_rules
                    and g.partner in self._d_rules):
                self._d_rules[g.name] = self.d_rule(g.partner).conj().terms
        self._frozen = True
        if check:
            bad = next((n for n, ok in self.verify_d_squared().items() if not ok), None)
            if bad is not None:
                raise ChartError(f"d(d {bad}) != 0 at chart construction")
        return self

    def _require_gen(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            raise ChartError(f"unknown generator '{name}'")
        return idx

    # -- basic forms -------------------------------------------------------

    def zero(self, degree: int = 0) -> "FormExpr":
        return FormExpr(self, degree, {})

    def scalar(self, e) -> "FormExpr":
        return FormExpr(self, 0, {(): lift(e)})

    def gen(self, name: str) -> "FormExpr":
        idx = self._require_gen(name)
        return FormExpr(self, 1, {(idx,): ONE})

    def combine(self, pairs) -> "FormExpr":
        """The sum of ``form.scale(s)`` over the ``(form, s)`` of ``pairs``
        (``form`` itself where ``s`` is None) in one pass: each word's
        coefficient is one ``Add``, normalized once; a scalar ``ZERO`` adds
        no term.  As for ``+``, nonzero forms share one degree; with none
        the result has the first form's degree (0 with no form)."""
        degree = zero_degree = None
        out: dict[tuple, Expr] = {}
        for form, s in pairs:
            if form.chart is not self:
                raise ChartError("forms live on different charts")
            if not form.terms:
                if zero_degree is None:
                    zero_degree = form.degree
                continue
            if degree is None:
                degree = form.degree
            elif form.degree != degree:
                raise ChartError("cannot add forms of different degree")
            if s is not None:
                if s is ZERO:
                    continue
                s = lift(s)
            for word, c in form.terms.items():  # ``_summed``'s sum, inline
                c = c if s is None else Mul((c, s))
                cur = out.get(word)
                out[word] = c if cur is None else Add((cur, c))
        return FormExpr(self, degree if degree is not None else zero_degree or 0, out)

    # -- rules -------------------------------------------------------------

    def d_rule(self, name: str) -> "FormExpr":
        return self._rule(self._d_rules, 2, "generator d", name)

    def scalar_rule(self, v: Variable) -> "FormExpr":
        return self._rule(self._scalar_rules, 1, "scalar d", v.name)

    def _rule(self, rules: dict, degree: int, kind: str, name: str) -> "FormExpr":
        # the installed terms are normal already: shared, not normalized again
        terms = rules.get(name)
        if terms is None:
            raise MissingRuleError(kind, name)
        form = FormExpr.__new__(FormExpr)
        form.chart, form.degree, form.terms = self, degree, terms
        return form

    # -- validation --------------------------------------------------------

    def verify_d_squared(self) -> dict[str, bool]:
        """``{name: d(d g) certified zero}``, in generator order, for each
        generator g whose d-rule touches only generators with d-rules."""
        rules = {g.name: self.d_rule(g.name) for g in self.generators
                 if g.name in self._d_rules}
        return {name: rule.d().certify_zero() for name, rule in rules.items()
                if rule.generators_present() <= rules.keys()}


class FormExpr:
    """Exterior form of homogeneous degree with scalar coefficients."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms: Mapping[tuple, Expr]):
        self.chart = chart
        self.degree = degree
        cleaned: dict[tuple, Expr] = {}
        for word, coeff in terms.items():
            if len(word) != degree:
                raise ChartError("word length does not match form degree")
            c = normalize(coeff if isinstance(coeff, Expr) else lift(coeff))
            if c != ZERO:
                cleaned[word] = c
        self.terms = cleaned

    # -- helpers -----------------------------------------------------------

    def _check_same_chart(self, other: "FormExpr") -> None:
        if self.chart is not other.chart:
            raise ChartError("forms live on different charts")

    def word_names(self, word: tuple) -> tuple:
        return tuple(self.chart.generators[i].name for i in word)

    def items(self):
        return sorted(self.terms.items())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if self.is_zero:
            return f"FormExpr<deg {self.degree}>(0)"
        parts = [
            f"({to_text(c)}) {'^'.join(self.word_names(w)) or '1'}"
            for w, c in self.items()
        ]
        return f"FormExpr<deg {self.degree}>[" + " + ".join(parts) + "]"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "FormExpr") -> "FormExpr":
        return self.chart.combine(((self, None), (other, None)))

    def __sub__(self, other: "FormExpr") -> "FormExpr":
        return self.chart.combine(((self, None), (other, MINUS_ONE)))

    def __neg__(self) -> "FormExpr":
        return self.scale(MINUS_ONE)

    def scale(self, e) -> "FormExpr":
        e = lift(e)
        return FormExpr(self.chart, self.degree,
                        {w: Mul((c, e)) for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, FormExpr) and self.chart is other.chart
                and self.degree == other.degree and self.terms == other.terms)

    # -- multiplicative structure --------------------------------------------

    def wedge(self, other: "FormExpr") -> "FormExpr":
        self._check_same_chart(other)
        return _summed(self.chart, self.degree + other.degree,
                       _wedge_pieces(_word_merges(), self.terms.items(),
                                     other.terms.items()))

    def d(self) -> "FormExpr":
        """Exterior derivative; a 0-form's is its scalar's differential."""
        chart = self.chart
        merges = _word_merges()

        def pieces():
            for word, coeff in self.terms.items():
                for v in sorted(free_variables(coeff), key=lambda v: v.name):
                    rule = chart.scalar_rule(v).terms
                    if not rule:  # a constant
                        continue
                    dc = differentiate(coeff, v)
                    if dc == ZERO:
                        continue
                    for rword, rcoeff in rule.items():
                        merged = _merge_word(merges, rword, word)
                        if merged is not None:
                            yield merged[0], _signed(Mul((dc, rcoeff)), merged[1])
                for j, idx in enumerate(word):
                    rule = chart.d_rule(chart.generators[idx].name).terms
                    rest = word[:j] + word[j + 1:]
                    outer_sign = -1 if j % 2 else 1
                    for rword, rcoeff in rule.items():
                        merged = _merge_word(merges, rword, rest)
                        if merged is not None:
                            yield merged[0], _signed(Mul((coeff, rcoeff)),
                                                     merged[1] * outer_sign)

        return _summed(chart, self.degree + 1, pieces())

    # -- chart operations ------------------------------------------------------

    def conj(self) -> "FormExpr":
        """Conjugate the coefficients, swap pair partners, negate imaginaries."""
        chart = self.chart
        merges = _word_merges()

        def pieces():
            for word, coeff in self.terms.items():
                gens = [chart.generators[idx] for idx in word]
                sign = (-1) ** sum(g.reality == IMAGINARY for g in gens)
                # a permutation of the indices: no index repeats
                mword, psign = _merge_word(merges, tuple(
                    chart._index[g.partner] if g.reality == COMPLEX_PAIRED else idx
                    for g, idx in zip(gens, word)), ())
                yield mword, _signed(conjugate(coeff), sign * psign)

        return _summed(chart, self.degree, pieces())

    def reduce_mod(self, names: Sequence[str]) -> "FormExpr":
        drop = {self.chart._require_gen(n) for n in names}
        return FormExpr(self.chart, self.degree,
                        {w: c for w, c in self.terms.items()
                         if not any(i in drop for i in w)})

    def coefficient(self, names: Sequence[str]) -> Expr:
        """Coefficient at the wedge of the named generators, in the order
        given; the ordering sign is applied so that
        coefficient(x * g1^g2, (g1, g2)) == x."""
        indices = tuple(self.chart._require_gen(n) for n in names)
        if len(set(indices)) != len(indices):
            raise ChartError("coefficient word repeats a generator")
        if len(indices) != self.degree:
            raise ChartError("coefficient word length must equal the form degree")
        word, sign = _merge_word(_word_merges(), indices, ())
        coeff = self.terms.get(word, ZERO)
        return coeff if sign > 0 else normalize(Mul((coeff, MINUS_ONE)))

    def rewrite(self, sub: Mapping[str, "FormExpr"],
                keep: Sequence[str] | None = None) -> "FormExpr":
        """Homomorphic basis change: replace each generator by a degree-1
        form of ``sub``.  The result lives on the chart of the images, or
        on this form's chart when ``sub`` is empty.  Each word expands
        image by image into unnormalized ``(word, coefficient)`` products,
        those on one word summed at each step, and only the result's
        coefficients are normalized.  With ``keep``, generator names of the
        target, an image term outside them is skipped: a wedge term only
        adds generators, so words within ``keep`` are unchanged."""
        chart = self.chart
        target = next((image.chart for image in sub.values()), chart)
        within = None if keep is None else {target._require_gen(n) for n in keep}
        merges = _word_merges()

        def pieces():
            for word, coeff in self.terms.items():
                images = []
                for idx in word:
                    name = chart.generators[idx].name
                    image = sub.get(name)
                    if image is None:
                        raise ChartError(f"rewrite substitution missing generator {name}")
                    if image.degree != 1:
                        raise ChartError(f"substitution for {name} must be a 1-form")
                    if image.chart is not target:
                        raise ChartError("forms live on different charts")
                    images.append(image.terms.items() if within is None else
                                  [(w, c) for w, c in image.terms.items()
                                   if within.issuperset(w)])
                products = {(): coeff}
                for terms in images:
                    products = _sums(_wedge_pieces(merges, products.items(), terms))
                yield from products.items()

        return _summed(target, self.degree, pieces())

    def rewritten_coefficient(self, sub: Mapping[str, "FormExpr"],
                              names: Sequence[str]) -> Expr:
        """``self.rewrite(sub).coefficient(names)``, expanding only the
        image terms within the generators ``names``."""
        return self.rewrite(sub, keep=names).coefficient(names)

    def substitute_scalars(self, bindings: Mapping[Variable, Expr]) -> "FormExpr":
        return FormExpr(self.chart, self.degree,
                        {w: substitute(c, bindings) for w, c in self.terms.items()})

    # -- zero testing ------------------------------------------------------

    def certify_zero(self) -> bool:
        return all(certify_zero(c) for c in self.terms.values())

    def vanishes(self, box, seed: int = 0) -> bool:
        """``is_identically_zero`` on each coefficient, in word order."""
        return all(is_identically_zero(coeff, box, seed=seed)
                   for _, coeff in self.items())

    def generators_present(self) -> set:
        return {self.chart.generators[i].name for w in self.terms for i in w}
