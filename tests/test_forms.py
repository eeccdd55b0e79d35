"""Exterior algebra: wedge, d, rewriting, coefficients, conjugation."""

import collections
import gc
import random
import sys
from fractions import Fraction

import pytest

from crcgeo import cli, dga, model, scalars, tube
from crcgeo.forms import (
    Chart,
    ChartError,
    FormExpr,
    MissingRuleError,
    _signed,
    g_imaginary,
    g_pair,
    g_real,
    gc_paused,
)
from crcgeo.model import model_chart
from crcgeo.parsing import parse
from crcgeo.scalars import (
    KINDS,
    ONE,
    Const,
    ExprError,
    Mul,
    Pow,
    QC,
    Var,
    VariableTable,
    ZERO,
    declared,
    is_zero_expr,
    normalize,
)


@pytest.fixture()
def chart():
    return model_chart()


def w(chart, x, y):
    return chart.gen(x).wedge(chart.gen(y))


# ---------------------------------------------------------------------------
# wedge


def test_wedge_repeated_generator_vanishes(chart):
    assert chart.gen("omega1").wedge(chart.gen("omega1")).is_zero


def test_wedge_degree_one_anticommutes(chart):
    assert w(chart, "omega1", "omega1c") == w(chart, "omega1c", "omega1").scale(-1)


def test_wedge_bilinear_expansion(chart):
    c = Var(chart.table["B"])
    lhs = (chart.gen("theta2") + chart.gen("omega1").scale(c)).wedge(chart.gen("omega1c"))
    rhs = w(chart, "theta2", "omega1c") + w(chart, "omega1", "omega1c").scale(c)
    assert lhs == rhs


def test_wedge_graded_commutativity_degree_two(chart):
    a = w(chart, "omega", "omega1")
    b = w(chart, "theta2", "phi1")
    assert a.wedge(b) == b.wedge(a)  # (-1)^{2*2} = +1


# ---------------------------------------------------------------------------
# exterior derivative


def test_word_merges_keep_order_and_sign_per_generation(chart):
    # merged words are read from a table the generation drops: each
    # ordered pair keeps its own sign, a repeated generator stays zero
    scalars.clear_caches()
    ab = w(chart, "theta2", "omega1")
    for _ in range(2):
        assert w(chart, "omega1", "theta2") == ab.scale(-1)
        assert w(chart, "theta2", "omega1") == ab
        assert w(chart, "omega1", "omega1").is_zero
        scalars.clear_caches()


def test_d_of_structure_rule_matches_chart(chart):
    g = chart.gen
    expected = w(chart, "omega1", "omega1c").scale(-1) - g("omega").wedge(g("phi2") + g("phi2c"))
    assert g("omega").d() == expected


def test_d_scalar_leibniz(chart):
    # d(f w) = df ^ w + f dw with a scalar parameter of zero differential
    f = Var(chart.table["B"])
    form = chart.gen("omega").scale(f)
    assert form.d() == chart.gen("omega").d().scale(f)


def test_d_squared_zero_on_model_chart(chart):
    for name in ("omega", "omega1", "theta2", "phi1", "phi2", "psi"):
        dd = chart.gen(name).d().d()
        assert dd.certify_zero()


def test_d_missing_rule_names_generator():
    table = VariableTable()
    chart = Chart(table, [g_real("x"), g_real("y")])
    chart.install_rules({"x": chart.zero(2)})
    with pytest.raises(MissingRuleError) as err:
        chart.gen("y").d()
    assert err.value.name == "y"


def test_d_missing_scalar_rule_names_variable():
    table = VariableTable()
    table.real("q")
    chart = Chart(table, [g_real("x")])
    chart.install_rules({"x": chart.zero(2)})
    with pytest.raises(MissingRuleError) as err:
        chart.gen("x").scale(Var(table["q"])).d()
    assert err.value.name == "q"


def test_d_squared_on_random_forms(chart):
    rng = random.Random(12)
    names = [g.name for g in chart.generators]
    b_var = Var(chart.table["B"])
    for _ in range(100):
        degree = rng.choice([0, 1, 2])
        form = chart.zero(degree)
        for _ in range(rng.randint(1, 4)):
            word = rng.sample(names, degree)
            coeff = Const(QC.of(rng.randint(-3, 3), rng.randint(-1, 1)))
            piece = chart.scalar(coeff * (b_var if rng.random() < 0.3 else 1))
            for n in word:
                piece = piece.wedge(chart.gen(n))
            form = form + piece
        dd = form.d().d()
        assert dd.certify_zero()


def test_leibniz_identity_on_random_pairs(chart):
    rng = random.Random(13)
    names = [g.name for g in chart.generators]

    def random_form(degree):
        form = chart.zero(degree)
        for _ in range(rng.randint(1, 3)):
            word = rng.sample(names, degree)
            piece = chart.scalar(rng.randint(-3, 3))
            for n in word:
                piece = piece.wedge(chart.gen(n))
            form = form + piece
        return form

    for _ in range(100):
        da = rng.choice([0, 1, 2])
        db = rng.choice([0, 1])
        a, b = random_form(da), random_form(db)
        lhs = a.wedge(b).d()
        sign = -1 if da % 2 else 1
        rhs = a.d().wedge(b) + a.wedge(b.d()).scale(sign)
        diff = lhs - rhs
        assert diff.certify_zero()


# ---------------------------------------------------------------------------
# linear combinations


def test_combination_equals_the_left_fold():
    # one pass gives the nodes of the left fold on Laurent coefficients,
    # and a certified-equal form where a sum atom may change shape
    from tests.test_scalars import _random_tree

    table = VariableTable()
    variables = table.positive("x", "y", "z")
    chart = Chart(table, [g_real("a"), g_real("b"), g_real("c")])
    rng = random.Random(2032)

    def has_sum_atom(e):
        return any(scalars._is_sum_atom(atom)
                   for pows in scalars._nf(e) for atom, _ in pows)

    def coefficient(laurent):
        while True:
            try:
                e = normalize(_random_tree(rng, variables, rng.randint(1, 3)))
            except ExprError:
                continue
            if not (laurent and has_sum_atom(e)):
                return e

    def one_form(laurent):
        return chart.combine((chart.gen(name), coefficient(laurent)) for name in "abc")

    laurent = with_sum_atoms = 0
    for round_ in range(120):
        only_laurent = round_ % 2 == 0
        a, b, c = (one_form(only_laurent) for _ in range(3))
        x, y = coefficient(only_laurent), coefficient(only_laurent)
        fold = a + b.scale(x) - c.scale(y)
        combined = chart.combine(((a, None), (b, x), (c, -y)))
        coefficients = [*a.terms.values(), *b.terms.values(), *c.terms.values(), x, y]
        if any(map(has_sum_atom, coefficients)):
            with_sum_atoms += 1
            assert (combined - fold).certify_zero()
        else:
            laurent += 1
            assert combined == fold
        assert chart.combine(((a, None), (b, ZERO))) == a
    assert laurent > 20 and with_sum_atoms > 20

    other = Chart(VariableTable(), [g_real("a")])
    with pytest.raises(ChartError, match="different charts"):
        chart.combine(((chart.gen("a"), None), (other.gen("a"), None)))
    with pytest.raises(ChartError, match="different degree"):
        chart.combine(((chart.gen("a"), None), (w(chart, "a", "b"), ONE)))
    assert chart.combine(((chart.zero(2), None), (chart.gen("a"), ONE))) == chart.gen("a")
    assert chart.combine(()) == chart.zero()


def test_rewrite_equals_the_wedge_chain():
    # expanding each word once gives the nodes of the chain of wedges,
    # scalar(c) ^ image ^ image ..., on Laurent coefficients, and a
    # certified-equal form where a sum atom may change shape
    from functools import reduce
    from itertools import combinations

    from tests.test_scalars import _random_tree

    table = VariableTable()
    variables = table.positive("x", "y", "z")
    source = Chart(table, [g_real(n) for n in "pqrs"])
    target = Chart(table, [g_real(n) for n in "abce"])
    rng = random.Random(2033)

    def has_sum_atom(e):
        return any(scalars._is_sum_atom(atom)
                   for pows in scalars._nf(e) for atom, _ in pows)

    def coefficient(laurent):
        while True:
            try:
                e = normalize(_random_tree(rng, variables, rng.randint(1, 2)))
            except ExprError:
                continue
            if not (laurent and has_sum_atom(e)):
                return e

    def chain(form, sub):
        pieces = [(target.zero(form.degree), None)]
        for word, c in form.terms.items():
            piece = target.scalar(c)
            for name in form.word_names(word):
                piece = piece.wedge(sub[name])
            pieces.append((piece, None))
        return target.combine(pieces)

    laurent = with_sum_atoms = 0
    for round_ in range(60):
        only_laurent = round_ % 2 == 0
        degree = round_ % 3 + 1
        words = rng.sample(list(combinations("pqrs", degree)), 2)
        form = source.combine((reduce(FormExpr.wedge, map(source.gen, word)),
                               coefficient(only_laurent)) for word in words)
        sub = {name: target.combine((target.gen(image), coefficient(only_laurent))
                                    for image in rng.sample("abce", 2))
               for name in "pqrs"}
        rewritten, reference = form.rewrite(sub), chain(form, sub)
        assert rewritten.degree == degree
        coefficients = [*form.terms.values(),
                        *(c for image in sub.values() for c in image.terms.values())]
        if any(map(has_sum_atom, coefficients)):
            with_sum_atoms += 1
            assert (rewritten - reference).certify_zero()
        else:
            laurent += 1
            assert rewritten == reference
    assert laurent > 20 and with_sum_atoms > 20

    # each generator of a word is resolved before the word expands, also
    # where a product with an earlier image is already zero
    pq = w(source, "p", "q")
    with pytest.raises(ChartError, match="missing generator q"):
        pq.rewrite({"p": target.zero(1)})
    with pytest.raises(ChartError, match="q must be a 1-form"):
        pq.rewrite({"p": target.zero(1), "q": w(target, "a", "b")})
    other = Chart(VariableTable(), [g_real("a")])
    with pytest.raises(ChartError, match="different charts"):
        pq.rewrite({"p": target.zero(1), "q": other.gen("a")})


def test_rewrite_builds_one_form(monkeypatch):
    # a rewrite builds no intermediate form: only its result
    table = VariableTable()
    x, y = (Var(v) for v in table.positive("x", "y"))
    source = Chart(table, [g_real("p"), g_real("q")])
    target = Chart(table, [g_real(n) for n in "abc"])
    form = w(source, "p", "q").scale(x)
    sub = {"p": target.combine(((target.gen("a"), y), (target.gen("b"), ONE))),
           "q": target.combine(((target.gen("b"), x + y), (target.gen("c"), x)))}
    built = []
    init = FormExpr.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(FormExpr, "__init__", counting)
    rewritten = form.rewrite(sub)
    assert len(built) == 1
    assert rewritten.degree == 2 and len(rewritten.terms) == 3


def test_d_takes_no_derivative_along_a_constant(monkeypatch):
    # a variable whose scalar rule is the zero form is a constant: d asks
    # for no derivative along it
    from crcgeo import dga, forms
    from crcgeo.model import PARAMETERS

    constants = {name for names, _ in PARAMETERS for name in names}
    along = []

    def counting(e, v):
        along.append(v.name)
        return derive(e, v)

    derive = forms.differentiate
    monkeypatch.setattr(forms, "differentiate", counting)
    scalars.clear_caches()
    assert dga.verify_cartan_criterion().overall == "pass"
    assert [name for name in along if name in constants] == []

    dc = dga.build_chart()
    form = dc.chart.scalar(dc.var("c") * dc.var("B")).d()
    assert form == dc.gen("d_c").scale(dc.var("B"))
    assert along[-1:] == ["c"]


# ---------------------------------------------------------------------------
# coefficients, reduction, conjugation


def test_coefficient_sign_convention(chart):
    form = w(chart, "theta2", "omega1c").scale(5) - w(chart, "omega1c", "theta2").scale(5)
    assert normalize(form.coefficient(("theta2", "omega1c"))) == normalize(parse("10", chart.table))


def test_coefficient_requires_matching_degree(chart):
    with pytest.raises(ChartError):
        w(chart, "omega", "omega1").coefficient(("omega",))


def test_reduce_mod_drops_ideal_terms(chart):
    form = w(chart, "omega", "psi") + w(chart, "theta2", "omega1")
    assert form.reduce_mod(["omega"]) == w(chart, "theta2", "omega1")
    names = [g.name for g in chart.generators]
    assert form.reduce_mod(names).is_zero


def test_reduce_mod_splits_ideal_complement(chart):
    form = w(chart, "omega", "psi") + w(chart, "theta2", "omega1c").scale(3)
    reduced = form.reduce_mod(["omega"])
    ideal_part = form - reduced
    assert (reduced + ideal_part) == form
    assert all("omega" in ideal_part.word_names(word) for word in ideal_part.terms)


def test_conjugate_form_basics(chart):
    assert chart.gen("omega").conj() == chart.gen("omega").scale(-1)
    assert chart.gen("theta2").conj() == chart.gen("theta2c")
    assert chart.gen("psi").conj() == chart.gen("psi").scale(-1)


def test_conjugate_form_is_involution(chart):
    form = w(chart, "theta2", "phi1").scale(Var(chart.table["B"])) + w(chart, "omega", "psi")
    assert form.conj().conj() == form


def test_conjugate_commutes_with_d(chart):
    rng = random.Random(3)
    names = [g.name for g in chart.generators]
    for _ in range(50):
        word = rng.sample(names, 2)
        form = w(chart, *word).scale(rng.randint(1, 4))
        diff = form.d().conj() - form.conj().d()
        assert diff.certify_zero()


def test_vanishes_certifies_each_coefficient_once(monkeypatch):
    # sqrt(t1^2) - t1 is zero on t1 > 0 but has no certificate, so each
    # coefficient goes on to sampling; the certificate is tried only there
    from crcgeo import forms, scalars

    table = VariableTable()
    table.real("t1")
    chart = Chart(table, [g_real("x"), g_real("y")])
    coeff = parse("sqrt(t1^2) - t1", table)
    form = chart.gen("x").scale(coeff) + chart.gen("y").scale(coeff * 3)
    calls = []

    def counting(e, *args, **kwargs):
        calls.append(e)
        return certify(e, *args, **kwargs)

    certify = scalars.certify_zero
    for module in (scalars, forms):
        monkeypatch.setattr(module, "certify_zero", counting)
    assert form.vanishes({"t1": (0.1, 1.0)})
    assert len(calls) == 2
    assert len(set(calls)) == 2
    assert not any(certify(c) for c in calls)


def test_forms_lift_no_unit_sign(monkeypatch):
    # ordering signs and negation use the interned MINUS_ONE node: no
    # operation of the forms layer lifts a Python 1 or -1 into a constant
    from crcgeo import dga, tube

    scalars.clear_caches()  # build every chart and form again, not the kept ones
    lifted = []
    of = scalars.QC.of

    def counting(re, im=0):
        caller = sys._getframe(1)
        if caller.f_code is scalars.lift.__code__:
            caller = caller.f_back
            if caller.f_globals["__name__"] == "crcgeo.scalars":  # an Expr operator
                caller = caller.f_back
            if caller.f_globals["__name__"] == "crcgeo.forms":
                lifted.append((re, im))
        return of(re, im)

    monkeypatch.setattr(scalars.QC, "of", staticmethod(counting))
    assert dga.verify_cartan_criterion().overall == "pass"
    tube.build_coframe(tube.jet_model())
    assert [value for value in lifted if value in ((1, 0), (-1, 0))] == []


def test_plus_one_sign_normalizes_as_the_unit_product():
    # an ordering sign of +1 adds no factor: a fresh product normalizes as
    # it does with a factor ONE, also with a radical or a sum atom in it
    from tests.test_scalars import _random_tree

    table = VariableTable()
    variables = table.positive("x", "y", "z")
    x = Var(variables[0])
    radical = Pow(Const(QC(-2)), Fraction(3, 2))  # (-2)^(3/2) = -2*i*2^(1/2)
    sum_atom = normalize(Pow(x * x + 1, Fraction(1, 2)))
    rng = random.Random(2031)
    trees = [radical, radical * x, sum_atom * x + 1]
    trees += [_random_tree(rng, variables, rng.randint(1, 5)) for _ in range(400)]
    checked = 0
    previous = sum_atom
    for tree in trees:
        try:
            n = normalize(tree)
        except ExprError:
            continue
        product = Mul((n, previous))
        assert normalize(_signed(product, 1)) is normalize(Mul((product, ONE)))
        checked += 1
        previous = n
    assert checked > 390


# ---------------------------------------------------------------------------
# basis rewriting


def test_rewrite_identity_substitution(chart):
    form = w(chart, "theta2", "omega1c") + w(chart, "omega", "psi").scale(2)
    sub = {g.name: chart.gen(g.name) for g in chart.generators}
    assert form.rewrite(sub) == form


def test_rewrite_round_trip_invertible(chart):
    B = Var(chart.table["B"])
    sub = {g.name: chart.gen(g.name) for g in chart.generators}
    sub["omega1"] = chart.gen("omega1") + chart.gen("omega").scale(B)
    inverse = dict(sub)
    inverse["omega1"] = chart.gen("omega1") - chart.gen("omega").scale(B)
    form = w(chart, "omega1", "phi2") + w(chart, "omega", "omega1c")
    assert form.rewrite(sub).rewrite(inverse) == form


def test_rewrite_composition_matches_sequential():
    """Two-step basis chain equals its composite, certified coefficientwise."""
    table = VariableTable()
    table.real("t1", "t2")
    table.positive("u")
    table.unit_modulus("a")
    table.pair("b", "bb")
    rho11 = parse("2/t2", table)
    chart_e = Chart(table, list(g_pair("eta1", "eta1c")))
    chart_n = Chart(table, list(g_pair("nu", "nuc")))
    chart_w = Chart(table, [g_imaginary("omega"), *g_pair("omega1", "omega1c")])
    u, a, bb = Var(table["u"]), Var(table["a"]), Var(table["bb"])
    step1 = {"eta1": chart_n.gen("nu").scale((rho11 / u) ** Fraction(1, 2))}
    step1["eta1c"] = step1["eta1"].conj()
    nu_img = (chart_w.gen("omega1") - chart_w.gen("omega").scale(bb)).scale(1 / a)
    step2 = {"nu": nu_img, "nuc": nu_img.conj()}
    composite = {
        "eta1": step1["eta1"].rewrite(step2),
        "eta1c": step1["eta1c"].rewrite(step2),
    }
    form = chart_e.gen("eta1").wedge(chart_e.gen("eta1c"))
    sequential = form.rewrite(step1).rewrite(step2)
    direct = form.rewrite(composite)
    diff = sequential - direct
    assert diff.certify_zero()


def test_rewrite_requires_complete_substitution(chart):
    form = w(chart, "omega", "omega1")
    with pytest.raises(ChartError):
        form.rewrite({"omega": chart.gen("omega")})


# ---------------------------------------------------------------------------
# rule installation


def test_install_rules_checks_d_squared():
    # d(d x) = d(y^z) = dy^z = x^y^z: the rules are refused unless told
    # not to check
    def chart_and_rules():
        chart = Chart(VariableTable(), [g_real("x"), g_real("y"), g_real("z")])
        return chart, {"x": w(chart, "y", "z"), "y": w(chart, "x", "y"), "z": chart.zero(2)}

    chart, rules = chart_and_rules()
    with pytest.raises(ChartError, match=r"d\(d x\) != 0"):
        chart.install_rules(rules)
    chart, rules = chart_and_rules()
    chart.install_rules(rules, check=False)
    assert chart.verify_d_squared() == {"x": False, "y": True, "z": True}


def test_zero_rule_declares_a_constant(chart):
    assert chart.scalar(Var(chart.table["Lam"])).d().is_zero
    closed = Chart(VariableTable(), [g_real("x")])
    closed.install_rules({"x": closed.zero(2)})
    assert closed.gen("x").d().is_zero and closed.gen("x").d().degree == 2


# ---------------------------------------------------------------------------
# one declaration vocabulary for variables and generators

GENERATOR_KINDS = {"real": g_real, "imaginary": g_imaginary, "pair": g_pair}


@pytest.mark.parametrize("kind", KINDS)
def test_each_kind_gives_one_tag_everywhere(kind):
    names = ("p", "q") if kind == "pair" else ("p", "q2")
    direct = VariableTable().declare(kind, *names)
    assert {v.reality for v in direct} == {KINDS[kind]}
    assert declared(kind, names) == direct
    from_cli = cli.parse_declarations("p~q" if kind == "pair"
                                      else ",".join(f"{n}:{kind}" for n in names))
    assert from_cli.variables() == direct
    make = GENERATOR_KINDS.get(kind)
    if make is not None:
        gens = make(*names) if kind == "pair" else [make(n) for n in names]
        assert list(Chart(VariableTable(), gens).generators) == direct


def test_kind_keywords_are_case_sensitive_everywhere(capsys):
    # KINDS alone decides what a keyword is: a declaration in code and
    # --vars refuse "REAL" with one message
    with pytest.raises(ExprError) as err:
        VariableTable().declare("REAL", "x")
    assert str(err.value) == "unknown kind 'REAL'"
    with pytest.raises(ExprError, match=str(err.value)):
        declared("REAL", ["g"])
    code = cli.main(["expr", "eval", "--expr", "t1", "--vars", "t1:REAL", "--at", "t1=1"])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.strip() == f"error: {err.value}"


@pytest.mark.parametrize("kind", ("positive", "unit"))
def test_generators_refuse_variable_only_kinds(kind):
    with pytest.raises(ChartError, match="not real, imaginary or pair"):
        Chart(VariableTable(), declared(kind, ["g"]))


@pytest.mark.parametrize("section", ("variables", "generators"))
@pytest.mark.parametrize("names", ("g", "g g", "g h k"))
def test_pair_needs_two_distinct_names(section, names):
    with pytest.raises(ExprError, match="two distinct names"):
        if section == "variables":
            VariableTable().declare("pair", *names.split())
        else:
            Chart(VariableTable(), declared("pair", names.split()))


@pytest.mark.parametrize("line", ("x : real", "x y : pair", "i : real",
                                  "sqrt : imaginary", "2g : real", "g-h : real"))
def test_generator_names_follow_the_variable_name_rule(line):
    names, kind = line.split(" : ")
    table = VariableTable()
    table.real("x")
    with pytest.raises(ChartError):
        Chart(table, declared(kind, names.split()))


def test_generator_cannot_shadow_a_variable():
    table = VariableTable()
    table.real("x")
    with pytest.raises(ChartError, match="x is also a variable"):
        Chart(table, [g_real("x")])


# ---------------------------------------------------------------------------
# the collector pause of the pipeline entry points


@gc_paused
def _collector_state(inner=None):
    inside = inner() if inner else None
    return gc.isenabled(), inside


def test_gc_paused_keeps_a_disabled_collector_off():
    gc.disable()
    try:
        assert _collector_state() == (False, None)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_gc_paused_restores_the_collector_after_an_exception():
    @gc_paused
    def failing():
        raise KeyError("inside")

    with pytest.raises(KeyError):
        failing()
    assert gc.isenabled()


def test_gc_paused_nests():
    # the inner call finds the collector off and leaves it off
    assert _collector_state(_collector_state) == (False, (False, None))
    assert gc.isenabled()


def cyclic_garbage(run) -> collections.Counter:
    """The type names of what ``run()``, in a new generation of the
    kernel's memos, leaves to the cyclic collector once ``clear_caches()``
    has dropped the constructions the generation kept."""
    scalars.clear_caches()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        scalars.clear_caches()
        gc.collect()
        return collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_a_cold_suites_round_leaves_nothing_in_cyclic_garbage():
    # a chart holds its rules as term dicts, not as forms that point back
    # at it, so the charts a round built are freed by reference counts
    def suites_round():
        model.verify_structure_equations()
        model.verify_adjoint_transforms()
        for entry in cli.DGA_SUITES.values():
            getattr(dga, entry)()

    assert cyclic_garbage(suites_round) == {}


def test_rules_read_back_as_the_installed_forms():
    chart = model_chart()
    for gen in chart.generators:
        rule = chart.d_rule(gen.name)
        assert rule.chart is chart and rule.degree == 2 and rule.terms
    assert chart.d_rule("omega1c") == chart.d_rule("omega1").conj()
    assert chart.scalar_rule(chart.table["B"]) == chart.zero(1)


class _Probe(Exception):
    pass


# each entry point with an inner call it makes first, and its arguments
ENTRY_POINTS = (
    (tube, "analyze", "tube_from_rho", (None, {})),
    (model, "verify_structure_equations", "model_chart", ()),
    (model, "verify_adjoint_transforms", "model_chart", ()),
    (dga, "verify_equivariance", "build_chart", ()),
    (dga, "verify_gauge_shifts", "build_chart", ()),
    (dga, "verify_cartan_criterion", "build_chart", ()),
    (dga, "verify_flat_consistency", "build_chart", ()),
)


@pytest.mark.parametrize("module, entry, inner, args", ENTRY_POINTS,
                         ids=[f"{m.__name__}.{e}" for m, e, _, _ in ENTRY_POINTS])
def test_pipeline_entry_points_run_with_the_collector_off(monkeypatch, module, entry,
                                                          inner, args):
    seen = []

    def probe(*_args, **_kwargs):
        seen.append(gc.isenabled())
        raise _Probe

    monkeypatch.setattr(module, inner, probe)
    assert gc.isenabled()
    with pytest.raises(_Probe):
        getattr(module, entry)(*args)
    assert seen == [False]
    assert gc.isenabled()
