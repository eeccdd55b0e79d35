"""Homogeneous model: defining matrices, algebra, subgroups, structure
equations, adjoint transformation formulas."""

import cmath
import contextlib
import io
import random

import pytest

from crcgeo import cli, dga, model, scalars
from crcgeo.forms import Chart, ChartError
from crcgeo.matrices import SMatrix
from crcgeo.scalars import (
    COMPLEX_PAIRED,
    I,
    IMAGINARY,
    QC,
    Const,
    RealityViolationError,
    Var,
    VariableTable,
    ZERO,
    conjugate,
    evaluate,
    is_zero_expr,
    lift,
    normalize,
)


@pytest.fixture(scope="module")
def chart():
    return model.model_chart()


# ---------------------------------------------------------------------------
# defining matrices


def test_bilinear_matrices_shapes():
    s, t, j = model.bilinear_matrices()
    eye = SMatrix.identity()
    assert (s - s.transpose()).is_zero()
    assert ((s @ s) - eye).is_zero()
    # oracle: direct matrix multiplication for the Hermitian-form matrix
    assert ((t @ t) - eye).is_zero()
    assert (t - t.transpose()).is_zero()
    assert j.entry(1, 1) == lift(1) and j.entry(4, 4) == normalize(lift(-1))


def test_printed_entries():
    s, t, _ = model.bilinear_matrices()
    assert s.entry(1, 5) == lift(1) and s.entry(3, 3) == lift(1)
    assert s.entry(1, 1) == ZERO
    assert t.entry(1, 4) == lift(1) and t.entry(2, 5) == lift(1)
    assert t.entry(3, 3) == lift(1) and t.entry(1, 1) == ZERO


# ---------------------------------------------------------------------------
# Lie algebra


def _generic_algebra_pair():
    table = VariableTable()
    table.pair("al", "alc")
    table.pair("be", "bec")
    table.pair("ga", "gac")
    table.pair("si", "sic")
    table.imaginary("de", "ro")
    table.pair("al2", "al2c")
    table.pair("be2", "be2c")
    table.pair("ga2", "ga2c")
    table.pair("si2", "si2c")
    table.imaginary("de2", "ro2")
    v = lambda n: Var(table[n])
    x = model.algebra_element(v("al"), v("be"), v("ga"), v("si"), v("de"), v("ro"))
    y = model.algebra_element(v("al2"), v("be2"), v("ga2"), v("si2"), v("de2"), v("ro2"))
    return x, y


def test_algebra_element_zero():
    z = model.algebra_element(0, 0, 0, 0, 0, 0)
    assert z.is_zero()


def test_algebra_element_satisfies_group_linearizations():
    # oracle: symbolic matrix arithmetic from the defining group conditions
    x, _ = _generic_algebra_pair()
    s, t, _ = model.bilinear_matrices()
    assert ((x.transpose() @ s) + (s @ x)).is_zero()
    assert ((x.transpose() @ t) + (t @ x.conj())).is_zero()


def test_algebra_element_rejects_non_imaginary_parameter():
    with pytest.raises(RealityViolationError):
        model.algebra_element(0, 0, 0, 0, 1, 0)


def test_bracket_closure_generic():
    x, y = _generic_algebra_pair()
    z = model.bracket(x, y)
    assert model.matches_algebra_pattern(z)
    params = model.algebra_params(z)
    for name in ("delta", "rho_alg"):
        assert is_zero_expr(conjugate(params[name]) + params[name])


def test_bracket_closure_random_numeric():
    rng = random.Random(8)
    for _ in range(10):
        def rand_c():
            return Const(QC.of(rng.randint(-3, 3), rng.randint(-3, 3)))

        def rand_im():
            return Const(QC.of(0, rng.randint(-3, 3)))

        x = model.algebra_element(rand_c(), rand_c(), rand_c(), rand_c(),
                                  rand_im(), rand_im())
        y = model.algebra_element(rand_c(), rand_c(), rand_c(), rand_c(),
                                  rand_im(), rand_im())
        z = model.bracket(x, y)
        assert model.matches_algebra_pattern(z)
        rebuilt = model.algebra_element(**model.algebra_params(z))
        assert (z - rebuilt).is_zero()


# ---------------------------------------------------------------------------
# subgroups


def test_subgroup_identities():
    assert (model.subgroup_element("H1", A=1) - SMatrix.identity()).is_zero()
    assert (model.subgroup_element("H2", B=0, Lam=0) - SMatrix.identity()).is_zero()


def test_subgroup_conditions_symbolic():
    table = VariableTable()
    table.pair("B", "Bb")
    table.imaginary("Lam")
    table.pair("A", "Ab")
    h2 = model.subgroup_element("H2", B=Var(table["B"]), Lam=Var(table["Lam"]))
    h1 = model.subgroup_element("H1", A=Var(table["A"]))
    assert model.group_conditions_hold(h2)
    assert model.group_conditions_hold(h1)


def test_subgroup_determinants_symbolic():
    table = VariableTable()
    table.pair("B", "Bb")
    table.imaginary("Lam")
    table.pair("A", "Ab")
    h2 = model.subgroup_element("H2", B=Var(table["B"]), Lam=Var(table["Lam"]))
    h1 = model.subgroup_element("H1", A=Var(table["A"]))
    assert is_zero_expr(h2.det() - lift(1))
    assert is_zero_expr(h1.det() - lift(1))


def test_unipotent_family_composition_law():
    # oracle: direct matrix product, parameters read off the pattern
    table = VariableTable()
    table.pair("B", "Bb")
    table.imaginary("Lam")
    table.pair("C", "Cb")
    table.imaginary("Mu")
    B, Lam = Var(table["B"]), Var(table["Lam"])
    C, Mu = Var(table["C"]), Var(table["Mu"])
    prod = model.subgroup_element("H2", B=B, Lam=Lam) @ \
        model.subgroup_element("H2", B=C, Lam=Mu)
    b_new = prod.entry(3, 1)
    assert is_zero_expr(b_new - (B + C))
    lam_new = normalize(prod.entry(4, 1)
                        + (B + C) * conjugate(B + C) * lift(1) / 2)
    expected = normalize(Lam + Mu - (conjugate(B) * C - B * conjugate(C)) / 2)
    assert is_zero_expr(lam_new - expected)
    rebuilt = model.subgroup_element("H2", B=b_new, Lam=lam_new)
    assert (prod - rebuilt).is_zero()


def test_h1_rejects_zero_parameter():
    with pytest.raises(ValueError):
        model.subgroup_element("H1", A=0)


# ---------------------------------------------------------------------------
# Maurer-Cartan matrix


def test_connection_matrix_pattern(chart):
    mc = model.maurer_cartan(chart)
    assert mc.entry(1, 5).is_zero
    assert mc.entry(2, 4).is_zero
    assert mc.entry(4, 2).is_zero
    trace = mc.entry(1, 1) + mc.entry(2, 2) + mc.entry(3, 3) + mc.entry(4, 4) \
        + mc.entry(5, 5)
    assert trace.is_zero


def test_connection_matrix_conjugation_pairing(chart):
    mc = model.maurer_cartan(chart)
    assert mc.entry(1, 1).conj() == mc.entry(2, 2)
    assert mc.entry(1, 2).conj() == mc.entry(2, 1)
    assert mc.entry(1, 4).conj() == mc.entry(1, 4).scale(-1)


# ---------------------------------------------------------------------------
# structure equations


def test_structure_equations_all_entries_pass(chart):
    report = model.verify_structure_equations(chart)
    assert report.overall == "pass"
    assert len(report.checks) == 25


def test_model_torsion_form_vanishes_identically(chart):
    """The curvature-style combination built from the model coframe is
    exactly zero: the model is flat."""
    g = chart.gen
    torsion = (g("theta2").d() + g("theta2").wedge(g("phi2") - g("phi2c"))
               - g("omega1").wedge(g("phi1")))
    assert torsion.is_zero
    for word in (("theta2", "omega1c"), ("omega1", "omega1c")):
        assert is_zero_expr(torsion.coefficient(word))


def test_structure_equation_runtime_budget(chart):
    report = model.verify_structure_equations(chart)
    assert report.timing_s < 5.0


def _corrupted_chart(check=False):
    """The model chart's rules rewritten onto a fresh chart, with
    ``omega /\\ phi2`` added to d(omega)."""
    reference = model.model_chart()
    chart = Chart(reference.table, reference.generators)
    g = chart.gen
    sub = {gen.name: g(gen.name) for gen in reference.generators}
    d_rules = {name: reference.d_rule(name).rewrite(sub) for name in model.COFRAME}
    d_rules["omega"] = d_rules["omega"] + g("omega").wedge(g("phi2"))
    scalar_rules = {v.name: chart.zero(1) for v in reference.table.variables()}
    return chart.install_rules(d_rules, scalar_rules, check=check)


def test_structure_equations_mutation_detected():
    # perturbing one rule breaks exactly the entries housing that form's d
    report = model.verify_structure_equations(_corrupted_chart())
    assert report.overall == "fail"
    failing = {c.name for c in report.failed_checks()}
    assert failing == {"entry(1,4)", "entry(2,5)"}


def test_verify_d_squared_names_each_generator_the_mutation_breaks():
    # d(omega) and every rule that uses omega lose d o d = 0
    certified = _corrupted_chart().verify_d_squared()
    broken = {"omega", "omega1", "omega1c", "phi2", "phi2c"}
    assert list(certified) == [g.name for g in model.model_chart().generators]
    assert {name for name, ok in certified.items() if not ok} == broken
    with pytest.raises(ChartError, match=r"d\(d omega\) != 0"):
        _corrupted_chart(check=True)


def test_flat_suite_reports_a_broken_structure_equation_as_failed_checks(
        fresh_generation, monkeypatch):
    # the flat dga chart takes its rules from the model chart, so a corrupted
    # model chart fails the suite's d^2 checks instead of raising; the new
    # generation keeps no flat chart from before the patch and leaves none
    # built from it
    bad = _corrupted_chart()
    monkeypatch.setattr(model, "model_chart", lambda: bad)
    report = dga.verify_flat_consistency()
    assert {c.name for c in report.failed_checks()} == {
        f"d^2 {name} = 0" for name in ("omega", "omega1", "omega1c", "phi2", "phi2c")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["dga", "verify", "--suite", "flat"]) == 1


def test_model_suites_load_the_chart_once(fresh_generation, monkeypatch):
    # the chart is built, and its d^2 check run, once per generation: a
    # cold run pays for it again
    builds = []
    install_rules = Chart.install_rules

    def counting_install(chart, *args, **kwargs):
        builds.append((chart, kwargs.get("check", True)))
        return install_rules(chart, *args, **kwargs)

    monkeypatch.setattr(Chart, "install_rules", counting_install)
    assert model.verify_structure_equations().overall == "pass"
    assert model.verify_adjoint_transforms().overall == "pass"
    assert builds == [(model.model_chart(), True)]
    scalars.clear_caches()
    assert model.model_chart() is not builds[0][0]
    assert builds[1:] == [(model.model_chart(), True)]


# ---------------------------------------------------------------------------
# adjoint transformation suite


def test_adjoint_transforms_pass(chart):
    report = model.verify_adjoint_transforms(chart)
    assert report.overall == "pass"
    names = {c.name for c in report.checks}
    assert "unipotent:ps" in names and "diagonal:p1" in names


def test_adjoint_identity_parameters(chart):
    comps = model.adjoint_components(chart, model.subgroup_element("H2", B=0, Lam=0))
    for name, (i, j) in model.component_positions().items():
        assert comps[name] == model.maurer_cartan(chart).entry(i, j)


def h2_formulas(chart):
    """The H2 component formulas on the model coframe, keyed by component."""
    table = chart.table
    return dict(zip(model.COMPONENTS, model.h2_transform(
        model.coframe(chart), Var(table["B"]), Var(table["Lam"]))))


def h1_formulas(chart):
    """The H1 component formulas on the model coframe, keyed by component."""
    return dict(zip(model.COMPONENTS, model.h1_transform(
        model.coframe(chart), Var(chart.table["A"]))))


def test_adjoint_mutation_of_any_printed_term_detected(chart):
    formulas = h2_formulas(chart)
    for name in ("w", "w1", "t2", "p1", "p2", "ps"):
        reference = formulas[name]
        for word in sorted(reference.terms):
            mutated_form = reference + FormTerm(reference, word)
            mutated = dict(formulas)
            mutated[name] = mutated_form
            report = model.verify_adjoint_transforms(chart, h2_formulas=mutated)
            failing = {c.name for c in report.failed_checks()}
            assert f"unipotent:{name}" in failing, (name, word)


def FormTerm(form, word):
    """The single term of ``form`` at ``word``, as a form (used to double
    one printed term at a time)."""
    from crcgeo.forms import FormExpr
    return FormExpr(form.chart, form.degree, {word: form.terms[word]})


def test_adjoint_h1_mutation_detected(chart):
    formulas = h1_formulas(chart)
    mutated = dict(formulas)
    mutated["t2"] = formulas["t2"].scale(2)
    report = model.verify_adjoint_transforms(chart, h1_formulas=mutated)
    assert {c.name for c in report.failed_checks()} == {"diagonal:t2"}


def test_adjoint_numeric_agreement(chart):
    """20 random numeric parameter choices: the symbolic component formulas
    match the numeric matrix conjugation to 1e-12."""
    rng = random.Random(21)
    mc = model.maurer_cartan(chart)
    formulas2 = h2_formulas(chart)
    formulas1 = h1_formulas(chart)
    table = chart.table
    for _ in range(20):
        bval = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lval = 1j * rng.uniform(-1, 1)
        aval = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-3, 3))
        point = {"B": bval, "Bb": bval.conjugate(), "Lam": lval,
                 "A": aval, "Ab": aval.conjugate()}
        cover = {g.name: rng.uniform(-1, 1) * (1j if g.reality == IMAGINARY else 1)
                 for g in chart.generators}
        for g in chart.generators:
            if g.reality == COMPLEX_PAIRED and g.partner in cover:
                cover[g.name] = complex(cover[g.partner]).conjugate()

        def form_value(form):
            total = 0
            for word, coeff in form.terms.items():
                val = evaluate(coeff, point)
                for idx in word:
                    val *= cover[chart.generators[idx].name]
                total += val
            return total

        comps = model.adjoint_components(chart, model.subgroup_element(
            "H2", B=Var(table["B"]), Lam=Var(table["Lam"])))
        for name in ("w", "w1", "t2", "p1", "p2", "ps"):
            got = form_value(comps[name])
            want = form_value(formulas2[name])
            assert abs(got - want) <= 1e-12 * (1 + abs(want))
        comps1 = model.adjoint_components(chart, model.subgroup_element(
            "H1", A=Var(table["A"])))
        for name in ("w", "w1", "t2", "p1", "p2", "ps"):
            got = form_value(comps1[name])
            want = form_value(formulas1[name])
            assert abs(got - want) <= 1e-12 * (1 + abs(want))
