"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 checks the transformed first-curvature coefficient of the
connection criterion against two closed forms.  Three independent routes
(the hatted-coframe substitution, the curvature mixing law worked by hand,
and conjugation of the curvature matrix by the unipotent isotropy element)
give the derived value, with ``+Lam/2*T21c``.  The transcribed closed form
has ``-Lam/2*T21c``: it is the same coefficient read at the conjugate
parameter ``conj(Lam) = -Lam``.  The test asserts that the transcription
differs from the derived value by exactly ``Lam*T21c``, so a change to any
other transcribed term, or to that sign, still fails.  Which source formula
holds the slip is not settled here (see the repository README).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from crcgeo import dga, model, tube
from crcgeo.parsing import parse
from crcgeo.scalars import (
    Var,
    VariableTable,
    clear_caches,
    conjugate,
    evaluate,
    is_identically_zero,
    is_zero_expr,
    normalize,
)

BOX = {"t1": (0.02, 0.08), "t2": (0.02, 0.08)}


def _line(number: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {text}")


@pytest.fixture(scope="module")
def paper_pipeline():
    """Timed, cold-cache run of the full explicit-example pipeline."""
    clear_caches()
    start = time.monotonic()
    m = tube.tube_from_rho(tube.paper_example_rho(), BOX, seed=0)
    cf = tube.build_coframe(m)
    verdict = tube.curvature_coefficients(cf)
    elapsed = time.monotonic() - start
    return m, cf, verdict, elapsed


def test_acceptance_1_model_structure_equations():
    start = time.monotonic()
    report = model.verify_structure_equations()
    elapsed = time.monotonic() - start
    ok = report.overall == "pass" and len(report.checks) == 25 and elapsed < 5.0
    _line(1, ok, f"25 structure-equation entries vanish exactly "
                 f"({elapsed:.2f}s)")
    assert report.overall == "pass"
    assert len(report.checks) == 25
    assert elapsed < 5.0


def test_acceptance_2_adjoint_suite():
    chart = model.model_chart()
    report = model.verify_adjoint_transforms(chart)
    exact_ok = report.overall == "pass"

    # every single printed term, when mutated, must be detected
    from crcgeo.forms import FormExpr
    from tests.test_model import h1_formulas, h2_formulas
    mutations_detected = True
    formulas = h2_formulas(chart)
    for name in ("w", "w1", "t2", "p1", "p2", "ps"):
        reference = formulas[name]
        for word in sorted(reference.terms):
            term = FormExpr(reference.chart, 1, {word: reference.terms[word]})
            mutated = dict(formulas)
            mutated[name] = reference + term
            rep = model.verify_adjoint_transforms(chart, h2_formulas=mutated)
            if f"unipotent:{name}" not in {c.name for c in rep.failed_checks()}:
                mutations_detected = False
    formulas1 = h1_formulas(chart)
    for name in ("w", "w1", "t2", "p1", "ps"):
        mutated1 = dict(formulas1)
        mutated1[name] = formulas1[name].scale(2)
        rep = model.verify_adjoint_transforms(chart, h1_formulas=mutated1)
        if f"diagonal:{name}" not in {c.name for c in rep.failed_checks()}:
            mutations_detected = False

    ok = exact_ok and mutations_detected
    _line(2, ok, "adjoint component formulas exact; every single-term "
                 "mutation detected")
    assert exact_ok
    assert mutations_detected


def test_acceptance_3_equivariance_suite():
    dc = dga.build_chart()
    report = dga.verify_equivariance(dc)
    exact_ok = report.overall == "pass"

    # the quadratic and modulus-squared terms of the last mixing law are
    # load-bearing: removing either breaks the identity
    B = dc.var("B")
    Bb = conjugate(B)
    hat = dga.hatted_curvature(dc, B, dc.var("Lam"))
    cv = dc.curvature
    correct = (cv["Psi"] + cv["Theta2"].scale(B * B / 2)
               - cv["Theta2"].conj().scale(Bb * Bb / 2)
               + cv["Phi1"].scale(B) - cv["Phi1"].conj().scale(Bb)
               - cv["Phi2"].scale(B * Bb))
    sensitivity = not (hat["Psi"] - (correct - cv["Theta2"].scale(B * B / 2))).certify_zero() \
        and not (hat["Psi"] - (correct + cv["Phi2"].scale(B * Bb))).certify_zero()

    ok = exact_ok and sensitivity
    _line(3, ok, "curvature mixing laws exact for symbolic parameters, "
                 "including the quadratic and modulus-squared terms")
    assert exact_ok
    assert sensitivity


def test_acceptance_4_cartan_criterion_suite():
    from tests.test_dga import matrix_route_phi1

    report = dga.verify_cartan_criterion()
    machinery_ok = report.overall == "pass"

    dc = dga.build_chart()
    Lam = dc.var("Lam")
    got = dga.necessity_phi1_coefficient(dc)
    derived_ok = is_zero_expr(got - dga.necessity_phi1_derived(dc))
    matrix_ok = is_zero_expr(matrix_route_phi1(dc, dc.var("B"), Lam) - got)
    transcribed_ok = (normalize(got - dga.necessity_phi1_transcribed(dc))
                      == normalize(Lam * dc.var("T21c")))

    dc2 = dga.build_chart(dga.NECESSITY_STAGE2_ZEROS)
    psi_got = dga.necessity_psi_coefficient(dc2)
    B = dc2.var("B")
    psi_ok = is_zero_expr(psi_got - normalize(
        conjugate(B) / 2 * dc2.var("F1_20") + B / 2 * dc2.var("F1_20c")))

    sufficiency_ok = all(
        c.status == "pass" for c in report.checks
        if c.name.startswith("sufficiency expansion")
        or c.name.startswith("leading-zero"))

    ok = (machinery_ok and derived_ok and matrix_ok and transcribed_ok
          and psi_ok and sufficiency_ok)
    _line(4, ok,
          "necessity/sufficiency computations "
          f"(machinery consistent: {machinery_ok and derived_ok and psi_ok and sufficiency_ok}; "
          f"matrix route agrees: {matrix_ok}; "
          f"transcription off by exactly Lam*T21c: {transcribed_ok})")
    assert machinery_ok
    assert derived_ok
    assert matrix_ok
    assert psi_ok
    assert sufficiency_ok
    # Every transcribed term is checked: the transcription must differ from
    # the derived value by exactly Lam*T21c, i.e. it is the coefficient read
    # at conj(Lam) = -Lam.  The derived sign is forced by the verified H2
    # element and transformation formulas: the hatted-coframe route and the
    # matrix route above agree on it, as does the mixing law of criterion 3.
    # The transcribed closed form and those formulas cannot both be right;
    # which one holds the slip is not settled here (see README).
    assert transcribed_ok, (
        "transcribed first-curvature coefficient no longer differs from the "
        "derived value by exactly the conjugate reading of the "
        "imaginary-parameter term")


def test_acceptance_5_paper_example_regression(paper_pipeline):
    m, cf, verdict, elapsed = paper_pipeline
    closed = tube.paper_example_final_closed_form(m)
    diff = normalize(verdict.theta2_21_final - closed)
    value_ok = is_identically_zero(diff, BOX, trials=32, seed=0)
    verdict_ok = (verdict.is_final_zero == "nonzero"
                  and verdict.cartan_obstruction
                  and verdict.flatness == "not_flat")
    runtime_ok = elapsed < 60.0
    ok = value_ok and verdict_ok and runtime_ok
    _line(5, ok, f"final normalized torsion coefficient matches the closed "
                 f"form at 32 seeded points (1e-9 rel); verdict not flat; "
                 f"pipeline {elapsed:.1f}s")
    assert value_ok
    assert verdict_ok
    assert runtime_ok


def test_acceptance_6_intermediate_formulas(paper_pipeline):
    m, cf, verdict, _ = paper_pipeline
    d1 = normalize(verdict.theta2_2bar1 - tube.expected_theta2_2bar1(m))
    first_ok = is_identically_zero(d1, m.zero_test_box, trials=16, seed=101)
    d2 = normalize(verdict.theta2_21_gamma0 - tube.expected_theta2_21_gamma0(m))
    second_ok = is_identically_zero(d2, m.zero_test_box, trials=16, seed=102)
    ok = first_ok and second_ok
    _line(6, ok, "both intermediate torsion coefficients match their "
                 "closed forms (16-point zero tests)")
    assert first_ok
    assert second_ok


def test_jet_route_agrees_with_the_per_rho_route(paper_pipeline):
    # `tube.analyze` specializes the jet proof; the per-rho exterior route
    # of the fixture is its cross-check
    m, _, verdict, _ = paper_pipeline
    jet = tube.curvature_coefficients(tube.build_coframe(tube.jet_model()), m)
    assert (jet.theta2_2bar1, jet.c, jet.theta2_21_gamma0) == (
        verdict.theta2_2bar1, verdict.c, verdict.theta2_21_gamma0)
    diff = normalize(jet.theta2_21_final - verdict.theta2_21_final)
    assert is_identically_zero(diff, BOX, trials=32, seed=3)
    assert jet.is_final_zero == verdict.is_final_zero == "nonzero"


def test_acceptance_7_normalization_shifts():
    report = dga.verify_gauge_shifts()
    shift_checks = [c for c in report.checks if c.name.endswith("shift")]
    ok = report.overall == "pass" and len(shift_checks) == 5
    _line(7, ok, "all five normalization shift identities verified "
                 "symbolically")
    assert report.overall == "pass"
    assert len(shift_checks) == 5


def test_acceptance_8_hypothesis_screening(paper_pipeline):
    # degenerate input rejected with the right reason
    try:
        tube.tube_from_rho("t1^2/2", {"t1": (0.1, 1), "t2": (0.1, 1)})
        rejected = False
    except tube.TubeHypothesisError as err:
        rejected = err.hypothesis == "twonondegenerate"

    # homogeneous profile accepted with closed-form invariants
    hbox = {"t1": (0.5, 1.0), "t2": (0.5, 1.0)}
    homog = tube.tube_from_rho("t1^2/t2", hbox, seed=1)
    s_ok = is_zero_expr(homog.d("S") + parse("1/t2", homog.table))
    ma_ok = is_zero_expr(tube.ma_residual(homog.derivs))

    # Levi rank exactly 1 for both families, from the Monge-Ampere certificate
    m, _, _, _ = paper_pipeline
    levi_ok = m.levi_rank() == homog.levi_rank() == 1

    ok = rejected and s_ok and ma_ok and levi_ok
    _line(8, ok, "degenerate input rejected; homogeneous family accepted "
                 "with exact invariants; Levi rank exactly 1 for both")
    assert rejected
    assert s_ok
    assert ma_ok
    assert levi_ok


def test_acceptance_9_kernel_property_suites():
    chart = model.model_chart()
    rng = random.Random(42)
    names = [g.name for g in chart.generators]

    def random_form(degree, max_terms=3):
        form = chart.zero(degree)
        for _ in range(rng.randint(1, max_terms)):
            word = rng.sample(names, degree)
            piece = chart.scalar(rng.randint(-3, 3))
            for n in word:
                piece = piece.wedge(chart.gen(n))
            form = form + piece
        return form

    dd_ok = True
    for _ in range(100):
        form = random_form(rng.choice([0, 1, 2]))
        dd = form.d().d()
        if not dd.certify_zero():
            dd_ok = False

    leibniz_ok = True
    for _ in range(100):
        da, db = rng.choice([0, 1, 2]), rng.choice([0, 1])
        a, b = random_form(da), random_form(db)
        sign = -1 if da % 2 else 1
        diff = a.wedge(b).d() - (a.d().wedge(b) + a.wedge(b.d()).scale(sign))
        if not diff.certify_zero():
            leibniz_ok = False

    # finite differences vs symbolic derivative, 200 admissible cases
    from crcgeo.scalars import DomainEvalError, differentiate
    from tests.test_scalars import _random_tree, _sample
    table = VariableTable()
    variables = table.positive("x", "y", "z")
    trng = random.Random(77)
    fd_checked = 0
    fd_ok = True
    attempts = 0
    step = 1e-5
    while fd_checked < 200 and attempts < 2500:
        attempts += 1
        tree = _random_tree(trng, variables, trng.randint(1, 6))
        var = trng.choice(variables)
        point = _sample(trng, variables)
        try:
            sym = evaluate(differentiate(tree, var), point)
            up, down = dict(point), dict(point)
            up[var.name] += step
            down[var.name] -= step
            fd = (evaluate(tree, up) - evaluate(tree, down)) / (2 * step)
        except DomainEvalError:
            continue
        scale = 1.0 + abs(sym) + abs(evaluate(tree, point))
        if scale > 1e6:
            continue
        fd_checked += 1
        if abs(fd - sym) >= 1e-5 * scale:
            fd_ok = False
    fd_ok = fd_ok and fd_checked == 200

    conj_ok = True
    ctable = VariableTable()
    ctable.real("x")
    ctable.positive("y")
    ctable.imaginary("m")
    ctable.pair("p", "pc")
    cvars = [ctable["x"], ctable["y"], ctable["m"], ctable["p"]]
    crng = random.Random(31)
    conj_checked = 0
    while conj_checked < 200:
        e = _random_tree(crng, cvars, crng.randint(1, 4))
        try:
            if not is_zero_expr(conjugate(conjugate(e)) - normalize(e)):
                conj_ok = False
        except DomainEvalError:
            continue  # tree contains a literal division by zero
        conj_checked += 1

    report_a = tube.analyze("t1^2/t2", {"t1": (0.5, 1), "t2": (0.5, 1)}, seed=4)
    report_b = tube.analyze("t1^2/t2", {"t1": (0.5, 1), "t2": (0.5, 1)}, seed=4)
    det_ok = (report_a.to_json(include_timing=False)
              == report_b.to_json(include_timing=False))

    ok = dd_ok and leibniz_ok and fd_ok and conj_ok and det_ok
    _line(9, ok, f"d^2=0 (100 forms), Leibniz (100 pairs), finite-difference "
                 f"derivative agreement ({fd_checked} cases), conjugation "
                 f"involution (200 cases), deterministic seeded reports")
    assert dd_ok
    assert leibniz_ok
    assert fd_ok
    assert conj_ok
    assert det_ok
