"""Tube pipeline: hypothesis screening, Levi rank, coframe identities,
torsion coefficients, and the flatness verdict."""

import collections
import hashlib
import importlib.util
import json
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from crcgeo import cli, scalars, tube
from crcgeo.forms import Chart, FormExpr
from crcgeo.parsing import parse
from crcgeo.scalars import (
    Var,
    VariableTable,
    ZERO,
    ZeroTestInconclusiveError,
    certify_zero,
    conjugate,
    differentiate,
    evaluate,
    is_identically_zero,
    is_zero_expr,
    normalize,
    substitute,
    to_text,
)
from tests.test_forms import cyclic_garbage

BOX = {"t1": (0.02, 0.08), "t2": (0.02, 0.08)}
GOLDEN = Path(__file__).parent / "golden"
HOMOG_BOX = {"t1": (0.5, 1.0), "t2": (0.5, 1.0)}


@pytest.fixture(scope="module")
def paper_model():
    return tube.tube_from_rho(tube.paper_example_rho(), BOX)


@pytest.fixture(scope="module")
def paper_coframe(paper_model):
    return tube.build_coframe(paper_model)


@pytest.fixture(scope="module")
def paper_verdict(paper_coframe):
    return tube.curvature_coefficients(paper_coframe)


@pytest.fixture(scope="module")
def homog_model():
    return tube.tube_from_rho("t1^2/t2", HOMOG_BOX)


def _equal(model, a, b, seed=0):
    diff = normalize(a - b)
    if certify_zero(diff):
        return True
    return is_identically_zero(diff, model.zero_test_box, trials=16, seed=seed)


# ---------------------------------------------------------------------------
# hypothesis screening


def test_cold_analysis_leaves_no_closures_in_cyclic_garbage():
    # the run pauses the collector, so a cycle it makes lives until the
    # next collection: none may hold a function or its cells (and through
    # them a memo), nor a chart its rules
    assert cyclic_garbage(lambda: tube.analyze(tube.paper_example_rho(), BOX, seed=0)) == {}


def test_a_warm_analysis_builds_no_chart_and_still_checks_the_coframe(monkeypatch):
    tube.analyze(tube.paper_example_rho(), BOX)
    built = []
    init = Chart.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Chart, "__init__", counting)
    report = tube.analyze(tube.paper_example_rho(), BOX)
    assert built == []
    golden = json.loads((GOLDEN / "paper_example_seed0.json").read_text())
    coframe = [(c.name, c.status) for c in report.checks if c.name.startswith("coframe:")]
    assert coframe == [(c["name"], "pass") for c in golden["checks"]
                       if c["name"].startswith("coframe:")]
    assert len(coframe) == 9


def test_the_jet_model_and_its_coframe_inputs_are_kept_per_generation():
    model = tube.jet_model()
    assert tube.jet_model() is model
    cf = tube.build_coframe(model)
    again = tube.build_coframe(tube.jet_model())
    assert again.ambient is cf.ambient and again.frame is cf.frame
    assert again.forms_ambient is cf.forms_ambient
    assert [c.name for c in again.checks.checks] == [c.name for c in cf.checks.checks]
    scalars.clear_caches()
    fresh = tube.build_coframe(tube.jet_model())
    assert fresh.model is not model and fresh.ambient is not cf.ambient
    assert fresh.frame is not cf.frame


def test_a_rho_models_coframe_inputs_leave_with_the_model():
    # the per-rho route keeps its charts, forms and substitution on the
    # model, not in the generation, so they go when the model goes
    tube.build_coframe(tube.tube_from_rho("t1^2/t2", HOMOG_BOX))  # keeps the model chart
    kept = len(scalars._KEPT)
    model = tube.tube_from_rho("t1^2/t2", HOMOG_BOX)
    cf = tube.build_coframe(model)
    assert tube.build_coframe(model).ambient is cf.ambient
    assert len(scalars._KEPT) == kept
    chart, frame = weakref.ref(cf.ambient), weakref.ref(cf.frame)
    del model, cf
    assert chart() is None and frame() is None


def test_paper_example_accepted(paper_model):
    rho11 = paper_model.d("rho11")
    assert certify_zero(rho11 - parse("1/sqrt(1-12*t1*t2)", paper_model.table))
    s_ref = parse("(1-sqrt(1-12*t1*t2))/(t2*sqrt(1-12*t1*t2))", paper_model.table)
    assert certify_zero(paper_model.d("S") - s_ref)


def test_degenerate_parabola_rejected():
    with pytest.raises(tube.TubeHypothesisError) as err:
        tube.tube_from_rho("t1^2/2", {"t1": (0.1, 1), "t2": (0.1, 1)})
    assert err.value.hypothesis == "twonondegenerate"


def test_elliptic_paraboloid_rejected_by_monge_ampere():
    with pytest.raises(tube.TubeHypothesisError) as err:
        tube.tube_from_rho("t1^2+t2^2", {"t1": (0.1, 1), "t2": (0.1, 1)})
    assert err.value.hypothesis == "monge_ampere"


def test_negative_rho11_rejected():
    with pytest.raises(tube.TubeHypothesisError) as err:
        tube.tube_from_rho("-t1^2/t2", {"t1": (0.5, 1), "t2": (0.5, 1)})
    assert err.value.hypothesis == "positivity"


def _reference_positivity_reason(rho, box, seed):
    """The point-by-point check: draw a point, evaluate rho11 there, stop
    at the first non-positive value among 16 admissible points."""
    rho11 = tube._derivative_cache(tube._rho_over_base(rho), tube._tube_table())["rho11"]
    variables = sorted(scalars.free_variables(rho11), key=lambda v: v.name)
    rng = random.Random(seed + 5)
    found = 0
    for _ in range(8 * 16):
        if found >= 16:
            break
        point = scalars.sample_point(variables, box, rng)
        try:
            val = evaluate(rho11, point)
        except scalars.DomainEvalError:
            continue
        terms = rho11.terms if isinstance(rho11, scalars.Add) else (rho11,)
        if not any(evaluate(t, point) for t in terms):
            continue  # every term is 0 there: the point tells nothing
        found += 1
        if abs(val.imag) > 1e-9 * (1 + abs(val)) or val.real <= 0:
            return f"positivity: rho11 = {val} at {point} is not positive"
    return None


@pytest.mark.parametrize("seed", [0, 7])
def test_positivity_reason_names_the_first_nonpositive_point(seed, capsys):
    # t2*g(t1/t2) for g = s^3 has rho11 = 6*t1/t2^2, negative where t1 < 0
    want = _reference_positivity_reason(tube.ma_profile_solution("s^3"),
                                        {"t1": (-1.0, 1.0), "t2": (0.5, 1.0)}, seed)
    assert want is not None
    code = cli.main(["tube", "profile", "--g", "s^3", "--box", "t1=-1:1,t2=0.5:1",
                     "--seed", str(seed)])
    assert code == cli.EXIT_FAIL
    last = json.loads(capsys.readouterr().out)["checks"][-1]
    assert (last["name"], last["status"]) == ("hypothesis:positivity", "fail")
    assert last["details"]["reason"] == want


def test_positivity_without_an_admissible_point_is_undecided():
    # rho11 of t2*g(t1/t2) for g = s^(5/2) is undefined wherever t1 < 0
    report = tube.analyze(tube.ma_profile_solution("s^(5/2)"),
                          {"t1": (-1, -0.5), "t2": (0.5, 1)})
    last = report.checks[-1]
    assert (last.name, last.status) == ("hypothesis:positivity", "inconclusive")
    assert last.details == {"reason": "positivity: no admissible sample points"}


def test_vanishing_rho11_rejected_by_positivity():
    # rho11 = 0, so S = (rho12/rho11)_1 is undefined
    with pytest.raises(tube.TubeHypothesisError) as err:
        tube.tube_from_rho("t1*t2", BOX)
    assert err.value.hypothesis == "positivity"
    report = tube.analyze("t1*t2", BOX)
    assert report.overall == "fail"
    assert [c.name for c in report.checks] == ["hypothesis:positivity"]


def test_undecided_twonondegeneracy_is_inconclusive(monkeypatch):
    # S's zero test cannot decide: the analysis stops there without calling
    # the hypothesis failed
    vanishes = tube.TubeModel.vanishes
    monkeypatch.setattr(tube.TubeModel, "vanishes", lambda model, x: (
        tube.INCONCLUSIVE if x is model.d("S") else vanishes(model, x)))
    with pytest.raises(tube.TubeHypothesisUndecided) as err:
        tube.tube_from_rho("t1^2/t2", HOMOG_BOX)
    assert err.value.hypothesis == "twonondegenerate"
    report = tube.analyze("t1^2/t2", HOMOG_BOX)
    assert report.overall == "inconclusive"
    assert [(c.name, c.status) for c in report.checks] == [
        ("hypothesis:monge_ampere", "pass"), ("hypothesis:positivity", "pass"),
        ("hypothesis:twonondegenerate", "inconclusive")]


def test_homogeneous_family_accepted(homog_model):
    # oracle: direct differentiation gives rho11 = 2/t2, rho12 = -2 t1/t2^2
    assert is_zero_expr(homog_model.d("rho11") - parse("2/t2", homog_model.table))
    assert is_zero_expr(homog_model.d("S") + parse("1/t2", homog_model.table))
    assert is_zero_expr(tube.ma_residual(homog_model.derivs))


def test_profile_generator():
    rho = tube.ma_profile_solution("s^2")
    table = _fresh_table()
    assert normalize(rho) == normalize(parse("t1^2/t2", table))
    quartic = tube.ma_profile_solution("s^4")
    # oracle: brute-force differentiation of t1^4/t2^3
    derivs = tube._derivative_cache(quartic, _fresh_table())
    assert is_zero_expr(tube.ma_residual(derivs))


def _fresh_table():
    table = VariableTable()
    table.real("t1", "t2")
    return table


def test_substitute_accepts_an_unnormalized_real_binding():
    # rho12/rho11 of a radical profile is real, but as built it does not
    # cancel against its conjugate before normalization
    table = tube._tube_table()
    derivs = tube._derivative_cache(tube.ma_profile_solution("s^2*(1+s)^(1/2)"), table)
    ratio = derivs["rho12"] / derivs["rho11"]
    m, = VariableTable().real("m")
    assert substitute(Var(m), {m: ratio}) is normalize(ratio)


def test_profile_linear_fails_positivity_downstream(capsys):
    # t2*g(t1/t2) for g = s is t1: rho11 is identically zero, so
    # S = (rho12/rho11)_1 divides by zero whatever the box
    rho = tube.ma_profile_solution("s")
    with pytest.raises(tube.TubeHypothesisError) as err:
        tube.tube_from_rho(rho, HOMOG_BOX)
    assert str(err.value) == "positivity: rho11 is identically zero"
    for args in (["profile", "--g", "s"],
                 ["analyze", "--rho", "t1", "--box", "t1=0.5:1,t2=0.5:1"]):
        assert cli.main(["tube", *args]) == cli.EXIT_FAIL
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["name"], c["status"], c["details"]["reason"]) for c in checks] == [
            ("hypothesis:positivity", "fail", str(err.value))], args


# ---------------------------------------------------------------------------
# Levi rank


def test_levi_rank_one_for_paper_example(paper_model):
    assert paper_model.levi_rank() == 1


def _levi_rank(rho):
    """The Levi rank of a defining function, with no hypothesis gate."""
    table = tube._tube_table()
    derivs = tube._derivative_cache(tube._rho_over_base(rho), table)
    return tube.TubeModel(table, {}, derivs=derivs).levi_rank()


def test_levi_rank_one_for_parabola():
    assert _levi_rank("t1^2/2") == 1


def test_levi_rank_one_for_light_cone_and_jets():
    assert _levi_rank("t1^2/t2") == 1
    assert tube.jet_model().levi_rank() == 1


def test_levi_rank_two_for_elliptic_paraboloid():
    # the Hessian determinant is 4, no zero: rank 1 is not proven
    assert _levi_rank("t1^2+t2^2") is None


def test_defining_function_over_foreign_variables_is_refused():
    # x is not a tube coordinate, and u is a fiber coordinate, not a base one
    table = VariableTable()
    x, t1, t2 = (Var(v) for v in table.real("x", "t1", "t2"))
    u, = (Var(v) for v in table.positive("u"))
    box = {"t1": (0.5, 1), "t2": (0.5, 1)}
    for rho, name in ((x ** 2 + t1, "x"), (t1 ** 2 / t2 + u, "u")):
        with pytest.raises(scalars.ExprError, match=f"unexpected variable {name}"):
            tube.tube_from_rho(rho, box)
    # the same function over t1 and t2 alone is accepted
    assert _levi_rank(t1 ** 2 / t2) == 1
    assert tube.tube_from_rho(t1 ** 2 / t2, box).d("rho11") != ZERO


# ---------------------------------------------------------------------------
# coframe identities


def test_coframe_checks_all_pass(paper_coframe):
    assert all(c.status == "pass" for c in paper_coframe.checks.checks)
    names = [c.name for c in paper_coframe.checks.checks]
    assert "coframe:contact form structure identity" in names
    assert "coframe:fiber correction vanishes at b=0" in names


def test_sigma_has_only_coframe_components(paper_coframe):
    present = paper_coframe.sigma.generators_present()
    assert present <= {"omega", "omega1", "omega1c", "theta2", "theta2c",
                       "phi2", "phi2c"}


def test_base_derivative_structure(paper_model):
    """The base coframe derivative identities, certified directly."""
    chart = tube._ambient_chart(paper_model)
    forms = tube._ambient_forms(paper_model, chart)
    rho11 = paper_model.d("rho11")
    dmu = chart.gen("mu").d()
    target = forms["eta1"].wedge(forms["eta1"].conj()).scale(-1 / rho11)
    diff = dmu - target
    assert diff.vanishes(paper_model.zero_test_box, seed=1)
    # d eta1 = -S eta2 ^ eta1c + [rho111/rho11^2 eta1c + S eta2c] ^ eta1
    s_fn = paper_model.d("S")
    rho111 = paper_model.d("rho111")
    deta1 = forms["eta1"].d()
    eta1, eta2 = forms["eta1"], forms["eta2"]
    bracket = eta1.conj().scale(rho111 / rho11 ** 2) + eta2.conj().scale(s_fn)
    target1 = eta2.wedge(eta1.conj()).scale(-s_fn) + bracket.wedge(eta1)
    diff1 = deta1 - target1
    assert diff1.vanishes(paper_model.zero_test_box, seed=2)


def test_gamma0_collapses_fiber_differentials(paper_model, paper_coframe):
    """At u=1, a=1, b=0, lam=0 the substituted fiber differentials take the
    advertised simple shape."""
    table = paper_model.table
    g0 = tube.gamma0_bindings(table)
    frame = paper_coframe.frame
    du0 = paper_coframe.frame_sub["du"].substitute_scalars(g0)
    assert du0 == frame.gen("phi2") + frame.gen("phi2c")
    db0 = paper_coframe.frame_sub["db"].substitute_scalars(g0)
    assert db0 == frame.gen("phi1c")
    alpha0 = paper_coframe.frame_sub["alpha"].substitute_scalars(g0)
    # direct check of the coframe coefficients of da at the section
    got = alpha0.coefficient(("omega1",))
    want = paper_model.d("rho111") * paper_model.d("rho11") ** Fraction(-3, 2) / 2
    assert _equal(paper_model, got, want, seed=5)
    assert is_zero_expr(alpha0.coefficient(("theta2",)) + Fraction(1, 2))
    assert is_zero_expr(alpha0.coefficient(("phi2",)) - Fraction(1, 2))


# ---------------------------------------------------------------------------
# torsion coefficients


def test_theta2_2bar1_matches_closed_form(paper_model, paper_verdict):
    assert _equal(paper_model, paper_verdict.theta2_2bar1,
                  tube.expected_theta2_2bar1(paper_model), seed=11)


def test_c_is_one_third_of_coefficient(paper_verdict):
    assert is_zero_expr(paper_verdict.c - paper_verdict.theta2_2bar1 / 3)


def test_theta2_21_gamma0_matches_closed_form(paper_model, paper_verdict):
    assert _equal(paper_model, paper_verdict.theta2_21_gamma0,
                  tube.expected_theta2_21_gamma0(paper_model), seed=12)


def test_normalization_shift_kills_coefficient(paper_model, paper_verdict):
    """Shifting the fiber coordinate by the normalization function drives
    the re-extracted coefficient to zero on the section."""
    table = paper_model.table
    b, bb = table["b"], table["bb"]
    shifted = substitute(paper_verdict.theta2_2bar1, {bb: Var(bb) - paper_verdict.c})
    on_section = tube.restrict_to_section(shifted, table)
    assert is_identically_zero(on_section, paper_model.zero_test_box, trials=16, seed=13)


def test_final_coefficient_matches_printed_value(paper_model, paper_verdict):
    closed = tube.paper_example_final_closed_form(paper_model)
    diff = normalize(paper_verdict.theta2_21_final - closed)
    assert is_identically_zero(diff, BOX, trials=32, seed=0)


def test_final_coefficient_matches_direct_route(paper_model, paper_verdict):
    # oracle: the independent scalar-calculus route (no exterior algebra)
    direct = tube.direct_final_coefficient(paper_model)
    diff = normalize(paper_verdict.theta2_21_final - direct)
    assert is_identically_zero(diff, BOX, trials=32, seed=1)


def _mp_value(e, point):
    """An expression's value in mpmath at the working precision; ``point``
    maps variable names to mpf values."""
    import mpmath  # the caller has skipped without it
    if isinstance(e, scalars.Const):
        return mpmath.mpc(mpmath.mpf(e.value.a) / e.value.d, mpmath.mpf(e.value.b) / e.value.d)
    if isinstance(e, Var):
        return point[e.var.name]
    if isinstance(e, scalars.Add):
        return mpmath.fsum(_mp_value(t, point) for t in e.terms)
    if isinstance(e, scalars.Mul):
        return mpmath.fprod(_mp_value(f, point) for f in e.factors)
    x = e.exp
    power = int(x) if x.denominator == 1 else mpmath.mpf(x.numerator) / x.denominator
    return _mp_value(e.base, point) ** power


def test_four_routes_to_the_paper_final_agree_at_50_digits(paper_model, paper_verdict, jets):
    # certify_zero proves none of these equal, through the two atoms
    # 1 - w^(1/2) and 1 - w^(-1/2) of one quantity (w = 1 - 12*t1*t2), so
    # they are compared in 50-digit arithmetic at rational points of the box
    mpmath = pytest.importorskip("mpmath")
    routes = [paper_verdict.theta2_21_final, tube.direct_final_coefficient(paper_model),
              tube.curvature_coefficients(tube.build_coframe(jets), paper_model).theta2_21_final,
              tube.paper_example_final_closed_form(paper_model)]
    rng = random.Random(8)
    with mpmath.workdps(50):
        for _ in range(3):
            point = {name: mpmath.mpf(rng.randint(20, 80)) / 1000 for name in ("t1", "t2")}
            first, *others = [_mp_value(e, point) for e in routes]
            assert all(abs(v - first) <= mpmath.mpf(10) ** -40 * abs(first) for v in others)


def test_paper_example_verdict(paper_verdict):
    assert paper_verdict.is_final_zero == "nonzero"
    assert paper_verdict.cartan_obstruction
    assert paper_verdict.flatness == "not_flat"


def test_homogeneous_example_final_zero(homog_model):
    cf = tube.build_coframe(homog_model)
    verdict = tube.curvature_coefficients(cf)
    assert verdict.is_final_zero == "zero"
    assert not verdict.cartan_obstruction
    assert verdict.flatness == "necessary_condition_passed"
    direct = tube.direct_final_coefficient(homog_model)
    assert is_identically_zero(direct, HOMOG_BOX, trials=16, seed=2)


def _flatness_details(report):
    (check,) = (c for c in report.checks if c.name == "flatness verdict")
    return check.status, check.details


def test_flatness_verdict_reads_each_state_from_one_table(monkeypatch):
    assert _flatness_details(tube.analyze(tube.paper_example_rho(), BOX)) == ("pass", {
        "final_coefficient_zero": "nonzero", "cartan_obstruction": True,
        "flatness": "not_flat",
        "conclusion": "not flat; not locally equivalent to the model; "
                      "the parallelism is not a Cartan connection"})
    assert _flatness_details(tube.analyze("t1^2/t2", HOMOG_BOX)) == ("pass", {
        "final_coefficient_zero": "zero", "cartan_obstruction": False,
        "flatness": "necessary_condition_passed",
        "conclusion": "necessary condition passed; flatness NOT concluded "
                      "(remaining curvature components not computed)"})
    # an undecided final zero test claims nothing, in any field
    unknown = tube.CurvatureVerdict(ZERO, ZERO, ZERO, ZERO, "inconclusive")
    assert (unknown.cartan_obstruction, unknown.flatness) == (None, "inconclusive")
    curvature = tube.curvature_coefficients
    monkeypatch.setattr(tube, "curvature_coefficients", lambda *args: curvature(
        *args)._replace(is_final_zero="inconclusive"))
    assert _flatness_details(tube.analyze("t1^2/t2", HOMOG_BOX)) == ("inconclusive", {
        "final_coefficient_zero": "inconclusive", "cartan_obstruction": None,
        "flatness": "inconclusive", "conclusion": "inconclusive zero test; no claim made"})


def test_tube_models_share_no_cache_or_report():
    table = tube._tube_table()
    first, second = tube.TubeModel(table, {}), tube.TubeModel(table, {})
    for name in ("derivs", "jets", "hypotheses"):
        assert getattr(first, name) is not getattr(second, name), name
    assert first.hypotheses.checks is not second.hypotheses.checks
    assert (first.seed, first.derivs, first.jets) == (0, {}, {})
    assert first.hypotheses.title == "tube hypotheses"


def test_coframe_rewrites_into_and_reads_its_frame(paper_coframe):
    cf = paper_coframe
    assert cf.gen("theta2") == cf.frame.gen("theta2")
    dtheta2 = cf.forms_ambient["theta2"].d()
    assert cf.rewrite(dtheta2) == dtheta2.rewrite(cf.frame_sub)


def test_torsion_conjugation_consistency(paper_model, paper_coframe):
    """Conjugating the torsion form equals computing it from conjugated
    inputs (zero test at 8 points)."""
    cf = paper_coframe
    g = cf.gen
    torsion = tube.torsion_form(cf)
    direct_conj = torsion.conj()
    dtheta2c = cf.rewrite(cf.forms_ambient["theta2"].conj().d())
    from_inputs = (dtheta2c + g("theta2c").wedge(g("phi2c") - g("phi2"))
                   - g("omega1c").wedge(g("phi1c")))
    diff = direct_conj - from_inputs
    assert diff.vanishes(paper_model.zero_test_box, seed=17)


# ---------------------------------------------------------------------------
# the jet proof


@pytest.fixture(scope="module")
def jets():
    return tube.jet_model()


@pytest.fixture(scope="module")
def jet_verdict(jets):
    return tube.curvature_coefficients(tube.build_coframe(jets))


def _jet(model, name):
    return Var(model.table[name])


def test_jet_derivation_commutes_and_solves_monge_ampere(jets):
    d = jets.derive
    for k in range(tube.JET_ORDER - 1):
        for name in (f"r{k}", f"m{k}"):
            x = _jet(jets, name)
            assert d(d(x, 1), 2) == d(d(x, 2), 1), name
    # the cache is the Hessian r0*[[1, m0], [m0, m0^2]] and its derivatives
    r0, r1, m0, m1, m2 = (_jet(jets, n) for n in ("r0", "r1", "m0", "m1", "m2"))
    want = {"rho11": r0, "rho12": m0 * r0, "rho22": m0 ** 2 * r0, "rho111": r1,
            "S": m1, "S1": m2}
    assert {k: jets.d(k) for k in want} == {k: normalize(v) for k, v in want.items()}
    assert d(jets.d("rho11"), 2) == normalize(m1 * r0 + m0 * r1)
    assert d(jets.d("S"), 2) == normalize(m0 * m2 + m1 ** 2)
    assert tube.ma_residual(jets.derivs) == ZERO
    assert d(jets.d("rho11"), 2) == d(jets.d("rho12"), 1)
    assert d(jets.d("rho12"), 2) == d(jets.d("rho22"), 1)


def test_jet_chart_certifies_d_squared(jets):
    # _ambient_chart installs its rules with check=True; d(d mu) = 0 needs
    # the jets' scalar rules dX = d1X dt1 + d2X dt2
    checked = tube._ambient_chart(jets).verify_d_squared()
    assert checked["mu"] and all(checked.values())


def test_a_derivative_past_the_jet_order_raises(jets):
    top = _jet(jets, f"m{tube.JET_ORDER}")
    for axis in (1, 2):
        with pytest.raises(scalars.ExprError, match="past the jet order"):
            jets.derive(top * _jet(jets, "r0"), axis)
    with pytest.raises(scalars.ExprError):
        tube._ambient_chart(jets).scalar(top).d()


def test_jet_coframe_identities_hold_by_normal_form(jets, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a jet identity was sampled")

    monkeypatch.setattr(scalars, "sample_values", no_sampling)
    checks = tube.build_coframe(jets).checks.checks
    assert len(checks) == 9 and all(c.status == "pass" for c in checks)


def test_universal_coefficients_equal_their_closed_forms_exactly(jets, jet_verdict):
    assert normalize(jet_verdict.theta2_2bar1 - tube.expected_theta2_2bar1(jets)) == ZERO
    assert normalize(jet_verdict.theta2_21_gamma0
                     - tube.expected_theta2_21_gamma0(jets)) == ZERO
    final = jet_verdict.theta2_21_final
    assert to_text(final) == "-2*m1^(-1)*m2*r0^(-1/2)"
    assert normalize(tube.direct_final_coefficient(jets) - final) == ZERO
    assert jet_verdict.is_final_zero == "nonzero"


def test_specialized_paper_final_is_certified_equal_to_closed_form(paper_model, jets):
    verdict = tube.curvature_coefficients(tube.build_coframe(jets), paper_model)
    closed = tube.paper_example_final_closed_form(paper_model)
    assert certify_zero(normalize(verdict.theta2_21_final - closed))
    assert verdict.is_final_zero == "nonzero"


def test_a_nonzero_jet_identity_fails_rather_than_inconclusive(jets, fresh_generation,
                                                              monkeypatch):
    # every jet has a box interval, so a false identity is refuted
    assert jets.vanishes(_jet(jets, "m1") * _jet(jets, "r2")) is False
    base_substitution = tube._base_substitution

    def perturbed(model, frame):
        sub = base_substitution(model, frame)
        if model.jets:
            sub["mu"] = sub["mu"].scale(1 + _jet(model, "m1"))
        return sub

    # the new generation's jet model is built with the perturbed
    # substitution, and no later test reads it
    monkeypatch.setattr(tube, "_base_substitution", perturbed)
    report = tube.analyze("t1^2/t2", HOMOG_BOX)
    assert report.overall == "fail"
    assert [(c.name, c.status) for c in report.checks[-2:]] == [
        ("coframe:substitution inverts omega", "fail"), ("coframe construction", "fail")]


@pytest.mark.parametrize("g", ["s^2+s^3", "s^2*(1+s)^(1/2)", "s^2+s^3+s^4", "1/s",
                               "(1+s^2)^(1/2)"])
def test_profile_reports_keep_every_check_and_status(g):
    # each profile's checks and statuses are those of the light-cone golden
    # (final coefficient zero)
    golden = json.loads((GOLDEN / "tube_light_cone_seed0.json").read_text())
    report = tube.analyze(tube.ma_profile_solution(g), HOMOG_BOX)
    assert ([(c.name, c.status) for c in report.checks]
            == [(c["name"], c["status"]) for c in golden["checks"]])
    assert report.checks[-1].details["final_coefficient_zero"] == "zero"
    if g == "1/s":
        # under c's radical t1^(-3) is the one factor of unknown sign at an
        # odd power, so it leaves; t2^2 stays inside
        details = {c.name: c.details for c in report.checks}["curvature coefficients"]
        assert details["c"] == ("-1/2*a*t1^(1/2)*t2^(-2)*u^(-1/2)*2^(1/2)*(t2^2)^(1/2)"
                                " + bb")


@pytest.mark.parametrize("g", ["s^2+s^3", "s^2*(1+s)^(1/2)", "s^2+s^3+s^4"])
def test_non_monomial_profiles_decide_every_zero_question_exactly(g, monkeypatch):
    # radical recombination divides each group of these profiles exactly, so
    # S is one monomial, S1 and the final coefficient normalize to 0, and
    # no zero verdict is sampled
    def no_sampling(*args, **kwargs):
        raise AssertionError("a zero verdict was sampled")

    golden = json.loads((GOLDEN / "tube_light_cone_seed0.json").read_text())
    scalars.clear_caches()
    monkeypatch.setattr(scalars, "sample_values", no_sampling)
    model = tube.tube_from_rho(tube.ma_profile_solution(g), HOMOG_BOX)
    assert to_text(model.d("S")) == "-t2^(-1)"
    assert normalize(model.d("S1")) == ZERO
    report = tube.analyze(tube.ma_profile_solution(g), HOMOG_BOX)
    assert ([(c.name, c.status) for c in report.checks]
            == [(c["name"], c["status"]) for c in golden["checks"]])
    details = {c.name: c.details for c in report.checks}["curvature coefficients"]
    assert details["theta2_21_final"] == "0"
    assert tube.direct_final_coefficient(model) == ZERO


def test_cold_paper_analysis_makes_33_divisions_with_4_quotients(monkeypatch):
    divisions = []
    divide = scalars._exact_quotient

    def recording(nf, base):
        quotient = divide(nf, base)
        divisions.append((dict(nf), base, quotient))
        return quotient

    scalars.clear_caches()
    monkeypatch.setattr(scalars, "_exact_quotient", recording)
    assert tube.analyze(tube.paper_example_rho(), BOX).overall == "pass"
    # the counts a traced paper_cold benchmark job reports
    assert len(divisions) == 33
    assert sum(quotient is None for _, _, quotient in divisions) == 29
    for nf, base, quotient in divisions:
        assert quotient is None or scalars._nf_mul(quotient, base) == nf
    # the three divisions by 1 - (1 - 12*t1*t2)^(-1/2) are refused
    assert [quotient for _, base, quotient in divisions
            if any(scalars._is_sum_atom(atom) for pows in base for atom, _ in pows)] == [None] * 3


def test_sample_text_prints_either_zero_imaginary_part_as_plus_zero():
    assert tube._sample_text(complex(-63.98489377, -0.0)) == "-63.98489377+0j"
    assert tube._sample_text(complex(-63.98489377, 0.0)) == "-63.98489377+0j"
    assert tube._sample_text(complex(2.5, -1.25e-7)) == "2.5-1.25e-07j"


# ---------------------------------------------------------------------------
# end-to-end report


def test_analyze_report_for_rejected_input():
    report = tube.analyze("t1^2/2", {"t1": (0.1, 1), "t2": (0.1, 1)})
    assert report.overall == "fail"
    # the hypotheses that passed before the failed one stay in the report
    assert [(c.name, c.status) for c in report.checks] == [
        ("hypothesis:monge_ampere", "pass"), ("hypothesis:positivity", "pass"),
        ("hypothesis:twonondegenerate", "fail")]


def test_analyze_report_keeps_checks_before_a_failed_coframe_identity(monkeypatch):
    structure_residuals = tube.structure_residuals

    def perturbed(forms, differentials):
        # the contact form structure identity gains a nonzero term
        out = structure_residuals(forms, differentials)
        if "omega" in out:
            out["omega"] = out["omega"] + forms["omega"].wedge(forms["omega1"])
        return out

    monkeypatch.setattr(tube, "structure_residuals", perturbed)
    report = tube.analyze("t1^2/t2", HOMOG_BOX)
    assert report.overall == "fail"
    assert [c.name for c in report.checks] == [
        "hypothesis:monge_ampere", "hypothesis:positivity",
        "hypothesis:twonondegenerate", "levi rank 1",
        *(f"coframe:substitution inverts {name}"
          for name in ("omega", "omega1", "theta2", "phi2")),
        "coframe:contact form structure identity", "coframe construction"]
    assert [c.status for c in report.checks[-2:]] == ["fail", "fail"]
    assert report.checks[-1].details == {"identity": "contact form structure identity"}


_STRUCTURE_RESIDUALS, _TORSION_FORM = tube.structure_residuals, tube.torsion_form


def _refuted_positivity(model):
    raise tube.TubeHypothesisError("positivity", "injected", model.hypotheses)


def _perturbed_contact_identity(forms, differentials):
    out = _STRUCTURE_RESIDUALS(forms, differentials)
    if "omega" in out:
        out["omega"] = out["omega"] + forms["omega"].wedge(forms["omega1"])
    return out


def _inert_covector_in_torsion(cf):
    return _TORSION_FORM(cf) + cf.gen("theta2").wedge(cf.gen("dlam"))


@pytest.mark.parametrize("target, fault, kept, tail", [
    ("_check_positivity", _refuted_positivity, 1,
     [("hypothesis:positivity", "fail", {"reason": "positivity: injected"})]),
    ("structure_residuals", _perturbed_contact_identity, 8,
     [("coframe:contact form structure identity", "fail", {}),
      ("coframe construction", "fail", {"identity": "contact form structure identity"})]),
    ("torsion_form", _inert_covector_in_torsion, 13,
     [("coframe construction", "fail",
       {"identity": "inert covector escaped the contact direction"})]),
], ids=["hypothesis", "coframe", "curvature"])
def test_a_failure_in_any_tube_stage_ends_the_report_with_exit_1(
        target, fault, kept, tail, monkeypatch, capsys):
    # a fault in the hypotheses, the coframe or the curvature stage ends the
    # report with its failed check after the ``kept`` checks made before it,
    # never as an input error
    golden = json.loads((GOLDEN / "paper_example_seed0.json").read_text())
    monkeypatch.setattr(tube, target, fault)
    assert cli.main(["tube", "paper-example"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    checks = [(c["name"], c["status"], c["details"]) for c in json.loads(out)["checks"]]
    assert checks[:kept] == [(c["name"], c["status"], c["details"])
                             for c in golden["checks"][:kept]]
    assert checks[kept:] == tail


def test_analyze_report_homogeneous():
    report = tube.analyze("t1^2/t2", HOMOG_BOX)
    assert report.overall == "pass"
    names = {c.name for c in report.checks}
    assert "levi rank 1" in names
    verdict = [c for c in report.checks if c.name == "flatness verdict"][0]
    assert verdict.details["final_coefficient_zero"] == "zero"


@pytest.mark.parametrize("interval", [(1e-300, 1e-299), (1e300, 1e301)])
def test_light_cone_passes_at_extreme_scales(interval):
    # near 1e-300 no Hessian entry has a float value, which an exact Levi
    # rank does not need; near 1e300 S = -t2^(-1) is below 1e-300, and a
    # one-monomial S is no zero whatever its size
    report = tube.analyze("t1^2/t2", {"t1": interval, "t2": interval})
    assert [(c.name, c.status) for c in report.checks if c.status != "pass"] == []
    assert report.overall == "pass"


def test_levi_rank_without_a_certificate_is_inconclusive(monkeypatch):
    monkeypatch.setattr(tube, "certify_zero", lambda e: False)
    report = tube.analyze("t1^2/t2", HOMOG_BOX)
    (levi,) = (c for c in report.checks if c.name == "levi rank 1")
    assert levi.status == "inconclusive"
    assert levi.details == {"reason": "rank 1 is not proven: the Monge-Ampere "
                                      "residual has no zero certificate"}
    assert report.overall == "inconclusive"


def test_every_coframe_check_carries_its_own_timing():
    report = tube.analyze("t1^2/t2", HOMOG_BOX)
    coframe = [c for c in report.checks if c.name.startswith("coframe:")]
    assert len(coframe) == 9
    assert all(c.timing_s is not None and c.timing_s >= 0 for c in coframe)
    # the stage's time is spread over its checks, not put on the last one
    assert sum(c.timing_s for c in coframe[:-1]) > 0
    assert "timing_s" not in report.to_json(include_timing=False)


def test_hypothesis_levi_and_verdict_checks_carry_their_own_timing():
    report = tube.analyze("t1^2/t2", HOMOG_BOX)
    timed = {c.name: c.timing_s for c in report.checks
             if not c.name.startswith("coframe:")}
    assert list(timed) == [
        "hypothesis:monge_ampere", "hypothesis:positivity",
        "hypothesis:twonondegenerate", "levi rank 1",
        "curvature coefficients", "flatness verdict"]
    # each check is timed on its own, not lumped onto the last of its stage
    assert all(t is not None and t > 0 for t in timed.values())
    assert "timing_s" not in report.to_json(include_timing=False)


def test_inconclusive_coframe_identity_is_reported_inconclusive(monkeypatch, capsys):
    def undecided(self, *args, **kwargs):
        raise ZeroTestInconclusiveError("forced")

    monkeypatch.setattr(FormExpr, "vanishes", undecided)
    report = tube.analyze("t1^2/t2", HOMOG_BOX)
    coframe = {c.name: c.status for c in report.checks if c.name.startswith("coframe:")}
    assert coframe["coframe:contact form structure identity"] == "inconclusive"
    assert coframe["coframe:fiber correction uses only coframe covectors"] == "pass"
    assert "fail" not in coframe.values()
    assert report.overall == "inconclusive"
    code = cli.main(["tube", "analyze", "--rho", "t1^2/t2",
                     "--box", "t1=0.5:1,t2=0.5:1"])
    assert code == cli.EXIT_INCONCLUSIVE
    assert json.loads(capsys.readouterr().out)["overall"] == "inconclusive"


@pytest.mark.parametrize("seed", [0, 7])
def test_paper_example_report_is_byte_identical_to_golden(seed):
    # the deterministic report of `crc tube paper-example` for the default
    # box; a kernel change that keeps every result keeps every byte
    scalars.clear_caches()
    report = tube.analyze(tube.paper_example_rho(), BOX, seed=seed)
    golden = (GOLDEN / f"paper_example_seed{seed}.json").read_text()
    assert report.to_json(include_timing=False) == golden


def test_light_cone_tube_report_is_byte_identical_to_golden():
    # the homogeneous tube over the light cone: its torsion coefficient is
    # zero, the verdict branch the paper example never reaches
    scalars.clear_caches()
    report = tube.analyze("t1^2/t2", HOMOG_BOX, seed=0)
    golden = (GOLDEN / "tube_light_cone_seed0.json").read_text()
    assert report.to_json(include_timing=False) == golden


def test_payload_digests_hash_the_tube_runs_as_the_goldens_hold_them():
    # tools/payload_digests.py prints, for these runs, the digests of the
    # golden files
    path = GOLDEN.parents[1] / "tools" / "payload_digests.py"
    spec = importlib.util.spec_from_file_location("payload_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = dict(tool.runs())
    for name, golden in (("paper seed 0", "paper_example_seed0"),
                         ("paper seed 7", "paper_example_seed7"),
                         ("rho t1^2/t2", "tube_light_cone_seed0")):
        expected = hashlib.sha256((GOLDEN / f"{golden}.json").read_bytes()).hexdigest()
        assert tool.digest(runs[name]()) == expected[:16], name


@pytest.mark.parametrize("profile", [None, "s^2+s^3"], ids=["light_cone", "profile"])
def test_a_profile_report_is_byte_identical_warm_and_cold(profile):
    # a warm run reads its substitutions, renderings and word merges from
    # the generation; clear_caches() makes the next run compute them again
    rho = "t1^2/t2" if profile is None else tube.ma_profile_solution(profile)

    def report():
        return tube.analyze(rho, HOMOG_BOX, seed=0).to_json(include_timing=False)

    scalars.clear_caches()
    cold = report()
    assert scalars._SUBST_MEMO and scalars._TEXT_MEMO
    assert report() == cold
    scalars.clear_caches()
    assert report() == cold


def test_warm_analysis_reuses_zero_certificates(monkeypatch):
    # a certificate depends on the node alone: after one analysis, another
    # with a new seed and box samples again but clears no denominator again
    scalars.clear_caches()
    clears = []
    clears_to_zero = scalars._clears_to_zero

    def counting(e):
        clears.append(e)
        return clears_to_zero(e)

    monkeypatch.setattr(scalars, "_clears_to_zero", counting)
    tube.analyze(tube.paper_example_rho(), {"t1": (0.03, 0.07), "t2": (0.025, 0.06)}, seed=3)
    assert clears and len(set(clears)) == len(clears) == len(scalars._CERT_MEMO)
    cold = len(clears)
    report = tube.analyze(tube.paper_example_rho(), BOX, seed=7)
    assert len(clears) == cold
    golden = (GOLDEN / "paper_example_seed7.json").read_text()
    assert report.to_json(include_timing=False) == golden
    scalars.clear_caches()
    assert not scalars._CERT_MEMO


def test_warm_paper_analysis_draws_every_point_with_sample_point(monkeypatch):
    # 16 points for rho11 > 0, one for each sampled nonzero verdict (S and
    # the final coefficient), and the report's 4 samples of the final one
    tube.analyze(tube.paper_example_rho(), BOX)
    calls = collections.Counter()
    draw = scalars.sample_point

    def counted(module):
        def sample_point(*args):
            calls[module] += 1
            return draw(*args)
        return sample_point

    monkeypatch.setattr(scalars, "sample_point", counted("scalars"))
    monkeypatch.setattr(tube, "sample_point", counted("tube"))
    tube.analyze(tube.paper_example_rho(), BOX)
    assert calls == {"scalars": 18, "tube": 4}
