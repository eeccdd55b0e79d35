"""Tube pipeline: hypothesis screening, Levi analysis, coframe identities,
torsion coefficients, and the flatness verdict."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from crcgeo import cli, scalars, tube
from crcgeo.forms import FormExpr
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
    return is_identically_zero(diff, model.zero_test_box, trials=16,
                               seed=seed, tol=1e-8)


# ---------------------------------------------------------------------------
# hypothesis screening


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


def test_vanishing_rho11_rejected_by_positivity():
    # rho11 = 0, so S = (rho12/rho11)_1 is undefined
    with pytest.raises(tube.TubeHypothesisError) as err:
        tube.tube_from_rho("t1*t2", BOX)
    assert err.value.hypothesis == "positivity"
    report = tube.analyze("t1*t2", BOX)
    assert report.overall == "fail"
    assert [c.name for c in report.checks] == ["hypothesis:positivity"]


def test_undecided_twonondegeneracy_is_inconclusive(monkeypatch):
    # S's zero test (seed shift 23) cannot decide: the analysis stops there
    # without calling the hypothesis failed
    vanishes = tube.TubeModel.vanishes
    monkeypatch.setattr(tube.TubeModel, "vanishes", lambda model, x, seed_shift: (
        tube.INCONCLUSIVE if seed_shift == 23 else vanishes(model, x, seed_shift)))
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
# Levi analysis


def test_levi_rank_one_for_paper_example(paper_model):
    report = paper_model.levi_rank([(0.05, 0.05)])
    assert report[0]["rank"] == 1
    assert report[0]["relative_smallest_eigenvalue"] < 1e-10


def _levi_rank(rho, points):
    """The Levi rank report of a defining function, with no hypothesis gate."""
    table = tube._tube_table()
    derivs = tube._derivative_cache(tube._rho_over_base(rho), table)
    return tube.TubeModel(table, {}, derivs=derivs).levi_rank(points)


def test_levi_rank_one_for_parabola():
    report = _levi_rank("t1^2/2", [(0.5, 0.5)])
    eigs = report[0]["eigenvalues"]
    assert report[0]["rank"] == 1
    assert eigs == pytest.approx([0.0, 1.0])


def test_levi_rank_skips_points_where_the_hessian_is_undefined():
    report = _levi_rank("t1^(5/2)*t2^(-3/2)", [(-0.5, 0.5), (0.5, 0.5), (0.0, 0.5)])
    assert [entry["point"] for entry in report] == [(0.5, 0.5)]
    assert _levi_rank("t1^(5/2)*t2^(-3/2)", [(-0.5, 0.5)]) == []


def test_levi_rank_two_for_elliptic_paraboloid():
    report = _levi_rank("t1^2+t2^2", [(0.3, 0.4)])
    assert report[0]["rank"] == 2
    assert report[0]["eigenvalues"] == pytest.approx([2.0, 2.0])


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
    assert _levi_rank(t1 ** 2 / t2, [(0.7, 0.6)])[0]["rank"] == 1
    assert tube.tube_from_rho(t1 ** 2 / t2, box).d("rho11") != ZERO


def test_levi_rank_matches_eigen_oracle(paper_model):
    # oracle: numpy eigenvalue solve on the directly evaluated Hessian
    np = pytest.importorskip("numpy")
    point = (0.04, 0.06)
    entries = [evaluate(paper_model.d(k), {"t1": point[0], "t2": point[1]}).real
               for k in ("rho11", "rho12", "rho22")]
    h = np.array([[entries[0], entries[1]], [entries[1], entries[2]]])
    report = paper_model.levi_rank([point])
    assert report[0]["eigenvalues"] == [float(x) for x in np.linalg.eigvalsh(h)]


def _hessian_cases(rng, n, exponents=(-122, 146)):
    """Seeded symmetric 2x2 matrices (a, b, c) with entries of modulus about
    10^e, e drawn from ``exponents``: general, mixed magnitudes, near rank 1
    (also perturbed by 1e-12), diagonal, |a| = |c|, trace zero, negative
    definite, and b*b subnormal beside a zero."""
    cases = []
    for _ in range(n):
        s, t, r = (10.0 ** rng.uniform(*exponents) for _ in range(3))
        u, v, w = (rng.uniform(-1, 1) for _ in range(3))
        a = s * rng.choice((-1, 1)) * rng.uniform(0.5, 1)
        b = s * v
        near = b * (b / a)
        x, y = rng.uniform(0.5, 1), rng.uniform(0.5, 1)
        cases += [
            (s * u, b, s * w), (s * u, t * v, r * w),
            (a, b, near), (a, b, near * (1 + 1e-12)), (a, b, near * (1 - 1e-12)),
            (s * u, 0.0, s * w),
            (s * u, b, s * u), (s * u, b, -s * u),
            (-s * x, 0.99 * s * v * (x * y) ** 0.5, -s * y),
            (s * u, 10.0 ** rng.uniform(-162, -154) * v, 0.0),
        ]
    return cases


def test_closed_form_hessian_eigenvalues_equal_lapack_bit_for_bit():
    # oracle: LAPACK's symmetric eigensolver through numpy, compared with ==
    # wherever LAPACK does not rescale the matrix
    np = pytest.importorskip("numpy")
    cases = [m for m in _hessian_cases(random.Random(20261018), 11_000)
             if 2.0 ** -405 <= max(map(abs, m)) <= 2.0 ** 485]
    assert len(cases) >= 100_000
    expected = np.linalg.eigvalsh(np.array([[[a, b], [b, c]] for a, b, c in cases]))
    mismatched = [(m, got, want) for m, want in zip(cases, map(tuple, expected.tolist()))
                  if (got := tube._symmetric_2x2_eigenvalues(*m)) != want]
    assert mismatched == []


def test_closed_form_hessian_eigenvalues_at_extreme_magnitudes():
    # outside [2^-405, 2^485] the entries are scaled by a power of two where
    # LAPACK rescales otherwise: finite, sorted and equal up to rounding
    np = pytest.importorskip("numpy")
    rng = random.Random(5)
    for exponents in ((299, 300), (-301, -300)):
        for m in _hessian_cases(rng, 100, exponents):
            got = tube._symmetric_2x2_eigenvalues(*m)
            assert all(math.isfinite(x) for x in got) and got[0] <= got[1]
            want = np.linalg.eigvalsh(np.array([[m[0], m[1]], [m[1], m[2]]]))
            size = max(abs(x) for x in m)
            assert got == pytest.approx(want.tolist(), rel=1e-12, abs=1e-12 * size)


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
    assert diff.certify_zero() or diff.vanishes(paper_model.zero_test_box,
                                                trials=8, seed=1, tol=1e-8)
    # d eta1 = -S eta2 ^ eta1c + [rho111/rho11^2 eta1c + S eta2c] ^ eta1
    s_fn = paper_model.d("S")
    rho111 = paper_model.d("rho111")
    deta1 = forms["eta1"].d()
    eta1, eta2 = forms["eta1"], forms["eta2"]
    bracket = eta1.conj().scale(rho111 / rho11 ** 2) + eta2.conj().scale(s_fn)
    target1 = eta2.wedge(eta1.conj()).scale(-s_fn) + bracket.wedge(eta1)
    diff1 = deta1 - target1
    assert diff1.certify_zero() or diff1.vanishes(paper_model.zero_test_box,
                                                  trials=8, seed=2, tol=1e-8)


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
    assert is_identically_zero(on_section, paper_model.zero_test_box, trials=16,
                               seed=13, tol=1e-8)


def test_final_coefficient_matches_printed_value(paper_model, paper_verdict):
    closed = tube.paper_example_final_closed_form(paper_model)
    diff = normalize(paper_verdict.theta2_21_final - closed)
    assert is_identically_zero(diff, BOX, trials=32, seed=0, tol=1e-8)


def test_final_coefficient_matches_direct_route(paper_model, paper_verdict):
    # oracle: the independent scalar-calculus route (no exterior algebra)
    direct = tube.direct_final_coefficient(paper_model)
    diff = normalize(paper_verdict.theta2_21_final - direct)
    assert is_identically_zero(diff, BOX, trials=32, seed=1, tol=1e-8)


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
    assert is_identically_zero(direct, HOMOG_BOX, trials=16, seed=2, tol=1e-8)


def test_flatness_probe_branches(paper_verdict):
    probe = tube.flatness_probe(paper_verdict)
    assert probe["flat"] is False
    assert "not a Cartan connection" in probe["conclusion"]
    passed = tube.CurvatureVerdict(ZERO, ZERO, ZERO, ZERO, "zero")
    probe2 = tube.flatness_probe(passed)
    assert probe2["flat"] is None and "NOT concluded" in probe2["conclusion"]
    assert passed.flatness == "necessary_condition_passed"
    assert passed.cartan_obstruction is False
    # an undecided final zero test claims nothing, in any field
    unknown = tube.CurvatureVerdict(ZERO, ZERO, ZERO, ZERO, "inconclusive")
    probe3 = tube.flatness_probe(unknown)
    assert probe3["flat"] is None and "no claim" in probe3["conclusion"]
    assert unknown.flatness == "inconclusive"
    assert unknown.cartan_obstruction is None


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
    assert diff.certify_zero() or diff.vanishes(
        paper_model.zero_test_box, trials=8, seed=17, tol=1e-8)


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


def test_a_nonzero_jet_identity_fails_rather_than_inconclusive(jets, monkeypatch):
    # every jet has a box interval, so a false identity is refuted
    assert jets.vanishes(_jet(jets, "m1") * _jet(jets, "r2"), seed_shift=0) is False
    base_substitution = tube._base_substitution

    def perturbed(model, frame):
        sub = base_substitution(model, frame)
        if model.jets:
            sub["mu"] = sub["mu"].scale(1 + _jet(model, "m1"))
        return sub

    monkeypatch.setattr(tube, "_base_substitution", perturbed)
    report = tube.analyze("t1^2/t2", HOMOG_BOX, trials=16)
    assert report.overall == "fail"
    assert [(c.name, c.status) for c in report.checks[-2:]] == [
        ("coframe:substitution inverts omega", "fail"), ("coframe construction", "fail")]


@pytest.mark.parametrize("g", ["s^2+s^3", "s^2*(1+s)^(1/2)", "s^2+s^3+s^4"])
def test_profile_reports_keep_every_check_and_status(g):
    # each profile's checks and statuses are those of the light-cone golden
    # (final coefficient zero)
    golden = json.loads((GOLDEN / "tube_light_cone_seed0.json").read_text())
    report = tube.analyze(tube.ma_profile_solution(g), HOMOG_BOX)
    assert ([(c.name, c.status) for c in report.checks]
            == [(c["name"], c["status"]) for c in golden["checks"]])
    assert report.checks[-1].details["final_coefficient_zero"] == "zero"


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
    vanishes = tube.TubeModel.vanishes

    def contact_identity_fails(self, x, seed_shift):
        # seed shift 37 belongs to the contact form structure identity
        return False if seed_shift == 37 else vanishes(self, x, seed_shift)

    monkeypatch.setattr(tube.TubeModel, "vanishes", contact_identity_fails)
    report = tube.analyze("t1^2/t2", HOMOG_BOX, trials=16)
    assert report.overall == "fail"
    assert [c.name for c in report.checks] == [
        "hypothesis:monge_ampere", "hypothesis:positivity",
        "hypothesis:twonondegenerate", "levi rank 1 at sampled points",
        *(f"coframe:substitution inverts {name}"
          for name in ("omega", "omega1", "theta2", "phi2")),
        "coframe:contact form structure identity", "coframe construction"]
    assert [c.status for c in report.checks[-2:]] == ["fail", "fail"]
    assert report.checks[-1].details == {"identity": "contact form structure identity"}


def test_analyze_report_homogeneous():
    report = tube.analyze("t1^2/t2", HOMOG_BOX, trials=16)
    assert report.overall == "pass"
    names = {c.name for c in report.checks}
    assert "levi rank 1 at sampled points" in names
    verdict = [c for c in report.checks if c.name == "flatness verdict"][0]
    assert verdict.details["final_coefficient_zero"] == "zero"


def test_every_coframe_check_carries_its_own_timing():
    report = tube.analyze("t1^2/t2", HOMOG_BOX, trials=16)
    coframe = [c for c in report.checks if c.name.startswith("coframe:")]
    assert len(coframe) == 9
    assert all(c.timing_s is not None and c.timing_s >= 0 for c in coframe)
    # the stage's time is spread over its checks, not put on the last one
    assert sum(c.timing_s for c in coframe[:-1]) > 0
    assert "timing_s" not in report.to_json(include_timing=False)


def test_hypothesis_levi_and_verdict_checks_carry_their_own_timing():
    report = tube.analyze("t1^2/t2", HOMOG_BOX, trials=16)
    timed = {c.name: c.timing_s for c in report.checks
             if not c.name.startswith("coframe:")}
    assert list(timed) == [
        "hypothesis:monge_ampere", "hypothesis:positivity",
        "hypothesis:twonondegenerate", "levi rank 1 at sampled points",
        "curvature coefficients", "flatness verdict"]
    # each check is timed on its own, not lumped onto the last of its stage
    assert all(t is not None and t > 0 for t in timed.values())
    assert "timing_s" not in report.to_json(include_timing=False)


def test_inconclusive_coframe_identity_is_reported_inconclusive(monkeypatch, capsys):
    def undecided(self, *args, **kwargs):
        raise ZeroTestInconclusiveError("forced")

    monkeypatch.setattr(FormExpr, "vanishes", undecided)
    report = tube.analyze("t1^2/t2", HOMOG_BOX, trials=16)
    coframe = {c.name: c.status for c in report.checks if c.name.startswith("coframe:")}
    assert coframe["coframe:contact form structure identity"] == "inconclusive"
    assert coframe["coframe:fiber correction uses only coframe covectors"] == "pass"
    assert "fail" not in coframe.values()
    assert report.overall == "inconclusive"
    code = cli.main(["tube", "analyze", "--rho", "t1^2/t2",
                     "--box", "t1=0.5:1,t2=0.5:1", "--trials", "16"])
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
