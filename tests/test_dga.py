"""Abstract normalization chart: gauge shifts, equivariance, connection
criterion, diagonal scaling, flat consistency."""

import pytest

from crcgeo import dga, model, scalars, tube
from crcgeo.scalars import (
    Var,
    conjugate,
    is_zero_expr,
    normalize,
    to_text,
)


@pytest.fixture(scope="module")
def expanded():
    return dga.build_chart()


# ---------------------------------------------------------------------------
# chart construction


def test_one_chart_per_zeroed_families_is_kept_per_generation():
    flat = dga.build_chart(dga.CURVATURE_COEFFS)
    assert dga.build_chart(set(dga.CURVATURE_COEFFS)) is flat
    assert dga.build_chart() is dga.build_chart(frozenset()) is not flat
    scalars.clear_caches()
    assert dga.build_chart(dga.CURVATURE_COEFFS) is not flat


def test_flat_opaque_chart_has_d_squared_zero():
    report = dga.verify_flat_consistency()
    assert report.overall == "pass"
    names = {c.name for c in report.checks}
    assert "d^2 omega = 0" in names and "d^2 psi = 0" in names


def test_expanded_second_curvature_is_imaginary(expanded):
    phi2 = expanded.curvature["Phi2"]
    real_part = phi2 + phi2.conj()
    assert real_part.certify_zero()


def test_expanded_curvature_contains_half_torsion_term(expanded):
    phi2 = expanded.curvature["Phi2"]
    coeff = phi2.coefficient(("phi1", "omega"))
    assert is_zero_expr(coeff - expanded.var("T21") / 2)


def test_expanded_torsion_words(expanded):
    torsion = expanded.curvature["Theta2"]
    assert is_zero_expr(torsion.coefficient(("theta2", "omega1")) - expanded.var("T21"))
    assert is_zero_expr(torsion.coefficient(("theta2", "omega1c")))


def test_opaque_chart_rules_are_the_model_equations():
    """With zero curvature the chart's d-rules are the model structure
    equations."""
    def fingerprint(chart, name):
        rule = chart.d_rule(name)
        return {rule.word_names(word): c for word, c in rule.terms.items()}

    flat = dga.build_chart(dga.CURVATURE_COEFFS).chart
    reference = model.model_chart()
    for gen in reference.generators:
        assert fingerprint(flat, gen.name) == fingerprint(reference, gen.name), gen.name


def test_dga_and_tube_charts_begin_with_the_model_chart_generators():
    model_gens = model.model_chart().generators
    assert len(model_gens) == 10
    assert dga.build_chart().chart.generators[:10] == model_gens
    homog = tube.tube_from_rho("t1^2/t2", {"t1": (0.5, 1.0), "t2": (0.5, 1.0)})
    assert tube._frame_chart(homog).generators[:10] == model_gens


# ---------------------------------------------------------------------------
# gauge shifts


def test_gauge_shift_suite(expanded):
    report = dga.verify_gauge_shifts(expanded)
    assert report.overall == "pass"
    names = [c.name for c in report.checks]
    assert names[0] == "torsion (2,1bar) shift"
    assert any(n.startswith("identity shift fixes") for n in names)


def test_c_shift_coefficient_value(expanded):
    """The first shift changes the extracted coefficient by exactly -3c."""
    gauge = {"c": expanded.var("c"), "f": expanded.var("f"),
             "g": expanded.var("g"), "r": expanded.var("r"),
             "s": expanded.var("s")}
    tf = dga.tilde_forms(expanded, gauge)
    curv = dga.curvature_from(tf["omega"], tf["omega1"], tf["theta2"],
                              tf["phi1"], tf["phi2"], tf["psi"])
    form = curv["Theta2"].rewrite(dga.tilde_basis_sub(expanded, gauge))
    got = form.coefficient(("theta2", "omega1c"))
    assert is_zero_expr(got + 3 * expanded.var("c"))


def test_first_curvature_shift_is_three_halves_r(expanded):
    zero = normalize(expanded.var("c") * 0)
    gauge = {"c": zero, "f": zero, "g": zero, "r": expanded.var("r"), "s": expanded.var("s")}
    tf = dga.tilde_forms(expanded, gauge)
    curv = dga.curvature_from(tf["omega"], tf["omega1"], tf["theta2"],
                              tf["phi1"], tf["phi2"], tf["psi"])
    form = curv["Phi1"].rewrite(dga.tilde_basis_sub(expanded, gauge))
    got = form.coefficient(("omega1", "omega1c"))
    assert is_zero_expr(got - 3 * expanded.var("r") / 2)


def test_curvature_from_builds_only_the_forms_asked_for(expanded):
    tf = dga.tilde_forms(expanded, {k: expanded.var(k) for k in ("c", "r")})
    forms = [tf[name] for name in dga.COFRAME]
    full = dga.curvature_from(*forms)
    assert list(full) == list(dga.CURVATURES)
    for names in (("Psi",), ("Phi1",), ("Theta2", "Psi"), ("Psi", "Phi2")):
        part = dga.curvature_from(*forms, names=names)
        assert list(part.items()) == [(n, f) for n, f in full.items() if n in names]


@pytest.mark.parametrize("zeros", (frozenset(), dga.LEADING_ZEROS),
                         ids=("general", "leading_zeros"))
def test_rewritten_coefficient_is_the_coefficient_of_the_rewrite(zeros):
    dc = dga.build_chart(zeros)
    gauge = {k: dc.var(k) for k in ("c", "f", "g", "r", "s")}
    subs = {"hat": dga.hat_basis_sub(dc, dc.var("B"), dc.var("Lam")),
            "tilde": dga.tilde_basis_sub(dc, gauge)}
    for label, sub in subs.items():
        for name, form in dc.curvature.items():
            full = form.rewrite(sub)
            for word in set(full.terms) | set(form.terms):
                names = full.word_names(word)
                for order in (names, names[::-1]):
                    assert (form.rewritten_coefficient(sub, order)
                            == full.coefficient(order)), (label, name, order)


# ---------------------------------------------------------------------------
# equivariance


def test_equivariance_suite(expanded):
    report = dga.verify_equivariance(expanded)
    assert report.overall == "pass"


def test_equivariance_trivial_parameters(expanded):
    zero = normalize(expanded.var("B") * 0)
    hat = dga.hatted_curvature(expanded, zero, zero)
    for name in ("Theta2", "Phi1", "Phi2", "Psi"):
        diff = hat[name] - expanded.curvature[name]
        assert diff.certify_zero()


def test_hat_basis_sub_inverts_hat_forms(expanded):
    B, Lam = expanded.var("B"), expanded.var("Lam")
    hats = model.h2_transform(expanded.coframe(), B, Lam)
    sub = dga.hat_basis_sub(expanded, B, Lam)
    for name, image in zip(dga.COFRAME, hats):
        back = image.rewrite(sub)
        diff = back - expanded.gen(name)
        assert diff.certify_zero()


def test_psi_mixing_includes_quadratic_terms(expanded):
    """The last-curvature mixing law carries (B^2/2) torsion and |B|^2
    second-curvature terms; dropping either breaks the identity."""
    B, Lam = expanded.var("B"), expanded.var("Lam")
    Bb = conjugate(B)
    hat = dga.hatted_curvature(expanded, B, Lam)
    cv = expanded.curvature
    correct = (cv["Psi"] + cv["Theta2"].scale(B * B / 2)
               - cv["Theta2"].conj().scale(Bb * Bb / 2)
               + cv["Phi1"].scale(B) - cv["Phi1"].conj().scale(Bb)
               - cv["Phi2"].scale(B * Bb))
    ok = (hat["Psi"] - correct)
    assert ok.certify_zero()
    missing_quadratic = correct - cv["Theta2"].scale(B * B / 2)
    bad = hat["Psi"] - missing_quadratic
    assert not bad.certify_zero()
    missing_modulus = correct + cv["Phi2"].scale(B * Bb)
    bad2 = hat["Psi"] - missing_modulus
    assert not bad2.certify_zero()


# ---------------------------------------------------------------------------
# connection criterion


def test_cartan_criterion_suite():
    report = dga.verify_cartan_criterion()
    assert report.overall == "pass"
    by_name = {c.name: c for c in report.checks}
    necessity = by_name["necessity: first-curvature coefficient"]
    # the machine-derived value disagrees with the transcribed sign of the
    # imaginary-parameter term (recorded, not asserted here)
    assert necessity.details["matches_transcribed_sign_of_imaginary_term"] is False


def test_necessity_phi1_value(expanded):
    got = dga.necessity_phi1_coefficient(expanded)
    assert is_zero_expr(got - dga.necessity_phi1_derived(expanded))


def test_derived_and_transcribed_differ_only_in_the_imaginary_term(expanded):
    # README "Known discrepancy": -Lam/2*T21c against +Lam/2*T21c
    diff = dga.necessity_phi1_derived(expanded) - dga.necessity_phi1_transcribed(expanded)
    assert normalize(diff) is normalize(expanded.var("Lam") * expanded.var("T21c"))


# matrix position (1-based) of each coframe generator in the connection pattern
_PATTERN_POSITIONS = {
    "omega": (1, 4), "omega1": (1, 3), "omega1c": (2, 3),
    "theta2": (1, 2), "theta2c": (2, 1), "phi1": (3, 2), "phi1c": (3, 1),
    "phi2": (1, 1), "phi2c": (2, 2), "psi": (4, 1),
}


def matrix_route_phi1(dc, B, Lam):
    """Transformed first-curvature coefficient at (omega1, omega1c), by
    matrices alone: the curvature matrix K (the curvature forms in the
    connection pattern) goes to h K h^-1 for the unipotent element h, and
    the original coframe is read off h^-1 MC h.  Shares no basis-change
    code with ``model.h2_transform``/``dga.hat_basis_sub``."""
    chart = dc.chart
    g = chart.gen
    h = model.subgroup_element("H2", B=B, Lam=Lam)
    hinv = model._invert_group_element(h)
    cv = dc.curvature
    zero2 = chart.zero(2)
    curvature = model.connection_matrix(chart, zero2, zero2, cv["Theta2"],
                                        cv["Phi1"], cv["Phi2"], cv["Psi"])
    hatted = curvature.conjugated_by(h, hinv)
    mc = model.connection_matrix(chart, g("omega"), g("omega1"), g("theta2"),
                                 g("phi1"), g("phi2"), g("psi"))
    original = mc.conjugated_by(hinv, h)
    sub = {gen.name: g(gen.name) for gen in chart.generators}
    sub.update({name: original.entry(i, j)
                for name, (i, j) in _PATTERN_POSITIONS.items()})
    return hatted.entry(3, 2).rewrite(sub).coefficient(("omega1", "omega1c"))


def test_matrix_route_pins_transcription_to_conjugate_parameter(expanded):
    """The matrix route reproduces the derived coefficient at (B, Lam) and
    the transcribed one at (B, conj(Lam)) = (B, -Lam): the transcription
    differs from the derived value only by reading the imaginary parameter
    at its conjugate."""
    B, Lam = expanded.var("B"), expanded.var("Lam")
    at_lam = matrix_route_phi1(expanded, B, Lam)
    at_conj = matrix_route_phi1(expanded, B, conjugate(Lam))
    assert is_zero_expr(at_lam - dga.necessity_phi1_derived(expanded))
    assert is_zero_expr(at_conj - dga.necessity_phi1_transcribed(expanded))


def test_necessity_psi_value():
    dc2 = dga.build_chart(dga.NECESSITY_STAGE2_ZEROS)
    got = dga.necessity_psi_coefficient(dc2)
    B = dc2.var("B")
    Bb = conjugate(B)
    expected = Bb / 2 * dc2.var("F1_20") + B / 2 * dc2.var("F1_20c")
    assert is_zero_expr(got - normalize(expected))


def test_leading_zero_makes_coefficients_vanish():
    dcl = dga.build_chart(dga.LEADING_ZEROS)
    B, Lam = dcl.var("B"), dcl.var("Lam")
    hat = dga.hatted_curvature(dcl, B, Lam)
    sub = dga.hat_basis_sub(dcl, B, Lam)
    assert is_zero_expr(hat["Phi1"].rewrite(sub).coefficient(("omega1", "omega1c")))
    assert is_zero_expr(hat["Psi"].rewrite(sub).coefficient(("omega1", "omega1c")))


def test_conjugated_necessity_identity(expanded):
    """Conjugating the verified coefficient identity yields the conjugate
    identity (reality bookkeeping)."""
    got = dga.necessity_phi1_coefficient(expanded)
    derived = dga.necessity_phi1_derived(expanded)
    assert is_zero_expr(conjugate(got) - conjugate(derived))


def test_conjugated_mixing_identity_holds_as_form(expanded):
    """Form-level reality spot check: the conjugate of the first-curvature
    mixing law is the mixing law of the conjugated curvature."""
    B, Lam = expanded.var("B"), expanded.var("Lam")
    Bb = conjugate(B)
    hat = dga.hatted_curvature(expanded, B, Lam)
    cv = expanded.curvature
    identity = hat["Phi1"] - (cv["Phi1"] + cv["Theta2"].scale(B)
                              - cv["Phi2"].scale(Bb))
    flipped = identity.conj()
    assert flipped.certify_zero()


def test_expanded_torsion_vanishes_mod_contact_ideal(expanded):
    """After normalization the torsion form lies in the ideal generated by
    the contact form and the first coframe element."""
    reduced = expanded.curvature["Theta2"].reduce_mod(["omega", "omega1"])
    assert reduced.is_zero
