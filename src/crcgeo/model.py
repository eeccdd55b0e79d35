"""The homogeneous model: orthogonal-type matrix group, its Lie algebra,
isotropy subgroups, Maurer-Cartan form and structure equations.

The model group lives on C^5 and preserves a symmetric bilinear form S
and a Hermitian form T (plus the real form J = diag(1,1,1,-1,-1) in the
original coordinates).  The connection matrix is assembled from six
scalar-valued 1-forms on the model chart.  ``model_chart`` declares its
ten generators, its six structure equations and the constant isotropy
parameters (``PARAMETERS``), once per process; ``dga`` and ``tube`` take
the generators from it, and the equations on any six 1-forms through
``structure_terms`` and ``structure_residuals`` (differentials minus those
terms).  ``verify_structure_equations`` certifies d(MC) = MC /\\ MC
entrywise, and ``verify_adjoint_transforms`` certifies the closed-form
component transformations ``h2_transform`` and ``h1_transform`` under both
isotropy subgroup families.  Those two functions take any six 1-forms, so
``dga`` applies the same formulas.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .scalars import (
    ONE,
    RealityViolationError,
    Var,
    VariableTable,
    ZERO,
    certify_zero,
    conjugate,
    is_zero_expr,
    lift,
    normalize,
    to_text,
)
from .forms import Chart, FormExpr, g_imaginary, g_pair, gc_paused
from .matrices import FMatrix, SMatrix
from .report import Report

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# constant matrices


def bilinear_matrices() -> tuple[SMatrix, SMatrix, SMatrix]:
    """The defining symmetric form S, Hermitian form T, and real form J."""
    s = SMatrix([
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ])
    t = SMatrix([
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
    ])
    j = SMatrix([
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, -1, 0],
        [0, 0, 0, 0, -1],
    ])
    return s, t, j


# ---------------------------------------------------------------------------
# Lie algebra elements


def _pattern(w, w1, t2, p1, p2, ps, conj, zero) -> list:
    """The 5x5 Lie-algebra pattern of six components (``COMPONENTS``
    order), scalars or 1-forms: ``conj`` conjugates one component and
    ``zero`` fills the empty entries."""
    w1c, t2c, p1c, p2c = conj(w1), conj(t2), conj(p1), conj(p2)
    return [
        [p2, t2, w1, w, zero],
        [t2c, p2c, w1c, zero, -w],
        [p1c, p1, zero, -w1c, -w1],
        [ps, zero, -p1, -p2c, -t2],
        [zero, -ps, -p1c, -t2c, -p2],
    ]


def algebra_element(alpha, beta, gamma, sigma, delta, rho_alg) -> SMatrix:
    """Generic Lie algebra element; delta and rho_alg must be imaginary."""
    alpha, beta, gamma, sigma = map(lift, (alpha, beta, gamma, sigma))
    delta, rho_alg = lift(delta), lift(rho_alg)
    for name, x in (("delta", delta), ("rho_alg", rho_alg)):
        if not is_zero_expr(conjugate(x) + x):
            raise RealityViolationError(f"{name} must be imaginary-valued")
    return SMatrix(_pattern(delta, gamma, beta, conjugate(sigma), alpha, rho_alg,
                            conjugate, ZERO))


def algebra_params(m: SMatrix) -> dict:
    """Read the six parameters off a matrix in algebra pattern position."""
    return {
        "alpha": m.entry(1, 1),
        "beta": m.entry(1, 2),
        "gamma": m.entry(1, 3),
        "delta": m.entry(1, 4),
        "sigma": m.entry(3, 1),
        "rho_alg": m.entry(4, 1),
    }


def matches_algebra_pattern(m: SMatrix) -> bool:
    """True iff m equals the algebra element rebuilt from its read-off
    parameters (all 25 entries, exact)."""
    p = algebra_params(m)
    rebuilt = algebra_element(p["alpha"], p["beta"], p["gamma"], p["sigma"],
                              p["delta"], p["rho_alg"])
    return (m - rebuilt).is_zero()


def bracket(x: SMatrix, y: SMatrix) -> SMatrix:
    return (x @ y) - (y @ x)


# ---------------------------------------------------------------------------
# isotropy subgroups


def subgroup_element(kind: str, *, A=None, B=None, Lam=None) -> SMatrix:
    """Element of the isotropy subgroup family H1 (diagonal, parameter A
    in C^*) or H2 (unipotent, parameters B in C and Lam imaginary)."""
    if kind == "H1":
        if A is None:
            raise ValueError("H1 needs parameter A")
        A = lift(A)
        if is_zero_expr(A):
            raise ValueError("H1 parameter A must be nonzero")
        Ab = conjugate(A)
        return SMatrix([
            [A, 0, 0, 0, 0],
            [0, Ab, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, Ab ** -1, 0],
            [0, 0, 0, 0, A ** -1],
        ])
    if kind == "H2":
        if B is None or Lam is None:
            raise ValueError("H2 needs parameters B and Lam")
        B, Lam = lift(B), lift(Lam)
        Bb = conjugate(B)
        bb2 = B * Bb * HALF
        return SMatrix([
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [B, Bb, 1, 0, 0],
            [Lam - bb2, Bb * Bb * -HALF, -Bb, 1, 0],
            [B * B * -HALF, -Lam - bb2, -B, 0, 1],
        ])
    raise ValueError(f"unknown subgroup kind {kind!r}")


def group_conditions_hold(c: SMatrix) -> bool:
    """c^t S c = S, c^t T conj(c) = T and det c = 1, all exact."""
    s, t, _ = bilinear_matrices()
    ct = c.transpose()
    return ((ct @ s @ c) - s).is_zero() and ((ct @ t @ c.conj()) - t).is_zero() \
        and is_zero_expr(c.det() - ONE)


# ---------------------------------------------------------------------------
# model chart and Maurer-Cartan form

# the six independent connection components, in matrix-pattern order,
# and the chart generators that are the model's values of them
COMPONENTS = ("w", "w1", "t2", "p1", "p2", "ps")
COFRAME = ("omega", "omega1", "theta2", "phi1", "phi2", "psi")

# the isotropy parameters as (names, kind): constants of every chart that
# extends the model chart
PARAMETERS = ((("B", "Bb"), "pair"), (("Lam",), "imaginary"), (("A", "Ab"), "pair"))


@functools.cache
def model_chart() -> Chart:
    """Model coframe chart: the ten generators, the six structure equations
    (partners' rules by conjugation) and the isotropy parameters B, Lam, A
    as constants, built and d-squared-checked once per process."""
    table = VariableTable()
    for names, kind in PARAMETERS:
        table.declare(kind, *names)
    chart = Chart(table, [g_imaginary("omega"), *g_pair("omega1", "omega1c"),
                          *g_pair("theta2", "theta2c"), *g_pair("phi1", "phi1c"),
                          *g_pair("phi2", "phi2c"), g_imaginary("psi")])
    g = chart.gen
    w = lambda x, y: g(x).wedge(g(y))
    d_rules = {
        "omega": -w("omega1", "omega1c") - g("omega").wedge(g("phi2") + g("phi2c")),
        "omega1": w("theta2", "omega1c") - w("omega1", "phi2") - w("omega", "phi1"),
        "theta2": -g("theta2").wedge(g("phi2") - g("phi2c")) + w("omega1", "phi1"),
        "phi1": -w("theta2", "phi1c") + w("omega1", "psi") + w("phi1", "phi2c"),
        "phi2": w("theta2", "theta2c") + w("omega1", "phi1c") + w("omega", "psi"),
        "psi": -w("phi1", "phi1c") + g("psi").wedge(g("phi2") + g("phi2c")),
    }
    return chart.install_rules(
        d_rules, {n: chart.zero(1) for names, _ in PARAMETERS for n in names})


def with_conjugates(forms: dict) -> dict:
    """``forms``, keyed by coframe generator names, plus the conjugate of
    each under its pair partner's name."""
    out = dict(forms)
    for gen in model_chart().generators:
        if gen.partner in forms:
            out[gen.name] = forms[gen.partner].conj()
    return out


def structure_terms(forms: dict, names) -> dict:
    """Right-hand sides of the model structure equations for ``names``,
    evaluated on the six 1-forms ``forms`` (keyed by ``COFRAME``): each
    generator of the model chart becomes its form, a pair partner the
    conjugate."""
    sub = with_conjugates(forms)
    return {name: model_chart().d_rule(name).rewrite(sub) for name in names}


def structure_residuals(forms: dict, differentials: dict) -> dict:
    """Each entry of ``differentials``, keyed by a coframe generator, minus
    that generator's structure terms on the six 1-forms ``forms``."""
    terms = structure_terms(forms, differentials)
    return {name: dform - terms[name] for name, dform in differentials.items()}


def coframe(chart: Chart) -> tuple[FormExpr, ...]:
    """The six coframe generators of ``chart``, in the order of ``COMPONENTS``."""
    return tuple(chart.gen(name) for name in COFRAME)


def connection_matrix(chart: Chart, w: FormExpr, w1: FormExpr, t2: FormExpr,
                      p1: FormExpr, p2: FormExpr, ps: FormExpr) -> FMatrix:
    """Arrange six 1-forms in the Lie-algebra-valued matrix pattern."""
    return FMatrix(chart, _pattern(w, w1, t2, p1, p2, ps, FormExpr.conj, chart.zero(1)))


def maurer_cartan(chart: Chart | None = None) -> FMatrix:
    chart = chart or model_chart()
    return connection_matrix(chart, *coframe(chart))


def component_positions() -> dict[str, tuple[int, int]]:
    """Where each independent component sits in the matrix (1-based)."""
    return {"w": (1, 4), "w1": (1, 3), "t2": (1, 2),
            "p2": (1, 1), "p1": (3, 2), "ps": (4, 1)}


# ---------------------------------------------------------------------------
# verification suites


def check_identity(report: Report, name: str, diff) -> None:
    """Add the check that ``diff``, a form or a scalar, is certified zero;
    a failure carries the residual as its one detail."""
    form = isinstance(diff, FormExpr)
    if diff.certify_zero() if form else certify_zero(diff):
        report.add(name, True)
    else:
        report.add(name, False,
                   {"residual": repr(diff) if form else to_text(normalize(diff))})


@gc_paused
def verify_structure_equations(chart: Chart | None = None) -> Report:
    """d(MC) - MC /\\ MC entrywise; all 25 entries must vanish exactly."""
    report = Report("model structure equations")
    chart = chart or model_chart()
    mc = maurer_cartan(chart)
    dmc = mc.d()
    sq = mc.wedge_square()
    for i in range(5):
        for j in range(5):
            check_identity(report, f"entry({i + 1},{j + 1})", dmc[i][j] - sq[i][j])
    return report


def h2_transform(forms, B, Lam) -> tuple[FormExpr, ...]:
    """Components of the connection conjugated by the unipotent element
    H2(B, Lam), from the six components ``forms`` (``COMPONENTS`` order)."""
    w, w1, t2, p1, p2, ps = forms
    B, Lam = lift(B), lift(Lam)
    Bb = conjugate(B)
    bb2 = B * Bb * HALF
    w1c, t2c, p1c, p2c = w1.conj(), t2.conj(), p1.conj(), p2.conj()
    combine = w.chart.combine
    return (
        w,
        combine(((w1, None), (w, Bb))),
        combine(((t2, None), (w1, -Bb), (w, Bb * Bb * -HALF))),
        combine(((p1, None), (w1, -(Lam + bb2)), (w1c, Bb * Bb * -HALF),
                 (t2, B), (w, -(Lam * Bb)), (p2c, Bb))),
        combine(((p2, None), (w1, -B), (w, -(Lam + bb2)))),
        combine(((ps, None), (w1, -(Lam * B)), (w1c, -(Lam * Bb)),
                 (t2, B * B * HALF), (t2c, Bb * Bb * -HALF), (w, -(Lam * Lam)),
                 (p1, B), (p1c, -Bb), (p2, Lam - bb2), (p2c, Lam + bb2))),
    )


def h1_transform(forms, A) -> tuple[FormExpr, ...]:
    """Components of the connection conjugated by the diagonal element
    H1(A), from the six components ``forms`` (``COMPONENTS`` order)."""
    w, w1, t2, p1, p2, ps = forms
    A = lift(A)
    Ab = conjugate(A)
    return (w.scale(A * Ab), w1.scale(A), t2.scale(A / Ab), p1.scale(1 / Ab),
            p2, ps.scale(1 / (A * Ab)))


def adjoint_components(chart: Chart, h: SMatrix) -> dict[str, FormExpr]:
    """Components of h (MC) h^-1 read off the matrix pattern, after
    checking the full 25-entry pattern consistency."""
    mc = maurer_cartan(chart)
    hinv = _invert_group_element(h)
    conj = mc.conjugated_by(h, hinv)
    comps = {name: conj.entry(i, j) for name, (i, j) in component_positions().items()}
    pattern = connection_matrix(chart, *(comps[name] for name in COMPONENTS))
    for i in range(1, 6):
        for j in range(1, 6):
            if not (conj.entry(i, j) - pattern.entry(i, j)).certify_zero():
                raise ValueError(f"conjugated connection broke pattern at ({i},{j})")
    return comps


def _invert_group_element(h: SMatrix) -> SMatrix:
    """Inverse via the bilinear form: h^-1 = S h^t S for group elements."""
    s, _, _ = bilinear_matrices()
    hinv = s @ h.transpose() @ s
    if not ((h @ hinv) - SMatrix.identity()).is_zero():
        raise ValueError("matrix is not a group element")
    return hinv


@gc_paused
def verify_adjoint_transforms(chart: Chart | None = None,
                              h2_formulas: dict | None = None,
                              h1_formulas: dict | None = None) -> Report:
    """Conjugation by generic subgroup elements matches the printed
    component formulas exactly, for both subgroup families."""
    report = Report("adjoint transformation formulas")
    chart = chart or model_chart()
    table = chart.table
    B, Lam, A = Var(table["B"]), Var(table["Lam"]), Var(table["A"])

    forms = coframe(chart)
    families = (
        ("unipotent", subgroup_element("H2", B=B, Lam=Lam),
         h2_formulas or dict(zip(COMPONENTS, h2_transform(forms, B, Lam)))),
        ("diagonal", subgroup_element("H1", A=A),
         h1_formulas or dict(zip(COMPONENTS, h1_transform(forms, A)))),
    )
    for family, h, formulas in families:
        comps = adjoint_components(chart, h)
        for name in COMPONENTS:
            check_identity(report, f"{family}:{name}", comps[name] - formulas[name])
    return report
