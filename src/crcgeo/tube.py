"""Tube-hypersurface curvature pipeline.

A tube hypersurface z3 + conj(z3) = rho(z1 + conj(z1), z2 + conj(z2)) over
a Monge-Ampere solution rho(t1, t2) is uniformly Levi degenerate of rank 1;
it is 2-nondegenerate exactly when S = (rho12/rho11)_1 vanishes nowhere.
This module ingests rho, validates those hypotheses, builds the adapted
coframe on the ten-dimensional frame bundle along the explicit chain
(base forms -> scaled contact form -> fiber-parametrized coframe), and
computes the torsion coefficients through the first normalization,
reporting the flatness/connection obstruction carried by the final
normalized coefficient on the reference section (u=1, a=1, b=0, lam=0).

The coframe and the torsion depend on rho only through its derivative
cache, so ``analyze`` proves them once, on ``jet_model()``: a model over
free jets r_k, m_k of a Monge-Ampere solution, where every identity is a
Laurent polynomial in variables and is decided by normal form.  The four
printed coefficients are then specialized to rho's own cache
(``_specialization``); the final zero verdict and its samples are taken
over rho's box.  The same ``build_coframe`` and ``curvature_coefficients``
run on a rho model directly, the per-rho route that tests cross-check.
The jet model is kept per generation of the kernel's memos (``kept``);
each model holds what its coframe is built from (the ambient chart and
forms, the frame chart, the base substitution), so it leaves with the
model; every identity of the proof is checked again on each call.
One derivation, ``_derive``, gives d1 and d2 to the derivative cache, the
direct scalar route and the charts' scalar rules: the plain derivative in
t1 or t2 for rho, plus the Monge-Ampere jet rules over jets.

The frame chart's coframe and structure equations are those of
``model.model_chart()``: the two coframe identities and the torsion form
are ``model.structure_residuals`` of differentials.  All heavy identities
are verified as exterior-algebra identities after the basis rewriting.
Every zero question goes through one method, ``TubeModel.vanishes``, which hands a scalar to the kernel's
``is_identically_zero`` and a form to ``FormExpr.vanishes`` (certificate
first, sampling on the model's box at the run's seed otherwise) and turns
an undecided test into ``INCONCLUSIVE``.  rho11 > 0 is checked, and the final
coefficient printed, at points of the kernel's one sampler, ``sample_point``.
The Levi rank is decided exactly, from the Monge-Ampere residual's zero
certificate (``TubeModel.levi_rank``).
The defining function is read once, by ``_rho_over_base``, which refuses
variables other than t1, t2 and a function that is not real.
``analyze`` stops one way: a ``TubeHypothesisError`` or a
``CoframeVerificationError`` (a failed identity of the coframe or of the
curvature) carries the report of the checks before it, its own failed last.
"""

from __future__ import annotations

import random
from functools import partial
from fractions import Fraction
from typing import NamedTuple

from .parsing import parse
from .scalars import (
    DomainEvalError,
    Expr,
    ExprError,
    MINUS_ONE,
    RealityViolationError,
    Var,
    VariableTable,
    ZERO,
    ZeroTestInconclusiveError,
    certify_zero,
    conjugate,
    differentiate,
    evaluate,
    free_variables,
    is_identically_zero,
    is_zero_expr,
    kept,
    lift,
    normalize,
    sample_point,
    sample_values,
    substitute,
    to_text,
)
from .forms import Chart, FormExpr, g_imaginary, g_pair, g_real, gc_paused
from .model import COFRAME, model_chart, structure_residuals
from .report import FAIL, INCONCLUSIVE, Report

HALF = Fraction(1, 2)

# fiber sampling policy for zero tests: comfortably away from u=0 and with
# the unit-modulus coordinate sampled by angle
FIBER_BOX = {"u": (0.6, 1.7), "a": (-3.0, 3.0), "b": (-0.45, 0.45),
             "lam": (-0.8, 0.8)}

GAMMA0 = {"u": 1, "a": 1, "b": 0, "lam": 0}


class TubeHypothesisError(ExprError):
    """A failed tube hypothesis.  Raising it records the failure as the
    last check of ``report``, which holds the hypotheses checked so far."""

    status = FAIL

    def __init__(self, hypothesis: str, message: str, report: Report):
        super().__init__(f"{hypothesis}: {message}")
        self.hypothesis = hypothesis
        self.report = report
        report.add(f"hypothesis:{hypothesis}", self.status, {"reason": str(self)})


class TubeHypothesisUndecided(TubeHypothesisError):
    """A tube hypothesis the sampled tests cannot decide: inconclusive."""
    status = INCONCLUSIVE


class CoframeVerificationError(ExprError):
    """A failed identity of the coframe or of the curvature.  Raising it
    records the failed ``coframe construction`` check as the last of
    ``report``, which holds the checks made before it."""

    def __init__(self, identity: str, detail: str, report: Report):
        super().__init__(f"coframe identity failed: {identity}" +
                         (f" ({detail})" if detail else ""))
        self.report = report
        report.add("coframe construction", FAIL, {"identity": identity})


def _tube_table() -> VariableTable:
    table = VariableTable()
    table.real("t1", "t2")
    table.positive("u")
    table.unit_modulus("a")
    table.pair("b", "bb")
    table.imaginary("lam")
    return table


class TubeModel:
    """A defining function's derivative cache and checked hypotheses, or
    (``jets`` not empty) the jet model of ``jet_model``."""

    def __init__(self, table: VariableTable, box: dict, seed: int = 0,
                 derivs: dict | None = None, hypotheses: Report | None = None,
                 jets: dict | None = None):
        self.table = table
        self.box = box
        self.seed = seed
        self.derivs = {} if derivs is None else derivs
        self.hypotheses = Report("tube hypotheses") if hypotheses is None else hypotheses
        self.jets = {} if jets is None else jets  # see ``_derive``; empty for a rho
        self._coframe_inputs = None

    def d(self, key: str) -> Expr:
        return self.derivs[key]

    def coframe_inputs(self) -> tuple:
        """The ambient chart and forms, the frame chart and the base
        substitution ``build_coframe`` starts from, built once per model and
        dropped with it: the jet model's at ``clear_caches()``."""
        if self._coframe_inputs is None:
            ambient, frame = _ambient_chart(self), _frame_chart(self)
            self._coframe_inputs = (ambient, _ambient_forms(self, ambient),
                                    frame, _base_substitution(self, frame))
        return self._coframe_inputs

    def derive(self, e: Expr, axis: int) -> Expr:
        return _derive(e, axis, self.table, self.jets)

    @property
    def zero_test_box(self) -> dict:
        merged = dict(FIBER_BOX)
        merged.update(self.box)
        return merged

    def vanishes(self, x: Expr | FormExpr):
        """The sampled zero verdict on ``zero_test_box`` at the model's seed
        for a scalar or a form: True, False, or ``INCONCLUSIVE`` when the
        kernel's zero test cannot decide."""
        test = x.vanishes if isinstance(x, FormExpr) else partial(is_identically_zero, x)
        try:
            return test(self.zero_test_box, seed=self.seed)
        except ZeroTestInconclusiveError:
            return INCONCLUSIVE

    def levi_rank(self) -> int | None:
        """1 if the Levi rank is proved to be 1, else None: rho's Hessian,
        the Levi matrix up to a positive scale, has the Monge-Ampere
        residual as determinant, so a certified zero residual and rho11
        not normalizing to zero prove rank 1."""
        if certify_zero(ma_residual(self.derivs)) and normalize(self.d("rho11")) != ZERO:
            return 1
        return None


def _derive(e: Expr, axis: int, table: VariableTable, jets: dict) -> Expr:
    """The derivation d1 (``axis`` 1) or d2 (``axis`` 2): the derivative in
    t1 or t2, plus the chain rule through each jet variable, whose
    ``jets`` entry holds its own (d1, d2), or None past the jet order."""
    out = differentiate(e, table[f"t{axis}"])
    for v in sorted(free_variables(e) & jets.keys(), key=lambda v: v.name):
        if jets[v] is None:
            raise ExprError(f"d{axis} of jet {v.name} is past the jet order")
        out = out + differentiate(e, v) * jets[v][axis - 1]
    return normalize(out)


def _derivative_cache(rho: Expr | None, table: VariableTable,
                      jets: dict | None = None) -> dict:
    """rho's derivatives through ``_derive``; with ``rho`` None, those of
    the Monge-Ampere solution whose Hessian is r0*[[1, m0], [m0, m0^2]]."""
    jets = jets or {}
    d1, d2 = (partial(_derive, axis=k, table=table, jets=jets) for k in (1, 2))
    if rho is None:
        r0, m0 = Var(table["r0"]), Var(table["m0"])
        derivs = {"rho11": r0, "rho12": normalize(m0 * r0),
                  "rho22": normalize(m0 ** 2 * r0)}
    else:
        derivs = {"rho": normalize(rho)}
        derivs["rho1"] = d1(derivs["rho"])
        derivs["rho2"] = d2(derivs["rho"])
        derivs["rho11"] = d1(derivs["rho1"])
        derivs["rho12"] = d2(derivs["rho1"])
        derivs["rho22"] = d2(derivs["rho2"])
    derivs["rho111"] = d1(derivs["rho11"])
    derivs["S"] = d1(derivs["rho12"] / derivs["rho11"])
    derivs["S1"] = d1(derivs["S"])
    return derivs


def ma_residual(derivs: dict) -> Expr:
    return normalize(derivs["rho11"] * derivs["rho22"] - derivs["rho12"] ** 2)


def tube_from_rho(rho, box: dict, seed: int = 0) -> TubeModel:
    """Build and validate a tube model from a defining-function expression.

    ``rho`` is an expression string over t1, t2 (or an already-parsed
    expression over a compatible table).  Raises ``TubeHypothesisError``
    naming the failed hypothesis (``TubeHypothesisUndecided`` if undecided):
    the Monge-Ampere equation, positivity of rho11, or 2-nondegeneracy (S
    not identically zero).  Each hypothesis is a check in the model's
    ``hypotheses`` report, or in the error's when it fails; the first one's
    time includes parsing and the derivative cache.
    """
    hypotheses = Report("tube hypotheses")
    table = _tube_table()
    rho_expr = _rho_over_base(rho)
    try:
        derivs = _derivative_cache(rho_expr, table)
    except DomainEvalError:
        # S = (rho12/rho11)_1 divides by rho11
        t1 = table["t1"]
        if differentiate(differentiate(rho_expr, t1), t1) != ZERO:
            raise
        raise TubeHypothesisError("positivity", "rho11 is identically zero",
                                  hypotheses)
    model = TubeModel(table, dict(box), seed=seed, derivs=derivs, hypotheses=hypotheses)

    _zero_hypothesis(model, "monge_ampere", ma_residual(model.derivs), True,
                     "rho11*rho22 - rho12^2 does not vanish on the box")
    _check_positivity(model)
    hypotheses.add("hypothesis:positivity", True)
    _zero_hypothesis(model, "twonondegenerate", model.d("S"), False,
                     "S = (rho12/rho11)_1 is identically zero")
    return model


def _zero_hypothesis(model: TubeModel, hypothesis: str, x: Expr, want: bool,
                     refuted: str) -> None:
    """Check that the zero verdict on ``x`` is ``want``; ``refuted`` is the
    reason when it is not."""
    verdict = model.vanishes(x)
    if verdict is INCONCLUSIVE:
        raise TubeHypothesisUndecided(hypothesis, "inconclusive: the sampled zero "
                                      "test cannot decide on the box", model.hypotheses)
    if verdict is not want:
        raise TubeHypothesisError(hypothesis, refuted, model.hypotheses)
    model.hypotheses.add(f"hypothesis:{hypothesis}", True)


def _rho_over_base(rho) -> Expr:
    """The defining function as a real expression over the real t1, t2: text
    is parsed over those two, and any other variable, or an expression that
    is not its own conjugate, is refused."""
    base = VariableTable()
    base.real("t1", "t2")
    e = parse(rho, base) if isinstance(rho, str) else lift(rho)
    allowed = set(base.variables())
    for name in sorted(v.name for v in free_variables(e) if v not in allowed):
        raise ExprError(f"defining function uses unexpected variable {name}")
    if not is_zero_expr(conjugate(e) - e):
        raise RealityViolationError("defining function is not real")
    return e


def _check_positivity(model: TubeModel) -> None:
    """rho11 > 0 at the 16 points ``sample_values`` draws on the box."""
    found = 0
    for point, val, scale in sample_values(model.d("rho11"), model.zero_test_box,
                                           16, model.seed + 5):
        if not scale:
            continue  # every term is 0 there: the point tells nothing
        found += 1
        if abs(val.imag) > 1e-9 * (1 + abs(val)) or val.real <= 0:
            raise TubeHypothesisError(
                "positivity", f"rho11 = {val} at {point} is not positive",
                model.hypotheses)
    if found == 0:
        raise TubeHypothesisUndecided("positivity", "no admissible sample points",
                                      model.hypotheses)


# ---------------------------------------------------------------------------
# the jet model: one proof for every Monge-Ampere solution


JET_ORDER = 3   # the least the proof needs: jets r0..r3, m0..m3; rules to r2, m2
JET_INTERVAL = (0.5, 1.5)


@kept
def jet_model() -> TubeModel:
    """The tube over free jets of a Monge-Ampere solution: r_k stands for
    d1^k rho11 (r0 > 0) and m_k for d1^k (rho12/rho11).  d1 shifts a jet
    by one; d2 = m0*d1 on functions of grad rho, constant on the rulings,
    so d2 m0 = m0*m1, d2 r0 = m1*r0 + m0*r1 and d2 X_k = d1(d2 X_{k-1}).
    Every jet is sampled on ``JET_INTERVAL``."""
    table = _tube_table()
    r = [Var(v) for v in table.positive("r0")
         + table.real(*(f"r{k}" for k in range(1, JET_ORDER + 1)))]
    m = [Var(v) for v in table.real(*(f"m{k}" for k in range(JET_ORDER + 1)))]
    jets = {seq[-1].var: None for seq in (r, m)}
    jets |= {x.var: [shift, None] for seq in (r, m) for x, shift in zip(seq, seq[1:])}
    jets[r[0].var][1] = normalize(m[1] * r[0] + m[0] * r[1])
    jets[m[0].var][1] = normalize(m[0] * m[1])
    for k in range(1, JET_ORDER):
        for seq in (r, m):
            jets[seq[k].var][1] = _derive(jets[seq[k - 1].var][1], 1, table, jets)
    box = {x.var.name: JET_INTERVAL for x in r + m}
    return TubeModel(table, box, derivs=_derivative_cache(None, table, jets), jets=jets)


def _specialization(source: TubeModel, model: TubeModel) -> dict:
    """Bindings of the jets the universal coefficients use to ``model``'s
    derivative cache, valid where its hypotheses hold; none when
    ``source``, the model they were extracted on, is a rho's."""
    if not source.jets:
        return {}
    t, d = source.table, model.d
    return {t["r0"]: d("rho11"), t["r1"]: d("rho111"),
            t["m0"]: normalize(d("rho12") / d("rho11")), t["m1"]: d("S"), t["m2"]: d("S1")}


# ---------------------------------------------------------------------------
# stock defining functions


def paper_example_rho() -> str:
    """The explicit closed-form Monge-Ampere solution used end to end."""
    return "((1-12*t1*t2)^(3/2)+18*t1*t2-1)/(108*t2^2)"


def ma_profile_solution(g_text: str) -> Expr:
    """Degree-1-homogeneous Monge-Ampere solution t2 * g(t1/t2).

    Homogeneity makes the residual vanish identically; ``tube_from_rho``
    checks that as ``hypothesis:monge_ampere`` on the box it is given.
    """
    gtab = VariableTable()
    s_var, = gtab.real("s")
    g_expr = parse(g_text, gtab)
    table = _tube_table()
    t1, t2 = Var(table["t1"]), Var(table["t2"])
    return normalize(t2 * substitute(g_expr, {s_var: t1 / t2}))


# ---------------------------------------------------------------------------
# the adapted coframe


class TubeCoframe(NamedTuple):
    model: TubeModel
    ambient: Chart            # base-and-fiber differentials
    frame: Chart              # adapted coframe chart for extraction
    forms_ambient: dict       # the six named forms as ambient expressions
    frame_sub: dict           # ambient generator -> frame 1-form
    sigma: FormExpr           # fiber correction 1-form, vanishes at b=0
    checks: Report            # the coframe: checks, each timed

    def rewrite(self, form: FormExpr) -> FormExpr:
        return form.rewrite(self.frame_sub)

    def gen(self, name: str) -> FormExpr:
        return self.frame.gen(name)


def _ambient_chart(model: TubeModel) -> Chart:
    table = model.table
    chart = Chart(table, [g_imaginary("mu"), *g_pair("dz1", "dz1c"), *g_pair("dz2", "dz2c"),
                          g_real("du"), g_imaginary("alpha"), *g_pair("db", "dbc"),
                          g_imaginary("dlam")])
    g = chart.gen
    dt1 = g("dz1") + g("dz1c")
    dt2 = g("dz2") + g("dz2c")
    drho1 = chart.combine(((dt1, model.d("rho11")), (dt2, model.d("rho12"))))
    drho2 = chart.combine(((dt1, model.d("rho12")), (dt2, model.d("rho22"))))
    dmu = drho1.wedge(g("dz1")) + drho2.wedge(g("dz2"))
    zero2 = chart.zero(2)
    a = Var(table["a"])
    d_rules = {"mu": dmu, "dz1": zero2, "dz1c": zero2, "dz2": zero2,
               "dz2c": zero2, "du": zero2, "alpha": zero2,
               "db": zero2, "dbc": zero2, "dlam": zero2}
    # dX = d1X dt1 + d2X dt2 for t1, t2 and each jet below the jet order
    scalar_rules = {
        v.name: chart.combine(((dt1, model.derive(Var(v), 1)), (dt2, model.derive(Var(v), 2))))
        for v in (table["t1"], table["t2"], *(v for v, dv in model.jets.items() if dv))}
    scalar_rules |= {"u": g("du"), "a": g("alpha").scale(a), "b": g("db"),
                     "bb": g("dbc"), "lam": g("dlam")}
    chart.install_rules(d_rules, scalar_rules)
    return chart


def _coframe_scalars(model: TubeModel) -> tuple:
    """The scalars the coframe and its inverse are written in:
    u, a, conj(a), b, bb, lam, rho11, rho12, rho111, S and
    x = (u*rho11^3)^(-1/2)."""
    table = model.table
    u, a = Var(table["u"]), Var(table["a"])
    rho11 = model.d("rho11")
    return (u, a, conjugate(a), Var(table["b"]), Var(table["bb"]),
            Var(table["lam"]), rho11, model.d("rho12"), model.d("rho111"),
            model.d("S"), (u * rho11 ** 3) ** Fraction(-1, 2))


def _ambient_forms(model: TubeModel, chart: Chart) -> dict:
    g, combine = chart.gen, chart.combine
    u, a, ab, b, bb, lam, rho11, rho12, rho111, s_fn, x = _coframe_scalars(model)

    omega = g("mu").scale(u)
    eta1 = combine(((g("dz1"), rho11), (g("dz2"), rho12)))
    nu = eta1.scale((u / rho11) ** HALF)
    omega1 = combine(((nu, a), (omega, bb)))
    theta2 = g("dz2").scale(-(a ** 2) * s_fn)
    phi2 = combine(((g("alpha"), None), (g("du"), 1 / (2 * u)),
                    (theta2, ab ** 2 * HALF), (theta2.conj(), a ** 2 * -HALF),
                    (omega1, -(2 * b + ab * rho111 * x * HALF)),
                    (omega1.conj(), bb + a * rho111 * x * HALF),
                    (omega, lam * HALF)))
    return {"omega": omega, "omega1": omega1, "theta2": theta2, "phi2": phi2,
            "eta1": eta1, "eta2": g("dz2"), "nu": nu, "mu": g("mu")}


def _frame_chart(model: TubeModel) -> Chart:
    """The model chart's generators (psi inert) and dlam, db, dbc."""
    return Chart(model.table, [*model_chart().generators,
                               g_imaginary("dlam"), *g_pair("db", "dbc")])


def _base_substitution(model: TubeModel, frame: Chart) -> dict:
    """Images of the ambient generators in the adapted coframe, leaving the
    fiber differentials db, dbc, dlam in place."""
    g, combine = frame.gen, frame.combine
    u, a, ab, b, bb, lam, rho11, rho12, rho111, s_fn, x = _coframe_scalars(model)

    omega, omega1, omega1c = g("omega"), g("omega1"), g("omega1c")
    theta2, theta2c = g("theta2"), g("theta2c")
    phi2, phi2c = g("phi2"), g("phi2c")

    dz2 = theta2.scale(-(ab ** 2) / s_fn)
    k = ab * (u * rho11) ** Fraction(-1, 2)
    dz1 = combine(((omega1, k), (omega, -bb * k),
                   (theta2, rho12 * ab ** 2 / (s_fn * rho11))))
    du = combine(((omega1, b * u), (omega1c, bb * u), (omega, -lam * u),
                  (phi2, u), (phi2c, u)))
    alpha = combine(((theta2, -(ab ** 2) * HALF), (theta2c, a ** 2 * HALF),
                     (omega1, 3 * b * HALF + ab * rho111 * x * HALF),
                     (omega1c, -(3 * bb * HALF + a * rho111 * x * HALF)),
                     (phi2, HALF), (phi2c, -HALF)))
    return {
        "mu": omega.scale(1 / u),
        "dz1": dz1, "dz1c": dz1.conj(),
        "dz2": dz2, "dz2c": dz2.conj(),
        "du": du, "alpha": alpha,
        "db": g("db"), "dbc": g("dbc"), "dlam": g("dlam"),
    }


def build_coframe(model: TubeModel) -> TubeCoframe:
    """Construct and verify the adapted coframe.

    Verifies the substitution table inverts the definitions, the two
    structure identities of the coframe, and that the fiber correction
    form extracted from the second identity vanishes at b=0.  An identity
    the zero test cannot decide is recorded as inconclusive, not failed.
    The charts, the ambient forms and the substitution are built once per
    model (``TubeModel.coframe_inputs``); every check runs on each call, its time
    including the forms it derives to verify.
    """
    checks = Report("tube coframe")
    ambient, forms, frame, sub = model.coframe_inputs()

    def record(name: str, ok, detail: str = "") -> None:
        checks.add(f"coframe:{name}", ok)
        if ok is False:
            raise CoframeVerificationError(name, detail, checks)

    # substitution table inverts the coframe definitions
    for name in ("omega", "omega1", "theta2", "phi2"):
        image = forms[name].rewrite(sub)
        record(f"substitution inverts {name}", model.vanishes(image - frame.gen(name)))

    lam = Var(model.table["lam"])
    g = frame.gen

    # the model structure equations of omega and omega1, with the fiber
    # differential dbc + (lam/2) omega1 for phi1
    phi1 = frame.combine(((g("dbc"), None), (g("omega1"), lam * HALF)))
    first, residue = structure_residuals(
        {n: g(n) for n in COFRAME} | {"phi1": phi1},
        {n: forms[n].d().rewrite(sub) for n in ("omega", "omega1")}).values()
    record("contact form structure identity", model.vanishes(first))

    # second structure identity, solved for the fiber correction form
    record("coframe structure identity holds modulo the contact form",
           model.vanishes(residue.reduce_mod(["omega"])))
    pairs = [(frame.zero(1), None)]  # a 1-form also where no coefficient is left
    for gen in frame.generators:
        if gen.name == "omega":
            continue
        coeff = residue.coefficient(("omega", gen.name))
        if coeff != ZERO:
            pairs.append((g(gen.name), -coeff))
    sigma = frame.combine(pairs)
    record("fiber correction reconstructs the identity",
           model.vanishes(residue + g("omega").wedge(sigma)))
    stray = sigma.generators_present() & {"db", "dbc", "dlam"}
    record("fiber correction uses only coframe covectors", not stray,
           f"unexpected covectors {sorted(stray)}")
    sigma_at_b0 = sigma.substitute_scalars(
        {model.table["b"]: ZERO, model.table["bb"]: ZERO})
    record("fiber correction vanishes at b=0", model.vanishes(sigma_at_b0))

    # final substitution: express the fiber differentials through the
    # connection forms (db_conj = phi1 - (lam/2) omega1 - sigma)
    full_sub = dict(sub)
    full_sub["dbc"] = frame.combine(((g("phi1"), None), (g("omega1"), lam * -HALF),
                                     (sigma, MINUS_ONE)))
    full_sub["db"] = full_sub["dbc"].conj()

    return TubeCoframe(model, ambient, frame, forms, full_sub, sigma, checks)


# ---------------------------------------------------------------------------
# curvature coefficients


# the flatness verdict's details for each zero-test state of the final
# coefficient; each conclusion says what its state claims
_READINGS = {
    "nonzero": {"cartan_obstruction": True, "flatness": "not_flat",
                "conclusion": "not flat; not locally equivalent to the model; "
                              "the parallelism is not a Cartan connection"},
    "zero": {"cartan_obstruction": False, "flatness": "necessary_condition_passed",
             "conclusion": "necessary condition passed; flatness NOT concluded "
                           "(remaining curvature components not computed)"},
    "inconclusive": {"cartan_obstruction": None, "flatness": "inconclusive",
                     "conclusion": "inconclusive zero test; no claim made"},
}


class CurvatureVerdict(NamedTuple):
    theta2_2bar1: Expr
    c: Expr
    theta2_21_gamma0: Expr
    theta2_21_final: Expr
    is_final_zero: str          # a key of _READINGS

    @property
    def cartan_obstruction(self) -> bool | None:
        return _READINGS[self.is_final_zero]["cartan_obstruction"]

    @property
    def flatness(self) -> str:
        return _READINGS[self.is_final_zero]["flatness"]


def gamma0_bindings(table: VariableTable) -> dict:
    return {table[name]: lift(value) for name, value in GAMMA0.items()} | {table["bb"]: ZERO}


def restrict_to_section(e: Expr, table: VariableTable) -> Expr:
    return substitute(e, gamma0_bindings(table))


def torsion_form(cf: TubeCoframe) -> FormExpr:
    """The torsion 2-form of the adapted coframe, in coframe coordinates:
    d(theta2) minus its model structure terms."""
    dtheta2 = cf.rewrite(cf.forms_ambient["theta2"].d())
    return structure_residuals({n: cf.gen(n) for n in COFRAME}, {"theta2": dtheta2})["theta2"]


def expected_theta2_2bar1(model: TubeModel) -> Expr:
    """Closed form of the torsion coefficient at theta2^omega1c with
    general fiber coordinates."""
    t = model.table
    u, a, bb = Var(t["u"]), Var(t["a"]), Var(t["bb"])
    rho11, rho111 = model.d("rho11"), model.d("rho111")
    s_fn, s1 = model.d("S"), model.d("S1")
    return normalize(-a * s1 * (u * rho11) ** Fraction(-1, 2) / s_fn
                     + 3 * bb + a * rho111 * (u * rho11 ** 3) ** Fraction(-1, 2))


def expected_theta2_21_gamma0(model: TubeModel) -> Expr:
    """Closed form of the torsion coefficient at theta2^omega1 on the
    reference section."""
    rho11, rho111 = model.d("rho11"), model.d("rho111")
    s_fn, s1 = model.d("S"), model.d("S1")
    return normalize(-s1 * rho11 ** Fraction(-1, 2) / s_fn
                     - rho111 * rho11 ** Fraction(-3, 2))


def direct_final_coefficient(model: TubeModel) -> Expr:
    """Independent scalar-calculus route to the final normalized torsion
    coefficient on the reference section (no exterior algebra involved)."""
    rho11, rho12 = model.d("rho11"), model.d("rho12")
    rho111 = model.d("rho111")
    s_fn, s1 = model.d("S"), model.d("S1")
    a1 = normalize(s1 * rho11 ** Fraction(-1, 2) / s_fn)
    a2 = normalize(rho111 * rho11 ** Fraction(-3, 2))
    ratio = rho12 / rho11
    bracket1 = ratio * model.derive(a1, 1) - model.derive(a1, 2)
    bracket2 = ratio * model.derive(a2, 1) - model.derive(a2, 2)
    return normalize((bracket1 - bracket2) / (3 * s_fn)
                     - a1 * Fraction(11, 6) - a2 * Fraction(1, 6))


def paper_example_final_closed_form(model: TubeModel) -> Expr:
    """The printed closed-form value for the explicit example."""
    t1, t2 = Var(model.table["t1"]), Var(model.table["t2"])
    w = (1 - 12 * t1 * t2)
    return normalize(-12 * t2 * w ** Fraction(-3, 4) / (1 - w ** HALF))


def curvature_coefficients(cf: TubeCoframe,
                           model: TubeModel | None = None) -> CurvatureVerdict:
    """Extract the two torsion coefficients and the final normalized
    coefficient on the reference section from ``cf``, and give them over
    ``model`` (by default ``cf.model``) with the final one's tri-state zero
    verdict there.  When ``cf`` is the jet proof, each coefficient is
    specialized to ``model``'s derivative cache (``_specialization``)."""
    model = model or cf.model
    table = cf.model.table
    g = cf.gen
    torsion = torsion_form(cf)

    theta2_2bar1 = torsion.coefficient(("theta2", "omega1c"))
    c = normalize(theta2_2bar1 / 3)
    theta2_21 = torsion.coefficient(("theta2", "omega1"))
    theta2_21_gamma0 = restrict_to_section(theta2_21, table)

    dc = cf.rewrite(cf.ambient.scalar(c).d())
    tilde = cf.frame.combine(((torsion, None), (dc.wedge(g("omega1")), MINUS_ONE),
                              (g("theta2").wedge(g("omega1")), 2 * conjugate(c)),
                              (g("theta2").wedge(g("omega1c")), -3 * c)))
    for word in tilde.terms:
        names = tilde.word_names(word)
        if "dlam" in names and "omega" not in names:
            raise CoframeVerificationError(
                "inert covector escaped the contact direction", str(names),
                Report("tube curvature"))
    final = restrict_to_section(tilde.coefficient(("theta2", "omega1")), table)

    spec = partial(substitute, bindings=_specialization(cf.model, model))
    final = spec(final)
    verdict = model.vanishes(final)
    return CurvatureVerdict(
        theta2_2bar1=spec(theta2_2bar1),
        c=spec(c),
        theta2_21_gamma0=spec(theta2_21_gamma0),
        theta2_21_final=final,
        is_final_zero={True: "zero", False: "nonzero"}.get(verdict, "inconclusive"),
    )


# ---------------------------------------------------------------------------
# full pipeline


def _sample_text(val: complex) -> str:
    """A sample's value to 10 and 3 significant digits; a zero imaginary
    part prints as +0 whatever its sign."""
    return f"{val.real:.10g}{val.imag + 0.0:+.3g}j"


@gc_paused
def analyze(rho, box: dict, seed: int = 0) -> Report:
    """End-to-end tube analysis: hypotheses, Levi rank, coframe identities
    (proved over jets), curvature coefficients (specialized to rho), and
    the flatness verdict.  The jet model, and with it the coframe's charts
    and forms, is kept per generation of the kernel's memos; the proof's
    checks and the curvature are computed on every call.  Each check is timed
    from the one before it; the final zero test belongs to the curvature
    coefficients.  A failed or undecided hypothesis, or a failed identity
    of the coframe or the curvature, ends the report with its failed check
    after the checks made before it."""
    report = Report("tube hypersurface analysis")
    report.config = {"seed": seed, "box": {k: list(v) for k, v in box.items()}}
    try:
        model = tube_from_rho(rho, box, seed=seed)
        report.extend(model.hypotheses)
        proved = model.levi_rank() == 1
        report.add("levi rank 1", proved or INCONCLUSIVE, {} if proved else {
            "reason": "rank 1 is not proven: the Monge-Ampere residual has no zero certificate"})
        cf = build_coframe(jet_model())
        report.extend(cf.checks)
        verdict = curvature_coefficients(cf, model)
    except (TubeHypothesisError, CoframeVerificationError) as exc:
        report.extend(exc.report)
        return report

    sample_rng = random.Random(seed + 97)
    samples = []
    for _ in range(4):
        pt = sample_point((model.table["t1"], model.table["t2"]), box, sample_rng)
        try:
            val = evaluate(verdict.theta2_21_final, pt)
        except DomainEvalError:
            continue
        samples.append({"t1": round(pt["t1"].real, 6), "t2": round(pt["t2"].real, 6),
                        "value": _sample_text(val)})
    report.add("curvature coefficients", True, {
        "theta2_2bar1": to_text(verdict.theta2_2bar1),
        "c": to_text(verdict.c),
        "theta2_21_gamma0": to_text(verdict.theta2_21_gamma0),
        "theta2_21_final": to_text(verdict.theta2_21_final),
        "theta2_21_final_samples": samples,
    })
    status = "pass" if verdict.is_final_zero != "inconclusive" else "inconclusive"
    report.add("flatness verdict", status, {"final_coefficient_zero": verdict.is_final_zero,
                                            **_READINGS[verdict.is_final_zero]})
    return report
