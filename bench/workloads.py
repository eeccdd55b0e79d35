"""The four workloads: their inputs, their jobs and the oracles that check them.

Every job calls the public API of ``crcgeo`` in-process and returns the
deterministic payload the user would see, ``to_json(include_timing=False)``
of its report.  Oracles never reuse the program's answer: the paper
workloads check the printed closed form with the benchmark's own float
code, ``suites`` compares with the committed golden report, and
``expr_stream`` checks values with the benchmark's own interpreter and
derivatives with a central difference.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import crcgeo
from crcgeo import dga, model, parsing, scalars, tube
from crcgeo.report import Report
from crcgeo.scalars import DomainEvalError, ZeroTestInconclusiveError

import exprgen
from harness import Job, OracleMismatch

DEFAULT_BOX = {"t1": (0.02, 0.08), "t2": (0.02, 0.08)}
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "model_verify.json"


class Workload:
    name = ""
    warmups = 0        # set-up repeats whose median is reported
    digest_jobs = 1    # leading jobs folded into the report digest
    jobs_per_second = None  # set: a run is this many jobs per --seconds second

    def warm_up(self, repeat: int) -> list:
        """Jobs to run untimed before the loop; ``repeat`` picks their inputs."""
        return []

    def jobs(self, seed: int):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# paper example


def closed_form(t1: float, t2: float) -> float:
    """-12*t2*w^(-3/4)/(1-sqrt(w)) with w = 1-12*t1*t2, the printed value of
    the final curvature coefficient of the paper's example."""
    w = 1.0 - 12.0 * t1 * t2
    return -12.0 * t2 * w ** -0.75 / (1.0 - math.sqrt(w))


def check_paper(payload: str, _extra=None) -> None:
    report = json.loads(payload)
    if report["overall"] != "pass":
        raise OracleMismatch(f"overall {report['overall']}")
    checks = {c["name"]: c for c in report["checks"]}
    verdict = checks["flatness verdict"]["details"]["final_coefficient_zero"]
    if verdict != "nonzero":
        raise OracleMismatch(f"final coefficient verdict {verdict}")
    samples = checks["curvature coefficients"]["details"]["theta2_21_final_samples"]
    if len(samples) != 4:
        raise OracleMismatch(f"{len(samples)} samples of the final coefficient")
    for s in samples:
        check_sample(s["t1"], s["t2"], complex(s["value"]))


def check_sample(t1: float, t2: float, got: complex) -> None:
    """The report prints t1, t2 rounded to 6 decimals and the value to 10
    significant digits: accept a value the closed form takes somewhere in
    the rounding box of the printed point."""
    corners = [closed_form(t1 + a, t2 + b)
               for a in (-5e-7, 5e-7) for b in (-5e-7, 5e-7)]
    slack = 1e-9 * max(map(abs, corners))
    if not (min(corners) - slack <= got.real <= max(corners) + slack
            and abs(got.imag) <= 1e-6 * abs(got.real)):
        raise OracleMismatch(
            f"sample at t1={t1}, t2={t2}: got {got}, closed form {closed_form(t1, t2)!r}")


def analyze_job(box: dict, seed: int, cold: bool) -> Job:
    def execute():
        if cold:
            scalars.clear_caches()
        report = tube.analyze(tube.paper_example_rho(), box, seed=seed)
        return report.to_json(include_timing=False), None

    return Job(f"analyze seed={seed} box={box}", execute, check_paper)


class PaperCold(Workload):
    """``crc tube paper-example`` as each invocation pays it: caches cleared."""

    name = "paper_cold"

    def jobs(self, seed: int):
        rng = random.Random(f"paper_cold:{seed}")
        while True:
            yield analyze_job(DEFAULT_BOX, rng.randrange(10**6), cold=True)


class PaperWarm(Workload):
    """The same example in a long-lived process: a seeded sweep over zero-test
    seeds and sub-boxes after one cold analysis."""

    name = "paper_warm"
    warmups = 1
    digest_jobs = 5

    def warm_up(self, repeat: int) -> list:
        return [analyze_job(DEFAULT_BOX, 0, cold=True)]

    def jobs(self, seed: int):
        rng = random.Random(f"paper_warm:{seed}")
        while True:
            box = {name: _sub_interval(rng, lo, hi) for name, (lo, hi) in DEFAULT_BOX.items()}
            yield analyze_job(box, rng.randrange(10**6), cold=False)


def _sub_interval(rng, lo: float, hi: float) -> tuple:
    width = hi - lo
    a = round(rng.uniform(lo, hi - width / 6), 4)
    b = round(rng.uniform(a + width / 6, hi), 4)
    return (a, min(b, hi))


# ---------------------------------------------------------------------------
# verification suites

DGA_SUITES = {
    "shifts": "verify_gauge_shifts",
    "equivariance": "verify_equivariance",
    "cartan": "verify_cartan_criterion",
    "flat": "verify_flat_consistency",
}


def _strip_timing(payload):
    if isinstance(payload, dict):
        return {k: _strip_timing(v) for k, v in payload.items() if k != "timing_s"}
    if isinstance(payload, list):
        return [_strip_timing(v) for v in payload]
    return payload


class Suites(Workload):
    """One cold round of ``model verify`` and the four ``dga verify`` suites."""

    name = "suites"
    warmups = 3
    digest_jobs = 3

    def __init__(self):
        self.golden = _strip_timing(json.loads(GOLDEN.read_text(encoding="utf-8")))

    def warm_up(self, repeat: int) -> list:
        return [self._round(list(DGA_SUITES))]

    def jobs(self, seed: int):
        # the suites take no input: the seed only orders the dga suites
        rng = random.Random(f"suites:{seed}")
        while True:
            order = list(DGA_SUITES)
            rng.shuffle(order)
            yield self._round(order)

    def _round(self, order: list) -> Job:
        def execute():
            scalars.clear_caches()
            structure = model.verify_structure_equations()
            adjoint = model.verify_adjoint_transforms()
            combined = Report("model verification")
            combined.config = {"tool_version": crcgeo.__version__}
            combined.checks = structure.checks + adjoint.checks
            payloads = {"model": combined.to_json(include_timing=False)}
            for suite in order:
                report = getattr(dga, DGA_SUITES[suite])()
                report.config = {"tool_version": crcgeo.__version__, "suite": suite}
                payloads[suite] = report.to_json(include_timing=False)
            return "\n".join(payloads[k] for k in ["model", *DGA_SUITES]), payloads

        return Job(f"suites {' '.join(order)}", execute, self._check)

    def _check(self, _payload: str, payloads: dict) -> None:
        if json.loads(payloads["model"]) != self.golden:
            raise OracleMismatch("model verify differs from tests/golden/model_verify.json")
        for suite in DGA_SUITES:
            overall = json.loads(payloads[suite])["overall"]
            if overall != "pass":
                raise OracleMismatch(f"dga {suite} overall {overall}")
        cartan = {c["name"]: c for c in json.loads(payloads["cartan"])["checks"]}
        details = cartan["necessity: first-curvature coefficient"]["details"]
        if details.get("matches_transcribed_sign_of_imaginary_term") is not False:
            raise OracleMismatch("cartan transcribed-sign flag is no longer false")


# ---------------------------------------------------------------------------
# expression stream

KINDS = ("eval", "diff", "zero")
MAX_DEPTH = 4
ZERO_TRIALS = 16


class ExprStream(Workload):
    """Many small ``crc expr eval|diff|zero`` jobs on fresh seeded trees."""

    name = "expr_stream"
    warmups = 3
    digest_jobs = 200
    # Job costs are lumpy (a few jobs take 1000 times the median), so a run
    # bounded by time would measure a different stretch of the stream each
    # time; a fixed count, about --seconds of the seed commit at reference
    # speed, measures the same jobs every time unless the machine is so slow
    # that the run reaches twice --seconds.
    jobs_per_second = 200

    def __init__(self):
        self.table = scalars.VariableTable()
        self.table.real(*exprgen.VARIABLES)
        self.box = {v: exprgen.BOX for v in exprgen.VARIABLES}

    def warm_up(self, repeat: int) -> list:
        stream = self._stream(f"warm-up:{repeat}", f"warm-up:{repeat}")
        return [next(stream) for _ in range(2 * len(KINDS) * MAX_DEPTH)]

    def jobs(self, seed: int):
        return self._stream("shapes", seed)

    def _stream(self, shape_key: str, label_key):
        # Kinds and depths cycle so that every stretch of 12 jobs has the
        # same mix.  The trees and the variable of each derivative set a
        # job's cost, and a few costly jobs set a run's throughput, so they
        # come from a stream that all seeds share (NOTES.md gives the numbers).
        # Points, zero-test seeds and perturbations come from the seed.
        shape = random.Random(f"expr_stream:{shape_key}")
        labels = random.Random(f"expr_stream:labels:{label_key}")
        i = 0
        while True:
            kind = KINDS[i % len(KINDS)]
            depth = 1 + (i // len(KINDS)) % MAX_DEPTH
            yield self._job(kind, exprgen.random_tree(shape, depth), shape, labels)
            i += 1

    def _job(self, kind: str, tree, shape, labels) -> Job:
        # a DomainEvalError is the right answer only where the reference
        # interpreter also finds a pole at the job's point: eval and diff
        # evaluate there, and a zero test raises it only for a pole that
        # normalization finds exactly, which is then a pole everywhere
        point = {v: labels.uniform(*exprgen.BOX) for v in exprgen.VARIABLES}
        if kind == "zero":
            equal = shape.random() < 0.5
            other = exprgen.rewrite(tree, shape)
            if not equal:
                other = exprgen.perturb(other, labels)
            text = f"({exprgen.render(tree)}) - ({exprgen.render(other)})"
            documented = (ZeroTestInconclusiveError,) + _poles(("sub", tree, other), point)
            return Job(f"zero {text}", self._zero(text, labels.randrange(10**6)),
                       _expect_zero(equal), documented)
        text = exprgen.render(tree)
        if kind == "eval":
            return Job(f"eval {text}", self._eval(text, point), _expect_value(tree, point),
                       _poles(tree, point))
        var = shape.choice(exprgen.VARIABLES)
        return Job(f"diff {text} by {var}", self._diff(text, point, var),
                   _expect_derivative(tree, point, var), _poles(tree, point))

    def _report(self, command: str, text: str) -> Report:
        report = Report(f"expression {command}")
        report.config = {"tool_version": crcgeo.__version__, "expr": text}
        return report

    def _eval(self, text: str, point: dict):
        def execute():
            value = scalars.evaluate(parsing.parse(text, self.table), point)
            report = self._report("eval", text)
            report.add("evaluate", True, {"at": {k: str(v) for k, v in point.items()},
                                          "value": _complex_text(value)})
            return report.to_json(include_timing=False), value
        return execute

    def _diff(self, text: str, point: dict, var: str):
        def execute():
            d = scalars.differentiate(parsing.parse(text, self.table), self.table[var])
            value = scalars.evaluate(d, point)
            report = self._report("diff", text)
            report.add("differentiate", True, {"by": var, "result": scalars.to_text(d),
                                               "value": _complex_text(value)})
            return report.to_json(include_timing=False), value
        return execute

    def _zero(self, text: str, seed: int):
        def execute():
            verdict = scalars.is_identically_zero(parsing.parse(text, self.table), self.box,
                                                  trials=ZERO_TRIALS, seed=seed)
            report = self._report("zero", text)
            report.add("zero test", True, {"identically_zero": verdict, "trials": ZERO_TRIALS})
            return report.to_json(include_timing=False), verdict
        return execute


def _poles(tree, point) -> tuple:
    """``(DomainEvalError,)`` when the reference finds ``tree`` undefined at ``point``."""
    try:
        exprgen.value(tree, point)
    except exprgen.OutsideDomain:
        return (DomainEvalError,)
    return ()


def _complex_text(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}j"


def _expect_value(tree, point):
    def check(_payload, got: complex) -> None:
        try:
            want, magnitude = exprgen.value(tree, point)
        except exprgen.OutsideDomain as exc:
            raise OracleMismatch(f"value {got} where the reference finds {exc}")
        if not (exprgen.close(got.real, want, magnitude)
                and abs(got.imag) <= 1e-9 * (1.0 + magnitude)):
            raise OracleMismatch(f"value {got}, reference {want!r}")
    return check


def _expect_derivative(tree, point, var):
    def check(_payload, got: complex) -> None:
        try:
            want, error = exprgen.derivative(tree, point, var)
            _, magnitude = exprgen.value(tree, point)
        except exprgen.OutsideDomain:
            return  # a pole within a difference step: no reference available
        tol = 10 * error + 1e-6 * (1.0 + abs(want) + magnitude)
        if not (math.isfinite(got.real) and abs(got.real - want) <= tol
                and abs(got.imag) <= 1e-9 * (1.0 + magnitude)):
            raise OracleMismatch(f"derivative {got}, central difference {want!r}")
    return check


def _expect_zero(equal: bool):
    def check(_payload, verdict: bool) -> None:
        if verdict is not equal:
            raise OracleMismatch(f"zero test said {verdict} for an expression that "
                                 f"{'is' if equal else 'is not'} identically zero")
    return check


WORKLOADS = {w.name: w for w in (PaperCold, PaperWarm, Suites, ExprStream)}
