"""Per-layer spans recorded from the benchmark's side of each layer boundary.

The tracer wraps the functions and methods that form each layer's
interface.  ``tube``, ``forms``, ``dga``, ``model``, ``matrices``,
``parsing`` and ``cli`` bind kernel names with ``from .scalars import ...``,
so patching ``crcgeo.scalars`` alone would miss their calls: every module
of the package whose attribute *is* the original object gets the wrapper.
Methods are patched on their classes.  ``uninstall`` puts every original
object back.

A span's self time is its duration minus the time of the spans it
encloses.  ``total_s`` counts only the outermost activation of a
recursive function, so it never double counts.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from crcgeo.scalars import DomainEvalError, ZeroTestInconclusiveError

# (metric prefix, module, attribute path).  A dotted path names a method.
TARGETS = (
    ("scalars.exact_quotient", "crcgeo.scalars", "_exact_quotient"),
    ("scalars.collapse", "crcgeo.scalars", "_collapse"),
    ("scalars.certify_zero", "crcgeo.scalars", "certify_zero"),
    ("scalars.zero_test", "crcgeo.scalars", "is_identically_zero"),
    ("scalars.normalize", "crcgeo.scalars", "normalize"),
    ("scalars.differentiate", "crcgeo.scalars", "differentiate"),
    ("scalars.conjugate", "crcgeo.scalars", "conjugate"),
    ("scalars.evaluate", "crcgeo.scalars", "evaluate"),
    ("parsing.parse", "crcgeo.parsing", "parse"),
    ("forms.wedge", "crcgeo.forms", "FormExpr.wedge"),
    ("forms.d", "crcgeo.forms", "FormExpr.d"),
    ("forms.rewrite", "crcgeo.forms", "FormExpr.rewrite"),
    ("forms.coefficient", "crcgeo.forms", "FormExpr.coefficient"),
    ("forms.reduce_mod", "crcgeo.forms", "FormExpr.reduce_mod"),
    ("forms.vanishes", "crcgeo.forms", "FormExpr.vanishes"),
    ("matrices.mul", "crcgeo.matrices", "SMatrix.__matmul__"),
    ("matrices.conjugated_by", "crcgeo.matrices", "FMatrix.conjugated_by"),
    ("matrices.det", "crcgeo.matrices", "SMatrix.det"),
    ("model.model_chart", "crcgeo.model", "model_chart"),
    ("model.verify_structure_equations", "crcgeo.model", "verify_structure_equations"),
    ("model.verify_adjoint_transforms", "crcgeo.model", "verify_adjoint_transforms"),
    ("dga.build_chart", "crcgeo.dga", "build_chart"),
    ("dga.verify_shifts", "crcgeo.dga", "verify_gauge_shifts"),
    ("dga.verify_equivariance", "crcgeo.dga", "verify_equivariance"),
    ("dga.verify_cartan", "crcgeo.dga", "verify_cartan_criterion"),
    ("dga.verify_flat", "crcgeo.dga", "verify_flat_consistency"),
    ("tube.hypotheses", "crcgeo.tube", "tube_from_rho"),
    ("tube.levi", "crcgeo.tube", "TubeModel.levi_rank"),
    ("tube.coframe", "crcgeo.tube", "build_coframe"),
    ("tube.curvature", "crcgeo.tube", "curvature_coefficients"),
    ("report.to_json", "crcgeo.report", "Report.to_json"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0
    failed: int = 0        # exact_quotient: no exact quotient; parse: raised
    proved: int = 0        # certify_zero returned True
    inconclusive: int = 0  # zero_test raised ZeroTestInconclusiveError


class Tracer:
    def __init__(self):
        self.stats = {name: SpanStats() for name, _, _ in TARGETS}
        self.domain_errors = 0
        self._stack: list = []
        self._last_domain_error = None
        self._patches: list = []      # (owner, attribute, original)
        self._restored: list = []
        self._wrappers: dict = {}     # prefix -> wrapper

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "crcgeo" or name.startswith("crcgeo."))]
        for prefix, module_name, path in TARGETS:
            home = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrapper(prefix, original))
                continue
            original = getattr(home, path)
            wrapper = self._wrapper(prefix, original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._restored, self._patches = self._patches, []

    def restored(self) -> bool:
        """True when every binding patched by the last install holds its
        original object again."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self._restored)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrapper(self, prefix: str, fn):
        wrapper = self._wrappers.get(prefix)
        if wrapper is None:
            wrapper = self._wrappers[prefix] = self._make_wrapper(prefix, fn)
        return wrapper

    def _make_wrapper(self, prefix: str, fn):
        stat = self.stats[prefix]
        stack = self._stack
        clock = time.perf_counter
        classify = _CLASSIFY.get(prefix)
        counts_domain = prefix.startswith("scalars.")
        tracer = self

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if prefix == "parsing.parse":
                    stat.failed += 1
                elif prefix == "scalars.zero_test" and isinstance(exc, ZeroTestInconclusiveError):
                    stat.inconclusive += 1
                if (counts_domain and isinstance(exc, DomainEvalError)
                        and exc is not tracer._last_domain_error):
                    tracer._last_domain_error = exc
                    tracer.domain_errors += 1
                raise
            else:
                if classify is not None:
                    classify(stat, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - child[0]
                if stat.depth == 0:
                    stat.total_s += elapsed
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        wrapper.__qualname__ = getattr(fn, "__qualname__", prefix)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper


def _quotient(stat: SpanStats, result) -> None:
    if result is None:
        stat.failed += 1


def _certified(stat: SpanStats, result) -> None:
    if result is True:
        stat.proved += 1


_CLASSIFY = {"scalars.exact_quotient": _quotient, "scalars.certify_zero": _certified}


# Spans that must record calls on each workload, following the layer map
# in NOTES.md; a silent one means a wrapper missed its layer, and fails the
# traced run.  ``matrices.det`` is traced but no workload reaches it.
_TUBE = ("tube.hypotheses", "tube.levi", "tube.coframe", "tube.curvature")
_FORMS = ("forms.wedge", "forms.d", "forms.rewrite", "forms.coefficient")
ACTIVE = {
    "paper_cold": ("scalars.exact_quotient", "scalars.collapse", "scalars.certify_zero",
                   "scalars.zero_test", "scalars.normalize", "scalars.differentiate",
                   "scalars.conjugate", "scalars.evaluate", *_FORMS, "forms.reduce_mod",
                   "forms.vanishes", *_TUBE, "report.to_json"),
    "paper_warm": ("scalars.certify_zero", "scalars.zero_test", "scalars.normalize",
                   "scalars.evaluate", *_FORMS, "forms.vanishes", *_TUBE, "report.to_json"),
    "suites": ("scalars.normalize", "scalars.differentiate", "scalars.conjugate", *_FORMS,
               "matrices.mul", "matrices.conjugated_by", "model.model_chart",
               "model.verify_structure_equations", "model.verify_adjoint_transforms",
               "dga.build_chart", "dga.verify_shifts", "dga.verify_equivariance",
               "dga.verify_cartan", "dga.verify_flat", "report.to_json"),
    "expr_stream": ("parsing.parse", "scalars.normalize", "scalars.differentiate",
                    "scalars.evaluate", "scalars.zero_test", "scalars.certify_zero",
                    "report.to_json"),
}
