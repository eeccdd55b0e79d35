"""The benchmark tracer's targets exist: every (module, attribute path) in
``bench/tracer.py``'s ``TARGETS`` resolves on the package, so renaming or
deleting a traced function fails here instead of in a traced bench run.
And every span the tracer expects on a paper workload or the suites records
calls, and the ``expr_stream`` oracle accepts a seeded stretch of its jobs."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    """``TARGETS`` read from the tracer's source, a literal tuple."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("prefix, module_name, path", _targets())
def test_tracer_target_resolves(prefix, module_name, path):
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(owner, cls_name)
        # the tracer patches methods in the class's own namespace
        assert attr in vars(owner), prefix
        assert callable(vars(owner)[attr]), prefix
    else:
        assert callable(getattr(owner, path)), prefix


@pytest.mark.parametrize("name", ("paper_cold", "paper_warm", "suites"))
def test_no_active_span_of_a_paper_workload_is_silent(name, monkeypatch):
    # one job after the workload's warm-up, traced as `bench/run.py --trace 1`
    # traces it: a design that silences a layer fails here
    monkeypatch.syspath_prepend(str(TRACER.parent))
    tracing = importlib.import_module("tracer")
    workload = importlib.import_module("workloads").WORKLOADS[name]()
    for job in workload.warm_up(0):
        job.check(*job.execute())
    job = next(workload.jobs(1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        payload, extra = job.execute()
    finally:
        tracer.uninstall()
    assert tracer.restored()
    job.check(payload, extra)
    assert [s for s in tracing.ACTIVE[name] if tracer.stats[s].calls == 0] == []


def test_expr_stream_oracle_accepts_every_seeded_job(monkeypatch):
    # the bench's own oracle over the first 1,200 jobs of seed 1: each eval,
    # diff and zero payload checked against its reference interpreter, its
    # central difference or the known verdict
    monkeypatch.syspath_prepend(str(TRACER.parent))
    run_guarded = importlib.import_module("harness").run_guarded
    stream = importlib.import_module("workloads").WORKLOADS["expr_stream"]().jobs(1)
    outcomes = [run_guarded(job) for _, job in zip(range(1200), stream)]
    assert len(outcomes) == 1200
    assert [(o.label, o.kind) for o in outcomes if o.failed] == []
