"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_harness.py -q
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import exprgen  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from crcgeo import forms, parsing, scalars, tube  # noqa: E402
from crcgeo.scalars import DomainEvalError, ZeroTestInconclusiveError  # noqa: E402


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond_it():
    value, percentile, n = harness.tail(range(1, 101))
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(x > value for x in range(1, 101)) == 10
    value, percentile, n = harness.tail([5.0] * 10 + [1.0])
    assert (value, n) == (1.0, 11)


def test_tail_is_omitted_with_too_few_jobs():
    assert harness.tail([]) is None
    assert harness.tail([0.1] * 10) is None


def _paper_payload(samples):
    checks = [
        {"name": "curvature coefficients", "status": "pass",
         "details": {"theta2_21_final_samples": samples}},
        {"name": "flatness verdict", "status": "pass",
         "details": {"final_coefficient_zero": "nonzero"}},
    ]
    return json.dumps({"overall": "pass", "checks": checks})


def _sample(t1, t2, scale=1.0):
    value = workloads.closed_form(t1, t2) * scale
    return {"t1": t1, "t2": t2, "value": f"{value:.10g}+0j"}


def test_paper_oracle_accepts_the_closed_form_and_rejects_a_perturbed_sample():
    points = [(0.031672, 0.068365), (0.042324, 0.070522),
              (0.067778, 0.054461), (0.053474, 0.022496)]
    workloads.check_paper(_paper_payload([_sample(*p) for p in points]))
    perturbed = [_sample(*p) for p in points[:3]] + [_sample(*points[3], scale=1 + 1e-4)]
    with pytest.raises(harness.OracleMismatch):
        workloads.check_paper(_paper_payload(perturbed))


def test_paper_oracle_matches_a_value_printed_by_the_program():
    # a sample copied from `crc tube paper-example` at the seed commit
    workloads.check_sample(0.031672, 0.068365, complex("-63.98489377+0j"))
    with pytest.raises(harness.OracleMismatch):
        workloads.check_sample(0.031672, 0.068365, complex("-63.99489377+0j"))


def _job(label, fn, check=lambda payload, extra: None, documented=()):
    return harness.Job(label, lambda: (fn(), None), check, documented)


def test_injected_recursion_error_is_counted_without_aborting_the_run():
    def recurse():
        raise RecursionError("maximum recursion depth exceeded")

    def domain():
        raise DomainEvalError("division by zero")

    def wrong(payload, extra):
        raise harness.OracleMismatch("off by one")

    jobs = [_job("a", lambda: "ok"), _job("b", recurse),
            _job("c", domain, documented=(DomainEvalError,)),
            _job("d", lambda: "7", wrong), _job("e", lambda: "ok")]
    log = harness.closed_loop(jobs, seconds=60)
    assert log.attempted == 5
    assert log.failed == 2
    assert log.tally(failed=True) == {"OracleMismatch: off by one": 1, "RecursionError": 1}
    assert log.tally(failed=False) == {"DomainEvalError": 1}


def test_an_undocumented_domain_error_fails_a_paper_job():
    import run

    def domain():
        raise DomainEvalError("zero raised to a negative power")

    job = workloads.analyze_job(workloads.DEFAULT_BOX, 0, cold=False)
    job.execute = lambda: (domain(), None)
    log = harness.closed_loop([job], seconds=60)
    assert (log.attempted, log.failed) == (1, 1)
    assert log.tally(failed=True) == {"DomainEvalError": 1}
    assert run.result(log, [], {})["correct"] is False
    ok = harness.closed_loop([_job("a", lambda: "ok")], seconds=60)
    assert run.result(ok, [], {})["correct"] is True
    assert run.result(ok, log.outcomes, {})["correct"] is False


def test_expression_jobs_document_only_the_errors_the_reference_predicts():
    stream = workloads.ExprStream()

    def job(kind, tree):
        rng = random.Random(1)
        return stream._job(kind, tree, rng, rng)

    pole = ("pow", ("sub", ("var", "t1"), ("var", "t1")), exprgen.Fraction(-1))
    smooth = ("mul", ("var", "t1"), ("var", "t2"))
    assert job("eval", pole).documented == (DomainEvalError,)
    assert job("diff", pole).documented == (DomainEvalError,)
    assert job("eval", smooth).documented == ()
    assert job("diff", smooth).documented == ()
    assert job("zero", smooth).documented == (ZeroTestInconclusiveError,)
    log = harness.closed_loop([job("eval", pole), job("eval", smooth)], seconds=60)
    assert log.failed == 0
    assert log.tally(failed=False) == {"DomainEvalError": 1}


def test_same_seed_gives_same_inputs_and_digests():
    def run(seed, count=36):
        stream = workloads.ExprStream().jobs(seed)
        jobs = [next(stream) for _ in range(count)]
        log = harness.RunLog([harness.run_guarded(job) for job in jobs])
        return [j.label for j in jobs], log.digest(count)

    labels, digest = run(11)
    assert run(11) == (labels, digest)
    assert run(12)[0] != labels

    def boxes(seed):
        stream = workloads.PaperWarm().jobs(seed)
        return [next(stream).label for _ in range(5)]

    assert boxes(3) == boxes(3) != boxes(4)


def test_rewritten_trees_are_equal_and_perturbed_ones_are_not():
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        tree = exprgen.random_tree(rng, rng.randint(1, 4))
        point = {v: rng.uniform(*exprgen.BOX) for v in exprgen.VARIABLES}
        try:
            want, magnitude = exprgen.value(tree, point)
            same, _ = exprgen.value(exprgen.rewrite(tree, rng), point)
            moved, _ = exprgen.value(exprgen.perturb(tree, rng), point)
        except exprgen.OutsideDomain:
            continue
        assert exprgen.close(same, want, magnitude, rel=1e-8)
        assert not exprgen.close(moved, want, magnitude, rel=1e-8)
        checked += 1
    assert checked > 250


def test_rendered_text_parses_to_the_same_value():
    table = scalars.VariableTable()
    table.real(*exprgen.VARIABLES)
    rng = random.Random(9)
    for _ in range(100):
        tree = exprgen.random_tree(rng, rng.randint(1, 4))
        point = {v: rng.uniform(*exprgen.BOX) for v in exprgen.VARIABLES}
        try:
            want, magnitude = exprgen.value(tree, point)
        except exprgen.OutsideDomain:
            continue
        got = scalars.evaluate(parsing.parse(exprgen.render(tree), table), point)
        assert exprgen.close(got.real, want, magnitude)


def test_tracer_sees_calls_through_imported_bindings_and_restores_them():
    original = scalars.normalize
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert forms.normalize is not original
        assert tube.normalize is forms.normalize
        x = scalars.Var(scalars.Variable("x", scalars.REAL))
        forms.normalize(x + x)
        tube.normalize(x * x)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert scalars.normalize is original and forms.normalize is original
    assert tube.normalize is original
    assert tracer.stats["scalars.normalize"].calls == 2


def test_traced_loop_runs_each_job_twice_from_the_same_memos():
    import run

    x = scalars.Var(scalars.Variable("x", scalars.REAL))
    runs = []

    def normalizing(e):
        # the payload counts the memo entries the job adds: a twin that ran
        # after the other without the memos restored would add none
        def execute():
            runs.append(len(scalars._NORM_MEMO))
            forms.normalize(e)
            return str(len(scalars._NORM_MEMO) - runs[-1])
        return execute

    counter = iter(range(10**6))
    jobs = [_job("a", normalizing(x * x + x)), _job("b", normalizing(x * x * x + x)),
            _job("c", lambda: str(next(counter)))]
    tracer = tracing.Tracer()
    scalars.clear_caches()
    log, untraced_s = run.traced_loop(iter(jobs), 60, tracer)
    assert tracer.restored() and forms.normalize is scalars.normalize
    assert runs[0] == runs[1] and runs[2] == runs[3] > runs[0]
    assert [o.kind for o in log.outcomes] == ["ok", "ok", "TraceChangedOutput"]
    assert log.failed == 1 and len(untraced_s) == 3 and min(untraced_s) > 0
    assert tracer.stats["scalars.normalize"].calls == 2


def test_every_active_span_is_a_traced_target():
    names = {name for name, _, _ in tracing.TARGETS}
    for workload, active in tracing.ACTIVE.items():
        assert workload in workloads.WORKLOADS
        assert set(active) <= names


def test_run_reports_exactly_the_metrics_benchmark_json_lists():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    log = harness.RunLog([harness.Outcome("a", 0.2, 0.0, 0.2, False, "ok", "x"),
                          harness.Outcome("b", 0.3, 0.2, 0.5, False, "ok", "y")], wall_s=0.5)
    meter = harness.SpeedMeter()
    meter.times, meter.kernel_s = [0.0], [harness.REFERENCE_KERNEL_S]
    end_to_end = run.end_to_end(log, setup_s=1.0, meter=meter)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: m["unit"] for name, m in end_to_end.items()}
    per_layer, self_check_ok = run.per_layer(tracing.Tracer(), log, [0.1, 0.3], "suites")
    assert not self_check_ok  # nothing was traced, so the self-check fails
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: m["unit"] for name, m in per_layer.items()}
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_time_scales_by_the_kernel_samples_around_the_job():
    meter = harness.SpeedMeter()
    ref = harness.REFERENCE_KERNEL_S
    meter.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    meter.kernel_s = [ref, ref, 2 * ref, 2 * ref, 2 * ref, ref, ref, ref]
    # three samples inside the job, all at half speed
    assert meter.reference_s(3.0, 1.5, 4.5, least=3) == pytest.approx(1.5)
    # a short job takes the median of its nearest samples
    assert meter.reference_s(0.1, 3.1, 3.2, least=3) == pytest.approx(0.05)
    assert meter.reference_s(0.1, 6.5, 6.6, least=3) == pytest.approx(0.1)


def test_speed_meter_samples_and_restores_the_alarm():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with harness.SpeedMeter(interval=0.02) as meter:
        job = harness.Job("spin", lambda: (str(sum(range(10**6))), None),
                          lambda payload, extra: None)
        outcome = harness.run_guarded(job, meter=meter)
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.times) >= 4 and meter.paused > 0
    assert outcome.seconds <= outcome.end - outcome.start
