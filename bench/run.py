"""crcgeo benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload paper_cold|paper_warm|suites|expr_stream
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a run that runs every job untraced and traced.  The lines
before it give every metric by name and unit, the failures by type and
the report digest.  See ``bench/NOTES.md``.
"""

import argparse
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 9


def import_program() -> list:
    """Import the program; return the import times of ``IMPORT_SAMPLES``
    fresh interpreters at reference speed (see ``import_probe.py``)."""
    samples = [float(subprocess.run(
        [sys.executable, str(Path(__file__).with_name("import_probe.py")), str(SRC)],
        capture_output=True, text=True, timeout=120, check=True).stdout)
        for _ in range(IMPORT_SAMPLES)]
    sys.path.insert(0, str(SRC))
    import crcgeo.cli  # noqa: F401
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crcgeo" / "__init__.py").is_file():
        print(f"error: no program source at {SRC.relative_to(ROOT)}/crcgeo; "
              "run from the root of a crcgeo checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_samples = import_program()
    with harness.SpeedMeter() as meter:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload]()

        warm_samples, warm_failures = [], []
        for repeat in range(workload.warmups):
            outcomes = [harness.run_guarded(job, meter) for job in workload.warm_up(repeat)]
            warm_samples.append(sum(meter.reference_s(o.seconds, o.start, o.end)
                                    for o in outcomes))
            warm_failures += [o for o in outcomes if o.failed]
        warm_s = harness.median(warm_samples) if warm_samples else 0.0
        setup_s = harness.median(import_samples) + warm_s

        if not args.trace:
            jobs, seconds = workload.jobs(args.seed), args.seconds
            if workload.jobs_per_second:
                # a slowed machine may stretch the run to twice --seconds
                jobs = itertools.islice(jobs, round(workload.jobs_per_second * seconds))
                seconds *= 2
            log = harness.closed_loop(jobs, seconds, meter=meter)

    tracer = None
    if args.trace:
        # no speed samples inside traced spans: the traced run times wall clock
        import tracer as tracing
        tracer = tracing.Tracer()
        log, untraced_s = traced_loop(workload.jobs(args.seed), args.seconds, tracer)
    failures = warm_failures + [o for o in log.outcomes if o.failed]

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"setup_s {setup_s:.6f} s  (reference speed; import {harness.median(import_samples):.4f}"
          f" s, median of {len(import_samples)}; warm-up {warm_s:.4f} s, median of "
          f"{len(warm_samples)})")
    print(f"jobs {log.attempted} in {log.wall_s:.3f} s, failed {log.failed}")
    print(f"failed_ratio {log.failed / log.attempted:.6f} ratio  failures by type "
          f"{json.dumps(log.tally(failed=True))}")
    print(f"documented outcomes {json.dumps(log.tally(failed=False))}")
    print(f"report digest {log.digest(workload.digest_jobs)} "
          f"(first {min(workload.digest_jobs, log.attempted)} jobs)")
    if warm_failures:
        print(f"warm-up failures {len(warm_failures)} (not counted in jobs)")
    for o in failures[:5]:
        print(f"failed: {o.kind} in job {o.label[:200]}")

    if tracer is None:
        metrics = end_to_end(log, setup_s, meter)
        ok = True
    else:
        metrics, ok = per_layer(tracer, log, untraced_s, workload.name)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result(log, warm_failures, metrics)))
    return 0 if ok else 1


def result(log, warm_failures: list, metrics: dict) -> dict:
    """The last line: any failed job, in the warm-up or the run, means an
    output that is not correct."""
    return {"correct": not warm_failures and log.failed == 0, "attempted": log.attempted,
            "failed": log.failed, "metrics": metrics}


def traced_loop(jobs, seconds: float, tracer):
    """Run each job twice, untraced and traced, until ``seconds`` have
    passed (at least one job).

    Both runs of a job start from the same module state of the program
    (its memos), so they do the same work; the order alternates so that
    neither run always finds the machine's caches warm.  Returns the log of
    the traced runs and the untraced times.  A traced payload that differs
    from its untraced twin fails the job as ``TraceChangedOutput``.
    """
    log, untraced_s = harness.RunLog(), []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if log.outcomes and time.perf_counter() - start >= seconds:
            break
        before = program_state()
        runs = {}
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if runs:
                restore(before)
            if traced:
                tracer.install()
            try:
                runs[traced] = harness.run_guarded(job)
            finally:
                if traced:
                    tracer.uninstall()
            if traced and not tracer.restored():
                raise RuntimeError("tracer left a wrapper in place")
        outcome = runs[True]
        if outcome.digest != runs[False].digest:
            outcome.failed, outcome.kind = True, "TraceChangedOutput"
        log.outcomes.append(outcome)
        untraced_s.append(runs[False].seconds)
    log.wall_s = time.perf_counter() - start
    return log, untraced_s


def program_state() -> list:
    """A copy of every module-level dict, list and set of the program."""
    return [(value, value.copy()) for name, module in sorted(sys.modules.items())
            if name == "crcgeo" or name.startswith("crcgeo.")
            for attr, value in vars(module).items()
            if not attr.startswith("__") and type(value) in (dict, list, set)]


def restore(state: list) -> None:
    for value, saved in state:
        value.clear()
        (value.extend if isinstance(value, list) else value.update)(saved)


def end_to_end(log, setup_s: float, meter) -> dict:
    """The metrics of BENCHMARK.json, after printing the wall-clock figures."""
    latencies = log.latencies()
    completed = log.attempted - log.failed
    print(f"latency_p50_s {harness.median(latencies):.6g} s (wall)")
    tail = harness.tail(latencies)
    if tail is None:
        print(f"latency_tail_s omitted: {log.attempted} jobs, fewer than 11")
    else:
        value, percentile, n = tail
        print(f"latency_tail_s {value:.6g} s (wall; p{percentile:.2f} of {n} jobs, 10 beyond it)")
    print(f"throughput_jobs_per_s {completed / log.busy_s():.6g} 1/s (wall)")
    reference = [meter.reference_s(o.seconds, o.start, o.end) for o in log.outcomes]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "latency_p50_ref_s": {"value": harness.median(reference), "unit": "s"},
        "throughput_ref_jobs_per_s": {"value": completed / sum(reference), "unit": "1/s"},
        "peak_rss_mb": {"value": harness.peak_rss_mb(), "unit": "MB"},
    }


def per_layer(tracer, log, untraced_s: list, workload: str):
    import tracer as tracing
    from crcgeo import scalars

    per_job = 1.0 / log.attempted
    metrics = {}
    for name, stat in tracer.stats.items():
        metrics[f"{name}.calls"] = {"value": stat.calls * per_job, "unit": "count/job"}
        metrics[f"{name}.self_s"] = {"value": stat.self_s * per_job, "unit": "s/job"}
        metrics[f"{name}.total_s"] = {"value": stat.total_s * per_job, "unit": "s/job"}
    def count(n):
        return {"value": n * per_job, "unit": "count/job"}

    stats = tracer.stats
    quotient = stats["scalars.exact_quotient"]
    metrics["scalars.exact_quotient.failed"] = count(quotient.failed)
    metrics["scalars.exact_quotient.useful_ratio"] = {
        "value": (quotient.calls - quotient.failed) / quotient.calls if quotient.calls else 0.0,
        "unit": "ratio"}
    metrics["scalars.certify_zero.proved"] = count(stats["scalars.certify_zero"].proved)
    metrics["scalars.zero_test.inconclusive"] = count(stats["scalars.zero_test"].inconclusive)
    metrics["scalars.domain_errors"] = count(tracer.domain_errors)
    metrics["parsing.parse.failed"] = count(stats["parsing.parse"].failed)
    metrics["scalars.memo_entries"] = {
        "value": sum(len(v) for k, v in vars(scalars).items()
                     if k.endswith("_MEMO") and isinstance(v, dict)),
        "unit": "count"}
    metrics["trace.jobs"] = {"value": log.attempted, "unit": "count"}
    metrics["trace.overhead_ratio"] = {
        "value": harness.median(o.seconds / s for o, s in zip(log.outcomes, untraced_s)),
        "unit": "ratio"}

    ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)[:5]
    print("largest self time per traced job: " + ", ".join(
        f"{name} {stat.self_s * per_job:.4g} s" for name, stat in ranked))
    silent = [name for name in tracing.ACTIVE[workload] if tracer.stats[name].calls == 0]
    if silent:
        print(f"self-check failed: no calls recorded on {workload} for {', '.join(silent)}",
              file=sys.stderr)
    return metrics, not silent


if __name__ == "__main__":
    sys.exit(main())
