"""Closed-loop runner, failure accounting and summary statistics.

A workload hands the loop a stream of jobs.  Each job runs in its own
guard: an exception the job documents as an expected outcome is counted
by type, any other exception or a disagreement with the oracle counts as
a failure, tallied by type, and the loop carries on.  One client, one thread: the next job
starts when the previous one returns.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import resource
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable


class OracleMismatch(Exception):
    """The program's output disagrees with the benchmark's own answer."""


@dataclass
class Job:
    """One user-level request.

    ``execute`` calls the program and returns its deterministic payload
    (``to_json(include_timing=False)`` of the report it produced), plus
    anything ``check`` needs; ``check`` raises ``OracleMismatch``.
    ``documented`` lists the exception types that are the right answer to
    this job's input, as the benchmark's own reference decides; any other
    exception is a failure.
    """

    label: str
    execute: Callable[[], tuple[str, object]]
    check: Callable[[str, object], None]
    documented: tuple = ()


@dataclass
class Outcome:
    label: str
    seconds: float     # the job alone: oracle check and speed samples excluded
    start: float       # perf_counter() when the job started
    end: float         # ... and when it returned
    failed: bool
    kind: str          # "ok", a documented error type, or the failure type
    digest: str


@dataclass
class RunLog:
    outcomes: list = field(default_factory=list)
    wall_s: float = 0.0    # the whole loop, oracle checks included

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    def latencies(self) -> list:
        return [o.seconds for o in self.outcomes]

    def busy_s(self) -> float:
        """Time spent inside jobs, the benchmark's own checking excluded."""
        return sum(o.seconds for o in self.outcomes)

    def tally(self, failed: bool) -> dict:
        return dict(sorted(Counter(o.kind for o in self.outcomes
                                   if o.failed == failed and o.kind != "ok").items()))

    def digest(self, first: int) -> str:
        """Digest of the first ``first`` job payloads, in job order."""
        h = hashlib.sha256()
        for o in self.outcomes[:first]:
            h.update(o.digest.encode())
        return h.hexdigest()[:16]


def run_guarded(job: Job, meter: "SpeedMeter | None" = None) -> Outcome:
    """Run one job and classify it; never raises for an ordinary exception.

    Time spent sampling the machine's speed inside the job is not counted.
    """
    paused = meter.paused if meter else 0.0
    start = time.perf_counter()
    try:
        payload, extra = job.execute()
    except job.documented as exc:
        kind = type(exc).__name__
        return _outcome(job, start, paused, meter, False, kind, f"{kind}: {exc}")
    except Exception as exc:  # a failure of the program, counted and survived
        kind = type(exc).__name__
        return _outcome(job, start, paused, meter, True, kind, f"{kind}: {exc}")
    outcome = _outcome(job, start, paused, meter, False, "ok", payload)
    try:
        job.check(payload, extra)
    except OracleMismatch as exc:
        outcome.failed, outcome.kind = True, f"OracleMismatch: {exc}"[:160]
    return outcome


def _outcome(job, start, paused, meter, failed, kind, payload) -> Outcome:
    end = time.perf_counter()
    seconds = end - start - ((meter.paused if meter else 0.0) - paused)
    return Outcome(job.label, seconds, start, end, failed, kind, _sha(payload))


def closed_loop(jobs: Iterable[Job], seconds: float,
                meter: "SpeedMeter | None" = None) -> RunLog:
    """Run jobs back to back until ``seconds`` have passed (at least one)."""
    log = RunLog()
    start = time.perf_counter()
    for job in jobs:
        if log.outcomes and time.perf_counter() - start >= seconds:
            break
        log.outcomes.append(run_guarded(job, meter))
    log.wall_s = time.perf_counter() - start
    return log


# ---------------------------------------------------------------------------
# machine speed


def _reference_kernel() -> None:
    """Fixed pure-Python work of the program's own kind: products of
    Fraction-valued dicts keyed by exponent tuples."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    out: dict = {}
    for (i, j), c in a.items():
        for (k, m), d in a.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + c * d


class SpeedMeter:
    """Samples how fast the machine runs while jobs run.

    On a machine that shares its cores with others the same job can take
    half as long again for seconds to minutes at a time, in CPU time as in
    wall time.  Every ``interval`` seconds a timer signal runs
    ``time_kernel``; ``reference_s`` converts a job's wall time into
    seconds at the speed where that kernel takes ``REFERENCE_KERNEL_S``.
    The kernel is the benchmark's code, so only the machine, not the
    program, moves it.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.times: list = []     # sample start times, increasing
        self.kernel_s: list = []  # kernel duration of each sample
        self.paused = 0.0         # total time spent sampling
        self._previous = None

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False

    def _tick(self, *_signal) -> None:
        start = time.perf_counter()
        self.times.append(start)
        self.kernel_s.append(time_kernel())
        self.paused += time.perf_counter() - start

    def reference_s(self, seconds: float, start: float, end: float, least: int = 5) -> float:
        """``seconds`` of work done between ``start`` and ``end``, at
        reference speed: scaled by the median kernel time of the samples
        taken in that interval, or of the ``least`` nearest."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < least and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return at_reference_speed(seconds, self.kernel_s[lo:hi])


REFERENCE_KERNEL_S = 0.002


def time_kernel() -> float:
    """Seconds one run of the reference kernel takes, garbage collection
    off so that the program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    _reference_kernel()
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def at_reference_speed(seconds: float, kernel_s: list) -> float:
    """``seconds`` scaled to the speed at which the kernel takes
    ``REFERENCE_KERNEL_S``, by the median of the kernel times given."""
    return seconds * REFERENCE_KERNEL_S / statistics.median(kernel_s)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# statistics


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def tail(values: Iterable[float], beyond: int = 10):
    """The highest percentile with at least ``beyond`` jobs above it.

    With nearest-rank percentiles the p-th percentile of n sorted values
    is the ceil(p*n/100)-th; at least ``beyond`` jobs lie above it while
    p <= 100*(n-beyond)/n.  Returns ``(value, percentile, n)``, or
    ``None`` when fewer than ``beyond + 1`` jobs ran.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
