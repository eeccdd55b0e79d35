"""Reports time their own checks: each check from the one before it."""

import json
import time

import pytest

from crcgeo import dga, model, tube
from crcgeo.report import Report

BOX = {"t1": (0.5, 1.0), "t2": (0.5, 1.0)}


def test_a_check_is_timed_from_the_check_before_it():
    report = Report("laps")
    time.sleep(0.02)
    first = report.add("first", True)
    second = report.add("second", True)
    assert first.timing_s >= 0.02 > second.timing_s >= 0


def test_extend_keeps_the_checks_and_their_times_and_restarts_the_lap():
    inner = Report("inner")
    inner.add("a", True)
    report = Report("outer")
    time.sleep(0.02)
    report.extend(inner)
    after = report.add("after", True)
    assert report.checks == [inner.checks[0], after]
    assert after.timing_s < 0.02
    assert report.timing_s == inner.checks[0].timing_s + after.timing_s


def test_reports_share_no_checks_or_config():
    first, second = Report("first"), Report("second")
    first.add("a", True)
    first.config["k"] = 1
    assert (second.checks, second.config) == ([], {})


REPORTS = {
    "model structure equations": model.verify_structure_equations,
    "dga shifts": dga.verify_gauge_shifts,
    "dga equivariance": dga.verify_equivariance,
    "dga cartan": dga.verify_cartan_criterion,
    "dga flat": dga.verify_flat_consistency,
    "tube analyze": lambda: tube.analyze("t1^2/t2", BOX, trials=8),
    "tube failed hypothesis": lambda: tube.analyze("t1^2/2", BOX, trials=8),
}


@pytest.mark.parametrize("build", REPORTS.values(), ids=REPORTS)
def test_every_check_carries_its_own_timing(build):
    report = build()
    times = [c.to_dict()["timing_s"] for c in report.checks]
    assert times and all(t >= 0 for t in times)
    assert report.timing_s == sum(times)
    assert json.loads(report.to_json())["timing_s"] == report.timing_s
    assert "timing_s" not in report.to_json(include_timing=False)
