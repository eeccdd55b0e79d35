"""Reports time their own checks, each from the one before it, and
serialize to the bytes of ``json.dumps(sort_keys=True, indent=2)``."""

import json
import math
import random
import time
from pathlib import Path

import pytest

from crcgeo import dga, model, tube
from crcgeo.report import Report, dumps

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
    "tube analyze": lambda: tube.analyze("t1^2/t2", BOX),
    "tube failed hypothesis": lambda: tube.analyze("t1^2/2", BOX),
}


@pytest.mark.parametrize("build", REPORTS.values(), ids=REPORTS)
def test_every_check_carries_its_own_timing(build):
    report = build()
    times = [c.to_dict()["timing_s"] for c in report.checks]
    assert times and all(t >= 0 for t in times)
    assert report.timing_s == sum(times)
    assert json.loads(report.to_json())["timing_s"] == report.timing_s
    assert "timing_s" not in report.to_json(include_timing=False)


GOLDEN = Path(__file__).parent / "golden"
# quotes, backslashes, control characters, non-ASCII and astral text
_ALPHABET = "ab Z09_\"\\/\x00\x1f\x7f\n\t\u00e9\u2202\U0001f600"
_NUMBERS = (0, -1, 2**64, -(10**40), -0.0, 0.1, 1e-300, 1e300, 5e-324, -2.5e17,
            math.nan, math.inf, -math.inf)


def _random_text(rng):
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 6)))


def _random_payload(rng, depth):
    shape = rng.random() if depth else 0.0
    if shape < 0.55:
        return rng.choice((_random_text(rng), rng.choice(_NUMBERS), rng.uniform(-1e6, 1e6),
                           rng.randint(-10**6, 10**6), True, False, None))
    items = [_random_payload(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if shape < 0.7:
        return items
    if shape < 0.8:
        return tuple(items)
    return {_random_text(rng): item for item in items}


def test_dumps_gives_the_bytes_of_json_dumps():
    rng = random.Random(2801)
    for _ in range(2000):
        payload = _random_payload(rng, rng.randint(0, 5))
        assert dumps(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_dumps_gives_back_each_golden(path):
    text = path.read_bytes().decode("ascii")
    assert text.removesuffix("\n") == dumps(json.loads(text))


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": {None: 1}}, {"a": [{(1, 2): 3}]},
                                     {"a": object()}, [1j], {"a": {1, 2}}, b"x"])
def test_dumps_refuses_what_json_cannot_hold_or_keys_that_are_not_text(payload):
    with pytest.raises(TypeError):
        dumps(payload)
