"""Print the sha256 prefix of each stock run's deterministic payload,
``to_json(include_timing=False)``, cold and warm.

Each run is made in process: first after ``scalars.clear_caches()``
(cold), then once more in the same generation (warm).  One line per run:
the cold digest, the warm digest and the run's name.  Two checkouts keep
every payload byte-identical when their outputs are equal:

    python3 tools/payload_digests.py > after.txt   # from the root of a checkout
    diff before.txt after.txt

The tube runs are those of ``crc tube`` at its default boxes, as the
goldens under ``tests/golden`` hold them (no trailing newline, no CLI
config); ``model verify`` joins its two suites as the CLI does.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crcgeo import cli, dga, model, scalars, tube  # noqa: E402
from crcgeo.report import Report  # noqa: E402

PAPER_BOX = {"t1": (0.02, 0.08), "t2": (0.02, 0.08)}
PROFILE_BOX = {"t1": (0.5, 1.0), "t2": (0.5, 1.0)}
PROFILES = ("s^2", "s^2+s^3", "s^2*(1+s)^(1/2)", "s^2+s^3+s^4", "1/s", "(1+s^2)^(1/2)")


def model_verify() -> Report:
    report = Report("model verification")
    report.extend(model.verify_structure_equations())
    report.extend(model.verify_adjoint_transforms())
    return report


def runs():
    """(name, function returning the run's report), in print order."""
    paper = tube.paper_example_rho
    yield "paper seed 0", lambda: tube.analyze(paper(), PAPER_BOX, seed=0)
    yield "paper seed 7", lambda: tube.analyze(paper(), PAPER_BOX, seed=7)
    yield "paper t1=0.1:0.2,t2=0.5:0.6", lambda: tube.analyze(
        paper(), {"t1": (0.1, 0.2), "t2": (0.5, 0.6)}, seed=0)
    yield "rho t1^2/t2", lambda: tube.analyze("t1^2/t2", PROFILE_BOX, seed=0)
    for g in PROFILES:
        yield f"profile {g}", lambda g=g: tube.analyze(
            tube.ma_profile_solution(g), PROFILE_BOX, seed=0)
    yield "model verify", model_verify
    for suite, entry in cli.DGA_SUITES.items():
        yield f"dga {suite}", getattr(dga, entry)


def digest(report: Report) -> str:
    return hashlib.sha256(report.to_json(include_timing=False).encode()).hexdigest()[:16]


def main() -> int:
    for name, run in runs():
        scalars.clear_caches()
        cold = digest(run())
        print(cold, digest(run()), name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
