"""Command-line entry point.

Subcommands: ``model verify``, ``dga verify --suite {shifts|equivariance|
cartan|flat}``, ``tube {analyze|paper-example|profile}``, ``expr {eval|
diff|zero}``.  One JSON (or text) report goes to stdout (or --out FILE).
Exit codes: 0 pass, 1 fail, 2 usage or input error, 3 inconclusive.
Reports are byte-deterministic for a fixed seed apart from the timing
field.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .parsing import parse
from .report import FAIL, INCONCLUSIVE, PASS, Report
from .scalars import (
    DomainEvalError,
    ExprError,
    ParseError,
    VariableTable,
    WorkBudgetError,
    ZeroTestInconclusiveError,
    differentiate,
    evaluate,
    free_variables,
    is_identically_zero,
    to_text,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# the most sample points one zero test may take; its time grows linearly
# with them
MAX_TRIALS = 10_000

# the dga suites by their --suite name; each command imports what it runs
DGA_SUITES = {"shifts": "verify_gauge_shifts", "equivariance": "verify_equivariance",
              "cartan": "verify_cartan_criterion", "flat": "verify_flat_consistency"}


def _entries(text: str) -> list:
    """The nonblank entries of a comma-separated list, stripped."""
    return [piece for piece in map(str.strip, text.split(",")) if piece]


def parse_box(text: str) -> dict:
    """Parse 't1=0.02:0.08,t2=0.02:0.08' into interval pairs."""
    box = {}
    for piece in _entries(text):
        if "=" not in piece or ":" not in piece:
            raise ValueError(f"bad box entry {piece!r}; expected name=lo:hi")
        name, rng = (s.strip() for s in piece.split("=", 1))
        if name in box:
            raise ValueError(f"{name!r} is given twice")
        lo, hi = rng.split(":", 1)
        try:
            lo_f, hi_f = float(lo), float(hi)
        except ValueError:
            raise ValueError(f"bad box entry {piece!r}; bounds must be numbers") from None
        if not (math.isfinite(lo_f) and math.isfinite(hi_f)):
            raise ValueError(f"non-finite bound for {name!r}")
        if not lo_f < hi_f:
            raise ValueError(f"empty interval for {name!r}")
        box[name] = (lo_f, hi_f)
    if not box:
        raise ValueError("empty box")
    return box


def parse_declarations(text: str) -> VariableTable:
    """Parse 't1:real,t2:real,u:positive,a:unit,b~bb,lam:imaginary'."""
    table = VariableTable()
    for piece in _entries(text):
        if "~" in piece:
            names, kind = piece.split("~", 1), "pair"
        elif ":" in piece:
            name, kind = piece.split(":", 1)
            names = [name]
        else:
            raise ValueError(f"bad declaration {piece!r}; expected name:kind")
        table.declare(kind.strip(), *(n.strip() for n in names))
    return table


def parse_bindings(text: str) -> dict:
    """Parse 't1=0.05,t2=0.05' into complex values."""
    out = {}
    for piece in _entries(text):
        # without "=" the value is "", which complex() rejects
        name, _, value = (s.strip() for s in piece.partition("="))
        if name in out:
            raise ValueError(f"{name!r} is given twice")
        try:
            if not name:
                raise ValueError("empty name")
            out[name] = complex(value)
        except ValueError:
            raise ValueError(f"bad binding {piece!r}; expected name=value") from None
    return out


def _emit(report: Report, args) -> int:
    payload = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(payload + "\n")
    return {PASS: EXIT_PASS, FAIL: EXIT_FAIL,
            INCONCLUSIVE: EXIT_INCONCLUSIVE}[report.overall]


def _cmd_model_verify(args) -> int:
    from . import model
    report = Report("model verification")
    report.config = {"tool_version": __version__}
    report.extend(model.verify_structure_equations())
    report.extend(model.verify_adjoint_transforms())
    return _emit(report, args)


def _cmd_dga_verify(args) -> int:
    from . import dga
    report = getattr(dga, DGA_SUITES[args.suite])()
    report.config = {"tool_version": __version__, "suite": args.suite}
    return _emit(report, args)


def _tube_box(text: str | None, default: tuple | None = None) -> dict:
    """The box of a tube command: ``--box``, or ``default`` for both t1
    and t2 when there is one and ``--box`` is absent or empty; it must
    cover t1 and t2 and nothing else, as the fiber box is fixed."""
    box = {"t1": default, "t2": default} if default and not text else parse_box(text)
    if "t1" not in box or "t2" not in box:
        raise ValueError("box must cover t1 and t2")
    extra = sorted(box.keys() - {"t1", "t2"})
    if extra:
        raise ValueError(f"box takes only t1 and t2, not {', '.join(extra)}")
    return box


def _cmd_tube(args) -> int:
    """``tube analyze`` takes rho and a box; ``paper-example`` and
    ``profile`` (rho = t2*g(t1/t2)) have a default box."""
    from . import tube
    default = {"analyze": None, "paper-example": (0.02, 0.08),
               "profile": (0.5, 1.0)}[args.tube_command]
    box = _tube_box(args.box, default)
    config = {"tool_version": __version__}
    if args.tube_command == "analyze":
        rho = args.rho
    elif args.tube_command == "paper-example":
        rho = tube.paper_example_rho()
    else:
        rho = tube.ma_profile_solution(args.g)
        config["g"] = args.g
    report = tube.analyze(rho, box, seed=args.seed)
    report.config.update(config, rho=rho if isinstance(rho, str) else to_text(rho))
    return _emit(report, args)


def _declared(flag: str, names, table: VariableTable) -> None:
    for name in names:
        if name not in table:
            raise ValueError(f"--{flag} {name!r} is not a declared variable")


def _cmd_expr(args) -> int:
    table = parse_declarations(args.vars) if args.vars else VariableTable()
    expr = parse(args.expr, table)
    report = Report(f"expression {args.expr_command}")
    report.config = {"tool_version": __version__, "expr": args.expr}
    if args.expr_command == "eval":
        point = parse_bindings(args.at)
        _declared("at", point, table)
        value = evaluate(expr, point)
        report.add("evaluate", True,
                   {"at": {k: str(v) for k, v in point.items()},
                    "value": f"{value.real!r}{value.imag:+}j"})
    elif args.expr_command == "diff":
        _declared("by", [args.by], table)
        d = differentiate(expr, table[args.by])
        report.add("differentiate", True, {"by": args.by, "result": to_text(d)})
    else:  # zero
        box = parse_box(args.box)
        _declared("box", box, table)
        # a paired variable is covered by its partner's interval, as in
        # ``sample_point``
        missing = sorted(v.name for v in free_variables(expr)
                         if v.name not in box and v.partner not in box)
        if missing:
            raise ValueError(f"box must cover {', '.join(missing)}")
        try:
            verdict = is_identically_zero(expr, box, trials=args.trials, seed=args.seed)
            report.add("zero test", True,
                       {"identically_zero": verdict, "trials": args.trials})
        except ZeroTestInconclusiveError as exc:
            report.add("zero test", INCONCLUSIVE, {"reason": str(exc)})
    return _emit(report, args)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="write the report to a file")

    parser = argparse.ArgumentParser(
        prog="crc",
        description="verification and curvature calculator for rank-1 Levi "
                    "degenerate CR structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="homogeneous model suites")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    model_sub.add_parser("verify", parents=[common])

    p_dga = sub.add_parser("dga", help="abstract normalization suites")
    dga_sub = p_dga.add_subparsers(dest="dga_command", required=True)
    p_dga_verify = dga_sub.add_parser("verify", parents=[common])
    p_dga_verify.add_argument("--suite", required=True,
                              choices=DGA_SUITES)

    p_tube = sub.add_parser("tube", help="tube hypersurface pipeline")
    tube_sub = p_tube.add_subparsers(dest="tube_command", required=True)
    p_analyze = tube_sub.add_parser("analyze", parents=[common])
    p_analyze.add_argument("--rho", required=True)
    p_analyze.add_argument("--box", required=True,
                           help="t1=lo:hi,t2=lo:hi")
    p_paper = tube_sub.add_parser("paper-example", parents=[common])
    p_paper.add_argument("--box")
    p_profile = tube_sub.add_parser("profile", parents=[common])
    p_profile.add_argument("--g", required=True,
                           help="profile function of one variable s")
    p_profile.add_argument("--box")
    for p in (p_analyze, p_paper, p_profile):
        p.add_argument("--seed", type=int, default=0)

    p_expr = sub.add_parser("expr", help="scalar expression utilities")
    expr_sub = p_expr.add_subparsers(dest="expr_command", required=True)
    p_eval = expr_sub.add_parser("eval", parents=[common])
    p_eval.add_argument("--at", required=True, help="t1=0.05,t2=0.05")
    p_diff = expr_sub.add_parser("diff", parents=[common])
    p_diff.add_argument("--by", required=True)
    p_zero = expr_sub.add_parser("zero", parents=[common])
    p_zero.add_argument("--box", required=True)
    p_zero.add_argument("--trials", type=int, default=16)
    p_zero.add_argument("--seed", type=int, default=0)
    for p in (p_eval, p_diff, p_zero):
        p.add_argument("--expr", required=True)
        p.add_argument("--vars", default="t1:real,t2:real",
                       help="declarations, e.g. t1:real,u:positive,b~bb")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        for key, value in vars(args).items():
            if value == []:  # argparse drops the value of "--key=--"
                raise ValueError(f"--{key} needs a value")
        trials = getattr(args, "trials", 1)
        if trials <= 0:
            raise ValueError("--trials must be positive")
        if trials > MAX_TRIALS:
            raise ValueError(f"--trials must be at most {MAX_TRIALS}")
        if args.command == "model":
            return _cmd_model_verify(args)
        if args.command == "dga":
            return _cmd_dga_verify(args)
        if args.command == "tube":
            return _cmd_tube(args)
        return _cmd_expr(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ZeroTestInconclusiveError, WorkBudgetError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except RecursionError:
        print("inconclusive: expression nested too deeply to process", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (DomainEvalError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
