"""CLI: dispatch, exit codes, deterministic JSON reports, pass-through of
module-level reports."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcgeo import cli, model

GOLDEN = Path(__file__).parent / "golden" / "model_verify.json"


def run_cli(*args, timeout=None, env=None):
    result = subprocess.run(
        [sys.executable, "-m", "crcgeo.cli", *args],
        capture_output=True, text=True, timeout=timeout,
        env=None if env is None else {**os.environ, **env})
    return result


def test_model_verify_passes():
    result = run_cli("model", "verify")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["overall"] == "pass"
    assert len(payload["checks"]) == 37  # 25 entries + 12 component formulas


def test_dga_suites_pass():
    for suite in ("shifts", "equivariance", "cartan", "flat"):
        result = run_cli("dga", "verify", "--suite", suite)
        assert result.returncode == 0, (suite, result.stderr)


def test_tube_analyze_rejects_degenerate():
    result = run_cli("tube", "analyze", "--rho", "t1^2/2",
                     "--box", "t1=0.1:1,t2=0.1:1")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["overall"] == "fail"
    assert [c["name"] for c in payload["checks"]] == [
        "hypothesis:monge_ampere", "hypothesis:positivity",
        "hypothesis:twonondegenerate"]


@pytest.mark.parametrize("command, undecided", [
    # rho is undefined on the negative box: the zero test has no point
    (("analyze", "--rho", "t1^(3/2)+t2^(3/2)", "--box", "t1=-2:-1,t2=-2:-1"),
     "hypothesis:monge_ampere"),
    # rho11 is undefined at every sampled point of t1 < 0
    (("profile", "--g", "s^(5/2)", "--box", "t1=-1:-0.5,t2=0.5:1"),
     "hypothesis:positivity"),
], ids=["monge_ampere", "positivity"])
def test_tube_undecided_hypothesis_is_inconclusive(command, undecided):
    result = run_cli("tube", *command)
    assert result.returncode == 3
    payload = json.loads(result.stdout)
    assert payload["overall"] == "inconclusive"
    assert payload["checks"][-1]["name"] == undecided
    assert payload["checks"][-1]["status"] == "inconclusive"


def _tube_profile_five_halves(t1_box):
    result = run_cli("tube", "profile", "--g", "s^(5/2)", "--box", f"t1={t1_box},t2=0.5:1")
    assert not result.stderr
    return result.returncode, json.loads(result.stdout)


def test_tube_levi_check_skips_points_where_the_hessian_is_undefined():
    # rho = t1^(5/2)*t2^(-3/2) has no Hessian where t1 < 0; the hypotheses
    # and the final samples skip such points, and so does the Levi check
    code, payload = _tube_profile_five_halves("-0.5:1")
    assert code == 0
    assert payload["overall"] == "pass"
    assert all(c["status"] == "pass" for c in payload["checks"])
    (levi,) = (c for c in payload["checks"] if c["name"] == "levi rank 1 at sampled points")
    assert levi["details"] == {"points": 3,
                               "max_relative_smallest_eigenvalue": 4.5287791881750415e-19}
    assert payload["checks"][-1]["details"]["final_coefficient_zero"] == "zero"
    # no admissible Levi point: the check is inconclusive, the analysis goes on
    code, payload = _tube_profile_five_halves("-1:0.05")
    assert code == 3
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses.pop("levi rank 1 at sampled points") == "inconclusive"
    assert set(statuses.values()) == {"pass"}
    (levi,) = (c for c in payload["checks"] if c["name"] == "levi rank 1 at sampled points")
    assert levi["details"] == {"points": 0, "max_relative_smallest_eigenvalue": None}


def test_tube_analyze_parse_error_exit_code():
    result = run_cli("tube", "analyze", "--rho", "t1 +",
                     "--box", "t1=0.1:1,t2=0.1:1")
    assert result.returncode == 2
    assert "offset" in result.stderr


def test_cli_imports_only_the_standard_library():
    # crcgeo has no runtime dependency: every module that importing the
    # CLI loads in a fresh interpreter is crcgeo's own or the stdlib's
    probe = ("import sys; before = set(sys.modules); import crcgeo.cli; "
             "print(*sorted(set(sys.modules) - before))")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert "crcgeo.cli" in loaded
    allowed = sys.stdlib_module_names | {"crcgeo"}
    assert [name for name in loaded if name.partition(".")[0] not in allowed] == []


def test_usage_error_exit_code():
    result = run_cli("tube", "analyze")
    assert result.returncode == 2
    # argparse hands "--at=--" over as an empty list, not as text
    result = run_cli("expr", "eval", "--expr", "t1", "--at=--")
    assert result.returncode == 2
    assert result.stderr.startswith("error:")


def test_bad_box_exit_code():
    for box in ("t1=1:0", ""):
        result = run_cli("tube", "analyze", "--rho", "t1^2/t2", "--box", box)
        assert result.returncode == 2, box
    # a non-finite bound or tolerance turns every comparison into "zero"
    for box, tol in (("t1=0.1:inf,t2=0.1:1", "1e-8"), ("t1=0.1:1,t2=0.1:1", "nan"),
                     ("t1=0.1:1,t2=0.1:1", "inf")):
        result = run_cli("tube", "analyze", "--rho", "t1^2+t2^2", "--box", box,
                         "--tol", tol)
        assert result.returncode == 2, (box, tol)
        assert result.stderr.startswith("error:")


def test_trials_over_budget_exit_code():
    # a billion sample points would run for hours; refused before any work
    for command in (("expr", "zero", "--expr", "sqrt(t1^2)-t1", "--box", "t1=0.1:1"),
                    ("tube", "paper-example")):
        result = run_cli(*command, "--trials", "1000000000", timeout=15)
        assert result.returncode == 2, command
        assert result.stderr == f"error: --trials must be at most {cli.MAX_TRIALS}\n"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["expr", "zero", "--expr", "sqrt(t1^2)-t1", "--box", "t1=0.1:1",
                         "--trials", str(cli.MAX_TRIALS)]) == 0


@pytest.mark.parametrize("command", (("analyze", "--rho", "t1^2+t2^2"),
                                     ("paper-example",), ("profile", "--g", "s^2")))
def test_tube_box_must_cover_t1_and_t2(command):
    result = run_cli("tube", *command, "--box", "t1=0.02:0.08", "--trials", "4")
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: box must cover t1 and t2\n"


@pytest.mark.parametrize("entry", ("u=-1:-0.5", "zz=0:1"))
def test_tube_box_takes_only_t1_and_t2(entry):
    # the fiber box of u and the other coordinates is fixed; a box entry
    # for u would sample the positive u at negative values
    result = run_cli("tube", "analyze", "--rho", "t1^2/t2",
                     "--box", f"t1=0.5:1,t2=0.5:1,{entry}")
    assert result.returncode == 2, result.stderr
    name = entry.partition("=")[0]
    assert result.stderr == f"error: box takes only t1 and t2, not {name}\n"


def test_expr_eval_and_diff():
    result = run_cli("expr", "diff", "--expr", "t1^2/t2", "--by", "t1")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["checks"][0]["details"]["result"] == "2*t1*t2^(-1)"

    result = run_cli("expr", "eval", "--expr", "sqrt(1-12*t1*t2)",
                     "--at", "t1=0.05,t2=0.05")
    assert result.returncode == 0


def test_expr_eval_deep_input_is_inconclusive_without_traceback():
    result = run_cli("expr", "eval", "--expr", "+".join(["t1"] * 3000),
                     "--at", "t1=1")
    assert result.returncode == 3
    assert result.stderr.startswith("inconclusive:")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_expr_diff_power_of_sum_over_work_budget_is_inconclusive():
    # a power of a sum whose expansion exceeds the work budget ends at once
    for text in ("(1+t1)^100000", "(1+t1+t2)^(2001/2)"):
        result = run_cli("expr", "diff", "--expr", text, "--by", "t1", timeout=15)
        assert result.returncode == 3, text
        assert result.stderr.startswith("inconclusive:")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr


def test_expr_diff_coefficient_power_over_work_budget_is_inconclusive():
    # a power of a monomial whose coefficient would outgrow the bit budget
    for text in ("(2*t1)^20000", "2^(40001/2)"):
        result = run_cli("expr", "diff", "--expr", text, "--by", "t1", timeout=15)
        assert result.returncode == 3, text
        assert result.stderr.startswith("inconclusive:")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr


def test_expr_diff_coefficient_past_print_limit_is_inconclusive():
    # each factor is within the power budget; their product has more
    # digits than an int may be printed with
    result = run_cli("expr", "diff", "--expr", "2^5000*2^5000*2^5000*t1",
                     "--by", "t1", timeout=15)
    assert result.returncode == 3
    assert result.stderr.startswith("inconclusive:")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_expr_eval_overflow_is_an_input_error():
    # the second value overflows to inf without an OverflowError; in the
    # third, t1^2 underflows to 0
    for text, at in (("2^(1/2)*(10^400)^(1/2)", "t1=1"),
                     ("100*t1^307", "t1=10.005"), ("t1^(-2)", "t1=1e-200")):
        result = run_cli("expr", "eval", "--expr", text, "--at", at)
        assert result.returncode == 2, text
        assert result.stderr.startswith("error:")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


def test_expr_zero_subcommand():
    result = run_cli("expr", "zero",
                     "--expr", "(t1+t2)^2 - t1^2 - 2*t1*t2 - t2^2",
                     "--box", "t1=0.1:1,t2=0.1:1")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["checks"][0]["details"]["identically_zero"] is True


def test_expr_zero_inconclusive_exit_code():
    # the box lies entirely inside the singular locus of the expression;
    # 100*t1^307 is inf on its whole box, and a non-finite point is no
    # zero, nor is one where t1^2 underflows to 0 under a negative power
    for text, box in (("sqrt(t1-2)", "t1=0.1:1,t2=0.1:1"),
                      ("100*t1^307", "t1=10:10.01"),
                      ("t1^(-2)+t2", "t1=1e-200:2e-200,t2=0:1")):
        result = run_cli("expr", "zero", "--expr", text, "--box", box, "--trials", "4")
        assert result.returncode == 3, text
        assert result.stderr == ""


def test_expr_zero_refuses_a_pole_beside_a_zero_factor_in_either_order():
    for text in ("(x-x)*(x-x)^(-1)", "(x-x)^(-1)*(x-x)"):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["expr", "zero", "--expr", text, "--vars", "x:real",
                             "--box", "x=0:1"])
        assert (code, err.getvalue()) == (2, "error: zero raised to a negative power\n"), text


def test_expr_zero_term_modulus_overflow_is_inconclusive():
    # each term's parts are finite but its modulus is past the float range,
    # so no point of the box is admissible
    result = run_cli("expr", "zero", "--expr", "(1+i)*t1+t1^2",
                     "--box", "t1=1.5e308:1.7e308")
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout)["overall"] == "inconclusive"


def test_expr_diff_by_an_undeclared_name_is_an_input_error():
    result = run_cli("expr", "diff", "--expr", "t1", "--by", "t3")
    assert result.returncode == 2
    assert result.stderr == "error: --by 't3' is not a declared variable\n"


def test_expr_at_and_box_names_must_be_declared():
    # a name missing from --vars is a typo; a declared but unused one is fine
    for command, flag, value in (("eval", "--at", "t1=1,x=2"),
                                 ("zero", "--box", "t1=0:1,zz=0:1")):
        result = run_cli("expr", command, "--expr", "t1", flag, value)
        name = value.split(",")[1].split("=")[0]
        assert (result.returncode, result.stderr) == (
            2, f"error: {flag} {name!r} is not a declared variable\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["expr", "eval", "--expr", "t1", "--at", "t1=1,t2=2"]) == 0
        assert cli.main(["expr", "zero", "--expr", "t1-t1", "--box",
                         "t1=0:1,t2=0:1"]) == 0


def test_expr_zero_box_must_cover_the_expression_variables():
    result = run_cli("expr", "zero", "--expr", "t1-t2", "--box", "t1=0.1:1")
    assert result.returncode == 2
    assert result.stderr == "error: box must cover t2\n"
    # a paired variable is covered by its partner's interval
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["expr", "zero", "--expr", "b*bb-t1", "--vars", "t1:real,b~bb",
                         "--box", "t1=0.1:1,bb=0.1:1"]) == 0
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(["expr", "zero", "--expr", "b*bb-t1", "--vars", "t1:real,b~bb",
                         "--box", "b=0.1:1"]) == 2
    assert err.getvalue() == "error: box must cover t1\n"


def test_out_file_option(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("expr", "diff", "--expr", "t1^2", "--by", "t1",
                     "--out", str(out))
    assert result.returncode == 0
    assert result.stdout == ""
    payload = json.loads(out.read_text())
    assert payload["overall"] == "pass"


def _strip_timing(payload):
    if isinstance(payload, dict):
        return {k: _strip_timing(v) for k, v in payload.items() if k != "timing_s"}
    if isinstance(payload, list):
        return [_strip_timing(v) for v in payload]
    return payload


def test_reports_are_deterministic():
    a = run_cli("tube", "analyze", "--rho", "t1^2/t2",
                "--box", "t1=0.5:1,t2=0.5:1", "--trials", "8", "--seed", "4")
    b = run_cli("tube", "analyze", "--rho", "t1^2/t2",
                "--box", "t1=0.5:1,t2=0.5:1", "--trials", "8", "--seed", "4")
    pa = _strip_timing(json.loads(a.stdout))
    pb = _strip_timing(json.loads(b.stdout))
    assert json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)


def test_output_does_not_depend_on_the_process():
    # nodes hash by identity and strings by PYTHONHASHSEED, both of which
    # change from one interpreter to the next
    radical = "t2*(1-12*t1*t2)^(-3/4)/(1-(1-12*t1*t2)^(1/2))"
    for args in (("dga", "verify", "--suite", "cartan"),
                 ("expr", "diff", "--expr", radical, "--by", "t1")):
        a, b = (run_cli(*args, "--format", "text", env={"PYTHONHASHSEED": seed})
                for seed in ("1", "2"))
        assert a.returncode == b.returncode == 0, args
        assert a.stdout == b.stdout, args


def test_cli_surfaces_module_report_unaltered():
    result = run_cli("dga", "verify", "--suite", "equivariance")
    payload = json.loads(result.stdout)
    from crcgeo import dga
    module_report = dga.verify_equivariance()
    assert _strip_timing(payload["checks"]) == \
        _strip_timing([c.to_dict() for c in module_report.checks])


def test_golden_model_verify():
    result = run_cli("model", "verify")
    payload = _strip_timing(json.loads(result.stdout))
    golden = _strip_timing(json.loads(GOLDEN.read_text()))
    assert payload == golden


@pytest.mark.parametrize("suite", ["shifts", "equivariance", "cartan", "flat"])
def test_golden_dga_verify(suite):
    result = run_cli("dga", "verify", "--suite", suite)
    payload = _strip_timing(json.loads(result.stdout))
    golden = json.loads((GOLDEN.parent / f"dga_{suite}.json").read_text())
    assert payload == golden


def test_text_format():
    result = run_cli("model", "verify", "--format", "text")
    assert result.returncode == 0
    assert "overall: pass" in result.stdout


def test_parse_box_helper():
    box = cli.parse_box("t1=0.02:0.08, t2=0.1:0.2")
    assert box == {"t1": (0.02, 0.08), "t2": (0.1, 0.2)}
    with pytest.raises(ValueError):
        cli.parse_box("t1=3:1")
    with pytest.raises(ValueError):
        cli.parse_box("")
    for text in ("t1=0:inf", "t1=-inf:0", "t1=0:1e400"):
        with pytest.raises(ValueError):
            cli.parse_box(text)


def test_parse_bindings_helper():
    assert cli.parse_bindings("t1=0.5, t2=1+2j") == {"t1": 0.5, "t2": 1 + 2j}
    # a malformed entry is named in the error; a name may be bound once
    for text, message in (("t1", "bad binding 't1'"), ("t1=abc", "'t1=abc'"),
                          ("t1=1,t1=2", "'t1' is given twice")):
        with pytest.raises(ValueError, match=message):
            cli.parse_bindings(text)
    with pytest.raises(ValueError, match="'t1' is given twice"):
        cli.parse_box("t1=0:1,t1=2:3")
    result = run_cli("expr", "eval", "--expr", "t1", "--at", "t1")
    assert (result.returncode, result.stderr) == (
        2, "error: bad binding 't1'; expected name=value\n")


def test_bad_box_bound_names_the_entry():
    result = run_cli("expr", "zero", "--expr", "t1", "--box", "t1=a:1")
    assert (result.returncode, result.stderr) == (
        2, "error: bad box entry 't1=a:1'; bounds must be numbers\n")


def test_empty_binding_name_names_the_entry():
    result = run_cli("expr", "eval", "--expr", "t1", "--at", "=1")
    assert (result.returncode, result.stderr) == (
        2, "error: bad binding '=1'; expected name=value\n")


def test_parse_declarations_helper():
    table = cli.parse_declarations("t1:real,u:positive,b~bb,lam:imaginary,a:unit")
    assert table["b"].partner == "bb"
    assert table["a"].reality == "unit_modulus"


_GRAMMAR_PIECES = ("t1", "t2", "x", "i", "sqrt(", "0", "1", "2", "9", ".5",
                   "+", "-", "*", "/", "^", "(", ")", ",", " ", "/\\", "@", "\\")


_NUMBERS = (1e-9, 0.0, -1.0, math.nan, math.inf, -math.inf)

_WELL_FORMED = ("t1-t2", "t1*t2^2", "1/t2", "sqrt(t1*t2)+1", "t1^2", "t1^(-2)")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.one_of(st.sampled_from(_WELL_FORMED),
                      st.lists(st.sampled_from(_GRAMMAR_PIECES), max_size=14).map("".join)),
       command=st.sampled_from(("eval", "diff", "zero")),
       tol=st.sampled_from(_NUMBERS), bound=st.sampled_from(_NUMBERS),
       by=st.sampled_from(("t1", "t2", "t3")), box_t2=st.booleans(),
       at=st.sampled_from(("0.3", "1e-200", "1e200")), t3=st.booleans())
def test_expr_commands_end_with_a_contract_exit_code(text, command, tol, bound, by, box_t2,
                                                     at, t3):
    box = f"t1={bound}:1" + (",t2=0.1:1" if box_t2 else "") + (",t3=0:1" if t3 else "")
    extra = {"eval": ["--at", f"t1={at},t2=0.7" + (",t3=1" if t3 else "")],
             "diff": ["--by", by],
             "zero": ["--box", box, "--trials", "4", "--tol", str(tol)]}[command]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["expr", command, f"--expr={text}", *extra])
    assert code in (0, 1, 2, 3)
    if command == "zero" and not (math.isfinite(tol) and math.isfinite(bound)):
        assert code == 2
    # t3 is undeclared; text holding t2 either fails to parse or has t2 free
    if (command == "diff" and by == "t3") or (command != "diff" and t3):
        assert code == 2
    if command == "zero" and not box_t2 and "t2" in text:
        assert code == 2
