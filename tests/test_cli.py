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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crcgeo import cli, model
from crcgeo.report import dumps

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
    # and the final samples skip such points, and the Levi rank is decided
    # exactly, so it needs no point at all
    for t1_box in ("-0.5:1", "-1:0.05"):
        code, payload = _tube_profile_five_halves(t1_box)
        assert code == 0, t1_box
        assert payload["overall"] == "pass"
        assert all(c["status"] == "pass" for c in payload["checks"])
        (levi,) = (c for c in payload["checks"] if c["name"] == "levi rank 1")
        assert levi["details"] == {}
        assert payload["checks"][-1]["details"]["final_coefficient_zero"] == "zero"


@pytest.mark.parametrize("args", [
    ("analyze", "--rho", "t1^2/t2 + i*t1", "--box", "t1=0.5:1,t2=0.5:1"),
    ("profile", "--g", "s^2 + i*s"),
])
def test_tube_refuses_a_defining_function_that_is_not_real(args, capsys):
    assert cli.main(["tube", *args]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: defining function is not real\n"


def test_tube_accepts_a_real_defining_function_written_with_i(capsys):
    # -(i*t1)^2/t2 is the light cone t1^2/t2
    code = cli.main(["tube", "analyze", "--rho=-(i*t1)^2/t2",
                     "--box", "t1=0.5:1,t2=0.5:1"])
    assert code == cli.EXIT_PASS
    assert json.loads(capsys.readouterr().out)["overall"] == "pass"


@pytest.mark.parametrize("target", ("directory", "missing/x.json"))
def test_out_to_an_unwritable_path_is_a_usage_error(tmp_path, target, capsys):
    out = tmp_path if target == "directory" else tmp_path / target
    code = cli.main(["model", "verify", "--out", str(out)])
    reason = "Is a directory" if target == "directory" else "No such file or directory"
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"


def test_tube_analyze_parse_error_exit_code():
    result = run_cli("tube", "analyze", "--rho", "t1 +",
                     "--box", "t1=0.1:1,t2=0.1:1")
    assert result.returncode == 2
    assert "offset" in result.stderr


def _modules_loaded_by_importing_the_cli(*flags, then="pass"):
    """The modules that ``import crcgeo.cli`` loads in a fresh interpreter
    started with ``flags``, and the statement ``then`` after it."""
    probe = ("import sys; before = set(sys.modules); import crcgeo.cli; "
             f"{then}; print(*sorted(set(sys.modules) - before))")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *flags, "-c", probe], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert "crcgeo.cli" in loaded
    return loaded


def test_cli_imports_only_the_standard_library():
    # crcgeo has no runtime dependency: every module that importing the
    # CLI loads in a fresh interpreter is crcgeo's own or the stdlib's
    loaded = _modules_loaded_by_importing_the_cli()
    allowed = sys.stdlib_module_names | {"crcgeo"}
    assert [name for name in loaded if name.partition(".")[0] not in allowed] == []
    # records are typing.NamedTuple or plain classes: dataclasses would load
    # inspect and through it dis, ast and tokenize, about 12 ms of start-up
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def test_cli_import_loads_no_path_library():
    # the model chart is declared in code, not read from a file: without
    # site, which preloads pathlib, nothing should load it and what it pulls in
    loaded = _modules_loaded_by_importing_the_cli("-S")
    assert {"pathlib", "urllib.parse", "ipaddress", "fnmatch"}.isdisjoint(loaded)


def test_expr_loads_no_exterior_algebra():
    # each command imports what it runs: an expression job needs the kernel,
    # the parser and the report, not the forms layer or the workloads on it
    for command in (["eval", "--at", "t1=1"], ["diff", "--by", "t1"],
                    ["zero", "--box", "t1=1:2"]):
        argv = ["expr", *command, "--expr", "t1^(1/2)", "--out", os.devnull]
        loaded = _modules_loaded_by_importing_the_cli(
            then=f"assert crcgeo.cli.main({argv!r}) == 0")
        assert {"crcgeo.forms", "crcgeo.model", "crcgeo.dga",
                "crcgeo.tube"}.isdisjoint(loaded), command


def test_tube_loads_no_dga_suites():
    # the tube reads the model's structure equations from ``model``, not
    # through the dga suites built on them
    argv = ["tube", "paper-example", "--out", os.devnull]
    loaded = _modules_loaded_by_importing_the_cli(
        then=f"assert crcgeo.cli.main({argv!r}) == 0")
    assert {"crcgeo.tube", "crcgeo.model"} <= set(loaded)
    assert "crcgeo.dga" not in loaded


def test_expr_zero_is_inconclusive_where_every_term_underflows(capsys):
    # 10^-400 is 0.0 in floating point: each sampled point has value 0 and
    # scale 0, which says nothing about the expression
    code = cli.main(["expr", "zero", "--expr", "t1^(1/2)/10^400", "--box", "t1=1:2"])
    assert code == cli.EXIT_INCONCLUSIVE
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] == "inconclusive"
    assert payload["checks"][0]["status"] == "inconclusive"
    assert payload["checks"][0]["details"]["reason"].startswith(
        "every term is 0 (underflow) at the sampled points")


@pytest.mark.parametrize("text, reason", [
    # sqrt(t1-2) is undefined on the whole box
    ("sqrt(t1-2)", "all sampled points hit singularities; zero test inconclusive"),
    # the radicals are undefined below t1 = 0.98: 3 of 16 points are found
    ("((t1-0.98)+2*(t1-0.98)^(1/2)+1)^(1/2) - (t1-0.98)^(1/2) - 1",
     "only 3/16 sample points were admissible"),
], ids=["singularities", "too_few"])
def test_expr_zero_names_why_the_sampler_is_inconclusive(text, reason, capsys):
    assert cli.main(["expr", "zero", "--expr", text, "--box", "t1=0:1"]) == cli.EXIT_INCONCLUSIVE
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert (check["status"], check["details"]) == ("inconclusive", {"reason": reason})


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
    # a non-finite bound turns every comparison into "zero"
    result = run_cli("tube", "analyze", "--rho", "t1^2+t2^2", "--box", "t1=0.1:inf,t2=0.1:1")
    assert result.returncode == 2
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize("command", (("tube", "paper-example", "--tol", "1e-8"),
                                     ("tube", "paper-example", "--trials", "32"),
                                     ("tube", "analyze", "--rho", "t1^2/t2",
                                      "--box", "t1=0.5:1,t2=0.5:1", "--trials", "8"),
                                     ("expr", "zero", "--expr", "t1", "--box", "t1=1:2",
                                      "--tol", "1e-9")))
def test_removed_sampler_options_are_usage_errors(command):
    # the tube commands take the seed as their only sampler setting, and the
    # zero test's tolerance is relative to the terms' scale
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(list(command)) == cli.EXIT_USAGE
    assert "unrecognized arguments: --t" in err.getvalue()


def test_trials_over_budget_exit_code():
    # a billion sample points would run for hours; refused before any work
    for trials, message in (("1000000000", f"at most {cli.MAX_TRIALS}"), ("0", "positive")):
        result = run_cli("expr", "zero", "--expr", "sqrt(t1^2)-t1", "--box", "t1=0.1:1",
                         "--trials", trials, timeout=15)
        assert result.returncode == 2, trials
        assert result.stderr == f"error: --trials must be {message}\n"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["expr", "zero", "--expr", "sqrt(t1^2)-t1", "--box", "t1=0.1:1",
                         "--trials", str(cli.MAX_TRIALS)]) == 0


@pytest.mark.parametrize("command", (("analyze", "--rho", "t1^2+t2^2"),
                                     ("paper-example",), ("profile", "--g", "s^2")))
def test_tube_box_must_cover_t1_and_t2(command):
    result = run_cli("tube", *command, "--box", "t1=0.02:0.08")
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
    result = run_cli("expr", "eval", "--expr", "(" * 2000 + "t1" + ")" * 2000,
                     "--at", "t1=1")
    assert result.returncode == 3
    assert result.stderr.startswith("inconclusive:")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_expr_flat_long_input_is_evaluated_and_differentiated(capsys):
    # a run of one operator is one node however long, so it nests nothing
    flat_sum, flat_product = "+".join(["t1"] * 3000), "*".join(["t1"] * 3000)
    assert cli.main(["expr", "eval", "--expr", flat_sum, "--at", "t1=1"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["details"]["value"] \
        == "3000.0+0.0j"
    assert cli.main(["expr", "diff", "--expr", flat_product, "--by", "t1"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["details"]["result"] \
        == "3000*t1^2999"


def test_expr_diff_power_of_sum_over_work_budget_is_inconclusive():
    # a power of a sum whose expansion exceeds the work budget ends at once
    for text in ("(1+t1)^100000", "(1+t1+t2)^(2001/2)"):
        result = run_cli("expr", "diff", "--expr", text, "--by", "t1", timeout=15)
        assert result.returncode == 3, text
        assert result.stderr.startswith("inconclusive:")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr


def test_expr_flat_product_of_sums_over_work_budget_is_inconclusive(capsys):
    # a flat product expands factor by factor, under the budget of a power
    assert cli.main(["expr", "diff", "--expr", "*".join(["(t1-t2)"] * 3000),
                     "--by", "t1"]) == 3
    assert capsys.readouterr() == ("", "inconclusive: a product of 3000 factors exceeds "
                                       "the work budget of 200000 monomial products\n")


def test_expr_diff_coefficient_power_over_work_budget_is_inconclusive():
    # a power of a monomial whose coefficient would outgrow the bit budget
    for text in ("(2*t1)^20000", "2^(40001/2)"):
        result = run_cli("expr", "diff", "--expr", text, "--by", "t1", timeout=15)
        assert result.returncode == 3, text
        assert result.stderr.startswith("inconclusive:")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr


def test_expr_diff_checks_the_coefficient_budget_only_on_growing_powers(capsys):
    # 10^2000 + 1 keeps a cofactor of about 6,600 bits past the trial
    # division: its first and minus-first powers do not grow, its cube does
    for power, code in (("3/2", cli.EXIT_PASS), ("-1/2", cli.EXIT_PASS),
                        ("7/2", cli.EXIT_INCONCLUSIVE)):
        argv = ["expr", "diff", "--expr", f"(10^2000+1)^({power})*t1", "--by", "t1",
                "--out", os.devnull]
        assert cli.main(argv) == code, power
    assert capsys.readouterr().err == (
        "inconclusive: raising a coefficient to the power 3 exceeds the work "
        "budget of 6000 bits\n")


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


def test_expr_zero_finds_a_product_of_negative_radicands_nonzero(capsys):
    # both radicands are positive on the box, where the sum is 2
    assert cli.main(["expr", "zero", "--expr", "(x*y)^(1/2) + (-x)^(1/2)*(-y)^(1/2)",
                     "--vars", "x:real,y:real", "--box", "x=-2:-1,y=-2:-1"]) == 0
    details = json.loads(capsys.readouterr().out)["checks"][0]["details"]
    assert details["identically_zero"] is False


def test_expr_zero_inconclusive_exit_code():
    # the box lies entirely inside the singular locus of the expression;
    # 100*t1^307 + t1 is inf on its whole box, and a non-finite point is no
    # zero, nor is one where t1^2 underflows to 0 under a negative power
    for text, box in (("sqrt(t1-2)", "t1=0.1:1,t2=0.1:1"),
                      ("100*t1^307 + t1", "t1=10:10.01"),
                      ("t1^(-2)+t2", "t1=1e-200:2e-200,t2=0:1")):
        result = run_cli("expr", "zero", "--expr", text, "--box", box, "--trials", "4")
        assert result.returncode == 3, text
        assert result.stderr == ""


def test_expr_zero_reads_a_monomial_as_nonzero_without_sampling(capsys):
    # one monomial of variables vanishes on no open set, however small, as
    # t1/10^20, or however large, as 100*t1^307, inf on its box
    for text, box in (("t1/10^20", "t1=1:2"), ("100*t1^307", "t1=10:10.01")):
        assert cli.main(["expr", "zero", "--expr", text, "--box", box]) == 0, text
        details = json.loads(capsys.readouterr().out)["checks"][0]["details"]
        assert details["identically_zero"] is False, text


def test_expr_zero_refuses_a_positive_variable_sampled_below_zero(capsys):
    # the identity holds wherever x > 0; a box reaching below 0 is an input
    # error, as a negative point is for `expr eval`
    args = ["expr", "zero", "--expr", "((x+1)^2)^(1/2) - x - 1", "--vars", "x:positive"]
    assert cli.main([*args, "--box", "x=-3:-2"]) == 2
    assert capsys.readouterr().err == "error: x must be positive, got interval [-3.0, -2.0]\n"
    assert cli.main([*args, "--box", "x=0.5:2"]) == 0
    details = json.loads(capsys.readouterr().out)["checks"][0]["details"]
    assert details["identically_zero"] is True


@pytest.mark.parametrize("text", ["u", "u-u", "u+1"])
def test_expr_zero_refuses_a_positive_variable_below_zero_whichever_route_answers(
        text, capsys):
    # the monomial rule would answer u, and the normal form u-u, unsampled
    assert cli.main(["expr", "zero", "--expr", text, "--vars", "u:positive",
                     "--box", "u=-2:-1"]) == 2
    assert capsys.readouterr() == ("", "error: u must be positive, got interval [-2.0, -1.0]\n")


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


def test_expr_zero_is_relative_to_the_terms_scale(capsys):
    # a sampled point reads as zero when its value is small against the sum
    # of its terms' moduli, whatever their common size
    for text, box, zero in (("t1/10^20 + t2/10^20", "t1=1:2,t2=1:2", False),
                            ("t1^(1/2)/10^20", "t1=1:2", False),
                            ("sqrt(t1^2)/10^200 - t1/10^200", "t1=1:2", True)):
        assert cli.main(["expr", "zero", "--expr", text, "--box", box]) == 0, text
        details = json.loads(capsys.readouterr().out)["checks"][0]["details"]
        assert details["identically_zero"] is zero, text


def _strip_timing(payload):
    if isinstance(payload, dict):
        return {k: _strip_timing(v) for k, v in payload.items() if k != "timing_s"}
    if isinstance(payload, list):
        return [_strip_timing(v) for v in payload]
    return payload


def test_reports_are_deterministic():
    a = run_cli("tube", "analyze", "--rho", "t1^2/t2",
                "--box", "t1=0.5:1,t2=0.5:1", "--seed", "4")
    b = run_cli("tube", "analyze", "--rho", "t1^2/t2",
                "--box", "t1=0.5:1,t2=0.5:1", "--seed", "4")
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
    # the golden is byte for byte what the command writes, less the timing
    result = run_cli("dga", "verify", "--suite", suite)
    payload = dumps(_strip_timing(json.loads(result.stdout))) + "\n"
    assert payload.encode() == (GOLDEN.parent / f"dga_{suite}.json").read_bytes()


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
       bound=st.sampled_from(_NUMBERS),
       by=st.sampled_from(("t1", "t2", "t3")), box_t2=st.booleans(),
       at=st.sampled_from(("0.3", "1e-200", "1e200")), t3=st.booleans())
def test_expr_commands_end_with_a_contract_exit_code(text, command, bound, by, box_t2, at, t3):
    box = f"t1={bound}:1" + (",t2=0.1:1" if box_t2 else "") + (",t3=0:1" if t3 else "")
    extra = {"eval": ["--at", f"t1={at},t2=0.7" + (",t3=1" if t3 else "")],
             "diff": ["--by", by],
             "zero": ["--box", box, "--trials", "4"]}[command]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["expr", command, f"--expr={text}", *extra])
    assert code in (0, 1, 2, 3)
    if command == "zero" and not math.isfinite(bound):
        assert code == 2
    # t3 is undeclared; text holding t2 either fails to parse or has t2 free
    if (command == "diff" and by == "t3") or (command != "diff" and t3):
        assert code == 2
    if command == "zero" and not box_t2 and "t2" in text:
        assert code == 2


_FLAT_OPERANDS = ("t1", "t2", "2", ".5", "0", "sqrt(t1)", "t1^2", "(t1-t2)", "t2^(-1)")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(count=st.one_of(st.integers(1, 40), st.integers(1, 3000)),
       operands=st.lists(st.sampled_from(_FLAT_OPERANDS), min_size=1, max_size=3),
       operators=st.lists(st.sampled_from("+-*/"), min_size=1, max_size=3),
       command=st.sampled_from(("eval", "diff", "zero")))
@example(count=3000, operands=["t1"], operators=["+"], command="eval")
def test_flat_runs_end_with_a_contract_exit_code(count, operands, operators, command):
    # a run of up to 3000 operands joined by +, -, * and / in a cycle
    text = operands[0] + "".join(operators[k % len(operators)] + operands[(k + 1) % len(operands)]
                                 for k in range(count - 1))
    extra = {"eval": ["--at", "t1=1,t2=0.7"], "diff": ["--by", "t1"],
             "zero": ["--box", "t1=0.1:1,t2=0.1:1", "--trials", "4"]}[command]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["expr", command, f"--expr={text}", *extra])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if set(operands) == {"t1"} and set(operators) == {"+"} and command == "eval":
        assert code == 0
        assert json.loads(out.getvalue())["checks"][0]["details"]["value"] \
            == f"{float(count)!r}+0.0j"
