import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weightings import cli, wpoly as wp
from weightings.cli import _build_parser, main, parse_invocation
from weightings.expr import parse_expr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_invocation():
    cmd = parse_invocation(["gens", "--weights", "x=1,y=2,z=3",
                            "--degree", "4"])
    assert cmd.name == "gens"
    assert cmd.options["weights"] == "x=1,y=2,z=3"
    assert cmd.options["degree"] == 4
    cmd2 = parse_invocation(["wdeg", "--weights", "x=1", "--expr", "x^2"])
    assert cmd2.name == "wdeg"


def test_usage_errors_exit_2(capsys):
    code, _out, err = run(["gens"], capsys)
    assert code == 2 and "weights" in err
    code, _out, err = run(["no-such-command"], capsys)
    assert code == 2
    code, _out, err = run([], capsys)
    assert code == 2


def test_domain_errors_exit_1(capsys):
    code, _out, err = run(["wdeg", "--weights", "x=1", "--expr", "sin(x)"],
                          capsys)
    assert code == 1 and "not polynomial" in err
    code, _out, err = run(["gens", "--weights", "x=1,y", "--degree", "2"],
                          capsys)
    assert code == 1 and "malformed" in err


def test_gens_text_and_exit_0(capsys):
    code, out, _err = run(["gens", "--weights", "x=1,y=2,z=3",
                           "--degree", "4"], capsys)
    assert code == 0
    assert out.strip() == "y^2, x*z, x^2*y, x^4, y*z, z^2"


def test_wdeg(capsys):
    code, out, _err = run(["wdeg", "--weights", "x=1", "--expr", "x^2"],
                          capsys)
    assert code == 0 and out.strip() == "2"


def test_byte_determinism(capsys):
    args = ["nilpotent", "--weights", "x=1,y=1,z=2", "--json"]
    _code, first, _ = run(args, capsys)
    _code, second, _ = run(args, capsys)
    assert first == second
    args2 = ["gens", "--weights", "x=1,y=2,z=3", "--degree", "4"]
    _code, third, _ = run(args2, capsys)
    _code, fourth, _ = run(args2, capsys)
    assert third == fourth


def test_json_envelope_and_round_trip(capsys):
    code, out, _err = run(["happrox", "--weights", "x=1,y=2", "--expr",
                           "x^2 + 1/2*x*y + y^2", "--degree", "2", "--json"],
                          capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["op"] == "happrox"
    assert envelope["version"] == "1"
    terms = {tuple(item["exponents"]): parse_expr(item["coefficient"])
             for item in envelope["result"]["terms"]}
    rebuilt = wp.wpoly(tuple(envelope["result"]["vars"]), terms)
    expected = wp.poly_normal_form(parse_expr("x^2"), ("x", "y"))
    assert rebuilt == expected


def test_rational_coefficients_reduced(capsys):
    code, out, _err = run(["happrox", "--weights", "x=1", "--expr", "3/6*x",
                           "--degree", "1"], capsys)
    assert code == 0 and out.strip() == "1/2*x"


def test_nu_trans_fixture(capsys):
    code, out, _err = run(["nu-trans", "--file",
                           str(FIXTURES / "transition_sin_exp.prob")], capsys)
    assert code == 0
    assert out.splitlines() == ["y1 -> sin(y1)", "y2 -> y2",
                                "y3 -> 3*y3 + y1^3*y2^3"]


def test_check_q_fixtures(capsys):
    code, out, _err = run(["check-q", "--file",
                           str(FIXTURES / "antisymmetric_relation.prob")],
                          capsys)
    assert code == 1
    assert "FILTRATION_MISMATCH" in out and "x3 level 3" in out
    assert "10 vs 9" in out
    code, out, _err = run(["check-q", "--file",
                           str(FIXTURES / "flag_gap.prob")], capsys)
    assert code == 1 and "FLAG_INVALID" in out
    code, out, _err = run(["check-q", "--file",
                           str(FIXTURES / "antisymmetric_relation.prob"),
                           "--json"], capsys)
    envelope = json.loads(out)
    assert envelope["result"]["verdict"] == "rejected"
    assert envelope["result"]["reason"] == "FILTRATION_MISMATCH"
    code, out, _err = run(["check-q", "--file",
                           str(FIXTURES / "chain_shear.prob")], capsys)
    assert code == 0
    assert out == "accepted: weights x1=1,x2=3,x3=5\n"


def test_check_q_accepts_standard(tmp_path, capsys):
    path = tmp_path / "standard.prob"
    path.write_text("[graph]\nvars = x, y\norder = 2\n"
                    "x 0 = 0\ny 0 = 0\ny 1 = 0\n")
    code, out, _err = run(["check-q", "--file", str(path), "--json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["verdict"] == "weighting"
    assert envelope["result"]["weights"] == [1, 2]


def test_adapt_fixture(capsys):
    code, out, _err = run(["adapt", "--file",
                           str(FIXTURES / "adapted_w13.prob")], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "x2 = y2 - y1^2" in lines
    assert "chi[2][2,0] = -1" in lines
    assert "c[2,0] = 2" in lines


def test_problem_file_rejects_unknown_sections(tmp_path, capsys):
    path = tmp_path / "bad.prob"
    path.write_text("[mystery]\nkey = 1\n")
    code, _out, err = run(["check-q", "--file", str(path)], capsys)
    assert code == 1 and "unknown section" in err


def test_blowup_and_theta_text(capsys):
    code, out, _err = run(["blowup", "--weights", "x=1,y=2", "--center", "y"],
                          capsys)
    assert code == 0
    assert "z1 = y1*y2^(-1/2)" in out
    assert "z2 = t*y2^(1/2)" in out
    code, out, _err = run(["theta", "--weights", "x=1,y=2"], capsys)
    assert code == 0
    assert out.strip() == "(t) d/d[t] + (-y1) d/d[y1] + (-2*y2) d/d[y2]"


def test_scale_order_deterministic(capsys):
    args = ["scale-order", "--weights", "x=1,y=2", "--expr", "x*y",
            "--seed", "3"]
    _code, first, _ = run(args, capsys)
    _code, second, _ = run(args, capsys)
    assert first == second and "order ~ 3.0000" in first


def test_euler_like_and_total_weight(capsys):
    code, out, _err = run(["euler-like", "--weights", "x=1,y=2",
                           "--coeffs", "x; 2*y + x^3"], capsys)
    assert code == 0 and out.strip() == "true"
    code, out, _err = run(["total-weight", "--multi", "x=(1,1),y=(1,0)"],
                          capsys)
    assert code == 0 and out.strip() == "y=1,x=2"


def test_jet_lift_command(capsys):
    code, out, _err = run(["jet-lift", "--vars", "x", "--expr", "x^3",
                           "--level", "3", "--order", "3"], capsys)
    assert code == 0
    assert out.strip() == "6*x.0*x.1*x.2 + 3*x.0^2*x.3 + x.1^3"


_SUCCESS_INVOCATIONS = {
    "wdeg": ["wdeg", "--weights", "x=1,y=2", "--expr", "x*y"],
    "happrox": ["happrox", "--weights", "x=1,y=2", "--expr", "x^2 + y",
                "--degree", "2"],
    "gens": ["gens", "--weights", "x=1,y=2", "--degree", "2"],
    "jet-lift": ["jet-lift", "--vars", "x,y", "--expr", "x*y",
                 "--level", "2", "--order", "2"],
    "vf-lift": ["vf-lift", "--vars", "x,y", "--coeffs", "0; x",
                "--level", "1", "--order", "2"],
    "nu-trans": ["nu-trans", "--file",
                 str(FIXTURES / "transition_sin_exp.prob")],
    "def-interp": ["def-interp", "--weights", "x=1,y=2", "--expr", "x*y",
                   "--degree", "3"],
    "theta": ["theta", "--weights", "x=1,y=2"],
    "blowup": ["blowup", "--weights", "x=1,y=2", "--center", "y"],
    "check-q": ["check-q", "--file", str(FIXTURES / "adapted_w13.prob")],
    "adapt": ["adapt", "--file", str(FIXTURES / "adapted_w13.prob")],
    "euler-like": ["euler-like", "--weights", "x=1,y=2",
                   "--coeffs", "x; 2*y"],
    "scale-order": ["scale-order", "--weights", "x=1,y=2", "--expr", "x"],
    "nilpotent": ["nilpotent", "--weights", "x=1,y=2"],
    "total-weight": ["total-weight", "--multi", "x=(1,0),y=(0,1)"],
}

_USAGE_INVOCATIONS = {
    "wdeg": ["wdeg", "--expr", "x"],
    "happrox": ["happrox", "--weights", "x=1", "--expr", "x"],
    "gens": ["gens", "--degree", "2"],
    "jet-lift": ["jet-lift", "--expr", "x", "--level", "1", "--order", "1"],
    "vf-lift": ["vf-lift", "--vars", "x", "--level", "1", "--order", "1"],
    "nu-trans": ["nu-trans"],
    "def-interp": ["def-interp", "--weights", "x=1", "--expr", "x"],
    "theta": ["theta"],
    "blowup": ["blowup", "--weights", "x=1"],
    "check-q": ["check-q"],
    "adapt": ["adapt"],
    "euler-like": ["euler-like", "--weights", "x=1"],
    "scale-order": ["scale-order", "--weights", "x=1"],
    "nilpotent": ["nilpotent"],
    "total-weight": ["total-weight"],
}


@pytest.mark.parametrize("command", sorted(_SUCCESS_INVOCATIONS))
def test_exit_code_zero_on_success(command, capsys, tmp_path):
    argv = _SUCCESS_INVOCATIONS[command]
    if command == "check-q":
        path = tmp_path / "standard.prob"
        path.write_text("[graph]\nvars = x, y\norder = 1\nx 0 = 0\ny 0 = 0\n")
        argv = ["check-q", "--file", str(path)]
    code, out, _err = run(argv, capsys)
    assert code == 0 and out.strip()


@pytest.mark.parametrize("command", sorted(_USAGE_INVOCATIONS))
def test_exit_code_two_on_missing_flags(command, capsys):
    code, _out, err = run(_USAGE_INVOCATIONS[command], capsys)
    assert code == 2 and err


@pytest.mark.parametrize("argv", [
    ["wdeg", "--weights", "x=1"],
    ["jet-lift", "--vars", "x", "--level", "1", "--order", "1"],
])
def test_deeply_nested_expression_is_one_line_error(argv, capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    code, out, err = run(argv + ["--expr", deep], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: parentheses nested deeper than 100 levels")
    assert err.count("\n") == 1


def test_key_error_message_has_no_stray_quotes(capsys):
    code, out, err = run(["blowup", "--weights", "x=1,y=2", "--center", "q"],
                         capsys)
    assert (code, out, err) == (1, "", "error: unknown variable 'q'\n")


def _child_env():
    """This environment with the checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


_LOADED_BY_MAIN = """\
import contextlib, io, json, sys
before = set(sys.modules)
from weightings import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(
    m for m in sys.modules if m.startswith("weightings.")
    or (m in ("dataclasses", "inspect") and m not in before))]))
"""


def _loaded_by_main(argv):
    """(exit code, modules loaded) of main(argv) in a child: the weightings
    modules, and dataclasses and inspect when main loaded them."""
    result = subprocess.run([sys.executable, "-c", _LOADED_BY_MAIN, *argv],
                            capture_output=True, text=True, env=_child_env(),
                            cwd=FIXTURES.parent, timeout=60, check=True)
    code, modules = json.loads(result.stdout)
    return code, {m.removeprefix("weightings.") for m in modules} - {"cli"}


def test_cli_loads_only_what_the_subcommand_runs():
    assert _loaded_by_main(["wdeg", "--nope"]) == (2, set())
    assert _loaded_by_main(["total-weight", "--multi", "x=(1,0),y=(0,1)"]) \
        == (0, {"weights"})
    code, loaded = _loaded_by_main(["wdeg", "--weights", "x=1",
                                    "--expr", "x^2"])
    assert code == 0 and not loaded & {"jets", "subbundle", "spaces"}
    code, loaded = _loaded_by_main(["nu-trans", "--file",
                                    "fixtures/transition_sin_exp.prob"])
    assert code == 0 and "spaces" in loaded
    assert not loaded & {"jets", "subbundle"}


def test_no_subcommand_loads_dataclasses_or_inspect():
    golden = Path(__file__).resolve().parent / "golden" / "cli.json"
    first = {}
    for case in json.loads(golden.read_text()):
        first.setdefault(case["argv"][0], case)
    assert set(first) == set(cli._COMMANDS)
    for case in first.values():
        code, loaded = _loaded_by_main(case["argv"])
        assert code == case["code"]
        assert not loaded & {"dataclasses", "inspect"}, case["argv"]


def test_closed_stdout_ends_in_one_error_line():
    # About 180 kB of generators, more than a pipe holds, so the child is
    # still writing when the reader closes its end.
    child = subprocess.Popen(
        [sys.executable, "-m", "weightings.cli", "gens",
         "--weights", "x=1,y=1,z=1", "--degree", "150"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert child.stdout.read(50).startswith(b"z^150, y*z^149, ")
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == 1
    assert err == b"error: output closed by the reader\n"


@pytest.mark.parametrize("argv, printed", [
    # y^e above the requested degree vanishes after a few products
    (["--weights", "y=1", "--degree", "2", "--expr", "y^1000000000"], b"0\n"),
    # x has weight 0: the base is constant in the designated variables
    (["--file", str(FIXTURES / "transition_sin_exp.prob"), "--degree", "0",
      "--expr", "x^1000000000"], b"x^1000000000\n"),
], ids=["truncated", "weight-0-base"])
def test_huge_power_does_not_run_all_products(argv, printed):
    result = subprocess.run(
        [sys.executable, "-m", "weightings.cli", "happrox", *argv],
        capture_output=True, env=_child_env(), timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (0, printed, b"")


def test_power_of_a_base_with_a_constant_term_has_an_exponent_budget():
    result = subprocess.run(
        [sys.executable, "-m", "weightings.cli", "happrox", "--weights", "y=1",
         "--degree", "2", "--expr", "(1+y)^300000"],
        capture_output=True, env=_child_env(), timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (
        1, b"", b"error: exponent 300000 of a base with a constant term "
                b"exceeds the limit MAX_EXPANDED_POWER = 1000\n")


@pytest.mark.parametrize("expr, code, out, err", [
    # a power of a one-term base is one term, not 99999999 products
    ("x^99999999", 0, b"99999999\n", b""),
    ("2^99999999999", 1, b"", b"error: constant power with exponent "
     b"99999999999 exceeds the limit MAX_CONSTANT_BITS = 100000\n"),
], ids=["one-term-base", "constant-bits"])
def test_wdeg_of_a_huge_power_ends_at_once(expr, code, out, err):
    result = subprocess.run(
        [sys.executable, "-m", "weightings.cli", "wdeg", "--weights", "x=1",
         "--expr", expr], capture_output=True, env=_child_env(), timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


@pytest.mark.parametrize("argv, code, out, err", [
    # exact: each of the products would grow the polynomial
    (["wdeg", "--expr", "(x+y)^99999999"], 1, b"",
     b"error: exponent 99999999 of a base with two or more terms exceeds "
     b"the limit MAX_EXPANDED_POWER = 1000\n"),
    # truncated: with no constant part the powers leave degree 3 at once
    (["happrox", "--degree", "3", "--expr", "(x+y)^99999999"], 0, b"0\n", b""),
], ids=["exact", "truncated"])
def test_huge_power_of_a_sum_without_a_constant_ends_at_once(argv, code, out,
                                                            err):
    result = subprocess.run(
        [sys.executable, "-m", "weightings.cli", *argv, "--weights", "x=1,y=1"],
        capture_output=True, env=_child_env(), timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


@pytest.mark.parametrize("expr, level, code, out, err", [
    # level 0 of x + 2 has two terms and is never truncated
    ("(x+2)^100000000", "0", 1, b"", b"error: exponent 100000000 of a base "
     b"with two or more terms exceeds the limit MAX_EXPANDED_POWER = 1000\n"),
    # level 0 of x is one term: square-and-multiply stays small
    ("x^1000000000", "2", 0, b"499999999500000000*x.0^999999998*x.1^2 + "
     b"1000000000*x.0^999999999*x.2\n", b""),
], ids=["two-term-level-0", "one-term-level-0"])
def test_jet_lift_of_a_huge_power_ends_at_once(expr, level, code, out, err):
    result = subprocess.run(
        [sys.executable, "-m", "weightings.cli", "jet-lift", "--vars", "x",
         "--expr", expr, "--level", level, "--order", level],
        capture_output=True, env=_child_env(), timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


def test_adapt_refuses_a_pole_on_the_base(tmp_path, capsys):
    path = tmp_path / "pole.prob"
    path.write_text("[weights]\nx1 = 1\nx2 = 3\n\n[frame]\nV1 = 1, 0\n"
                    "V2 = 0, 1\n\n[coords]\ny1 = x1\n"
                    "y2 = x2 + x1^2 + x1^-1*x2^2\n")
    assert run(["adapt", "--file", str(path)], capsys) == (
        1, "", "error: negative power with vanishing constant term is not "
               "analytic in the positive-weight variables\n")


def test_nu_trans_refuses_a_symbol_named_like_a_graded_coordinate(
        tmp_path, capsys):
    path = tmp_path / "clash.prob"
    path.write_text("[weights]\nx = 1\ny = 1\n\n[map]\nx = x + y1*y\n"
                    "y = y\n")
    assert run(["nu-trans", "--file", str(path)], capsys) == (
        1, "", "error: symbol 'y1' is not a variable of the weighting but is "
               "named like a chart coordinate\n")


@pytest.mark.parametrize("argv", [
    # float overflow of the power itself
    ["--weights", "x=1", "--expr", "x^-400"],
    # each factor is finite, their product is inf
    ["--weights", "x=1,y=1", "--expr", "x^-80*y^-80"],
    ["--weights", "x=1,y=1", "--expr", "x^-80*y^-80", "--json"],
    # sin of an infinite argument is nan
    ["--weights", "x=1,y=1", "--expr", "sin(x^-80*y^-80)"],
], ids=["overflow", "infinite", "infinite-json", "sin-of-infinity"])
def test_scale_order_without_a_finite_sample_is_one_error_line(argv, capsys):
    assert run(["scale-order", *argv], capsys) == (
        1, "", "error: samples along the dilation are zero, poles or not "
               "finite (degenerate direction)\n")


def test_scale_order_resamples_a_base_point_at_a_pole(capsys):
    # seed 31 draws x = 1/2 first, a pole of (x - 1/2)^-1
    code, out, err = run(["scale-order", "--weights", "x=0,y=1", "--expr",
                          "(x - 1/2)^-1*y", "--seed", "31", "--json"], capsys)
    assert (code, err) == (0, "")
    assert abs(json.loads(out)["result"]["order"] - 1) < 1e-9


_LINEAR_SHEAR_200 = ("[graph]\nvars = x1, x2\norder = 200\n"
                     "x1 0 = 0\nx2 0 = 0\nx2 1 = x1.1\n")
_LAMBDA_GRAPH_1E8 = ("[graph]\nvars = x1, x2\norder = 100000000\n"
                     "x1 0 = 0\nx2 0 = 0\nx2 1 = 0\nx2 2 = x1.2\n")


@pytest.mark.parametrize("graph, code, printed", [
    (_LINEAR_SHEAR_200, 0, b"accepted: weights x1=1,x2=2\n"),
    ((FIXTURES / "antisymmetric_relation.prob").read_text()
     .replace("order = 4", "order = 60"), 1,
     b"FILTRATION_MISMATCH: witness x3 level 3 "
     b"(reconstructed dimension 178 vs 177)\n"),
    ((FIXTURES / "antisymmetric_relation.prob").read_text()
     .replace("order = 4", "order = 100000000"), 1,
     b"FILTRATION_MISMATCH: witness x3 level 3 "
     b"(reconstructed dimension 299999998 vs 299999997)\n"),
    (_LAMBDA_GRAPH_1E8, 1, b"LAMBDA_INVARIANCE: slot x2.2 moves off the graph "
                           b"under a generic reparametrization\n"),
], ids=["accepted-order-200", "antisymmetric-order-60",
        "antisymmetric-order-1e8", "lambda-order-1e8"])
def test_check_q_at_high_order_ends(graph, code, printed, tmp_path):
    # Reparametrization runs only to name a rejection, and check_weighting
    # reads the graph rows at most one level above the highest constrained
    # level, so a high order costs no symbolic series and no rows.
    path = tmp_path / "graph.prob"
    path.write_text(graph)
    result = subprocess.run(
        [sys.executable, "-m", "weightings.cli", "check-q", "--file", str(path)],
        capture_output=True, env=_child_env(), timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (code, printed,
                                                                 b"")


_WEIGHTS = ("--weights", None, None, None, "assignments like x=1,y=2,z=3")
_VARS = ("--vars", None, None, None, "chart variables, comma separated")
_EXPR = ("--expr", None, None, None, "expression text")
_COEFFS = ("--coeffs", None, None, None,
           "vector field coefficients, ';' separated")
_DEGREE = ("--degree", int, None, None, "weighted degree")
_LEVEL = ("--level", int, None, None, "prolongation level")
_ORDER = ("--order", int, None, None, "truncation order r")
_FILE = ("--file", None, None, None, "problem file path")
_JSON = ("--json", None, False, None, "JSON output")

# Per subcommand, its options in parser order: (option string, type,
# default, choices, help).
_OPTION_TABLE = {
    "wdeg": [_WEIGHTS, _EXPR, _ORDER, _FILE, _JSON],
    "happrox": [_WEIGHTS, _EXPR, _DEGREE, _ORDER, _FILE, _JSON],
    "gens": [_WEIGHTS, _DEGREE, _ORDER, _FILE, _JSON],
    "jet-lift": [_VARS, _EXPR, _LEVEL, _ORDER, _JSON],
    "vf-lift": [_VARS, _COEFFS, _LEVEL, _ORDER, _JSON],
    "nu-trans": [_FILE, _JSON],
    "def-interp": [_WEIGHTS, _EXPR, _DEGREE, _ORDER, _FILE, _JSON],
    "theta": [_WEIGHTS, _ORDER, _FILE, _JSON],
    "blowup": [_WEIGHTS, _ORDER, _FILE,
               ("--center", None, None, None, "center variable"),
               ("--sign", None, "+", ["+", "-"], None), _JSON],
    "check-q": [_FILE, _JSON],
    "adapt": [_FILE, _JSON],
    "euler-like": [_WEIGHTS, _COEFFS, _ORDER, _FILE, _JSON],
    "scale-order": [_WEIGHTS, _EXPR, _ORDER, _FILE,
                    ("--seed", int, 0, None, None), _JSON],
    "nilpotent": [_WEIGHTS, _ORDER, _FILE, _JSON],
    "total-weight": [_ORDER, _FILE,
                     ("--multi", None, None, None,
                      "assignments like x=(1,0),y=(0,1)"), _JSON],
}


def _subcommands(parser):
    """Subcommand name -> subparser of a parser from _build_parser."""
    choices, = (action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))
    return choices


def test_option_table_of_every_subcommand():
    subcommands = _subcommands(_build_parser())
    assert list(subcommands) == list(_OPTION_TABLE)
    for name, sub in subcommands.items():
        options = [(a.option_strings[0], a.type, a.default, a.choices, a.help)
                   for a in sub._actions if a.option_strings != ["-h", "--help"]]
        assert options == _OPTION_TABLE[name], name
        assert all(len(a.option_strings) == 1 for a in sub._actions[1:])


@pytest.mark.parametrize("command", [[], *([name] for name in _OPTION_TABLE)],
                         ids=["top", *_OPTION_TABLE])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: weightings")


def test_gens_of_a_high_degree_ends():
    # The walk visits the 100001 heads x^k and solves for the exponent of y.
    result = subprocess.run(
        [sys.executable, "-m", "weightings.cli", "gens", "--weights", "x=1,y=1",
         "--degree", "100000"],
        capture_output=True, text=True, env=_child_env(), timeout=30)
    assert (result.returncode, result.stderr) == (0, "")
    gens = result.stdout.rstrip("\n").split(", ")
    assert len(gens) == 100001
    assert result.stdout.startswith("y^100000, x*y^99999")
    assert result.stdout.endswith("x^100000\n")


@pytest.mark.parametrize("argv, err", [
    # 501501 generators: the walk stops at its 200000th head
    (["gens", "--weights", "x=1,y=1,z=1", "--degree", "1000"],
     "error: degree 1000 has more candidate generators than the limit "
     "MAX_GENERATOR_CANDIDATES = 200000\n"),
    # a few generators, but about 5e9 heads to walk
    (["gens", "--weights", "x=1,y=1,z=1000", "--degree", "100000"],
     "error: degree 100000 has more candidate generators than the limit "
     "MAX_GENERATOR_CANDIDATES = 200000\n"),
    # sin(x) to degree 100000 would not end in minutes
    (["happrox", "--weights", "x=1", "--degree", "100000", "--expr", "sin(x)"],
     "error: degree 100000 exceeds the limit MAX_TAYLOR_DEGREE = 1000\n"),
    (["happrox", "--weights", "x=1", "--degree", "1001", "--expr", "x"],
     "error: degree 1001 exceeds the limit MAX_TAYLOR_DEGREE = 1000\n"),
], ids=["gens-output", "gens-walk", "happrox-sin", "happrox-1001"])
def test_an_oversized_degree_ends_at_its_limit(argv, err):
    result = subprocess.run([sys.executable, "-m", "weightings.cli", *argv],
                            capture_output=True, text=True, env=_child_env(),
                            timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (1, "", err)


def test_happrox_at_the_degree_limit(capsys):
    assert run(["happrox", "--weights", "x=1", "--degree", "1000", "--expr",
                "x^1000 + sin(x)"], capsys) == (0, "x^1000\n", "")


@pytest.mark.parametrize("argv, err", [
    (["vf-lift", "--vars", "x,x", "--coeffs", "x;1", "--level", "0",
      "--order", "1"], "duplicate variable names"),
    (["jet-lift", "--vars", "x,x", "--expr", "x^2", "--level", "1",
      "--order", "1"], "duplicate variable names"),
    (["vf-lift", "--vars", "x,", "--coeffs", "x;1", "--level", "0",
      "--order", "1"], "empty variable name"),
    (["jet-lift", "--vars", "x,", "--expr", "x^2", "--level", "1",
      "--order", "1"], "empty variable name"),
    (["jet-lift", "--vars", "x, ,y", "--expr", "x*y", "--level", "0",
      "--order", "1"], "empty variable name"),
], ids=["vf-repeat", "jet-repeat", "vf-empty", "jet-empty", "jet-blank"])
def test_lifts_refuse_repeated_or_empty_names(argv, err, capsys):
    assert run(argv, capsys) == (1, "", f"error: {err}\n")


@pytest.mark.parametrize("keys", [("y 2", "y 02"), ("y 02", "y 2"),
                                  ("y 2", "y  2")])
def test_check_q_refuses_a_slot_constrained_twice(keys, tmp_path, capsys):
    path = tmp_path / "twice.prob"
    first, second = keys
    path.write_text("[graph]\nvars = x, y\norder = 2\nx 0 = 0\ny 0 = 0\n"
                    f"y 1 = 0\n{first} = x.2\n{second} = 2*x.2\n")
    assert run(["check-q", "--file", str(path)], capsys) == (
        1, "", "error: slot y.2 is constrained twice\n")


@pytest.mark.parametrize("rhs, err", [
    ("x.1^-1", "not polynomial in designated variables: x.1^-1"),
    ("sin(x.1)", "not polynomial in designated variables: sin(x.1)"),
    ("y.1", "right-hand side for slot y.1 uses constrained slot y.1"),
    ("x.2", "right-hand side for slot y.1 is not homogeneous of degree 1"),
    ("x.1 x.1", "unexpected trailing input 'x.1' (at position 4)"),
    ("x.1 + $", "unexpected character '$' (at position 6)"),
    ("z.1", "unknown slot 'z.1'"),
])
def test_check_q_names_slots_as_written(rhs, err, tmp_path, capsys):
    path = tmp_path / "graph.prob"
    path.write_text(f"[graph]\nvars = x, y\norder = 2\ny 1 = {rhs}\n")
    assert run(["check-q", "--file", str(path)], capsys) == (
        1, "", f"error: {err}\n")


ADAPT_CLASH = """[weights]
s = 0
x = 1
y = 3
order = 3

[frame]
V1 = 1, 0, 0
V2 = 0, 1, 0
V3 = 0, 0, 1

[coords]
{} = s
{} = x
{} = y + s*x^2
"""


def test_adapt_refuses_a_coordinate_named_like_a_symbol(tmp_path, capsys):
    path = tmp_path / "clash.prob"
    path.write_text(ADAPT_CLASH.format("x", "s", "y"))
    assert run(["adapt", "--file", str(path)], capsys) == (
        1, "", "error: coordinate name 's' is a weight-0 variable or a "
               "symbol outside the weighting\n")
    path.write_text(ADAPT_CLASH.format("a", "b", "c"))
    code, out, _err = run(["adapt", "--file", str(path)], capsys)
    assert code == 0 and "x3 = c - s*b^2" in out.splitlines()
    # an empty [coords] key printed "x3 = c - s*^2"
    path.write_text(ADAPT_CLASH.format("a", "", "c"))
    assert run(["adapt", "--file", str(path)], capsys) == (
        1, "", "error: empty variable name\n")


BAD_ENTRY = """[weights]
x = 1
y = 3

[map]
x = {map_x}
y = y

[frame]
V1 = 1, 0
V2 = {frame_v2}

[coords]
y1 = x
y2 = {coords_y2}
"""


@pytest.mark.parametrize("command, entry, text, err", [
    ("nu-trans", "map_x", "x + $", "[map] x: unexpected character '$' "
                                   "(at position 4)"),
    ("nu-trans", "map_x", "sin(x", "[map] x: expected ')' (at position 5)"),
    ("adapt", "frame_v2", "0, (1", "[frame] V2: expected ')' (at position 3)"),
    ("adapt", "frame_v2", "0, 1 1",
     "[frame] V2: unexpected trailing input '1' (at position 3)"),
    ("adapt", "coords_y2", "y + *", "[coords] y2: unexpected token '*' "
                                    "(at position 4)"),
    ("adapt", "coords_y2", "foo(x)",
     "[coords] y2: unknown function 'foo' (at position 0)"),
], ids=["map-char", "map-paren", "frame-paren", "frame-trailing",
        "coords-token", "coords-function"])
def test_a_problem_file_parse_error_names_its_section_and_key(
        command, entry, text, err, tmp_path, capsys):
    values = {"map_x": "x", "frame_v2": "0, 1", "coords_y2": "y", entry: text}
    path = tmp_path / "bad.prob"
    path.write_text(BAD_ENTRY.format(**values))
    assert run([command, "--file", str(path)], capsys) == (
        1, "", f"error: {err}\n")


@pytest.mark.parametrize("command", [
    ["wdeg"], ["happrox", "--degree", "1"], ["def-interp", "--degree", "1"],
    ["scale-order"],
])
def test_the_single_map_entry_names_itself_when_it_fails_to_parse(
        command, tmp_path, capsys):
    path = tmp_path / "f.prob"
    path.write_text("[map]\nf = x + $\n")
    assert run(command + ["--weights", "x=1", "--file", str(path)], capsys) == (
        1, "", "error: [map] f: unexpected character '$' (at position 4)\n")


@pytest.mark.parametrize("coeffs, err", [
    ("sin(t)*x;x", "not polynomial in designated variables: sin(t)"),
    ("x;t^-1", "not polynomial in designated variables: t^-1"),
])
def test_vf_lift_refuses_a_non_polynomial_coefficient(coeffs, err, capsys):
    assert run(["vf-lift", "--vars", "t,x", "--coeffs", coeffs, "--level", "1",
                "--order", "2"], capsys) == (1, "", f"error: {err}\n")


# ---------------------------------------------------------------------------
# a named subcommand builds its own subparser only

def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), which --help exits."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parser_calls(monkeypatch, build):
    """Route cli._build_parser(only) to build(only), recording each only."""
    calls = []
    monkeypatch.setattr(cli, "_build_parser",
                        lambda only=None: calls.append(only) or build(only))
    return calls


@pytest.mark.parametrize("name", list(_OPTION_TABLE))
def test_a_named_subcommand_reads_as_with_every_parser(name, capsys,
                                                       monkeypatch):
    assert list(_subcommands(_build_parser(name))) == [name]
    argv = _SUCCESS_INVOCATIONS[name]
    calls = _parser_calls(monkeypatch, _build_parser)
    cmd = parse_invocation(argv)
    assert calls == [name]
    full = _build_parser().parse_args(argv)
    assert (cmd.name, cmd.options) == (name, vars(full))
    int_options = [option for option, kind, *_ in _OPTION_TABLE[name]
                   if kind is int]
    cases = [[name, "--help"], _USAGE_INVOCATIONS[name], [name, "--bogus"],
             *([name, option, "x"] for option in int_options[:1])]
    on_demand = [_outcome(argv, capsys) for argv in cases]
    assert all(code == 2 for code, _out, _err in on_demand[1:])
    _parser_calls(monkeypatch, lambda only: _build_parser())
    assert [_outcome(argv, capsys) for argv in cases] == on_demand


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--help"], ["-h", "wdeg"]],
                         ids=["bare", "unknown", "help", "help-first"])
def test_without_a_named_subcommand_every_subparser_is_built(argv, capsys,
                                                             monkeypatch):
    calls = _parser_calls(monkeypatch, _build_parser)
    code, out, err = _outcome(argv, capsys)
    assert calls == [None]
    if not argv:
        assert (code, out, err) == (
            2, "", "usage error: a command is required\n")
    else:  # help lists every subcommand, and so does an invalid choice
        assert all(name in out + err for name in _OPTION_TABLE)
