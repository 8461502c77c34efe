"""Golden CLI output: every subcommand on the fixtures, in text and --json.

tests/golden/cli.json holds, for each invocation below, the exit code,
stdout and stderr that `weightings.cli.main` produced when the file was
recorded.  The test requires the same bytes today.  Paths in the argv are
relative to the repository root.

To record again after an intended change of output, run

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff of tests/golden/cli.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weightings import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"

_INTRO = ("--file", "fixtures/intro_origin.prob")
_TRANSITION = ("--file", "fixtures/transition_sin_exp.prob")
_W13 = ("--file", "fixtures/adapted_w13.prob")
_ZERO_REPEATED = ("--file", "tests/golden/zero_repeated.prob")

_BASE = (
    ("wdeg",) + _INTRO + ("--expr", "x*y + z^2"),
    ("wdeg",) + _TRANSITION + ("--expr", "x*y^2 + sin(x)*z"),
    ("happrox",) + _INTRO + ("--expr", "sin(x)*exp(y) + z", "--degree", "3"),
    ("happrox",) + _TRANSITION + ("--expr", "exp(x)*y^2 + y*z", "--degree", "4"),
    ("gens",) + _INTRO + ("--degree", "4"),
    ("gens",) + _W13 + ("--degree", "5"),
    ("jet-lift", "--vars", "x,y", "--expr", "(x+y)^3 + x*y", "--level", "3",
     "--order", "3"),
    ("vf-lift", "--vars", "x,y", "--coeffs", "x*y;x^2", "--level", "1",
     "--order", "3"),
    ("nu-trans",) + _TRANSITION,
    ("def-interp",) + _INTRO + ("--expr", "x*y + z^2", "--degree", "3"),
    ("theta",) + _INTRO,
    ("theta",) + _TRANSITION,
    ("blowup",) + _INTRO + ("--center", "z"),
    ("blowup",) + _INTRO + ("--center", "x", "--sign", "-"),
    ("check-q", "--file", "fixtures/antisymmetric_relation.prob"),
    ("check-q", "--file", "fixtures/flag_gap.prob"),
    ("check-q", "--file", "tests/golden/sheared_graph.prob"),
    ("check-q", "--file", "fixtures/chain_shear.prob"),
    ("adapt",) + _W13,
    ("adapt", "--file", "tests/golden/adapt_frame.prob"),
    ("euler-like",) + _INTRO + ("--coeffs", "x;2*y;3*z + x^3"),
    ("euler-like",) + _INTRO + ("--coeffs", "x;2*y + z;3*z"),
    ("scale-order",) + _INTRO + ("--expr", "x^2*y + z^2"),
    ("nilpotent",) + _INTRO,
    ("nilpotent",) + _W13,
    ("total-weight", "--multi", "x=(1,0),y=(0,1),z=(1,1)"),
    # a weight-0 variable and repeated weights
    ("nilpotent",) + _ZERO_REPEATED,
    ("adapt",) + _ZERO_REPEATED,
    ("check-q",) + _ZERO_REPEATED,
    # powers of sums with a weight-0 part, and a head over a designated variable
    ("happrox",) + _TRANSITION + ("--expr", "(1+x+y)^3 + (1+x+y)^-2",
                                  "--degree", "2"),
    ("wdeg",) + _TRANSITION + ("--expr", "exp(x)*(x+y)^3"),
    ("wdeg",) + _TRANSITION + ("--expr", "exp(sin(y))"),
    ("def-interp",) + _TRANSITION + ("--expr", "(1+x)*y^2*z + cos(x)*y^3",
                                     "--degree", "3"),
    # domain and usage errors
    ("adapt",) + _INTRO,
    ("check-q",) + _INTRO,
    ("wdeg",) + _INTRO + ("--expr", "(x*y"),
    ("nu-trans",) + _INTRO,
)

CASES = tuple(argv + extra for argv in _BASE for extra in ((), ("--json",)))


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _recorded() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return {tuple(case["argv"]): case for case in json.load(handle)}


def test_golden_covers_every_subcommand():
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert set(sub.choices) == {argv[0] for argv in CASES}
    assert set(_recorded()) == set(CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = _recorded()[argv]
    got = _run(argv)
    assert got["code"] == expected["code"]
    assert got["stdout"].encode("utf-8") == expected["stdout"].encode("utf-8")
    assert got["stderr"].encode("utf-8") == expected["stderr"].encode("utf-8")


# Run as `python -m weightings.cli`, the module is __main__ and its handlers'
# relative imports resolve through __package__.
_CHILD_CASES = (
    ("gens",) + _INTRO + ("--degree", "4"),
    ("nu-trans",) + _TRANSITION + ("--json",),
    ("check-q", "--file", "fixtures/antisymmetric_relation.prob"),
    ("wdeg",) + _INTRO + ("--expr", "(x*y"),
    ("adapt",) + _INTRO,
)


@pytest.mark.parametrize("argv", _CHILD_CASES, ids=" ".join)
def test_cli_child_process_matches_golden(argv):
    expected = _recorded()[argv]
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    got = subprocess.run([sys.executable, "-m", "weightings.cli", *argv],
                         capture_output=True, env=env, cwd=ROOT, timeout=60)
    assert got.returncode == expected["code"]
    assert got.stdout == expected["stdout"].encode("utf-8")
    assert got.stderr == expected["stderr"].encode("utf-8")


if __name__ == "__main__":
    os.chdir(ROOT)
    cases = [_run(argv) for argv in CASES]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(cases, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(cases)} invocations in {GOLDEN}", file=sys.stderr)
