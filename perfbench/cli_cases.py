"""The `cli` workload: one `python -m weightings.cli` child per op.

Three classes, each a fixed list of invocations taken in turn:
  cli.fixture  every subcommand on fixtures/ or fixed flags, including the
               README examples, whose output must match the README text;
  cli.seeded   every subcommand on problem files and flags whose
               coefficients the seed draws;
  cli.error    usage errors (exit 2) and domain errors (exit 1).
Every invocation's stdout, stderr and exit code must equal those of the
same invocation run in-process, and the exit code must be the one the
case was built to give.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

import workloads as wl
from weightings import cli
from weightings import expr as ex
from weightings import jets as jt

SEEDED_DIR = ".perfbench-out/cli"


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    code: int
    stdout: str | None = None  # exact text, for the README examples


# The examples in README.md, with the output printed there.
README_EXAMPLES = (
    Invocation(("gens", "--weights", "x=1,y=2,z=3", "--degree", "4"), 0,
               "y^2, x*z, x^2*y, x^4, y*z, z^2\n"),
    Invocation(("nu-trans", "--file", "fixtures/transition_sin_exp.prob"), 0,
               "y1 -> sin(y1)\ny2 -> y2\ny3 -> 3*y3 + y1^3*y2^3\n"),
    Invocation(("check-q", "--file", "fixtures/antisymmetric_relation.prob"), 1,
               "FILTRATION_MISMATCH: witness x3 level 3 "
               "(reconstructed dimension 10 vs 9)\n"),
    Invocation(("adapt", "--file", "fixtures/adapted_w13.prob"), 0,
               "x1 = y1\nx2 = y2 - y1^2\nchi[2][2,0] = -1\nc[2,0] = 2\n"),
    Invocation(("blowup", "--weights", "x=1,y=2", "--center", "y"), 0,
               "t = t\nz1 = y1*y2^(-1/2)\nz2 = t*y2^(1/2)\n"),
)

_INTRO = ("--file", "fixtures/intro_origin.prob")
FIXTURE_CASES = README_EXAMPLES + (
    Invocation(("check-q", "--file", "fixtures/flag_gap.prob"), 1),
    Invocation(("wdeg",) + _INTRO + ("--expr", "x*y + z^2"), 0),
    Invocation(("happrox",) + _INTRO + ("--expr", "sin(x)*exp(y) + z", "--degree", "3"), 0),
    Invocation(("def-interp",) + _INTRO + ("--expr", "x*y + z^2", "--degree", "3"), 0),
    Invocation(("theta",) + _INTRO, 0),
    Invocation(("nilpotent",) + _INTRO, 0),
    Invocation(("euler-like",) + _INTRO + ("--coeffs", "x;2*y;3*z + x^3"), 0),
    Invocation(("scale-order",) + _INTRO + ("--expr", "x^2*y + z^2"), 0),
    Invocation(("jet-lift", "--vars", "x,y", "--expr", "(x+y)^3 + x*y", "--level", "3",
                "--order", "3"), 0),
    Invocation(("vf-lift", "--vars", "x,y", "--coeffs", "x*y;x^2", "--level", "1",
                "--order", "3"), 0),
    Invocation(("total-weight", "--multi", "x=(1,0),y=(0,1),z=(1,1)"), 0),
    Invocation(("nu-trans", "--json", "--file", "fixtures/transition_sin_exp.prob"), 0),
)


def _graph_file(Q) -> str:
    lines = ["[graph]", "vars = " + ", ".join(Q.vars), f"order = {Q.order}"]
    lines += [f"{Q.vars[a]} {j} = {jt.jp_text(g, Q.vars)}" for (a, j), g in Q.constraints]
    return "\n".join(lines) + "\n"


def _file(name: str) -> tuple[str, str]:
    return ("--file", f"{SEEDED_DIR}/{name}")


def _weights_block(W) -> list[str]:
    return ["[weights]"] + [f"{v} = {w}" for v, w in zip(W.vars, W.weights)] + [
        f"order = {W.order}"]


def seeded_files(seed: int) -> dict[str, str]:
    """Problem files drawn from the seed, by path relative to the root."""
    rng = random.Random(f"cli:files:{seed}")
    shared: dict = {}
    fr, coords = wl._make_adapt(rng, shared)
    phi, _expected = wl._make_nu(rng, shared)
    taylor = wl._make_taylor(rng, shared)
    poly_W = wl.ADAPT_WEIGHTS
    poly = wl._poly(rng, poly_W.vars, ((1, 1, 0), (0, 0, 1), (2, 1, 0), (0, 2, 1)))
    def_f, _F = wl._make_def(rng, shared)
    frame_lines = [f"V{a + 1} = " + ", ".join(ex.to_text(c) for c in fr.field_exprs(a))
                   for a in range(fr.n)]
    files = {
        "graph.prob": _graph_file(wl._make_sheared(rng, shared)),
        "adapt.prob": "\n".join(
            _weights_block(fr.W) + ["[frame]"] + frame_lines + ["[coords]"]
            + [f"y{a + 1} = {ex.to_text(y)}" for a, y in enumerate(coords)]) + "\n",
        "map.prob": "\n".join(
            _weights_block(phi.source) + ["[map]"]
            + [f"{v} = {ex.to_text(c)}" for v, c in zip(phi.source.vars, phi.components)]) + "\n",
        "taylor.prob": "\n".join(_weights_block(wl.TAYLOR_WEIGHTS)
                                 + ["[map]", f"f = {ex.to_text(taylor)}"]) + "\n",
        "poly.prob": "\n".join(_weights_block(poly_W) + ["[map]", f"f = {ex.to_text(poly)}"]) + "\n",
        "def.prob": "\n".join(_weights_block(wl.DEF_WEIGHTS)
                              + ["[map]", f"f = {ex.to_text(def_f)}"]) + "\n",
        "singular.prob": "\n".join(_weights_block(fr.W) + [
            "[frame]", "V1 = 1, 0, 0", "V2 = 2, 0, 0", "V3 = 0, 0, 1",
            "[coords]", "y1 = x1", "y2 = x2", "y3 = x3"]) + "\n",
        "bad_section.prob": "[graph]\nvars = x1\norder = 1\n[jets]\nx1 0 = 0\n",
        "bad_map.prob": "\n".join(_weights_block(phi.source) + [
            "[map]", "x = x", f"y = {ex.to_text(ex.const(wl._rat(rng)))} + y", "z = z"]) + "\n",
    }
    return {f"{SEEDED_DIR}/{name}": text for name, text in files.items()}


def seeded_cases(seed: int) -> tuple[Invocation, ...]:
    rng = random.Random(f"cli:flags:{seed}")
    lift = ex.to_text(wl._poly(rng, wl.CHART, ((1, 1, 0), (0, 0, 2), (3, 0, 0))))
    coeffs = ";".join(ex.to_text(wl._poly(rng, wl.CHART, m)) for m in wl.VF_MONOMIALS)
    c = [ex.to_text(ex.const(wl._rat(rng))) for _ in range(3)]
    return (
        Invocation(("check-q",) + _file("graph.prob"), 0),
        Invocation(("adapt",) + _file("adapt.prob"), 0),
        Invocation(("nu-trans",) + _file("map.prob"), 0),
        Invocation(("happrox",) + _file("taylor.prob") + ("--degree", "4"), 0),
        Invocation(("wdeg",) + _file("poly.prob"), 0),
        Invocation(("def-interp",) + _file("def.prob") + ("--degree", "3"), 0),
        Invocation(("jet-lift", "--vars", ",".join(wl.CHART), "--expr", lift,
                    "--level", "3", "--order", "3"), 0),
        Invocation(("vf-lift", "--vars", ",".join(wl.CHART), "--coeffs", coeffs,
                    "--level", "1", "--order", "3"), 0),
        Invocation(("euler-like", "--weights", "x=1,y=2", "--coeffs",
                    f"x;2*y + {c[0]}*x^2"), 0),
        Invocation(("scale-order",) + _file("poly.prob") + ("--seed", str(seed % 1000)), 0),
        Invocation(("gens",) + _file("poly.prob") + ("--degree", "5"), 0),
        Invocation(("theta",) + _file("poly.prob"), 0),
        Invocation(("blowup",) + _file("poly.prob") + ("--center", "x2", "--sign", "-"), 0),
        Invocation(("nilpotent",) + _file("poly.prob"), 0),
        Invocation(("total-weight", "--multi", "x=(1,0),y=(0,1),z=(2,1)"), 0),
        Invocation(("check-q", "--json") + _file("graph.prob"), 0),
        Invocation(("def-interp", "--weights", "x=1,y=2", "--expr",
                    f"{c[1]}*x^4 + {c[2]}*x^2*y", "--degree", "4"), 0),
    )


def error_cases(seed: int) -> tuple[Invocation, ...]:
    rng = random.Random(f"cli:errors:{seed}")
    c = [ex.to_text(ex.const(wl._rat(rng))) for _ in range(2)]
    return (
        Invocation((), 2),
        Invocation(("bogus",), 2),
        Invocation(("gens", "--weights", "x=1"), 2),
        Invocation(("jet-lift", "--vars", "x", "--expr", "x"), 2),
        Invocation(("wdeg", "--nope"), 2),
        Invocation(("adapt",) + _INTRO, 2),
        Invocation(("wdeg", "--weights", "x=1", "--expr", f"({c[0]}*x"), 1),
        Invocation(("check-q",) + _file("bad_section.prob"), 1),
        Invocation(("jet-lift", "--vars", "x", "--expr", f"sin({c[1]}*x)", "--level", "1",
                    "--order", "1"), 1),
        Invocation(("adapt",) + _file("singular.prob"), 1),
        Invocation(("def-interp", "--weights", "x=1,y=2", "--expr", f"{c[0]}*x + y^2",
                    "--degree", "2"), 1),
        Invocation(("nu-trans",) + _file("bad_map.prob"), 1),
    )


def in_process(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the same invocation in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def shared_inputs(seed: int) -> dict:
    return {"fixture": FIXTURE_CASES, "seeded": seeded_cases(seed),
            "error": error_cases(seed), "files": seeded_files(seed)}


def _in_turn(key):
    def make(rng, shared):
        cases = shared[key]
        k = shared[key + ":next"] = shared.get(key + ":next", -1) + 1
        return cases[k % len(cases)]
    return make


def cli_classes(spawn) -> list[wl.OpClass]:
    """The op classes; spawn(argv) runs one child and returns its result."""
    expected: dict = {}

    def check(inv: Invocation, res) -> bool:
        if inv.argv not in expected:
            expected[inv.argv] = in_process(inv.argv)
        code, out, err = expected[inv.argv]
        return ((res.code, res.stdout, res.stderr) == (code, out, err)
                and code == inv.code
                and (inv.stdout is None or out == inv.stdout))

    def check_error(inv: Invocation, res) -> bool:
        prefix = "usage error: " if inv.code == 2 else "error: "
        return (check(inv, res) and res.stdout == ""
                and res.stderr.startswith(prefix) and res.stderr.count("\n") == 1)

    def run(inv: Invocation):
        return spawn(inv.argv)

    return [wl.OpClass("cli.fixture", _in_turn("fixture"), run, check),
            wl.OpClass("cli.seeded", _in_turn("seeded"), run, check),
            wl.OpClass("cli.error", _in_turn("error"), run, check_error)]
