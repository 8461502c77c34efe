"""Command-line interface.

One subcommand per library operation group; inputs come from flags or from a
problem file with INI-style sections ([weights], [map], [graph], [frame],
[coords]).  Output is canonical text by default or a versioned JSON envelope
with --json.  Exit codes: 0 success, 1 domain error (including a rejected
weighting check), 2 usage error.

One command table, ``_COMMANDS``, gives each subcommand its handler, help and
option keys in ``_OPTIONS``; the parser and ``execute`` both read it.  A
process enters through ``run()``, which freezes the heap after ``main()`` so
that the collection at interpreter exit, milliseconds of a short run, skips
it; ``main()``, the in-process API, leaves the collector alone.  --help
shows this docstring up to this paragraph.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from collections.abc import Sequence

JSON_SCHEMA_VERSION = "1"


class UsageError(ValueError):
    pass


class Command:
    """A parsed invocation: the subcommand name and its option values."""

    __slots__ = ("name", "options")

    def __init__(self, name: str, options: dict):
        self.name = name
        self.options = options


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_flag(text: str) -> int:
    """An integer flag by the rule of ``_parse_int``, refused as int() is."""
    if not text.removeprefix("-").isdecimal():
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


# option key -> add_argument keywords of --key, in the order a subcommand
# lists its options; every subcommand takes --json after them
_OPTIONS = {
    "weights": {"help": "assignments like x=1,y=2,z=3"},
    "vars": {"help": "chart variables, comma separated"},
    "expr": {"help": "expression text"},
    "coeffs": {"help": "vector field coefficients, ';' separated"},
    "degree": {"type": _int_flag, "help": "weighted degree"},
    "level": {"type": _int_flag, "help": "prolongation level"},
    "order": {"type": _int_flag, "help": "truncation order r"},
    "file": {"help": "problem file path"},
    "center": {"help": "center variable"},
    "sign": {"default": "+", "choices": ["+", "-"]},
    "seed": {"type": _int_flag, "default": 0},
    "multi": {"help": "assignments like x=(1,0),y=(0,1)"},
}


def _build_parser(only: str | None = None) -> _Parser:
    """The parser of every subcommand, or of the subcommand `only` alone."""
    parser = _Parser(prog="weightings",
                     description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    commands = _COMMANDS if only is None else {only: _COMMANDS[only]}
    for name, (_handler, help_text, keys) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for key, kwargs in _OPTIONS.items():
            if key in keys.split():
                p.add_argument(f"--{key}", **kwargs)
        p.add_argument("--json", action="store_true", help="JSON output")
    return parser


def parse_invocation(argv: Sequence[str]) -> Command:
    argv = list(argv)
    # a named subcommand parses, helps and fails in its own subparser only
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    namespace = parser.parse_args(argv)
    if namespace.command is None:
        raise UsageError("a command is required")
    return Command(namespace.command, vars(namespace))


# ---------------------------------------------------------------------------
# problem files

_SECTIONS = ("weights", "map", "graph", "frame", "coords")
_SLOT_RE = r"([A-Za-z_][A-Za-z0-9_]*)\.(\d+)"


def parse_problem_file(text: str) -> dict[str, dict]:
    sections: dict[str, dict] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ValueError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ValueError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ValueError(f"line {lineno}: content before any section")
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in sections[current]:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = value
    return sections


def _weights_from_sections(sections, options):
    """The WeightSequence from --weights or the [weights] section."""
    from . import weights as wt
    if options.get("weights"):
        pairs = wt.parse_weight_assignments(options["weights"])
        order = options.get("order")
        return wt.weight_sequence(pairs, order)
    if "weights" in sections:
        body = dict(sections["weights"])
        order = body.pop("order", None)
        pairs = [(name, _parse_int("weights", name, value))
                 for name, value in body.items()]
        if not pairs:
            raise ValueError("[weights] section has no assignments")
        return wt.weight_sequence(pairs, options.get("order") if order is None
                                  else _parse_int("weights", "order", order))
    raise UsageError("missing --weights (or a [weights] file section)")


def _sections_for(options) -> dict:
    path = options.get("file")
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem_file(handle.read())


def _parse_slot_poly(text: str, names: Sequence[str]):
    """Parse a polynomial in slots written name.level into a JetPoly."""
    from . import expr as ex
    from . import jets as jt
    from . import wpoly as wp
    mangled = re.sub(_SLOT_RE, lambda m: f"{m.group(1)}__L{m.group(2)}", text)
    try:
        tree = ex.parse_expr(mangled)
        slot_vars = sorted(ex.variables(tree))
        poly = wp.poly_normal_form(tree, slot_vars)
    except ValueError as err:  # slots and positions as the user wrote them
        message = str(err).replace("__L", ".")
        if isinstance(err, ex.ParseError):
            shift = 2 * mangled.count("__L", 0, err.position)
            message = message.replace(f"position {err.position}",
                                      f"position {err.position - shift}")
        raise ValueError(message) from None
    index = {name: a for a, name in enumerate(names)}
    terms: dict = {}
    for s, c in poly.terms:
        if not isinstance(c, ex.Const):
            raise ValueError(f"non-rational coefficient {ex.to_text(c)!r} "
                             f"in slot polynomial")
        mono = []
        for v, e in zip(slot_vars, s):
            if not e:
                continue
            m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)__L(\d+)", v)
            if m is None or m.group(1) not in index:
                raise ValueError(f"unknown slot {v.replace('__L', '.')!r}")
            mono.append(((index[m.group(1)], int(m.group(2))), e))
        terms[tuple(sorted(mono))] = c.value
    return jt.jetpoly(terms)


def _graph_from_sections(sections):
    """The GraphSubbundle of the [graph] section."""
    from . import subbundle as sb
    if "graph" not in sections:
        raise UsageError("check-q needs a [graph] section (use --file)")
    body = dict(sections["graph"])
    if "vars" not in body or "order" not in body:
        raise ValueError("[graph] needs 'vars' and 'order' keys")
    names = tuple(v.strip() for v in body.pop("vars").split(","))
    order = _parse_int("graph", "order", body.pop("order"))
    constraints: dict = {}
    for key, value in body.items():
        parts = key.split()
        if (len(parts) != 2 or parts[0] not in names
                or not parts[1].isdecimal()):
            raise ValueError(f"bad graph constraint key {key!r} "
                             f"(expected 'var level')")
        label = (names.index(parts[0]), int(parts[1]))
        if label in constraints:
            raise ValueError(f"slot {parts[0]}.{label[1]} is constrained twice")
        constraints[label] = _parse_slot_poly(value, names)
    return sb.graph_subbundle(names, order, constraints)


def _parse_entry(section: str, key: str, text: str):
    """The expression of one problem-file entry; its errors name the entry."""
    from . import expr as ex
    try:
        return ex.parse_expr(text)
    except ValueError as err:
        raise ValueError(f"[{section}] {key}: {err}") from None


def _parse_int(section: str, key: str, text: str) -> int:
    """The integer of one entry: decimal digits as --weights reads them, and
    a minus sign the library refuses by name; the error names the entry."""
    if not text.removeprefix("-").isdecimal():
        raise ValueError(f"[{section}] {key}: malformed integer {text!r}")
    return int(text)


def _frame_from_sections(sections, W):
    """The Frame of the [frame] section, one row V1 ... Vn per variable of W."""
    from . import subbundle as sb
    if "frame" not in sections:
        raise UsageError("adapt needs a [frame] section")
    body = sections["frame"]
    rows = []
    for a in range(W.n):
        key = f"V{a + 1}"
        if key not in body:
            raise ValueError(f"[frame] is missing {key}")
        row = [_parse_entry("frame", key, chunk) for chunk in body[key].split(",")]
        if len(row) != W.n:
            raise ValueError(f"{key} needs {W.n} coefficients")
        rows.append(row)
    extra = set(body) - {f"V{a + 1}" for a in range(W.n)}
    if extra:
        raise ValueError(f"[frame] has unknown keys {sorted(extra)}")
    return sb.frame(W, rows)


# ---------------------------------------------------------------------------
# execution and rendering
#
# Each handler takes (options, sections) and returns (text, exit code, json
# payload).  Handlers and helpers import the library modules they use when
# they run, so an invocation loads only what its subcommand needs.

def _expr_arg(options, sections):
    from . import expr as ex
    if options.get("expr") is not None:
        return ex.parse_expr(options["expr"])
    if "map" in sections and len(sections["map"]) == 1:
        return _parse_entry("map", *next(iter(sections["map"].items())))
    raise UsageError("missing --expr")


def _vars_arg(options) -> tuple[str, ...]:
    if not options.get("vars"):
        raise UsageError("missing --vars")
    return tuple(v.strip() for v in options["vars"].split(","))


def _coeffs_arg(options, chart) -> list:
    from . import expr as ex
    if not options.get("coeffs"):
        raise UsageError("missing --coeffs")
    parts = [ex.parse_expr(chunk) for chunk in options["coeffs"].split(";")]
    if len(parts) != len(chart):
        raise UsageError(f"expected {len(chart)} coefficients, "
                         f"got {len(parts)}")
    return parts


def _degree_arg(options) -> int:
    if options.get("degree") is None:
        raise UsageError("missing --degree")
    return options["degree"]


def _wp_json(p) -> dict:
    from . import expr as ex
    return {"vars": list(p.pvars),
            "terms": [{"exponents": list(s), "coefficient": ex.to_text(c)}
                      for s, c in p.terms]}


def _jp_json(p, names) -> dict:
    """The terms sorted by monomial; a JetPoly holds them sorted by reversed
    monomial."""
    return {"terms": [{"slots": [[names[a], j, e] for (a, j), e in m],
                       "coefficient": str(c)}
                      for m, c in sorted(p.terms, key=lambda t: t[0])]}


def _wdeg(options, sections):
    from . import wpoly as wp
    W = _weights_from_sections(sections, options)
    p = wp.poly_normal_form(_expr_arg(options, sections), W.positive_vars)
    degree = wp.filtration_degree(p, W)
    text = "inf" if degree == float("inf") else str(degree)
    return text, 0, {"degree": text}


def _happrox(options, sections):
    from . import wpoly as wp
    W = _weights_from_sections(sections, options)
    degree = _degree_arg(options)
    part = wp.homogeneous_part(
        wp.weighted_taylor(_expr_arg(options, sections), W, degree),
        W, degree)
    return wp.wpoly_text(part, W), 0, _wp_json(part)


def _gens(options, sections):
    from . import weights as wt
    from . import wpoly as wp
    W = _weights_from_sections(sections, options)
    gens = wt.ideal_generators(W, _degree_arg(options))
    w = list(W.positive_weights)
    ordered = sorted(gens, key=lambda s: (wt.weighted_degree(s, w), s))
    texts = [wp.monomial_text(W.positive_vars, s) for s in ordered]
    payload = [{"exponents": list(s), "coefficient": "1"} for s in ordered]
    return ", ".join(texts), 0, payload


def _jet_lift(options, sections):
    from . import jets as jt
    chart = _vars_arg(options)
    if options.get("level") is None or options.get("order") is None:
        raise UsageError("jet-lift needs --level and --order")
    lifted = jt.jet_lift(_expr_arg(options, sections), options["level"],
                         options["order"], chart)
    return jt.jp_text(lifted, chart), 0, _jp_json(lifted, chart)


def _vf_lift(options, sections):
    from . import fields as fl
    from . import jets as jt
    chart = _vars_arg(options)
    if options.get("level") is None or options.get("order") is None:
        raise UsageError("vf-lift needs --level and --order")
    coeffs = _coeffs_arg(options, chart)
    X = fl.vf_from_exprs(chart, coeffs, chart)
    xi = jt.vf_lift(X, options["level"], options["order"])
    lines = [f"d/d[{chart[a]}.{k}]: {jt.jp_text(c, chart)}"
             for (a, k), c in xi.terms]
    payload = [{"slot": [chart[a], k], "coefficient": _jp_json(c, chart)}
               for (a, k), c in xi.terms]
    return "\n".join(lines) if lines else "0", 0, payload


def _nu_trans(options, sections):
    from . import expr as ex
    from . import spaces as sp
    if "map" not in sections:
        raise UsageError("nu-trans needs a [map] section (use --file)")
    W = _weights_from_sections(sections, options)
    components = []
    for v in W.vars:
        if v not in sections["map"]:
            raise ValueError(f"[map] is missing component for {v!r}")
        components.append(_parse_entry("map", v, sections["map"][v]))
    extra = set(sections["map"]) - set(W.vars)
    if extra:
        raise ValueError(f"[map] has unknown keys {sorted(extra)}")
    phi = sp.coordinate_change(W, W, components)
    out = sp.nu_transition(phi)
    payload = {n: ex.to_text(c) for n, c in zip(sp.deformation_names(W), out)}
    return "\n".join(f"{n} -> {t}" for n, t in payload.items()), 0, payload


def _def_interp(options, sections):
    from . import expr as ex
    from . import spaces as sp
    W = _weights_from_sections(sections, options)
    degree = _degree_arg(options)
    F = sp.def_interpolant(_expr_arg(options, sections), degree, W)
    text = ex.to_text(F.expression)
    return text, 0, {"expression": text, "degree": F.degree}


def _theta(options, sections):
    from . import expr as ex
    from . import spaces as sp
    W = _weights_from_sections(sections, options)
    payload = {n: ex.to_text(c) for n, c in sp.theta_field(W).components}
    return ex._field_text((t, n) for n, t in payload.items()), 0, payload


def _blowup(options, sections):
    from . import spaces as sp
    W = _weights_from_sections(sections, options)
    if not options.get("center"):
        raise UsageError("missing --center")
    chart = sp.blowup_chart(W, options["center"], options.get("sign", "+"))
    payload = {n: sp.monomial_text(c, m) for n, (c, m) in chart.components}
    return "\n".join(f"{n} = {t}" for n, t in payload.items()), 0, payload


def _check_q(options, sections):
    from . import subbundle as sb
    Q = _graph_from_sections(sections)
    verdict = sb.check_weighting(Q)
    if verdict.accepted:
        payload = {"verdict": "weighting",
                   "weights": list(verdict.weights.weights),
                   "vars": list(verdict.weights.vars)}
        return str(verdict), 0, payload
    text = f"{verdict.reason}: {verdict.witness}"
    if verdict.details:
        text += (f" (reconstructed dimension "
                 f"{verdict.details['reconstructed_dim']} vs "
                 f"{verdict.details['graph_dim']})")
    payload = {"verdict": "rejected", "reason": verdict.reason,
               "witness": verdict.witness, "details": verdict.details}
    return text, 1, payload


def _adapt(options, sections):
    from . import expr as ex
    from . import subbundle as sb
    W = _weights_from_sections(sections, options)
    fr = _frame_from_sections(sections, W)
    if "coords" not in sections:
        raise UsageError("adapt needs a [coords] section")
    names = list(sections["coords"])
    exprs = [_parse_entry("coords", n, sections["coords"][n]) for n in names]
    change = sb.adapted_coordinates(fr, exprs, names)
    payload = {
        "coordinates": [ex.to_text(e) for e in change.x_in_y],
        "chi": [{"target": a + 1, "multi_index": list(u),
                 "value": ex.to_text(coeff)}
                for (a, u), coeff in change.chi],
        "normalizers": [{"multi_index": list(u), "value": str(c)}
                        for u, c in change.normalizers]}
    lines = [f"x{a + 1} = {t}" for a, t in enumerate(payload["coordinates"])]
    lines += [f"chi[{c['target']}][{','.join(map(str, c['multi_index']))}] = "
              f"{c['value']}" for c in payload["chi"]]
    lines += [f"c[{','.join(map(str, c['multi_index']))}] = {c['value']}"
              for c in payload["normalizers"]]
    return "\n".join(lines), 0, payload


def _euler_like(options, sections):
    from . import fields as fl
    from . import spaces as sp
    W = _weights_from_sections(sections, options)
    coeffs = _coeffs_arg(options, W.vars)
    X = fl.vf_for_weights(W, coeffs)
    verdict = sp.euler_like_check(X, W)
    return ("true" if verdict else "false"), 0, {"euler_like": verdict}


def _scale_order(options, sections):
    from . import spaces as sp
    W = _weights_from_sections(sections, options)
    report = sp.scaling_order_estimate(_expr_arg(options, sections), W,
                                       seed=options.get("seed", 0))
    text = (f"order ~ {report.estimated_order:.4f} "
            f"(residual {report.residual:.2e}, samples {report.samples})")
    payload = {"order": report.estimated_order,
               "residual": report.residual, "samples": report.samples}
    return text, 0, payload


def _nilpotent(options, sections):
    from . import fields as fl
    W = _weights_from_sections(sections, options)
    g = fl.nilpotent_frames(W)
    basis = [g.label_text(i) for i in range(g.dim)]
    lines = [f"dim k = {g.dim}, dim l = {g.dim_sub}"]
    for i, label in enumerate(basis):
        marker = " (in l)" if g.in_subalgebra[i] else ""
        lines.append(f"  b{i + 1} = {label}  degree {g.degrees[i]}{marker}")
    for (i, j), entries in g.brackets:
        body = " + ".join(
            (f"{c}*b{k + 1}" if c != 1 else f"b{k + 1}")
            for k, c in entries)
        lines.append(f"  [b{i + 1}, b{j + 1}] = {body}")
    payload = {"dim": g.dim, "dim_sub": g.dim_sub,
               "basis": basis,
               "degrees": list(g.degrees)}
    return "\n".join(lines), 0, payload


def _total_weight(options, sections):
    from . import weights as wt
    if not options.get("multi"):
        raise UsageError("missing --multi")
    mw = wt.parse_multiweight(options["multi"])
    W = wt.total_weighting(mw, options.get("order"))
    return W.assignment_text(), 0, {"weights": W.as_dict(),
                                    "order": W.order}


# subcommand -> (handler, help, option keys), in the order --help lists them
_COMMANDS = {
    "wdeg": (_wdeg, "filtration degree of a polynomial expression",
             "weights expr order file"),
    "happrox": (_happrox, "homogeneous approximation of the given degree",
                "weights expr degree order file"),
    "gens": (_gens, "minimal monomial generators of the degree ideal",
             "weights degree order file"),
    "jet-lift": (_jet_lift, "function lift to the prolonged chart",
                 "vars expr level order"),
    "vf-lift": (_vf_lift, "vector field lift to the prolonged chart",
                "vars coeffs level order"),
    "nu-trans": (_nu_trans, "induced map of graded coordinates", "file"),
    "def-interp": (_def_interp, "deformation interpolant of a function",
                   "weights expr degree order file"),
    "theta": (_theta, "scaling field on the deformation chart",
              "weights order file"),
    "blowup": (_blowup, "weighted blow-up chart",
               "weights order file center sign"),
    "check-q": (_check_q, "weighting criterion for a graph subbundle", "file"),
    "adapt": (_adapt,
              "adapted coordinates from a frame and initial coordinates",
              "file"),
    "euler-like": (_euler_like, "test a field for the scaling normal form",
                   "weights coeffs order file"),
    "scale-order": (_scale_order, "numeric scaling-order estimate",
                    "weights expr order file seed"),
    "nilpotent": (_nilpotent, "negative nilpotent frame algebra",
                  "weights order file"),
    "total-weight": (_total_weight, "total weighting of a multi-weight",
                     "order file multi"),
}


def execute(cmd: Command) -> tuple[str, int, object]:
    """Run a parsed command; returns (text, exit code, json payload)."""
    sections = _sections_for(cmd.options)
    if cmd.name not in _COMMANDS:
        raise UsageError(f"unknown command {cmd.name!r}")
    return _COMMANDS[cmd.name][0](cmd.options, sections)


def render(text: str, payload: object, cmd: Command) -> str:
    if cmd.options.get("json"):
        import json
        envelope = {"op": cmd.name, "version": JSON_SCHEMA_VERSION,
                    "result": payload}
        return json.dumps(envelope, sort_keys=True)
    return text


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cmd = parse_invocation(argv)
        text, code, payload = execute(cmd)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except KeyError as err:
        # str() of a KeyError is the repr of its message; print the message
        message = err.args[0] if len(err.args) == 1 else err
        print(f"error: {message}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        print(render(text, payload, cmd), flush=True)
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush at
        # exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed by the reader", file=sys.stderr)
        return 1
    return code


def run() -> int:
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
