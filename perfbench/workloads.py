"""The in-process workloads: op classes, their seeded inputs and oracles.

Each workload is a fixed round-robin schedule of op classes.  Every class
has fixed input shapes (variables, orders, terms, degrees); the run seed
draws only the coefficients.  Coefficients are positive and never 1, so no
term of a generated input cancels or loses its coefficient factor, and the
shape of every input is the same for every seed.

Every class has an oracle that is checked outside the timed region and
does not repeat the code path of the call it checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Callable

from weightings import expr as ex
from weightings import fields as fl
from weightings import jets as jt
from weightings import spaces as sp
from weightings import subbundle as sb
from weightings import weights as wt
from weightings import wpoly as wp

# Seed of the untimed warm-up cycle; fixed so that every run starts its
# timed ops from the same memo and allocator state.
WARMUP_SEED = 2010_01643


@dataclass(frozen=True)
class OpClass:
    """One kind of operation.

    make(rng, shared) draws one input; run(input) is the timed call;
    check(input, result) is the oracle.  A class with known_defect set
    expects an answer the library does not give today: a result for which
    known_defect(input, result) holds fails the oracle, as it should, but
    is the recorded defect rather than a new wrong answer.
    """

    name: str
    make: Callable[[random.Random, dict], object]
    run: Callable[[object], object]
    check: Callable[[object, object], bool]
    known_defect: Callable[[object, object], bool] | None = None
    warmup_ops: int = 1


# ---------------------------------------------------------------------------
# seeded coefficients and shapes

def _int(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(2, 9))


def _rat(rng: random.Random) -> Fraction:
    q = rng.choice((2, 3, 5, 7))
    return Fraction(rng.choice([p for p in range(1, 10) if p % q]), q)


def _monomial(names, exps) -> ex.Expr:
    return ex.mul(*[ex.pow_(ex.var(n), e) for n, e in zip(names, exps) if e])


def _poly(rng, names, monomials, coeff=_int) -> ex.Expr:
    return ex.add(*[ex.mul(ex.const(coeff(rng)), _monomial(names, m))
                    for m in monomials])


def _jet_point(rng, names, r) -> jt.JetPoint:
    return jt.jet_point(names, [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                          rng.randint(1, 5))
                                 for _ in range(r + 1)] for _ in names])


def shape_signature(obj) -> str:
    """Input structure with every rational value replaced by 'c'.

    Children of sums and the terms of sparse polynomials are sorted, since
    canonical term order follows coefficient values.
    """
    if isinstance(obj, Fraction):
        return "c"
    if isinstance(obj, ex.Sum):
        return "Sum{" + ",".join(sorted(shape_signature(t) for t in obj.terms)) + "}"
    if isinstance(obj, jt.JetPoly):
        return "JetPoly{" + ",".join(sorted(repr(m) for m, _ in obj.terms)) + "}"
    if isinstance(obj, jt.JetPoint):
        return f"JetPoint{obj.vars}x{obj.order}"
    if is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(shape_signature(getattr(obj, f.name)) for f in fields(obj))
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(shape_signature(v) for v in obj) + ")"
    return repr(obj)


# ---------------------------------------------------------------------------
# prolong: jets and the weighting criterion

CHART = ("x1", "x2", "x3")
LIFT_MONOMIALS = tuple(m for m in itertools.product(range(4), repeat=3)
                       if sum(m) == 3) + ((1, 1, 0), (0, 0, 1))
VF_MONOMIALS = (((1, 1, 0), (0, 0, 2), (1, 0, 0)),
                ((2, 0, 0), (0, 1, 1), (0, 0, 1)),
                ((1, 0, 1), (0, 1, 0), (0, 2, 1)))
VF_MONOMIALS_B = (((0, 2, 0), (0, 0, 1)),
                  ((1, 0, 1), (1, 0, 0)),
                  ((2, 0, 0), (0, 1, 0)))
UNIT_WEIGHTS = wt.weight_sequence([(n, 1) for n in CHART], 1)


def _lift_matches(f: ex.Expr, level: int, lifted: jt.JetPoly, u: jt.JetPoint) -> bool:
    return jt.evaluate_jet(f, u).coeffs[level] == jt.jp_evaluate(lifted, u.slot_map())


def _lift_class(name: str, r: int) -> OpClass:
    def make(rng, shared):
        return _poly(rng, CHART, LIFT_MONOMIALS), _jet_point(rng, CHART, r)

    return OpClass(name, make,
                   lambda inp: jt.jet_lift(inp[0], r, r, CHART),
                   lambda inp, out: _lift_matches(inp[0], r, out, inp[1]))


POW_EXPONENT, POW_ORDER = 4, 5


def _make_pow(rng, shared):
    linear = ex.add(*[ex.mul(ex.const(_rat(rng)), ex.var(n)) for n in CHART])
    return ex.pow_(linear, POW_EXPONENT), _jet_point(rng, CHART, POW_ORDER)


def _vector_field(rng, shapes) -> fl.PolyVectorField:
    return fl.vf_for_weights(UNIT_WEIGHTS, [_poly(rng, CHART, m) for m in shapes])


def _vf_lift_matches(X, i, r, xi, u) -> bool:
    """Slot (a, k) of X^(-i) evaluated at u equals level k - i of X_a on u."""
    values = u.slot_map()
    for a, coeff in enumerate(X.coeff_exprs()):
        series = jt.evaluate_jet(coeff, u).coeffs
        for k in range(r + 1):
            expected = series[k - i] if k >= i else 0
            if jt.jp_evaluate(xi.coefficient((a, k)), values) != expected:
                return False
    return True


VF_LIFT_LEVEL, VF_ORDER = 1, 5


def _make_vf_lift(rng, shared):
    return _vector_field(rng, VF_MONOMIALS), _jet_point(rng, CHART, VF_ORDER)


BRACKET_LEVELS, BRACKET_ORDER = (1, 2), 4


def _make_bracket(rng, shared):
    X = _vector_field(rng, VF_MONOMIALS)
    Y = _vector_field(rng, VF_MONOMIALS_B)
    i, j = BRACKET_LEVELS
    return (X, Y, jt.vf_lift(X, i, BRACKET_ORDER), jt.vf_lift(Y, j, BRACKET_ORDER),
            _jet_point(rng, CHART, BRACKET_ORDER))


def _check_bracket(inp, out) -> bool:
    # [X^(-i), Y^(-j)] = [X, Y]^(-(i+j)); the right side goes through the
    # polynomial vector-field bracket and the truncated-scalar evaluator.
    X, Y, _xi, _eta, u = inp
    return _vf_lift_matches(fl.lie_bracket(X, Y), sum(BRACKET_LEVELS),
                            BRACKET_ORDER, out, u)


def sheared_graph(weights, order, shears) -> sb.GraphSubbundle:
    """The graded subbundle of the weighting with coordinates u = x - G(x).

    shears maps a variable index to G_a, a polynomial in lower variables;
    each constraint x_a.j = G_a^(j) (j < w_a) has the lower constraints
    substituted, so the graph is in solved form.
    """
    constraints: dict = {}
    for a, w in enumerate(weights):
        for j in range(w):
            if a in shears:
                lift = jt.jet_lift(shears[a], j, order, CHART)
                constraints[(a, j)] = jt.jp_substitute(lift, constraints)
            else:
                constraints[(a, j)] = jt.JP_ZERO
    return sb.graph_subbundle(CHART, order, constraints)


def _accepts(weights):
    def check(inp, verdict) -> bool:
        return verdict.accepted and verdict.weights.weights == tuple(weights)
    return check


SHEARED_WEIGHTS, SHEARED_ORDER = (1, 3, 4), 5


def _make_sheared(rng, shared):
    x1 = ex.var("x1")
    shears = {1: ex.add(ex.mul(ex.const(_int(rng)), ex.pow_(x1, 3)),
                        ex.mul(ex.const(_int(rng)), ex.pow_(x1, 2))),
              2: ex.add(ex.mul(ex.const(_int(rng)), ex.pow_(x1, 4)),
                        ex.mul(ex.const(_rat(rng)), ex.pow_(x1, 2)))}
    return sheared_graph(SHEARED_WEIGHTS, SHEARED_ORDER, shears)


# The chain-sheared weighting u2 = x2 - c1 x1^2, u3 = x3 - c2 x1^2 - c3 x1 x2
# with weights (1, 3, 5) at order 5.  It is a weighting by construction, but
# check_weighting rejects it today (N4 corrects only by monomials in x).
CHAIN_WEIGHTS, CHAIN_ORDER = (1, 3, 5), 5


def _make_chain(rng, shared):
    x1, x2 = ex.var("x1"), ex.var("x2")
    shears = {1: ex.mul(ex.const(_int(rng)), ex.pow_(x1, 2)),
              2: ex.add(ex.mul(ex.const(_int(rng)), ex.pow_(x1, 2)),
                        ex.mul(ex.const(_int(rng)), x1, x2))}
    return sheared_graph(CHAIN_WEIGHTS, CHAIN_ORDER, shears)


def _chain_defect(inp, verdict) -> bool:
    return not verdict.accepted and verdict.reason == sb.FILTRATION_MISMATCH


NEGATIVE_CODES = (
    # antisymmetric relation: no function lift produces it
    (sb.FILTRATION_MISMATCH, "witness x3 level 3"),
    # flag gap: level 0 of x1 free while level 1 is constrained
    (sb.FLAG_INVALID, "base tangent direction of 'x1'"),
    # top slot: x2 is constrained up to the top level
    (sb.FLAG_INVALID, "'x2' has every slot constrained"),
)


def _make_negatives(rng, shared):
    s = jt.jp_slot
    relation = jt.jp_add(jt.jp_mul(s(0, 1), s(1, 2)),
                         jt.jp_scale(jt.jp_mul(s(0, 2), s(1, 1)), -1))
    zero = jt.JP_ZERO
    antisymmetric = sb.graph_subbundle(CHART, 4, {
        (0, 0): zero, (1, 0): zero, (2, 0): zero, (2, 1): zero, (2, 2): zero,
        (2, 3): jt.jp_scale(relation, _rat(rng))})
    flag_gap = sb.graph_subbundle(CHART[:2], 2, {
        (1, 0): zero, (0, 1): zero, (1, 1): zero})
    top_slot = sb.graph_subbundle(CHART[:2], 3, {
        (0, 0): zero, (1, 0): zero, (1, 1): zero, (1, 2): zero,
        (1, 3): jt.jp_scale(jt.jp_pow(s(0, 1), 3), _int(rng))})
    return antisymmetric, flag_gap, top_slot


def _check_negatives(inp, verdicts) -> bool:
    return all(not v.accepted and v.reason == code and fragment in (v.witness or "")
               for v, (code, fragment) in zip(verdicts, NEGATIVE_CODES))


def prolong_classes() -> list[OpClass]:
    return [
        _lift_class("jet_lift.r4", 4),
        _lift_class("jet_lift.r6", 6),
        OpClass("pow.r5", _make_pow,
                lambda inp: jt.jet_lift(inp[0], POW_ORDER, POW_ORDER, CHART),
                lambda inp, out: _lift_matches(inp[0], POW_ORDER, out, inp[1])),
        OpClass("vf_lift", _make_vf_lift,
                lambda inp: jt.vf_lift(inp[0], VF_LIFT_LEVEL, VF_ORDER),
                lambda inp, out: _vf_lift_matches(inp[0], VF_LIFT_LEVEL,
                                                  VF_ORDER, out, inp[1])),
        OpClass("jet_bracket", _make_bracket,
                lambda inp: jt.jet_bracket(inp[2], inp[3]), _check_bracket),
        OpClass("check.sheared", _make_sheared, sb.check_weighting,
                _accepts(SHEARED_WEIGHTS)),
        OpClass("check.chain", _make_chain, sb.check_weighting,
                _accepts(CHAIN_WEIGHTS), known_defect=_chain_defect),
        OpClass("check.negatives", _make_negatives,
                lambda graphs: tuple(sb.check_weighting(Q) for Q in graphs),
                _check_negatives),
    ]


# ---------------------------------------------------------------------------
# symbolic: expressions, weighted polynomials, frames

def _exps_up_to(weights, bound):
    """Exponent vectors s with s.w <= bound."""
    ranges = [range(bound // w + 1) for w in weights]
    return [s for s in itertools.product(*ranges)
            if sum(a * b for a, b in zip(s, weights)) <= bound]


TAYLOR_WEIGHTS = wt.weight_sequence([("x", 0), ("y", 1), ("z", 2)], 2)
TAYLOR_DEGREE = 5


def _make_taylor(rng, shared):
    x, y, z = (ex.var(n) for n in "xyz")
    c = [ex.const(_rat(rng)) for _ in range(6)]
    return ex.add(
        ex.mul(c[0], ex.app("sin", ex.mul(c[1], x, y)), ex.app("exp", z)),
        ex.mul(c[2], x, ex.app("cos", ex.add(y, ex.mul(c[3], z)))),
        ex.mul(c[4], ex.app("exp", x), y, z),
        ex.mul(c[5], ex.pow_(ex.app("sin", y), 2)))


def _check_taylor(f, out) -> bool:
    # Coefficient of y^a z^b is the (a, b) partial derivative at y = z = 0
    # divided by a! b!, computed by symbolic differentiation.
    W = TAYLOR_WEIGHTS
    pvars, weights = W.positive_vars, W.positive_weights
    base = {v: ex.ZERO for v in pvars}
    derivative = {(0,) * len(pvars): f}
    wanted = sorted(_exps_up_to(weights, TAYLOR_DEGREE), key=sum)
    for s in wanted:
        if s not in derivative:
            k = next(i for i, e in enumerate(s) if e)
            lower = s[:k] + (s[k] - 1,) + s[k + 1:]
            derivative[s] = ex.differentiate(derivative[lower], pvars[k])
        scale = Fraction(1, math.prod(math.factorial(e) for e in s))
        expected = ex.mul(ex.const(scale), ex.substitute(derivative[s], base))
        if not ex.semantically_equal(out.coefficient(s), expected):
            return False
    return {s for s, _ in out.terms} <= set(wanted)


NU_WEIGHTS = wt.weight_sequence([("x", 0), ("y", 1), ("z", 3)], 3)


def _make_nu(rng, shared):
    """A chart change with its graded transition known by construction.

    Each component is a list of (term, graded part) pairs; the graded part
    is the term's weight-w_b homogeneous part in y1, y2, y3, or None when
    the term has higher weighted degree.
    """
    x, y, z = (ex.var(n) for n in "xyz")
    y1, y2, y3 = (ex.var(n) for n in ("y1", "y2", "y3"))
    sin, cos, exp = (lambda a, fn=fn: ex.app(fn, a) for fn in ("sin", "cos", "exp"))
    c = [ex.const(_rat(rng)) for _ in range(10)]
    spec = (
        ((ex.mul(c[0], sin(x), exp(ex.mul(y, z))), ex.mul(c[0], sin(y1))),
         (ex.mul(c[1], x, y), None)),
        ((ex.mul(c[2], y, exp(x)), ex.mul(c[2], exp(y1), y2)),
         (ex.mul(c[3], ex.pow_(y, 2), cos(x)), None),
         (ex.mul(c[4], y, z), None)),
        ((ex.mul(c[5], z, exp(x)), ex.mul(c[5], exp(y1), y3)),
         (ex.mul(c[6], ex.pow_(sin(ex.mul(x, y)), 3)),
          ex.mul(c[6], ex.pow_(y1, 3), ex.pow_(y2, 3))),
         (ex.mul(c[7], ex.pow_(y, 3), cos(x)),
          ex.mul(c[7], cos(y1), ex.pow_(y2, 3))),
         (ex.mul(c[8], y, z), None),
         (ex.mul(c[9], ex.pow_(y, 4)), None)),
    )
    phi = sp.coordinate_change(NU_WEIGHTS, NU_WEIGHTS,
                               [ex.add(*[t for t, _ in comp]) for comp in spec])
    expected = tuple(ex.add(*[g for _, g in comp if g is not None])
                     for comp in spec)
    return phi, expected


def _check_nu(inp, out) -> bool:
    _phi, expected = inp
    return len(out) == len(expected) and all(
        ex.semantically_equal(a, b) for a, b in zip(out, expected))


DEF_WEIGHTS = wt.weight_sequence([("x", 0), ("y", 1), ("z", 2)], 2)
DEF_DEGREE = 3
DEF_TERMS = ((None, (3, 0)), ("exp", (1, 1)), ("cos", (0, 2)), ("x", (2, 1)),
             (None, (4, 0)), ("sin", (3, 1)), ("exp", (1, 2)), (None, (5, 0)))


def _make_def(rng, shared):
    """f = sum c_i h_i(x) y^a z^b, and its interpolant by construction."""
    x, t = ex.var("x"), ex.var("t")
    f_terms, F_terms = [], []
    for head, (a, b) in DEF_TERMS:
        c = ex.const(_rat(rng))
        h = (ex.ONE if head is None else x if head == "x"
             else ex.app(head, x))
        f_terms.append(ex.mul(c, h, _monomial("yz", (a, b))))
        F_terms.append(ex.mul(c, ex.substitute(h, {"x": ex.var("y1")}),
                              ex.pow_(t, a + 2 * b - DEF_DEGREE),
                              _monomial(("y2", "y3"), (a, b))))
    return ex.add(*f_terms), ex.add(*F_terms)


ADAPT_WEIGHTS = wt.weight_sequence([("x1", 1), ("x2", 2), ("x3", 4)], 4)
# Frame perturbations of weighted degree >= max(1, w_b - w_a), vanishing at
# the origin, and initial coordinates with every correction monomial.
ADAPT_FRAME = (((0, (1, 0, 0)), (1, (1, 0, 0)), (2, (1, 1, 0))),
               ((0, (1, 0, 0)), (2, (0, 1, 0))),
               ((0, (1, 0, 0)), (1, (1, 0, 0))))
ADAPT_COORDS = ((), (), ((2, 0, 0), (3, 0, 0), (1, 1, 0)))


def _make_adapt(rng, shared):
    names = ADAPT_WEIGHTS.vars
    rows = []
    for a, perturbations in enumerate(ADAPT_FRAME):
        row = [ex.ONE if b == a else ex.ZERO for b in range(len(names))]
        for b, m in perturbations:
            row[b] = ex.add(row[b], ex.mul(ex.const(_rat(rng)), _monomial(names, m)))
        rows.append(row)
    coords = [ex.add(ex.var(names[a]), *[ex.mul(ex.const(_rat(rng)), _monomial(names, m))
                                        for m in ms])
              for a, ms in enumerate(ADAPT_COORDS)]
    return sb.frame(ADAPT_WEIGHTS, rows), coords


def _check_adapt(inp, change) -> bool:
    # The new coordinates are the given ones plus corrections in them
    # (x_in_y with y = the given coordinates), and they are adapted.
    fr, coords = inp
    expand = functools.partial(ex.simplify_canonical, expand_polynomials=True)
    given = dict(zip(change.y_names, coords))
    return (all(expand(ex.substitute(x_y, given)) == expand(x_chart)
                for x_y, x_chart in zip(change.x_in_y, change.x_in_chart))
            and sb.verify_adapted(change.x_in_chart, fr))


NILPOTENT_WEIGHTS = wt.weight_sequence(
    [("x", 1), ("y", 2), ("z", 3), ("u", 4), ("v", 5), ("w", 7)], 7)


@functools.lru_cache(maxsize=None)
def _check_nilpotent(W, g) -> bool:
    # The op has no coefficients to draw, so every op gives the same algebra
    # and a verdict is computed once per distinct result.
    # Basis: all x^s d/d[x_a] with s.w < w_a, enumerated directly; brackets
    # recomputed as polynomial vector-field brackets.
    pw = W.positive_weights
    labels = {(s, a) for a, wa in enumerate(W.weights) if wa
              for s in _exps_up_to(pw, wa - 1)}
    if set(g.basis) != labels or g.dim_sub != sum(1 for s, _ in labels if any(s)):
        return False
    index = {lab: i for i, lab in enumerate(g.basis)}
    table = g.bracket_table()

    def field(s, a):
        coeffs = [ex.ZERO] * W.n
        coeffs[a] = _monomial(W.positive_vars, s)
        return fl.vf_for_weights(W, coeffs)

    for i, j in itertools.combinations(range(g.dim), 2):
        bracket = fl.lie_bracket(field(*g.basis[i]), field(*g.basis[j]))
        got = {}
        for b, coeff in enumerate(bracket.coeffs):
            for s, c in coeff.terms:
                got[index[(s, b)]] = c.value
        if got != table.get((i, j), {}):
            return False
    return True


BLOWUP_WEIGHTS = wt.weight_sequence([("x", 1), ("y", 2), ("z", 3)], 3)


def _make_blowup(rng, shared):
    c = [_rat(rng) for _ in BLOWUP_WEIGHTS.vars]
    X = fl.vf_for_weights(BLOWUP_WEIGHTS, [ex.mul(ex.const(ci), ex.var(v))
                                           for ci, v in zip(c, BLOWUP_WEIGHTS.vars)])
    return X, tuple(c)


def _run_blowup(inp):
    X, _c = inp
    W = BLOWUP_WEIGHTS
    return [sp.blowup_lift_vf(X, W, sp.blowup_chart(W, center, sign))
            for center in W.positive_vars for sign in "+-"]


def _check_blowup(inp, lifts) -> bool:
    # sum c_a x_a d/d[x_a] has degree 0; in the chart of x_c, z_c = t y_c^(1/w_c)
    # and z_a = y_a y_c^(-w_a/w_c), so it lifts to sum k_a z_a d/d[z_a] with
    # k_c = c_c / w_c and k_a = c_a - w_a c_c / w_c.
    _X, c = inp
    W = BLOWUP_WEIGHTS
    charts = [(center, sign) for center in range(W.n) for sign in "+-"]
    for (center, _sign), lift in zip(charts, lifts):
        expected = []
        for a in range(W.n):
            ratio = c[center] / W.weights[center]
            k = ratio if a == center else c[a] - W.weights[a] * ratio
            if k:
                z = f"z{a + 1}"
                expected.append((z, ((ex.const(k), ((z, Fraction(1)),)),)))
        if lift.components != tuple(expected):
            return False
    return True


ORDER_WEIGHTS = wt.weight_sequence([("x1", 1), ("x2", 2), ("x3", 3)], 3)
ORDER_WORD = (2, 1, "g", 0, 2, 1, 0)
# x1^3 x2^3 x3^3 + x1^4 x2^2 x3^2 + x1^2 x3^4: the word does not annihilate it
ORDER_TEST_FUNCTION = {(3, 3, 3): 1, (4, 2, 2): 1, (2, 0, 4): 1}
POOL_SIZE = 4


def _order_frame(coeffs) -> sb.Frame:
    """Unipotent frame: V1 = d1 + c1 x1 d2 + c2 x2 d3, V2 = d2 + c3 x1 d3."""
    x1, x2 = ex.var("x1"), ex.var("x2")
    c1, c2, c3 = (ex.const(v) for v in coeffs)
    return sb.frame(ORDER_WEIGHTS, [[ex.ONE, ex.mul(c1, x1), ex.mul(c2, x2)],
                                    [ex.ZERO, ex.ONE, ex.mul(c3, x1)],
                                    [ex.ZERO, ex.ZERO, ex.ONE]])


def _fresh_frame_coeffs(rng, shared):
    seen = shared.setdefault("frames_seen", set())
    while True:
        coeffs = (_rat(rng), _rat(rng), Fraction(rng.randint(2, 99)))
        if coeffs not in seen:
            seen.add(coeffs)
            return coeffs


def _order_word(rng):
    g = ex.add(ex.mul(ex.const(_rat(rng)), ex.var("x1")),
               ex.mul(ex.const(_rat(rng)), ex.var("x2")))
    return [g if item == "g" else item for item in ORDER_WORD]


def shared_inputs(workload: str, seed: int) -> dict:
    """Inputs shared by a whole run: the warm frame pool of `symbolic`."""
    shared: dict = {}
    if workload == "symbolic":
        rng = random.Random(f"{workload}:pool:{seed}")
        shared["pool"] = [_order_frame(_fresh_frame_coeffs(rng, shared))
                          for _ in range(POOL_SIZE)]
    return shared


def _make_order_pool(rng, shared):
    k = shared["pool_next"] = shared.get("pool_next", -1) + 1
    return shared["pool"][k % POOL_SIZE], _order_word(rng)


def _make_order_fresh(rng, shared):
    return _order_frame(_fresh_frame_coeffs(rng, shared)), _order_word(rng)


def _dict_poly(e: ex.Expr) -> dict:
    """A polynomial in x1, x2, x3 as {exponents: Fraction}."""
    return {s: c.value for s, c in wp.poly_normal_form(e, ORDER_WEIGHTS.vars).terms}


def _dict_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for s, a in p.items():
        for u, b in q.items():
            k = tuple(x + y for x, y in zip(s, u))
            out[k] = out.get(k, 0) + a * b
    return {k: v for k, v in out.items() if v}


def _dict_apply(field: list[dict], p: dict) -> dict:
    """sum_b field_b * d/d[x_b] p."""
    out: dict = {}
    for b, coeff in enumerate(field):
        derivative = {s[:b] + (s[b] - 1,) + s[b + 1:]: a * s[b] for s, a in p.items() if s[b]}
        for k, v in _dict_mul(coeff, derivative).items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _check_order(inp, D) -> bool:
    # The word applied item by item to a test function, against the
    # standard form applied term by term, both in plain dict arithmetic.
    fr, word = inp
    fields_ = [[_dict_poly(c) for c in fr.field_exprs(a)] for a in range(fr.n)]

    def apply_word(s, p):
        for a in reversed(range(fr.n)):
            for _ in range(s[a]):
                p = _dict_apply(fields_[a], p)
        return p

    direct = ORDER_TEST_FUNCTION
    for item in reversed(word):
        direct = (_dict_apply(fields_[item], direct) if isinstance(item, int)
                  else _dict_mul(_dict_poly(item), direct))
    via: dict = {}
    for s, f in D.terms:
        for k, v in _dict_mul(_dict_poly(f), apply_word(s, ORDER_TEST_FUNCTION)).items():
            via[k] = via.get(k, 0) + v
    return bool(direct) and direct == {k: v for k, v in via.items() if v}


def symbolic_classes() -> list[OpClass]:
    return [
        OpClass("weighted_taylor", _make_taylor,
                lambda f: wp.weighted_taylor(f, TAYLOR_WEIGHTS, TAYLOR_DEGREE),
                _check_taylor),
        OpClass("nu_transition", _make_nu, lambda inp: sp.nu_transition(inp[0]),
                _check_nu),
        OpClass("def_interpolant", _make_def,
                lambda inp: sp.def_interpolant(inp[0], DEF_DEGREE, DEF_WEIGHTS),
                lambda inp, out: out.expression == inp[1]),
        OpClass("adapted_coordinates", _make_adapt,
                lambda inp: sb.adapted_coordinates(inp[0], inp[1]), _check_adapt),
        OpClass("nilpotent_frames", lambda rng, shared: NILPOTENT_WEIGHTS,
                fl.nilpotent_frames, _check_nilpotent),
        OpClass("blowup_lift_vf", _make_blowup, _run_blowup, _check_blowup),
        OpClass("normal_order.pool", _make_order_pool,
                lambda inp: sb.normal_order(*inp), _check_order,
                warmup_ops=POOL_SIZE),
        OpClass("normal_order.fresh", _make_order_fresh,
                lambda inp: sb.normal_order(*inp), _check_order),
    ]


IN_PROCESS = {"prolong": prolong_classes, "symbolic": symbolic_classes}


def schedule_inputs(classes, seed, cycles: int, shared: dict, warmup=False):
    """The fixed round-robin schedule: [(class, input)] for `cycles` cycles.

    The warm-up schedule is one cycle (warmup_ops of each class) drawn from
    WARMUP_SEED.
    """
    rng = random.Random(f"inputs:{WARMUP_SEED if warmup else seed}")
    out = []
    for _ in range(cycles):
        for cls in classes:
            for _ in range(cls.warmup_ops if warmup else 1):
                out.append((cls, cls.make(rng, shared)))
    return out
