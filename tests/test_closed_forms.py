"""Frozen copies of replaced code, kept until a reference replaces them.

Each library routine below replaced a generic computation, and the code it
replaced is kept here, as it was, and compared with it on generated inputs:

* ``adapted_coordinates`` and ``verify_adapted``: the normalizers s!
  against the frame word applied to y^s, and the frame words read off
  truncated term maps against the words applied to Expr trees (chi,
  normalizers, coordinates, verdicts and error texts); ``frame()`` and the
  vanishing check, which read values on the base off the stored term maps;
  ``apply_diffop`` with one word applier per operator; the frame words on
  the base against the dict loop on an Expr-valued copy of the term-map
  kernel; and the two Expr field appliers of ``Frame.apply`` and
  ``DeformationField.apply``;
* ``nilpotent_frames``: the two-term brackets against the expansion over
  labels, and the pairs whose bracket can be non-zero against the scan
  over every pair;
* N4 of ``check_weighting`` on the graph rows against Expr corrections
  lifted by ``jet_lift`` and restricted by ``substitute_graph``, the
  fraction-free ``_eliminate`` against the Gauss-Jordan ``_solve_exact``,
  and the series on the graph rows and ``induced_filtration_degree``
  against lift-then-substitute;
* N3 on raw series against the loop over sealed JetPolys;
* the jet kernel's ``seal`` against the unpacking from the lowest field up
  (three tests, one on packings of up to 30 labels) and its masked field
  applier ``_apply_into``;
* the one blow-up chart builder against the two chart loops, the one
  monomial printer against the three printers, and the one field printer
  against the four joins;
* ``ideal_generators`` against the walk over every head;
* and, with no copy, ``add`` and ``mul`` of constants against the general
  path.

The N4, frame and adapted-coordinate copies stay until the certificates of
ROADMAP item 5 give them an independent oracle, and ROADMAP item 9 names the
``seal`` test.  A copy leaves when every mutation its change recorded in
CHANGES.md fails a test of ``tests/test_references.py`` or an invariant
test; otherwise it stays, so no check is lost.  A kernel change adds a case
to ``tests/test_references.py``, which checks each representation against
its definition, not a frozen copy here.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from weightings import expr as ex
from weightings import jets as jt
from weightings import spaces as sp
from weightings import subbundle as sb
from weightings import wpoly as wp
from weightings.expr import ONE, ZERO
from weightings.fields import (_apply_expr_field, lie_bracket,
                               nilpotent_frames, vf_for_weights)
from weightings.weights import (exponents_below, ideal_generators,
                                weight_sequence, weighted_degree)

from conftest import (rand_expr, rand_jetpoly, rand_poly_expr,
                      rand_rational, rand_weight_sequence)
from test_subbundle import _random_solved_graph


# ---------------------------------------------------------------------------
# adapted-coordinate normalizers

def _reference_normalizer(fr, y_exprs, s) -> Fraction:
    """(V^s y^s) on the base, by applying the frame word to y^s."""
    y_monomial = ex.mul(*[ex.pow_(y_exprs[b], e) for b, e in enumerate(s) if e],
                        ONE)
    c_s = sb.restrict_to_base(sb._word_applier(fr)(s, y_monomial), fr.W)
    if not isinstance(c_s, ex.Const) or c_s.value <= 0:
        raise ValueError(f"frame normalizer for {s} is not a positive constant "
                         f"({ex.to_text(c_s)}); the frame does not satisfy the "
                         f"preconditions")
    return c_s.value


def _base_coefficient(rng, zero_vars) -> ex.Expr:
    """A rational, times a head or an inverse power of a weight-0 variable."""
    out = ex.const(rand_rational(rng, zero_ok=False))
    if zero_vars and rng.random() < 0.5:
        out = ex.mul(out, ex.app(rng.choice(ex.FUNCTIONS),
                                 ex.var(rng.choice(zero_vars))))
    if zero_vars and rng.random() < 0.4:
        out = ex.mul(out, ex.pow_(ex.add(ONE, ex.var(rng.choice(zero_vars))),
                                  -rng.randint(1, 2)))
    return out


def _positive_monomial(rng, W, min_size, heads=False) -> ex.Expr:
    """A product of min_size or min_size + 1 factors that vanish on the base:
    positive-weight variables, or with heads also sin(x), exp(x) - 1 and
    x*cos(x')."""
    pvars = W.positive_vars
    size = rng.randint(min_size, min_size + 1)
    if not heads:
        return ex.mul(*[ex.var(rng.choice(pvars)) for _ in range(size)])
    factors = []
    for _ in range(size):
        x = ex.var(rng.choice(pvars))
        factors.append(rng.choice([
            x, ex.app("sin", x), ex.add(ex.app("exp", x), ex.MINUS_ONE),
            ex.mul(x, ex.app("cos", ex.var(rng.choice(pvars))))]))
    return ex.mul(*factors)


def _normalized_frame(rng, heads=False):
    """A frame and initial coordinates meeting the adapted_coordinates
    preconditions, built so that (V_a y_b) on the base is the identity.

    y_b = x_b + sum_v l_vb x_v + h_b, with l a constant strictly upper
    triangular matrix on the positive-weight variables and h_b of size at
    least 2 in them, so the Jacobian on the base is J = 1 + l.  The frame is
    J^-1 plus entries that vanish on the base, in the positive-weight
    columns only, so its base-tangent fields commute.  With heads, h_b also
    uses sin, exp and cos of positive-weight variables (frame entries are
    polynomial in them).
    """
    k0 = rng.choice([1, 1, 2, 0])
    pos = sorted(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    if max(pos) == 1:
        pos[-1] = rng.randint(2, 4)
    W = weight_sequence([(n, 0) for n in ("a", "b")[:k0]]
                        + [(f"x{i + 1}", w) for i, w in enumerate(pos)])
    n = W.n
    zero_vars = list(W.zero_vars)
    J = [[Fraction(int(v == b)) for b in range(n)] for v in range(n)]
    for v in range(k0, n):
        for b in range(v + 1, n):
            if rng.random() < 0.5:
                J[v][b] = rand_rational(rng)
    inverse = [[Fraction(int(v == b)) for b in range(n)] for v in range(n)]
    for b in range(n):  # back substitution: J is unitriangular
        for v in reversed(range(b)):
            inverse[v][b] = -sum(J[v][k] * inverse[k][b]
                                 for k in range(v + 1, b + 1))
    y_exprs = []
    for b in range(n):
        y = ex.add(*[ex.mul(ex.const(J[v][b]), ex.var(W.vars[v]))
                     for v in range(n)])
        for _ in range(rng.randint(0, 2)):
            y = ex.add(y, ex.mul(_base_coefficient(rng, zero_vars),
                                 _positive_monomial(rng, W, 2, heads)))
        y_exprs.append(y)
    rows = []
    for a in range(n):
        row = [ex.const(inverse[a][v]) for v in range(n)]
        for v in range(k0, n):
            if rng.random() < 0.4:
                row[v] = ex.add(row[v], ex.mul(_base_coefficient(rng, zero_vars),
                                               _positive_monomial(rng, W, 1)))
        rows.append(row)
    return sb.frame(W, rows), y_exprs


def test_normalizers_are_s_factorial_as_the_frame_word_computes():
    rng = random.Random(1301)
    frames = compared = above_one = with_zero = 0
    while frames < 300:
        fr, y_exprs = _normalized_frame(rng)
        change = sb.adapted_coordinates(fr, y_exprs)
        all_s = sb._normal_multi_indices(fr.W, max(fr.W.weights), 2)
        expected = {s: _reference_normalizer(fr, y_exprs, s) for s in all_s}
        assert dict(change.normalizers) == expected, (fr.W, y_exprs)
        frames += 1
        with_zero += bool(fr.W.zero_vars)
        compared += len(expected)
        above_one += sum(c > 1 for c in expected.values())
    assert with_zero >= 200 and compared >= 150 and above_one >= 100


# ---------------------------------------------------------------------------
# nilpotent frame brackets

def _reference_bracket_labels(s, a, a_pos, u, b, b_pos) -> dict:
    """[x^s d_a, x^u d_b] expanded over monomial-field labels.

    a_pos and b_pos are the positions of x_a and x_b among the
    positive-weight variables, or None for a weight-0 variable.
    """
    out: dict = {}

    def accumulate(coeff, exps, direction):
        if coeff == 0:
            return
        key = (exps, direction)
        out[key] = out.get(key, Fraction(0)) + coeff
        if out[key] == 0:
            del out[key]

    if a_pos is not None and u[a_pos] > 0:
        exps = tuple(x + y for x, y in zip(s, u))
        exps = exps[:a_pos] + (exps[a_pos] - 1,) + exps[a_pos + 1:]
        accumulate(u[a_pos], exps, b)
    if b_pos is not None and s[b_pos] > 0:
        exps = tuple(x + y for x, y in zip(s, u))
        exps = exps[:b_pos] + (exps[b_pos] - 1,) + exps[b_pos + 1:]
        accumulate(-s[b_pos], exps, a)
    return out


def _reference_brackets(W, labels) -> tuple:
    pvars = W.positive_vars
    index = {lab: i for i, lab in enumerate(labels)}
    positions = [pvars.index(v) if v in pvars else None for v in W.vars]
    brackets = []
    for i, (s, a) in enumerate(labels):
        for j in range(i + 1, len(labels)):
            u, b = labels[j]
            expanded = _reference_bracket_labels(s, a, positions[a],
                                                 u, b, positions[b])
            entries = tuple(sorted((index[lab], coeff)
                                   for lab, coeff in expanded.items()))
            if entries:
                brackets.append(((i, j), entries))
    return tuple(brackets)


def test_nilpotent_brackets_match_the_label_expansion():
    rng = random.Random(1302)
    with_zero = nonzero = 0
    for _ in range(240):
        weights = sorted(rng.randint(0, 4) for _ in range(rng.randint(2, 4)))
        W = weight_sequence([(f"x{i}", w) for i, w in enumerate(weights)])
        g = nilpotent_frames(W)
        assert g.brackets == _reference_brackets(W, g.basis), weights
        with_zero += 0 in weights
        nonzero += bool(g.brackets)
    assert with_zero >= 100 and nonzero >= 150


# ---------------------------------------------------------------------------
# the term-map kernel on Expr values as it was, every sum started from ZERO
# and the degree taken per key, which the frame-word reference runs on

def _reference_add_into(acc, terms) -> None:
    for s, c in terms:
        acc[s] = ex.add(acc.get(s, ZERO), c)


def _reference_nonzero(acc) -> dict:
    return {s: c for s, c in acc.items() if c != ZERO}


def _reference_partial(terms, pvars, name) -> dict:
    """The term-map partial on Expr coefficients."""
    if name not in pvars:
        return {s: d for s, c in terms
                if (d := ex.differentiate(c, name)) != ZERO}
    a = pvars.index(name)
    return {s[:a] + (s[a] - 1,) + s[a + 1:]: ex.mul(ex.const(s[a]), c)
            for s, c in terms if s[a]}


def _reference_product(a, b, w=None, bound=None) -> dict:
    acc = {}
    for s, c in a:
        for u, d in b:
            key = tuple(x + y for x, y in zip(s, u))
            if bound is not None and weighted_degree(key, w) > bound:
                continue
            acc[key] = ex.add(acc.get(key, ZERO), ex.mul(c, d))
    return _reference_nonzero(acc)


# ---------------------------------------------------------------------------
# frame words on the base from truncated term maps

def _reference_adapted_coordinates(fr, y_exprs, y_names=None):
    """adapted_coordinates with every frame word applied to an Expr tree
    and restricted to the base afterwards."""
    W = fr.W
    n = W.n
    y_exprs = tuple(ex.as_expr(y) for y in y_exprs)
    if y_names is None:
        y_names = tuple(f"y{a + 1}" for a in range(n))
    else:
        y_names = tuple(y_names)
    for a in range(n):
        for b in range(n):
            value = sb.restrict_to_base(fr.apply(a, y_exprs[b]), W)
            expected = ONE if a == b else ZERO
            if value != expected:
                raise ValueError(
                    f"(V_{a + 1} y_{b + 1}) on the base is {ex.to_text(value)}, "
                    f"expected {ex.to_text(expected)}")
    k0 = W.count(0)
    for a in range(k0, n):
        if sb.restrict_to_base(y_exprs[a], W) != ZERO:
            raise ValueError(f"initial coordinate y_{a + 1} does not vanish "
                             f"on the base")
    max_w = max(W.weights)
    all_s = sb._normal_multi_indices(W, max_w, 2)
    chi = {}
    normalizers = {}
    apply_word = sb._word_applier(fr)

    def y_monomial(u):
        return ex.mul(*[ex.pow_(y_exprs[b], e) for b, e in enumerate(u) if e],
                      ONE)

    for s in all_s:
        sw = weighted_degree(s, W.weights)
        normalizers[s] = Fraction(math.prod(map(math.factorial, s)))
        for a in [a for a in range(k0, n) if sw < W.weights[a]]:
            total = sb.restrict_to_base(apply_word(s, y_exprs[a]), W)
            for (a2, u), coeff in chi.items():
                if a2 != a or sum(u) >= sum(s):
                    continue
                piece = apply_word(s, ex.mul(coeff, y_monomial(u)))
                total = ex.add(total, sb.restrict_to_base(piece, W))
            value = ex.expand(ex.mul(ex.const(Fraction(-1) / normalizers[s]), total))
            if value != ZERO:
                chi[(a, s)] = value
    x_in_chart = []
    x_in_y = []
    for a in range(n):
        chart = y_exprs[a]
        in_y = ex.var(y_names[a])
        for (a2, u), coeff in chi.items():
            if a2 != a:
                continue
            chart = ex.add(chart, ex.mul(coeff, y_monomial(u)))
            in_y = ex.add(in_y, ex.mul(coeff, wp.monomial_expr(y_names, u)))
        x_in_chart.append(chart)
        x_in_y.append(in_y)
    return sb.AdaptedChange(
        fr, y_names, tuple(x_in_chart), tuple(x_in_y),
        tuple(sorted(chi.items(), key=lambda item: item[0])),
        tuple(sorted(normalizers.items())))


def _reference_verify_adapted(x_exprs, fr) -> bool:
    W = fr.W
    x_exprs = tuple(ex.as_expr(x) for x in x_exprs)
    apply_word = sb._word_applier(fr)
    for a in range(W.n):
        wa = W.weights[a]
        if wa == 0:
            continue
        for s in sb._normal_multi_indices(W, wa, 0):
            value = sb.restrict_to_base(apply_word(s, x_exprs[a]), W)
            if ex.expand(value) != ZERO:
                return False
    return True


def _adapted_outcome(adapt, fr, y_exprs):
    """Everything adapted_coordinates hands out, as texts, or its error;
    and the change itself, or None."""
    try:
        change = adapt(fr, y_exprs)
    except ValueError as err:
        return ("error", str(err)), None
    return ([(key, ex.to_text(c)) for key, c in change.chi],
            change.normalizers,
            [ex.to_text(e) for e in change.x_in_chart],
            [ex.to_text(e) for e in change.x_in_y]), change


def _spoiled(rng, fr, y_exprs):
    """Initial coordinates that break the (V_a y_b) = identity precondition:
    two swapped, a linear term with a weight-0 coefficient added, or one
    multiplied by a function of a weight-0 variable."""
    W = fr.W
    y = list(y_exprs)
    b = rng.randrange(W.n)
    kind = rng.randrange(3)
    if kind == 0 and W.n > 1:
        c = rng.choice([c for c in range(W.n) if c != b])
        y[b], y[c] = y[c], y[b]
    elif kind == 1 or not W.zero_vars:
        coeff = _base_coefficient(rng, list(W.zero_vars))
        y[b] = ex.add(y[b], ex.mul(coeff, ex.var(rng.choice(W.vars))))
    else:
        z = ex.var(rng.choice(W.zero_vars))
        y[b] = ex.mul(y[b], ex.add(ONE, rng.choice([z, ex.app("sin", z)])))
    return y


def _unadapted(rng, fr, x_exprs):
    """x_exprs with one term of weighted degree below w_a added to x_a."""
    W = fr.W
    x = list(x_exprs)
    a = rng.choice([a for a in range(W.n) if W.weights[a]])
    s = rng.choice(sb._normal_multi_indices(W, W.weights[a], 0))
    term = ex.mul(_base_coefficient(rng, list(W.zero_vars)),
                  wp.monomial_expr(W.vars, s))
    x[a] = ex.add(x[a], term)
    return x


DENSE_WEIGHTS = weight_sequence([("x1", 1), ("x2", 2), ("x3", 4)], 4)


def _dense_fixture(rng):
    """Weights (1, 2, 4), a frame perturbed by monomials that vanish at the
    origin, and a third coordinate with every correction monomial, so that
    words of size 2 and 3 leave several chi entries."""
    x1, x2, x3 = (ex.var(v) for v in DENSE_WEIGHTS.vars)

    def c():
        return ex.const(rand_rational(rng, zero_ok=False))

    rows = [[ONE + c() * x1, c() * x1, c() * x1 * x2],
            [c() * x1, ONE, c() * x2],
            [c() * x1, c() * x1, ONE]]
    y_exprs = [x1, x2, x3 + c() * x1 ** 2 + c() * x1 ** 3 + c() * x1 * x2]
    return sb.frame(DENSE_WEIGHTS, rows), y_exprs


def _adaptation_cases(rng):
    from test_subbundle import _perturbed_fixture
    for i in range(480):
        kind = i % 3
        if kind == 0:
            yield "weight-0 heads", _normalized_frame(rng)
        elif kind == 1:
            yield "positive heads", _normalized_frame(rng, heads=True)
        else:
            yield "perturbed", _perturbed_fixture(rng, rng.randint(2, 3))
    for _ in range(40):
        yield "dense", _dense_fixture(rng)


def test_frame_words_on_the_base_match_the_expr_word_path():
    rng = random.Random(1401)
    counts = {"weight-0 heads": 0, "positive heads": 0, "perturbed": 0,
              "dense": 0}
    chi = refused = verdicts_false = verdicts_true = 0
    for kind, (fr, y_exprs) in _adaptation_cases(rng):
        expected, _ = _adapted_outcome(_reference_adapted_coordinates, fr,
                                       y_exprs)
        outcome, change = _adapted_outcome(sb.adapted_coordinates, fr, y_exprs)
        assert outcome == expected, (kind, fr.W, [ex.to_text(y) for y in y_exprs])
        counts[kind] += 1
        chi += len(expected[0])
        assert sb.verify_adapted(change.x_in_chart, fr)
        # the Expr words on x_in_chart with positive heads cost seconds
        adapted = [] if kind == "positive heads" else [change.x_in_chart]
        for x in adapted + [y_exprs, _unadapted(rng, fr, change.x_in_chart)]:
            verdict = _reference_verify_adapted(x, fr)
            assert sb.verify_adapted(x, fr) == verdict, \
                (kind, fr.W, [ex.to_text(e) for e in x])
            verdicts_true += verdict
            verdicts_false += not verdict
        spoiled = _spoiled(rng, fr, y_exprs)
        expected, _ = _adapted_outcome(_reference_adapted_coordinates, fr,
                                       spoiled)
        outcome, _ = _adapted_outcome(sb.adapted_coordinates, fr, spoiled)
        assert outcome == expected, (kind, fr.W, [ex.to_text(y) for y in spoiled])
        refused += expected[0] == "error"
    assert sum(counts.values()) >= 500 and counts["dense"] >= 40
    assert chi >= 240 and refused >= 500
    assert verdicts_false >= 600 and verdicts_true >= 700


# ---------------------------------------------------------------------------
# N4 on the graph rows

def _solve_exact(rows: list[list[Fraction]],
                 rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when inconsistent."""
    m = len(rows)
    cols = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        scale = aug[rank][col]
        aug[rank] = [v / scale for v in aug[rank]]
        for r in range(m):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    for r in range(rank, m):
        if aug[r][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = aug[r][cols]
    return x


def _random_level_system(rng):
    """An integer m x ncols matrix of rank at most r, as B C, with some rows
    zeroed, and right-hand sides: A x for a random x, or random."""
    m, ncols = rng.randint(1, 7), rng.randint(0, 6)
    r = rng.randint(0, min(m, ncols))
    B = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(m)]
    C = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(r)]
    A = [[sum(b * C[i][c] for i, b in enumerate(row)) for c in range(ncols)]
         for row in B]
    for i in rng.sample(range(m), rng.randint(0, m // 2)):
        A[i] = [0] * ncols
    rhs = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            x = [rng.randint(-3, 3) for _ in range(ncols)]
            rhs.append([sum(a * v for a, v in zip(row, x)) for row in A])
        else:
            rhs.append([rng.randint(-3, 3) for _ in range(m)])
    return A, rhs


def test_eliminate_matches_solve_exact_on_every_right_hand_side():
    rng = random.Random(2601)
    seen = {"rank_deficient": 0, "zero_row": 0, "consistent": 0,
            "inconsistent": 0, "several": 0}
    for k in range(3000):
        A, rhs = _random_level_system(rng)
        ncols = len(A[0])
        rows = [row + [b[i] for b in rhs] for i, row in enumerate(A)]
        d, pivots = sb._eliminate(rows, ncols)
        rank = len(pivots)
        for i, row in enumerate(rows):
            assert [row[p] for p in pivots] == [
                d * (i == q) for q in range(rank)], k
        for i, b in enumerate(rhs):
            expected = _solve_exact([list(map(Fraction, row)) for row in A],
                                    list(map(Fraction, b)))
            column = ncols + i
            if any(row[column] for row in rows[rank:]):
                assert expected is None, k
                seen["inconsistent"] += 1
                continue
            x = [Fraction(0)] * ncols
            for row, p in zip(rows, pivots):
                x[p] = Fraction(row[column], d)
            assert x == expected, k
            seen["consistent"] += 1
        seen["rank_deficient"] += rank < ncols
        seen["zero_row"] += any(not any(row) for row in A)
        seen["several"] += len(rhs) > 1
    assert min(seen.values()) >= 500, seen


def _reference_solve_as_lift(Q, weights, level, target):
    """Express target as (sum c_s x^s)^(level) restricted to the graph."""
    candidates = [s for s in exponents_below(weights, level + 1)
                  if weighted_degree(s, weights) == level]
    lifts = [sb.substitute_graph(Q, jt.jet_lift(wp.monomial_expr(Q.vars, s),
                                                level, Q.order, Q.vars))
             for s in candidates]
    monomials = sorted({m for p in lifts for m, _ in p.terms}
                       | {m for m, _ in target.terms})
    index = {m: i for i, m in enumerate(monomials)}
    rows = [[Fraction(0)] * len(candidates) for _ in monomials]
    for k, p in enumerate(lifts):
        for m, c in p.terms:
            rows[index[m]][k] = c
    rhs = [Fraction(0)] * len(monomials)
    for m, c in target.terms:
        rhs[index[m]] = c
    solution = _solve_exact(rows, rhs)
    if solution is None:
        return None
    return ex.add(*[ex.mul(ex.const(c), wp.monomial_expr(Q.vars, s))
                    for s, c in zip(candidates, solution) if c != 0], ZERO)


def _reference_filtration_verdict(Q, weights):
    """N4: filtration consistency through coordinate corrections."""
    corrections = {a: ZERO for a in range(Q.n)}
    ordered = sorted(Q.constraints, key=lambda item: (item[0][1], item[0][0]))
    for _ in range(Q.order + 2):
        dirty = False
        for (a, j), _g in ordered:
            corrected = ex.add(ex.var(Q.vars[a]),
                               ex.mul(ex.MINUS_ONE, corrections[a]))
            residual = sb.substitute_graph(
                Q, jt.jet_lift(corrected, j, Q.order, Q.vars))
            if residual.is_zero:
                continue
            dirty = True
            correction = _reference_solve_as_lift(Q, weights, j, residual)
            if correction is None:
                zero_weight_slots = any(
                    weights[b] == 0 for (b, _k) in jt.jp_labels(residual)
                    if b >= 0)
                if zero_weight_slots:
                    return sb.WeightingVerdict(
                        False, reason=sb.UNDECIDED,
                        witness=(f"constraint at {Q.vars[a]}.{j} depends on "
                                 f"weight-0 slots beyond the rational ansatz"))
                return sb.WeightingVerdict(
                    False, reason=sb.FILTRATION_MISMATCH,
                    witness=f"witness {Q.vars[a]} level {j}",
                    details={
                        "reconstructed_dim": sb._reconstructed_dimension(Q),
                        "graph_dim": Q.dim})
            corrections[a] = ex.add(corrections[a], correction)
        if not dirty:
            W = weight_sequence(list(zip(Q.vars, weights)), Q.order)
            return sb.WeightingVerdict(True, weights=W)
    return sb.WeightingVerdict(
        False, reason=sb.UNDECIDED,
        witness="coordinate corrections did not stabilize")


def _reference_check_weighting(Q):
    """check_weighting with the reference N4."""
    try:
        weights = sb._slot_weights(Q)
    except sb.FlagError as err:
        return sb.WeightingVerdict(False, reason=sb.FLAG_INVALID,
                                   witness=str(err))
    verdict = _reference_filtration_verdict(Q, weights)
    witness = None if verdict.accepted else sb._lambda_invariance_witness(Q)
    if witness is None:
        return verdict
    return sb.WeightingVerdict(False, reason=sb.LAMBDA_INVARIANCE,
                               witness=witness)


def _chain_graph(rng):
    """The graph of u_a = x_a - G_a, solved for the x-slots: each G_a is an
    integer combination of monomials of x-weighted degree 1 to 6 in every
    variable of lower weight, sheared ones and weight-0 ones included."""
    weights = sorted(rng.choice([0, 1, 1, 2, 3, 4, 5, 6]) for _ in range(3))
    weights[-1] = max(weights[-1], 2)
    names = tuple(f"x{a + 1}" for a in range(len(weights)))
    order = weights[-1] + rng.randint(0, 1)
    constraints = {}
    for a, wa in enumerate(weights):
        lower = [b for b in range(a) if weights[b] < wa]
        positive = [b for b in lower if weights[b]]
        terms = []
        for _ in range(rng.randint(0, 3) if positive else 0):
            factors = [rng.choice(positive)]
            while rng.random() < 0.5:
                factors.append(rng.choice(lower))
            if sum(weights[b] for b in factors) <= 6:
                c = rng.choice([-3, -2, -1, 1, 2, 3])
                terms.append(ex.mul(ex.const(c),
                                    *[ex.var(names[b]) for b in factors]))
        G = ex.add(*terms, ZERO)
        for j in range(wa):
            constraints[(a, j)] = jt.jp_substitute(
                jt.jet_lift(G, j, order, names), constraints)
    return sb.graph_subbundle(names, order, constraints)


def _verdict_tuple(verdict):
    return (verdict.accepted, verdict.reason, verdict.witness, verdict.details,
            verdict.weights)


def test_n4_on_the_graph_rows_matches_lift_then_substitute(monkeypatch):
    # one elimination per level with a residual, and some levels solve for
    # several residuals at once
    residual_counts = []

    def eliminate(rows, ncols):
        residual_counts.append(len(rows[0]) - ncols)
        return real_eliminate(rows, ncols)

    real_eliminate = sb._eliminate
    monkeypatch.setattr(sb, "_eliminate", eliminate)
    reasons = {}
    graphs = [_random_solved_graph(rng) for rng in map(random.Random,
                                                       (61, 71, 5, 9, 13))
              for _ in range(200)]
    for k, Q in enumerate(graphs):
        expected = _verdict_tuple(_reference_check_weighting(Q))
        assert _verdict_tuple(sb.check_weighting(Q)) == expected, k
        reasons[expected[1]] = reasons.get(expected[1], 0) + 1
    for reason in (None, sb.FILTRATION_MISMATCH, sb.LAMBDA_INVARIANCE,
                   sb.UNDECIDED):
        assert reasons.get(reason, 0) >= 5
    # the reference's x-monomial candidates reject genuine chain weightings,
    # so these are judged by their answer by construction: a weighting with
    # the generating weights (x_a is constrained below w_a).  The one
    # abstention is the weight-0 UNDECIDED, at the first constraint whose
    # right-hand side reads a weight-0 slot, where a weight-0 factor of a
    # G_a survives on the graph.
    rng = random.Random(1601)
    outcomes = {True: 0, False: 0}
    for k in range(600):
        Q = _chain_graph(rng)
        weights = [sum(b == a for (b, _j), _g in Q.constraints)
                   for a in range(Q.n)]
        verdict = sb.check_weighting(Q)
        weight0 = sorted((j, a) for (a, j), g in Q.constraints
                         if any(weights[b] == 0 for b, _k in jt.jp_labels(g)))
        if weight0:
            j, a = weight0[0]
            assert (verdict.reason, verdict.witness) == (
                sb.UNDECIDED, f"constraint at {Q.vars[a]}.{j} depends on "
                              f"weight-0 slots beyond the rational ansatz"), k
        else:
            assert verdict.accepted, (k, str(verdict))
            assert verdict.weights.weights == tuple(weights), k
        outcomes[not weight0] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 20, outcomes
    assert sum(k >= 2 for k in residual_counts) >= 100, residual_counts


def _reference_induced_filtration_degree(Q, f):
    """Largest i <= r+1 with all lower lifts of f vanishing on the graph."""
    r = Q.order
    for j in range(r + 1):
        lifted = jt.jet_lift(f, j, r, Q.vars)
        if not sb.substitute_graph(Q, lifted).is_zero:
            return j
    return r + 1


def _graph_function(rng, Q):
    """A polynomial in the chart variables: one variable, a random
    polynomial, or a random polynomial times a product of variables, so the
    induced degrees spread over the levels."""
    kind = rng.randrange(3)
    if kind == 0:
        return ex.var(rng.choice(Q.vars))
    f = rand_poly_expr(rng, Q.vars, max_degree=3, max_terms=3)
    if kind == 1:
        return f
    return ex.mul(f, *[ex.var(rng.choice(Q.vars))
                       for _ in range(rng.randint(1, 2))])


def test_series_on_the_graph_rows_is_lift_then_substitute():
    rng = random.Random(1602)
    weight0 = 0
    for _ in range(300):
        Q = _random_solved_graph(rng)
        f = _graph_function(rng, Q)
        r = Q.order
        fields, rows = jt._row_fields(sb._graph_rows(Q, r), jt._degree(f))
        levels, den = jt._generic_series(f, dict(zip(Q.vars, rows)), r)
        for j in range(r + 1):
            assert fields.seal(levels[j], den) == sb.substitute_graph(
                Q, jt.jet_lift(f, j, r, Q.vars)), (Q, ex.to_text(f), j)
        weight0 += any((a, 0) not in Q.constrained_labels()
                       for a in range(Q.n))
    assert weight0 >= 40


def test_induced_filtration_degree_is_the_first_lift_off_the_graph():
    rng = random.Random(1603)
    degrees = []
    for _ in range(320):
        Q = _random_solved_graph(rng)
        f = _graph_function(rng, Q)
        degrees.append(sb.induced_filtration_degree(Q, f))
        assert degrees[-1] == _reference_induced_filtration_degree(Q, f), \
            (Q, ex.to_text(f))
    assert len(set(degrees)) >= 5 and degrees.count(0) <= 200
    Q = _random_solved_graph(rng)
    for f in (ex.app("sin", ex.var(Q.vars[0])), ex.var("nowhere")):
        with pytest.raises(ValueError) as expected:
            _reference_induced_filtration_degree(Q, f)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            sb.induced_filtration_degree(Q, f)


# ---------------------------------------------------------------------------
# one blow-up chart builder

def _reference_blowup_center(W, center, sign):
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if center not in W.vars:
        raise KeyError(f"unknown variable {center!r}")
    c = W.vars.index(center)
    if W.weights[c] < 1:
        raise ValueError(f"variable {center!r} has weight 0 and is not a "
                         f"blow-up direction")
    return c


def _reference_blowup_chart(W, center, sign):
    """The chart built in its own loop: z_c = t y_c^(1/w_c) and
    z_a = y_a y_c^(-w_a/w_c)."""
    c = _reference_blowup_center(W, center, sign)
    wc = W.weights[c]
    ynames = sp.deformation_names(W)
    znames = sp.chart_names(W)
    comps = {}
    for a in range(W.n):
        if a == c:
            comps[znames[a]] = (Fraction(1),
                                {"t": Fraction(1), ynames[c]: Fraction(1, wc)})
        else:
            comps[znames[a]] = (Fraction(1),
                                {ynames[a]: Fraction(1),
                                 ynames[c]: Fraction(-W.weights[a], wc)})
    comps["t"] = (Fraction(1), {"t": Fraction(1)})
    return sp.rational_map(tuple(ynames) + ("t",), tuple(znames) + ("t",),
                           comps, sign)


def _reference_blowup_chart_inverse(W, center, sign):
    """The inverse built in its own loop: y_c = z_c^(w_c) t^(-w_c) and
    y_a = z_a z_c^(w_a) t^(-w_a)."""
    c = _reference_blowup_center(W, center, sign)
    wc = W.weights[c]
    ynames = sp.deformation_names(W)
    znames = sp.chart_names(W)
    comps = {}
    for a in range(W.n):
        if a == c:
            comps[ynames[a]] = (Fraction(1),
                                {znames[c]: Fraction(wc), "t": Fraction(-wc)})
        else:
            comps[ynames[a]] = (Fraction(1),
                                {znames[a]: Fraction(1),
                                 znames[c]: Fraction(W.weights[a]),
                                 "t": Fraction(-W.weights[a])})
    comps["t"] = (Fraction(1), {"t": Fraction(1)})
    return sp.rational_map(tuple(znames) + ("t",), tuple(ynames) + ("t",),
                           comps, sign)


def _chart_outcome(build, W, center, sign):
    """The map and its text, or the exception type and text."""
    try:
        chart = build(W, center, sign)
    except (KeyError, ValueError) as err:
        return type(err), str(err)
    return chart, str(chart)


def test_one_blowup_builder_matches_the_two_chart_loops():
    outcomes = {KeyError: 0, ValueError: 0, "chart": 0}
    for n in range(1, 5):
        for weights in itertools.combinations_with_replacement(range(7), n):
            W = weight_sequence(list(zip(("p", "q", "r", "s"), weights)))
            for center in W.vars + ("u",):
                for sign in ("+", "-", "*"):
                    for build, reference in (
                            (sp.blowup_chart, _reference_blowup_chart),
                            (sp.blowup_chart_inverse,
                             _reference_blowup_chart_inverse)):
                        expected = _chart_outcome(reference, W, center, sign)
                        assert _chart_outcome(build, W, center, sign) \
                            == expected, (W, center, sign)
                        kind = expected[0]
                        outcomes[kind if kind in outcomes else "chart"] += 1
    assert outcomes["chart"] >= 3000 and outcomes[KeyError] >= 1000
    assert outcomes[ValueError] >= 3000


# ---------------------------------------------------------------------------
# one monomial printer

def _reference_spaces_monomial_text(coeff, exps):
    factors = []
    for v, q in exps:
        if q == 1:
            factors.append(v)
        elif q.denominator == 1 and q > 0:
            factors.append(f"{v}^{q}")
        else:
            factors.append(f"{v}^({q})")
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    return body if coeff == 1 else f"{coeff}*{body}"


def _reference_wpoly_monomial_text(pvars, exponents):
    parts = [v if s == 1 else f"{v}^{s}"
             for v, s in zip(pvars, exponents) if s]
    return "*".join(parts)


def _reference_jp_text(p, names=None):
    if p.is_zero:
        return "0"

    def slot_name(label):
        a, j = label
        base = names[a] if names is not None else f"x{a + 1}"
        return f"{base}.{j}"

    return ex._terms_text(
        (ex.const(c), "*".join(slot_name(l) + (f"^{e}" if e != 1 else "")
                               for l, e in m))
        for m, c in sorted(p.terms, key=lambda item: (
            sum(e * j for (_, j), e in item[0]), item[0])))


def _rand_exponent(rng) -> Fraction:
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(rng.randint(1, 12))
    if kind == 1:
        return Fraction(-rng.randint(1, 12))
    return Fraction(rng.randint(-12, 12), rng.randint(2, 5))


def test_one_monomial_printer_matches_the_three_it_replaced():
    rng = random.Random(1701)
    names = ("x", "y", "z1", "t", "y2")
    seen = {"positive": 0, "negative": 0, "fractional": 0, "empty": 0}
    for _ in range(3000):
        size = rng.randint(0, 4)
        exps = tuple((v, _rand_exponent(rng)) for v in rng.sample(names, size))
        coeff = rng.choice([Fraction(1), rand_rational(rng, zero_ok=False)])
        assert sp.monomial_text(coeff, exps) == \
            _reference_spaces_monomial_text(coeff, exps), (coeff, exps)
        seen["empty"] += not exps
        seen["positive"] += any(q > 0 and q.denominator == 1 for _, q in exps)
        seen["negative"] += any(q < 0 for _, q in exps)
        seen["fractional"] += any(q.denominator > 1 for _, q in exps)
        # wpoly and jets print positive integer exponents only
        pvars = names[:size]
        exponents = tuple(rng.randint(0, 4) for _ in pvars)
        assert wp.monomial_text(pvars, exponents) == \
            _reference_wpoly_monomial_text(pvars, exponents), exponents
        p = jt.jetpoly({tuple(sorted({(rng.randint(0, 2), rng.randint(0, 3)):
                                      rng.randint(1, 4)
                                      for _ in range(rng.randint(0, 3))}
                                     .items())): rand_rational(rng)
                        for _ in range(rng.randint(0, 4))})
        slot_names = rng.choice([None, ("a", "b", "c")])
        assert jt.jp_text(p, slot_names) == _reference_jp_text(p, slot_names)
    assert min(seen.values()) >= 400, seen


# ---------------------------------------------------------------------------
# one word applier per operator

def _reference_apply_diffop(D, f):
    """sum_s f_s (V^s f), one Frame.apply_word per term, summed pairwise."""
    if isinstance(f, wp.WeightedPoly):
        f = wp.to_expr(f)
    out = ZERO
    for s, coeff in D.terms:
        out = ex.add(out, ex.mul(coeff, D.frame.apply_word(s, f)))
    return out


BRACKET_WEIGHTS = weight_sequence({"x1": 1, "x2": 1, "x3": 2}, 2)


def _operator(rng):
    """A frame shaped like those of test_subbundle and an operator on it:
    a normal-ordered word on the bracket frame V2 = d2 + x1 d3, or random
    terms f_s V^s with |s| <= 3 on a perturbed, normalized or coordinate
    frame."""
    from test_subbundle import _perturbed_fixture
    kind = rng.randrange(4)
    if kind == 0:
        x1 = ex.var("x1")
        fr = sb.frame(BRACKET_WEIGHTS, [[ONE, ZERO, ZERO], [ZERO, ONE, x1],
                                        [ZERO, ZERO, ONE]])
        word = [rng.choice([0, 1, 2, rand_poly_expr(rng, fr.W.vars, 2, 2)])
                for _ in range(rng.randint(1, 4))]
        return kind, sb.normal_order(fr, word)
    if kind == 1:
        fr, _ = _perturbed_fixture(rng, rng.randint(2, 3))
    elif kind == 2:
        fr, _ = _normalized_frame(rng)
    else:
        W = rand_weight_sequence(rng, max_n=3, max_order=3)
        fr = sb.frame(W, [[ONE if b == a else ZERO for b in range(W.n)]
                          for a in range(W.n)])
    terms = {}
    for _ in range(rng.randint(1, 4)):
        s = [0] * fr.n
        for _ in range(rng.randint(0, 3)):
            s[rng.randrange(fr.n)] += 1
        terms[tuple(s)] = rand_poly_expr(rng, fr.W.vars, 2, 2)
    return kind, sb.diffop(fr, terms)


def test_one_word_applier_per_operator_matches_the_per_word_sum():
    rng = random.Random(1702)
    kinds = [0] * 4
    shared = 0
    for _ in range(240):
        kind, D = _operator(rng)
        W = D.frame.W
        f = rand_poly_expr(rng, W.vars, 3, 3)
        if rng.random() < 0.3:
            f = wp.poly_normal_form(f, W.positive_vars)
        assert sb.apply_diffop(D, f) == _reference_apply_diffop(D, f), \
            (kind, str(D), str(f))
        kinds[kind] += 1
        words = [s for s, _ in D.terms if any(s)]
        shared += len(words) > 1
    assert min(kinds) >= 40 and shared >= 100


# ---------------------------------------------------------------------------
# base values read off the stored term maps

def _reference_frame(W, coeff_rows):
    """frame() with every base value read off an Expr restricted to the
    base."""
    fields = tuple(vf_for_weights(W, row) for row in coeff_rows)
    fr = sb.Frame(W, fields)
    origin = {v: Fraction(0) for v in W.zero_vars}
    at_origin = [[ex.const(ex.eval_exact(sb.restrict_to_base(c, W), origin))
                  for c in fr.field_exprs(a)] for a in range(W.n)]
    if sb._det_expr(at_origin) == ZERO:
        raise ValueError("frame coefficient matrix is singular at the base point")
    k0 = W.count(0)
    for a in range(k0):
        for b in range(a):
            bracket = lie_bracket(fields[a], fields[b])
            for v, c in zip(W.vars, bracket.coeff_exprs()):
                if W.weight_of(v) == 0 and sb.restrict_to_base(c, W) != ZERO:
                    raise ValueError(
                        "base-tangent frame fields do not commute on the base")
    return fr


def _frame_outcome(build, W, rows):
    try:
        return build(W, rows).fields
    except ValueError as err:
        return "error", str(err)


def _spoiled_rows(rng, fr):
    """The frame's rows with one row times a function that vanishes at the
    origin (singular there), or with a weight-0 entry of a base-tangent
    field moved by a weight-0 variable (its brackets may not vanish)."""
    W = fr.W
    rows = [list(fr.field_exprs(a)) for a in range(W.n)]
    k0 = W.count(0)
    a = rng.randrange(W.n)
    if k0 < 2 or rng.random() < 0.2:
        g = ex.var(rng.choice(W.vars))
        if W.zero_vars and rng.random() < 0.3:
            g = ex.app("sin", ex.var(rng.choice(W.zero_vars)))
        rows[a] = [ex.mul(g, c) for c in rows[a]]
        return rows
    a, b = rng.randrange(k0), rng.randrange(k0)
    z = ex.var(rng.choice(W.zero_vars))
    term = rng.choice([z, ex.app("sin", z), ex.mul(z, z)])
    rows[a][b] = ex.add(rows[a][b],
                        ex.mul(ex.const(rand_rational(rng, zero_ok=False)),
                               term))
    return rows


def _frame_cases(rng):
    from test_subbundle import _perturbed_fixture
    for i in range(300):
        if i % 3 == 2:
            yield _perturbed_fixture(rng, rng.randint(2, 3))
        else:
            yield _normalized_frame(rng, heads=i % 3 == 1)


def test_frame_reads_base_values_off_the_term_maps():
    rng = random.Random(1703)
    outcomes = {}
    for fr, _y_exprs in _frame_cases(rng):
        rows = [list(fr.field_exprs(a)) for a in range(fr.n)]
        assert sb.frame(fr.W, rows).fields == fr.fields
        for rows in (rows, _spoiled_rows(rng, fr)):
            expected = _frame_outcome(_reference_frame, fr.W, rows)
            assert _frame_outcome(sb.frame, fr.W, rows) == expected, \
                (fr.W, [[ex.to_text(c) for c in row] for row in rows])
            key = expected[1] if expected[0] == "error" else "frame"
            outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes["frame"] >= 310, outcomes
    assert outcomes["frame coefficient matrix is singular at the base "
                    "point"] >= 200, outcomes
    assert outcomes["base-tangent frame fields do not commute on the "
                    "base"] >= 20, outcomes


def test_initial_coordinates_that_do_not_vanish_on_the_base_are_refused():
    rng = random.Random(1704)
    refused = 0
    for fr, y_exprs in _frame_cases(rng):
        W = fr.W
        y = list(y_exprs)
        b = rng.randrange(W.count(0), W.n)
        y[b] = ex.add(y[b], ex.const(rand_rational(rng, zero_ok=False)))
        expected, _ = _adapted_outcome(_reference_adapted_coordinates, fr, y)
        outcome, _ = _adapted_outcome(sb.adapted_coordinates, fr, y)
        assert outcome == expected, (W, [ex.to_text(e) for e in y])
        refused += expected == ("error", f"initial coordinate y_{b + 1} does "
                                         f"not vanish on the base")
    assert refused == 300


# ---------------------------------------------------------------------------
# generated JetPolys


# slot labels (a, j), with the psi labels (-1, m) of the N3 substitution
JET_LABELS = [(a, j) for a in range(-1, 3) for j in range(4)]


# ---------------------------------------------------------------------------
# one field printer, one Expr field applier, the frame words on the base

def _reference_pvf_text(X):
    parts = [f"({wp.wpoly_text(c)}) d/d[{v}]"
             for v, c in zip(X.vars, X.coeffs) if not c.is_zero]
    return " + ".join(parts) if parts else "0"


def _reference_def_field_text(F):
    parts = [f"({ex.to_text(c)}) d/d[{n}]" for n, c in F.components]
    return " + ".join(parts) if parts else "0"


def _reference_blowup_field_text(B):
    parts = []
    for n, terms in B.components:
        body = ex._terms_text((c, ex._monomial_text(m)) for c, m in terms)
        parts.append(f"({body}) d/d[{n}]")
    return " + ".join(parts) if parts else "0"


def _reference_jet_field_text(xi):
    if xi.is_zero:
        return "0"
    return " + ".join(f"({jt.jp_text(c)}) d/d[x{a + 1}.{k}]"
                      for (a, k), c in xi.terms)


def _rand_field(rng, W, zeros=0.3):
    return vf_for_weights(W, [ZERO if rng.random() < zeros
                              else rand_poly_expr(rng, W.vars, 3, 3)
                              for _ in W.vars])


def _rand_def_field(rng, W):
    names = sp.deformation_names(W) + ("t",)
    return sp.DeformationField(W, 0, tuple(
        (n, rng.choice([ZERO, rand_expr(rng, names, 2)]))
        for n in sorted(rng.sample(names, rng.randint(0, len(names))))))


def test_one_field_printer_matches_the_four_joins():
    rng = random.Random(1802)
    empty = 0
    for _ in range(300):
        W = rand_weight_sequence(rng, max_n=3, max_order=3, min_weight=0)
        X = _rand_field(rng, W, zeros=rng.choice([0.3, 1.0]))
        assert str(X) == _reference_pvf_text(X)
        def_fields = [_rand_def_field(rng, W), sp.theta_field(W)]
        if not X.is_zero:
            def_fields.append(sp.def_vf_interpolant(X, -W.order, W))
        for F in def_fields:
            assert str(F) == _reference_def_field_text(F)
        chart = sp.blowup_chart(W, W.vars[-1], rng.choice("+-")) \
            if W.weights[-1] else None
        if chart is not None:
            znames = sp.chart_names(W)
            B = sp.BlowupField(chart, tuple(
                (n, tuple((ex.const(rand_rational(rng, zero_ok=False)),
                           tuple((v, _rand_exponent(rng))
                                 for v in rng.sample(znames, min(W.n, 2))))
                          for _ in range(rng.randint(1, 3))))
                for n in sorted(rng.sample(znames, rng.randint(0, W.n)))))
            assert str(B) == _reference_blowup_field_text(B)
        xi = jt.jet_vf({(a, k): rand_jetpoly(rng, JET_LABELS, max_exponent=2)
                        for a, k in rng.sample(JET_LABELS[4:], 3)})
        assert str(xi) == _reference_jet_field_text(xi)
        xi = jt.vf_lift(X, rng.randint(0, 1), 2)
        assert str(xi) == _reference_jet_field_text(xi)
        empty += X.is_zero
    assert empty >= 50


def _reference_frame_apply(fr, a, f):
    return ex.add(*[ex.mul(c, ex.differentiate(f, v))
                    for v, c in zip(fr.W.vars, fr.field_exprs(a))
                    if c != ZERO])


def _reference_def_field_apply(F, f):
    return ex.add(*[ex.mul(c, ex.differentiate(f, n))
                    for n, c in F.components], ZERO)


def test_one_expr_field_applier_matches_the_two_loops():
    rng = random.Random(1804)
    for _ in range(120):
        fr, _y = _normalized_frame(rng, heads=rng.random() < 0.5)
        f = rand_expr(rng, fr.W.vars)
        for a in range(fr.n):
            assert fr.apply(a, f) == _reference_frame_apply(fr, a, f)
        F = _rand_def_field(rng, fr.W)
        g = rand_expr(rng, sp.deformation_names(fr.W) + ("t",))
        assert F.apply(g) == _reference_def_field_apply(F, g)


def _reference_base_words(fields, pvars, f, top):
    """The _base_words loop over dict coefficient maps."""
    ones = (1,) * len(pvars)
    zero = (0,) * len(pvars)
    memo = {(0,) * len(fields): f}

    def truncated(s):
        if s not in memo:
            c = next(c for c, e in enumerate(s) if e)
            g = truncated(s[:c] + (s[c] - 1,) + s[c + 1:])
            acc = {}
            for v, coeff in fields[c]:
                _reference_add_into(acc, _reference_product(
                    coeff.items(), _reference_partial(g.items(), pvars, v).items(),
                    ones, top - sum(s)).items())
            memo[s] = _reference_nonzero(acc)
        return memo[s]

    return lambda s: truncated(tuple(s)).get(zero, ZERO)


def test_frame_words_on_the_base_match_the_dict_loop():
    rng = random.Random(1805)
    words = 0
    for _, (fr, y_exprs) in itertools.islice(_adaptation_cases(rng), 150):
        W = fr.W
        pvars = W.positive_vars
        top = rng.randint(1, 3)
        fields = sb._field_maps(fr, top - 1)
        dict_fields = [[(v, {s: ex.as_expr(c) for s, c in m}) for v, m in row]
                       for row in fields]
        f = wp._expand(rng.choice(y_exprs), pvars, (1,) * len(pvars), top)
        on_base = sb._base_words(fields, pvars, f, top)
        reference = _reference_base_words(
            dict_fields, pvars, {s: ex.as_expr(c) for s, c in f.items()}, top)
        for s in itertools.product(range(top + 1), repeat=W.n):
            if sum(s) <= top:
                assert on_base(s) == reference(s), (W, s)
                words += 1
    assert words >= 1500


# ---------------------------------------------------------------------------
# the jet kernel's seal and field applier, and N3 on raw series


def _reference_seal(fields, nums, den):
    """Keys unpacked from the lowest field up, as seal did before it peeled
    them from the top field down, and one Fraction per term."""
    w, mask, labels = fields.width, fields.mask, fields.labels
    integral = den == 1  # Fraction(c) skips the gcd
    terms = []
    for key, c in nums.items():
        if c:
            m = []
            while key:
                k = ((key & -key).bit_length() - 1) // w
                off = k * w
                e = key >> off & mask
                m.append((labels[k], e))
                key ^= e << off
            terms.append((tuple(m), Fraction(c) if integral
                          else Fraction(c, den)))
    terms.sort(key=lambda item: item[0])
    return jt.JetPoly(tuple(terms))


def test_seal_builds_one_fraction_per_distinct_numerator():
    rng = random.Random(1902)
    for _ in range(300):
        p = rand_jetpoly(rng, JET_LABELS, max_terms=8, max_exponent=3)
        fields = jt._Fields(jt.jp_labels(p), 3)
        (nums,), den = fields.raw(p)
        nums = {m: rng.choice([0, 1, -2, 3]) * v for m, v in nums.items()}
        den *= rng.choice([1, 1, 2, 6])
        sealed = fields.seal(nums, den)
        assert sealed == _reference_seal(fields, nums, den)
        assert len({id(c) for _, c in sealed.terms}) == \
            len({c for _, c in sealed.terms})


def _reference_apply_into(out, field, nums, fields):
    """out += field(nums), differentiating by every label of the packing."""
    offsets, mask = fields.offsets, fields.mask
    for label, c in field:
        if label in offsets:  # else no monomial of nums has the slot
            off = offsets[label]
            one = 1 << off
            dp = {m - one: v * e for m, v in nums.items()
                  if (e := m >> off & mask)}
            jt._mul_into(out, c, dp)
    return out


_PACKING_LABELS = [(a, j) for a in range(3) for j in range(4)]


def _packed(rng, fields, labels, top):
    """A key holding exponents 0 to top, often 0 or top, in the labels."""
    return sum(rng.choice([0, 1, top, rng.randint(0, top)])
               << fields.offsets[label] for label in labels)


def test_top_down_seal_and_masked_applier_match_the_kernel_they_replaced():
    rng = random.Random(1903)
    seen = {"empty": 0, "at-bound": 0, "full-field": 0, "one-label": 0,
            "den-1": 0, "den>1": 0, "absent": 0, "skipped": 0, "outside": 0}
    for _ in range(1500):
        labels = rng.sample(_PACKING_LABELS, rng.randint(1, 5))
        # the bounds 1, 3, 7 and 15 fill their fields
        bound = rng.choice([1, 2, 3, 6, 7, 10, 15])
        fields = jt._Fields(labels, bound)
        used = rng.sample(labels, rng.randint(1, len(labels)))
        nums = {_packed(rng, fields, used, bound):
                rng.choice([0, 1, -1, rng.randint(-40, 40)])
                for _ in range(rng.randint(0, 8))}
        den = rng.choice([1, 1, 2, 6, rng.randint(1, 30)])
        sealed = fields.seal(nums, den)
        assert sealed == _reference_seal(fields, nums, den), (labels, nums)
        seen["empty"] += any(not m for m, _ in sealed.terms)
        exponents = {e for m, _ in sealed.terms for _, e in m}
        seen["at-bound"] += bound in exponents
        seen["full-field"] += fields.mask in exponents
        seen["one-label"] += len(labels) == 1 and bool(sealed.terms)
        seen["den-1" if den == 1 else "den>1"] += 1
        # a field of labels, some outside the packing, applied to numerators
        # of exponents at most half the bound, so its products stay within it
        top = bound // 2
        nums = {_packed(rng, fields, used, top): rng.randint(-9, 9)
                for _ in range(rng.randint(0, 6))}
        field = [(label, {_packed(rng, fields, used, top): rng.randint(-9, 9)
                          for _ in range(rng.randint(1, 3))})
                 for label in rng.sample(_PACKING_LABELS, 4)]
        out = {_packed(rng, fields, used, bound): rng.randint(-9, 9)}
        expected = _reference_apply_into(dict(out), field, nums, fields)
        assert jt._apply_into(out, field, nums, fields) is out
        assert out == expected, (labels, field, nums)
        support = functools.reduce(operator.or_, nums, 0)
        for label, _c in field:
            if label not in fields.offsets:
                seen["outside"] += 1
            elif not support >> fields.offsets[label] & fields.mask:
                seen["skipped"] += 1
        seen["absent"] += len(used) < len(labels)
    assert min(seen.values()) >= 100, seen


def _reference_lambda_invariance_witness(Q):
    """N3 on sealed JetPolys: reparametrize the rows, substitute the free
    values into each right-hand side and compare."""
    top = max((j for (_a, j), _g in Q.constraints), default=0)
    rows = sb._graph_rows(Q, top)
    psi = [jt.jp_slot(-1, m) for m in range(1, top + 1)]
    new_vals = jt.jp_reparametrize(rows, psi)
    constrained = Q.constrained_labels()
    free = {(b, k): row[k] for b, row in enumerate(new_vals)
            for k in range(top + 1) if (b, k) not in constrained}
    for (a, j), g in Q.constraints:
        if new_vals[a][j] != jt.jp_substitute(g, free):
            return (f"slot {Q.vars[a]}.{j} moves off the graph under a generic "
                    f"reparametrization")
    return None


def _fixture_graphs():
    from weightings import cli
    root = Path(__file__).resolve().parent
    paths = [root.parent / "fixtures" / "antisymmetric_relation.prob",
             root.parent / "fixtures" / "flag_gap.prob",
             root / "golden" / "sheared_graph.prob",
             root / "golden" / "zero_repeated.prob"]
    return [cli._graph_from_sections(cli.parse_problem_file(p.read_text()))
            for p in paths]


def test_lambda_invariance_on_raw_series_matches_the_jetpoly_loop():
    rng = random.Random(61)
    graphs = [_random_solved_graph(rng) for _ in range(300)]
    graphs += _fixture_graphs()
    rng = random.Random(1903)
    graphs += [_chain_graph(rng) for _ in range(100)]
    witnesses = 0
    for k, Q in enumerate(graphs):
        expected = _reference_lambda_invariance_witness(Q)
        assert sb._lambda_invariance_witness(Q) == expected, k
        witnesses += expected is not None
    assert witnesses >= 50 and len(graphs) - witnesses >= 100


# ---------------------------------------------------------------------------
# constants fold in add and mul, and the Expr field applier


def test_two_constants_fold_to_the_node_of_the_general_path():
    rng = random.Random(2004)
    zeros = 0
    for _ in range(600):
        a = ex.const(rand_rational(rng))
        b = ex.const(-a.value if rng.random() < 0.2 else rand_rational(rng))
        for fold, general in ((ex.add(a, b), ex.add(a, b, ZERO)),
                              (ex.mul(a, b), ex.mul(a, b, ONE))):
            assert type(fold) is type(general) is ex.Const
            assert type(fold.value) is type(general.value) is Fraction
            assert fold == general and hash(fold) == hash(general)
            assert repr(fold) == repr(general)
            assert (fold is ZERO) == (general is ZERO) == (fold.value == 0)
            zeros += fold is ZERO
    assert zeros >= 150


def _node_of_each_class(rng) -> dict:
    """Generated canonical nodes by class; a Prod with a leading constant is
    "Prod*", one without it "Prod"."""
    names = ("x", "y", "z")
    nodes: dict = {}
    while min(map(len, nodes.values()), default=0) < 40 or len(nodes) < 7:
        e = rand_expr(rng, names)
        kind = type(e).__name__
        if kind == "Prod" and type(e.factors[0]) is ex.Const:
            kind = "Prod*"
        nodes.setdefault(kind, []).append(e)
    return nodes


def test_a_constant_times_a_node_is_the_node_of_the_general_path():
    rng = random.Random(2505)
    nodes = _node_of_each_class(rng)
    assert set(nodes) == {"Const", "Var", "Sum", "Prod", "Prod*", "Pow", "App"}
    cancelled = 0
    for kind, es in nodes.items():
        for e in es:
            lead = ex._split_coeff(e)[0]
            for q in (ZERO, ONE, ex.const(rand_rational(rng)),
                      ex.const(1 / lead) if lead else ONE):
                general = ex.mul(q, e, ONE)
                for fast in (ex.mul(q, e), ex.mul(e, q)):
                    assert type(fast) is type(general)
                    assert fast == general and hash(fast) == hash(general)
                    assert repr(fast) == repr(general)
                    assert (fast is ZERO) == (general is ZERO)
                cancelled += kind == "Prod*" and q.value * lead == 1
    assert cancelled >= 10


def _reference_apply_expr_field(pairs, f):
    """The Expr field applier as it was: every derivative multiplied."""
    return ex.add(*[ex.mul(c, ex.differentiate(f, v))
                    for v, c in pairs if c != ZERO])


def test_the_expr_field_applier_matches_the_comprehension_it_replaced():
    rng = random.Random(2506)
    names = ("x", "y", "z", "w")
    constant = 0
    for _ in range(600):
        pairs = [(v, ZERO if rng.random() < 0.25 else rand_expr(rng, names))
                 for v in rng.sample(names, rng.randint(1, 3))]
        # half the time f lies in variables the field does not touch
        unused = [v for v in names if v not in dict(pairs)] or ["u"]
        f = rand_expr(rng, unused if rng.random() < 0.5 else names)
        got = _apply_expr_field(pairs, f)
        expected = _reference_apply_expr_field(pairs, f)
        assert got == expected and repr(got) == repr(expected)
        constant += all(ex.differentiate(f, v) == ZERO for v, _c in pairs)
    assert constant >= 200


# ---------------------------------------------------------------------------
# ideal generators solved from their first variable

def _reference_ideal_generators(W, degree):
    """The head walk: every exponent tuple of the variables but the last,
    below degree + max(head), with the last exponent solved and a
    minimality filter."""
    w = W.positive_weights
    if not w:
        return set()
    *head, last = w
    out = set()
    for s in exponents_below(head, degree + max(head, default=0)):
        total = weighted_degree(s, head)
        e = max(0, -(-(degree - total) // last))
        total += e * last
        if all(x == 0 or total - wa < degree for x, wa in zip(s, head)):
            out.add(s + (e,))
    return out


def test_ideal_generators_match_the_head_walk():
    rng = random.Random(2701)
    positive, largest = set(), 0
    for _ in range(2400):
        n = rng.randint(1, 5)
        # weight spreads up to 40 and degrees up to 300; the head walk
        # passes about degree^(n-1) / prod(head) heads, so the degree
        # shrinks as the chart grows
        weights = sorted(rng.randint(0, rng.choice((3, 9, 40)))
                         for _ in range(n))
        degree = rng.randint(1, (300, 300, 80, 32, 18)[n - 1])
        W = weight_sequence([(f"x{a}", w) for a, w in enumerate(weights)])
        expected = _reference_ideal_generators(W, degree)
        assert ideal_generators(W, degree) == expected, (weights, degree)
        positive.add(len(W.positive_weights))
        largest = max(largest, len(expected))
    assert positive == set(range(6)) and largest > 1000


# ---------------------------------------------------------------------------
# the jet kernel's seal on wide packings and the frame's bracket partners,
# each against the code it replaced

_WIDE_LABELS = [(a, j) for a in range(-1, 6) for j in range(6)]


def _prefix_family(rng, labels, bound):
    """A monomial on the labels, as (label, exponent) pairs sorted by label,
    with exponents 1 to bound (often 1 or bound), and each of its prefixes."""
    chosen = sorted(rng.sample(labels, rng.randint(1, len(labels))))
    m = [(label, rng.choice([1, bound, rng.randint(1, bound)]))
         for label in chosen]
    return [m[:k] for k in range(len(m) + 1)]


def test_seal_matches_the_reference_on_wide_packings_and_prefixes():
    rng = random.Random(3001)
    seen = {"30 labels": 0, "bound 99999": 0, "past 64 bits": 0,
            "prefixes": 0, "one label": 0, "same labels": 0, "den>1": 0}
    for _ in range(1200):
        labels = rng.sample(_WIDE_LABELS, rng.choice(
            [1, 2, rng.randint(1, 30), 30]))
        bound = rng.choice([1, 3, 7, 99_999, rng.randint(1, 99_999)])
        fields = jt._Fields(labels, bound)
        monomials = []
        for _ in range(rng.randint(1, 4)):
            family = _prefix_family(rng, labels, bound)
            monomials += family
            # the same labels with other exponents
            monomials.append([(label, rng.randint(1, bound))
                              for label, _e in family[-1]])
        nums = {sum(e << fields.offsets[label] for label, e in m):
                rng.choice([0, 1, -1, rng.randint(-10**6, 10**6)])
                for m in monomials}
        den = rng.choice([1, 1, 2, rng.randint(1, 10**6)])
        sealed = fields.seal(nums, den)
        expected = _reference_seal(fields, nums, den)
        assert sealed == expected, (labels, bound, nums, den)
        assert [m for m, _ in sealed.terms] == sorted(m for m, _ in sealed.terms)
        seen["30 labels"] += len(labels) == 30
        seen["bound 99999"] += bound == 99_999
        seen["past 64 bits"] += max(nums).bit_length() > 64
        present = {m for m, _ in sealed.terms}
        seen["prefixes"] += any(m[:k] in present for m in present
                                for k in range(1, len(m)))
        seen["one label"] += len(labels) == 1
        seen["same labels"] += len({tuple(l for l, _ in m) for m in present}) \
            < len(present)
        seen["den>1"] += den > 1
    assert min(seen.values()) >= 100, seen


def _all_pairs_nilpotent_frames(W):
    """nilpotent_frames over every pair (i < j) of labels, one Fraction per
    bracket entry."""
    pvars = W.positive_vars
    pw = list(W.positive_weights)
    labels = [(s, a) for a, wa in enumerate(W.weights)
              for s in exponents_below(pw, wa)]
    labels.sort(key=lambda lab: (weighted_degree(lab[0], pw) - W.weights[lab[1]],
                                 lab[1], lab[0]))
    index = {lab: i for i, lab in enumerate(labels)}
    degrees = tuple(weighted_degree(s, pw) - W.weights[a] for s, a in labels)
    in_sub = tuple(any(s) for s, _ in labels)
    positions = [pvars.index(v) if v in pvars else None for v in W.vars]

    def lowered(s, u, pos):
        m = list(map(operator.add, s, u))
        m[pos] -= 1
        return tuple(m)

    brackets = []
    for i, (s, a) in enumerate(labels):
        pa = positions[a]
        for j in range(i + 1, len(labels)):
            u, b = labels[j]
            pb = positions[b]
            entries = []
            if pa is not None and u[pa]:
                entries.append((index[(lowered(s, u, pa), b)], Fraction(u[pa])))
            if pb is not None and s[pb]:
                entries.append((index[(lowered(s, u, pb), a)], Fraction(-s[pb])))
            if entries:
                brackets.append(((i, j), tuple(sorted(entries))))
    return (tuple(labels), degrees, in_sub, tuple(brackets))


def test_bracket_partners_match_the_scan_over_every_pair():
    rng = random.Random(3004)
    seen = {"weight 0": 0, "empty": 0, "brackets": 0, "sparse": 0}
    for _ in range(320):
        n = rng.randint(1, 6)
        weights = [rng.choice([0, 1, 2, 3, 4, 5, 7]) for _ in range(n)]
        W = weight_sequence([(f"x{k}", w) for k, w in enumerate(weights)])
        g = nilpotent_frames(W)
        expected = _all_pairs_nilpotent_frames(W)
        assert (g.basis, g.degrees, g.in_subalgebra, g.brackets) == expected, \
            weights
        assert all(type(c) is Fraction for _ij, entries in g.brackets
                   for _k, c in entries)
        pairs = len(g.basis) * (len(g.basis) - 1) // 2
        seen["weight 0"] += 0 in weights
        seen["empty"] += not g.brackets
        seen["brackets"] += bool(g.brackets)
        seen["sparse"] += 0 < len(g.brackets) < pairs // 2
    assert min(seen.values()) >= 30, seen
