"""Closed forms against the generic computations they replaced.

Each library routine below computes its answer from a formula that its own
invariants force.  The generic computation it replaced is kept here, as it
was, and both are compared on generated inputs:

* the adapted-coordinate normalizers c_s = (V^s y^s) on the base, which the
  preconditions of ``adapted_coordinates`` fix to s!, against the frame
  word applied to y^s;
* the two-term brackets of the monomial frame in ``nilpotent_frames``,
  against the accumulate-and-cancel expansion over labels;
* one-term powers in the ``wpoly`` term-map walk, (c x^s)^k = c^k x^(k s),
  against k truncated products;
* ``adapted_coordinates`` and ``verify_adapted``, which read frame words on
  the base off truncated term maps, against the words applied to Expr trees
  and restricted to the base afterwards: the same chi, normalizers,
  coordinates and verdicts, and the same error text when a precondition
  fails;
* N4 of ``check_weighting``, which reads each residual and each candidate
  x^s as a series on the graph rows (the monomial series cached, each
  corrected coordinate kept as a running series), against Expr corrections
  lifted by ``jet_lift`` and restricted by ``substitute_graph``: the same
  accepted flag, reason, witness, details and weights;
* the level's one fraction-free integer elimination ``_eliminate``, with
  every residual of the level as a right-hand side, against the
  Gauss-Jordan ``_solve_exact`` on Fractions it replaced, run once per
  right-hand side: the same consistency and the same solution with the free
  columns at 0, on generated systems with dependent columns, zero rows and
  inconsistent right-hand sides;
* series of a function on the graph rows, level by level, and
  ``induced_filtration_degree``, against lift-then-substitute;
* the one blow-up chart builder against the two chart loops it replaced,
  and the one monomial printer against the three printers it replaced;
* ``apply_diffop`` with one word applier per operator against one
  ``Frame.apply_word`` per term summed pairwise;
* ``frame()`` and the vanishing check of ``adapted_coordinates``, which
  read values on the base off the stored term maps, against Exprs
  restricted to the base: the same frames and the same error texts;
* ``jp_substitute`` and ``jp_add`` on the jet kernel's packing and sums,
  against the per-term walk (zero skip, bound loop) and the tuple-keyed
  accumulator;
* the one field printer ``expr._field_text`` against the four joins of
  ``PolyVectorField``, ``DeformationField``, ``BlowupField`` and
  ``JetVectorField``; the one Expr field applier against the loops of
  ``Frame.apply`` and ``DeformationField.apply``; and the one term-map
  field applier ``wpoly._apply_field`` against the loops of ``vf_apply``
  (with its split error) and ``_base_words``;
* the jet kernel's levels on demand (``lo``) and left-to-right powers,
  against the full-level series and the right-to-left powers from 1, at
  every level from lo on; ``seal`` with one Fraction per distinct
  numerator against one per term; N3 on raw series against the loop over
  sealed JetPolys (``jp_reparametrize`` and ``jp_substitute``); and
  ``vf_lift`` off the stored term maps against the lift of each
  coefficient's canonical Expr, error texts included;
* the term-map kernel, which adds only where two terms meet, takes each
  term's degree once and starts products at their first factor, against
  the kernel as it was (every sum from ZERO, the degree per key, every
  product from {zero: ONE}): the walk ``_expand``, the field applier
  ``_apply_field`` and ``blowup_lift_vf``, whose sums were keyed by
  ``_exps``; and the fold of two ``Const``s in ``add`` and ``mul`` against
  the general path;
* ``mul`` of a constant and one node, which rescales the node's leading
  coefficient, against the general path; and the Expr field applier, which
  drops zero derivatives before it multiplies, against the comprehension
  that multiplied every one;
* ``ideal_generators``, which solves each generator from its first
  variable and walks one tail per generator, against the walk over every
  head but the last variable with its minimality filter;
* the jet kernel's seal, which peels each key from its top field down,
  against the unpacking from the lowest field up, and the field applier
  ``_apply_into``, which skips a slot no key holds, against the applier
  that differentiated by every label of the packing; and the generic
  series, whose products scale by a leading constant and whose terms
  share each power node's series, against the full-level reference.
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
                               nilpotent_frames, vf_for_weights,
                               vf_filtration_degree)
from weightings.weights import (exponents_below, ideal_generators,
                                weight_sequence, weighted_degree)

from conftest import (rand_expr, rand_poly_expr, rand_rational,
                      rand_weight_sequence, rand_wpoly)
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
# one-term powers in the term-map walk, on the term-map kernel as it was:
# every sum starts from ZERO, the degree is taken per key, and every product
# of factors, power and series starts from {zero: ONE}

def _reference_add_into(acc, terms) -> None:
    for s, c in terms:
        acc[s] = ex.add(acc.get(s, ZERO), c)


def _reference_product(a, b, w=None, bound=None) -> dict:
    acc = {}
    for s, c in a:
        for u, d in b:
            key = tuple(x + y for x, y in zip(s, u))
            if bound is not None and weighted_degree(key, w) > bound:
                continue
            acc[key] = ex.add(acc.get(key, ZERO), ex.mul(c, d))
    return wp._nonzero(acc)


def _reference_series(coeff_of, h, zero, w, bound) -> dict:
    acc = {}
    hj = {zero: ONE}
    j = 0
    while hj:
        coeff = coeff_of(j)
        if coeff != ZERO:
            _reference_add_into(acc, ((s, ex.mul(coeff, c))
                                      for s, c in hj.items()))
        hj = _reference_product(hj.items(), h.items(), w, bound)
        j += 1
    return wp._nonzero(acc)


def _reference_apply_field(field, terms, pvars, w=None, bound=None) -> dict:
    acc = {}
    for v, c in field:
        _reference_add_into(acc, _reference_product(
            c, wp._partial(terms, pvars, v).items(), w, bound).items())
    return wp._nonzero(acc)


def _reference_expand(e, pvars, w, bound) -> dict:
    """The term-map walk with every positive power as k truncated products."""
    zero = (0,) * len(pvars)
    if isinstance(e, ex.Const):
        return {zero: e} if e != ZERO else {}
    if isinstance(e, ex.Var):
        if e.name not in pvars:
            return {zero: e}
        a = pvars.index(e.name)
        if bound is not None and w[a] > bound:
            return {}
        return {zero[:a] + (1,) + zero[a + 1:]: ONE}
    if isinstance(e, ex.Sum):
        acc: dict = {}
        for t in e.terms:
            _reference_add_into(acc, _reference_expand(t, pvars, w,
                                                       bound).items())
        return wp._nonzero(acc)
    if isinstance(e, ex.Prod):
        acc = {zero: ONE}
        for f in e.factors:
            acc = _reference_product(
                acc.items(), _reference_expand(f, pvars, w, bound).items(),
                w, bound)
        return acc
    if isinstance(e, ex.Pow):
        base = _reference_expand(e.base, pvars, w, bound)
        k = e.exponent
        if k > 0:
            if base.keys() <= {zero}:
                return {zero: ex.pow_(base[zero], k)} if base else {}
            if zero in base and k > wp.MAX_EXPANDED_POWER:
                raise ValueError(
                    f"exponent {k} of a base with a constant term exceeds "
                    f"the limit MAX_EXPANDED_POWER = {wp.MAX_EXPANDED_POWER}")
            acc = {zero: ONE}
            for _ in range(k):
                acc = _reference_product(acc.items(), base.items(), w, bound)
                if not acc:
                    break
            return acc
        a0 = base.pop(zero, ZERO)
        if bound is None and (base or a0 == ZERO):
            raise ValueError(
                f"not polynomial in designated variables: {ex.to_text(e)}")
        if a0 == ZERO:
            raise ValueError("negative power with vanishing constant term is "
                             "not analytic in the positive-weight variables")
        return _reference_series(lambda j: ex.mul(ex.const(wp._binom(k, j)),
                                                  ex.pow_(a0, k - j)),
                                 base, zero, w, bound)
    if isinstance(e, ex.App):
        if bound is None:
            if ex.variables(e.arg) & set(pvars):
                raise ValueError(
                    f"not polynomial in designated variables: {ex.to_text(e)}")
            return {zero: e}
        h = _reference_expand(e.arg, pvars, w, bound)
        a0 = h.pop(zero, ZERO)
        return _reference_series(lambda j: wp._maclaurin_coeff(e.fn, a0, j),
                                 h, zero, w, bound)
    raise TypeError(f"unknown expression node {e!r}")


POWER_WEIGHTS = weight_sequence([("a", 0), ("b", 0), ("x", 1), ("y", 2)], 4)


def _power_case(rng) -> ex.Expr:
    """A power whose base often expands to one term: a sum of coefficients
    (heads, sums, inverse powers of weight-0 variables) times one shared
    monomial, sometimes with a head of a positive variable or a second
    monomial added, and sometimes inside a product or a sum."""
    zero_vars = ["a", "b"]
    mono = ex.mul(*[ex.var(rng.choice("xy")) for _ in range(rng.randint(0, 2))])
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = rand_expr(rng, zero_vars, depth=2)
        if rng.random() < 0.4:
            coeff = ex.mul(coeff, ex.pow_(ex.add(ONE, ex.var(rng.choice(zero_vars))),
                                          -rng.randint(1, 2)))
        terms.append(ex.mul(coeff, mono))
    if rng.random() < 0.2:
        terms.append(ex.app(rng.choice(ex.FUNCTIONS), ex.var(rng.choice("xy"))))
    if rng.random() < 0.15:
        terms.append(ex.var(rng.choice("xy")))
    e = ex.pow_(ex.add(*terms), rng.randint(1, 4))
    if rng.random() < 0.3:
        e = ex.mul(e, rand_expr(rng, zero_vars + ["x"], depth=1))
    if rng.random() < 0.2:
        e = ex.add(e, ex.var(rng.choice("xy")))
    return e


def _term_map(walk, e, bound):
    pvars = POWER_WEIGHTS.positive_vars
    try:
        m = walk(e, pvars, POWER_WEIGHTS.positive_weights, bound)
    except ValueError as err:
        return "error", str(err)
    return m, wp.wpoly_text(wp.wpoly(pvars, m), POWER_WEIGHTS)


def _powers(e):
    if isinstance(e, ex.Pow):
        yield e
    for child in (e.terms if isinstance(e, ex.Sum) else
                  e.factors if isinstance(e, ex.Prod) else ()):
        yield from _powers(child)


def test_one_term_powers_match_the_truncated_products():
    rng = random.Random(1303)
    pvars, w = POWER_WEIGHTS.positive_vars, POWER_WEIGHTS.positive_weights
    kept = cut = 0
    for _ in range(2200):
        e = _power_case(rng)
        bound = rng.choice([None, None, 0, 1, 2, 3, 4, 5, 7])
        expected = _term_map(_reference_expand, e, bound)
        assert _term_map(wp._expand, e, bound) == expected, (ex.to_text(e), bound)
        for f in _powers(e):
            try:
                base = _reference_expand(f.base, pvars, w, bound)
            except ValueError:
                continue
            if f.exponent > 1 and len(base) == 1 and (0, 0) not in base:
                s = tuple(f.exponent * x for x in next(iter(base)))
                if bound is not None and weighted_degree(s, w) > bound:
                    cut += 1
                else:
                    kept += 1
    assert kept >= 400 and cut >= 300


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
# JetPoly substitution and sums on the jet kernel's own rules

def _reference_jp_substitute(p, mapping):
    """The per-term walk: a term through a slot mapped to zero is dropped,
    and the walk gathers the labels and the exponent bound as it goes."""
    terms, labels, top, bound = [], set(), {}, 0
    for m, c in p.terms:
        degree = 0
        for label, e in m:
            g = mapping.get(label)
            if g is None:
                labels.add(label)
                degree += e
            elif not g.terms:
                break
            else:
                if label not in top:
                    top[label] = jt._max_exponent(g)
                    labels.update(jt.jp_labels(g))
                degree += e * top[label]
        else:
            terms.append((m, c))
            bound = max(bound, degree)
    fields = jt._Fields(labels, bound)
    offsets = fields.offsets
    values = {label: fields.raw(mapping[label]) for label in top}
    pieces = []
    for m, c in terms:
        piece = [{0: c.numerator}], c.denominator
        for label, e in m:
            factor = (jt._series_pow(values[label], e, 0) if label in values
                      else ([{e << offsets[label]: 1}], 1))
            piece = jt._series_mul(piece, factor, 0)
        pieces.append(piece)
    (total,), den = jt._series_sum(pieces, 0)
    return fields.seal(total, den)


def _reference_jp_add(*polys):
    """The sum on a tuple-keyed accumulator."""
    den = math.lcm(*(c.denominator for p in polys for _, c in p.terms))
    acc = {}
    for p in polys:
        for m, c in p.terms:
            acc[m] = acc.get(m, 0) + c.numerator * (den // c.denominator)
    return jt.jetpoly({m: Fraction(v, den) for m, v in acc.items() if v})


# slot labels (a, j), with the psi labels (-1, m) of the N3 substitution
JET_LABELS = [(a, j) for a in range(-1, 3) for j in range(4)]


def _rand_jetpoly(rng, labels=JET_LABELS, max_terms=4, max_exponent=6):
    return jt.jetpoly({
        tuple(sorted({label: rng.randint(1, max_exponent)
                      for label in rng.sample(labels, rng.randint(0, 3))}
                     .items())): rand_rational(rng)
        for _ in range(rng.randint(0, max_terms))})


def test_jp_substitute_and_jp_add_match_the_walks_they_replaced():
    rng = random.Random(1801)
    seen = {"zero": 0, "psi": 0, "unmapped": 0, "rational": 0, "high": 0}
    for _ in range(600):
        p = _rand_jetpoly(rng)
        labels = sorted(jt.jp_labels(p))
        mapping = {}
        for label in labels + rng.sample(JET_LABELS, 2):
            kind = rng.randrange(4)
            if kind == 0:
                mapping[label] = jt.JP_ZERO
            elif kind < 3:
                mapping[label] = _rand_jetpoly(rng, max_terms=3,
                                               max_exponent=3)
        assert jt.jp_substitute(p, mapping) == \
            _reference_jp_substitute(p, mapping), (str(p), mapping)
        mapped = set(labels) & set(mapping)
        seen["zero"] += any(mapping[l].is_zero for l in mapped)
        seen["psi"] += any(a == -1 for a, _ in labels)
        seen["unmapped"] += bool(set(labels) - set(mapping))
        seen["rational"] += any(c.denominator > 1 for _, c in p.terms)
        seen["high"] += jt._max_exponent(p) == 6
        polys = [_rand_jetpoly(rng) for _ in range(rng.randint(0, 4))]
        if polys and rng.random() < 0.3:
            polys.append(jt.jp_scale(polys[0], -1))
        assert jt.jp_add(*polys) == _reference_jp_add(*polys)
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# one field printer, one Expr field applier, one term-map field applier

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
        xi = jt.jet_vf({(a, k): _rand_jetpoly(rng, max_exponent=2)
                        for a, k in rng.sample(JET_LABELS[4:], 3)})
        assert str(xi) == _reference_jet_field_text(xi)
        xi = jt.vf_lift(X, rng.randint(0, 1), 2)
        assert str(xi) == _reference_jet_field_text(xi)
        empty += X.is_zero
    assert empty >= 50


def _reference_vf_apply(X, p):
    acc = {}
    for v, c in zip(X.vars, X.coeffs):
        dp = wp._partial(p.terms, p.pvars, v)
        if not dp or c.is_zero:
            continue
        if c.pvars != p.pvars:
            raise ValueError("mismatched variable splits")
        _reference_add_into(acc, _reference_product(c.terms,
                                                    dp.items()).items())
    return wp.wpoly(p.pvars, acc)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return "error", str(err)


def test_vf_apply_matches_the_loop_it_replaced():
    from weightings.fields import vf_apply
    rng = random.Random(1803)
    errors = 0
    for _ in range(400):
        W = rand_weight_sequence(rng, max_n=3, max_order=3,
                                 min_weight=rng.choice([0, 1]))
        X = _rand_field(rng, W)
        p = rand_wpoly(rng, W)
        if rng.random() < 0.3:  # p on another variable split
            pvars = tuple(rng.sample(W.vars, rng.randint(0, W.n)))
            p = wp.poly_normal_form(rand_poly_expr(rng, W.vars, 3, 3), pvars)
        expected = _outcome(_reference_vf_apply, X, p)
        assert _outcome(vf_apply, X, p) == expected, (str(X), str(p))
        errors += isinstance(expected, tuple)
    assert errors >= 40


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
                    coeff.items(), wp._partial(g.items(), pvars, v).items(),
                    ones, top - sum(s)).items())
            memo[s] = wp._nonzero(acc)
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
        dict_fields = [[(v, dict(m)) for v, m in row] for row in fields]
        f = wp._expand(rng.choice(y_exprs), pvars, (1,) * len(pvars), top)
        on_base = sb._base_words(fields, pvars, f, top)
        reference = _reference_base_words(dict_fields, pvars, f, top)
        for s in itertools.product(range(top + 1), repeat=W.n):
            if sum(s) <= top:
                assert on_base(s) == reference(s), (W, s)
                words += 1
    assert words >= 1500


# ---------------------------------------------------------------------------
# the jet kernel computes only what is read

def _reference_series_mul(a, b, r):
    """The product truncated after eps^r, every level."""
    (xs, dx), (ys, dy) = a, b
    out = [{} for _ in range(r + 1)]
    for i, x in enumerate(xs[:r + 1]):
        if x:
            for j, y in enumerate(ys[:r + 1 - i]):
                if y:
                    jt._mul_into(out[i + j], x, y)
    return out, dx * dy


def _reference_series_square(a, r):
    """a * a truncated after eps^r, every level."""
    xs, d = a
    out = [{} for _ in range(r + 1)]
    for i, x in enumerate(xs[:r + 1]):
        if x:
            if 2 * i <= r:
                jt._square_into(out[2 * i], x)
            if 2 * i < r:
                twice = {m: 2 * c for m, c in x.items()}
                for j, y in enumerate(xs[i + 1:r + 1 - i], start=i + 1):
                    if y:
                        jt._mul_into(out[i + j], twice, y)
    return out, d * d


def _reference_series_pow(a, exponent, r):
    """Right-to-left square-and-multiply from the series 1, every level."""
    if exponent < 0:
        raise ValueError("negative power of a jet polynomial")
    if exponent > wp.MAX_EXPANDED_POWER and \
            sum(map(bool, a[0][0].values())) > 1:
        raise ValueError(
            f"exponent {exponent} of a base with two or more terms exceeds "
            f"the limit MAX_EXPANDED_POWER = {wp.MAX_EXPANDED_POWER}")
    out = [{0: 1}] + [{} for _ in range(r)], 1
    while exponent:
        if exponent & 1:
            out = _reference_series_mul(out, a, r)
        exponent >>= 1
        if exponent:
            a = _reference_series_square(a, r)
    return out


def _reference_series_sum(parts, r):
    """The sum truncated after eps^r, every level."""
    den = math.lcm(*(d for _, d in parts))
    acc = [{} for _ in range(r + 1)]
    for levels, d in parts:
        k = den // d
        for out, level in zip(acc, levels):
            for m, c in level.items():
                out[m] = out.get(m, 0) + k * c
    return acc, den


def _reference_generic_series(f, rows, r):
    """Every level of every node of f on the rows."""

    def rec(e):
        if isinstance(e, ex.Const):
            return [{0: e.value.numerator}] + [{} for _ in range(r)], \
                e.value.denominator
        if isinstance(e, ex.Var):
            if e.name not in rows:
                raise ValueError(f"variable {e.name!r} is not a chart variable")
            return rows[e.name]
        if isinstance(e, ex.Sum):
            return _reference_series_sum([rec(t) for t in e.terms], r)
        if isinstance(e, ex.Prod):
            out = rec(e.factors[0])
            for factor in e.factors[1:]:
                out = _reference_series_mul(out, rec(factor), r)
            return out
        if isinstance(e, ex.Pow):
            if e.exponent < 0:
                raise ValueError("input is not polynomial (negative power)")
            return _reference_series_pow(rec(e.base), e.exponent, r)
        if isinstance(e, ex.App):
            raise ValueError(f"input is not polynomial ({e.fn} head)")
        raise TypeError(f"unknown expression node {e!r}")

    return rec(f)


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


def _levels_from(series, lo, r):
    """Levels lo to r of a raw series, each as monomial -> Fraction."""
    levels, den = series
    return [{m: Fraction(v, den) for m, v in level.items() if v}
            for level in levels[lo:r + 1]]


def _series_tree(rng, names, depth=3):
    """A polynomial tree of rational constants, chart variables, sums,
    products and powers with exponents 0 to 6; some sums multiply each of
    their terms by one square (x + k)^2."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return ex.const(rand_rational(rng))
        return ex.var(rng.choice(names))
    kind = rng.randrange(3)
    if kind == 0:
        terms = [_series_tree(rng, names, depth - 1)
                 for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.4:  # one power node in every term
            power = ex.pow_(ex.add(ex.var(rng.choice(names)),
                                   ex.const(rng.randint(1, 3))), 2)
            terms = [ex.mul(power, term) for term in terms]
        return ex.add(*terms)
    if kind == 1:
        return ex.mul(*[_series_tree(rng, names, depth - 1)
                        for _ in range(rng.randint(2, 3))])
    return ex.pow_(_series_tree(rng, names, depth - 1), rng.randint(0, 6))


def _series_case(rng):
    """A tree of total degree at most 6, an order r and rows for its chart
    variables: the generic jet's, or rows of random slot polynomials, on
    fields wide enough for a sixth power of the tree's series."""
    names = ("x1", "x2", "x3")[:rng.randint(1, 3)]
    f = _series_tree(rng, names)
    while jt._degree(f) > 6:
        f = _series_tree(rng, names)
    r = rng.randint(0, 4)
    degree = 6 * max(jt._degree(f), 1)
    if rng.random() < 0.5:
        return f, r, jt._jet_rows(names, r, degree)
    values = [[_rand_jetpoly(rng, max_terms=2, max_exponent=2)
               for _ in range(r + 1)] for _ in names]
    fields, rows = jt._row_fields(values, degree)
    return f, r, (fields, dict(zip(names, rows)))


def test_levels_on_demand_match_the_full_level_series():
    rng = random.Random(1901)
    nodes = {ex.Sum: 0, ex.Prod: 0, ex.Pow: 0, ex.Const: 0}
    shapes = {"const-prod": 0, "const-var": 0, "shared-pow": 0}
    exponents = set()
    for _ in range(320):
        f, r, (fields, rows) = _series_case(rng)
        expected = _reference_generic_series(f, rows, r)
        for lo in range(r + 1):
            got = jt._generic_series(f, rows, r, lo)
            assert _levels_from(got, lo, r) == _levels_from(expected, lo, r), \
                (ex.to_text(f), r, lo)
        # a power of the tree's series (a sum of many terms) or of one row
        base = expected if jt._degree(f) <= 1 else rows[rng.choice(list(rows))]
        e = rng.randint(0, 6)
        expected = _reference_series_pow(base, e, r)
        for lo in range(r + 1):
            got = jt._series_pow(base, e, r, lo)
            assert _levels_from(got, lo, r) == _levels_from(expected, lo, r), \
                (ex.to_text(f), e, r, lo)
        assert fields.seal(expected[0][r], expected[1]) == \
            _reference_seal(fields, expected[0][r], expected[1])
        exponents.add(e)
        stack = [f]
        while stack:
            node = stack.pop()
            nodes[type(node)] = nodes.get(type(node), 0) + 1
            if isinstance(node, ex.Prod) and \
                    isinstance(node.factors[0], ex.Const):
                shapes["const-prod"] += 1
                shapes["const-var"] += len(node.factors) == 2 and \
                    isinstance(node.factors[1], ex.Var)
            if isinstance(node, ex.Sum):
                powers = [{g for g in getattr(t, "factors", (t,))
                           if isinstance(g, ex.Pow)} for t in node.terms]
                shapes["shared-pow"] += bool(set.intersection(*powers))
            stack.extend(getattr(node, "terms", ()) + getattr(
                node, "factors", ()) + ((node.base,) if isinstance(
                    node, ex.Pow) else ()))
    assert exponents == set(range(7))
    assert min(nodes[k] for k in (ex.Sum, ex.Prod, ex.Pow, ex.Const)) >= 100
    # a leading Const scales the rest of a product, and the terms of a sum
    # share one series per power node
    assert shapes["const-prod"] >= 100 and shapes["const-var"] >= 30 and \
        shapes["shared-pow"] >= 30, shapes


def test_seal_builds_one_fraction_per_distinct_numerator():
    rng = random.Random(1902)
    for _ in range(300):
        p = _rand_jetpoly(rng, max_terms=8, max_exponent=3)
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


def _reference_vf_lift(X, i, r):
    """The lift of the canonical Expr of each coefficient on the generic
    jet, every level of every node."""
    acc = {}
    for a, coeff in enumerate(X.coeff_exprs()):
        if coeff == ZERO:
            continue
        fields = jt._Fields([(b, j) for b in range(len(X.vars))
                             for j in range(r - i + 1)], jt._degree(coeff))
        off = fields.offsets
        rows = {name: ([{1 << off[(b, j)]: 1} for j in range(r - i + 1)], 1)
                for b, name in enumerate(X.vars)}
        levels, den = _reference_generic_series(coeff, rows, r - i)
        for k, nums in enumerate(levels, start=i):
            acc[(a, k)] = _reference_seal(fields, nums, den)
    return jt.jet_vf(acc)


def test_vf_lift_off_the_term_maps_matches_the_expr_route():
    rng = random.Random(1904)
    seen = {"weight0": 0, "error": 0, "zero": 0}
    for _ in range(300):
        weights = sorted(rng.choice([0, 0, 1, 2, 3])
                         for _ in range(rng.randint(1, 3)))
        W = weight_sequence([(f"x{a + 1}", w) for a, w in enumerate(weights)],
                            max(weights + [1]) + rng.randint(0, 1))
        exprs = [rand_poly_expr(rng, W.vars, max_degree=3, max_terms=3)
                 if rng.random() < 0.85 else ZERO for _ in W.vars]
        if W.zero_vars and rng.random() < 0.2:  # one non-polynomial term
            t = ex.var(rng.choice(W.zero_vars))
            bad = rng.choice([ex.app("sin", t), ex.pow_(t, -1),
                              ex.pow_(ex.add(t, ONE), -2)])
            exprs[rng.randrange(W.n)] = ex.add(
                ex.mul(bad, ex.var(rng.choice(W.vars))), ONE)
        X = vf_for_weights(W, exprs)
        i = rng.randint(0, W.order)
        expected = _outcome(_reference_vf_lift, X, i, W.order)
        assert _outcome(jt.vf_lift, X, i, W.order) == expected, str(X)
        seen["error"] += isinstance(expected, tuple)
        seen["zero"] += any(c.is_zero for c in X.coeffs)
        seen["weight0"] += any(ex.variables(c) & set(W.zero_vars)
                               for p in X.coeffs for _, c in p.terms)
    assert seen["weight0"] >= 80 and seen["error"] >= 10, seen
    assert seen["zero"] >= 30, seen


# ---------------------------------------------------------------------------
# the term-map kernel adds only where two terms meet

def _kernel_case(rng) -> ex.Expr:
    """A tree of every node kind over weight-0 (a, b) and designated (x, y)
    variables, sometimes inside a product or a power of two to five."""
    names = POWER_WEIGHTS.vars
    e = rand_expr(rng, names, depth=rng.randint(1, 3))
    if rng.random() < 0.3:
        e = ex.mul(e, rand_expr(rng, names, depth=2))
    if rng.random() < 0.3:
        e = ex.pow_(ex.add(e, rand_poly_expr(rng, names, 2, 2)),
                    rng.randint(2, 5))
    return e


def test_the_term_map_walk_matches_the_kernel_it_replaced():
    rng = random.Random(2001)
    kinds = {"error": 0, "zero": 0, "terms": 0}
    for _ in range(800):
        e = _kernel_case(rng)
        bound = rng.choice([None, None, 0, 1, 2, 3, 4, 5, 6, 7])
        expected = _term_map(_reference_expand, e, bound)
        assert _term_map(wp._expand, e, bound) == expected, (ex.to_text(e), bound)
        kinds["error" if expected[0] == "error" else
              "terms" if expected[0] else "zero"] += 1
    assert kinds["error"] >= 50 and kinds["zero"] >= 30
    assert kinds["terms"] >= 500


def test_the_field_applier_matches_the_kernel_it_replaced():
    rng = random.Random(2002)
    nonzero = 0
    for _ in range(500):
        W = rand_weight_sequence(rng, max_n=3, max_order=3,
                                 min_weight=rng.choice([0, 1]))
        X = _rand_field(rng, W)
        field = [(v, c.terms) for v, c in zip(X.vars, X.coeffs)]
        terms = rand_wpoly(rng, W, max_degree=5).terms
        pvars = W.positive_vars
        bound = rng.choice([None, 0, 1, 2, 3, 5, 7])
        w = None if bound is None else W.positive_weights
        expected = _reference_apply_field(field, terms, pvars, w, bound)
        assert wp._apply_field(field, terms, pvars, w, bound) == expected, \
            (str(X), terms, bound)
        nonzero += bool(expected)
    assert nonzero >= 220


def _reference_exps(mapping):
    return tuple(sorted((v, Fraction(q)) for v, q in mapping.items()
                        if Fraction(q) != 0))


def _reference_blowup_lift_vf(X, W, chart):
    """blowup_lift_vf with its sums keyed by _exps and started from ZERO."""
    if vf_filtration_degree(X, W) < 0:
        raise ValueError("only fields of filtration degree 0 lift to the "
                         "blow-up")
    c = sp._chart_center(W, chart)
    ynames = sp.deformation_names(W)
    znames = sp.chart_names(W)
    rename = sp._rename_map(W, znames + ("t",),
                            [k for coeff in X.coeffs for _, k in coeff.terms])
    w = list(W.positive_weights)
    ext = []
    for v, coeff in enumerate(X.coeffs):
        index = [W.vars.index(p) for p in coeff.pvars]
        terms = []
        for s, k in coeff.terms:
            full = [0] * W.n
            for i, e in zip(index, s):
                full[i] = e
            terms.append((full, weighted_degree(s, w) - W.weights[v],
                          ex.substitute(k, rename)))
        ext.append(terms)
    comps = {}
    for b, zb in enumerate(znames):
        acc = {}
        for yv, q in chart.component(zb)[1]:
            if yv == "t":
                continue
            v = ynames.index(yv)
            for s, shift, kappa in ext[v]:
                m = list(s)
                m[b] += 1
                m[v] -= 1
                m[c] = (b == c) + shift
                key = _reference_exps(dict(zip(znames, m)))
                acc[key] = ex.add(acc.get(key, ZERO),
                                  ex.mul(ex.const(q), kappa))
        terms = sorted(((k, m) for m, k in acc.items() if k != ZERO),
                       key=lambda item: item[1])
        if terms:
            comps[zb] = tuple(terms)
    return sp.BlowupField(chart, tuple(sorted(comps.items())))


def _degree_zero_field(rng, W):
    """A generated field with its terms of degree below 0 dropped, half the
    time plus a diagonal sum c_a x_a d/dx_a, whose terms meet in every
    chart; one field in ten is left whole, and most of those are refused."""
    X = _rand_field(rng, W, zeros=0.2)
    if rng.random() < 0.1:
        return X
    diagonal = rng.random() < 0.5
    coeffs = []
    for v, c in zip(X.vars, X.coeffs):
        w = [W.weight_of(p) for p in c.pvars]
        kept = wp.wpoly(c.pvars, {s: k for s, k in c.terms
                                  if weighted_degree(s, w) >= W.weight_of(v)})
        coeffs.append(ex.add(wp.to_expr(kept), ex.mul(
            ex.const(rand_rational(rng) if diagonal else 0), ex.var(v))))
    return vf_for_weights(W, coeffs)


def test_the_blowup_lift_matches_the_exps_keyed_sums():
    rng = random.Random(2003)
    charts = lifted = refused = 0
    for _ in range(80):
        W = rand_weight_sequence(rng, max_n=3, max_order=3,
                                 min_weight=rng.choice([0, 1]))
        X = _degree_zero_field(rng, W)
        for center in W.vars:
            if not W.weight_of(center):
                continue
            for sign in "+-":
                chart = sp.blowup_chart(W, center, sign)
                expected = _outcome(_reference_blowup_lift_vf, X, W, chart)
                got = _outcome(sp.blowup_lift_vf, X, W, chart)
                assert got == expected, (str(X), W, center, sign)
                charts += 1
                if isinstance(expected, tuple):
                    refused += 1
                else:
                    assert str(got) == str(expected)
                    lifted += expected.components != ()
    assert charts >= 250 and lifted >= 200 and refused >= 20


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
