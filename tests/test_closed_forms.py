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
  against k truncated products.
"""

from __future__ import annotations

import random
from fractions import Fraction

from weightings import expr as ex
from weightings import subbundle as sb
from weightings import wpoly as wp
from weightings.expr import ONE, ZERO
from weightings.fields import nilpotent_frames
from weightings.weights import weight_sequence, weighted_degree

from conftest import rand_expr, rand_rational


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


def _positive_monomial(rng, W, min_size) -> ex.Expr:
    pvars = W.positive_vars
    size = rng.randint(min_size, min_size + 1)
    return ex.mul(*[ex.var(rng.choice(pvars)) for _ in range(size)])


def _normalized_frame(rng):
    """A frame and initial coordinates meeting the adapted_coordinates
    preconditions, built so that (V_a y_b) on the base is the identity.

    y_b = x_b + sum_v l_vb x_v + h_b, with l a constant strictly upper
    triangular matrix on the positive-weight variables and h_b of size at
    least 2 in them, so the Jacobian on the base is J = 1 + l.  The frame is
    J^-1 plus entries that vanish on the base, in the positive-weight
    columns only, so its base-tangent fields commute.
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
                                 _positive_monomial(rng, W, 2)))
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
# one-term powers in the term-map walk

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
            wp._add_into(acc, _reference_expand(t, pvars, w, bound).items())
        return wp._nonzero(acc)
    if isinstance(e, ex.Prod):
        acc = {zero: ONE}
        for f in e.factors:
            acc = wp._product(acc.items(),
                              _reference_expand(f, pvars, w, bound).items(),
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
                acc = wp._product(acc.items(), base.items(), w, bound)
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
        return wp._series(lambda j: ex.mul(ex.const(wp._binom(k, j)),
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
        return wp._series(lambda j: wp._maclaurin_coeff(e.fn, a0, j),
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


def _expansion(walk, e, bound):
    pvars = POWER_WEIGHTS.positive_vars
    try:
        p = wp.wpoly(pvars, walk(e, pvars, POWER_WEIGHTS.positive_weights, bound))
    except ValueError as err:
        return "error", str(err)
    return p, wp.wpoly_text(p, POWER_WEIGHTS)


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
        expected = _expansion(_reference_expand, e, bound)
        assert _expansion(wp._expand, e, bound) == expected, (ex.to_text(e), bound)
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
