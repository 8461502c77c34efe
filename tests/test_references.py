"""One generated reference per representation, written from its definition.

Each test below computes what a kernel must return from the definition of
that result, and shares no code with the kernel it checks:

* jets: the lift f^(i) is the eps^i coefficient of f evaluated on the
  truncated series sum_j x_a.j eps^j, so ``jet_lift``, ``vf_lift``,
  ``jet_bracket``, ``jvf_apply`` and the JetPoly arithmetic (``jp_add``,
  ``jp_mul``, ``jp_pow``, ``jp_substitute``) are checked by exact evaluation
  at seeded rational slot points, a derivative along a field by dual
  numbers; every output also keeps the JetPoly invariants (terms sorted by
  monomial, each monomial sorted by label, exponents positive ints,
  coefficients non-zero Fractions), and the packed series products, squares,
  powers and sums asked for levels lo and up give the truncated series
  there and leave the levels below lo empty;
* wpoly: the weighted Taylor expansion of f is the t-expansion of
  f(t^w_1 x_1, ..., t^w_n x_n, z), so ``weighted_taylor`` and
  ``poly_normal_form``, taken degree by degree, are the coefficients of that
  truncated t-series at seeded rational points, ``homogeneous_approx`` is
  its t^d coefficient, and ``vf_apply`` and ``lie_bracket`` are derivatives
  along the fields, again by dual numbers; the term-map kernel keeps its
  value rule (the Fraction of a constant, never a Const); a transcendental
  head whose argument has a weight-0 part goes through sympy's ``series``;
  every result's printed text parses back to it, and since values cannot
  tell (1 + x)^2 from 1 + 2*x + x^2, fixed cases pin the printed form of
  weight-0 coefficients;
* Expr: ``expand``, ``differentiate`` and ``substitute`` agree with sympy
  on small polynomial and rational inputs, the canonical text means what
  sympy reads from it, and ``parse_expr(to_text(e)) == e``; the zero test
  ``expr._is_zero`` is ``e == ZERO``, and ``wpoly.to_expr`` is the sum of
  c_s * ``monomial_expr(s)``, with the same text;
* the blow-up lift: ``blowup_lift_vf`` is the push-forward of the degree-0
  extension of X by the chart, dz_b = sum_v q_bv (z_b / y_v) dy_v, checked
  at rational chart points, where y = (inverse chart)(z, t) is rational.

Every identity checked here is a polynomial or rational identity, so a
wrong result is found at a random rational point with high probability
(Schwartz, "Fast probabilistic algorithms for verification of polynomial
identities", JACM 1980).  The jets and wpoly tests run without sympy.

A kernel change adds cases here; it does not freeze a copy of the code it
replaces (see ``tests/test_closed_forms.py`` for the copies that remain).
"""

from __future__ import annotations

import math
import pickle
import random
from fractions import Fraction

import pytest

from weightings import expr as ex
from weightings import jets as jt
from weightings import spaces as sp
from weightings import wpoly as wp
from weightings.cli import main
from weightings.fields import (PolyVectorField, lie_bracket, vf_apply,
                               vf_for_weights)
from weightings.weights import weight_sequence

from conftest import rand_jetpoly, rand_poly_expr, rand_rational


# ---------------------------------------------------------------------------
# truncated power series over the rationals: a list of r + 1 Fractions

def _s_const(c, r):
    return [Fraction(c)] + [Fraction(0)] * r


def _s_add(a, b):
    return [x + y for x, y in zip(a, b)]


def _s_mul(a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def _s_inverse(a):
    """1/a; ZeroDivisionError when a has no constant term."""
    out = [1 / a[0]]
    for n in range(1, len(a)):
        out.append(-sum(a[k] * out[n - k] for k in range(1, n + 1)) / a[0])
    return out


def _s_pow(a, k):
    out = _s_const(1, len(a) - 1)
    for _ in range(abs(k)):
        out = _s_mul(out, a)
    return out if k >= 0 else _s_inverse(out)


def _s_head(fn, h):
    """fn(h) for a series h without constant term: sum_j c_j h^j."""
    if h[0]:
        raise ValueError(f"{fn} of a non-zero rational is not rational")
    r = len(h) - 1
    out, power = _s_const(0, r), _s_const(1, r)
    for j in range(r + 1):
        if fn == "exp":
            c = Fraction(1, math.factorial(j))
        elif (j % 2 == 1) == (fn == "sin"):
            c = Fraction((-1) ** (j // 2), math.factorial(j))
        else:
            c = Fraction(0)
        out = _s_add(out, [c * x for x in power])
        power = _s_mul(power, h)
    return out


def _on_series(e, rows, r):
    """The canonical Expr e with each variable replaced by its series."""
    if isinstance(e, ex.Const):
        return _s_const(e.value, r)
    if isinstance(e, ex.Var):
        return rows[e.name]
    if isinstance(e, ex.Sum):
        out = _s_const(0, r)
        for t in e.terms:
            out = _s_add(out, _on_series(t, rows, r))
        return out
    if isinstance(e, ex.Prod):
        out = _s_const(1, r)
        for f in e.factors:
            out = _s_mul(out, _on_series(f, rows, r))
        return out
    if isinstance(e, ex.Pow):
        return _s_pow(_on_series(e.base, rows, r), e.exponent)
    if isinstance(e, ex.App):
        return _s_head(e.fn, _on_series(e.arg, rows, r))
    raise TypeError(e)


def _at(e, point):
    """The rational value of e at a point (name -> Fraction)."""
    return _on_series(e, {n: [v] for n, v in point.items()}, 0)[0]


def _wp_value(p, values):
    """The WeightedPoly p, sum_s c_s x^s, on series values of every variable."""
    r = len(next(iter(values.values()))) - 1
    total = _s_const(0, r)
    for s, c in p.terms:
        term = _on_series(c, values, r)
        for v, e in zip(p.pvars, s):
            term = _s_mul(term, _s_pow(values[v], e))
        total = _s_add(total, term)
    return total


def _top_degree(e, weight_of):
    """An upper bound on the weighted degree of a polynomial tree."""
    if isinstance(e, ex.Var):
        return weight_of(e.name)
    if isinstance(e, ex.Sum):
        return max(_top_degree(t, weight_of) for t in e.terms)
    if isinstance(e, ex.Prod):
        return sum(_top_degree(f, weight_of) for f in e.factors)
    if isinstance(e, ex.Pow):
        return max(e.exponent, 0) * _top_degree(e.base, weight_of)
    return 0


def _rand_point_value(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 97), rng.randint(1, 13))


# ---------------------------------------------------------------------------
# jets

# slot labels (a, j), with the psi labels (-1, m) of the N3 substitution
_LABELS = [(a, j) for a in range(-1, 3) for j in range(6)]


def _assert_jetpoly(p):
    """The JetPoly invariants: terms sorted by reversed monomial and
    distinct, each monomial sorted by label with distinct labels and
    positive int exponents, each coefficient a non-zero Fraction."""
    assert type(p) is jt.JetPoly and type(p.terms) is tuple
    monomials = [m for m, _ in p.terms]
    assert monomials == sorted(set(monomials), key=lambda m: m[::-1]), p.terms
    for m, c in p.terms:
        assert type(c) is Fraction and c != 0, p.terms
        labels = [label for label, _ in m]
        assert labels == sorted(set(labels)), m
        assert all(type(e) is int and e > 0 for _, e in m), m


def _assert_jet_field(xi):
    labels = [label for label, _ in xi.terms]
    assert labels == sorted(set(labels)), labels
    for _, c in xi.terms:
        _assert_jetpoly(c)
        assert c.terms


def _poly_on(p, values):
    """The JetPoly p with each slot replaced by its series in values."""
    r = len(next(iter(values.values()))) - 1
    out = _s_const(0, r)
    for m, c in p.terms:
        term = _s_const(c, r)
        for label, e in m:
            term = _s_mul(term, _s_pow(values[label], e))
        out = _s_add(out, term)
    return out


def _poly_at(p, point):
    return sum((c * math.prod(point[label] ** e for label, e in m)
                for m, c in p.terms), Fraction(0))


def _along(p, point, direction):
    """d/ds p(point + s direction) at s = 0, by dual numbers."""
    return _poly_on(p, {label: [v, direction.get(label, Fraction(0))]
                        for label, v in point.items()})[1]


def _poly_tree(rng, names, depth=3):
    """A polynomial tree of rational constants, variables, sums, products
    and powers 0 to 6; some sums multiply each term by one square, so the
    terms share a power node that some of them hold last."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return ex.const(rand_rational(rng))
        return ex.var(rng.choice(names))
    kind = rng.randrange(3)
    if kind == 0:
        terms = [_poly_tree(rng, names, depth - 1)
                 for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.4:
            square = ex.pow_(ex.add(ex.var(rng.choice(names)),
                                    ex.const(rng.randint(1, 3))), 2)
            terms = [ex.mul(square, t) for t in terms]
        return ex.add(*terms)
    if kind == 1:
        return ex.mul(*[_poly_tree(rng, names, depth - 1)
                        for _ in range(rng.randint(2, 3))])
    return ex.pow_(_poly_tree(rng, names, depth - 1), rng.randint(0, 6))


def _jet_point(rng):
    return {label: _rand_point_value(rng) for label in _LABELS}


def _rows(point, names, r):
    return {name: [point[(a, j)] for j in range(r + 1)]
            for a, name in enumerate(names)}


def _rand_chart_field(rng, names):
    weights = sorted(rng.choice([0, 0, 1, 2, 3]) for _ in names)
    W = weight_sequence(list(zip(names, weights)), max(weights + [1]))
    return vf_for_weights(W, [rand_poly_expr(rng, names, 3, 3)
                              if rng.random() < 0.85 else ex.ZERO
                              for _ in names])


def _raw_at(series, fields, point):
    """The levels of a raw series at a point, each packed key unpacked from
    its fields: sum of num/den * prod point[label]^e."""
    levels, den = series
    return [sum((num * math.prod(point[label] ** (key >> off & fields.mask)
                                 for label, off in fields.offsets.items())
                 for key, num in level.items()), Fraction(0)) / den
            for level in levels]


def _truncated(values, r):
    return (values + [Fraction(0)] * (r + 1))[:r + 1]


def _check_raw_kernel(rng, point):
    """The packed series products, squares, powers and sums from eps^lo to
    eps^r: the levels below lo stay empty (a power's lower levels are not
    asked for) and each level from lo on is the truncated series product,
    power or sum of the levels of its operands."""
    labels = rng.sample(_LABELS, rng.randint(1, 6))
    fields = jt._Fields(labels, 16)
    r = rng.randint(0, 5)
    rows = [[rand_jetpoly(rng, labels, 3, 2)
             for _ in range(rng.randint(1, r + 2))] for _ in range(3)]
    if rng.random() < 0.2:  # a row of the generic jet: one slot a level
        rows[1] = [jt.jp_slot(*rng.choice(labels)) for _ in range(r + 1)]
    a, b, c = (fields.raw(*row) for row in rows)
    A, B, C = (_truncated([_poly_at(p, point) for p in row], r) for row in rows)
    e = rng.randint(0, 4)
    power = _s_pow(A, e)
    for lo in range(r + 1):
        for got, expected in ((jt._series_mul(a, b, r, lo), _s_mul(A, B)),
                              (jt._series_square(a, r, lo), _s_mul(A, A)),
                              (jt._series_sum([a, b, c], r, lo),
                               _s_add(_s_add(A, B), C))):
            assert len(got[0]) == r + 1 and not any(got[0][:lo])
            assert _raw_at(got, fields, point)[lo:] == expected[lo:], (r, lo)
        got = _truncated(_raw_at(jt._series_pow(a, e, r, lo), fields, point), r)
        assert got[lo:] == power[lo:], (r, lo, e)


def test_jets_are_the_eps_coefficients_on_the_truncated_series():
    rng = random.Random(3101)
    seen = {"shared square": 0, "lift": 0, "vf_lift": 0, "bracket": 0,
            "zero value": 0, "psi": 0, "den 2": 0, "pow >= 5": 0}
    for _ in range(300):
        names = ("x1", "x2", "x3")[:rng.randint(1, 3)]
        r = rng.randint(0, 4)
        f = _poly_tree(rng, names)
        while _top_degree(f, lambda v: 1) > 6:
            f = _poly_tree(rng, names)
        seen["shared square"] += ")^2*" in ex.to_text(f)
        lifts = [jt.jet_lift(f, i, r, names) for i in range(r + 1)]
        # a vector field on the chart and its lift X^(-i)
        X = _rand_chart_field(rng, names)
        i = rng.randint(0, r)
        xi = jt.vf_lift(X, i, r)
        _assert_jet_field(xi)
        assert all(k >= i for (_a, k), _c in xi.terms)
        # JetPoly arithmetic
        a, b = rand_jetpoly(rng, _LABELS), rand_jetpoly(rng, _LABELS)
        polys = [rand_jetpoly(rng, _LABELS) for _ in range(rng.randint(0, 4))]
        if polys and rng.random() < 0.3:
            polys.append(jt.jp_scale(polys[0], -1))
        e = rng.randint(0, 7)
        base = rand_jetpoly(rng, _LABELS, max_terms=rng.choice([1, 2, 3]),
                             max_exponent=3)
        mapping = {}
        for label in sorted(jt.jp_labels(a)) + rng.sample(_LABELS, 2):
            kind = rng.randrange(4)
            if kind == 0:
                mapping[label] = jt.JP_ZERO
            elif kind < 3:
                mapping[label] = rand_jetpoly(rng, _LABELS, max_terms=3, max_exponent=3)
        outputs = {"add": jt.jp_add(*polys), "mul": jt.jp_mul(a, b),
                   "pow": jt.jp_pow(base, e), "sub": jt.jp_substitute(a, mapping)}
        # two fields on the slots, sometimes the lift above
        eta = jt.jet_vf({label: rand_jetpoly(rng, _LABELS, max_terms=3, max_exponent=3)
                         for label in rng.sample(_LABELS[6:], rng.randint(0, 4))})
        zeta = xi if rng.random() < 0.3 else jt.jet_vf({
            label: rand_jetpoly(rng, _LABELS, max_terms=3, max_exponent=3)
            for label in rng.sample(_LABELS[6:], rng.randint(0, 4))})
        bracket = jt.jet_bracket(eta, zeta)
        applied = jt.jvf_apply(eta, a)
        for p in lifts + list(outputs.values()) + [applied]:
            _assert_jetpoly(p)
        _assert_jet_field(bracket)
        point = _jet_point(rng)
        rows = _rows(point, names, r)
        series = _on_series(f, rows, r)
        assert [_poly_at(p, point) for p in lifts] == series, \
            (ex.to_text(f), r)
        lifted = dict(xi.terms)
        for v, coeff in enumerate(X.coeffs):
            assert [_poly_at(lifted.get((v, k), jt.JP_ZERO), point)
                    for k in range(i, r + 1)] == \
                _wp_value(coeff, _rows(point, names, r - i)), (str(X), i, r)
        assert _poly_at(outputs["add"], point) == sum(
            (_poly_at(p, point) for p in polys), Fraction(0))
        assert _poly_at(outputs["mul"], point) == \
            _poly_at(a, point) * _poly_at(b, point)
        assert _poly_at(outputs["pow"], point) == _poly_at(base, point) ** e
        moved = {label: _poly_at(mapping[label], point)
                 if label in mapping else v for label, v in point.items()}
        assert _poly_at(outputs["sub"], point) == _poly_at(a, moved), \
            (str(a), mapping)
        # [eta, zeta]_l = eta(zeta_l) - zeta(eta_l)
        E, Z, B = dict(eta.terms), dict(zeta.terms), dict(bracket.terms)
        at_e = {label: _poly_at(c, point) for label, c in E.items()}
        at_z = {label: _poly_at(c, point) for label, c in Z.items()}
        for label in set(E) | set(Z) | set(B):
            assert label in set(E) | set(Z)
            assert _poly_at(B.get(label, jt.JP_ZERO), point) == \
                _along(Z.get(label, jt.JP_ZERO), point, at_e) - \
                _along(E.get(label, jt.JP_ZERO), point, at_z)
        assert _poly_at(applied, point) == _along(a, point, at_e)
        _check_raw_kernel(rng, point)
        seen["lift"] += any(p.terms for p in lifts[1:])
        seen["vf_lift"] += bool(xi.terms) and i > 0
        seen["bracket"] += bool(bracket.terms)
        seen["zero value"] += any(mapping[l].is_zero for l in jt.jp_labels(a)
                                  if l in mapping)
        seen["psi"] += any(l[0] == -1 for l in jt.jp_labels(a, *polys))
        seen["den 2"] += any(c.denominator == 2 for p in outputs.values()
                             for _, c in p.terms)
        seen["pow >= 5"] += e >= 5 and len(base.terms) > 1
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# wpoly

_ZERO_VARS = ("a", "b")


def _weighting(rng):
    """Two weight-0 variables and one to three designated ones of weight 1
    to 3."""
    pos = sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    return weight_sequence([(v, 0) for v in _ZERO_VARS]
                           + [(v, w) for v, w in zip("xyu", pos)], 3)


def _weight0_part(rng):
    """A rational function of the weight-0 variables with no pole at a
    point drawn by _rand_point_value: a rational, a variable, a sum, or the
    inverse of 1 + a^2."""
    a = ex.var(rng.choice(_ZERO_VARS))
    return rng.choice([
        ex.const(rand_rational(rng, zero_ok=False)), a,
        ex.add(a, ex.const(rand_rational(rng, zero_ok=False))),
        ex.pow_(ex.add(ex.ONE, ex.pow_(a, 2)), -rng.randint(1, 2))])


def _taylor_tree(rng, W, depth=3):
    """A tree over W: weight-0 parts, designated variables, sums, products,
    powers 1 to 4, negative powers of a base whose weight-0 part is usually
    not zero, and sin, cos, exp of an argument without a weight-0 part."""
    x = ex.var(rng.choice(W.positive_vars))
    if depth == 0 or rng.random() < 0.2:
        return _weight0_part(rng) if rng.random() < 0.4 else x
    kind = rng.randrange(6)
    if kind == 0:
        return ex.add(*[_taylor_tree(rng, W, depth - 1)
                        for _ in range(rng.randint(2, 3))])
    if kind == 1:
        return ex.mul(*[_taylor_tree(rng, W, depth - 1)
                        for _ in range(rng.randint(2, 3))])
    if kind == 2:
        return ex.pow_(_taylor_tree(rng, W, depth - 1), rng.randint(1, 4))
    vanishing = ex.mul(_taylor_tree(rng, W, depth - 1), x)
    if kind == 3:
        base = ex.add(vanishing, _weight0_part(rng) if rng.random() < 0.85
                      else ex.ZERO)
        return ex.pow_(base, -rng.randint(1, 2)) if base != ex.ZERO else base
    return ex.app(rng.choice(ex.FUNCTIONS), ex.mul(
        vanishing, _weight0_part(rng) if rng.random() < 0.3 else ex.ONE))


def _wpoly_point(rng, W):
    return {v: _rand_point_value(rng) for v in W.vars}


def _dilated_series(e, W, point, d):
    """f(t^w x, z) up to t^d at the point."""
    rows = {}
    for v, w in zip(W.vars, W.weights):
        rows[v] = [Fraction(0)] * (d + 1)
        if w <= d:
            rows[v][w] = point[v]
    return _on_series(e, rows, d)


def _by_degree(p, W, point, top):
    """sum of the terms of each weighted degree 0..top of p at the point;
    every term's degree must be at most top."""
    out = [Fraction(0)] * (top + 1)
    for s, c in p.terms:
        k = sum(e * W.weight_of(v) for v, e in zip(p.pvars, s))
        assert k <= top, (str(p), top)
        value = _at(c, point)
        for v, e in zip(p.pvars, s):
            value *= point[v] ** e
        out[k] += value
    return out


def _wp_along(p, point, direction):
    """d/ds p(point + s direction) at s = 0, by dual numbers."""
    return _wp_value(p, {v: [q, direction.get(v, Fraction(0))]
                         for v, q in point.items()})[1]


def _field_at(X, point):
    return {v: _wp_value(c, {u: [q] for u, q in point.items()})[0]
            for v, c in zip(X.vars, X.coeffs)}


def _split_field(rng, W):
    """A field on W, one coefficient in five on another variable split."""
    X = vf_for_weights(W, [rand_poly_expr(rng, W.vars, 3, 2)
                           if rng.random() < 0.8 else ex.ZERO for _ in W.vars])
    if rng.random() < 0.2:
        coeffs = list(X.coeffs)
        split = tuple(rng.sample(W.vars, rng.randint(0, W.n)))
        coeffs[rng.randrange(W.n)] = wp.poly_normal_form(
            rand_poly_expr(rng, W.vars, 2, 2), split)
        X = PolyVectorField(W.vars, tuple(coeffs))
    return X


def _assert_kernel_map(m):
    """Kernel values: the Fraction of a constant, a non-Const Expr else."""
    for c in m.values():
        assert type(c) is Fraction or (isinstance(c, ex.Expr)
                                       and type(c) is not ex.Const), c
        assert c != 0


def _assert_reads_back(p):
    """The printed text of p parses back to p as an Expr."""
    assert ex.parse_expr(str(p)) == wp.to_expr(p), str(p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


def _in_point(rng, W, e):
    """A point where e has no pole."""
    for _ in range(20):
        point = _wpoly_point(rng, W)
        try:
            _dilated_series(e, W, point, 0)
            return point
        except ZeroDivisionError:
            continue
    raise AssertionError(f"no point without a pole for {ex.to_text(e)}")


def test_weighted_taylor_is_the_t_expansion_of_the_dilated_function():
    rng = random.Random(3102)
    seen = {"taylor": 0, "refused": 0, "exact": 0, "not polynomial": 0,
            "approx": 0, "below": 0, "head": 0, "negative power": 0,
            "apply": 0, "split": 0, "bracket": 0}
    for _ in range(300):
        W = _weighting(rng)
        f = _taylor_tree(rng, W)
        d = rng.randint(0, 6)
        got = _outcome(wp.weighted_taylor, f, W, d)
        text = ex.to_text(f)
        seen["head"] += any(h + "(" in text for h in ex.FUNCTIONS)
        seen["negative power"] += "^-" in text
        if isinstance(got, str):
            assert got == ("negative power with vanishing constant term is "
                           "not analytic in the positive-weight variables")
            with pytest.raises(ZeroDivisionError):
                _dilated_series(f, W, _wpoly_point(rng, W), d)
            seen["refused"] += 1
        else:
            _assert_kernel_map(wp._expand(f, W.positive_vars,
                                          W.positive_weights, d))
            point = _in_point(rng, W, f)
            assert _by_degree(got, W, point, d) == \
                _dilated_series(f, W, point, d), (text, d)
            _assert_reads_back(got)
            seen["taylor"] += 1
            # homogeneous_approx is the t^k coefficient of the expansion
            k = rng.randint(0, d)
            part = _outcome(wp.homogeneous_approx, got, W, k)
            low = min((sum(e * W.weight_of(v) for v, e in zip(got.pvars, s))
                       for s, _ in got.terms), default=k)
            if low < k:
                assert part == (f"term of weighted degree {low} below "
                                f"requested degree {k}")
                seen["below"] += 1
            else:
                point = _in_point(rng, W, f)
                assert _by_degree(part, W, point, d) == [
                    c if j == k else 0 for j, c in
                    enumerate(_dilated_series(f, W, point, d))], (text, k)
                seen["approx"] += 1
        # poly_normal_form: the whole t-series, which ends at the top degree
        exact = (_outcome(wp.poly_normal_form, f, W.positive_vars)
                 if _top_degree(f, W.weight_of) <= 14 else None)
        if isinstance(exact, str):
            assert exact.startswith(("not polynomial in designated variables",
                                     "negative power with vanishing"))
            seen["not polynomial"] += 1
        elif exact is not None:
            top = max((sum(e * W.weight_of(v) for v, e in zip(exact.pvars, s))
                       for s, _ in exact.terms), default=0)
            point = _in_point(rng, W, f)
            assert _by_degree(exact, W, point, top + 2) == \
                _dilated_series(f, W, point, top + 2), text
            _assert_reads_back(exact)
            seen["exact"] += 1
        # a field applied to a polynomial, and a bracket of two fields
        X, Y = _split_field(rng, W), _split_field(rng, W)
        p = wp.poly_normal_form(rand_poly_expr(rng, W.vars, 3, 3),
                                W.positive_vars)
        point = _wpoly_point(rng, W)
        at_x, at_y = _field_at(X, point), _field_at(Y, point)
        # a coefficient on another split that meets a non-zero partial
        meets = any(c.terms and c.pvars != p.pvars
                    and _wp_along(p, point, {v: Fraction(1)})
                    for v, c in zip(X.vars, X.coeffs))
        applied = _outcome(vf_apply, X, p)
        if meets:
            assert applied == "mismatched variable splits"
            seen["split"] += 1
        else:
            assert _wp_value(applied, {v: [q] for v, q in point.items()})[0] \
                == _wp_along(p, point, at_x), (str(X), str(p))
            _assert_reads_back(applied)
            seen["apply"] += 1
        bracket = _outcome(lie_bracket, X, Y)
        if isinstance(bracket, str):
            assert bracket == "mismatched variable splits"
            assert any(c.pvars != d.pvars for c in X.coeffs + Y.coeffs
                       for d in X.coeffs + Y.coeffs)
        else:
            for a, (xc, yc) in enumerate(zip(X.coeffs, Y.coeffs)):
                value = _wp_value(bracket.coeffs[a],
                                  {v: [q] for v, q in point.items()})[0]
                assert value == _wp_along(yc, point, at_x) - \
                    _wp_along(xc, point, at_y), (str(X), str(Y))
                _assert_reads_back(bracket.coeffs[a])
            seen["bracket"] += 1
    assert min(seen.values()) >= 20, seen


def test_a_head_with_a_weight0_part_is_sympy_series():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3103)
    t = sympy.Symbol("t")
    cases = 0
    for _ in range(16):
        W = _weighting(rng)
        x = ex.var(rng.choice(W.positive_vars))
        head = ex.app(rng.choice(ex.FUNCTIONS), ex.add(
            ex.var(rng.choice(_ZERO_VARS)), ex.mul(
                ex.const(rand_rational(rng, zero_ok=False)), x,
                rng.choice([ex.ONE, ex.var(rng.choice(W.positive_vars))]))))
        f = ex.mul(head, rng.choice([ex.ONE, x, _weight0_part(rng)]))
        d = rng.randint(0, 3)
        got = wp.weighted_taylor(f, W, d)
        dilated = _sympy(f).subs({sympy.Symbol(v): t ** w * sympy.Symbol(v)
                                  for v, w in zip(W.vars, W.weights)},
                                 simultaneous=True)
        expansion = sympy.series(dilated, t, 0, d + 1).removeO()
        for k in range(d + 1):
            part = sum((_sympy(c) * sympy.Mul(*[sympy.Symbol(v) ** e for v, e
                                               in zip(got.pvars, s)])
                        for s, c in got.terms
                        if sum(e * W.weight_of(v)
                               for v, e in zip(got.pvars, s)) == k),
                       sympy.Integer(0))
            difference = part - expansion.coeff(t, k)
            assert _zero(difference) or sympy.simplify(difference) == 0, \
                (ex.to_text(f), d, k)
        cases += 1
    assert cases == 16


# The references above compare values, so they cannot tell (1 + x)^2 from
# 1 + 2*x + x^2.  The kernel keeps a weight-0 coefficient as the canonical
# Expr of the operations that made it, unexpanded; these pin that text.
_XY = weight_sequence([("x", 0), ("y", 1)], 3)
_XYZ = weight_sequence([("x", 0), ("y", 1), ("z", 2)], 2)


def _field(W, *coeffs):
    return vf_for_weights(W, [ex.parse_expr(c) for c in coeffs])


@pytest.mark.parametrize("result, text", [
    (lambda: wp.weighted_taylor(ex.parse_expr("(1+x)*(1+x+y)"), _XY, 0),
     "(1 + x)^2"),
    (lambda: wp.weighted_taylor(ex.parse_expr("(1+x+y)^3"), _XY, 2),
     "(1 + x)^3 + ((1 + x)^2 + (1 + x)*(2 + 2*x))*y + (3 + 3*x)*y^2"),
    (lambda: wp.weighted_taylor(ex.parse_expr("(1+x+y)^-2"), _XY, 1),
     "(1 + x)^-2 - 2*(1 + x)^-3*y"),
    (lambda: wp.poly_normal_form(ex.parse_expr("(1+x)*(1+x+y)"), ("y",)),
     "(1 + x)^2 + (1 + x)*y"),
    (lambda: wp.homogeneous_approx(wp.weighted_taylor(
        ex.parse_expr("y*(1+x)*(1+x+y)"), _XY, 2), _XY, 1), "(1 + x)^2*y"),
    (lambda: vf_apply(_field(_XY, "0", "(1+x)*y"), wp.poly_normal_form(
        ex.parse_expr("(1+x)*y^2"), ("y",))), "2*(1 + x)^2*y^2"),
    (lambda: lie_bracket(_field(_XY, "0", "(1+x)*y"),
                         _field(_XY, "0", "(1+x)^2*y^2")),
     "((1 + x)^3*y^2) d/d[y]"),
    (lambda: sp.blowup_lift_vf(_field(_XYZ, "0", "(1+x)*y", "(1+x)^2*z + y^2"),
                               _XYZ, sp.blowup_chart(_XYZ, "y")),
     "((1 + z1)*z2) d/d[z2] + (1 + ((1 + z1)^2 - 2*(1 + z1))*z3) d/d[z3]"),
    (lambda: sp.blowup_lift_vf(_field(_XYZ, "0", "(1+x)*y", "(1+x)^2*z + y^2"),
                               _XYZ, sp.blowup_chart(_XYZ, "z", "-")),
     "((1 + z1 - 1/2*(1 + z1)^2)*z2 - 1/2*z2^3) d/d[z2] + "
     "(1/2*z2^2*z3 + 1/2*(1 + z1)^2*z3) d/d[z3]"),
], ids=["taylor-product", "taylor-power", "taylor-negative-power",
        "normal-form", "approx", "vf-apply", "bracket", "lift-y", "lift-z-"])
def test_weight0_coefficients_print_unexpanded(result, text):
    assert str(result()) == text


def test_happrox_prints_a_weight0_product_unexpanded(capsys):
    assert main(["happrox", "--weights", "x=0,y=1", "--expr",
                 "(1+x)*(1+x+y)", "--degree", "0"]) == 0
    assert capsys.readouterr() == ("(1 + x)^2\n", "")


# ---------------------------------------------------------------------------
# Expr against sympy

def _sympy(e):
    import sympy
    if isinstance(e, ex.Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, ex.Var):
        return sympy.Symbol(e.name)
    if isinstance(e, ex.Sum):
        return sympy.Add(*map(_sympy, e.terms))
    if isinstance(e, ex.Prod):
        return sympy.Mul(*map(_sympy, e.factors))
    if isinstance(e, ex.Pow):
        return sympy.Pow(_sympy(e.base), e.exponent)
    return getattr(sympy, e.fn)(_sympy(e.arg))


def _rational_tree(rng, names, depth=3, heads=False):
    """A small tree of rationals, variables, sums, products, powers -2 to 3
    of non-constant bases and, with heads, sin, cos and exp."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return ex.const(rand_rational(rng))
        return ex.var(rng.choice(names))
    kind = rng.randrange(4 if heads else 3)
    if kind == 0:
        return ex.add(*[_rational_tree(rng, names, depth - 1, heads)
                        for _ in range(rng.randint(2, 3))])
    if kind == 1:
        return ex.mul(*[_rational_tree(rng, names, depth - 1, heads)
                        for _ in range(rng.randint(2, 3))])
    if kind == 2:
        base = _rational_tree(rng, names, depth - 1, heads)
        if isinstance(base, ex.Const):
            base = ex.add(base, ex.var(rng.choice(names)))
        return ex.pow_(base, rng.choice([-2, -1, 2, 3]))
    return ex.app(rng.choice(ex.FUNCTIONS),
                  _rational_tree(rng, names, depth - 1, heads))


def _zero(d):
    import sympy
    return sympy.expand(d) == 0 or sympy.cancel(sympy.together(d)) == 0


def test_expr_operations_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3104)
    names = ("x", "y", "z")
    seen = {"negative power": 0, "expanded sum": 0, "substituted": 0}
    for _ in range(300):
        e = _rational_tree(rng, names)
        expanded = ex.expand(e)
        assert _zero(_sympy(expanded) - _sympy(e)), ex.to_text(e)
        # expanded: no product or positive power of a sum is left
        stack = [expanded]
        while stack:
            node = stack.pop()
            if isinstance(node, ex.Prod):
                assert not any(isinstance(g, ex.Sum) for g in node.factors)
            if isinstance(node, ex.Pow) and node.exponent > 0:
                assert not isinstance(node.base, ex.Sum)
            stack.extend(getattr(node, "terms", ()) +
                         getattr(node, "factors", ()))
        v = rng.choice(names)
        assert _zero(_sympy(ex.differentiate(e, v))
                     - sympy.diff(_sympy(e), sympy.Symbol(v))), (ex.to_text(e), v)
        mapping = {u: _rational_tree(rng, names, 2)
                   for u in rng.sample(names, rng.randint(1, 2))}
        try:
            substituted = ex.substitute(e, mapping)
        except ValueError as err:  # a base that becomes 0, to a negative power
            assert str(err) == "zero raised to a negative power"
            continue
        expected = _sympy(e).xreplace({sympy.Symbol(u): _sympy(g)
                                       for u, g in mapping.items()})
        assert _zero(_sympy(substituted) - expected), \
            (ex.to_text(e), {u: ex.to_text(g) for u, g in mapping.items()})
        seen["negative power"] += "^-" in ex.to_text(e)
        seen["expanded sum"] += isinstance(expanded, ex.Sum)
        seen["substituted"] += 1
    assert min(seen.values()) >= 100, seen


def test_canonical_text_parses_back_and_means_what_sympy_reads():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3105)
    names = ("x", "y", "z")
    for _ in range(300):
        e = _rational_tree(rng, names, heads=True)
        text = ex.to_text(e)
        assert ex.parse_expr(text) == e, text
        read = sympy.sympify(text.replace("^", "**"),
                             locals={n: sympy.Symbol(n) for n in names})
        assert _zero(read - _sympy(e)) or \
            sympy.simplify(read - _sympy(e)) == 0, text


# ---------------------------------------------------------------------------
# the blow-up lift

def _lift_weighting(rng):
    """1-4 variables, or 10-12 (z10 sorts before z2), weights 0 to 3, one
    at least positive."""
    n = rng.choice([rng.randint(1, 4), rng.randint(10, 12)])
    weights = [rng.choice([0, 1, 1, 2, 3]) for _ in range(n)]
    weights[rng.randrange(n)] = rng.randint(1, 3)
    return weight_sequence([(f"a{k + 1}", w) for k, w in enumerate(sorted(weights))])


def _lift_field(rng, W):
    """A field that is usually of filtration degree 0: a few monomials per
    coefficient, those below its weight mostly dropped, with weight-0
    factors, and half the time a diagonal part, whose terms meet."""
    pvars, w = W.positive_vars, W.positive_weights
    coeffs = []
    diagonal = rng.random() < 0.5
    for v, wv in zip(W.vars, W.weights):
        terms = {}
        for _ in range(rng.choice([0, 1, 2, 3])):
            s = [0] * len(pvars)
            for p in rng.sample(range(len(pvars)), min(len(pvars), 2)):
                s[p] = rng.randint(0, 2)
            if sum(map(math.prod, zip(s, w))) < wv and rng.random() < 0.9:
                continue
            k = ex.const(rand_rational(rng, zero_ok=False))
            if W.zero_vars and rng.random() < 0.4:
                k = ex.mul(k, ex.add(ex.ONE, ex.var(rng.choice(W.zero_vars))))
            terms[tuple(s)] = ex.add(terms.get(tuple(s), ex.ZERO), k)
        c = wp.to_expr(wp.wpoly(pvars, terms))
        if diagonal:
            c = ex.add(c, ex.mul(ex.const(rand_rational(rng)), ex.var(v)))
        coeffs.append(c)
    return vf_for_weights(W, coeffs)


def test_the_blowup_lift_is_the_pushforward_by_the_chart():
    rng = random.Random(3106)
    seen = {"lift": 0, "refused": 0, "10+ variables": 0, "two terms": 0}
    zero_fields = 0
    for _ in range(130):
        W = _lift_weighting(rng)
        X = _lift_field(rng, W)
        w, n = W.weights, W.n
        znames = sp.chart_names(W)
        for center in rng.sample(W.positive_vars, min(3, len(W.positive_vars))):
            c = W.vars.index(center)
            lift = _outcome(sp.blowup_lift_vf, X, W, sp.blowup_chart(
                W, center, rng.choice("+-")))
            if X.is_zero:  # the zero field lifts to the zero field
                assert lift.components == ()
                zero_fields += 1
                continue
            degree0 = all(sum(e * W.weight_of(v) for v, e in zip(p.pvars, s))
                          >= wv for p, wv in zip(X.coeffs, w) for s, _ in p.terms)
            if isinstance(lift, str):
                assert lift == ("only fields of filtration degree 0 lift to "
                                "the blow-up") and not degree0
                seen["refused"] += 1
                continue
            assert degree0
            comps = dict(lift.components)
            assert [zb for zb, _ in lift.components] == sorted(comps)
            for zb, terms in lift.components:
                assert terms and [m for _, m in terms] == sorted(
                    {m for _, m in terms})
                seen["two terms"] += len(terms) > 1
                for k, m in terms:
                    assert isinstance(k, ex.Expr) and k != ex.ZERO
                    assert [v for v, _ in m] == sorted({v for v, _ in m})
                    assert all(type(q) is Fraction and q != 0 for _, q in m)
            z = {zb: _rand_point_value(rng) for zb in znames}
            tt = _rand_point_value(rng)
            # the inverse chart: y_c = z_c^w_c t^-w_c, y_a = z_a z_c^w_a t^-w_a
            y = [z[znames[a]] * z[znames[c]] ** w[a] / tt ** w[a]
                 if a != c else z[znames[c]] ** w[c] / tt ** w[c]
                 for a in range(n)]
            # the degree-0 extension at (y, t): t^-w_v X_v(t^w y)
            x = {v: tt ** wa * ya for v, wa, ya in zip(W.vars, w, y)}
            ext = [_wp_value(p, {u: [q] for u, q in x.items()})[0]
                   / tt ** wv for p, wv in zip(X.coeffs, w)]
            for b, zb in enumerate(znames):
                # q_bv, the exponent of y_v in z_b: z_c = t y_c^(1/w_c) and
                # z_b = y_b y_c^(-w_b/w_c)
                q = ({c: Fraction(1, w[c])} if b == c else
                     {b: Fraction(1), c: Fraction(-w[b], w[c])})
                pushed = sum((qv * z[zb] / y[v] * ext[v]
                              for v, qv in q.items()), Fraction(0))
                lifted = Fraction(0)
                for k, m in comps.get(zb, ()):
                    term = _at(k, z)
                    for v, e in m:
                        assert e.denominator == 1
                        term *= z[v] ** int(e)
                    lifted += term
                assert lifted == pushed, (W, str(X), center, zb)
            seen["lift"] += 1
            seen["10+ variables"] += n >= 10
    assert min(seen.values()) >= 30 and seen["lift"] + seen["refused"] >= 300, \
        seen
    assert zero_fields > 0


# ---------------------------------------------------------------------------
# the symbolic kernels' shortcuts: a rational scales an Expr, a Maclaurin
# coefficient at 0 is rational, results are written in their target names

def _scaled_kinds(e):
    """The kinds of e that the scalar rule tells apart: a leading constant,
    a Sum or Prod core after it, a bare Var, Pow or App."""
    coeff, core = ex._split_coeff(e)
    return {"leading constant": coeff != 1, "Sum core": type(core) is ex.Sum,
            "Prod core": type(core) is ex.Prod,
            "bare node": type(e) in (ex.Var, ex.Pow, ex.App)}


def test_a_rational_scales_an_expr_as_expr_mul_does():
    rng = random.Random(3107)
    seen = dict.fromkeys(["Fraction", "int", "zero", "leading constant",
                          "Sum core", "Prod core", "bare node"], 0)
    cases = 0
    while cases < 400:
        e = _rational_tree(rng, ("a", "b", "x"), 3, heads=True)
        if isinstance(e, ex.Const):
            continue
        q = rng.choice([rand_rational(rng, zero_ok=False), Fraction(1),
                        rng.randint(1, 5), 0])
        expected = wp._value(ex.mul(ex.const(q), e))
        for got in (wp._mul(q, e), wp._mul(e, q)):
            assert type(got) is type(expected) and got == expected, (q, repr(e))
        seen["zero" if not q else type(q).__name__] += 1
        for kind, hit in _scaled_kinds(e).items():
            seen[kind] += hit
        cases += 1
    assert min(seen.values()) >= 30, seen


def test_maclaurin_coefficients_are_derivatives_over_factorials():
    rng = random.Random(3108)
    x = ex.var("x")
    cases = 0
    for fn in ex.FUNCTIONS:
        derivative = ex.app(fn, x)
        for j in range(13):
            points = [ex.ZERO, rand_rational(rng, zero_ok=False)]
            while len(points) < 8:
                at = _rational_tree(rng, ("a", "b"), 2, heads=True)
                points.append(wp._value(at) or Fraction(1))
            for at in points:
                expected = wp._value(ex.mul(
                    ex.const(Fraction(1, math.factorial(j))),
                    ex.substitute(derivative, {"x": ex.as_expr(at)})))
                got = wp._maclaurin_coeff(fn, at, j)
                assert type(got) is type(expected) and got == expected, \
                    (fn, j, repr(at))
                assert type(got) is Fraction or at is not ex.ZERO
                cases += 1
            derivative = ex.differentiate(derivative, "x")
    assert cases == 312


# source names whose order differs from that of y1..yn
_SOURCE_NAMES = ("q", "p", "n", "m", "k", "h", "g", "e", "d", "c", "b")


def _source_weighting(rng):
    """2-4 variables or 11 (y10 sorts before y2), the first of weight 0,
    the others of weight 0 to 3, one at least positive."""
    n = rng.choice([rng.randint(2, 4), 11])
    weights = sorted([0, rng.randint(1, 3)]
                     + [rng.choice([0, 1, 1, 2, 3]) for _ in range(n - 2)])
    names = rng.sample(_SOURCE_NAMES, n)
    return weight_sequence(list(zip(names, weights)), 3)


def _weight0_coefficient(rng, W):
    """A function of W's weight-0 variables: a rational, a variable, a
    Sum, sin, cos or exp of either, or a product of those."""
    a = ex.var(rng.choice(W.zero_vars))
    pieces = [ex.const(rand_rational(rng, zero_ok=False)), a,
              ex.add(a, ex.const(rand_rational(rng, zero_ok=False)))]
    pieces += [ex.app(fn, rng.choice(pieces[1:])) for fn in ex.FUNCTIONS]
    return ex.mul(*rng.sample(pieces, rng.randint(1, 2)))


def _weighted_polynomial(rng, W, low):
    """A few terms c(z) x^s, each of weighted degree at least low with
    probability 0.95."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        s = [rng.randint(0, 2) for _ in W.positive_vars]
        if sum(map(math.prod, zip(s, W.positive_weights))) < low \
                and rng.random() < 0.95:
            continue
        terms.append(ex.mul(_weight0_coefficient(rng, W), *[
            ex.pow_(ex.var(v), k) for v, k in zip(W.positive_vars, s)]))
    return ex.add(*terms, ex.ZERO)


def _with_clash(rng, e, names):
    """e, or one time in eight e times a symbol named like a target
    coordinate."""
    return ex.mul(e, ex.var(rng.choice(names))) if rng.random() < 0.125 else e


def _source_named_nu(phi):
    """The graded transition in the source names, renamed at the end."""
    W, parts = phi.source, []
    for wb, component in zip(phi.target.weights, phi.components):
        p = wp.weighted_taylor(component, W, wb)
        if any(sum(map(math.prod, zip(s, W.positive_weights))) < wb
               for s, _ in p.terms):
            return "chart map does not preserve the filtrations"
        parts.append(wp.to_expr(wp.homogeneous_part(p, W, wb)))
    rename = _outcome(sp._rename_map, W, sp.deformation_names(W), phi.components)
    if isinstance(rename, str):
        return rename
    return tuple(ex.substitute(e, rename) for e in parts)


def _source_named_interpolant(f, degree, W):
    """sum t^(s.w - degree) c x^s in the source names, renamed at the end."""
    p = wp.poly_normal_form(f, W.positive_vars)
    rename = _outcome(sp._rename_map, W, sp.deformation_names(W) + ("t",),
                      [c for _, c in p.terms])
    if isinstance(rename, str):
        return rename
    terms = []
    for s, c in p.terms:
        sw = sum(map(math.prod, zip(s, W.positive_weights)))
        if sw < degree:
            return f"function has a term of weighted degree {sw} below {degree}"
        terms.append(ex.mul(ex.pow_(ex.var("t"), sw - degree), c,
                            wp.monomial_expr(p.pvars, s)))
    return ex.substitute(ex.add(*terms, ex.ZERO), rename)


def test_transitions_and_interpolants_are_the_renamed_source_results():
    rng = random.Random(3109)
    seen = {"nu": 0, "nu filtration": 0, "nu clash": 0, "interpolant": 0,
            "interpolant degree": 0, "interpolant clash": 0, "11 variables": 0,
            "head": 0, "Sum": 0}
    for _ in range(400):
        W = _source_weighting(rng)
        clash = ("y1", "y2", "y10", "y11")[:2 + 2 * (W.n >= 10)]
        components = [ex.add(ex.var(v), _weight0_coefficient(rng, W))
                      if not wv else _weighted_polynomial(rng, W, wv)
                      for v, wv in zip(W.vars, W.weights)]
        b = rng.randrange(W.n)
        components[b] = _with_clash(rng, components[b], clash)
        if rng.random() < 0.05:  # a term below the last component's weight
            components[-1] = ex.add(components[-1], _weight0_coefficient(rng, W))
        phi = sp.coordinate_change(W, W, components)
        got, expected = _outcome(sp.nu_transition, phi), _source_named_nu(phi)
        assert got == expected, (W, [str(c) for c in components])
        seen[{"chart map does not preserve the filtrations": "nu filtration"}
             .get(got, "nu clash") if isinstance(got, str) else "nu"] += 1
        f = _with_clash(rng, _weighted_polynomial(rng, W, 0), clash + ("t",))
        degree = rng.randint(0, 2)
        got = _outcome(sp.def_interpolant, f, degree, W)
        expected = _source_named_interpolant(f, degree, W)
        if isinstance(got, str):
            assert got == expected, (W, str(f), degree)
            seen["interpolant clash" if "named like" in got
                 else "interpolant degree"] += 1
        else:
            assert got.expression == expected, (W, str(f), degree)
            seen["interpolant"] += 1
        text = " ".join(map(str, components)) + " " + str(f)
        seen["head"] += any(h + "(" in text for h in ex.FUNCTIONS)
        seen["Sum"] += "(" in text.replace("sin(", "").replace(
            "cos(", "").replace("exp(", "")
        seen["11 variables"] += W.n == 11
    assert min(seen.values()) >= 10 and min(seen["nu"], seen["interpolant"]) >= 300, seen


# ---------------------------------------------------------------------------
# a polynomial's Expr is the sum of its terms c_s * x^s; a zero test reads
# the node type

def test_to_expr_is_the_sum_of_coefficient_times_monomial():
    rng = random.Random(3701)
    seen = dict.fromkeys(["empty", "one term", "two or more", "constant term",
                          "Const", "Var", "Sum", "Prod", "App"], 0)
    for _ in range(400):
        W = _source_weighting(rng)
        terms = {tuple(rng.choice([0, 0, 1, 2]) for _ in W.positive_vars):
                 _weight0_coefficient(rng, W)
                 for _ in range(rng.choice([0, 1, 1, 2, 3, 4]))}
        p = wp.wpoly(W.positive_vars, terms)
        expected = ex.add(*[ex.mul(c, wp.monomial_expr(p.pvars, s))
                            for s, c in p.terms], ex.ZERO)
        got = wp.to_expr(p)
        assert got == expected and repr(got) == repr(expected), repr(p)
        seen[("empty", "one term")[len(p.terms)] if len(p.terms) < 2
             else "two or more"] += 1
        seen["constant term"] += any(not any(s) for s, _ in p.terms)
        for _, c in p.terms:
            seen[type(c).__name__] += 1
    assert min(seen.values()) >= 30, seen


def test_the_zero_test_is_equality_with_zero():
    rng = random.Random(3702)
    names = ("a", "b", "x")
    W = weight_sequence([("a", 0), ("b", 0), ("x", 1)], 2)
    unpickled = pickle.loads(pickle.dumps(ex.ZERO))
    cases = [ex.ZERO, ex.as_expr(0), ex.Const(Fraction(0)), unpickled, ex.ONE,
             ex.MINUS_ONE, ex.as_expr(Fraction(1, 2))]
    assert all(z is not ex.ZERO for z in cases[1:4])
    for _ in range(300):
        e = _rational_tree(rng, names, 3, heads=True)
        v = rng.choice(names)
        outputs = [e, ex.differentiate(e, v), ex.add(e, ex.mul(ex.MINUS_ONE, e)),
                   ex.mul(ex.ZERO, e), ex.expand(e)]
        at_zero = _outcome(ex.substitute, e, {v: ex.ZERO})
        taylor = _outcome(wp.weighted_taylor, e, W, rng.randint(0, 2))
        outputs += [] if isinstance(at_zero, str) else [at_zero]
        if not isinstance(taylor, str):
            outputs += [wp.to_expr(taylor)] + [c for _, c in taylor.terms]
        cases += outputs + [pickle.loads(pickle.dumps(out)) for out in outputs]
    zeros = 0
    for e in cases:
        assert ex._is_zero(e) == (e == ex.ZERO), repr(e)
        zeros += ex._is_zero(e)
    assert zeros >= 300 and len(cases) - zeros >= 1000, (zeros, len(cases))
