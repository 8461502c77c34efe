"""One generated weighting, three descriptions that must agree.

Each case draws weighted coordinates u = x - G on a chart x1..xn (n is 1-3
unless a test asks for more): sorted weights 1-5, order 6, and a triangular
shear, G_a a polynomial without constant term in the x_b with b < a.  The
graph Q of the weighting is built here from its definition, not by a
library helper: a jet lies on Q when u_a vanishes to order w_a along it, so
the slot (a, j), j < w_a, is the lift G_a^(j) restricted to the slots
already solved.

* Functions: ``induced_filtration_degree(Q, f)`` (the jet kernel) equals
  the weighted order of f(x(u)) from ``weighted_taylor`` in u (the term-map
  kernel), capped at r + 1.
* Vector fields: ``k_membership(Q, X, i)`` equals
  ``vf_filtration_degree(X written in u) >= -i``.
* The graph: ``check_weighting(Q)`` accepts it with the weights of u.
* Euler-like fields: for shears that keep the weighting (every monomial of
  G_a of weighted degree >= w_a in the weights of x), the Euler field
  sum_a w_a u_a d/du_a of u, written in x, passes ``euler_like_check``,
  and adding x_a d/dx_a or d/dx_a to it fails.
"""

from __future__ import annotations

import math
import random

from weightings import expr as ex
from weightings import jets as jt
from weightings import wpoly as wp
from weightings.fields import (euler_field, vf_equal, vf_filtration_degree,
                               vf_for_weights, vf_from_exprs)
from weightings.spaces import euler_like_check
from weightings.subbundle import (check_weighting, graph_subbundle,
                                  induced_filtration_degree, k_membership)
from weightings.weights import weight_sequence

from conftest import rand_rational

ORDER = 6


def _monomial(rng, names, max_size):
    return ex.mul(*[ex.var(rng.choice(names))
                    for _ in range(rng.randint(1, max_size))])


def _weighting(rng, n=None):
    """(chart, Q, u_a as Exprs in x, x_a as Exprs in u, weights in u), on n
    variables or on 1-3 drawn."""
    n = rng.choice([1, 2, 3, 3]) if n is None else n
    weights = sorted(rng.randint(1, 5) for _ in range(n))
    xs = [f"x{a + 1}" for a in range(n)]
    us = [f"u{a + 1}" for a in range(n)]
    shears = [ex.add(*[ex.mul(ex.const(rand_rational(rng, zero_ok=False)),
                              _monomial(rng, xs[:a], 3))
                       for _ in range(rng.randint(1, 2) if a else 0)])
              for a in range(n)]
    constraints = {}
    x_in_u = {}
    for a, G in enumerate(shears):
        for j in range(weights[a]):
            constraints[(a, j)] = jt.jp_substitute(
                jt.jet_lift(G, j, ORDER, xs), constraints)
        x_in_u[xs[a]] = ex.add(ex.var(us[a]), ex.substitute(G, x_in_u))
    Q = graph_subbundle(xs, ORDER, constraints)
    u_in_x = [ex.add(ex.var(x), ex.mul(ex.const(-1), G))
              for x, G in zip(xs, shears)]
    return xs, Q, u_in_x, x_in_u, weight_sequence(list(zip(us, weights)),
                                                  ORDER)


def _function(rng, u_in_x, xs, max_factors=4):
    """A sum of u-monomials written in x, sometimes plus an x-polynomial:
    its weighted order spreads over 0..r + 1."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        mono = ex.mul(*[u_in_x[rng.randrange(len(xs))]
                        for _ in range(rng.randint(0, max_factors))])
        terms.append(ex.mul(ex.const(rand_rational(rng, zero_ok=False)), mono))
    if rng.random() < 0.2:
        terms.append(_monomial(rng, xs, 3))
    return ex.add(*terms)


def _weighted_order(F, W):
    degree = wp.filtration_degree(wp.weighted_taylor(F, W, ORDER), W)
    return ORDER + 1 if degree == math.inf else degree


def test_induced_filtration_degree_is_the_weighted_order_in_u():
    rng = random.Random(1806)
    degrees = set()
    sheared = 0
    for _ in range(320):
        xs, Q, u_in_x, x_in_u, Wu = _weighting(rng)
        f = _function(rng, u_in_x, xs)
        expected = _weighted_order(ex.substitute(f, x_in_u), Wu)
        assert induced_filtration_degree(Q, f) == expected, \
            (str(Q), ex.to_text(f))
        degrees.add(expected)
        sheared += any(not g.is_zero for _, g in Q.constraints)
    assert degrees == set(range(ORDER + 2)), degrees
    assert sheared >= 150, sheared


def test_k_membership_is_the_filtration_degree_in_u():
    rng = random.Random(1807)
    seen = {True: 0, False: 0}
    for _ in range(300):
        xs, Q, u_in_x, x_in_u, Wu = _weighting(rng)
        coeffs = [_function(rng, u_in_x, xs, 2) if rng.random() < 0.7
                  else ex.ZERO for _ in xs]
        if all(c == ex.ZERO for c in coeffs):
            coeffs[0] = ex.ONE
        X = vf_from_exprs(xs, coeffs, xs)
        # X in u: its component on d/du_b is X(u_b), written in u
        in_u = vf_for_weights(Wu, [ex.substitute(ex.add(*[
            ex.mul(c, ex.differentiate(u, x)) for x, c in zip(xs, coeffs)]),
            x_in_u) for u in u_in_x])
        degree = vf_filtration_degree(in_u, Wu)
        for i in rng.sample(range(ORDER + 1), 2):
            member = k_membership(Q, X, i)
            assert member == (degree >= -i), (str(Q), str(X), i)
            seen[member] += 1
    assert min(seen.values()) >= 150, seen


def test_check_weighting_accepts_the_graph_with_the_weights_of_u():
    rng = random.Random(5)
    cases = [_weighting(rng) for _ in range(600)]
    rng = random.Random(7)
    cases += [_weighting(rng, rng.randint(4, 6)) for _ in range(300)]
    sheared = 0
    for _xs, Q, _u_in_x, _x_in_u, Wu in cases:
        verdict = check_weighting(Q)
        assert verdict.accepted, (str(Q), str(verdict))
        assert verdict.weights.weights == Wu.weights, str(Q)
        sheared += any(not g.is_zero for _, g in Q.constraints)
    assert sheared >= 500, sheared


def _same_weighting(rng):
    """(weights W of x, u_a as Exprs in x, x_a as Exprs in u) for u = x - G,
    G_a a sum of monomials in the x_b, b < a, each of weighted degree at
    least w_a, so that u is a coordinate system of the weighting of x."""
    n = rng.randint(1, 4)
    weights = sorted(rng.randint(1, 5) for _ in range(n))
    xs = [f"x{a + 1}" for a in range(n)]
    shears = []
    for a in range(n):
        monomials = []
        for _ in range(rng.randint(0, 2) if a else 0):
            factors, degree = [], 0
            while degree < weights[a] or rng.random() < 0.2:
                b = rng.randrange(a)
                factors.append(ex.var(xs[b]))
                degree += weights[b]
            monomials.append(ex.mul(ex.const(rand_rational(rng, zero_ok=False)),
                                    *factors))
        shears.append(ex.add(*monomials))
    x_in_u = {}
    for a, G in enumerate(shears):
        x_in_u[xs[a]] = ex.add(ex.var(f"u{a + 1}"), ex.substitute(G, x_in_u))
    u_in_x = [ex.add(ex.var(x), ex.mul(ex.const(-1), G))
              for x, G in zip(xs, shears)]
    return weight_sequence(list(zip(xs, weights)), ORDER), u_in_x, x_in_u


def test_the_euler_field_of_u_is_euler_like_and_a_perturbed_one_is_not():
    rng = random.Random(2703)
    sheared = 0
    for _ in range(300):
        W, u_in_x, x_in_u = _same_weighting(rng)
        us = {f"u{a + 1}": u for a, u in enumerate(u_in_x)}
        # E(x_b) = sum_a w_a u_a dx_b/du_a, written in x
        coeffs = [ex.substitute(ex.add(*[
            ex.mul(ex.const(w), ex.var(u), ex.differentiate(x_in_u[x], u))
            for u, w in zip(us, W.weights)]), us) for x in W.vars]
        E = vf_for_weights(W, coeffs)
        assert euler_like_check(E, W), str(E)
        a = rng.randrange(W.n)
        for extra in (ex.var(W.vars[a]), ex.ONE):
            perturbed = [ex.add(c, extra) if b == a else c
                         for b, c in enumerate(coeffs)]
            assert not euler_like_check(vf_for_weights(W, perturbed), W)
        # a shear with a monomial above w_a moves E off the Euler field of x
        sheared += not vf_equal(E, euler_field(W))
    assert sheared >= 100, sheared
