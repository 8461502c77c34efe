"""One generated weighting, three descriptions that must agree.

Each case draws weighted coordinates u = x - G on a chart x1..xn (n is 1-3
unless a test asks for more): sorted weights 1-5, order 6, and a triangular
shear, G_a a polynomial without constant term in the x_b with b < a.  The
graph Q of the weighting comes from ``coordinate_graph``, checked against
its definition by the helper of ``conftest``: Q constrains the slots (a, j)
with j < w_a, and the lift u_a^(j) vanishes on Q at each of them.

* Functions: ``induced_filtration_degree(Q, f)`` (the jet kernel) equals
  the weighted order of f(x(u)) from ``weighted_taylor`` in u (the term-map
  kernel), capped at r + 1.
* Vector fields: ``k_membership(Q, X, i)`` equals
  ``vf_filtration_degree(X written in u) >= -i``.
* The graph: ``check_weighting(Q)`` accepts it with the weights of u, and
  the accepted graph passes N3, the reparametrization check.  A second leg
  draws G outside N4's correction ansatz: monomials of order 2-3 in any
  positive-weight variable, and weight-0 factors beside variables of lower
  index; N4 accepts those with the weights of u too, or abstains where G
  reads a weight-0 variable, and every level system it solves has full
  column rank.
* Euler-like fields: for shears that keep the weighting (every monomial of
  G_a of weighted degree >= w_a in the weights of x), the Euler field
  sum_a w_a u_a d/du_a of u, written in x, passes ``euler_like_check``,
  and adding x_a d/dx_a or d/dx_a to it fails.
"""

from __future__ import annotations

import math
import random

import pytest

from weightings import expr as ex
from weightings import wpoly as wp
from weightings.fields import (euler_field, vf_filtration_degree, vf_for_weights,
                               vf_from_exprs)
from weightings.spaces import euler_like_check
from weightings import subbundle as sb
from weightings.subbundle import (check_weighting, induced_filtration_degree,
                                  k_membership)
from weightings.weights import weight_sequence

from conftest import coordinate_graph, rand_rational

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
    Q = coordinate_graph(dict(zip(xs, weights)), ORDER, dict(zip(xs, shears)))
    x_in_u = {}
    for a, G in enumerate(shears):
        x_in_u[xs[a]] = ex.add(ex.var(us[a]), ex.substitute(G, x_in_u))
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
        # the graph of an acceptance is invariant under reparametrization
        assert sb._lambda_invariance_witness(Q) is None, str(Q)
        sheared += any(not g.is_zero for _, g in Q.constraints)
    assert sheared >= 500, sheared


def _outside_the_ansatz(rng, weight0):
    """(weights, shears) of u = x - G on 2-4 variables of weights 1-4, and
    with weight0 one or two of weight 0, in drawn chart order.  Each G_a is
    up to three monomials of order 2-3 in the positive-weight variables,
    weights >= w_a included, outside N4's ansatz.  With weight0 a monomial
    may also take weight-0 factors, and then reads only variables of lower
    index, so that no slot depends on itself through the shears."""
    weights = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
    weights += [0] * (rng.randint(1, 2) if weight0 else 0)
    rng.shuffle(weights)
    names = [f"x{a + 1}" for a in range(len(weights))]
    positive = [name for name, w in zip(names, weights) if w]
    shears = {}
    for name in positive:
        lower = names[:names.index(name)]
        monomials = []
        for _ in range(rng.randint(0, 3)):
            size = rng.randint(2, 3)
            if weight0 and set(lower) & set(positive) and rng.random() < 0.5:
                factors = [rng.choice([n for n in lower if n in positive])]
                factors += [rng.choice(lower) for _ in range(size - 1)]
            else:
                factors = [rng.choice(positive) for _ in range(size)]
            monomials.append(ex.mul(ex.const(rand_rational(rng, False)),
                                    *map(ex.var, factors)))
        shears[name] = ex.add(*monomials)
    return dict(zip(names, weights)), shears


@pytest.mark.parametrize("weight0, seed", [(False, 5), (True, 6)],
                         ids=["positive", "weight-0"])
def test_check_weighting_accepts_shears_outside_the_ansatz(weight0, seed,
                                                           monkeypatch):
    # u_a = x_a - G_a is a weighting with the weights of u, so N4 must
    # accept, or abstain where a G_a reads a weight-0 variable; every level
    # system it solves has full column rank, as the candidates u^s at a
    # level are independent
    def eliminate(rows, ncols):
        d, pivots = real_eliminate(rows, ncols)
        assert len(pivots) == ncols
        systems.append(ncols)
        return d, pivots

    real_eliminate, systems = sb._eliminate, []
    monkeypatch.setattr(sb, "_eliminate", eliminate)
    rng = random.Random(seed)
    seen = {"accepted": 0, "undecided": 0, "reads weight >= w_a": 0}
    for _ in range(300):
        weights, shears = _outside_the_ansatz(rng, weight0)
        Q = coordinate_graph(weights, max(weights.values()) + rng.randint(0, 1),
                             shears)
        verdict = check_weighting(Q)
        if verdict.accepted:
            assert verdict.weights.as_dict() == weights, (str(Q), shears)
            assert sb._lambda_invariance_witness(Q) is None, str(Q)
            seen["accepted"] += 1
        else:
            assert verdict.reason == sb.UNDECIDED, (str(Q), str(verdict))
            assert any(weights[v] == 0 for G in shears.values()
                       for v in ex.variables(G)), str(Q)
            seen["undecided"] += 1
        seen["reads weight >= w_a"] += any(
            weights[v] >= weights[name] for name, G in shears.items()
            for v in ex.variables(G))
    assert seen["accepted"] >= 200 and seen["reads weight >= w_a"] >= 250, seen
    assert seen["undecided"] >= (20 if weight0 else 0), seen
    assert len(systems) >= 30, systems


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
        sheared += E != euler_field(W)
    assert sheared >= 100, sheared
