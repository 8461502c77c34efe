"""Shared deterministic random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from weightings import expr as ex
from weightings import jets as jt
from weightings import subbundle as sb
from weightings import wpoly as wp
from weightings.weights import WeightSequence, weight_sequence


def rand_rational(rng: random.Random, zero_ok: bool = True) -> Fraction:
    num = rng.randint(-6, 6)
    if not zero_ok and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 4))


def rand_jetpoly(rng: random.Random, labels, max_terms: int = 4,
                 max_exponent: int = 6) -> jt.JetPoly:
    """Random JetPoly on the slot labels: up to max_terms terms of up to
    three labels each, exponents 1 to max_exponent (often 1 or the top)."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(sorted((label, rng.choice([1, max_exponent,
                                             rng.randint(1, max_exponent)]))
                         for label in rng.sample(labels, rng.randint(
                             0, min(3, len(labels))))))
        terms[m] = rand_rational(rng)
    return jt.jetpoly(terms)


def coordinate_graph(weights, order, shears) -> sb.GraphSubbundle:
    """``sb.coordinate_graph``, checked against its definition: the graph
    constrains exactly the slots (a, j) with j < w_a, and u_a = x_a - G_a
    vanishes to order w_a along it.  That is, each lift u_a^(j), j < w_a,
    vanishes on the graph: ``induced_filtration_degree`` finds the first
    lift off the graph (checked against lift-then-substitute in
    ``tests/test_subbundle.py``), and reads each level once."""
    Q = sb.coordinate_graph(weights, order, shears)
    assert Q.constrained_labels() == {(a, j) for a, w in enumerate(
        weights.values()) for j in range(w)}, Q
    for name, w in weights.items():
        u = ex.add(ex.var(name), ex.mul(ex.MINUS_ONE, shears.get(name, ex.ZERO)))
        assert sb.induced_filtration_degree(Q, u) >= w, (Q, name)
    return Q


def rand_poly_expr(rng: random.Random, names, max_degree: int = 4,
                   max_terms: int = 4) -> ex.Expr:
    """Random polynomial expression with rational coefficients."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        factors = [ex.const(rand_rational(rng, zero_ok=False))]
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            factors.append(ex.var(rng.choice(names)))
        terms.append(ex.mul(*factors))
    return ex.add(*terms)


def rand_expr(rng: random.Random, names, depth: int = 3) -> ex.Expr:
    """Random canonical expression tree including transcendental heads."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ex.const(rand_rational(rng))
        return ex.var(rng.choice(names))
    kind = rng.randrange(4)
    if kind == 0:
        return ex.add(*[rand_expr(rng, names, depth - 1)
                        for _ in range(rng.randint(2, 3))])
    if kind == 1:
        return ex.mul(*[rand_expr(rng, names, depth - 1)
                        for _ in range(rng.randint(2, 3))])
    if kind == 2:
        base = rand_expr(rng, names, depth - 1)
        exponent = rng.choice([2, 3, -1, -2])
        if exponent < 0 and base == ex.ZERO:
            base = ex.var(names[0])
        try:
            return ex.pow_(base, exponent)
        except ValueError:
            return ex.pow_(ex.var(names[0]), exponent)
    return ex.app(rng.choice(["sin", "cos", "exp"]),
                  rand_expr(rng, names, depth - 1))


def rand_weight_sequence(rng: random.Random, max_n: int = 3,
                         max_order: int = 4, min_weight: int = 1) -> WeightSequence:
    n = rng.randint(1, max_n)
    names = [f"x{i + 1}" for i in range(n)]
    weights = sorted(rng.randint(min_weight, max_order) for _ in range(n))
    order = max(max(weights), rng.randint(max(weights), max_order))
    return weight_sequence(list(zip(names, weights)), order)


def rand_wpoly(rng: random.Random, W: WeightSequence, max_degree: int = 4,
               max_terms: int = 4, coeff_vars: bool = True) -> wp.WeightedPoly:
    """Random WeightedPoly; coefficients may involve the weight-0 variables."""
    pvars = W.positive_vars
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        s = tuple(rng.randint(0, max_degree // max(1, len(pvars)))
                  for _ in pvars)
        coeff: ex.Expr = ex.const(rand_rational(rng, zero_ok=False))
        if coeff_vars and W.zero_vars and rng.random() < 0.5:
            coeff = ex.mul(coeff, ex.var(rng.choice(W.zero_vars)))
        terms[s] = ex.add(terms.get(s, ex.ZERO), coeff)
    return wp.wpoly(pvars, terms)
