import gc
import itertools
import math
import random
import re
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from weightings import cli
from weightings import expr as ex
from weightings import jets as jt
from weightings import subbundle as sb
from weightings import wpoly as wp
from weightings.expr import ONE, ZERO, parse_expr, var
from weightings.fields import (coordinate_field, vf_filtration_degree,
                               vf_for_weights)
from weightings.jets import jet_point, jp_mul, jp_scale, jp_slot
from weightings.subbundle import (FILTRATION_MISMATCH, FLAG_INVALID,
                                  LAMBDA_INVARIANCE, UNDECIDED,
                                  adapted_coordinates, apply_diffop,
                                  check_weighting, coefficient_q_weight,
                                  derive_weights, diffop, frame,
                                  graph_subbundle, induced_filtration_degree,
                                  k_membership, normal_order, q_membership,
                                  quotient_to_normal, standard_q,
                                  substitute_graph, verify_adapted)
from weightings.weights import weight_sequence, weighted_degree

from conftest import (coordinate_graph, rand_poly_expr, rand_rational,
                      rand_weight_sequence)


def _flag_gap_graph():
    # order 2 over the x1-axis: level-0 of x1 free, level-1 constrained
    return graph_subbundle(("x1", "x2"), 2, {(1, 0): jt.JP_ZERO,
                                             (0, 1): jt.JP_ZERO,
                                             (1, 1): jt.JP_ZERO})


def _antisymmetric_graph():
    relation = jt.jp_add(jp_mul(jp_slot(0, 1), jp_slot(1, 2)),
                         jp_scale(jp_mul(jp_slot(0, 2), jp_slot(1, 1)), -1))
    constraints = {(0, 0): jt.JP_ZERO, (1, 0): jt.JP_ZERO, (2, 0): jt.JP_ZERO,
                   (2, 1): jt.JP_ZERO, (2, 2): jt.JP_ZERO, (2, 3): relation}
    return graph_subbundle(("x1", "x2", "x3"), 4, constraints)


def _sheared_graph():
    # weights (1, 3) written in coordinates where the weight-3 function is
    # x2 - x1^2: the level-2 slot picks up a quadratic right-hand side
    return coordinate_graph({"x1": 1, "x2": 3}, 3, {"x2": parse_expr("x1^2")})


def test_coordinate_graph_solves_a_quadratic_shear():
    assert _sheared_graph().constraint_map() == {
        (0, 0): jt.JP_ZERO, (1, 0): jt.JP_ZERO, (1, 1): jt.JP_ZERO,
        (1, 2): jp_mul(jp_slot(0, 1), jp_slot(0, 1))}


def test_standard_q_patterns():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    Q = standard_q(W)
    assert Q.constrained_labels() == {(0, 0), (1, 0), (1, 1)}
    assert Q.dim == sum(W.counts)
    trivial = standard_q(weight_sequence({"x": 0, "y": 1, "z": 1}, 1))
    assert trivial.constrained_labels() == {(1, 0), (2, 0)}
    none = standard_q(weight_sequence({"x": 0, "y": 0}, 1))
    assert none.constraints == ()


@pytest.mark.parametrize("rhs", [
    jp_slot(5, 1),
    jp_slot(-1, 1),
    # degree 1, but it reads the top slot x.2
    jp_mul(jp_slot(0, -1), jp_slot(0, 2)),
], ids=["no-such-variable", "negative-variable", "negative-level"])
def test_graph_subbundle_rejects_slots_outside_the_chart(rhs):
    with pytest.raises(ValueError, match="outside the chart"):
        graph_subbundle(("x", "y"), 2, {(0, 0): jt.JP_ZERO,
                                        (1, 0): jt.JP_ZERO, (1, 1): rhs})


def test_graph_subbundle_rejects_a_negative_order():
    with pytest.raises(ValueError, match="^order -1 is negative$"):
        graph_subbundle(("x",), -1, {})


def test_graph_subbundle_rejects_duplicate_names():
    # refused at construction, so no verdict is read off a shared name
    with pytest.raises(ValueError, match="duplicate variable names"):
        graph_subbundle(("x", "x"), 3, {(0, 0): jt.JP_ZERO, (0, 1): jt.JP_ZERO,
                                        (0, 2): jp_mul(jp_slot(1, 1),
                                                       jp_slot(1, 1))})


def test_q_membership():
    W = weight_sequence({"x1": 1, "x2": 2}, 2)
    Q = standard_q(W)
    good = jet_point(("x1", "x2"), [(0, 5, 1), (0, 0, 7)])
    bad = jet_point(("x1", "x2"), [(0, 5, 1), (0, 1, 7)])
    assert q_membership(Q, good)
    assert not q_membership(Q, bad)


def test_q_membership_on_relation_graph():
    Q = _antisymmetric_graph()
    rows = [[0, 2, 3, 1, 0], [0, 5, 1, 0, 0], [0, 0, 0, 2 * 1 - 3 * 5, 4]]
    assert q_membership(Q, jet_point(Q.vars, rows))
    rows[2][3] += 1
    assert not q_membership(Q, jet_point(Q.vars, rows))


def test_induced_filtration_degree():
    Q = _antisymmetric_graph()
    assert induced_filtration_degree(Q, var("x3")) == 3
    assert induced_filtration_degree(Q, var("x1")) == 1
    assert induced_filtration_degree(Q, parse_expr("1")) == 0
    W = weight_sequence({"x": 1, "y": 2, "z": 3}, 3)
    Qs = standard_q(W)
    for name in W.vars:
        assert induced_filtration_degree(Qs, var(name)) == W.weight_of(name)


def test_induced_filtration_degree_stops_at_its_answer():
    # At order 200 the series of x1^5 through every level has millions of
    # terms; up to level 5 it has a handful.
    Q = graph_subbundle(("x1", "x2"), 200, {(0, 0): jt.JP_ZERO,
                                            (1, 0): jt.JP_ZERO,
                                            (1, 1): jp_slot(0, 1)})
    for f, degree in [("x1^5", 5), ("x2^3 + x1", 1), ("x1^2*x2^2", 4),
                      ("x1 - x1", 201)]:
        assert induced_filtration_degree(Q, parse_expr(f)) == degree


def test_derive_weights_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        W = rand_weight_sequence(rng, max_n=4, max_order=4)
        assert derive_weights(standard_q(W)).as_dict() == W.as_dict()


def test_derive_weights_flag_errors():
    with pytest.raises(ValueError, match="base tangent"):
        derive_weights(_flag_gap_graph())
    gap = graph_subbundle(("x",), 3, {(0, 0): jt.JP_ZERO, (0, 2): jt.JP_ZERO})
    with pytest.raises(ValueError, match="not monotone"):
        derive_weights(gap)


def test_derive_weights_reads_slot_pattern():
    # the counterexample graph has free slots only from level 4 for x3
    assert derive_weights(_antisymmetric_graph()).as_dict() == \
        {"x1": 1, "x2": 1, "x3": 4}
    assert derive_weights(_sheared_graph()).as_dict() == {"x1": 1, "x2": 3}


def test_k_membership_examples():
    W = weight_sequence({"x1": 1, "x2": 2}, 2)
    Q = standard_q(W)
    shear = vf_for_weights(W, [ZERO, parse_expr("x1")])
    lower = vf_for_weights(W, [ZERO, ONE])
    assert k_membership(Q, shear, 1)
    assert not k_membership(Q, lower, 1)
    assert k_membership(Q, lower, 2)


def test_k_membership_matches_filtration_degree():
    for weights in [(1, 2), (1, 1, 2), (1, 2, 3), (2, 2)]:
        r = max(weights)
        names = tuple(f"x{i + 1}" for i in range(len(weights)))
        W = weight_sequence(dict(zip(names, weights)), r)
        Q = standard_q(W)
        monomials = [s for s in itertools.product(range(3), repeat=len(weights))
                     if sum(s) <= 3]
        for s in monomials:
            for a, name in enumerate(names):
                coeffs = [ZERO] * len(weights)
                coeffs[a] = wp.to_expr(wp.wpoly(
                    W.positive_vars, {s: ONE}))
                X = vf_for_weights(W, coeffs)
                degree = vf_filtration_degree(X, W)
                for i in range(r + 1):
                    assert k_membership(Q, X, i) == (degree >= -i), \
                        (weights, s, a, i)


def test_lambda_invariance_of_standard_graphs():
    rng = random.Random(11)
    for _ in range(50):
        W = rand_weight_sequence(rng, max_n=3, max_order=3)
        Q = standard_q(W)
        rows = []
        for a in range(W.n):
            rows.append([Fraction(0) if (a, j) in Q.constrained_labels()
                         else rand_rational(rng) for j in range(W.order + 1)])
        u = jet_point(W.vars, rows)
        psi = jt.reparam([rand_rational(rng) for _ in range(W.order)])
        assert q_membership(Q, jt.reparametrize(u, psi))


def test_graded_product_law_on_graph():
    rng = random.Random(13)
    for _ in range(25):
        W = rand_weight_sequence(rng, max_n=2, max_order=3)
        Q = standard_q(W)
        f = rand_poly_expr(rng, W.vars, max_degree=2, max_terms=2)
        g = rand_poly_expr(rng, W.vars, max_degree=2, max_terms=2)
        i = induced_filtration_degree(Q, f)
        j = induced_filtration_degree(Q, g)
        if i + j > W.order:
            continue
        lhs = substitute_graph(Q, jt.jet_lift(ex.mul(f, g), i + j,
                                              W.order, W.vars))
        rhs = jp_mul(substitute_graph(Q, jt.jet_lift(f, i, W.order, W.vars)),
                     substitute_graph(Q, jt.jet_lift(g, j, W.order, W.vars)))
        assert lhs == rhs


def test_check_weighting_accepts_standard():
    rng = random.Random(17)
    for _ in range(20):
        W = rand_weight_sequence(rng, max_n=4, max_order=4)
        verdict = check_weighting(standard_q(W))
        assert verdict.accepted
        assert verdict.weights.as_dict() == W.as_dict()


def test_check_weighting_rejects_flag_gap():
    verdict = check_weighting(_flag_gap_graph())
    assert not verdict.accepted
    assert verdict.reason == FLAG_INVALID


def test_check_weighting_rejects_antisymmetric_relation():
    verdict = check_weighting(_antisymmetric_graph())
    assert not verdict.accepted
    assert verdict.reason == FILTRATION_MISMATCH
    assert "x3" in verdict.witness and "3" in verdict.witness
    assert verdict.details == {"reconstructed_dim": 10, "graph_dim": 9}


def test_check_weighting_accepts_sheared_presentation():
    verdict = check_weighting(_sheared_graph())
    assert verdict.accepted
    assert verdict.weights.as_dict() == {"x1": 1, "x2": 3}


def test_check_weighting_accepts_linear_shear():
    Q = graph_subbundle(("x1", "x2"), 2, {(0, 0): jt.JP_ZERO,
                                          (1, 0): jt.JP_ZERO,
                                          (1, 1): jp_slot(0, 1)})
    verdict = check_weighting(Q)
    assert verdict.accepted
    assert verdict.weights.as_dict() == {"x1": 1, "x2": 2}


def test_check_weighting_rejects_level_shift():
    # tying the level-2 slot of a weight-3 variable to the level-2 slot of a
    # weight-1 variable is not reparametrization invariant
    Q = graph_subbundle(("x1", "x2"), 3, {(0, 0): jt.JP_ZERO,
                                          (1, 0): jt.JP_ZERO,
                                          (1, 1): jt.JP_ZERO,
                                          (1, 2): jp_slot(0, 2)})
    verdict = check_weighting(Q)
    assert not verdict.accepted
    assert verdict.reason == LAMBDA_INVARIANCE


def test_check_weighting_undecided_on_weight0_rhs():
    g = jp_mul(jp_slot(0, 0), jp_slot(1, 1))
    Q = graph_subbundle(("x0", "x1", "x2"), 2, {(1, 0): jt.JP_ZERO,
                                                (2, 0): jt.JP_ZERO,
                                                (2, 1): g})
    verdict = check_weighting(Q)
    assert not verdict.accepted
    assert verdict.reason == UNDECIDED


def _full_order_lambda_witness(Q):
    """Reference N3: the reparametrization series run up to the order r."""
    r = Q.order
    cmap = Q.constraint_map()
    rows = [[cmap.get((a, j), jt.jp_slot(a, j)) for j in range(r + 1)]
            for a in range(Q.n)]
    psi = [jt.jp_slot(-1, m) for m in range(1, r + 1)]
    new_vals = jt.jp_reparametrize(rows, psi)
    free_map = {(b, k): new_vals[b][k] for (b, k) in Q.free_labels()}
    for (a, j), g in Q.constraints:
        if new_vals[a][j] != jt.jp_substitute(g, free_map):
            return (f"slot {Q.vars[a]}.{j} moves off the graph under a generic "
                    f"reparametrization")
    return None


def _random_homogeneous(rng, level, free):
    """A few random monomials of degree `level` in the free slots, some of
    them times a free level-0 slot (a weight-0 variable)."""
    base = [label for label in free if label[1] == 0]
    g = jt.JP_ZERO
    for _ in range(rng.randint(1, 3)):
        term, left = jt.jp_const(rand_rational(rng, zero_ok=False)), level
        while left:
            options = [s for s in free if 0 < s[1] <= left]
            if not options:
                return g
            label = rng.choice(options)
            term, left = jp_mul(term, jp_slot(*label)), left - label[1]
        if base and rng.random() < 0.3:
            term = jp_mul(term, jp_slot(*rng.choice(base)))
        g = jt.jp_add(g, term)
    return g


def _random_solved_graph(rng):
    """A solved-form graph over a prefix pattern, orders 2-8: a shear of the
    standard graph (a weighting), random homogeneous right-hand sides in the
    free slots, and on some graphs an antisymmetric relation x.1*y.2 -
    x.2*y.1 of two weight-1 variables at level 3 (invariant, no weighting)."""
    order = rng.randint(2, 8)
    if rng.random() < 0.2:
        order = max(order, 4)
        weights = rng.sample([1, 1, rng.randint(4, order)], 3)
    else:
        weights = [min(order, rng.choice([0, 1, 1, 2, 2, 3, 3, 4,
                                          rng.randint(0, order)]))
                   for _ in range(rng.randint(1, 3))]
    n = len(weights)
    names = tuple(f"x{a + 1}" for a in range(n))
    shears, sheared = {}, set()
    for a in sorted(range(n), key=lambda a: weights[a]):
        # u_a = x_a - G_a with G_a in unsheared variables of lower weight; a
        # G_a of weighted degree w_a leaves the graph standard
        lower = [b for b in range(n) if 0 < weights[b] < weights[a]
                 and b not in sheared]
        if not lower:
            continue
        factors = [rng.choice(lower) for _ in range(rng.randint(1, 3))]
        degree = sum(weights[b] for b in factors)
        if degree > weights[a]:
            continue
        shears[names[a]] = ex.mul(ex.const(rand_rational(rng, zero_ok=False)),
                                  *[var(names[b]) for b in factors])
        if degree < weights[a]:
            sheared.add(a)
    Q = coordinate_graph(dict(zip(names, weights)), order, shears)
    constraints, free = Q.constraint_map(), Q.free_labels()
    noisy = rng.random() < 0.6
    for (a, j) in constraints:
        if j and rng.random() < (0.6 if noisy else 0.1):
            constraints[(a, j)] = jt.jp_add(
                constraints[(a, j)], _random_homogeneous(rng, j, free))
    ones = [b for b in range(n) if weights[b] == 1]
    tops = [a for a in range(n) if weights[a] >= 4]
    if len(ones) >= 2 and tops and rng.random() < 0.7:
        b, c = rng.sample(ones, 2)
        wedge = jt.jp_add(jp_mul(jp_slot(b, 1), jp_slot(c, 2)),
                          jp_scale(jp_mul(jp_slot(b, 2), jp_slot(c, 1)), -1))
        a = rng.choice(tops)
        constraints[(a, 3)] = jt.jp_add(
            constraints[(a, 3)], jp_scale(wedge, rand_rational(rng, False)))
    return graph_subbundle(names, order, constraints)


def test_lambda_invariance_names_exactly_the_rejections_the_full_series_find():
    # N3 runs only on rejection and stops its series at the highest
    # constrained level; the verdict says LAMBDA_INVARIANCE, with the same
    # witness, exactly when the reparametrization run to the order r fails.
    rng = random.Random(61)
    reasons = []
    for _ in range(300):
        Q = _random_solved_graph(rng)
        verdict = check_weighting(Q)
        expected = _full_order_lambda_witness(Q)
        assert (verdict.reason == LAMBDA_INVARIANCE) == (expected is not None)
        if expected is not None:
            assert verdict.witness == expected
        reasons.append(verdict.reason)
    assert reasons.count(None) >= 100
    assert reasons.count(LAMBDA_INVARIANCE) >= 50
    assert reasons.count(FILTRATION_MISMATCH) >= 5
    assert reasons.count(UNDECIDED) >= 3


def test_reconstructed_dimension_matches_the_induced_degrees_of_the_lifts():
    rng = random.Random(71)
    for _ in range(320):
        Q = _random_solved_graph(rng)
        induced = [induced_filtration_degree(Q, var(v)) for v in Q.vars]
        expected = Q.n * (Q.order + 1) - sum(min(d, Q.order + 1)
                                             for d in induced)
        assert sb._reconstructed_dimension(Q) == expected


def _chain_graph(rng):
    """The graph of u_a = x_a - G_a: each G_a is an integer combination of
    monomials of x-weighted degree 1 to 6 in every variable of lower weight,
    sheared ones and weight-0 ones included."""
    weights = sorted(rng.choice([0, 1, 1, 2, 3, 4, 5, 6]) for _ in range(3))
    weights[-1] = max(weights[-1], 2)
    names = tuple(f"x{a + 1}" for a in range(len(weights)))
    order = weights[-1] + rng.randint(0, 1)
    shears = {}
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
        shears[names[a]] = ex.add(*terms, ZERO)
    return coordinate_graph(dict(zip(names, weights)), order, shears)


def test_n4_verdicts_on_generated_graphs(monkeypatch):
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
        verdict = check_weighting(Q)
        if verdict.accepted:  # the graph is the standard one of u: N3 holds
            assert sb._lambda_invariance_witness(Q) is None, k
            assert verdict.weights == derive_weights(Q), k
        reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
    for reason in (None, FILTRATION_MISMATCH, LAMBDA_INVARIANCE, UNDECIDED):
        assert reasons.get(reason, 0) >= 5
    # chain graphs are judged by their answer by construction: a weighting
    # with the generating weights (x_a is constrained below w_a).  The one
    # abstention is the weight-0 UNDECIDED, at the first constraint whose
    # right-hand side reads a weight-0 slot, where a weight-0 factor of a
    # G_a survives on the graph.
    rng = random.Random(1601)
    outcomes = {True: 0, False: 0}
    for k in range(600):
        Q = _chain_graph(rng)
        weights = [sum(b == a for (b, _j), _g in Q.constraints)
                   for a in range(Q.n)]
        verdict = check_weighting(Q)
        weight0 = sorted((j, a) for (a, j), g in Q.constraints
                         if any(weights[b] == 0 for b, _k in jt.jp_labels(g)))
        if weight0:
            j, a = weight0[0]
            assert (verdict.reason, verdict.witness) == (
                UNDECIDED, f"constraint at {Q.vars[a]}.{j} depends on "
                           f"weight-0 slots beyond the rational ansatz"), k
        else:
            assert verdict.accepted, (k, str(verdict))
            assert verdict.weights.weights == tuple(weights), k
        outcomes[not weight0] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 20, outcomes
    assert sum(k >= 2 for k in residual_counts) >= 100, residual_counts


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


def test_eliminate_solves_every_right_hand_side_it_can():
    # Against the definitions: the pivots are the columns independent of
    # those before them (sympy's reduced row echelon form), a consistent
    # right-hand side b gets an x with A x = b, and an inconsistent one has
    # rank [A | b] > rank A.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def exact(rows, ncols):
        return DomainMatrix(rows, (len(rows), ncols), sympy.ZZ)

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
        assert tuple(pivots) == exact(A, ncols).rref()[1], k
        for i, b in enumerate(rhs):
            column = ncols + i
            if any(row[column] for row in rows[rank:]):
                assert exact([row + [v] for row, v in zip(A, b)],
                             ncols + 1).rank() == rank + 1, k
                seen["inconsistent"] += 1
                continue
            x = [Fraction(0)] * ncols
            for row, p in zip(rows, pivots):
                x[p] = Fraction(row[column], d)
            assert [sum(a * v for a, v in zip(row, x)) for row in A] == b, k
            seen["consistent"] += 1
        seen["rank_deficient"] += rank < ncols
        seen["zero_row"] += any(not any(row) for row in A)
        seen["several"] += len(rhs) > 1
    assert min(seen.values()) >= 500, seen


def _lift_then_substitute_degree(Q, f):
    """Largest i <= r+1 with all lower lifts of f vanishing on the graph."""
    r = Q.order
    for j in range(r + 1):
        lifted = jt.jet_lift(f, j, r, Q.vars)
        if not substitute_graph(Q, lifted).is_zero:
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
            assert fields.seal(levels[j], den) == substitute_graph(
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
        degrees.append(induced_filtration_degree(Q, f))
        assert degrees[-1] == _lift_then_substitute_degree(Q, f), \
            (Q, ex.to_text(f))
    assert len(set(degrees)) >= 5 and degrees.count(0) <= 200
    Q = _random_solved_graph(rng)
    for f in (ex.app("sin", ex.var(Q.vars[0])), ex.var("nowhere")):
        with pytest.raises(ValueError) as expected:
            _lift_then_substitute_degree(Q, f)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            induced_filtration_degree(Q, f)


def test_accepted_graphs_never_run_lambda_invariance(monkeypatch, capsys):
    # An N4 acceptance is the standard subbundle of its coordinates, so the
    # reparametrization check only ever names a rejection.
    def unreachable(Q):
        raise AssertionError("N3 ran on an accepted graph")

    monkeypatch.setattr(sb, "_lambda_invariance_witness", unreachable)
    rng = random.Random(67)
    for _ in range(20):
        W = rand_weight_sequence(rng, max_n=4, max_order=6, min_weight=0)
        assert check_weighting(standard_q(W)).weights == W
    path = Path(__file__).resolve().parent / "golden" / "sheared_graph.prob"
    assert cli.main(["check-q", "--file", str(path)]) == 0
    assert capsys.readouterr().out == "accepted: weights x1=1,x2=3,x3=4\n"


def _random_shear(rng, chain=False):
    """Weights W and shears G of coordinates u_a = x_a - G_a, triangular by
    weight: each G_a is a polynomial of weighted degree at most w_a in
    variables of smaller positive weight, unsheared ones only (x_b = u_b in
    G_a) unless chain."""
    weights = sorted(rng.randint(0, 4) for _ in range(rng.randint(2, 4)))
    W = weight_sequence([(f"x{a + 1}", w) for a, w in enumerate(weights)],
                        max(1, weights[-1]) + rng.randint(0, 1))
    shears = [ZERO] * W.n
    for a, wa in enumerate(weights):
        lower = [b for b in range(a) if 0 < weights[b] < wa
                 and (chain or shears[b] == ZERO)]
        if not lower or rng.random() < 0.2:
            continue
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = [rng.choice(lower) for _ in range(rng.randint(1, 3))]
            if sum(weights[b] for b in factors) <= wa:
                terms.append(ex.mul(ex.const(rand_rational(rng, zero_ok=False)),
                                    *[var(W.vars[b]) for b in factors]))
        shears[a] = ex.add(*terms, ZERO)
    return W, shears


def _shear_draws(rng, chain, count):
    """count draws of _random_shear; with chain, only those in which a
    shear reads a sheared variable."""
    while count:
        W, shears = _random_shear(rng, chain)
        sheared = {W.vars[b] for b, G in enumerate(shears) if G != ZERO}
        if not chain or any(ex.variables(G) & sheared for G in shears):
            count -= 1
            yield W, shears


def _dx_du(W, shears):
    """[c][a] -> dx_c/du_a of the inverse of u = x - G, a polynomial in x.

    From x_c = u_c + G_c(x), dx_c/du_a = delta_ca + sum_b (dG_c/dx_b)
    dx_b/du_a over the x_b of lower weight that G_c reads, so row c needs
    only the rows before it.
    """
    rows = []
    for c, G in enumerate(shears):
        rows.append([ex.add(ONE if c == a else ZERO,
                            *[ex.mul(ex.differentiate(G, W.vars[b]),
                                     rows[b][a]) for b in range(c)])
                     for a in range(W.n)])
    return rows


@pytest.mark.parametrize("chain, seed", [(False, 41), (True, 43)],
                         ids=["plain", "chain"])
def test_generating_frame_of_a_shear_spans_its_graph(chain, seed):
    # The spanning condition holds by the dimension count once the
    # coordinate corrections are found: d/du_a, the generating frame, is
    # tangent at level w_a to every accepted shear graph.
    sheared = plain_fails = 0
    for W, shears in _shear_draws(random.Random(seed), chain, 100):
        Q = coordinate_graph(W.as_dict(), W.order, dict(zip(W.vars, shears)))
        verdict = check_weighting(Q)
        assert verdict.accepted and verdict.weights == W, (W, shears)
        sheared += Q != standard_q(W)
        dx_du = _dx_du(W, shears)
        for a, name in enumerate(W.vars):
            # d/du_a = sum_c (dx_c/du_a) d_c
            coeffs = [dx_du[c][a] for c in range(W.n)]
            assert k_membership(Q, vf_for_weights(W, coeffs), W.weights[a]), \
                (W, shears, name)
            plain_fails += not k_membership(Q, coordinate_field(W, name),
                                            W.weights[a])
    assert sheared >= 30 and plain_fails >= 30


def test_quotient_to_normal():
    W = weight_sequence({"x1": 1, "x2": 2}, 2)
    Q = standard_q(W)
    u = jet_point(("x1", "x2"), [(0, 3, 7), (0, 0, 5)])
    assert quotient_to_normal(Q, u) == (3, 5)
    u2 = jet_point(("x1", "x2"), [(0, 3, 9), (0, 0, 5)])
    assert quotient_to_normal(Q, u2) == quotient_to_normal(Q, u)
    off = jet_point(("x1", "x2"), [(1, 3, 7), (0, 0, 5)])
    with pytest.raises(ValueError, match="does not lie"):
        quotient_to_normal(Q, off)


def test_quotient_trivial_weighting():
    W = weight_sequence({"x0": 0, "x1": 1}, 1)
    Q = standard_q(W)
    u = jet_point(("x0", "x1"), [(2, 5), (0, 3)])
    assert quotient_to_normal(Q, u) == (2, 3)


# ---------------------------------------------------------------------------
# frames, operators, adapted coordinates

def _coordinate_frame(W):
    rows = [[ONE if b == a else ZERO for b in range(W.n)]
            for a in range(W.n)]
    return frame(W, rows)


def test_normal_order_commuting():
    W = weight_sequence({"x1": 1, "x2": 2}, 2)
    fr = _coordinate_frame(W)
    D = normal_order(fr, [1, 0])
    assert D.terms == (((1, 1), ONE),)


def test_normal_order_function_push():
    W = weight_sequence({"x1": 1, "x2": 2}, 2)
    fr = _coordinate_frame(W)
    D = normal_order(fr, [0, parse_expr("x1^2")])
    assert dict(D.terms) == {(0, 0): parse_expr("2*x1"),
                             (1, 0): parse_expr("x1^2")}


def test_normal_order_single_bracket():
    # V1 = d1, V2 = d2 + x1 d3, V3 = d3: [V2, V1] = -V3
    W = weight_sequence({"x1": 1, "x2": 1, "x3": 2}, 2)
    fr = frame(W, [[ONE, ZERO, ZERO], [ZERO, ONE, parse_expr("x1")],
                   [ZERO, ZERO, ONE]])
    D = normal_order(fr, [1, 0])
    assert dict(D.terms) == {(1, 1, 0): ONE, (0, 0, 1): ex.MINUS_ONE}


def test_normal_order_matches_direct_application():
    W = weight_sequence({"x1": 1, "x2": 1, "x3": 2}, 2)
    fr = frame(W, [[ONE, ZERO, ZERO], [ZERO, ONE, parse_expr("x1")],
                   [ZERO, ZERO, ONE]])
    rng = random.Random(19)
    for _ in range(100):
        word = [rng.choice([0, 1, 2,
                            rand_poly_expr(rng, W.vars, max_degree=2,
                                           max_terms=2)])
                for _ in range(rng.randint(1, 4))]
        D = normal_order(fr, word)
        f = rand_poly_expr(rng, W.vars, max_degree=3, max_terms=3)
        direct = f
        for item in reversed(word):
            direct = fr.apply(item, direct) if isinstance(item, int) \
                else ex.mul(item, direct)
        assert ex.simplify_canonical(direct, expand_polynomials=True) == \
            ex.simplify_canonical(apply_diffop(D, f), expand_polynomials=True)


def test_coefficient_q_weight_examples():
    W = weight_sequence({"x1": 1, "x2": 2}, 2)
    fr = _coordinate_frame(W)
    assert coefficient_q_weight(diffop(fr, {(2, 1): ONE}), W) == -4
    assert coefficient_q_weight(diffop(fr, {(0, 0): parse_expr("x1^2")}), W) == 0
    assert coefficient_q_weight(diffop(fr, {(0, 1): parse_expr("x1")}), W) == -1


def test_apply_diffop_identity_and_partial():
    W = weight_sequence({"x1": 1, "x2": 2}, 2)
    fr = _coordinate_frame(W)
    f = parse_expr("x1^2")
    assert apply_diffop(diffop(fr, {(0, 0): ONE}), f) == f
    assert apply_diffop(diffop(fr, {(1, 0): ONE}), f) == parse_expr("2*x1")


def test_operator_degree_bound():
    rng = random.Random(23)
    for _ in range(200):
        W = rand_weight_sequence(rng, max_n=3, max_order=3)
        fr = _coordinate_frame(W)
        s = tuple(rng.randint(0, 2) for _ in range(W.n))
        coeff = rand_poly_expr(rng, W.vars, max_degree=2, max_terms=2)
        D = diffop(fr, {s: coeff})
        if not D.terms:
            continue
        f = rand_poly_expr(rng, W.vars, max_degree=3, max_terms=2)
        fp = wp.poly_normal_form(f, W.positive_vars)
        out = wp.poly_normal_form(apply_diffop(D, f), W.positive_vars)
        if out.is_zero:
            continue
        assert wp.filtration_degree(out, W) >= \
            wp.filtration_degree(fp, W) + coefficient_q_weight(D, W)


def test_adapted_coordinates_fixture():
    W = weight_sequence({"x1": 1, "x2": 3}, 3)
    fr = _coordinate_frame(W)
    change = adapted_coordinates(fr, [parse_expr("x1"),
                                      parse_expr("x2 + x1^2")])
    assert change.chi_map() == {(1, (2, 0)): ex.MINUS_ONE}
    assert change.normalizer_map() == {(2, 0): 2}
    assert change.x_in_y[1] == parse_expr("y2 - y1^2")
    assert change.x_in_chart == (parse_expr("x1"), parse_expr("x2"))
    assert verify_adapted(change.x_in_chart, fr)
    assert not verify_adapted([parse_expr("x1"), parse_expr("x2 + x1^2")], fr)


@pytest.mark.parametrize("y_exprs, y_names, message", [
    (["x1"], None, "expected 2 initial coordinates, got 1"),
    (["x1", "x2", "x1"], None, "expected 2 initial coordinates, got 3"),
    (["x1", "x2"], ["a"], "expected 2 coordinate names, got 1"),
    (["x1", "x2"], ["a", "b", "c"], "expected 2 coordinate names, got 3"),
], ids=["few-coordinates", "many-coordinates", "few-names", "many-names"])
def test_adapted_coordinates_needs_one_coordinate_and_name_per_variable(
        y_exprs, y_names, message):
    fr = _coordinate_frame(weight_sequence({"x1": 1, "x2": 3}, 3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        adapted_coordinates(fr, [parse_expr(y) for y in y_exprs], y_names)


def test_adapted_coordinates_already_adapted():
    W = weight_sequence({"x1": 1, "x2": 3}, 3)
    fr = _coordinate_frame(W)
    change = adapted_coordinates(fr, [parse_expr("x1"), parse_expr("x2")])
    assert change.chi == ()


def test_adapted_coordinates_trivial_weighting():
    W = weight_sequence({"x1": 1, "x2": 1}, 1)
    fr = _coordinate_frame(W)
    change = adapted_coordinates(fr, [parse_expr("x1"), parse_expr("x2")])
    assert change.chi == ()
    assert verify_adapted(change.x_in_chart, fr)


def test_verify_adapted_under_trivial_weighting_accepts_everything():
    W = weight_sequence({"x1": 1, "x2": 1}, 1)
    fr = _coordinate_frame(W)
    assert verify_adapted([parse_expr("x1 + x2^2"), parse_expr("x2")], fr)


def test_frame_rejects_noncommuting_base_fields():
    W = weight_sequence({"a": 0, "b": 0, "c": 1}, 1)
    with pytest.raises(ValueError, match="commute"):
        frame(W, [[ONE, ZERO, ZERO],
                  [parse_expr("a"), ONE, ZERO],
                  [ZERO, ZERO, ONE]])


def test_frame_rejects_singular_matrix():
    W = weight_sequence({"x1": 1, "x2": 1}, 1)
    with pytest.raises(ValueError, match="singular"):
        frame(W, [[ONE, ONE], [ONE, ONE]])
    # determinant x1^2 + x2^2: singular at the base point only
    with pytest.raises(ValueError, match="singular"):
        frame(W, [[var("x1"), var("x2")], [parse_expr("-x2"), var("x1")]])
    # determinant 1 - x1*x2: singular away from the base point only
    frame(W, [[ONE, var("x1")], [var("x2"), ONE]])
    # a weight-0 variable a: the determinant a vanishes at the base point,
    # 1 + a does not (it vanishes at a = -1 instead)
    W0 = weight_sequence({"a": 0, "x": 1}, 1)
    with pytest.raises(ValueError, match="singular"):
        frame(W0, [[var("a"), ZERO], [ZERO, ONE]])
    frame(W0, [[parse_expr("1 + a"), ZERO], [ZERO, ONE]])


def test_adapted_coordinates_with_base_coordinates():
    # a weight-0 chart direction makes the correction coefficient symbolic
    W = weight_sequence({"x0": 0, "x1": 1, "x2": 3}, 3)
    fr = _coordinate_frame(W)
    initial = [parse_expr("x0"), parse_expr("x1"),
               parse_expr("x2 + x0*x1^2")]
    change = adapted_coordinates(fr, initial)
    assert change.chi_map() == {(2, (0, 2, 0)): ex.mul(ex.MINUS_ONE,
                                                       var("x0"))}
    assert change.x_in_chart[2] == parse_expr("x2")
    assert verify_adapted(change.x_in_chart, fr)
    assert not verify_adapted(initial, fr)


def _perturbed_fixture(rng, n):
    """Random frame with admissible coefficients and correction-worthy
    initial coordinates; the base point is the origin (no weight-0 part)."""
    names = tuple(f"x{i + 1}" for i in range(n))
    weights = sorted(rng.randint(1, 3) for _ in range(n))
    W = weight_sequence(dict(zip(names, weights)), max(weights))
    rows = []
    for a in range(n):
        row = [ONE if b == a else ZERO for b in range(n)]
        for b in range(n):
            if rng.random() < 0.5:
                continue
            # coefficient of weighted degree >= max(1, w_b - w_a), vanishing at 0
            target = max(1, W.weights[b] - W.weights[a])
            mono = _monomial_of_degree(rng, W, target)
            if mono is not None:
                row[b] = ex.add(row[b], ex.mul(ex.const(rand_rational(rng)),
                                               mono))
        rows.append(row)
    fr = frame(W, rows)
    y_exprs = []
    for a in range(n):
        y = var(names[a])
        for u in _positive_multi_indices(W, W.weights[a], 2):
            if rng.random() < 0.7:
                y = ex.add(y, ex.mul(ex.const(rand_rational(rng)),
                                     wp.monomial_expr(names, u)))
        y_exprs.append(y)
    return fr, y_exprs


def _monomial_of_degree(rng, W, target):
    for _ in range(20):
        s = tuple(rng.randint(0, 2) for _ in range(W.n))
        if sum(s) >= 1 and weighted_degree(s, W.weights) >= target:
            return wp.monomial_expr(W.vars, s)
    return None


def _positive_multi_indices(W, below, min_size):
    """Every s on the positive-weight variables with s.w < below and
    |s| >= min_size, in lexicographic order."""
    k0 = W.count(0)
    ranges = [range(below // w + 1) for w in W.weights[k0:]]
    return [(0,) * k0 + s for s in itertools.product(*ranges)
            if sum(s) >= min_size
            and weighted_degree(s, W.weights[k0:]) < below]


def _inverse_change_to_order(change, W):
    """Invert x = y + corrections by fixed-point iteration, to order r."""
    n = W.n
    xs = [var(f"x{a + 1}") for a in range(n)]
    current = {name: xs[a] for a, name in enumerate(change.y_names)}
    for _ in range(W.order + 1):
        nxt = {}
        for a, name in enumerate(change.y_names):
            correction = ex.add(change.x_in_y[a],
                                ex.mul(ex.MINUS_ONE, var(name)))
            nxt[name] = ex.add(xs[a],
                               ex.mul(ex.MINUS_ONE,
                                      ex.substitute(correction, current)))
        current = nxt
    return current


def test_adapted_change_inverse_composes_to_identity():
    rng = random.Random(31)
    cases = []
    W0 = weight_sequence({"x1": 1, "x2": 3}, 3)
    cases.append((_coordinate_frame(W0),
                  [parse_expr("x1"), parse_expr("x2 + x1^2")]))
    for _ in range(3):
        cases.append(_perturbed_fixture(rng, rng.randint(2, 3)))
    for fr, y_exprs in cases:
        W = fr.W
        change = adapted_coordinates(fr, y_exprs)
        inverse = _inverse_change_to_order(change, W)
        xw = weight_sequence({f"x{a + 1}": w
                              for a, w in enumerate(W.weights)}, W.order)
        for a in range(W.n):
            composed = ex.substitute(change.x_in_y[a], inverse)
            diff = ex.add(composed, ex.mul(ex.MINUS_ONE, var(f"x{a + 1}")))
            assert wp.weighted_taylor(diff, xw, W.order).is_zero, (a, diff)


# ---------------------------------------------------------------------------
# adapted coordinates against their definition

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
    return frame(W, rows), y_exprs


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
    return frame(DENSE_WEIGHTS, rows), y_exprs


def _adaptation_cases(rng, count):
    """count frames with initial coordinates, a third each with weight-0
    heads, with positive heads and perturbed, then a tenth as many dense."""
    for i in range(count):
        kind = ("weight-0 heads", "positive heads", "perturbed")[i % 3]
        if kind == "perturbed":
            yield kind, _perturbed_fixture(rng, rng.randint(2, 3))
        else:
            yield kind, _normalized_frame(rng, heads=kind == "positive heads")
    for _ in range(count // 10):
        yield "dense", _dense_fixture(rng)


def _spoiled(rng, fr, y_exprs):
    """Initial coordinates that break a precondition: two swapped, a linear
    term with a weight-0 coefficient added, one multiplied by a function of
    a weight-0 variable, or a constant added to a positive-weight one."""
    W = fr.W
    y = list(y_exprs)
    b = rng.randrange(W.n)
    kind = rng.randrange(4)
    if kind == 0 and W.n > 1:
        c = rng.choice([c for c in range(W.n) if c != b])
        y[b], y[c] = y[c], y[b]
    elif kind == 3:
        b = rng.randrange(W.count(0), W.n)
        y[b] = ex.add(y[b], ex.const(rand_rational(rng, zero_ok=False)))
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
    s = rng.choice(_positive_multi_indices(W, W.weights[a], 0))
    x[a] = ex.add(x[a], ex.mul(_base_coefficient(rng, list(W.zero_vars)),
                               wp.monomial_expr(W.vars, s)))
    return x


def _vanishes_below_its_weight(fr, x_exprs):
    """Whether (V^s x_a) vanishes on the base for every s.w < w_a, each
    word applied to the Expr by Frame.apply_word."""
    W = fr.W
    return all(ex.expand(sb.restrict_to_base(fr.apply_word(s, x), W)) == ZERO
               for x, wa in zip(x_exprs, W.weights) if wa
               for s in _positive_multi_indices(W, wa, 0))


def _failed_precondition(fr, y_exprs):
    """The message of the first failed precondition of adapted_coordinates,
    or None: (V_a y_b) on the base is the identity matrix, then every
    positive-weight y_b vanishes on the base."""
    W = fr.W
    for a in range(W.n):
        for b, y in enumerate(y_exprs):
            value = sb.restrict_to_base(fr.apply(a, y), W)
            expected = ONE if a == b else ZERO
            if value != expected:
                return (f"(V_{a + 1} y_{b + 1}) on the base is "
                        f"{ex.to_text(value)}, expected {ex.to_text(expected)}")
    for b in range(W.count(0), W.n):
        if sb.restrict_to_base(y_exprs[b], W) != ZERO:
            return f"initial coordinate y_{b + 1} does not vanish on the base"
    return None


def test_adapted_coordinates_meet_their_definition():
    # x_a = y_a + sum chi_{a,u} y^u over |u| >= 2 and u.w < w_a, with
    # (V^s x_a) = 0 on the base for every s.w < w_a.  The conditions with
    # |s| >= 2 form a triangular system in chi with diagonal s!, so this
    # ansatz fixes chi, and the conditions with |s| <= 1 are the
    # preconditions.
    rng = random.Random(3201)
    seen = {"weight-0 heads": 0, "positive heads": 0, "perturbed": 0,
            "dense": 0, "chi": 0, "refused": 0, "unadapted": 0}
    for kind, (fr, y_exprs) in _adaptation_cases(rng, 300):
        W = fr.W
        change = adapted_coordinates(fr, y_exprs)
        k0 = W.count(0)
        assert dict(change.normalizers) == {
            s: math.prod(map(math.factorial, s))
            for s in _positive_multi_indices(W, max(W.weights), 2)}
        chi = change.chi_map()
        assert list(chi) == sorted(chi)
        for (a, u), c in chi.items():
            assert c != ZERO and not any(u[:k0]) and sum(u) >= 2
            assert weighted_degree(u, W.weights) < W.weights[a]
        names = change.y_names
        for a in range(W.n):
            assert change.x_in_y[a] == ex.add(var(names[a]), *[
                ex.mul(c, wp.monomial_expr(names, u))
                for (b, u), c in chi.items() if b == a])
            assert change.x_in_chart[a] == ex.substitute(
                change.x_in_y[a], dict(zip(names, y_exprs)))
        # the Expr words on x_in_chart with positive heads cost seconds
        if kind != "positive heads":
            assert _vanishes_below_its_weight(fr, change.x_in_chart)
        assert verify_adapted(change.x_in_chart, fr)
        for x in (y_exprs, _unadapted(rng, fr, change.x_in_chart)):
            verdict = _vanishes_below_its_weight(fr, x)
            assert verify_adapted(x, fr) == verdict
            seen["unadapted"] += not verdict
        spoiled = _spoiled(rng, fr, y_exprs)
        expected = _failed_precondition(fr, spoiled)
        if expected is None:
            adapted_coordinates(fr, spoiled)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                adapted_coordinates(fr, spoiled)
        seen[kind] += 1
        seen["chi"] += len(chi)
        seen["refused"] += expected is not None
    assert min(seen.values()) >= 15, seen


# ---------------------------------------------------------------------------
# what a Frame derives, and who keeps it

def _unipotent_frame(rng, weights):
    """Upper unitriangular frame V_a = d_a + sum_{b>a} c_ab d_b with random
    polynomials c_ab; its coefficient matrix has determinant 1."""
    names = tuple(f"x{a + 1}" for a in range(len(weights)))
    W = weight_sequence(dict(zip(names, weights)), max(weights))
    rows = []
    for a in range(W.n):
        row = [ONE if b == a else ZERO for b in range(W.n)]
        for b in range(a + 1, W.n):
            row[b] = rand_poly_expr(rng, names, max_degree=2, max_terms=2)
        rows.append(row)
    return W, rows


def _iterated_apply(fr, s, f):
    for a in reversed(range(fr.n)):
        for _ in range(s[a]):
            f = fr.apply(a, f)
    return f


def _word_frames():
    w13 = _coordinate_frame(weight_sequence({"x1": 1, "x2": 3}, 3))
    W, rows = _unipotent_frame(random.Random(53), (1, 2, 3))
    return {"adapted_w13": w13, "unipotent": frame(W, rows)}


@pytest.mark.parametrize("name", ["adapted_w13", "unipotent"])
def test_memoised_apply_word_equals_iterated_apply(name):
    fr = _word_frames()[name]
    rng = random.Random(54)
    apply_word = sb._word_applier(fr)
    functions = [rand_poly_expr(rng, fr.W.vars, max_degree=4, max_terms=3)
                 for _ in range(4)]
    for _ in range(60):
        s = [0] * fr.n
        for _ in range(rng.randint(0, 4)):
            s[rng.randrange(fr.n)] += 1
        s = tuple(s)
        f = rng.choice(functions)
        assert apply_word(s, f) == _iterated_apply(fr, s, f)


def test_normal_order_on_equal_distinct_frames():
    rng = random.Random(59)
    W, rows = _unipotent_frame(rng, (1, 2, 3))
    first, second = frame(W, rows), frame(W, rows)
    assert first == second and first is not second
    words = [[rng.choice([0, 1, 2, rand_poly_expr(rng, W.vars, max_degree=2,
                                                  max_terms=2)])
              for _ in range(rng.randint(2, 6))] for _ in range(30)]
    warm = [normal_order(first, word) for word in words]
    f = rand_poly_expr(rng, W.vars, max_degree=4, max_terms=3)
    for word, expected in zip(reversed(words), reversed(warm)):
        got = normal_order(second, word)
        assert got.terms == expected.terms
        assert got == expected
        direct = f
        for item in reversed(word):
            direct = second.apply(item, direct) if isinstance(item, int) \
                else ex.mul(item, direct)
        assert ex.simplify_canonical(direct, expand_polynomials=True) == \
            ex.simplify_canonical(apply_diffop(got, f), expand_polynomials=True)


def test_frame_used_by_normal_order_is_collected():
    rng = random.Random(61)
    W, rows = _unipotent_frame(rng, (1, 2, 3))
    fr = frame(W, rows)
    D = normal_order(fr, [2, 1, parse_expr("x1 + x2"), 0, 2])
    assert D.terms
    ref = weakref.ref(fr)
    del fr, D
    gc.collect()
    assert ref() is None


def test_graph_messages_name_slots_by_variable():
    x2 = jt.jetpoly({(((0, 2), 1),): 1})
    with pytest.raises(ValueError, match=r"^right-hand side for slot y\.1 "
                                         r"is not homogeneous of degree 1$"):
        graph_subbundle(("x", "y"), 2, {(1, 1): x2})
    with pytest.raises(ValueError, match=r"^right-hand side for slot y\.2 "
                                         r"uses constrained slot x\.1$"):
        graph_subbundle(("x", "y"), 2, {(0, 1): jt.JP_ZERO,
                                        (1, 2): jp_slot(0, 1) * jp_slot(0, 1)})
    with pytest.raises(ValueError, match="^empty variable name$"):
        graph_subbundle(("x", ""), 2, {})


def _clash_frame(zero_name="s"):
    W = weight_sequence([(zero_name, 0), ("x", 1), ("y", 3)], 3)
    return frame(W, [[ONE if b == a else ZERO for b in range(3)]
                     for a in range(3)])


@pytest.mark.parametrize("zero_name, coords, names, clash", [
    # a weight-0 variable of W
    ("s", ["s", "x", "y + s*x^2"], ["x", "s", "y"], "s"),
    # the default names y1..yn against a weight-0 variable
    ("y2", ["y2", "x", "y + y2*x^2"], None, "y2"),
    # a symbol of the initial coordinates outside W
    ("s", ["s", "x", "y + c*x^2"], ["c", "b", "a"], "c"),
])
def test_adapted_coordinates_refuse_a_name_that_reads_as_a_symbol(
        zero_name, coords, names, clash):
    fr = _clash_frame(zero_name)
    with pytest.raises(ValueError, match=(
            f"^coordinate name '{clash}' is a weight-0 variable or a "
            f"symbol outside the weighting$")):
        adapted_coordinates(fr, [parse_expr(c) for c in coords], names)
    # positive-weight names and fresh names are fine
    change = adapted_coordinates(fr, [parse_expr(c) for c in coords],
                                 ["x", "p", "q"] if clash == "c" else
                                 ["a", "x", "y"])
    assert change.y_names in (("x", "p", "q"), ("a", "x", "y"))


def test_adapted_coordinates_refuse_repeated_names():
    fr = _clash_frame()
    coords = [parse_expr(c) for c in ("s", "x", "y + s*x^2")]
    with pytest.raises(ValueError, match="^duplicate variable names$"):
        adapted_coordinates(fr, coords, ["a", "b", "a"])


def test_adapted_coordinates_refuse_a_name_of_a_frame_symbol():
    W = weight_sequence([("s", 0), ("x", 1), ("y", 3)], 3)
    fr = frame(W, [[ONE, ZERO, parse_expr("k*x")], [ZERO, ONE, ZERO],
                   [ZERO, ZERO, ONE]])
    coords = [parse_expr(c) for c in ("s", "x", "y + x^2")]
    with pytest.raises(ValueError, match="^coordinate name 'k' is"):
        adapted_coordinates(fr, coords, ["k", "b", "c"])
    assert adapted_coordinates(fr, coords, ["a", "b", "c"]).y_names == \
        ("a", "b", "c")
