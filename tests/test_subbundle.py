import gc
import itertools
import random
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

from conftest import rand_poly_expr, rand_rational, rand_weight_sequence


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
    g22 = jp_mul(jp_slot(0, 1), jp_slot(0, 1))
    return graph_subbundle(("x1", "x2"), 3, {(0, 0): jt.JP_ZERO,
                                             (1, 0): jt.JP_ZERO,
                                             (1, 1): jt.JP_ZERO,
                                             (1, 2): g22})


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
    constraints = {(a, j): jt.JP_ZERO for a in range(n)
                   for j in range(weights[a])}
    standard = graph_subbundle(names, order, constraints)
    free = standard.free_labels()
    for a in sorted(range(n), key=lambda a: weights[a]):
        # u_a = x_a - G_a with G_a in unsheared variables of lower weight
        lower = [b for b in range(n) if 0 < weights[b] < weights[a]
                 and all(constraints[(b, j)].is_zero
                         for j in range(weights[b]))]
        if not lower:
            continue
        factors = [rng.choice(lower) for _ in range(rng.randint(1, 3))]
        if sum(weights[b] for b in factors) > weights[a]:
            continue
        G = ex.mul(ex.const(rand_rational(rng, zero_ok=False)),
                   *[var(names[b]) for b in factors])
        for j in range(weights[a]):
            constraints[(a, j)] = substitute_graph(
                standard, jt.jet_lift(G, j, order, names))
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


def _graph_of_shear(W, shears):
    """The subbundle u_a^(j) = 0 (j < w_a), solved for the x-slots in weight
    order: x_a^(j) = G_a^(j) with the x_b-slots solved before it put in."""
    constraints = {}
    for a in range(W.n):
        for j in range(W.weights[a]):
            constraints[(a, j)] = jt.jp_substitute(
                jt.jet_lift(shears[a], j, W.order, W.vars), constraints)
    return graph_subbundle(W.vars, W.order, constraints)


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
        Q = _graph_of_shear(W, shears)
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
        for u in _correction_monomials(W, W.weights[a]):
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


def _correction_monomials(W, below):
    out = []
    def walk(prefix, a, total, size):
        if a == W.n:
            if size >= 2:
                out.append(tuple(prefix))
            return
        s = 0
        while total + s * W.weights[a] < below:
            walk(prefix + [s], a + 1, total + s * W.weights[a], size + s)
            s += 1
    walk([], 0, 0, 0)
    return out


def test_adapted_coordinates_perturbed_fixtures():
    rng = random.Random(29)
    done = 0
    while done < 10:
        fr, y_exprs = _perturbed_fixture(rng, rng.randint(2, 3))
        change = adapted_coordinates(fr, y_exprs)
        assert verify_adapted(change.x_in_chart, fr), (fr, y_exprs)
        done += 1


def test_verify_adapted_counterexample():
    W = weight_sequence({"x1": 1, "x2": 3}, 3)
    fr = _coordinate_frame(W)
    assert not verify_adapted([parse_expr("x1"), parse_expr("x2 + x1^2")], fr)


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
