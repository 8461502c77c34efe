"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the criterion lines.
All checks are exact (rational arithmetic) except the numeric estimator,
whose tolerance is 0.05 as stated.
"""

import random
import time
from fractions import Fraction

from weightings import expr as ex
from weightings import jets as jt
from weightings import wpoly as wp
from weightings.expr import ONE, ZERO, parse_expr, var
from weightings.fields import (euler_field, lie_bracket, nilpotent_frames,
                               vf_for_weights)
from weightings.jets import (JP_ZERO, evaluate_jet, jet_bracket, jet_lift,
                             jet_point, jp_add, jp_evaluate, jp_mul, jp_scale,
                             jp_slot, vf_lift)
from weightings.spaces import (blowup_chart, blowup_lift_vf, coordinate_change,
                               def_interpolant, deformation_names,
                               nu_transition, scaling_order_estimate,
                               theta_field)
from weightings.subbundle import (FILTRATION_MISMATCH, FLAG_INVALID,
                                  adapted_coordinates, apply_diffop,
                                  check_weighting, coefficient_q_weight,
                                  diffop, frame, standard_q, verify_adapted)
from weightings.weights import ideal_generators, weight_sequence

from conftest import (check_nilpotent_algebras, fixture_graph, perturbed_fixture,
                      rand_poly_expr, rand_rational, rand_weight_sequence,
                      rand_wpoly)


def _report(number: int, description: str, check) -> None:
    try:
        check()
    except AssertionError:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


def test_criterion_01_intro_generator_set():
    def check():
        W = weight_sequence({"x": 1, "y": 2, "z": 3}, 3)
        got = ideal_generators(W, 4)
        expected = {(4, 0, 0), (2, 1, 0), (1, 0, 1),
                    (0, 1, 1), (0, 2, 0), (0, 0, 2)}
        assert got == expected

    _report(1, "degree-4 generator set for weights (1,2,3)", check)


def _expr_to_slot0(f: ex.Expr, names) -> jt.JetPoly:
    """Independent conversion of a polynomial to level-0 slot variables."""
    poly = wp.poly_normal_form(f, names)
    terms = {}
    for s, c in poly.terms:
        assert isinstance(c, ex.Const)
        mono = tuple(((a, 0), e) for a, e in enumerate(s) if e)
        terms[mono] = c.value
    return jt.jetpoly(terms)


def _displayed_lift_formulas(f: ex.Expr, names) -> dict[int, jt.JetPoly]:
    """The low-degree lift formulas assembled from symbolic partials."""
    n = len(names)
    d1 = [ex.differentiate(f, v) for v in names]
    d2 = [[ex.differentiate(d1[a], v) for v in names] for a in range(n)]
    d3 = [[[ex.differentiate(d2[a][b], v) for v in names]
           for b in range(n)] for a in range(n)]
    out = {}
    f1 = JP_ZERO
    for a in range(n):
        f1 = jp_add(f1, jp_mul(_expr_to_slot0(d1[a], names), jp_slot(a, 1)))
    out[1] = f1
    f2 = JP_ZERO
    for a in range(n):
        f2 = jp_add(f2, jp_mul(_expr_to_slot0(d1[a], names), jp_slot(a, 2)))
    for a1 in range(n):
        for a2 in range(n):
            f2 = jp_add(f2, jp_scale(
                jp_mul(jp_mul(_expr_to_slot0(d2[a1][a2], names),
                              jp_slot(a1, 1)), jp_slot(a2, 1)),
                Fraction(1, 2)))
    out[2] = f2
    f3 = JP_ZERO
    for a in range(n):
        f3 = jp_add(f3, jp_mul(_expr_to_slot0(d1[a], names), jp_slot(a, 3)))
    for a1 in range(n):
        for a2 in range(n):
            f3 = jp_add(f3, jp_mul(
                jp_mul(_expr_to_slot0(d2[a1][a2], names), jp_slot(a1, 2)),
                jp_slot(a2, 1)))
    for a1 in range(n):
        for a2 in range(n):
            for a3 in range(n):
                f3 = jp_add(f3, jp_scale(
                    jp_mul(jp_mul(jp_mul(_expr_to_slot0(d3[a1][a2][a3], names),
                                         jp_slot(a1, 1)), jp_slot(a2, 1)),
                           jp_slot(a3, 1)),
                    Fraction(1, 6)))
    out[3] = f3
    return out


def test_criterion_02_jet_lift_formulas():
    def check():
        rng = random.Random(202)
        names = ("x1", "x2", "x3")
        for trial in range(100):
            f = rand_poly_expr(rng, names, max_degree=4, max_terms=3)
            displayed = _displayed_lift_formulas(f, names)
            for i in (1, 2, 3):
                assert jet_lift(f, i, 3, names) == displayed[i], (trial, i)
        for _ in range(20):
            f = rand_poly_expr(rng, names, max_degree=4, max_terms=3)
            u = jet_point(names, [[rand_rational(rng) for _ in range(4)]
                                  for _ in names])
            series = evaluate_jet(f, u)
            values = u.slot_map()
            for i in range(4):
                assert series.coeffs[i] == jp_evaluate(
                    jet_lift(f, i, 3, names), values)

    _report(2, "jet lifts match the displayed formulas and the jet oracle",
            check)


def test_criterion_03_product_rule_and_bracket():
    def check():
        rng = random.Random(303)
        names = ("x1", "x2", "x3")
        for _ in range(100):
            r = rng.randint(1, 4)
            f = rand_poly_expr(rng, names, max_degree=3, max_terms=3)
            g = rand_poly_expr(rng, names, max_degree=3, max_terms=3)
            i = rng.randint(0, r)
            lhs = jet_lift(ex.mul(f, g), i, r, names)
            rhs = JP_ZERO
            for j in range(i + 1):
                rhs = jp_add(rhs, jp_mul(jet_lift(f, j, r, names),
                                         jet_lift(g, i - j, r, names)))
            assert lhs == rhs
        W = weight_sequence({n: 1 for n in names}, 1)
        for _ in range(100):
            r = rng.randint(1, 4)
            X = vf_for_weights(W, [rand_poly_expr(rng, names, max_degree=2,
                                                  max_terms=2)
                                   for _ in names])
            Y = vf_for_weights(W, [rand_poly_expr(rng, names, max_degree=2,
                                                  max_terms=2)
                                   for _ in names])
            i, j = rng.randint(0, r), rng.randint(0, r)
            lhs = jet_bracket(vf_lift(X, i, r), vf_lift(Y, j, r))
            if i + j > r:
                assert lhs.is_zero
            else:
                assert lhs == vf_lift(lie_bracket(X, Y), i + j, r)

    _report(3, "product rule and bracket relation on random instances", check)


def test_criterion_04_transition_example():
    def check():
        W = weight_sequence({"x": 0, "y": 1, "z": 3}, 3)
        phi = coordinate_change(W, W, [parse_expr("sin(x)*exp(y*z)"),
                                       parse_expr("y*exp(x*y)"),
                                       parse_expr("3*z + sin(x*y)^3")])
        assert nu_transition(phi) == (parse_expr("sin(y1)"), parse_expr("y2"),
                                      parse_expr("3*y3 + y1^3*y2^3"))

    _report(4, "graded transition of the sin/exp chart change", check)


def test_criterion_05_weighting_criterion():
    def check():
        rng = random.Random(505)
        for _ in range(20):
            W = rand_weight_sequence(rng, max_n=4, max_order=4)
            verdict = check_weighting(standard_q(W))
            assert verdict.accepted
            assert verdict.weights.as_dict() == W.as_dict()
        flag = check_weighting(fixture_graph("flag_gap.prob"))
        assert not flag.accepted and flag.reason == FLAG_INVALID
        anti = check_weighting(fixture_graph("antisymmetric_relation.prob"))
        assert not anti.accepted and anti.reason == FILTRATION_MISMATCH
        assert anti.details == {"reconstructed_dim": 10, "graph_dim": 9}

    _report(5, "weighting criterion accepts standard graphs and rejects "
            "both counterexamples (dims 10 vs 9)", check)


def test_criterion_06_adapted_coordinates():
    def check():
        W = weight_sequence({"x1": 1, "x2": 3}, 3)
        fr = frame(W, [[ONE, ZERO], [ZERO, ONE]])
        initial = [parse_expr("x1"), parse_expr("x2 + x1^2")]
        change = adapted_coordinates(fr, initial)
        assert change.chi_map() == {(1, (2, 0)): ex.MINUS_ONE}
        assert change.normalizer_map() == {(2, 0): Fraction(2)}
        assert change.x_in_y[1] == parse_expr("y2 - y1^2")
        assert verify_adapted(change.x_in_chart, fr)
        assert not verify_adapted(initial, fr)
        rng = random.Random(606)
        done = 0
        while done < 10:
            fr2, y_exprs = perturbed_fixture(rng, rng.randint(2, 3))
            change2 = adapted_coordinates(fr2, y_exprs)
            assert verify_adapted(change2.x_in_chart, fr2)
            done += 1

    _report(6, "adapted-coordinates recursion (fixture and ten perturbed "
            "frames)", check)


def test_criterion_07_deformation_identities():
    def check():
        rng = random.Random(707)
        for _ in range(50):
            W = rand_weight_sequence(rng, max_n=3, max_order=4)
            p = rand_wpoly(rng, W, max_degree=3, max_terms=3)
            f = wp.to_expr(p)
            degree = wp.filtration_degree(p, W)
            i = rng.randint(0, degree)
            F = def_interpolant(f, i, W)
            names = deformation_names(W)
            rename = dict(zip(W.vars, [var(n) for n in names]))
            assert F.at_t(1) == ex.substitute(f, rename)
            assert F.at_t(0) == ex.substitute(
                wp.to_expr(wp.homogeneous_part(p, W, i)), rename)
            tpoly = wp.poly_normal_form(F.expression, ("t",))
            assert all(s[0] >= 0 for s, _ in tpoly.terms)
            scaling = {n: ex.mul(ex.pow_(var("u"), w), var(n))
                       for n, w in zip(names, W.weights)}
            scaling["t"] = ex.mul(ex.pow_(var("u"), -1), var("t"))
            lhs = ex.substitute(F.expression, scaling)
            rhs = ex.mul(ex.pow_(var("u"), i), F.expression)
            assert ex.simplify_canonical(lhs, expand_polynomials=True) == \
                ex.simplify_canonical(rhs, expand_polynomials=True)
            theta = theta_field(W)
            lhs = theta.apply(F.expression)
            rhs = ex.mul(ex.const(-i), F.expression)
            assert ex.simplify_canonical(lhs, expand_polynomials=True) == \
                ex.simplify_canonical(rhs, expand_polynomials=True)

    _report(7, "deformation interpolants: boundaries, positivity in t, "
            "scaling homogeneity, eigenvalue", check)


def test_criterion_08_blowup_euler_lift():
    def check():
        for assignment in [{"x": 1}, {"x": 1, "y": 2},
                           {"x": 1, "y": 2, "z": 3}, {"x": 2, "y": 3}]:
            W = weight_sequence(assignment)
            E = euler_field(W)
            for c, name in enumerate(W.vars):
                if W.weights[c] < 1:
                    continue
                for sign in "+-":
                    lift = blowup_lift_vf(E, W, blowup_chart(W, name, sign))
                    zc = f"z{c + 1}"
                    assert lift.components == \
                        ((zc, ((ONE, ((zc, Fraction(1)),)),)),)

    _report(8, "blow-up lift of the scaling field is z_c d/dz_c in every "
            "chart", check)


def test_criterion_09_nilpotent_algebra():
    def check():
        W = weight_sequence({"x": 1, "y": 2}, 2)
        g = nilpotent_frames(W)
        assert g.dim == 3 and g.dim_sub == 1
        nonzero = {k: v for k, v in g.bracket_table().items() if v}
        ((i, j), entries), = nonzero.items()
        labels = {g.basis[i], g.basis[j]}
        assert ((0, 0), 0) in labels and ((1, 0), 1) in labels
        assert entries == {g.basis.index(((0, 0), 1)): Fraction(1)}
        check_nilpotent_algebras(random.Random(909))

    _report(9, "nilpotent frame algebra: dims, brackets, Jacobi, nilpotency",
            check)


def test_criterion_10_multiplicativity_and_degree_bound():
    def check():
        rng = random.Random(1010)
        for _ in range(200):
            W = rand_weight_sequence(rng, max_n=3)
            f = rand_wpoly(rng, W)
            g = rand_wpoly(rng, W)
            assert wp.filtration_degree(wp.wp_mul(f, g), W) == \
                wp.filtration_degree(f, W) + wp.filtration_degree(g, W)
        for _ in range(200):
            W = rand_weight_sequence(rng, max_n=3, max_order=3)
            fr = frame(W, [[ONE if b == a else ZERO for b in range(W.n)]
                           for a in range(W.n)])
            s = tuple(rng.randint(0, 2) for _ in range(W.n))
            coeff = rand_poly_expr(rng, W.vars, max_degree=2, max_terms=2)
            D = diffop(fr, {s: coeff})
            if not D.terms:
                continue
            h = rand_poly_expr(rng, W.vars, max_degree=3, max_terms=2)
            out = wp.poly_normal_form(apply_diffop(D, h), W.positive_vars)
            if out.is_zero:
                continue
            hp = wp.poly_normal_form(h, W.positive_vars)
            assert wp.filtration_degree(out, W) >= \
                wp.filtration_degree(hp, W) + coefficient_q_weight(D, W)

    _report(10, "filtration multiplicativity and operator degree bound "
            "(200 random pairs each)", check)


def test_criterion_11_scaling_estimator():
    def check():
        start = time.monotonic()
        rng = random.Random(1111)
        grid = [2.0 ** (-k) for k in range(4, 13)]
        for _ in range(20):
            W = rand_weight_sequence(rng, max_n=3, max_order=3)
            p = rand_wpoly(rng, W, max_degree=4, max_terms=3,
                           coeff_vars=False)
            f = wp.to_expr(p)
            degree = wp.filtration_degree(p, W)
            report = scaling_order_estimate(f, W, t_grid=grid,
                                            seed=rng.randint(0, 10 ** 6))
            assert abs(report.estimated_order - degree) < 0.05
        assert time.monotonic() - start < 5.0

    _report(11, "numeric scaling estimator within 0.05 in under 5 seconds",
            check)
