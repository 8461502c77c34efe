import random
from fractions import Fraction

import pytest

from weightings import expr as ex
from weightings import wpoly as wp
from weightings.expr import ONE, ZERO, parse_expr, var
from weightings.fields import euler_field, vf_filtration_degree, vf_for_weights
from weightings.spaces import (blowup_chart, blowup_chart_inverse,
                               blowup_lift_vf, check_morphism,
                               compose_rational, compose_transitions,
                               coordinate_change, def_interpolant,
                               def_vf_interpolant, deformation_names,
                               euler_like_check, nu_transition,
                               scaling_order_estimate, theta_field)
from weightings.weights import weight_sequence, weighted_degree

from conftest import rand_rational, rand_weight_sequence, rand_wpoly


def test_check_morphism_examples():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    identity = coordinate_change(W, W, [var("x"), var("y")])
    assert check_morphism(identity)
    ok = coordinate_change(W, W, [parse_expr("x + x^2"), parse_expr("y + x^2")])
    assert check_morphism(ok)
    bad = coordinate_change(W, W, [var("x"), parse_expr("y + x")])
    assert not check_morphism(bad)


def test_nu_transition_worked_example():
    W = weight_sequence({"x": 0, "y": 1, "z": 3}, 3)
    phi = coordinate_change(W, W, [parse_expr("sin(x)*exp(y*z)"),
                                   parse_expr("y*exp(x*y)"),
                                   parse_expr("3*z + sin(x*y)^3")])
    got = nu_transition(phi)
    assert got == (parse_expr("sin(y1)"), parse_expr("y2"),
                   parse_expr("3*y3 + y1^3*y2^3"))


def test_nu_transition_identity_and_quadratic():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    identity = coordinate_change(W, W, [var("x"), var("y")])
    assert nu_transition(identity) == (var("y1"), var("y2"))
    phi = coordinate_change(W, W, [parse_expr("x + x^2"),
                                   parse_expr("y + x^2")])
    assert nu_transition(phi) == (var("y1"), parse_expr("y2 + y1^2"))


def _random_morphism(rng, W):
    components = []
    for b, name in enumerate(W.vars):
        component = var(name)
        for _ in range(rng.randint(0, 2)):
            s = tuple(rng.randint(0, 2) for _ in W.positive_vars)
            if weighted_degree(s, W.positive_weights) >= max(1, W.weights[b]):
                component = ex.add(component, ex.mul(
                    ex.const(rand_rational(rng)),
                    wp.monomial_expr(W.positive_vars, s)))
        components.append(component)
    return coordinate_change(W, W, components)


def test_nu_transition_functorial():
    rng = random.Random(37)
    for _ in range(20):
        W = rand_weight_sequence(rng, max_n=3, max_order=3)
        phi = _random_morphism(rng, W)
        psi = _random_morphism(rng, W)
        mapping = dict(zip(W.vars, psi.components))
        composed = coordinate_change(
            W, W, [ex.substitute(c, mapping) for c in phi.components])
        lhs = nu_transition(composed)
        rhs = compose_transitions(nu_transition(phi), nu_transition(psi), W)
        lhs = tuple(ex.simplify_canonical(c, expand_polynomials=True) for c in lhs)
        rhs = tuple(ex.simplify_canonical(c, expand_polynomials=True) for c in rhs)
        assert lhs == rhs


def test_def_interpolant_examples():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    F = def_interpolant(parse_expr("x*y"), 3, W)
    assert F.expression == parse_expr("y1*y2")
    W1 = weight_sequence({"x": 1}, 1)
    F2 = def_interpolant(var("x"), 0, W1)
    assert F2.expression == parse_expr("t*y1")
    # one degree above the requested level vanishes at t = 0
    F3 = def_interpolant(parse_expr("x^3"), 2, W1)
    assert F3.at_t(0) == ZERO
    assert F3.at_t(1) == parse_expr("y1^3")
    with pytest.raises(ValueError, match="below"):
        def_interpolant(var("x"), 2, W)


def test_def_interpolant_identities():
    rng = random.Random(41)
    for _ in range(50):
        W = rand_weight_sequence(rng, max_n=3, max_order=4)
        p = rand_wpoly(rng, W, max_degree=3, max_terms=3)
        f = wp.to_expr(p)
        degree = wp.filtration_degree(p, W)
        i = rng.randint(0, degree)
        F = def_interpolant(f, i, W)
        names = deformation_names(W)
        rename = dict(zip(W.vars, [var(n) for n in names]))
        # boundary values
        assert F.at_t(1) == ex.substitute(f, rename)
        approx = wp.homogeneous_part(p, W, i)
        assert F.at_t(0) == ex.substitute(wp.to_expr(approx), rename)
        # only nonnegative powers of t appear
        tpoly = wp.poly_normal_form(F.expression, ("t",))
        assert all(s[0] >= 0 for s, _ in tpoly.terms)
        # scaling homogeneity in a formal parameter u
        scaling = {n: ex.mul(ex.pow_(var("u"), w), var(n))
                   for n, w in zip(names, W.weights)}
        scaling["t"] = ex.mul(ex.pow_(var("u"), -1), var("t"))
        lhs = ex.substitute(F.expression, scaling)
        rhs = ex.mul(ex.pow_(var("u"), i), F.expression)
        assert ex.simplify_canonical(lhs, expand_polynomials=True) == \
            ex.simplify_canonical(rhs, expand_polynomials=True)
        # scaling-field eigenvalue
        theta = theta_field(W)
        lhs = theta.apply(F.expression)
        rhs = ex.mul(ex.const(-i), F.expression)
        assert ex.simplify_canonical(lhs, expand_polynomials=True) == \
            ex.simplify_canonical(rhs, expand_polynomials=True)


def test_def_vf_interpolant_examples():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    X = vf_for_weights(W, [ONE, ZERO])
    field = def_vf_interpolant(X, -1, W)
    assert field.components == (("y1", ONE),)
    E = euler_field(W)
    field_e = def_vf_interpolant(E, 0, W)
    assert dict(field_e.components) == {"y1": var("y1"),
                                        "y2": parse_expr("2*y2")}
    W13 = weight_sequence({"x": 1, "y": 3}, 3)
    X2 = vf_for_weights(W13, [ZERO, parse_expr("x^2")])
    field2 = def_vf_interpolant(X2, -1, W13)
    assert field2.components == (("y2", parse_expr("y1^2")),)
    with pytest.raises(ValueError, match="below"):
        def_vf_interpolant(X, 0, W)


def test_interpolant_cartan_compatibility():
    rng = random.Random(43)
    for _ in range(30):
        W = rand_weight_sequence(rng, max_n=2, max_order=3)
        p = rand_wpoly(rng, W, max_degree=3, max_terms=2, coeff_vars=False)
        f = wp.to_expr(p)
        j = wp.filtration_degree(p, W)
        coeffs = [wp.to_expr(rand_wpoly(rng, W, max_degree=2, max_terms=2,
                                        coeff_vars=False)) for _ in W.vars]
        X = vf_for_weights(W, coeffs)
        i = vf_filtration_degree(X, W)
        lhs = def_vf_interpolant(X, i, W).apply(
            def_interpolant(f, j, W).expression)
        xf = ex.add(*[ex.mul(c, ex.differentiate(f, v))
                      for v, c in zip(W.vars, coeffs)], ZERO)
        rhs = def_interpolant(xf, i + j, W).expression
        assert ex.simplify_canonical(lhs, expand_polynomials=True) == \
            ex.simplify_canonical(rhs, expand_polynomials=True)


def test_theta_field_formula():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    theta = theta_field(W)
    assert dict(theta.components) == {"t": var("t"),
                                      "y1": parse_expr("-y1"),
                                      "y2": parse_expr("-2*y2")}
    # restriction to t = 0 is minus the weight scaling field on the fiber
    at_zero = {n: ex.substitute(c, {"t": ZERO})
               for n, c in theta.components if n != "t"}
    assert at_zero == {"y1": parse_expr("-y1"), "y2": parse_expr("-2*y2")}


def test_euler_like_check():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    assert euler_like_check(euler_field(W), W)
    good = vf_for_weights(W, [var("x"), parse_expr("2*y + x^3")])
    assert euler_like_check(good, W)
    bad = vf_for_weights(W, [var("x"), parse_expr("2*y + x^2")])
    assert not euler_like_check(bad, W)


def test_scaling_order_estimate():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    report = scaling_order_estimate(parse_expr("x*y"), W, seed=1)
    assert abs(report.estimated_order - 3.0) < 0.05
    mono = scaling_order_estimate(parse_expr("x^2"), W, seed=1)
    assert abs(mono.estimated_order - 2.0) < 1e-9
    low = scaling_order_estimate(parse_expr("x + y"), W, seed=1)
    assert abs(low.estimated_order - 1.0) < 0.05
    with pytest.raises(ValueError, match="degenerate"):
        scaling_order_estimate(ZERO, W, seed=1)
    # a fixed base point at a pole is not resampled
    W0 = weight_sequence({"x": 0, "y": 1}, 1)
    with pytest.raises(ValueError, match="degenerate"):
        scaling_order_estimate(parse_expr("(x - 1/2)^-1*y"), W0,
                               base_point=(Fraction(1, 2), 1))
    for grid in ([0.5], [0.5, 0.5]):
        with pytest.raises(ValueError, match="at least two distinct values"):
            scaling_order_estimate(parse_expr("x"), W, t_grid=grid)


def test_scaling_order_random_polynomials():
    rng = random.Random(47)
    for _ in range(20):
        W = rand_weight_sequence(rng, max_n=3, max_order=3)
        p = rand_wpoly(rng, W, max_degree=4, max_terms=3, coeff_vars=False)
        f = wp.to_expr(p)
        degree = wp.filtration_degree(p, W)
        report = scaling_order_estimate(f, W, seed=rng.randint(0, 10 ** 6))
        assert abs(report.estimated_order - degree) < 0.05, (f, degree, report)


def test_blowup_chart_formulas():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    chart = blowup_chart(W, "y", "+")
    assert chart.component("z1") == (1, (("y1", 1), ("y2", Fraction(-1, 2))))
    assert chart.component("z2") == (1, (("t", 1), ("y2", Fraction(1, 2))))
    classical = blowup_chart(weight_sequence({"x": 1}, 1), "x")
    assert classical.component("z1") == (1, (("t", 1), ("y1", 1)))
    with pytest.raises(ValueError, match="weight 0"):
        blowup_chart(weight_sequence({"x": 0, "y": 1}, 1), "x")


def test_blowup_chart_inverse_consistency():
    rng = random.Random(53)
    for _ in range(10):
        W = rand_weight_sequence(rng, max_n=3, max_order=3)
        center = rng.choice(W.positive_vars)
        chart = blowup_chart(W, center, rng.choice("+-"))
        inverse = blowup_chart_inverse(W, center, chart.sign)
        around = compose_rational(chart, inverse)
        for name in chart.target:
            assert around.component(name) == (1, ((name, 1),))
        back = compose_rational(inverse, chart)
        for name in inverse.target:
            assert back.component(name) == (1, ((name, 1),))


def test_blowup_transition_is_monomial():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    transition = compose_rational(blowup_chart(W, "y", "+"),
                                  blowup_chart_inverse(W, "x", "+"))
    # z'_1 = chart_y coordinate of the chart_x point; stays monomial
    coeff, exps = transition.component("z1")
    assert coeff == 1 and exps


def test_blowup_lift_euler():
    for assignment in [{"x": 1}, {"x": 1, "y": 2}, {"x": 1, "y": 2, "z": 3},
                       {"x": 2, "y": 3}]:
        W = weight_sequence(assignment)
        E = euler_field(W)
        for c, name in enumerate(W.vars):
            for sign in "+-":
                chart = blowup_chart(W, name, sign)
                lift = blowup_lift_vf(E, W, chart)
                zc = f"z{c + 1}"
                assert lift.components == ((zc, ((ONE, ((zc, Fraction(1)),)),)),), \
                    (assignment, name, sign)


def test_blowup_lift_classical_example():
    W = weight_sequence({"x": 1}, 1)
    X = vf_for_weights(W, [parse_expr("x^2")])
    lift = blowup_lift_vf(X, W, blowup_chart(W, "x"))
    assert lift.components == ((("z1"), ((ONE, (("z1", Fraction(2)),)),)),)


def test_blowup_lift_rejects_negative_degree():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    X = vf_for_weights(W, [ONE, ZERO])
    with pytest.raises(ValueError, match="degree 0"):
        blowup_lift_vf(X, W, blowup_chart(W, "y"))
