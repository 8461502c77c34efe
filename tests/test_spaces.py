import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from weightings import expr as ex
from weightings import wpoly as wp
from weightings.expr import ONE, ZERO, parse_expr, var
from weightings.fields import (PolyVectorField, euler_field,
                               vf_filtration_degree, vf_for_weights)
from weightings.spaces import (RationalMonomialMap, _chart_center,
                               blowup_chart, blowup_chart_inverse,
                               blowup_lift_vf, chart_names, check_morphism,
                               compose_rational, compose_transitions,
                               coordinate_change, def_interpolant,
                               def_vf_interpolant, deformation_names,
                               euler_like_check, nu_transition,
                               scaling_order_estimate, theta_field)
from weightings.weights import weight_sequence, weighted_degree

from conftest import rand_expr, rand_rational, rand_weight_sequence, rand_wpoly


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


@pytest.mark.parametrize("components, message", [
    (["x", "y + x"], "chart map does not preserve the filtrations"),
    # the filtrations are checked before the symbol names
    (["x", "y + x*y1"], "chart map does not preserve the filtrations"),
    (["x", "y + x^2*y1"], "symbol 'y1' is not a variable of the weighting but "
                          "is named like a chart coordinate"),
], ids=["not-a-morphism", "not-a-morphism-with-y1", "morphism-with-y1"])
def test_nu_transition_refusals(components, message):
    W = weight_sequence({"x": 1, "y": 2}, 2)
    phi = coordinate_change(W, W, [parse_expr(c) for c in components])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        nu_transition(phi)


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
    assert str(def_vf_interpolant(vf_for_weights(W, [ZERO, ZERO]), 3, W)) == "0"


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


def _monomial_map(source, target, components, sign):
    """The map with coefficients 1 and the nonzero exponents of each
    component, names and exponents in sorted order."""
    return RationalMonomialMap(source + ("t",), target + ("t",), tuple(sorted(
        (name, (1, tuple(sorted((v, q) for v, q in exps.items() if q))))
        for name, exps in components.items())), sign)


def test_blowup_chart_inverse_consistency():
    # every sorted weighting of one to three variables with weights 0 to 4,
    # and one of twelve (z10 sorts before z2), every center of positive
    # weight and both signs: the chart is z_c = t y_c^(1/w_c),
    # z_a = y_a y_c^(-w_a/w_c) and t = t, its inverse y_c = t^(-w_c) z_c^(w_c)
    # and y_a = t^(-w_a) z_a z_c^(w_a), every coefficient and exponent a
    # Fraction, and the two compose to the identity on both sides
    weightings = [weight_sequence(list(zip(("p", "q", "r"), weights)))
                  for n in range(1, 4)
                  for weights in itertools.combinations_with_replacement(
                      range(5), n)]
    weightings.append(weight_sequence([(f"x{k}", k % 5) for k in range(1, 13)]))
    charts = 0
    for W in weightings:
        y, z = deformation_names(W), chart_names(W)
        for c, wc in enumerate(W.weights):
            for sign in "+-" if wc else ():
                chart = blowup_chart(W, W.vars[c], sign)
                inverse = blowup_chart_inverse(W, W.vars[c], sign)
                closed = {"t": {"t": 1}, z[c]: {"t": 1, y[c]: Fraction(1, wc)}}
                closed_inverse = {"t": {"t": 1}, y[c]: {"t": -wc, z[c]: wc}}
                for a, w in enumerate(W.weights):
                    if a != c:  # y_a and z_a alone where w_a = 0
                        closed[z[a]] = {y[a]: 1, y[c]: Fraction(-w, wc)}
                        closed_inverse[y[a]] = {"t": -w, z[a]: 1, z[c]: w}
                assert chart == _monomial_map(y, z, closed, sign)
                assert inverse == _monomial_map(z, y, closed_inverse, sign)
                for m in (chart, inverse):
                    assert {type(q) for _, (coeff, exps) in m.components
                            for q in (coeff, *(q for _, q in exps))} \
                        == {Fraction}
                around = compose_rational(chart, inverse)
                for name in chart.target:
                    assert around.component(name) == (1, ((name, 1),))
                back = compose_rational(inverse, chart)
                for name in inverse.target:
                    assert back.component(name) == (1, ((name, 1),))
                charts += 1
    assert charts >= 100, charts


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


@pytest.mark.parametrize("make", [blowup_chart, blowup_chart_inverse])
def test_blowup_charts_validate_center_and_sign(make):
    W = weight_sequence({"a": 0, "x": 1, "y": 2}, 2)
    with pytest.raises(KeyError, match="unknown variable 'q'"):
        make(W, "q")
    with pytest.raises(ValueError, match="has weight 0 and is not a blow-up "
                                         "direction"):
        make(W, "a")
    # the sign is checked first, then the name, then the weight
    for center in ("x", "q", "a"):
        with pytest.raises(ValueError, match=r"sign must be '\+' or '-'"):
            make(W, center, "*")


def test_blowup_field_text_brackets_sums_and_pulls_signs():
    W = weight_sequence({"a": 0, "x": 1, "y": 2}, 2)
    X = vf_for_weights(W, [ZERO, parse_expr("(1 + a)*x"),
                           parse_expr("x^2 - y")])
    lift = blowup_lift_vf(X, W, blowup_chart(W, "x"))
    assert str(lift) == ("((1 + z1)*z2) d/d[z2] + "
                         "(1 + (-1 - 2*(1 + z1))*z3) d/d[z3]")


# A symbol outside W that is named like a chart coordinate would read as that
# coordinate once W's variables are renamed, so it is refused by name.
_XY = weight_sequence({"x": 1, "y": 1}, 2)


@pytest.mark.parametrize("name, call", [
    ("y1", lambda: def_interpolant(parse_expr("y1*x"), 1, _XY)),
    ("t", lambda: def_interpolant(parse_expr("t*x + y"), 1, _XY)),
    ("y2", lambda: def_vf_interpolant(
        vf_for_weights(_XY, [parse_expr("y2*x"), ZERO]), 0, _XY)),
    ("t", lambda: def_vf_interpolant(
        vf_for_weights(_XY, [ZERO, parse_expr("t")]), -1, _XY)),
    ("y1", lambda: nu_transition(coordinate_change(
        _XY, _XY, [parse_expr("x + y1*y"), var("y")]))),
    ("z2", lambda: blowup_lift_vf(
        vf_for_weights(_XY, [parse_expr("z2*x"), parse_expr("z2*y")]), _XY,
        blowup_chart(_XY, "x"))),
    ("t", lambda: blowup_lift_vf(
        vf_for_weights(_XY, [parse_expr("t*x"), var("y")]), _XY,
        blowup_chart(_XY, "y", "-"))),
], ids=["interp-y", "interp-t", "vf-interp-y", "vf-interp-t", "nu-y",
        "blowup-z", "blowup-t"])
def test_symbols_named_like_chart_coordinates_are_refused(name, call):
    with pytest.raises(ValueError, match=f"symbol '{name}' is not a variable "
                                         f"of the weighting"):
        call()


def test_variables_of_w_named_like_chart_coordinates_keep_working():
    W = weight_sequence({"t": 0, "y2": 1, "z1": 2}, 2)
    assert str(def_interpolant(parse_expr("t*y2*z1"), 2, W)) == "t*y1*y2*y3"
    X = vf_for_weights(W, [ZERO, parse_expr("t*y2"), parse_expr("2*z1")])
    assert str(def_vf_interpolant(X, 0, W)) == \
        "(y1*y2) d/d[y2] + (2*y3) d/d[y3]"
    phi = coordinate_change(W, W, [var("t"), var("y2"),
                                   parse_expr("z1 + t*y2^2")])
    assert nu_transition(phi) == (var("y1"), var("y2"),
                                  parse_expr("y3 + y1*y2^2"))
    assert str(blowup_lift_vf(X, W, blowup_chart(W, "z1"))) == \
        "((-1 + z1)*z2) d/d[z2] + (z3) d/d[z3]"
    # nu_transition has no t coordinate, so a free t is a coefficient there
    assert nu_transition(coordinate_change(
        _XY, _XY, [parse_expr("x + t*y"), var("y")]))[0] == \
        parse_expr("y1 + t*y2")


def test_blowup_lift_rejects_a_chart_of_other_weights():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    foreign = blowup_chart(weight_sequence({"x": 1, "y": 3}, 3), "y")
    X = vf_for_weights(W, [var("x"), parse_expr("2*y")])
    with pytest.raises(ValueError, match="map is not a blow-up chart"):
        blowup_lift_vf(X, W, foreign)


def _center_by_search(W, chart):
    """The definition: the index of the one positive-weight x for which
    chart == blowup_chart(W, x, s) with one sign s, found by trying all."""
    found = [(a, s) for a, x in enumerate(W.vars) if W.weights[a]
             for s in "+-" if chart == blowup_chart(W, x, s)]
    if len(found) != 1:
        raise ValueError("map is not a blow-up chart")
    return found[0][0]


def _with_components(chart, components, sign=None):
    return RationalMonomialMap(chart.source, chart.target, tuple(components),
                               chart.sign if sign is None else sign)


def _exponent_changed(chart):
    (name, (coeff, exps)), *rest = [c for c in chart.components if c[0] != "t"]
    (v, q), *others = exps
    return _with_components(chart, sorted(
        [c for c in chart.components if c[0] == "t"] + rest
        + [(name, (coeff, ((v, q + 1), *others)))]))


_W123 = weight_sequence({"a": 0, "x": 1, "y": 2, "z": 3}, 3)
_Y = blowup_chart(_W123, "y")


@pytest.mark.parametrize("chart", [
    blowup_chart_inverse(_W123, "y"),
    _exponent_changed(_Y),
    _with_components(_Y, [c for c in _Y.components if c[0] != "z4"]),
    _with_components(_Y, [c for c in _Y.components if c[0] != "t"]),
    _with_components(_Y, _Y.components + (("z5", (1, (("y1", 1),))),)),
    _with_components(_Y, _Y.components, sign="*"),
    _with_components(_Y, _Y.components, sign=""),
    blowup_chart(weight_sequence({"a": 0, "x": 1, "y": 2, "z": 4}, 4), "y"),
    blowup_chart(weight_sequence({"x": 1, "y": 2, "z": 3}, 3), "y"),
], ids=["inverse", "exponent", "missing", "missing-t", "extra", "sign",
        "empty-sign", "other-weights", "other-count"])
def test_the_chart_center_refuses_maps_that_are_not_blowup_charts(chart):
    with pytest.raises(ValueError, match="map is not a blow-up chart"):
        _chart_center(_W123, chart)
    with pytest.raises(ValueError, match="map is not a blow-up chart"):
        _center_by_search(_W123, chart)


def _spoiled_chart(rng, W, chart):
    """chart with one defect drawn at random, or as it is."""
    comps = list(chart.components)
    k = rng.randrange(len(comps))
    name, (coeff, exps) = comps[k]
    kind = rng.randrange(9)
    if kind == 0:  # an exponent moved, dropped or added
        exps = dict(exps)
        v = rng.choice(sorted(exps) + list(chart.source))
        exps[v] = exps.get(v, 0) + rng.choice([-1, Fraction(1, 2), 1])
        comps[k] = (name, (coeff, tuple(sorted((u, q) for u, q in exps.items()
                                               if q))))
    elif kind == 1:
        comps[k] = (name, (coeff + 1, exps))
    elif kind == 2:
        del comps[k]
    elif kind == 3:
        comps.insert(k, (f"z{W.n + 1}", (1, exps)))
    elif kind == 4:
        comps.reverse()
    elif kind == 5:
        return RationalMonomialMap(chart.target, chart.source,
                                   tuple(comps), chart.sign)
    elif kind == 6:
        return _with_components(chart, comps, rng.choice(["*", "+-", "+"]))
    elif kind == 7:
        return blowup_chart_inverse(W, W.vars[_center_by_search(W, chart)],
                                    chart.sign)
    return _with_components(chart, comps)


def test_the_chart_center_matches_the_search_over_every_chart():
    rng = random.Random(2905)
    outcomes = {"center": 0, "refused": 0}
    for _ in range(400):
        W = _rand_lift_weights(rng)
        source = rng.choice([W, W, W, _rand_lift_weights(rng)])
        chart = blowup_chart(source, rng.choice(source.positive_vars),
                             rng.choice("+-"))
        if rng.random() < 0.6 and source is W:
            chart = _spoiled_chart(rng, W, chart)
        try:
            expected = _center_by_search(W, chart)
        except ValueError as error:
            expected = str(error)
        try:
            got = _chart_center(W, chart)
        except ValueError as error:
            got = str(error)
        assert got == expected, (W, str(chart), chart.sign)
        outcomes["refused" if isinstance(expected, str) else "center"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def _rand_lift_weights(rng):
    """1-4 variables, some of weight 0, at least one of positive weight."""
    n = rng.randint(1, 4)
    zeros = rng.randint(0, n - 1)
    weights = [0] * zeros + sorted(rng.randint(1, 3) for _ in range(n - zeros))
    names = "abcd"[:zeros] + "xyuv"[:n - zeros]
    return weight_sequence(list(zip(names, weights)), max(weights))


def _rand_lift_field(rng, W):
    """A random field of filtration degree 0 with weight-0 coefficients
    involving sin, exp and sums; zero about one time in ten."""
    pvars, w = W.positive_vars, W.positive_weights
    coeffs = []
    for wv in W.weights:
        terms = {}
        for _ in range(rng.randint(0, 3)):
            s = tuple(rng.randint(0, 2) for _ in pvars)
            if weighted_degree(s, w) < wv:
                continue
            c = ex.const(rand_rational(rng, zero_ok=False))
            if W.zero_vars and rng.random() < 0.6:
                c = ex.mul(c, rand_expr(rng, list(W.zero_vars), depth=2))
            terms[s] = ex.add(terms.get(s, ZERO), c)
        coeffs.append(wp.wpoly(pvars, terms))
    return PolyVectorField(W.vars, tuple(coeffs))


def _lift_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        W = _rand_lift_weights(rng)
        X = _rand_lift_field(rng, W)
        for center in W.positive_vars:
            for sign in "+-":
                yield W, X, blowup_chart(W, center, sign)


def _chart_point(chart, y):
    """Numeric image of the point y (names y1..yn, t) under a monomial chart."""
    return {name: float(coeff) * math.prod(y[v] ** float(q) for v, q in exps)
            for name, (coeff, exps) in chart.components}


def test_blowup_lift_matches_the_pushforward_numerically():
    # Independent of the lift: the degree-0 extension at (y, t) is
    # t^(-w_v) X_v(t^w . y), and dz_b = sum_v q_bv (z_b / y_v) dy_v.  The
    # zero field is drawn too, and lifts to the zero field.
    rng = random.Random(73)
    checked = zero = 0
    for W, X, chart in _lift_cases(79, 120):
        if chart.sign != "+":
            continue
        lift = dict(blowup_lift_vf(X, W, chart).components)
        zero += X.is_zero
        ynames = deformation_names(W)
        y = {name: rng.uniform(0.5, 2.0) for name in ynames + ("t",)}
        x = {v: y["t"] ** wv * y[yn]
             for v, wv, yn in zip(W.vars, W.weights, ynames)}
        ext = {yn: y["t"] ** -wv * ex.eval_numeric(wp.to_expr(c), x)
               for yn, wv, c in zip(ynames, W.weights, X.coeffs)}
        z = _chart_point(chart, y)
        for zb in chart_names(W):
            pushed = sum(float(q) * z[zb] / y[v] * ext[v]
                         for v, q in chart.component(zb)[1] if v != "t")
            lifted = sum(ex.eval_numeric(c, z)
                         * math.prod(z[v] ** float(q) for v, q in m)
                         for c, m in lift.get(zb, ()))
            assert math.isclose(pushed, lifted, rel_tol=1e-9, abs_tol=1e-9), \
                (W, str(X), zb, pushed, lifted)
            checked += 1
    assert checked >= 300 and zero > 0, (checked, zero)
