import itertools
import math
import random

import pytest

from weightings import expr as ex
from weightings import wpoly as wp
from weightings.expr import parse_expr
from weightings.weights import (MultiWeight, exponents_below,
                                ideal_generators, multi_degree,
                                multi_filtration_degree, parse_multiweight,
                                parse_weight_assignments, total_weighting,
                                weight_sequence, weighted_degree)

from conftest import rand_rational, rand_weight_sequence, rand_wpoly


def test_weight_sequence_counts():
    W = weight_sequence({"x": 1, "y": 2, "z": 3}, 3)
    assert W.counts == (0, 1, 2, 3)
    W2 = weight_sequence({"x": 1, "y": 1}, 1)
    assert W2.count(0) == 0 and W2.count(1) == 2
    W3 = weight_sequence({"x": 0, "y": 1, "z": 3}, 3)
    assert W3.count(0) == 1
    assert W3.zero_vars == ("x",)


def test_weight_sequence_flag_nested():
    W = weight_sequence({"x": 0, "y": 1, "z": 3}, 3)
    flags = [W.flag(i) for i in range(4)]
    for small, large in zip(flags, flags[1:]):
        assert set(small) <= set(large)
    assert flags[3] == W.vars


def test_weight_sequence_validation():
    with pytest.raises(ValueError, match="order"):
        weight_sequence({"x": 3}, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        weight_sequence({"x": -1}, 2)
    with pytest.raises(ValueError, match="malformed"):
        parse_weight_assignments("x=1,y")


def test_weight_sequence_stable_tie_order():
    W = weight_sequence([("b", 1), ("a", 1), ("c", 0)], 2)
    assert W.vars == ("c", "b", "a")


def test_filtration_degree_examples():
    W = weight_sequence({"x": 1, "y": 2, "z": 3}, 3)
    xz = wp.poly_normal_form(parse_expr("x*z"), W.positive_vars)
    assert wp.filtration_degree(xz, W) == 4
    f = wp.poly_normal_form(parse_expr("z + x*y + x^3 + x^4"), W.positive_vars)
    assert wp.filtration_degree(f, W) == 3
    zero = wp.wp_zero(W.positive_vars)
    assert wp.filtration_degree(zero, W) == math.inf


def test_filtration_degree_matches_brute_force():
    rng = random.Random(5)
    for _ in range(50):
        W = rand_weight_sequence(rng)
        p = rand_wpoly(rng, W)
        expected = min(weighted_degree(s, W.positive_weights)
                       for s, _ in p.terms)
        assert wp.filtration_degree(p, W) == expected


def test_homogeneous_approx():
    W = weight_sequence({"x": 1, "y": 2, "z": 3}, 3)
    f = wp.poly_normal_form(parse_expr("z + x*y + x^3 + x^4"), W.positive_vars)
    part = wp.homogeneous_approx(f, W, 3)
    assert wp.to_expr(part) == parse_expr("z + x*y + x^3")
    c = wp.poly_normal_form(parse_expr("5"), W.positive_vars)
    assert wp.homogeneous_approx(c, W, 0) == c
    W1 = weight_sequence({"x": 2}, 3)
    g = wp.poly_normal_form(parse_expr("x"), W1.positive_vars)
    with pytest.raises(ValueError, match="below"):
        wp.homogeneous_approx(g, W1, 3)


def test_ideal_generators_intro_example():
    W = weight_sequence({"x": 1, "y": 2, "z": 3}, 3)
    assert ideal_generators(W, 4) == {(4, 0, 0), (2, 1, 0), (1, 0, 1),
                                      (0, 1, 1), (0, 2, 0), (0, 0, 2)}


def test_ideal_generators_small_cases():
    assert ideal_generators(weight_sequence({"x": 1, "y": 1}, 1), 2) == \
        {(2, 0), (1, 1), (0, 2)}
    assert ideal_generators(weight_sequence({"x": 1, "y": 2}, 2), 1) == \
        {(1, 0), (0, 1)}


def test_ideal_generators_cover_and_antichain():
    rng = random.Random(9)
    for _ in range(20):
        W = rand_weight_sequence(rng, max_n=3, max_order=4)
        degree = rng.randint(1, W.order)
        gens = ideal_generators(W, degree)
        w = W.positive_weights
        # no generator divides another
        for s in gens:
            for u in gens:
                if s != u:
                    assert not all(a <= b for a, b in zip(s, u))
        # every monomial of weighted degree >= degree is divisible by one
        for _ in range(30):
            s = tuple(rng.randint(0, 4) for _ in w)
            if weighted_degree(s, w) >= degree:
                assert any(all(g <= v for g, v in zip(gen, s))
                           for gen in gens)


def _brute_force_generators(weights, degree):
    """Minimal exponents of weighted degree >= degree, from every tuple in
    the box whose side for weight w is ceil(degree / w) + 1."""
    box = [range(-(-degree // w) + 1) for w in weights]
    return {s for s in itertools.product(*box)
            if weighted_degree(s, weights) >= degree
            and all(x == 0 or weighted_degree(s, weights) - w < degree
                    for x, w in zip(s, weights))}


def test_ideal_generators_match_brute_force():
    rng = random.Random(23)
    shapes = set()
    for i in range(320):
        n = 1 if i % 8 == 0 else rng.randint(2, 4)
        weights = sorted(rng.randint(0 if n > 1 else 1, 4) for _ in range(n))
        if i % 5 == 0 and n > 1:
            weights[1] = weights[0] = max(weights[0], 1)
        W = weight_sequence([(f"x{a}", w) for a, w in enumerate(weights)])
        degree = rng.randint(1, 15)
        assert ideal_generators(W, degree) == _brute_force_generators(
            W.positive_weights, degree), (weights, degree)
        positive = W.positive_weights
        shapes.add("single" if len(positive) == 1 else
                   "repeated" if len(set(positive)) < len(positive) else
                   "distinct")
    assert shapes == {"single", "repeated", "distinct"}


@pytest.mark.parametrize("weights", [
    (), (0,), (2,), (1, 1, 1), (0, 1, 0, 2), (3, 1, 2), (2, 0, 2, 1), (0, 0)])
@pytest.mark.parametrize("bound", [-2, 0, 1, 2, 5, 7])
def test_exponents_below_matches_brute_force(weights, bound):
    got = exponents_below(weights, bound)
    ranges = [range(bound) if w else range(1) for w in weights]
    expected = [s for s in itertools.product(*ranges)
                if weighted_degree(s, weights) < bound]
    assert got == expected  # the same set, in lexicographic order
    assert exponents_below(list(weights), bound) == got


def test_weighted_taylor_examples():
    W = weight_sequence({"x": 0, "y": 1, "z": 3}, 3)
    t0 = wp.weighted_taylor(parse_expr("sin(x)*exp(y*z)"), W, 0)
    assert wp.to_expr(t0) == parse_expr("sin(x)")
    t3 = wp.weighted_taylor(parse_expr("3*z + sin(x*y)^3"), W, 3)
    assert wp.to_expr(t3) == parse_expr("3*z + x^3*y^3")
    W1 = weight_sequence({"y": 1}, 2)
    t2 = wp.weighted_taylor(parse_expr("exp(y)"), W1, 2)
    assert wp.to_expr(t2) == parse_expr("1 + y + 1/2*y^2")


def _top_degree(p, W):
    return max((weighted_degree(s, W.positive_weights) for s, _ in p.terms),
               default=0)


def test_weighted_taylor_agrees_with_normal_form():
    # at the top degree nothing is truncated, and below it exactly the terms
    # above the degree are
    rng = random.Random(31)
    for _ in range(30):
        W = rand_weight_sequence(rng)
        p = rand_wpoly(rng, W, coeff_vars=False)
        assert wp.weighted_taylor(wp.to_expr(p), W, _top_degree(p, W)) == p
    # weight-0 variables in the coefficients, and powers of sums with a
    # weight-0 part
    rng = random.Random(43)
    for _ in range(60):
        W = rand_weight_sequence(rng, min_weight=0)
        p = rand_wpoly(rng, W, max_degree=3, max_terms=3)
        e = wp.to_expr(p)
        if rng.random() < 0.7:
            zero_part = ex.add(ex.const(rand_rational(rng, zero_ok=False)),
                               *[ex.var(v) for v in W.zero_vars])
            e = ex.pow_(ex.add(e, zero_part), rng.choice([2, 3]))
        expected = wp.poly_normal_form(e, W.positive_vars)
        top = _top_degree(expected, W)
        assert wp.weighted_taylor(e, W, top) == expected
        for d in range(top):
            low = {s: c for s, c in expected.terms
                   if weighted_degree(s, W.positive_weights) <= d}
            assert wp.weighted_taylor(e, W, d) == wp.wpoly(W.positive_vars, low)


def _sympy_oracle_tree(rng, pvars, zvars, depth):
    """Random tree, polynomial in pvars, with weight-0 heads and inverses.

    Called with depth 3, the root is a sum, product or power."""
    if depth == 0 or (depth < 3 and rng.random() < 0.3):
        r = rng.random()
        if r < 0.3:
            return ex.const(rand_rational(rng))
        if r < 0.8 or not zvars:
            return ex.var(rng.choice(pvars + zvars))
        x = ex.var(rng.choice(zvars))
        if r < 0.9:
            return ex.app(rng.choice(["sin", "cos", "exp"]), x)
        return ex.pow_(ex.add(ex.ONE, x), -1)
    kids = [_sympy_oracle_tree(rng, pvars, zvars, depth - 1)
            for _ in range(rng.randint(2, 3))]
    kind = rng.randrange(3)
    if kind == 0:
        return ex.add(*kids)
    if kind == 1:
        return ex.mul(*kids)
    return ex.pow_(kids[0], rng.randint(2, 3))


def test_poly_normal_form_matches_sympy_expansion():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(47)
    pvars, zvars = ["y", "z"], ["x"]
    gens = sympy.symbols(pvars)
    for _ in range(60):
        e = _sympy_oracle_tree(rng, pvars, zvars, 3)
        p = wp.poly_normal_form(e, pvars)
        ours = {s: sympy.sympify(ex.to_text(c).replace("^", "**"))
                for s, c in p.terms}
        theirs = sympy.Poly(sympy.expand(
            sympy.sympify(ex.to_text(e).replace("^", "**"))), *gens).as_dict()
        for s in set(ours) | set(theirs):
            difference = ours.get(s, 0) - theirs.get(s, 0)
            assert sympy.cancel(difference) == 0, (ex.to_text(e), s)


def test_weighted_taylor_numeric_remainder():
    # truncation error along the dilation shrinks like the next degree
    W = weight_sequence({"x": 0, "y": 1, "z": 2}, 4)
    f = parse_expr("sin(x)*exp(y*z) + cos(x*y) - exp(z)^2")
    N = 4
    truncated = wp.to_expr(wp.weighted_taylor(f, W, N))
    errors = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        point = {"x": 0.7, "y": 0.9 * h, "z": 1.1 * h * h}
        err = abs(ex.eval_numeric(f, point) - ex.eval_numeric(truncated, point))
        assert err < h ** (N + 1)
        errors.append(err)
    assert errors[1] < errors[0] / 2 ** N
    assert errors[2] < errors[1] / 2 ** N


def test_weighted_taylor_rejects_non_analytic():
    W = weight_sequence({"y": 1}, 2)
    with pytest.raises(ValueError, match="analytic"):
        wp.weighted_taylor(parse_expr("y^-1"), W, 2)


def test_poly_normal_form_errors():
    cases = {
        "sin(y)": "sin(y)",
        "y^-2": "y^-2",
        # the outer head is named, before its argument is expanded
        "exp(sin(y))": "exp(sin(y))",
        # the base is expanded first, so its head is named
        "(sin(y)+1)^-1": "sin(y)",
    }
    for text, named in cases.items():
        with pytest.raises(ValueError) as info:
            wp.poly_normal_form(parse_expr(text), ("y",))
        assert str(info.value) == f"not polynomial in designated variables: {named}"


def test_poly_normal_form_cancelled_base():
    # the base expands to the constant 1: its y-terms cancel exactly
    e = parse_expr("((y+1)^2 - y^2 - 2*y)^-1")
    assert wp.poly_normal_form(e, ("y",)) == wp.wp_const(("y",), 1)
    assert wp.weighted_taylor(e, weight_sequence({"y": 1}, 2), 2) == \
        wp.wp_const(("y",), 1)


def test_poly_normal_form_round_trip():
    rng = random.Random(13)
    for _ in range(50):
        W = rand_weight_sequence(rng)
        p = rand_wpoly(rng, W)
        assert wp.poly_normal_form(wp.to_expr(p), W.positive_vars) == p


def test_poly_normal_form_reexpansion():
    # re-expanding the normal form reproduces the expanded canonical form
    rng = random.Random(37)
    from conftest import rand_poly_expr
    for _ in range(40):
        names = ("x", "y", "z")
        e = rand_poly_expr(rng, names, max_degree=3, max_terms=3)
        p = wp.poly_normal_form(e, ("y", "z"))
        assert ex.simplify_canonical(wp.to_expr(p), expand_polynomials=True) \
            == ex.simplify_canonical(e, expand_polynomials=True)


def test_multiplicativity_of_degrees():
    rng = random.Random(17)
    for _ in range(200):
        W = rand_weight_sequence(rng, max_n=3)
        f = rand_wpoly(rng, W, coeff_vars=False)
        g = rand_wpoly(rng, W, coeff_vars=False)
        product = wp.wp_mul(f, g)
        assert wp.filtration_degree(product, W) == \
            wp.filtration_degree(f, W) + wp.filtration_degree(g, W)


def test_graded_morphism_law():
    rng = random.Random(19)
    for _ in range(50):
        W = rand_weight_sequence(rng)
        f = rand_wpoly(rng, W)
        g = rand_wpoly(rng, W)
        i = wp.filtration_degree(f, W)
        j = wp.filtration_degree(g, W)
        fi = wp.homogeneous_part(f, W, i)
        gj = wp.homogeneous_part(g, W, j)
        assert wp.homogeneous_part(wp.wp_mul(f, g), W, i + j) == \
            wp.wp_mul(fi, gj)


def test_dilate():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    p = wp.poly_normal_form(parse_expr("x*y"), W.positive_vars)
    assert wp.dilate(p, W) == parse_expr("t^3*x*y")
    c = wp.poly_normal_form(parse_expr("7"), W.positive_vars)
    assert wp.dilate(c, W) == parse_expr("7")


def test_dilate_homogeneity_identity():
    rng = random.Random(29)
    for _ in range(30):
        W = rand_weight_sequence(rng)
        p = rand_wpoly(rng, W)
        i = wp.filtration_degree(p, W)
        part = wp.homogeneous_approx(p, W, i)
        lhs = wp.dilate(part, W)
        rhs = ex.mul(ex.pow_(ex.var("t"), i), wp.to_expr(part))
        assert ex.simplify_canonical(lhs, expand_polynomials=True) == \
            ex.simplify_canonical(rhs, expand_polynomials=True)


def test_multiweight_degrees():
    mw = parse_multiweight("x=(1,0),y=(0,1)")
    assert multi_degree({"x": 1, "y": 1}, mw) == (1, 1)
    mw2 = parse_multiweight("x=(1,1)")
    assert multi_degree({"x": 2}, mw2) == (2, 2)
    assert multi_degree({}, mw) == (0, 0)


def test_multiweight_refuses_a_repeated_name():
    with pytest.raises(ValueError) as err:
        parse_multiweight("x=(1,0),x=(0,1)")
    assert str(err.value) == "duplicate variable names"


def test_multi_degree_names_an_unknown_variable():
    with pytest.raises(KeyError) as err:
        multi_degree({"z": 1}, parse_multiweight("x=(1,0)"))
    assert err.value.args == ("unknown variable 'z'",)


def test_multi_filtration_degree():
    mw = parse_multiweight("x=(1,0),y=(0,1)")
    xy = wp.poly_normal_form(parse_expr("x*y"), ("x", "y"))
    assert multi_filtration_degree(xy, mw) == (1, 1)
    mw2 = parse_multiweight("x=(1,1)")
    x2 = wp.poly_normal_form(parse_expr("x^2"), ("x",))
    assert multi_filtration_degree(x2, mw2) == (2, 2)
    zero = wp.wp_zero(("x", "y"))
    assert multi_filtration_degree(zero, mw) == (math.inf, math.inf)
    mixed = wp.poly_normal_form(parse_expr("x*y + x^3"), ("x", "y"))
    assert multi_filtration_degree(mixed, mw) == (1, 0)


def test_total_weighting():
    mw = parse_multiweight("x=(1,1),y=(1,0)")
    W = total_weighting(mw, 2)
    assert W.as_dict() == {"x": 2, "y": 1}
    assert W.order == 2
    # nested-subspace model: deeper variables pick up one unit per level
    mw3 = MultiWeight(("a", "b", "c"),
                      ((1, 1, 1), (1, 1, 0), (1, 0, 0)))
    W3 = total_weighting(mw3)
    assert W3.as_dict() == {"a": 3, "b": 2, "c": 1}
    single = parse_multiweight("x=(2),y=(1)")
    assert total_weighting(single).as_dict() == {"x": 2, "y": 1}
    with pytest.raises(ValueError, match="order"):
        total_weighting(mw, 1)
