import math
import random
import re
from fractions import Fraction

import pytest

from weightings import expr as ex
from weightings import jets as jt
from weightings.expr import parse_expr
from weightings.fields import lie_bracket, vf_for_weights
from weightings.jets import (JP_ZERO, dilation, epsilon_shift, evaluate_jet,
                             jet_bracket, jet_lift, jet_point, jp_add,
                             jp_evaluate, jp_mul, jp_scale, jp_slot,
                             reparam, reparam_compose, reparametrize,
                             tm_translate, vf_lift)
from weightings.weights import weight_sequence

from conftest import rand_jetpoly, rand_poly_expr, rand_rational


def _rand_point(rng, names, r):
    return jet_point(names, [[rand_rational(rng) for _ in range(r + 1)]
                             for _ in names])


def _rand_vf(rng, names, order):
    W = weight_sequence({n: 1 for n in names}, max(order, 1))
    coeffs = [rand_poly_expr(rng, names, max_degree=2, max_terms=2)
              for _ in names]
    return vf_for_weights(W, coeffs)


def test_evaluate_jet_basic():
    u = jet_point(("x",), [(0, 1, 0)])
    assert evaluate_jet(parse_expr("x"), u).coeffs == (0, 1, 0)
    c = evaluate_jet(parse_expr("5"), u)
    assert c.coeffs == (5, 0, 0)
    with pytest.raises(ValueError, match="not polynomial"):
        evaluate_jet(parse_expr("sin(x)"), u)


def test_jet_lift_level_one_is_total_differential():
    rng = random.Random(61)
    names = ("x1", "x2")
    for _ in range(20):
        f = rand_poly_expr(rng, names)
        lifted = jet_lift(f, 1, 3, names)
        expected = JP_ZERO
        for a, name in enumerate(names):
            partial = ex.differentiate(f, name)
            base = _expr_to_slot0(partial, names)
            expected = jp_add(expected, jp_mul(base, jp_slot(a, 1)))
        assert lifted == expected


def _expr_to_slot0(f, names):
    """Polynomial expression in chart variables as a level-0 slot polynomial."""
    return jet_lift(f, 0, 0, names)


def test_jet_lift_product_example():
    got = jet_lift(parse_expr("x1*x2"), 2, 2, ("x1", "x2"))
    expected = jp_add(
        jp_mul(jp_slot(0, 0), jp_slot(1, 2)),
        jp_mul(jp_slot(0, 1), jp_slot(1, 1)),
        jp_mul(jp_slot(0, 2), jp_slot(1, 0)))
    assert got == expected


def test_jet_lift_cube_example():
    got = jet_lift(parse_expr("x^3"), 3, 3, ("x",))
    expected = jp_add(
        jp_scale(jp_mul(jp_mul(jp_slot(0, 0), jp_slot(0, 0)), jp_slot(0, 3)), 3),
        jp_scale(jp_mul(jp_mul(jp_slot(0, 0), jp_slot(0, 1)), jp_slot(0, 2)), 6),
        jp_mul(jp_mul(jp_slot(0, 1), jp_slot(0, 1)), jp_slot(0, 1)))
    assert got == expected


def test_jet_lift_oracle_equivalence():
    rng = random.Random(67)
    names = ("x1", "x2", "x3")
    for _ in range(40):
        r = rng.randint(1, 4)
        f = rand_poly_expr(rng, names)
        u = _rand_point(rng, names, r)
        series = evaluate_jet(f, u)
        values = u.slot_map()
        for i in range(r + 1):
            assert series.coeffs[i] == jp_evaluate(
                jet_lift(f, i, r, names), values)


def test_product_rule():
    rng = random.Random(71)
    names = ("x1", "x2", "x3")
    for _ in range(100):
        r = rng.randint(1, 4)
        f = rand_poly_expr(rng, names, max_degree=3)
        g = rand_poly_expr(rng, names, max_degree=3)
        i = rng.randint(0, r)
        lhs = jet_lift(ex.mul(f, g), i, r, names)
        rhs = JP_ZERO
        for j in range(i + 1):
            rhs = jp_add(rhs, jp_mul(jet_lift(f, j, r, names),
                                     jet_lift(g, i - j, r, names)))
        assert lhs == rhs


def test_lift_derivation_law():
    rng = random.Random(73)
    names = ("x1", "x2")
    for _ in range(50):
        r = rng.randint(1, 3)
        X = _rand_vf(rng, names, r)
        f = rand_poly_expr(rng, names, max_degree=3)
        i = rng.randint(0, r)
        ell = rng.randint(0, r)
        xi = vf_lift(X, i, r)
        lhs = jt.jvf_apply(xi, jet_lift(f, ell, r, names))
        xf = ex.add(*[ex.mul(c, ex.differentiate(f, v))
                      for v, c in zip(names, X.coeff_exprs())])
        rhs = jet_lift(xf, ell - i, r, names) if ell >= i else JP_ZERO
        assert lhs == rhs


def test_coordinate_lift():
    W = weight_sequence({"x1": 1, "x2": 1}, 1)
    X = vf_for_weights(W, [ex.ONE, ex.ZERO])
    for r in (1, 2, 3):
        for j in range(r + 1):
            xi = vf_lift(X, j, r)
            assert xi.terms == (((0, j), jt.JP_ONE),)


def test_vf_lift_example():
    W = weight_sequence({"x1": 1, "x2": 2}, 2)
    X = vf_for_weights(W, [ex.ZERO, parse_expr("x1")])
    xi = vf_lift(X, 1, 2)
    assert xi.terms == (((1, 1), jp_slot(0, 0)), ((1, 2), jp_slot(0, 1)))


def test_bracket_relation():
    rng = random.Random(79)
    names = ("x1", "x2", "x3")
    for _ in range(100):
        r = rng.randint(1, 4)
        X = _rand_vf(rng, names, r)
        Y = _rand_vf(rng, names, r)
        i = rng.randint(0, r)
        j = rng.randint(0, r)
        lhs = jet_bracket(vf_lift(X, i, r), vf_lift(Y, j, r))
        if i + j > r:
            assert lhs.is_zero
        else:
            assert lhs == vf_lift(lie_bracket(X, Y), i + j, r)


def test_bracket_antisymmetry():
    rng = random.Random(83)
    names = ("x1", "x2")
    X = _rand_vf(rng, names, 2)
    xi = vf_lift(X, 1, 2)
    assert jet_bracket(xi, xi).is_zero


def test_reparametrize_examples():
    u = jet_point(("x",), [(0, 1, 0)])
    moved = reparametrize(u, reparam([1, 1], order=2))
    assert moved.values == ((0, 1, 1),)
    assert reparametrize(u, reparam([1, 0], order=2)) == u
    # pure dilation scales slot j by t^j
    u2 = jet_point(("x", "y"), [(1, 2, 3), (0, 1, 0)])
    d = reparametrize(u2, dilation(Fraction(1, 2), 2))
    assert d.values == ((1, 1, Fraction(3, 4)), (0, Fraction(1, 2), 0))


def test_reparametrize_monoid_law():
    rng = random.Random(89)
    names = ("x", "y")
    for _ in range(50):
        r = rng.randint(1, 4)
        u = _rand_point(rng, names, r)
        p1 = reparam([rand_rational(rng) for _ in range(r)])
        p2 = reparam([rand_rational(rng) for _ in range(r)])
        lhs = reparametrize(reparametrize(u, p1), p2)
        rhs = reparametrize(u, reparam_compose(p2, p1))
        assert lhs == rhs


def test_grading_of_lifts():
    rng = random.Random(97)
    names = ("x1", "x2")
    for _ in range(30):
        r = rng.randint(1, 3)
        f = rand_poly_expr(rng, names, max_degree=3)
        i = rng.randint(0, r)
        u = _rand_point(rng, names, r)
        t = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        scaled = reparametrize(u, dilation(t, r))
        lifted = jet_lift(f, i, r, names)
        assert jp_evaluate(lifted, scaled.slot_map()) == \
            t ** i * jp_evaluate(lifted, u.slot_map())


def test_tm_translate():
    u = jet_point(("x",), [(0, 1, 0)])
    assert tm_translate(u, (0,), (0,)) == u
    assert tm_translate(u, (0,), (5,)).values == ((0, 1, 5),)
    two = tm_translate(tm_translate(u, (0,), (2,)), (0,), (3,))
    assert two == tm_translate(u, (0,), (5,))
    with pytest.raises(ValueError, match="base"):
        tm_translate(u, (1,), (5,))


def test_epsilon_shift():
    rng = random.Random(101)
    names = ("x1", "x2")
    X = _rand_vf(rng, names, 3)
    for r in (2, 3):
        for i in range(r):
            assert epsilon_shift(vf_lift(X, i, r), r) == vf_lift(X, i + 1, r)
        assert epsilon_shift(vf_lift(X, r, r), r).is_zero


def test_jet_point_text_round_trip():
    u = jet_point(("x", "y"),
                  [(0, 1, 0), (0, 2, 5)])
    text = jt.jet_point_text(u)
    assert text == "x=0:0,1:1,2:0; y=0:0,1:2,2:5"
    assert jt.parse_jet_point(text) == u
    fancy = jt.parse_jet_point("x=0:1/2,1:-3")
    assert fancy.values == ((Fraction(1, 2), Fraction(-3)),)
    with pytest.raises(ValueError, match="missing slot"):
        jt.parse_jet_point("x=0:1,2:0")


def test_parse_reparametrization():
    psi = jt.parse_reparametrization("psi=1*e+1*e^2")
    assert psi == reparam([1, 1])
    assert jt.parse_reparametrization("e - 1/2*e^3") == \
        reparam([1, 0, Fraction(-1, 2)])
    assert jt.parse_reparametrization("2*e", order=3) == reparam([2, 0, 0])
    with pytest.raises(ValueError, match="malformed"):
        jt.parse_reparametrization("psi=e^2 + q")


@pytest.mark.parametrize("text, message", [
    # Fraction would build 10^99999999 before anything else
    ("x=0:1e99999999", "decimal exponent 99999999 exceeds the limit "
                       "MAX_CONSTANT_BITS = 100000"),
    ("x=0:0e-99999999", "decimal exponent -99999999 exceeds the limit "
                        "MAX_CONSTANT_BITS = 100000"),
    ("x=0:1/0", "zero denominator in '1/0'"),
    # a repeated variable or slot level would leave one value unread
    ("x=0:1;x=0:2", "duplicate variable names"),
    ("x=0:1,0:2,1:3", "variable 'x' repeats slot level 0"),
])
def test_parse_jet_point_refuses_before_it_allocates(text, message):
    with pytest.raises(ValueError) as err:
        jt.parse_jet_point(text)
    assert str(err.value) == message


def test_parse_jet_point_keeps_decimal_exponents_within_the_limit():
    assert jt.parse_jet_point("x=0:1.5e3,1:-2E-2").values == (
        (Fraction(1500), Fraction(-1, 50)),)


@pytest.mark.parametrize("text, message", [
    # the order of the reparametrization is the highest power of e
    ("e^" + "9" * 40, f"term e^{'9' * 40} exceeds the limit "
                      f"MAX_REPARAM_ORDER = 1000"),
    ("e^1001", "term e^1001 exceeds the limit MAX_REPARAM_ORDER = 1000"),
    ("1/0*e", "zero denominator in '1/0'"),
])
def test_parse_reparametrization_refuses_before_it_allocates(text, message):
    with pytest.raises(ValueError) as err:
        jt.parse_reparametrization(text)
    assert str(err.value) == message


def test_parse_reparametrization_accepts_the_highest_order():
    assert jt.parse_reparametrization("e^1000").order == jt.MAX_REPARAM_ORDER


# ---------------------------------------------------------------------------
# generated oracles for the slot-polynomial kernel

def _rand_coeff(rng):
    if rng.random() < 0.5:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]))
    return Fraction(rng.choice([-5, -1, 1, 3, 7]), rng.choice([2, 3, 4, 9]))


def _rand_nested(rng, names, budget):
    """Polynomial expression of degree at most budget: sums of scaled
    products whose factors are variables or powers (exponent up to 9) of
    smaller such expressions."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [ex.const(_rand_coeff(rng))]
        left = rng.randint(0, budget)
        while left:
            if left >= 2 and rng.random() < 0.4:
                inner = rng.randint(1, min(3, left))
                e = rng.randint(2, max(2, left // inner))
                if inner * e > left:
                    e = left // inner
                base = _rand_nested(rng, names, inner)
                factors.append(ex.pow_(base, e) if e > 1 else base)
                left -= inner * e
            else:
                factors.append(ex.var(rng.choice(names)))
                left -= 1
        terms.append(ex.mul(*factors))
    return ex.add(*terms)


def test_jet_lift_generated_oracle():
    rng = random.Random(1031)
    for r in range(7):
        for trial in range(6):
            names = ("x1", "x2") if trial % 2 else ("x1", "x2", "x3")
            budget = 9 if len(names) == 2 and r <= 3 else 5
            f = _rand_nested(rng, names, budget)
            if trial == 0:
                f = ex.add(f, ex.pow_(ex.add(ex.var("x1"), ex.mul(
                    ex.const(Fraction(-1, 2)), ex.var("x2"))), 9))
            u = _rand_point(rng, names, r)
            series = evaluate_jet(f, u).coeffs
            values = u.slot_map()
            for i in range(r + 1):
                assert jp_evaluate(jet_lift(f, i, r, names), values) == series[i]


def test_jp_pow_matches_repeated_product():
    rng = random.Random(1033)
    labels = [(a, j) for a in range(2) for j in range(3)] + [(-1, 1)]
    for _ in range(12):
        p = rand_jetpoly(rng, labels, 3, 2)
        expected = jt.JP_ONE
        for e in range(8):
            assert jt.jp_pow(p, e) == expected
            expected = jp_mul(expected, p)
    with pytest.raises(ValueError, match="negative power"):
        jt.jp_pow(jp_slot(0, 0), -1)


def test_jp_reparametrize_matches_numeric_reparametrization():
    # rows of slot polynomials evaluated at a point give a numeric jet; the
    # symbolic reparametrization evaluated there equals reparametrize().
    rng = random.Random(1039)
    for r in range(1, 5):
        labels = [(a, j) for a in range(2) for j in range(r + 1)]
        rows = [[rand_jetpoly(rng, labels, 2, 2)
                 for _ in range(r + 1)] for _ in range(2)]
        psi = [jp_slot(-1, m) for m in range(1, r + 1)]
        values = {label: rand_rational(rng) for label in labels}
        psi_values = [rand_rational(rng) for _ in range(r)]
        values.update({(-1, m): c for m, c in enumerate(psi_values, start=1)})
        point = jet_point(("x", "y"), [[jp_evaluate(g, values) for g in row]
                                       for row in rows])
        moved = reparametrize(point, reparam(psi_values))
        got = jt.jp_reparametrize(rows, psi)
        assert [[jp_evaluate(g, values) for g in row] for row in got] == \
            [list(row) for row in moved.values]


def _assert_contract(p):
    monomials = [m for m, _ in p.terms]
    assert monomials == sorted(set(monomials), key=lambda m: m[::-1])
    assert all(type(c) is Fraction and c != 0 for _, c in p.terms)


def test_outputs_keep_the_jetpoly_contract():
    rng = random.Random(1049)
    names = ("x1", "x2")
    half = Fraction(1, 2)
    a = jp_add(jp_scale(jp_slot(0, 1), half), jp_slot(1, 1))
    b = jp_add(jp_scale(jp_slot(0, 1), half), jp_scale(jp_slot(1, 1), -1))
    outputs = [
        jp_mul(a, b),                       # cross terms cancel
        jp_add(a, jp_scale(a, -1)),         # everything cancels
        jp_add(jp_scale(jt.JP_ONE, half), jp_scale(jt.JP_ONE, half)),
        jt.jp_pow(a, 5),
        jt.jp_substitute(jp_mul(jp_slot(0, 1), jp_slot(1, 2)),
                         {(1, 2): b, (0, 1): jp_scale(jp_slot(1, 1), 2)}),
        jt.jetpoly({(((0, 1), 1),): 2, (): 0}),
    ]
    for _ in range(10):
        f = _rand_nested(rng, names, 4)
        r = rng.randint(0, 4)
        outputs += [jet_lift(f, i, r, names) for i in range(r + 1)]
        X, Y = _rand_vf(rng, names, r), _rand_vf(rng, names, r)
        xi, eta = vf_lift(X, rng.randint(0, r), r), vf_lift(Y, 0, r)
        outputs += [c for _, c in xi.terms]
        outputs += [c for _, c in jet_bracket(xi, eta).terms]
    assert outputs[1].is_zero and outputs[2] == jt.JP_ONE
    for p in outputs:
        _assert_contract(p)


# slot labels (a, j), with the psi labels (-1, m) of the N3 substitution
CANONICAL_LABELS = [(a, j) for a in range(-1, 3) for j in range(5)]


def test_canonical_form_does_not_depend_on_constructor_or_packing():
    rng = random.Random(3402)
    seen = {"zero": 0, "constant term": 0, "den>1": 0, "past 64 bits": 0,
            "shared top label": 0}
    for _ in range(400):
        used = rng.sample(CANONICAL_LABELS, rng.randint(1, 6))
        top = rng.choice([1, 3, 7, 40])
        terms = {}
        for _ in range(rng.randint(0, 10)):
            m = tuple(sorted((label, rng.randint(1, top)) for label in
                             rng.sample(used, rng.randint(0, len(used)))))
            terms[m] = rand_rational(rng, zero_ok=False)
        items = list(terms.items())
        rng.shuffle(items)
        by_dict = jt.jetpoly(dict(items))
        rng.shuffle(items)
        by_sum = jp_add(*[jt.jetpoly({m: c}) for m, c in items])
        # a packing with labels no term holds and fields wider than needed
        extra = rng.sample(CANONICAL_LABELS, rng.randint(0, 8))
        fields = jt._Fields(set(used) | set(extra),
                            top + rng.choice([1, 2 ** 20, 2 ** 70]))
        den = math.lcm(*[c.denominator for c in terms.values()]) * \
            rng.choice([1, 2, 6])
        rng.shuffle(items)
        by_seal = fields.seal(
            {sum(e << fields.offsets[label] for label, e in m):
             c.numerator * (den // c.denominator) for m, c in items}, den)
        # the same terms in no order, put in order by substitution and scaling
        rng.shuffle(items)
        unordered = jt.JetPoly(tuple(items))
        by_substitute = jt.jp_substitute(unordered, {})
        by_scale = jp_scale(unordered, 1)
        built = [by_dict, by_sum, by_seal, by_substitute, by_scale]
        assert all(p == by_dict and hash(p) == hash(by_dict) for p in built), \
            (items, [p.terms for p in built])
        for p in built:  # terms strictly increasing under m[::-1]
            _assert_contract(p)
        seen["zero"] += by_dict.is_zero
        seen["constant term"] += () in terms
        seen["den>1"] += den > 1
        seen["past 64 bits"] += fields.width * len(fields.labels) > 64
        seen["shared top label"] += len({m[-1][0] for m in terms if m}) < \
            sum(1 for m in terms if m)
    assert min(seen.values()) >= 20, seen


def test_seal_builds_one_fraction_per_distinct_numerator():
    rng = random.Random(1902)
    labels = [(a, j) for a in range(-1, 3) for j in range(4)]
    for _ in range(300):
        p = rand_jetpoly(rng, labels, max_terms=8, max_exponent=3)
        fields = jt._Fields(jt.jp_labels(p), 3)
        (nums,), den = fields.raw(p)
        nums = {m: rng.choice([0, 1, -2, 3]) * v for m, v in nums.items()}
        den *= rng.choice([1, 1, 2, 6])
        sealed = fields.seal(nums, den)
        assert len({id(c) for _, c in sealed.terms}) == \
            len({c for _, c in sealed.terms})


def test_jp_text_fixed_renderings():
    s = jp_slot
    cases = [
        (jet_lift(parse_expr("x1*x2 - 3/2*x2^2 + 5"), 0, 2, ("x1", "x2")), None,
         "5 + x1.0*x2.0 - 3/2*x2.0^2"),
        (jet_lift(parse_expr("x1*x2 - 3/2*x2^2 + 5"), 2, 2, ("x1", "x2")), ("x", "y"),
         "x.0*y.2 + x.1*y.1 + x.2*y.0 - 3*y.0*y.2 - 3/2*y.1^2"),
        (jet_lift(parse_expr("(x - 2*y)^3"), 3, 4, ("x", "y")), ("x", "y"),
         "6*x.0*x.1*x.2 - 12*x.0*x.1*y.2 - 12*x.0*x.2*y.1 - 12*x.0*x.3*y.0"
         " + 24*x.0*y.0*y.3 + 24*x.0*y.1*y.2 + 3*x.0^2*x.3 - 6*x.0^2*y.3"
         " - 12*x.1*x.2*y.0 + 24*x.1*y.0*y.2 + 12*x.1*y.1^2 - 6*x.1^2*y.1"
         " + x.1^3 + 24*x.2*y.0*y.1 + 12*x.3*y.0^2 - 48*y.0*y.1*y.2"
         " - 24*y.0^2*y.3 - 8*y.1^3"),
        (jet_lift(parse_expr("-x^2*y/7 + (1/3)*y"), 1, 1, ("x", "y")), None,
         "-2/7*x1.0*x1.1*x2.0 - 1/7*x1.0^2*x2.1 + 1/3*x2.1"),
        (jp_scale(jt.jp_pow(jp_add(s(0, 1), s(1, 2)), 2), Fraction(-2, 3)), None,
         "-2/3*x1.1^2 - 4/3*x1.1*x2.2 - 2/3*x2.2^2"),
        (jp_add(jp_mul(s(0, 1), s(1, 2)), jp_scale(jp_mul(s(0, 2), s(1, 1)), -1)),
         ("a", "b"), "a.1*b.2 - a.2*b.1"),
        (jp_add(jt.JP_ONE, jp_scale(jt.JP_ONE, Fraction(1, 2))), None, "3/2"),
        (jp_add(s(0, 1), jp_scale(s(0, 1), -1)), None, "0"),
    ]
    for p, names, text in cases:
        assert jt.jp_text(p, names) == text


# ---------------------------------------------------------------------------
# truncated-scalar powers

def test_jet_scalar_power_with_a_huge_exponent():
    n = 10 ** 9
    u = jet_point(("x",), [(1, 1, 0)])
    assert evaluate_jet(parse_expr("x^1000000000"), u).coeffs == \
        (1, n, n * (n - 1) // 2)
    # (-1 + eps)^n = (-1)^n (1 - eps)^n, and eps^n vanishes for n > 2
    assert jt.jet_scalar([-1, 1, 0]) ** n == jt.jet_scalar([1, -n, n * (n - 1) // 2])
    assert jt.jet_scalar([0, 1, 0]) ** n == jt.jet_scalar([0, 0, 0])


def test_jet_scalar_small_powers_equal_the_repeated_product():
    rng = random.Random(1061)
    for _ in range(20):
        s = jt.jet_scalar([rand_rational(rng) for _ in range(rng.randint(1, 5))])
        expected = jt.jet_scalar_const(1, s.order)
        for e in range(10):
            assert s ** e == expected
            expected = expected * s


# ---------------------------------------------------------------------------
# packed monomials at their field boundaries, against a dict-of-tuples
# reference: {monomial tuple: Fraction} with no zero coefficients

def _ref(p):
    return dict(p.terms)


def _ref_clean(acc):
    return {m: c for m, c in acc.items() if c}


def _ref_add(*polys):
    acc = {}
    for p in polys:
        for m, c in p.items():
            acc[m] = acc.get(m, 0) + c
    return _ref_clean(acc)


def _ref_mul(p, q):
    acc = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for label, e in m2:
                exps[label] = exps.get(label, 0) + e
            m = tuple(sorted(exps.items()))
            acc[m] = acc.get(m, 0) + c1 * c2
    return _ref_clean(acc)


def _ref_pow(p, e):
    out = {(): Fraction(1)}
    for _ in range(e):
        out = _ref_mul(out, p)
    return out


def _ref_diff(p, label):
    acc = {}
    for m, c in p.items():
        exps = dict(m)
        e = exps.pop(label, 0)
        if e > 1:
            exps[label] = e - 1
        if e:
            key = tuple(sorted(exps.items()))
            acc[key] = acc.get(key, 0) + c * e
    return _ref_clean(acc)


def _ref_apply(field, p):
    return _ref_add(*[_ref_mul(c, _ref_diff(p, label)) for label, c in field.items()])


def _ref_substitute(p, mapping):
    pieces = []
    for m, c in p.items():
        piece = {(): c}
        for label, e in m:
            factor = (_ref_pow(mapping[label], e) if label in mapping
                      else {((label, e),): Fraction(1)})
            piece = _ref_mul(piece, factor)
        pieces.append(piece)
    return _ref_add(*pieces)


def _ref_reparametrize(rows, psi):
    r = len(psi)
    Psi = [{}] + psi

    def series_mul(a, b):
        out = [{} for _ in range(r + 1)]
        for i in range(r + 1):
            for j in range(r + 1 - i):
                out[i + j] = _ref_add(out[i + j], _ref_mul(a[i], b[j]))
        return out

    out = []
    for row in rows:
        acc = [{} for _ in range(r + 1)]
        power = [{(): Fraction(1)}] + [{} for _ in range(r)]
        for value in row:
            acc = [_ref_add(level, _ref_mul(value, p)) for level, p in zip(acc, power)]
            power = series_mul(power, Psi)
        out.append(acc)
    return out


# psi labels (-1, m) as jp_reparametrize takes them, and sparse labels
BOUNDARY_LABELS = [(-1, 1), (-1, 2), (0, 0), (0, 3), (2, 5), (7, 0)]
# every field width from 1 to 9 bits, at its largest value and one past it
BOUNDARY_TARGETS = [t for k in range(1, 9) for t in (2 ** k - 1, 2 ** k)]


def _split(rng, total, parts):
    """parts non-negative ints summing to total, the first at least 1."""
    cuts = sorted(rng.randint(0, total - 1) for _ in range(parts - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total - 1])]
    return [sizes[0] + 1] + sizes[1:]


def _divisor(rng, total, most):
    return rng.choice([d for d in range(1, min(total, most) + 1) if total % d == 0])


def _boundary_poly(rng, lead, top, terms=2):
    """A lead term lead^top (top >= 0), plus terms whose exponents stay at
    most max(top, 1), so the largest exponent is top (or 1)."""
    p = {((lead, top),) if top else (): _rand_coeff(rng)}
    for _ in range(rng.randint(0, terms)):
        labels = rng.sample(BOUNDARY_LABELS, rng.randint(1, 2))
        m = tuple(sorted((label, rng.randint(1, max(top, 1))) for label in labels))
        p[m] = _rand_coeff(rng)
    return p


def _jp(p):
    return jt.jetpoly(p)


def _check(got, expected):
    _assert_contract(got)
    assert _ref(got) == expected


def _boundary_mul(rng, target, lead, other, third):
    # lead^p * lead^q reaches p + q
    p, q = _split(rng, target, 2)
    a, b = _boundary_poly(rng, lead, p), _boundary_poly(rng, lead, q)
    _check(jp_mul(_jp(a), _jp(b)), _ref_mul(a, b))


def _boundary_pow(rng, target, lead, other, third):
    # (lead^s + ...)^e reaches e * s
    e = _divisor(rng, target, 12)
    a = _boundary_poly(rng, lead, target // e, terms=1)
    _check(jt.jp_pow(_jp(a), e), _ref_pow(a, e))


def _boundary_substitute(rng, target, lead, other, third):
    # other^e with other -> lead^s + ... reaches e * s, beside a slot left
    # alone and a slot mapped to zero
    e = _divisor(rng, target, 12)
    g = _boundary_poly(rng, lead, target // e)
    p = {((other, e),): _rand_coeff(rng),
         ((third, 1),): _rand_coeff(rng),
         tuple(sorted([(other, 1), (lead, 1)])): _rand_coeff(rng)}
    mapping = {other: g, lead: {}}
    _check(jt.jp_substitute(_jp(p), {k: _jp(v) for k, v in mapping.items()}),
           _ref_substitute(p, mapping))


def _boundary_fields(rng, target, lead, other, third):
    """xi = lead^q d/d[other] + ..., and a polynomial lead^p * other + ...,
    so xi applied to it reaches p + q."""
    p, q = _split(rng, target, 2)
    field = {other: _boundary_poly(rng, lead, q),
             third: _boundary_poly(rng, other, 1)}
    poly = _ref_add(_ref_mul({((lead, p),): Fraction(3)},
                             {((other, 1),): Fraction(1)}),
                    _boundary_poly(rng, third, p))
    return field, poly


def _jvf(field):
    return jt.jet_vf({label: _jp(c) for label, c in field.items()})


def _boundary_apply(rng, target, lead, other, third):
    field, poly = _boundary_fields(rng, target, lead, other, third)
    _check(jt.jvf_apply(_jvf(field), _jp(poly)), _ref_apply(field, poly))


def _boundary_bracket(rng, target, lead, other, third):
    field, poly = _boundary_fields(rng, target, lead, other, third)
    eta = {third: poly, lead: _boundary_poly(rng, other, 2)}
    got = jet_bracket(_jvf(field), _jvf(eta))
    for label in set(field) | set(eta):
        minus = _ref_apply(eta, field.get(label, {}))
        expected = _ref_add(_ref_apply(field, eta.get(label, {})),
                            {m: -c for m, c in minus.items()})
        _check(got.coefficient(label), expected)


def _boundary_reparametrize(rng, target, lead, other, third):
    # rows[a][r] * psi[0]^r with rows[a][r] = lead^q + ... and
    # psi[0] = lead^s + ... reaches q + r * s
    r = rng.randint(1, 3)
    s = _divisor(rng, target, target // r) if target >= r else 0
    psi = [_boundary_poly(rng, lead, s, terms=1)] + \
        [{(((-1, m), 1),): Fraction(1)} for m in range(2, r + 1)]
    rows = [[_boundary_poly(rng, lead, target - r * s, terms=1)
             for _ in range(r + 1)] for _ in range(2)]
    got = jt.jp_reparametrize([[_jp(v) for v in row] for row in rows],
                              [_jp(v) for v in psi])
    for got_row, expected_row in zip(got, _ref_reparametrize(rows, psi)):
        for g, expected in zip(got_row, expected_row):
            _check(g, expected)


@pytest.mark.parametrize("op", [_boundary_mul, _boundary_pow,
                                _boundary_substitute, _boundary_apply,
                                _boundary_bracket, _boundary_reparametrize],
                         ids=["mul", "pow", "substitute", "apply", "bracket",
                              "reparametrize"])
def test_packed_products_at_field_boundaries(op):
    rng = random.Random(1063)
    for target in BOUNDARY_TARGETS:
        for _ in range(3):
            op(rng, target, *rng.sample(BOUNDARY_LABELS, 3))


# ---------------------------------------------------------------------------
# large powers

@pytest.mark.parametrize("e", [20, 40, 80])
def test_large_power_lifts_match_the_truncated_evaluation(e):
    # (a x + b y + c)^e at every level up to 6; with c != 0 the level-6 lift
    # has about (e^2 / 2) * 65 terms, so c is drawn only for e = 20.
    rng = random.Random(1069 + e)
    a, b = rand_rational(rng, zero_ok=False), rand_rational(rng, zero_ok=False)
    c = rand_rational(rng, zero_ok=False) if e == 20 else Fraction(0)
    f = ex.pow_(ex.add(ex.mul(ex.const(a), ex.var("x")),
                       ex.mul(ex.const(b), ex.var("y")), ex.const(c)), e)
    names = ("x", "y")
    u = _rand_point(rng, names, 6)
    series = evaluate_jet(f, u).coeffs
    values = u.slot_map()
    for i in range(7):
        assert jp_evaluate(jet_lift(f, i, 6, names), values) == series[i]


@pytest.mark.parametrize("chart, message", [
    (("x", "x"), "duplicate variable names"),
    (("x", "y", "x"), "duplicate variable names"),
    (("x", ""), "empty variable name"),
])
def test_jet_lift_refuses_repeated_or_empty_names(chart, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        jt.jet_lift(parse_expr("x^2"), 1, 1, chart)


@pytest.mark.parametrize("coeff, message", [
    ("sin(t)*x", "input is not polynomial (sin head)"),
    ("x^2 + exp(t)", "input is not polynomial (exp head)"),
    ("t^-1*x", "input is not polynomial (negative power)"),
    ("3*x + (t + 1)^-2", "input is not polynomial (negative power)"),
])
def test_vf_lift_refuses_a_non_polynomial_weight_zero_coefficient(coeff,
                                                                  message):
    # t has weight 0, so the term maps keep sin(t) or t^-1 as a coefficient
    # c_s and the lift meets it when it lifts c_s
    W = weight_sequence([("t", 0), ("x", 1)], 3)
    X = vf_for_weights(W, [parse_expr("x*t^2"), parse_expr(coeff)])
    assert X.coeffs[1].pvars == ("x",)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        vf_lift(X, 1, 3)
