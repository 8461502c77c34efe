import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest

from weightings import expr as ex
from weightings.expr import (ParseError, app, const, differentiate,
                             eval_numeric, mul, parse_expr, pow_,
                             simplify_canonical, to_text, var)

from conftest import rand_expr, rand_rational


def test_parse_sum_of_products():
    e = parse_expr("3*z + x^3*y^3")
    assert e == ex.add(mul(const(3), var("z")),
                       mul(pow_(var("x"), 3), pow_(var("y"), 3)))


def test_parse_transcendental_product():
    e = parse_expr("sin(x)*exp(y*z)")
    assert e == mul(app("sin", var("x")), app("exp", mul(var("y"), var("z"))))


def test_parse_constant_folding():
    assert parse_expr("1/2*x - x") == mul(const(Fraction(-1, 2)), var("x"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_expr("x + ")
    assert info.value.position == 4
    with pytest.raises(ParseError, match="unknown function"):
        parse_expr("tan(x)")
    with pytest.raises(ParseError, match="divisor"):
        parse_expr("x/y")
    with pytest.raises(ParseError):
        parse_expr("x + * y")


@pytest.mark.parametrize("text, position", [
    ("x + $", 4), ("x +  $", 5), ("x +   \t$", 7), ("$", 0), ("  $ + x", 2),
])
def test_an_unexpected_character_is_reported_at_the_character(text, position):
    with pytest.raises(ParseError, match="unexpected character '\\$'") as info:
        parse_expr(text)
    assert info.value.position == position == text.index("$")


def test_differentiate_power_rule():
    assert differentiate(parse_expr("x^3"), "x") == parse_expr("3*x^2")


def test_differentiate_product_and_chain():
    got = differentiate(parse_expr("sin(x)*exp(y)"), "x")
    assert got == parse_expr("cos(x)*exp(y)")


def test_differentiate_absent_variable():
    assert differentiate(parse_expr("x"), "y") == ex.ZERO


def test_differentiate_is_linear_and_leibniz():
    rng = random.Random(11)
    names = ["x", "y", "z"]
    for _ in range(100):
        e1 = rand_expr(rng, names)
        e2 = rand_expr(rng, names)
        v = rng.choice(names)
        lhs = differentiate(ex.add(e1, e2), v)
        assert lhs == ex.add(differentiate(e1, v), differentiate(e2, v))
        product = differentiate(mul(e1, e2), v)
        leibniz = ex.add(mul(differentiate(e1, v), e2),
                         mul(e1, differentiate(e2, v)))
        assert ex.simplify_canonical(product, expand_polynomials=True) == \
            ex.simplify_canonical(leibniz, expand_polynomials=True)


def test_simplify_collects_terms():
    assert simplify_canonical(parse_expr("x + x")) == parse_expr("2*x")
    assert simplify_canonical(parse_expr("sin(x) - sin(x)")) == ex.ZERO


def test_simplify_expand_flag():
    got = simplify_canonical(parse_expr("(x+y)^2"), expand_polynomials=True)
    assert got == parse_expr("x^2 + 2*x*y + y^2")


def test_simplify_idempotent():
    rng = random.Random(7)
    for _ in range(100):
        e = rand_expr(rng, ["x", "y"])
        once = simplify_canonical(e)
        assert simplify_canonical(once) == once
        expanded = simplify_canonical(e, expand_polynomials=True)
        assert simplify_canonical(expanded, expand_polynomials=True) == expanded


def _collapsing_sums(seed, count=200):
    """c*S + (1 - c)*S plus random terms, S a random sum: the coefficients of
    S collect to exactly 1.  Some extra terms cancel summands of S."""
    rng = random.Random(seed)
    names = ["x", "y", "z"]
    while count:
        s = rand_expr(rng, names)
        c = rand_rational(rng)
        if not isinstance(s, ex.Sum) or c in (0, 1):
            continue
        terms = [mul(c, s), mul(1 - c, s)]
        terms += [mul(-1, t) for t in s.terms if rng.random() < 0.3]
        terms += [rand_expr(rng, names) for _ in range(rng.randint(0, 3))]
        rng.shuffle(terms)
        yield ex.add(*terms)
        count -= 1


def test_collapsed_sum_is_flattened():
    assert parse_expr("2*(x+y) - (x+y) - x - y") == ex.ZERO
    assert to_text(parse_expr("2*(x+y) - (x+y) + z")) == "x + y + z"
    for e in _collapsing_sums(13):
        assert simplify_canonical(e) == e
        assert parse_expr(to_text(e)) == e
        assert simplify_canonical(e, expand_polynomials=True) == ex.expand(e)


def test_eval_numeric():
    assert eval_numeric(parse_expr("x*y"), {"x": 2, "y": 3}) == 6.0
    assert eval_numeric(parse_expr("exp(0)"), {}) == 1.0
    assert eval_numeric(parse_expr("sin(x)"), {"x": 0}) == 0.0
    with pytest.raises(ValueError, match="unassigned"):
        eval_numeric(parse_expr("x"), {})


def test_eval_matches_simplified():
    rng = random.Random(23)
    names = ["x", "y"]
    for _ in range(60):
        e = rand_expr(rng, names)
        point = {n: rng.uniform(0.3, 1.7) for n in names}
        try:
            a = eval_numeric(e, point)
        except ZeroDivisionError:
            continue
        b = eval_numeric(simplify_canonical(e), point)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_print_parse_round_trip():
    rng = random.Random(2)
    for _ in range(100):
        e = rand_expr(rng, ["x", "y", "z"], depth=4)
        assert parse_expr(to_text(e)) == e


# what each node class prints, by the one rule of expr._node
@pytest.mark.parametrize("text, expected", [
    ("-3/2", "Const(-3/2)"),
    ("x", "Var(x)"),
    ("(1 + y)^-1", "Pow(Sum(Const(1), Var(y)), -1)"),
    ("3/2*sin(x)^2", "Prod(Const(3/2), Pow(App(sin, Var(x)), 2))"),
    ("exp(2*z)", "App(exp, Prod(Const(2), Var(z)))"),
    ("-1/2 + cos(x)*y + x^3",
     "Sum(Const(-1/2), Pow(Var(x), 3), Prod(Var(y), App(cos, Var(x))))"),
], ids=["Const", "Var", "Pow", "Prod", "App", "Sum"])
def test_each_node_class_prints_its_pinned_repr(text, expected):
    assert repr(parse_expr(text)) == expected


def test_special_values_fold():
    assert parse_expr("sin(0)") == ex.ZERO
    assert parse_expr("cos(0)") == ex.ONE
    assert parse_expr("exp(0)") == ex.ONE


def test_semantic_equality_fallback():
    lhs = parse_expr("sin(x)^2 + cos(x)^2")
    rhs = ex.ONE
    assert lhs != rhs
    assert ex.semantically_equal(lhs, rhs)
    assert not ex.semantically_equal(parse_expr("sin(x)"), parse_expr("cos(x)"))


def test_semantic_equality_redraws_at_a_pole():
    # the eighth point of seed 16 is x = 1/2, a pole of both sides
    assert ex.semantically_equal(
        parse_expr("(sin(x)^2 + cos(x)^2)*(2*x - 1)^-1"),
        parse_expr("(2*x - 1)^-1"), seed=16)
    with pytest.raises(ValueError, match="no sample point"):
        ex.semantically_equal(parse_expr("exp(exp(exp(x^2 + 9)))"), ex.ONE)


def test_eval_numeric_sin_and_cos_of_an_infinity_are_nan():
    inf = {"x": float("inf")}
    for text in ("sin(x)", "cos(x)", "sin(-x)"):
        assert math.isnan(ex.eval_numeric(parse_expr(text), inf))
    assert ex.eval_numeric(parse_expr("exp(x)"), inf) == float("inf")


def test_parse_nesting_limit():
    x = var("x")
    depth = ex.MAX_NESTING
    assert parse_expr("(" * depth + "x" + ")" * depth) == x
    assert parse_expr("sin(" * depth + "0" + ")" * depth) == ex.ZERO
    for text in ("(" * (depth + 1) + "x" + ")" * (depth + 1),
                 "sin(" * (depth + 1) + "x" + ")" * (depth + 1),
                 "x + (" * 3000 + "x" + ")" * 3000):
        with pytest.raises(ParseError, match=f"deeper than {depth} levels"):
            parse_expr(text)


# ---------------------------------------------------------------------------
# the node contract: frozen slotted dataclasses that hash once

_NODE_FIELDS = {ex.Const: ["value"], ex.Var: ["name"], ex.Sum: ["terms"],
                ex.Prod: ["factors"], ex.Pow: ["base", "exponent"],
                ex.App: ["fn", "arg"]}


def _subtrees(e):
    yield e
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        children = value if isinstance(value, tuple) else (value,)
        for child in children:
            if isinstance(child, ex.Expr):
                yield from _subtrees(child)


def _field_tuple(e):
    return tuple(getattr(e, f.name) for f in dataclasses.fields(e))


def _random_trees(seed, count=150):
    rng = random.Random(seed)
    return [rand_expr(rng, ["x", "y", "z"], depth=4) for _ in range(count)]


def _rebuilt_shuffled(e, rng):
    """The same canonical tree, rebuilt with children in a random order."""
    if isinstance(e, ex.Const):
        return const(e.value)
    if isinstance(e, ex.Var):
        return var(e.name)
    if isinstance(e, (ex.Sum, ex.Prod)):
        parts = [_rebuilt_shuffled(c, rng) for c in _field_tuple(e)[0]]
        rng.shuffle(parts)
        return ex.add(*parts) if isinstance(e, ex.Sum) else mul(*parts)
    if isinstance(e, ex.Pow):
        return pow_(_rebuilt_shuffled(e.base, rng), e.exponent)
    return app(e.fn, _rebuilt_shuffled(e.arg, rng))


def test_node_fields_unchanged():
    for cls, names in _NODE_FIELDS.items():
        assert dataclasses.is_dataclass(cls)
        assert [f.name for f in dataclasses.fields(cls)] == names


def test_node_hash_is_hash_of_field_tuple():
    for e in _random_trees(41):
        for node in _subtrees(e):
            assert hash(node) == hash(_field_tuple(node))
            assert hash(node) == hash(node)


def test_equal_trees_built_in_different_orders_hash_equal():
    rng = random.Random(43)
    for e in _random_trees(42):
        again = _rebuilt_shuffled(e, rng)
        assert again == e and hash(again) == hash(e)
        fresh = pickle.loads(pickle.dumps(e))
        assert fresh == e and hash(fresh) == hash(e)
        assert len({e, again, fresh}) == 1


def test_nodes_are_frozen_and_slotted():
    for e in _random_trees(44, count=40):
        for node in _subtrees(e):
            assert not hasattr(node, "__dict__")
            name = dataclasses.fields(node)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, getattr(node, name))
            for attr in (name, "_h", "foo"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, attr, 0)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(node, attr)
            before = hash(node)
            assert hash(node) == before == hash(_field_tuple(node))


def test_pickle_round_trip_leaves_out_cached_hash():
    for e in _random_trees(45, count=60):
        fresh = pickle.loads(pickle.dumps(e))
        assert fresh == e and to_text(fresh) == to_text(e)
        assert not any(hasattr(node, "_h") for node in _subtrees(fresh))
        before = pickle.dumps(fresh)
        for node in _subtrees(fresh):
            hash(node)
        assert all(hasattr(node, "_h") for node in _subtrees(fresh))
        assert pickle.dumps(fresh) == before == pickle.dumps(e)


# constants fold in add and mul

def test_two_constants_fold_to_the_node_of_the_general_path():
    rng = random.Random(2004)
    zeros = 0
    for _ in range(600):
        a = ex.const(rand_rational(rng))
        b = ex.const(-a.value if rng.random() < 0.2 else rand_rational(rng))
        for fold, general in ((ex.add(a, b), ex.add(a, b, ex.ZERO)),
                              (ex.mul(a, b), ex.mul(a, b, ex.ONE))):
            assert type(fold) is type(general) is ex.Const
            assert type(fold.value) is type(general.value) is Fraction
            assert fold == general and hash(fold) == hash(general)
            assert repr(fold) == repr(general)
            assert (fold is ex.ZERO) == (general is ex.ZERO) == (fold.value == 0)
            zeros += fold is ex.ZERO
    assert zeros >= 150


def _node_of_each_class(rng) -> dict:
    """Generated canonical nodes by class; a Prod with a leading constant is
    "Prod*", one without it "Prod"."""
    names = ("x", "y", "z")
    nodes: dict = {}
    while min(map(len, nodes.values()), default=0) < 40 or len(nodes) < 7:
        e = rand_expr(rng, names)
        kind = type(e).__name__
        if kind == "Prod" and type(e.factors[0]) is ex.Const:
            kind = "Prod*"
        nodes.setdefault(kind, []).append(e)
    return nodes


def test_a_constant_times_a_node_is_the_node_of_the_general_path():
    rng = random.Random(2505)
    nodes = _node_of_each_class(rng)
    assert set(nodes) == {"Const", "Var", "Sum", "Prod", "Prod*", "Pow", "App"}
    cancelled = 0
    for kind, es in nodes.items():
        for e in es:
            lead = ex._split_coeff(e)[0]
            for q in (ex.ZERO, ex.ONE, ex.const(rand_rational(rng)),
                      ex.const(1 / lead) if lead else ex.ONE):
                general = ex.mul(q, e, ex.ONE)
                for fast in (ex.mul(q, e), ex.mul(e, q)):
                    assert type(fast) is type(general)
                    assert fast == general and hash(fast) == hash(general)
                    assert repr(fast) == repr(general)
                    assert (fast is ex.ZERO) == (general is ex.ZERO)
                cancelled += kind == "Prod*" and q.value * lead == 1
    assert cancelled >= 10
