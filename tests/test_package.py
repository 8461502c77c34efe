"""The package's public surface: the names `weightings` exports, by module."""

import ast
import importlib
import pathlib
import sys

import pytest

import weightings

EXPORTED = {
    "expr": """App Const Expr ParseError Pow Prod Sum Var add app const
        differentiate eval_numeric expand mul parse_expr pow_
        semantically_equal simplify_canonical substitute to_text var
        variables""",
    "weights": """MultiWeight WeightSequence ideal_generators multi_degree
        multi_filtration_degree parse_multiweight parse_weight_assignments
        total_weighting weight_sequence""",
    "wpoly": """WeightedPoly dilate filtration_degree homogeneous_approx
        homogeneous_part poly_normal_form to_expr weighted_taylor
        wpoly_text""",
    "fields": """DifferentialFormPoly GradedLieAlgebra PolyVectorField contract
        coordinate_field d_form d_poly euler_field form
        form_filtration_degree gla_bracket homogeneous_approx_vf lie_bracket
        lie_derivative_form nilpotent_frames vf_apply vf_filtration_degree
        vf_for_weights vf_from_exprs""",
    "jets": """JetPoint JetPoly JetScalar JetVectorField Reparametrization
        dilation epsilon_shift evaluate_jet jet_bracket jet_lift jet_point
        jet_point_text jet_scalar jetpoly parse_jet_point
        parse_reparametrization reparam reparam_compose reparametrize
        tm_translate vf_lift""",
    "subbundle": """AdaptedChange DiffOpStandardForm Frame GraphSubbundle
        WeightingVerdict adapted_coordinates apply_diffop check_weighting
        coefficient_q_weight coordinate_graph derive_weights diffop frame
        graph_subbundle
        induced_filtration_degree k_membership normal_order q_membership
        quotient_to_normal standard_q substitute_graph verify_adapted""",
    "spaces": """BlowupField CoordinateChange DeformationField
        DeformationFunction RationalMonomialMap ScalingReport blowup_chart
        blowup_chart_inverse blowup_lift_vf check_morphism compose_rational
        coordinate_change def_interpolant def_vf_interpolant
        euler_like_check nu_transition scaling_order_estimate theta_field""",
}
NAMES = {name: module for module, names in EXPORTED.items()
         for name in names.split()}


def test_all_lists_the_exported_names():
    assert sorted(weightings.__all__) == sorted(NAMES)
    assert weightings.__version__ == "0.1.0"


def test_each_name_is_the_submodule_object():
    for name, module_name in NAMES.items():
        module = importlib.import_module(f"weightings.{module_name}")
        assert getattr(weightings, name) is getattr(module, name), name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from weightings import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert all(namespace[name] is getattr(weightings, name) for name in NAMES)


def test_submodules_import_through_the_package():
    from weightings import expr, spaces
    assert expr is sys.modules["weightings.expr"]
    assert weightings.spaces is spaces
    assert set(EXPORTED) <= set(dir(weightings))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weightings.no_such_name
    assert not hasattr(weightings, "cached_property")
    with pytest.raises(ImportError):
        exec("from weightings import no_such_name", {})


# ---------------------------------------------------------------------------
# public methods that no other test calls, pinned by their exact results

def _raised(make):
    try:
        make()
    except TypeError as err:
        return type(err).__name__, str(err)


def _public_method_cases():
    from fractions import Fraction

    from weightings import expr as ex
    from weightings import jets as jt
    from weightings import spaces as sp
    from weightings import subbundle as sb
    from weightings.fields import vf_for_weights
    from weightings.weights import weight_sequence

    x, y = ex.var("x"), ex.var("y")
    p = jt.jp_slot(0, 1) * jt.jp_slot(1, 0) + jt.jp_const(Fraction(1, 2))
    fr = sb.frame(weight_sequence([("x", 1), ("y", 2)], 2), [[1, 0], [0, 1]])
    W = weight_sequence([("a", 0), ("x", 1), ("y", 2)], 2)
    cases = {
        "Expr - Expr": (lambda: x - y, ex.parse_expr("x - y")),
        "int - Expr": (lambda: 2 - x, ex.parse_expr("2 - x")),
        "Expr / int": (lambda: x / 2, ex.parse_expr("1/2*x")),
        "Expr / Fraction": (lambda: x / Fraction(2, 3), ex.parse_expr("3/2*x")),
        "Expr / Const": (lambda: x / ex.const(3), ex.parse_expr("1/3*x")),
        "Expr / Expr": (lambda: _raised(lambda: x / y),
                        ("TypeError", "division only by rational constants")),
        "str(Expr)": (lambda: str(ex.parse_expr("x^2*sin(y) - (x + y)^3/2")),
                      "-1/2*(x + y)^3 + sin(y)*x^2"),
        "JetPoly + int": (lambda: str(p + 1), "3/2 + x1.1*x2.0"),
        "-JetPoly": (lambda: str(-p), "-1/2 - x1.1*x2.0"),
        "str(JetPoly)": (lambda: str(p), "1/2 + x1.1*x2.0"),
        "str(Reparametrization)": (
            lambda: str(jt.reparam([1, 0, Fraction(-1, 2)])),
            "psi=1*e + -1/2*e^3"),
        "str(zero Reparametrization)": (lambda: str(jt.reparam([0, 0])),
                                        "psi=0"),
        "str(WeightingVerdict)": (lambda: str(sb.WeightingVerdict(
            False, reason=sb.LAMBDA_INVARIANCE, witness="slot y.1 moves")),
            "rejected LAMBDA_INVARIANCE: slot y.1 moves"),
        "str(DiffOpStandardForm)": (lambda: str(sb.diffop(fr, {
            (0, 0): x, (0, 1): ex.const(3), (1, 2): x + y})),
            "(x) + (3) V2 + (x + y) V1V2^2"),
        "str(zero DiffOpStandardForm)": (lambda: str(sb.diffop(fr, {})), "0"),
        "str(RationalMonomialMap)": (
            lambda: str(sp.blowup_chart(W, "y", "-")),
            "t = t; z1 = y1; z2 = y2*y3^(-1/2); z3 = t*y3^(1/2)"),
        "str(inverse RationalMonomialMap)": (
            lambda: str(sp.blowup_chart_inverse(W, "y", "-")),
            "t = t; y1 = z1; y2 = t^(-1)*z2*z3; y3 = t^(-2)*z3^2"),
        "str(RationalMonomialMap with coefficients)": (
            lambda: str(sp.rational_map(("u",), ("a", "b"), {
                "a": (2, {"u": 3}), "b": (Fraction(1, 2), {})})),
            "a = 2*u^3; b = 1/2"),
        "str(JetVectorField)": (
            lambda: str(jt.jet_vf({(0, 1): p, (1, 2): jt.jp_const(-1)})),
            "(1/2 + x1.1*x2.0) d/d[x1.1] + (-1) d/d[x2.2]"),
        "str(zero JetVectorField)": (lambda: str(jt.jet_vf({})), "0"),
        "str(PolyVectorField)": (lambda: str(vf_for_weights(W, [
            0, ex.parse_expr("a*x"), ex.parse_expr("x^2 - 3*y")])),
            "(a*x) d/d[x] + (-3*y + x^2) d/d[y]"),
        "str(zero PolyVectorField)": (
            lambda: str(vf_for_weights(W, [0, 0, 0])), "0"),
    }
    return [pytest.param(make, expected, id=name)
            for name, (make, expected) in cases.items()]


@pytest.mark.parametrize("make, expected", _public_method_cases())
def test_public_methods_give_their_pinned_results(make, expected):
    assert make() == expected


# ---------------------------------------------------------------------------
# guards and branches that no other test runs, pinned by their exact results

def _outcome(make):
    try:
        return make()
    except (KeyError, TypeError, ValueError) as err:
        return type(err).__name__, err.args[0]


def _guard_cases():
    from fractions import Fraction

    from weightings import cli
    from weightings import expr as ex
    from weightings import fields as fd
    from weightings import jets as jt
    from weightings import spaces as sp
    from weightings import subbundle as sb
    from weightings import wpoly as wp
    from weightings.weights import MultiWeight, WeightSequence, weight_sequence

    W = weight_sequence({"x": 1, "y": 2}, 2)
    other = weight_sequence({"x": 1, "z": 2}, 2)
    x = wp.poly_normal_form(ex.var("x"), W.positive_vars)
    x_alone = wp.poly_normal_form(ex.var("x"), ("x",))
    X = fd.vf_for_weights(W, [ex.var("x"), ex.ONE])
    Z = fd.vf_for_weights(other, [ex.ONE, ex.ZERO])
    Q = sb.standard_q(W)
    W0 = weight_sequence({"a": 0, "x": 1}, 1)
    fr = sb.frame(W, [[1, 0], [ex.var("x"), 1]])
    # the 3-field frame of the CI smoke line
    fr3 = sb.frame(weight_sequence([("x1", 1), ("x2", 2), ("x3", 3)]), [
        [ex.parse_expr(e) for e in row]
        for row in (("1", "2*x1", "3*x2"), ("0", "1", "5*x1"), ("0", "0", "1"))])
    inner = sp.rational_map(("u", "v"), ("a", "b"),
                            {"a": (2, {"u": 1}), "b": (1, {"v": 1})})

    def outer(q):
        return sp.rational_map(("a", "b"), ("p",), {"p": (1, {"a": q, "b": -1})})

    def value(message):
        return "ValueError", message

    u = jt.jet_point(("x",), [[1, 2]])

    form = fd.form
    cases = {
        "WeightSequence.__replace__": (lambda: W.__replace__(order=3),
                                       weight_sequence({"x": 1, "y": 2}, 3)),
        "WeightSequence counts": (lambda: WeightSequence(("x", "y"), (1,), 1),
                                  value("variable and weight counts differ")),
        "WeightSequence negative": (lambda: WeightSequence(("x",), (-1,), 1),
                                    value("weights must be nonnegative")),
        "weight_of unknown": (lambda: W.weight_of("q"),
                              ("KeyError", "unknown variable 'q'")),
        "weight_sequence empty": (lambda: weight_sequence([]),
                                  value("no weight assignments given")),
        "MultiWeight empty": (lambda: MultiWeight((), ()),
                              value("multi-weight needs at least one variable")),
        "MultiWeight counts": (lambda: MultiWeight(("x", "y"), ((1,),)),
                               value("variable and weight counts differ")),
        "MultiWeight dimension 0": (lambda: MultiWeight(("x",), ((),)), value(
            "multi-weight dimension must be at least 1")),
        "MultiWeight negative": (lambda: MultiWeight(("x",), ((-1,),)),
                                 value("multi-weight entries must be nonnegative")),
        "wp_add empty": (lambda: wp.wp_add(), value("empty sum")),
        "wp_add splits": (lambda: wp.wp_add(x, x_alone),
                          value("mismatched variable splits")),
        "wp_mul splits": (lambda: wp.wp_mul(x, x_alone),
                          value("mismatched variable splits")),
        "dilate collision": (lambda: wp.dilate(x, W, "y"), value(
            "dilation parameter 'y' collides with a variable")),
        "weighted_taylor negative": (lambda: wp.weighted_taylor(ex.var("x"), W, -1),
                                     value("truncation degree must be nonnegative")),
        "homogeneous_approx_vf below": (lambda: fd.homogeneous_approx_vf(
            X, W, 0), value("vector field has filtration degree below 0")),
        "lie_bracket charts": (lambda: fd.lie_bracket(X, Z),
                               value("vector fields live on different charts")),
        "form index length": (lambda: fd.DifferentialFormPoly(W.vars, 2, (
            ((0,), x),)), value("index tuple length must equal form degree")),
        "form_add types": (lambda: fd.form_add(form(W.vars, 1, {}), form(
            W.vars, 2, {})), value("cannot add forms of different type")),
        "contract 0-form": (lambda: fd.contract(X, form(W.vars, 0, {(): x})),
                            value("cannot contract a 0-form")),
        "lie_derivative_form 0-form": (
            lambda: fd.lie_derivative_form(X, form(W.vars, 0, {(): x})),
            value("use vf_apply for functions")),
        "coordinate_graph off the base": (lambda: sb.coordinate_graph(
            {"x": 1, "y": 2}, 2, {"y": ex.parse_expr("x + 1")}),
            value("shear for 'y' does not vanish on the base")),
        # x2.1 = t.0*x3.1 and x3.1 = t.0*x2.1: no slot can be solved first
        "coordinate_graph cycle": (lambda: sb.coordinate_graph(
            {"t": 0, "x2": 2, "x3": 2}, 2, {"x2": ex.parse_expr("t*x3"),
                                            "x3": ex.parse_expr("t*x2")}),
            value("slot x2.1 depends on itself through the shears")),
        "coordinate_graph outside the chart": (lambda: sb.coordinate_graph(
            {"x": 1}, 1, {"q": ex.parse_expr("x^2")}),
            value("shear for 'q', which is not a chart variable")),
        "graph_subbundle slot": (lambda: sb.graph_subbundle(("x",), 1, {
            (1, 0): jt.JP_ZERO}), value("constraint slot (1,0) out of range")),
        "q_membership chart": (
            lambda: sb.q_membership(Q, jt.jet_point(("x", "z"), [[0] * 3] * 2)),
            value("jet point does not match the subbundle chart")),
        # Q's own variables, one order too many
        "q_membership order": (
            lambda: sb.q_membership(Q, jt.jet_point(W.vars, [[0] * (Q.order + 2)] * 2)),
            value("jet point does not match the subbundle chart")),
        "k_membership level": (lambda: sb.k_membership(Q, X, 3),
                               value("level 3 outside 0..2")),
        "k_membership chart": (lambda: sb.k_membership(Q, Z, 0), value(
            "vector field chart does not match the subbundle")),
        "Frame chart": (lambda: sb.Frame(W, (X, Z)),
                        value("frame field lives on a different chart")),
        # a bool, or an int outside 0..n-1, is no frame index
        **{f"normal_order item {item!r}": (
            lambda item=item: sb.normal_order(fr3, [item]),
            value(f"word item {item!r} is no frame index 0..2")) for item in (3, -1, True)},
        "normal_order item after a valid one": (
            lambda: sb.normal_order(fr3, [2, 5]),
            value("word item 5 is no frame index 0..2")),
        "coefficient_q_weight zero": (lambda: sb.coefficient_q_weight(
            sb.diffop(fr, {}), W), value("zero operator has no weight")),
        # y V_1 + V_2 on x^2 y, with V_1 = d/dx and V_2 = x d/dx + d/dy
        "apply_diffop of a WeightedPoly": (lambda: sb.apply_diffop(
            sb.diffop(fr, {(1, 0): ex.var("y"), (0, 1): ex.ONE}),
            wp.poly_normal_form(ex.parse_expr("x^2*y"), W.positive_vars)),
            ex.parse_expr("x^2 + 2*x*y^2 + 2*x^2*y")),
        "DeformationField.coefficient": (
            lambda: [sp.theta_field(W0).coefficient(n) for n in ("y2", "y1")],
            [ex.parse_expr("-y2"), ex.ZERO]),
        "euler_like_check zero": (lambda: sp.euler_like_check(
            fd.vf_for_weights(W, [ex.ZERO, ex.ZERO]), W), False),
        # a weight-0 target coordinate is not checked
        "check_morphism weight 0": (lambda: sp.check_morphism(sp.coordinate_change(
            W0, W0, [ex.parse_expr("1 + x"), ex.var("x")])), True),
        "compose_rational power": (lambda: sp.compose_rational(
            outer(2), inner).components, (("p", (4, (("u", 2), ("v", -1)))),)),
        "compose_rational fractional power": (
            lambda: sp.compose_rational(outer(Fraction(1, 2)), inner),
            value("cannot raise a non-unit coefficient to a fractional power "
                  "in a chart composition")),
        "RationalMonomialMap.component unknown": (
            lambda: sp.blowup_chart(W, "y").component("q"), ("KeyError", "q")),
        # the slot is named as jp_text names it without chart names
        "jp_evaluate no value": (lambda: jt.jp_evaluate(
            jt.jet_lift(ex.var("x"), 1, 1, ("x",)), {}),
            value("no value for slot x1.1")),
        # a value that is no JetPoly or Expr node
        "as_jetpoly str": (lambda: jt.as_jetpoly("x"), (
            "TypeError", "cannot interpret 'x' as a jet polynomial")),
        "evaluate_jet unknown node": (lambda: jt.evaluate_jet("x", u), (
            "TypeError", "unknown expression node 'x'")),
        "_generic_series unknown node": (
            lambda: jt.jet_lift("x", 0, 0, ("x",)),
            ("TypeError", "unknown expression node 'x'")),
        "JetScalar negative power": (lambda: jt.jet_scalar([1, 2]) ** -1,
                                     value("negative power in the truncated algebra")),
        "as_jetscalar orders": (lambda: jt.as_jetscalar(jt.jet_scalar([1, 2]), 2),
                                value("mixed truncation orders")),
        "JetPoint orders": (lambda: jt.jet_point(("x", "y"), [[0, 1], [0]]),
                            value("all slot vectors must share one order")),
        "evaluate_jet chart": (lambda: jt.evaluate_jet(ex.var("y"), u),
                               value("variable 'y' is not a chart variable")),
        "evaluate_jet negative power": (
            lambda: jt.evaluate_jet(ex.parse_expr("x^-1"), u),
            value("input is not polynomial (negative power)")),
        "vf_lift level": (lambda: jt.vf_lift(X, 3, 2),
                          value("lift level 3 outside 0..2")),
        "vf_lift chart": (lambda: jt.vf_lift(fd.vf_from_exprs(
            ("x",), [ex.var("y")], ("x", "y")), 0, 1),
            value("variable 'y' is not a chart variable")),
        "reparametrize order": (lambda: jt.reparametrize(u, jt.reparam([1, 0])),
                                value("reparametrization order does not match "
                                      "the point")),
        "reparam_compose orders": (
            lambda: jt.reparam_compose(jt.reparam([1]), jt.reparam([1, 0])),
            value("mixed truncation orders")),
        "tm_translate count": (lambda: jt.tm_translate(u, [1], [1, 2]),
                               value("one component per variable required")),
        "parse_reparametrization order": (
            lambda: jt.parse_reparametrization("e^3", 2),
            value("term e^3 above truncation order 2")),
        "app unknown": (lambda: ex.app("tan", ex.var("x")),
                        value("unknown function 'tan'")),
        "eval_exact transcendental": (
            lambda: ex.eval_exact(ex.parse_expr("sin(x)"), {"x": 1}),
            value("expression does not evaluate to a rational: sin(1)")),
        "parse_expr division by zero": (lambda: ex.parse_expr("1/0"), (
            "ParseError", "division by zero (at position 1)")),
        "semantically_equal canonical": (
            lambda: ex.semantically_equal(ex.var("x"), ex.var("x")), True),
        # exp(709) and exp(708) are finite floats, their product is not
        "semantically_equal never finite": (lambda: ex.semantically_equal(
            ex.parse_expr("exp(709)*exp(708)"), ex.ONE),
            value("no sample point where both expressions are finite")),
        "execute unknown command": (
            lambda: cli.execute(cli.Command("nope", {})),
            ("UsageError", "unknown command 'nope'")),
        # a value that is no Expr node, at each walk over the node types
        "as_expr str": (lambda: ex.as_expr("x"), (
            "TypeError", "cannot interpret 'x' as an expression")),
        **{f"{name} unknown node": (make, ("TypeError", "unknown expression node 'x'"))
           for name, make in {
               "sort_key": lambda: ex.sort_key("x"),
               "variables": lambda: ex.variables("x"),
               "differentiate": lambda: ex.differentiate("x", "x"),
               "substitute": lambda: ex.substitute("x", {}),
               "expand": lambda: ex.expand("x"),
               "simplify_canonical": lambda: ex.simplify_canonical("x"),
               "eval_numeric": lambda: ex.eval_numeric("x", {}),
               "to_text": lambda: ex.to_text("x"),
               "poly_normal_form": lambda: wp.poly_normal_form("x", ("x",)),
           }.items()},
    }
    return [pytest.param(make, expected, id=name)
            for name, (make, expected) in cases.items()]


@pytest.mark.parametrize("make, expected", _guard_cases())
def test_guards_give_their_pinned_results(make, expected):
    assert _outcome(make) == expected


# ---------------------------------------------------------------------------
# leftovers of replaced paths, found on the syntax trees of src/weightings

SRC = pathlib.Path(weightings.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def _referenced(tree, skip=None) -> set:
    """Every name loaded in tree, and every attribute read, outside skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_imported_name_is_used():
    unused = []
    for module, tree in TREES.items():
        used = _referenced(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    assert unused == []


def test_every_private_function_has_a_caller():
    uncalled = []
    for module, tree in TREES.items():
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and not any(node.name in _referenced(other, skip=node)
                                for other in TREES.values())):
                uncalled.append(f"{module}: {node.name}")
    assert uncalled == []


def test_the_leftover_checks_see_a_leftover():
    tree = ast.parse("import os\nfrom math import lcm\n\n"
                     "def _gone():\n    return _gone()\n\n"
                     "def _kept():\n    return lcm(1)\n\nprint(_kept)\n")
    used = _referenced(tree)
    assert "os" not in used and "lcm" in used
    gone, kept = tree.body[2], tree.body[3]
    assert "_gone" not in _referenced(tree, skip=gone)
    assert "_kept" in _referenced(tree, skip=kept)
