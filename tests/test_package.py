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
        coefficient_q_weight derive_weights diffop frame graph_subbundle
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
    from weightings import subbundle as sb
    from weightings.weights import weight_sequence

    x, y = ex.var("x"), ex.var("y")
    p = jt.jp_slot(0, 1) * jt.jp_slot(1, 0) + jt.jp_const(Fraction(1, 2))
    fr = sb.frame(weight_sequence([("x", 1), ("y", 2)], 2), [[1, 0], [0, 1]])
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
    }
    return [pytest.param(make, expected, id=name)
            for name, (make, expected) in cases.items()]


@pytest.mark.parametrize("make, expected", _public_method_cases())
def test_public_methods_give_their_pinned_results(make, expected):
    assert make() == expected


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
