"""Exact symbolic computation with quasi-homogeneous filtrations along
submanifolds in local coordinates: weighted filtrations of function algebras,
homogeneous approximations, truncated-jet prolongations, graded subbundles
with the weighting criterion, deformation and blow-up charts.

Submodules load on first use: ``import weightings`` imports none of them, and
``weightings.jet_lift`` imports ``weightings.jets`` (and what it imports) the
first time it is looked up.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "expr": ("App", "Const", "Expr", "ParseError", "Pow", "Prod", "Sum", "Var",
             "add", "app", "const", "differentiate", "eval_numeric", "expand",
             "mul", "parse_expr", "pow_", "semantically_equal",
             "simplify_canonical", "substitute", "to_text", "var", "variables"),
    "weights": ("MultiWeight", "WeightSequence", "ideal_generators",
                "multi_degree", "multi_filtration_degree", "parse_multiweight",
                "parse_weight_assignments", "total_weighting",
                "weight_sequence"),
    "wpoly": ("WeightedPoly", "dilate", "filtration_degree",
              "homogeneous_approx", "homogeneous_part", "poly_normal_form",
              "to_expr", "weighted_taylor", "wpoly_text"),
    "fields": ("DifferentialFormPoly", "GradedLieAlgebra", "PolyVectorField",
               "contract", "coordinate_field", "d_form", "d_poly",
               "euler_field", "form", "form_filtration_degree", "gla_bracket",
               "homogeneous_approx_vf", "lie_bracket", "lie_derivative_form",
               "nilpotent_frames", "vf_apply", "vf_filtration_degree",
               "vf_for_weights", "vf_from_exprs"),
    "jets": ("JetPoint", "JetPoly", "JetScalar", "JetVectorField",
             "Reparametrization", "dilation", "epsilon_shift", "evaluate_jet",
             "jet_bracket", "jet_lift", "jet_point", "jet_point_text",
             "jet_scalar", "jetpoly", "parse_jet_point",
             "parse_reparametrization", "reparam", "reparam_compose",
             "reparametrize", "tm_translate", "vf_lift"),
    "subbundle": ("AdaptedChange", "DiffOpStandardForm", "Frame",
                  "GraphSubbundle", "WeightingVerdict", "adapted_coordinates",
                  "apply_diffop", "check_weighting", "coefficient_q_weight",
                  "derive_weights", "diffop", "frame", "graph_subbundle",
                  "induced_filtration_degree", "k_membership", "normal_order",
                  "q_membership", "quotient_to_normal", "standard_q",
                  "substitute_graph", "verify_adapted"),
    "spaces": ("BlowupField", "CoordinateChange", "DeformationField",
               "DeformationFunction", "RationalMonomialMap", "ScalingReport",
               "blowup_chart", "blowup_chart_inverse", "blowup_lift_vf",
               "check_morphism", "compose_rational", "coordinate_change",
               "def_interpolant", "def_vf_interpolant", "euler_like_check",
               "nu_transition", "scaling_order_estimate", "theta_field"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
