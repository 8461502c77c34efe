"""Chart-level geometry: graded transitions, deformation interpolants, the
scaling field, blow-up charts, and the numeric order estimator.

Deformation-space coordinates are named positionally y1..yn plus t, blow-up
chart coordinates z1..zn plus t; transitions and interpolants are written in
their target names.  A symbol outside the weighting named like one of them is
refused: the result would read it as that coordinate.  The interpolant of a
function f of weighted degree at least i is

    sum_s  t^(s.w - i) * chi_s(y_0) * y^s

which restricts to f (with x_a renamed to y_a) at t = 1 and to the
homogeneous degree-i component at t = 0.  Only functions polynomial in the
positive-weight variables are accepted; weight-zero dependence stays
symbolic in the coefficients.

Blow-up charts carry monomials with rational exponents, printed in the
style y2^(-1/2); one builder makes each chart and its inverse.  A field of
filtration degree 0 lifts to a chart by a closed form: d z_b = sum_v q_bv
(z_b / y_v) dy_v, q_bv the exponent of y_v in z_b, and substituting the
inverse chart turns t^(s.w - w_v) y^(s - e_v) into a monomial in z, since
the inverse scales y_a by t^(-w_a) and so removes exactly the power
t^(s.w - w_v) that the extension carries.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction

from . import expr as ex
from . import wpoly as wp
from .expr import Expr, ZERO
from .fields import (PolyVectorField, _apply_expr_field, euler_field,
                     homogeneous_approx_vf, vf_filtration_degree)
from .weights import WeightSequence, record, weighted_degree


def deformation_names(W: WeightSequence) -> tuple[str, ...]:
    return tuple(f"y{a + 1}" for a in range(W.n))


def chart_names(W: WeightSequence) -> tuple[str, ...]:
    return tuple(f"z{a + 1}" for a in range(W.n))


def _rename_map(W: WeightSequence, names: Sequence[str],
                exprs: Sequence[Expr]) -> dict[str, Expr]:
    """W's variables renamed to the first W.n of `names`.

    A symbol of `exprs` outside W that is named like one of `names` would
    read as that chart coordinate after the renaming, so it is refused.
    """
    used = frozenset().union(*map(ex.variables, exprs))
    clash = used.intersection(names).difference(W.vars)
    if clash:
        raise ValueError(f"symbol {min(clash)!r} is not a variable of the "
                         f"weighting but is named like a chart coordinate")
    return {v: ex.var(name) for v, name in zip(W.vars, names)}


# ---------------------------------------------------------------------------
# morphisms and the graded transition

@record
class CoordinateChange:
    """Components of a chart map, expressions in the source variables."""

    source: WeightSequence
    target: WeightSequence
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.target.n:
            raise ValueError("one component per target variable required")


def coordinate_change(source: WeightSequence, target: WeightSequence,
                      components: Sequence[Expr]) -> CoordinateChange:
    return CoordinateChange(source, target,
                            tuple(ex.as_expr(c) for c in components))


def check_morphism(phi: CoordinateChange) -> bool:
    """Each target coordinate must reach its target weight in the source."""
    for b, component in enumerate(phi.components):
        wb = phi.target.weights[b]
        if wb == 0:
            continue
        low = wp.weighted_taylor(component, phi.source, wb - 1)
        if not low.is_zero:
            return False
    return True


def nu_transition(phi: CoordinateChange) -> tuple[Expr, ...]:
    """Induced map of graded coordinates: the weight-w_b part per component.

    Components are returned as expressions in the positional graded
    coordinates y1..yn of the source.
    """
    W = phi.source
    parts = []
    for wb, component in zip(phi.target.weights, phi.components):
        p = wp.weighted_taylor(component, W, wb)
        if wp.filtration_degree(p, W) < wb:
            raise ValueError("chart map does not preserve the filtrations")
        parts.append(wp.homogeneous_part(p, W, wb).terms)
    rename = _rename_map(W, deformation_names(W), phi.components)
    ys = [rename[v] for v in W.positive_vars]
    return tuple(ex.add(*[_renamed_term(c, rename, ys, s) for s, c in terms],
                        ZERO) for terms in parts)


def _renamed_term(c: Expr, rename: Mapping, names: Sequence, s) -> Expr:
    """c * x^s in the target names: c renamed, x^s written as names^s."""
    return ex.mul(ex.substitute(c, rename),
                  *[ex.pow_(y, k) for y, k in zip(names, s) if k])


def compose_transitions(outer: Sequence[Expr], inner: Sequence[Expr],
                        W_mid: WeightSequence) -> tuple[Expr, ...]:
    """Substitute one graded transition into another (both in y-names)."""
    if len(inner) != W_mid.n:
        raise ValueError(f"expected {W_mid.n} inner components, got {len(inner)}")
    names = deformation_names(W_mid)
    mapping = dict(zip(names, inner))
    return tuple(ex.substitute(c, mapping) for c in outer)


# ---------------------------------------------------------------------------
# deformation-space interpolants

@record
class DeformationFunction:
    """Deformation interpolant of a function of the given weighted degree."""

    weights: WeightSequence
    degree: int
    expression: Expr  # in y1..yn and t

    def at_t(self, value) -> Expr:
        return ex.substitute(self.expression, {"t": ex.const(value)})

    def __str__(self):
        return ex.to_text(self.expression)


def _interpolate(p: wp.WeightedPoly, shift: int, W: WeightSequence) -> Expr:
    """sum of t^(s.w - shift)*c(y)*y^s over the terms c*x^s of p, renamed to y."""
    rename = _rename_map(W, deformation_names(W) + ("t",),
                         [c for _, c in p.terms])
    w = list(W.positive_weights)
    names = [rename[v] for v in p.pvars] + [ex.var("t")]
    terms = []
    for s, c in p.terms:
        sw = weighted_degree(s, w)
        if sw < shift:
            raise ValueError(
                f"function has a term of weighted degree {sw} below {shift}")
        terms.append(_renamed_term(c, rename, names, s + (sw - shift,)))
    return ex.add(*terms, ZERO)


def def_interpolant(f: Expr, degree: int,
                    W: WeightSequence) -> DeformationFunction:
    """The interpolant between f (t = 1) and its degree-`degree` part (t = 0)."""
    p = wp.poly_normal_form(ex.as_expr(f), W.positive_vars)
    return DeformationFunction(W, degree, _interpolate(p, degree, W))


@record
class DeformationField:
    """Vector field on the deformation chart: name -> coefficient."""

    weights: WeightSequence
    degree: int
    components: tuple[tuple[str, Expr], ...]

    def coefficient(self, name: str) -> Expr:
        for n, c in self.components:
            if n == name:
                return c
        return ZERO

    def apply(self, f: Expr) -> Expr:
        return _apply_expr_field(self.components, f)

    def __str__(self):
        return ex._field_text((ex.to_text(c), n) for n, c in self.components)


def _def_field(W: WeightSequence, degree: int,
               comps: Mapping[str, Expr]) -> DeformationField:
    cleaned = [(n, c) for n, c in comps.items() if not ex._is_zero(c)]
    cleaned.sort(key=lambda item: item[0])
    return DeformationField(W, degree, tuple(cleaned))


def def_vf_interpolant(X: PolyVectorField, degree: int,
                       W: WeightSequence) -> DeformationField:
    """Extension of t^(-degree) X to the deformation chart."""
    if vf_filtration_degree(X, W) < degree:
        raise ValueError(f"vector field has filtration degree below {degree}")
    names = deformation_names(W)
    comps = {names[a]: _interpolate(coeff, degree + W.weights[a], W)
             for a, coeff in enumerate(X.coeffs)}
    return _def_field(W, degree, comps)


def theta_field(W: WeightSequence) -> DeformationField:
    """The scaling generator t d/dt - sum w_a y_a d/dy_a."""
    names = deformation_names(W)
    comps: dict[str, Expr] = {"t": ex.var("t")}
    for a, w in enumerate(W.weights):
        if w:
            comps[names[a]] = ex.mul(ex.const(-w), ex.var(names[a]))
    return _def_field(W, 0, comps)


def euler_like_check(X: PolyVectorField, W: WeightSequence) -> bool:
    """Degree 0 with degree-0 part equal to the weight scaling field."""
    if X.is_zero:
        return False
    if vf_filtration_degree(X, W) < 0:
        return False
    return homogeneous_approx_vf(X, W, 0) == euler_field(W)


# ---------------------------------------------------------------------------
# numeric scaling-order estimation

@record
class ScalingReport:
    """Slope, residual and sample count of a scaling-order estimate."""

    estimated_order: float
    residual: float
    samples: int
    base_point: tuple[Fraction, ...]


def scaling_order_estimate(f: Expr, W: WeightSequence,
                           base_point: Sequence | None = None,
                           t_grid: Sequence[float] | None = None,
                           seed: int = 0) -> ScalingReport:
    """Least-squares slope of log|f| along the weighted dilation.

    For polynomial input the slope recovers the filtration degree.  A sample
    that is zero, a pole or not a finite float triggers a resample of the
    base point, up to eight times; with a fixed base point, or once the
    attempts run out, the estimate raises ValueError, as it does at once for
    a base point of the wrong length or a t_grid value that is not positive.
    """
    if t_grid is None:
        t_grid = [2.0 ** (-k) for k in range(4, 13)]
    if len(set(t_grid)) < 2:
        raise ValueError("t_grid needs at least two distinct values")
    if bad := [t for t in t_grid if not t > 0]:
        raise ValueError(f"t_grid values must be positive, got {bad[0]}")
    if base_point is not None and len(base_point) != W.n:
        raise ValueError(f"base point needs {W.n} coordinates, got {len(base_point)}")
    import random
    rng = random.Random(seed)

    def random_point() -> tuple[Fraction, ...]:
        return tuple(Fraction(rng.randint(8, 32), 16) for _ in range(W.n))

    attempts = 1 if base_point is not None else 8
    point = (tuple(Fraction(b) for b in base_point)
             if base_point is not None else random_point())
    for attempt in range(attempts):
        xs, ys = [], []
        for t in t_grid:
            assignment = {v: float(b) * (t ** w)
                          for v, w, b in zip(W.vars, W.weights, point)}
            try:
                value = ex.eval_numeric(f, assignment)
            except (ZeroDivisionError, OverflowError):
                break
            if value == 0.0 or not math.isfinite(value):
                break
            xs.append(math.log(t))
            ys.append(math.log(abs(value)))
        else:
            n = len(xs)
            mean_x = sum(xs) / n
            mean_y = sum(ys) / n
            var_x = sum((x - mean_x) ** 2 for x in xs)
            cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
            slope = cov / var_x
            intercept = mean_y - slope * mean_x
            residual = math.sqrt(sum(
                (y - slope * x - intercept) ** 2
                for x, y in zip(xs, ys)) / n)
            return ScalingReport(slope, residual, n, point)
        point = random_point()
    raise ValueError("samples along the dilation are zero, poles or not "
                     "finite (degenerate direction)")


# ---------------------------------------------------------------------------
# blow-up charts with rational exponents

Exponents = tuple[tuple[str, Fraction], ...]


def _exps(mapping: Mapping[str, Fraction | int]) -> Exponents:
    return tuple(sorted((v, f) for v, q in mapping.items()
                        if (f := Fraction(q))))


@record
class RationalMonomialMap:
    """Chart map whose components are single monomials with rational exponents."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    components: tuple[tuple[str, tuple[Fraction, Exponents]], ...]
    sign: str = "+"

    def component(self, name: str) -> tuple[Fraction, Exponents]:
        for n, c in self.components:
            if n == name:
                return c
        raise KeyError(name)

    def __str__(self):
        return "; ".join(f"{n} = {monomial_text(c, m)}"
                         for n, (c, m) in self.components)


def monomial_text(coeff: Fraction, exps: Exponents) -> str:
    if not exps:
        return str(coeff)
    body = ex._monomial_text(exps)
    return body if coeff == 1 else f"{coeff}*{body}"


def rational_map(source: Sequence[str], target: Sequence[str],
                 components: Mapping[str, tuple[Fraction, Mapping]],
                 sign: str = "+") -> RationalMonomialMap:
    comps = tuple((n, (Fraction(c), _exps(m)))
                  for n, (c, m) in sorted(components.items()))
    return RationalMonomialMap(tuple(source), tuple(target), comps, sign)


def compose_rational(outer: RationalMonomialMap,
                     inner: RationalMonomialMap) -> RationalMonomialMap:
    """Substitute the inner map into the outer one (monomials compose)."""
    comps = {}
    for name, (c, exps) in outer.components:
        coeff = c
        acc: dict[str, Fraction] = {}
        for v, q in exps:
            ic, iexps = inner.component(v)
            if ic != 1:
                if q.denominator != 1:
                    raise ValueError(
                        "cannot raise a non-unit coefficient to a fractional "
                        "power in a chart composition")
                coeff *= ic ** q.numerator
            for iv, iq in iexps:
                acc[iv] = acc.get(iv, Fraction(0)) + q * iq
        comps[name] = (coeff, acc)
    return rational_map(inner.source, outer.target, comps, outer.sign)


def _blowup_map(W: WeightSequence, center: str, sign: str,
                inverse: bool) -> RationalMonomialMap:
    """The blow-up chart of W with center `center`, or its inverse."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if center not in W.vars:
        raise KeyError(f"unknown variable {center!r}")
    c = W.vars.index(center)
    wc = W.weights[c]
    if wc < 1:
        raise ValueError(f"variable {center!r} has weight 0 and is not a "
                         f"blow-up direction")
    y, z, one = deformation_names(W), chart_names(W), Fraction(1)
    source, target = (z, y) if inverse else (y, z)
    comps = [("t", (one, (("t", one),)))]
    for a, w in enumerate(W.weights):
        if a == c:  # z_c = t y_c^(1/w_c) and y_c = t^(-w_c) z_c^(w_c)
            exps = ((("t", Fraction(-wc)), (source[c], Fraction(wc))) if inverse
                    else (("t", one), (source[c], Fraction(1, wc))))
        elif not w:
            exps = ((source[a], one),)
        else:  # z_a = y_a y_c^(-w_a/w_c) and y_a = t^(-w_a) z_a z_c^(w_a)
            q = Fraction(w) if inverse else Fraction(-w, wc)
            pair = sorted([(source[a], one), (source[c], q)])
            exps = (("t", Fraction(-w)), *pair) if inverse else tuple(pair)
        comps.append((target[a], (one, exps)))
    return RationalMonomialMap(source + ("t",), target + ("t",),
                               tuple(sorted(comps)), sign)


def blowup_chart(W: WeightSequence, center: str,
                 sign: str = "+") -> RationalMonomialMap:
    """Chart of the weighted blow-up over the slice where +-y_c > 0.

    Maps deformation coordinates (y, t) to chart coordinates (z, t) with
    z_a = y_a y_c^(-w_a/w_c) away from the center index and
    z_c = t y_c^(1/w_c).  Both signs print the same components: y_c^q reads
    as |y_c|^q on the slice +-y_c > 0.
    """
    return _blowup_map(W, center, sign, False)


def blowup_chart_inverse(W: WeightSequence, center: str,
                         sign: str = "+") -> RationalMonomialMap:
    """Inverse of blowup_chart: y_c = z_c^(w_c) t^(-w_c) and
    y_a = z_a z_c^(w_a) t^(-w_a) away from the center index.  Both signs
    print the same components, and y_c^q reads as |y_c|^q on the slice
    +-y_c > 0, so the center component gives |y_c|."""
    return _blowup_map(W, center, sign, True)


Term = tuple[Expr, Exponents]


@record
class BlowupField:
    """Vector field on a blow-up chart; coefficients are sums of
    rational-exponent monomials with symbolic weight-zero coefficients."""

    chart: RationalMonomialMap
    components: tuple[tuple[str, tuple[Term, ...]], ...]

    def __str__(self):
        return ex._field_text(
            (ex._terms_text((c, ex._monomial_text(m)) for c, m in terms), n)
            for n, terms in self.components)


def blowup_lift_vf(X: PolyVectorField, W: WeightSequence,
                   chart: RationalMonomialMap) -> BlowupField:
    """Push the degree-0 extension of X through a blow-up chart of W.

    In the chart with center c the inverse is y_c = z_c^(w_c) t^(-w_c) and
    y_a = z_a z_c^(w_a) t^(-w_a) for a != c, so a monomial y^m becomes z^m
    with its z_c exponent replaced by m.w, times t^(-m.w).  A term
    kappa(y_0) t^(s.w - w_v) y^s d/d[y_v] of the extension is pushed by
    dz_b = sum_v q_bv (z_b / y_v) dy_v, q_bv the exponent of y_v in z_b, to
    q_bv kappa(z_0) z_b y^(s - e_v) t^(s.w - w_v) d/d[z_b].  With m = s - e_v,
    m.w = s.w - w_v, so the power of t cancels and the term adds
    q_bv kappa(z_0) z^(e_b + s - e_v), its z_c exponent replaced by
    [b = c] + s.w - w_v, to component z_b.  Filtration degree 0 makes that
    exponent nonnegative; a field of negative degree is rejected.
    """
    if vf_filtration_degree(X, W) < 0:
        raise ValueError("only fields of filtration degree 0 lift to the "
                         "blow-up")
    c = _chart_center(W, chart)
    ynames = deformation_names(W)
    znames = chart_names(W)
    rename = _rename_map(W, znames + ("t",),
                         [k for coeff in X.coeffs for _, k in coeff.terms])
    w, pad = W.positive_weights, (0,) * W.count(0)
    # per y_v, its extension's terms as (s over all y, s.w - w_v, kappa(z_0)); W's
    # weight-0 variables come first and carry no exponent
    ext = [[(pad + s, weighted_degree(s, w) - wv, wp._value(ex.substitute(k, rename)))
            for s, k in coeff.terms] for wv, coeff in zip(W.weights, X.coeffs)]
    zorder = sorted(zip(znames, range(W.n)))  # z10 sorts before z2
    comps: dict[str, tuple[Term, ...]] = {}
    for b, zb in enumerate(znames):
        acc: dict = {}
        for yv, q in chart.component(zb)[1]:
            if yv == "t":
                continue
            v = ynames.index(yv)
            for s, shift, kappa in ext[v]:
                m = list(s)
                m[b] += 1
                m[v] -= 1
                m[c] = (b == c) + shift
                key, qk = tuple(m), wp._mul(q, kappa)
                acc[key] = wp._add(acc[key], qk) if key in acc else qk
        # each key's exponents in z-name order, one Fraction per integer
        fraction = {q: Fraction(q) for q in set().union(*acc)}
        terms = sorted(((ex.as_expr(k), tuple((z, fraction[m[a]])
                                              for z, a in zorder if m[a]))
                        for m, k in acc.items() if k), key=lambda item: item[1])
        if terms:
            comps[zb] = tuple(terms)
    return BlowupField(chart, tuple(sorted(comps.items())))


def _chart_center(W: WeightSequence, chart: RationalMonomialMap) -> int:
    """Index c of the center of `chart`, which must be blowup_chart(W,
    W.vars[c], sign): z_c is the component of positive weight that holds t."""
    comps = dict(chart.components)
    for c, (zc, wc) in enumerate(zip(chart_names(W), W.weights)):
        if wc and ("t", 1) in comps.get(zc, (1, ()))[1] \
                and chart.sign in ("+", "-") \
                and chart == _blowup_map(W, W.vars[c], chart.sign, False):
            return c
    raise ValueError("map is not a blow-up chart")
