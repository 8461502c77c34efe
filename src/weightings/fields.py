"""Polynomial vector fields, differential forms, and the negative nilpotent frames.

Vector fields are stored as one WeightedPoly coefficient per chart variable.
Differential forms map strictly increasing index tuples to WeightedPoly
coefficients.  Exterior derivative, contraction, Lie derivative, and brackets
use the standard coordinate formulas.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import itemgetter, mul

from . import expr as ex
from . import wpoly as wp
from .expr import Expr, ZERO
from .weights import WeightSequence, _check_names, _exponent_walk, record
from .wpoly import WeightedPoly


@record
class PolyVectorField:
    """sum_a coeffs[a] d/d vars[a], one WeightedPoly per chart variable."""

    vars: tuple[str, ...]
    coeffs: tuple[WeightedPoly, ...]

    def __post_init__(self):
        if len(self.vars) != len(self.coeffs):
            raise ValueError("one coefficient per variable required")

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def coeff_exprs(self) -> tuple[Expr, ...]:
        return tuple(wp.to_expr(c) for c in self.coeffs)

    def __str__(self):
        return ex._field_text((wp.wpoly_text(c), v) for v, c in
                              zip(self.vars, self.coeffs) if not c.is_zero)


def vf_from_exprs(chart: Sequence[str], coeff_exprs: Sequence[Expr],
                  positive_vars: Sequence[str]) -> PolyVectorField:
    chart = tuple(chart)
    _check_names(chart)
    return PolyVectorField(chart, tuple(
        wp.poly_normal_form(ex.as_expr(c), positive_vars) for c in coeff_exprs))


def vf_for_weights(W: WeightSequence, coeff_exprs: Sequence[Expr]) -> PolyVectorField:
    return vf_from_exprs(W.vars, coeff_exprs, W.positive_vars)


def coordinate_field(W: WeightSequence, name: str) -> PolyVectorField:
    coeffs = [ex.ONE if v == name else ZERO for v in W.vars]
    return vf_for_weights(W, coeffs)


def euler_field(W: WeightSequence) -> PolyVectorField:
    return vf_for_weights(W, [ex.mul(ex.const(w), ex.var(v))
                              for v, w in zip(W.vars, W.weights)])


def _check_chart(X: PolyVectorField, chart: tuple[str, ...]) -> None:
    """Refuse X unless it lives on `chart`: its coefficients are read by
    position, so the same names in another order are another chart."""
    if X.vars != chart:
        raise ValueError(f"vector field chart ({', '.join(X.vars)}) differs "
                         f"from the chart ({', '.join(chart)})")


def vf_filtration_degree(X: PolyVectorField, W: WeightSequence):
    """min_a (deg f_a - w_a), f_a and w_a paired by position: X must live on
    W's chart and each f_a designate W's positive-weight variables.  math.inf
    for the zero field, as wpoly.filtration_degree gives for zero."""
    _check_chart(X, W.vars)
    return min((wp.filtration_degree(c, W) - w
                for w, c in zip(W.weights, X.coeffs)), default=math.inf)


def homogeneous_approx_vf(X: PolyVectorField, W: WeightSequence,
                          degree: int) -> PolyVectorField:
    if vf_filtration_degree(X, W) < degree:
        raise ValueError(f"vector field has filtration degree below {degree}")
    return PolyVectorField(X.vars, tuple(
        wp.homogeneous_part(c, W, degree + w) for w, c in zip(W.weights, X.coeffs)))


def _maps(X: PolyVectorField) -> list:
    """The (variable, term map) pairs of X's non-zero coefficients."""
    return [(v, wp._values(c.terms)) for v, c in zip(X.vars, X.coeffs) if c.terms]


def _apply(X: PolyVectorField, p: WeightedPoly, maps: list) -> dict:
    """The term map of vf_apply(X, p), for maps = _maps(X)."""
    terms = wp._values(p.terms)
    for v, c in zip(X.vars, X.coeffs):
        if c.terms and c.pvars != p.pvars and wp._partial(terms, p.pvars, v):
            raise ValueError("mismatched variable splits")
    return wp._apply_field(maps, terms, p.pvars)


def vf_apply(X: PolyVectorField, p: WeightedPoly) -> WeightedPoly:
    """X(p); a coefficient on another split that meets a partial is refused."""
    return wp.wpoly(p.pvars, _apply(X, p, _maps(X)))


def _apply_expr_field(pairs, f: Expr) -> Expr:
    """The one Expr field applier: c * df/dv summed over (v, c), c != 0."""
    return ex.add(*[ex.mul(c, d) for v, c in pairs
                    if not ex._is_zero(d := ex.differentiate(f, v))])


def lie_bracket(X: PolyVectorField, Y: PolyVectorField) -> PolyVectorField:
    _check_chart(Y, X.vars)
    xmaps, ymaps = _maps(X), _maps(Y)
    coeffs = []
    for xc, yc in zip(X.coeffs, Y.coeffs):
        acc, minus = _apply(X, yc, xmaps), _apply(Y, xc, ymaps)
        if xc.pvars != yc.pvars:
            raise ValueError("mismatched variable splits")
        wp._add_into(acc, ((s, wp._mul(ex.MINUS_ONE.value, c)) for s, c in minus.items()))
        coeffs.append(wp.wpoly(yc.pvars, acc))
    return PolyVectorField(X.vars, tuple(coeffs))


# ---------------------------------------------------------------------------
# differential forms

@record
class DifferentialFormPoly:
    """sum_I c_I dx_I over increasing index tuples I of length degree."""

    vars: tuple[str, ...]
    degree: int
    terms: tuple[tuple[tuple[int, ...], WeightedPoly], ...]

    def __post_init__(self):
        for idx, c in self.terms:
            if len(idx) != self.degree:
                raise ValueError("index tuple length must equal form degree")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError("index tuples must be strictly increasing")

    @property
    def is_zero(self) -> bool:
        return not self.terms


def form(vars: Sequence[str], degree: int,
         terms: dict[tuple[int, ...], WeightedPoly]) -> DifferentialFormPoly:
    cleaned = [(idx, c) for idx, c in terms.items() if not c.is_zero]
    cleaned.sort(key=lambda item: item[0])
    return DifferentialFormPoly(tuple(vars), degree, tuple(cleaned))


def form_add(*forms_: DifferentialFormPoly) -> DifferentialFormPoly:
    base = forms_[0]
    acc: dict[tuple[int, ...], WeightedPoly] = {}
    for a in forms_:
        if a.degree != base.degree or a.vars != base.vars:
            raise ValueError("cannot add forms of different type")
        for idx, c in a.terms:
            acc[idx] = wp.wp_add(acc[idx], c) if idx in acc else c
    return form(base.vars, base.degree, acc)


def d_poly(p: WeightedPoly, vars: Sequence[str]) -> DifferentialFormPoly:
    """Exterior derivative of a function, as a 1-form over the chart."""
    return d_form(form(vars, 0, {(): p}))


def d_form(alpha: DifferentialFormPoly) -> DifferentialFormPoly:
    acc: dict[tuple[int, ...], WeightedPoly] = {}
    for idx, c in alpha.terms:
        for a, v in enumerate(alpha.vars):
            if a in idx:
                continue
            dc = wp.partial(c, v)
            if dc.is_zero:
                continue
            pos = sum(1 for b in idx if b < a)
            new_idx = tuple(sorted(idx + (a,)))
            signed = dc if pos % 2 == 0 else wp.wp_scale(dc, -1)
            acc[new_idx] = wp.wp_add(acc[new_idx], signed) if new_idx in acc else signed
    return form(alpha.vars, alpha.degree + 1, acc)


def contract(X: PolyVectorField, alpha: DifferentialFormPoly) -> DifferentialFormPoly:
    if alpha.degree == 0:
        raise ValueError("cannot contract a 0-form")
    _check_chart(X, alpha.vars)
    acc: dict[tuple[int, ...], WeightedPoly] = {}
    for idx, c in alpha.terms:
        for pos, a in enumerate(idx):
            xa = X.coeffs[a]
            if xa.is_zero:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            piece = wp.wp_mul(xa, c)
            if pos % 2 == 1:
                piece = wp.wp_scale(piece, -1)
            acc[rest] = wp.wp_add(acc[rest], piece) if rest in acc else piece
    return form(alpha.vars, alpha.degree - 1, acc)


def lie_derivative_form(X: PolyVectorField,
                        alpha: DifferentialFormPoly) -> DifferentialFormPoly:
    if alpha.degree == 0:
        raise ValueError("use vf_apply for functions")
    return form_add(d_form(contract(X, alpha)), contract(X, d_form(alpha)))


def form_filtration_degree(alpha: DifferentialFormPoly, W: WeightSequence):
    """min over terms of (coefficient degree + sum of the slot weights);
    math.inf for the zero form."""
    return min((wp.filtration_degree(c, W)
                + sum(W.weight_of(alpha.vars[a]) for a in idx)
                for idx, c in alpha.terms), default=math.inf)


# ---------------------------------------------------------------------------
# nilpotent frames of negative polynomial vector fields on the graded model

@record
class GradedLieAlgebra:
    """Structure constants for the bundle of negative polynomial fields.

    Basis labels are pairs (s, a): the monomial exponent vector s over the
    positive-weight variables and the index a of the coordinate direction,
    subject to s.w - w_a < 0.  The subalgebra marker selects labels with
    s != 0 (fields vanishing on the base).
    """

    W: WeightSequence
    basis: tuple[tuple[tuple[int, ...], int], ...]
    degrees: tuple[int, ...]
    in_subalgebra: tuple[bool, ...]
    brackets: tuple[tuple[tuple[int, int], tuple[tuple[int, Fraction], ...]], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def dim_sub(self) -> int:
        return sum(self.in_subalgebra)

    def bracket_table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        return {key: dict(val) for key, val in self.brackets}

    def label_text(self, index: int) -> str:
        s, a = self.basis[index]
        mono = wp.monomial_text(self.W.positive_vars, s)
        head = f"d/d[{self.W.vars[a]}]"
        return f"{mono} {head}" if mono else head


def nilpotent_frames(W: WeightSequence) -> GradedLieAlgebra:
    """Monomial frame of the negative graded fields, with exact brackets.

    A label (s, a) is coded as the integer S n + a, S the exponents s read as
    digits in radix R = 2 max w, the first leading.  A label's exponents are
    below max w, since s.w < w_a, so no digit of s + u - e_p carries: the
    label (s + u - e_p, b) has the code S n + code(u, b) - n R^(m-1-p),
    m = len(s), and a bracket entry is found by integer arithmetic.
    """
    n, k0, pw = W.n, W.count(0), W.positive_weights
    m, radix = len(pw), 2 * max(W.weights)
    place = [n * radix ** (m - 1 - p) for p in range(m)]  # S n of s = e_p
    raw = sorted(((sw - wa, (s, a), sum(map(mul, s, place)) + a)
                  for a, wa in enumerate(W.weights) for s, sw in _exponent_walk(pw, wa)),
                 key=itemgetter(0))  # stable: by degree, then direction a, then s
    degrees, labels, codes = map(tuple, zip(*raw)) if raw else ((),) * 3
    index = {code: i for i, code in enumerate(codes)}
    sn = [code - a for code, (_, a) in zip(codes, labels)]  # S n of each label
    in_sub = tuple(any(s) for s, _ in labels)

    # the labels holding x_p and along x_p; no weight-0 direction has a label
    holding = [[k for k, (s, _) in enumerate(labels) if s[p]] for p in range(m)]
    along = [[k for k, (_, a) in enumerate(labels) if a - k0 == p] for p in range(m)]
    fraction = {q: Fraction(q) for q in range(-max(W.weights), max(W.weights) + 1)}
    brackets = []
    for i, (s, a) in enumerate(labels):
        pa = a - k0
        # [x^s d_a, x^u d_b] = u_a x^(s+u-e_a) d_b - s_b x^(s+u-e_b) d_a,
        # where a weight-0 x_a or x_b occurs in no monomial.  x_a | x^u needs
        # w_a <= u.w < w_b and x_b | x^s needs w_b <= s.w < w_a, so at most
        # one term is non-zero, and it carries a single label.
        row = [((i, j), ((index[sn[i] + codes[j] - place[pa]], fraction[labels[j][0][pa]]),))
               for j in holding[pa] if j > i]
        row += [((i, j), ((index[codes[i] + sn[j] - place[p]], fraction[-e]),))
                for p, e in enumerate(s) if e for j in along[p] if j > i]
        brackets += sorted(row)
    return GradedLieAlgebra(W, labels, degrees, in_sub, tuple(brackets))


def gla_bracket(g: GradedLieAlgebra, x: dict[int, Fraction],
                y: dict[int, Fraction]) -> dict[int, Fraction]:
    """Bracket of coefficient vectors over the frame, for property checks."""
    table = g.bracket_table()
    out: dict[int, Fraction] = {}
    for i, ci in x.items():
        for j, cj in y.items():
            if i == j:
                continue
            sign = 1
            key = (i, j)
            if i > j:
                key = (j, i)
                sign = -1
            for k, c in table.get(key, {}).items():
                out[k] = out.get(k, Fraction(0)) + sign * ci * cj * c
    return {k: v for k, v in out.items() if v != 0}
