"""Polynomials in designated variables with symbolic coefficients.

A WeightedPoly is a finite sum  sum_s  c_s(z) * x^s  where x runs over the
designated (positive-weight) variables and the coefficients c_s are canonical
expressions in the remaining (weight-zero) variables.  Terms are stored as a
sorted tuple of (exponent tuple, coefficient) pairs with no zero
coefficients, so equal polynomials compare equal bit for bit.

The weighted degree of a term is s.w for the weights supplied by the calling
operation; the polynomial itself only knows its variable split.

All arithmetic runs on one private kernel of term maps (exponent tuple ->
value: the Fraction of a constant coefficient, the canonical Expr of any
other): an in-place sum, a product that drops the terms above an optional
weighted-degree bound, and one expression walk, `_expand`.  Two Fractions
add and multiply as Fractions, a rational or a derivative's integer exponent
scales an Expr's leading coefficient, and any other pair goes through expr's
add and mul, a Const result becoming its Fraction: a Const is built only
where a map leaves the kernel.  Sums are formed only where two terms meet, so a
coefficient that lands on a new exponent is stored as it is; each operation
drops zero coefficients once, at its end.  A product takes the weighted
degree of each term of its factors once, not once per pair.  With no bound
the walk is exact (`poly_normal_form`) and rejects what has no finite
expansion: a function of a designated variable, a negative power of a
non-constant.  With a bound it is the weighted Taylor expansion up to that
degree (`weighted_taylor`), and each power series stops once its powers are
empty.  A product of factors starts from its first factor.  A positive power
of a one-term map is one term, (c x^s)^k = c^k x^(k s), dropped when it lies
above the bound.  A positive power of any other base takes k - 1 products
starting from the base, so k is capped at MAX_EXPANDED_POWER unless a bound
ends the products early: with no constant part, the powers of the base leave
the bound after a few products.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from operator import add, itemgetter

from . import expr as ex
from .expr import Expr, ZERO, ONE
from .weights import WeightSequence, record, weighted_degree


@record
class WeightedPoly:
    """sum_s c_s(z) x^s over the designated variables pvars."""

    pvars: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], Expr], ...]

    def __init__(self, pvars, terms):
        object.__setattr__(self, "pvars", pvars)
        object.__setattr__(self, "terms", terms)
        for s, c in terms:
            if len(s) != len(pvars):
                raise ValueError("exponent length does not match variables")

    def coefficient(self, exponents: tuple[int, ...]) -> Expr:
        for s, c in self.terms:
            if s == exponents:
                return c
        return ZERO

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        return wpoly_text(self)


def wpoly(pvars: Sequence[str], terms: Mapping[tuple[int, ...], Expr] | None = None) -> WeightedPoly:
    """The WeightedPoly of a mapping exponent->coefficient, zeros dropped."""
    cleaned = [(tuple(int(v) for v in s), c) for s, given in (terms or {}).items()
               if not ex._is_zero(c := ex.as_expr(given))]
    return WeightedPoly(tuple(pvars), tuple(sorted(cleaned, key=itemgetter(0))))


def wp_zero(pvars: Sequence[str]) -> WeightedPoly:
    return wpoly(pvars, {})


def wp_const(pvars: Sequence[str], coefficient) -> WeightedPoly:
    z = (0,) * len(tuple(pvars))
    return wpoly(pvars, {z: ex.as_expr(coefficient)})


def wp_add(*polys: WeightedPoly) -> WeightedPoly:
    if not polys:
        raise ValueError("empty sum")
    pvars = polys[0].pvars
    acc: dict[tuple[int, ...], Expr] = {}
    for p in polys:
        if p.pvars != pvars:
            raise ValueError("mismatched variable splits")
        _add_into(acc, _values(p.terms))
    return wpoly(pvars, acc)


def wp_mul(a: WeightedPoly, b: WeightedPoly) -> WeightedPoly:
    if a.pvars != b.pvars:
        raise ValueError("mismatched variable splits")
    return wpoly(a.pvars, _product(_values(a.terms), _values(b.terms)))


def wp_scale(p: WeightedPoly, factor) -> WeightedPoly:
    factor = ex.as_expr(factor)
    return wpoly(p.pvars, {s: ex.mul(factor, c) for s, c in p.terms})


def monomial_expr(pvars: Sequence[str], exponents: Sequence[int]) -> Expr:
    return ex.mul(*[ex.pow_(ex.var(v), s) for v, s in zip(pvars, exponents) if s],
                  ONE)


def monomial_text(pvars: Sequence[str], exponents: Sequence[int]) -> str:
    """Monomial display in variable order, e.g. x^2*y."""
    return ex._monomial_text((v, s) for v, s in zip(pvars, exponents) if s)


def to_expr(p: WeightedPoly) -> Expr:
    """sum_s c_s x^s, each term c_s or one product of c_s and the powers of x^s."""
    terms = [ex.mul(c, *xs) if (xs := [ex.pow_(ex.var(v), e)
                                      for v, e in zip(p.pvars, s) if e]) else c
             for s, c in p.terms]
    if len(terms) == 1:
        return terms[0]
    return ex.add(*terms) if terms else ZERO


def poly_normal_form(e: Expr, positive_vars: Sequence[str]) -> WeightedPoly:
    """Separate an expression into monomials in the designated variables.

    The input must be polynomial in the designated variables: they may occur
    only through sums, products, and nonnegative integer powers.  All other
    variables are absorbed into the coefficients.
    """
    pvars = tuple(positive_vars)
    return wpoly(pvars, _expand(e, pvars, None, None))


def _split_weights(p: WeightedPoly, W: WeightSequence) -> tuple[int, ...]:
    """W.positive_weights, the weights of p's exponents by position: p must
    designate exactly W's positive-weight variables, in W's order, as every
    polynomial the library builds against W does; any other split is refused."""
    if p.pvars != W.positive_vars:
        raise ValueError(f"polynomial variables ({', '.join(p.pvars)}) differ from "
                         f"the positive-weight variables ({', '.join(W.positive_vars)})")
    return W.positive_weights


def filtration_degree(p: WeightedPoly, W: WeightSequence):
    """Minimum weighted degree of the stored terms; math.inf for zero."""
    w = _split_weights(p, W)
    return min((weighted_degree(s, w) for s, _ in p.terms), default=math.inf)


def homogeneous_part(p: WeightedPoly, W: WeightSequence, degree: int) -> WeightedPoly:
    w = _split_weights(p, W)
    return wpoly(p.pvars, {s: c for s, c in p.terms
                           if weighted_degree(s, w) == degree})


def homogeneous_approx(p: WeightedPoly, W: WeightSequence, degree: int) -> WeightedPoly:
    """Weighted-degree-`degree` component of p; requires no lower terms."""
    w = _split_weights(p, W)
    for s, c in p.terms:
        d = weighted_degree(s, w)
        if d < degree:
            raise ValueError(
                f"term of weighted degree {d} below requested degree {degree}")
    return homogeneous_part(p, W, degree)


def partial(p: WeightedPoly, name: str) -> WeightedPoly:
    """Partial derivative of a WeightedPoly by any variable."""
    return wpoly(p.pvars, _partial(_values(p.terms), p.pvars, name))


def dilate(p: WeightedPoly, W: WeightSequence, tname: str = "t") -> Expr:
    """Multiply each term by t^{s.w}, returning an expression in (vars, t)."""
    if tname in p.pvars or tname in W.vars:
        raise ValueError(f"dilation parameter {tname!r} collides with a variable")
    w = _split_weights(p, W)
    t = ex.var(tname)
    return ex.add(*[ex.mul(ex.pow_(t, weighted_degree(s, w)), c,
                           monomial_expr(p.pvars, s))
                    for s, c in p.terms], ZERO)


# binomial coefficient with integer (possibly negative) upper index
def _binom(k: int, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= Fraction(k - i, i + 1)
    return out


_SIN_CYCLE = ("sin", "cos", "-sin", "-cos")


def _maclaurin_coeff(fn: str, at, j: int):
    """j-th Taylor coefficient of fn about `at`, both kernel values: at the
    vanishing argument ZERO it is rational, +-1/j! or 0."""
    head = "exp" if fn == "exp" else _SIN_CYCLE[(j + (fn == "cos")) % 4]
    q = Fraction(-1 if head.startswith("-") else 1, math.factorial(j))
    if at is ZERO:  # sin(0) = 0, cos(0) = exp(0) = 1
        return Fraction(0) if head.endswith("sin") else q
    return _mul(q, ex.app(head.lstrip("-"), at))


def weighted_taylor(e: Expr, W: WeightSequence, up_to: int) -> WeightedPoly:
    """All weighted-homogeneous components of e of degree at most up_to.

    Transcendental heads are expanded through their Taylor series in the
    positive-weight directions while weight-zero dependence stays symbolic.
    Requires analytic structure: a negative power whose base vanishes on the
    zero section is rejected.
    """
    if up_to < 0:
        raise ValueError("truncation degree must be nonnegative")
    if up_to > MAX_TAYLOR_DEGREE:
        raise ValueError(f"degree {up_to} exceeds the limit "
                         f"MAX_TAYLOR_DEGREE = {MAX_TAYLOR_DEGREE}")
    pvars = W.positive_vars
    return wpoly(pvars, _expand(e, pvars, W.positive_weights, up_to))


# ---------------------------------------------------------------------------
# the term-map kernel: exponent tuple -> coefficient

# Largest e for which a power of a base with two or more terms is expanded
# when truncation cannot end its e products early: the base has a constant
# part (truncation never empties the products), or there is no bound.
MAX_EXPANDED_POWER = 1000
# Largest degree weighted_taylor expands to: its work grows faster than the
# square of the degree (sin(x) to degree 10000 costs 80 times degree 1000).
MAX_TAYLOR_DEGREE = 1000


def _value(c: Expr):
    """The kernel value of a canonical Expr: the Fraction of a Const."""
    return c.value if type(c) is ex.Const else c


def _values(terms) -> list:
    """Kernel pairs of (exponent, canonical Expr) pairs."""
    return [(s, c.value if type(c) is ex.Const else c) for s, c in terms]


def _add(a, b):
    """a + b of kernel values, through ex.add unless both are Fractions."""
    return a + b if type(a) is type(b) is Fraction else _value(ex.add(a, b))


def _mul(a, b):
    """a * b of kernel values or an integer exponent: a rational q scales an
    Expr c*e to (q*c)*e, as ex.mul's constant path does, building no Const."""
    if isinstance(a, Expr):
        if isinstance(b, Expr):
            return _value(ex.mul(a, b))
        a, b = b, a
    elif not isinstance(b, Expr):
        return a * b
    coeff, core = ex._split_coeff(b)
    coeff *= a
    return coeff if core is None or not coeff else ex._with_coeff(coeff, core)


def _add_into(acc: dict, terms, plus=_add) -> None:
    """Add (key, value) pairs into acc in place, by plus where keys meet."""
    for s, c in terms:
        acc[s] = plus(acc[s], c) if s in acc else c


def _nonzero(acc: dict) -> dict:
    return {s: c for s, c in acc.items() if c}


def _product(a, b, w=None, bound=None) -> dict:
    """Product of two pair sequences without terms of weighted degree > bound,
    the degree of each term taken once (the degree of s + u is their sum)."""
    b = [(u, d, 0 if bound is None else weighted_degree(u, w)) for u, d in b]
    acc: dict = {}
    for s, c in a:
        room = 0 if bound is None else bound - weighted_degree(s, w)
        for u, d, deg in b:
            if deg <= room:
                key = tuple(map(add, s, u))
                cd = _mul(c, d)
                acc[key] = _add(acc[key], cd) if key in acc else cd
    return _nonzero(acc)


def _partial(terms, pvars: tuple[str, ...], name: str) -> dict:
    """Term map of the partial derivative by any variable: by a designated
    one it lowers an exponent, which no two terms share afterwards; by
    another it differentiates the coefficients."""
    if name not in pvars:
        return {s: d for s, c in terms if type(c) is not Fraction
                and (d := _value(ex.differentiate(c, name)))}
    a = pvars.index(name)
    return {s[:a] + (s[a] - 1,) + s[a + 1:]: _mul(s[a], c)
            for s, c in terms if s[a]}


def _apply_field(field, terms, pvars, w=None, bound=None) -> dict:
    """The one term-map field applier: sum_v c_v * d(terms)/dv over the
    (v, c_v) of field, c_v and terms as pairs, no degree above bound."""
    acc: dict = {}
    for v, c in field:
        if d := _partial(terms, pvars, v):
            _add_into(acc, _product(c, d.items(), w, bound).items())
    return _nonzero(acc)


def _series(coeff_of, h: dict, zero: tuple, w, bound) -> dict:
    """sum_j coeff_of(j) * h^j for h without constant term, until h^j is
    empty: past the bound, or at j = 1 when h is empty."""
    acc = {zero: coeff_of(0)}
    hj, j = h, 1
    while hj:
        coeff = coeff_of(j)
        if coeff:
            _add_into(acc, ((s, _mul(coeff, c)) for s, c in hj.items()))
        hj = _product(hj.items(), h.items(), w, bound)
        j += 1
    return _nonzero(acc)


def _expand(e: Expr, pvars: tuple[str, ...], w, bound) -> dict:
    """Term map of e in pvars up to weighted degree bound (weights w);
    exact when bound is None."""
    zero = (0,) * len(pvars)
    if isinstance(e, ex.Const):
        return {zero: e.value} if e.value else {}
    if isinstance(e, ex.Var):
        if e.name not in pvars:
            return {zero: e}
        a = pvars.index(e.name)
        if bound is not None and w[a] > bound:
            return {}
        return {zero[:a] + (1,) + zero[a + 1:]: ONE.value}
    if isinstance(e, ex.Sum):
        acc: dict = {}
        for t in e.terms:
            _add_into(acc, _expand(t, pvars, w, bound).items())
        return _nonzero(acc)
    if isinstance(e, ex.Prod):
        first, *rest = e.factors
        acc = _expand(first, pvars, w, bound)
        for f in rest:
            acc = _product(acc.items(), _expand(f, pvars, w, bound).items(),
                           w, bound)
        return acc
    if isinstance(e, ex.Pow):
        base = _expand(e.base, pvars, w, bound)
        k = e.exponent
        if k > 0:
            if not base:
                return {}
            if len(base) == 1:  # mul merges equal bases: the text of k products
                (s, c), = base.items()
                s = tuple(k * x for x in s)
                if bound is not None and weighted_degree(s, w) > bound:
                    return {}
                return {s: _value(ex.pow_(c, k))}
            if k > MAX_EXPANDED_POWER and (zero in base or bound is None):
                kind = "a constant term" if zero in base else "two or more terms"
                raise ValueError(
                    f"exponent {k} of a base with {kind} exceeds "
                    f"the limit MAX_EXPANDED_POWER = {MAX_EXPANDED_POWER}")
            acc = base
            for _ in range(k - 1):
                acc = _product(acc.items(), base.items(), w, bound)
                if not acc:
                    break
            return acc
        a0 = base.pop(zero, 0)
        if bound is None and (base or not a0):
            raise ValueError(
                f"not polynomial in designated variables: {ex.to_text(e)}")
        if not a0:
            raise ValueError("negative power with vanishing constant term is "
                             "not analytic in the positive-weight variables")
        return _series(lambda j: _mul(_binom(k, j), _value(ex.pow_(a0, k - j))),
                       base, zero, w, bound)
    if isinstance(e, ex.App):
        if bound is None:  # no series: the head must be constant in pvars
            if ex.variables(e.arg) & set(pvars):
                raise ValueError(
                    f"not polynomial in designated variables: {ex.to_text(e)}")
            return {zero: e}
        h = _expand(e.arg, pvars, w, bound)
        a0 = h.pop(zero, ZERO)
        return _series(lambda j: _maclaurin_coeff(e.fn, a0, j),
                       h, zero, w, bound)
    raise TypeError(f"unknown expression node {e!r}")


def wpoly_text(p: WeightedPoly, W: WeightSequence | None = None) -> str:
    """Canonical print: terms ascending by (weighted or total degree, exponents)."""
    w = [1] * len(p.pvars) if W is None else _split_weights(p, W)
    if p.is_zero:
        return "0"
    ordered = sorted(p.terms, key=lambda item: (weighted_degree(item[0], w), item[0]))
    return ex._terms_text((c, monomial_text(p.pvars, s)) for s, c in ordered)
