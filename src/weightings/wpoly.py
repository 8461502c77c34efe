"""Polynomials in designated variables with symbolic coefficients.

A WeightedPoly is a finite sum  sum_s  c_s(z) * x^s  where x runs over the
designated (positive-weight) variables and the coefficients c_s are canonical
expressions in the remaining (weight-zero) variables.  Terms are stored as a
sorted tuple of (exponent tuple, coefficient) pairs with no zero
coefficients, so equal polynomials compare equal bit for bit.

The weighted degree of a term is s.w for the weights supplied by the calling
operation; the polynomial itself only knows its variable split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import expr as ex
from .expr import Expr, ZERO, ONE
from .weights import WeightSequence, weighted_degree


@dataclass(frozen=True)
class WeightedPoly:
    pvars: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], Expr], ...]

    def __post_init__(self):
        for s, c in self.terms:
            if len(s) != len(self.pvars):
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
    """Canonicalize a mapping exponent->coefficient into a WeightedPoly."""
    pvars = tuple(pvars)
    cleaned = []
    for s, c in (terms or {}).items():
        c = ex.simplify_canonical(ex.as_expr(c))
        if c != ZERO:
            cleaned.append((tuple(int(v) for v in s), c))
    cleaned.sort(key=lambda item: item[0])
    return WeightedPoly(pvars, tuple(cleaned))


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
        for s, c in p.terms:
            acc[s] = ex.add(acc.get(s, ZERO), c)
    return wpoly(pvars, acc)


def wp_mul(a: WeightedPoly, b: WeightedPoly) -> WeightedPoly:
    if a.pvars != b.pvars:
        raise ValueError("mismatched variable splits")
    acc: dict[tuple[int, ...], Expr] = {}
    for s, c in a.terms:
        for u, d in b.terms:
            key = tuple(x + y for x, y in zip(s, u))
            acc[key] = ex.add(acc.get(key, ZERO), ex.mul(c, d))
    return wpoly(a.pvars, acc)


def wp_scale(p: WeightedPoly, factor) -> WeightedPoly:
    factor = ex.as_expr(factor)
    return wpoly(p.pvars, {s: ex.mul(factor, c) for s, c in p.terms})


def monomial_expr(pvars: Sequence[str], exponents: Sequence[int]) -> Expr:
    return ex.mul(*[ex.pow_(ex.var(v), s) for v, s in zip(pvars, exponents) if s],
                  ONE)


def monomial_text(pvars: Sequence[str], exponents: Sequence[int]) -> str:
    """Monomial display in variable order, e.g. x^2*y."""
    parts = [v if s == 1 else f"{v}^{s}"
             for v, s in zip(pvars, exponents) if s]
    return "*".join(parts)


def to_expr(p: WeightedPoly) -> Expr:
    return ex.add(*[ex.mul(c, monomial_expr(p.pvars, s)) for s, c in p.terms],
                  ZERO)


def poly_normal_form(e: Expr, positive_vars: Sequence[str]) -> WeightedPoly:
    """Separate an expression into monomials in the designated variables.

    The input must be polynomial in the designated variables: they may occur
    only through sums, products, and nonnegative integer powers.  All other
    variables are absorbed into the coefficients.
    """
    pvars = tuple(positive_vars)
    pset = set(pvars)

    def rec(e: Expr) -> dict[tuple[int, ...], Expr]:
        if isinstance(e, ex.Const):
            return {(0,) * len(pvars): e}
        if isinstance(e, ex.Var):
            if e.name in pset:
                s = [0] * len(pvars)
                s[pvars.index(e.name)] = 1
                return {tuple(s): ONE}
            return {(0,) * len(pvars): e}
        if isinstance(e, ex.Sum):
            acc: dict[tuple[int, ...], Expr] = {}
            for t in e.terms:
                for s, c in rec(t).items():
                    acc[s] = ex.add(acc.get(s, ZERO), c)
            return acc
        if isinstance(e, ex.Prod):
            acc = {(0,) * len(pvars): ONE}
            for f in e.factors:
                fmap = rec(f)
                nxt: dict[tuple[int, ...], Expr] = {}
                for s, c in acc.items():
                    for u, d in fmap.items():
                        key = tuple(x + y for x, y in zip(s, u))
                        nxt[key] = ex.add(nxt.get(key, ZERO), ex.mul(c, d))
                acc = nxt
            return acc
        if isinstance(e, ex.Pow):
            base = rec(e.base)
            involves = any(any(s) for s in base)
            if e.exponent < 0:
                if involves:
                    raise ValueError(
                        f"not polynomial in designated variables: {ex.to_text(e)}")
                return {(0,) * len(pvars): e}
            acc = {(0,) * len(pvars): ONE}
            for _ in range(e.exponent):
                nxt = {}
                for s, c in acc.items():
                    for u, d in base.items():
                        key = tuple(x + y for x, y in zip(s, u))
                        nxt[key] = ex.add(nxt.get(key, ZERO), ex.mul(c, d))
                acc = nxt
            return acc
        if isinstance(e, ex.App):
            if ex.variables(e.arg) & pset:
                raise ValueError(
                    f"not polynomial in designated variables: {ex.to_text(e)}")
            return {(0,) * len(pvars): e}
        raise TypeError(f"unknown expression node {e!r}")

    return wpoly(pvars, rec(ex.simplify_canonical(e)))


def filtration_degree(p: WeightedPoly, W: WeightSequence):
    """Minimum weighted degree of the stored terms; math.inf for zero."""
    if p.is_zero:
        return math.inf
    w = [W.weight_of(v) for v in p.pvars]
    return min(weighted_degree(s, w) for s, _ in p.terms)


def homogeneous_part(p: WeightedPoly, W: WeightSequence, degree: int) -> WeightedPoly:
    w = [W.weight_of(v) for v in p.pvars]
    return wpoly(p.pvars, {s: c for s, c in p.terms
                           if weighted_degree(s, w) == degree})


def homogeneous_approx(p: WeightedPoly, W: WeightSequence, degree: int) -> WeightedPoly:
    """Weighted-degree-`degree` component of p; requires no lower terms."""
    w = [W.weight_of(v) for v in p.pvars]
    for s, c in p.terms:
        d = weighted_degree(s, w)
        if d < degree:
            raise ValueError(
                f"term of weighted degree {d} below requested degree {degree}")
    return homogeneous_part(p, W, degree)


def partial(p: WeightedPoly, name: str) -> WeightedPoly:
    """Partial derivative of a WeightedPoly by any variable."""
    if name in p.pvars:
        a = p.pvars.index(name)
        acc: dict[tuple[int, ...], Expr] = {}
        for s, c in p.terms:
            if s[a] == 0:
                continue
            key = s[:a] + (s[a] - 1,) + s[a + 1:]
            acc[key] = ex.add(acc.get(key, ZERO), ex.mul(ex.const(s[a]), c))
        return wpoly(p.pvars, acc)
    return wpoly(p.pvars, {s: ex.differentiate(c, name) for s, c in p.terms})


def dilate(p: WeightedPoly, W: WeightSequence, tname: str = "t") -> Expr:
    """Multiply each term by t^{s.w}, returning an expression in (vars, t)."""
    if tname in p.pvars or tname in W.vars:
        raise ValueError(f"dilation parameter {tname!r} collides with a variable")
    w = [W.weight_of(v) for v in p.pvars]
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


def _maclaurin_coeff(fn: str, at: Expr, j: int) -> Expr:
    """j-th Taylor coefficient of fn about the point `at` (an expression)."""
    factorial = Fraction(1)
    for i in range(2, j + 1):
        factorial *= i
    if fn == "exp":
        return ex.mul(ex.const(Fraction(1) / factorial), ex.app("exp", at))
    shift = 0 if fn == "sin" else 1
    head = _SIN_CYCLE[(j + shift) % 4]
    sign = -1 if head.startswith("-") else 1
    return ex.mul(ex.const(Fraction(sign) / factorial), ex.app(head.lstrip("-"), at))


def weighted_taylor(e: Expr, W: WeightSequence, up_to: int) -> WeightedPoly:
    """All weighted-homogeneous components of e of degree at most up_to.

    Transcendental heads are expanded through their Taylor series in the
    positive-weight directions while weight-zero dependence stays symbolic.
    Requires analytic structure: a negative power whose base vanishes on the
    zero section is rejected.
    """
    if up_to < 0:
        raise ValueError("truncation degree must be nonnegative")
    pvars = W.positive_vars
    w = list(W.positive_weights)
    zero_exp = (0,) * len(pvars)

    def truncate(m: dict) -> dict:
        return {s: c for s, c in m.items()
                if weighted_degree(s, w) <= up_to}

    def madd(a: dict, b: dict) -> dict:
        out = dict(a)
        for s, c in b.items():
            out[s] = ex.add(out.get(s, ZERO), c)
        return {s: c for s, c in out.items() if c != ZERO}

    def mmul(a: dict, b: dict) -> dict:
        out: dict = {}
        for s, c in a.items():
            for u, d in b.items():
                key = tuple(x + y for x, y in zip(s, u))
                if weighted_degree(key, w) > up_to:
                    continue
                out[key] = ex.add(out.get(key, ZERO), ex.mul(c, d))
        return {s: c for s, c in out.items() if c != ZERO}

    def mpow_series(base: dict, exponent: int) -> dict:
        a0 = base.get(zero_exp, ZERO)
        h = {s: c for s, c in base.items() if s != zero_exp}
        if exponent >= 0 and not h:
            return {zero_exp: ex.pow_(a0, exponent)} if a0 != ZERO or exponent == 0 else {}
        if exponent >= 0:
            out = {zero_exp: ONE}
            for _ in range(exponent):
                out = mmul(out, base)
            return out
        if a0 == ZERO:
            raise ValueError("negative power with vanishing constant term is "
                             "not analytic in the positive-weight variables")
        out: dict = {}
        hj = {zero_exp: ONE}
        for j in range(up_to + 1):
            coeff = ex.mul(ex.const(_binom(exponent, j)),
                           ex.pow_(a0, exponent - j))
            out = madd(out, {s: ex.mul(coeff, c) for s, c in hj.items()})
            hj = mmul(hj, h)
            if not hj:
                break
        return out

    def mapp(fn: str, arg_map: dict) -> dict:
        a0 = arg_map.get(zero_exp, ZERO)
        h = {s: c for s, c in arg_map.items() if s != zero_exp}
        out: dict = {}
        hj = {zero_exp: ONE}
        for j in range(up_to + 1):
            coeff = _maclaurin_coeff(fn, a0, j)
            if coeff != ZERO:
                out = madd(out, {s: ex.mul(coeff, c) for s, c in hj.items()})
            hj = mmul(hj, h)
            if not hj:
                break
        return out

    def rec(e: Expr) -> dict:
        if isinstance(e, ex.Const):
            return {zero_exp: e} if e != ZERO else {}
        if isinstance(e, ex.Var):
            if e.name in pvars:
                if W.weight_of(e.name) > up_to:
                    return {}
                s = [0] * len(pvars)
                s[pvars.index(e.name)] = 1
                return {tuple(s): ONE}
            return {zero_exp: e}
        if isinstance(e, ex.Sum):
            out: dict = {}
            for t in e.terms:
                out = madd(out, rec(t))
            return out
        if isinstance(e, ex.Prod):
            out = {zero_exp: ONE}
            for f in e.factors:
                out = mmul(out, rec(f))
            return out
        if isinstance(e, ex.Pow):
            return mpow_series(rec(e.base), e.exponent)
        if isinstance(e, ex.App):
            return mapp(e.fn, rec(e.arg))
        raise TypeError(f"unknown expression node {e!r}")

    return wpoly(pvars, truncate(rec(ex.simplify_canonical(e))))


def wpoly_text(p: WeightedPoly, W: WeightSequence | None = None) -> str:
    """Canonical print: terms ascending by (weighted or total degree, exponents)."""
    if p.is_zero:
        return "0"
    if W is not None:
        w = [W.weight_of(v) for v in p.pvars]
    else:
        w = [1] * len(p.pvars)
    ordered = sorted(p.terms, key=lambda item: (weighted_degree(item[0], w), item[0]))
    pieces = []
    for i, (s, c) in enumerate(ordered):
        negative, ctext = ex._term_text(c)
        mono = monomial_text(p.pvars, s)
        if not mono:
            body = ctext
        elif ctext == "1":
            body = mono
        else:
            body = f"{ctext}*{mono}"
        if i == 0:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)
