"""Truncated-jet arithmetic and prolongations to the higher tangent bundle.

The scalar model is the truncated polynomial algebra R[eps]/(eps^{r+1}).
A chart point of the order-r tangent bundle stores one coefficient vector
per chart variable.  Slot variables are labelled (a, j) for variable index a
and level 0 <= j <= r; the slot (a, j) carries weighted degree j in the
intrinsic grading of the prolonged space.

Function lifts f^(i) pick out the eps^i coefficient of f evaluated on the
generic jet; vector-field lifts X^(-i) shift the prolongation levels of
their coefficients.  A polynomial is evaluated on rows, one series per chart
variable: the generic jet's row a is sum_j (a, j) eps^j, and a graph's rows
(``subbundle``) carry its right-hand sides in place of constrained slots.
Only polynomial data with rational coefficients is accepted here, which
keeps every identity bit-exact.

Slot polynomials are computed by one private integer-first kernel.  A
polynomial, or a truncated series of them, is held as dicts from packed
monomials to int numerators over one shared denominator.  A packed monomial
is one int in which each slot label of the operation owns a bit field
holding its exponent.  Before any work starts, the operation bounds every
exponent it can produce from its inputs (the total degree of the lifted
expression, e times the largest exponent for an e-th power, the sum of the
largest exponents for a product, ...); the field width is the bit length of
that bound, so no field ever carries into the next.  A monomial product is
then one int addition, and a partial derivative lowers one field by a
subtraction.  Sums rescale by the lcm of the denominators, products
multiply them and accumulate each pair of levels straight into its output
level, and powers square and multiply left to right.  Levels are built on
demand: asked for levels lo and up, a sum passes lo to its terms, a product
to its last product and a power to its last step; other operands keep all
their levels.  A leading constant scales the non-empty levels of the
product of the other factors, one expression's terms share each power
node's series, and a field's applier skips slots no key holds.  A result is
sealed into JetPolys once, so the inner loops do plain int arithmetic (lifts
of integer polynomials stay integral): the levels of a lifted field
coefficient, or all the coefficients of a bracket, share one seal and one
Fraction per distinct numerator.  The seal peels each key from its top
field, which its bit length names.

A JetPoly keeps its terms sorted by reversed monomial, m[::-1]: that is
lexicographic on exponent vectors with the highest slot label most
significant.  Labels own ascending fields from the low bits and no field
carries, so this is the integer order of the packed keys in every packing,
and the seal sorts plain ints.  Each monomial lists its labels in
increasing order, each exponent is positive and each coefficient a non-zero
Fraction, so equal polynomials compare equal.  Printing (jp_text) sorts the
terms by slot-degree and monomial.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import reduce
from math import lcm, log2
from operator import or_

from . import expr as ex
from .expr import Expr
from .fields import PolyVectorField
from .weights import _check_names, record
from .wpoly import MAX_EXPANDED_POWER

Label = tuple[int, int]
Monomial = tuple[tuple[Label, int], ...]
# A raw series: one dict packed monomial -> int numerator per eps level, over
# one shared positive denominator.  A raw polynomial is a one-level series.
Raw = tuple[list[dict[int, int]], int]


@record
class JetPoly:
    """Polynomial with rational coefficients in slot variables (a, j)."""

    terms: tuple[tuple[Monomial, Fraction], ...]

    def __init__(self, terms):
        object.__setattr__(self, "terms", terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return jp_add(self, as_jetpoly(other))

    __radd__ = __add__

    def __sub__(self, other):
        return jp_add(self, jp_scale(as_jetpoly(other), -1))

    def __mul__(self, other):
        return jp_mul(self, as_jetpoly(other))

    __rmul__ = __mul__

    def __neg__(self):
        return jp_scale(self, -1)

    def __str__(self):
        return jp_text(self)


def jetpoly(terms: Mapping[Monomial, Fraction]) -> JetPoly:
    cleaned = [(m, c if isinstance(c, Fraction) else Fraction(c))
               for m, c in terms.items() if c != 0]
    cleaned.sort(key=lambda item: item[0][::-1])
    return JetPoly(tuple(cleaned))


JP_ZERO = jetpoly({})
JP_ONE = jetpoly({(): Fraction(1)})


def as_jetpoly(value) -> JetPoly:
    if isinstance(value, JetPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return jp_const(value)
    raise TypeError(f"cannot interpret {value!r} as a jet polynomial")


def jp_const(c) -> JetPoly:
    return jetpoly({(): Fraction(c)})


def jp_slot(a: int, j: int) -> JetPoly:
    return JetPoly((((((a, j), 1),), Fraction(1)),))


def jp_add(*polys: JetPoly) -> JetPoly:
    fields = _Fields(jp_labels(*polys), _max_exponent(*polys))
    (total,), den = _series_sum([fields.raw(p) for p in polys], 0)
    return fields.seal(total, den)


def jp_mul(a: JetPoly, b: JetPoly) -> JetPoly:
    fields = _Fields(jp_labels(a, b), _max_exponent(a) + _max_exponent(b))
    (product,), den = _series_mul(fields.raw(a), fields.raw(b), 0)
    return fields.seal(product, den)


def jp_scale(p: JetPoly, c) -> JetPoly:
    c = Fraction(c)
    return jetpoly({m: v * c for m, v in p.terms})


def jp_pow(p: JetPoly, exponent: int) -> JetPoly:
    fields = _Fields(jp_labels(p), exponent * _max_exponent(p))
    (power,), den = _series_pow(fields.raw(p), exponent, 0)
    return fields.seal(power, den)


def jp_substitute(p: JetPoly, mapping: Mapping[Label, JetPoly]) -> JetPoly:
    """p with each slot in mapping replaced by its value.  The fields are
    bounded by the largest sum of e * (largest exponent of the value) over
    the factors label^e of a term; a term through a zero value vanishes."""
    values = {label: mapping[label] if label in mapping else jp_slot(*label)
              for label in jp_labels(p)}
    top = {label: _max_exponent(g) for label, g in values.items()}
    fields = _Fields(jp_labels(*values.values()), max(
        (sum(e * top[label] for label, e in m) for m, _ in p.terms), default=0))
    return fields.seal(*_substitute_raw(
        p, {label: fields.raw(g) for label, g in values.items()}))


def _substitute_raw(p: JetPoly, raw_values: Mapping[Label, Raw]):
    """p with each of its slots replaced by its raw value: (nums, den)."""
    pieces = []
    for m, c in p.terms:
        piece = [{0: c.numerator}], c.denominator
        for label, e in m:
            piece = _series_mul(piece, _series_pow(raw_values[label], e, 0), 0)
        pieces.append(piece)
    (total,), den = _series_sum(pieces, 0)
    return total, den


def jp_evaluate(p: JetPoly, values: Mapping[Label, Fraction]) -> Fraction:
    out = Fraction(0)
    for m, c in p.terms:
        piece = c
        for label, e in m:
            if label not in values:
                raise ValueError(f"no value for slot {_slot_name(label)}")
            piece *= Fraction(values[label]) ** e
        out += piece
    return out


def jp_labels(*polys: JetPoly) -> set[Label]:
    return {label for p in polys for m, _ in p.terms for label, _ in m}


def jp_weighted_degree_terms(p: JetPoly) -> set[int]:
    """Set of slot-degrees sum(e * j) of the monomials of p."""
    return {sum(e * j for (_, j), e in m) for m, _ in p.terms}


def _slot_name(label: Label, names: Sequence[str] | None = None) -> str:
    """The slot (a, j) as name.level, variable a named x{a + 1} by default."""
    a, j = label
    base = names[a] if names is not None else f"x{a + 1}"
    return f"{base}.{j}"


def jp_text(p: JetPoly, names: Sequence[str] | None = None) -> str:
    """Deterministic print with slots rendered as name.level."""
    if p.is_zero:
        return "0"
    return ex._terms_text(
        (ex.const(c), ex._monomial_text((_slot_name(l, names), e) for l, e in m))
        for m, c in sorted(p.terms, key=lambda item: (
            sum(e * j for (_, j), e in item[0]), item[0])))


# ---------------------------------------------------------------------------
# the integer-first kernel

def _max_exponent(*polys: JetPoly) -> int:
    return max((e for p in polys for m, _ in p.terms for _, e in m), default=0)


class _Fields:
    """The packing of one operation: the k-th smallest label owns the bits
    k*width to (k+1)*width - 1 of a key, and no exponent exceeds the bound
    the width is made for, so adding keys never carries across fields."""

    __slots__ = ("labels", "width", "mask", "offsets", "peel")

    def __init__(self, labels, bound: int):
        self.labels = sorted(labels)
        self.width = w = max(bound, 1).bit_length()
        self.mask = (1 << w) - 1
        self.offsets = {label: k * w for k, label in enumerate(self.labels)}
        self.peel = None

    def raw(self, *polys: JetPoly) -> Raw:
        """The polynomials as the levels of one raw series."""
        off = self.offsets
        den = lcm(*[c.denominator for p in polys for _, c in p.terms])
        levels = []
        for p in polys:
            nums = {}
            for m, c in p.terms:
                key = 0
                for label, e in m:
                    key += e << off[label]
                nums[key] = c.numerator * (den // c.denominator)
            levels.append(nums)
        return levels, den

    def seal(self, nums: dict[int, int], den: int) -> JetPoly:
        """The JetPoly of numerators over den."""
        return self.seal_levels((nums,), den)[0]

    def seal_levels(self, levels: Sequence[dict[int, int]],
                    den: int) -> list[JetPoly]:
        """One JetPoly per level of numerators over den, with one Fraction
        per distinct numerator across the levels.  Labels ascend from the
        low bits and no field carries, so the integer order of the keys is
        the order of the reversed monomials: each level is walked in sorted
        key order, each key peeled from its top field down and reversed, so
        each monomial comes out sorted by label."""
        peel = self.peel
        if peel is None:  # peel[b]: (label, offset, low mask) of bit b - 1
            self.peel = peel = [None]
            for label, off in self.offsets.items():
                peel += [(label, off, (1 << off) - 1)] * self.width
        fractions = {c: Fraction(c, den) if den != 1 else Fraction(c)
                     for c in set().union(*map(dict.values, levels)) if c}
        polys = []
        for nums in levels:
            terms = []
            for key in sorted(nums):
                c = nums[key]
                if c:
                    m = []
                    while key:
                        label, off, low = peel[key.bit_length()]
                        m.append((label, key >> off))
                        key &= low
                    m.reverse()
                    terms.append((tuple(m), fractions[c]))
            polys.append(JetPoly(tuple(terms)))
        return polys


def _mul_into(out: dict, x: dict, y: dict) -> None:
    """out += x * y, in place."""
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m = m1 + m2
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2


def _series_mul(a: Raw, b: Raw, r: int, lo: int = 0) -> Raw:
    """The product from eps^lo to eps^r; lower levels stay empty."""
    (xs, dx), (ys, dy) = a, b
    out = [{} for _ in range(r + 1)]
    for i, x in enumerate(xs[:r + 1]):
        if x:
            start = lo - i if lo > i else 0
            for j, y in enumerate(ys[start:r + 1 - i], start):
                if y:
                    acc = out[i + j]
                    for m1, c1 in x.items():
                        for m2, c2 in y.items():
                            m = m1 + m2
                            acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
    return out, dx * dy


def _series_square(a: Raw, r: int, lo: int = 0) -> Raw:
    """a * a from eps^lo to eps^r, taking each pair of levels once and, at
    level 2i, each unordered pair of terms of level i once."""
    xs, d = a
    out = [{} for _ in range(r + 1)]
    for i, x in enumerate(xs[:r + 1]):
        if x:
            if lo <= 2 * i <= r:
                acc = out[2 * i]
                items = list(x.items())
                for k, (m1, c1) in enumerate(items):
                    m = m1 + m1
                    acc[m] = acc[m] + c1 * c1 if m in acc else c1 * c1
                    c1 += c1
                    for m2, c2 in items[k + 1:]:
                        m = m1 + m2
                        acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
            start = lo - i if lo > 2 * i else i + 1
            if start <= r - i:
                twice = {m: 2 * c for m, c in x.items()}.items()
                for j, y in enumerate(xs[start:r + 1 - i], start):
                    if y:
                        acc = out[i + j]
                        for m1, c1 in twice:
                            for m2, c2 in y.items():
                                m = m1 + m2
                                acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
    return out, d * d


def _series_pow(a: Raw, exponent: int, r: int, lo: int = 0) -> Raw:
    """a^exponent from eps^lo to eps^r, squaring and multiplying left to
    right; for exponent 1 it is a itself.  With two or more terms at level
    0, never truncated, the exponent is capped."""
    if exponent < 0:
        raise ValueError("negative power of a jet polynomial")
    if exponent > MAX_EXPANDED_POWER and sum(map(bool, a[0][0].values())) > 1:
        raise ValueError(
            f"exponent {exponent} of a base with two or more terms exceeds "
            f"the limit MAX_EXPANDED_POWER = {MAX_EXPANDED_POWER}")
    if not exponent:
        return [{0: 1}] + [{} for _ in range(r)], 1
    bits, out = bin(exponent)[3:], a
    for k, bit in enumerate(bits, start=1):
        last = lo if k == len(bits) else 0
        out = _series_square(out, r, 0 if bit == "1" else last)
        if bit == "1":
            out = _series_mul(out, a, r, last)
    return out


def _series_sum(parts: Sequence[Raw], r: int, lo: int = 0) -> Raw:
    """The sum from eps^lo to eps^r, over the lcm of the denominators."""
    den = lcm(*(d for _, d in parts))
    acc = [{} for _ in range(r + 1)]
    for levels, d in parts:
        k = den // d
        for out, level in zip(acc[lo:], levels[lo:]):
            for m, c in level.items():
                out[m] = out[m] + k * c if m in out else k * c
    return acc, den


# ---------------------------------------------------------------------------
# truncated scalars and chart points

@record
class JetScalar:
    """Element of R[eps]/(eps^{r+1}) with rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        other = as_jetscalar(other, self.order)
        return JetScalar(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __mul__(self, other):
        other = as_jetscalar(other, self.order)
        r = self.order
        out = [Fraction(0)] * (r + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs[:r + 1 - i]):
                    out[i + j] += a * b
        return JetScalar(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power in the truncated algebra")
        out = jet_scalar_const(1, self.order)
        for bit in bin(exponent)[2:]:  # square and multiply, left to right
            out = out * out * self if bit == "1" else out * out
        return out


def jet_scalar(coeffs: Sequence, order: int | None = None) -> JetScalar:
    cs = [Fraction(c) for c in coeffs]
    if order is not None:
        cs = (cs + [Fraction(0)] * (order + 1))[:order + 1]
    return JetScalar(tuple(cs))


def jet_scalar_const(c, order: int) -> JetScalar:
    return jet_scalar([c] + [0] * order)


def as_jetscalar(value, order: int) -> JetScalar:
    if isinstance(value, JetScalar):
        if value.order != order:
            raise ValueError("mixed truncation orders")
        return value
    return jet_scalar_const(Fraction(value), order)


@record
class JetPoint:
    """A chart point of the order-r tangent bundle: slots per variable."""

    vars: tuple[str, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _check_names(self.vars)
        if len(self.vars) != len(self.values):
            raise ValueError("one slot vector per variable required")
        lengths = {len(v) for v in self.values}
        if len(lengths) != 1:
            raise ValueError("all slot vectors must share one order")

    @property
    def order(self) -> int:
        return len(self.values[0]) - 1

    def slot(self, a: int, j: int) -> Fraction:
        return self.values[a][j]

    def slot_map(self) -> dict[Label, Fraction]:
        return {(a, j): v for a, row in enumerate(self.values)
                for j, v in enumerate(row)}

    def base(self) -> tuple[Fraction, ...]:
        return tuple(row[0] for row in self.values)


def jet_point(vars: Sequence[str], rows: Sequence[Sequence]) -> JetPoint:
    return JetPoint(tuple(vars),
                    tuple(tuple(Fraction(v) for v in row) for row in rows))


def evaluate_jet(f: Expr, u: JetPoint) -> JetScalar:
    """Evaluate a polynomial expression on a jet in the truncated algebra."""
    r = u.order
    names = {name: jet_scalar(row, r) for name, row in zip(u.vars, u.values)}

    def rec(e: Expr) -> JetScalar:
        if isinstance(e, ex.Const):
            return jet_scalar_const(e.value, r)
        if isinstance(e, ex.Var):
            if e.name not in names:
                raise ValueError(f"variable {e.name!r} is not a chart variable")
            return names[e.name]
        if isinstance(e, ex.Sum):
            out = jet_scalar_const(0, r)
            for t in e.terms:
                out = out + rec(t)
            return out
        if isinstance(e, ex.Prod):
            out = jet_scalar_const(1, r)
            for fct in e.factors:
                out = out * rec(fct)
            return out
        if isinstance(e, ex.Pow):
            if e.exponent < 0:
                raise ValueError("input is not polynomial (negative power)")
            return rec(e.base) ** e.exponent
        if isinstance(e, ex.App):
            raise ValueError(f"input is not polynomial ({e.fn} head)")
        raise TypeError(f"unknown expression node {e!r}")

    return rec(f)


# ---------------------------------------------------------------------------
# lifts

def _degree(e: Expr) -> int:
    """Total degree of a polynomial expression, counting 0 for the nodes
    a lift rejects (it raises before its fields are used)."""
    if isinstance(e, ex.Var):
        return 1
    if isinstance(e, ex.Sum):
        return max(map(_degree, e.terms))
    if isinstance(e, ex.Prod):
        return sum(map(_degree, e.factors))
    if isinstance(e, ex.Pow):
        return max(e.exponent, 0) * _degree(e.base)
    return 0


def _generic_series(f: Expr, rows: Mapping[str, Raw], r: int,
                    lo: int = 0) -> Raw:
    """Coefficients of f from eps^lo to eps^r with each chart variable
    replaced by its series in rows: the generic jet gives the lifts of f,
    the rows of a graph give the lifts restricted to it."""

    powers: dict[Expr, Raw] = {}  # the full-level series of each Pow node

    def rec(e: Expr, lo: int = 0) -> Raw:
        if isinstance(e, ex.Const):
            return [{0: e.value.numerator}] + [{} for _ in range(r)], \
                e.value.denominator
        if isinstance(e, ex.Var):
            if e.name not in rows:
                raise ValueError(f"variable {e.name!r} is not a chart variable")
            return rows[e.name]
        if isinstance(e, ex.Sum):
            return _series_sum([rec(t, lo) for t in e.terms], r, lo)
        if isinstance(e, ex.Prod):
            c, *rest = e.factors
            if isinstance(c, ex.Const):  # the constant scales the rest
                levels, den = rec(ex.Prod(tuple(rest)) if rest[1:] else
                                  rest[0], lo)
                k = c.value.numerator
                return [{m: k * v for m, v in level.items()} if level else {}
                        for level in levels], den * c.value.denominator
            *head, last = map(rec, e.factors)
            return _series_mul(reduce(lambda x, y: _series_mul(x, y, r), head),
                               last, r, lo)
        if isinstance(e, ex.Pow):
            if e.exponent < 0:
                raise ValueError("input is not polynomial (negative power)")
            out = powers.get(e) or _series_pow(rec(e.base), e.exponent, r, lo)
            if not lo:
                powers[e] = out
            return out
        if isinstance(e, ex.App):
            raise ValueError(f"input is not polynomial ({e.fn} head)")
        raise TypeError(f"unknown expression node {e!r}")

    return rec(f, lo)


def _row_fields(rows: Sequence[Sequence[JetPoly]],
                degree: int) -> tuple[_Fields, list[Raw]]:
    """Fields for products of at most degree row values, and each row, the
    levels of one series, as a raw series on them."""
    values = [g for row in rows for g in row]
    fields = _Fields(jp_labels(*values), degree * _max_exponent(*values))
    return fields, [fields.raw(*row) for row in rows]


def _jet_rows(chart: Sequence[str], r: int,
              degree: int) -> tuple[_Fields, dict[str, Raw]]:
    """Fields for products of at most degree slots (a, j), j <= r, of the
    chart, and the generic jet's rows on them: row a is sum_j (a, j) eps^j."""
    if len(chart) * (r + 1) > MAX_JET_SLOTS:
        raise ValueError(f"{len(chart) * (r + 1)} jet slots exceed the limit "
                         f"MAX_JET_SLOTS = {MAX_JET_SLOTS}")
    fields = _Fields([(a, j) for a in range(len(chart)) for j in range(r + 1)],
                     degree)
    off = fields.offsets
    return fields, {name: ([{1 << off[(a, j)]: 1} for j in range(r + 1)], 1)
                    for a, name in enumerate(chart)}


def jet_lift(f: Expr, i: int, r: int, chart: Sequence[str]) -> JetPoly:
    """The lift f^(i): the eps^i coefficient of f on the generic jet."""
    if not 0 <= i <= r:
        raise ValueError(f"lift level {i} outside 0..{r}")
    _check_names(chart)
    # no monomial of a lift has a larger total degree than f
    fields, rows = _jet_rows(chart, i, _degree(f))
    levels, den = _generic_series(f, rows, i, i)
    return fields.seal(levels[i], den)


@record
class JetVectorField:
    """Vector field on the prolonged chart: slot (a, k) -> coefficient."""

    terms: tuple[tuple[Label, JetPoly], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, label: Label) -> JetPoly:
        for l, c in self.terms:
            if l == label:
                return c
        return JP_ZERO

    def __str__(self):
        return ex._field_text((jp_text(c), _slot_name(label))
                              for label, c in self.terms)


def jet_vf(terms: Mapping[Label, JetPoly]) -> JetVectorField:
    cleaned = [(l, c) for l, c in terms.items() if not c.is_zero]
    cleaned.sort(key=lambda item: item[0])
    return JetVectorField(tuple(cleaned))


def _raw_field(xi: JetVectorField,
               fields: _Fields) -> tuple[list[tuple[Label, dict]], int]:
    levels, den = fields.raw(*(c for _, c in xi.terms))
    return [(label, nums) for (label, _), nums in zip(xi.terms, levels)], den


def _apply_into(out: dict, field: list[tuple[Label, dict]], nums: dict,
                fields: _Fields) -> dict:
    """out += field(nums), in place; the denominators multiply."""
    offsets, mask = fields.offsets, fields.mask
    support = reduce(or_, nums, 0)  # a slot's field is 0 where no key has it
    for label, c in field:
        if label in offsets and support >> offsets[label] & mask:
            off = offsets[label]
            one = 1 << off
            # lowering one exponent keeps distinct monomials distinct
            dp = {m - one: v * e for m, v in nums.items()
                  if (e := m >> off & mask)}
            _mul_into(out, c, dp)
    return out


def jvf_apply(xi: JetVectorField, p: JetPoly) -> JetPoly:
    coeffs = [c for _, c in xi.terms]
    fields = _Fields(jp_labels(p, *coeffs),
                     _max_exponent(*coeffs) + _max_exponent(p))
    field, field_den = _raw_field(xi, fields)
    (nums,), den = fields.raw(p)
    return fields.seal(_apply_into({}, field, nums, fields), field_den * den)


def jet_bracket(xi: JetVectorField, eta: JetVectorField) -> JetVectorField:
    """Coordinate Lie bracket on the prolonged chart."""
    cx, ce = [c for _, c in xi.terms], [c for _, c in eta.terms]
    fields = _Fields(jp_labels(*cx, *ce), _max_exponent(*cx) + _max_exponent(*ce))
    fx, dx = _raw_field(xi, fields)
    fe, de = _raw_field(eta, fields)
    # [xi, eta]_l = xi(eta_l) - eta(xi_l), every term over dx * de
    acc: dict[Label, dict[int, int]] = {}
    for label, c in fe:
        _apply_into(acc.setdefault(label, {}), fx, c, fields)
    for label, c in fx:
        _apply_into(acc.setdefault(label, {}), fe, {m: -v for m, v in c.items()},
                    fields)
    return jet_vf(dict(zip(acc, fields.seal_levels(list(acc.values()),
                                                   dx * de))))


def vf_lift(X: PolyVectorField, i: int, r: int) -> JetVectorField:
    """The lift X^(-i): coefficients f_a^(k-i) on d/d[x_a^(k)], k = i..r,
    with f_a = sum_s c_s x^s lifted as sum_s c_s * prod_v row_v^(s_v)."""
    if not 0 <= i <= r:
        raise ValueError(f"lift level {i} outside 0..{r}")
    acc: dict[Label, JetPoly] = {}
    fields, rows = _jet_rows(X.vars, r - i, max(
        (sum(s) + _degree(c) for p in X.coeffs for s, c in p.terms), default=0))
    for a, coeff in enumerate(X.coeffs):
        pieces = []
        for s, c in coeff.terms:
            piece = _generic_series(c, rows, r - i)
            for v, e in zip(coeff.pvars, s):
                if e:
                    if v not in rows:
                        raise ValueError(f"variable {v!r} is not a chart variable")
                    piece = _series_mul(piece, _series_pow(rows[v], e, r - i),
                                        r - i)
            pieces.append(piece)
        for k, p in enumerate(fields.seal_levels(*_series_sum(pieces, r - i)),
                              start=i):
            acc[(a, k)] = p
    return jet_vf(acc)


def epsilon_shift(xi: JetVectorField, r: int) -> JetVectorField:
    """Frame-wise action of eps: d/d[x_a^(j)] -> d/d[x_a^(j+1)], top level drops."""
    # (a, j) -> (a, j + 1) is injective, so no two coefficients meet
    return jet_vf({(a, j + 1): c for (a, j), c in xi.terms if j < r})


def jp_reparametrize(rows: Sequence[Sequence[JetPoly]],
                     psi: Sequence[JetPoly]) -> list[list[JetPoly]]:
    """Series of slot polynomials under eps -> Psi(eps) = sum_m psi[m-1] eps^m:
    row a of the result is sum_j rows[a][j] Psi(eps)^j up to eps^len(psi)."""
    fields, out = _reparametrize_raw(rows, psi)
    den = lcm(*(d for _, d in out))  # the rows over one denominator
    sealed = iter(fields.seal_levels(
        [{m: c * (den // d) for m, c in nums.items()}
         for levels, d in out for nums in levels], den))
    return [[next(sealed) for _ in levels] for levels, _ in out]


def _reparametrize_raw(rows: Sequence[Sequence[JetPoly]], psi: Sequence[JetPoly],
                       degree: int = 1) -> tuple[_Fields, list[Raw]]:
    """The rows of jp_reparametrize as raw series, on fields for products of
    at most degree of their values."""
    r = len(psi)
    values = [g for row in rows for g in row]
    # a term is a row value times a product of at most r values of psi
    fields = _Fields(jp_labels(*values, *psi), max(degree, 1) * (
        _max_exponent(*values) + r * _max_exponent(*psi)))
    levels, den = fields.raw(*psi)
    Psi = [{}] + levels, den
    powers = [_series_pow(Psi, 0, r)]
    for _ in range(r):
        powers.append(_series_mul(powers[-1], Psi, r))
    out = []
    for row in rows:
        vals, vals_den = fields.raw(*row)
        out.append(_series_sum([_series_mul(([v], vals_den), power, r)
                                for v, power in zip(vals, powers)], r))
    return fields, out


# ---------------------------------------------------------------------------
# reparametrization and the tangent-space translation

@record
class Reparametrization:
    """Algebra endomorphism of the truncated algebra, eps -> sum psi_j eps^j."""

    psi: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.psi)

    def of_epsilon(self) -> JetScalar:
        return jet_scalar([0] + list(self.psi))

    def __str__(self):
        pieces = [f"{c}*e" + (f"^{j + 1}" if j else "")
                  for j, c in enumerate(self.psi) if c != 0]
        return "psi=" + (" + ".join(pieces) if pieces else "0")


def reparam(psi: Sequence, order: int | None = None) -> Reparametrization:
    cs = [Fraction(c) for c in psi]
    if order is not None:
        cs = (cs + [Fraction(0)] * order)[:order]
    return Reparametrization(tuple(cs))


def dilation(t, order: int) -> Reparametrization:
    return reparam([t] + [0] * (order - 1))


def reparametrize(u: JetPoint, psi: Reparametrization) -> JetPoint:
    """Compose the jet with the reparametrization (slotwise substitution)."""
    if psi.order != u.order:
        raise ValueError("reparametrization order does not match the point")
    p = psi.of_epsilon()
    return jet_point(u.vars, [_polynomial_at(row, p).coeffs for row in u.values])


def reparam_compose(outer: Reparametrization,
                    inner: Reparametrization) -> Reparametrization:
    """The endomorphism outer o inner (inner applied first).

    Its defining polynomial is P_inner evaluated at P_outer(eps):
    (outer o inner)(q) = q(P_inner(P_outer(eps))).
    """
    if outer.order != inner.order:
        raise ValueError("mixed truncation orders")
    total = _polynomial_at((Fraction(0),) + inner.psi, outer.of_epsilon())
    return reparam(total.coeffs[1:])


def _polynomial_at(coeffs: Sequence[Fraction], p: JetScalar) -> JetScalar:
    """sum_j coeffs[j] * p^j in the truncated algebra of p."""
    total = jet_scalar_const(0, p.order)
    power = jet_scalar_const(1, p.order)
    for c in coeffs:
        total = total + c * power
        power = power * p
    return total


def tm_translate(u: JetPoint, base: Sequence, components: Sequence) -> JetPoint:
    """Shift the top slots by a tangent vector attached at the base of u."""
    base = tuple(Fraction(b) for b in base)
    if base != u.base():
        raise ValueError("tangent vector base point does not match the jet")
    comps = tuple(Fraction(c) for c in components)
    if len(comps) != len(u.vars):
        raise ValueError("one component per variable required")
    rows = [row[:-1] + (row[-1] + c,) for row, c in zip(u.values, comps)]
    return jet_point(u.vars, rows)


# ---------------------------------------------------------------------------
# text formats

def jet_point_text(u: JetPoint) -> str:
    """Format "x=0:0,1:1,2:0; y=..." listing slot values per variable."""
    chunks = []
    for name, row in zip(u.vars, u.values):
        slots = ",".join(f"{j}:{v}" for j, v in enumerate(row))
        chunks.append(f"{name}={slots}")
    return "; ".join(chunks)


# A decimal exponent k makes Fraction build 10^|k|, about 3.33 |k| bits,
# before any other check: bound it by the constant limit of expr.
_DECIMAL_EXPONENT_RE = r"[eE]\s*([-+]?[0-9_]+)\s*$"

# Highest power e^j that parse_reparametrization accepts: a term e^j
# allocates j coefficients.
MAX_REPARAM_ORDER = 1000

# Most slots (a, j) the generic jet of a lift may hold: it packs one bit
# field per slot before any work starts.  The jet of jet_lift at level i has
# n * (i + 1) slots on n variables, that of vf_lift from level i to order r
# has n * (r - i + 1).
MAX_JET_SLOTS = 10_000


def _parse_fraction(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent above the constant limit
    and reporting a zero denominator as a ValueError."""
    m = re.search(_DECIMAL_EXPONENT_RE, text)
    if m and abs(int(m.group(1))) * log2(10) > ex.MAX_CONSTANT_BITS:
        raise ValueError(f"decimal exponent {m.group(1)} exceeds the limit "
                         f"MAX_CONSTANT_BITS = {ex.MAX_CONSTANT_BITS}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def parse_jet_point(text: str) -> JetPoint:
    names, rows = [], []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if "=" not in chunk:
            raise ValueError(f"malformed jet point chunk {chunk!r}")
        name, body = chunk.split("=", 1)
        slots: dict[int, Fraction] = {}
        for piece in body.split(","):
            if ":" not in piece:
                raise ValueError(f"malformed slot {piece.strip()!r}")
            level, value = piece.split(":", 1)
            j = int(level)
            if j in slots:
                raise ValueError(f"variable {name.strip()!r} repeats slot level {j}")
            slots[j] = _parse_fraction(value.strip())
        if sorted(slots) != list(range(len(slots))):
            raise ValueError(f"variable {name.strip()!r} is missing slot levels")
        names.append(name.strip())
        rows.append([slots[j] for j in range(len(slots))])
    return jet_point(names, rows)


_PSI_TERM_RE = r"^\s*([+-]?[0-9/]*)\s*\*?\s*e(?:\^(\d+))?\s*$"


def parse_reparametrization(text: str, order: int | None = None) -> Reparametrization:
    """Parse "psi=1*e+1*e^2" (or just the right-hand side)."""
    body = text.split("=", 1)[1] if "=" in text else text
    body = body.replace(" ", "").replace("-", "+-")
    coeffs: dict[int, Fraction] = {}
    match = re.compile(_PSI_TERM_RE).match
    for chunk in body.split("+"):
        if not chunk.strip():
            continue
        m = match(chunk)
        if m is None:
            raise ValueError(f"malformed reparametrization term {chunk.strip()!r}")
        raw, power = m.groups()
        coeff = _parse_fraction(raw) if raw not in ("", "+", "-") else \
            Fraction(-1 if raw == "-" else 1)
        j = int(power) if power else 1
        if j < 1:
            raise ValueError("reparametrization terms start at e^1")
        if j > MAX_REPARAM_ORDER:
            raise ValueError(f"term e^{j} exceeds the limit "
                             f"MAX_REPARAM_ORDER = {MAX_REPARAM_ORDER}")
        coeffs[j] = coeffs.get(j, Fraction(0)) + coeff
    top = max(coeffs) if coeffs else 1
    if order is None:
        order = top
    if top > order:
        raise ValueError(f"term e^{top} above truncation order {order}")
    return reparam([coeffs.get(j, Fraction(0))
                    for j in range(1, order + 1)])
