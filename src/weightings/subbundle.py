"""Graded subbundles of the prolonged chart, the weighting criterion, and
adapted coordinates.

A GraphSubbundle, built by ``graph_subbundle`` (or by ``coordinate_graph``
from coordinates u = x - G), stores the subbundle in solved form: a set of
constrained slots (a, j), each equal to a slot polynomial in the free slots
that is homogeneous of degree j.  Membership, tangency, restriction, and
the weighting checks all reduce to substitution into this graph.

``check_weighting`` decides in two steps and names a rejection in a third:

  N1  the free-slot pattern of every variable must be a prefix of the levels
      (otherwise the induced flag is not a filtration containing the base
      tangent directions);
  N4  filtration consistency: every nonzero right-hand side must be the
      restriction of an honest function lift.  The solver looks for a
      polynomial change of coordinates u_a = x_a - G_a, with G_a a rational
      combination of monomials u^s in the coordinates already corrected,
      s.w < w_a, that turns the graph into the standard one.  A residual
      outside the span of the candidates' lifts rejects the graph (see
      below for why that is complete for positive weights);
  N3  only when N4 rejects: invariance under a generic reparametrization,
      checked as polynomial identities; a failure is reported instead.

N4 suffices: every lift u_a^(j) with j < w_a vanishes on the graph, so the
graph lies in the standard subbundle of u; both have dimension
sum_a (r + 1 - w_a), so they are equal and the graph passes N3.  Nor does
translation by the tangent bundle (N2) need a check: after N1 every
constrained level is below r, and a right-hand side of degree j reads no
slot above j.

N4 computes on the graph rows: row a at level k is the free slot (a, k) or
its right-hand side, the lift x_a^(k) restricted to the graph, so a
polynomial evaluated on the rows gives its lifts on the graph.  The series
of u_a = x_a - sum_s c_s u^s is kept, and so is that of each candidate u^s,
as u^(s - e_c) times u_c; a residual is one level of u_a.  One pass by
level suffices.  A candidate at level j has s.w = j, so it reads
only u_b with 0 < w_b <= j, whose constraints all sit below j and are
already cleared: a cached u^s stays valid.  Such a u^s has filtration
degree at least j, so its correction clears level j of u_a and moves no
lower level.

FILTRATION_MISMATCH is then complete for positive weights, by an argument
checked on generated weightings (``tests/test_descriptions.py``, G outside
the ansatz too) but not proved: a different choice at an earlier level
differs by a function of at least the same filtration degree, and the
systems are linear with rational data: a real solution gives a rational one.

Each level solves one integer system: a row per packed slot monomial, a
column per candidate u^s, and each non-zero residual of the level as a
right-hand side (a residual changes only through its own correction).
``_eliminate`` reduces it fraction-free (Bareiss); in any row order the
solution with the free columns at 0 is the same, as a column is a pivot
exactly when it is independent of the columns before it.  N4 reads rows
up to the highest constrained level top: the slots above top are free.

Failures carry machine-readable reason codes and a concrete witness.

For a frame, ``adapted_coordinates`` and ``verify_adapted`` need frame words
only on the base, (V^s f) restricted to it.  ``_base_words`` reads them off
the ``wpoly`` term maps of f and of the field coefficients, truncated above
total degree |s| in the positive-weight variables; ``Frame.apply_word``
keeps the exact word on expression trees.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from . import expr as ex
from . import jets as jt
from . import wpoly as wp
from .expr import Expr, ZERO, ONE
from .fields import (PolyVectorField, _apply_expr_field, lie_bracket,
                     vf_for_weights)
from .jets import JetPoly, JetPoint, Label
from .weights import (WeightSequence, _check_names, _exponent_walk,
                      exponents_below, record, weight_sequence,
                      weighted_degree)

FLAG_INVALID = "FLAG_INVALID"
LAMBDA_INVARIANCE = "LAMBDA_INVARIANCE"
FILTRATION_MISMATCH = "FILTRATION_MISMATCH"
UNDECIDED = "UNDECIDED"


class FlagError(ValueError):
    pass


@record
class GraphSubbundle:
    """Graph subbundle: constrained slots as JetPolys in the free slots."""

    vars: tuple[str, ...]
    order: int
    constraints: tuple[tuple[Label, JetPoly], ...]

    @property
    def n(self) -> int:
        return len(self.vars)

    @property
    def dim(self) -> int:
        return self.n * (self.order + 1) - len(self.constraints)

    def constraint_map(self) -> dict[Label, JetPoly]:
        return dict(self.constraints)

    def constrained_labels(self) -> set[Label]:
        return {label for label, _ in self.constraints}

    def free_labels(self) -> list[Label]:
        constrained = self.constrained_labels()
        return [(a, j) for a in range(self.n) for j in range(self.order + 1)
                if (a, j) not in constrained]


def graph_subbundle(vars: Sequence[str], order: int,
                    constraints: Mapping[Label, JetPoly]) -> GraphSubbundle:
    """Validate and canonicalize a solved-form graded subbundle."""
    vars = tuple(vars)
    n = len(vars)
    _check_names(vars)
    if order < 0:
        raise ValueError(f"order {order} is negative")
    labels = set(constraints)
    for (a, j), g in constraints.items():
        if not (0 <= a < n and 0 <= j <= order):
            raise ValueError(f"constraint slot ({a},{j}) out of range")
        if j == 0 and not g.is_zero:
            raise ValueError("level-0 constraints must vanish "
                             "(the base is a coordinate subspace)")
        rhs = f"right-hand side for slot {vars[a]}.{j}"
        if jt.jp_weighted_degree_terms(g) - {j}:
            raise ValueError(f"{rhs} is not homogeneous of degree {j}")
        for b, k in jt.jp_labels(g):
            if not (0 <= b < n and k >= 0):
                raise ValueError(f"{rhs} uses slot {(b, k)} outside the chart")
            if (b, k) in labels:
                raise ValueError(f"{rhs} uses constrained slot {vars[b]}.{k}")
    cleaned = sorted(constraints.items(), key=lambda item: item[0])
    return GraphSubbundle(vars, order, tuple(cleaned))


def coordinate_graph(weights: Mapping[str, int], order: int,
                     shears: Mapping[str, Expr]) -> GraphSubbundle:
    """The graph where u_a = x_a - G_a vanishes to order w_a, for weights
    mapping the chart's names to w_a in chart order and shears names to G_a
    (0 if absent): slot (a, j), j < w_a, is G_a^(j) solved level by level."""
    vars = tuple(weights)
    solved = {(a, j): jt.JP_ZERO for a, name in enumerate(vars)
              for j in range(weights[name]) if j == 0 or name not in shears}
    for name, G in shears.items():
        if name not in weights:
            raise ValueError(f"shear for {name!r}, which is not a chart variable")
        if weights[name] and not jt.jp_substitute(
                jt.jet_lift(G, 0, order, vars), solved).is_zero:
            raise ValueError(f"shear for {name!r} does not vanish on the base")
    for j in range(1, max(weights.values(), default=0)):
        pending = {(vars.index(name), j): jt.jet_lift(G, j, order, vars)
                   for name, G in shears.items() if weights[name] > j}
        while pending:
            pending = {s: jt.jp_substitute(p, solved) for s, p in pending.items()}
            ready = [s for s, p in pending.items()
                     if not jt.jp_labels(p) & pending.keys()]
            if not ready:  # each pending slot reads one: n reads end on a cycle
                s = min(pending)
                for _ in pending:
                    s = min(jt.jp_labels(pending[s]) & pending.keys())
                raise ValueError(f"slot {vars[s[0]]}.{j} depends on itself "
                                 f"through the shears")
            solved.update((s, pending.pop(s)) for s in ready)
    return graph_subbundle(vars, order, solved)


def standard_q(W: WeightSequence) -> GraphSubbundle:
    """The subbundle cut out by vanishing of all slots below each weight."""
    return coordinate_graph(W.as_dict(), W.order, {})


def substitute_graph(Q: GraphSubbundle, p: JetPoly) -> JetPoly:
    """Restrict a slot polynomial to the graph (eliminate constrained slots)."""
    mapping = Q.constraint_map()
    if not (jt.jp_labels(p) & set(mapping)):
        return p
    return jt.jp_substitute(p, mapping)


def q_membership(Q: GraphSubbundle, u: JetPoint) -> bool:
    if u.vars != Q.vars or u.order != Q.order:
        raise ValueError("jet point does not match the subbundle chart")
    values = u.slot_map()
    for (a, j), g in Q.constraints:
        if values[(a, j)] != jt.jp_evaluate(g, values):
            return False
    return True


def induced_filtration_degree(Q: GraphSubbundle, f: Expr) -> int:
    """Largest i <= r+1 with all lower lifts of f vanishing on the graph."""
    r = Q.order
    _fields, rows = jt._row_fields(_graph_rows(Q, r), jt._degree(f))
    rows = dict(zip(Q.vars, rows))
    # the series stops at j, as a lift does: levels past the answer can be
    # far larger than those up to it, and those below j are not read
    for j in range(r + 1):
        levels, _den = jt._generic_series(f, rows, j, j)
        if any(levels[j].values()):
            return j
    return r + 1


def _graph_rows(Q: GraphSubbundle, top: int) -> list[list[JetPoly]]:
    """Row a, level k <= top: the lift x_a^(k) on the graph, which is the
    free slot (a, k) or its right-hand side."""
    cmap = Q.constraint_map()
    return [[cmap.get((a, k), jt.jp_slot(a, k)) for k in range(top + 1)]
            for a in range(Q.n)]


def _slot_weights(Q: GraphSubbundle) -> list[int]:
    """Per-variable first free level; FlagError if the pattern is not a prefix."""
    weights = []
    constrained = Q.constrained_labels()
    for a, name in enumerate(Q.vars):
        levels = sorted(j for (b, j) in constrained if b == a)
        w = len(levels)
        if levels != list(range(w)):
            if 0 not in levels:
                raise FlagError(
                    f"flag does not contain the base tangent direction of "
                    f"{name!r} (level-0 slot is free but level "
                    f"{min(levels)} is constrained)")
            raise FlagError(
                f"free-slot pattern of {name!r} is not monotone in the level "
                f"(constrained levels {levels})")
        if w > Q.order:
            raise FlagError(f"variable {name!r} has every slot constrained")
        weights.append(w)
    return weights


def derive_weights(Q: GraphSubbundle) -> WeightSequence:
    """Weights read off the free-slot pattern (the linear approximation)."""
    return weight_sequence(list(zip(Q.vars, _slot_weights(Q))), Q.order)


def k_membership(Q: GraphSubbundle, X: PolyVectorField, i: int) -> bool:
    """Whether the level -i lift of X is tangent to the graph."""
    if not 0 <= i <= Q.order:
        raise ValueError(f"level {i} outside 0..{Q.order}")
    if X.vars != Q.vars:
        raise ValueError("vector field chart does not match the subbundle")
    xi = jt.vf_lift(X, i, Q.order)
    for (a, j), g in Q.constraints:
        image = xi.coefficient((a, j)) - jt.jvf_apply(xi, g)
        if not substitute_graph(Q, image).is_zero:
            return False
    return True


def quotient_to_normal(Q: GraphSubbundle, u: JetPoint) -> tuple[Fraction, ...]:
    """Project a graph point to graded coordinates (slot at each weight)."""
    if not q_membership(Q, u):
        raise ValueError("point does not lie on the subbundle")
    weights = _slot_weights(Q)
    return tuple(u.slot(a, weights[a]) for a in range(Q.n))


@record(frozen=False)
class WeightingVerdict:
    """Outcome of check_weighting: the weights, or a reason and a witness."""

    accepted: bool
    weights: WeightSequence | None = None
    reason: str | None = None
    witness: str | None = None
    details: dict | None = None

    def __str__(self):
        if self.accepted:
            return f"accepted: weights {self.weights.assignment_text()}"
        text = f"rejected {self.reason}"
        if self.witness:
            text += f": {self.witness}"
        return text


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[int, list[int]]:
    """Fraction-free Gauss-Jordan on the first ncols columns, in place.

    Row i < len(pivots) ends with the common pivot d at column pivots[i] and
    0 at the other pivot columns; the rows after them are 0 there.  Each
    step divides by the previous pivot, exactly (Bareiss)."""
    d, pivots = 1, []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top, p = rows[rank], rows[rank][col]
        rows[:] = [row if row is top else
                   [(p * v - row[col] * t) // d for v, t in zip(row, top)]
                   for row in rows]
        d = p
        pivots.append(col)
    return d, pivots


def _reconstructed_dimension(Q: GraphSubbundle) -> int:
    """Dimension of the standard graph built from induced coordinate degrees:
    x_a has induced degree the first level at which its graph row, the
    lifts of x_a on the graph, is not zero: a free slot, or a constrained
    one with a non-zero right-hand side."""
    r = Q.order
    cmap = Q.constraint_map()
    induced = [next((j for j in range(r + 1) if (a, j) not in cmap
                     or not cmap[a, j].is_zero), r + 1) for a in range(Q.n)]
    return Q.n * (r + 1) - sum(induced)


def _lambda_invariance_witness(Q: GraphSubbundle) -> str | None:
    """Check invariance under a symbolic reparametrization; None if invariant.

    Free slots stay as their own symbols and the reparametrization
    coefficients enter as extra symbols (-1, m), so the check is a set of
    polynomial identities, run up to the highest constrained level (a
    constraint at level j reads no slot above j), on raw series.
    """
    top = max((j for (_a, j), _g in Q.constraints), default=0)
    rows = _graph_rows(Q, top)
    psi = [jt.jp_slot(-1, m) for m in range(1, top + 1)]
    _fields, new_rows = jt._reparametrize_raw(rows, psi, max(
        (sum(e for _, e in m) for _, g in Q.constraints for m, _ in g.terms),
        default=0))
    constrained = Q.constrained_labels()
    free = {(b, k): ([levels[k]], den) for b, (levels, den) in enumerate(new_rows)
            for k in range(top + 1) if (b, k) not in constrained}
    for (a, j), g in Q.constraints:
        (levels, den), (nums, g_den) = new_rows[a], jt._substitute_raw(g, free)
        if {m: v * g_den for m, v in levels[j].items() if v} != \
                {m: v * den for m, v in nums.items() if v}:
            return (f"slot {Q.vars[a]}.{j} moves off the graph under a generic "
                    f"reparametrization")
    return None


def check_weighting(Q: GraphSubbundle) -> WeightingVerdict:
    """Decide whether the graph is the subbundle of a weighting."""
    # N1: flag validity
    try:
        weights = _slot_weights(Q)
    except FlagError as err:
        return WeightingVerdict(False, reason=FLAG_INVALID, witness=str(err))
    verdict = _filtration_verdict(Q, weights)
    # N3 only names a rejection: an N4 acceptance passes it
    witness = None if verdict.accepted else _lambda_invariance_witness(Q)
    if witness is None:
        return verdict
    return WeightingVerdict(False, reason=LAMBDA_INVARIANCE, witness=witness)


def _filtration_verdict(Q: GraphSubbundle,
                        weights: list[int]) -> WeightingVerdict:
    """N4: filtration consistency through coordinate corrections."""
    ordered = sorted(Q.constraints, key=lambda item: (item[0][1], item[0][0]))
    top = ordered[-1][0][1] if ordered else 0
    # u^s multiplies only positive-weight u_c, cleared below w_c >= 1, so
    # level k of u^s has slot exponents <= k * the rows' max <= top * max
    fields, rows = jt._row_fields(_graph_rows(Q, top), top)
    # u[a] = x_a - sum_s c_s u^s on the graph through eps^top, summed over
    # the corrections c_s u^s found so far
    u = list(rows)

    # u^s on the graph through eps^top, as u^(s - e_c) times u_c
    monomial = _by_first_index(lambda c, _s, g: jt._series_mul(g, u[c], top),
                               ([{0: 1}] + [{} for _ in range(top)], 1))

    weight0 = sum(fields.mask << off for (b, _k), off in fields.offsets.items()
                  if weights[b] == 0)
    for j, group in itertools.groupby(ordered, key=lambda item: item[0][1]):
        residuals = {a: residual for (a, _j), _g in group
                     if (residual := {m: v for m, v in u[a][0][j].items() if v})}
        if not residuals:
            continue
        candidates = [s for s, total in _exponent_walk(weights, j + 1)
                      if total == j]
        columns = [monomial(s)[0] for s in candidates]
        # A c = b for each residual b, column s the numerators of u^s at
        # level j: c = row[k] / d on the pivots, 0 on the free columns, and
        # u[a] - sum_s c_s u^s over den clears level j
        keys = {m for col in columns for m in col[j]}.union(*residuals.values())
        matrix = [[col[j].get(m, 0) for col in columns]
                  + [residual.get(m, 0) for residual in residuals.values()]
                  for m in keys]
        d, pivots = _eliminate(matrix, len(columns))
        for k, (a, residual) in enumerate(residuals.items(), len(columns)):
            if any(row[k] for row in matrix[len(pivots):]):
                if any(m & weight0 for m in residual):
                    return WeightingVerdict(
                        False, reason=UNDECIDED,
                        witness=(f"constraint at {Q.vars[a]}.{j} depends on "
                                 f"weight-0 slots beyond the rational ansatz"))
                return WeightingVerdict(
                    False, reason=FILTRATION_MISMATCH,
                    witness=f"witness {Q.vars[a]} level {j}",
                    details={"reconstructed_dim": _reconstructed_dimension(Q),
                             "graph_dim": Q.dim})
            u[a] = jt._series_sum([u[a]] + [
                ([{m: -row[k] * v for m, v in level.items()}
                  for level in columns[p]], u[a][1] * d)
                for row, p in zip(matrix, pivots) if row[k]], top)
    return WeightingVerdict(True, weights=weight_sequence(
        list(zip(Q.vars, weights)), Q.order))


# ---------------------------------------------------------------------------
# frames, differential operators, adapted coordinates

@record
class Frame:
    """Local frame with declared tangency levels, over the chart of W.

    What a frame derives is kept on the instance as plain dicts and tuples,
    outside the dataclass fields, and dies with it.  On first use: each
    field's coefficient expressions and non-zero (variable, coefficient)
    pairs, each cofactor a non-zero bracket component reads, each bracket
    and reordered V_a o V^s; on every bracket until one succeeds, 1/det.
    """

    W: WeightSequence
    fields: tuple[PolyVectorField, ...]

    def __post_init__(self):
        if len(self.fields) != self.W.n:
            raise ValueError("frame needs one field per chart variable")
        for f in self.fields:
            if f.vars != self.W.vars:
                raise ValueError("frame field lives on a different chart")

    @property
    def n(self) -> int:
        return self.W.n

    @cached_property
    def _coeff_exprs(self) -> tuple[tuple[Expr, ...], ...]:
        return tuple(f.coeff_exprs() for f in self.fields)

    @cached_property
    def _pairs(self) -> tuple[tuple[tuple[str, Expr], ...], ...]:
        return tuple(tuple((v, c) for v, c in zip(self.W.vars, row) if not ex._is_zero(c))
                     for row in self._coeff_exprs)

    @cached_property
    def _inverse(self) -> tuple[Fraction, dict]:
        """(1/det, cofactor table) of the matrix whose column c is field c;
        _cofactor fills the table with (i, c) -> cofactor of entry (i, c)."""
        det = ex.expand(_det_expr([list(row) for row in zip(*self._coeff_exprs)]))
        if not isinstance(det, ex.Const) or det.value == 0:
            raise ValueError(
                "frame brackets need a coefficient matrix with constant nonzero "
                f"determinant (got {ex.to_text(det)})")
        return 1 / det.value, {}

    def _cofactor(self, i: int, c: int) -> Expr:
        table = self._inverse[1]
        if (i, c) not in table:
            cols = self._coeff_exprs[:c] + self._coeff_exprs[c + 1:]
            d = _det_expr([[f[k] for f in cols] for k in range(self.n) if k != i])
            table[(i, c)] = -d if (i + c) % 2 else d
        return table[(i, c)]

    @cached_property
    def _brackets(self) -> dict:
        """(a, b) -> [V_a, V_b] over the frame, filled by _frame_bracket."""
        return {}

    @cached_property
    def _va_vs(self) -> dict:
        """(a, s) -> V_a o V^s in standard form, filled by _normal_va_vs
        for the words that need a reordering."""
        return {}

    def field_exprs(self, a: int) -> tuple[Expr, ...]:
        return self._coeff_exprs[a]

    def apply(self, a: int, f: Expr) -> Expr:
        return (ZERO if isinstance(f, ex.Const)
                else _apply_expr_field(self._pairs[a], f))

    def apply_word(self, s: Sequence[int], f: Expr) -> Expr:
        """V^s f with V^s = V_1^{s_1} o ... o V_n^{s_n} (rightmost acts first)."""
        return _word_applier(self)(tuple(s), f)


def _by_first_index(step, start):
    """s -> step(c, s, value at s - e_c), c the first index with s_c > 0,
    and start at s = 0.  Every value is kept, so multi-indices that share a
    prefix compute it once; the function belongs to one computation."""
    memo: dict = {}

    def value(s: tuple[int, ...]):
        if s not in memo:
            c = next((c for c, e in enumerate(s) if e), None)
            memo[s] = start if c is None else step(
                c, s, value(s[:c] + (s[c] - 1,) + s[c + 1:]))
        return memo[s]

    return value


def _word_applier(fr: Frame):
    """V^s f as V_c (V^(s - e_c) f), c the first index with s_c > 0, with
    one _by_first_index per f; the frame keeps nothing."""
    words: dict = {}

    def apply_word(s: tuple[int, ...], f: Expr) -> Expr:
        if f not in words:
            words[f] = _by_first_index(lambda c, _s, g: fr.apply(c, g), f)
        return words[f](s)

    return apply_word


def _field_maps(fr: Frame, bound: int) -> list[list[tuple[str, list]]]:
    """Per field V_c, the (variable v, terms of its d/dv coefficient) pairs
    through total degree bound, empty ones left out; frame() stores each
    coefficient as terms in the positive-weight variables."""
    return [[(v, m) for v, c in zip(fr.W.vars, f.coeffs)
             if (m := wp._values(t for t in c.terms if sum(t[0]) <= bound))]
            for f in fr.fields]


def _base_words(fields: list[list[tuple[str, list]]], pvars: tuple[str, ...],
                f: dict, top: int):
    """s -> (V^s f) on the base, for words with |s| <= top.

    f is the term map of a function in the positive-weight variables, with
    unit weights, truncated above total degree top; fields comes from
    _field_maps with a bound of at least top - 1.  A field differentiates
    once and multiplies by an analytic coefficient, so it lowers the
    vanishing order along the base by at most one: V^s f is known through
    degree top - |s|, and the terms dropped above it never reach degree 0,
    where the value on the base is the coefficient.  Each V^s f is kept, so
    words that share a prefix apply it once.
    """
    ones = (1,) * len(pvars)
    zero = (0,) * len(pvars)
    truncated = _by_first_index(lambda c, s, g: wp._apply_field(
        fields[c], g.items(), pvars, ones, top - sum(s)), f)
    return lambda s: ex.as_expr(truncated(tuple(s)).get(zero, 0))


def restrict_to_base(e: Expr, W: WeightSequence) -> Expr:
    return ex.substitute(e, {v: ZERO for v in W.positive_vars})


def frame(W: WeightSequence, coeff_rows: Sequence[Sequence[Expr]]) -> Frame:
    """Build and validate a frame from per-field coefficient expressions."""
    fields = tuple(vf_for_weights(W, row) for row in coeff_rows)
    fr = Frame(W, fields)
    # a coefficient's value on the base is its x^0 coefficient, and the
    # weight-0 variables come first
    zero = (0,) * len(W.positive_vars)
    origin = {v: Fraction(0) for v in W.zero_vars}
    at_origin = [[ex.const(ex.eval_exact(c.coefficient(zero), origin))
                  for c in f.coeffs] for f in fields]
    if ex._is_zero(_det_expr(at_origin)):
        raise ValueError("frame coefficient matrix is singular at the base point")
    k0 = W.count(0)
    for a in range(k0):
        for b in range(a):
            bracket = lie_bracket(fields[a], fields[b])
            if not all(ex._is_zero(c.coefficient(zero)) for c in bracket.coeffs[:k0]):
                raise ValueError(
                    "base-tangent frame fields do not commute on the base")
    return fr


def _det_expr(matrix: list[list[Expr]]) -> Expr:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    terms = []
    for j, e in enumerate(matrix[0]):
        if not ex._is_zero(e):
            piece = ex.mul(e, _det_expr([row[:j] + row[j + 1:] for row in matrix[1:]]))
            terms.append(piece if j % 2 == 0 else ex.mul(ex.MINUS_ONE, piece))
    return ex.add(*terms, ZERO)


def _frame_bracket(fr: Frame, a: int, b: int) -> tuple[tuple[int, Expr], ...]:
    """[V_a, V_b] expanded over the frame, as adj(A) target / det A."""
    if (a, b) in fr._brackets:
        return fr._brackets[(a, b)]
    target = lie_bracket(fr.fields[a], fr.fields[b]).coeff_exprs()
    inv_det = ex.const(fr._inverse[0])
    nonzero = [(i, t) for i, t in enumerate(target) if not ex._is_zero(t)]
    out = []
    for c in range(fr.n):
        h = ex.expand(ex.mul(inv_det, ex.add(
            *[ex.mul(t, fr._cofactor(i, c)) for i, t in nonzero])))
        if not ex._is_zero(h):
            out.append((c, h))
    fr._brackets[(a, b)] = out = tuple(out)
    return out


@record
class DiffOpStandardForm:
    """Normal-ordered differential operator sum_s f_s V^s over a frame."""

    frame: Frame
    terms: tuple[tuple[tuple[int, ...], Expr], ...]

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for s, f in self.terms:
            word = "".join(f"V{a + 1}" + (f"^{e}" if e > 1 else "")
                           for a, e in enumerate(s) if e)
            body = ex.to_text(f)
            pieces.append(f"({body})" + (f" {word}" if word else ""))
        return " + ".join(pieces)


def diffop(fr: Frame, terms: Mapping[tuple[int, ...], Expr]) -> DiffOpStandardForm:
    cleaned = []
    for s, f in terms.items():
        f = ex.as_expr(f)
        if not ex._is_zero(f):
            cleaned.append((tuple(int(v) for v in s), f))
    cleaned.sort(key=lambda item: item[0])
    return DiffOpStandardForm(fr, tuple(cleaned))


def _compose_into(acc: dict, fr: Frame, b: int, terms) -> None:
    """Add V_b o sum_u c_u V^u = sum_u V_b(c_u) V^u + c_u (V_b o V^u) into
    acc, for terms the (u, c_u) pairs."""
    for u, coeff in terms:
        db = fr.apply(b, coeff)
        if not ex._is_zero(db):
            wp._add_into(acc, ((u, db),), ex.add)
        wp._add_into(acc, ((u2, _times(coeff, coeff2))
                           for u2, coeff2 in _normal_va_vs(fr, b, u)), ex.add)


def _times(a: Expr, b: Expr) -> Expr:
    """a * b, a factor kept as it is when the other is the singleton ONE."""
    return a if b is ONE else b if a is ONE else ex.mul(a, b)


def _normal_va_vs(fr: Frame, a: int, s: tuple[int, ...]) -> tuple:
    """Standard form of V_a o V^s, as ((u, coefficient) ...)."""
    b = next((c for c, e in enumerate(s) if e), a)  # s = 0 is e_a once bumped
    if a <= b:
        return ((s[:a] + (s[a] + 1,) + s[a + 1:], ONE),)
    if (a, s) in fr._va_vs:
        return fr._va_vs[(a, s)]
    rest = s[:b] + (s[b] - 1,) + s[b + 1:]
    acc: dict[tuple[int, ...], Expr] = {}
    # V_a o V^s = V_b o (V_a o V^rest) + [V_a, V_b] o V^rest
    _compose_into(acc, fr, b, _normal_va_vs(fr, a, rest))
    for c, h in _frame_bracket(fr, a, b):
        wp._add_into(acc, ((u2, _times(h, coeff2))
                           for u2, coeff2 in _normal_va_vs(fr, c, rest)), ex.add)
    cleaned = [(u, coeff) for u, coeff in acc.items() if not ex._is_zero(coeff)]
    fr._va_vs[(a, s)] = out = tuple(sorted(cleaned, key=lambda item: item[0]))
    return out


def normal_order(fr: Frame, word: Sequence) -> DiffOpStandardForm:
    """Rewrite a composition word into standard form.

    Word items are frame indices (int, 0-based, meaning composition with
    that frame field) or expressions (meaning multiplication); the leftmost
    item acts last.  A bool, or an int outside 0..n-1, is refused.
    """
    word = list(word)
    for item in word:
        if isinstance(item, int) and (type(item) is bool or not 0 <= item < fr.n):
            raise ValueError(f"word item {item!r} is no frame index 0..{fr.n - 1}")
    terms: dict[tuple[int, ...], Expr] = {(0,) * fr.n: ONE}
    for item in reversed(word):
        if isinstance(item, int):
            nxt: dict[tuple[int, ...], Expr] = {}
            _compose_into(nxt, fr, item, terms.items())
            terms = nxt
        else:
            g = ex.as_expr(item)
            terms = {s: _times(g, f) for s, f in terms.items()}
    return diffop(fr, terms)


def apply_diffop(D: DiffOpStandardForm, f) -> Expr:
    """Exact application sum_s f_s (V^s f); accepts Expr or WeightedPoly."""
    if isinstance(f, wp.WeightedPoly):
        f = wp.to_expr(f)
    apply_word = _word_applier(D.frame)
    return ex.add(*[ex.mul(coeff, apply_word(s, f)) for s, coeff in D.terms],
                  ZERO)


def coefficient_q_weight(D: DiffOpStandardForm, W: WeightSequence) -> int:
    """The coefficient-criterion weight: min_s (deg f_s - w.s), at most 0.

    For operators written over an adapted frame this equals the largest
    weight consistent with the coefficient criterion; it upper-bounds the
    presentation-based weight.
    """
    if not D.terms:
        raise ValueError("zero operator has no weight")
    best = None
    for s, f in D.terms:
        fdeg = wp.filtration_degree(wp.poly_normal_form(f, W.positive_vars), W)
        value = fdeg - weighted_degree(s, W.weights)
        best = value if best is None else min(best, value)
    return int(min(best, 0))


@record
class AdaptedChange:
    """Result of the adapted-coordinates recursion."""

    frame: Frame
    y_names: tuple[str, ...]
    x_in_chart: tuple[Expr, ...]
    x_in_y: tuple[Expr, ...]
    chi: tuple[tuple[tuple[int, tuple[int, ...]], Expr], ...]
    normalizers: tuple[tuple[tuple[int, ...], Fraction], ...]

    def chi_map(self) -> dict:
        return dict(self.chi)

    def normalizer_map(self) -> dict:
        return dict(self.normalizers)


def _normal_multi_indices(W: WeightSequence, below: int,
                          min_size: int) -> list[tuple[int, ...]]:
    """Multi-indices supported on positive-weight variables with s.w < below,
    of size at least min_size, by size and then lexicographically."""
    return sorted((s for s in exponents_below(W.weights, below)
                   if sum(s) >= min_size), key=sum)


def adapted_coordinates(fr: Frame, y_exprs: Sequence[Expr],
                        y_names: Sequence[str] | None = None) -> AdaptedChange:
    """Correct initial coordinates until every frame word of lower weighted
    degree kills them along the base.

    Preconditions: (V_a y_b) restricted to the base is the identity matrix,
    and the positive-weight y's vanish on the base.  The corrections are
    sums chi_{a,u} y^u over multi-indices u with at least two entries,
    supported on the positive-weight variables, of weighted degree below the
    weight of the coordinate being corrected.

    The coefficient of y^s is divided by the normalizer c_s = (V^s y^s) on
    the base, which the preconditions fix to s! = prod_a s_a!.  By the
    Leibniz rule V^s y^s sums over the ways to hand the |s| derivations to
    the |s| factors of y^s.  A factor that gets none vanishes on the base,
    so only bijections survive, and on the base a bijection gives the
    product of its (V_a y_b) = delta_ab: 1 for each of the s! bijections
    that pair every V_a with a factor y_a, 0 for the others.

    Only values on the base are needed, so every word is applied to term
    maps in the positive-weight variables truncated above total degree
    |s| (see _base_words): a frame field lowers the vanishing order along
    the base by at most one, so no dropped term reaches degree 0.  By
    linearity chi_{a,s} = -(V^s x_a)/s! on the base, with x_a the running
    coordinate y_a + sum_{|u| < |s|} chi_{a,u} y^u, so each (a, s) applies
    one word, not one per earlier chi entry.
    """
    W = fr.W
    n = W.n
    pvars = W.positive_vars
    ones = (1,) * len(pvars)
    y_exprs = tuple(ex.as_expr(y) for y in y_exprs)
    y_names = (tuple(f"y{a + 1}" for a in range(n)) if y_names is None
               else tuple(y_names))
    for what, given in (("initial coordinates", y_exprs),
                        ("coordinate names", y_names)):
        if len(given) != n:
            raise ValueError(f"expected {n} {what}, got {len(given)}")
    _check_names(y_names)
    symbols = set(W.zero_vars).union(*map(ex.variables, y_exprs + tuple(
        c for f in fr.fields for p in f.coeffs for _, c in p.terms)))
    clash = symbols.intersection(y_names).difference(W.positive_vars)
    if clash:  # x_in_y would read the name as that symbol
        raise ValueError(f"coordinate name {min(clash)!r} is a weight-0 "
                         f"variable or a symbol outside the weighting")
    max_w = max(W.weights)
    all_s = _normal_multi_indices(W, max_w, 2)
    top = max((sum(s) for s in all_s), default=1)
    fields = _field_maps(fr, top - 1)
    y_maps = [wp._expand(y, pvars, ones, top) for y in y_exprs]
    first_order = [_base_words(fields, pvars, {u: c for u, c in y.items()
                                               if sum(u) <= 1}, 1)
                   for y in y_maps]
    for a in range(n):
        unit = tuple(int(c == a) for c in range(n))
        for b in range(n):
            value = first_order[b](unit)
            expected = ONE if a == b else ZERO
            if value != expected:
                raise ValueError(
                    f"(V_{a + 1} y_{b + 1}) on the base is {ex.to_text(value)}, "
                    f"expected {ex.to_text(expected)}")
    k0 = W.count(0)
    zero = (0,) * len(pvars)
    for a in range(k0, n):
        if zero in y_maps[a]:
            raise ValueError(f"initial coordinate y_{a + 1} does not vanish "
                             f"on the base")
    chi: dict[tuple[int, tuple[int, ...]], Expr] = {}
    normalizers: dict[tuple[int, ...], Fraction] = {}
    # running[a] = y_a + sum of the chi_{a,u} y^u found so far, through
    # degree top; a word of size m reads it through degree m
    running = {a: y_maps[a] for a in range(k0, n)}
    for m, group in itertools.groupby(all_s, key=sum):
        words = {}
        for s in group:
            sw = weighted_degree(s, W.weights)
            normalizers[s] = Fraction(math.prod(map(math.factorial, s)))
            for a in [a for a in range(k0, n) if sw < W.weights[a]]:
                if a not in words:
                    f = {u: c for u, c in running[a].items() if sum(u) <= m}
                    words[a] = _base_words(fields, pvars, f, m)
                value = ex.expand(ex.mul(ex.const(Fraction(-1) / normalizers[s]),
                                         words[a](s)))
                if not ex._is_zero(value):
                    chi[(a, s)] = value
        for (a, u), coeff in chi.items():
            if sum(u) == m:
                term = {zero: wp._value(coeff)}
                for b, e in enumerate(u):
                    for _ in range(e):
                        term = wp._product(term.items(), y_maps[b].items(),
                                           ones, top)
                acc = dict(running[a])
                wp._add_into(acc, term.items())
                running[a] = wp._nonzero(acc)

    def y_monomial(u: tuple[int, ...]) -> Expr:
        return ex.mul(*[ex.pow_(y_exprs[b], e) for b, e in enumerate(u) if e],
                      ONE)

    x_in_chart = []
    x_in_y = []
    for a in range(n):
        chart = y_exprs[a]
        in_y: Expr = ex.var(y_names[a])
        for (a2, u), coeff in chi.items():
            if a2 != a:
                continue
            chart = ex.add(chart, ex.mul(coeff, y_monomial(u)))
            in_y = ex.add(in_y, ex.mul(coeff, wp.monomial_expr(y_names, u)))
        x_in_chart.append(chart)
        x_in_y.append(in_y)
    return AdaptedChange(
        fr, y_names, tuple(x_in_chart), tuple(x_in_y),
        tuple(sorted(chi.items(), key=lambda item: item[0])),
        tuple(sorted(normalizers.items())))


def verify_adapted(x_exprs: Sequence[Expr], fr: Frame) -> bool:
    """Check (V^s x_a) vanishes on the base whenever s.w < w_a."""
    W = fr.W
    pvars = W.positive_vars
    words = {a: _normal_multi_indices(W, W.weights[a], 0)
             for a in range(W.n) if W.weights[a]}
    tops = {a: max(map(sum, all_s)) for a, all_s in words.items()}
    fields = _field_maps(fr, max(max(tops.values(), default=0) - 1, 0))
    for a, all_s in words.items():
        top = tops[a]
        f = wp._expand(ex.as_expr(x_exprs[a]), pvars, (1,) * len(pvars), top)
        on_base = _base_words(fields, pvars, f, top)
        if not all(ex._is_zero(ex.expand(on_base(s))) for s in all_s):
            return False
    return True
