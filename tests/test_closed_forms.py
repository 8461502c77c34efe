"""Frozen copies of replaced code, kept until a definitional check replaces them.

Each copy is the code a library routine replaced, compared with the routine
on generated inputs, and waits for the ROADMAP item named beside it:

* N4 of ``check_weighting`` against Expr corrections lifted by ``jet_lift``
  and restricted by ``substitute_graph``, and ``_eliminate`` against the
  Gauss-Jordan ``_solve_exact``: the graph certificates of item 5;
* the jet kernel's ``seal`` against the unpacking from the lowest field up
  (three tests) and the masked ``_apply_into`` against the unmasked one:
  the one-pass seal of item 9.

Three tests hold no copy: the series on the graph rows and
``induced_filtration_degree`` against lift-then-substitute, their
definition, and ``add`` and ``mul`` of constants against the general path.
A copy leaves when every mutation its change recorded in CHANGES.md fails a
remaining test.  A kernel change adds a case to ``tests/test_references.py``,
not a frozen copy here.
"""

from __future__ import annotations

import functools
import operator
import random
import re
from fractions import Fraction

import pytest

from weightings import expr as ex
from weightings import jets as jt
from weightings import subbundle as sb
from weightings import wpoly as wp
from weightings.expr import ONE, ZERO
from weightings.weights import exponents_below, weight_sequence, weighted_degree

from conftest import rand_expr, rand_jetpoly, rand_poly_expr, rand_rational
from test_subbundle import _random_solved_graph


# ---------------------------------------------------------------------------
# N4 on the graph rows

def _solve_exact(rows: list[list[Fraction]],
                 rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when inconsistent."""
    m = len(rows)
    cols = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        scale = aug[rank][col]
        aug[rank] = [v / scale for v in aug[rank]]
        for r in range(m):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    for r in range(rank, m):
        if aug[r][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = aug[r][cols]
    return x


def _random_level_system(rng):
    """An integer m x ncols matrix of rank at most r, as B C, with some rows
    zeroed, and right-hand sides: A x for a random x, or random."""
    m, ncols = rng.randint(1, 7), rng.randint(0, 6)
    r = rng.randint(0, min(m, ncols))
    B = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(m)]
    C = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(r)]
    A = [[sum(b * C[i][c] for i, b in enumerate(row)) for c in range(ncols)]
         for row in B]
    for i in rng.sample(range(m), rng.randint(0, m // 2)):
        A[i] = [0] * ncols
    rhs = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            x = [rng.randint(-3, 3) for _ in range(ncols)]
            rhs.append([sum(a * v for a, v in zip(row, x)) for row in A])
        else:
            rhs.append([rng.randint(-3, 3) for _ in range(m)])
    return A, rhs


def test_eliminate_matches_solve_exact_on_every_right_hand_side():
    rng = random.Random(2601)
    seen = {"rank_deficient": 0, "zero_row": 0, "consistent": 0,
            "inconsistent": 0, "several": 0}
    for k in range(3000):
        A, rhs = _random_level_system(rng)
        ncols = len(A[0])
        rows = [row + [b[i] for b in rhs] for i, row in enumerate(A)]
        d, pivots = sb._eliminate(rows, ncols)
        rank = len(pivots)
        for i, row in enumerate(rows):
            assert [row[p] for p in pivots] == [
                d * (i == q) for q in range(rank)], k
        for i, b in enumerate(rhs):
            expected = _solve_exact([list(map(Fraction, row)) for row in A],
                                    list(map(Fraction, b)))
            column = ncols + i
            if any(row[column] for row in rows[rank:]):
                assert expected is None, k
                seen["inconsistent"] += 1
                continue
            x = [Fraction(0)] * ncols
            for row, p in zip(rows, pivots):
                x[p] = Fraction(row[column], d)
            assert x == expected, k
            seen["consistent"] += 1
        seen["rank_deficient"] += rank < ncols
        seen["zero_row"] += any(not any(row) for row in A)
        seen["several"] += len(rhs) > 1
    assert min(seen.values()) >= 500, seen


def _reference_solve_as_lift(Q, weights, level, target):
    """Express target as (sum c_s x^s)^(level) restricted to the graph."""
    candidates = [s for s in exponents_below(weights, level + 1)
                  if weighted_degree(s, weights) == level]
    lifts = [sb.substitute_graph(Q, jt.jet_lift(wp.monomial_expr(Q.vars, s),
                                                level, Q.order, Q.vars))
             for s in candidates]
    monomials = sorted({m for p in lifts for m, _ in p.terms}
                       | {m for m, _ in target.terms})
    index = {m: i for i, m in enumerate(monomials)}
    rows = [[Fraction(0)] * len(candidates) for _ in monomials]
    for k, p in enumerate(lifts):
        for m, c in p.terms:
            rows[index[m]][k] = c
    rhs = [Fraction(0)] * len(monomials)
    for m, c in target.terms:
        rhs[index[m]] = c
    solution = _solve_exact(rows, rhs)
    if solution is None:
        return None
    return ex.add(*[ex.mul(ex.const(c), wp.monomial_expr(Q.vars, s))
                    for s, c in zip(candidates, solution) if c != 0], ZERO)


def _reference_filtration_verdict(Q, weights):
    """N4: filtration consistency through coordinate corrections."""
    corrections = {a: ZERO for a in range(Q.n)}
    ordered = sorted(Q.constraints, key=lambda item: (item[0][1], item[0][0]))
    for _ in range(Q.order + 2):
        dirty = False
        for (a, j), _g in ordered:
            corrected = ex.add(ex.var(Q.vars[a]),
                               ex.mul(ex.MINUS_ONE, corrections[a]))
            residual = sb.substitute_graph(
                Q, jt.jet_lift(corrected, j, Q.order, Q.vars))
            if residual.is_zero:
                continue
            dirty = True
            correction = _reference_solve_as_lift(Q, weights, j, residual)
            if correction is None:
                zero_weight_slots = any(
                    weights[b] == 0 for (b, _k) in jt.jp_labels(residual)
                    if b >= 0)
                if zero_weight_slots:
                    return sb.WeightingVerdict(
                        False, reason=sb.UNDECIDED,
                        witness=(f"constraint at {Q.vars[a]}.{j} depends on "
                                 f"weight-0 slots beyond the rational ansatz"))
                return sb.WeightingVerdict(
                    False, reason=sb.FILTRATION_MISMATCH,
                    witness=f"witness {Q.vars[a]} level {j}",
                    details={
                        "reconstructed_dim": sb._reconstructed_dimension(Q),
                        "graph_dim": Q.dim})
            corrections[a] = ex.add(corrections[a], correction)
        if not dirty:
            W = weight_sequence(list(zip(Q.vars, weights)), Q.order)
            return sb.WeightingVerdict(True, weights=W)
    return sb.WeightingVerdict(
        False, reason=sb.UNDECIDED,
        witness="coordinate corrections did not stabilize")


def _reference_check_weighting(Q):
    """check_weighting with the reference N4."""
    try:
        weights = sb._slot_weights(Q)
    except sb.FlagError as err:
        return sb.WeightingVerdict(False, reason=sb.FLAG_INVALID,
                                   witness=str(err))
    verdict = _reference_filtration_verdict(Q, weights)
    witness = None if verdict.accepted else sb._lambda_invariance_witness(Q)
    if witness is None:
        return verdict
    return sb.WeightingVerdict(False, reason=sb.LAMBDA_INVARIANCE,
                               witness=witness)


def _chain_graph(rng):
    """The graph of u_a = x_a - G_a, solved for the x-slots: each G_a is an
    integer combination of monomials of x-weighted degree 1 to 6 in every
    variable of lower weight, sheared ones and weight-0 ones included."""
    weights = sorted(rng.choice([0, 1, 1, 2, 3, 4, 5, 6]) for _ in range(3))
    weights[-1] = max(weights[-1], 2)
    names = tuple(f"x{a + 1}" for a in range(len(weights)))
    order = weights[-1] + rng.randint(0, 1)
    constraints = {}
    for a, wa in enumerate(weights):
        lower = [b for b in range(a) if weights[b] < wa]
        positive = [b for b in lower if weights[b]]
        terms = []
        for _ in range(rng.randint(0, 3) if positive else 0):
            factors = [rng.choice(positive)]
            while rng.random() < 0.5:
                factors.append(rng.choice(lower))
            if sum(weights[b] for b in factors) <= 6:
                c = rng.choice([-3, -2, -1, 1, 2, 3])
                terms.append(ex.mul(ex.const(c),
                                    *[ex.var(names[b]) for b in factors]))
        G = ex.add(*terms, ZERO)
        for j in range(wa):
            constraints[(a, j)] = jt.jp_substitute(
                jt.jet_lift(G, j, order, names), constraints)
    return sb.graph_subbundle(names, order, constraints)


def _verdict_tuple(verdict):
    return (verdict.accepted, verdict.reason, verdict.witness, verdict.details,
            verdict.weights)


def test_n4_on_the_graph_rows_matches_lift_then_substitute(monkeypatch):
    # one elimination per level with a residual, and some levels solve for
    # several residuals at once
    residual_counts = []

    def eliminate(rows, ncols):
        residual_counts.append(len(rows[0]) - ncols)
        return real_eliminate(rows, ncols)

    real_eliminate = sb._eliminate
    monkeypatch.setattr(sb, "_eliminate", eliminate)
    reasons = {}
    graphs = [_random_solved_graph(rng) for rng in map(random.Random,
                                                       (61, 71, 5, 9, 13))
              for _ in range(200)]
    for k, Q in enumerate(graphs):
        expected = _verdict_tuple(_reference_check_weighting(Q))
        assert _verdict_tuple(sb.check_weighting(Q)) == expected, k
        reasons[expected[1]] = reasons.get(expected[1], 0) + 1
    for reason in (None, sb.FILTRATION_MISMATCH, sb.LAMBDA_INVARIANCE,
                   sb.UNDECIDED):
        assert reasons.get(reason, 0) >= 5
    # the reference's x-monomial candidates reject genuine chain weightings,
    # so these are judged by their answer by construction: a weighting with
    # the generating weights (x_a is constrained below w_a).  The one
    # abstention is the weight-0 UNDECIDED, at the first constraint whose
    # right-hand side reads a weight-0 slot, where a weight-0 factor of a
    # G_a survives on the graph.
    rng = random.Random(1601)
    outcomes = {True: 0, False: 0}
    for k in range(600):
        Q = _chain_graph(rng)
        weights = [sum(b == a for (b, _j), _g in Q.constraints)
                   for a in range(Q.n)]
        verdict = sb.check_weighting(Q)
        weight0 = sorted((j, a) for (a, j), g in Q.constraints
                         if any(weights[b] == 0 for b, _k in jt.jp_labels(g)))
        if weight0:
            j, a = weight0[0]
            assert (verdict.reason, verdict.witness) == (
                sb.UNDECIDED, f"constraint at {Q.vars[a]}.{j} depends on "
                              f"weight-0 slots beyond the rational ansatz"), k
        else:
            assert verdict.accepted, (k, str(verdict))
            assert verdict.weights.weights == tuple(weights), k
        outcomes[not weight0] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 20, outcomes
    assert sum(k >= 2 for k in residual_counts) >= 100, residual_counts


def _reference_induced_filtration_degree(Q, f):
    """Largest i <= r+1 with all lower lifts of f vanishing on the graph."""
    r = Q.order
    for j in range(r + 1):
        lifted = jt.jet_lift(f, j, r, Q.vars)
        if not sb.substitute_graph(Q, lifted).is_zero:
            return j
    return r + 1


def _graph_function(rng, Q):
    """A polynomial in the chart variables: one variable, a random
    polynomial, or a random polynomial times a product of variables, so the
    induced degrees spread over the levels."""
    kind = rng.randrange(3)
    if kind == 0:
        return ex.var(rng.choice(Q.vars))
    f = rand_poly_expr(rng, Q.vars, max_degree=3, max_terms=3)
    if kind == 1:
        return f
    return ex.mul(f, *[ex.var(rng.choice(Q.vars))
                       for _ in range(rng.randint(1, 2))])


def test_series_on_the_graph_rows_is_lift_then_substitute():
    rng = random.Random(1602)
    weight0 = 0
    for _ in range(300):
        Q = _random_solved_graph(rng)
        f = _graph_function(rng, Q)
        r = Q.order
        fields, rows = jt._row_fields(sb._graph_rows(Q, r), jt._degree(f))
        levels, den = jt._generic_series(f, dict(zip(Q.vars, rows)), r)
        for j in range(r + 1):
            assert fields.seal(levels[j], den) == sb.substitute_graph(
                Q, jt.jet_lift(f, j, r, Q.vars)), (Q, ex.to_text(f), j)
        weight0 += any((a, 0) not in Q.constrained_labels()
                       for a in range(Q.n))
    assert weight0 >= 40


def test_induced_filtration_degree_is_the_first_lift_off_the_graph():
    rng = random.Random(1603)
    degrees = []
    for _ in range(320):
        Q = _random_solved_graph(rng)
        f = _graph_function(rng, Q)
        degrees.append(sb.induced_filtration_degree(Q, f))
        assert degrees[-1] == _reference_induced_filtration_degree(Q, f), \
            (Q, ex.to_text(f))
    assert len(set(degrees)) >= 5 and degrees.count(0) <= 200
    Q = _random_solved_graph(rng)
    for f in (ex.app("sin", ex.var(Q.vars[0])), ex.var("nowhere")):
        with pytest.raises(ValueError) as expected:
            _reference_induced_filtration_degree(Q, f)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            sb.induced_filtration_degree(Q, f)


# ---------------------------------------------------------------------------
# the jet kernel's seal and field applier

# slot labels (a, j), with the psi labels (-1, m) of the N3 substitution
JET_LABELS = [(a, j) for a in range(-1, 3) for j in range(4)]


def _reference_seal(fields, nums, den):
    """Keys unpacked from the lowest field up, as seal did before it peeled
    them from the top field down, and one Fraction per term."""
    w, mask, labels = fields.width, fields.mask, fields.labels
    integral = den == 1  # Fraction(c) skips the gcd
    terms = []
    for key, c in nums.items():
        if c:
            m = []
            while key:
                k = ((key & -key).bit_length() - 1) // w
                off = k * w
                e = key >> off & mask
                m.append((labels[k], e))
                key ^= e << off
            terms.append((tuple(m), Fraction(c) if integral
                          else Fraction(c, den)))
    terms.sort(key=lambda item: item[0])
    return jt.JetPoly(tuple(terms))


def test_seal_builds_one_fraction_per_distinct_numerator():
    rng = random.Random(1902)
    for _ in range(300):
        p = rand_jetpoly(rng, JET_LABELS, max_terms=8, max_exponent=3)
        fields = jt._Fields(jt.jp_labels(p), 3)
        (nums,), den = fields.raw(p)
        nums = {m: rng.choice([0, 1, -2, 3]) * v for m, v in nums.items()}
        den *= rng.choice([1, 1, 2, 6])
        sealed = fields.seal(nums, den)
        assert sealed == _reference_seal(fields, nums, den)
        assert len({id(c) for _, c in sealed.terms}) == \
            len({c for _, c in sealed.terms})


def _reference_apply_into(out, field, nums, fields):
    """out += field(nums), differentiating by every label of the packing."""
    offsets, mask = fields.offsets, fields.mask
    for label, c in field:
        if label in offsets:  # else no monomial of nums has the slot
            off = offsets[label]
            one = 1 << off
            dp = {m - one: v * e for m, v in nums.items()
                  if (e := m >> off & mask)}
            jt._mul_into(out, c, dp)
    return out


_PACKING_LABELS = [(a, j) for a in range(3) for j in range(4)]


def _packed(rng, fields, labels, top):
    """A key holding exponents 0 to top, often 0 or top, in the labels."""
    return sum(rng.choice([0, 1, top, rng.randint(0, top)])
               << fields.offsets[label] for label in labels)


def test_top_down_seal_and_masked_applier_match_the_kernel_they_replaced():
    rng = random.Random(1903)
    seen = {"empty": 0, "at-bound": 0, "full-field": 0, "one-label": 0,
            "den-1": 0, "den>1": 0, "absent": 0, "skipped": 0, "outside": 0}
    for _ in range(1500):
        labels = rng.sample(_PACKING_LABELS, rng.randint(1, 5))
        # the bounds 1, 3, 7 and 15 fill their fields
        bound = rng.choice([1, 2, 3, 6, 7, 10, 15])
        fields = jt._Fields(labels, bound)
        used = rng.sample(labels, rng.randint(1, len(labels)))
        nums = {_packed(rng, fields, used, bound):
                rng.choice([0, 1, -1, rng.randint(-40, 40)])
                for _ in range(rng.randint(0, 8))}
        den = rng.choice([1, 1, 2, 6, rng.randint(1, 30)])
        sealed = fields.seal(nums, den)
        assert sealed == _reference_seal(fields, nums, den), (labels, nums)
        seen["empty"] += any(not m for m, _ in sealed.terms)
        exponents = {e for m, _ in sealed.terms for _, e in m}
        seen["at-bound"] += bound in exponents
        seen["full-field"] += fields.mask in exponents
        seen["one-label"] += len(labels) == 1 and bool(sealed.terms)
        seen["den-1" if den == 1 else "den>1"] += 1
        # a field of labels, some outside the packing, applied to numerators
        # of exponents at most half the bound, so its products stay within it
        top = bound // 2
        nums = {_packed(rng, fields, used, top): rng.randint(-9, 9)
                for _ in range(rng.randint(0, 6))}
        field = [(label, {_packed(rng, fields, used, top): rng.randint(-9, 9)
                          for _ in range(rng.randint(1, 3))})
                 for label in rng.sample(_PACKING_LABELS, 4)]
        out = {_packed(rng, fields, used, bound): rng.randint(-9, 9)}
        expected = _reference_apply_into(dict(out), field, nums, fields)
        assert jt._apply_into(out, field, nums, fields) is out
        assert out == expected, (labels, field, nums)
        support = functools.reduce(operator.or_, nums, 0)
        for label, _c in field:
            if label not in fields.offsets:
                seen["outside"] += 1
            elif not support >> fields.offsets[label] & fields.mask:
                seen["skipped"] += 1
        seen["absent"] += len(used) < len(labels)
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# the jet kernel's seal on wide packings

_WIDE_LABELS = [(a, j) for a in range(-1, 6) for j in range(6)]


def _prefix_family(rng, labels, bound):
    """A monomial on the labels, as (label, exponent) pairs sorted by label,
    with exponents 1 to bound (often 1 or bound), and each of its prefixes."""
    chosen = sorted(rng.sample(labels, rng.randint(1, len(labels))))
    m = [(label, rng.choice([1, bound, rng.randint(1, bound)]))
         for label in chosen]
    return [m[:k] for k in range(len(m) + 1)]


def test_seal_matches_the_reference_on_wide_packings_and_prefixes():
    rng = random.Random(3001)
    seen = {"30 labels": 0, "bound 99999": 0, "past 64 bits": 0,
            "prefixes": 0, "one label": 0, "same labels": 0, "den>1": 0}
    for _ in range(1200):
        labels = rng.sample(_WIDE_LABELS, rng.choice(
            [1, 2, rng.randint(1, 30), 30]))
        bound = rng.choice([1, 3, 7, 99_999, rng.randint(1, 99_999)])
        fields = jt._Fields(labels, bound)
        monomials = []
        for _ in range(rng.randint(1, 4)):
            family = _prefix_family(rng, labels, bound)
            monomials += family
            # the same labels with other exponents
            monomials.append([(label, rng.randint(1, bound))
                              for label, _e in family[-1]])
        nums = {sum(e << fields.offsets[label] for label, e in m):
                rng.choice([0, 1, -1, rng.randint(-10**6, 10**6)])
                for m in monomials}
        den = rng.choice([1, 1, 2, rng.randint(1, 10**6)])
        sealed = fields.seal(nums, den)
        expected = _reference_seal(fields, nums, den)
        assert sealed == expected, (labels, bound, nums, den)
        assert [m for m, _ in sealed.terms] == sorted(m for m, _ in sealed.terms)
        seen["30 labels"] += len(labels) == 30
        seen["bound 99999"] += bound == 99_999
        seen["past 64 bits"] += max(nums).bit_length() > 64
        present = {m for m, _ in sealed.terms}
        seen["prefixes"] += any(m[:k] in present for m in present
                                for k in range(1, len(m)))
        seen["one label"] += len(labels) == 1
        seen["same labels"] += len({tuple(l for l, _ in m) for m in present}) \
            < len(present)
        seen["den>1"] += den > 1
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# constants fold in add and mul

def test_two_constants_fold_to_the_node_of_the_general_path():
    rng = random.Random(2004)
    zeros = 0
    for _ in range(600):
        a = ex.const(rand_rational(rng))
        b = ex.const(-a.value if rng.random() < 0.2 else rand_rational(rng))
        for fold, general in ((ex.add(a, b), ex.add(a, b, ZERO)),
                              (ex.mul(a, b), ex.mul(a, b, ONE))):
            assert type(fold) is type(general) is ex.Const
            assert type(fold.value) is type(general.value) is Fraction
            assert fold == general and hash(fold) == hash(general)
            assert repr(fold) == repr(general)
            assert (fold is ZERO) == (general is ZERO) == (fold.value == 0)
            zeros += fold is ZERO
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
            for q in (ZERO, ONE, ex.const(rand_rational(rng)),
                      ex.const(1 / lead) if lead else ONE):
                general = ex.mul(q, e, ONE)
                for fast in (ex.mul(q, e), ex.mul(e, q)):
                    assert type(fast) is type(general)
                    assert fast == general and hash(fast) == hash(general)
                    assert repr(fast) == repr(general)
                    assert (fast is ZERO) == (general is ZERO)
                cancelled += kind == "Prod*" and q.value * lead == 1
    assert cancelled >= 10
