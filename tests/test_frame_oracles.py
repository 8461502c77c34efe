"""Generated oracles for frame brackets, normal ordering, frame application
and the bracket table of the negative nilpotent frames.

Each library routine is compared with a plain reference kept in this file:
Cramer's rule over Laplace determinants for frame brackets, a memo-free
reordering for normal_order, the full sum of c_v d_v f for Frame.apply, and
an all-pairs enumeration of coordinate brackets, with the labels listed by
brute force, for nilpotent_frames.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from weightings import expr as ex
from weightings import subbundle as sb
from weightings import wpoly as wp
from weightings.fields import lie_bracket, nilpotent_frames
from weightings.weights import weight_sequence, weighted_degree

from conftest import rand_expr, rand_rational

FRAME_WEIGHTS = weight_sequence([("x0", 0), ("x1", 1), ("x2", 2)], 2)
# four variables: the determinant and each cofactor recurse one level deeper
FRAME_WEIGHTS_4 = weight_sequence([("x0", 0), ("x1", 1), ("x2", 1), ("x3", 2)], 2)
SHAPES = ("polynomial", "transcendental", "inverse", "mixed")


def _entry(rng: random.Random, shape: str, W=FRAME_WEIGHTS) -> ex.Expr:
    """A rational polynomial in the variables of W, x1 drawn twice as often,
    times a head of x0 or a power of 1 + x0."""
    x0, x1, *rest = (ex.var(v) for v in W.vars)
    out = ex.add(*[ex.mul(ex.const(rand_rational(rng, zero_ok=False)),
                          *rng.sample([x0, x1, x1, *rest], rng.randint(0, 2)))
                   for _ in range(rng.randint(1, 2))])
    if shape in ("transcendental", "mixed") and rng.random() < 0.6:
        out = ex.mul(out, ex.app(rng.choice(ex.FUNCTIONS), x0))
    if shape in ("inverse", "mixed") and rng.random() < 0.6:
        out = ex.mul(out, ex.pow_(ex.add(ex.ONE, x0), -rng.randint(1, 2)))
    return out


def random_frame(rng: random.Random, shape: str, W=FRAME_WEIGHTS) -> sb.Frame:
    """A unitriangular coefficient matrix with rows and columns permuted.

    Its determinant is +-1; the entries below the diagonal, and about a
    third of those above it, are zero.
    """
    n = W.n
    upper = [[ex.ONE if i == j else
              _entry(rng, shape, W) if j > i and rng.random() < 0.7 else ex.ZERO
              for j in range(n)] for i in range(n)]
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return sb.frame(W, [[upper[r][c] for c in cols] for r in rows])


def random_word(rng: random.Random, W=FRAME_WEIGHTS) -> list:
    word = [rng.randrange(W.n) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.5:
        word.insert(rng.randint(0, len(word)),
                    ex.mul(ex.const(rand_rational(rng, zero_ok=False)),
                           ex.var(rng.choice(W.vars))))
    return word


# ---------------------------------------------------------------------------
# references

def _laplace(matrix: list[list[ex.Expr]], memo: dict) -> ex.Expr:
    """Laplace along the first row, zero entries included; memo keeps each
    minor's determinant, so the matrices of one bracket share their minors."""
    if not matrix:
        return ex.ONE
    key = tuple(map(tuple, matrix))
    if key not in memo:
        memo[key] = ex.add(*[
            ex.mul(ex.const((-1) ** j), matrix[0][j],
                   _laplace([row[:j] + row[j + 1:] for row in matrix[1:]], memo))
            for j in range(len(matrix))])
    return memo[key]


def _cramer_bracket(fr: sb.Frame, a: int, b: int) -> tuple:
    """[V_a, V_b] over the frame: h_c = det(A with column c := target) / det A."""
    n = fr.n
    target = lie_bracket(fr.fields[a], fr.fields[b]).coeff_exprs()
    matrix = [[fr.field_exprs(c)[i] for c in range(n)] for i in range(n)]
    memo: dict = {}
    det = ex.expand(_laplace(matrix, memo))
    assert isinstance(det, ex.Const) and det.value != 0
    out = []
    for c in range(n):
        replaced = [row[:c] + [t] + row[c + 1:] for row, t in zip(matrix, target)]
        h = ex.expand(ex.mul(ex.const(1 / det.value), _laplace(replaced, memo)))
        if h != ex.ZERO:
            out.append((c, h))
    return tuple(out)


def _reference_normal_order(fr: sb.Frame, word) -> dict:
    """Standard form {s: f_s} of a word, rebuilt without memo tables."""
    n = fr.n

    def va_vs(a: int, s: tuple) -> dict:
        """V_a o V^s as {u: coefficient}."""
        b = next((c for c in range(n) if s[c]), None)
        if b is None or a <= b:
            return {tuple(e + int(c == a) for c, e in enumerate(s)): ex.ONE}
        rest = tuple(e - int(c == b) for c, e in enumerate(s))
        out: dict = {}
        for u, coeff in va_vs(a, rest).items():
            _accumulate(out, u, fr.apply(b, coeff))
            for u2, coeff2 in va_vs(b, u).items():
                _accumulate(out, u2, ex.mul(coeff, coeff2))
        for c, h in _cramer_bracket(fr, a, b):
            for u2, coeff2 in va_vs(c, rest).items():
                _accumulate(out, u2, ex.mul(h, coeff2))
        return out

    terms = {(0,) * n: ex.ONE}
    for item in reversed(word):
        nxt: dict = {}
        for s, f in terms.items():
            if isinstance(item, int):
                _accumulate(nxt, s, fr.apply(item, f))
                for u, coeff in va_vs(item, s).items():
                    _accumulate(nxt, u, ex.mul(f, coeff))
            else:
                _accumulate(nxt, s, ex.mul(item, f))
        terms = nxt
    return {s: f for s, f in terms.items() if f != ex.ZERO}


def _accumulate(acc: dict, key, value: ex.Expr) -> None:
    acc[key] = ex.add(acc.get(key, ex.ZERO), value)


# ---------------------------------------------------------------------------
# oracles

@pytest.mark.parametrize("W, shape", [
    *[pytest.param(FRAME_WEIGHTS, shape, id=shape) for shape in SHAPES],
    *[pytest.param(FRAME_WEIGHTS_4, shape, id=f"4-{shape}") for shape in SHAPES]])
def test_frame_bracket_and_normal_order_match_cramer_reference(W, shape):
    rng = random.Random(f"frame-oracle:{shape}" + ("" if W is FRAME_WEIGHTS else ":4"))
    for _ in range(50):
        fr = random_frame(rng, shape, W)
        for a in range(fr.n):
            for b in range(fr.n):
                if a != b:
                    assert sb._frame_bracket(fr, a, b) == _cramer_bracket(fr, a, b)
        word = random_word(rng, W)
        D = sb.normal_order(fr, word)
        assert dict(D.terms) == _reference_normal_order(fr, word), word


def test_frame_apply_skips_only_zero_coefficients():
    rng = random.Random("frame-apply")
    names = list(FRAME_WEIGHTS.vars)
    for shape in SHAPES * 5:
        fr = random_frame(rng, shape)
        rows = [fr.field_exprs(a) for a in range(fr.n)]
        assert any(c == ex.ZERO for row in rows for c in row)
        for _ in range(3):
            f = rand_expr(rng, names)
            for a, row in enumerate(rows):
                full = ex.add(*[ex.mul(c, ex.differentiate(f, v))
                                for v, c in zip(names, row)])
                assert fr.apply(a, f) == full


def _frame_labels(W) -> list:
    """Every label (s, a) with s.w < w_a, s on the positive-weight
    variables, by degree s.w - w_a, then direction a, then s."""
    k0 = W.count(0)
    pw = W.weights[k0:]
    labels = [(s, a) for a, wa in enumerate(W.weights)
              for s in itertools.product(*[range(wa // w + 1) for w in pw])
              if weighted_degree(s, pw) < wa]
    return sorted(labels, key=lambda label: (
        weighted_degree(label[0], pw) - W.weights[label[1]], label[1], label[0]))


def _all_pairs_brackets(W, basis) -> tuple:
    """Every non-zero [x^s d_a, x^u d_b] over the labels, i < j, from the
    coordinate formula, with its entries sorted."""
    pvars = W.positive_vars
    index = {label: i for i, label in enumerate(basis)}
    monomials = [ex.mul(*[ex.pow_(ex.var(v), e) for v, e in zip(pvars, s)])
                 for s, _ in basis]
    table = []
    for i, (f, (_, a)) in enumerate(zip(monomials, basis)):
        for j in range(i + 1, len(basis)):
            h, (_, b) = monomials[j], basis[j]
            da, db = W.vars[a], W.vars[b]
            entries: dict = {}
            for coeff, direction in ((ex.mul(f, ex.differentiate(h, da)), b),
                                     (ex.mul(ex.MINUS_ONE, h, ex.differentiate(f, db)), a)):
                for exps, c in wp.poly_normal_form(coeff, pvars).terms:
                    k = index[(exps, direction)]
                    entries[k] = entries.get(k, Fraction(0)) + c.value
            entries = {k: c for k, c in entries.items() if c != 0}
            if entries:
                table.append(((i, j), tuple(sorted(entries.items()))))
    return tuple(table)


def _nilpotent_weights() -> list:
    rng = random.Random(3202)
    drawn = {tuple(sorted(rng.choice([0, 0, 1, 1, 2, 3, 4])
                          for _ in range(rng.randint(1, 4))))
             for _ in range(40)}
    fixed = [(0, 1, 2), (1, 1, 2), (1, 2, 3, 4, 5, 7), (0, 0, 1, 3), (1, 1, 1),
             # large top weights: the exponents of a label, and those of
             # s + u in a non-zero bracket, reach max w - 1 in a label code
             (1, 13), (1, 1, 1, 9), (0, 1, 1, 2, 8)]
    return fixed + sorted(drawn.difference(fixed))


@pytest.mark.parametrize("weights", _nilpotent_weights())
def test_nilpotent_brackets_match_all_pairs_enumeration(weights):
    W = weight_sequence([(f"x{i}", w) for i, w in enumerate(weights)])
    g = nilpotent_frames(W)
    assert g.basis == tuple(_frame_labels(W))
    pw = W.positive_weights
    assert g.degrees == tuple(weighted_degree(s, pw) - W.weights[a]
                              for s, a in g.basis)
    assert g.in_subalgebra == tuple(any(s) for s, _ in g.basis)
    assert g.brackets == _all_pairs_brackets(W, g.basis)
    assert all(len(entries) == 1 for _, entries in g.brackets)
    assert all(type(c) is Fraction for _, entries in g.brackets
               for _, c in entries)


def test_frame_bracket_needs_a_constant_determinant():
    x0, x1 = ex.var("x0"), ex.var("x1")
    fr = sb.frame(FRAME_WEIGHTS, [[ex.add(ex.ONE, x0), ex.ZERO, ex.ZERO],
                                  [x1, ex.ONE, ex.ZERO],
                                  [ex.ZERO, ex.ZERO, ex.ONE]])
    for _ in range(2):  # the failed inverse is not kept
        with pytest.raises(ValueError, match=r"constant nonzero determinant \(got 1 \+ x0\)"):
            sb.normal_order(fr, [1, 0])


def test_a_zero_bracket_still_needs_a_constant_determinant():
    x2 = ex.var("x2")
    fr = sb.frame(FRAME_WEIGHTS, [[ex.add(ex.ONE, x2), ex.ZERO, ex.ZERO],
                                  [ex.ZERO, ex.ONE, ex.ZERO],
                                  [ex.ZERO, ex.ZERO, ex.ONE]])
    assert lie_bracket(fr.fields[2], fr.fields[1]).is_zero
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            sb.normal_order(fr, [2, 1])
        assert str(info.value) == ("frame brackets need a coefficient matrix with "
                                   "constant nonzero determinant (got 1 + x2)")
    # a word in normal order reads no bracket
    assert str(sb.normal_order(fr, [1, 2])) == "(1) V2V3"
