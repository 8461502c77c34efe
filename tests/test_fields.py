import math
import random

import pytest

from weightings import expr as ex
from weightings import wpoly as wp
from weightings.expr import parse_expr
from weightings.fields import (contract, coordinate_field, d_poly,
                               euler_field, form, form_filtration_degree,
                               homogeneous_approx_vf, lie_bracket,
                               lie_derivative_form, nilpotent_frames, vf_apply,
                               vf_filtration_degree, vf_for_weights)
from weightings.weights import weight_sequence

from conftest import check_nilpotent_algebras, rand_weight_sequence, rand_wpoly


def _rand_vf(rng, W, coeff_vars=True):
    coeffs = [wp.to_expr(rand_wpoly(rng, W, max_degree=3, max_terms=2,
                                    coeff_vars=coeff_vars))
              if rng.random() < 0.8 else ex.ZERO for _ in W.vars]
    if all(c == ex.ZERO for c in coeffs):
        coeffs[0] = ex.ONE
    return vf_for_weights(W, coeffs)


def _rand_form(rng, W, degree):
    import itertools
    terms = {}
    indices = list(itertools.combinations(range(W.n), degree))
    for idx in rng.sample(indices, k=min(len(indices), 2)):
        terms[idx] = rand_wpoly(rng, W, max_degree=3, max_terms=2)
    return form(W.vars, degree, terms)


def test_euler_field_formula():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    E = euler_field(W)
    assert E.coeff_exprs() == (parse_expr("x"), parse_expr("2*y"))
    W0 = weight_sequence({"x": 0, "y": 0}, 1)
    assert euler_field(W0).is_zero


def test_euler_scales_by_degree():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    f = wp.poly_normal_form(parse_expr("x*y"), W.positive_vars)
    assert vf_apply(euler_field(W), f) == wp.wp_scale(f, 3)


def test_vf_filtration_degree_examples():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    assert vf_filtration_degree(coordinate_field(W, "x"), W) == -1
    assert vf_filtration_degree(coordinate_field(W, "y"), W) == -2
    assert vf_filtration_degree(euler_field(W), W) == 0
    W13 = weight_sequence({"x": 1, "y": 3}, 3)
    X = vf_for_weights(W13, [ex.ZERO, parse_expr("x^2")])
    assert vf_filtration_degree(X, W13) == -1
    # the zero field has every filtration degree, as the zero polynomial does
    zero = vf_for_weights(W, [ex.ZERO, ex.ZERO])
    assert vf_filtration_degree(zero, W) == math.inf
    assert homogeneous_approx_vf(zero, W, 5).is_zero


def test_homogeneous_approx_vf():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    X = vf_for_weights(W, [parse_expr("x"), ex.ONE])
    got = homogeneous_approx_vf(X, W, -2)
    assert got == coordinate_field(W, "y")
    E = euler_field(W)
    assert homogeneous_approx_vf(E, W, 0) == E
    W1 = weight_sequence({"x": 1}, 1)
    D = coordinate_field(W1, "x")
    assert homogeneous_approx_vf(D, W1, -1) == D


def test_form_degrees():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    one = wp.wp_const(W.positive_vars, 1)
    dxdy = form(W.vars, 2, {(0, 1): one})
    assert form_filtration_degree(dxdy, W) == 3
    x_dy = form(W.vars, 1, {(1,): wp.poly_normal_form(parse_expr("x"),
                                                      W.positive_vars)})
    assert form_filtration_degree(x_dy, W) == 3
    y_dx = form(W.vars, 1, {(0,): wp.poly_normal_form(parse_expr("y"),
                                                      W.positive_vars)})
    assert form_filtration_degree(y_dx, W) == 3
    assert form_filtration_degree(form(W.vars, 1, {}), W) == math.inf


def test_d_raises_degree():
    rng = random.Random(41)
    for _ in range(100):
        W = rand_weight_sequence(rng)
        p = rand_wpoly(rng, W)
        df = d_poly(p, W.vars)
        if df.is_zero:
            continue
        assert form_filtration_degree(df, W) >= wp.filtration_degree(p, W)


def test_cartan_compatibility():
    rng = random.Random(43)
    for _ in range(60):
        W = rand_weight_sequence(rng, max_n=3)
        X = _rand_vf(rng, W)
        degree_x = vf_filtration_degree(X, W)
        f = rand_wpoly(rng, W)
        lf = vf_apply(X, f)
        if not lf.is_zero:
            assert wp.filtration_degree(lf, W) >= \
                degree_x + wp.filtration_degree(f, W)
        q = rng.randint(1, W.n)
        alpha = _rand_form(rng, W, q)
        if alpha.is_zero:
            continue
        ia = contract(X, alpha)
        if not ia.is_zero:
            assert form_filtration_degree(ia, W) >= \
                degree_x + form_filtration_degree(alpha, W)
        la = lie_derivative_form(X, alpha)
        if not la.is_zero:
            assert form_filtration_degree(la, W) >= \
                degree_x + form_filtration_degree(alpha, W)


def test_bracket_filtration():
    rng = random.Random(47)
    for _ in range(60):
        W = rand_weight_sequence(rng, max_n=3)
        X = _rand_vf(rng, W)
        Y = _rand_vf(rng, W)
        b = lie_bracket(X, Y)
        if b.is_zero:
            continue
        assert vf_filtration_degree(b, W) >= max(
            -W.order,
            vf_filtration_degree(X, W) + vf_filtration_degree(Y, W))


def test_nilpotent_frames_heisenberg():
    W = weight_sequence({"x": 1, "y": 2}, 2)
    g = nilpotent_frames(W)
    assert g.dim == 3 and g.dim_sub == 1
    # the only bracket is [d/dx, x d/dy] = d/dy
    table = g.bracket_table()
    nonzero = {k: v for k, v in table.items() if v}
    assert len(nonzero) == 1
    ((i, j), entries), = nonzero.items()
    assert g.basis[i][0] == (0, 0) or g.basis[j][0] == (0, 0)
    (k, c), = entries.items()
    assert c == 1
    assert g.basis[k] == ((0, 0), g.W.vars.index("y"))


def test_nilpotent_frames_properties():
    check_nilpotent_algebras(random.Random(53))


def test_subalgebra_closed_under_bracket():
    rng = random.Random(59)
    for _ in range(10):
        W = rand_weight_sequence(rng, max_n=3, max_order=3)
        g = nilpotent_frames(W)
        for (i, j), entries in g.brackets:
            if g.in_subalgebra[i] and g.in_subalgebra[j]:
                assert all(g.in_subalgebra[k] for k, _ in entries)


@pytest.mark.parametrize("chart, message", [
    (("x", "x"), "duplicate variable names"),
    (("", "y"), "empty variable name"),
])
def test_vf_from_exprs_refuses_repeated_or_empty_names(chart, message):
    from weightings.fields import vf_from_exprs
    with pytest.raises(ValueError, match=f"^{message}$"):
        vf_from_exprs(chart, [parse_expr("x"), ex.ONE], chart)


def test_readers_refuse_another_chart_or_split():
    """Fields are read by position on W's chart, polynomials over W's
    positive-weight variables in W's order: the same field on a permuted
    chart, or the same polynomial on a permuted, partial or weight-0 split,
    gets the one refusal from every reader."""
    from weightings import spaces as sp
    from weightings import subbundle as sb
    from weightings.fields import vf_from_exprs

    from conftest import rand_poly_expr

    def refused(read, message):
        with pytest.raises(ValueError) as err:
            read()
        assert str(err.value) == message

    def shuffled(items):
        out = list(items)
        while out == list(items):
            rng.shuffle(out)
        return tuple(out)

    rng = random.Random(4040)
    drawn, splits = 0, {"permuted": 0, "partial": 0, "weight 0": 0}
    while drawn < 300:
        W = rand_weight_sequence(rng, max_n=4, max_order=3, min_weight=0)
        pos = W.positive_vars
        if W.n < 2 or not pos:
            continue
        drawn += 1
        X = _rand_vf(rng, W)
        chart = shuffled(range(W.n))
        Xp = vf_from_exprs([W.vars[a] for a in chart],
                           [X.coeff_exprs()[a] for a in chart], pos)
        message = (f"vector field chart ({', '.join(Xp.vars)}) differs from "
                   f"the chart ({', '.join(W.vars)})")
        one_form = form(W.vars, 1, {(0,): wp.wp_const(pos, 1)})
        for read in (lambda: contract(Xp, one_form), lambda: lie_bracket(X, Xp),
                     lambda: vf_filtration_degree(Xp, W),
                     lambda: homogeneous_approx_vf(Xp, W, 0),
                     lambda: sp.def_vf_interpolant(Xp, 0, W),
                     lambda: sp.euler_like_check(Xp, W),
                     lambda: sp.blowup_lift_vf(Xp, W, sp.blowup_chart(W, pos[0])),
                     lambda: sb.k_membership(sb.standard_q(W), Xp, 0),
                     lambda: sb.Frame(W, (Xp,) * W.n)):
            refused(read, message)
        assert vf_filtration_degree(X, W) < math.inf  # X itself is read

        e = rand_poly_expr(rng, W.vars)
        readers = (lambda q: wp.filtration_degree(q, W),
                   lambda q: wp.homogeneous_part(q, W, 0),
                   lambda q: wp.homogeneous_approx(q, W, 0),
                   lambda q: wp.dilate(q, W), lambda q: wp.wpoly_text(q, W))
        for read in readers:
            read(wp.poly_normal_form(e, pos))
        dropped = rng.choice(pos)
        rebuilt = {"partial": tuple(v for v in pos if v != dropped)}
        if len(pos) > 1:
            rebuilt["permuted"] = shuffled(pos)
        if W.zero_vars:
            rebuilt["weight 0"] = (rng.choice(W.zero_vars),) + pos
        for kind, split in rebuilt.items():
            splits[kind] += 1
            q = wp.poly_normal_form(e, split)
            message = (f"polynomial variables ({', '.join(split)}) differ from "
                       f"the positive-weight variables ({', '.join(pos)})")
            for read in readers:
                refused(lambda: read(q), message)
    assert min(splits.values()) >= 100, splits
