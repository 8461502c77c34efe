"""The record contract: every record class behaves as its dataclass twin.

``weights.record`` installs methods compiled with the package in place of
those ``dataclass`` compiles with ``exec``, and builds what ``dataclasses``
and ``inspect`` read of a record on its first lookup.  Each record class is
compared, on instances the library builds, with a twin that
``dataclasses.make_dataclass`` builds from the same fields and flags.
"""

import copy
import dataclasses
import inspect
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from weightings import expr as ex
from weightings import fields as fl
from weightings import jets as jt
from weightings import spaces as sp
from weightings import subbundle as sb
from weightings import weights as wt
from weightings import wpoly as wp
from weightings.expr import ONE, ZERO, parse_expr

from conftest import fixture_graph

MODULES = (wt, ex, wp, fl, jt, sp, sb)
RECORDS = [cls for module in MODULES for cls in vars(module).values()
           if isinstance(cls, type) and dataclasses.is_dataclass(cls)
           and cls.__module__ == module.__name__]
MUTABLE = {sb.WeightingVerdict}
PER_CLASS = 12


def _slotted(cls):
    return issubclass(cls, ex.Expr)


@cache
def _twin(cls):
    spec = [(f.name, f.type, dataclasses.field(default=f.default))
            for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec,
                                      frozen=cls not in MUTABLE,
                                      slots=_slotted(cls))


def _values(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _library_outputs():
    W = wt.weight_sequence({"t": 0, "x": 1, "y": 2}, 3)
    W2 = wt.weight_sequence({"x": 1, "y": 2}, 2)
    f = parse_expr("sin(t)*x^2 + (1 + t)^-1*y - 3/2*x*y^2 + exp(x)")
    p = wp.poly_normal_form(parse_expr("t*x^2 + y - x*y"), W.positive_vars)
    X = fl.vf_for_weights(W, [ZERO, parse_expr("x"), parse_expr("(t^2 + 1)*x^2")])
    X2 = fl.vf_for_weights(W2, [parse_expr("x"), parse_expr("2*y + x^2")])
    u = jt.jet_point(["x", "y"], [[1, Fraction(1, 2), 3], [2, 0, -1]])
    x1 = jt.jetpoly({(((0, 1), 2),): Fraction(1)})
    Q = sb.graph_subbundle(["x", "y"], 2, {(0, 0): jt.JP_ZERO,
                                           (1, 0): jt.JP_ZERO,
                                           (1, 1): jt.JP_ZERO, (1, 2): x1})
    fr = sb.frame(W2, [[ONE, ZERO], [ZERO, ONE]])
    return [
        W, W2, wt.parse_multiweight("x=(1,0),y=(0,1)"), f, p, X,
        fl.d_poly(p, W.positive_vars), fl.nilpotent_frames(W2),
        jt.jet_lift(parse_expr("x^2*y + 1/3*y"), 1, 2, ["x", "y"]), u,
        jt.evaluate_jet(parse_expr("x*y + 2"), u), jt.vf_lift(X, 1, 3),
        jt.reparam([1, 2]),
        sp.coordinate_change(W2, W2, [parse_expr("x"), parse_expr("y + x^2")]),
        sp.def_interpolant(parse_expr("sin(t)*x^2 + x*y"), 2, W), sp.theta_field(W),
        sp.scaling_order_estimate(parse_expr("x^2 + y"), W2),
        sp.blowup_lift_vf(X2, W2, sp.blowup_chart(W2, "y", "-")),
        Q, sb.check_weighting(Q),
        sb.check_weighting(fixture_graph("antisymmetric_relation.prob")),
        sb.normal_order(fr, [1, 0, 1]),
        sb.adapted_coordinates(fr, [parse_expr("x"), parse_expr("y + x^2")]),
    ]


def _walk(value, found):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        found.setdefault(type(value), []).append(value)
        value = _values(value)
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (tuple, list)):
        for item in value:
            _walk(item, found)


@cache
def _instances():
    """Record class -> up to PER_CLASS distinct instances the library built."""
    found = {}
    _walk(_library_outputs(), found)
    out = {}
    for cls, objs in found.items():
        distinct = []
        for obj in objs:
            if len(distinct) < PER_CLASS and all(obj is not d and obj != d
                                                 for d in distinct):
                distinct.append(obj)
        out[cls] = distinct
    return out


def test_the_library_builds_every_record_class():
    assert len(RECORDS) == 28
    assert set(_instances()) == set(RECORDS)


def test_every_record_method_is_compiled_with_the_package():
    package = str(Path(wt.__file__).parent)
    for cls in RECORDS:
        for name in ("__init__", "__eq__", "__hash__", "__repr__",
                     "__replace__", "__setattr__", "__delattr__"):
            method = getattr(cls, name)
            code = getattr(method, "__code__", None)
            assert code is None or code.co_filename.startswith(package), \
                (cls, name)
        # with no docstring, dataclass writes one through inspect.signature
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")


_FIRST_LOOKUP = """\
import sys
import weightings.cli, weightings.subbundle, weightings.spaces
import weightings.fields, weightings.jets, weightings.wpoly
import copy, pickle
records = pickle.loads(sys.stdin.buffer.read())
assert not {"dataclasses", "inspect"} & set(sys.modules), "imported"
for cls, *_ in records:
    assert not isinstance(vars(cls)["__dataclass_fields__"], dict), cls
    assert not hasattr(vars(cls)["__signature__"], "parameters"), cls


def refusals(objs):
    found = []
    for obj in objs:
        for change in (lambda: setattr(obj, obj.__match_args__[0], None),
                       lambda: delattr(obj, "foo")):
            try:
                change()
            except AttributeError as err:  # FrozenInstanceError is one
                found.append(type(err))
    return found


first = sys.argv[1]
refused = {cls: refusals(objs) for cls, _, frozen, _, objs in records
           if frozen and first == "frozen"}
import dataclasses, inspect


def values(obj):
    return tuple(getattr(obj, name) for name in obj.__match_args__)


def field(f):
    return (f.name, f.type, f.default, f.default_factory, f.init, f.repr,
            f.hash, f.compare, dict(f.metadata), f.kw_only, f._field_type)


def check(kind, cls, twin, objs, doubles):
    if kind == "is_dataclass":
        assert all(map(dataclasses.is_dataclass, objs))
    elif kind == "fields":
        assert ([*map(field, dataclasses.fields(cls))]
                == [*map(field, dataclasses.fields(twin))])
    elif kind == "params":
        for flag in ("frozen", "slots"):
            assert (getattr(cls.__dataclass_params__, flag, None)
                    == getattr(twin.__dataclass_params__, flag, None))
    elif kind == "signature":
        assert inspect.signature(cls) == inspect.signature(twin)
    elif kind == "asdict":
        assert ([*map(dataclasses.asdict, objs)]
                == [*map(dataclasses.asdict, doubles)])
    elif kind in ("replace", "copy.replace"):
        replace = getattr(dataclasses if kind == "replace" else copy,
                          "replace", None)
        for obj, double in zip(objs, doubles) if replace else ():
            rest = {name: getattr(obj, name) for name in obj.__match_args__[1:]}
            again = replace(obj, **rest)
            assert type(again) is cls and again == obj and again is not obj
            assert values(again) == values(replace(double, **rest))
    elif kind == "frozen" and twin.__dataclass_params__.frozen:
        got = refused.pop(cls, None) or refusals(objs)
        assert got == [dataclasses.FrozenInstanceError] * (2 * len(objs))


twins = []
for cls, spec, frozen, slotted, objs in records:
    twin = dataclasses.make_dataclass(
        cls.__name__, [(name, kind, dataclasses.field(default=default[0]))
                       if default else (name, kind)
                       for name, kind, *default in spec],
        frozen=frozen, slots=slotted)
    twins.append((cls, twin, slotted, objs,
                  [twin(*values(obj)) for obj in objs]))
for kind in [first, *sys.argv[2:]]:
    for cls, twin, _, objs, doubles in twins:
        try:
            check(kind, cls, twin, objs, doubles)
        except AssertionError:
            raise AssertionError(f"{kind} of {cls.__qualname__}")
for cls, twin, _, objs, _ in (twin for twin in twins if twin[2]):
    assert getattr(sys.modules[cls.__module__], cls.__qualname__) is cls
    assert cls.__slots__ == twin.__slots__ == cls.__match_args__, cls
    for obj in objs:
        assert not hasattr(obj, "__dict__"), cls
        for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                      copy.deepcopy(obj)):
            assert type(again) is cls and values(again) == values(obj), cls
print("ok")
"""
FIRST_LOOKUPS = ("is_dataclass", "fields", "params", "replace", "asdict",
                 "signature", "copy.replace", "frozen")


def test_a_fresh_process_builds_the_dataclass_view_on_first_lookup():
    """The library loads neither dataclasses nor inspect; whichever lookup
    comes first, each record class then reads as its dataclass twin."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    payload = pickle.dumps([
        (cls, [(f.name, f.type) + ((f.default,) if f.default
                                    is not dataclasses.MISSING else ())
               for f in dataclasses.fields(cls)],
         cls not in MUTABLE, _slotted(cls), _instances()[cls])
        for cls in RECORDS])
    for first in FIRST_LOOKUPS:
        result = subprocess.run(
            [sys.executable, "-S", "-c", _FIRST_LOOKUP, first, *FIRST_LOOKUPS],
            input=payload, capture_output=True, env=env, timeout=60)
        assert (result.returncode, result.stdout) == (0, b"ok\n"), \
            (first, result.stderr.decode()[-2000:])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_reads_as_its_dataclass_twin(cls):
    twin = _twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    own_repr = cls.__repr__.__qualname__.startswith(cls.__qualname__ + ".")
    objs = _instances()[cls]
    twins = [twin(*_values(obj)) for obj in objs]
    for obj, double in zip(objs, twins):
        names = [f.name for f in dataclasses.fields(cls)]
        for again in (cls(*_values(obj)),
                      cls(**dict(zip(names, _values(obj)))),
                      pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                      copy.deepcopy(obj)):
            assert type(again) is cls and _values(again) == _values(obj)
            assert again == obj and repr(again) == repr(obj)
        if not own_repr:
            assert repr(obj) == repr(double)
        assert (obj == double) is False and (obj != double) is True
        if cls in MUTABLE:
            assert cls.__hash__ is None is twin.__hash__
        else:
            assert hash(obj) == hash(double)
    for a, da in zip(objs, twins):
        for b, db in zip(objs, twins):
            assert (a == b, a != b) == (da == db, da != db)


def test_keyword_and_default_construction():
    chart = sp.blowup_chart(wt.weight_sequence({"x": 1, "y": 2}), "y")
    plus = sp.RationalMonomialMap(chart.source, chart.target, chart.components)
    assert plus == chart and plus.sign == "+"
    minus = sp.RationalMonomialMap(components=chart.components, sign="-",
                                   target=chart.target, source=chart.source)
    assert minus.sign == "-" and minus != plus
    verdict = sb.WeightingVerdict(True)
    assert (verdict.weights, verdict.reason, verdict.witness,
            verdict.details) == (None, None, None, None)
    assert sb.WeightingVerdict(accepted=False, reason="R") == \
        sb.WeightingVerdict(False, None, "R")
    assert wt.WeightSequence(order=2, weights=(1, 2), vars=("x", "y")) == \
        wt.weight_sequence({"x": 1, "y": 2})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_missing_or_unknown_argument_is_a_type_error(cls):
    values = _values(_instances()[cls][0])
    first = dataclasses.fields(cls)[0].name
    required = sum(f.default is dataclasses.MISSING
                   for f in dataclasses.fields(cls))
    for args, kwargs in (((), {}), (values[:required - 1], {}),
                         (values, {"bogus": 1}),
                         ((*values, values[-1]), {}),
                         (values, {first: values[0]})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("build, message", [
    (lambda: wt.WeightSequence((), (), 1), "at least one variable"),
    (lambda: wt.WeightSequence(("x", "y"), (2, 1), 2), "nondecreasing"),
    (lambda: wt.MultiWeight(("x", "y"), ((1,), (1, 0))), "one dimension"),
    (lambda: wp.WeightedPoly(("x",), (((1, 2), ONE),)), "exponent length"),
    (lambda: fl.PolyVectorField(("x", "y"), ()), "one coefficient"),
    (lambda: fl.DifferentialFormPoly(("x", "y"), 2, (((1, 0), None),)),
     "strictly increasing"),
    (lambda: jt.JetPoint(("x",), ((1, 2), (3, 4))), "one slot vector"),
    (lambda: sp.CoordinateChange(wt.weight_sequence({"x": 1}),
                                 wt.weight_sequence({"x": 1}), ()),
     "one component"),
    (lambda: sb.Frame(wt.weight_sequence({"x": 1}), ()), "one field"),
], ids=["empty", "decreasing", "dimensions", "wpoly", "field", "form",
        "jet-point", "change", "frame"])
def test_post_init_checks_still_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls not in MUTABLE],
                         ids=lambda cls: cls.__name__)
def test_a_frozen_record_refuses_assignment_and_deletion(cls):
    obj = _instances()[cls][0]
    for name in (dataclasses.fields(cls)[0].name, "foo"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert _values(obj) == _values(copy.copy(obj))


def test_a_verdict_stays_mutable_and_unhashable():
    verdict = sb.WeightingVerdict(True)
    verdict.reason = "R"
    del verdict.witness
    verdict.witness = "w"
    assert (verdict.reason, verdict.witness) == ("R", "w")
    with pytest.raises(TypeError, match="unhashable"):
        hash(verdict)


@pytest.mark.parametrize("slots", [False, True], ids=["plain", "slotted"])
def test_an_eq_in_the_class_body_is_kept_as_dataclass_keeps_it(slots):
    def body(decorate):
        @decorate
        class Mod10:
            """Equal when the last digits agree."""

            n: int

            def __eq__(self, other):
                return type(other) is type(self) and self.n % 10 == other.n % 10

        return Mod10

    ours = body(wt.record(slots=slots))
    twin = body(dataclasses.dataclass(frozen=True, slots=slots))
    for cls in (ours, twin):
        assert cls(1) == cls(11) and not cls(1) != cls(11)
        assert cls(1) != cls(2)
        assert hash(cls(1)) == hash((1,)) != hash(cls(11))
