"""Weight sequences and multi-weights on named coordinates.

A weight sequence assigns a nonnegative integer to each coordinate and fixes
an order r at least as large as every weight.  Variables are kept sorted by
nondecreasing weight (stable within equal weights, so user input order is
preserved and output is deterministic).

Every record class of the package is declared with ``record``, here since
``weights`` imports no other module.  ``record`` makes the class that
``dataclass`` makes without importing ``dataclasses``, whose import (with
``inspect``) took about 10 of the 20-29 ms a CLI process spent importing
the library (Python 3.11, 2 vCPUs): what ``dataclasses`` and ``inspect``
read of a record is built on its first lookup.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping, Sequence
from operator import attrgetter, mul


class _OnFirstLookup:
    """Class attribute ``name``: its first lookup stores on the class every
    attribute ``make()`` returns, ``name`` among them."""

    def __init__(self, name, make):
        self.name, self.make = name, make

    def __get__(self, obj, owner):
        for name, value in self.make().items():
            setattr(owner, name, value)
        return getattr(owner, self.name)


def record(cls=None, *, frozen=True, slots=False):
    """The class as ``dataclass(frozen=frozen, slots=slots)`` makes it.

    A class built in kernel loops writes its own ``__init__``, and a record
    class needs a docstring, which ``dataclass`` would write with ``inspect``.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, slots=slots)
    annotations, missing = cls.__annotations__, object()
    names = tuple(annotations)  # the fields
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    if slots:  # a new class, as dataclass makes it
        body = {key: value for key, value in vars(cls).items()
                if key not in (*names, "__dict__", "__weakref__")}
        cls = type(cls)(cls.__name__, cls.__bases__, {
            **body, "__slots__": names, "__qualname__": cls.__qualname__})
    get, one = attrgetter(*names), len(names) == 1

    def view():  # what dataclasses and inspect read, from a dataclass twin
        from dataclasses import dataclass
        from inspect import Parameter, Signature
        twin = dataclass(init=False, repr=False, eq=False, frozen=frozen,
                         slots=slots)(type(cls.__name__, (), {
                             "__module__": cls.__module__,
                             "__annotations__": annotations, **defaults}))
        return {"__dataclass_fields__": twin.__dataclass_fields__,
                "__dataclass_params__": twin.__dataclass_params__,
                "__signature__": Signature(
                    [Parameter(name, Parameter.POSITIONAL_OR_KEYWORD,
                               annotation=annotations[name],
                               default=defaults.get(name, Parameter.empty))
                     for name in names], return_annotation=None)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args += tuple(kwargs.pop(name, defaults.get(name, missing))
                          for name in names[len(args):])
            if kwargs or len(args) > len(names) or missing in args:
                raise TypeError(f"arguments of {cls.__name__}() do not match "
                                f"its fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            a, b = get(self), get(other)
            return a is b or a == b
        return NotImplemented

    def __hash__(self):
        return hash((get(self),) if one else get(self))

    def __repr__(self):
        values = (get(self),) if one else get(self)
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")")

    def __replace__(self, /, **changes):
        return self.__class__(**{n: getattr(self, n) for n in names} | changes)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    post_init = getattr(cls, "__post_init__", None)
    cls.__match_args__ = names
    for name in ("__dataclass_fields__", "__dataclass_params__",
                 "__signature__"):
        setattr(cls, name, _OnFirstLookup(name, view))
    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    if "__eq__" not in cls.__dict__:
        cls.__eq__ = __eq__
    cls.__replace__ = __replace__
    cls.__hash__ = __hash__ if frozen else None
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    if frozen:
        cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    if slots:  # pickle the fields only
        cls.__getstate__ = lambda self: [get(self)] if one else list(get(self))
        cls.__setstate__ = __setstate__
    return cls


@record
class WeightSequence:
    """Variables sorted by nondecreasing weight, and the order r."""

    vars: tuple[str, ...]
    weights: tuple[int, ...]
    order: int

    def __post_init__(self):
        if not self.vars:
            raise ValueError("weight sequence needs at least one variable")
        _check_names(self.vars)
        if len(self.vars) != len(self.weights):
            raise ValueError("variable and weight counts differ")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if any(a > b for a, b in zip(self.weights, self.weights[1:])):
            raise ValueError("weights must be nondecreasing")
        if self.order < max(self.weights):
            raise ValueError(
                f"order {self.order} below maximum weight {max(self.weights)}")

    @property
    def n(self) -> int:
        return len(self.vars)

    def weight_of(self, name: str) -> int:
        try:
            return self.weights[self.vars.index(name)]
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def count(self, i: int) -> int:
        """k_i, the number of variables of weight at most i."""
        return sum(1 for w in self.weights if w <= i)

    @property
    def counts(self) -> tuple[int, ...]:
        """(k_0, ..., k_r)."""
        return tuple(self.count(i) for i in range(self.order + 1))

    def flag(self, i: int) -> tuple[str, ...]:
        """Variables spanning the level -i piece of the flag (weight <= i)."""
        return tuple(v for v, w in zip(self.vars, self.weights) if w <= i)

    @property
    def zero_vars(self) -> tuple[str, ...]:
        return self.flag(0)

    @property
    def positive_vars(self) -> tuple[str, ...]:
        return tuple(v for v, w in zip(self.vars, self.weights) if w >= 1)

    @property
    def positive_weights(self) -> tuple[int, ...]:
        return tuple(w for w in self.weights if w >= 1)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.vars, self.weights))

    def assignment_text(self) -> str:
        return ",".join(f"{v}={w}" for v, w in zip(self.vars, self.weights))


def weight_sequence(assignments, order: int | None = None) -> WeightSequence:
    """Build a WeightSequence from name->weight assignments.

    Accepts a mapping or a sequence of (name, weight) pairs; insertion order
    breaks ties among equal weights.  The order defaults to the maximum
    weight (at least 1).
    """
    if isinstance(assignments, Mapping):
        pairs = list(assignments.items())
    else:
        pairs = list(assignments)
    if not pairs:
        raise ValueError("no weight assignments given")
    for name, w in pairs:
        if int(w) != w or w < 0:
            raise ValueError(f"weight of {name!r} must be a nonnegative integer")
    pairs.sort(key=lambda item: item[1])
    if order is None:
        order = max(1, max(w for _, w in pairs))
    return WeightSequence(tuple(n for n, _ in pairs),
                          tuple(int(w) for _, w in pairs), int(order))


_ASSIGN_RE = r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\d+)\s*$"


def _check_names(names: Sequence[str]) -> None:
    """Refuse a chart whose variable names repeat, include an empty one, or
    include one that is not an ASCII identifier, which an expression could
    not name."""
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    if "" in names:
        raise ValueError("empty variable name")
    for name in names:
        if not (name.isascii() and name.isidentifier()):
            raise ValueError(f"variable name {name!r} is not an ASCII identifier")


def parse_weight_assignments(text: str) -> list[tuple[str, int]]:
    """Parse "x=1,y=2,z=3" into ordered (name, weight) pairs."""
    pairs, match = [], re.compile(_ASSIGN_RE).match
    for chunk in text.split(","):
        m = match(chunk)
        if m is None:
            raise ValueError(f"malformed weight assignment {chunk.strip()!r}")
        pairs.append((m.group(1), int(m.group(2))))
    return pairs


def weighted_degree(exponents: Sequence[int], weights: Sequence[int]) -> int:
    return sum(map(mul, exponents, weights))


def exponents_below(weights: Sequence[int],
                    bound: int) -> list[tuple[int, ...]]:
    """Every exponent tuple s with s.w < bound, in lexicographic order.

    Positions of weight 0 carry exponent 0, so the list is finite.
    """
    return [s for s, _total in _exponent_walk(weights, bound)]


def _exponent_walk(weights: Sequence[int], bound: int):
    """(s, s.w) for the tuples of exponents_below, one at a time: the last
    exponent that can grow does, and those after it return to 0."""
    s, total = [0] * len(weights), 0
    while bound > 0:
        yield tuple(s), total
        i = len(s) - 1
        while i >= 0 and (not weights[i] or total + weights[i] >= bound):
            total -= s[i] * weights[i]
            s[i], i = 0, i - 1
        if i < 0:
            return
        s[i] += 1
        total += weights[i]


# Most generators ideal_generators returns.
MAX_GENERATOR_CANDIDATES = 200_000


def ideal_generators(W: WeightSequence, degree: int) -> set[tuple[int, ...]]:
    """Minimal monomial generators of the ideal of weighted degree >= degree.

    Exponent vectors run over the positive-weight variables of W.  A monomial
    x^s is a generator when s.w >= degree and decrementing any nonzero
    exponent drops the weighted degree below the threshold.

    Each generator is solved from its first variable i.  The weights are
    nondecreasing, so the conditions read degree <= s.w < degree + w_i: the
    tail after i has weighted degree T < degree, and s_i is
    ceil((degree - T) / w_i).  Conversely each (i, tail) is a generator.
    The walk refuses to return more than MAX_GENERATOR_CANDIDATES of them.
    """
    if degree < 1:
        raise ValueError("generator degree must be at least 1")
    w = W.positive_weights
    out: set[tuple[int, ...]] = set()
    for i, wi in enumerate(w):
        for s, total in _exponent_walk(w[i + 1:], degree):
            if len(out) == MAX_GENERATOR_CANDIDATES:
                raise ValueError(
                    f"degree {degree} has more candidate generators than the "
                    f"limit MAX_GENERATOR_CANDIDATES = "
                    f"{MAX_GENERATOR_CANDIDATES}")
            out.add((0,) * i + (-(-(degree - total) // wi),) + s)
    return out


@record
class MultiWeight:
    """Per-variable weight vectors in Z_{>=0}^d."""

    vars: tuple[str, ...]
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.vars:
            raise ValueError("multi-weight needs at least one variable")
        _check_names(self.vars)
        if len(self.vars) != len(self.weights):
            raise ValueError("variable and weight counts differ")
        dims = {len(v) for v in self.weights}
        if len(dims) != 1:
            raise ValueError("weight vectors must share one dimension")
        if self.d < 1:
            raise ValueError("multi-weight dimension must be at least 1")
        if any(c < 0 for vec in self.weights for c in vec):
            raise ValueError("multi-weight entries must be nonnegative")

    @property
    def d(self) -> int:
        return len(self.weights[0])

    def vector_of(self, name: str) -> tuple[int, ...]:
        try:
            return self.weights[self.vars.index(name)]
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None


_MULTI_RE = r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*\(([0-9,\s]*)\)\s*$"


def parse_multiweight(text: str) -> MultiWeight:
    """Parse "x=(1,0),y=(0,1)" into a MultiWeight."""
    names, vectors, match = [], [], re.compile(_MULTI_RE).match
    for chunk in re.split(r",(?![^()]*\))", text):
        m = match(chunk)  # and no empty entry, as in "x=()" or "x=(1,,2)"
        if m is None or not all(c.strip() for c in m.group(2).split(",")):
            raise ValueError(f"malformed multi-weight assignment {chunk.strip()!r}")
        names.append(m.group(1))
        vectors.append(tuple(int(c) for c in m.group(2).split(",")))
    return MultiWeight(tuple(names), tuple(vectors))


def total_weighting(mw: MultiWeight, order: int | None = None) -> WeightSequence:
    """Collapse a multi-weight to the single weighting with |w_a| per variable."""
    totals = [sum(vec) for vec in mw.weights]
    if order is None:
        order = max(1, max(totals))
    if order < max(totals):
        raise ValueError(f"order {order} below maximum total weight {max(totals)}")
    return weight_sequence(list(zip(mw.vars, totals)), order)


def multi_degree(exponents: Mapping[str, int], mw: MultiWeight) -> tuple:
    """Componentwise multi-weight s.w of a monomial given as name->exponent."""
    total = [0] * mw.d
    for name, s in exponents.items():
        vec = mw.vector_of(name)
        for k in range(mw.d):
            total[k] += s * vec[k]
    return tuple(total)


def multi_filtration_degree(p, mw: MultiWeight) -> tuple:
    """Componentwise minimum of term multi-degrees; infinities for zero.

    Accepts a WeightedPoly over a subset of the multi-weight variables.
    """
    if p.is_zero:
        return (math.inf,) * mw.d
    best = None
    for s, _ in p.terms:
        degree = multi_degree(dict(zip(p.pvars, s)), mw)
        if best is None:
            best = list(degree)
        else:
            best = [min(a, b) for a, b in zip(best, degree)]
    return tuple(best)
