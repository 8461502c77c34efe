"""Exact symbolic expressions over the rationals.

An expression is an immutable tree built from rational constants, named
variables, n-ary sums and products, integer powers, and the transcendental
heads sin, cos, exp.  All coefficients are ``fractions.Fraction`` values, so
every operation is exact.

Every expression handed out by this module is in *canonical form*:

* sums and products are flattened, sorted by a fixed total order, and carry
  no zero summands or unit factors;
* rational constants are folded (a product keeps at most one constant, in
  front);
* like summands are collected (``x + x`` becomes ``2*x``) and like factors
  are merged into powers (``x*x`` becomes ``x^2``);
* power exponents are integers different from 0 and 1, power bases are never
  constants, products, or other powers;
* ``sin(0)``, ``cos(0)``, ``exp(0)`` are folded to their exact values.

Canonical form is an invariant of the constructors.  Expressions come from
``const``, ``var``, ``add``, ``mul``, ``pow_``, ``app``, ``parse_expr`` and
the operations built on them (``differentiate``, ``substitute``, ``expand``,
the operator methods of ``Expr``); each returns a canonical tree when its
arguments are canonical, so no caller canonicalizes a result again.  The
node classes ``Const``, ``Var``, ``Sum``, ``Prod``, ``Pow`` and ``App`` are
exported for inspection, not for building trees.

Equal canonical forms imply equal functions.  The converse fails for
transcendental expressions (``sin(x)^2 + cos(x)^2`` does not rewrite to 1);
``semantically_equal`` adds a probabilistic numeric check for such cases.

The grammar accepted by ``parse_expr``:

    expr   := ["-"] term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*     # "/" only by a rational constant
    factor := base ("^" integer)?
    base   := number | ident | ident "(" expr ")" | "(" expr ")"

where ``number`` is a nonnegative integer and the known functions are
sin, cos, exp.  The leading "-" is a convenience extension.  Parentheses
and function calls nest at most ``MAX_NESTING`` levels deep.

``pow_`` folds a constant power q^k exactly, so it refuses one whose value
would have more than ``MAX_CONSTANT_BITS`` bits, estimated before folding
as |k| * (bit_length(max(|numerator|, denominator)) - 1); 0 and +-1 always
fold.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .weights import record

FUNCTIONS = ("sin", "cos", "exp")

RationalLike = int | Fraction


class ParseError(ValueError):
    """Syntax error in expression text, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Expr:
    """Base class for expression nodes.  Instances are immutable.

    Each node keeps its hash in the ``_h`` slot after the first call, so a
    dict or set lookup hashes a subtree once rather than on every probe.
    """

    __slots__ = ("_h",)

    def __add__(self, other):
        return add(self, as_expr(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(MINUS_ONE, as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), mul(MINUS_ONE, self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(MINUS_ONE, self)

    def __pow__(self, exponent: int):
        return pow_(self, exponent)

    def __truediv__(self, other):
        if isinstance(other, Const):
            other = other.value
        if not isinstance(other, (int, Fraction)):
            raise TypeError("division only by rational constants")
        return mul(self, const(Fraction(1, 1) / Fraction(other)))

    def __str__(self):
        return to_text(self)


def _node(cls):
    """Frozen, slotted record whose hash is computed once per instance.

    ``record`` makes the fields slots beside ``Expr``'s ``_h``, which caches
    the hash of the field tuple, so dict and set order are those of an
    uncached node.  Pickled state holds the fields only, never ``_h``, which
    depends on the process's string-hash seed.  Every attribute assignment
    or deletion raises ``dataclasses.FrozenInstanceError``, imported then.
    Nodes are built in every kernel loop, so each writes its own ``__init__``.

    A node prints as ``Name(field, ...)``, fields in order: a tuple field as
    its items' ``repr``s, an ``Expr`` as its ``repr``, anything else (a
    ``Fraction``, a name, an exponent, a function head) as its ``str``.
    """
    cls = record(cls, slots=True)
    field_hash, names = cls.__hash__, cls.__match_args__

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            h = field_hash(self)
            object.__setattr__(self, "_h", h)
            return h

    def text(value):
        if isinstance(value, tuple):
            return ", ".join(map(repr, value))
        return repr(value) if isinstance(value, Expr) else str(value)

    def __repr__(self):
        return f"{cls.__name__}({', '.join(text(getattr(self, n)) for n in names)})"

    __repr__.__qualname__ = f"{cls.__qualname__}.__repr__"
    cls.__hash__, cls.__repr__ = __hash__, __repr__
    return cls


@_node
class Const(Expr):
    """A rational constant."""

    value: Fraction

    def __init__(self, value):
        object.__setattr__(self, "value", value)


@_node
class Var(Expr):
    """A named variable."""

    name: str

    def __init__(self, name):
        object.__setattr__(self, "name", name)


@_node
class Sum(Expr):
    """A sum of canonical terms."""

    terms: tuple

    def __init__(self, terms):
        object.__setattr__(self, "terms", terms)


@_node
class Prod(Expr):
    """A product of canonical factors."""

    factors: tuple

    def __init__(self, factors):
        object.__setattr__(self, "factors", factors)


@_node
class Pow(Expr):
    """An integer power, exponent not 0 or 1, of a non-constant base."""

    base: Expr
    exponent: int

    def __init__(self, base, exponent):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


@_node
class App(Expr):
    """A known function (sin, cos, exp) applied to an argument."""

    fn: str
    arg: Expr

    def __init__(self, fn, arg):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)


def const(value: RationalLike) -> Const:
    return Const(value if type(value) is Fraction else Fraction(value))


ZERO = const(0)
ONE = const(1)
MINUS_ONE = const(-1)
_UNIT = ONE.value


def _is_zero(e) -> bool:
    """e == ZERO by node type: any Const of value 0, the singleton or not."""
    return type(e) is Const and not e.value


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return const(value)
    raise TypeError(f"cannot interpret {value!r} as an expression")


def sort_key(e: Expr):
    """Total order on canonical expressions, stable across runs."""
    if isinstance(e, Const):
        return (0, (e.value.numerator, e.value.denominator))
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, App):
        return (2, e.fn, sort_key(e.arg))
    if isinstance(e, Pow):
        return (3, sort_key(e.base), e.exponent)
    if isinstance(e, Prod):
        return (4, tuple(sort_key(f) for f in e.factors))
    if isinstance(e, Sum):
        return (5, tuple(sort_key(t) for t in e.terms))
    raise TypeError(f"unknown expression node {e!r}")


def _split_coeff(e: Expr) -> tuple[Fraction, Expr | None]:
    """Write e as coeff * core with core constant-free (None for pure constants)."""
    if isinstance(e, Const):
        return e.value, None
    if isinstance(e, Prod) and isinstance(e.factors[0], Const):
        rest = e.factors[1:]
        core = rest[0] if len(rest) == 1 else Prod(rest)
        return e.factors[0].value, core
    return _UNIT, e


def _with_coeff(coeff: Fraction, core: Expr) -> Expr:
    """coeff * core for a constant-free core and a non-zero coeff."""
    if coeff == 1:
        return core
    if isinstance(core, Prod):
        return Prod((const(coeff),) + core.factors)
    return Prod((const(coeff), core))


def add(*terms) -> Expr:
    """Canonical sum of expressions."""
    if len(terms) == 2 and type(terms[0]) is type(terms[1]) is Const:
        v = terms[0].value + terms[1].value
        return Const(v) if v else ZERO
    flat: list[Expr] = []
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    total = None
    collected: dict = {}
    order: list = []
    merged_sums: list = []
    for t in flat:
        coeff, core = _split_coeff(t)
        if core is None:
            total = coeff if total is None else total + coeff
            continue
        if core in collected:
            collected[core] += coeff
            if isinstance(core, Sum):
                merged_sums.append(core)
        else:
            collected[core] = coeff
            order.append(core)
    out = [_with_coeff(c, core) for core in order if (c := collected[core]) != 0]
    if total:
        out.append(const(total))
    if merged_sums and any(collected[s] == 1 for s in merged_sums):
        # c*S + (1 - c)*S collected to the sum S, whose terms are summands
        return add(*out)
    out.sort(key=sort_key)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def mul(*factors) -> Expr:
    """Canonical product of expressions.

    A constant q times one canonical node c*e (c its leading coefficient, 1
    if it has none) is (q*c)*e, found without flattening or sorting.
    """
    if len(factors) == 2:
        q, e = factors if type(factors[0]) is Const else factors[::-1]
        if type(q) is Const and isinstance(e, Expr):
            coeff, core = _split_coeff(e)
            coeff *= q.value
            if not coeff:
                return ZERO
            return Const(coeff) if core is None else _with_coeff(coeff, core)
    flat: list[Expr] = []
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)
    coeff = None
    powers: dict = {}
    order: list = []
    for f in flat:
        if isinstance(f, Const):
            coeff = f.value if coeff is None else coeff * f.value
            continue
        if isinstance(f, Pow):
            base, exp = f.base, f.exponent
        else:
            base, exp = f, 1
        if base in powers:
            powers[base] += exp
        else:
            powers[base] = exp
            order.append(base)
    if coeff is None:
        coeff = _UNIT
    elif coeff == 0:
        return ZERO
    # a canonical base is a Var, Sum or App, so each power is one factor
    parts = [pow_(base, exp) for base in order if (exp := powers[base])]
    if not parts:
        return const(coeff)
    parts.sort(key=sort_key)
    if coeff == 1:
        return parts[0] if len(parts) == 1 else Prod(tuple(parts))
    return Prod((const(coeff),) + tuple(parts))


def pow_(base, exponent: int) -> Expr:
    """Canonical integer power."""
    base = as_expr(base)
    exponent = int(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        q = base.value
        if q == 0 and exponent < 0:
            raise ValueError("zero raised to a negative power")
        # |exponent| * size bounds the bits of q^exponent from below
        size = max(abs(q.numerator), q.denominator).bit_length() - 1
        if abs(exponent) * size > MAX_CONSTANT_BITS:
            raise ValueError(
                f"constant power with exponent {exponent} exceeds the limit "
                f"MAX_CONSTANT_BITS = {MAX_CONSTANT_BITS}")
        return const(q ** exponent)
    if isinstance(base, Prod):
        return mul(*[pow_(f, exponent) for f in base.factors])
    if isinstance(base, Pow):
        return pow_(base.base, base.exponent * exponent)
    return Pow(base, exponent)


_APP_AT_ZERO = {"sin": ZERO, "cos": ONE, "exp": ONE}


def app(fn: str, arg) -> Expr:
    """Canonical function application."""
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    arg = as_expr(arg)
    if _is_zero(arg):
        return _APP_AT_ZERO[fn]
    return App(fn, arg)


def var(name: str) -> Var:
    return Var(name)


def variables(e: Expr) -> frozenset[str]:
    """Set of variable names occurring in e."""
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Sum):
        return frozenset().union(*[variables(t) for t in e.terms])
    if isinstance(e, Prod):
        return frozenset().union(*[variables(f) for f in e.factors])
    if isinstance(e, Pow):
        return variables(e.base)
    if isinstance(e, App):
        return variables(e.arg)
    raise TypeError(f"unknown expression node {e!r}")


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to the named variable."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Sum):
        return add(*[differentiate(t, name) for t in e.terms])
    if isinstance(e, Prod):
        pieces = []
        for i, f in enumerate(e.factors):
            df = differentiate(f, name)
            if _is_zero(df):
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            pieces.append(mul(df, *rest))
        return add(*pieces)
    if isinstance(e, Pow):
        db = differentiate(e.base, name)
        if _is_zero(db):
            return ZERO
        return mul(const(e.exponent), pow_(e.base, e.exponent - 1), db)
    if isinstance(e, App):
        da = differentiate(e.arg, name)
        if _is_zero(da):
            return ZERO
        if e.fn == "sin":
            outer = app("cos", e.arg)
        elif e.fn == "cos":
            outer = mul(MINUS_ONE, app("sin", e.arg))
        else:  # exp
            outer = e
        return mul(outer, da)
    raise TypeError(f"unknown expression node {e!r}")


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, recanonicalizing."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return as_expr(mapping.get(e.name, e))
    if isinstance(e, Sum):
        return add(*[substitute(t, mapping) for t in e.terms])
    if isinstance(e, Prod):
        return mul(*[substitute(f, mapping) for f in e.factors])
    if isinstance(e, Pow):
        return pow_(substitute(e.base, mapping), e.exponent)
    if isinstance(e, App):
        return app(e.fn, substitute(e.arg, mapping))
    raise TypeError(f"unknown expression node {e!r}")


def _distribute(a: Expr, b: Expr) -> Expr:
    a_terms = a.terms if isinstance(a, Sum) else (a,)
    b_terms = b.terms if isinstance(b, Sum) else (b,)
    return add(*[mul(x, y) for x in a_terms for y in b_terms])


def expand(e: Expr) -> Expr:
    """Distribute products and nonnegative powers over sums."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Sum):
        return add(*[expand(t) for t in e.terms])
    if isinstance(e, App):
        return app(e.fn, expand(e.arg))
    if isinstance(e, Pow):
        base = expand(e.base)
        if e.exponent >= 2 and isinstance(base, Sum):
            out = base
            for _ in range(e.exponent - 1):
                out = _distribute(out, base)
            return out
        return pow_(base, e.exponent)
    if isinstance(e, Prod):
        out = ONE
        for f in e.factors:
            out = _distribute(out, expand(f))
        return out
    raise TypeError(f"unknown expression node {e!r}")


def simplify_canonical(e: Expr, expand_polynomials: bool = False) -> Expr:
    """Rebuild an expression bottom-up through the canonical constructors:
    ``substitute(e, {})``, expanded when ``expand_polynomials`` is set.  Every
    expression the constructors build is a fixed point, so the library never
    calls it; tests use it to check that ``simplify_canonical(e) == e`` and
    ``simplify_canonical(e, expand_polynomials=True) == expand(e)``."""
    out = substitute(e, {})
    return expand(out) if expand_polynomials else out


_MATH_FN = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def eval_numeric(e: Expr, assignment: Mapping[str, float]) -> float:
    """IEEE double evaluation; every variable of e must be assigned."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        if e.name not in assignment:
            raise ValueError(f"unassigned variable {e.name!r}")
        return float(assignment[e.name])
    if isinstance(e, Sum):
        return sum(eval_numeric(t, assignment) for t in e.terms)
    if isinstance(e, Prod):
        out = 1.0
        for f in e.factors:
            out *= eval_numeric(f, assignment)
        return out
    if isinstance(e, Pow):
        return eval_numeric(e.base, assignment) ** e.exponent
    if isinstance(e, App):
        x = eval_numeric(e.arg, assignment)
        # IEEE sin and cos of an infinity are nan, where math raises ValueError
        return math.nan if math.isinf(x) and e.fn != "exp" else _MATH_FN[e.fn](x)
    raise TypeError(f"unknown expression node {e!r}")


def eval_exact(e: Expr, assignment: Mapping[str, RationalLike]) -> Fraction:
    """Exact rational evaluation.  Fails on transcendental values."""
    out = substitute(e, {k: const(v) for k, v in assignment.items()})
    if not isinstance(out, Const):
        raise ValueError(f"expression does not evaluate to a rational: {to_text(out)}")
    return out.value


def semantically_equal(e1: Expr, e2: Expr, samples: int = 8,
                       tolerance: float = 1e-9, seed: int = 0) -> bool:
    """Canonical equality, with a numeric fallback at random rational points.

    Canonical equality is sound; the fallback makes the check useful for
    transcendental identities at the usual probabilistic caveat.  A point
    where either side is a pole or not finite is drawn again, at most
    ``samples`` extra times; ValueError if no point is usable.
    """
    if e1 == e2:
        return True
    import random
    rng = random.Random(seed)
    names = sorted(variables(e1) | variables(e2))
    usable = 0
    for _ in range(2 * samples):
        point = {n: rng.randint(-16, 16) / rng.randint(1, 8) for n in names}
        try:
            va, vb = eval_numeric(e1, point), eval_numeric(e2, point)
        except (ZeroDivisionError, OverflowError):
            continue
        if not (math.isfinite(va) and math.isfinite(vb)):
            continue
        if abs(va - vb) > tolerance * max(1.0, abs(va), abs(vb)):
            return False
        usable += 1
        if usable == samples:
            break
    if samples and not usable:
        raise ValueError("no sample point where both expressions are finite")
    return True


# ---------------------------------------------------------------------------
# printing

def _frac_text(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _factor_text(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, App):
        return f"{e.fn}({to_text(e.arg)})"
    if isinstance(e, Pow):
        if isinstance(e.base, Sum):
            return f"({to_text(e.base)})^{e.exponent}"
        return f"{_factor_text(e.base)}^{e.exponent}"
    if isinstance(e, Sum):
        return f"({to_text(e)})"
    raise TypeError(f"unknown expression node {e!r}")


def _term_text(e: Expr) -> tuple[bool, str]:
    """Render one summand; returns (is_negative, text without sign)."""
    coeff, core = _split_coeff(e)
    negative = coeff < 0
    coeff = abs(coeff)
    if core is None:
        return negative, _frac_text(coeff)
    factors = core.factors if isinstance(core, Prod) else (core,)
    body = "*".join(_factor_text(f) for f in factors)
    if coeff == 1:
        return negative, body
    return negative, f"{_frac_text(coeff)}*{body}"


def _terms_text(terms: Iterable[tuple[Expr, str]]) -> str:
    """Join summands coefficient*monomial, each monomial given as text ("" for
    none), with the sign of each coefficient pulled in front of its summand."""
    pieces = []
    for i, (coeff, mono) in enumerate(terms):
        negative, body = _term_text(coeff)
        if mono:
            body = mono if body == "1" else f"{body}*{mono}"
        if i == 0:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


def _monomial_text(factors: Iterable[tuple[str, Fraction | int]]) -> str:
    """Join (name, exponent) factors as name^e with "*": exponent 1 bare, a
    positive integer plain, any other exponent in parentheses."""
    return "*".join(v if e == 1 else f"{v}^{e}" if e > 0 and e == int(e)
                    else f"{v}^({e})" for v, e in factors)


def _field_text(pairs: Iterable[tuple[str, str]]) -> str:
    """The one field printer: (c, name) pairs as (c) d/d[name] + ..., or 0."""
    return " + ".join(f"({c}) d/d[{name}]" for c, name in pairs) or "0"


def to_text(e: Expr) -> str:
    """Canonical text form; parse_expr(to_text(e)) == e for canonical e."""
    terms = e.terms if isinstance(e, Sum) else (e,)
    return _terms_text((t, "") for t in terms)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^()]))"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    match = re.compile(_TOKEN_RE).match
    while pos < len(text):
        m = match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        number, ident, op = m.groups()
        start = m.start(1) if number else m.start(2) if ident else m.start(3)
        if number:
            tokens.append(("number", number, start))
        elif ident:
            tokens.append(("ident", ident, start))
        else:
            tokens.append(("op", op, start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Deepest parenthesis or function-call nesting parse_expr accepts; the
# recursive-descent parser and the tree walkers recurse once per level.
MAX_NESTING = 100

# Most bits pow_ lets a folded constant power have, estimated before it is
# computed: folding is exact, so 2^k would otherwise take time and memory
# in k.
MAX_CONSTANT_BITS = 100_000


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return e

    def expr(self) -> Expr:
        kind, value, _ = self.peek()
        negate_first = kind == "op" and value == "-"
        if negate_first:
            self.advance()
        terms = [self.term()]
        if negate_first:
            terms[0] = mul(MINUS_ONE, terms[0])
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                t = self.term()
                terms.append(t if value == "+" else mul(MINUS_ONE, t))
            else:
                break
        return add(*terms)

    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                factors.append(self.factor())
            elif kind == "op" and value == "/":
                self.advance()
                divisor = self.factor()
                if not isinstance(divisor, Const):
                    raise ParseError("divisor must be a rational constant", pos)
                if divisor.value == 0:
                    raise ParseError("division by zero", pos)
                factors.append(const(Fraction(1) / divisor.value))
            else:
                break
        return mul(*factors)

    def factor(self) -> Expr:
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            sign = 1
            kind, value, pos = self.peek()
            if kind == "op" and value == "-":
                sign = -1
                self.advance()
                kind, value, pos = self.peek()
            if kind != "number":
                raise ParseError("expected integer exponent", pos)
            self.advance()
            return pow_(base, sign * int(value))
        return base

    def nested(self, pos: int) -> Expr:
        """The expression after an opening parenthesis, up to its match."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        e = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return e

    def base(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "number":
            return const(int(value))
        if kind == "ident":
            k, v, paren = self.peek()
            if k == "op" and v == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", pos)
                self.advance()
                return app(value, self.nested(paren))
            return Var(value)
        if kind == "op" and value == "(":
            return self.nested(pos)
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse_expr(text: str) -> Expr:
    """Parse canonical-grammar text into a canonical expression."""
    return _Parser(text).parse()
