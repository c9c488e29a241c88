"""Meromorphic map families as expression trees, run from one op table.

``OPS`` gives each node class one row: its prefix-text word, its child
fields and the names of its scalar, numpy and box ops.  The parser, the
printer and the compiler read it.  Each map's tree is compiled once into a
post-order tape in which equal subtrees share one slot, and one
interpreter runs the tape for floating scalar (orbit iteration),
vectorized numpy (rasters, winding samples) and rigorous rectangle
enclosure of box batches (certificates).  It looks the ops up by name in
this module when an evaluation starts, so a map holds no function.
Division nodes identify the pole locus; each bundled family also declares
its exact poles so orbit code can bail out deterministically near them.

There is deliberately no cosine node: cos u is written sin(u + pi/2),
which keeps the differentiation rules closed over the vocabulary.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from operator import add as _plus, mul as _times, neg as _negate, pow as _power, sub as _minus
from typing import NamedTuple

import numpy as np

from .numerics import (
    NONE,
    Boxes,
    box_add,
    box_div,
    box_exp,
    box_mul,
    box_neg,
    box_pow_int,
    box_sin,
    box_sub,
)

POLE_SNAP_RELATIVE = 1e-12  # orbit points this close to a declared pole count as hits


class PoleHitError(ArithmeticError):
    """Scalar evaluation landed on (or within snap distance of) a pole."""

    def __init__(self, pole: complex, where: complex):
        super().__init__(f"evaluation at {where} hit pole {pole}")
        self.pole = complex(pole)
        self.where = complex(where)


class ParamConstraintViolation(ValueError):
    """A family parameter fell outside its admissible range."""


class ParseError(ValueError):
    """Malformed map expression text; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Expression nodes.
# ---------------------------------------------------------------------------

class Node:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Node):
    pass


@dataclass(frozen=True)
class Const(Node):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True)
class ParamRef(Node):
    name: str


@dataclass(frozen=True)
class Add(Node):
    a: Node
    b: Node


@dataclass(frozen=True)
class Sub(Node):
    a: Node
    b: Node


@dataclass(frozen=True)
class Mul(Node):
    a: Node
    b: Node


@dataclass(frozen=True)
class Div(Node):
    num: Node
    den: Node


@dataclass(frozen=True)
class Neg(Node):
    a: Node


@dataclass(frozen=True)
class Exp(Node):
    a: Node


@dataclass(frozen=True)
class Sin(Node):
    a: Node


@dataclass(frozen=True)
class IntPow(Node):
    base: Node
    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError("integer power requires exponent >= 2")


# ---------------------------------------------------------------------------
# The op table.
# ---------------------------------------------------------------------------

class Op(NamedTuple):
    """How a node class is parsed, printed and run.  A backend column names a
    function of this module taking the children's values, then the data;
    leaves have none, as the interpreter fills their slots."""
    name: str | None     # prefix-text word; None for constants and parameters
    fields: tuple        # child-node fields, in argument order
    data: tuple = ()     # other fields, passed and printed after the children
    scalar: str = ""
    vec: str = ""
    box: str = ""
    nary: bool = False   # the parser folds (name a b c ...) to the left


OPS = {
    Var: Op("z", ()),
    Const: Op(None, (), ("value",)),
    ParamRef: Op(None, (), ("name",)),
    Add: Op("add", ("a", "b"), (), "_plus", "_plus", "box_add", nary=True),
    Sub: Op("sub", ("a", "b"), (), "_minus", "_minus", "box_sub"),
    Mul: Op("mul", ("a", "b"), (), "_times", "_times", "box_mul", nary=True),
    Div: Op("div", ("num", "den"), (), "_div_scalar", "_div_vec", "box_div"),
    Neg: Op("neg", ("a",), (), "_negate", "_negate", "box_neg"),
    Exp: Op("exp", ("a",), (), "_exp_scalar", "_exp_vec", "box_exp"),
    Sin: Op("sin", ("a",), (), "_sin_scalar", "_sin_vec", "box_sin"),
    IntPow: Op("pow", ("base",), ("k",), "_power", "_power", "box_pow_int"),
}


def _op(n: Node) -> Op:
    try:
        return OPS[type(n)]
    except KeyError:
        raise TypeError(f"not a map node: {n!r}") from None


def _is_const(n: Node, v: complex) -> bool:
    return isinstance(n, Const) and n.value == v


def add(a: Node, b: Node) -> Node:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(a, 0):
        return Neg(b)
    return Sub(a, b)


def mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def neg(a: Node) -> Node:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


# ---------------------------------------------------------------------------
# The map container.
# ---------------------------------------------------------------------------

FAMILY_IDS = ("ex1", "ex2", "ex5", "ex3_model", "ex4_model", "custom")


@dataclass(frozen=True)
class MeromorphicMap:
    expr: Node
    params: dict
    declared_poles: tuple
    family_id: str
    tape: Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family_id not in FAMILY_IDS:
            raise ValueError(f"unknown family id {self.family_id!r}")
        object.__setattr__(self, "declared_poles",
                           tuple(complex(p) for p in self.declared_poles))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "tape", _compile(self.expr))

    def pole_snap_radius(self, pole: complex) -> float:
        return POLE_SNAP_RELATIVE * (1.0 + abs(pole))


def solve_ex2_params() -> tuple[float, float]:
    """Phase and amplitude making z + lam*sin(z+a) translate the stations.

    Solves sin/cos simultaneously: lam*sin(a) = 2*pi and 1 + lam*cos(a) = 0,
    giving a = pi - arctan(2*pi) and lam = sqrt(1 + 4*pi^2).
    """
    a = math.pi - math.atan(2.0 * math.pi)
    lam = math.sqrt(1.0 + 4.0 * math.pi * math.pi)
    return a, lam


def _reject(cond: bool, message: str) -> None:
    if cond:
        raise ParamConstraintViolation(message)


def build_family(family_id: str, params: dict | None = None) -> MeromorphicMap:
    """Construct and validate one of the bundled families.

    ex1: 2 + 2z - 2e^z + eps/(e^z - e^a),  0 < a < 1/32, 0 < eps <= a^2/16
    ex2: z + eps/z + lam*sin(z + a),       0 < eps < 1/144 (a, lam solved);
         pass r1 (the certified contraction radius) to also enforce
         6*sqrt(eps) < r1
    ex5: z*e^z
    ex3_model: 4e^z - eps/z,               eps > 0
    ex4_model: e^z - sqrt(eps) - eps/z,    eps > 0
    """
    p = dict(params or {})
    z = Var()

    if family_id == "ex1":
        a = float(p.pop("a"))
        eps = float(p.pop("eps"))
        _reject(bool(p), f"unknown ex1 params {sorted(p)}")
        _reject(not (0.0 < a < 1.0 / 32.0), f"requires 0 < a < 1/32, got a={a}")
        _reject(not (0.0 < eps <= a * a / 16.0),
                f"requires 0 < eps <= a^2/16, got eps={eps}")
        expr = add(sub(add(Const(2), mul(Const(2), z)), mul(Const(2), Exp(z))),
                   Div(ParamRef("eps"), sub(Exp(z), Exp(ParamRef("a")))))
        return MeromorphicMap(expr, {"a": a, "eps": eps}, (complex(a),), "ex1")

    if family_id == "ex2":
        eps = float(p.pop("eps"))
        r1 = p.pop("r1", None)
        _reject(bool(p), f"unknown ex2 params {sorted(p)}")
        _reject(not (0.0 < eps < 1.0 / 144.0),
                f"requires 0 < eps < 1/144, got eps={eps}")
        if r1 is not None:
            _reject(not (6.0 * math.sqrt(eps) < float(r1)),
                    f"requires 6*sqrt(eps) < r1, got eps={eps}, r1={r1}")
        a, lam = solve_ex2_params()
        expr = add(add(z, Div(ParamRef("eps"), z)),
                   mul(ParamRef("lam"), Sin(add(z, ParamRef("a")))))
        table = {"eps": eps, "a": a, "lam": lam}
        if r1 is not None:
            table["r1"] = float(r1)
        return MeromorphicMap(expr, table, (0j,), "ex2")

    if family_id == "ex5":
        _reject(bool(p), f"ex5 takes no params, got {sorted(p)}")
        return MeromorphicMap(Mul(z, Exp(z)), {}, (), "ex5")

    if family_id == "ex3_model":
        eps = float(p.pop("eps"))
        _reject(bool(p), f"unknown ex3_model params {sorted(p)}")
        _reject(not eps > 0.0, f"requires eps > 0, got {eps}")
        expr = sub(mul(Const(4), Exp(z)), Div(ParamRef("eps"), z))
        return MeromorphicMap(expr, {"eps": eps}, (0j,), "ex3_model")

    if family_id == "ex4_model":
        eps = float(p.pop("eps"))
        _reject(bool(p), f"unknown ex4_model params {sorted(p)}")
        _reject(not eps > 0.0, f"requires eps > 0, got {eps}")
        expr = sub(sub(Exp(z), ParamRef("sqrt_eps")), Div(ParamRef("eps"), z))
        table = {"eps": eps, "sqrt_eps": math.sqrt(eps)}
        return MeromorphicMap(expr, table, (0j,), "ex4_model")

    raise ParamConstraintViolation(f"unknown family id {family_id!r}")


def custom_map(expr_text: str, params: dict | None = None,
               declared_poles: tuple | list = ()) -> MeromorphicMap:
    """Map from prefix expression text; the caller must declare the poles."""
    expr = parse_expr(expr_text)
    return MeromorphicMap(expr, dict(params or {}), tuple(declared_poles), "custom")


def ex2_g_map() -> MeromorphicMap:
    """The entire part g(z) = z + lam*sin(z+a) of the ex2 family.

    Drives the contraction-radius search and the station-translation
    certificates, none of which involve the eps/z pole term.
    """
    a, lam = solve_ex2_params()
    z = Var()
    expr = add(z, mul(ParamRef("lam"), Sin(add(z, ParamRef("a")))))
    return MeromorphicMap(expr, {"a": a, "lam": lam}, (), "custom")


# ---------------------------------------------------------------------------
# Prefix parser:  (add (mul z (exp z)) (div eps z))
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\(|\)|[^\s()]+)")
_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")
_OPERATORS = {op.name: cls for cls, op in OPS.items() if op.fields}


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError("unreadable input", pos)
        tok = m.group(1)
        out.append((tok, m.start(1)))
        pos = m.end()
    return out


def parse_expr(text: str) -> Node:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    expr, rest = _parse(tokens)
    if rest:
        raise ParseError(f"trailing input {rest[0][0]!r}", rest[0][1])
    return expr


def _parse(tokens) -> tuple[Node, list]:
    tok, pos = tokens[0]
    if tok == ")":
        raise ParseError("unexpected ')'", pos)
    if tok != "(":
        return _atom(tok, pos), tokens[1:]
    if len(tokens) < 2:
        raise ParseError("unclosed '('", pos)
    name, op_pos = tokens[1]
    cls = _OPERATORS.get(name)
    if cls is None:
        raise ParseError(f"unknown operator {name!r}", op_pos)
    rest = tokens[2:]
    args: list[Node] = []
    while True:
        if not rest:
            raise ParseError("unclosed '('", pos)
        if rest[0][0] == ")":
            rest = rest[1:]
            break
        node, rest = _parse(rest)
        args.append(node)

    op = OPS[cls]
    if cls is IntPow:
        if len(args) != 2:
            raise ParseError("pow needs a base and an integer exponent", op_pos)
        k_node = args[1]
        if (not isinstance(k_node, Const) or k_node.value.imag != 0.0
                or k_node.value.real != int(k_node.value.real)):
            raise ParseError("pow exponent must be an integer literal", op_pos)
        k = int(k_node.value.real)
        if k < 2:
            raise ParseError("pow exponent must be >= 2", op_pos)
        return IntPow(args[0], k), rest
    if len(op.fields) == 1:
        if len(args) != 1:
            raise ParseError(f"{name} takes one argument", op_pos)
        return cls(args[0]), rest
    if len(args) < 2:
        raise ParseError(f"{name} takes at least two arguments", op_pos)
    if not op.nary and len(args) != 2:
        raise ParseError(f"{name} takes exactly two arguments", op_pos)
    acc = args[0]
    for nxt in args[1:]:
        acc = cls(acc, nxt)
    return acc, rest


def _atom(tok: str, pos: int) -> Node:
    if tok == OPS[Var].name:
        return Var()
    if tok == "i":
        return Const(1j)
    if tok == "pi":
        return Const(math.pi)
    if _NUMBER.match(tok):
        return Const(float(tok))
    if _IDENT.match(tok):
        return ParamRef(tok)
    raise ParseError(f"unreadable token {tok!r}", pos)


def to_sexpr(node: Node) -> str:
    """Inverse of parse_expr up to constant formatting."""
    op = _op(node)
    words = [to_sexpr(getattr(node, f)) for f in op.fields]
    words += [_literal(getattr(node, d)) for d in op.data]
    if not op.fields:
        return words[0] if words else op.name
    return f"({op.name} {' '.join(words)})"


def _literal(v) -> str:
    if type(v) is not complex:  # a parameter name or an exponent
        return str(v)
    if v == 1j:
        return "i"
    if v.imag == 0.0:
        return repr(v.real)
    return f"(add {v.real!r} (mul {v.imag!r} i))"


# ---------------------------------------------------------------------------
# Evaluation: one compiler, one interpreter, and the ops the table names.
# ---------------------------------------------------------------------------

class Tape(NamedTuple):
    """Slot 0 is the variable, then one slot per leaf, then one per step."""
    leaves: tuple  # (parameter name, None) or (None, constant value)
    steps: tuple   # (op row, argument slots, data, slots last read here)


def _const_key(v: complex):
    """Bit-exact slot key: 0.0 and -0.0 differ, and a NaN matches nothing."""
    return object() if cmath.isnan(v) else (v.real.hex(), v.imag.hex())


def _compile(expr: Node) -> Tape:
    """Post-order tape of expr in which equal subtrees share one slot."""
    slots = {(Var, (), ()): 0}
    leaves, steps = [], []

    def visit(n: Node) -> int:
        # Steps get provisional slots -1, -2, ... until the leaves are counted.
        op = _op(n)
        args = tuple(visit(getattr(n, f)) for f in op.fields)
        data = tuple(getattr(n, d) for d in op.data)
        key = (type(n), args, _const_key(n.value) if type(n) is Const else data)
        if key not in slots:
            if op.fields:
                slots[key] = -1 - len(steps)
                steps.append((op, args, data))
            else:
                slots[key] = 1 + len(leaves)
                leaves.append((n.name, None) if type(n) is ParamRef else (None, n.value))
        return slots[key]

    visit(expr)
    n = len(leaves)
    steps = [(op, tuple(s if s >= 0 else n - s for s in args), data) for op, args, data in steps]
    # Freeing each slot after its last read keeps numpy temporaries as short-lived
    # as in a recursive walk.
    last = {s: j for j, (_, args, _) in enumerate(steps) for s in args}
    return Tape(tuple(leaves), tuple((op, args, data, tuple({s for s in args if last[s] == j}))
                                     for j, (op, args, data) in enumerate(steps)))


_SCALAR, _VEC, _BOX = (Op._fields.index(c) for c in ("scalar", "vec", "box"))


def _run(m: MeromorphicMap, column: int, x, lift, note=None):
    """Value of m at x in one backend column; lift makes a constant's value.

    note, if given, is called with each step's value in tape order."""
    ns, params = globals(), m.params
    vals = [x]
    for name, value in m.tape.leaves:
        vals.append(lift(value if name is None else complex(params[name])))
    for op, args, data, dead in m.tape.steps:
        if len(args) == 2:
            vals.append(ns[op[column]](vals[args[0]], vals[args[1]]))
        else:
            vals.append(ns[op[column]](vals[args[0]], *data))
        if note is not None:
            note(vals[-1])
        for i in dead:
            vals[i] = None
    return vals[-1]


_DIV_FLOOR = 1e-300  # treat true underflow of a denominator as a pole hit
_EXP_CAP = 700.0     # cmath overflows past this; the true value is huge
_HUGE = complex(math.inf, math.inf)
_NAN = complex(math.nan, math.nan)


def _div_scalar(num: complex, den: complex) -> complex:
    if abs(den) < _DIV_FLOOR:
        raise ZeroDivisionError("denominator below the pole floor")
    return num / den


def _exp_scalar(w: complex) -> complex:
    return _HUGE if w.real > _EXP_CAP else cmath.exp(w)


def _sin_scalar(w: complex) -> complex:
    return _HUGE if abs(w.imag) > _EXP_CAP else cmath.sin(w)


# The numpy ops put NaN where the scalar ones raise or overflow; NaN
# survives every later op, so eval_map_vec flags those entries as bad.

def _div_vec(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.where(np.abs(den) < _DIV_FLOOR, _NAN, num / den)


def _exp_vec(w: np.ndarray) -> np.ndarray:
    return np.exp(np.where(w.real > _EXP_CAP, _NAN, w))


def _sin_vec(w: np.ndarray) -> np.ndarray:
    return np.sin(np.where(np.abs(w.imag) > _EXP_CAP, _NAN, w))


def eval_map(m: MeromorphicMap, z: complex) -> complex:
    """Scalar evaluation; raises PoleHitError at or snap-close to poles."""
    z = complex(z)
    for p in m.declared_poles:
        if abs(z - p) <= m.pole_snap_radius(p):
            raise PoleHitError(p, z)
    try:
        return _run(m, _SCALAR, z, complex)
    except ZeroDivisionError:
        nearest = min(m.declared_poles, key=lambda p: abs(z - p)) if m.declared_poles else z
        raise PoleHitError(nearest, z) from None


def eval_map_vec(m: MeromorphicMap, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized evaluation.

    Returns (values, bad) where bad marks entries that hit a pole snap zone,
    produced a non-finite value, or overflowed.  Values at bad entries are
    unspecified.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    bad = np.zeros(zs.shape, dtype=bool)
    for p in m.declared_poles:
        bad |= np.abs(zs - p) <= m.pole_snap_radius(p)
    with np.errstate(all="ignore"):
        vals = _run(m, _VEC, zs, lambda v: np.full(zs.shape, v, dtype=np.complex128))
    bad |= ~np.isfinite(vals.real) | ~np.isfinite(vals.imag)
    return vals, bad


def eval_map_box(m: MeromorphicMap, b: Boxes) -> Boxes:
    """Rigorous enclosure of the image of each box of a batch.

    Each box's reason code is that of the first step, in tape order, whose
    value has one: POLE where a division's denominator box touches 0,
    OVERFLOW where an endpoint is inf or NaN.
    """
    n = len(b.why)
    why = b.why.copy()

    def note(step: Boxes) -> None:
        np.copyto(why, step.why, where=why == NONE)

    with np.errstate(all="ignore"):
        out = _run(m, _BOX, b, lambda v: Boxes.point(v, n), note)
    return out._replace(why=why)


# ---------------------------------------------------------------------------
# Symbolic derivative.
# ---------------------------------------------------------------------------

_HALF_PI_CONST = Const(math.pi / 2)


def _diff(n: Node) -> Node:
    if isinstance(n, Var):
        return Const(1)
    if isinstance(n, (Const, ParamRef)):
        return Const(0)
    if isinstance(n, Add):
        return add(_diff(n.a), _diff(n.b))
    if isinstance(n, Sub):
        return sub(_diff(n.a), _diff(n.b))
    if isinstance(n, Mul):
        return add(mul(_diff(n.a), n.b), mul(n.a, _diff(n.b)))
    if isinstance(n, Div):
        # (u/v)' = (u'v - uv') / v^2
        num = sub(mul(_diff(n.num), n.den), mul(n.num, _diff(n.den)))
        return Div(num, IntPow(n.den, 2))
    if isinstance(n, Neg):
        return neg(_diff(n.a))
    if isinstance(n, Exp):
        return mul(Exp(n.a), _diff(n.a))
    if isinstance(n, Sin):
        # d sin(u) = cos(u) u' with cos written as a quarter-turn shift
        return mul(Sin(add(n.a, _HALF_PI_CONST)), _diff(n.a))
    if isinstance(n, IntPow):
        inner = n.base if n.k == 2 else IntPow(n.base, n.k - 1)
        return mul(mul(Const(n.k), inner), _diff(n.base))
    raise TypeError(f"not a map node: {n!r}")


def derivative(m: MeromorphicMap) -> MeromorphicMap:
    """Symbolic derivative sharing the parameter table and pole set.

    Division rules only ever square existing denominators, so the pole
    locus is unchanged (orders may grow).
    """
    return MeromorphicMap(_diff(m.expr), m.params, m.declared_poles, m.family_id)
