"""Meromorphic map families as expression trees, run from one op table.

A map is a tree of one node type, ``Node(op, args, data)``: ``op`` is a
word of ``OPS``, ``args`` are the child nodes, and ``data`` holds a
constant's complex value, a parameter's name or a power's exponent.
``OPS`` gives each word one row: its arity, the names of its numpy and
box ops, and the name of its derivative rule.  The parser, the
printer, the compiler and the derivative read it, and the bundled families
are prefix text parsed once at import.  Each map's tree is compiled once
into a post-order tape in which equal subtrees share one slot, and one
interpreter runs the tape for vectorized numpy (rasters, winding
samples, Newton; a point is a batch of one) and rigorous rectangle
enclosure of box batches (certificates).  It looks the ops up by name in
this module when an evaluation starts, so a map holds no function.  The
tape puts the steps that read no z first, and they are folded: a map's
first evaluation in a backend column reads its parameters, lifts its
leaves and runs those steps, and the values stay on the map, so every
later evaluation in that column runs only the steps that read z.  A map's
params are thus read at its first evaluation; nothing changes them after.
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
    Boxes,
    ComplexBox,
    _first_code,
    _out_hi,
    box_add,
    box_div,
    box_exp,
    box_mag,
    box_mul,
    box_neg,
    box_pow_int,
    box_sin,
    box_sub,
)

POLE_SNAP_RELATIVE = 1e-12  # orbit points this close to a declared pole count as hits


class PoleHitError(ArithmeticError):
    """eval_map's point lies in the snap zone of the declared pole `pole`."""

    def __init__(self, pole: complex, where: complex):
        super().__init__(f"evaluation at {where} hit pole {pole}")
        self.pole = complex(pole)
        self.where = complex(where)


class NonFiniteValue(ArithmeticError):
    """eval_map's value is not finite and its point lies in no declared
    pole's snap zone: an overflow, or a pole the map does not declare."""

    def __init__(self, where: complex):
        super().__init__(f"evaluation at {where} is not finite: "
                         "overflow, or a pole the map does not declare")
        self.where = complex(where)


class ParamConstraintViolation(ValueError):
    """A family parameter fell outside its admissible range."""


class ParseError(ValueError):
    """Malformed map expression text; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Expression nodes and the op table.
# ---------------------------------------------------------------------------

class Node(NamedTuple):
    """One expression node.  Trees come from parse_expr and derivative."""
    op: str              # its OPS word
    args: tuple = ()     # child nodes
    data: object = None  # a constant's complex value, a parameter's name or an exponent


class Op(NamedTuple):
    """How a node is run and differentiated.  A backend column names a
    function of this module taking the children's values, then the data;
    leaves have none, as the interpreter fills their slots.  ``diff`` names
    the rule taking the node and then its children's derivatives."""
    arity: int           # child nodes; 0 for leaves
    vec: str = ""
    box: str = ""
    diff: str = ""
    nary: bool = False   # the parser folds (word a b c ...) to the left


OPS = {
    "z": Op(0, diff="_d_var"),
    "const": Op(0, diff="_d_leaf"),
    "param": Op(0, diff="_d_leaf"),
    "add": Op(2, "_plus", "box_add", "_d_add", nary=True),
    "sub": Op(2, "_minus", "box_sub", "_d_sub"),
    "mul": Op(2, "_times", "box_mul", "_d_mul", nary=True),
    "div": Op(2, "_div_vec", "box_div", "_d_div"),
    "neg": Op(1, "_negate", "box_neg", "_d_neg"),
    "exp": Op(1, "_exp_vec", "box_exp", "_d_exp"),
    "sin": Op(1, "_sin_vec", "box_sin", "_d_sin"),
    "pow": Op(1, "_power", "box_pow_int", "_d_pow"),  # data: an integer >= 2
}


def _const(v) -> Node:
    return Node("const", data=complex(v))


def _is_const(n: Node, v: complex) -> bool:
    return n.op == "const" and n.data == v


def add(a: Node, b: Node) -> Node:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if a.op == b.op == "const":
        return _const(a.data + b.data)
    return Node("add", (a, b))


def sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0):
        return a
    if a.op == b.op == "const":
        return _const(a.data - b.data)
    if _is_const(a, 0):
        return Node("neg", (b,))
    return Node("sub", (a, b))


def mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0) or _is_const(b, 0):
        return _const(0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if a.op == b.op == "const":
        return _const(a.data * b.data)
    return Node("mul", (a, b))


def neg(a: Node) -> Node:
    if a.op == "const":
        return _const(-a.data)
    if a.op == "neg":
        return a.args[0]
    return Node("neg", (a,))


# ---------------------------------------------------------------------------
# Prefix parser:  (add (mul z (exp z)) (div eps z))
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\(|\)|[^\s()]+)")
_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")


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
    word, op_pos = tokens[1]
    op = OPS.get(word)
    if op is None or not op.arity:
        raise ParseError(f"unknown operator {word!r}", op_pos)
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

    if word == "pow":
        if len(args) != 2:
            raise ParseError("pow needs a base and an integer exponent", op_pos)
        k = args[1].data
        if args[1].op != "const" or k.imag != 0.0 or not k.real.is_integer():
            raise ParseError("pow exponent must be an integer literal", op_pos)
        if k.real < 2:
            raise ParseError("pow exponent must be >= 2", op_pos)
        return Node(word, (args[0],), int(k.real)), rest
    if op.arity == 1:
        if len(args) != 1:
            raise ParseError(f"{word} takes one argument", op_pos)
        return Node(word, tuple(args)), rest
    if len(args) < 2:
        raise ParseError(f"{word} takes at least two arguments", op_pos)
    if not op.nary and len(args) != 2:
        raise ParseError(f"{word} takes exactly two arguments", op_pos)
    acc = args[0]
    for nxt in args[1:]:
        acc = Node(word, (acc, nxt))
    return acc, rest


def _atom(tok: str, pos: int) -> Node:
    if tok == "z":
        return Node("z")
    if tok == "i":
        return _const(1j)
    if tok == "pi":
        return _const(math.pi)
    if _NUMBER.match(tok):
        return _const(float(tok))
    if _IDENT.match(tok):
        return Node("param", data=tok)
    raise ParseError(f"unreadable token {tok!r}", pos)


def to_sexpr(node: Node) -> str:
    """Inverse of parse_expr up to constant formatting."""
    words = [to_sexpr(a) for a in node.args]
    if node.data is not None:
        words.append(_literal(node.data))
    if not node.args:
        return words[0] if words else node.op
    return f"({node.op} {' '.join(words)})"


def _literal(v) -> str:
    if type(v) is not complex:  # a parameter name or an exponent
        return str(v)
    if v == 1j:
        return "i"
    if v.imag == 0.0:
        return repr(v.real)
    return f"(add {v.real!r} (mul {v.imag!r} i))"


# ---------------------------------------------------------------------------
# The map container and the bundled families.
# ---------------------------------------------------------------------------

FAMILY_IDS = ("ex1", "ex2", "ex5", "ex3_model", "ex4_model", "custom")

# Each bundled family's tree, and g (see ex2_g_map).
_TREES = {name: parse_expr(text) for name, text in {
    "ex1": "(add (sub (add 2 (mul 2 z)) (mul 2 (exp z))) (div eps (sub (exp z) (exp a))))",
    "ex2": "(add z (div eps z) (mul lam (sin (add z a))))",
    "ex5": "(mul z (exp z))",
    "ex3_model": "(sub (mul 4 (exp z)) (div eps z))",
    "ex4_model": "(sub (sub (exp z) sqrt_eps) (div eps z))",
    "g": "(add z (mul lam (sin (add z a))))",
}.items()}


@dataclass(frozen=True)
class MeromorphicMap:
    expr: Node
    params: dict
    declared_poles: tuple
    family_id: str
    tape: Tape = field(init=False, repr=False, compare=False)
    # per backend column: the leaves' and z-free steps' values once _run has
    # folded them, else None; one key per column from the start, so filling
    # one never resizes the dict while a process pool pickles the map
    known: dict = field(init=False, repr=False, compare=False)
    # f' once derivative(m) has built it, else None; set from the start, so vars(m) never grows
    prime: MeromorphicMap | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family_id not in FAMILY_IDS:
            raise ValueError(f"unknown family id {self.family_id!r}")
        object.__setattr__(self, "declared_poles",
                           tuple(complex(p) for p in self.declared_poles))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "tape", _compile(self.expr))
        object.__setattr__(self, "known", dict.fromkeys((_VEC, _BOX)))
        object.__setattr__(self, "prime", None)

    def pole_snap_radius(self, pole: complex) -> float:
        return POLE_SNAP_RELATIVE * (1.0 + abs(pole))

    def in_pole_snap(self, zs: np.ndarray) -> np.ndarray:
        """Mask of the points within pole_snap_radius of a declared pole."""
        if not self.declared_poles:
            return np.zeros(np.shape(zs), dtype=bool)
        first, *rest = self.declared_poles
        hit = np.abs(zs - first) <= self.pole_snap_radius(first)
        for p in rest:
            hit |= np.abs(zs - p) <= self.pole_snap_radius(p)
        return hit


def solve_ex2_params() -> tuple[float, float]:
    """Phase and amplitude making z + lam*sin(z+a) translate the stations.

    Solves sin/cos simultaneously: lam*sin(a) = 2*pi and 1 + lam*cos(a) = 0,
    giving a = pi - arctan(2*pi) and lam = sqrt(1 + 4*pi^2).
    """
    a = math.pi - math.atan(2.0 * math.pi)
    lam = math.sqrt(1.0 + 4.0 * math.pi * math.pi)
    return a, lam


def ex2_admissible(eps: float, r1: float | None = None) -> bool:
    """The ex2 pole-weight rule: 0 < eps < 1/144, and 6*sqrt(eps) < r1 when
    the certified contraction radius r1 is given."""
    return 0.0 < eps < 1.0 / 144.0 and (r1 is None or 6.0 * math.sqrt(eps) < r1)


def _reject(cond: bool, message: str) -> None:
    if cond:
        raise ParamConstraintViolation(message)


def build_family(family_id: str, params: dict | None = None) -> MeromorphicMap:
    """Construct and validate one of the bundled families.

    ex1: 2 + 2z - 2e^z + eps/(e^z - e^a),  0 < a < 1/32, 0 < eps <= a^2/16
    ex2: z + eps/z + lam*sin(z + a),       ex2_admissible(eps) (a, lam solved)
    ex5: z*e^z
    ex3_model: 4e^z - eps/z,               eps > 0
    ex4_model: e^z - sqrt(eps) - eps/z,    eps > 0
    """
    p = dict(params or {})

    if family_id == "ex1":
        a = float(p.pop("a"))
        eps = float(p.pop("eps"))
        _reject(bool(p), f"unknown ex1 params {sorted(p)}")
        _reject(not (0.0 < a < 1.0 / 32.0), f"requires 0 < a < 1/32, got a={a}")
        _reject(not (0.0 < eps <= a * a / 16.0),
                f"requires 0 < eps <= a^2/16, got eps={eps}")
        table, poles = {"a": a, "eps": eps}, (complex(a),)
    elif family_id == "ex2":
        eps = float(p.pop("eps"))
        _reject(bool(p), f"unknown ex2 params {sorted(p)}")
        _reject(not ex2_admissible(eps), f"requires 0 < eps < 1/144, got eps={eps}")
        a, lam = solve_ex2_params()
        table, poles = {"eps": eps, "a": a, "lam": lam}, (0j,)
    elif family_id == "ex5":
        _reject(bool(p), f"ex5 takes no params, got {sorted(p)}")
        table, poles = {}, ()
    elif family_id in ("ex3_model", "ex4_model"):
        eps = float(p.pop("eps"))
        _reject(bool(p), f"unknown {family_id} params {sorted(p)}")
        _reject(not eps > 0.0, f"requires eps > 0, got {eps}")
        table, poles = {"eps": eps}, (0j,)
        if family_id == "ex4_model":
            table["sqrt_eps"] = math.sqrt(eps)
    else:
        raise ParamConstraintViolation(f"unknown family id {family_id!r}")
    return MeromorphicMap(_TREES[family_id], table, poles, family_id)


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
    return MeromorphicMap(_TREES["g"], {"a": a, "lam": lam}, (), "custom")


# ---------------------------------------------------------------------------
# Evaluation: one compiler, one interpreter, and the ops the table names.
# ---------------------------------------------------------------------------

class Tape(NamedTuple):
    """Slot 0 is the variable, then one slot per leaf, then one per step,
    the steps that read no z first.  A step is (op row, argument slots,
    data, slots last read here)."""
    leaves: tuple  # (parameter name, None) or (None, constant value)
    fixed: tuple   # the steps that read no z
    steps: tuple   # the steps that read z


def _const_key(v: complex):
    """Bit-exact slot key: 0.0 and -0.0 differ, and a NaN matches nothing."""
    return object() if cmath.isnan(v) else (v.real.hex(), v.imag.hex())


def _compile(expr: Node) -> Tape:
    """Post-order tape of expr in which equal subtrees share one slot, with
    the steps that read no z moved first (a stable partition)."""
    slots = {("z", (), None): 0}
    leaves, steps = [], []
    reads_z = {0}   # slot 0 and the steps that read z

    def visit(n: Node) -> int:
        # Steps get provisional slots -1, -2, ... until the leaves are counted.
        args = tuple(visit(a) for a in n.args)
        key = (n.op, args, _const_key(n.data) if n.op == "const" else n.data)
        if key not in slots:
            if args:
                slots[key] = slot = -1 - len(steps)
                if not reads_z.isdisjoint(args):
                    reads_z.add(slot)
                steps.append((OPS[n.op], args, () if n.data is None else (n.data,)))
            else:
                slots[key] = 1 + len(leaves)
                leaves.append((n.data, None) if n.op == "param" else (None, n.data))
        return slots[key]

    visit(expr)
    order = sorted(range(len(steps)), key=lambda j: -1 - j in reads_z)
    fixed = len(steps) + 1 - len(reads_z)
    slot = [0] * len(steps)
    for k, j in enumerate(order):
        slot[j] = 1 + len(leaves) + k
    steps = [(op, tuple(s if s >= 0 else slot[-1 - s] for s in args), data)
             for op, args, data in map(steps.__getitem__, order)]
    # Freeing each slot after its last read keeps numpy temporaries as short-lived
    # as in a recursive walk.
    last = {s: j for j, (_, args, _) in enumerate(steps) for s in args}
    steps = [(op, args, data, tuple({s for s in args if last[s] == j}))
             for j, (op, args, data) in enumerate(steps)]
    return Tape(tuple(leaves), tuple(steps[:fixed]), tuple(steps[fixed:]))


_VEC, _BOX = (Op._fields.index(c) for c in ("vec", "box"))


def _run(m: MeromorphicMap, column: int, x, lift):
    """Value of m at x in one backend column; lift makes a constant's value.

    The first call in a column reads m.params, lifts the leaves and runs
    the steps that read no z; m.known keeps those values, and every call
    starts from them and runs only the steps that read z."""
    known = m.known[column]
    if known is None:
        leaves = (lift(value if name is None else complex(m.params[name]))
                  for name, value in m.tape.leaves)
        known = m.known[column] = _steps(column, [None, *leaves], m.tape.fixed)[1:]
    return _steps(column, [x, *known], m.tape.steps)[-1]


def _steps(column: int, vals: list, steps: tuple) -> list:
    """vals with the values of steps appended, each slot dropped after its
    last read."""
    ns = globals()
    for op, args, data, dead in steps:
        if len(args) == 2:
            vals.append(ns[op[column]](vals[args[0]], vals[args[1]]))
        else:
            vals.append(ns[op[column]](vals[args[0]], *data))
        for i in dead:
            vals[i] = None
    return vals


_DIV_FLOOR = 1e-300  # treat true underflow of a denominator as a pole hit
_EXP_CAP = 700.0     # exp overflows a little past this; the true value is huge
_NAN = complex(math.nan, math.nan)


# The ops put NaN where a denominator underflows or an exponential would
# overflow; NaN survives every later op, so eval_map_vec flags those entries.
# Each builds its guard mask, and calls np.where only when the mask is set.

def _div_vec(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = num / den
    tiny = np.abs(den) < _DIV_FLOOR
    return np.where(tiny, _NAN, out) if np.count_nonzero(tiny) else out


def _exp_vec(w: np.ndarray) -> np.ndarray:
    huge = w.real > _EXP_CAP
    return np.exp(np.where(huge, _NAN, w) if np.count_nonzero(huge) else w)


def _sin_vec(w: np.ndarray) -> np.ndarray:
    huge = np.abs(w.imag) > _EXP_CAP
    return np.sin(np.where(huge, _NAN, w) if np.count_nonzero(huge) else w)


def eval_map(m: MeromorphicMap, z: complex) -> complex:
    """eval_map_vec on a batch of one point.  Where eval_map_vec flags the
    point it raises PoleHitError if the point lies in a declared pole's
    snap zone, and NonFiniteValue otherwise."""
    z = complex(z)
    vals, bad = eval_map_vec(m, np.array([z]))
    if bad[0]:
        for p in m.declared_poles:
            if abs(z - p) <= m.pole_snap_radius(p):
                raise PoleHitError(p, z)
        raise NonFiniteValue(z)
    return complex(vals[0])


def eval_map_vec(m: MeromorphicMap, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized evaluation.

    Returns (values, bad) where bad marks entries that hit a pole snap zone,
    produced a non-finite value, or overflowed.  Values at bad entries are
    unspecified.  Constants and parameters enter as complex scalars that
    broadcast against zs.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    with np.errstate(all="ignore"):
        vals = _run(m, _VEC, zs, np.complex128)
    if np.shape(vals) != zs.shape:          # an expression without z
        vals = np.full(zs.shape, vals, dtype=np.complex128)
    bad = ~np.isfinite(vals)                # a complex is finite when both parts are
    if m.declared_poles:
        bad |= m.in_pole_snap(zs)
    return vals, bad


def eval_map_box(m: MeromorphicMap, b: Boxes) -> Boxes:
    """Rigorous enclosure of the image of each box of a batch.

    Constants and parameters enter as point boxes of width 1 that broadcast
    against the batch.  A box with a reason code keeps it, else takes the
    root's code (numerics._first_code), which is that of the first step in
    tape order whose value has one.  The result may share its arrays with
    b or with m's folded values (a map without z on a batch of one), so
    callers do not write into it.
    """
    with np.errstate(all="ignore"):
        out = _run(m, _BOX, b, Boxes.point)
    n = len(b.why)
    if out.ends.shape[-1] != n:         # an expression without z
        out = Boxes(np.repeat(out.ends, n, axis=-1), np.repeat(out.why, n))
    if not np.count_nonzero(b.why):
        return out
    return out._replace(why=_first_code(True, b.why, out.why))


def _centres(b: Boxes) -> tuple[Boxes, np.ndarray]:
    """The point box at the centre c of each box X of a batch, with X's
    code, and an upper bound r of |z - c| on X."""
    mid = 0.5 * (b.ends[0] + b.ends[1])
    c = Boxes(np.stack([mid, mid]), b.why)
    with np.errstate(all="ignore"):
        return c, box_mag(box_sub(b, c))


def eval_mean_value_ball(m: MeromorphicMap, b: Boxes) -> tuple[Boxes, np.ndarray]:
    """Mean-value enclosure of the image of each box of a batch.

    f' is derivative(m).  With c the centre of a box X and r >= |z - c| on
    it, f(z) lies within sup_X |f'| r of f(c), as the segment from c to z
    lies in X.  Returns the boxes of f(c) and those radii, rounded up.  A
    box's code comes from f(c), f'(X) and the radius (numerics._first_code);
    a code set on f'(X) also means f may have a pole in X, where the form
    fails.
    """
    c, r = _centres(b)
    fc, d1 = eval_map_box(m, c), eval_map_box(derivative(m), b)
    with np.errstate(all="ignore"):
        radius = _out_hi(box_mag(d1) * r)
    return fc._replace(why=_first_code(np.isfinite(radius), fc.why, d1.why)), radius


def eval_taylor_ball(m: MeromorphicMap, b: Boxes) -> tuple[Boxes, np.ndarray]:
    """Second-order Taylor enclosure of the image of each box of a batch.

    f' and f'' are derivative(m) and derivative(derivative(m)).  With c the
    centre of a box X and r >= |z - c| on it, f(z) lies within
    |f'(c)| r + sup_X |f''| r^2 / 2 of f(c).  Returns the boxes of f(c) and
    those radii, rounded up.  A box's code comes from f(c), f'(c), f''(X)
    and the radius (numerics._first_code); a code set on f''(X) also means
    f may have a pole in X, where the form fails.
    """
    c, r = _centres(b)
    fc, d1 = eval_map_box(m, c), eval_map_box(derivative(m), c)
    d2 = eval_map_box(derivative(derivative(m)), b)
    with np.errstate(all="ignore"):
        radius = _out_hi(_out_hi(box_mag(d1) * r) + 0.5 * _out_hi(box_mag(d2) * _out_hi(r * r)))
    return fc._replace(why=_first_code(np.isfinite(radius), fc.why, d1.why, d2.why)), radius


# ---------------------------------------------------------------------------
# Symbolic derivative: the rules the table's diff column names.
# ---------------------------------------------------------------------------

_HALF_PI = _const(math.pi / 2)


def _d_var(n):
    return _const(1)


def _d_leaf(n):
    return _const(0)


def _d_add(n, da, db):
    return add(da, db)


def _d_sub(n, da, db):
    return sub(da, db)


def _d_mul(n, da, db):
    a, b = n.args
    return add(mul(da, b), mul(a, db))


def _d_div(n, du, dv):
    # (u/v)' = (u'v - uv') / v^2
    u, v = n.args
    return Node("div", (sub(mul(du, v), mul(u, dv)), Node("pow", (v,), 2)))


def _d_neg(n, da):
    return neg(da)


def _d_exp(n, da):
    return mul(n, da)


def _d_sin(n, da):
    # d sin(u) = cos(u) u' with cos written as a quarter-turn shift
    return mul(Node("sin", (add(n.args[0], _HALF_PI),)), da)


def _d_pow(n, da):
    base, k = n.args[0], n.data
    return mul(mul(_const(k), base if k == 2 else Node("pow", (base,), k - 1)), da)


def _diff(n: Node) -> Node:
    return globals()[OPS[n.op].diff](n, *map(_diff, n.args))


def derivative(m: MeromorphicMap) -> MeromorphicMap:
    """Symbolic derivative sharing the parameter table and pole set.

    Built at the first call and kept on m, so every later call returns the
    same map, its folded values included.  Division rules only ever square
    existing denominators, so the pole locus is unchanged (orders may grow).
    """
    if m.prime is None:
        object.__setattr__(m, "prime", MeromorphicMap(_diff(m.expr), m.params,
                                                      m.declared_poles, m.family_id))
    return m.prime


# ---------------------------------------------------------------------------
# Newton's method, for fixed points, basin confirmation and preimages.
# ---------------------------------------------------------------------------

def minus(m: MeromorphicMap, rhs: Node) -> MeromorphicMap:
    """The map f - rhs, with f's parameters and poles: Newton on it solves f = rhs."""
    return MeromorphicMap(Node("sub", (m.expr, rhs)), m.params, m.declared_poles, m.family_id)


NEWTON_STEPS = 60
NEWTON_CLIP = 0.5    # longest step taken


def seed_grid(box: ComplexBox, n: int) -> np.ndarray:
    """The n x n grid spanning the box, row by row from its bottom edge."""
    xs = np.linspace(box.re_lo, box.re_hi, n)
    ys = np.linspace(box.im_lo, box.im_hi, n)
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def newton_roots(m: MeromorphicMap, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Newton's method for m(z) = 0 from every seed of a sequence at once.

    Returns (points, residuals): where each seed ended, and |m(z)| there.
    A seed whose iterate eval_map_vec flags, or where m' falls under the
    pole floor, stops and gets an infinite residual.  Each of the
    NEWTON_STEPS steps runs only the seeds still moving: a seed whose step
    leaves its float64 bits as they were (a stopped seed's step is 0)
    would start its next step from the same point, so its point and
    residual are final.  A zero whose sign flips counts as moving.  The
    loop ends when no seed moves.
    """
    dm = derivative(m)
    zs = np.array(seeds, dtype=np.complex128)
    alive = np.ones(zs.shape, dtype=bool)
    moving = np.arange(zs.size)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            z = zs[moving]
            vals, bad1 = eval_map_vec(m, z)
            dvals, bad2 = eval_map_vec(dm, z)
            bad = bad1 | bad2 | (np.abs(dvals) < _DIV_FLOOR)
            live = alive[moving] & ~bad
            alive[moving] = live
            step = np.where(live, vals / np.where(bad, 1.0, dvals), 0.0)
            step_size = np.abs(step)
            clip = step_size > NEWTON_CLIP
            step = np.where(clip, step * (NEWTON_CLIP / np.where(clip, step_size, 1.0)), step)
            zs[moving] = new = z - step
            moving = moving[(new.view(np.uint64) != z.view(np.uint64)).reshape(-1, 2).any(axis=1)]
            if not moving.size:
                break
    vals, bad = eval_map_vec(m, zs)
    return zs, np.where(alive & ~bad, np.abs(vals), np.inf)


def group_roots(points: np.ndarray, tol: float) -> tuple[list, np.ndarray]:
    """Group points in order, one numpy pass per group: the first point
    without a group opens the next one, with every point without a group
    within tol * (1 + |first|) of it.  Returns the groups' first points
    and each point's group."""
    firsts: list[complex] = []
    group_of = np.empty(points.size, dtype=np.int32)
    free = np.arange(points.size)
    while free.size:
        b = complex(points[free[0]])
        near = np.abs(points[free] - b) < tol * (1.0 + abs(b))
        group_of[free[near]] = len(firsts)
        firsts.append(b)
        free = free[~near]
    return firsts, group_of
