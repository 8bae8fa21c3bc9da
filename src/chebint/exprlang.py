"""A small piecewise expression language.

Expressions define shape functions, custom fusion operations and survival
functions inside scenario files.  Grammar (see README for the full write-up):

    expr      := term (('+'|'-') term)*
    term      := unary (('*'|'/') unary)*
    unary     := '-' unary | power
    power     := atom ('^' unary)?          # right-associative
    atom      := NUMBER | 'inf' | NAME | call | '(' expr ')'
               | indicator | piecewise
    call      := ('sqrt'|'abs'|'pos') '(' expr ')'
               | ('min'|'max') '(' expr ',' expr ')'
    indicator := 'ind' interval '(' expr ')'
    piecewise := 'piecewise' NAME? '{' piece (';' piece)* '}'
    piece     := interval ':' expr
    interval  := ('['|'(') bound ',' bound (']'|')')
    bound     := '-'? (NUMBER | 'inf')

Evaluation is plain IEEE binary64 with infinity propagated by extended-real
rules and the multiplicative convention 0*inf = 0.  A negative *final* value
is a domain error; negative intermediates are fine (clamp explicitly with
``pos``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .extreal import INF, as_scalar, both_scalar, is_scalar, xmul
from .scan import EQ_TOL, Verdict, axis, first_flagged


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvalError(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


def _fmt_num(v: float) -> str:
    if v == INF:
        return "inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    closed_lo: bool
    closed_hi: bool

    def contains(self, x):
        lo_ok = (x >= self.lo) if self.closed_lo else (x > self.lo)
        hi_ok = (x <= self.hi) if self.closed_hi else (x < self.hi)
        return lo_ok & hi_ok

    def __str__(self):
        left = "[" if self.closed_lo else "("
        right = "]" if self.closed_hi else ")"
        return f"{left}{_fmt_num(self.lo)},{_fmt_num(self.hi)}{right}"


class _Node:
    """Base of the AST nodes: the compiled evaluator is a cache, not state."""

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        return state


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Bin(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True)
class Call(_Node):
    fn: str  # sqrt | abs | pos | min | max
    args: tuple


@dataclass(frozen=True)
class Ind(_Node):
    interval: Interval
    arg: "Expr"


@dataclass(frozen=True)
class Piecewise(_Node):
    pieces: tuple  # of (Interval, Expr)
    var: str | None = None


Expr = Num | Var | Bin | Neg | Call | Ind | Piecewise

UNARY_FNS = ("sqrt", "abs", "pos")
BINARY_FNS = ("min", "max")
KEYWORDS = UNARY_FNS + BINARY_FNS + ("ind", "piecewise", "inf")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[-+*/^()\[\]{},;:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | sym | eof
    text: str
    line: int
    col: int


def _tokenize(source: str):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        mo = _TOKEN_RE.match(source, pos)
        if mo is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = mo.group(0)
        kind = mo.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = mo.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def error(self, message):
        raise ParseError(message, self.cur.line, self.cur.col)

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def accept(self, text) -> bool:
        if self.cur.kind == "sym" and self.cur.text == text:
            self.i += 1
            return True
        return False

    def expect(self, text) -> None:
        if not self.accept(text):
            self.error(f"expected {text!r}, found {self.cur.text!r}")

    def whole(self, rule):
        """What ``rule()`` parses, which must be the whole source."""
        result = rule()
        if self.cur.kind != "eof":
            self.error(f"unexpected trailing input {self.cur.text!r}")
        return result

    def expr(self) -> Expr:
        e = self.term()
        while self.cur.kind == "sym" and self.cur.text in "+-":
            op = self.advance().text
            e = Bin(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.cur.kind == "sym" and self.cur.text in "*/":
            op = self.advance().text
            e = Bin(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.accept("-"):
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        if self.cur.kind == "sym" and self.cur.text == "^":
            self.advance()
            e = Bin("^", e, self.unary())
        return e

    def atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            name = tok.text
            if name == "inf":
                self.advance()
                return Num(INF)
            if name in UNARY_FNS:
                self.advance()
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(name, (arg,))
            if name in BINARY_FNS:
                self.advance()
                self.expect("(")
                a = self.expr()
                self.expect(",")
                b = self.expr()
                self.expect(")")
                return Call(name, (a, b))
            if name == "ind":
                self.advance()
                interval = self.interval()
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Ind(interval, arg)
            if name == "piecewise":
                self.advance()
                return self.piecewise()
            self.advance()
            return Var(name)
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        self.error(f"unexpected token {tok.text!r}")

    def piecewise(self) -> Expr:
        var = None
        if self.cur.kind == "name" and self.cur.text not in KEYWORDS:
            var = self.advance().text
        self.expect("{")
        pieces = [self.piece()]
        while self.accept(";"):
            pieces.append(self.piece())
        self.expect("}")
        self._check_disjoint(pieces)
        return Piecewise(tuple(pieces), var)

    def piece(self):
        interval = self.interval()
        self.expect(":")
        return (interval, self.expr())

    def interval(self) -> Interval:
        if self.accept("["):
            closed_lo = True
        elif self.accept("("):
            closed_lo = False
        else:
            self.error("expected '[' or '(' starting an interval")
        lo = self.bound()
        self.expect(",")
        hi = self.bound()
        if self.accept("]"):
            closed_hi = True
        elif self.accept(")"):
            closed_hi = False
        else:
            self.error("expected ']' or ')' closing an interval")
        if not lo <= hi:
            self.error(f"empty interval: {lo} > {hi}")
        return Interval(lo, hi, closed_lo, closed_hi)

    def bound(self) -> float:
        sign = -1.0 if self.accept("-") else 1.0
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return sign * float(tok.text)
        if tok.kind == "name" and tok.text == "inf":
            self.advance()
            return sign * INF
        self.error("expected a numeric interval bound")

    def _check_disjoint(self, pieces):
        ordered = sorted(pieces, key=lambda p: (p[0].lo, not p[0].closed_lo))
        for (a, _), (b, _) in zip(ordered, ordered[1:]):
            if a.hi > b.lo or (a.hi == b.lo and a.closed_hi and b.closed_lo):
                self.error(f"overlapping piecewise intervals {a} and {b}")


def parse(source: str) -> Expr:
    """Parse a source string into an AST; raises ParseError with location."""
    parser = _Parser(source)
    return parser.whole(parser.expr)


def parse_interval(source: str) -> Interval:
    """Parse an interval such as ``(0.25, 1]``; raises ParseError with location."""
    parser = _Parser(source)
    return parser.whole(parser.interval)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def free_vars(e: Expr) -> frozenset:
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Bin):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Call):
        out = frozenset()
        for a in e.args:
            out |= free_vars(a)
        return out
    if isinstance(e, Ind):
        return free_vars(e.arg)
    if isinstance(e, Piecewise):
        out = frozenset((e.var,)) if e.var else frozenset()
        for _, sub in e.pieces:
            out |= free_vars(sub)
        return out
    raise TypeError(f"not an Expr: {e!r}")


def compile_expr(e: Expr):
    """Return the evaluator of e: a closure mapping a bindings dict to a value.

    The closure is built on first use and kept on the node itself, so each
    expression is walked once however often it is evaluated.  Plain-float
    bindings take float arithmetic; any other value takes the numpy path.
    """
    try:
        return e._compiled
    except AttributeError:
        fn = _compile(e)
        object.__setattr__(e, "_compiled", fn)
        return fn


def _compile(e: Expr):
    if isinstance(e, Num):
        value = e.value
        return lambda bindings: value
    if isinstance(e, Var):
        name = e.name

        def var(bindings):
            try:
                return bindings[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None
        return var
    if isinstance(e, Neg):
        arg = _compile(e.arg)
        return lambda bindings: -arg(bindings)
    if isinstance(e, Bin):
        return _compile_bin(e.op, _compile(e.left), _compile(e.right))
    if isinstance(e, Call):
        return _compile_call(e.fn, [_compile(a) for a in e.args])
    if isinstance(e, Ind):
        return _compile_ind(e.interval, _compile(e.arg))
    if isinstance(e, Piecewise):
        return _compile_piecewise(e.var, [(iv, _compile(sub)) for iv, sub in e.pieces])
    raise TypeError(f"not an Expr: {e!r}")


def _compile_bin(op, left, right):
    if op == "+":
        return lambda bindings: left(bindings) + right(bindings)
    if op == "-":
        def sub(bindings):
            x, y = left(bindings), right(bindings)
            if type(x) is float and type(y) is float:
                return x - y
            with np.errstate(invalid="ignore"):
                return x - y
        return sub
    if op == "*":
        def mul(bindings):
            x, y = left(bindings), right(bindings)
            if type(x) is float and type(y) is float:
                return 0.0 if x == 0.0 or y == 0.0 else x * y
            return xmul(x, y)
        return mul
    if op == "/":
        def div(bindings):
            x, y = left(bindings), right(bindings)
            zero = y == 0.0 if type(y) is float else np.any(np.asarray(y) == 0.0)
            if zero:
                raise EvalError("division by zero")
            return x / y
        return div
    if op == "^":
        def power(bindings):
            x, y = left(bindings), right(bindings)
            if type(x) is float and type(y) is float:
                return x**y
            with np.errstate(invalid="ignore"):
                return x**y if both_scalar(x, y) else np.power(x, y)
        return power
    raise EvalError(f"unknown operator {op!r}")


def _compile_call(fn, args):
    if fn in UNARY_FNS:
        arg = args[0]
        if fn == "sqrt":
            def sqrt(bindings):
                v = arg(bindings)
                negative = v < 0 if type(v) is float else np.any(np.asarray(v) < 0)
                if negative:
                    raise EvalError("sqrt of a negative value")
                return v**0.5 if type(v) is float or is_scalar(v) else np.sqrt(v)
            return sqrt
        if fn == "abs":
            def abs_(bindings):
                v = arg(bindings)
                return abs(v) if type(v) is float or is_scalar(v) else np.abs(v)
            return abs_
        def pos(bindings):
            v = arg(bindings)
            return max(v, 0.0) if type(v) is float or is_scalar(v) else np.maximum(v, 0.0)
        return pos
    if fn in BINARY_FNS:
        first, second = args[0], args[1]
        scalar_fn, array_fn = (min, np.minimum) if fn == "min" else (max, np.maximum)

        def extremum(bindings):
            x, y = first(bindings), second(bindings)
            if (type(x) is float and type(y) is float) or both_scalar(x, y):
                return scalar_fn(x, y)
            return array_fn(x, y)
        return extremum
    raise EvalError(f"unknown function {fn!r}")


def _compile_ind(interval, arg):
    def ind(bindings):
        hit = interval.contains(arg(bindings))
        if type(hit) is bool or is_scalar(hit) or isinstance(hit, np.bool_):
            return 1.0 if hit else 0.0
        return np.where(hit, 1.0, 0.0)
    return ind


def _compile_piecewise(guard, pieces):
    def piecewise(bindings):
        var = guard
        if var is None:
            if len(bindings) != 1:
                raise EvalError(
                    "piecewise without an explicit guard variable needs exactly one bound variable"
                )
            var = next(iter(bindings))
        if var not in bindings:
            raise EvalError(f"unbound variable {var!r}")
        x = bindings[var]
        if type(x) is float or is_scalar(x):
            for interval, sub in pieces:
                if interval.contains(x):
                    return sub(bindings)
            raise EvalError(f"point {x} outside all piecewise intervals")
        x = np.asarray(x, dtype=float)
        result = np.zeros_like(x)
        covered = np.zeros(x.shape, dtype=bool)
        for interval, sub in pieces:
            hit = interval.contains(x) & ~covered
            if np.any(hit):
                result = np.where(hit, sub(bindings), result)
            covered |= hit
        if not np.all(covered):
            bad = float(x[first_flagged(~covered)])
            raise EvalError(f"point {bad} outside all piecewise intervals")
        return result
    return piecewise


def eval_expr(e: Expr, bindings: dict):
    """Evaluate an AST.  Bindings may be floats or numpy arrays.

    Raises EvalError on unbound variables, indeterminate forms and negative
    final values.
    """
    val = compile_expr(e)(bindings)
    if type(val) is float:
        if val != val:
            raise EvalError("indeterminate form in evaluation")
        if val < 0.0:
            raise EvalError(f"negative final value {val}")
        return val
    arr = np.asarray(val, dtype=float)
    low = arr.min() if arr.size else 0.0  # NaN if any value is NaN
    if low != low:
        raise EvalError("indeterminate form in evaluation")
    if low < 0.0:
        raise EvalError(f"negative final value {float(arr[first_flagged(arr < 0.0)])}")
    return as_scalar(val)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------


def pretty(e: Expr) -> str:
    """Canonical text form; ``parse(pretty(e))`` is structurally equal to e."""
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Bin):
        return f"({pretty(e.left)} {e.op} {pretty(e.right)})"
    if isinstance(e, Neg):
        return f"(-{pretty(e.arg)})"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(pretty(a) for a in e.args)})"
    if isinstance(e, Ind):
        return f"ind{e.interval}({pretty(e.arg)})"
    if isinstance(e, Piecewise):
        head = f"piecewise {e.var} " if e.var else "piecewise"
        body = "; ".join(f"{iv}: {pretty(sub)}" for iv, sub in e.pieces)
        return f"{head}{{ {body} }}"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Grid monotonicity evidence
# ---------------------------------------------------------------------------


def check_monotone(e, var, lo, hi, direction="nondecreasing", grid_step=0.01):
    """Sample e on a grid over [lo, hi]; report monotonicity in `direction`.

    direction is one of nondecreasing | increasing | nonincreasing |
    decreasing.  The verdict is holds-on-grid, grid evidence and never a
    proof, or violated with witness ((x1, v1), (x2, v2)) at the first bad step.
    """
    xs = axis(lo, hi, grid_step)
    vals = np.broadcast_to(eval_expr(e, {var: xs}), xs.shape)  # a constant e gives a float
    diffs = np.diff(vals)
    if direction == "nondecreasing":
        bad = diffs < -EQ_TOL
    elif direction == "increasing":
        bad = diffs <= EQ_TOL
    elif direction == "nonincreasing":
        bad = diffs > EQ_TOL
    elif direction == "decreasing":
        bad = diffs >= -EQ_TOL
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if (index := first_flagged(bad)) is None:
        return Verdict("holds-on-grid", evidence=f"grid({grid_step})")
    i = index[0]
    witness = ((float(xs[i]), float(vals[i])), (float(xs[i + 1]), float(vals[i + 1])))
    return Verdict("violated", witness, evidence=f"grid({grid_step})")
