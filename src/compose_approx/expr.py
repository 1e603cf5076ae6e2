"""A small arithmetic expression language for defining functions on the CLI.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] number)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Identifiers are the declared variable names plus sin, cos, exp, log, sqrt.
'^' requires a literal numeric exponent (possibly negative, possibly
non-integer) and binds tighter than unary minus, so "-x^2" is -(x^2).
Expressions nest at most MAX_DEPTH levels.

The same AST evaluates over plain numbers (or numpy arrays), univariate jets
and multivariate jets; see `eval_scalar`, `eval_jet1` and `jets.jetn_partials`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError
from .jets import Jet1, JetN

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' | 'sin' | 'cos' | 'exp' | 'log' | 'sqrt'
    arg: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # '+' | '-' | '*' | '/'
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Power:
    base: "ExprAst"
    exponent: float


ExprAst = Union[Const, Var, Unary, Binary, Power]

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


# ---------------------------------------------------------------------------
# Tokenizer + recursive-descent parser
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


# Nesting cap, counting every operator, function call and parenthesised
# group as one level. Parsing spends up to six Python frames per level and
# evaluation, printing and jets one, so a capped expression stays well
# inside the interpreter's default recursion limit of 1000.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns (node, depth), where depth counts
    the nesting levels of the source text the node spans."""

    def __init__(self, src: str, names: Sequence[str]):
        self.src = src
        self.pos = 0
        self.names = {name: i for i, name in enumerate(names)}
        self.open = 0  # levels entered and not yet closed

    def fail(self, message: str, offset: int | None = None):
        raise ExprSyntaxError(message, self.pos if offset is None else offset)

    def level(self, depth: int, at: int) -> int:
        """`depth` checked against the cap; the error points at `at`."""
        if depth > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels", at)
        return depth

    def nested(self, rule, at: int) -> tuple[ExprAst, int]:
        """Run `rule` one level down; refuses to descend past the cap before
        the recursion can run out of stack."""
        self.open = self.level(self.open + 1, at)
        node, depth = rule()
        self.open -= 1
        return node, self.level(depth + 1, at)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            self.fail(f"expected '{ch}'")

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER_RE.match(self.src, self.pos)
        if not m:
            self.fail("expected a number")
        self.pos = m.end()
        return float(m.group())

    def parse(self) -> ExprAst:
        node, _ = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.fail("unexpected trailing input")
        return node

    def expr(self) -> tuple[ExprAst, int]:
        node, depth = self.term()
        while True:
            ch = self.peek()
            if ch and ch in "+-":
                at = self.pos
                self.pos += 1
                right, right_depth = self.term()
                node = Binary(ch, node, right)
                depth = self.level(max(depth, right_depth) + 1, at)
            else:
                return node, depth

    def term(self) -> tuple[ExprAst, int]:
        node, depth = self.unary()
        while True:
            ch = self.peek()
            if ch and ch in "*/":
                at = self.pos
                self.pos += 1
                right, right_depth = self.unary()
                node = Binary(ch, node, right)
                depth = self.level(max(depth, right_depth) + 1, at)
            else:
                return node, depth

    def unary(self) -> tuple[ExprAst, int]:
        if self.peek() == "-":
            at = self.pos
            self.pos += 1
            node, depth = self.nested(self.unary, at)
            # fold literal negation so printing round-trips: -3 is Const(-3)
            if isinstance(node, Const):
                return Const(-node.value), depth
            return Unary("neg", node), depth
        return self.power()

    def power(self) -> tuple[ExprAst, int]:
        node, depth = self.atom()
        if self.accept("^"):
            self.skip_ws()
            at = self.pos
            sign = -1.0 if self.accept("-") else 1.0
            if not (self.peek().isdigit() or self.peek() == "."):
                self.fail("exponent must be a numeric constant", at)
            return Power(node, sign * self.number()), self.level(depth + 1, at)
        return node, depth

    def atom(self) -> tuple[ExprAst, int]:
        ch = self.peek()
        at = self.pos
        if ch == "(":
            self.pos += 1
            node, depth = self.nested(self.expr, at)
            self.expect(")")
            return node, depth
        if ch.isdigit() or ch == ".":
            return Const(self.number()), 1
        m = _IDENT_RE.match(self.src, self.pos)
        if not m:
            self.fail("expected a number, name or '('")
        name = m.group()
        self.pos = m.end()
        if name in _FUNCTIONS:
            self.expect("(")
            arg, depth = self.nested(self.expr, at)
            self.expect(")")
            return Unary(name, arg), depth
        if name in self.names:
            return Var(self.names[name]), 1
        self.fail(f"unknown identifier '{name}'", at)


def default_names(arity: int) -> tuple[str, ...]:
    """'x' for univariate expressions, 'y1'..'yn' otherwise."""
    if arity == 1:
        return ("x",)
    return tuple(f"y{i + 1}" for i in range(arity))


def parse(src: str, arity: int, names: Sequence[str] | None = None) -> ExprAst:
    """Parse `src` into an AST over `arity` variables.

    Raises ExprSyntaxError (with byte offset) on malformed input, unknown
    identifiers, or a non-constant exponent after '^'.
    """
    if not src or src.isspace():
        raise ExprSyntaxError("empty expression", 0)
    if names is None:
        names = default_names(arity)
    if len(names) != arity:
        raise ValueError(f"{arity} variable names required, got {len(names)}")
    return _Parser(src, names).parse()


# ---------------------------------------------------------------------------
# Printing (round-trippable)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _fmt_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def _render(node: ExprAst, names: Sequence[str]) -> tuple[str, int]:
    if isinstance(node, Const):
        if node.value < 0:
            return f"({_fmt_number(node.value)})", _PREC["atom"]
        return _fmt_number(node.value), _PREC["atom"]
    if isinstance(node, Var):
        return names[node.index], _PREC["atom"]
    if isinstance(node, Unary):
        arg, prec = _render(node.arg, names)
        if node.op == "neg":
            if prec < _PREC["neg"]:
                arg = f"({arg})"
            return f"-{arg}", _PREC["neg"]
        return f"{node.op}({arg})", _PREC["atom"]
    if isinstance(node, Power):
        base, prec = _render(node.base, names)
        if prec < _PREC["atom"]:
            base = f"({base})"
        exp = _fmt_number(node.exponent)
        return f"{base}^{exp}", _PREC["pow"]
    if isinstance(node, Binary):
        left, lp = _render(node.left, names)
        right, rp = _render(node.right, names)
        myp = _PREC[node.op]
        if lp < myp:
            left = f"({left})"
        # binary ops parse left-associatively: an equal-precedence right
        # child only survives the round trip inside parentheses
        if rp <= myp:
            right = f"({right})"
        return f"{left}{node.op}{right}", myp
    raise TypeError(f"not an expression node: {node!r}")


def to_string(node: ExprAst, names: Sequence[str] | None = None, arity: int | None = None) -> str:
    """Render an AST to a string that parses back to the same AST."""
    if names is None:
        names = default_names(arity if arity is not None else _arity(node))
    return _render(node, names)[0]


def _arity(node: ExprAst) -> int:
    if isinstance(node, Var):
        return node.index + 1
    if isinstance(node, Unary):
        return _arity(node.arg)
    if isinstance(node, Power):
        return _arity(node.base)
    if isinstance(node, Binary):
        return max(_arity(node.left), _arity(node.right))
    return 1


# ---------------------------------------------------------------------------
# Evaluation, generic over scalars / arrays / jets
# ---------------------------------------------------------------------------

_SCALAR_FNS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}


def _is_jet(v) -> bool:
    return isinstance(v, (Jet1, JetN))


def _apply_unary(op: str, v):
    if op == "neg":
        return -v
    if _is_jet(v):
        return getattr(v, op)()
    if op == "log" and np.any(np.asarray(v) <= 0):
        raise EvalDomainError("log", v)
    if op == "sqrt" and np.any(np.asarray(v) < 0):
        raise EvalDomainError("sqrt", v)
    return _SCALAR_FNS[op](v)


def _apply_power(base, e: float):
    if _is_jet(base):
        return base ** e
    b = np.asarray(base)
    if not float(e).is_integer():
        if np.any(b < 0):
            raise EvalDomainError(f"power {e}", base)
        if e < 0 and np.any(b == 0):
            raise EvalDomainError(f"power {e}", base)
    elif e < 0 and np.any(b == 0):
        raise EvalDomainError(f"power {e}", base)
    return base ** e


def eval_expr(node: ExprAst, values: Sequence, names: Sequence[str] | None = None):
    """Evaluate over any value type supporting arithmetic (floats, jets).

    A domain error is raised naming the subexpression whose own operation
    failed, whether on floats, arrays or jets.
    """
    if names is None:
        names = default_names(len(values))
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        if node.index >= len(values):
            raise ValueError(
                f"expression uses variable {node.index + 1} but only "
                f"{len(values)} values were supplied"
            )
        return values[node.index]
    try:
        if isinstance(node, Unary):
            return _apply_unary(node.op, eval_expr(node.arg, values, names))
        if isinstance(node, Binary):
            left = eval_expr(node.left, values, names)
            right = eval_expr(node.right, values, names)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if not (_is_jet(left) or _is_jet(right)) and np.any(np.asarray(right) == 0):
                raise EvalDomainError("division", right)
            return left / right
        if isinstance(node, Power):
            return _apply_power(eval_expr(node.base, values, names), node.exponent)
    except EvalDomainError as err:
        # an error from a subexpression already names it
        if err.expr is None:
            raise EvalDomainError(err.fn, err.value, to_string(node, names)) from None
        raise
    raise TypeError(f"not an expression node: {node!r}")


def eval_scalar(node: ExprAst, point):
    """Evaluate at a point: a float (univariate) or a sequence of floats.

    Coordinates may also be numpy arrays of a common shape, in which case the
    expression is evaluated elementwise.
    """
    if isinstance(point, (int, float, np.integer, np.floating, np.ndarray)):
        point = (point,)
    return eval_expr(node, tuple(point))


def eval_jet1(node: ExprAst, base: Jet1) -> Jet1:
    """Evaluate a univariate AST over a base jet (usually jet_lift(x0, r))."""
    result = eval_expr(node, (base,))
    if not isinstance(result, Jet1):  # constant expression
        result = Jet1.constant(result, base.order)
    return result
