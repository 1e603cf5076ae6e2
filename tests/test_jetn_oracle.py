"""`jetn_partials` against sympy derivatives evaluated at 30 digits.

Random ASTs over up to three variables use every function and operator the
jets support. Each log, sqrt, real power, negative integer power and divisor
is shifted by a whole number so that its argument is at least 0.5 at the
chosen point, which keeps every expression inside its domain there.

Coordinates are multiples of 1/16 and constants are short binary fractions,
so a sum of a coordinate and a constant is exact and the test measures the
jets, not the conditioning of a cancelling sum such as log(1+y1) at a tiny y1.

Partials are compared norm-wise per order: the largest error among the
order-k partials against the largest order-k partial. A partial that is
rounding residue (a partial of sin(y1) where sin vanishes) has no relative
accuracy of its own, so an entrywise comparison would be meaningless.
"""

import math

import pytest

from compose_approx.expr import Binary, Const, Power, Unary, Var, eval_scalar, to_string
from compose_approx.jets import jetn_partials, multi_indices

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

LEAVES = ("var", "const")
NODES = ("exp", "log", "sqrt", "sin", "cos", "+", "-", "*", "/", "ipow", "rpow")
REL_TOL = 1e-10
# An order whose partials cancel keeps the rounding of the larger partials
# it cancels: sqrt(y1)^2 has no partial above order 1, y1/y1 none above order
# 0, and the 5th derivative of cos(sqrt(1+y1)) at y1 = -0.375 is 5e-5 of its
# value. Such an order is measured against this share of the largest partial
# of order <= k of any subexpression.
CANCELLATION = 0.1


def _away_from_zero(node, point):
    """node plus the least whole number that brings its value to >= 0.5."""
    value = float(eval_scalar(node, point))
    if value >= 0.5:
        return node
    return Binary("+", Const(float(math.ceil(0.5 - value))), node)


@st.composite
def _exprs(draw, point, depth):
    kind = draw(st.sampled_from(LEAVES if depth == 0 else LEAVES + NODES))
    if kind == "var":
        return Var(draw(st.integers(0, len(point) - 1)))
    if kind == "const":
        return Const(draw(st.sampled_from((0.5, 1.5, 2.0, -0.75, 3.0))))
    a = draw(_exprs(point, depth - 1))
    if kind in ("+", "-", "*", "/"):
        b = draw(_exprs(point, depth - 1))
        return Binary(kind, a, _away_from_zero(b, point) if kind == "/" else b)
    if kind == "ipow":
        e = draw(st.sampled_from((2, 3, -1, -2)))
        return Power(_away_from_zero(a, point) if e < 0 else a, float(e))
    if kind == "rpow":
        return Power(_away_from_zero(a, point), draw(st.sampled_from((0.5, 1.5, -0.5, 2.5, -1.25))))
    if kind in ("log", "sqrt"):
        a = _away_from_zero(a, point)
    if kind == "exp":
        hypothesis.assume(abs(float(eval_scalar(a, point))) <= 10.0)  # no overflow
    return Unary(kind, a)


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 3))
    point = tuple(draw(st.integers(-16, 16)) / 16 for _ in range(n))
    return draw(_exprs(point, 3)), point, draw(st.integers(0, 5))


def _to_sympy(node, ys):
    if isinstance(node, Const):
        return sympy.Rational(node.value)
    if isinstance(node, Var):
        return ys[node.index]
    if isinstance(node, Unary):
        arg = _to_sympy(node.arg, ys)
        return -arg if node.op == "neg" else getattr(sympy, node.op)(arg)
    if isinstance(node, Power):
        return _to_sympy(node.base, ys) ** sympy.Rational(node.exponent)
    left, right = _to_sympy(node.left, ys), _to_sympy(node.right, ys)
    return {"+": left + right, "-": left - right, "*": left * right, "/": left / right}[node.op]


def _reference_partials(node, point, r):
    """D^l f(point) for |l| <= r: sympy diff, then mpmath at 30 digits."""
    ys = sympy.symbols(f"y1:{len(point) + 1}")
    index = multi_indices(len(point), r)
    exprs = {(0,) * len(point): _to_sympy(node, ys)}
    for ix in index[1:]:
        j = max(i for i, v in enumerate(ix) if v)
        lower = ix[:j] + (ix[j] - 1,) + ix[j + 1 :]
        exprs[ix] = sympy.diff(exprs[lower], ys[j])
    fn = sympy.lambdify(ys, [exprs[ix] for ix in index], modules="mpmath")
    with mpmath.workdps(30):
        values = fn(*(mpmath.mpf(v) for v in point))
    return {ix: float(v) for ix, v in zip(index, values)}


def _subexpressions(node):
    yield node
    for name in ("arg", "base", "left", "right"):
        if hasattr(node, name):
            yield from _subexpressions(getattr(node, name))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(_cases())
def test_partials_match_sympy(case):
    node, point, r = case
    got = jetn_partials(node, point, r).partials_map()
    want = _reference_partials(node, point, r)
    for k in range(r + 1):
        order = [ix for ix in want if sum(ix) == k]
        err = max(abs(float(got[ix]) - want[ix]) for ix in order)
        scale = max(abs(want[ix]) for ix in order)
        if err > REL_TOL * scale:
            scale = max(scale, CANCELLATION * max(
                abs(v)
                for sub in _subexpressions(node)
                for v in _reference_partials(sub, point, k).values()
            ))
        assert err <= REL_TOL * scale, (to_string(node, arity=len(point)), point, k, err)
