"""Truncated Taylor-series ("jet") arithmetic.

A jet carries the normalized coefficients c_i = f^(i)(x0)/i! of a function
through arithmetic, so the exact derivatives of any expression built from the
supported operations fall out to roundoff. Jets are the derivative supplier
for the weighted norms and the independent oracle for the explicit
composite-derivative formulas.

Coefficients may be Python floats or numpy arrays of a common shape; in the
array case every recurrence runs elementwise, which evaluates a derivative on
a whole sampling grid in one pass.

Jet1 alone holds the recurrences and domain checks of the elementary
functions. The multivariate JetN takes each function's univariate series at
its value from Jet1 and composes it with its displacement through the Horner
routine of `jet_compose`; its own arithmetic is a sparse polynomial product.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .errors import EvalDomainError, ResourceLimitError

# jetn_partials caps: the number of multi-indices grows like C(n+r, n).
DEFAULT_MAX_DIM = 6
DEFAULT_MAX_ORDER = 10

_INT_EXPONENT_LIMIT = 512


def _is_integer(e: float) -> bool:
    return float(e).is_integer() and abs(e) <= _INT_EXPONENT_LIMIT


def _any(condition) -> bool:
    return bool(np.any(condition))


class Jet1:
    """Univariate truncated Taylor expansion with normalized coefficients."""

    __slots__ = ("coeffs",)
    # numpy defers `ndarray (op) jet` to the jet's reflected operator
    __array_ufunc__ = None

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a jet needs at least the constant coefficient")
        self.coeffs = coeffs

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(value, order: int) -> "Jet1":
        return Jet1((value,) + (0.0,) * order)

    @staticmethod
    def variable(x0, order: int) -> "Jet1":
        if order == 0:
            return Jet1((x0,))
        return Jet1((x0, 1.0) + (0.0,) * (order - 1))

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, i: int):
        """f^(i)(x0) = i! * c_i."""
        if not 0 <= i <= self.order:
            raise ValueError(f"derivative order {i} outside 0..{self.order}")
        return math.factorial(i) * self.coeffs[i]

    def derivatives(self) -> list:
        return [self.derivative(i) for i in range(self.order + 1)]

    def __repr__(self):
        return f"Jet1({list(self.coeffs)!r})"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Jet1 | None":
        if isinstance(other, Jet1):
            if other.order != self.order:
                raise ValueError(
                    f"jet order mismatch: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, float, np.integer, np.floating, np.ndarray)):
            return Jet1.constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet1(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Jet1(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet1(tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self.order
        a, b = self.coeffs, o.coeffs
        out = []
        for k in range(r + 1):
            acc = a[0] * b[k]
            for j in range(1, k + 1):
                acc = acc + a[j] * b[k - j]
            out.append(acc)
        return Jet1(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        b = o.coeffs
        if _any(b[0] == 0):
            raise EvalDomainError("division", b[0])
        a = self.coeffs
        out = [a[0] / b[0]]
        for k in range(1, self.order + 1):
            acc = a[k]
            for j in range(1, k + 1):
                acc = acc - b[j] * out[k - j]
            out.append(acc / b[0])
        return Jet1(tuple(out))

    def __rtruediv__(self, other):
        return Jet1.constant(other, self.order).__truediv__(self)

    def __pow__(self, exponent):
        if isinstance(exponent, Jet1):
            raise EvalDomainError("power", exponent, "exponent must be constant")
        e = float(exponent)
        a0 = self.coeffs[0]
        if _is_integer(e):
            if e < 0 and _any(a0 == 0):
                raise EvalDomainError(f"power {int(e)}", a0)
            return _int_power(self, int(e))
        if _any(a0 <= 0):
            raise EvalDomainError(f"power {e}", a0)
        return self._pow_recurrence(e)

    def _pow_recurrence(self, e: float) -> "Jet1":
        a = self.coeffs
        out = [np.power(a[0], e)]
        for k in range(1, self.order + 1):
            acc = 0.0
            for j in range(1, k + 1):
                acc = acc + (e * j - (k - j)) * a[j] * out[k - j]
            out.append(acc / (k * a[0]))
        return Jet1(tuple(out))

    # -- elementary functions ---------------------------------------------

    def exp(self) -> "Jet1":
        a = self.coeffs
        out = [np.exp(a[0])]
        for k in range(1, self.order + 1):
            acc = 0.0
            for j in range(1, k + 1):
                acc = acc + j * a[j] * out[k - j]
            out.append(acc / k)
        return Jet1(tuple(out))

    def log(self) -> "Jet1":
        a = self.coeffs
        if _any(a[0] <= 0):
            raise EvalDomainError("log", a[0])
        out = [np.log(a[0])]
        for k in range(1, self.order + 1):
            acc = a[k]
            for j in range(1, k):
                acc = acc - (j / k) * out[j] * a[k - j]
            out.append(acc / a[0])
        return Jet1(tuple(out))

    def sqrt(self) -> "Jet1":
        if _any(self.coeffs[0] <= 0):
            raise EvalDomainError("sqrt", self.coeffs[0])
        return self._pow_recurrence(0.5)

    def sin(self) -> "Jet1":
        return self._sincos()[0]

    def cos(self) -> "Jet1":
        return self._sincos()[1]

    def _sincos(self) -> tuple["Jet1", "Jet1"]:
        a = self.coeffs
        s = [np.sin(a[0])]
        c = [np.cos(a[0])]
        for k in range(1, self.order + 1):
            acc_s = 0.0
            acc_c = 0.0
            for j in range(1, k + 1):
                acc_s = acc_s + j * a[j] * c[k - j]
                acc_c = acc_c + j * a[j] * s[k - j]
            s.append(acc_s / k)
            c.append(-acc_c / k)
        return Jet1(tuple(s)), Jet1(tuple(c))


def jet_lift(x0, order: int) -> Jet1:
    """Jet of the identity function at x0: coefficients (x0, 1, 0, ..., 0)."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    return Jet1.variable(x0, order)


def jet_compose(outer: Jet1, inner: Jet1) -> Jet1:
    """Jet of f∘g at x0, given outer = jet of f at g(x0) and inner = jet of g at x0.

    Evaluates the outer series at (inner - inner.value) by Horner's scheme;
    the shifted inner jet has zero constant term, so truncation is exact.
    """
    if outer.order != inner.order:
        raise ValueError(
            f"jet order mismatch: outer {outer.order} vs inner {inner.order}"
        )
    return _horner(outer.coeffs, Jet1((0.0,) + inner.coeffs[1:]))


def _horner(series: Sequence, u):
    """sum_i series[i] * u**i for a Jet1 or JetN u, by Horner's scheme."""
    acc = u._coerce(series[-1])
    for c in reversed(series[:-1]):
        acc = acc * u + c
    return acc


def _int_power(base, e: int):
    """base**e for a Jet1 or JetN base by repeated squaring; 1 / base**-e if e < 0."""
    result, square, k = base._coerce(1.0), base, abs(e)
    while k:
        if k & 1:
            result = result * square
        k >>= 1
        if k:
            square = square * square
    return result if e >= 0 else 1.0 / result


# ---------------------------------------------------------------------------
# Multivariate jets
# ---------------------------------------------------------------------------


def multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices with |l| <= order, sorted by total degree then lex."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining):
        if len(prefix) == dim - 1:
            for last in range(remaining + 1):
                out.append(prefix + (last,))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v)

    if dim == 0:
        return [()]
    rec((), order)
    out.sort(key=lambda ix: (sum(ix), ix))
    return out


def _index_factorial(ix: tuple[int, ...]) -> int:
    f = 1
    for v in ix:
        f *= math.factorial(v)
    return f


class JetN:
    """Multivariate jet: truncated total-degree-r polynomial in n displacements.

    coeffs maps a multi-index l (|l| <= order) to D^l f(y0) / l!; absent
    indices are zero. Values may be floats or broadcast-compatible arrays.
    """

    __slots__ = ("order", "dim", "coeffs")
    __array_ufunc__ = None

    def __init__(self, order: int, dim: int, coeffs: Mapping[tuple[int, ...], object]):
        if order < 0 or dim < 1:
            raise ValueError("order must be >= 0 and dim >= 1")
        self.order = order
        self.dim = dim
        clean = {}
        for ix, v in coeffs.items():
            if len(ix) != dim:
                raise ValueError(f"multi-index {ix} has wrong dimension")
            if sum(ix) <= order:
                clean[ix] = v
        self.coeffs = clean

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(value, order: int, dim: int) -> "JetN":
        return JetN(order, dim, {(0,) * dim: value})

    @staticmethod
    def variable(value, j: int, order: int, dim: int) -> "JetN":
        unit = tuple(1 if i == j else 0 for i in range(dim))
        return JetN(order, dim, {(0,) * dim: value, unit: 1.0})

    # -- inspection --------------------------------------------------------

    @property
    def value(self):
        return self.coeffs.get((0,) * self.dim, 0.0)

    def coeff(self, ix: tuple[int, ...]):
        return self.coeffs.get(tuple(ix), 0.0)

    def partial(self, ix: tuple[int, ...]):
        """D^l f(y0) = l! * coeff(l)."""
        ix = tuple(ix)
        if len(ix) != self.dim or sum(ix) > self.order:
            raise ValueError(f"multi-index {ix} outside |l| <= {self.order}")
        return _index_factorial(ix) * self.coeff(ix)

    def partials_map(self) -> dict[tuple[int, ...], object]:
        """Dense map of all mixed partials D^l f(y0) for |l| <= order."""
        return {ix: self.partial(ix) for ix in multi_indices(self.dim, self.order)}

    def __repr__(self):
        return f"JetN(order={self.order}, dim={self.dim}, {len(self.coeffs)} coeffs)"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "JetN | None":
        if isinstance(other, JetN):
            if other.order != self.order or other.dim != self.dim:
                raise ValueError("jet order/dimension mismatch")
            return other
        if isinstance(other, (int, float, np.integer, np.floating, np.ndarray)):
            return JetN.constant(other, self.order, self.dim)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for ix, v in o.coeffs.items():
            out[ix] = out[ix] + v if ix in out else v
        return JetN(self.order, self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return JetN(self.order, self.dim, {ix: -v for ix, v in self.coeffs.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, ...], object] = {}
        for ix1, v1 in self.coeffs.items():
            d1 = sum(ix1)
            for ix2, v2 in o.coeffs.items():
                if d1 + sum(ix2) > self.order:
                    continue
                ix = tuple(a + b for a, b in zip(ix1, ix2))
                term = v1 * v2
                out[ix] = out[ix] + term if ix in out else term
        return JetN(self.order, self.dim, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._through(lambda t: 1.0 / t)

    def __rtruediv__(self, other):
        return JetN.constant(other, self.order, self.dim).__truediv__(self)

    def __pow__(self, exponent):
        if isinstance(exponent, JetN):
            raise EvalDomainError("power", exponent, "exponent must be constant")
        e = float(exponent)
        if _is_integer(e):
            return _int_power(self, int(e))
        return self._through(lambda t: t ** e)

    def _through(self, fn) -> "JetN":
        """fn∘self: the univariate series of fn at the value, taken from Jet1
        (which also checks fn's domain), composed with self - value."""
        series = fn(Jet1.variable(self.value, self.order)).coeffs
        zero = (0,) * self.dim
        shifted = {ix: v for ix, v in self.coeffs.items() if ix != zero}
        return _horner(series, JetN(self.order, self.dim, shifted))

    # -- elementary functions ---------------------------------------------

    def exp(self) -> "JetN":
        return self._through(Jet1.exp)

    def log(self) -> "JetN":
        return self._through(Jet1.log)

    def sqrt(self) -> "JetN":
        return self._through(Jet1.sqrt)

    def sin(self) -> "JetN":
        return self._through(Jet1.sin)

    def cos(self) -> "JetN":
        return self._through(Jet1.cos)


def jetn_partials(f, y0: Sequence, order: int) -> JetN:
    """All mixed partials of an expression at y0, to total order `order`.

    `f` is an ExprAst over len(y0) variables; evaluation runs in truncated
    multivariate series arithmetic over total-degree-`order` polynomials.
    """
    from .expr import eval_expr  # local import to avoid a cycle

    n = len(y0)
    if n > DEFAULT_MAX_DIM or order > DEFAULT_MAX_ORDER:
        raise ResourceLimitError(
            f"jetn_partials cap exceeded: dim {n} > {DEFAULT_MAX_DIM} or "
            f"order {order} > {DEFAULT_MAX_ORDER}"
        )
    if order < 0:
        raise ValueError("order must be nonnegative")
    if n == 1:
        # univariate fast path; also guarantees dim-1 results match Jet1
        from .expr import eval_jet1

        jet = eval_jet1(f, Jet1.variable(y0[0], order))
        return JetN(order, 1, {(i,): c for i, c in enumerate(jet.coeffs)})
    seeds = [JetN.variable(v, j, order, n) for j, v in enumerate(y0)]
    result = eval_expr(f, seeds)
    if not isinstance(result, JetN):  # constant expression
        result = JetN.constant(result, order, n)
    return result
