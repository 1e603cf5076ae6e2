"""Explicit high-order derivatives of composite functions.

Evaluates the r-th derivative of f∘g from supplied derivative data by
summing over partition vectors (univariate) or partition vectors plus
per-order composition matrices (multivariate outer function). This path is
formula-driven and completely independent of the jet engine, which serves as
its oracle in the test suite.

Derivative data can be handed in directly as arrays or produced from
expressions via `composite_jet`. Scalar entries may be replaced by numpy
arrays of a common shape to evaluate the formulas on a whole grid at once.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .combinatorics import (
    enumerate_composition_matrices,
    enumerate_partition_vectors,
    incomplete_bell,
)
from .jets import jet_lift, jetn_partials
from .expr import ExprAst, eval_jet1, eval_scalar


def _kahan_add(total, comp, term):
    """One compensated-summation step; works elementwise on arrays."""
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def composite_derivative_1d(
    f_derivs: Sequence,
    g_derivs: Sequence,
    r: int,
    *,
    method: str = "partition",
) -> float:
    """(f∘g)^(r)(x0) from f^(0..r) at g(x0) and g^(0..r) at x0.

    method='partition' sums r!/(k_1!..k_r!) f^(k) prod (g^(i)/i!)^k_i over
    all multiplicity vectors, as `composite_derivative_nd` with n = 1;
    method='bell' uses the equivalent incomplete Bell polynomial form. Both
    must agree to roundoff.
    """
    if r < 1:
        raise ValueError(f"derivative order must be positive, got {r}")
    if len(f_derivs) != r + 1 or len(g_derivs) != r + 1:
        raise ValueError(
            f"derivative sequences must have length r+1={r + 1}, got "
            f"{len(f_derivs)} and {len(g_derivs)}"
        )
    if method == "bell":
        total, comp = 0.0, 0.0
        for k in range(1, r + 1):
            bell = incomplete_bell(r, k, list(g_derivs[1 : r - k + 2]))
            total, comp = _kahan_add(total, comp, f_derivs[k] * bell)
        return total
    if method != "partition":
        raise ValueError(f"unknown method {method!r}")
    return composite_derivative_nd(
        {(k,): f_k for k, f_k in enumerate(f_derivs)}, [g_derivs], r, 1
    )


def composite_derivative_nd(
    f_partials: Mapping[tuple[int, ...], object],
    g_derivs: Sequence[Sequence],
    r: int,
    n: int,
) -> float:
    """(f∘g)^(r)(x0) for f of n variables and g = (g_1..g_n).

    f_partials maps every multi-index l with |l| <= r to D^l f(g(x0));
    g_derivs[j][i] is g_j^(i)(x0). The sum runs over all partition vectors
    and, per vector, all composition matrices; each term's integer
    coefficient r! / (prod q_ij! prod (i!)^k_i) is computed exactly and
    converted to floating point once. Accumulation is compensated because
    term counts grow quickly and signs mix.
    """
    if r < 1:
        raise ValueError(f"derivative order must be positive, got {r}")
    if n < 1:
        raise ValueError(f"outer dimension must be positive, got {n}")
    if len(g_derivs) != n:
        raise ValueError(f"expected {n} inner derivative sequences, got {len(g_derivs)}")
    for j, seq in enumerate(g_derivs):
        if len(seq) != r + 1:
            raise ValueError(
                f"inner sequence {j} has length {len(seq)}, expected r+1={r + 1}"
            )
    r_fact = math.factorial(r)
    total, comp = 0.0, 0.0
    for pv in enumerate_partition_vectors(r):
        fact_weight = 1
        for i, k_i in enumerate(pv.counts, start=1):
            if k_i:
                fact_weight *= math.factorial(i) ** k_i
        for cm in enumerate_composition_matrices(pv, n):
            p = cm.column_sums
            if p not in f_partials:
                raise ValueError(f"missing partial derivative for multi-index {p}")
            denom = fact_weight
            for row in cm.rows:
                for q in row:
                    if q > 1:
                        denom *= math.factorial(q)
            coeff, rem = divmod(r_fact, denom)
            if rem:
                raise ArithmeticError("non-integer multivariate coefficient")
            term = float(coeff) * f_partials[p]
            for i, row in enumerate(cm.rows, start=1):
                for j, q in enumerate(row):
                    if q:
                        term = term * g_derivs[j][i] ** q
            total, comp = _kahan_add(total, comp, term)
    return total


def composite_jet(
    f: ExprAst,
    g: Sequence[ExprAst],
    x0,
    r: int,
) -> list:
    """Derivatives (f∘g)^(0..r)(x0) through the explicit expansion.

    Inner derivatives come from univariate jets of each g_j, outer mixed
    partials from a multivariate jet of f at g(x0); each order is then
    assembled with `composite_derivative_nd`. x0 may be a float or a numpy
    array of sample points.
    """
    n = len(g)
    if n < 1:
        raise ValueError("at least one inner function is required")
    if r < 0:
        raise ValueError(f"order must be nonnegative, got {r}")
    g_jets = [eval_jet1(g_j, jet_lift(x0, r)) for g_j in g]
    g_derivs = [jet.derivatives() for jet in g_jets]
    y0 = [jet.value for jet in g_jets]
    f_partials = jetn_partials(f, y0, r).partials_map()
    out = [f_partials[(0,) * n]]
    for s in range(1, r + 1):
        out.append(
            composite_derivative_nd(
                f_partials,
                [seq[: s + 1] for seq in g_derivs],
                s,
                n,
            )
        )
    return out


def composite_value(f: ExprAst, g: Sequence[ExprAst], x):
    """Pointwise f(g_1(x), ..., g_n(x)); x may be a float or array."""
    return eval_scalar(f, [eval_scalar(g_j, x) for g_j in g])
