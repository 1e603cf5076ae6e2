"""Explicit high-order derivatives of composite functions.

Evaluates the r-th derivative of f∘g from supplied derivative data by
summing over partition vectors (univariate) or partition vectors plus
per-order composition matrices (multivariate outer function). This path is
formula-driven and completely independent of the jet engine, which serves as
its oracle in the test suite.

Each multivariate sum is compiled once per (order, dimension) into flat
read-only arrays (one float coefficient, one f-partial index and the
(row, column, exponent) power factors per term) and evaluated with numpy;
the terms are still added in enumeration order with Kahan compensation, so
results match a term-by-term loop bit for bit.

Derivative data can be handed in directly as arrays or produced from
expressions via `composite_jet`. Scalar entries may be replaced by numpy
arrays of a common shape to evaluate the formulas on a whole grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .combinatorics import (
    DEFAULT_MAX_MATRICES,
    enumerate_composition_matrices,
    enumerate_partition_vectors,
)
from .errors import ResourceLimitError
from .jets import jet_lift, jetn_partials
from .expr import ExprAst, eval_jet1, eval_scalar


def _kahan_add(total, comp, term):
    """One compensated-summation step; works elementwise on arrays."""
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def composite_derivative_1d(f_derivs: Sequence, g_derivs: Sequence, r: int) -> float:
    """(f∘g)^(r)(x0) from f^(0..r) at g(x0) and g^(0..r) at x0.

    Sums r!/(k_1!..k_r!) f^(k) prod (g^(i)/i!)^k_i over all multiplicity
    vectors, as `composite_derivative_nd` with n = 1.
    """
    if r < 1:
        raise ValueError(f"derivative order must be positive, got {r}")
    if len(f_derivs) != r + 1 or len(g_derivs) != r + 1:
        raise ValueError(
            f"derivative sequences must have length r+1={r + 1}, got "
            f"{len(f_derivs)} and {len(g_derivs)}"
        )
    return composite_derivative_nd(
        {(k,): f_k for k, f_k in enumerate(f_derivs)}, [g_derivs], r, 1
    )


# Each order's sum is compiled once into flat arrays; 64 tables cover every
# (r, n) within the caps of `jetn_partials` (r <= 10, n <= 6).
_CACHE_SIZE = 64

# The array evaluation works on blocks of points so that its power table and
# its chunk of terms hold at most this many float64 entries each (256 KiB).
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class Expansion:
    """The Faà di Bruno sum of one order over n outer variables, compiled.

    Term t is coeffs[t] * D^l f with l = partials[partial_of[t]], times
    powers[k] for every k in factors[t], in the enumeration order of
    partition vectors and composition matrices. Row k of `powers` is
    (i, j, q) and stands for (g_j^(i))^q; row 0 is (0, 0, 0), the padding
    factor 1 that fills `factors` out to a common width. The arrays are
    read-only.
    """

    partials: tuple[tuple[int, ...], ...]
    powers: np.ndarray  # (P, 3) int32
    coeffs: np.ndarray  # (T,) float64
    partial_of: np.ndarray  # (T,) int32
    factors: np.ndarray  # (T, S) int32, each row in row-major (i, j) order


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def compile_expansion(r: int, n: int) -> Expansion:
    """The table of `composite_derivative_nd` for order r and dimension n.

    Each term's integer coefficient r! / (prod q_ij! prod (i!)^k_i) is
    computed exactly and converted to floating point once. The enumeration
    caps are checked first: the order cap by `enumerate_partition_vectors`
    and the matrix cap against the total number of terms.
    """
    vectors = enumerate_partition_vectors(r)
    total = 0
    for pv in vectors:
        total += math.prod(math.comb(k_i + n - 1, n - 1) for k_i in pv.counts)
    if total > DEFAULT_MAX_MATRICES:
        raise ResourceLimitError(
            f"expansion of order {r} in {n} variables has {total} terms, more "
            f"than max_matrices={DEFAULT_MAX_MATRICES}"
        )
    r_fact = math.factorial(r)
    partial_ids: dict[tuple[int, ...], int] = {}
    power_ids = {(0, 0, 0): 0}
    coeffs, partial_of, factors = [], [], []
    for pv in vectors:
        fact_weight = 1
        for i, k_i in enumerate(pv.counts, start=1):
            if k_i:
                fact_weight *= math.factorial(i) ** k_i
        for cm in enumerate_composition_matrices(pv, n):
            denom = fact_weight
            slots = []
            for i, row in enumerate(cm.rows, start=1):
                for j, q in enumerate(row):
                    if q:
                        denom *= math.factorial(q)
                        slots.append(power_ids.setdefault((i, j, q), len(power_ids)))
            coeff, rem = divmod(r_fact, denom)
            if rem:
                raise ArithmeticError("non-integer multivariate coefficient")
            coeffs.append(float(coeff))
            partial_of.append(partial_ids.setdefault(cm.column_sums, len(partial_ids)))
            factors.append(slots)
    width = max(map(len, factors))
    padded = [slots + [0] * (width - len(slots)) for slots in factors]
    return Expansion(
        partials=tuple(partial_ids),
        powers=_frozen(list(power_ids), np.int32),
        coeffs=_frozen(coeffs, np.float64),
        partial_of=_frozen(partial_of, np.int32),
        factors=_frozen(padded, np.int32),
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
    and, per vector, all composition matrices, as compiled once per (r, n)
    by `compile_expansion`. Accumulation is compensated (Kahan, in term
    order) because term counts grow quickly and signs mix. Entries may be
    floats or arrays of a common broadcast shape, mixed freely.
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
    table = compile_expansion(r, n)
    f_vals = []
    for p in table.partials:
        if p not in f_partials:
            raise ValueError(f"missing partial derivative for multi-index {p}")
        f_vals.append(f_partials[p])
    powers = table.powers.tolist()
    g_vals = [g_derivs[j][i] for i, j, _ in powers[1:]]
    arrays = [v.shape for v in (*f_vals, *g_vals) if _is_points(v)]
    if not arrays:
        return _evaluate_scalar(table, f_vals, g_vals, powers)
    return _evaluate_array(table, f_vals, g_vals, powers, np.broadcast_shapes(*arrays))


def _is_points(v) -> bool:
    return isinstance(v, np.ndarray) and v.ndim > 0


def _evaluate_scalar(table: Expansion, f_vals, g_vals, powers) -> float:
    pw = np.array([1.0] + [g ** q for g, (_, _, q) in zip(g_vals, powers[1:])])
    terms = table.coeffs * np.array(f_vals, dtype=np.float64)[table.partial_of]
    for slot in table.factors.T:
        terms *= pw[slot]
    total, comp = 0.0, 0.0
    for term in terms.tolist():
        total, comp = _kahan_add(total, comp, term)
    return total


def _evaluate_array(table: Expansion, f_vals, g_vals, powers, shape) -> np.ndarray:
    """The sum at every point, in blocks of points and chunks of terms.

    Per block: one power table (g_j^(i))^q, then per chunk a (terms, points)
    matrix formed with one gather and multiply per factor slot, then Kahan
    over its rows in term order. A scalar entry stays a scalar until it
    fills a row, so every power is formed as a term-by-term loop forms it.
    """
    size = math.prod(shape)

    def flat(v):
        if not _is_points(v):
            return v
        return (v if v.shape == shape else np.broadcast_to(v, shape)).reshape(-1)

    f_vals, g_vals = [flat(v) for v in f_vals], [flat(g) for g in g_vals]
    n_terms, n_powers = len(table.coeffs), len(powers)
    blocks = -(-size * n_powers // _BLOCK_ENTRIES)  # ceil: power tables in budget
    width = -(-size // blocks)
    chunk = max(1, _BLOCK_ENTRIES // width)
    out = np.empty(size)
    for lo in range(0, size, width):
        f_block, g_block = (
            [v[lo : lo + width] if _is_points(v) else v for v in vals]
            for vals in (f_vals, g_vals)
        )
        m = min(width, size - lo)
        pw = np.empty((n_powers, m))
        pw[0] = 1.0
        for k, (g, (_, _, q)) in enumerate(zip(g_block, powers[1:]), start=1):
            pw[k] = g ** q
        terms = np.empty((min(chunk, n_terms), m))
        gathered = np.empty_like(terms)
        total, comp = 0.0, 0.0
        for c0 in range(0, n_terms, chunk):
            rows, gat = terms[: n_terms - c0], gathered[: n_terms - c0]
            for row, p in zip(rows, table.partial_of[c0 : c0 + chunk].tolist()):
                row[:] = f_block[p]
            rows *= table.coeffs[c0 : c0 + chunk, None]
            for slot in table.factors[c0 : c0 + chunk].T:
                np.take(pw, slot, axis=0, out=gat, mode="clip")
                rows *= gat
            for row in rows:
                total, comp = _kahan_add(total, comp, row)
        out[lo : lo + width] = total
    return out.reshape(shape)


def composite_jet(
    f: ExprAst,
    g: Sequence[ExprAst],
    x0,
    r: int,
    *,
    start: int = 0,
) -> list:
    """Derivatives (f∘g)^(start..r)(x0) through the explicit expansion.

    Inner derivatives come from univariate jets of each g_j, outer mixed
    partials from a multivariate jet of f at g(x0); each order is then
    assembled with `composite_derivative_nd`. x0 may be a float or a numpy
    array of sample points.
    """
    n = len(g)
    if n < 1:
        raise ValueError("at least one inner function is required")
    if not 0 <= start <= r:
        raise ValueError(f"need 0 <= start <= r, got start={start}, r={r}")
    g_jets = [eval_jet1(g_j, jet_lift(x0, r)) for g_j in g]
    g_derivs = [jet.derivatives() for jet in g_jets]
    y0 = [jet.value for jet in g_jets]
    f_partials = jetn_partials(f, y0, r).partials_map()
    out = [f_partials[(0,) * n]] if start == 0 else []
    for s in range(max(start, 1), r + 1):
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
