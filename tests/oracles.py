"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's own algorithms: partitions
are enumerated as non-increasing part lists, set partitions by direct
block-assignment recursion, derivatives by central finite differences, and
sup norms by plain dense uniform grids. The one exception is
`polish_scalar`, the scalar reference for the batched Remez polish.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np


def partition_count_brute(n: int) -> int:
    """Number of integer partitions of n, by enumerating non-increasing parts."""

    def count(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for part in range(min(largest, remaining), 0, -1):
            total += count(remaining - part, part)
        return total

    return count(n, n)


def set_partitions_enum(n: int):
    """Yield every set partition of {0..n-1} as a list of blocks."""
    if n == 0:
        yield []
        return
    for smaller in set_partitions_enum(n - 1):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [n - 1]] + smaller[i + 1 :]
        yield smaller + [[n - 1]]


def set_partition_count_enum(n: int, k: int) -> int:
    """Count set partitions of an n-set into k blocks by full enumeration."""
    return sum(1 for p in set_partitions_enum(n) if len(p) == k)


@lru_cache(maxsize=None)
def set_partition_count(n: int, k: int) -> int:
    """Count without enumerating: element n either joins one of k existing
    blocks or opens a new one."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * set_partition_count(n - 1, k) + set_partition_count(n - 1, k - 1)


def _partitions(n: int, largest: int | None = None):
    """Integer partitions of n as non-increasing part lists."""
    if n == 0:
        yield []
        return
    for part in range(min(n if largest is None else largest, n), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part] + rest


def bell_terms_filtered(r: int, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """Terms of B_{r,k} as (r! / prod(k_i! (i!)^k_i), (k_1..k_r)), k_i
    counting the parts of size i: every partition of r, filtered to those
    with k parts, listed with ascending (k_1..k_r)."""
    out = []
    for parts in _partitions(r):
        if len(parts) != k:
            continue
        counts = tuple(parts.count(i) for i in range(1, r + 1))
        denom = 1
        for i, k_i in enumerate(counts, start=1):
            denom *= math.factorial(k_i) * math.factorial(i) ** k_i
        out.append((math.factorial(r) // denom, counts))
    return sorted(out, key=lambda term: term[1])


def stirling_by_partition_sum(r: int, k: int) -> int:
    """S(r, k) as the sum of the coefficients of B_{r,k}."""
    return sum(coeff for coeff, _ in bell_terms_filtered(r, k))


def bell_count(n: int) -> int:
    return sum(set_partition_count(n, k) for k in range(1, n + 1))


def central_diff_1(fn, x: float, h: float = 1e-5) -> float:
    return (fn(x + h) - fn(x - h)) / (2 * h)


def central_diff_2(fn, x: float, h: float = 1e-5) -> float:
    return (fn(x + h) - 2 * fn(x) + fn(x - h)) / (h * h)


def dense_sup(fn_vectorized, weight_vectorized, n_points: int = 1_000_001) -> float:
    """Sup of |fn|*weight on [-1, 1] over a dense uniform grid."""
    xs = np.linspace(-1.0 + 1e-12, 1.0 - 1e-12, n_points)
    vals = np.abs(np.asarray(fn_vectorized(xs))) * np.asarray(weight_vectorized(xs))
    return float(np.max(vals))


def rel_err(a: float, b: float, floor: float = 1e-300) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def peak_candidates_loop(vals, cutoff: float) -> list[int]:
    """Indices of samples at or above `cutoff` that no neighbour exceeds,
    scanned one sample at a time (the sup norm's candidate rule)."""
    out = []
    n = len(vals)
    for i in range(n):
        if vals[i] < cutoff:
            continue
        left = vals[i - 1] if i > 0 else -np.inf
        right = vals[i + 1] if i < n - 1 else -np.inf
        if vals[i] < left or vals[i] < right:
            continue
        out.append(i)
    return out


def extrema_candidates_loop(e) -> list[int]:
    """One index per maximal run of constant sign (zeros ignored): the first
    index of the run's largest |e|, scanned one sample at a time."""
    candidates: list[int] = []
    run_sign = 0
    best_idx = -1
    best_val = -1.0
    for i, v in enumerate(e):
        s = 1 if v > 0 else (-1 if v < 0 else 0)
        if s == 0:
            continue
        if s != run_sign:
            if run_sign != 0:
                candidates.append(best_idx)
            run_sign = s
            best_idx = i
            best_val = abs(v)
        elif abs(v) > best_val:
            best_idx = i
            best_val = abs(v)
    if run_sign != 0:
        candidates.append(best_idx)
    return candidates


def _weak_compositions(total: int, parts: int):
    """Tuples of `parts` nonnegative integers summing to `total`, ascending."""
    return [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]


def composite_derivative_loop(f_partials, g_derivs, r: int, n: int):
    """(f∘g)^(r) term by term: every multiplicity vector (k_1..k_r) with
    sum(i*k_i) = r, then every matrix whose row i spreads k_i over the n
    variables, both ascending; exact integer coefficients; Kahan
    summation in that order. Entries may be floats or arrays."""
    r_fact = math.factorial(r)
    total, comp = 0.0, 0.0
    for counts in product(*(range(r // i + 1) for i in range(1, r + 1))):
        if sum(i * k for i, k in enumerate(counts, start=1)) != r:
            continue
        fact_weight = 1
        for i, k_i in enumerate(counts, start=1):
            fact_weight *= math.factorial(i) ** k_i
        for rows in product(*(_weak_compositions(k_i, n) for k_i in counts)):
            p = tuple(sum(col) for col in zip(*rows))
            denom = fact_weight
            for row in rows:
                for q in row:
                    denom *= math.factorial(q)
            coeff, rem = divmod(r_fact, denom)
            assert rem == 0
            term = float(coeff) * f_partials[p]
            for i, row in enumerate(rows, start=1):
                for j, q in enumerate(row):
                    if q:
                        term = term * g_derivs[j][i] ** q
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return total


def polish_scalar(f, w, m, ref_x, lo, hi, grid, noise):
    """The Remez off-grid polish with one scalar search per reference, each
    taking one scalar f call per step: the same rounds, stopping rule and
    return value as `minimax._polish`, which steps the m+2 searches together
    on arrays. Reuses the solver's pieces, so it checks the batching only."""
    from numpy.polynomial import chebyshev as npcheb

    from compose_approx.errors import SingularSystemError
    from compose_approx.minimax import POLISH_MAX_ITER, _alternation_solve
    from compose_approx.weighted import refine_max, weight_eval

    refs = ref_x.copy()
    for _ in range(max(1, min(POLISH_MAX_ITER, grid.max_iter))):
        u_ref = weight_eval(w, refs)
        f_ref = np.array([float(f(float(x))) for x in refs])
        try:
            coeffs, h = _alternation_solve(refs, f_ref * u_ref, u_ref, m)
        except SingularSystemError:
            return None
        sign_h = 1.0 if h >= 0 else -1.0

        def residual(x: float) -> float:
            return (float(f(x)) - float(npcheb.chebval(x, coeffs))) * float(
                weight_eval(w, x)
            )

        new_refs = np.empty_like(refs)
        values = np.empty_like(refs)
        k = len(refs)
        for i in range(k):
            a = lo if i == 0 else 0.5 * (refs[i - 1] + refs[i])
            c = hi if i == k - 1 else 0.5 * (refs[i] + refs[i + 1])
            sigma = sign_h * (1.0 if i % 2 == 0 else -1.0)
            new_refs[i], values[i] = refine_max(
                lambda x: sigma * residual(x), a, float(refs[i]), c, grid.rel_tol, width=1e-6
            )
        if np.any(np.diff(new_refs) <= 0) or np.any(values <= 0):
            return None
        refs = new_refs
        if float(np.max(values) - np.min(values)) <= max(grid.rel_tol * float(np.max(values)), noise):
            break
    return coeffs, abs(h), refs, values
