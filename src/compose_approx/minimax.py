"""Weighted best polynomial approximation on [-1, 1].

`weighted_remez` estimates E_m(f)_u = inf_P ||(f - P) u||_inf by a
discretized multi-point exchange on a fine Chebyshev grid: it maintains m+2
reference points, solves the linear alternation system for the polynomial
(in the Chebyshev basis) and the levelled error h, then replaces the
references with the extrema of the weighted residual. The levelled |h| is a
lower bound for the minimax error and the residual maximum an upper bound,
so the pair brackets the answer at every iteration.

Given a callable, the converged grid solution is polished off-grid: the
references are re-located by parabolic/golden search on the continuous
weighted residual and the alternation system is re-solved, which levels the
equioscillation to solver precision. With precomputed samples only, the
final extrema are instead sharpened through the three neighbouring samples
(a parabola vertex), accurate to O(spacing^3) without new evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import EvaluationError, SingularSystemError
from .expr import ExprAst
from .weighted import (
    DEFAULT_GRID,
    ENDPOINT_MARGIN,
    GridConfig,
    JacobiWeight,
    chebyshev_grid,
    derivative_fn,
    eval_samples,
    parabola_vertex,
    refine_max,
    weight_eval,
    weighted_sup_norm,
)


@dataclass(frozen=True)
class ChebPoly:
    """Polynomial in the Chebyshev basis T_0..T_m, evaluated by Clenshaw."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a polynomial needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return npcheb.chebval(x, self.coeffs)


# The off-grid polish re-solves at most min(POLISH_MAX_ITER, max_iter) times.
POLISH_MAX_ITER = 10


@dataclass(frozen=True)
class RemezOptions:
    """Exchange grid size, relative bracket tolerance and iteration cap."""

    grid_points: int = 8193
    tol: float = 1e-10
    max_iter: int = 60


DEFAULT_REMEZ = RemezOptions()


@dataclass(frozen=True)
class ApproxReport:
    """Result of one minimax solve.

    error is the refined residual maximum (upper estimate of E_m);
    leveled_error is |h| from the final alternation solve (lower estimate).
    extrema is the final reference set, strictly increasing with alternating
    weighted residual signs.
    """

    m: int
    error: float
    leveled_error: float
    poly: ChebPoly
    extrema: tuple[float, ...]
    iterations: int
    converged: bool


def remez_grid(w: JacobiWeight, opts: RemezOptions = DEFAULT_REMEZ) -> np.ndarray:
    """Ascending Chebyshev-spaced sampling grid, endpoints pulled inward
    where the weight vanishes (so singular-but-integrable f stays finite)."""
    return chebyshev_grid(
        opts.grid_points,
        ENDPOINT_MARGIN if w.delta > 0 else 0.0,
        ENDPOINT_MARGIN if w.gamma > 0 else 0.0,
    )


def _alternation_solve(
    x_ref: np.ndarray, fu_ref: np.ndarray, u_ref: np.ndarray, m: int
) -> tuple[np.ndarray, float]:
    """Solve (f(x_i) - P(x_i)) u(x_i) = (-1)^i h for P's coefficients and h."""
    k = len(x_ref)
    A = np.empty((k, m + 2))
    A[:, : m + 1] = npcheb.chebvander(x_ref, m) * u_ref[:, None]
    A[:, m + 1] = (-1.0) ** np.arange(k)
    try:
        sol = np.linalg.solve(A, fu_ref)
    except np.linalg.LinAlgError:
        raise SingularSystemError(x_ref.tolist()) from None
    return sol[: m + 1], float(sol[m + 1])


def _extrema_candidates(e: np.ndarray) -> list[int]:
    """One index per maximal run of constant residual sign (zeros ignored):
    the first index of the run's largest |e|."""
    nz = np.flatnonzero((e > 0) | (e < 0))
    if nz.size == 0:
        return []
    positive = e[nz] > 0
    new_run = np.concatenate(([True], positive[1:] != positive[:-1]))
    run = np.cumsum(new_run) - 1
    mag = np.abs(e[nz])
    run_max = np.maximum.reduceat(mag, np.flatnonzero(new_run))
    at_max = np.flatnonzero(mag == run_max[run])
    first = np.concatenate(([True], np.diff(run[at_max]) != 0))
    return nz[at_max[first]].tolist()


def _trim_candidates(cand: list[int], e: np.ndarray, target: int) -> list[int]:
    """Reduce an alternating candidate list to `target` entries.

    Drops the weaker endpoint when an odd number of extras remains, otherwise
    the adjacent pair whose larger residual is smallest; alternation survives
    both moves and the globally largest residual is never dropped.
    """
    cand = list(cand)
    while len(cand) > target:
        if (len(cand) - target) % 2 == 1:
            if abs(e[cand[0]]) <= abs(e[cand[-1]]):
                cand.pop(0)
            else:
                cand.pop()
        else:
            pair_scores = [
                max(abs(e[cand[i]]), abs(e[cand[i + 1]]))
                for i in range(len(cand) - 1)
            ]
            i = int(np.argmin(pair_scores))
            del cand[i : i + 2]
    return cand


def _parabola_peak(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through samples i-1, i, i+1 of |y| (clamped)."""
    if i == 0 or i == len(x) - 1:
        return float(x[i]), float(abs(y[i]))
    x0, x1, x2 = float(x[i - 1]), float(x[i]), float(x[i + 1])
    y0, y1, y2 = abs(float(y[i - 1])), abs(float(y[i])), abs(float(y[i + 1]))
    xv = parabola_vertex(x0, x1, x2, y0, y1, y2)
    if xv is None:
        return x1, y1
    # value at the vertex from the same quadratic model
    d01 = (y1 - y0) / (x1 - x0)
    d12 = (y2 - y1) / (x2 - x1)
    curv = (d12 - d01) / (x2 - x0)
    yv = y1 + d01 * (xv - x1) + curv * (xv - x0) * (xv - x1)
    return xv, max(yv, y1)


def remez_from_values(
    xs: np.ndarray,
    fvals: np.ndarray,
    m: int,
    w: JacobiWeight,
    opts: RemezOptions = DEFAULT_REMEZ,
    *,
    refine_with: Callable | None = None,
) -> ApproxReport:
    """Run the exchange on precomputed samples fvals = f(xs).

    When `refine_with` supplies the underlying callable, the converged
    solution is polished off-grid (see module docstring).
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    xs = np.asarray(xs, dtype=float)
    fvals = np.asarray(fvals, dtype=float)
    if xs.shape != fvals.shape:
        raise ValueError("xs and fvals must have equal length")
    if len(xs) < m + 2:
        raise ValueError(f"grid of {len(xs)} points cannot host {m + 2} references")
    if not np.all(np.isfinite(fvals)):
        bad = int(np.argmin(np.isfinite(fvals)))
        raise EvaluationError("non-finite function sample", float(xs[bad]))
    uvals = weight_eval(w, xs)
    fu = fvals * uvals
    scale = max(1.0, float(np.max(np.abs(fu))))
    noise = 16.0 * np.finfo(float).eps * scale

    n = len(xs)
    ref_idx = np.round(np.arange(m + 2) * (n - 1) / (m + 1)).astype(int)
    # shift the interior points off the mirror-symmetric layout: a symmetric
    # reference set on an even function solves to h = 0 and stalls the exchange
    ref_idx[1:-1] = np.minimum(ref_idx[1:-1] + 1, n - 2)
    if len(np.unique(ref_idx)) < m + 2:
        raise ValueError("grid too coarse for the requested degree")

    best: tuple | None = None
    for iterations in range(1, max(1, opts.max_iter) + 1):
        coeffs, h = _alternation_solve(xs[ref_idx], fu[ref_idx], uvals[ref_idx], m)
        e = fu - npcheb.chebval(xs, coeffs) * uvals
        e_up = float(np.max(np.abs(e)))
        degenerate = e_up <= 1e-13 * scale  # f is (numerically) already in P_m
        converged = degenerate or e_up - abs(h) <= max(opts.tol * e_up, noise)
        if converged or best is None or e_up < best[0]:
            best = (e_up, coeffs, abs(h), ref_idx.copy(), e)
        if converged:
            break
        cand = _extrema_candidates(e)
        if len(cand) < m + 2:
            break  # degenerate residual; keep best-so-far
        new_idx = np.array(_trim_candidates(cand, e, m + 2))
        if np.array_equal(new_idx, ref_idx):
            break  # exchange fixed point: the bracket cannot tighten further
        ref_idx = new_idx

    e_up, coeffs, h_abs, ref_idx, e = best
    ref_x = xs[ref_idx].astype(float)

    if refine_with is not None and not degenerate:
        polished = _polish(
            refine_with, w, m, ref_x, float(xs[0]), float(xs[-1]), opts, noise
        )
        if polished is not None:
            coeffs, h_abs, ref_x, values, lev_ok = polished
            e_up = max(float(np.max(values)), h_abs)
            converged = converged or lev_ok
    else:
        # sharpen the grid extrema through neighbouring samples
        refined = [_parabola_peak(xs, e, int(i)) for i in ref_idx]
        ref_x = np.array([p[0] for p in refined])
        e_up = max(e_up, max(p[1] for p in refined))

    return ApproxReport(
        m=m,
        error=e_up,
        leveled_error=h_abs,
        poly=ChebPoly(tuple(float(c) for c in coeffs)),
        extrema=tuple(float(x) for x in ref_x),
        iterations=iterations,
        converged=converged,
    )


def _polish(
    f: Callable,
    w: JacobiWeight,
    m: int,
    ref_x: np.ndarray,
    lo: float,
    hi: float,
    opts: RemezOptions,
    noise: float,
):
    """Off-grid exchange: relocate references on the continuous residual and
    re-solve until the equioscillation levels. Returns None if the system
    degenerates (caller keeps the grid solution)."""
    refs = ref_x.copy()
    coeffs = None
    h = 0.0
    values = None
    for _ in range(max(1, min(POLISH_MAX_ITER, opts.max_iter))):
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
            x_i, v_i = refine_max(
                lambda x: sigma * residual(x), a, float(refs[i]), c, opts.tol, width=1e-6
            )
            new_refs[i] = x_i
            values[i] = v_i
        if np.any(np.diff(new_refs) <= 0) or np.any(values <= 0):
            return None  # lost alternation; keep the grid solution
        refs = new_refs
        spread = float(np.max(values) - np.min(values))
        if spread <= max(opts.tol * float(np.max(values)), noise):
            return coeffs, abs(h), refs, values, True
    return coeffs, abs(h), refs, values, False


def weighted_remez(
    f: Callable,
    m: int,
    w: JacobiWeight,
    opts: RemezOptions = DEFAULT_REMEZ,
) -> ApproxReport:
    """Weighted minimax approximation of a callable f on [-1, 1]."""
    xs = remez_grid(w, opts)
    return remez_from_values(xs, eval_samples(f, xs), m, w, opts, refine_with=f)


def cheb_interpolant(f: Callable, m: int) -> ChebPoly:
    """Interpolant at the m+1 Chebyshev points of the first kind."""
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    k = np.arange(m + 1)
    theta = math.pi * (k + 0.5) / (m + 1)
    nodes = np.cos(theta)
    fvals = eval_samples(f, nodes)
    if not np.all(np.isfinite(fvals)):
        bad = int(np.argmin(np.isfinite(fvals)))
        raise EvaluationError("non-finite node value", float(nodes[bad]))
    coeffs = np.empty(m + 1)
    for j in range(m + 1):
        coeffs[j] = (2.0 / (m + 1)) * np.sum(fvals * np.cos(j * theta))
    coeffs[0] /= 2.0
    return ChebPoly(tuple(float(c) for c in coeffs))


def favard_rhs(f: ExprAst, r: int, m: int, w: JacobiWeight,
               grid: GridConfig = DEFAULT_GRID) -> float:
    """||f^(r) phi^r u||_inf / m^r, the smoothness side of the Favard bound
    (without its unspecified absolute constant)."""
    if r < 1:
        raise ValueError(f"order must be positive, got {r}")
    if m < r:
        raise ValueError(f"need m >= r, got m={m}, r={r}")
    seminorm = weighted_sup_norm(derivative_fn(f, r), w, r, grid)
    return seminorm.value / float(m) ** r
