"""Jacobi weights and weighted uniform / Sobolev-type norms on [-1, 1].

The weight u(x) = (1-x)^gamma (1+x)^delta and the step factor
phi(x) = sqrt(1-x^2) multiply derivatives in all norms here. Sup norms over
the open interval are estimated by dense Chebyshev-spaced sampling plus
parabolic refinement around each local maximum; weighted products that decay
at the endpoints are captured by the Chebyshev clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError
from .expr import ExprAst, eval_jet1, eval_scalar
from .jets import jet_lift, jetn_partials, multi_indices


@dataclass(frozen=True)
class JacobiWeight:
    """u(x) = (1-x)^gamma (1+x)^delta with nonnegative exponents.

    Exponents >= 1 are legal for norm evaluation (they arise as powers u^r of
    a base weight); the derivative-estimate constants additionally require
    gamma, delta < 1 and enforce that where used.
    """

    gamma: float
    delta: float

    def __post_init__(self):
        if self.gamma < 0 or self.delta < 0:
            raise ValueError(
                f"weight exponents must be nonnegative, got ({self.gamma}, {self.delta})"
            )

    def power(self, c: float) -> "JacobiWeight":
        """The weight u^c, with exponents (c*gamma, c*delta)."""
        return JacobiWeight(c * self.gamma, c * self.delta)

    def root(self, r: int) -> "JacobiWeight":
        return self.power(1.0 / r)

    def __call__(self, x):
        return weight_eval(self, x)


def _check_range(x):
    if np.any(np.asarray(x) < -1) or np.any(np.asarray(x) > 1):
        raise ValueError(f"argument outside [-1, 1]: {x!r}")


def weight_eval(w: JacobiWeight, x):
    """(1-x)^gamma (1+x)^delta for x in [-1, 1]; elementwise on arrays."""
    _check_range(x)
    out = 1.0
    if w.gamma:
        out = out * (1.0 - x) ** w.gamma
    if w.delta:
        out = out * (1.0 + x) ** w.delta
    if isinstance(x, np.ndarray):
        return out if isinstance(out, np.ndarray) else np.full(x.shape, float(out))
    return float(out)


def phi_eval(x):
    """sqrt(1 - x^2) for x in [-1, 1]; elementwise on arrays."""
    _check_range(x)
    out = np.sqrt(1.0 - np.asarray(x, dtype=float) ** 2)
    return out if isinstance(x, np.ndarray) else float(out)


def require_lemma_range(w: JacobiWeight):
    if not (w.gamma < 1 and w.delta < 1):
        raise ValueError(
            f"derivative-estimate constants need exponents in [0, 1), "
            f"got ({w.gamma}, {w.delta})"
        )


# Sampled ends of [-1, 1] are pulled inward by this much, so that a function
# singular at an end where the weight vanishes is still finite there.
ENDPOINT_MARGIN = 1e-12

# Points per axis of the tensor grid of a multivariate norm, by dimension.
BOX_POINTS = {1: 33, 2: 33, 3: 15, 4: 9}


@dataclass(frozen=True)
class GridConfig:
    """Sampling parameters for sup-norm estimation.

    points Chebyshev-spaced samples on [-1, 1], endpoints pulled inward by
    ENDPOINT_MARGIN; local maxima are refined until successive estimates
    differ by less than rel_tol.
    """

    points: int = 4097
    rel_tol: float = 1e-10


DEFAULT_GRID = GridConfig()


@dataclass(frozen=True)
class NormReport:
    """A sup-norm estimate: value, where it was attained, and how."""

    value: float
    argmax: float
    grid_size: int
    refined: bool


def chebyshev_grid(n: int, left_margin: float, right_margin: float) -> np.ndarray:
    """n ascending Chebyshev-Lobatto points on [-1, 1] with the two ends
    pulled inward by the margins (a zero margin keeps the end at +-1)."""
    xs = -np.cos(math.pi * np.arange(n) / (n - 1))
    xs[0], xs[-1] = -1.0 + left_margin, 1.0 - right_margin
    return xs


def eval_samples(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate `fn` on an array, falling back to a scalar loop."""
    try:
        vals = np.asarray(fn(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
        return vals
    except (TypeError, ValueError):
        return np.array([float(fn(float(x))) for x in xs])


def _peak_candidates(vals: np.ndarray, cutoff: float) -> np.ndarray:
    """Ascending indices of samples at or above `cutoff` that no neighbour
    exceeds; ties with a neighbour are all kept."""
    padded = np.concatenate(([-np.inf], vals, [-np.inf]))
    mask = (vals >= cutoff) & (vals >= padded[:-2]) & (vals >= padded[2:])
    return np.flatnonzero(mask)


def weighted_sup_norm(
    fn: Callable,
    w: JacobiWeight,
    phi_power: int = 0,
    grid: GridConfig = DEFAULT_GRID,
) -> NormReport:
    """Estimate sup over [-1, 1] of |fn(x)| phi(x)^p u(x).

    fn must be finite at every interior sample point; the weighted product is
    extended by its sampled near-endpoint value at +-1.
    """
    if phi_power < 0:
        raise ValueError("phi_power must be nonnegative")
    xs = chebyshev_grid(grid.points, ENDPOINT_MARGIN, ENDPOINT_MARGIN)
    uvals = weight_eval(w, xs)
    if phi_power:
        uvals = uvals * phi_eval(xs) ** phi_power

    raw = eval_samples(fn, xs)
    if not np.all(np.isfinite(raw)):
        bad = int(np.argmin(np.isfinite(raw)))
        raise EvaluationError("non-finite sample", float(xs[bad]))
    vals = np.abs(raw) * uvals

    def product(x: float) -> float:
        ux = weight_eval(w, x)
        if phi_power:
            ux *= phi_eval(x) ** phi_power
        return abs(float(fn(x))) * ux

    grid_max = float(np.max(vals))
    # A sample materially below the grid maximum cannot overtake it after
    # refinement: the off-grid gain is curvature-limited to O(spacing^2),
    # far below this slack on a Chebyshev grid of the default density.
    cutoff = grid_max * (1.0 - 1e-3) - 1e-300
    best_val = grid_max
    best_arg = float(xs[int(np.argmax(vals))])
    refined = False
    n = len(xs)
    # Inside a run of three or more tied samples the bracket is flat; only the
    # two ends of the run, where the plateau meets its surroundings, are
    # refined, so a constant product costs no scalar search at all.
    flat = np.zeros(n, dtype=bool)
    flat[1:-1] = (vals[1:-1] == vals[:-2]) & (vals[1:-1] == vals[2:])
    cands = _peak_candidates(vals, cutoff)
    for i in cands[~flat[cands]].tolist():
        # near-global local maximum: refine inside the bracket
        if 0 < i < n - 1:
            x_ref, v_ref = refine_max(
                product, float(xs[i - 1]), float(xs[i]), float(xs[i + 1]), grid.rel_tol
            )
            if v_ref > vals[i]:
                refined = True
        else:
            x_ref, v_ref = float(xs[i]), float(vals[i])
        if v_ref > best_val:
            best_val, best_arg = v_ref, x_ref
    return NormReport(best_val, best_arg, grid.points, refined)


def parabola_vertex(
    a: float, b: float, c: float, fa: float, fb: float, fc: float
) -> float | None:
    """Abscissa of the vertex of the parabola through (a, fa), (b, fb),
    (c, fc), or None when it is degenerate or falls outside (a, c)."""
    num = (b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)
    den = (b - a) * (fb - fc) - (b - c) * (fb - fa)
    if den == 0.0:
        return None
    x = b - 0.5 * num / den
    return x if a < x < c else None


def refine_max(
    f: Callable[[float], float],
    a: float,
    b: float,
    c: float,
    rel_tol: float,
    width: float | None = None,
) -> tuple[float, float]:
    """Maximize f on [a, c] starting from the bracket a <= b <= c.

    Tries a parabola through the three current points first and falls back to
    a golden-section step into the larger side. Stops once successive best
    values agree to rel_tol and the bracket is narrower than `width`. Without
    a width only the value matters: two agreeing steps in a row, or a bracket
    below 1e-9, end the search.
    """
    inv_gold = (math.sqrt(5.0) - 1.0) / 2.0
    fa, fb, fc = f(a), f(b), f(c)
    if a == b or b == c:  # degenerate bracket: probe its midpoint
        mid = 0.5 * (a + c)
        fm = f(mid)
        if fm >= fb:
            b, fb = mid, fm
    stable = 0
    for _ in range(60):
        prev_best = fb
        x = parabola_vertex(a, b, c, fa, fb, fc)
        if x is None or abs(x - b) <= 1e-17:
            x = b + (1 - inv_gold) * ((c - b) if (c - b) > (b - a) else (a - b))
            if not a < x < c or x == b:
                break  # the bracket has shrunk to rounding level
        fx = f(x)
        if fx > fb:
            if x < b:
                c, fc = b, fb
            else:
                a, fa = b, fb
            b, fb = x, fx
        else:
            if x < b:
                a, fa = x, fx
            else:
                c, fc = x, fx
        if abs(fb - prev_best) <= rel_tol * max(abs(fb), 1e-300):
            stable += 1
            if width is None:
                if stable >= 2 or (c - a) < 1e-9:
                    break
            elif (c - a) < width:
                break
        else:
            stable = 0
    return b, fb


def derivative_fn(f: ExprAst, order: int) -> Callable:
    """f^(order) as a callable on floats or arrays, via jets."""
    if order == 0:
        return lambda x: eval_scalar(f, x)
    return lambda x: eval_jet1(f, jet_lift(x, order)).derivative(order)


def sobolev_norm(
    f: ExprAst,
    r: int,
    w: JacobiWeight,
    grid: GridConfig = DEFAULT_GRID,
) -> float:
    """||f u||_inf + ||f^(r) phi^r u||_inf with derivatives from jets."""
    if r < 1:
        raise ValueError(f"order must be positive, got {r}")
    plain = weighted_sup_norm(derivative_fn(f, 0), w, 0, grid)
    seminorm = weighted_sup_norm(derivative_fn(f, r), w, r, grid)
    return plain.value + seminorm.value


def multivariate_sobolev_norm(
    f: ExprAst,
    r: int,
    box: Sequence[tuple[float, float]],
) -> float:
    """||f||_inf + sum over 1 <= |l| <= r of ||D^l f||_inf on a box.

    Each sup is estimated on a tensor grid of BOX_POINTS[len(box)] points per
    axis; all mixed partials at a grid point come from one multivariate jet
    evaluation.
    """
    n = len(box)
    if n < 1:
        raise ValueError("box must have at least one axis")
    if n > 4:
        raise ValueError(f"tensor grids support at most 4 axes, got {n}")
    if r < 1:
        raise ValueError(f"order must be positive, got {r}")
    axes = [np.linspace(lo, hi, BOX_POINTS[n]) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [m.reshape(-1) for m in mesh]
    partials = jetn_partials(f, flat, r).partials_map()
    total = 0.0
    for ix in multi_indices(n, r):
        sup = float(np.max(np.abs(np.asarray(partials[ix], dtype=float))))
        if not math.isfinite(sup):
            raise EvaluationError(f"non-finite partial D^{ix} on the box")
        total += sup
    return total


def _beta(a: float, b: float) -> float:
    """Euler beta function via log-gamma."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def lemma_constant(k: int, w: JacobiWeight) -> float:
    """Explicit constant C(k) of the one-step weighted derivative estimate

        ||f^(k) phi^k u|| <= C(k) (||f u|| + ||f^(k+1) phi^(k+1) u||),

    the maximum of four closed-form expressions in k and the weight exponents.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    require_lemma_range(w)
    g, d = w.gamma, w.delta
    kk = float(k)
    endpoint_g = 2.0 ** (g + kk) * kk ** (kk + 1) / (1.0 - g)
    endpoint_d = 2.0 ** (d + kk) * kk ** (kk + 1) / (1.0 - d)
    tail = kk ** kk / math.factorial(k)
    beta_g = tail * 2.0 ** (1.5 * kk + g) * _beta(1.0 - g, 0.5)
    beta_d = tail * 2.0 ** (1.5 * kk + d) * _beta(1.0 - d, 0.5)
    return max(endpoint_g, endpoint_d, beta_g, beta_d)


def chained_lemma_constant(r: int, k: int, w: JacobiWeight) -> float:
    """Constant bounding ||f^(k) phi^k u|| by ||f u|| + ||f^(r) phi^r u||.

    Unfolds the one-step estimate from order k up to r-1 and collects the
    coefficients of the two norms; the larger coefficient is returned, so

        ||f^(k) phi^k u|| <= C(r,k) (||f u|| + ||f^(r) phi^r u||).
    """
    if not 0 < k < r:
        raise ValueError(f"need 0 < k < r, got k={k}, r={r}")
    require_lemma_range(w)
    coef_plain = 0.0  # multiplies ||f u||
    prod = 1.0
    for j in range(k, r):
        prod *= lemma_constant(j, w)
        coef_plain += prod
    coef_high = prod  # multiplies ||f^(r) phi^r u||
    return max(coef_plain, coef_high)
