"""Experiment layer: reproducible desk-scale checks of the derivative and
best-approximation bounds, with machine-readable reports.

Three verifications are exposed:

* `verify_lemma` measures ||f^(k) phi^k u|| against the explicit chained
  constant times ||f u|| + ||f^(r) phi^r u||.
* `verify_composite_bound` measures ||(f∘g)^(r) phi^r u^r|| (derivatives via
  the explicit expansion) against n^r B_r ||f|| prod ||g_j||^(s_j), i.e. the
  bound stripped of its unspecified absolute constant.
* `verify_rate` runs the weighted minimax solver on f∘g over a degree list
  and fits the decay rate of E_m, reporting the ratio against the bound.

All reports serialize deterministically: identical inputs and seed produce
byte-identical JSON.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .combinatorics import bell_number
from .errors import EvalDomainError
from .expr import ExprAst, eval_scalar, parse, to_string
from .faadibruno import composite_jet, composite_value
from .minimax import remez_from_values, remez_grid
from .weighted import (
    DEFAULT_GRID,
    ENDPOINT_MARGIN,
    GridConfig,
    JacobiWeight,
    derivative_fn,
    chained_lemma_constant,
    chebyshev_grid,
    multivariate_sobolev_norm,
    require_lemma_range,
    sobolev_norm,
    weighted_sup_norm,
)

# Measured errors at or below this multiple of machine epsilon times the data
# scale carry no rate information and are flagged.
NOISE_FLOOR_FACTOR = 100.0

# A norm this close to the exponent-rule threshold 1 is recorded in reports.
UNIT_MARGIN_WARN = 1e-6

HOLDS_SLACK = 1e-9


@dataclass(frozen=True)
class ExponentSelector:
    """The two-case exponent rule: s_j = 0 where ||g_j|| <= 1, else s_j = r."""

    norms: tuple[float, ...]
    r: int
    exponents: tuple[int, ...]

    @property
    def norm_product(self) -> float:
        out = 1.0
        for norm, s in zip(self.norms, self.exponents):
            out *= norm**s
        return out

    def unit_margins(self) -> list[dict]:
        return [
            {"j": j + 1, "margin": abs(norm - 1.0)}
            for j, norm in enumerate(self.norms)
            if abs(norm - 1.0) < UNIT_MARGIN_WARN
        ]


def select_exponents(norms: Sequence[float], r: int) -> ExponentSelector:
    if r < 1:
        raise ValueError(f"order must be positive, got {r}")
    if any(v < 0 for v in norms):
        raise ValueError("norms must be nonnegative")
    exps = tuple(0 if v <= 1.0 else r for v in norms)
    return ExponentSelector(tuple(float(v) for v in norms), r, exps)


# ---------------------------------------------------------------------------
# Lemma check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    f_src: str
    r: int
    k: int
    gamma: float
    delta: float
    lhs: float
    norm_plain: float  # ||f u||
    norm_high: float  # ||f^(r) phi^r u||
    constant: float
    holds: bool
    ratio: float

    @property
    def rhs(self) -> float:
        return self.constant * (self.norm_plain + self.norm_high)

    def to_dict(self) -> dict:
        return {
            "f": self.f_src,
            "r": self.r,
            "k": self.k,
            "gamma": self.gamma,
            "delta": self.delta,
            "lhs": self.lhs,
            "rhs_norms": [self.norm_plain, self.norm_high],
            "constant": self.constant,
            "rhs": self.rhs,
            "holds": self.holds,
            "ratio": self.ratio,
        }


def verify_lemma(
    f: ExprAst,
    r: int,
    k: int,
    w: JacobiWeight,
    grid: GridConfig = DEFAULT_GRID,
) -> LemmaCheck:
    """Measure the weighted derivative estimate for one (f, r, k, weight)."""
    if not 0 < k < r:
        raise ValueError(f"need 0 < k < r, got k={k}, r={r}")
    require_lemma_range(w)
    lhs = weighted_sup_norm(derivative_fn(f, k), w, k, grid).value
    plain = weighted_sup_norm(derivative_fn(f, 0), w, 0, grid).value
    high = weighted_sup_norm(derivative_fn(f, r), w, r, grid).value
    constant = chained_lemma_constant(r, k, w)
    rhs = constant * (plain + high)
    holds = lhs <= rhs * (1.0 + HOLDS_SLACK)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return LemmaCheck(
        f_src=to_string(f),
        r=r,
        k=k,
        gamma=w.gamma,
        delta=w.delta,
        lhs=lhs,
        norm_plain=plain,
        norm_high=high,
        constant=constant,
        holds=holds,
        ratio=ratio,
    )


# ---------------------------------------------------------------------------
# Composite derivative bound
# ---------------------------------------------------------------------------


def measured_box(
    g: Sequence[ExprAst], xs: np.ndarray, margin: float = 0.05
) -> list[tuple[float, float]]:
    """Axis-aligned box around Im(g) on the sample points, with a margin."""
    box = []
    for g_j in g:
        vals = np.asarray(eval_scalar(g_j, xs), dtype=float)
        lo, hi = float(np.min(vals)), float(np.max(vals))
        pad = margin * max(hi - lo, 1e-6)
        box.append((lo - pad, hi + pad))
    return box


def _checked_box(box, n):
    """A declared box as float pairs: one axis per inner function, each with
    finite ends lo < hi."""
    if len(box) != n:
        raise ValueError(f"box has {len(box)} axes for {n} inner functions")
    out = [tuple(map(float, axis)) for axis in box]
    for j, axis in enumerate(out, start=1):
        if len(axis) != 2 or not -math.inf < axis[0] < axis[1] < math.inf:
            raise ValueError(
                f"box axis {j} must be lo:hi with finite lo < hi, got "
                + ":".join(map(repr, axis))
            )
    return out


def _check_image_in_box(g, xs, box):
    for j, (g_j, (lo, hi)) in enumerate(zip(g, box), start=1):
        vals = np.asarray(eval_scalar(g_j, xs), dtype=float)
        bad = np.where((vals < lo) | (vals > hi))[0]
        if bad.size:
            raise EvalDomainError(
                f"inner function {j}",
                float(vals[bad[0]]),
                f"image escapes the declared box at x={float(xs[bad[0]])!r}",
            )


@dataclass(frozen=True)
class CompositeCheck:
    f_src: str
    g_srcs: tuple[str, ...]
    r: int
    gamma: float
    delta: float
    lhs: float
    f_norm: float
    g_norms: tuple[float, ...]
    exponents: tuple[int, ...]
    bell: int
    rhs_sans_c: float
    ratio: float
    box: tuple[tuple[float, float], ...]

    def to_dict(self) -> dict:
        sel = ExponentSelector(self.g_norms, self.r, self.exponents)
        return {
            "f": self.f_src,
            "g": list(self.g_srcs),
            "r": self.r,
            "gamma": self.gamma,
            "delta": self.delta,
            "lhs": self.lhs,
            "f_norm": self.f_norm,
            "g_norms": list(self.g_norms),
            "exponents": list(self.exponents),
            "bell": self.bell,
            "rhs_sans_C": self.rhs_sans_c,
            "ratio": self.ratio,
            "box": [list(b) for b in self.box],
            "unit_margin_warnings": sel.unit_margins(),
        }


def _bound_rhs(f, g, r, box, g_weight, grid):
    """n^r B_r ||f|| prod ||g_j||^{s_j} with the norms it is built from,
    each g_j normed under `g_weight`: (f_norm, g_norms, selector, B_r, rhs)."""
    f_norm = multivariate_sobolev_norm(f, r, box)
    g_norms = tuple(sobolev_norm(g_j, r, g_weight, grid) for g_j in g)
    sel = select_exponents(g_norms, r)
    bell = bell_number(r)
    rhs = float(len(g)) ** r * bell * f_norm * sel.norm_product
    return f_norm, g_norms, sel, bell, rhs


def verify_composite_bound(
    f: ExprAst,
    g: Sequence[ExprAst],
    r: int,
    w: JacobiWeight,
    grid: GridConfig = DEFAULT_GRID,
    box: Sequence[tuple[float, float]] | None = None,
) -> CompositeCheck:
    """Measure ||(f∘g)^(r) phi^r u^r|| against the bound without its constant.

    The left side takes derivatives through the explicit composite expansion;
    the ratio lhs / rhs is an empirical lower estimate of the bound's
    absolute constant.
    """
    if r < 1:
        raise ValueError(f"order must be positive, got {r}")
    require_lemma_range(w)
    n = len(g)
    if box is not None:
        box = _checked_box(box, n)
    # the image of g is probed on interior points of [-1, 1]
    probe = chebyshev_grid(DEFAULT_GRID.exchange_points, ENDPOINT_MARGIN, ENDPOINT_MARGIN)
    if box is None:
        box = measured_box(g, probe)
    else:
        _check_image_in_box(g, probe, box)

    def high_deriv(x):
        return composite_jet(f, g, x, r, start=r)[0]

    lhs = weighted_sup_norm(high_deriv, w.power(r), r, grid).value
    f_norm, g_norms, sel, bell, rhs = _bound_rhs(f, g, r, box, w, grid)
    return CompositeCheck(
        f_src=to_string(f, arity=n),
        g_srcs=tuple(to_string(g_j) for g_j in g),
        r=r,
        gamma=w.gamma,
        delta=w.delta,
        lhs=lhs,
        f_norm=f_norm,
        g_norms=g_norms,
        exponents=sel.exponents,
        bell=bell,
        rhs_sans_c=rhs,
        ratio=lhs / rhs if rhs > 0 else math.inf,
        box=tuple(box),
    )


# ---------------------------------------------------------------------------
# Convergence-rate experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    case: str
    f_src: str
    g_srcs: tuple[str, ...]
    r: int
    gamma: float
    delta: float
    seed: int
    ms: tuple[int, ...]
    errors: tuple[float, ...]
    leveled: tuple[float, ...]
    converged: tuple[bool, ...]
    at_noise_floor: tuple[bool, ...]
    ratios: tuple[float, ...]  # m^r E_m / bound_rhs where measurable
    bound_rhs: float
    f_norm: float
    g_norms: tuple[float, ...]
    exponents: tuple[int, ...]
    bell: int
    noise_floor: float

    def usable(self) -> list[int]:
        """Indices that entered the fit: converged and above the noise floor."""
        return [
            i
            for i in range(len(self.ms))
            if self.converged[i] and not self.at_noise_floor[i]
        ]

    @property
    def slope(self) -> float:
        """Least-squares slope of log E_m against log m over the usable degrees."""
        usable = self.usable()
        if len(usable) < 2:
            return math.nan
        log_m = np.log([self.ms[i] for i in usable])
        log_e = np.log([self.errors[i] for i in usable])
        return float(np.polyfit(log_m, log_e, 1)[0])

    @property
    def ratio_sup(self) -> float:
        return max((self.ratios[i] for i in self.usable()), default=math.inf)

    def to_dict(self) -> dict:
        sel = ExponentSelector(self.g_norms, self.r, self.exponents)
        return {
            "case": self.case,
            "f": self.f_src,
            "g": list(self.g_srcs),
            "r": self.r,
            "gamma": self.gamma,
            "delta": self.delta,
            "seed": self.seed,
            "f_norm": self.f_norm,
            "g_norms": list(self.g_norms),
            "exponents": list(self.exponents),
            "bell": self.bell,
            "bound_rhs": self.bound_rhs,
            "noise_floor": self.noise_floor,
            "ms": list(self.ms),
            "errors": list(self.errors),
            "leveled": list(self.leveled),
            "converged": list(self.converged),
            "at_noise_floor": list(self.at_noise_floor),
            "ratios": list(self.ratios),
            "slope": self.slope,
            "ratio_sup": self.ratio_sup,
            "unit_margin_warnings": sel.unit_margins(),
        }


def verify_rate(
    f: ExprAst,
    g: Sequence[ExprAst],
    r: int,
    w: JacobiWeight,
    ms: Sequence[int],
    grid: GridConfig = DEFAULT_GRID,
    *,
    case: str = "case",
    seed: int = 0,
) -> RateReport:
    """Measure E_m(f∘g)_u over a degree list against the rate bound.

    The inner functions are normed with the r-th root of the weight, per the
    rate theorem's hypothesis; the composite is approximated under the weight
    itself. Non-converged or noise-floor degrees are excluded from the
    log-log slope fit (they are still reported, flagged).
    """
    if r < 1:
        raise ValueError(f"order must be positive, got {r}")
    ms = list(ms)
    if not ms or any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise ValueError("ms must be a nonempty strictly increasing list")
    if ms[0] < r:
        raise ValueError(f"smallest degree {ms[0]} must be at least r={r}")
    require_lemma_range(w)
    n = len(g)

    xs = remez_grid(w, grid)
    fvals = np.asarray(composite_value(f, g, xs), dtype=float)
    scale = max(1.0, float(np.max(np.abs(fvals * np.asarray(w(xs))))))
    noise_floor = NOISE_FLOOR_FACTOR * np.finfo(float).eps * scale

    box = measured_box(g, xs)
    f_norm, g_norms, sel, bell, bound_rhs = _bound_rhs(f, g, r, box, w.root(r), grid)

    errors, leveled, converged, floored, ratios = [], [], [], [], []
    for m in ms:
        rep = remez_from_values(xs, fvals, m, w, grid)
        errors.append(float(rep.error))
        leveled.append(float(rep.leveled_error))
        converged.append(bool(rep.converged))
        floored.append(bool(rep.error <= noise_floor))
        ratios.append(rep.error * float(m) ** r / bound_rhs)

    return RateReport(
        case=case,
        f_src=to_string(f, arity=n),
        g_srcs=tuple(to_string(g_j) for g_j in g),
        r=r,
        gamma=w.gamma,
        delta=w.delta,
        seed=seed,
        ms=tuple(ms),
        errors=tuple(errors),
        leveled=tuple(leveled),
        converged=tuple(converged),
        at_noise_floor=tuple(floored),
        ratios=tuple(ratios),
        bound_rhs=bound_rhs,
        f_norm=f_norm,
        g_norms=g_norms,
        exponents=sel.exponents,
        bell=bell,
        noise_floor=noise_floor,
    )


# ---------------------------------------------------------------------------
# Shipped corpus
# ---------------------------------------------------------------------------


def lemma_corpus() -> list[tuple[str, ExprAst]]:
    """Ten univariate functions lying in W^5_u for every bounded Jacobi weight.

    The last three have algebraic endpoint singularities tuned so the fifth
    derivative against phi^5 stays bounded but the sixth would not.
    """
    srcs = [
        "exp(x)",
        "sin(3*x)",
        "cos(2*x)+x",
        "x^4-x^2+1",
        "1/(2+x)",
        "log(3+x)",
        "sqrt(2+x)",
        "(1+x)^2.5",
        "(1-x)^2.5",
        "(1-x^2)^2.5",
    ]
    return [(src, parse(src, 1)) for src in srcs]


def lemma_weights() -> list[JacobiWeight]:
    """The 16 weight pairs: exponents over {0, 0.25, 0.5, 0.75} squared."""
    vals = (0.0, 0.25, 0.5, 0.75)
    return [JacobiWeight(g, d) for g in vals for d in vals]


def favard_corpus() -> list[tuple[str, ExprAst, int]]:
    """(name, f, max order): endpoint-singular functions with exact limited
    smoothness, so E_m decays algebraically and the rate is informative."""
    items = [
        ("alg-left", "(1+x)^1.5", 3),
        ("alg-right", "(1-x)^1.5", 3),
        ("alg-both", "(1-x^2)^1.5", 3),
        ("alg-osc", "(1+x)^1.5*cos(x)", 3),
        ("alg-smooth5", "(1+x)^2.5", 3),
    ]
    return [(name, parse(src, 1), max_r) for name, src, max_r in items]


def rate_case() -> dict:
    """The pinned univariate rate experiment: an entire outer function over
    an inner function with a (1+x)^(7/2) endpoint singularity, order 3."""
    return {
        "case": "exp-alg-7half",
        "f": parse("exp(y1)", 1, ["y1"]),
        "g": [parse("(1+x)^3.5", 1)],
        "r": 3,
        "w": JacobiWeight(0.0, 0.0),
        "ms": list(range(8, 129)),
    }


def degree_ladder(lo: int, hi: int) -> list[int]:
    """Dense at small degrees, progressively sparser at large ones."""
    if lo > hi:
        raise ValueError("empty degree range")
    out = set()
    m = lo
    while m <= hi:
        out.add(m)
        if m < 40:
            m += 1
        elif m < 80:
            m += 2
        elif m < 136:
            m += 4
        else:
            m += 8
    out.add(hi)
    return sorted(out)


# ---------------------------------------------------------------------------
# Reports on disk
# ---------------------------------------------------------------------------


def report_basename(case: str, r: int, gamma: float, delta: float) -> str:
    return f"{case}-{r}-{gamma:g}-{delta:g}"


def write_json_report(payload: dict, path: Path | str) -> Path:
    """Serialize deterministically: fixed key order, repr floats, newline EOF."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, allow_nan=True) + "\n")
    return path


def write_rate_csv(report: RateReport, path: Path | str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "error", "bound"])
        for m, err in zip(report.ms, report.errors):
            writer.writerow([m, repr(err), repr(report.bound_rhs / float(m) ** report.r)])
    return path
