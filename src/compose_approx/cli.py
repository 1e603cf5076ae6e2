"""Command-line interface.

Subcommands mirror the library surface: `bell`, `faa`, `norm`, `bestapprox`
and `verify lemma|composite|rate`. Numerical logic lives in the library
modules; this file only parses arguments, wires configuration and formats
output. Exit codes: 0 success, 2 argument error, 3 numerical failure
(non-convergence under --strict).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .combinatorics import bell_number, incomplete_bell_ones, _bell_terms
from .errors import EvalDomainError, EvaluationError, ExprSyntaxError, ResourceLimitError
from .expr import eval_jet1, parse
from .faadibruno import composite_jet
from .harness import (
    degree_ladder,
    report_basename,
    verify_composite_bound,
    verify_lemma,
    verify_rate,
    write_json_report,
    write_rate_csv,
)
from .jets import jet_lift
from .minimax import RemezOptions, weighted_remez
from .weighted import GridConfig, JacobiWeight, derivative_fn, weighted_sup_norm

CONFIG_ENV = "COMPOSE_APPROX_CONFIG"
CONFIG_KEYS = ("grid", "tol", "out", "seed")

# Sampling points per sup norm; the composite expansion holds one array of
# this length per outer partial, so the cap keeps it at desk scale.
MIN_GRID_POINTS = 32
MAX_GRID_POINTS = 65537


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _load_config(path: str | None) -> dict:
    """Flat key=value file; '#' starts a comment."""
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ValueError(f"cannot read config file {path}: {err}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
        cfg[key] = value
    return cfg


class Settings:
    """Merged defaults < config file < command-line flags."""

    def __init__(self, args):
        cfg = _load_config(args.config)
        self.grid_points = int(args.grid if args.grid is not None else cfg.get("grid", 4097))
        self.tol = float(args.tol if args.tol is not None else cfg.get("tol", 1e-10))
        self.out = Path(args.out if args.out is not None else cfg.get("out", "reports"))
        self.seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
        self.strict = bool(args.strict)
        self.max_iter = getattr(args, "max_iter", 60)
        if not MIN_GRID_POINTS <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(
                f"--grid must be between {MIN_GRID_POINTS} and {MAX_GRID_POINTS}"
            )
        if not 0 < self.tol < 1:
            raise ValueError("--tol must be in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("--max-iter must be at least 1")

    @property
    def grid(self) -> GridConfig:
        return GridConfig(points=self.grid_points, rel_tol=self.tol)

    @property
    def remez(self) -> RemezOptions:
        # the exchange grid is kept at least as fine as the norm grid
        return RemezOptions(
            grid_points=max(8193, self.grid_points),
            tol=self.tol,
            max_iter=self.max_iter,
        )

    def check_degree(self, m: int) -> None:
        """A degree-m solve needs m + 2 reference points on the exchange grid."""
        limit = self.remez.grid_points - 2
        if m > limit:
            raise ValueError(f"degree {m} exceeds {limit}, the most the exchange grid allows")


def _parse_exprs(src: str) -> list:
    return [parse(part.strip(), 1) for part in src.split(",")]


def _outer_names(n: int) -> list[str]:
    return [f"y{i + 1}" for i in range(n)]


def _parse_ms(spec: str, r: int, settings: Settings) -> list[int]:
    spec = spec.strip()
    if spec == "ladder":
        return degree_ladder(max(r, 2), 128)
    if ".." in spec:
        body, _, step_txt = spec.partition(":")
        lo_txt, _, hi_txt = body.partition("..")
        lo, hi = int(lo_txt), int(hi_txt)
        step = int(step_txt) if step_txt else 1
        if step < 1 or hi < lo:
            raise ValueError(f"bad degree range '{spec}'")
        settings.check_degree(hi)
        return list(range(lo, hi + 1, step))
    ms = sorted({int(part) for part in spec.split(",")})
    settings.check_degree(ms[-1])
    return ms


def _weight(args) -> JacobiWeight:
    return JacobiWeight(args.gamma, args.delta)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_bell(args, settings: Settings) -> int:
    if args.k is None:
        print(bell_number(args.r))
        return 0
    terms = _bell_terms(args.r, args.k)  # checks the order cap first
    print(incomplete_bell_ones(args.r, args.k))
    for coeff, counts in terms:
        monomial = " ".join(
            f"x{i}^{k}" for i, k in enumerate(counts, start=1) if k
        )
        print(f"  {coeff} * {monomial}")
    return 0


def _cmd_faa(args, settings: Settings) -> int:
    gs = _parse_exprs(args.g)
    n = len(gs)
    f = parse(args.f, n, _outer_names(n))
    derivs = composite_jet(f, gs, args.x0, args.r)
    print(" ".join(_fmt(float(v)) for v in derivs))
    if args.compare_jets:
        inner = [eval_jet1(g_j, jet_lift(args.x0, args.r)) for g_j in gs]
        from .expr import eval_expr

        oracle_jet = eval_expr(f, inner)
        oracle = [float(v) for v in oracle_jet.derivatives()]
        worst = 0.0
        for a, b in zip(derivs, oracle):
            scale = max(abs(a), abs(b), 1e-6)
            worst = max(worst, abs(a - b) / scale)
        print(f"jets-oracle max deviation {worst:.3e}")
        if worst > 1e-9:
            print("error: expansion disagrees with the jets oracle", file=sys.stderr)
            return 3
    return 0


def _cmd_norm(args, settings: Settings) -> int:
    f = parse(args.f, 1)
    w = _weight(args)
    grid = settings.grid
    plain = weighted_sup_norm(derivative_fn(f, 0), w, 0, grid).value
    seminorm = weighted_sup_norm(derivative_fn(f, args.r), w, args.r, grid).value
    print(f"fu_norm {_fmt(plain)}")
    print(f"seminorm {_fmt(seminorm)}")
    print(f"sobolev {_fmt(plain + seminorm)}")
    return 0


def _cmd_bestapprox(args, settings: Settings) -> int:
    settings.check_degree(args.m)
    f = parse(args.f, 1)
    w = _weight(args)

    def fn(x):
        from .expr import eval_scalar

        return eval_scalar(f, x)

    report = weighted_remez(fn, args.m, w, settings.remez)
    print(f"error {_fmt(report.error)}")
    print(f"lower {_fmt(report.leveled_error)}")
    print(f"iterations {report.iterations}")
    print(f"converged {str(report.converged).lower()}")
    if not report.converged and settings.strict:
        print("error: best-approximation solve did not converge", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args, settings: Settings) -> int:
    w = _weight(args)
    out_dir = settings.out
    base = None
    payload = None
    failed = False
    if args.what == "lemma":
        f = parse(args.f, 1)
        check = verify_lemma(f, args.r, args.k, w, settings.grid)
        payload = {"kind": "lemma", "seed": settings.seed, **check.to_dict()}
        base = report_basename(args.case, args.r, w.gamma, w.delta)
        print(f"holds {str(check.holds).lower()}")
        print(f"lhs {_fmt(check.lhs)}")
        print(f"rhs {_fmt(check.rhs)}")
        print(f"ratio {_fmt(check.ratio)}")
        failed = not check.holds
    elif args.what == "composite":
        gs = _parse_exprs(args.g)
        f = parse(args.f, len(gs), _outer_names(len(gs)))
        box = None
        if args.box:  # checked by verify_composite_bound before any evaluation
            box = [
                tuple(float(v) for v in part.split(":"))
                for part in args.box.split(",")
            ]
        check = verify_composite_bound(f, gs, args.r, w, settings.grid, box)
        payload = {"kind": "composite", "seed": settings.seed, **check.to_dict()}
        base = report_basename(args.case, args.r, w.gamma, w.delta)
        print(f"lhs {_fmt(check.lhs)}")
        print(f"rhs_sans_C {_fmt(check.rhs_sans_c)}")
        print(f"ratio {_fmt(check.ratio)}")
    else:  # rate
        gs = _parse_exprs(args.g)
        f = parse(args.f, len(gs), _outer_names(len(gs)))
        ms = _parse_ms(args.ms, args.r, settings)
        report = verify_rate(
            f, gs, args.r, w, ms, settings.grid, settings.remez,
            case=args.case, seed=settings.seed,
        )
        payload = {"kind": "rate", **report.to_dict()}
        base = report_basename(args.case, args.r, w.gamma, w.delta)
        csv_path = write_rate_csv(report, out_dir / f"{base}.csv")
        print(f"slope {_fmt(report.slope)}")
        print(f"ratio_sup {_fmt(report.ratio_sup)}")
        print(f"wrote {csv_path}")
        failed = settings.strict and not all(report.converged)
    json_path = write_json_report(payload, out_dir / f"{base}.json")
    print(f"wrote {json_path}")
    if failed:
        print("error: verification failed", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compose-approx",
        description=(
            "High-order derivatives of composite functions, Jacobi-weighted "
            "norms, and weighted minimax polynomial approximation."
        ),
    )
    parser.add_argument("--config", help=f"key=value config file (or ${CONFIG_ENV})")
    parser.add_argument("--out", help="report output directory (default: reports)")
    parser.add_argument("--grid", type=int, help="sup-norm sampling points (default 4097)")
    parser.add_argument("--tol", type=float, help="relative tolerance (default 1e-10)")
    parser.add_argument("--seed", type=int, help="seed echoed into reports (default 0)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 on numerical non-convergence")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bell = sub.add_parser("bell", help="Bell numbers and Bell polynomial terms")
    p_bell.add_argument("r", type=int)
    p_bell.add_argument("k", type=int, nargs="?", default=None)

    p_faa = sub.add_parser("faa", help="derivatives of f∘g via the explicit expansion")
    p_faa.add_argument("--f", required=True, help="outer expression in y1..yn")
    p_faa.add_argument("--g", required=True, help="comma-separated inner expressions in x")
    p_faa.add_argument("--x0", type=float, required=True)
    p_faa.add_argument("--r", type=int, required=True)
    p_faa.add_argument("--compare-jets", action="store_true",
                       help="cross-check against the jet-composition oracle")

    p_norm = sub.add_parser("norm", help="weighted Sobolev-type norm of f")
    p_norm.add_argument("--f", required=True, help="expression in x")
    p_norm.add_argument("--r", type=int, required=True)
    p_norm.add_argument("--gamma", type=float, default=0.0)
    p_norm.add_argument("--delta", type=float, default=0.0)

    p_best = sub.add_parser("bestapprox", help="weighted minimax approximation error")
    p_best.add_argument("--f", required=True, help="expression in x")
    p_best.add_argument("--m", type=int, required=True)
    p_best.add_argument("--gamma", type=float, default=0.0)
    p_best.add_argument("--delta", type=float, default=0.0)
    p_best.add_argument("--max-iter", type=int, default=60)

    p_verify = sub.add_parser("verify", help="run a verification experiment")
    v_sub = p_verify.add_subparsers(dest="what", required=True)

    v_lemma = v_sub.add_parser("lemma", help="weighted derivative estimate")
    v_lemma.add_argument("--f", required=True)
    v_lemma.add_argument("--r", type=int, required=True)
    v_lemma.add_argument("--k", type=int, required=True)
    v_lemma.add_argument("--gamma", type=float, default=0.0)
    v_lemma.add_argument("--delta", type=float, default=0.0)
    v_lemma.add_argument("--case", default="lemma")

    v_comp = v_sub.add_parser("composite", help="composite-derivative bound")
    v_comp.add_argument("--f", required=True)
    v_comp.add_argument("--g", required=True)
    v_comp.add_argument("--r", type=int, required=True)
    v_comp.add_argument("--gamma", type=float, default=0.0)
    v_comp.add_argument("--delta", type=float, default=0.0)
    v_comp.add_argument("--box", help="lo:hi[,lo:hi...] per outer variable")
    v_comp.add_argument("--case", default="composite")

    v_rate = v_sub.add_parser("rate", help="best-approximation decay rate")
    v_rate.add_argument("--f", required=True)
    v_rate.add_argument("--g", required=True)
    v_rate.add_argument("--r", type=int, required=True)
    v_rate.add_argument("--gamma", type=float, default=0.0)
    v_rate.add_argument("--delta", type=float, default=0.0)
    v_rate.add_argument("--ms", default="ladder",
                        help="degrees: 'lo..hi[:step]', comma list, or 'ladder'")
    v_rate.add_argument("--case", default="rate")

    return parser


_HANDLERS = {
    "bell": _cmd_bell,
    "faa": _cmd_faa,
    "norm": _cmd_norm,
    "bestapprox": _cmd_bestapprox,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        settings = Settings(args)
        return _HANDLERS[args.command](args, settings)
    except (ExprSyntaxError, EvalDomainError, ResourceLimitError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except EvaluationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
