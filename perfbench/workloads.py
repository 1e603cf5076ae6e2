"""Command generators for the three benchmark workloads.

A workload is an endless sequence of *rounds*. Every round holds each
command kind in a fixed proportion, so a run that measures whole rounds
always measures the same mix, whatever the seed and wherever the clock
stops. Parameters inside a round are drawn from ``random.Random`` seeded by
the workload name and ``--seed``; the same seed gives the same commands.
The draws that set a command's cost (lemma's (r, k) grid, composite's
(n, r, outer and inner functions, weight), the single solves' degree,
function and weight) are stratified: every round uses each value equally
often, and the seed only picks the rest. The drawn sweep windows come in
mirrored pairs with a fixed total degree.

Kinds:

* ``regular`` -- the bulk of ``lemma`` and ``composite``; sets cmd_p50_ms.
* ``flat``    -- inputs whose sampled maximum is a plateau (every sample
  ties), so the sup norm refines thousands of points; most of the run time.
* ``sweep``   -- ``verify rate`` over a degree window (one Remez solve per
  degree on precomputed samples).
* ``single``  -- ``bestapprox`` at one degree with the off-grid polish.

The pools are written out here rather than read from the package, so a
change to the package's own corpora cannot change the benchmark's inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("lemma", "composite", "rate")
KINDS = ("regular", "flat", "sweep", "single")

# Jacobi exponents of criterion 5's 16 weights.
EXPONENTS = ("0", "0.25", "0.5", "0.75")
WEIGHTS = tuple(itertools.product(EXPONENTS, EXPONENTS))

# lemma: the corpus of criterion 5 minus its flat member
LEMMA_REGULAR = (
    "exp(x)", "sin(3*x)", "cos(2*x)+x", "1/(2+x)", "log(3+x)",
    "sqrt(2+x)", "(1+x)^2.5", "(1-x)^2.5", "(1-x^2)^2.5",
)
# fifth derivative identically 0: all 4097 samples tie at r = 5
LEMMA_FLAT = "x^4-x^2+1"
LEMMA_REGULAR_PER_ROUND = 180  # 1440 grid points = 8 rounds; flat ~half the time

# composite: criterion 2's outer pool and its non-polynomial inner functions
COMPOSITE_OUTER = {
    1: ("exp(y1/4)", "sin(y1)+y1^2", "1/(5+y1)", "cos(y1)-y1/2", "(4+y1)^1.5"),
    2: ("y1*y2", "exp((y1+y2)/8)", "y1^2-y2^2+1", "sin(y1)*cos(y2)", "y1/(5+y2)"),
    3: ("y1*y2*y3", "exp(y1/8)+y2*y3", "y1^2+y2^2+y3^2", "sin(y1+y2)-y3"),
}
COMPOSITE_INNER = ("sin(x)", "cos(x)", "exp(x/4)", "1/(3+x)", "(2+x)^0.5")
COMPOSITE_ORDERS = range(2, 9)
COMPOSITE_CELL_SETS_PER_ROUND = 5  # 5 x (3 dims x 7 orders) regular commands
# (f, g, r): g_j^(r) = 0 makes the inner Sobolev norm flat (first two); the
# last composite is identically 1, so its r-th derivative is a plateau.
COMPOSITE_FLAT = (
    ("y1*y2", "x,x^2", 2),
    ("y1*y2", "x,x^2", 3),
    ("y1^2-y2^2+1", "sin(x),sin(x)", 2),
)

# rate: the favard corpus as inner (and single) functions
FAVARD = ("(1+x)^1.5", "(1-x)^1.5", "(1-x^2)^1.5", "(1+x)^1.5*cos(x)", "(1+x)^2.5")
RATE_PINNED = (
    ("exp(y1)", "(1+x)^3.5", 3, "0", "0", "8..128"),  # criterion 7's case
    ("exp(y1)", "(1+x)^1.5", 3, "0", "0", "8..128"),  # slope -3 regime
)
RATE_DRAWN_SWEEP_PAIRS_PER_ROUND = 1
RATE_DRAWN_SWEEP_DEGREES = 16
RATE_SINGLES_PER_ROUND = 100
RATE_SINGLE_DEGREES = tuple(range(4, 54))  # each twice per round


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `argv` excludes the global --out and --case flags."""

    kind: str
    check: str  # lemma | composite | rate | bestapprox
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def cli_args(self, out_dir: str, case: str) -> list[str]:
        args = ["--out", out_dir, *self.argv]
        if self.check != "bestapprox":
            args += ["--case", case]
        return args


def lemma_cmd(kind: str, f: str, r: int, k: int, w: tuple[str, str]) -> Command:
    return Command(kind, "lemma", (
        "verify", "lemma", "--f", f, "--r", str(r), "--k", str(k),
        "--gamma", w[0], "--delta", w[1],
    ))


def composite_cmd(kind: str, f: str, g: str, r: int, w: tuple[str, str]) -> Command:
    return Command(kind, "composite", (
        "verify", "composite", "--f", f, "--g", g, "--r", str(r),
        "--gamma", w[0], "--delta", w[1],
    ))


def rate_cmd(f: str, g: str, r: int, gamma: str, delta: str, ms: str) -> Command:
    return Command("sweep", "rate", (
        "verify", "rate", "--f", f, "--g", g, "--r", str(r),
        "--gamma", gamma, "--delta", delta, "--ms", ms,
    ))


def single_cmd(f: str, m: int, w: tuple[str, str]) -> Command:
    return Command("single", "bestapprox", (
        "bestapprox", "--f", f, "--m", str(m), "--gamma", w[0], "--delta", w[1],
    ))


def lemma_grid() -> list[Command]:
    """Criterion 5's regular grid: 9 functions x 16 weights x 10 (r, k)."""
    return [
        lemma_cmd("regular", f, r, k, w)
        for f in LEMMA_REGULAR
        for w in WEIGHTS
        for r in range(2, 6)
        for k in range(1, r)
    ]


def lemma_flats() -> list[Command]:
    return [lemma_cmd("flat", LEMMA_FLAT, 5, k, w) for w in WEIGHTS for k in range(1, 5)]


def _lemma_rounds(rng: random.Random) -> Iterator[list[Command]]:
    grid = lemma_grid()
    per_pass = len(grid) // LEMMA_REGULAR_PER_ROUND
    while True:
        rng.shuffle(grid)
        weights = list(WEIGHTS)
        rng.shuffle(weights)
        for i in range(per_pass):
            chunk = grid[i * LEMMA_REGULAR_PER_ROUND:(i + 1) * LEMMA_REGULAR_PER_ROUND]
            flat = lemma_cmd("flat", LEMMA_FLAT, 5, rng.randint(1, 4), weights[i])
            yield _place(rng, chunk, [flat])


def _composite_cell(rng: random.Random, n: int, r: int, weights: list) -> list[Command]:
    """One (n, r) cell: every outer function of the pool for n, and in each
    inner slot every inner function, equally often; the seed pairs them with
    each other and with `weights`. Where the pool does not divide the cell,
    the extra outer functions depend on r alone, so every round holds the
    same outer functions."""
    pool = COMPOSITE_OUTER[n]
    count = COMPOSITE_CELL_SETS_PER_ROUND
    outer = list(pool) * (count // len(pool))
    outer += [pool[(r + i) % len(pool)] for i in range(count % len(pool))]
    rng.shuffle(outer)
    while True:
        slots = [_cycle(rng, COMPOSITE_INNER, len(outer)) for _ in range(n)]
        inner = list(zip(*slots))
        # y1^2-y2^2+1 over equal inner functions is the constant 1: a flat input
        if not any(f == "y1^2-y2^2+1" and gs[0] == gs[1] for f, gs in zip(outer, inner)):
            return [composite_cmd("regular", f, ",".join(gs), r, w)
                    for f, gs, w in zip(outer, inner, weights)]


def _cycle(rng: random.Random, pool: tuple, count: int) -> list:
    """`count` items that use every pool member equally often (up to one)."""
    items = list(pool) * (count // len(pool)) + rng.sample(pool, count % len(pool))
    rng.shuffle(items)
    return items


def composite_flats() -> list[Command]:
    return [composite_cmd("flat", f, g, r, ("0", "0")) for f, g, r in COMPOSITE_FLAT]


def _composite_rounds(rng: random.Random) -> Iterator[list[Command]]:
    while True:
        cells = [(n, r) for n in COMPOSITE_OUTER for r in COMPOSITE_ORDERS]
        per_cell = COMPOSITE_CELL_SETS_PER_ROUND
        weights = _cycle(rng, WEIGHTS, per_cell * len(cells))
        regular = [
            cmd
            for i, (n, r) in enumerate(cells)
            for cmd in _composite_cell(rng, n, r, weights[i * per_cell:(i + 1) * per_cell])
        ]
        yield _place(rng, regular, composite_flats())


def _drawn_sweep(rng: random.Random, lo: int, step: int) -> Command:
    hi = lo + step * (RATE_DRAWN_SWEEP_DEGREES - 1)
    gamma, delta = rng.choice(WEIGHTS)
    return rate_cmd("exp(y1)", rng.choice(FAVARD), rng.randint(1, 3), gamma, delta,
                    f"{lo}..{hi}:{step}")


def _drawn_sweep_pair(rng: random.Random) -> list[Command]:
    """Two windows whose degrees mirror each other, so a pair's cost hardly
    depends on the draw: lo and 48 - lo, steps s and 4 - s."""
    lo = rng.randint(8, 40)
    step = rng.randint(1, 3)
    return [_drawn_sweep(rng, lo, step), _drawn_sweep(rng, 48 - lo, 4 - step)]


def _rate_rounds(rng: random.Random) -> Iterator[list[Command]]:
    while True:
        sweeps = [rate_cmd(*case) for case in RATE_PINNED]
        sweeps += [cmd for _ in range(RATE_DRAWN_SWEEP_PAIRS_PER_ROUND)
                   for cmd in _drawn_sweep_pair(rng)]
        singles = [
            single_cmd(f, m, w)
            for f, m, w in zip(_cycle(rng, FAVARD, RATE_SINGLES_PER_ROUND),
                               _cycle(rng, RATE_SINGLE_DEGREES, RATE_SINGLES_PER_ROUND),
                               _cycle(rng, WEIGHTS, RATE_SINGLES_PER_ROUND))
        ]
        yield _place(rng, singles, sweeps)


def _place(rng: random.Random, bulk: list[Command], heavy: list[Command]) -> list[Command]:
    """Scatter the heavy commands among the bulk at seed-drawn positions."""
    out = list(bulk)
    for cmd in heavy:
        out.insert(rng.randint(0, len(out)), cmd)
    return out


_ROUNDS = {"lemma": _lemma_rounds, "composite": _composite_rounds, "rate": _rate_rounds}


def rounds(workload: str, seed: int) -> Iterator[list[Command]]:
    """Endless rounds of commands for `workload`; deterministic in `seed`."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _ROUNDS[workload](random.Random(f"{workload}-{seed}"))


def warmups(workload: str) -> list[Command]:
    """One fixed, seed-independent command per kind, run untimed in set-up."""
    if workload == "lemma":
        return [
            lemma_cmd("regular", "exp(x)", 3, 1, ("0.5", "0.5")),
            lemma_cmd("flat", LEMMA_FLAT, 5, 2, ("0.25", "0.25")),
        ]
    if workload == "composite":
        return [
            composite_cmd("regular", "exp(y1/4)", "sin(x)", 4, ("0.25", "0.25")),
            composite_flats()[0],
        ]
    if workload == "rate":
        return [
            rate_cmd("exp(y1)", "(1+x)^2.5", 2, "0", "0", "40..80:4"),
            single_cmd("(1+x)^1.5", 16, ("0", "0")),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
