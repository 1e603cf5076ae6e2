"""One benchmark process: set up, run the timed loop, check, report.

`run.py` starts this file with BLAS pinned to one thread and reads the JSON
object it prints as its last line. Modes:

* ``setup``  -- import, build the command list, load the reference table and
  run one untimed warm-up per command kind, then report when the first timed
  command would have started;
* ``run``    -- the same set-up, then the closed loop: one client issuing
  ``compose_approx.cli.main(argv)`` commands one after another, in whole
  rounds, for about ``--seconds``;
* ``traced`` -- like ``run`` with every layer wrapped by `spans.Tracer`.

Every report is checked after the loop, outside the timed region. Timings
are scaled to a reference machine speed sampled between commands (see
speed.py); the unscaled figures are reported beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"

import check  # noqa: E402  (lives beside this file)
import speed  # noqa: E402
import workloads  # noqa: E402


def import_cli():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import compose_approx
    from compose_approx import cli

    if not Path(compose_approx.__file__).resolve().is_relative_to(src):
        raise ImportError(f"compose_approx imported from {compose_approx.__file__}, not {src}")
    return cli


def run_command(cli, cmd, out_dir: Path, case: str) -> tuple[object, str, float]:
    """Run one command in-process; return (exit status, output, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(cmd.cli_args(str(out_dir), case))
    except Exception as err:  # a command that raises counts as failed
        rc = f"raised {type(err).__name__}: {err}"
    return rc, buf.getvalue(), time.perf_counter() - t0


def numpy_versions() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def timed_loop(cli, rounds, out_dir: Path, seconds: float, hard_stop: float, tracer=None):
    """Issue whole rounds, stopping at the round boundary nearest `seconds`.

    The loop ends after a round when another round, at the mean round time so
    far, would end further from `seconds` than now; at least one round runs.
    A round is abandoned only at `hard_stop`. Between commands, every
    `speed.EVERY_S` seconds, the loop samples the machine's speed.

    Returns (results, complete rounds, cut mid-round, loop seconds, scales);
    a result is (command, case, exit status, output, latency), and scales[i]
    takes result i's latency to the reference speed (see speed.py).
    """
    results, windows, samples = [], [], []
    complete = 0
    cut = False
    t_start = time.perf_counter()
    next_sample = 0.0
    for rnd in rounds:
        for cmd in rnd:
            now = time.perf_counter() - t_start
            if now >= next_sample:
                samples.append((now, speed.sample()))
                next_sample = time.perf_counter() - t_start + speed.EVERY_S
            case = f"c{len(results)}"
            if tracer is not None:
                tracer.cmd_id = len(results)
            begin = time.perf_counter() - t_start
            results.append((cmd, case, *run_command(cli, cmd, out_dir, case)))
            windows.append((begin, time.perf_counter() - t_start))
            if time.perf_counter() - t_start >= hard_stop:
                cut = True
                break
        if cut:
            break
        complete += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / complete / 2 >= seconds:
            break
    loop_s = time.perf_counter() - t_start
    samples.append((loop_s, speed.sample()))
    scales = [speed.scale(samples, begin, end) for begin, end in windows]
    return results, complete, cut, loop_s, scales


def summarize(results, checks, loop_s: float, scales=None) -> dict:
    """Counts, checks and timings. Timings are scaled to the reference speed
    by `scales` (one per result; none means unscaled); the unscaled figures
    are kept under ``raw``."""
    raw = [r[4] for r in results]
    latencies = [lat * s for lat, s in zip(raw, scales)] if scales else raw
    by_kind = {}
    for (cmd, *_rest), latency in zip(results, latencies):
        entry = by_kind.setdefault(cmd.kind, {"count": 0, "time_s": 0.0})
        entry["count"] += 1
        entry["time_s"] += latency
    busy = sum(latencies)
    for entry in by_kind.values():
        entry["time_share"] = entry["time_s"] / busy if busy else 0.0
    failures = [
        {"key": cmd.key, "reason": reason}
        for (cmd, *_), (reason, _facts) in zip(results, checks)
        if reason
    ]

    def timings(lats: list[float], seconds: float) -> dict:
        return {
            "cmds_per_s": len(lats) / seconds,
            "cmd_p50_ms": 1e3 * statistics.median(lats),
            "cmd_p90_ms": 1e3 * statistics.quantiles(lats, n=10, method="inclusive")[8],
        }

    return {
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:20],
        "matched": sum(facts["matched"] for _, facts in checks),
        "worst_gap": max((facts["gap"] for _, facts in checks), default=0.0),
        "converged_solves": sum(facts["converged_solves"] for _, facts in checks),
        "gaps_over_tol": sum(facts["over_tol"] for _, facts in checks),
        "loop_s": loop_s,
        **timings(latencies, busy),
        "raw": timings(raw, loop_s),
        "kinds": by_kind,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--hard-stop", type=float, required=True,
                        help="abandon the loop mid-round after this many seconds")
    args = parser.parse_args(argv)

    cli = import_cli()
    rounds = workloads.rounds(args.workload, args.seed)
    first_round = next(rounds)
    reference = check.load_reference()
    STATE_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE_DIR))
    try:
        for i, cmd in enumerate(workloads.warmups(args.workload)):
            case = f"w{i}"
            rc, stdout, _ = run_command(cli, cmd, out_dir, case)
            reason, _ = check.check(cmd, case, rc, stdout, out_dir, reference)
            if reason:
                print(f"warm-up command failed ({reason}): {cmd.key}", file=sys.stderr)
                return 1
        t_first = time.monotonic()
        speed.sample()  # first calls into numpy.polynomial and LAPACK are cold
        speed_after = speed.sample()  # with the launcher's sample, scales setup_s
        if args.mode == "setup":
            print(json.dumps({"t_first": t_first, "speed_after": speed_after}))
            return 0

        tracer = None
        if args.mode == "traced":
            from spans import Tracer

            tracer = Tracer()
            missing = tracer.install()
        try:
            results, complete, cut, loop_s, scales = timed_loop(
                cli, itertools.chain([first_round], rounds), out_dir,
                args.seconds, args.hard_stop, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

        checks = [
            check.check(cmd, case, rc, stdout, out_dir, reference)
            for cmd, case, rc, stdout, _ in results
        ]
        out = {
            "t_first": t_first,
            "rounds": complete,
            "cut_mid_round": cut,
            "speed_after": speed_after,
            **summarize(results, checks, loop_s, scales),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **numpy_versions(),
        }
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            out["spans"] = len(tracer.start)
            out["missing_attributes"] = missing
            tracer.save(STATE_DIR / f"spans-{args.workload}.npz")
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
