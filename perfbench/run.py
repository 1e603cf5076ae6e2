"""compose-approx benchmark: drive the CLI experiments as a closed loop.

    python3 perfbench/run.py --workload lemma|composite|rate|all \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh processes with BLAS pinned to one thread (see
worker.py). With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` an untraced run and a traced run of the same commands give the
per-layer metrics and the tracing overhead. Human-readable lines come first;
the last line is one JSON object with the keys correct, attempted, failed and
metrics. The exit status is non-zero, with no JSON line, when the benchmark
cannot run (for example when the package is not in ./src).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import KINDS, WORKLOADS
from worker import HERE, ROOT, STATE_DIR

SETUP_SAMPLES = 5  # set-up is measured this many times per run; the median is reported
BUDGET_S = 170.0  # one invocation per workload ends well inside 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("cmds_per_s", "1/s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
END_TO_END_TIMINGS = ("cmds_per_s", "cmd_p50_ms", "cmd_p90_ms")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """numpy links a threaded OpenBLAS; the benchmark measures one thread."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def spawn(mode: str, workload: str, seed: int, seconds: float, hard_stop: float,
          timeout: float) -> dict:
    """Run worker.py once; return its JSON result plus the measured set-up time.

    The set-up time is scaled to the reference speed by the mean of two speed
    samples: the launcher's just before the spawn and the worker's just after
    its set-up."""
    argv = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--hard-stop", str(hard_stop),
    ]
    speed_before = speed.sample()
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker for {workload} printed no result")
    result = json.loads(lines[-1])
    raw = result["t_first"] - t_spawn
    result["raw_setup_s"] = raw
    result["setup_s"] = raw * speed.REFERENCE_S / statistics.mean(
        (speed_before, result["speed_after"]))
    return result


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
        "blas_threads": 1,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, t0: float) -> dict:
    """All processes for one workload; returns the printed summary record."""
    def left() -> float:
        return BUDGET_S - (time.monotonic() - t0)

    record = {"workload": workload, "seconds": seconds, "trace": int(trace),
              **provenance(seed)}
    if not trace:
        # set-up-only processes before and after the measuring one, so the
        # median spans the whole run rather than one moment of the machine
        def setup_only() -> dict:
            return spawn("setup", workload, seed, seconds, 0, left() - 5)

        before = (SETUP_SAMPLES - 1) // 2
        setups = [setup_only() for _ in range(before)]
        main = spawn("run", workload, seed, seconds, left() - 45, left() - 20)
        setups.append(dict(main))
        setups += [setup_only() for _ in range(SETUP_SAMPLES - 1 - before)]
        main["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        main["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
        main["setup_samples"] = [s["setup_s"] for s in setups]
        record["untraced"] = main
    else:
        untraced = spawn("run", workload, seed, seconds, (left() - 30) / 2, left() / 2 + 5)
        traced = spawn("traced", workload, seed, seconds, left() - 30, left() - 5)
        record["untraced"] = untraced
        record["traced"] = traced
    record.update(numpy=record["untraced"]["numpy"], blas=record["untraced"]["blas"])
    return record


def end_to_end(run: dict) -> dict:
    return {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(record: dict) -> dict:
    from spans import LAYER_METRICS

    untraced, traced = record["untraced"], record["traced"]
    metrics = {name: {"value": traced["layers"][name], "unit": unit}
               for name, unit in LAYER_METRICS}
    for kind in KINDS:
        entry = untraced["kinds"].get(kind, {"count": 0, "time_share": 0.0})
        metrics[f"kind.{kind}.count"] = {"value": entry["count"], "unit": "count"}
        metrics[f"kind.{kind}.time_share"] = {"value": entry["time_share"], "unit": "ratio"}
    metrics["trace.slowdown"] = {
        "value": untraced["cmds_per_s"] / traced["cmds_per_s"], "unit": "x"}
    metrics["trace.spans"] = {"value": traced["spans"] / traced["attempted"], "unit": "count/cmd"}
    return metrics


def print_record(record: dict, metrics: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    w = record["workload"]
    run = record["untraced"]
    samples = {"setup_s": len(run.get("setup_samples", [])), "peak_rss_mb": 1}
    for name in ("cmds_per_s", "cmd_p50_ms", "cmd_p90_ms"):
        samples[name] = run["attempted"]
    layer_samples = record["traced"]["attempted"] if "traced" in record else 1
    print("run " + json.dumps({k: record[k] for k in ("workload", "seconds", "trace")}))
    print("provenance " + json.dumps({k: record[k] for k in (
        "nproc", "python", "numpy", "blas", "git_sha", "seed", "loadavg_start", "blas_threads")}))
    for name, m in metrics.items():
        n = samples.get(name, run["attempted"] if name.startswith("kind.") else layer_samples)
        print(f"{w:<10} {name:<52} {m['value']:>14.6g} {m['unit']:<6} n={n}")
    print(f"{w:<10} {'failed_frac':<52} {run['failed'] / run['attempted']:>14.6g} {'ratio':<6}"
          f" n={run['attempted']}")
    if not record["trace"]:
        print(f"{w:<10} unscaled: " + " ".join(
            f"{name}={run['raw'][name]:.6g}" for name in ("setup_s", *END_TO_END_TIMINGS))
            + f"; speed samples after set-up {1e3 * run['speed_after']:.3f} ms,"
            f" reference {1e3 * speed.REFERENCE_S:.3f} ms")
    for label, r in (("untraced", run), ("traced", record.get("traced"))):
        if r is None:
            continue
        cut = " (cut mid-round)" if r["cut_mid_round"] else ""
        print(f"{w:<10} {label} run: {r['rounds']} rounds in {r['loop_s']:.3f} s{cut};"
              f" {r['attempted']} commands, {r['failed']} failed,"
              f" {r['matched']} matched the reference")
        for kind in KINDS:
            if kind in r["kinds"]:
                k = r["kinds"][kind]
                print(f"{w:<10}   kind {kind:<8} count {k['count']:>6}"
                      f" time_share {k['time_share']:.4f}")
        if r["converged_solves"]:
            print(f"{w:<10}   remez brackets: {r['gaps_over_tol']} of {r['converged_solves']}"
                  f" converged solves are wider than --tol 1e-10; worst relative gap"
                  f" {r['worst_gap']:.3g}")
        for failure in r["failures"]:
            print(f"{w:<10}   FAILED {failure['reason']}: {failure['key']}")
    missing = record.get("traced", {}).get("missing_attributes")
    if missing:
        print(f"{w:<10} not traced (attribute missing): " + ", ".join(missing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compose-approx CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    speed.sample()  # first calls into numpy.polynomial and LAPACK are cold

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    STATE_DIR.mkdir(exist_ok=True)
    for name in names:
        t0 = time.monotonic()
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), t0)
        except BenchError as err:
            print(f"benchmark failed: {err}", file=sys.stderr)
            return 1
        metrics = per_layer(record) if args.trace else end_to_end(record["untraced"])
        print_record(record, metrics)
        result_path = STATE_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
        runs = [record["untraced"]] + ([record["traced"]] if args.trace else [])
        combined["attempted"] += sum(r["attempted"] for r in runs)
        combined["failed"] += sum(r["failed"] for r in runs)
        prefix = "" if len(names) == 1 else f"{name}."
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
