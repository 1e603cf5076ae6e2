"""The benchmark's correctness check can fail.

Runs a handful of commands whose keys are in the reference table, checks
that they pass untouched, then perturbs one report value at a time and
asserts that the failed fraction becomes non-zero.

    python3 -m pytest perfbench/test_check.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest

import check
import workloads
from worker import STATE_DIR, import_cli, run_command, summarize

CLI = import_cli()
REFERENCE = check.load_reference()

COMMANDS = {
    "lemma": workloads.lemma_cmd("regular", "exp(x)", 4, 2, ("0.25", "0.5")),
    "composite": workloads.warmups("composite")[0],
    "rate": workloads.warmups("rate")[0],
    "bestapprox": workloads.warmups("rate")[1],
}


@pytest.fixture()
def out_dir():
    STATE_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=STATE_DIR))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_all(out_dir: Path) -> list:
    results = []
    for name, cmd in COMMANDS.items():
        rc, stdout, latency = run_command(CLI, cmd, out_dir, name)
        results.append([cmd, name, rc, stdout, latency])
    return results


def failed_frac(results, out_dir: Path) -> float:
    checks = [check.check(cmd, case, rc, stdout, out_dir, REFERENCE)
              for cmd, case, rc, stdout, _ in results]
    summary = summarize(results, checks, loop_s=1.0)
    return summary["failed"] / summary["attempted"]


def edit_report(out_dir: Path, case: str, edit) -> None:
    (path,) = out_dir.glob(f"{case}-*.json")
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report, allow_nan=True))


def test_unperturbed_reports_pass_and_match_reference(out_dir):
    results = run_all(out_dir)
    assert all(cmd.key in REFERENCE["entries"] for cmd in COMMANDS.values())
    assert failed_frac(results, out_dir) == 0.0


@pytest.mark.parametrize("case, edit", [
    ("lemma", lambda r: r.update(lhs=r["lhs"] * (1 + 1e-6))),  # off the reference
    ("lemma", lambda r: r.update(holds=False)),
    ("composite", lambda r: r.update(lhs=math.nan)),
    ("rate", lambda r: r["leveled"].__setitem__(0, 2 * r["errors"][0])),  # lower > error
])
def test_perturbed_report_fails(out_dir, case, edit):
    results = run_all(out_dir)
    edit_report(out_dir, case, edit)
    assert failed_frac(results, out_dir) > 0


def test_perturbed_stdout_fails(out_dir):
    results = run_all(out_dir)
    for row in results:
        if row[1] == "bestapprox":
            value = float(check.parse_stdout(row[3])["error"])
            row[3] = row[3].replace(f"error {value:.12g}", f"error {value * 1.01:.12g}")
    assert failed_frac(results, out_dir) > 0


def test_nonzero_exit_fails(out_dir):
    results = run_all(out_dir)
    results[0][2] = 3
    assert failed_frac(results, out_dir) > 0
