"""Correctness checks for the reports the benchmark's commands produce.

A command passes when it exits 0 and its report satisfies the invariants of
its kind:

* every number in the report is finite;
* ``verify lemma`` reports ``holds``;
* a Remez result (each degree of ``verify rate``, and ``bestapprox``) has
  ``lower <= error``; a converged ``bestapprox`` also has ``error - lower``
  within ``--tol`` (relative, above an absolute floor of 1e-13);
* when the command's key is in the committed reference table, its values
  match the table within the tolerances stored with the table.

The checks run after the timed loop, on reports kept in a scratch directory.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
CLI_TOL = 1e-10  # the CLI's default --tol; the benchmark passes no --tol


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def parse_stdout(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def read_result(cmd, case: str, out_dir: Path, stdout: str) -> dict:
    """The command's report: its JSON file, or parsed stdout for bestapprox."""
    if cmd.check == "bestapprox":
        fields = parse_stdout(stdout)
        return {
            "error": float(fields["error"]),
            "lower": float(fields["lower"]),
            "iterations": int(fields["iterations"]),
            "converged": fields["converged"] == "true",
        }
    (path,) = out_dir.glob(f"{case}-*.json")
    with open(path) as fh:
        return json.load(fh)


def values(cmd, report: dict) -> list[float]:
    """The numbers compared against the reference table."""
    if cmd.check == "lemma":
        return [report["lhs"], report["rhs"]]
    if cmd.check == "composite":
        return [report["lhs"], report["f_norm"], *report["g_norms"], report["rhs_sans_C"]]
    if cmd.check == "rate":
        return list(report["errors"])
    return [report["error"], report["lower"]]


def _remez_brackets(cmd, report: dict):
    """(error, lower, converged, absolute floor) per Remez solve."""
    if cmd.check == "rate":
        floor = report["noise_floor"]
        for err, low, conv in zip(report["errors"], report["leveled"], report["converged"]):
            yield err, low, conv, floor
    elif cmd.check == "bestapprox":
        yield report["error"], report["lower"], report["converged"], 1e-13


def invariant_failure(cmd, report: dict) -> str | None:
    if not all(math.isfinite(v) for v in _numbers(report)):
        return "non-finite value in report"
    if cmd.check == "lemma" and report["holds"] is not True:
        return "lemma does not hold"
    for err, low, conv, floor in _remez_brackets(cmd, report):
        if low > err + floor:
            return f"lower bound {low!r} exceeds error {err!r}"
        # Only the polished single-degree solve promises a converged bracket
        # within --tol; `verify rate` reports parabola-sharpened grid maxima,
        # whose gaps are counted by bracket_facts instead (see README.md).
        if cmd.check == "bestapprox" and conv and err - low > CLI_TOL * err + floor:
            return f"converged bracket [{low!r}, {err!r}] wider than --tol {CLI_TOL:g}"
    return None


def reference_failure(got: list[float], expected: list[float], tol: dict,
                      floor: float = 0.0) -> str | None:
    if len(got) != len(expected):
        return f"reference has {len(expected)} values, report has {len(got)}"
    abs_tol = max(tol["abs"], floor)
    for i, (a, b) in enumerate(zip(got, expected)):
        if abs(a - b) > tol["rel"] * max(abs(a), abs(b)) + abs_tol:
            return f"value {i}: {a!r} differs from reference {b!r}"
    return None


def bracket_facts(cmd, report: dict) -> dict:
    """Worst relative gap (error - lower - floor) / error of the converged
    Remez solves, and how many of them are wider than the CLI's default --tol
    above their absolute floor."""
    solves = [(err, low, floor) for err, low, conv, floor in _remez_brackets(cmd, report)
              if conv and err > 0]
    return {
        "gap": max((max(0.0, err - low - floor) / err for err, low, floor in solves),
                   default=0.0),
        "converged_solves": len(solves),
        "over_tol": sum(err - low > CLI_TOL * err + floor for err, low, floor in solves),
    }


def check(cmd, case: str, rc, stdout: str, out_dir: Path, reference: dict) -> tuple[str | None, dict]:
    """Return (failure reason or None, facts about the check)."""
    facts = {"matched": False, "gap": 0.0, "converged_solves": 0, "over_tol": 0}
    if rc != 0:
        return f"exit status {rc!r}", facts
    try:
        report = read_result(cmd, case, out_dir, stdout)
    except (OSError, KeyError, ValueError) as err:
        return f"unreadable report: {err}", facts
    tolerances = reference["tolerances"]
    reason = invariant_failure(cmd, report)
    if reason:
        return reason, facts
    facts.update(bracket_facts(cmd, report))
    expected = reference["entries"].get(cmd.key)
    if expected is not None:
        facts["matched"] = True
        floor = report.get("noise_floor", 0.0) if cmd.check == "rate" else 0.0
        reason = reference_failure(values(cmd, report), expected, tolerances[cmd.check], floor)
    return reason, facts
