"""Regenerate reference.json: the default seed's reports at this commit.

    python3 perfbench/make_reference.py

Runs every lemma command the benchmark can issue (the regular grid and all
64 flat inputs), the first rounds of the default seed for ``composite`` and
``rate``, and every warm-up command, untimed and with BLAS pinned to one
thread. Each report must pass the invariants; the numbers the checker
compares are stored with the tolerances below. Takes about three minutes.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[var] = "1"

import check  # noqa: E402
import workloads  # noqa: E402
from run import git_sha  # noqa: E402
from worker import STATE_DIR, import_cli, run_command  # noqa: E402

DEFAULT_SEED = 0
ROUNDS = {"composite": 3, "rate": 4}

# |got - expected| <= rel * max(|got|, |expected|) + abs, per report kind;
# a rate report's own noise floor replaces abs when it is larger.
TOLERANCES = {
    "lemma": {"rel": 1e-8, "abs": 1e-12},
    "composite": {"rel": 1e-8, "abs": 1e-12},
    "rate": {"rel": 1e-3, "abs": 1e-13},
    "bestapprox": {"rel": 1e-3, "abs": 1e-13},
}


def commands() -> list:
    cmds = workloads.lemma_grid() + workloads.lemma_flats()
    for name, count in ROUNDS.items():
        for rnd in itertools.islice(workloads.rounds(name, DEFAULT_SEED), count):
            cmds += rnd
    for name in workloads.WORKLOADS:
        cmds += workloads.warmups(name)
    unique = {}
    for cmd in cmds:
        unique.setdefault(cmd.key, cmd)
    return list(unique.values())


def main() -> int:
    cli = import_cli()
    cmds = commands()
    entries = {}
    worst_gap = 0.0
    STATE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="reference-", dir=STATE_DIR) as tmp:
        out_dir = Path(tmp)
        for i, cmd in enumerate(cmds):
            case = f"r{i}"
            rc, stdout, _ = run_command(cli, cmd, out_dir, case)
            if rc != 0:
                print(f"exit {rc!r}: {cmd.key}\n{stdout}", file=sys.stderr)
                return 1
            report = check.read_result(cmd, case, out_dir, stdout)
            reason = check.invariant_failure(cmd, report)
            if reason:
                print(f"{reason}: {cmd.key}", file=sys.stderr)
                return 1
            worst_gap = max(worst_gap, check.bracket_facts(cmd, report)["gap"])
            entries[cmd.key] = check.values(cmd, report)
            if i % 100 == 0:
                print(f"{i}/{len(cmds)}", file=sys.stderr)
    reference = {
        "about": "reports of the default seed; see perfbench/README.md",
        "seed": DEFAULT_SEED,
        "git_sha": git_sha(),
        "worst_converged_remez_gap": worst_gap,
        "tolerances": TOLERANCES,
        "entries": entries,
    }
    check.REFERENCE_PATH.write_text(json.dumps(reference, indent=0) + "\n")
    print(f"wrote {len(entries)} entries to {check.REFERENCE_PATH}; worst converged "
          f"Remez gap {worst_gap:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
