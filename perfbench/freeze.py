"""Freeze the digests and reference values that run.py checks against.

    python3 perfbench/freeze.py

For both sizes it runs every workload once at the default seed and
records the sha256 of each output, and runs ``diagnose`` over the
double-cover CSV at every window offset to record the min-gap pair and
the covering radius.  The result is frozen.json.  Run it only when the
program's outputs are meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import harness
import workloads
from run import DEFAULT_SEED, FROZEN, WORK_DIR

TIMEOUT_S = 600.0


def _require(name: str, outcome: harness.Outcome) -> None:
    if outcome.problems:
        raise SystemExit(f"{name}: {'; '.join(outcome.problems)}")


def freeze(size_name: str, work: Path) -> dict:
    size = workloads.SIZES[size_name]
    frozen = {"setup": {}, "digests": {}, "certify": {"covering": {}}}
    for workload in workloads.WORKLOADS:
        plan = workloads.plan(workload, DEFAULT_SEED, size, work)
        for step in plan.setup:
            outcome = harness.invoke(step.argv, work, TIMEOUT_S, tag=step.name)
            harness.finish(step, outcome, work, None)
            _require(step.name, outcome)
            frozen["setup"][step.name] = outcome.digest
        pipeline = harness.execute(plan.steps, work, time.monotonic() + TIMEOUT_S, False)
        harness.verify(plan.steps, pipeline, work, None, {})
        for name, outcome in pipeline.outcomes.items():
            _require(name, outcome)
        frozen["digests"][workload] = {
            name: o.digest for name, o in pipeline.outcomes.items()}

    # points.csv is still in `work` from the set-up of radical
    pairs = set()
    for k in range(len(workloads.WINDOW_OFFSETS)):
        window = workloads.window_arg(size, k)
        args = ["diagnose", "points.csv", "--window=" + window,
                "--resolution", str(size.resolution), "--radii", "1",
                "--out", "reference.json"]
        outcome = harness.invoke(args, work, TIMEOUT_S, tag="reference")
        _require("reference " + window, outcome)
        doc = json.loads((work / "reference.json").read_text(encoding="utf-8"))
        frozen["certify"]["covering"][window] = doc["covering_radius"]["radius"]
        pairs.add(json.dumps(doc["min_gap"]["pair"]))
    if len(pairs) != 1:
        raise SystemExit("min-gap pair depends on the window")
    frozen["certify"]["min_gap_pair"] = json.loads(pairs.pop())
    return frozen


def main() -> int:
    WORK_DIR.mkdir(exist_ok=True)
    doc = {"default_seed": DEFAULT_SEED}
    for size_name in ("full", "smoke"):
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            doc[size_name] = freeze(size_name, Path(tmp))
    FROZEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FROZEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
