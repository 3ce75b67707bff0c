"""Print every end-to-end metric of every workload, by name, with units.

    python3 perfbench/report.py [--seed N] [--trace]

Runs run.py once per workload, each a fresh process as the benchmark is
run and for the run_seconds that BENCHMARK.json fixes, and prints job_s,
setup_s, points_per_s, peak_rss_mb and error_rate (failed over attempted
invocations) for lattice and radical.  With --trace it also
runs the traced pass of each workload and prints the per-layer metrics.
Each run's result and record (environment, probe, samples, output
digests) are in .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_seconds() -> int:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc["run_seconds"]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2])["record"]}


def table(runs: dict) -> list[str]:
    names = list(next(iter(runs.values()))["result"]["metrics"])
    width = max(map(len, names + ["error_rate"])) + 2
    rows = [f"{'metric':{width}s}" + "".join(f"{w:>16s}" for w in runs) + "  unit"]
    for name in names:
        cells = []
        for r in runs.values():
            m = r["result"]["metrics"].get(name)
            cells.append(f"{m['value']:>16.6g}" if m else f"{'-':>16s}")
        unit = next(r["result"]["metrics"][name]["unit"]
                    for r in runs.values() if name in r["result"]["metrics"])
        rows.append(f"{name:{width}s}" + "".join(cells) + f"  {unit}")
    rows.append(f"{'error_rate':{width}s}" + "".join(
        f"{r['record']['error_rate']:>16.6g}" for r in runs.values())
        + "  failed/attempted")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seconds = run_seconds()
    passes = (0, 1) if args.trace else (0,)
    collected = {}
    for trace in passes:
        runs = {w: run_once(w, args.seed, seconds, trace) for w in workloads.WORKLOADS}
        collected[f"trace{trace}"] = runs
        print("\n".join(table(runs)))
        print()
    env = next(iter(collected["trace0"].values()))["record"]["environment"]
    print("environment:", json.dumps(env, sort_keys=True))
    failed = sum(r["result"]["failed"] for runs in collected.values() for r in runs.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
