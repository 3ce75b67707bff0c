"""Benchmark of the holoset command line, end to end and layer by layer.

    python3 perfbench/run.py --workload lattice --seed 0 --seconds 60 --trace 0

Run from the repository root.  One run makes the workload's inputs from
the seed, warms the bytecode caches with one untimed start-up, and then runs the
workload's pipeline of fresh CLI processes again and again for about
``--seconds`` seconds.  Set-up, ``python -m holoset --help``, is timed
twice first and once more ahead of every pipeline.  Every output is checked; the last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: job_s (wall
time of the pipeline, start-up included, as the sum of each step's
median over the repeats), setup_s (median start-up
of the CLI), points_per_s (point rows written or read per second of
job_s) and peak_rss_mb (largest peak resident set of any child).  With
``--trace 1`` the pipeline runs alternately plainly and through the
traced launcher, and the metrics are the per-layer ones of layers.py.

A line before the result records the run environment: nproc, Python,
numpy and scipy versions, commit, seed, a machine-speed probe before and
after the run, the samples behind each median, and the sha256 of every
output.  The same record is written under .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import harness
import layers
import workloads

ROOT = harness.ROOT
WORK_DIR = ROOT / ".perfbench_work"
FROZEN = harness.HERE / "frozen.json"
DEFAULT_SEED = 0
SETUP_BURST = 2  # set-up timings before the first pipeline
DEADLINE_S = 165.0  # a run must end within 180 s

END_TO_END = [
    ("job_s", "s"),
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def probe_s() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed probe."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _commit(),
    }


def load_frozen(size_name: str) -> dict:
    """Digests and reference values frozen for one size (see freeze.py).

    Without them the frozen-digest, min-gap and covering checks could not
    fail, so a missing or malformed frozen.json stops the run."""
    try:
        frozen = json.loads(FROZEN.read_text(encoding="utf-8"))[size_name]
        if not {"setup", "digests", "certify"} <= frozen.keys():
            raise KeyError("setup, digests or certify")
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"error: cannot read the frozen references in {FROZEN}: {exc!r}")
    return frozen


def measure(steps, work: Path, budget: float, modes: tuple, deadline: float,
            digests, seen: dict, before=None) -> dict:
    """Run and check the pipeline, cycling through `modes` (False plain,
    True traced), until `budget` seconds are used; at least once in each
    mode, and never starting a pipeline that would likely overrun.
    Alternating the modes lets both see the same machine speed; `before`
    runs ahead of each pipeline.  Untraced, the rest of the budget then
    goes to the leading steps that still fit, so that no measuring time
    is left unused; job_s takes each step's median over its own samples."""
    runs = {mode: [] for mode in modes}
    start = time.monotonic()
    for mode in itertools.cycle(modes):
        if before is not None:
            before()
        pipeline = harness.execute(steps, work, deadline, mode)
        harness.verify(steps, pipeline, work, digests, seen)
        runs[mode].append(pipeline)
        if not all(runs.values()):
            continue
        typical = max(r[-1].wall_s for r in runs.values())
        now = time.monotonic()
        if now - start + typical > budget or now + 2 * typical > deadline:
            break
    if modes == (False,):
        last = {name: o.wall_s for name, o in runs[False][-1].outcomes.items()}
        prefix = leading_steps(steps, last, budget - (time.monotonic() - start))
        expected = sum(last[step.name] for step in prefix)
        if prefix and time.monotonic() + 2 * expected < deadline:
            pipeline = harness.execute(prefix, work, deadline, False)
            harness.verify(prefix, pipeline, work, digests, seen)
            runs[False].append(pipeline)
    return runs


def leading_steps(steps, last: dict, left: float) -> list:
    """The longest run of leading steps whose last times (`last`, by step
    name) add up to at most `left` seconds."""
    prefix, expected = [], 0.0
    for step in steps:
        expected += last[step.name]
        if expected > left:
            break
        prefix.append(step)
    return prefix


def run(workload: str, seed: int, seconds: float, trace: bool,
        size_name: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns (result, record)."""
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        return _run(workload, seed, seconds, trace, size_name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, size_name, work) -> tuple[dict, dict]:
    probe_before = probe_s()
    deadline = time.monotonic() + DEADLINE_S
    frozen = load_frozen(size_name)
    plan = workloads.plan(workload, seed, workloads.SIZES[size_name], work,
                          frozen["certify"])
    untimed = []

    def invoke(tag, args):
        timeout = min(harness.STEP_TIMEOUT_S, deadline - time.monotonic())
        outcome = harness.invoke(args, work, timeout, tag=tag)
        untimed.append((tag, outcome))
        return outcome

    invoke("warm-up", ["--help"])
    for step in plan.setup:
        harness.finish(step, invoke(step.name, step.argv), work,
                       frozen["setup"][step.name])
    # the machine's speed drifts over seconds, so set-up is also timed
    # once ahead of every pipeline, not only in one burst
    setup: list[float] = []

    def time_setup():
        setup.append(invoke("setup", ["--help"]).wall_s)

    if not trace:
        for _ in range(SETUP_BURST):
            time_setup()

    digests = frozen["digests"][workload] if seed == DEFAULT_SEED else None
    seen: dict = {}
    modes = (False, True) if trace else (False,)
    runs = measure(plan.steps, work, seconds, modes, deadline, digests, seen,
                   None if trace else time_setup)
    untraced, traced = runs[False], runs.get(True, [])

    outcomes = untimed + [
        (name, o) for p in untraced + traced for name, o in p.outcomes.items()]
    problems = [f"{name}: {msg}" for name, o in outcomes for msg in o.problems]
    failed = sum(bool(o.problems) for _, o in outcomes)
    if trace:
        metrics = layers.layer_metrics(traced, untraced)
    else:
        job_s = harness.job_seconds(untraced)
        points = sum(o.points for o in untraced[0].outcomes.values())
        values = {
            "job_s": job_s,
            "setup_s": statistics.median(setup),
            "points_per_s": points / job_s,
            "peak_rss_mb": max(o.rss_mb for _, o in outcomes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size_name, "environment": environment(),
        "probe_s": {"before": probe_before, "after": probe_s()},
        "samples": {
            "pipeline_s": [p.wall_s for p in untraced if len(p.outcomes) == len(plan.steps)],
            "traced_pipeline_s": [p.wall_s for p in traced],
            "setup_s": setup,
            "step_s": {name: [p.outcomes[name].wall_s for p in untraced
                              if name in p.outcomes]
                       for name in untraced[0].outcomes},
        },
        "error_rate": failed / len(outcomes),
        "outputs": {name: o.digest for name, o in outcomes if o.digest},
        "problems": problems,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "holoset" / "cli.py").is_file():
        print(f"error: no holoset sources under {harness.SRC}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(
        json.dumps({"result": result, "record": record}, indent=2) + "\n", encoding="utf-8")
    for problem in record["problems"]:
        print("FAILED", problem, file=sys.stderr)
    for metric, m in result["metrics"].items():
        print(f"{metric:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'error_rate':34s} {record['error_rate']:>14.6g} "
          f"({result['failed']}/{result['attempted']} invocations)")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
