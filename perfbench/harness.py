"""Child processes: one holoset CLI invocation each, timed and checked.

Every child is a fresh ``python -m holoset ...`` (or, traced, the
bench's launcher under ``-X importtime``) with single-threaded BLAS, so
numpy's thread pool does not add stray CPU to each start-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launcher.py"
STEP_TIMEOUT_S = 120.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    # bytecode caches should exist, as they do after an install
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Outcome:
    """What one invocation did.  `problems` is empty when it succeeded."""

    wall_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    trace: Optional[dict] = None
    scipy_import_s: Optional[float] = None
    digest: Optional[str] = None
    points: int = 0
    out_bytes: int = 0


def invoke(args: list[str], cwd: Path, timeout: float, trace_to: Optional[Path] = None,
           tag: str = "run") -> Outcome:
    """Run one CLI invocation to completion and time it.

    The child is reaped with os.wait4 for its peak resident set; a timer
    kills it after `timeout` seconds.  Traced, it runs the launcher under
    ``-X importtime`` and leaves its span record in `trace_to`.
    """
    if trace_to is None:
        cmd = [sys.executable, "-m", "holoset", *args]
    else:
        cmd = [sys.executable, "-X", "importtime", str(LAUNCHER), str(trace_to), *args]
    err_path = cwd / f"{tag}.stderr"
    timed_out = threading.Event()
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(wall, usage.ru_maxrss / 1024.0)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if timed_out.is_set():
        outcome.problems.append(f"timed out after {timeout:.0f} s")
    elif proc.returncode != 0:
        tail = [ln for ln in stderr.splitlines() if not ln.startswith("import time:")]
        outcome.problems.append(f"exit code {proc.returncode}: {' | '.join(tail[-3:])}")
    if trace_to is not None:
        outcome.scipy_import_s = scipy_import_s(stderr)
    return outcome


def scipy_import_s(importtime: str) -> float:
    """Seconds spent importing scipy, from ``-X importtime`` output.

    The output lists each module after the modules it imported, indented
    one step deeper per level; read backwards, every line's parent comes
    before it.  The cumulative times of scipy modules with no scipy
    ancestor are summed.
    """
    lines = [ln for ln in importtime.splitlines() if ln.startswith("import time:")]
    total_us = 0
    ancestors: list[tuple[int, bool]] = []  # (depth, inside scipy)
    for line in reversed(lines):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        cumulative = int(parts[1])
        name = parts[2].rstrip()
        stripped = name.lstrip(" ")
        depth = (len(name) - len(stripped)) // 2
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        in_scipy = bool(ancestors) and ancestors[-1][1]
        is_scipy = stripped == "scipy" or stripped.startswith("scipy.")
        if is_scipy and not in_scipy:
            total_us += cumulative
        ancestors.append((depth, in_scipy or is_scipy))
    return total_us / 1e6


def count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return max(sum(1 for _ in fh) - 1, 0)


def finish(step, outcome: Outcome, work: Path, expected_digest: Optional[str],
           checked: Optional[dict] = None) -> None:
    """Check one step's output and record its digest, size and points.

    `checked` maps the sha256 of outputs that already went through the
    step's check to the problems found, so that bytes a repeat writes
    again are not checked again and more of a run is left for measuring.
    """
    if outcome.problems:
        return
    out = work / step.out
    try:
        data = out.read_bytes()
    except OSError as exc:
        outcome.problems.append(f"no output: {exc}")
        return
    outcome.out_bytes = len(data)
    checked = {} if checked is None else checked
    key = hashlib.sha256(data).digest()
    if key not in checked:
        checked[key] = step.check(out)
    outcome.problems.extend(checked[key])
    try:
        outcome.digest = hashlib.sha256(step.stable(data)).hexdigest()
    except ValueError as exc:
        outcome.problems.append(f"cannot digest output: {exc}")
        return
    if expected_digest is not None and outcome.digest != expected_digest:
        outcome.problems.append("digest differs from the frozen digest")
    if step.out.endswith(".csv"):
        outcome.points = count_rows(out)
    elif step.reads:
        outcome.points = count_rows(work / step.reads)


@dataclass
class Pipeline:
    wall_s: float
    outcomes: dict  # step name -> Outcome


def job_seconds(pipelines: list) -> float:
    """Wall time of one run of the pipeline: the sum over its steps of
    each step's median wall time across the repeats that ran it (the last
    repeat of a run may hold only the leading steps).  A median per step
    rejects a slow spell that a median over whole pipelines would keep.
    It is not the minimum: on a shared machine a step also runs faster
    than usual at times, so its fastest repeat is an extreme sample, and
    over seeds the sum of minima spread more than the sum of medians."""
    names = pipelines[0].outcomes
    return sum(
        statistics.median(p.outcomes[name].wall_s for p in pipelines if name in p.outcomes)
        for name in names)


def execute(steps, work: Path, deadline: float, traced: bool) -> Pipeline:
    """Run the steps in order, timing the whole pipeline.  Nothing is
    checked here, so the timed region holds only the program's work."""
    outcomes = {}
    for step in steps:  # a stale output must not pass for a fresh one
        (work / step.out).unlink(missing_ok=True)
        (work / f"{step.name}.trace.json").unlink(missing_ok=True)
    start = time.perf_counter()
    for step in steps:
        trace_to = work / f"{step.name}.trace.json" if traced else None
        timeout = min(STEP_TIMEOUT_S, deadline - time.monotonic())
        outcomes[step.name] = invoke(step.argv, work, timeout, trace_to, step.name)
    wall = time.perf_counter() - start
    if traced:
        for step in steps:
            outcomes[step.name].trace = read_trace(work / f"{step.name}.trace.json")
    return Pipeline(wall, outcomes)


def read_trace(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def verify(steps, pipeline: Pipeline, work: Path, frozen: Optional[dict],
           seen: dict) -> int:
    """Check every output of a pipeline; return how many steps failed.

    `frozen` maps step names to digests frozen for this seed (or None);
    `seen` holds each step's digest from earlier pipelines of the run, so
    a run also checks that repeated invocations give identical bytes, and
    under ("checked", step name) what finish() already checked.
    """
    failed = 0
    for step in steps:
        outcome = pipeline.outcomes[step.name]
        finish(step, outcome, work,
               None if frozen is None else frozen.get(step.name, "missing"),
               seen.setdefault(("checked", step.name), {}))
        if outcome.digest is not None:
            if seen.setdefault(step.name, outcome.digest) != outcome.digest:
                outcome.problems.append("output differs between repeats")
        failed += bool(outcome.problems)
    return failed

