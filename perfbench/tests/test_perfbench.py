"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run every workload at smoke size, traced and untraced, check that
corrupted outputs and failing invocations count as failed, and check the
tracer's self-time arithmetic on a hand-built span tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
import launcher  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics that must show work on each workload
EXERCISED = {
    "lattice": ["coprime.filter_s", "exact.point_calls", "exact.pointset_s",
                "exact.write_csv_rows", "origami.enumerate_s", "origami.directions",
                "origami.monodromy_s"],
    "radical": ["double_cover.closed_form_s", "double_cover.oracle_s",
                "double_cover.signs_per_point", "exact.compare_calls",
                "exact.sign_calls", "exact.pointset_s",
                "diagnostics.min_gap_s", "diagnostics.covering_s",
                "diagnostics.growth_s", "diagnostics.covering_centres",
                "close_pair.solve_s", "close_pair.inhom_s", "close_pair.cf_terms",
                "coprime.hole_s", "coprime.verify_s", "coprime.cert_digits",
                "exact.read_csv_rows", "cli.render_svg_s"],
}


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.METRICS]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_end_to_end(workload):
    result, record = run.run(workload, run.DEFAULT_SEED, 0, False, "smoke")
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 7
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(record["environment"]) >= {"nproc", "python", "numpy", "scipy", "commit"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_traced(workload):
    result, record = run.run(workload, 7, 0, True, "smoke")
    assert result["correct"], record["problems"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, *_ in layers.METRICS]
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    assert metrics["cli.import_scipy_s"]["value"] < metrics["cli.import_s"]["value"]


def _smoke_lattice(tmp_path):
    plan = workloads.plan("lattice", run.DEFAULT_SEED, workloads.SMOKE, tmp_path)
    steps = plan.steps[:2]
    return steps, harness.execute(steps, tmp_path, time.monotonic() + 120, False)


def _drop_last_row(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _move_last_row_out_of_the_ball(path: Path) -> None:
    # (m + 1, 1) is primitive and sorts last, so only the norm is wrong
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    m = max(int(line.split(",")[0]) for line in lines[1:])
    lines[-1] = f"{m + 1},1,{m + 1}.0,1.0,UU\n"
    path.write_text("".join(lines), encoding="utf-8")


def _change_a_float(path: Path) -> None:
    # checks ignore the float columns; only the frozen digest sees this
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    x, y, xf, yf, tag = lines[1].rstrip("\n").split(",")
    lines[1] = ",".join((x, y, xf + "1", yf, tag)) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("corrupt,expect", [
    (_drop_last_row, "Moebius"),
    (_move_last_row_out_of_the_ball, "longer than the radius"),
    (_change_a_float, "frozen digest"),
])
def test_corrupted_output_counts_as_failed(tmp_path, corrupt, expect):
    steps, pipeline = _smoke_lattice(tmp_path)
    corrupt(tmp_path / "coprime.csv")
    frozen = run.load_frozen("smoke")["digests"]["lattice"]
    assert harness.verify(steps, pipeline, tmp_path, frozen, {}) == 1
    assert any(expect in p for p in pipeline.outcomes["coprime"].problems)
    assert not pipeline.outcomes["coprime-gcd"].problems


def _replace_row(path: Path, tag: str, new_row) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.rstrip("\n").endswith("," + tag))
    lines[i] = ",".join(new_row(lines[i].split(","))) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _uv_out_of_the_ball(row):
    # the same family, a lattice translate far outside the ball
    a, b, d = checks.parse_exact(row[0])
    return [f"{a.numerator - 100}/1+{b.numerator}/{b.denominator}*sqrt({d})", *row[1:4], "UV"]


@pytest.mark.parametrize("tag,new_row,expect", [
    ("UV", _uv_out_of_the_ball, "outside the radius"),
    ("UU", lambda row: ["2", "0", "2.0", "0.0", "UU"], "not a primitive"),
])
def test_example_rows_must_lie_in_the_ball_and_be_primitive(tmp_path, tag, new_row, expect):
    plan = workloads.plan("radical", run.DEFAULT_SEED, workloads.SMOKE, tmp_path)
    step = plan.steps[0]
    assert step.name == "example"
    pipeline = harness.execute([step], tmp_path, time.monotonic() + 120, False)
    _replace_row(tmp_path / step.out, tag, new_row)
    assert harness.verify([step], pipeline, tmp_path, None, {}) == 1
    assert any(expect in p for p in pipeline.outcomes[step.name].problems)


def test_missing_frozen_references_stop_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "FROZEN", tmp_path / "frozen.json")
    with pytest.raises(SystemExit, match="frozen references"):
        run.run("lattice", run.DEFAULT_SEED, 0, False, "smoke")
    (tmp_path / "frozen.json").write_text('{"full": {}}', encoding="utf-8")
    with pytest.raises(SystemExit, match="frozen references"):
        run.load_frozen("smoke")


def test_changed_repeat_counts_as_failed(tmp_path):
    steps, pipeline = _smoke_lattice(tmp_path)
    seen = {"coprime": "0" * 64}
    assert harness.verify(steps, pipeline, tmp_path, None, seen) == 1
    assert pipeline.outcomes["coprime"].problems == ["output differs between repeats"]


def test_failing_invocation_counts_as_failed(tmp_path):
    step = workloads.Step("bad", ["coprime", "--radius", "0", "--out", "x.csv"],
                          "x.csv", lambda p: [])
    pipeline = harness.execute([step], tmp_path, time.monotonic() + 60, False)
    assert harness.verify([step], pipeline, tmp_path, None, {}) == 1
    assert pipeline.outcomes["bad"].problems[0].startswith("exit code 2")


def test_job_seconds_take_each_steps_median_over_its_own_samples():
    def pipeline(**walls):
        return harness.Pipeline(sum(walls.values()),
                                {n: harness.Outcome(w, 1.0) for n, w in walls.items()})
    full = [pipeline(a=1.0, b=4.0), pipeline(a=3.0, b=6.0), pipeline(a=2.0, b=5.0)]
    partial = pipeline(a=10.0)  # the last repeat of a run may stop early
    assert harness.job_seconds(full) == 2.0 + 5.0
    assert harness.job_seconds(full + [partial]) == 2.5 + 5.0


def test_leading_steps_fill_what_is_left_of_the_budget():
    steps = [types.SimpleNamespace(name=n) for n in "abc"]
    last = {"a": 2.0, "b": 3.0, "c": 1.0}
    assert [s.name for s in run.leading_steps(steps, last, 5.5)] == ["a", "b"]
    assert [s.name for s in run.leading_steps(steps, last, 10.0)] == ["a", "b", "c"]
    assert run.leading_steps(steps, last, 1.0) == []


def test_self_time_of_hand_built_span_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tr = launcher.Tracer(clock=lambda: next(ticks))
    tr.enter("a")
    tr.enter("b")
    tr.enter("c")
    tr.exit()
    tr.exit()
    tr.enter("d")
    tr.exit()
    tr.exit()
    assert tr.spans == {
        "a": [1, 10.0, 3.0],
        "b": [1, 3.0, 2.0],
        "c": [1, 1.0, 1.0],
        "d": [1, 4.0, 4.0],
    }


def test_nested_spans_of_one_name_count_once():
    # a [0, 10] holds a [2, 5]
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    tr = launcher.Tracer(clock=lambda: next(ticks))
    tr.enter("a")
    tr.enter("a")
    tr.exit()
    tr.exit()
    assert tr.spans == {"a": [2, 10.0, 10.0]}


def test_self_time_survives_merging_invocations():
    one = {"spans": {"f": [1, 5.0, 2.0]}, "counts": {"n": 3}, "installed": ["f", "n"]}
    two = {"spans": {"f": [2, 1.0, 0.5]}, "counts": {}, "installed": ["f", "n"]}
    merged = layers.merge([one, two])
    assert layers._value(("self", "f"), merged) == 2.5
    assert layers._value(("calls", "f"), merged) == 3
    assert layers._value(("count", "n"), merged) == 3


def test_missing_or_broken_names_go_unreported():
    tr = launcher.Tracer()
    module = types.SimpleNamespace(present=lambda: [1, 2])
    launcher.patch(tr, module, "absent", lambda f: f, ("x.absent",))
    launcher.patch(tr, module, "present", lambda f: tr.span("x.present", f),
                   ("x.present",))
    launcher.patch(tr, module, "present", lambda f: f, ("x.broken",))
    tr.count("x.broken", lambda: 1 // 0)
    assert module.present() == [1, 2]
    doc = tr.to_json_dict()
    assert doc["installed"] == ["x.present"]
    merged = layers.merge([doc])
    assert layers._value(("total", "x.absent"), merged) is None
    assert layers._value(("count", "x.broken"), merged) is None
    assert layers._value(("calls", "x.present"), merged) == 1


def test_scipy_import_time_counts_top_level_scipy_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |         50 |       numpy.core",
        "import time:       200 |        350 |   scipy",
        "import time:        10 |         10 |     scipy.spatial._ckdtree",
        "import time:        20 |         30 |   scipy.spatial",
        "import time:         5 |        400 | holoset.diagnostics",
        "some warning",
    ])
    assert harness.scipy_import_s(text) == pytest.approx(380e-6)


@pytest.mark.parametrize("r,max_gcd", [
    (Fraction(1), 1), (Fraction(7), 1), (Fraction(23, 2), 3), (Fraction(17, 3), 2)])
def test_moebius_count_matches_brute_force(r, max_gcd):
    m = r.numerator // r.denominator
    brute = sum(
        1
        for x in range(-m, m + 1)
        for y in range(-m, m + 1)
        if (x or y) and x * x + y * y <= r * r and gcd(x, y) <= max_gcd
    )
    assert checks.gcd_filtered_count(r, max_gcd) == brute


def test_moebius_count_reproduces_the_frozen_radius_200_count():
    assert checks.gcd_filtered_count(Fraction(200), 1) == 76360


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
