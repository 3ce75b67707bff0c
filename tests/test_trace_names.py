"""The benchmark's tracer still finds every name its metrics read.

``perfbench/launcher.py`` wraps names of ``src/`` from outside and skips a
name that is gone, so a renamed function only drops its metric from the
report.  The first test installs the launcher's wrappers and checks that
every span or counter a metric of ``perfbench/layers.py`` reads is
installed.  A wrapper can be installed and still never run: a call site
that bound the name before the install (``from .diagnostics import
min_gap`` in ``cli``) calls the original, and the metric reads 0.  So the
second test runs every subcommand under the wrappers and checks that each
name records a call or a nonzero count.  The install patches modules
process-wide, so both run in a child process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import json
import holoset.cli
import launcher
import layers

tracer = launcher.Tracer()
launcher.install(tracer)
read = {"cli.parse"}
for _name, _unit, _better, (kind, *names) in layers.METRICS:
    if kind in ("total", "self", "calls", "count", "ratio"):
        read.update(names)
read.discard("cli.main")  # installed by launcher.main around the call
"""

CHILD = INSTALL + """
print(json.dumps({"read": sorted(read), "installed": sorted(tracer.installed)}))
"""

# tiny inputs for every subcommand; close-pair's crossings differ along the
# circumference (c != 0), so the continued fraction is expanded
RUN_ALL = INSTALL + """
with open("origami.json", "w") as fh:
    json.dump({"n": 3, "h": [1, 2, 0], "v": [0, 2, 1]}, fh)
with open("pair.json", "w") as fh:
    json.dump({"l": ["1", "0"], "h": ["3/10", "1/50"], "w": "1/50",
               "l_prime": ["1/2+1/2*sqrt(5)", "0"], "h_prime": ["1/10", "1/50"],
               "w_prime": "1/50"}, fh)
runs = [
    ["coprime", "--radius", "5", "--out", "coprime.csv"],
    ["enumerate", "origami.json", "--radius", "4", "--out", "enumerate.csv"],
    ["example", "--radius", "3", "--out", "example.csv"],
    ["example", "--radius", "3", "--oracle", "--out", "oracle.csv"],
    ["diagnose", "example.csv", "--window=-1,-1,1,1", "--resolution", "1/4",
     "--radii", "1,2", "--out", "diagnose.json"],
    ["plot", "example.csv", "--out", "plot.svg"],
    ["close-pair", "pair.json", "--radius", "1/1000", "--out", "pair.out.json"],
    ["hole", "--radius", "1/2", "--out", "hole.json"],
]
codes = [holoset.cli.main(argv) for argv in runs]
seen = {name for name, (calls, *_) in tracer.spans.items() if calls}
seen.update(name for name, n in tracer.counts.items() if n)
print(json.dumps({"codes": codes, "read": sorted(read), "seen": sorted(seen)}))
"""


def _run_child(script: str, cwd=None) -> dict:
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                      os.environ.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_every_traced_metric_name_is_installed():
    doc = _run_child(CHILD)
    assert len(doc["read"]) == 34
    assert sorted(set(doc["read"]) - set(doc["installed"])) == []


def test_every_traced_metric_name_records_work(tmp_path):
    doc = _run_child(RUN_ALL, cwd=tmp_path)
    assert doc["codes"] == [0] * 8
    assert len(doc["read"]) == 34
    assert sorted(set(doc["read"]) - set(doc["seen"])) == []
