"""The benchmark's tracer still finds every name its metrics read.

``perfbench/launcher.py`` wraps names of ``src/`` from outside and skips a
name that is gone, so a renamed function only drops its metric from the
report.  This test installs the launcher's wrappers and checks that every
span or counter a metric of ``perfbench/layers.py`` reads is installed.
The install patches modules process-wide, so it runs in a child process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
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
print(json.dumps({"read": sorted(read), "installed": sorted(tracer.installed)}))
"""


def test_every_traced_metric_name_is_installed():
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                      os.environ.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    doc = json.loads(out)
    assert len(doc["read"]) == 34
    assert sorted(set(doc["read"]) - set(doc["installed"])) == []
