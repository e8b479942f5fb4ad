"""The traced benchmark run finds every lprl name that it wraps or reads.

``perfbench/tracing.py`` wraps functions by name and lists each one it
cannot find as missing, and a traced result without those metrics is
incomplete; renaming or removing one of them must fail here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import json, tracing
print(json.dumps({"missing": tracing.install().missing,
                  "names": sorted(tracing.metric_names())}))
"""


def test_tracing_install_misses_no_name():
    done = subprocess.run(
        [sys.executable, "-c", INSTALL], capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), *sys.path])})
    result = json.loads(done.stdout)
    assert result["missing"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the bench.* timings come from run.py, the rest from the tracer
    assert sorted(m["name"] for m in declared if not m["name"].startswith("bench.")) \
        == result["names"]
