"""The parts of the planner that the benchmark's child process reads.

``perfbench/child.py`` plans one mission, checks the returned front against
the search space and, with ``--trace``, wraps the planner's functions and
compares the front with the exact one.  It reads ``entry.chromosome``,
``objectives.as_tuple()``, ``space.clusters``, the evaluation cache and
``brute_force_front(space, cache)``, so a change to those types shows up
here rather than only in a full benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_child_run_is_clean(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "--mission", "fixtures/minimal.kanoa",
         "--out", str(tmp_path), "--seed", "0", "--config", "2,2,4,1", "--trace"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert "error" not in record, record.get("traceback")
    assert record["problems"] == []
    assert record["trace_missing"] == []
    assert record["trace_errors"] == []
    layers = record["layers"]
    assert layers["optimizer.hv_ratio"] > 0
    assert layers["optimizer.distinct"] > 0
    assert layers["scheduling.calls"] > 0
    assert (tmp_path / "spans.json").exists()
