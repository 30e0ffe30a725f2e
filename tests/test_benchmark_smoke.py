"""The benchmark still runs against the package: one traced table of each
workload through `perfbench/run.py`.

The traced run reads `RunResult.ledgers` row by row, adds each `World.step`
row's counts into a JSON-dumped counter and rebinds `engine.aggregate` and
`engine.make_allocator`, so a refactor that breaks any of those fails here.
Its self-check fails the run when a required span recorded no call, and
`trace_unlimited_cli` also requires the CLI's spans.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["heavy_poisson", "trace_unlimited_cli"])
def test_traced_run_is_correct(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
