"""The benchmark still runs against the package: one traced table of
`heavy_poisson` through `perfbench/run.py`.

The traced run reads `RunResult.ledgers` row by row, adds each `World.step`
row's counts into a JSON-dumped counter and rebinds `engine.aggregate` and
`engine.make_allocator`, so a refactor that breaks any of those fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_heavy_poisson_run_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "heavy_poisson",
           "--seed", "1", "--seconds", "0", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
