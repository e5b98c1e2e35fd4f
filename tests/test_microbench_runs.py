"""Run every body of `tests/microbench.py` through `tests/microbench_paired.py`
for two short rounds, with this checkout on both sides, so that a change to
the code a body calls cannot leave it broken unnoticed."""

import json
import os

import subprocess
import sys
from pathlib import Path

import microbench


def test_paired_microbenchmarks_run():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(tests / "microbench_paired.py"), "--parent", str(tests.parent), "--rounds", "2"]
    proc = subprocess.run(cmd + ["--target-ms", "1"], cwd=tests.parent, capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == sorted(microbench.PAIRED) and all(r["rounds"] == 2 for r in out.values())
    assert all(r["ratio_iqr"][0] <= r["ratio_iqr"][1] for r in out.values())
