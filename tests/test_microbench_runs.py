"""`tests/microbench.py` lies outside the default collection; run each of
its benchmarks once, untimed, so that a change to the code it calls cannot
leave it broken unnoticed."""

import subprocess
import sys
from pathlib import Path

import pytest


def test_microbenchmarks_run():
    pytest.importorskip("pytest_benchmark")
    tests = Path(__file__).resolve().parent
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
    proc = subprocess.run(
        cmd + [str(tests / "microbench.py")],
        cwd=tests.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and " skipped" not in proc.stdout
