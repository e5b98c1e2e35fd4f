"""`tests/microbench.py` lies outside the default collection; run each of
its benchmarks once, untimed, so that a change to the code it calls cannot
leave it broken unnoticed, and run `tests/microbench_paired.py` for one
short round with this checkout on both sides."""

import json
import os

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


def test_paired_microbenchmarks_run():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")])))
    names = [
        "test_integer_coords",
        "test_splitting_map",
        "test_path_pair_question",
        "test_traced_pair_question",
        "test_traced_path_search",
        "test_traced_path_search_read",
        "test_general_solve",
        "test_bass_prime_orders",
    ]
    cmd = [sys.executable, str(tests / "microbench_paired.py"), "--parent", str(tests.parent), "--rounds", "2"]
    proc = subprocess.run(
        cmd + ["--target-ms", "1"] + names, cwd=tests.parent, capture_output=True, text=True, timeout=600, env=env
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == sorted(names) and all(r["rounds"] == 2 for r in out.values())
    assert all(r["ratio_iqr"][0] <= r["ratio_iqr"][1] for r in out.values())
