"""Tests of the benchmark itself.  Run from the checkout root with

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, info, _ = run.run(workload, seed=1, seconds=0, trace=trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert info["error_frac"] == 0 and info["wrong_frac"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


def test_traced_solves_match_untraced():
    mods, builders, insts, _ = run.setup("planted-mixed", seed=3)
    order = list(range(len(insts)))
    plain = run.sweep(mods, insts, order)
    discrd = mods["orders"].discrd
    tracer = spans.Tracer()
    with tracer.installed(dict(mods, endoring=sys.modules["endoring"], instances=builders)):
        traced = run.sweep(mods, insts, order, tracer)
    for a, b in zip(plain, traced):
        assert a["status"] == b["status"] == "ok"
        assert (a["lattice"], a["calls"], a["digest"]) == (b["lattice"], b["calls"], b["digest"])
    stats = tracer.aggregate()
    assert stats["divide.is_divisible"]["calls"] == sum(o["calls"] for o in plain)
    assert stats["pipeline.compute_endomorphism_ring"]["calls"] == len(insts)
    # the originals are back in every namespace
    assert mods["orders"].discrd is discrd and mods["pipeline"].discrd is discrd


def test_general_instances_reach_path_search_at_r_equal_d():
    mods, builders, insts, _ = run.setup("general-r12", seed=5)
    seen = []
    for inst in insts[1:]:
        out = run.solve(mods, inst)
        assert out["status"] == "ok"
        (sol,) = [s for s in out["sols"] if s.q != builders.GENERAL_P]
        d = sol.e // 3
        assert not sol.bass and sol.r == d and len(sol.gamma) == d and "path" in sol.oracle_calls
        seen.append((sol.q, d))
    assert seen == [(q, d) for q in builders.GENERAL_QS for d in (1, 2)]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "planted-mixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
