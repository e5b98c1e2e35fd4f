"""The names that the benchmark in `bench/` wraps, imports and calls exist in
`endoring`.  The bench files are only read: they are loaded without writing
bytecode next to them."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


spans = load_bench_module("spans")


def endoring_module(name):
    return importlib.import_module(f"endoring.{name}")


@pytest.mark.parametrize("span", sorted(spans.FUNCTIONS))
def test_wrapped_function_exists(span):
    module, name = spans.FUNCTIONS[span]
    assert callable(getattr(endoring_module(module), name))


@pytest.mark.parametrize("span", sorted(spans.METHODS))
def test_wrapped_method_exists(span):
    module, cls, name = spans.METHODS[span]
    assert name in vars(getattr(endoring_module(module), cls))


def test_cleared_caches_exist():
    discrd = endoring_module("orders").discrd
    path_from_root = endoring_module("btt").path_from_root
    for fn in (discrd, path_from_root):
        assert callable(fn.cache_clear) and callable(fn.cache_info)


@pytest.mark.parametrize(
    "module, name",
    [
        ("pipeline", "TraceLog"),
        ("pipeline", "compute_endomorphism_ring"),
        ("divide", "HiddenOrderOracle"),
        ("errors", "EndoringError"),
        ("cli", "main"),
    ],
)
def test_called_name_exists(module, name):
    """The names `bench/run.py` calls besides the wrapped ones."""
    assert callable(getattr(endoring_module(module), name))


def test_solved_log_has_the_event_keys_the_bench_reads():
    """`bench/run.py` reads `type`, `q`, `n`, `beta` and `answer` of each
    oracle event of a solved log."""
    pipeline, divide = endoring_module("pipeline"), endoring_module("divide")
    o0, fact, hidden, _ = endoring_module("serialize").load_problem(ROOT / "problems" / "p103_worked_example.json")
    log = pipeline.TraceLog()
    pipeline.compute_endomorphism_ring(o0, fact, divide.HiddenOrderOracle(hidden), log)
    oracle_events = [ev for ev in log.events if ev["type"] == "oracle"]
    assert len(oracle_events) == 8
    assert all({"q", "n", "beta", "answer"} <= ev.keys() for ev in oracle_events)


def test_instance_builders_import():
    assert callable(load_bench_module("instances").build)
