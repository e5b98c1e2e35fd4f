"""The names that the benchmark in `bench/` wraps, imports and calls exist in
`endoring`.  The bench files are only read: they are loaded without writing
bytecode next to them."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def test_instance_builders_import():
    assert callable(load_bench_module("instances").build)
