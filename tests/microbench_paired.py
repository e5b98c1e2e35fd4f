"""Paired timing of microbenchmark bodies: a parent checkout against this
one, both imported in one process.

    PYTHONPATH=src python tests/microbench_paired.py --parent PATH [--rounds N] [NAME ...]

PATH is the root of another source checkout (say, a `git archive` of the
parent commit; this checkout's own root to time it alone); its package is
imported as `endoring_parent` from `PATH/src/endoring`, beside `endoring`
from this checkout.  Minimums of two separate timing runs (as
`pytest-benchmark` reports them) drift with the host's speed by more than
the changes they should resolve, and on a 2-vCPU host cannot resolve a
change under about 40%, so each round here times both sides back to back,
the side that runs first alternating by round.

Each benchmark named in `microbench.PAIRED` (all of them by default) gets
its inputs built in each package (`microbench.general_in`) and its body
from the same function of `microbench`.  A timing is the mean over a loop
of about `--target-ms` milliseconds, the same loop length for both sides.
Each body returns plain data (ints, bools, tuples), and the two sides'
results must be equal.  The script prints, per benchmark, each side's
median over the rounds in microseconds per call, the ratio change/parent
of the medians, the interquartile range [q1, q3] of the per-round ratios
change/parent and the rounds in which the change was faster, then all of it
as one JSON object on the last line.  On a shared host a body the change
does not touch can read a median ratio well away from 1; a ratio whose own
interquartile range holds 1 is no evidence of a change either way.
"""

import argparse
import gc
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import microbench


def import_parent(root: Path, name="endoring_parent"):
    """The package of the checkout at root, imported under `name`."""
    init = root / "src" / "endoring" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return name


def loop_time(fn, n: int) -> float:
    """Seconds per call of fn, over n calls."""
    t0 = perf_counter()
    for _ in range(n):
        fn()
    return (perf_counter() - t0) / n


def calibrate(fn, target_s: float) -> int:
    n = 1
    while loop_time(fn, n) * n < target_s:
        n *= 2
    return n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--target-ms", type=float, default=20.0)
    ap.add_argument("names", nargs="*", help="benchmarks of microbench.PAIRED (default: all)")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2 for the ratios' quartiles")
    names = args.names or list(microbench.PAIRED)
    unknown = [n for n in names if n not in microbench.PAIRED]
    if unknown:
        ap.error(f"not in microbench.PAIRED: {', '.join(unknown)}")
    sides = {
        "parent": microbench.Package(import_parent(args.parent.resolve())),
        "change": microbench.Package(),
    }
    out = {}
    for name in names:
        body, d = microbench.PAIRED[name]
        fns = {side: body(pkg, microbench.general_in(pkg, d)) for side, pkg in sides.items()}
        results = {side: fn() for side, fn in fns.items()}
        if results["parent"] != results["change"]:
            raise AssertionError(f"{name}: parent gives {results['parent']}, change {results['change']}")
        n = calibrate(fns["change"], args.target_ms / 1000)
        times = {"parent": [], "change": []}
        for k in range(args.rounds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                gc.collect()
                times[side].append(loop_time(fns[side], n) * 1e6)
        med = {side: statistics.median(ts) for side, ts in times.items()}
        faster = sum(c < p for p, c in zip(times["parent"], times["change"]))
        q1, _, q3 = statistics.quantiles([c / p for p, c in zip(times["parent"], times["change"])], n=4)
        out[name] = {
            "parent_median_us": round(med["parent"], 3),
            "change_median_us": round(med["change"], 3),
            "ratio": round(med["change"] / med["parent"], 4),
            "ratio_iqr": [round(q1, 4), round(q3, 4)],
            "change_faster_in_rounds": faster,
            "rounds": args.rounds,
            "calls_per_timing": n,
        }
        print(
            f"{name:28s} parent {med['parent']:10.2f} us  change {med['change']:10.2f} us  "
            f"ratio {med['change'] / med['parent']:.3f} [{q1:.3f}, {q3:.3f}]  change faster in {faster}/{args.rounds}",
            flush=True,
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
