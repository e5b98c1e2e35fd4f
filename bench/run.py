"""Benchmark of `endoring`: solve seeded instances with a hidden-order oracle.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads (see BENCHMARK.json for why each exists):

  planted-mixed  the paper's p = 103 instance from `problems/`, then 48
                 planted instances, p in {103, 179, 1019}, q <= 13
  general-r12    the paper's instance, then 14 general-branch instances
                 with r = d in {1, 2}, q in {2, 3, 7, 31, 101, 257, 1009},
                 p = 103

Each solve is cold, as a command-line user pays it: the `discrd` and
`path_from_root` caches are cleared and garbage is collected first.  Rounds
solve every instance once, in a seeded order, until the time is used up, and
each instance reports its median time over the rounds.  Every answer is
compared with the hidden order, and every repetition must give the same
End(E) and the same oracle queries.

A shared host's speed drifts (by up to 1.8x over minutes on a 2-vCPU Xeon
VM), so every time metric is normalized: each timed span is divided by the
time of a fixed stdlib workload (`reference_work`) measured just before and
after it, and multiplied by that workload's time at the host's fast speed,
REF_UNIT_S.  The metrics read as seconds at that speed; the wall seconds
are printed beside them.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1`
untraced and traced rounds alternate and the per-layer metrics of
`spans.py` are printed, and the spans of the last traced round are written
to `bench/out/`.  Lines starting with `#` give the instance count, the
rounds, each instance's median wall and normalized seconds, the host's
speed relative to the reference, and the query and CLI-output digests that
`digests.json` records.  The last line of output is one JSON object.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("planted-mixed", "general-r12")
MODULES = ("btt", "divide", "errors", "lattice", "ntheory", "orders", "padic", "pipeline", "quat", "serialize")
SETUP_REPS = 3


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_package():
    """Import `endoring` and the instance builders afresh from this checkout."""
    for name in list(sys.modules):
        if name == "endoring" or name.startswith("endoring.") or name == "instances":
            del sys.modules[name]
    pkg = importlib.import_module("endoring")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "endoring":
        raise BenchError(f"imported endoring from {pkg.__file__}, not from this checkout")
    mods = {name: importlib.import_module(f"endoring.{name}") for name in MODULES}
    return mods, importlib.import_module("instances")


def setup(workload, seed):
    """(modules, instance builders, instances, seconds) for one set-up;
    the seconds are normalized to the reference speed."""
    u0 = host_unit()
    t0 = perf_counter()
    mods, builders = import_package()
    insts = builders.build(workload, seed, ROOT)
    elapsed = perf_counter() - t0
    return mods, builders, insts, normalized(elapsed, u0, host_unit())


def solve(mods, inst):
    """Solve one instance cold; returns a dict describing the outcome, with
    the wall seconds `time`, the host units measured before and after it
    and the normalized seconds `ref_time`."""
    o0, fact, hidden = inst
    mods["orders"].discrd.cache_clear()
    mods["btt"].path_from_root.cache_clear()
    gc.collect()
    oracle = mods["divide"].HiddenOrderOracle(hidden)
    log = mods["pipeline"].TraceLog()
    u0 = host_unit()
    t0 = perf_counter()
    try:
        end, sols, _ = mods["pipeline"].compute_endomorphism_ring(o0, fact, oracle, log)
    except mods["errors"].EndoringError as exc:
        elapsed = perf_counter() - t0
        u1 = host_unit()
        timing = {"time": elapsed, "units": (u0, u1), "ref_time": normalized(elapsed, u0, u1)}
        return {**timing, "status": "error", "detail": repr(exc), "calls": oracle.calls}
    elapsed = perf_counter() - t0
    u1 = host_unit()
    queries = [(ev["q"], ev["n"], ev["beta"], ev["answer"]) for ev in log.events if ev["type"] == "oracle"]
    return {
        "time": elapsed,
        "units": (u0, u1),
        "ref_time": normalized(elapsed, u0, u1),
        "status": "ok" if end.lattice == hidden.lattice else "wrong",
        "lattice": end.lattice,
        "sols": sols,
        "calls": oracle.calls,
        "queries": queries,
        "digest": hashlib.sha256(json.dumps(queries).encode()).hexdigest(),
        "discrd_cache": mods["orders"].discrd.cache_info(),
        "path_cache": mods["btt"].path_from_root.cache_info(),
    }


# The reference workload does the two kinds of work the program does, in
# about equal shares: Gauss-Jordan elimination of a fixed 6 x 7 matrix of
# Fractions (big-integer gcds, many small objects) and a loop of small-int
# arithmetic (bytecode dispatch).  The host's slow periods slow the first
# more than the program and the second less.  It is stdlib code only, so no
# change to `endoring` changes its time.
REF_MATRIX = [
    [Fraction((7 * i * i + 3 * j**3 + 5 * i * j + 1) % 97 - 48, 1 + (i + 2 * j) % 5) for j in range(7)]
    for i in range(6)
]
# Seconds reference_work takes on a 2-vCPU Intel Xeon VM (Python 3.11) in
# its fast periods; time metrics are scaled to that speed.
REF_UNIT_S = 0.0023
UNIT_REPS = 3


def reference_work():
    sum(i * i % 7 for i in range(20000))
    m = [row[:] for row in REF_MATRIX]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return m


def host_unit():
    """Best of UNIT_REPS timings of reference_work: the host's speed now."""
    best = math.inf
    for _ in range(UNIT_REPS):
        t0 = perf_counter()
        reference_work()
        best = min(best, perf_counter() - t0)
    return best


def normalized(elapsed, unit_before, unit_after):
    """`elapsed` in seconds at the reference speed: divided by the mean of
    the host units measured just before and after it, times REF_UNIT_S.
    Where the host's speed drifted by 1.8x, this ratio moved by about 10%."""
    return elapsed / ((unit_before + unit_after) / 2) * REF_UNIT_S


def sweep(mods, insts, order, tracer=None, light=False):
    """Solve every instance once in the given order; outcomes by instance.
    A light sweep drops the query lists and local solutions, which only the
    first round's metrics read, so that peak RSS does not grow with the
    number of rounds a run fits in."""
    out = [None] * len(insts)
    for i in order:
        if tracer is not None:
            tracer.solve = i
        out[i] = solve(mods, insts[i])
        if light:
            out[i].pop("queries", None)
            out[i].pop("sols", None)
    return out


def deg_bits(alg, queries):
    """Sum over queries of the bit length of nrd(beta)."""
    total = 0
    for _, _, beta, _ in queries:
        nrd = alg.element(*(Fraction(c) for c in beta)).nrd()
        if nrd.denominator != 1:
            raise BenchError("oracle query with a non-integral norm")
        total += nrd.numerator.bit_length()
    return total


def cli_digest(builders):
    """SHA-256 of `endoring compute --deterministic` on the worked example."""
    cli = importlib.import_module("endoring.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["compute", "--input", str(ROOT / builders.WORKED_PROBLEM), "--deterministic"])
    if rc != 0:
        raise BenchError(f"endoring compute exited with {rc}")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def rounds_until(seconds, run_round):
    """Run rounds until the next one would end after `seconds`; at least one."""
    start = perf_counter()
    done = 0
    while True:
        run_round()
        done += 1
        if (perf_counter() - start) * (done + 1) / done > seconds:
            return


def check_rounds(rounds):
    """Failure counts and consistency over all rounds of one instance set.

    Returns (attempted, errors, wrong, consistent); consistent is False when
    an instance gave a different End(E), oracle-call count or query sequence
    in another round."""
    attempted = errors = wrong = 0
    consistent = True
    first = rounds[0]
    for outcomes in rounds:
        for ref, out in zip(first, outcomes):
            attempted += 1
            errors += out["status"] == "error"
            wrong += out["status"] == "wrong"
            if out["status"] != "error" and ref["status"] != "error":
                same = (out["lattice"], out["calls"], out["digest"]) == (ref["lattice"], ref["calls"], ref["digest"])
                consistent &= same
    return attempted, errors, wrong, consistent


def instance_times(rounds, key="ref_time"):
    """Each instance's median time over the rounds."""
    return [statistics.median(r[i][key] for r in rounds) for i in range(len(rounds[0]))]


def workload_digest(outcomes):
    joined = "".join(o.get("digest", "error") for o in outcomes)
    return hashlib.sha256(joined.encode()).hexdigest()


def end_to_end(insts, rounds, setup_times):
    times = instance_times(rounds)
    first = rounds[0]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "sweep_s": (sum(times), "s"),
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.max": (max(times), "s"),
        "oracle_calls": (sum(o["calls"] for o in first), "calls"),
        "oracle_deg_bits": (
            sum(deg_bits(inst[0].algebra, o.get("queries", [])) for inst, o in zip(insts, first)),
            "bits",
        ),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def stage_bounds(outcomes):
    """(calls, proven bound) per search stage over the local solutions."""
    out = {"distance": [0, 0], "path": [0, 0], "bass": [0, 0]}
    for o in outcomes:
        for s in o.get("sols", []):
            calls = s.oracle_calls
            if s.q == s.enlargement.algebra.p:
                continue
            if s.bass:
                out["bass"][0] += calls["bass"]
                out["bass"][1] += 4 * math.ceil(math.log2(s.e + 1))
            else:
                out["distance"][0] += calls["distance"]
                out["distance"][1] += 4 * s.e
                if "path" in calls:
                    out["path"][0] += calls["path"]
                    out["path"][1] += 4 * (s.r * s.q + 1)
    return out


STAGES = {"distance": "pipeline.distance_to_end", "path": "pipeline.find_path_to_end", "bass": "pipeline.bass_search"}
COUNTED = (
    "quat.mul",
    "lattice.hnf",
    "lattice.intersect",
    "lattice.contains",
    "orders.verify_order",
    "orders.radical_idealizer",
    "orders.q_enlarge",
    "orders.is_bass_at",
    "orders.discrd",
    "padic.zero_divisor_mod",
    "padic.splitting_map",
    "padic.lift_vertex_element",
    "pipeline.enumerate_bass_path",
    "pipeline.global_order_from_vertices",
    "pipeline.local_patch",
    "btt.vertex_of_path",
    "ntheory.is_prime",
    "divide.is_divisible",
)
SELF_TIMED = ("quat.mul", "lattice.hnf", "pipeline.find_path_to_end", "pipeline.compute_endomorphism_ring")
TIMED = tuple(n for n in COUNTED if n not in ("quat.mul", "lattice.hnf", "ntheory.is_prime")) + (
    *STAGES.values(),
    "pipeline.generator_lifts",
)


def round_scale(outcomes):
    """Factor that normalizes the span seconds of one round: REF_UNIT_S over
    the median host unit measured around its solves."""
    return REF_UNIT_S / statistics.median(sum(o["units"]) / 2 for o in outcomes)


def per_layer(traced_stats, traced_rounds, untraced_rounds, load_times):
    """Per-layer metrics from the aggregated spans of each traced round;
    span seconds are normalized like the end-to-end times."""
    first = traced_stats[0]

    def stat(stats, name, key):
        return stats.get(name, {}).get(key, 0)

    scales = [round_scale(r) for r in traced_rounds]

    def median_of(name, key):
        return statistics.median(stat(st, name, key) * k for st, k in zip(traced_stats, scales))

    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = (stat(first, name, "calls"), "calls")
    for name in TIMED:
        metrics[f"{name}.s"] = (median_of(name, "s"), "s")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (median_of(name, "self_s"), "s")
    bounds = stage_bounds(traced_rounds[0])
    solved = all(o["status"] != "error" for o in traced_rounds[0])
    for stage, name in STAGES.items():
        calls, bound = bounds[stage]
        if solved and stat(first, name, "oracle_calls") != calls:
            raise BenchError(f"{name}: spans saw {stat(first, name, 'oracle_calls')} oracle calls, solutions report {calls}")
        metrics[f"{name}.oracle_calls"] = (calls, "calls")
        metrics[f"{name}.bound_ratio"] = (calls / bound if bound else 0.0, "ratio")
    for key, cache in (("orders.discrd", "discrd_cache"), ("btt.path_from_root", "path_cache")):
        hits = sum(o[cache].hits for o in traced_rounds[0] if cache in o)
        misses = sum(o[cache].misses for o in traced_rounds[0] if cache in o)
        metrics[f"{key}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["serialize.load_problem.s"] = (statistics.median(load_times), "s")
    metrics["trace.overhead_ratio"] = (sum(instance_times(traced_rounds)) / sum(instance_times(untraced_rounds)), "ratio")
    return metrics


def run(workload, seed, seconds, trace):
    """Run one workload; returns (result object, info lines, spans tracer)."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    setup_times = []
    for _ in range(SETUP_REPS):
        insts = None  # so that peak RSS holds one instance set, not two
        gc.collect()
        mods, builders, insts, elapsed = setup(workload, seed)
        setup_times.append(elapsed)
    digest_cli = cli_digest(builders)
    rng = random.Random(seed)

    rounds = []

    def untraced_round():
        order = list(range(len(insts)))
        rng.shuffle(order)
        rounds.append(sweep(mods, insts, order, light=bool(rounds)))

    tracer = None
    if not trace:
        rounds_until(seconds, untraced_round)
        all_rounds = rounds
        metrics = end_to_end(insts, rounds, setup_times)
    else:
        import spans

        tracer = spans.Tracer()
        namespaces = dict(mods, endoring=sys.modules["endoring"], instances=builders)
        load_times = []
        with tracer.installed(namespaces):
            for _ in range(SETUP_REPS):
                tracer.reset()
                u0 = host_unit()
                builders.worked_instances(ROOT)
                u1 = host_unit()
                load_times.append(normalized(tracer.aggregate()["serialize.load_problem"]["s"], u0, u1))
        traced, stats = [], []

        def paired_round():
            untraced_round()
            order = list(range(len(insts)))
            rng.shuffle(order)
            tracer.reset()
            with tracer.installed(namespaces):
                traced.append(sweep(mods, insts, order, tracer, light=bool(traced)))
            stats.append(tracer.aggregate())

        rounds_until(seconds, paired_round)
        all_rounds = rounds + traced
        metrics = per_layer(stats, traced, rounds, load_times)

    attempted, errors, wrong, consistent = check_rounds(all_rounds)
    info = {
        "workload": workload,
        "seed": seed,
        "instances": len(insts),
        "rounds": len(rounds),
        "error_frac": errors / attempted,
        "wrong_frac": wrong / attempted,
        "consistent": consistent,
        "query_digest": workload_digest(rounds[0]),
        "median_wall_s": [round(t, 4) for t in instance_times(rounds, "time")],
        "median_ref_s": [round(t, 4) for t in instance_times(rounds)],
        "host_speed": round(REF_UNIT_S / statistics.median(sum(o["units"]) / 2 for r in rounds for o in r), 3),
        "worked_query_digest": rounds[0][0].get("digest"),
        "worked_cli_digest": digest_cli,
    }
    result = {
        "correct": errors == 0 and wrong == 0 and consistent,
        "attempted": attempted,
        "failed": errors + wrong,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, info, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result, info, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl", info)
    table = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    for key, value in info.items():
        if key.endswith("_frac"):
            table[key] = (value, "ratio")
        else:
            print(f"# {key}: {value}")
    for name, (value, unit) in table.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
