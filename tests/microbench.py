"""Microbenchmark bodies of the layers that lead a profile of the benchmark's
workloads, timed in pairs by `tests/microbench_paired.py`:

    PYTHONPATH=src python tests/microbench_paired.py --parent PATH [--rounds N] [NAME ...]

times each body named in `PAIRED` (all of them by default) in two copies of
the package in one process, PATH's (the root of another checkout, say a
`git archive` of the parent commit) and this checkout's, and checks that
both give the same result.  To time one checkout alone, pass its own root
as PATH: both sides then run the same code, and the ratios read the host's
spread.  `tests/test_microbench_runs.py` runs every body that way for two
short rounds, so that none goes stale.

`PAIRED` holds one body for each layer that leads a profile of a
`bench/run.py` sweep (cProfile over a seed-1 sweep after a warm-up sweep,
ROADMAP Baseline), timed as a solve runs it:
- the path search, which leads general-r12: `test_traced_path_search`,
  `test_traced_path_search_read` (with one read of its events after it)
  and `test_scanned_question` (one question of a level's scan);
- `q_enlarge`, which leads planted-mixed and comes next on general-r12:
  `test_q_enlarge_through_stall`, and `test_bass_prime_orders` with the
  radical and `is_bass_at` at a Bass prime;
- `global_order_from_vertices`: `test_local_patch` (its patch) and
  `test_verify_order`;
- `splitting_map`: `test_splitting_map`;
- `ReducedBasis` with its LLL: `test_reduced_basis`;
and a whole solve, `test_general_solve`.  Helpers of a microsecond or less
and routes that no program path takes have no body: a change to them shows
in the solve.

A body is a function of a package's modules (`Package`) and of the general
instance rebuilt in that package (`general_in`) that returns the function
to time, so that the same body runs against both copies.  The inputs are
`planted.general_instance` at q = 1009 with d = 1 and d = 2 (p = 103,
Random(1)) and the level-3 and level-3^4 Eichler orders of
`planted.bass_instance` (p = 103, Random(3)).
"""

import importlib
import random
from functools import cache

import planted
from endoring.quat import QuaternionAlgebra

Q = 1009


class Package:
    """The modules of one copy of the package, imported under `name`."""

    def __init__(self, name="endoring"):
        for mod in ("divide", "lattice", "orders", "padic", "pipeline", "quat"):
            setattr(self, mod, importlib.import_module(f"{name}.{mod}"))


@cache
def general_lattices(d):
    """(hidden, O_0) lattices, the word and the factorization of discrd(O_0)
    of `planted.general_instance` at q = 1009, distance d, p = 103,
    Random(1)."""
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, fact, word = planted.general_instance(alg, Q, d, random.Random(1))
    return hidden.lattice, o0.lattice, word, fact


def general_in(pkg, d):
    """(hidden, O_0, O_q, word) of the general instance at distance d, each
    order verified in the package pkg from its lattice."""
    hidden, o0, word, _ = general_lattices(d)
    alg = pkg.quat.QuaternionAlgebra.for_prime(103)

    def order(lat):
        return pkg.orders.verify_order(pkg.lattice.Lattice4(lat.den, lat.cols), alg)

    o0 = order(o0)
    return order(hidden), o0, pkg.orders.q_enlarge(o0, Q), word


@cache
def eichler_lattice(depth):
    """O_0's lattice of a level-3^depth Eichler order in a random maximal
    order, p = 103 (`planted.bass_instance`, Random(3))."""
    o0, _, _ = planted.bass_instance(103, 3, depth, random.Random(3))
    return o0.lattice


def eichler_in(pkg, depth):
    """That lattice rebuilt in the package pkg, and its algebra: an order
    verified from it builds its table and Gram matrices anew."""
    lat = eichler_lattice(depth)
    return pkg.lattice.Lattice4(lat.den, lat.cols), pkg.quat.QuaternionAlgebra.for_prime(103)


def body_verify_order(pkg, g):
    """The ring check of O_q at q = 1009: its table and the integrality of
    each basis element's trace and norm.  Returns the table."""
    _, _, oq, _ = g
    return lambda: pkg.orders.verify_order(oq.lattice, oq.algebra).table


def body_reduced_basis(pkg, g):
    """O_0's reduced basis, as a solve forms it once: the LLL of the norm
    form's Gram matrix and the adjugate of the reduced basis, for the
    level-3^4 Eichler order, verified once.  The general instance g is not
    read.  Returns the reduced basis's columns, `_num` and `_det`."""
    o0 = pkg.orders.verify_order(*eichler_in(pkg, 4))

    def reduce():
        rb = pkg.pipeline.ReducedBasis(o0)
        return rb._cols, rb._num, rb._det

    return reduce


def body_q_enlarge_through_stall(pkg, g):
    """`q_enlarge` of the level-3 Eichler order at 3, which reaches the
    hereditary stall: the radical, its multipliers and the stall's step, on
    a fresh order with the `discrd` cache cleared.  The general instance g
    is not read.  Returns O_3's lattice as (den, columns)."""
    lat, alg = eichler_in(pkg, 1)
    orders = pkg.orders

    def enlarge():
        orders.discrd.cache_clear()
        oq = orders.q_enlarge(orders.verify_order(lat, alg), 3).lattice
        return oq.den, oq.cols

    return enlarge


def body_bass_prime_orders(pkg, g):
    """The order layer at a Bass prime as a solve runs it: the 3-radical,
    the Bass test and the 3-enlargement given the same radical, on a fresh
    copy of the level-3^4 Eichler order with the `discrd` cache cleared.
    The general instance g is not read.  Returns the Bass answer and O_3's
    lattice as (den, columns)."""
    lat, alg = eichler_in(pkg, 4)
    orders = pkg.orders

    def run():
        orders.discrd.cache_clear()
        o0 = orders.verify_order(lat, alg)
        radical = orders.q_radical(o0, 3)
        bass = orders.is_bass_at(o0, 3, radical)
        oq = orders.q_enlarge(o0, 3, radical).lattice
        return bass, oq.den, oq.cols

    return run


def body_splitting_map(pkg, g):
    """The splitting map of O_q mod q^3 at q = 1009.  Returns the matrix
    units' coordinates and the inverse transfer matrix."""
    _, _, oq, _ = g

    def split():
        sm = pkg.padic.splitting_map(oq, pkg.padic.Precision(Q, 2))
        return sm.unit_coords, sm._minv

    return split


def body_local_patch(pkg, g):
    """The general branch's patch at q = 1009, r = 2, the work of
    `global_order_from_vertices` before its `verify_order`: the end
    vertex's lattice made to agree with O_0 away from q, on fresh copies of
    both lattices, so that neither holds the adjugate of an earlier call.
    Returns the patched lattice as (den, columns)."""
    _, o0, oq, word = g
    sm = pkg.padic.splitting_map(oq, pkg.padic.Precision(Q, 2))
    end, lat = pkg.pipeline.word_lattice(sm, word.steps), o0.lattice
    Lattice4 = pkg.lattice.Lattice4

    def patch():
        out = pkg.pipeline.local_patch(Lattice4(end.den, end.cols), Lattice4(lat.den, lat.cols), Q)
        return out.den, out.cols

    return patch


def path_stage(pkg, g):
    """(O_0's reduced basis, the hidden order's oracle, O_q's splitting map
    mod q^2) of the general instance g at r = 1."""
    hidden, o0, oq, _ = g
    sm = pkg.padic.splitting_map(oq, pkg.padic.Precision(Q, 1))
    return pkg.pipeline.ReducedBasis(o0), pkg.divide.HiddenOrderOracle(hidden), sm


def body_scanned_question(pkg, g):
    """One refused question of the path search at r = 1 and the oracle's
    answer: the root level's kernel, bound once as the search binds one per
    level, scanned from the pair (w + 1, w + 2) of consecutive finite steps
    off the path's step w.  The scan's start is in the time; a level pays
    it once, before its first consecutive pair."""
    _, _, oq, word = g
    pipeline = pkg.pipeline
    rb, oracle, sm = path_stage(pkg, g)
    ask = rb.frame(oq, Q).kernel(0, [pipeline.conjugate(oq, oq.one, u) for u in sm.units_mod_q])
    a = word.steps[0] + 1
    return lambda: pipeline._in_end(next(ask.scan(a)), oracle)


def traced_search(pkg, g):
    """A whole path search at r = 1, as the benchmark's solves run it:
    about q/2 pair questions, one split, the confirmation and the level's
    step events, through a path-stage `CountingOracle` that records each
    question in a fresh `TraceLog`.  Returns (the accepted word, the log)."""
    rb, inner, sm = path_stage(pkg, g)
    pipeline, divide = pkg.pipeline, pkg.divide

    def search():
        log = pipeline.TraceLog()
        oracle = divide.CountingOracle(inner, log, "path", Q, Q // 2 + 3)
        return pipeline.find_path_to_end(rb, sm, oracle, log)[0].steps, log

    return search


def body_traced_path_search(pkg, g):
    """The traced path search (`traced_search`).  Returns the accepted word."""
    search = traced_search(pkg, g)
    return lambda: search()[0]


def body_traced_path_search_read(pkg, g):
    """The same path search followed by one read of its log's events (the
    oracle events with their beta strings and the step events), as the
    benchmark reads them after each solve.  Returns the accepted word and
    the number of events."""
    search = traced_search(pkg, g)

    def search_and_read():
        steps, log = search()
        return steps, len(log.events)

    return search_and_read


def body_general_solve(pkg, g):
    """One whole solve of the general instance at q = 1009, d = 2, the kind
    of general-r12 instance that sets its `solve_s.max`, as `bench/run.py`
    times a solve: cold (the `discrd` cache cleared), with a fresh oracle
    and a fresh `TraceLog`.  Returns End(E)'s lattice as (den, columns) and
    the oracle calls."""
    hidden, o0, _, _ = g
    fact = general_lattices(2)[3]
    pipeline, orders = pkg.pipeline, pkg.orders

    def solve():
        orders.discrd.cache_clear()
        oracle = pkg.divide.HiddenOrderOracle(hidden)
        end, _, calls = pipeline.compute_endomorphism_ring(o0, fact, oracle, pipeline.TraceLog())
        return end.lattice.den, end.lattice.cols, calls

    return solve


# benchmark name -> (its body, the distance d of the general instance it reads)
PAIRED = {
    "test_verify_order": (body_verify_order, 1),
    "test_reduced_basis": (body_reduced_basis, 1),
    "test_q_enlarge_through_stall": (body_q_enlarge_through_stall, 1),
    "test_bass_prime_orders": (body_bass_prime_orders, 1),
    "test_splitting_map": (body_splitting_map, 2),
    "test_local_patch": (body_local_patch, 2),
    "test_scanned_question": (body_scanned_question, 1),
    "test_traced_path_search": (body_traced_path_search, 1),
    "test_traced_path_search_read": (body_traced_path_search_read, 1),
    "test_general_solve": (body_general_solve, 2),
}
