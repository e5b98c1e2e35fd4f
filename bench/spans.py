"""Spans recorded from outside the program, by wrapping public functions.

`Tracer.installed` replaces each function named in FUNCTIONS in every
`endoring` module namespace that holds it (so `verify_order` is wrapped in
`orders`, `pipeline` and `serialize` alike), and each method named in
METHODS on its class.  Every call of a wrapped function records one span
(name, start, end, parent, solve) in memory; `aggregate` derives calls,
inclusive time, self time and oracle calls per span name from the tree.

Calls made inside the stand-in oracle are not recorded: its CPU is reported
as `divide.is_divisible` alone, apart from the program's own work.
"""

import json
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, function); the function is wrapped wherever imported
FUNCTIONS = {
    "orders.verify_order": ("orders", "verify_order"),
    "orders.radical_idealizer": ("orders", "radical_idealizer"),
    "orders.q_enlarge": ("orders", "q_enlarge"),
    "orders.is_bass_at": ("orders", "is_bass_at"),
    "orders.discrd": ("orders", "discrd"),
    "padic.zero_divisor_mod": ("padic", "zero_divisor_mod"),
    "padic.splitting_map": ("padic", "splitting_map"),
    "padic.lift_vertex_element": ("padic", "lift_vertex_element"),
    "pipeline.generator_lifts": ("pipeline", "generator_lifts"),
    "pipeline.distance_to_end": ("pipeline", "distance_to_end"),
    "pipeline.find_path_to_end": ("pipeline", "find_path_to_end"),
    "pipeline.bass_search": ("pipeline", "bass_search"),
    "pipeline.enumerate_bass_path": ("pipeline", "enumerate_bass_path"),
    "pipeline.global_order_from_vertices": ("pipeline", "global_order_from_vertices"),
    "pipeline.local_patch": ("pipeline", "local_patch"),
    "pipeline.compute_endomorphism_ring": ("pipeline", "compute_endomorphism_ring"),
    "btt.vertex_of_path": ("btt", "vertex_of_path"),
    "ntheory.is_prime": ("ntheory", "is_prime"),
    "serialize.load_problem": ("serialize", "load_problem"),
}

# span name -> (module, class, method)
METHODS = {
    "quat.mul": ("quat", "QuatElement", "__mul__"),
    "lattice.hnf": ("lattice", "Lattice4", "from_integer_columns"),
    "lattice.intersect": ("lattice", "Lattice4", "intersect"),
    "lattice.contains": ("lattice", "Lattice4", "contains"),
    "divide.is_divisible": ("divide", "HiddenOrderOracle", "is_divisible"),
}

ORACLE = "divide.is_divisible"


class Tracer:
    def __init__(self):
        self.reset()
        self.solve = -1
        self._muted = 0

    def reset(self):
        """Drop the recorded spans."""
        self.names, self.starts, self.ends, self.parents, self.solves = [], [], [], [], []
        self._stack = []

    def wrap(self, name, fn):
        mute = name == ORACLE

        def traced(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.solves.append(self.solve)
            self.ends.append(0.0)
            self._stack.append(idx)
            self._muted += mute
            self.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._muted -= mute
                self._stack.pop()

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, modules):
        """Wrap every target while the block runs.  `modules` maps the
        short module names ("orders", ...) to the imported modules; every
        one of them is searched for references to a wrapped function."""
        undo = []
        try:
            for name, (mod, attr) in FUNCTIONS.items():
                orig = getattr(modules[mod], attr)
                traced = self.wrap(name, orig)
                for m in modules.values():
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            undo.append((m, key, orig))
                            setattr(m, key, traced)
            for name, (mod, cls_name, attr) in METHODS.items():
                cls = getattr(modules[mod], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self.wrap(name, raw.__func__))
                else:
                    patched = self.wrap(name, raw)
                undo.append((cls, attr, raw))
                setattr(cls, attr, patched)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def aggregate(self):
        """Per span name: calls, inclusive seconds `s` (not counting spans
        nested in a span of the same name), `self_s` (duration minus direct
        children) and `oracle_calls` (oracle spans beneath it)."""
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(names)
        oracle_under = [0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
            if names[i] == ORACLE:
                a = p
                while a >= 0:
                    oracle_under[a] += 1
                    a = parents[a]
        out = {}
        for i, name in enumerate(names):
            st = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "oracle_calls": 0})
            st["calls"] += 1
            st["self_s"] += dur[i] - child[i]
            a = parents[i]
            while a >= 0 and names[a] != name:
                a = parents[a]
            if a < 0:
                st["s"] += dur[i]
                st["oracle_calls"] += oracle_under[i]
        return out

    def write(self, path, header):
        """Write the recorded spans as JSON lines: a header object, then one
        [solve, name, start_us, end_us, parent] list per span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, name in enumerate(self.names):
                start = round((self.starts[i] - t0) * 1e6, 1)
                end = round((self.ends[i] - t0) * 1e6, 1)
                fh.write(json.dumps([self.solves[i], name, start, end, self.parents[i]]) + "\n")
