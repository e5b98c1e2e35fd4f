"""The trace of a solve: what the oracle was asked and which tree vertices
the search saw, kept as raw records and rendered when read.

A solve only appends: each oracle question (q, stage, beta, n, answer,
count), beta the immutable `QuatElement`; each path-search level (q, level,
its own copy of the word, the candidate steps tried, the one accepted); and
each Bass walk (q, its words).  `events` and `explored` render every record
at each read (`render_events`, `render_explored`), so a view nobody reads
costs nothing, and an annotation of an event belongs in its renderer, not
in the solve.  `TraceLog.write` writes the views to the trace and `.dot`
files of `endoring compute`.
"""

import json
import os

from .btt import MatrixPath, dot_graph, step_name, vertex_of_path
from .serialize import rational_str


class TraceLog:
    """The trace of a solve: one append-only list of raw records, from which
    two views render when they are read (see the module docstring)."""

    def __init__(self):
        self._records = []

    def oracle_event(self, q, stage, beta, n, answer, count):
        self._records.append(("oracle", q, stage, beta, n, answer, count))

    def path_level(self, q, level, word, steps, accepted):
        """Record the candidate steps a path-search level tried after the
        step word `word`, in order, and the one it accepted (None for none):
        one step event each, and the vertex each reaches."""
        self._records.append(("level", q, level, tuple(word), steps, accepted))

    def saw_vertices(self, q, words):
        """Record the vertices at the ends of nonbacktracking step words,
        which must not change after the call."""
        self._records.append(("saw", q, words))

    @property
    def events(self):
        """The oracle and step events, in the order they happened."""
        return render_events(self._records)

    @property
    def explored(self):
        """Each prime's explored vertices, as a set of step words."""
        return render_explored(self._records)

    def dot_sources(self):
        return {
            q: dot_graph(
                (vertex_of_path(MatrixPath(q, w)) for w in words), title=f"explored_q{q}"
            )
            for q, words in self.explored.items()
        }

    def write(self, trace_path, dot_dir):
        """Write the events as JSON lines to trace_path and the explored
        subtrees as `explored_q<q>.dot` files into dot_dir, each when given."""
        if trace_path:
            with open(trace_path, "w") as fh:
                for ev in self.events:
                    fh.write(json.dumps(ev) + "\n")
        if dot_dir:
            os.makedirs(dot_dir, exist_ok=True)
            for q, src in self.dot_sources().items():
                with open(os.path.join(dot_dir, f"explored_q{q}.dot"), "w") as fh:
                    fh.write(src + "\n")


def render_events(records) -> list:
    """The oracle and step events of the records, as JSON-ready dicts."""
    events = []
    for rec in records:
        if rec[0] == "oracle":
            _, q, stage, beta, n, answer, count = rec
            events.append(
                {
                    "type": "oracle",
                    "q": q,
                    "stage": stage,
                    "beta": [rational_str(x, beta.den) for x in beta.nums],
                    "n": str(n),
                    "answer": bool(answer),
                    "count": count,
                }
            )
        elif rec[0] == "level":
            _, q, level, _, steps, accepted = rec
            events.extend(
                {"type": "step", "q": q, "k": level, "candidate": step_name(q, s), "accepted": s == accepted}
                for s in steps
            )
    return events


def render_explored(records) -> dict:
    """Each prime's explored step words in the records."""
    explored = {}
    for rec in records:
        if rec[0] == "level":
            _, q, _, prefix, steps, _ = rec
            explored.setdefault(q, set()).update([prefix + (s,) for s in steps])
        elif rec[0] == "saw":
            _, q, words = rec
            explored.setdefault(q, set()).update(map(tuple, words))
    return explored
