"""Malformed problem files end in a typed error: the worked example's problem
JSON with one value replaced, deleted or appended at any path goes through
`endoring compute`, which solves it right or exits with one line on stderr,
and never raises."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from endoring.cli import main
from endoring.serialize import order_from_json, problem_from_json

PROBLEM = Path(__file__).resolve().parent.parent / "problems" / "p103_worked_example.json"
DOC = json.loads(PROBLEM.read_text())
# the prefix of the one stderr line for each exit code but success
ERROR_PREFIX = {2: "error: ", 3: "inconsistency: "}


def node_paths(node, prefix=()):
    """The path of every node of a JSON document, the root's first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


PATHS = list(node_paths(DOC))
SUBTREES = [node_at(DOC, path) for path in PATHS]
# the document's own keys, so that an appended key can shadow a field
KEYS = sorted({key for path in PATHS for key in path if isinstance(key, str)} | {"trace", "dot_dir"})

# Numbers stay small: `QuaternionAlgebra.create` factors a and b by trial
# division, so a huge rational in the algebra would only time out; the
# parser refuses exponent notation, so "1e999999999" is a quick parse
# error and is among the strings.  Free text has no "/"
# or ".", so a mutated trace or .dot path names a file in the run's own
# directory.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-10**4, 10**4)
    | st.sampled_from([0, 1, 2, 7, 13, 103, 2**61 - 1])
    | st.floats(-1e4, 1e4)
    | st.sampled_from([float("nan"), float("inf")])
    | st.sampled_from(["1/2", "-7/2", "0/0", "1/0", "3.5", "1e3", "1e999999999"])
    | st.text(alphabet="0123456789-abz", max_size=6)
)
VALUES = (
    SCALARS
    | st.recursive(
        SCALARS,
        lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=4),
        max_leaves=8,
    )
    | st.sampled_from(SUBTREES)
)


@st.composite
def mutations(draw):
    """A copy of the worked example's problem with one replacement, deletion
    or appended value, at any path."""
    doc = json.loads(json.dumps(DOC))
    path = draw(st.sampled_from(PATHS))
    kind = draw(st.sampled_from(["replace", "delete", "append"]))
    if not path:
        return draw(VALUES) if kind == "replace" else doc
    parent, key = node_at(doc, path[:-1]), path[-1]
    if kind == "replace":
        parent[key] = draw(VALUES)
    elif kind == "delete":
        del parent[key]
    elif isinstance(parent[key], list):
        parent[key].append(draw(VALUES))
    elif isinstance(parent[key], dict):
        parent[key][draw(st.sampled_from(KEYS))] = draw(VALUES)
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations())
def test_mutated_problem_is_solved_or_refused(doc):
    """Exit 0 with the oracle's order as End(E) (the hidden order is maximal
    and contains O_0, or the file is refused), or exit 2 or 3 with one line
    on stderr; any other exception fails the test.  The run is in a scratch
    directory, since a mutated file may name trace files."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            Path("problem.json").write_text(json.dumps(doc))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["compute", "--input", "problem.json", "--deterministic"])
        finally:
            os.chdir(cwd)
    if code == 0:
        _, _, hidden, _ = problem_from_json(doc)
        end = order_from_json(json.loads(out.getvalue())["endomorphism_ring"])
        assert end.lattice == hidden.lattice and err.getvalue() == ""
    else:
        assert code in ERROR_PREFIX and out.getvalue() == ""
        assert err.getvalue().startswith(ERROR_PREFIX[code]) and err.getvalue().count("\n") == 1
