import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from endoring.btt import (
    MatrixPath,
    TreeVertex,
    allowed_next_steps,
    associated_matrix,
    back_step,
    ball,
    canonical_vertex,
    d3,
    distance,
    dot_graph,
    neighbors,
    path_from_root,
    root,
    vertex_of_path,
)
from endoring.errors import StructuralError
from treemodel import ball_triple, neighborhood_of_path, tu_triple
from treemodel import canonical_vertex as reference_vertex


def test_empty_path_is_root():
    p = MatrixPath(3, ())
    assert associated_matrix(p) == ((1, 0), (0, 1))
    assert vertex_of_path(p) == root(3)


def test_backtracking_rejected():
    # gamma_inf after gamma_1 multiplies to [[3,3],[0,3]] = 0 mod 3
    with pytest.raises(StructuralError):
        MatrixPath(3, (1, 3))
    with pytest.raises(StructuralError):
        MatrixPath(3, (3, 0))  # gamma_0 after gamma_inf
    # the step back is the one step that allowed_next_steps leaves out
    assert back_step(3, None) is None
    for q in (2, 3, 5):
        for prev in range(q + 1):
            back = back_step(q, prev)
            assert sorted([*allowed_next_steps(q, prev), back]) == list(range(q + 1))
            with pytest.raises(StructuralError):
                MatrixPath(q, (prev, back))


def test_path_over_one_is_refused():
    """The word (0) at q = 1 labels no vertex: its valuations are refused,
    where they used to loop for ever."""
    with pytest.raises(ValueError, match="at least 2"):
        vertex_of_path(MatrixPath(1, (0,)))


def test_inf_then_one():
    p = MatrixPath(3, (3, 1))
    assert associated_matrix(p) == ((3, 1), (0, 3))
    assert vertex_of_path(p) == TreeVertex(3, 1, 1, 1)


def test_canonical_vertex_scalar_and_units():
    assert canonical_vertex(3, ((2, 0), (0, 2))) == root(3)
    assert canonical_vertex(3, ((9, 3), (0, 9))) == TreeVertex(3, 1, 1, 1)
    # left row operations do not change the vertex
    assert canonical_vertex(3, ((3, 1), (3, 4))) == TreeVertex(3, 1, 1, 1)


@st.composite
def q_power_entries(draw, q):
    """An integer q^k * u, u up to 2^64 and k up to 12, or 0."""
    if draw(st.integers(0, 5)) == 0:
        return 0
    return q ** draw(st.integers(0, 12)) * draw(st.integers(-(2**64), 2**64))


@st.composite
def prime_and_matrix(draw):
    q = draw(st.sampled_from((2, 3, 5, 1009)))
    return q, draw(st.tuples(*[st.tuples(q_power_entries(q), q_power_entries(q))] * 2))


@settings(max_examples=300, deadline=None)
@given(prime_and_matrix())
def test_canonical_vertex_is_the_fraction_reference(case):
    """The integer row operations give the vertex of the Fraction reference,
    on entries with high q-powers, zeros in any place and both row orders."""
    q, m = case
    assume(m[0][0] * m[1][1] != m[0][1] * m[1][0])
    assert canonical_vertex(q, m) == reference_vertex(q, m)


def test_path_roundtrip_random():
    rng = random.Random(12)
    for q in (2, 3, 5, 1009):
        for _ in range(200):
            steps = []
            prev = None
            for _ in range(rng.randrange(0, 7)):
                choices = allowed_next_steps(q, prev)
                prev = rng.choice(choices)
                steps.append(prev)
            p = MatrixPath(q, tuple(steps))
            v = vertex_of_path(p)
            assert v.depth == len(steps)
            assert path_from_root(v) == p


def test_distance_examples():
    r = root(3)
    assert distance(r, r) == 0
    assert distance(r, vertex_of_path(MatrixPath(3, (3,)))) == 1
    v0 = vertex_of_path(MatrixPath(3, (0,)))
    v1 = vertex_of_path(MatrixPath(3, (1,)))
    assert distance(v0, v1) == 2


def test_neighbors_count_and_distances():
    for q in (2, 3, 5):
        r = root(q)
        nb = neighbors(r)
        assert len(nb) == q + 1
        for w in nb:
            assert distance(r, w) == 1
        deep = vertex_of_path(MatrixPath(q, (0, 1)))
        nbd = neighbors(deep)
        assert len(nbd) == q + 1
        assert len(set(nbd)) == q + 1
        for w in nbd:
            assert distance(deep, w) == 1


def test_d3_examples():
    r = root(3)
    assert d3([r]) == 0
    # three vertices along one path, endpoints at distance 4
    p = [vertex_of_path(MatrixPath(3, (0,) * k)) for k in (0, 2, 4)]
    assert d3(p) == 8
    # star with arms 2, 1, 1
    arms = [
        vertex_of_path(MatrixPath(3, (0, 0))),
        vertex_of_path(MatrixPath(3, (1,))),
        vertex_of_path(MatrixPath(3, (3,))),
    ]
    assert d3(arms) == 8


def test_tu_triple_singleton_and_star():
    r = root(3)
    assert tu_triple([r]) == (r, r, r)
    kids = neighbors(r)[:4]
    t = tu_triple(kids)
    assert d3(t) == 6
    assert len(set(t)) == 3


def test_tu_triple_is_the_first_triple_attaining_d3():
    kids = sorted(neighbors(root(3))[:4], key=TreeVertex.sort_key)
    assert tu_triple(reversed(kids)) == tuple(kids[:3])
    rng = random.Random(5)
    pool = list(ball(root(3), 2))
    for _ in range(20):
        vs = rng.sample(pool, rng.randint(1, 6))
        x, y, z = tu_triple(vs)
        assert d3(vs) == distance(x, y) + distance(y, z) + distance(z, x)


def test_ball_sizes():
    for q in (2, 3):
        n1 = len(list(ball(root(q), 1)))
        assert n1 == 1 + (q + 1)
        n2 = len(list(ball(root(q), 2)))
        assert n2 == 1 + (q + 1) + (q + 1) * q


def test_ball_triple_path_cases():
    q = 3
    r = root(q)
    v1 = vertex_of_path(MatrixPath(q, (0,)))
    v2 = vertex_of_path(MatrixPath(q, (0, 0)))
    # ell = 0, two adjacent vertices
    t = ball_triple([r, v1], 0)
    assert d3(t) == 2
    # ell = 1, single vertex: three children of the root
    t = ball_triple([r], 1)
    assert d3(t) == 6
    assert all(distance(r, x) == 1 for x in t)
    # ell = 1, card(P) = 3
    t = ball_triple([r, v1, v2], 1)
    assert d3(t) == 6 + 4


def test_neighborhood_of_path():
    q = 2
    r = root(q)
    v1 = vertex_of_path(MatrixPath(q, (0,)))
    n = neighborhood_of_path([r, v1], 1)
    assert r in n and v1 in n
    for w in n:
        assert min(distance(w, r), distance(w, v1)) <= 1
    assert len(n) == 2 + 2 * q  # two centers, q extra neighbors each


def test_dot_graph_shape():
    src = dot_graph(ball(root(3), 1), title="fig1")
    assert src.count("--") == 4
    assert "(0,1,2)" in src and "(1,0,0)" in src
