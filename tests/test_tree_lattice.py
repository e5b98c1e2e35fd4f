"""Bridges between tree combinatorics and exact lattice arithmetic:
discriminant valuations of realized intersections, triple reductions,
neighborhood intersections, and scalar+power orders."""

import random

import pytest

from endoring.btt import (
    MatrixPath,
    ball,
    d3,
    distance,
    root,
    vertex_of_path,
)
from matmodel import (
    intersection_lattice,
    mat_lattice_discrd_val,
    scalar_plus_power_lattice,
    vertex_contains_mat_lattice,
    vertex_order_lattice,
)
from treemodel import ball_triple, neighborhood_of_path, standard_vertices_up_to, tu_triple


def random_vertex_sets(q, count, radius=3, max_size=5, seed=0):
    rng = random.Random(seed + q)
    universe = list(standard_vertices_up_to(q, radius))
    sets = []
    for _ in range(count):
        size = rng.randint(1, max_size)
        sets.append(rng.sample(universe, min(size, len(universe))))
    return sets


def test_standard_vertices_enumeration_counts():
    for q in (2, 3, 5):
        for radius in (0, 1, 2, 3):
            want = 1 if radius == 0 else 1 + (q + 1) * (q**radius - 1) // (q - 1)
            got = len(list(standard_vertices_up_to(q, radius)))
            assert got == want


def test_vertex_order_lattices_are_orders():
    for q in (2, 3):
        for v in standard_vertices_up_to(q, 2):
            lat = vertex_order_lattice(v)
            assert mat_lattice_discrd_val(lat, q) == 0
            assert vertex_contains_mat_lattice(v, lat)


@pytest.mark.parametrize("q", [2, 3])
def test_d3_equals_twice_discrd_valuation(q):
    sets = random_vertex_sets(q, 120, seed=30)
    for s in sets:
        lat = intersection_lattice(s)
        assert 2 * mat_lattice_discrd_val(lat, q) == d3(s)


@pytest.mark.parametrize("q", [2, 3])
def test_tu_triple_intersection_equality(q):
    sets = random_vertex_sets(q, 120, seed=30)
    for s in sets:
        triple = tu_triple(s)
        assert intersection_lattice(triple) == intersection_lattice(s)


@pytest.mark.parametrize("q", [2, 3])
def test_tu_converse_dichotomy(q):
    """Adding a containing vertex keeps d3; adding any other vertex in the
    enumerated ball strictly increases it."""
    sets = random_vertex_sets(q, 40, max_size=4, seed=31)
    for s in sets:
        lat = intersection_lattice(s)
        val = mat_lattice_discrd_val(lat, q)
        base = d3(s)
        radius = min(3 + val, 5)
        contained = 0
        for w in standard_vertices_up_to(q, radius):
            inside = vertex_contains_mat_lattice(w, lat)
            grown = d3(list(s) + [w])
            if inside:
                assert grown == base
                contained += 1
            else:
                assert grown > base
        assert contained >= 1  # at least the members themselves


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("ell", [0, 1, 2])
@pytest.mark.parametrize("card", [1, 2, 3])
def test_neighborhood_intersection_realization(q, ell, card):
    """ball_triple realizes the ell-neighborhood of a path: the vertices
    containing the triple intersection are exactly N_ell(P), and the
    discriminant valuation is 3 ell + card(P) - 1."""
    pverts = [vertex_of_path(MatrixPath(q, (0,) * k)) for k in range(card)]
    triple = ball_triple(pverts, ell)
    lat = intersection_lattice(triple)
    want_val = 3 * ell + card - 1
    assert mat_lattice_discrd_val(lat, q) == want_val
    want_set = neighborhood_of_path(pverts, ell)
    # exhaustive: the root contains the intersection, so every containing
    # vertex lies within want_val of it
    got = {
        w
        for w in standard_vertices_up_to(q, max(want_val, ell + card - 1))
        if vertex_contains_mat_lattice(w, lat)
    }
    assert got == want_set


@pytest.mark.parametrize("q,rmax", [(2, 3), (3, 3), (5, 2)])
def test_scalar_plus_power_at_root(q, rmax):
    """v_q(discrd(Z + q^r Lambda)) = 3r and the containing set is N_r(root),
    exhaustively over the radius-3r ball."""
    for r in range(1, rmax + 1):
        lat = scalar_plus_power_lattice(root(q), r)
        assert mat_lattice_discrd_val(lat, q) == 3 * r
        want = {w for w in standard_vertices_up_to(q, r)}
        got = {
            w
            for w in standard_vertices_up_to(q, 3 * r)
            if vertex_contains_mat_lattice(w, lat)
        }
        assert got == want


def test_scalar_plus_power_q5_r3_sampled():
    """q = 5, r = 3: N_3 contains; sampled far shell does not.  The full
    radius-9 ball (about 3M vertices) is spot-checked rather than swept."""
    q, r = 5, 3
    lat = scalar_plus_power_lattice(root(q), r)
    assert mat_lattice_discrd_val(lat, q) == 3 * r
    for w in standard_vertices_up_to(q, r):
        assert vertex_contains_mat_lattice(w, lat)
    rng = random.Random(32)
    from endoring.btt import allowed_next_steps

    checked = 0
    for _ in range(400):
        length = rng.randint(r + 1, 3 * r)
        steps, prev = [], None
        for _ in range(length):
            prev = rng.choice(allowed_next_steps(q, prev))
            steps.append(prev)
        w = vertex_of_path(MatrixPath(q, tuple(steps)))
        assert not vertex_contains_mat_lattice(w, lat)
        checked += 1
    assert checked == 400


def test_scalar_plus_power_off_root():
    """Same statement centered at a conjugated vertex, r <= 2."""
    for q in (2, 3):
        center = vertex_of_path(MatrixPath(q, (0, 1)))
        for r in (1, 2):
            lat = scalar_plus_power_lattice(center, r)
            assert mat_lattice_discrd_val(lat, q) == 3 * r
            want = set(ball(center, r))
            got = {w for w in ball(center, 3 * r) if vertex_contains_mat_lattice(w, lat)}
            assert got == want


def test_cor_dist_bound():
    """Any two maximal orders containing a realized intersection are at
    distance at most v_q(discrd)."""
    for q in (2, 3):
        sets = random_vertex_sets(q, 30, max_size=3, seed=33)
        for s in sets:
            lat = intersection_lattice(s)
            val = mat_lattice_discrd_val(lat, q)
            containing = [
                w
                for w in standard_vertices_up_to(q, min(3 + val, 5))
                if vertex_contains_mat_lattice(w, lat)
            ]
            for x in containing:
                for y in containing:
                    assert distance(x, y) <= val
