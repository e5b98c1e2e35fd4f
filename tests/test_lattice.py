import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from endoring.errors import DegenerateLatticeError
from endoring.lattice import Lattice4, _hnf_columns, integer_kernel
from endoring.ntheory import valuation
from fracmodel import det, dual, index_in, intersect
from fracmodel import hnf_columns as reference_hnf
from fracmodel import solve
from matmodel import adj4, det3, standard


def rand_lattice(rng, lo=-9, hi=9):
    while True:
        cols = [[rng.randint(lo, hi) for _ in range(4)] for _ in range(4)]
        try:
            return Lattice4.from_integer_columns(cols)
        except DegenerateLatticeError:
            continue


def e(i):
    v = [0, 0, 0, 0]
    v[i] = 1
    return tuple(v)


def test_standard_with_redundant_generator():
    gens = [e(0), e(1), e(2), e(3), (1, 1, 0, 0)]
    assert Lattice4.from_generators(gens) == standard()


def test_dependent_generators_recover_standard():
    gens = [(2, 0, 0, 0), e(1), e(2), e(3), (1, 1, 0, 0)]
    assert Lattice4.from_generators(gens) == standard()


def test_half_scaled_column_determinant():
    gens = [(Fraction(1, 2), 0, 0, 0), e(1), e(2), e(3)]
    lat = Lattice4.from_generators(gens)
    assert det(lat) == Fraction(1, 2)


def test_rank_deficient_rejected():
    with pytest.raises(DegenerateLatticeError):
        Lattice4.from_generators([e(0), e(1), e(2), (1, 1, 1, 0)])


def test_intersect_scaled_standard():
    z4 = standard()
    two = z4.scale(2)
    assert z4.intersect(two) == two
    assert index_in(z4, two) == Fraction(1, 16)
    assert index_in(two, z4) == 16


def test_contains_half_vector():
    assert not standard().contains((Fraction(1, 2), 0, 0, 0))
    assert standard().contains((3, -5, 7, 0))


def test_canonical_idempotence_and_double_dual():
    rng = random.Random(1)
    for _ in range(100):
        lat = rand_lattice(rng)
        assert Lattice4.from_generators(lat.basis()) == lat
        assert dual(dual(lat)) == lat


def test_de_morgan_duality():
    rng = random.Random(2)
    for _ in range(60):
        l1, l2 = rand_lattice(rng), rand_lattice(rng)
        lhs = dual(l1.intersect(l2))
        rhs = dual(l1).add(dual(l2))
        assert lhs == rhs


def test_index_tower_multiplicativity():
    rng = random.Random(3)
    for _ in range(40):
        a = rand_lattice(rng)
        b = a.scale(rng.randint(1, 4))
        c = b.scale(rng.randint(1, 4))
        assert index_in(b, a) * index_in(c, b) == index_in(c, a)


def is_hnf(h):
    """Four lower-triangular columns with positive pivots and the entries
    left of each pivot in [0, pivot)."""
    return (
        len(h) == 4
        and all(h[j][i] == 0 for j in range(4) for i in range(j))
        and all(h[i][i] > 0 and all(0 <= h[j][i] < h[i][i] for j in range(i)) for i in range(4))
    )


def hnf_or_none(hnf, cols):
    try:
        return hnf(cols)
    except DegenerateLatticeError:
        return None


entries = st.one_of(st.integers(-9, 9), st.integers(-(2**200), 2**200))
columns = st.lists(
    st.one_of(st.tuples(entries, entries, entries, entries), st.just((0, 0, 0, 0))), min_size=4, max_size=8
)
hnf_settings = settings(max_examples=150, deadline=None)


@hnf_settings
@given(cols=columns)
def test_hnf_is_the_reference(cols):
    """The extended-gcd HNF gives the sort-and-subtract reference's columns,
    in canonical form, and raises exactly when the reference does."""
    got = hnf_or_none(_hnf_columns, cols)
    assert got == hnf_or_none(reference_hnf, cols)
    assert got is None or is_hnf(got)


@hnf_settings
@given(cols=columns, row=st.integers(0, 3), mix=st.tuples(*[st.integers(-3, 3)] * 3))
@example(cols=[(0, 0, 0, 0)] * 4, row=0, mix=(0, 0, 0))
def test_hnf_of_rank_below_four_raises(cols, row, mix):
    """With one row a combination of the others (rank < 4, the all-zero
    input included), both HNFs raise DegenerateLatticeError."""
    others = [r for r in range(4) if r != row]
    flat = []
    for c in cols:
        c = list(c)
        c[row] = sum(m * c[r] for m, r in zip(mix, others))
        flat.append(c)
    for hnf in (_hnf_columns, reference_hnf):
        with pytest.raises(DegenerateLatticeError):
            hnf(flat)


def full_lattice(cols, den):
    try:
        return Lattice4.from_integer_columns(cols, den)
    except DegenerateLatticeError:
        return None


lattice_args = st.tuples(
    st.lists(st.tuples(entries, entries, entries, entries), min_size=4, max_size=6),
    st.one_of(st.integers(1, 12), st.integers(1, 2**200)),
)


@hnf_settings
@given(a=lattice_args, b=lattice_args, mode=st.sampled_from(("any", "inside", "coprime")))
@example(a=([e(0), e(1), e(2), e(3)], 1), b=([(2, 0, 0, 0), e(1), e(2), e(3)], 3), mode="any")
def test_intersect_is_the_dual_reference(a, b, mode):
    """The one-HNF intersection equals dual(dual(x) + dual(y)), for lattices
    with different denominators and entries up to 2^200; for y inside x
    (y spanned by integer combinations of x's basis, the combinations drawn
    as b's columns) it is y, and for integral x, y of coprime indices in Z^4
    its index is the product."""
    x, y = full_lattice(*a), full_lattice(*b)
    assume(x is not None and y is not None)
    if mode == "inside":
        y = Lattice4.from_integer_columns(
            [[sum(m * c[r] for m, c in zip(coef, x.cols)) for r in range(4)] for coef in y.cols], x.den
        )
    elif mode == "coprime":
        x, y = Lattice4.from_integer_columns(a[0]), Lattice4.from_integer_columns(b[0])
        assume(math.gcd(det(x).numerator, det(y).numerator) == 1)
    both = x.intersect(y)
    assert both == intersect(x, y) == y.intersect(x)
    if mode == "inside":
        assert both == y
    if mode == "coprime":
        assert det(both) == det(x) * det(y)


def test_adjugate_is_solved_once_outside_equality():
    """The adjugate is cached on the lattice: a second call returns the same
    object, and the cache is no field, so equality, hashing and repr still
    read den and cols only."""
    rng = random.Random(18)
    for _ in range(20):
        lat = rand_lattice(rng).scale(Fraction(rng.randint(1, 5), rng.randint(1, 9)))
        twin = Lattice4(lat.den, lat.cols)
        first = lat.adjugate()
        assert lat.adjugate() is first and "_adjugate" not in twin.__dict__
        assert lat == twin and hash(lat) == hash(twin) and repr(lat) == repr(twin)
        assert [f.name for f in dataclasses.fields(lat)] == ["den", "cols"]
        assert twin.adjugate() == first
        assert lat.gaps_at(twin.cols, twin.den, 2) == [0, 0, 0, 0]


def test_adjugate_is_adj4_of_the_columns():
    """The triangular adjugate equals adj4 of the column matrix M and gives
    adj * M = det * I, on lattices with den > 1 and on duals and
    intersections."""
    rng = random.Random(8)
    lattices = []
    for _ in range(60):
        a = rand_lattice(rng, -30, 30).scale(Fraction(rng.randint(1, 5), rng.randint(2, 9)))
        b = rand_lattice(rng).scale(Fraction(1, rng.randint(2, 7)))
        lattices += [a, dual(a), a.intersect(b)]
    assert sum(lat.den > 1 for lat in lattices) > 100
    for lat in lattices:
        m = tuple(zip(*lat.cols))
        adj, det = lat.adjugate()
        assert adj == adj4(m)
        assert [[sum(adj[i][k] * m[k][j] for k in range(4)) for j in range(4)] for i in range(4)] == [
            [det * (i == j) for j in range(4)] for i in range(4)
        ]


def brute_hnf_sublattice(rng, max_index=16):
    """Random integer sublattice of Z^4 via a small HNF matrix."""
    while True:
        d = [rng.choice([1, 1, 2, 2, 3, 4]) for _ in range(4)]
        idx = d[0] * d[1] * d[2] * d[3]
        if idx <= max_index:
            break
    cols = []
    for j in range(4):
        col = [0] * 4
        col[j] = d[j]
        for i in range(j + 1, 4):
            col[i] = rng.randrange(d[i])
        cols.append(col)
    return Lattice4.from_integer_columns(cols)


def test_intersection_against_membership_oracle():
    rng = random.Random(4)
    box = [
        (x0, x1, x2, x3)
        for x0 in range(-2, 3)
        for x1 in range(-2, 3)
        for x2 in range(-2, 3)
        for x3 in range(-2, 3)
    ]
    for _ in range(120):
        l1 = brute_hnf_sublattice(rng)
        l2 = brute_hnf_sublattice(rng)
        both = l1.intersect(l2)
        assert l1.contains_lattice(both) and l2.contains_lattice(both)
        for v in box:
            assert both.contains(v) == (l1.contains(v) and l2.contains(v))


def test_sum_is_smallest_common_superlattice():
    rng = random.Random(5)
    for _ in range(50):
        l1, l2 = brute_hnf_sublattice(rng), brute_hnf_sublattice(rng)
        s = l1.add(l2)
        assert s.contains_lattice(l1) and s.contains_lattice(l2)
        # every generator combination stays inside
        for b1 in l1.basis():
            for b2 in l2.basis():
                assert s.contains(tuple(x + y for x, y in zip(b1, b2)))


def test_local_containment():
    z4 = standard()
    l = z4.scale(Fraction(1, 3))  # denominators only at 3
    assert z4.contains_lattice_at(l, 2)
    assert not z4.contains_lattice_at(l, 3)
    assert z4.equals_at(l, 5)


def test_integer_kernel():
    rng = random.Random(6)
    for _ in range(50):
        t = [rng.randint(-9, 9) for _ in range(4)]
        if not any(t):
            t[0] = 1
        ker = integer_kernel(t)
        assert len(ker) == 3
        for v in ker:
            assert sum(a * b for a, b in zip(t, v)) == 0
        # rank 3, not 4
        with pytest.raises(DegenerateLatticeError):
            _hnf_columns([list(v) for v in ker] + [[0, 0, 0, 0]])
        # the vectors span the whole integer kernel: their 3x3 minors are
        # coprime, so they span a saturated rank-3 sublattice of Z^4
        minors = [det3([[v[r] for v in ker] for r in rows]) for rows in combinations(range(4), 3)]
        assert math.gcd(*minors) == 1


def test_integer_contains_agrees_with_solve():
    """The integer membership test gives the answer of the rational solve,
    for lattices with den > 1 and vectors whose den * v is not integral."""
    rng = random.Random(7)
    checked_den, checked_frac = 0, 0
    for _ in range(60):
        lat = rand_lattice(rng).scale(Fraction(rng.randint(1, 5), rng.randint(2, 6)))
        checked_den += lat.den > 1
        gens = lat.basis()
        for _ in range(30):
            v = [sum(rng.randint(-3, 3) * g[i] for g in gens) for i in range(4)]
            # perturb some coordinates by a fraction finer than the lattice
            for i in range(4):
                if rng.random() < 0.3:
                    v[i] += Fraction(rng.randint(-4, 4), rng.randint(1, 3 * lat.den))
            v = tuple(v)
            checked_frac += any((x * lat.den).denominator != 1 for x in v)
            assert lat.contains(v) == all(c.denominator == 1 for c in solve(lat, v))
    assert checked_den > 30 and checked_frac > 100


def test_integer_coords_agree_with_solve():
    """integer_coords(nums, d) returns the coordinates of nums/d that the
    rational solve finds, or None exactly when one is not an integer."""
    rng = random.Random(11)
    found = missed = 0
    for _ in range(60):
        lat = rand_lattice(rng).scale(Fraction(rng.randint(1, 5), rng.randint(1, 6)))
        for _ in range(20):
            k = [rng.randint(-5, 5) for _ in range(4)]
            v = [sum(c * b[i] for c, b in zip(k, lat.basis())) for i in range(4)]
            d = math.lcm(*(x.denominator for x in v)) * rng.randint(1, 4)
            nums = [int(x * d) for x in v]
            if rng.random() < 0.5:
                nums[rng.randrange(4)] += rng.randint(1, 3)
            coords = solve(lat, [Fraction(n, d) for n in nums])
            got = lat.integer_coords(nums, d)
            if all(c.denominator == 1 for c in coords):
                assert got == coords
                found += 1
            else:
                assert got is None
                missed += 1
    assert found > 500 and missed > 300


@settings(max_examples=300, deadline=None)
@given(
    a=lattice_args,
    k=st.tuples(*[st.integers(-(2**200), 2**200)] * 4),
    d=st.one_of(st.integers(-12, -1), st.integers(1, 12), st.integers(-(2**200), 2**200).filter(bool)),
    shift=st.tuples(*[st.integers(-3, 3)] * 4),
    flip=st.booleans(),
)
def test_integer_coords_is_the_rational_solve(a, k, d, shift, flip):
    """On HNF lattices with entries and denominators up to 2^200, built with
    a negative denominator when `flip` is set, and for nums/d with d of
    either sign: integer_coords gives the coordinates of the rational solve
    when they are all integers and None otherwise.  nums/d is a lattice
    vector (coordinates k) moved by shift/d, so that both outcomes occur."""
    cols, den = a
    lat = full_lattice(cols, -den if flip else den)
    assume(lat is not None)
    # the lattice vector with coordinates k, as numerators over d * lat.den
    vec = [sum(c * col[i] for c, col in zip(k, lat.cols)) for i in range(4)]
    nums = [v * d + s * lat.den for v, s in zip(vec, shift)]
    d *= lat.den
    coords = solve(lat, [Fraction(n, d) for n in nums])
    got = lat.integer_coords(nums, d)
    if all(c.denominator == 1 for c in coords):
        assert got == coords
        if not any(shift):
            assert got == k
    else:
        assert got is None


def gap_reference(lat, other, q):
    """Least m >= 0 with q^m * other inside lat at q, from rational coordinates."""
    vals = [valuation(c, q) for b in other.basis() for c in solve(lat, b) if c != 0]
    return max(0, -min(vals))


def test_gap_at_agrees_with_rational_solve():
    rng = random.Random(13)
    gaps = set()
    for _ in range(80):
        q = rng.choice((2, 3, 5))
        x = rand_lattice(rng).scale(Fraction(q ** rng.randint(0, 3), rng.randint(1, 4) * q ** rng.randint(0, 2)))
        y = rand_lattice(rng).scale(Fraction(rng.randint(1, 6), q ** rng.randint(0, 2)))
        for a, b in ((x, y), (y, x), (x, x)):
            gap = a.gap_at(b, q)
            assert gap == gap_reference(a, b, q)
            assert a.contains_lattice_at(b, q) == (gap == 0)
            gaps.add(gap)
    assert {0, 1, 2} <= gaps


def test_equals_at_is_containment_both_ways():
    """equals_at reads one adjugate and the determinants' q-valuations; it
    agrees with containment at q both ways (rational gaps), on pairs equal at
    q only, nested pairs, pairs with equal determinant valuations and
    unrelated pairs."""
    rng = random.Random(19)
    seen = set()
    for _ in range(80):
        q = rng.choice((2, 3, 5))
        x = rand_lattice(rng).scale(Fraction(q ** rng.randint(0, 2), rng.randint(1, 4) * q ** rng.randint(0, 2)))
        unit = rng.choice([u for u in range(2, 12) if u % q])
        y = rand_lattice(rng).scale(Fraction(rng.randint(1, 6), q ** rng.randint(0, 2)))
        for a, b in ((x, x.scale(unit)), (x, x.scale(q)), (x.scale(q), x), (x, y), (y, x), (x, x.add(x.scale(Fraction(1, unit))))):
            want = gap_reference(a, b, q) == 0 and gap_reference(b, a, q) == 0
            assert a.equals_at(b, q) == want
            seen.add((want, a == b))
    assert {(True, False), (False, False)} <= seen
    for q in (2, 3):
        # the same determinant, neither inside the other at q
        a, b = (Lattice4.from_integer_columns([[q**(i == k) * (i == j) for i in range(4)] for j in range(4)]) for k in (0, 1))
        assert not a.equals_at(b, q) and a.equals_at(b, 5)
