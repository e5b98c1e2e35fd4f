"""Seeded inputs of the benchmark workloads.

Every instance is a tuple (o_0, factorization, hidden): a suborder O_0,
the prime factorization of discrd(O_0), and the hidden maximal order that
stands in for End(E) behind a HiddenOrderOracle.  Instances are built from
public `endoring` functions only, and each builder checks its output before
returning it, so that a failed solve always points at the program.

The generators live here rather than in `tests/` so that the benchmark
inputs stay fixed while test helpers evolve.
"""

import random

from endoring.btt import MatrixPath, allowed_next_steps, vertex_of_path
from endoring.lattice import Lattice4
from endoring.ntheory import factorize
from endoring.orders import discrd, ring_closure, standard_maximal_order, verify_order
from endoring.padic import Precision, lift_vertex_element, splitting_map
from endoring.pipeline import conjugate_order_lattice, local_patch
from endoring.quat import QuaternionAlgebra
from endoring.serialize import load_problem

WORKED_PROBLEM = "problems/p103_worked_example.json"

# Local shapes of planted-mixed, drawn PLANTED_DRAWS times for each p.  A
# fixed grid keeps the cost of a sweep nearly the same for every seed; the
# seed draws the hidden order and the random words and elements inside it.
PLANTED_PRIMES = (103, 179, 1019)
PLANTED_SHAPES = (
    ((2, "scalar"),),
    ((3, "eichler", 2),),
    ((5, "eichler", 3),),
    ((7, "eichler", 4),),
    ((13, "scalar"),),
    ((2, "eichler", 3),),
    ((3, "closure"),),
    ((5, "scalar"), (13, "eichler", 1)),
)
PLANTED_DRAWS = 2
PLANTED_MAX_E = 4

# general-r12 sweeps these q at p = 103, each at distance d = 1 and d = 2.
GENERAL_P = 103
GENERAL_QS = (2, 3, 7, 31, 101, 257, 1009)
# The enlargements Lambda come from this fixed stream, so the q-adic set-up
# work (whose cost depends on Lambda, not on the path) is the same for every
# seed; the workload seed draws the paths.
GENERAL_LAMBDA_SEED = 0


class InstanceError(RuntimeError):
    """A generated instance failed its own consistency checks."""


def random_maximal_order(alg, rng):
    """A conjugate x O x^-1 of the standard maximal order by a small x."""
    omax = standard_maximal_order(alg)
    for _ in range(60):
        x = alg.element(*[rng.randint(-4, 4) for _ in range(4)])
        if x.nrd() == 0:
            continue
        xinv = x.inverse()
        gens = [(x * b * xinv).coeffs for b in omax.basis_elements()]
        cand = verify_order(Lattice4.from_generators(gens), alg)
        if discrd(cand) == alg.p:
            return cand
    raise InstanceError("could not conjugate the standard maximal order")


def random_word(q, length, rng):
    steps, prev = [], None
    for _ in range(length):
        prev = rng.choice(allowed_next_steps(q, prev))
        steps.append(prev)
    return MatrixPath(q, tuple(steps))


def vertex_order_lattice(order, q, word):
    """The maximal order at the end of `word` in the tree of `order` at q,
    patched back so that it equals `order` at every other prime."""
    d = len(word)
    v = vertex_of_path(word)
    t = lift_vertex_element(splitting_map(order, Precision(q, d)), (v.a, v.b, v.c))
    return local_patch(conjugate_order_lattice(order, t, q, d), order.lattice, q)


def scalar_plus(lat, q, k):
    """Z + q^k * lat."""
    return Lattice4.from_generators([(1, 0, 0, 0)] + [tuple(q**k * x for x in b) for b in lat.basis()])


def checked_instance(o0, hidden, fact):
    """Raise InstanceError unless hidden is maximal, contains O_0, and fact
    is the factorization of discrd(O_0)."""
    p = hidden.algebra.p
    if discrd(hidden) != p:
        raise InstanceError("hidden order is not maximal")
    if not hidden.lattice.contains_lattice(o0.lattice):
        raise InstanceError("hidden order does not contain O_0")
    prod = 1
    for q, e in fact:
        prod *= q**e
    if prod != discrd(o0):
        raise InstanceError(f"factorization multiplies to {prod}, discrd(O_0) = {discrd(o0)}")
    return o0, fact, hidden


def worked_instances(root):
    """The paper's p = 103 instance, read from the problem file."""
    o0, fact, hidden, _ = load_problem(root / WORKED_PROBLEM)
    return [checked_instance(o0, hidden, fact)]


def _planted_suborder(hidden, shape, rng):
    lat = hidden.lattice
    for q, style, *depth in shape:
        if style == "scalar":
            lat = scalar_plus(lat, q, 1)
        elif style == "eichler":
            word = random_word(q, depth[0], rng)
            lat = lat.intersect(vertex_order_lattice(hidden, q, word))
        else:
            b = [hidden.element(v) for v in hidden.lattice.basis()]
            y, z = (b[i] for i in rng.sample([1, 2, 3], 2))
            ring = ring_closure(hidden.algebra, [y.scale(q), z.scale(q), (y * z).scale(q)])
            lat = lat.intersect(local_patch(ring.lattice, hidden.lattice, q))
    return verify_order(lat, hidden.algebra)


def planted_instance(p, shape, rng, tries=50):
    """A suborder of a random maximal order with the given local shape:
    "scalar" is Z + qO (general branch, r = 0), "eichler" an Eichler order of
    the given level (Bass), "closure" the ring generated by 1 and two
    q-scaled elements, patched back to the hidden order away from q.  Draws
    that break e <= PLANTED_MAX_E are redrawn."""
    alg = QuaternionAlgebra.for_prime(p)
    qs = {q for q, *_ in shape}
    for _ in range(tries):
        hidden = random_maximal_order(alg, rng)
        o0 = _planted_suborder(hidden, shape, rng)
        fact = factorize(discrd(o0))
        if set(fact) != qs | {p} or fact[p] != 1:
            continue
        if any(e > PLANTED_MAX_E for q, e in fact.items() if q != p):
            continue
        return checked_instance(o0, hidden, sorted(fact.items()))
    raise InstanceError(f"no usable draw for shape {shape} at p = {p}")


def planted_instances(seed):
    rng = random.Random(seed)
    return [
        planted_instance(p, shape, rng)
        for p in PLANTED_PRIMES
        for shape in PLANTED_SHAPES
        for _ in range(PLANTED_DRAWS)
    ]


def general_instance(lam, q, word):
    """O_0 = Z + q^d * Lambda with the hidden order at distance d = len(word)
    from Lambda, at the end of `word` in the tree of Lambda at q.

    The pipeline enlarges O_0 back to Lambda, so its distance countdown
    finds r = d and its path search must recover `word`.  O_0 lies in the
    hidden order only because the exponent of q is at least d."""
    d = len(word)
    hidden = verify_order(vertex_order_lattice(lam, q, word), lam.algebra)
    o0 = verify_order(scalar_plus(lam.lattice, q, d), lam.algebra)
    return checked_instance(o0, hidden, sorted([(q, 3 * d), (lam.algebra.p, 1)]))


def general_word(q, d, rng):
    """A seeded word of length d in {1, 2} for the path search to recover.

    The search walks the candidates of each level in order, so its cost
    grows with each step's position in that list.  The first step sits at a
    seeded position in the middle tenth of its list and the second step at
    the mirror position, so the total work of the workload, and the work of
    its slowest instance, hardly depend on the seed."""
    u = 0.45 + 0.1 * rng.random()
    steps, prev = [], None
    for f in (u, 1 - u)[:d]:
        options = allowed_next_steps(q, prev)
        prev = options[int(f * len(options))]
        steps.append(prev)
    return MatrixPath(q, tuple(steps))


def general_instances(seed):
    alg = QuaternionAlgebra.for_prime(GENERAL_P)
    lam_rng = random.Random(GENERAL_LAMBDA_SEED)
    rng = random.Random(seed)
    out = []
    for q in GENERAL_QS:
        for d in (1, 2):
            out.append(general_instance(random_maximal_order(alg, lam_rng), q, general_word(q, d, rng)))
    return out


def build(workload, seed, root):
    """Instances of the named workload for the given seed.  Both workloads
    start with the paper's worked example, which reaches every layer, so
    that no per-layer metric is zero on either workload."""
    if workload == "planted-mixed":
        return worked_instances(root) + planted_instances(seed)
    if workload == "general-r12":
        return worked_instances(root) + general_instances(seed)
    raise ValueError(f"unknown workload {workload!r}")
