"""Random planted instances: a hidden maximal order and a verified suborder
with known q-power indices, for end-to-end recovery tests."""

from endoring.btt import MatrixPath, allowed_next_steps, vertex_of_path
from endoring.errors import DegenerateLatticeError, NotARingError
from endoring.lattice import Lattice4
from endoring.ntheory import factorize
from endoring.orders import (
    Order,
    discrd,
    ring_closure,
    standard_maximal_order,
    verify_order,
)
from endoring.padic import Precision, lift_vertex_element, splitting_map
from endoring.pipeline import conjugate_order_lattice, local_patch
from endoring.quat import QuaternionAlgebra


def random_hidden_order(alg, rng) -> Order:
    """A small-norm conjugate of the standard maximal order."""
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
    raise RuntimeError("could not conjugate the maximal order")


def random_word(q, length, rng):
    steps = []
    prev = None
    for _ in range(length):
        prev = rng.choice(allowed_next_steps(q, prev))
        steps.append(prev)
    return MatrixPath(q, tuple(steps))


def vertex_order_lattice(order: Order, q: int, word: MatrixPath) -> Lattice4:
    """The maximal order at the end of `word` in the tree of `order` at q
    (not patched away from q)."""
    d = len(word)
    v = vertex_of_path(word)
    t = lift_vertex_element(splitting_map(order, Precision(q, d)), (v.a, v.b, v.c))
    return conjugate_order_lattice(order, t, q, d)


def eichler_suborder_lattice(hidden: Order, q: int, depth: int, rng) -> Lattice4:
    """hidden cap (conjugate of hidden at a random vertex of given depth),
    patched so that only the q-part shrinks.  Locally an Eichler order of
    level q^depth, hence Bass at q."""
    conj = vertex_order_lattice(hidden, q, random_word(q, depth, rng))
    inter = hidden.lattice.intersect(conj)
    return local_patch(inter, hidden.lattice, q)


def general_instance(alg, q: int, d: int, rng):
    """General-branch instance at distance d: O_0 = Z + q^d * Lambda for a
    random maximal order Lambda, and the hidden order is Lambda's vertex
    order at a random word of length d, patched to Lambda away from q.

    Returns (hidden, lambda, O_0, factorization, word).  O_0 is not Bass at
    q, the pipeline enlarges it back to Lambda and finds distance r = d.
    """
    lam = random_hidden_order(alg, rng)
    word = random_word(q, d, rng)
    hidden = verify_order(local_patch(vertex_order_lattice(lam, q, word), lam.lattice, q), alg)
    gens = [(1, 0, 0, 0)] + [tuple(q**d * x for x in b) for b in lam.lattice.basis()]
    o0 = verify_order(Lattice4.from_generators(gens), alg)
    return hidden, lam, o0, sorted(factorize(discrd(o0)).items()), word


def bass_instance(p: int, q: int, depth: int, rng):
    """A local Eichler order O_0 of level q^depth inside a random maximal
    order: Bass at q, so the pipeline takes the binary search.

    Returns (O_0, factorization, hidden)."""
    alg = QuaternionAlgebra.for_prime(p)
    hidden = random_hidden_order(alg, rng)
    o0 = verify_order(eichler_suborder_lattice(hidden, q, depth, rng), alg)
    return o0, sorted(factorize(discrd(o0)).items()), hidden


def random_suborder(hidden: Order, qs, rng, max_e=4):
    """A verified suborder of hidden whose index is supported on qs.

    Returns (order, factorization) or None when the draw is unusable.
    """
    alg = hidden.algebra
    lat = hidden.lattice
    for q in qs:
        style = rng.randrange(3)
        if style == 0:
            # scalar + q-scaled copy: index q^3, not Gorenstein at q
            gens = [(1, 0, 0, 0)] + [tuple(q * x for x in b) for b in lat.basis()]
            lat = Lattice4.from_generators(gens)
        elif style == 1:
            # local Eichler order at a random vertex: Bass at q
            depth = rng.randint(1, max_e)
            eich = eichler_suborder_lattice(hidden, q, depth, rng)
            lat = lat.intersect(eich)
        else:
            # ring generated by 1 and two q-scaled elements
            b = [hidden.element(v) for v in lat.basis()]
            i1, i2 = rng.sample([1, 2, 3], 2)
            y, z = b[i1], b[i2]
            try:
                sub = ring_closure(alg, [y.scale(q), z.scale(q), (y * z).scale(q)])
            except DegenerateLatticeError:
                return None
            lat = lat.intersect(sub.lattice)
    try:
        order = verify_order(lat, alg)
    except NotARingError:
        return None
    d = discrd(order)
    fact = factorize(d)
    if any(ell not in set(qs) | {alg.p} for ell in fact):
        return None
    if any(exp > max_e for ell, exp in fact.items() if ell != alg.p):
        return None
    if fact.get(alg.p, 0) != 1:
        return None
    if d == alg.p:
        return None
    return order, sorted(fact.items())


def generate_instance(rng, primes=(103, 179, 1019), qs_pool=(2, 3, 5, 7, 13)):
    """One planted instance: (hidden order, suborder, factorization)."""
    while True:
        p = rng.choice(primes)
        alg = QuaternionAlgebra.for_prime(p)
        hidden = random_hidden_order(alg, rng)
        n_qs = rng.choice([1, 1, 1, 2])
        qs = rng.sample(qs_pool, n_qs)
        drawn = random_suborder(hidden, qs, rng)
        if drawn is None:
            continue
        sub, fact = drawn
        return hidden, sub, fact
