"""Reference helpers for the tests: tree constructions from the paper's
lemmas that the pipeline does not use, and the trace Gram matrix of a
quaternion basis computed by quaternion products.

`tu_triple` and `ball_triple` pick the tree vertices whose intersections
the lemmas are about, `neighborhood_of_path` and `standard_vertices_up_to`
enumerate vertex sets to check them against, and `gram` is the reference
for `Order.gram`.  `canonical_vertex` is the Fraction form of
`btt.canonical_vertex`, with rational row operations over Z_(q): the
reference for the integer one.  `enumerate_bass_path` tries every step
out of each vertex and rebuilds each candidate word's matrix from scratch:
the reference for the pipeline's walk, which reads each level's steps from
the roots of a quadratic mod q.  `VertexLattices` reads the order of a word's vertex
through its canonical label (a, b, c): the reference for the pipeline's
`word_lattice`, and the lattices that `path_element`'s gaps are read in.
`pair_element` forms the element a path-search pair asks about on its own
(the pair's idempotent combined from the matrix units with its
coefficients unreduced), `pair_idempotent` the idempotent from reduced
coefficients, each coordinate in [0, q), and `find_path_to_end` is the
path search that asks about conj(t) x t for one of them through the root
frame's `Frame.kernel`, pair by slice: the references for the pipeline's
pair question, which passes the idempotent's coefficients to a kernel bound
once per level to the conjugated matrix units, the pipeline's search,
which walks each level by index, and the search on the reduced questions
that the pipeline asked before, whose answers are the same.
"""

from fractions import Fraction

from endoring.btt import (
    MatrixPath,
    vertex_of_path,
    TreeVertex,
    _widest_triple,
    allowed_next_steps,
    associated_matrix,
    ball,
    d3,
    distance,
    neighbors,
)
from endoring.errors import MathematicalInconsistencyError, StructuralError
from endoring.matrix import adj2, combine4, mat2_mul
from endoring.ntheory import reduce_unit_mod, valuation
from endoring.orders import _table_mul
from endoring.padic import lift_vertex_element
from endoring.pipeline import (
    _in_end,
    conjugate,
    conjugate_order_lattice,
    distance_element,
    generator_lifts,
)
from fracmodel import trd


def tu_triple(vertices):
    """A triple attaining d3; its intersection equals the full intersection."""
    return _widest_triple(vertices)[1]


def standard_vertices_up_to(q: int, radius: int):
    """All vertices at distance <= radius from the root, by their labels.

    Closed-form enumeration: (a, b, c) with a + b <= radius, 0 <= c < q^b,
    and v_q(c) = 0 whenever both a and b are positive."""
    for depth in range(radius + 1):
        for a in range(depth + 1):
            b = depth - a
            if a and b:
                for c in range(1, q**b):
                    if c % q:
                        yield TreeVertex(q, a, b, c)
            elif b:
                for c in range(q**b):
                    yield TreeVertex(q, a, b, c)
            else:
                yield TreeVertex(q, a, 0, 0)


def _validate_path_of_vertices(pverts):
    if not pverts:
        raise StructuralError("empty path")
    for x, y in zip(pverts, pverts[1:]):
        if distance(x, y) != 1:
            raise StructuralError("vertex sequence is not a path")
    if len(set(pverts)) != len(pverts):
        raise StructuralError("vertex sequence repeats a vertex")
    if len(pverts) > 1 and distance(pverts[0], pverts[-1]) != len(pverts) - 1:
        raise StructuralError("vertex sequence backtracks")


def ball_triple(pverts, ell: int):
    """Three vertices whose intersection realizes the ell-neighborhood of the
    path: arms of length ell grown off both endpoints and off the first
    vertex, mutually disjoint, smallest generator first."""
    pverts = list(pverts)
    _validate_path_of_vertices(pverts)
    q = pverts[0].q
    if ell == 0:
        triple = (pverts[0], pverts[-1], pverts[0])
    else:
        used = set(pverts)

        def grow(anchor):
            cur = anchor
            for _ in range(ell):
                # deterministic: children by generator index, then the parent
                cand = [w for w in neighbors(cur) if w not in used]
                if not cand:
                    raise MathematicalInconsistencyError("no free direction for an arm")
                cur = cand[0]
                used.add(cur)
            return cur

        lam1 = grow(pverts[0])
        lam2 = grow(pverts[-1])
        lam3 = grow(pverts[0])
        triple = (lam1, lam2, lam3)
    want = 6 * ell + 2 * (len(pverts) - 1)
    if d3(triple) != want:
        raise MathematicalInconsistencyError(f"arm construction reached d3 {d3(triple)} != {want}")
    return triple


def neighborhood_of_path(pverts, ell: int):
    """The set N_ell(P) of vertices within distance ell of the path."""
    out = set()
    for v in pverts:
        out.update(ball(v, ell))
    return out


def gram(basis) -> list[list[Fraction]]:
    """Matrix of reduced traces trd(b_k * b_l) of a 4-element basis."""
    alg = basis[0].algebra
    for x in basis:
        if x.algebra != alg:
            raise StructuralError("gram of elements from different algebras")
    return [[trd(x * y) for y in basis] for x in basis]


def canonical_vertex(q: int, mat) -> TreeVertex:
    """Standard representative of the homothety/left-GL_2(Z_q) class of a
    nonsingular matrix with rational entries, by Fraction row operations."""
    m = [[Fraction(x) for x in row] for row in mat]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0:
        raise StructuralError("singular matrix does not label a vertex")
    # triangularize by left multiplication over Z_(q)
    if m[1][0] != 0:
        v00 = valuation(m[0][0], q) if m[0][0] != 0 else None
        v10 = valuation(m[1][0], q)
        if v00 is None or v10 < v00:
            m[0], m[1] = m[1], m[0]
        f = m[1][0] / m[0][0]
        m[1] = [x - f * y for x, y in zip(m[1], m[0])]
    # unit-normalize the diagonal
    a = valuation(m[0][0], q)
    u = m[0][0] / q**a
    m[0] = [x / u for x in m[0]]
    b = valuation(m[1][1], q)
    w = m[1][1] / q**b
    m[1] = [x / w for x in m[1]]
    c = m[0][1]
    while True:
        # reduce c into Z mod q^b, then strip common q-powers (homothety)
        c = Fraction(reduce_unit_mod(c, q**b)) if b > 0 else Fraction(0)
        shift = min(a, b, valuation(c, q) if c != 0 else a + b)
        if shift == 0:
            break
        a, b, c = a - shift, b - shift, c / q**shift
    return TreeVertex(q, a, b, int(c))


def enumerate_bass_path(o0, sm, e: int) -> list[tuple]:
    """Step words of the path of maximal orders containing the image of O_0,
    walked outward from the root while containment persists: each of the
    q + 1 (or q) candidate words out of a vertex is tested from its matrix
    `associated_matrix`, formed anew."""
    q, lat = sm.precision.q, sm.order.lattice
    imgs = [sm.apply_coords(lat.integer_coords(c, o0.lattice.den)) for c in o0.lattice.cols]

    def contains_image(word):
        t = associated_matrix(MatrixPath(q, tuple(word)))
        adj = adj2(t)
        mod = q ** len(word)
        for y in imgs:
            prod = mat2_mul(mat2_mul(t, y), adj)
            if any(x % mod for row in prod for x in row):
                return False
        return True

    def walk(first_step):
        out = []
        word = [first_step]
        if not contains_image(word):
            return out
        out.append(tuple(word))
        for _ in range(e):
            extended = None
            for s in allowed_next_steps(q, word[-1]):
                if contains_image(word + [s]):
                    if extended is not None:
                        raise MathematicalInconsistencyError("containment set branches: not Bass")
                    extended = s
            if extended is None:
                break
            word.append(extended)
            out.append(tuple(word))
        return out

    directions = [s for s in allowed_next_steps(q, None) if contains_image([s])]
    if len(directions) > 2:
        raise MathematicalInconsistencyError("more than two stable neighbors: not Bass")
    words: list[tuple] = []
    if directions:
        words.extend(reversed(walk(directions[0])))
    words.append(())
    if len(directions) == 2:
        words.extend(walk(directions[1]))
    if len(words) > e + 1:
        raise MathematicalInconsistencyError("containment path longer than e+1")
    return words


class VertexLattices(dict):
    """Step word -> the lattice of the maximal order of the vertex at its
    end in the tree of O_q = `sm.order`: O_q for the empty word, else
    (1/q^k) conj(t) O_q t for the lift t of the vertex's canonical label
    (a, b, c) (`vertex_of_path`, `lift_vertex_element`), k the word's
    length, formed the first time the word is read."""

    def __init__(self, sm):
        super().__init__()
        self.oq = sm.order
        self.sm = sm

    def __missing__(self, word):
        if not word:
            lat = self.oq.lattice
        else:
            q = self.sm.precision.q
            v = vertex_of_path(MatrixPath(q, word))
            t = lift_vertex_element(self.sm, (v.a, v.b, v.c))
            lat = conjugate_order_lattice(self.oq, t, q, len(word))
        self[word] = lat
        return lat


def pair_idempotent(sm, a: int, b: int) -> tuple:
    """Integer coordinates over the basis of O_q, each in [0, q), of an
    element P whose image mod q is the idempotent with image line a and
    kernel line b (steps a != b): (-c, 1) is the line of step c < q and
    (1, 0) that of gamma_inf.  P combines the matrix units mod q
    (`SplittingMap.units_mod_q`)."""
    q = sm.precision.q
    a1, a2 = (1, 0) if a == q else (-a, 1)
    b1, b2 = (1, 0) if b == q else (-b, 1)
    inv = pow(a1 * b2 - a2 * b1, -1, q)
    # the entries of P mod q at E11, E12, E21, E22
    c = (a1 * b2 * inv % q, -a1 * b1 * inv % q, a2 * b2 * inv % q, -a2 * b1 * inv % q)
    x0, x1, x2, x3 = combine4(c, sm.units_mod_q)
    return x0 % q, x1 % q, x2 % q, x3 % q


def pair_element(sm, a: int, b: int) -> tuple:
    """Integer coordinates over the basis of O_q of the element P' whose
    conjugate by the level's t the pipeline's pair question asks about for
    the steps (a, b): the matrix units mod q combined with the idempotent's
    coefficients left unreduced, a lift of `pair_idempotent(sm, a, b)` mod
    q."""
    q = sm.precision.q
    a1, a2 = (1, 0) if a == q else (-a, 1)
    b1, b2 = (1, 0) if b == q else (-b, 1)
    det = a1 * b2 - a2 * b1
    inv = 1 if det == 1 else pow(det, -1, q)
    # the entries of P mod q at E11, E12, E21, E22, unreduced
    return combine4((a1 * b2 * inv, -a1 * b1 * inv, a2 * b2 * inv, -a2 * b1 * inv), sm.units_mod_q)


def find_path_to_end(rb, sm, oracle, log, element=pair_element):
    """The path search of `pipeline.find_path_to_end`, each pair question
    formed by `element` (`pair_element` for the pipeline's questions,
    `pair_idempotent` for the reduced ones it asked before), conjugated by
    the level's t and asked through the root frame's `kernel` bound to the
    level's shift, with no images, the pairs taken as slices of the
    level's steps: with `pair_element`, the same questions, in the same
    order, with the same answer and errors."""
    oq, q, r = sm.order, sm.precision.q, sm.precision.r
    question = rb.frame(oq, q)
    word: list[int] = []
    t = oq.one

    def leaves_through(a, b):
        return _in_end(ask(*conjugate(oq, t, element(sm, a, b))), oracle)

    for level in range(1, r + 1):
        ask = question.kernel(r - 2 * level + 1)
        prev = word[-1] if word else None
        steps = allowed_next_steps(q, prev)
        refused = [] if prev is None else [0 if prev == q else q]
        accepted = None
        for i in range(0, len(steps), 2):
            pair = steps[i : i + 2]
            if not leaves_through(pair[0], pair[1] if len(pair) == 2 else refused[0]):
                refused.extend(pair)
                continue
            accepted = pair[0]
            if len(pair) == 2 and not leaves_through(pair[0], refused[0] if refused else steps[i + 2]):
                accepted = pair[1]
            break
        if log is not None:
            log.path_level(q, level, word, steps[: i + 2], accepted)
        if accepted is None:
            raise MathematicalInconsistencyError(
                f"no candidate accepted at level {level} for q={q}: oracle and order disagree"
            )
        word.append(accepted)
        t = _table_mul(oq.table, generator_lifts(sm, accepted), t)
    if not _in_end(question.kernel(-r)(*conjugate(oq, t, distance_element(oq, q))), oracle):
        raise MathematicalInconsistencyError(f"the oracle refused the order at the end of the path for q={q}")
    return MatrixPath(q, tuple(word)), t
