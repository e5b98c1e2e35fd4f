"""The Bruhat-Tits tree for GL_2(Q_q): vertices, matrix paths, distances.

Vertices are standard coset representatives (a, b, c) for the maximal
order T^{-1} M_2(Z_q) T with T = [[q^a, c], [0, q^b]].  Paths are words
in the generator set Sigma = {gamma_0, ..., gamma_{q-1}, gamma_inf};
step q in a word encodes gamma_inf.  The module is purely integer
combinatorics: a vertex's standard representative comes from integer row
operations with q-unit scalars (`canonical_vertex`).  The order-lattice
realizations of vertices that the tests check it against live in
tests/matmodel.py, and the tree constructions of the paper's lemmas that
only the tests use in tests/treemodel.py.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import MathematicalInconsistencyError, StructuralError
from .matrix import adj2, mat2_mul
from .ntheory import is_prime, valuation


@dataclass(frozen=True)
class TreeVertex:
    q: int
    a: int
    b: int
    c: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise StructuralError(f"{self.q} is not prime")
        if self.a < 0 or self.b < 0 or not 0 <= self.c < self.q**self.b:
            raise StructuralError("vertex labels out of range")
        if self.a > 0 and self.b > 0 and self.c % self.q == 0 and self.c != 0:
            raise StructuralError("standard representative needs v_q(c) = 0")
        if self.a > 0 and self.b > 0 and self.c == 0:
            raise StructuralError("scalar matrix is not a standard representative")

    @property
    def depth(self) -> int:
        return self.a + self.b

    def matrix(self):
        return ((self.q**self.a, self.c), (0, self.q**self.b))

    def sort_key(self):
        return (self.depth, self.a, self.b, self.c)


def root(q: int) -> TreeVertex:
    return TreeVertex(q, 0, 0, 0)


def gen_matrix(q: int, step: int):
    """Generator matrix: step c < q is [[1,c],[0,q]]; step q is [[q,0],[0,1]]."""
    if step == q:
        return ((q, 0), (0, 1))
    if 0 <= step < q:
        return ((1, step), (0, q))
    raise StructuralError(f"step {step} out of range for q={q}")


def step_name(q: int, step: int) -> str:
    return "inf" if step == q else str(step)


def allowed_next_steps(q: int, prev) -> range:
    """Nonbacktracking continuations after the previous step (None at the root)."""
    if prev is None:
        return range(q + 1)
    if prev == q:
        return range(1, q + 1)
    return range(q)


def back_step(q: int, prev):
    """The step back to the parent after the previous step (None at the
    root, which has no parent): the one step `allowed_next_steps` leaves
    out."""
    if prev is None:
        return None
    return 0 if prev == q else q


@dataclass(frozen=True)
class MatrixPath:
    q: int
    steps: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for s in self.steps:
            if s not in allowed_next_steps(self.q, prev):
                raise StructuralError(
                    f"backtracking or invalid step {step_name(self.q, s)} after "
                    f"{'start' if prev is None else step_name(self.q, prev)}"
                )
            prev = s

    def __len__(self):
        return len(self.steps)

    def extended(self, step: int) -> "MatrixPath":
        return MatrixPath(self.q, self.steps + (step,))


def associated_matrix(path: MatrixPath):
    """Product c_n ... c_1 of the generator matrices, later steps on the left."""
    t = ((1, 0), (0, 1))
    for s in path.steps:
        t = mat2_mul(gen_matrix(path.q, s), t)
    return t


def canonical_vertex(q: int, mat) -> TreeVertex:
    """Standard representative of the homothety/left-GL_2(Z_q) class of a
    nonsingular integer matrix, by integer row operations: a row may be
    scaled by a q-unit, and c is reduced with a unit inverse mod q^b."""
    m = [list(row) for row in mat]
    if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
        raise StructuralError("singular matrix does not label a vertex")
    # the entry of least valuation in column 0 goes on top: m00 = q^a * u
    if m[1][0] != 0 and (m[0][0] == 0 or valuation(m[1][0], q) < valuation(m[0][0], q)):
        m[0], m[1] = m[1], m[0]
    a = valuation(m[0][0], q)
    u = m[0][0] // q**a
    if m[1][0] != 0:
        # triangularize: row 1 becomes u * row 1 - (m10 / q^a) * row 0
        f = m[1][0] // q**a
        m[1] = [u * x - f * y for x, y in zip(m[1], m[0])]
    # unit-normalize the diagonal: row 0 over u gives c = m01 / u
    b = valuation(m[1][1], q)
    c = m[0][1] * pow(u, -1, q**b)
    while True:
        # reduce c into Z mod q^b, then strip common q-powers (homothety)
        c %= q**b
        shift = min(a, b, valuation(c, q) if c != 0 else a + b)
        if shift == 0:
            break
        a, b, c = a - shift, b - shift, c // q**shift
    return TreeVertex(q, a, b, c)


def vertex_of_path(path: MatrixPath) -> TreeVertex:
    v = canonical_vertex(path.q, associated_matrix(path))
    if v.depth != len(path):
        raise MathematicalInconsistencyError("nonbacktracking path with cancellation")
    return v


@lru_cache(maxsize=1 << 16)
def path_from_root(v: TreeVertex) -> MatrixPath:
    """The unique nonbacktracking word from the root to the vertex."""
    q = v.q
    t = [list(row) for row in v.matrix()]
    steps = []
    for _ in range(v.depth):
        r0 = (t[0][0] % q, t[0][1] % q)
        row = r0 if any(r0) else (t[1][0] % q, t[1][1] % q)
        if not any(row):
            raise MathematicalInconsistencyError("matrix content at q while peeling path")
        if row[0] % q:
            step = row[1] * pow(row[0], -1, q) % q
        else:
            step = q
        t2 = mat2_mul(t, adj2(gen_matrix(q, step)))
        if any(x % q for r in t2 for x in r):
            raise MathematicalInconsistencyError("path step does not divide")
        t = [[x // q for x in r] for r in t2]
        steps.append(step)
    return MatrixPath(q, tuple(steps))


def distance(v1: TreeVertex, v2: TreeVertex) -> int:
    if v1.q != v2.q:
        raise StructuralError("vertices in different trees")
    if v1 == v2:
        return 0
    s1, s2 = path_from_root(v1).steps, path_from_root(v2).steps
    k = 0
    for x, y in zip(s1, s2):
        if x != y:
            break
        k += 1
    return (len(s1) - k) + (len(s2) - k)


def _widest_triple(vertices):
    """(d3, triple): the first ordered triple, in index order over the
    sorted vertices, whose pairwise distance sum is maximal."""
    vs = sorted(set(vertices), key=TreeVertex.sort_key)
    if not vs:
        raise StructuralError("d3 of an empty vertex set")
    n = len(vs)
    pair = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pair[i][j] = pair[j][i] = distance(vs[i], vs[j])
    best, arg = -1, None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = pair[i][j] + pair[j][k] + pair[k][i]
                if s > best:
                    best, arg = s, (vs[i], vs[j], vs[k])
    return best, arg


def d3(vertices) -> int:
    """max over ordered triples (repetition allowed) of the pairwise distance sum."""
    return _widest_triple(vertices)[0]


def neighbors(v: TreeVertex) -> list[TreeVertex]:
    """The q+1 adjacent vertices: children in generator order, then the parent."""
    path = path_from_root(v)
    prev = path.steps[-1] if path.steps else None
    out = [vertex_of_path(path.extended(s)) for s in allowed_next_steps(v.q, prev)]
    if path.steps:
        out.append(vertex_of_path(MatrixPath(v.q, path.steps[:-1])))
    return out


def ball(center: TreeVertex, radius: int):
    """All vertices within the given distance of center (BFS order)."""
    seen = {center}
    frontier = [center]
    yield center
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    yield w
        frontier = nxt


def dot_graph(vertices, title="btt") -> str:
    """Graphviz source for the induced subgraph on the given vertices: each
    vertex's edge to its parent, when the parent is among them, as the
    sorted index pairs (parent, child)."""
    vs = sorted(set(vertices), key=TreeVertex.sort_key)
    index = {v: k for k, v in enumerate(vs)}
    lines = [f"graph {title} {{", "  node [shape=circle fontsize=10];"]
    lines += [f'  v{k} [label="({v.a},{v.b},{v.c})"];' for k, v in enumerate(vs)]
    parents = ((vertex_of_path(MatrixPath(v.q, path_from_root(v).steps[:-1])), k) for k, v in enumerate(vs) if v.depth)
    lines += [f"  v{i} -- v{k};" for i, k in sorted((index[u], k) for u, k in parents if u in index)]
    lines.append("}")
    return "\n".join(lines)
