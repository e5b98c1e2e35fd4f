"""Top-level algorithms: local distance, path recovery, Bass binary search,
local-to-global order construction, and the full endomorphism-ring
computation driven by a division oracle.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .btt import (
    MatrixPath,
    allowed_next_steps,
    associated_matrix,
    dot_graph,
    path_from_root,
    step_name,
    vertex_of_path,
)
from .divide import CountingOracle, DivisionOracle
from .errors import MathematicalInconsistencyError
from .lattice import Lattice4
from .matrix import adj2, mat2_mul
from .ntheory import valuation
from .orders import Order, discrd, is_bass_at, q_enlarge, verify_order
from .padic import Precision, SplittingMap, lift_vertex_element, splitting_map
from .quat import QuatElement


# ---------------------------------------------------------------------------
# trace log


class TraceLog:
    """Collects oracle queries, tree steps, and explored subtrees."""

    def __init__(self):
        self.events = []
        self.explored = {}

    def oracle_event(self, q, stage, beta, n, answer, count):
        self.events.append(
            {
                "type": "oracle",
                "q": q,
                "stage": stage,
                "beta": [str(c) for c in beta.coeffs],
                "n": str(n),
                "answer": bool(answer),
                "count": count,
            }
        )

    def step_event(self, q, level, step, accepted):
        self.events.append(
            {
                "type": "step",
                "q": q,
                "k": level,
                "candidate": step_name(q, step),
                "accepted": bool(accepted),
            }
        )

    def saw_vertex(self, q, vertex):
        self.explored.setdefault(q, set()).add(vertex)

    def dot_sources(self):
        return {q: dot_graph(vs, title=f"explored_q{q}") for q, vs in self.explored.items()}


# ---------------------------------------------------------------------------
# local solutions


@dataclass
class LocalSolution:
    q: int
    e: int
    bass: bool
    enlargement: Order
    r: int
    gamma: MatrixPath
    order: Order  # global order whose q-part is End(E) tensor Z_q
    oracle_calls: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the oracle test shared by every stage


def _all_in_end(o0: Order, elements, m: int, n: int, oracle: DivisionOracle) -> bool:
    """Whether every element lies in End(E): those in O_0 are, each other x
    is asked as (m*x)/n.  Asks in order and stops at the first no."""
    return all(
        o0.lattice.contains(x.coeffs) or oracle.is_divisible(x.scale(m), n) for x in elements
    )


def _calls_within(oracle: CountingOracle, budget: int, stage: str) -> int:
    """The stage's oracle calls, checked against its proven budget."""
    if oracle.calls > budget:
        raise MathematicalInconsistencyError(f"{stage} used {oracle.calls} > {budget} oracle calls")
    return oracle.calls


# ---------------------------------------------------------------------------
# distance (countdown loop)


def distance_to_end(o0: Order, oq: Order, q: int, e: int, oracle: DivisionOracle) -> int:
    """Least r with q^r O_q inside End(E); at most 4e oracle calls."""
    basis = oq.basis_elements()
    for i in range(e - 1, -1, -1):
        if not _all_in_end(o0, basis, q ** (i + 1), q, oracle):
            return i + 1
    return 0


# ---------------------------------------------------------------------------
# conjugation and the local patch


def conjugate_order_lattice(oq: Order, t: QuatElement, q: int, k: int) -> Lattice4:
    """(1/q^k) * conj(t) O_q t."""
    tc = t.conj()
    gens = [(tc * b * t).scale(Fraction(1, q**k)).coeffs for b in oq.basis_elements()]
    return Lattice4.from_generators(gens)


def local_patch(x: Lattice4, y: Lattice4, q: int) -> Lattice4:
    """The lattice equal to x at q and to y at every other prime."""

    def need(a: Lattice4, b: Lattice4) -> int:
        # least m >= 0 with q^m * a inside b at q
        worst = 0
        for col in a.basis():
            for c in b.solve(col):
                if c != 0:
                    worst = max(worst, -min(0, valuation(c, q)))
        return worst

    m = max(need(y, x), need(x, y))
    patched = x.intersect(y.scale(Fraction(1, q**m))).add(y.scale(q**m))
    if not patched.equals_at(x, q):
        raise MathematicalInconsistencyError("local patch lost the q-part")
    return patched


def global_order_from_vertices(o0: Order, oq: Order, sm: SplittingMap, vertices) -> Order:
    """Global order whose q-part realizes the intersection of the given
    tree vertices (1 to 3 of them) and whose other localizations agree
    with the starting order."""
    q = sm.precision.q
    if not 1 <= len(vertices) <= 3:
        raise MathematicalInconsistencyError("vertex count out of range")
    lats = []
    for v in vertices:
        if v.depth == 0:
            lats.append(oq.lattice)
            continue
        t = lift_vertex_element(sm, (v.a, v.b, v.c))
        lats.append(conjugate_order_lattice(oq, t, q, v.depth))
    x = lats[0]
    for other in lats[1:]:
        x = x.intersect(other)
    return verify_order(local_patch(x, o0.lattice, q), o0.algebra)


# ---------------------------------------------------------------------------
# path recovery


class _GeneratorLifts(dict):
    """Step c -> lift of gamma_c, each lifted the first time it is read."""

    def __init__(self, sm: SplittingMap):
        super().__init__()
        self.sm = sm

    def __missing__(self, step):
        q = self.sm.precision.q
        if step not in range(q + 1):
            raise KeyError(step)
        t = self[step] = lift_vertex_element(self.sm, (1, 0, 0) if step == q else (0, 1, step))
        return t


def generator_lifts(sm: SplittingMap):
    """Lifts of the generators in Sigma: step c -> element over gamma_c,
    for c in 0..q (q is gamma_inf).  A step is lifted when first read, so a
    path search pays only for the candidates it tries."""
    return _GeneratorLifts(sm)


def find_path_to_end(
    o0: Order,
    oq: Order,
    q: int,
    r: int,
    lifts,
    oracle: DivisionOracle,
    log: TraceLog | None = None,
) -> MatrixPath:
    """Recover the matrix path of length r from the enlargement's vertex to
    the local endomorphism ring; at most 4(rq+1) oracle calls."""
    basis = oq.basis_elements()
    word: list[int] = []
    t_cur = oq.algebra.one()
    prev = None
    for level in range(1, r + 1):
        accepted = None
        shift = Fraction(q) ** (r - 2 * level)
        for step in allowed_next_steps(q, prev):
            t_cand = lifts[step] * t_cur
            if log is not None:
                log.saw_vertex(q, vertex_of_path(MatrixPath(q, tuple(word + [step]))))
            conjugates = ((t_cand.conj() * b * t_cand).scale(shift) for b in basis)
            ok = _all_in_end(o0, conjugates, q**3, q**3, oracle)
            if log is not None:
                log.step_event(q, level, step, ok)
            if ok:
                accepted = step
                t_cur = t_cand
                break
        if accepted is None:
            raise MathematicalInconsistencyError(
                f"no candidate accepted at level {level} for q={q}: oracle and order disagree"
            )
        word.append(accepted)
        prev = accepted
    return MatrixPath(q, tuple(word))


# ---------------------------------------------------------------------------
# Bass branch


def enumerate_bass_path(o0: Order, sm: SplittingMap, e: int):
    """Vertices of the path of maximal orders containing the image of O_0,
    walked outward from the root while containment persists."""
    q = sm.precision.q
    imgs = [sm.apply(b) for b in o0.basis_elements()]

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

    directions = []
    for s in allowed_next_steps(q, None):
        if contains_image([s]):
            directions.append(s)
    if len(directions) > 2:
        raise MathematicalInconsistencyError("more than two stable neighbors: not Bass")
    words: list[tuple] = []
    if directions:
        left = walk(directions[0])
        words.extend(reversed(left))
    words.append(())
    if len(directions) == 2:
        words.extend(walk(directions[1]))
    if len(words) > e + 1:
        raise MathematicalInconsistencyError("containment path longer than e+1")
    return [vertex_of_path(MatrixPath(q, w)) for w in words]


def bass_search(
    o0: Order,
    oq: Order,
    sm: SplittingMap,
    q: int,
    e: int,
    oracle: DivisionOracle,
    log: TraceLog | None = None,
):
    """Binary search along the containment path; at most
    4*ceil(log2(e+1)) oracle calls.  Returns (vertex, path list)."""
    path_list = enumerate_bass_path(o0, sm, e)
    if log is not None:
        for v in path_list:
            log.saw_vertex(q, v)
    lst = list(path_list)
    while len(lst) > 1:
        m = len(lst) // 2
        test = global_order_from_vertices(o0, oq, sm, [lst[0], lst[m - 1]])
        depth = max(lst[0].depth, lst[m - 1].depth)
        n = q ** (depth + 3 * e)
        ok = _all_in_end(o0, test.basis_elements(), n, n, oracle)
        lst = lst[:m] if ok else lst[m:]
    return lst[0], path_list


# ---------------------------------------------------------------------------
# master routine


def compute_endomorphism_ring(
    o0: Order,
    factorization,
    oracle: DivisionOracle,
    log: TraceLog | None = None,
):
    """Run the per-prime local pipeline and assemble End(E).

    factorization: iterable of (prime, exponent) pairs multiplying to
    discrd(O_0).  Returns (end_order, local solutions, total calls).
    """
    p = o0.algebra.p
    delta = discrd(o0)
    prod = 1
    for q, e in factorization:
        prod *= q**e
    if prod != delta:
        raise MathematicalInconsistencyError(
            f"stated factorization multiplies to {prod}, discriminant is {delta}"
        )
    if delta == p:
        return o0, [], 0

    def solve_one(q, e):
        if q == p:
            op = q_enlarge(o0, p)
            return LocalSolution(
                q=p,
                e=e,
                bass=True,
                enlargement=op,
                r=0,
                gamma=MatrixPath(q, ()),
                order=op,
                oracle_calls={},
            )
        bass = is_bass_at(o0, q)
        oq = q_enlarge(o0, q)
        calls = {}
        if bass:
            sm = splitting_map(oq, Precision(q, e))
            bass_oracle = CountingOracle(oracle, log, stage="bass", q=q)
            vertex, path_list = bass_search(o0, oq, sm, q, e, bass_oracle, log)
            budget = 4 * math.ceil(math.log2(e + 1)) if e > 0 else 0
            calls["bass"] = _calls_within(bass_oracle, budget, "bass search")
            r = vertex.depth
            gamma = path_from_root(vertex)
            o_tilde = global_order_from_vertices(o0, oq, sm, [vertex])
        else:
            dist_oracle = CountingOracle(oracle, log, stage="distance", q=q)
            r = distance_to_end(o0, oq, q, e, dist_oracle)
            calls["distance"] = _calls_within(dist_oracle, 4 * e, "distance")
            if r > e:
                raise MathematicalInconsistencyError("distance exceeds the discriminant valuation")
            if r == 0:
                gamma = MatrixPath(q, ())
                o_tilde = oq
            else:
                sm = splitting_map(oq, Precision(q, r))
                path_oracle = CountingOracle(oracle, log, stage="path", q=q)
                gamma = find_path_to_end(o0, oq, q, r, generator_lifts(sm), path_oracle, log)
                calls["path"] = _calls_within(path_oracle, 4 * (r * q + 1), "path search")
                o_tilde = global_order_from_vertices(o0, oq, sm, [vertex_of_path(gamma)])
        d = discrd(o_tilde)
        if d % q == 0:
            raise MathematicalInconsistencyError(f"local solution at {q} is not q-maximal")
        return LocalSolution(
            q=q, e=e, bass=bass, enlargement=oq, r=r, gamma=gamma, order=o_tilde, oracle_calls=calls
        )

    sols = [solve_one(q, e) for q, e in sorted(factorization)]

    total = o0.lattice
    for sol in sols:
        total = total.add(sol.order.lattice)
    end = verify_order(total, o0.algebra)
    if discrd(end) != p:
        raise MathematicalInconsistencyError(
            f"assembled order has reduced discriminant {discrd(end)}, expected {p}"
        )
    if not end.lattice.contains_lattice(o0.lattice):
        raise MathematicalInconsistencyError("assembled order lost the input order")
    total_calls = sum(sum(s.oracle_calls.values()) for s in sols)
    return end, sols, total_calls

