"""Top-level algorithms: local distance, path recovery, Bass binary search,
local-to-global order construction, and the full endomorphism-ring
computation driven by a division oracle.

Every stage tests membership in End(E) through one function, `_in_end`,
and every oracle question has one form.  An element x of O_0 is never
asked: O_0 lies in End(E).  For any other x let m be the least positive
integer with m*x in O_0, and gamma in O_0 the Babai rounding of x in an
LLL-reduced basis of O_0 under the norm form trd(u*conj(v)), each residual
coordinate rounded into (-1/2, 1/2].  The oracle is asked whether
beta/m is in End(E) for beta = m*(x - gamma).  The answer is x's, because
gamma lies in End(E); beta lies in O_0, so beta is a known endomorphism,
and m and nrd(beta) are as small as this rounding makes them.  The
reduced basis (`ReducedBasis`) is built once per solve.

Each stage works in integer coordinates over the basis of O_q and asks
through its frame (`ReducedBasis.frame`), the one place a question and its
quaternion beta are formed: one integer matrix, from coordinates to
numerators over the reduced basis, and one question kernel
(`Frame.kernel(s, images)`), bound once per shift s and four images and
asked about q^s * sum c_i * images[i] as a function of the integers c_i
(the path search's consecutive finite steps by second differences, `scan`).
A question is integers end to end: the rounding takes integer residuals and
one gcd, beta is a `QuatElement` of integer numerators over one
denominator, the stand-in oracle solves from those integers and the log
(`trace.TraceLog`, which this module takes in the stage signatures) keeps
beta itself, printed only when its events are read; a solve builds no
Fraction.  A path-search pair asks about P', a lift of the pair's
idempotent P (its coefficients left unreduced).  P' = P mod q O_q, so for
the level's vertex v at distance s from End(E) the two questions differ by
an element of q^s O(v), which lies in End(E) at q by the Ball fact, and by
an element of O_q away from q: every answer is the same as for P.  Every
conj(t) x t comes from `conjugate`, by products from the structure
constants `oq.table` with conj(t) = trd(t) - t: the vertex lattices, the
Bass search's element, the path search's level images and its end-vertex
confirmation.

Tree vertices are step words from O_q's vertex (the root) end to end: the
Bass walk extends a word and its matrix one generator at a time, a word's
vertex lattice (`word_lattice`) lifts the word's matrix, and the trace is
keyed by words.  Each branch ends in the q-part lattice of its answer,
which one assembly (`global_order_from_vertices`) makes a global order.

Every stage asks about one element per question, chosen so that its fixed
set in the Bruhat-Tits tree is the set under test: a ball around O_q's
vertex (`distance_element`) for each distance step, an initial segment of
the containment path for each Bass halving (powers of one closed-form
element, `path_element`), and for each path-search question the two
branches that leave the current vertex through a pair of candidate steps
(a lift of an idempotent, `_pair_question`); the path search ends with one
question that holds for the end vertex alone.

A stage takes only what no other argument holds: the path search and the
Bass search read q, the precision (r or e) and O_q from their splitting
map (`sm.precision`, `sm.order`).  Each
stage asks through its own `divide.CountingOracle`, which holds the
stage's proven budget (e calls for the distance, ceil(log2(e+1)) for the
Bass search and r(floor(q/2) + 1) + 2 for the path search) and refuses a
question past it with a typed error before the question is asked; a local
solution's call counts are read off its stage oracles.
"""

from dataclasses import dataclass, field
from math import gcd

from .btt import MatrixPath, allowed_next_steps, associated_matrix, back_step, gen_matrix
from .divide import CountingOracle, DivisionOracle
from .errors import MathematicalInconsistencyError
from .lattice import Lattice4, lll_gram
from .matrix import adj2, adj_det4, combine4, dot4, mat2_mul, matvec4
from .ntheory import char_roots, valuation
from .orders import (
    _UNITS,
    Order,
    _conj_coords,
    _table_mul,
    check_factorization,
    discrd,
    is_bass_at,
    q_enlarge,
    q_radical,
    verify_order,
)
from .padic import Precision, SplittingMap, first_candidate, lift_matrix, lift_vertex_element, splitting_map
from .quat import _lowest
from .trace import TraceLog


# ---------------------------------------------------------------------------
# local solutions


@dataclass
class LocalSolution:
    q: int
    e: int
    bass: bool
    enlargement: Order
    gamma: MatrixPath
    order: Order  # global order whose q-part is End(E) tensor Z_q
    oracle_calls: dict = field(default_factory=dict)

    @property
    def r(self) -> int:
        """The distance from the enlargement's vertex to End(E)'s."""
        return len(self.gamma)


# ---------------------------------------------------------------------------
# the oracle test shared by every stage

class ReducedBasis:
    """O_0 with an LLL-reduced basis under the norm form trd(u*conj(v)),
    the frame every oracle question is asked in (see the module docstring).

    The Gram matrix of the norm form is `order.norm_gram`, read from
    `order.gram` with no quaternion products.  For x with integral den*x,
    the integer matrix `_num` maps den*x to the numerators of x's
    coordinates over the reduced basis, whose denominator is den * `_det`.
    """

    def __init__(self, o0: Order):
        self.order = o0
        lat = o0.lattice
        # the reduced basis times lat.den, as integer vectors
        self._cols = tuple(combine4(row, lat.cols) for row in lll_gram(o0.norm_gram))
        adj, det = adj_det4(tuple(zip(*self._cols)))
        sign = 1 if det > 0 else -1
        self._num = tuple(tuple(sign * lat.den * x for x in row) for row in adj)
        self._det = abs(det)

    def frame(self, order: Order, q: int) -> "Frame":
        """The questions about elements of an order containing O_0, given by
        integer coordinates over its basis: the `Frame` whose matrix is
        `_num` times the order's columns, over their denominator, with the
        factor common to both divided out."""
        cols = order.lattice.cols
        matrix = [dot4(row, col) for row in self._num for col in cols]
        den = order.lattice.den * self._det
        g = gcd(*matrix, den)
        return Frame(self, tuple(tuple(x // g for x in matrix[k : k + 4]) for k in (0, 4, 8, 12)), den // g, q)


class Frame:
    """The questions about elements of an order containing O_0 given by
    integer coordinates over its basis: the question about y is None when y
    lies in O_0, else (beta, m) with m least such that m*y lies in O_0 and
    beta = m*(y - gamma).

    A frame is the integer matrix `matrix`, which maps coordinates to the
    numerators of the element's coordinates over O_0's reduced basis (their
    denominator is `den`), and one question kernel, `kernel(s, images)`,
    bound once per shift s and per four images, then asked as a function of
    four integer coefficients: the distance, Bass and confirmation questions
    pass coordinates over the basis (the basis units as images), and each
    path-search level passes a pair idempotent's coefficients at the images
    conj(t) E_i t of the four matrix units mod q, so that a question costs
    one call: 16 products for the numerators, four residuals and one gcd,
    and 16 products and one gcd for beta; the kernel's scan gives a pair of
    consecutive finite steps for 8 additions in place of the first 16."""

    def __init__(self, rb: ReducedBasis, matrix, den: int, q: int):
        self.rb = rb
        self.matrix = matrix
        self.den = den
        self.q = q

    def kernel(self, s: int, images=None):
        """The function (c0, c1, c2, c3) -> the question about q^s * x, x =
        sum c_i * images[i], the images given by integer coordinates over the
        frame's basis (the basis units when images is None, so that the c_i
        are x's coordinates).

        The numerators of q^s * x's coordinates over O_0's reduced basis are
        n = q^s * `matrix` x over d = `den` when s >= 0, and n = `matrix` x
        over d = den * q^-s when s < 0.  Each n/d is rounded to the nearest
        integer, leaving the residual r = n mod d centred into (-d/2, d/2].
        With g = gcd(r_0..r_3, d), m = d/g is the least common denominator of
        the residuals r_i/d and w_i = r_i/g their numerators over m, so beta =
        sum w_i * b_i over O_0's reduced basis b; g = d exactly when every
        residual is 0, that is when q^s * x lies in O_0.  The residuals
        depend only on n mod d, so the matrix is scaled by q^s and reduced
        mod d once, here; a factor common to d and every entry scales n, d
        and every r_i alike, leaving m and w unchanged, so it is divided out
        too; and n is linear in x, so the reduced matrix is applied to the
        four images once, here, each column reduced mod d (with no images,
        the columns are the reduced matrix's own).  A question then forms its
        numerators from the coefficients and those columns, and `rounded`
        forms beta's numerators in line from the reduced basis's columns,
        with one gcd against their denominator.  The function's `scan(a)` yields the
        questions about the steps (a, a+1), (a+2, a+3), ..., all finite, for
        which `_pair_question` passes (-a, -a(a+1), 1, a+1): over columns e,
        f, h, k a numerator is n(a) = (h + k) + a(k - e - f) - a^2 f, so
        n(a+2) = n(a) + D(a), D(a) = 2(k - e) - (4a + 6) f, D(a+2) = D(a) - 8f,
        and each next question's exact numerators cost 8 additions."""
        q, d = self.q, self.den
        f, d = (q**s, d) if s >= 0 else (1, d * q**-s)
        rows = [[f * x % d for x in row] for row in self.matrix]
        g = gcd(*rows[0], *rows[1], *rows[2], *rows[3], d)
        d //= g
        rows = [[x // g for x in row] for row in rows]
        cols = zip(*rows) if images is None else ([x % d for x in matvec4(rows, im)] for im in images)
        (e0, e1, e2, e3), (f0, f1, f2, f3), (h0, h1, h2, h3), (k0, k1, k2, k3) = cols
        (u0, u1, u2, u3), (v0, v1, v2, v3), (w0, w1, w2, w3), (y0, y1, y2, y3) = self.rb._cols
        half = d // 2
        algebra, den = self.rb.order.algebra, self.rb.order.lattice.den

        def rounded(n0, n1, n2, n3):
            r0, r1, r2, r3 = n0 % d, n1 % d, n2 % d, n3 % d
            g = gcd(r0, r1, r2, r3, d)
            if g == d:
                return None
            r0 = r0 - d if r0 > half else r0
            r1 = r1 - d if r1 > half else r1
            r2 = r2 - d if r2 > half else r2
            r3 = r3 - d if r3 > half else r3
            if g != 1:
                r0, r1, r2, r3 = r0 // g, r1 // g, r2 // g, r3 // g
            x0 = r0 * u0 + r1 * v0 + r2 * w0 + r3 * y0
            x1 = r0 * u1 + r1 * v1 + r2 * w1 + r3 * y1
            x2 = r0 * u2 + r1 * v2 + r2 * w2 + r3 * y2
            x3 = r0 * u3 + r1 * v3 + r2 * w3 + r3 * y3
            h = gcd(x0, x1, x2, x3, den)
            if h == 1:
                return _lowest(algebra, (x0, x1, x2, x3), den), d // g
            return _lowest(algebra, (x0 // h, x1 // h, x2 // h, x3 // h), den // h), d // g

        def ask(c0, c1, c2, c3):
            return rounded(
                c0 * e0 + c1 * f0 + c2 * h0 + c3 * k0,
                c0 * e1 + c1 * f1 + c2 * h1 + c3 * k1,
                c0 * e2 + c1 * f2 + c2 * h2 + c3 * k2,
                c0 * e3 + c1 * f3 + c2 * h3 + c3 * k3,
            )

        def scan(a):
            b, c = a * a, 4 * a + 6
            n0, d0, g0 = h0 + k0 + a * (k0 - e0 - f0) - b * f0, 2 * (k0 - e0) - c * f0, 8 * f0
            n1, d1, g1 = h1 + k1 + a * (k1 - e1 - f1) - b * f1, 2 * (k1 - e1) - c * f1, 8 * f1
            n2, d2, g2 = h2 + k2 + a * (k2 - e2 - f2) - b * f2, 2 * (k2 - e2) - c * f2, 8 * f2
            n3, d3, g3 = h3 + k3 + a * (k3 - e3 - f3) - b * f3, 2 * (k3 - e3) - c * f3, 8 * f3
            while True:
                yield rounded(n0, n1, n2, n3)
                n0 += d0
                n1 += d1
                n2 += d2
                n3 += d3
                d0 -= g0
                d1 -= g1
                d2 -= g2
                d3 -= g3

        ask.scan = scan
        return ask


def _in_end(asked, oracle: DivisionOracle) -> bool:
    """Whether an element lies in End(E), given by its question
    (`ReducedBasis.frame`): None, for an element of O_0, needs no call."""
    return asked is None or oracle.is_divisible(*asked)


# ---------------------------------------------------------------------------
# distance (countdown loop)

def distance_element(oq: Order, q: int) -> tuple:
    """Integer coordinates over the basis of O_q of an element whose
    reduction mod q has an irreducible characteristic polynomial: the first
    candidate with no root mod q (`padic.first_candidate`)."""
    return first_candidate(oq, q, 0)


def distance_to_end(rb: ReducedBasis, oq: Order, q: int, e: int, oracle: DivisionOracle) -> int:
    """Least r with q^r O_q inside End(E); at most e oracle calls, one per i.

    One element answers for all of q^i O_q (the Ball fact): x =
    `distance_element(oq, q)` fixes no line of (Z/q)^2, since its
    characteristic polynomial is irreducible mod q, so q^i x lies in the
    order of a tree vertex v exactly when d(root, v) <= i.  Away from q, x
    lies in O_q tensor Z_l = O_0 tensor Z_l.  Hence q^i x is in End(E) iff
    r <= i, and the countdown stops at the first i where it is not."""
    question, z = rb.frame(oq, q), distance_element(oq, q)
    for i in range(e - 1, -1, -1):
        if not _in_end(question.kernel(i)(*z), oracle):
            return i + 1
    return 0


# ---------------------------------------------------------------------------
# conjugation and the local patch


def conjugate(oq: Order, t, z) -> tuple:
    """The coordinates of conj(t) x t, x and t given by integer coordinates z
    and t over the basis of O_q, from `oq.table`."""
    table = oq.table
    return _table_mul(table, _table_mul(table, _conj_coords(oq.traces, oq.one, t), z), t)


def conjugate_order_lattice(oq: Order, t, q: int, k: int) -> Lattice4:
    """(1/q^k) * conj(t) O_q t, t given by integer coordinates over the basis
    of O_q: the images of the basis under `conjugate`."""
    lat = oq.lattice
    cols = [combine4(conjugate(oq, t, u), lat.cols) for u in _UNITS]
    return Lattice4.from_integer_columns(cols, lat.den * q**k)


def local_patch(x: Lattice4, y: Lattice4, q: int) -> Lattice4:
    """The lattice equal to x at q and to y at every other prime, in one HNF.

    With m = `x.gap_at(y, q)`, q^m y lies in x at q.  Over y's basis, the
    basis vectors of x have coordinates n / (q^a u), u prime to q (from
    `y.adjugate()`).  Replacing each by (n u^-1 mod q^(a+m)) / q^a moves the
    vector by an element of q^m y at q and into q^-a y: with q^m y they
    span x at q and y at every other prime.  The check that the result
    equals x at q reads x's adjugate, which the gap has solved already."""
    m = x.gap_at(y, q)
    adj, det = y.adjugate()
    a = valuation(det * x.den, q)
    mod = q ** (a + m)
    w = pow(det * x.den // q**a, -1, mod) * y.den
    coords = ([n * w % mod for n in matvec4(adj, col)] for col in x.cols)
    cols = [combine4(zs, y.cols) for zs in coords]
    cols += [[mod * v for v in c] for c in y.cols]
    patched = Lattice4.from_integer_columns(cols, q**a * y.den)
    if not x.equals_at(patched, q):
        raise MathematicalInconsistencyError("local patch lost the q-part")
    return patched


def global_order_from_vertices(o0: Order, oq: Order, lat: Lattice4, q: int) -> Order:
    """The global order whose q-part is the lattice lat of a tree vertex's
    order and whose other localizations agree with O_0: O_q itself when lat
    is O_q's lattice (verified already; O_q agrees with O_0 away from q),
    else lat patched onto O_0 away from q (`local_patch`) and verified.  The
    one assembly of every prime q != p, in both branches."""
    if lat == oq.lattice:
        return oq
    return verify_order(local_patch(lat, o0.lattice, q), o0.algebra)


# ---------------------------------------------------------------------------
# path recovery


def generator_lifts(sm: SplittingMap, step: int) -> tuple:
    """The lift of the generator gamma_step of Sigma (step q is gamma_inf):
    integer coordinates over the basis of O_q, f(lift) = gamma_step mod
    q^(r+1)."""
    q = sm.precision.q
    return lift_vertex_element(sm, (1, 0, 0) if step == q else (0, 1, step))


def _pair_question(ask, q: int):
    """The function (a, b) -> ask(c) for steps a != b, c the coefficients at
    E11, E12, E21, E22 of the idempotent with image line a and kernel line b,
    a (b2, -b1) / det mod q, left unreduced: step c's line, which an element
    of O_q fixes mod q exactly when it lies in the order of the root's
    neighbour gamma_c, is (-c, 1) for c < q and (1, 0) for gamma_inf."""

    def pair(a, b):
        a1, a2 = (1, 0) if a == q else (-a, 1)
        b1, b2 = (1, 0) if b == q else (-b, 1)
        inv = pow(a1 * b2 - a2 * b1, -1, q)
        return ask(a1 * b2 * inv, -a1 * b1 * inv, a2 * b2 * inv, -a2 * b1 * inv)

    return pair


def find_path_to_end(
    rb: ReducedBasis, sm: SplittingMap, oracle: DivisionOracle, log: TraceLog | None
) -> tuple[MatrixPath, tuple]:
    """Recover the matrix path gamma of length r from the vertex of O_q =
    `sm.order` to the local endomorphism ring, r the precision of `sm` (the
    distance that `distance_to_end` found); at most r(floor(q/2) + 1) + 2
    oracle calls.  Returns (gamma, t), t the O_q-coordinates of the product
    of the accepted generator lifts: the oracle confirmed that (1/q^r)
    conj(t) O_q t is End(E) tensor Z_q.

    Standing at v of depth k with lift t, End(E) at distance s = r - k, the
    element x = conj(t) P t / q^k, P the idempotent with image line a and
    kernel line b, lies in O(v), and q^(s-1) x lies in End(E) iff the path
    leaves v through step a or step b (the Pair fact).  The question is
    about x' = conj(t) P' t / q^k for the lift P' of P whose coefficients
    `_pair_question` passes, P' - P in q O_q: q^(s-1) (x' - x) lies in
    q^s O(v), inside End(E) tensor Z_q by the Ball fact (d(v, End) = s), so
    x' gets x's answer, and the pairs asked, the accepted steps and gamma do
    not depend on the lift.  Each question asks about one such pair, in
    `allowed_next_steps` order, until one answers yes; one more question
    pairs its first step with a line known to be refused (the parent's, one
    from a refused pair, or at the root the next untried step) and so splits
    the pair.  A lone last step is asked paired with a refused line.  A step
    is accepted only when an answer said yes to it; a level with no yes ends
    in a typed error.  Each level asks at most floor(q/2) + 1 questions, the
    root one more.  Away from q, P' and t lie in O_q, so the questions ask
    nothing beyond O_0 tensor Z_l.

    The last question confirms the end vertex: conj(t) y t / q^r, y =
    `distance_element(oq, q)`, has an irreducible characteristic polynomial
    mod q, so by the Ball fact it lies in the order of that vertex alone.

    t is fixed for a level, and conj(t) P' t = sum c_i conj(t) E_i t, so
    each level binds the root frame's kernel once, to the level's shift
    s - 1 - k, the power of q on conj(t) P' t, and to the `conjugate` images
    of the four matrix units mod q (8 table products).  The level's steps
    (a range) are walked by index: a pair of consecutive finite steps is the
    next question of the kernel's scan from steps[0] (8 additions, then the
    rounding), and the pair that holds infinity, a lone last step and the
    split question go through `_pair_question` (16 products); unless the
    element lies in O_0 a question costs one `is_divisible`.  The trace
    stores raw records and renders them when read: a question appends its
    beta as it is, and a level appends its word and candidates in one call
    (`TraceLog.path_level`)."""
    oq, q, r = sm.order, sm.precision.q, sm.precision.r
    question, is_divisible = rb.frame(oq, q), oracle.is_divisible
    word: list[int] = []
    t = oq.one
    for level in range(1, r + 1):
        kernel = question.kernel(r - 2 * level + 1, [conjugate(oq, t, u) for u in sm.units_mod_q])
        ask = _pair_question(kernel, q)
        prev = word[-1] if word else None
        steps = allowed_next_steps(q, prev)
        n, scanned = len(steps), kernel.scan(steps[0]).__next__
        # a line the path does not take: the parent's, or the root's first refused
        refused = back_step(q, prev)
        accepted = None
        for i in range(0, n, 2):
            a = steps[i]
            # steps[i + 1] = a + 1 < q: consecutive finite steps
            asked = scanned() if a + 1 < q else ask(a, steps[i + 1] if i + 1 < n else refused)
            if asked is not None and not is_divisible(*asked):
                refused = a if refused is None else refused
                continue
            accepted = a
            if i + 1 < n:
                asked = ask(a, steps[i + 2] if refused is None else refused)
                if asked is not None and not is_divisible(*asked):
                    accepted = steps[i + 1]
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
        raise MathematicalInconsistencyError(
            f"the oracle refused the order at the end of the path for q={q}"
        )
    return MatrixPath(q, tuple(word)), t


# ---------------------------------------------------------------------------
# Bass branch


def _kept_steps(q: int, z) -> list[int]:
    """The steps s in [0, q], ascending (q for infinity), whose generator
    keeps an image that the walk's vertex holds, from z = (a - d, b, c) mod
    q for the image's scaled conjugate [[a, b], [c, d]], not scalar mod q:
    gen_s [[a, b], [c, d]] adj(gen_s) vanishes mod q exactly when
    c s^2 + (a - d) s - b = 0 for s < q, and when c = 0 for s = q."""
    a, b, c = z
    if c:
        inv = pow(c, -1, q)
        return sorted(char_roots(-a * inv, -b * inv, q))
    return [b * pow(a, -1, q) % q, q] if a else [q]


def _keeps(q: int, z, s: int) -> bool:
    """Whether step s keeps the image of z, as in `_kept_steps`."""
    a, b, c = z
    return c == 0 if s == q else (c * s * s + a * s - b) % q == 0


def enumerate_bass_path(o0: Order, sm: SplittingMap) -> list[tuple]:
    """Step words of the path of maximal orders containing the image of O_0,
    in path order, walked outward from the root while containment persists.
    O_0's basis has integer coordinates over the split order's, which `sm`
    maps mod q^(e+1); its precision e bounds the path's length.

    A walk keeps the matrix T of its word (later steps on the left, det T =
    q^k, k the word's length) and extends it one generator at a time: the
    vertex of gen_s * T contains an image y exactly when gen_s Y adj(gen_s)
    vanishes mod q^(k+1) for Y = T y adj(T), which vanishes mod q^k at the
    word's own vertex.  So each level forms Y once per image and reads the
    steps that keep it from Z = Y / q^k mod q (`_kept_steps`): every step
    when Z is scalar, else the roots of a quadratic mod q, at most two
    finite steps and infinity.  The first non-scalar Z gives the
    candidates, the other images filter them (`_keeps`), and a level costs
    O(1) in q.  Raises a typed error when the containment set is not a
    path of at most e + 1 vertices, as at a non-Bass prime."""
    q, e, lat = sm.precision.q, sm.precision.r, sm.order.lattice
    imgs = [sm.apply_coords(lat.integer_coords(c, o0.lattice.den)) for c in o0.lattice.cols]

    def extensions(word, t):
        """(s, gen_s * t) for the steps s after the word, in order, whose
        vertex contains the image of O_0."""
        mod, adj = q ** len(word), adj2(t)
        zs = []
        for y in imgs:
            (a, b), (c, d) = mat2_mul(mat2_mul(t, y), adj)
            if a % mod or b % mod or c % mod or d % mod:
                raise MathematicalInconsistencyError("the walk's vertex lost the image of O_0")
            a, b, c, d = (x // mod % q for x in (a, b, c, d))
            if b or c or a != d:
                zs.append(((a - d) % q, b, c))
        prev = word[-1] if word else None
        if not zs:
            steps = allowed_next_steps(q, prev)
        else:
            back = back_step(q, prev)
            steps = [s for s in _kept_steps(q, zs[0]) if s != back and all(_keeps(q, z, s) for z in zs[1:])]
        return [(s, mat2_mul(gen_matrix(q, s), t)) for s in steps]

    def walk(s, t):
        word = (s,)
        out = [word]
        for _ in range(e):
            nxt = extensions(word, t)
            if len(nxt) > 1:
                raise MathematicalInconsistencyError("containment set branches: not Bass")
            if not nxt:
                break
            (s, t), = nxt
            word += (s,)
            out.append(word)
        return out

    directions = extensions((), ((1, 0), (0, 1)))
    if len(directions) > 2:
        raise MathematicalInconsistencyError("more than two stable neighbors: not Bass")
    words: list[tuple] = []
    if directions:
        words.extend(reversed(walk(*directions[0])))
    words.append(())
    if len(directions) == 2:
        words.extend(walk(*directions[1]))
    if len(words) > e + 1:
        raise MathematicalInconsistencyError("containment path longer than e+1")
    return words


def _word_lift(sm: SplittingMap, word) -> tuple:
    """O_q-coordinates of a lift t of a step word's matrix T: 1 for the
    empty word, else `lift_matrix`; for k = len(word) <= r, f(t) = T V with
    V in GL_2(Z_q), so (1/q^k) conj(t) O_q t is the vertex's order at q."""
    if not word:
        return sm.order.one
    return lift_matrix(sm, associated_matrix(MatrixPath(sm.precision.q, word)))


def word_lattice(sm: SplittingMap, word) -> Lattice4:
    """The lattice (1/q^k) conj(t) O_q t, t = `_word_lift(sm, word)`, of the
    vertex of a step word of length k <= r: O_q's own for the empty word."""
    return conjugate_order_lattice(sm.order, _word_lift(sm, word), sm.precision.q, len(word))


def path_element(sm: SplittingMap, words) -> tuple:
    """(z, k) for a path v_0..v_L (L >= 1) given by step words: y = z/q^k,
    z integer coordinates over O_q, has q^j y in O(v_i) exactly when i <= j
    (the Segment fact), so q^(m-1) y lies in O(v_0) cap O(v_(m-1)) and not
    in O(v_m).  Conjugated by v_0's matrix A (det A = q^k), v_i is Z u +
    q^i Z^2, u the line of v_1 (spanned by the columns of A adj(A_1) over
    their q-content), and N = E21, or E12 when q | u_0, maps u onto a line
    it kills: so y = A^-1 N A = conj(t) N t / q^k up to a q-unit, t the
    lift of A.  The lifts are exact at q, r the precision of `sm`: f(t) =
    A V with V in GL_2(Z_q) and V = 1 mod q^(r+1-k), which fixes v_0 and
    every vertex within r + 1 - k of the root, and the lift of N moves by
    q^(r+1) M_2(Z_q); neither
    moves a v_i when the path runs through the root with L <= r + 1 (the
    Bass path) or lies within (r + 1)/2 of the root.  Each level, the least
    j with q^j y in O(v_i) read from the matrices, is checked to be i."""
    q = sm.precision.q
    mats = [associated_matrix(MatrixPath(q, w)) for w in words]
    a, k = mats[0], len(words[0])
    d = mat2_mul(a, adj2(mats[1]))
    content = q ** valuation(gcd(*d[0], *d[1]), q)
    if any(x // content % q for x in d[0]):
        n, unit = ((0, 0), (1, 0)), sm.unit_coords[2]
    else:
        n, unit = ((0, 1), (0, 0)), sm.unit_coords[1]
    levels = []
    for w, t in zip(words, mats):
        rel = mat2_mul(t, adj2(a))
        (x0, x1), (x2, x3) = mat2_mul(mat2_mul(rel, n), adj2(rel))
        levels.append(k + len(w) - valuation(gcd(x0, x1, x2, x3), q))
    if levels != list(range(len(words))):
        raise MathematicalInconsistencyError("the words are not a path of the tree")
    return conjugate(sm.order, _word_lift(sm, words[0]), unit), k


def bass_search(rb: ReducedBasis, sm: SplittingMap, oracle: DivisionOracle, log: TraceLog | None):
    """Binary search along the containment path; at most ceil(log2(e+1))
    oracle calls, one per halving, e the precision of the splitting map.
    Returns (word, path words): the step word of End(E) tensor Z_q's vertex
    and those of the containment path.

    The halving of v_lo..v_hi at m asks about q^j y, j = lo + m - 1 and y =
    `path_element(sm, words)`: q^j y lies in O(v_i) exactly when i <= j
    (the Segment fact), so it is in End(E) iff End(E) tensor Z_q is one of
    v_lo..v_j.  The search builds no order and no vertex lattice."""
    q = sm.precision.q
    words = enumerate_bass_path(rb.order, sm)
    if log is not None:
        log.saw_vertices(q, words)
    lo, hi = 0, len(words)
    if hi > 1:
        z, k = path_element(sm, words)
        question = rb.frame(sm.order, q)
        while hi - lo > 1:
            m = (hi - lo) // 2
            if _in_end(question.kernel(lo + m - 1 - k)(*z), oracle):
                hi = lo + m
            else:
                lo += m
    return words[lo], words


# ---------------------------------------------------------------------------
# master routine


def compute_endomorphism_ring(
    o0: Order,
    factorization,
    oracle: DivisionOracle,
    log: TraceLog | None = None,
):
    """Run the per-prime local pipeline and assemble End(E).

    factorization: the prime factorization of discrd(O_0), as (prime,
    exponent) pairs (`orders.check_factorization`, which refuses any other
    before a question is asked).  Returns (end_order, local solutions, total
    calls).
    """
    p = o0.algebra.p
    factorization = check_factorization(o0, factorization)
    if discrd(o0) == p:
        return o0, [], 0
    rb = ReducedBasis(o0)

    def solve_one(q, e):
        if q == p:
            op = q_enlarge(o0, p)
            return LocalSolution(q=p, e=e, bass=True, enlargement=op, gamma=MatrixPath(q, ()), order=op)
        radical = q_radical(o0, q)
        bass = is_bass_at(o0, q, radical)
        oq = q_enlarge(o0, q, radical)
        if bass:
            # e.bit_length() = ceil(log2(e + 1)), the number of halvings
            oracles = [CountingOracle(oracle, log, "bass", q, e.bit_length())]
            sm = splitting_map(oq, Precision(q, e))
            word, _ = bass_search(rb, sm, oracles[0], log)
            gamma, lat = MatrixPath(q, word), word_lattice(sm, word)
        else:
            oracles = [CountingOracle(oracle, log, "distance", q, e)]
            r = distance_to_end(rb, oq, q, e, oracles[0])
            gamma, lat = MatrixPath(q, ()), oq.lattice
            if r:
                oracles.append(CountingOracle(oracle, log, "path", q, r * (q // 2 + 1) + 2))
                gamma, t = find_path_to_end(rb, splitting_map(oq, Precision(q, r)), oracles[1], log)
                lat = conjugate_order_lattice(oq, t, q, r)
        o_tilde = global_order_from_vertices(o0, oq, lat, q)
        if discrd(o_tilde) % q == 0:
            raise MathematicalInconsistencyError(f"local solution at {q} is not q-maximal")
        calls = {o.stage: o.calls for o in oracles}
        return LocalSolution(q=q, e=e, bass=bass, enlargement=oq, gamma=gamma, order=o_tilde, oracle_calls=calls)

    sols = [solve_one(q, e) for q, e in sorted(factorization)]

    # each local order contains O_0, so End(E) = O_0 + the sum of the local
    # orders is the sum of those that differ from O_0: one of them alone
    # when only one differs, which is verified already
    grown = [sol.order for sol in sols if sol.order.lattice != o0.lattice]
    if len(grown) == 1:
        end = grown[0]
    else:
        total = o0.lattice
        for order in grown:
            total = total.add(order.lattice)
        end = verify_order(total, o0.algebra)
    if discrd(end) != p:
        raise MathematicalInconsistencyError(
            f"assembled order has reduced discriminant {discrd(end)}, expected {p}"
        )
    if not end.lattice.contains_lattice(o0.lattice):
        raise MathematicalInconsistencyError("assembled order lost the input order")
    total_calls = sum(sum(s.oracle_calls.values()) for s in sols)
    return end, sols, total_calls

