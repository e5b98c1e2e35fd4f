"""Dense linear algebra over Z/qZ for prime q (tiny matrices).

Rows are lists of ints reduced mod q.  Everything here operates on copies.
"""


def rref(rows, q):
    """Row-reduce mod q; returns (reduced rows, pivot column indices)."""
    rows = [[x % q for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % q), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [(x * inv) % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel(rows, q):
    """Basis of the right kernel {x : rows * x = 0} over F_q."""
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(rows, q)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-red[r][fc]) % q
        basis.append(vec)
    return basis


def in_span(vec, basis, q):
    """Whether vec lies in the F_q-span of basis vectors."""
    if not basis:
        return all(x % q == 0 for x in vec)
    red, pivots = rref(list(basis), q)
    v = [x % q for x in vec]
    for r, pc in enumerate(pivots):
        if v[pc]:
            f = v[pc]
            v = [(a - f * b) % q for a, b in zip(v, red[r])]
    return all(x == 0 for x in v)


def span_basis(vectors, q):
    """Independent subset spanning the same space, in rref form."""
    red, _ = rref(list(vectors), q)
    return red

