"""Dense Gauss-Jordan elimination over the rationals, kept only as a
test oracle.

This is the elimination linfkit used before its sparse echelon engine:
straightforward, slow and independent of it.  The property tests in
test_gradedlin.py compare the engine against these routines, and the
acceptance suite decides obstruction exactness with them.  The induced
map on cohomology, the way linfkit once decided quasi-isomorphisms, is
written on them too.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns),
    padded with zero rows to the input's row count."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r] + [[Fraction(0)] * ncols for _ in range(len(m) - r)], pivots


def matrix_rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, ncols):
    """Right kernel basis, one vector per free column in order."""
    red, pivots = rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][j]
        basis.append(v)
    return basis


def solve_canonical(rows, rhs, ncols):
    """Canonical solution of A x = b (free variables zero), or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    if not aug:
        return [Fraction(0)] * ncols
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def in_span(vectors, v):
    """Is v in the span of the given vectors (plain lists)?"""
    if not vectors:
        return all(x == 0 for x in v)
    cols = [list(col) for col in zip(*vectors)]
    return solve_canonical(cols, list(v), len(vectors)) is not None


def complement_in(amb_basis, sub_basis):
    """Greedy echelon complement of sub_basis inside amb_basis."""
    chosen = list(sub_basis)
    out = []
    for v in amb_basis:
        if not in_span(chosen, v):
            chosen.append(v)
            out.append(v)
    return out


def matmul(a, b, ncols):
    """The product a b of an m x n and an n x ncols matrix, both lists
    of rows; ncols is explicit so that n may be 0."""
    return [[sum((row[k] * b[k][j] for k in range(len(row))), Fraction(0))
             for j in range(ncols)] for row in a]


def _block(maps, k, nrows, ncols):
    """maps[k], or the nrows x ncols zero matrix when it is missing."""
    return maps.get(k) or [[Fraction(0)] * ncols for _ in range(nrows)]


def cohomology_classes(dims, d, k):
    """(representatives, boundaries) in degree k of a complex: the
    boundaries are the columns of d in degree k - 1 and the
    representatives the cycles that complete them greedily.  dims:
    {degree: dimension}; d: {degree k: matrix of d from degree k to
    k + 1, as rows}, missing matrices zero."""
    n, n_prev = dims.get(k, 0), dims.get(k - 1, 0)
    cycles = nullspace(_block(d, k, dims.get(k + 1, 0), n), n)
    prev = _block(d, k - 1, n, n_prev)
    bounds = [[row[j] for row in prev] for j in range(n_prev)]
    return complement_in(cycles, bounds), bounds


def induced_map_is_iso(dims_a, d_a, dims_b, d_b, f):
    """Whether a chain map f: A -> B induces isomorphisms on cohomology
    in every degree, by the induced-map matrices: each representative
    of A goes to its coordinates on the representatives of B, the
    boundaries of B absorbing the rest, and the matrix of each degree
    must be square of full rank.  f: {degree: matrix of f, as rows}.
    False when a cycle is sent outside the cycles of B, which a chain
    map never does."""
    for k in sorted(set(dims_a) | set(dims_b)):
        na, nb = dims_a.get(k, 0), dims_b.get(k, 0)
        reps_a, _ = cohomology_classes(dims_a, d_a, k)
        reps_b, bounds_b = cohomology_classes(dims_b, d_b, k)
        span = reps_b + bounds_b
        rows = [[v[i] for v in span] for i in range(nb)]
        fk = _block(f, k, nb, na)
        matrix = []
        for r in reps_a:
            image = [sum((row[j] * r[j] for j in range(na)), Fraction(0))
                     for row in fk]
            x = solve_canonical(rows, image, len(span))
            if x is None:
                return False
            matrix.append(x[:len(reps_b)])
        if len(reps_a) != len(reps_b) or \
                matrix_rank(matrix) != len(reps_a):
            return False
    return True
