"""Dense Gauss-Jordan elimination over the rationals, kept only as a
test oracle.

This is the elimination linfkit used before its sparse echelon engine:
straightforward, slow and independent of it.  The property tests in
test_gradedlin.py compare the engine against these routines, and the
acceptance suite decides obstruction exactness with them.
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
