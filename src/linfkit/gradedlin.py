"""Exact-arithmetic graded linear algebra.

Graded vector spaces over the rationals with labeled generators, sparse
degree-homogeneous maps, Koszul signs, (i, k-i)-unshuffles, symmetric
words, and cohomology by exact rank.  Everything is immutable after
construction and all arithmetic is exact over the rationals; no floats.
A stored coefficient of a graded map or a structure table is a plain
int while it is integral and a fractions.Fraction only when it is not,
normalised by exact() where it enters; the echelon engine stores
primitive int rows, and every answer it gives is a Fraction.
scalar_to_str writes both alike.

Conventions: all degrees live in the [1]-shifted picture (operations of
degree +1, morphism components of degree 0).  The Koszul sign of a
permutation of a graded word is the product of (-1)^{|a||b|} over
transposed pairs; there is no extra permutation sign.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm
from types import MappingProxyType

UNSHUFFLE_CAP = 12
ZERO = Fraction(0)


class CapError(Exception):
    """A configured combinatorial guard was exceeded."""


# ---------------------------------------------------------------------------
# scalars


def scalar_to_str(c) -> str:
    """Serialize a rational as "p" or "p/q" (q > 0, lowest terms)."""
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def scalar_from_str(s: str):
    """Parse "p" or "p/q" in ASCII digits, int-first; ValueError on
    anything else, zero denominators, floats and non-strings included."""
    m = isinstance(s, str) and re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?",
                                            s.strip())
    if not m or m[2] is not None and not int(m[2]):
        raise ValueError("malformed scalar %r" % (s,))
    p = int(m[1])
    return p if m[2] is None else exact(Fraction(p, int(m[2])))


def expect(doc, where, required, optional=()):
    """doc, if it is an object holding every required field and no
    field outside required and optional; ValueError otherwise.  Every
    document reader parses strictly, so that silent schema drift cannot
    invalidate a certificate."""
    if not isinstance(doc, dict):
        raise ValueError("%s: expected an object" % where)
    for k in required:
        if k not in doc:
            raise ValueError("%s: missing field %r" % (where, k))
    for k in doc:
        if k not in required and k not in optional:
            raise ValueError("%s: unknown field %r" % (where, k))
    return doc


# ---------------------------------------------------------------------------
# exact linear algebra: one incremental sparse echelon engine


def exact(x):
    """x as an int when it is integral and as a Fraction when it is
    not: the one normal form of a stored coefficient.  x may be anything
    Fraction takes; Fraction arithmetic keeps the Fraction type even
    when a value is an integer."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _integral(v):
    """(w, s) with v = w/s: w an int vector without zeros, s > 0 the lcm
    of v's denominators.  An all-int v is copied in one pass."""
    w = {}
    for k, x in v.items():
        if type(x) is not int:
            break
        if x:
            w[k] = x
    else:
        return w, 1
    v = {k: Fraction(x) for k, x in v.items() if x}
    s = lcm(*[x.denominator for x in v.values()])
    return {k: x.numerator * (s // x.denominator) for k, x in v.items()}, s


def _over(w, s):
    """The int vector w divided by s > 0, Fraction-valued."""
    return ({k: Fraction(x) for k, x in w.items()} if s == 1 else
            {k: Fraction(x, s) for k, x in w.items()})


class Echelon:
    """Fraction-free incremental row echelon form of sparse rational
    vectors {column: coefficient}.

    The row of pivot p is e_p + rows[p]/d_p, p its smallest column:
    rows[p] holds ints, d_p > 0 sits in scale[p] when it is not 1, and
    gcd(d_p, rows[p]) = 1.  A vector is scaled once by the lcm of its
    denominators, then reduced in the integers, v <- (d_p/g) v - (v_p/g)
    rows[p] with g = gcd(d_p, v_p) (Bareiss 1968; Geddes, Czapor and
    Labahn 1992, ch. 9).  The one division comes when a Fraction-valued
    answer is read.  The reduced row echelon form is unique, so every
    answer depends only on the inserted vectors and their order.
    """

    def __init__(self):
        self.rows = {}
        self.scale = {}

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, v):
        """(w, s), w/s what is left of v after subtracting pivot rows in
        increasing pivot order (w == {} iff v is in the span), w an int
        vector."""
        (w, s), rows, scale = _integral(v), self.rows, self.scale
        heap = [k for k in w if k in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            f = w.pop(p, None)
            if f is None:
                continue
            d = scale.get(p, 1)
            if d != 1:
                g = gcd(d, f)
                d, f = d // g, f // g
                if d != 1:
                    s, w = s * d, {k: x * d for k, x in w.items()}
            for k, x in rows[p].items():
                if k in w:
                    x = w[k] - f * x
                    if x:
                        w[k] = x
                    else:
                        del w[k]
                else:
                    w[k] = -f * x
                    if k in rows:
                        heappush(heap, k)
        return w, s

    def reduce(self, v):
        """What is left of v after subtracting pivot rows in increasing
        pivot order ({} iff v is in the span)."""
        return _over(*self._reduce(v))

    def insert(self, v):
        """Store what is left of v after reduction, divided by its
        content and with a positive pivot, as a new pivot row.  True
        iff v is independent of the vectors inserted before it."""
        r = self._reduce(v)[0]
        if not r:
            return False
        p = min(r)
        piv = r[p]
        g = 1 if abs(piv) == 1 else gcd(*r.values())
        g = -g if piv < 0 else g
        self.rows[p] = {k: x // g for k, x in r.items() if k != p}
        if piv != g:
            self.scale[p] = piv // g
        return True

    def solution(self, ncols):
        """Canonical solution {column: nonzero value} (free variables
        zero) of the rows inserted with their right-hand side in column
        ncols, or None if they are inconsistent."""
        if ncols in self.rows:
            return None
        x = {}
        for p in sorted(self.rows, reverse=True):
            t = self.rows[p].get(ncols, 0)
            for k, c in self.rows[p].items():
                if k in x:
                    t -= c * x[k]
            if t:
                d = self.scale.get(p)
                x[p] = exact(Fraction(t) / d) if d else t
        return {k: Fraction(c) for k, c in x.items()}

    def kernel(self, cols):
        """Basis of the vectors over cols that every inserted row
        annihilates, one per free column of cols, in column order;
        ValueError if an inserted row uses a column outside cols.  Each
        basis vector is 1 on its free column, which is its largest
        column since a pivot is its row's smallest, and every other
        basis vector is 0 there: the coordinates of a kernel vector
        are its entries on the free columns."""
        full = self._reduced_rows()
        stray = set(full).union(*[r for r, _ in full.values()])
        stray.difference_update(cols)
        if stray:
            raise ValueError("kernel: column %r is not in cols" % min(stray))
        ker = {j: {j: Fraction(1)} for j in cols if j not in full}
        for p, (r, e) in full.items():
            for j, c in r.items():
                ker[j][p] = Fraction(-c) if e == 1 else Fraction(-c, e)
        return list(ker.values())

    def _reduced_rows(self):
        """{pivot p: (w, e)}: the reduced row of p is e_p + w/e, its
        stored row with the tail reduced."""
        full = {}
        for p in sorted(self.rows, reverse=True):
            w, s = self._reduce(self.rows[p])
            full[p] = w, s * self.scale.get(p, 1)
        return full

    def reduced_rows(self):
        """Reduced row echelon form: {pivot: row without its pivot}."""
        return {p: _over(r, e) for p, (r, e) in self._reduced_rows().items()}


def _sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def echelon_of(vectors):
    """An Echelon with the given dense vectors inserted in order."""
    ech = Echelon()
    for v in vectors:
        ech.insert(_sparse(v))
    return ech


def _dense(vec, ncols):
    return [vec.get(j, ZERO) for j in range(ncols)]


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns).

    Input is a list of rows (lists of Fractions); the input is not
    mutated.  Zero rows pad the result to the input's row count.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    full = echelon_of(rows).reduced_rows()
    pivots = sorted(full)
    red = [_dense({**full[p], p: Fraction(1)}, ncols) for p in pivots]
    return red + [_dense({}, ncols) for _ in rows[len(pivots):]], pivots


def matrix_rank(rows):
    return echelon_of(rows).rank


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix (rows act on column
    vectors of length ncols), one vector per free column in order.
    Returns a list of vectors (lists)."""
    return [_dense(v, ncols) for v in echelon_of(rows).kernel(range(ncols))]


def solve_canonical(rows, rhs, ncols):
    """Solve A x = b exactly for x of length ncols.  Returns the
    canonical solution (all free variables set to 0 in the reduced
    echelon form) or None if the system is inconsistent.  The
    tie-break makes constructions reproducible across runs."""
    return solve_sparse([_sparse(r) for r in rows], rhs, ncols)


def reached(rows, rhs):
    """The indices of the rows whose connected component, in the graph
    joining each row to the columns of its nonzero entries, holds a
    nonzero right-hand side, found by a walk from those rows.  An empty
    row with a nonzero right-hand side is a component of its own.  The
    columns may be keys of groups of unknowns: with one pseudo-row per
    row, over the keys it touches, the walk finds every key a
    right-hand side reaches (linfty.solve_map_stage)."""
    users = {}
    for i, row in enumerate(rows):
        for j, c in row.items():
            if c:
                users.setdefault(j, []).append(i)
    todo = [i for i, b in enumerate(rhs) if b]
    hit, cols = set(todo), set()
    while todo:
        for j, c in rows[todo.pop()].items():
            if c and j not in cols:
                cols.add(j)
                for i in users[j]:
                    if i not in hit:
                        hit.add(i)
                        todo.append(i)
    return hit


def solve_sparse(rows, rhs, ncols):
    """Sparse variant of solve_canonical.  rows is a list of dicts
    {column index: int or Fraction}.  Every row is inserted, shortest
    first (Markowitz's rule for limiting fill-in), ties in their given
    order.  The reduced echelon form depends only on the row space and
    the column order, so the order changes the cost and never the
    answer: the canonical solution (free variables zero, pivot columns
    chosen left to right) or None.  Which rows a system holds is the
    caller's choice (linfty.solve_map_stage writes only the rows it
    must eliminate)."""
    ech = Echelon()
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        ech.insert({**rows[i], ncols: rhs[i]})
    x = ech.solution(ncols)
    return None if x is None else _dense(x, ncols)


class LinearSystem:
    """Sparse linear system over hashable unknown keys.  A key gets a
    column when a row first uses it; an unknown no row uses is free and
    solved by 0.  solve(order) sorts the columns by order(key), the
    key's canonical position, or with a nonzero tie_break by a blake2b
    scramble of (tie_break, position), ties by position.  So the
    relative order of two unknowns, which fixes the canonical solution,
    depends only on their keys and the tie-break, and a nonzero
    tie-break picks another exact solution whenever there are free
    variables: an audit that verification does not depend on the
    choice.  solve eliminates every row written (see solve_sparse)."""

    def __init__(self, tie_break=0):
        self.index = {}
        self.rows = []
        self.rhs = []
        self.tie_break = tie_break

    def equation(self, coeffs, rhs=0):
        """Add the row sum(coeffs[key] * key) = rhs; Echelon normalises
        its coefficients when it reduces the row."""
        index = self.index
        self.rows.append({index.setdefault(key, len(index)): c
                          for key, c in coeffs.items() if c})
        self.rhs.append(rhs)

    def solve(self, order):
        """{key: nonzero value} of the canonical solution, or None.  The
        rows are renumbered in place to the sorted columns."""
        t = self.tie_break

        def rank(key):
            pos = order(key)
            if not t:
                return pos
            # here, as hashlib loads OpenSSL, which only audits need
            from hashlib import blake2b
            return blake2b(repr((t, pos)).encode()).digest(), pos

        keys = sorted(self.index, key=rank)
        col = [0] * len(keys)
        for j, key in enumerate(keys):
            col[self.index[key]] = j
            self.index[key] = j
        for i, row in enumerate(self.rows):
            self.rows[i] = {col[j]: c for j, c in row.items()}
        x = solve_sparse(self.rows, self.rhs, len(keys))
        return None if x is None else {k: v for k, v in zip(keys, x) if v}


def in_span(vectors, v):
    """Is v in the span of the given vectors (all plain lists)?"""
    return not echelon_of(vectors).reduce(_sparse(v))


def complement_in(amb_basis, sub_basis):
    """Vectors among amb_basis completing sub_basis to a basis of the
    span of both, chosen greedily in order (echelon complement)."""
    ech = echelon_of(sub_basis)
    return [v for v in amb_basis if ech.insert(_sparse(v))]


# ---------------------------------------------------------------------------
# graded spaces


class GradedSpace:
    """Finite-dimensional graded vector space with labeled generators.

    gens: ordered list of (label, degree) pairs; labels must be unique.
    """

    def __init__(self, gens):
        labels = []
        degs = {}
        for lab, d in gens:
            if lab in degs:
                raise ValueError("duplicate generator label %r" % lab)
            labels.append(lab)
            degs[lab] = int(d)
        self.labels = tuple(labels)
        self.deg = degs
        self.index = {lab: i for i, lab in enumerate(labels)}
        by_degree = {}
        for lab in labels:
            by_degree.setdefault(degs[lab], []).append(lab)
        # the labels of each degree in generator order, degrees ascending
        self.by_degree = {d: tuple(by_degree[d]) for d in sorted(by_degree)}

    @property
    def dim(self):
        return len(self.labels)

    def degrees(self):
        return list(self.by_degree)

    def basis_in_degree(self, d):
        return self.by_degree.get(d, ())

    def __eq__(self, other):
        return (isinstance(other, GradedSpace)
                and self.labels == other.labels and self.deg == other.deg)

    def __repr__(self):
        return "GradedSpace(%d generators)" % self.dim

    def to_json(self):
        return {"generators": [{"label": lab, "deg": self.deg[lab]}
                               for lab in self.labels]}

    @classmethod
    def from_json(cls, doc):
        gens = []
        for g in expect(doc, "space", ("generators",))["generators"]:
            expect(g, "space.generators[]", ("label", "deg"))
            gens.append((g["label"], g["deg"]))
        if not all(isinstance(x, str) and type(d) is int for x, d in gens):
            raise TypeError("generators need a name and an integer degree")
        return cls(gens)


def acc_term(acc, key, c):
    """acc[key] += c in place, dropping the entry when it cancels."""
    if key in acc:
        c += acc[key]
        if not c:
            del acc[key]
            return
    elif not c:
        return
    acc[key] = c


def vec_acc(acc, v, c=1):
    """acc += c * v in place; returns acc.  The one sparse accumulator
    behind every sum of elements, forms, polynomials, multivectors and
    map columns.  The one exception is Echelon's reduction loop, which
    subtracts integer rows and queues the pivots it uncovers in one
    pass because it is the hot path of every solve."""
    if not c:
        return acc
    scaled = c != 1
    for k, x in v.items():
        if scaled:
            x = c * x
        if k in acc:
            x += acc[k]
            if not x:
                del acc[k]
                continue
        elif not x:
            continue
        acc[k] = x
    return acc


def vec_scale(c, v):
    c = exact(c)
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


# ---------------------------------------------------------------------------
# graded maps


class GradedMap:
    """Sparse linear map between graded spaces, homogeneous of a fixed
    degree shift, stored column by column (the compressed-column layout
    of sparse matrix practice).

    images: {source label: {target label: coefficient}}, the image of
    each generator, each coefficient normalised by exact() (an int
    while it is integral); zero coefficients and empty images are
    dropped.
    """

    __slots__ = ("source", "target", "shift", "images")

    def __init__(self, source, target, shift, images):
        self.source = source
        self.target = target
        self.shift = int(shift)
        clean = {}
        for a, img in images.items():
            if a not in source.deg:
                raise ValueError("unknown source generator %r" % (a,))
            want = source.deg[a] + self.shift
            col = {}
            for b, c in img.items():
                c = exact(c)
                if not c:
                    continue
                if b not in target.deg:
                    raise ValueError("unknown target generator %r" % (b,))
                if target.deg[b] != want:
                    raise ValueError("entry %r -> %r violates shift %d"
                                     % (a, b, self.shift))
                col[b] = c
            if col:
                clean[a] = col
        self.images = clean

    @classmethod
    def identity(cls, space):
        return cls(space, space, 0, {l: {l: 1} for l in space.labels})

    @property
    def entries(self):
        """Read-only view {(source label, target label): coefficient}."""
        return MappingProxyType({(a, b): c for a, img in self.images.items()
                                 for b, c in img.items()})

    def apply(self, vec):
        """Apply to a vector {label: coeff}."""
        out = {}
        for a, c in vec.items():
            vec_acc(out, self.images.get(a, {}), c)
        return out

    def compose(self, other):
        """self after other (self . other)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition endpoint mismatch")
        images = {}
        for a, img in other.images.items():
            col = images[a] = {}
            for m, c in img.items():
                vec_acc(col, self.images.get(m, {}), c)
        return GradedMap(other.source, self.target,
                         self.shift + other.shift, images)

    def is_zero(self):
        return not self.images

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "shift": self.shift,
            "entries": [{"from": a, "to": b, "coeff": scalar_to_str(c)}
                        for (a, b), c in sorted(self.entries.items())],
        }


# ---------------------------------------------------------------------------
# Koszul signs, unshuffles, symmetric words


def koszul_sign(degrees, perm):
    """Sign relating the word (a_{perm[0]}, ..., a_{perm[k-1]}) to
    (a_0, ..., a_{k-1}): product of (-1)^{|a||b|} over pairs that get
    transposed.  degrees[i] is the degree of a_i."""
    if len(degrees) != len(perm):
        raise ValueError("permutation length mismatch")
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                if degrees[p[i]] % 2 and degrees[p[j]] % 2:
                    sign = -sign
    return sign


@lru_cache(maxsize=None)
def unshuffles(i, k):
    """All (i, k-i)-unshuffles as pairs of index tuples (block1, block2),
    each increasing.  Exactly binomial(k, i) of them."""
    if not (0 <= i <= k):
        raise ValueError("need 0 <= i <= k")
    if k > UNSHUFFLE_CAP:
        raise CapError("unshuffle arity %d exceeds cap %d"
                       % (k, UNSHUFFLE_CAP))
    return tuple((block1, tuple(j for j in range(k) if j not in block1))
                 for block1 in combinations(range(k), i))


def canonical_word(space, labels):
    """Canonical form of a symmetric word.

    Returns (word, sign) where word is the tuple of labels sorted by
    generator index and sign the Koszul sign of the sorting, or
    (None, 0) when the word vanishes (repeated odd generator).
    """
    word = list(labels)
    degs = [space.deg[l] for l in word]
    sign = 1
    # insertion sort, tracking the Koszul sign of each adjacent swap
    for i in range(1, len(word)):
        j = i
        while j > 0 and space.index[word[j - 1]] > space.index[word[j]]:
            if degs[j - 1] % 2 and degs[j] % 2:
                sign = -sign
            word[j - 1], word[j] = word[j], word[j - 1]
            degs[j - 1], degs[j] = degs[j], degs[j - 1]
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b and space.deg[a] % 2:
            return None, 0
    return tuple(word), sign


def word_degree(space, word):
    return sum(space.deg[l] for l in word)


def sym_words(space, k):
    """All nonzero canonical words of arity k (multisets of generators,
    odd generators without repetition), in lexicographic index order."""
    return words_within(space, k, None, None)


def words_within(space, k, weights, weight_cap):
    """The words of sym_words(space, k), in the same order, of total
    weight <= weight_cap.  weights: {label: int}, or None when every
    word weighs 0; weight_cap None keeps every word.  A partial word is
    dropped once its weight plus (letters left) x (least weight of a
    letter it may still take) exceeds the cap; that bound holds for
    zero and negative weights too, so no word within the cap is lost."""
    labs = space.labels
    n = len(labs)
    odd = [space.deg[l] % 2 for l in labs]
    if weight_cap is None:
        wt, cap = [0] * n, 0
    else:
        wt = [weights[l] for l in labs] if weights else [0] * n
        cap = weight_cap
    # least[i]: the least weight of a letter among labs[i:]
    least = wt + [0]
    for i in range(n - 2, -1, -1):
        least[i] = min(least[i], least[i + 1])
    out = []

    def rec(start, cur, total):
        left = k - len(cur)
        if not left:
            if total <= cap:
                out.append(cur)
            return
        if start >= n or total + left * least[start] > cap:
            return
        for i in range(start, n):
            rec(i + odd[i], cur + (labs[i],), total + wt[i])

    rec(0, (), 0)
    return out


# ---------------------------------------------------------------------------
# cohomology


class CohomologyError(Exception):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


def cohomology(d: GradedMap):
    """Cohomology dimensions of a differential (shift +1, d . d = 0)
    from exact ranks alone:
        dim H^k = dim C^k - rank(d on C^k) - rank(d on C^(k-1)).

    Returns {degree: dim} for every degree of the space.  Raises
    CohomologyError naming a witness generator when d . d != 0.
    """
    if d.shift != 1:
        raise ValueError("differential must have shift +1")
    space = d.source
    if d.target != space:
        raise ValueError("differential endpoints must agree")
    # d . d = 0 generator by generator; the least failing label is the
    # witness
    bad = [a for a, img in d.images.items() if d.apply(img)]
    if bad:
        a = min(bad)
        raise CohomologyError("d.d != 0 (witness generator %r)" % a,
                              witness=a)
    idx = space.index
    rank = {}
    for deg, labels in space.by_degree.items():
        ech = Echelon()
        for a in labels:
            if a in d.images:
                ech.insert({idx[b]: c for b, c in d.images[a].items()})
        rank[deg] = ech.rank
    return {deg: len(labels) - rank[deg] - rank.get(deg - 1, 0)
            for deg, labels in space.by_degree.items()}


# ---------------------------------------------------------------------------
# serialization helpers shared across modules


def dumps_canonical(doc) -> str:
    """Deterministic JSON used by every report writer."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
