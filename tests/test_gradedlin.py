"""Tests for graded linear algebra utilities.

Linear-algebra answers are checked against hand-computed oracles and,
property-tested, against the dense Gauss-Jordan oracle in
dense_oracle.py; sign and combinatorics invariants are property-tested.
"""

import hashlib
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfkit.gradedlin import (CapError, CohomologyError, Echelon,
                               GradedMap, GradedSpace, LinearSystem,
                               canonical_word,
                               cohomology, complement_in, dumps_canonical,
                               in_span, koszul_sign,
                               matrix_rank, nullspace, reached, rref,
                               scalar_from_str,
                               scalar_to_str, solve_canonical, solve_sparse,
                               sym_words, unshuffles, vec_acc,
                               word_degree)
from linfkit.linfty import _split_signs

import dense_oracle
from dense_oracle import matmul


def test_scalar_roundtrip():
    for s in ["0", "1", "-3", "5/7", "-22/7"]:
        assert scalar_to_str(scalar_from_str(s)) == s
    assert scalar_from_str("4/8") == F(1, 2)
    # int-first: an integral value is an int, also when written p/q
    assert type(scalar_from_str(" -3 ")) is int
    assert type(scalar_from_str("4/2")) is int
    assert type(scalar_from_str("4/8")) is F
    with pytest.raises(ValueError):
        scalar_from_str("1/0")
    # only ASCII -?[0-9]+ and -?[0-9]+/[0-9]+: no other spelling int()
    # takes, no float, no sign on the denominator
    for s in ["1_0", "\u0661", "1/2_0", "\u0661/2", "+1", "1.5", "1e3",
              "1/-2", "1/2/3", "", "-", "/2", "0x10"]:
        with pytest.raises(ValueError):
            scalar_from_str(s)
    for x in [1, F(1, 2), None, b"1", ["1"]]:
        with pytest.raises(ValueError, match="scalar %s" % re.escape(
                repr(x))):
            scalar_from_str(x)


def test_rref_and_rank_oracle():
    # hand oracle: rank 2, rref has pivots in columns 0 and 1
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(7)], [F(1), F(2), F(4)]]
    red, pivots = rref(m)
    assert matrix_rank(m) == 2
    assert pivots == [0, 2]
    assert red[0] == [F(1), F(2), F(0)]
    assert red[1] == [F(0), F(0), F(1)]


def test_nullspace_oracle():
    m = [[F(1), F(2), F(3)]]
    ns = nullspace(m, ncols=3)
    assert len(ns) == 2
    for v in ns:
        assert sum(a * b for a, b in zip(m[0], v)) == 0


def test_solve_canonical():
    m = [[F(1), F(1)], [F(0), F(0)]]
    # consistent underdetermined: canonical solution zeroes free vars
    assert solve_canonical(m, [F(3), F(0)], ncols=2) == [F(3), F(0)]
    # inconsistent
    assert solve_canonical(m, [F(0), F(1)], ncols=2) is None


# ---------------------------------------------------------------------------
# the echelon engine against the dense Gauss-Jordan oracle

small_int = st.integers(min_value=-3, max_value=3)
small_frac = st.builds(F, st.integers(min_value=-4, max_value=4),
                       st.integers(min_value=1, max_value=3))
scalars = st.one_of(st.just(F(0)), small_int.map(F), small_frac)
# integer entries, some of them large
int_heavy = st.one_of(st.just(F(0)), small_int.map(F),
                      st.integers(min_value=-60, max_value=60).map(F))
# no entry is a unit, most are proper fractions: every pivot must be
# scaled by a non-unit
non_unit = st.one_of(
    st.just(F(0)),
    st.builds(F, st.sampled_from([-9, -5, -3, -2, 2, 3, 4, 7]),
              st.integers(min_value=1, max_value=7)).filter(
                  lambda c: abs(c) != 1))
nonzero = small_int.filter(bool).map(F)
ENTRIES = {"mixed": scalars, "int-heavy": int_heavy, "non-unit": non_unit}


@st.composite
def matrices(draw, max_rows=6, max_cols=6, entries=scalars):
    """(rows, ncols): small rational matrices, with zero rows and
    duplicated rows mixed in; rows may be empty and ncols may be 0."""
    ncols = draw(st.integers(min_value=0, max_value=max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncols,
                                  max_size=ncols),
                         max_size=max_rows))
    extra = draw(st.lists(st.integers(min_value=-1,
                                      max_value=max(len(rows) - 1, -1)),
                          max_size=3))
    for i in extra:
        rows.append(list(rows[i]) if i >= 0 else [F(0)] * ncols)
    return rows, ncols


def _column_vectors(draw, rows, ncols):
    """A right-hand side in the column span and an arbitrary one."""
    x0 = draw(st.lists(scalars, min_size=ncols, max_size=ncols))
    inside = [sum((a * b for a, b in zip(r, x0)), F(0)) for r in rows]
    anywhere = draw(st.lists(scalars, min_size=len(rows),
                             max_size=len(rows)))
    return inside, anywhere


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_rank_nullspace_match_oracle(mat):
    rows, ncols = mat
    assert rref(rows) == dense_oracle.rref(rows)
    assert matrix_rank(rows) == dense_oracle.matrix_rank(rows)
    assert nullspace(rows, ncols=ncols) == \
        dense_oracle.nullspace(rows, ncols)


@pytest.mark.parametrize("entries", list(ENTRIES.values()),
                         ids=list(ENTRIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_matches_oracle(entries, data):
    """Echelon.kernel gives the oracle's nullspace, one vector per free
    column in column order, also when the columns are renumbered by an
    increasing map (as a degree's generators sit inside a space)."""
    rows, ncols = data.draw(matrices(entries=entries))
    want = dense_oracle.nullspace(rows, ncols)
    shift = data.draw(st.integers(min_value=0, max_value=3))
    cols = [3 * j + shift for j in range(ncols)]
    ech = Echelon()
    for r in rows:
        ech.insert({cols[j]: v for j, v in enumerate(r) if v})
    got = ech.kernel(cols)
    assert [[v.get(c, F(0)) for c in cols] for v in got] == want
    assert all(set(v) <= set(cols) and all(v.values()) for v in got)


@pytest.mark.parametrize("entries", list(ENTRIES.values()),
                         ids=list(ENTRIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_coordinates_are_free_column_entries(entries, data):
    """Each kernel basis vector is 1 on its largest column, which is no
    pivot of the oracle's reduced form, and every other basis vector is
    0 there; so a kernel vector's coordinates are its entries on those
    columns."""
    rows, ncols = data.draw(matrices(entries=entries))
    ech = Echelon()
    for r in rows:
        ech.insert({j: v for j, v in enumerate(r) if v})
    basis = ech.kernel(range(ncols))
    pivots = dense_oracle.rref(rows)[1]
    free = [max(v) for v in basis]
    assert sorted(free + pivots) == list(range(ncols))
    for i, (v, j) in enumerate(zip(basis, free)):
        assert v[j] == 1
        assert all(u.get(j, 0) == 0 for k, u in enumerate(basis) if k != i)
    coeffs = data.draw(st.lists(scalars, min_size=len(basis),
                                max_size=len(basis)))
    w = [sum((c * v.get(j, 0) for c, v in zip(coeffs, basis)), F(0))
         for j in range(ncols)]
    assert [w[j] for j in free] == coeffs


@settings(max_examples=150, deadline=None)
@given(matrices(), matrices(), st.data())
def test_span_tests_match_oracle(vecs, amb, data):
    """in_span and complement_in agree with the oracle; vectors of one
    length are drawn as the rows of a matrix."""
    vectors, n = vecs
    amb_basis = [(r + [F(0)] * n)[:n] for r in amb[0]]
    v = data.draw(st.lists(scalars, min_size=n, max_size=n))
    coeffs = data.draw(st.lists(scalars, min_size=len(vectors),
                                max_size=len(vectors)))
    in_v = [sum((c * u[i] for c, u in zip(coeffs, vectors)), F(0))
            for i in range(n)]
    assert in_span(vectors, in_v)
    for w in (v, in_v):
        assert in_span(vectors, w) == dense_oracle.in_span(vectors, w)
    assert complement_in(amb_basis, vectors) == \
        dense_oracle.complement_in(amb_basis, vectors)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_pivots_do_not_depend_on_insertion_order(mat, rng):
    rows, ncols = mat
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert rref(shuffled) == rref(rows)
    ech = Echelon()
    for r in shuffled:
        ech.insert({j: v for j, v in enumerate(r) if v})
    assert sorted(ech.rows) == dense_oracle.rref(rows)[1]


def system_solve(rows, rhs, tie_break):
    """LinearSystem.solve on sparse rows over the unknowns 0, 1, ...,
    the position of unknown j being j, as {j: nonzero value} or None."""
    system = LinearSystem(tie_break)
    for r, b in zip(rows, rhs):
        system.equation(r, b)
    return system.solve(lambda j: j)


def system_answers(rows, rhs, ncols, tie_break):
    """solve_sparse, solve_canonical and LinearSystem.solve (with the
    given tie-break) on one system, as dense lists or None."""
    x = system_solve(sparse_rows(rows), rhs, tie_break)
    return [solve_sparse(sparse_rows(rows), rhs, ncols),
            solve_canonical(rows, rhs, ncols=ncols),
            None if x is None else [x.get(j, F(0)) for j in range(ncols)]]


def tie_break_columns(positions, tie_break):
    """col[j]: the column of the unknown at positions[j] when every
    unknown has one, for the tie-break: the unknowns sorted by
    position, or for a nonzero tie-break by the blake2b digest of
    repr((tie_break, position)), ties by position."""
    def rank(j):
        p = positions[j]
        return (hashlib.blake2b(repr((tie_break, p)).encode()).digest(),
                p) if tie_break else p

    col = [0] * len(positions)
    for c, j in enumerate(sorted(range(len(positions)), key=rank)):
        col[j] = c
    return col


def tie_break_oracle(rows, rhs, positions, tie_break):
    """The dense oracle's canonical solution of dense rows over one
    column per position, the columns ordered as tie_break_columns
    orders them."""
    ncols = len(positions)
    col = tie_break_columns(positions, tie_break)
    permuted = []
    for r in rows:
        row = [F(0)] * ncols
        for j, c in enumerate(r):
            row[col[j]] = c
        permuted.append(row)
    y = dense_oracle.solve_canonical(permuted, rhs, ncols)
    return None if y is None else [y[col[j]] for j in range(ncols)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_solves_match_oracle(data):
    """solve_canonical on dense rows, solve_sparse on dict rows and
    LinearSystem.solve give the oracle's canonical solution, and the
    same one on the rows in any order: for right-hand sides inside and
    outside the column span, with empty rows (an empty row with a
    nonzero right-hand side makes the system inconsistent) and with
    tie-breaks 0 and 1-9."""
    entries = data.draw(st.sampled_from(list(ENTRIES.values())))
    rows, ncols = data.draw(matrices(entries=entries))
    rows += [[F(0)] * ncols] * data.draw(st.integers(0, 2))
    order = list(range(len(rows)))
    data.draw(st.randoms(use_true_random=False)).shuffle(order)
    tie_break = data.draw(st.integers(min_value=1, max_value=9))
    for rhs in _column_vectors(data.draw, rows, ncols):
        for tb in (0, tie_break):
            want = tie_break_oracle(rows, rhs, range(ncols), tb)
            got = system_answers(rows, rhs, ncols, tb)
            assert got[2] == want
            if not tb:
                assert got == [want] * 3
            assert system_answers([rows[i] for i in order],
                                  [rhs[i] for i in order], ncols, tb) == got


def test_unrelated_unknowns_leave_the_answer_unchanged():
    """Equations over new unknowns, which no old row uses, leave the
    answer on the old unknowns unchanged at tie-breaks 0-9, with the
    new positions interleaved with the old: the relative order of two
    unknowns depends only on their positions and the tie-break.  The
    old system x0 + ... + x5 = 1 has five free variables, so its
    canonical solution is 1 at whichever x comes first."""
    old = [{(j, 0): 1 for j in range(6)}]
    new = [{(j, 1): 1, (j + 1, 1): -1} for j in range(5)] + [{(0, 1): 2}]
    alone = [system_solve(old, [1], tb) for tb in range(10)]
    assert len({next(iter(x)) for x in alone}) > 1
    for tb in range(10):
        both = system_solve(old + new, [1, 0, 0, 0, 0, 0, 4], tb)
        assert {k: v for k, v in both.items() if k[1] == 0} == alone[tb]
        assert {k: v for k, v in both.items() if k[1] == 1} == \
            {(j, 1): 2 for j in range(6)}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_drawn_unrelated_unknowns_leave_the_answer_unchanged(data):
    """The same on drawn consistent systems: the old unknowns (j, 0)
    and the new ones (j, 1), at tie-breaks 0-9, against the oracle's
    canonical solution of the old system alone."""
    rows, ncols = data.draw(matrices())
    more, nmore = data.draw(matrices())
    rhs = _column_vectors(data.draw, rows, ncols)[0]
    more_rhs = _column_vectors(data.draw, more, nmore)[0]
    old = [{(j, 0): c for j, c in r.items()} for r in sparse_rows(rows)]
    new = [{(j, 1): c for j, c in r.items()} for r in sparse_rows(more)]
    positions = [(j, 0) for j in range(ncols)]
    for tb in range(10):
        both = system_solve(old + new, rhs + more_rhs, tb)
        want = tie_break_oracle(rows, rhs, positions, tb)
        assert {k: v for k, v in both.items() if k[1] == 0} == \
            {(j, 0): v for j, v in enumerate(want) if v}


def test_solves_insert_the_shortest_rows_first(monkeypatch):
    """A solve inserts every row it is given in nondecreasing length,
    ties in their given order, the empty row with a zero right-hand
    side included; so do the solves under every tie-break."""
    inserted = []
    real = Echelon.insert

    def spy(self, v):
        inserted.append(dict(v))
        return real(self, v)

    monkeypatch.setattr(Echelon, "insert", spy)
    rows = [{0: 1, 1: 2, 2: -1, 3: 1}, {1: 1, 2: 1}, {0: 1}, {3: 2},
            {0: 1, 2: 1, 3: 1}, {}]
    rhs = [1, 2, 3, 4, 5, 0]
    x = solve_sparse(rows, rhs, 4)
    assert [len(v) for v in inserted] == [1, 2, 2, 3, 4, 5]
    assert inserted[0:3] == [{4: 0}, {0: 1, 4: 3}, {3: 2, 4: 4}]
    assert x == dense_oracle.solve_canonical(
        [[r.get(j, F(0)) for j in range(4)] for r in rows], rhs, 4)
    for tb in range(10):
        inserted.clear()
        system_solve(rows, rhs, tb)
        lengths = [len(v) for v in inserted]
        assert lengths == sorted(lengths) and len(lengths) == len(rows)


@st.composite
def block_systems(draw):
    """(rows, rhs, ncols): a block-diagonal system of sparse rows, its
    rows shuffled and its columns interleaved across blocks.  A block's
    right-hand side is zero, inside its column span, or made
    inconsistent by a copy of one of its rows with the right-hand side
    moved by 1; a chain block (row k uses columns k and k+1) has one
    nonzero right-hand side, so a walk must take several hops to reach
    all of it.  Some entries are explicit zeros, and empty rows with
    zero and nonzero right-hand sides are mixed in."""
    kinds = draw(st.lists(st.sampled_from(["homogeneous", "consistent",
                                           "inconsistent", "chain"]),
                          min_size=1, max_size=4))
    blocks = []
    for kind in kinds:
        if kind == "chain":
            n = draw(st.integers(min_value=2, max_value=6))
            block = [[F(0)] * n for _ in range(n - 1)]
            for k, r in enumerate(block):
                r[k], r[k + 1] = draw(nonzero), draw(nonzero)
            b = [F(0)] * (n - 1)
            b[draw(st.integers(min_value=0, max_value=n - 2))] = F(1)
        else:
            block, n = draw(matrices(max_rows=4, max_cols=4))
            inside, _ = _column_vectors(draw, block, n)
            b = [F(0)] * len(block) if kind == "homogeneous" else inside
        blocks.append((kind, block, n, b))
    ncols = sum(n for _, _, n, _ in blocks)
    cols = list(range(ncols))
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(cols)
    rows, rhs, start = [], [], 0
    for kind, block, n, b in blocks:
        own = cols[start:start + n]
        start += n
        sparse = [{own[j]: c for j, c in enumerate(r)
                   if c or draw(st.booleans())} for r in block]
        full = [i for i, r in enumerate(block) if any(r)]
        if kind == "inconsistent" and full:
            i = draw(st.sampled_from(full))
            sparse.append(dict(sparse[i]))
            b = b + [b[i] + 1]
        rows += sparse
        rhs += b
    for b in draw(st.lists(st.sampled_from([F(0), F(2)]), max_size=2)):
        rows.append({})
        rhs.append(b)
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [rows[i] for i in order], [rhs[i] for i in order], ncols


def reached_rows(rows, rhs):
    """Indices of the rows whose component, in the graph joining each
    row to the columns of its nonzero entries, holds a nonzero
    right-hand side: rows and columns are merged into shared node sets
    edge by edge."""
    comp = {("row", i): {("row", i)} for i in range(len(rows))}
    for i, row in enumerate(rows):
        for j, c in row.items():
            a = comp[("row", i)]
            b = comp.setdefault(("col", j), {("col", j)})
            if c and a is not b:
                a |= b
                for node in b:
                    comp[node] = a
    hot = [comp[("row", i)] for i, b in enumerate(rhs) if b]
    return [i for i in range(len(rows))
            if any(comp[("row", i)] is h for h in hot)]


@settings(max_examples=150, deadline=None)
@given(block_systems())
def test_solves_eliminate_every_given_row(drawn):
    """solve_sparse, solve_canonical and LinearSystem.solve at
    tie-breaks 0-9 give the dense oracle's canonical solution on
    block-diagonal systems, and insert every given row exactly once,
    shortest first, the rows of homogeneous components included.
    `reached`, which decides the rows a stage writes, selects exactly
    the rows whose component holds a nonzero right-hand side."""
    rows, rhs, ncols = drawn
    dense = [[r.get(j, F(0)) for j in range(ncols)] for r in rows]
    assert reached(rows, rhs) == set(reached_rows(rows, rhs))
    inserted = []
    real = Echelon.insert

    def spy(self, v):
        inserted.append(dict(v))
        return real(self, v)

    def shortest_first():
        lengths = [len(v) for v in inserted]
        return len(inserted) == len(rows) and lengths == sorted(lengths)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Echelon, "insert", spy)
        want = dense_oracle.solve_canonical(dense, rhs, ncols)
        assert solve_sparse(rows, rhs, ncols) == want
        assert inserted == [{**rows[i], ncols: rhs[i]} for i in sorted(
            range(len(rows)), key=lambda i: len(rows[i]))]
        inserted.clear()
        assert solve_canonical(dense, rhs, ncols=ncols) == want
        assert shortest_first()
        for tb in range(10):
            inserted.clear()
            x = system_solve(rows, rhs, tb)
            assert (None if x is None else
                    [x.get(j, F(0)) for j in range(ncols)]) == \
                tie_break_oracle(dense, rhs, range(ncols), tb)
            assert shortest_first()


# ---------------------------------------------------------------------------
# scalar types: integral coefficients are ints inside Echelon, answers
# are Fractions.  == cannot tell them apart (F(2) == 2, {0: 2} == {0:
# F(2)}), so the types are asserted one value at a time.


def retype(rows, form, rng):
    """rows with every integral entry an int ("int"), a Fraction
    ("fraction") or either at random ("mixed"); other entries stay
    Fractions."""
    def one(c):
        if c.denominator != 1:
            return c
        if form == "int" or (form == "mixed" and rng.random() < 0.5):
            return c.numerator
        return F(c)
    return [[one(F(c)) for c in r] for r in rows]


def fractions_only(*values):
    """Every scalar in the nested answers is a Fraction (None stands
    for no answer)."""
    for v in values:
        if v is None:
            continue
        if isinstance(v, dict):
            fractions_only(*v.values())
        elif isinstance(v, list):
            fractions_only(*v)
        else:
            assert type(v) is F, (type(v), v)


def is_int_first(c):
    """c is an int, or a Fraction that is not integral."""
    return type(c) is int or (type(c) is F and c.denominator != 1)


def fraction_free(ech):
    """Every stored row is primitive: int coefficients, all above its
    pivot column, whose gcd with the pivot coefficient is 1; the pivot
    coefficient is a positive int, kept in scale only when it is not 1."""
    assert set(ech.scale) <= set(ech.rows)
    assert all(type(d) is int and d > 1 for d in ech.scale.values())
    for p, r in ech.rows.items():
        assert all(type(c) is int and c and k > p for k, c in r.items()), r
        assert math.gcd(ech.scale.get(p, 1), *r.values()) == 1, r


def sparse_rows(rows):
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def span_vectors(draw, rows, ncols):
    """A vector in the row span and an arbitrary one, as sparse dicts."""
    coeffs = draw(st.lists(scalars, min_size=len(rows),
                           max_size=len(rows)))
    inside = [sum((c * r[j] for c, r in zip(coeffs, rows)), F(0))
              for j in range(ncols)]
    anywhere = draw(st.lists(scalars, min_size=ncols, max_size=ncols))
    return [{j: v for j, v in enumerate(w) if v}
            for w in (inside, anywhere)]


def engine_answers(rows, ncols, rhs, probes, tie_break=0):
    """Every public answer of the engine on one matrix, in a form that
    == compares; checks the fraction-free invariant on the way."""
    ech = Echelon()
    independent = [ech.insert(r) for r in sparse_rows(rows)]
    fraction_free(ech)
    return {
        "independent": independent,
        "reduced": ech.reduced_rows(),
        "kernel": ech.kernel(range(ncols)),
        "reduce": [ech.reduce(v) for v in probes],
        "solve_sparse": solve_sparse(sparse_rows(rows), rhs, ncols),
        "solve_canonical": solve_canonical(rows, rhs, ncols=ncols),
        "system": system_solve(sparse_rows(rows), rhs, tie_break),
        "rref": rref(rows),
        "nullspace": nullspace(rows, ncols=ncols),
    }


@pytest.mark.parametrize("entries", list(ENTRIES.values()),
                         ids=list(ENTRIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_answers_are_fractions(entries, data):
    """Whatever the input types, every value the engine returns is a
    Fraction, and what it stores is fraction-free."""
    rows, ncols = data.draw(matrices(entries=entries))
    rows = retype(rows, "mixed", data.draw(st.randoms(use_true_random=False)))
    rhs = data.draw(st.lists(st.sampled_from([0, 1, -2, F(1, 2), F(3)]),
                             min_size=len(rows), max_size=len(rows)))
    probes = span_vectors(data.draw, rows, ncols)
    tie_break = data.draw(st.integers(min_value=1, max_value=9))
    for tb in (0, tie_break):
        got = engine_answers(rows, ncols, rhs, probes, tb)
        got["rref"] = got["rref"][0]
        del got["independent"]
        fractions_only(*got.values())
    # solution() directly, on a consistent system
    ech = Echelon()
    x0 = {j: F(j + 1, 2) for j in range(ncols)}
    for r in sparse_rows(rows):
        ech.insert({**r, ncols: sum((c * x0[j] for j, c in r.items()), 0)})
    fraction_free(ech)
    fractions_only(ech.solution(ncols))


# pivots of every kind: +1, -1 (kept or negated), non-unit integers
# (divided), proper fractions (divided, some with an integral inverse)
PIVOT_CASES = {
    "unit": [[1, 2, 0], [0, 1, -3]],
    "negated": [[-1, 2, 4], [0, -1, 1], [-1, 1, 5]],
    "non-unit-int": [[2, 4, 1], [0, 3, 6], [4, 0, 2]],
    "fractional": [[F(1, 2), 1, 0], [0, F(-2, 3), F(4, 3)],
                   [F(1, 3), F(1, 3), 2]],
    "inverse-integral": [[F(1, 2), F(3, 2)], [F(-1, 3), 1]],
}


def check_forms_agree(rows, ncols, rhs, probes, rng):
    """The answers on the int, Fraction and mixed forms of one matrix
    are equal and equal the dense oracle's."""
    answers = [engine_answers(retype(rows, form, rng), ncols, rhs, probes)
               for form in ("int", "fraction", "mixed")]
    assert answers[0] == answers[1] == answers[2]
    got = answers[0]
    want_red, pivots = dense_oracle.rref(rows)
    assert [{**got["reduced"][p], p: 1} for p in pivots] == \
        [{j: c for j, c in enumerate(r) if c} for r in want_red[:len(pivots)]]
    assert sorted(got["reduced"]) == pivots
    assert [[v.get(j, 0) for j in range(ncols)] for v in got["kernel"]] == \
        dense_oracle.nullspace(rows, ncols)
    want_x = dense_oracle.solve_canonical(rows, rhs, ncols)
    assert got["solve_sparse"] == got["solve_canonical"] == want_x
    assert got["system"] == (None if want_x is None else
                             {j: c for j, c in enumerate(want_x) if c})
    assert got["rref"] == (want_red, pivots)
    assert got["nullspace"] == dense_oracle.nullspace(rows, ncols)
    for v, left in zip(probes, got["reduce"]):
        w = [v.get(j, F(0)) for j in range(ncols)]
        assert dense_oracle.in_span(rows, w) == (not left)


@pytest.mark.parametrize("case", list(PIVOT_CASES), ids=list(PIVOT_CASES))
def test_pivot_paths_agree_across_input_types(case):
    rows = [[F(c) for c in r] for r in PIVOT_CASES[case]]
    ncols = len(rows[0])
    rhs = [F(1), F(-2), F(1, 2)][:len(rows)]
    inside = {j: sum((r[j] for r in rows), F(0)) for j in range(ncols)}
    probes = [{j: c for j, c in inside.items() if c}, {0: F(1, 3), 1: 5}]
    check_forms_agree(rows, ncols, rhs, probes, random.Random(case))


@pytest.mark.parametrize("entries", list(ENTRIES.values()),
                         ids=list(ENTRIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_int_and_fraction_inputs_agree(entries, data):
    rows, ncols = data.draw(matrices(entries=entries))
    rhs = data.draw(st.lists(scalars, min_size=len(rows),
                             max_size=len(rows)))
    probes = span_vectors(data.draw, rows, ncols)
    check_forms_agree(rows, ncols, rhs, probes,
                      data.draw(st.randoms(use_true_random=False)))


# a factor per row, so that reduced rows have content other than 1 and
# pivots other than units
row_factors = st.sampled_from([1, 2, -3, 6, F(1, 4), F(-10, 3)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fraction_free_engine_matches_oracle(data):
    """On rows with non-unit pivots and rational entries, in int,
    Fraction or mixed form, every answer of the engine equals the dense
    oracle's: insert's verdicts, reduce, solution, kernel and
    reduced_rows; every stored row is primitive after every insert."""
    entries = data.draw(st.sampled_from([non_unit, scalars]))
    rows, ncols = data.draw(matrices(entries=entries))
    factors = data.draw(st.lists(row_factors, min_size=len(rows),
                                 max_size=len(rows)))
    rows = [[c * f for c in r] for r, f in zip(rows, factors)]
    form = data.draw(st.sampled_from(["int", "fraction", "mixed"]))
    given_rows = sparse_rows(retype(
        rows, form, data.draw(st.randoms(use_true_random=False))))
    ech = Echelon()
    verdicts = []
    for r in given_rows:
        verdicts.append(ech.insert(r))
        fraction_free(ech)
    ranks = [dense_oracle.matrix_rank(rows[:i])
             for i in range(len(rows) + 1)]
    assert verdicts == [b > a for a, b in zip(ranks, ranks[1:])]
    red, pivots = dense_oracle.rref(rows)
    assert ech.reduced_rows() == {
        p: {j: c for j, c in enumerate(red[i]) if c and j != p}
        for i, p in enumerate(pivots)}
    assert [[v.get(j, 0) for j in range(ncols)]
            for v in ech.kernel(range(ncols))] == \
        dense_oracle.nullspace(rows, ncols)
    for v in span_vectors(data.draw, rows, ncols):
        # the remainder is v less its pivot entries times the reduced rows
        left = [v.get(j, F(0)) - sum((v.get(p, 0) * red[i][j]
                                      for i, p in enumerate(pivots)), F(0))
                for j in range(ncols)]
        assert ech.reduce(v) == {j: c for j, c in enumerate(left) if c}
    for rhs in _column_vectors(data.draw, rows, ncols):
        solved = Echelon()
        for r, b in zip(given_rows, rhs):
            solved.insert({**r, ncols: b})
            fraction_free(solved)
        want = dense_oracle.solve_canonical(rows, rhs, ncols)
        assert solved.solution(ncols) == (
            None if want is None else {j: c for j, c in enumerate(want) if c})


def test_engine_edge_cases():
    assert rref([]) == ([], [])
    assert rref([[], []]) == ([[], []], [])
    assert matrix_rank([]) == 0
    assert nullspace([], ncols=2) == [[F(1), F(0)], [F(0), F(1)]]
    assert nullspace([[F(0), F(0)]], ncols=2) == [[F(1), F(0)], [F(0), F(1)]]
    assert solve_canonical([], [], ncols=3) == [F(0)] * 3
    assert solve_canonical([[], []], [F(0), F(0)], ncols=0) == []
    assert solve_canonical([[]], [F(1)], ncols=0) is None
    assert solve_sparse([{}, {0: F(2)}, {0: F(2)}], [F(0), F(4), F(4)],
                        1) == [F(2)]
    assert solve_sparse([{0: F(2)}, {0: F(2)}], [F(4), F(5)], 1) is None
    assert in_span([], [F(0), F(0)]) and not in_span([], [F(1)])
    assert complement_in([[F(1)], [F(2)]], []) == [[F(1)]]
    # explicit zero coefficients in sparse rows are ignored
    assert solve_sparse([{0: F(0), 1: F(1)}], [F(3)], 2) == [F(0), F(3)]


def test_kernel_refuses_a_missing_column():
    """A column set that misses a column of an inserted row is refused,
    naming the column, instead of giving part of the kernel."""
    ech = Echelon()
    ech.insert({0: 1, 2: 1})
    with pytest.raises(ValueError, match="column 2 is not in cols"):
        ech.kernel([0, 1])
    with pytest.raises(ValueError, match="column 0 is not in cols"):
        ech.kernel([1, 2])
    assert ech.kernel(range(3)) == [{1: F(1)}, {2: F(1), 0: F(-1)}]


def test_reduction_cancels_before_it_scales():
    """A reduction step v <- (d/g) v - (v_p/g) r with g = gcd(d, v_p)
    scales the whole vector only when d/g != 1, and an input is scaled
    once by the lcm of its denominators: _reduce gives (w, s) with
    w/s the remainder."""
    ech = Echelon()
    ech.insert({0: 2, 1: 1})
    ech.insert({1: 3, 2: 3})
    assert (ech.rows, ech.scale) == ({0: {1: 1}, 1: {2: 1}}, {0: 2})
    # d = 2 divides v_0 = 4: nothing is scaled
    assert ech._reduce({0: 4, 1: 1, 3: 1}) == ({2: 1, 3: 1}, 1)
    # gcd(2, 3) = 1: scaled once by 2
    assert ech._reduce({0: 3, 1: 1, 3: 1}) == ({2: 1, 3: 2}, 2)
    assert ech.reduce({0: 3, 1: 1, 3: 1}) == {2: F(1, 2), 3: F(1)}
    # lcm 6 of the denominators, then one scaling by 2
    assert ech._reduce({0: F(1, 2), 1: F(1, 3)}) == ({2: -1}, 12)
    assert ech.reduce({0: F(1, 2), 1: F(1, 3)}) == {2: F(-1, 12)}


def test_in_span_and_complement():
    vs = [[F(1), F(0), F(1)], [F(0), F(1), F(0)]]
    assert in_span(vs, [F(2), F(3), F(2)])
    assert not in_span(vs, [F(0), F(0), F(1)])
    amb = [[F(1), F(0)], [F(0), F(1)]]
    comp = complement_in(amb, [[F(1), F(1)]])
    assert len(comp) == 1


def test_koszul_sign_basics():
    # swapping two odd elements flips the sign
    assert koszul_sign([1, 1], [1, 0]) == -1
    # swapping odd past even costs nothing
    assert koszul_sign([1, 0], [1, 0]) == 1
    assert koszul_sign([0, 0, 0], [2, 0, 1]) == 1


@given(st.permutations(range(5)),
       st.lists(st.integers(min_value=0, max_value=3), min_size=5,
                max_size=5))
def test_koszul_sign_involution(perm, degs):
    # applying a permutation then its inverse restores sign 1
    perm = list(perm)
    inv = [0] * 5
    for i, p in enumerate(perm):
        inv[p] = i
    s1 = koszul_sign(degs, perm)
    degs_permuted = [degs[p] for p in perm]
    s2 = koszul_sign(degs_permuted, inv)
    assert s1 * s2 == 1


def test_unshuffle_counts_and_cap():
    for k in range(0, 7):
        for i in range(0, k + 1):
            assert len(unshuffles(i, k)) == math.comb(k, i)
    with pytest.raises(CapError):
        unshuffles(6, 13)


def test_canonical_word_and_odd_squares():
    S = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
    w, s = canonical_word(S, ("c", "b", "a"))
    assert w == ("a", "b", "c") and s == -1
    w, s = canonical_word(S, ("b", "b"))
    assert w is None and s == 0
    # even generators repeat freely
    w, s = canonical_word(S, ("a", "a"))
    assert w == ("a", "a") and s == 1


def test_sym_words_count():
    S = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
    # arity 2: aa, ab, ac, bc  (bb and cc vanish)
    assert len(sym_words(S, 2)) == 4
    assert word_degree(S, ("a", "b", "c")) == 2


def test_split_sign_matches_koszul():
    # the split signs of three odd letters: splitting (positions 1,2 | 0)
    # reorders odd letters
    signs = {(b1, b2): s for b1, b2, s in _split_signs((1, 1, 1), 2)}
    assert signs[(1, 2), (0,)] == koszul_sign([1, 1, 1], [1, 2, 0]) == 1
    assert signs[(0, 2), (1,)] == koszul_sign([1, 1, 1], [0, 2, 1]) == -1


def test_cohomology_oracle():
    # 0 -> k a -> k b (+) k c -> 0 with d(a) = b: H^0 = 0, H^1 = <c>
    S = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
    d = GradedMap(S, S, 1, {"a": {"b": F(1)}})
    assert cohomology(d) == {0: 0, 1: 1}


@settings(max_examples=150, deadline=None)
@given(st.one_of(*(matrices(entries=e) for e in ENTRIES.values())))
def test_cohomology_matches_oracle(mat):
    """A random differential from degree 0 to degree 1: dim H^0 is the
    size of the oracle's nullspace and dim H^1 that of the greedy
    complement of the image among the unit vectors."""
    rows, n0 = mat
    n1 = len(rows)
    src = ["a%d" % j for j in range(n0)]
    tgt = ["b%d" % r for r in range(n1)]
    S = GradedSpace([(a, 0) for a in src] + [(b, 1) for b in tgt])
    d = GradedMap(S, S, 1, {src[j]: {tgt[r]: row[j]
                                     for r, row in enumerate(rows)}
                            for j in range(n0)})
    image = [[row[j] for row in rows] for j in range(n0)]
    units = [[F(int(i == j)) for j in range(n1)] for i in range(n1)]
    want = {}
    for deg, labels, reps in (
            (0, src, dense_oracle.nullspace(rows, n0)),
            (1, tgt, dense_oracle.complement_in(units, image))):
        if labels:
            want[deg] = len(reps)
    assert cohomology(d) == want


def test_cohomology_rejects_nonsquarezero():
    S = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    d = GradedMap(S, S, 1, {"a": {"b": F(1)}, "b": {"c": F(1)}})
    with pytest.raises(Exception):
        cohomology(d)
    # the witness is the least label with d(d(x)) != 0, whatever the
    # generator order
    S = GradedSpace([("z", 0), ("a", 0), ("b", 1), ("c", 2)])
    d = GradedMap(S, S, 1, {"z": {"b": F(1)}, "a": {"b": F(2)},
                            "b": {"c": F(1)}})
    with pytest.raises(CohomologyError) as err:
        cohomology(d)
    assert err.value.witness == "a"


def test_vec_helpers_and_canonical_dump():
    v = vec_acc({"a": F(1)}, {"a": F(1), "b": F(2)}, F(-1))
    assert v == {"b": F(-2)}
    d1 = dumps_canonical({"b": 1, "a": [2, 3]})
    d2 = dumps_canonical({"a": [2, 3], "b": 1})
    assert d1 == d2 and d1.endswith("\n")


def test_graded_space_json_roundtrip():
    S = GradedSpace([("a", 0), ("b", -2)])
    S2 = GradedSpace.from_json(S.to_json())
    assert S == S2
    m = GradedMap(S, S, 2, {"b": {"a": F(3, 2)}})
    doc = m.to_json()
    assert GradedSpace.from_json(doc["source"]) == S
    assert doc["shift"] == 2
    assert doc["entries"] == [{"from": "b", "to": "a", "coeff": "3/2"}]


# ---------------------------------------------------------------------------
# graded maps against dense matrix products

# few values, so that sums of products often cancel
map_scalars = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2)])


@st.composite
def graded_spaces(draw, prefix):
    """Up to four generators of degree 0..2 whose labels are out of
    index order."""
    perm = draw(st.permutations(range(draw(st.integers(0, 4)))))
    return GradedSpace([("%s%d" % (prefix, p), draw(st.integers(0, 2)))
                        for p in perm])


def dense_of(draw, S, T, shift):
    """A random matrix S -> T (rows: target labels, columns: source
    labels, in index order), zero wherever the shift forbids an entry."""
    return [[draw(map_scalars) if T.deg[b] == S.deg[a] + shift else F(0)
             for a in S.labels] for b in T.labels]


def map_of(S, T, shift, mat):
    """The GradedMap of a dense matrix; zero coefficients and empty
    images are passed in for the constructor to drop."""
    return GradedMap(S, T, shift, {a: {b: mat[i][j]
                                       for i, b in enumerate(T.labels)}
                                   for j, a in enumerate(S.labels)})


def dense(m):
    return [[m.images.get(a, {}).get(b, F(0)) for a in m.source.labels]
            for b in m.target.labels]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graded_map_matches_dense_products(data):
    U, V, W = (data.draw(graded_spaces(p)) for p in "uvw")
    s1, s2 = data.draw(st.integers(0, 1)), data.draw(st.integers(-1, 1))
    A, B = dense_of(data.draw, U, V, s1), dense_of(data.draw, V, W, s2)
    f, g = map_of(U, V, s1, A), map_of(V, W, s2, B)
    for m, want in ((f, A), (g, B)):
        assert dense(m) == want
        assert all(img and all(img.values()) for img in m.images.values())
        assert dict(m.entries) == {
            (a, b): want[i][j] for j, a in enumerate(m.source.labels)
            for i, b in enumerate(m.target.labels) if want[i][j]}
        for j, a in enumerate(m.source.labels):
            assert m.images.get(a, {}) == {b: row[j] for b, row
                                      in zip(m.target.labels, want) if row[j]}
    x = [data.draw(map_scalars) for _ in U.labels]
    fx = matmul(A, [[v] for v in x], 1)
    assert f.apply(dict(zip(U.labels, x))) == \
        {b: r[0] for b, r in zip(V.labels, fx) if r[0]}
    gf = g.compose(f)
    assert (gf.source, gf.target, gf.shift) == (U, W, s1 + s2)
    assert dense(gf) == matmul(B, A, U.dim)
    assert gf.is_zero() == (not any(map(any, matmul(B, A, U.dim))))


def test_graded_map_cancellation_and_errors():
    U = GradedSpace([("u", 0)])
    V = GradedSpace([("v2", 1), ("v1", 1), ("v0", 0)])
    W = GradedSpace([("w", 1)])
    f = GradedMap(U, V, 1, {"u": {"v1": F(1), "v2": F(1)}})
    g = GradedMap(V, W, 0, {"v1": {"w": F(1)}, "v2": {"w": F(-1)},
                            "v0": {}})
    assert g.compose(f).is_zero() and not g.compose(f).images
    assert "v0" not in g.images and g.images.get("v0", {}) == {}
    with pytest.raises(TypeError):
        f.entries[("u", "v1")] = F(2)
    with pytest.raises(ValueError, match="unknown source"):
        GradedMap(U, V, 1, {"x": {"v1": F(1)}})
    with pytest.raises(ValueError, match="unknown target"):
        GradedMap(U, V, 1, {"u": {"x": F(1)}})
    with pytest.raises(ValueError, match="violates shift"):
        GradedMap(U, V, 0, {"u": {"v1": F(1)}})
    # the pair format {(source, target): c} is not an image table
    with pytest.raises(ValueError, match="unknown source"):
        GradedMap(U, V, 1, {("u", "v1"): F(1)})
