"""Differential tests of the row builders behind every homotopy solve.

delta1_rows, post_rows and pre_rows write a linear condition on an
unknown map u as rows (word, label, {(tag, word', label'): coeff}), one
row per word and label of the condition.  Dotted with the coefficients
of any table u, the row at (word, label) must give the condition's
value there: delta1(u)(word)_label, psi(u(word))_label or
u(phi^{x m}(word))_label.  Here those values are computed from the
tables directly, with term_oracle's independent expansion and delta1.

chain_inverse and the contracting extension of fill_n_homotopy are
stages of linfty.solve_map_stage, which writes them from these
builders.  Each system is read from the last argument of the recorded
solve_map_stage call and compared with term_oracle.delta1, and so is
the order of its columns, which fixes the canonical solution: the
unknowns its rows use, in the order the tie-break gives their
positions (test_gradedlin.tie_break_columns).  The stage solver builds
only the rows a nonzero right-hand side reaches, so the rows `reached`
selects are compared: the oracle's rows are read off as linear forms
at unit values of the unknowns.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfkit import htpy, linfty
from linfkit.gradedlin import GradedSpace, reached, sym_words, word_degree
from linfkit.htpy import FillError, chain_inverse, fill_n_homotopy
from linfkit.linfty import (LInftyAlgebra, LInftyMorphism, delta1_rows,
                            post_rows, pre_rows)

import term_oracle
from test_gradedlin import tie_break_columns
from test_htpy import acyclic_pair, dg_lie_triple, sign_automorphism

VALUES = [F(1), F(-1), F(2), F(1, 2), F(-3)]
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 4))
    degs = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    return GradedSpace(list(zip("abcd", degs)))


def draw_map(draw, space, target, m, shift):
    """{canonical word: element} of degree shift on the arity-m words,
    each element with any subset of its labels."""
    tab = {}
    for w in term_oracle.words(space, m):
        val = {b: draw(st.sampled_from(VALUES))
               for b in target.basis_in_degree(word_degree(space, w)
                                                + shift)
               if draw(st.booleans())}
        if val:
            tab[w] = val
    return tab


def draw_linear(draw, space, target, shift=0):
    return {w[0]: v for w, v in draw_map(draw, space, target, 1,
                                         shift).items()}


def abelian(space):
    return LInftyAlgebra(space, {})


def dot(row, u):
    return sum(c * u.get(w, {}).get(t, 0) for (_, w, t), c in row.items())


def pairs(D, B, m, shift):
    """The (word, label) of every row of a condition on S^m D with
    values in B in degree |word| + shift."""
    return [(w, t) for w in term_oracle.words(D, m)
            for t in B.basis_in_degree(word_degree(D, w) + shift)]


def unknown_keys(A, B, m, tag, shift):
    return [(tag, w, b) for w in term_oracle.words(A, m)
            for b in B.basis_in_degree(word_degree(A, w) + shift)]


def columns(sys):
    """The keys of a solved LinearSystem, in column order."""
    return sorted(sys.index, key=sys.index.get)


def ordered(keys, positions, tie_break):
    """The keys in the column order the tie-break gives their
    positions."""
    return [k for _, k in sorted(zip(tie_break_columns(positions,
                                                       tie_break), keys))]


@PROPERTY
@given(spaces(), spaces(), spaces(), st.integers(1, 3),
       st.integers(-1, 1), st.data())
def test_post_rows_give_psi_after_u(SA, SB, SC, m, shift, data):
    u = draw_map(data.draw, SA, SB, m, shift)
    psi = draw_linear(data.draw, SB, SC)
    rows = list(post_rows(pairs(SA, SC, m, shift), "u", psi))
    assert [(w, y) for w, y, _ in rows] == pairs(SA, SC, m, shift)
    keys = set(unknown_keys(SA, SB, m, "u", shift))
    for w, y, row in rows:
        assert set(row) <= keys
        want = sum(c * psi.get(t, {}).get(y, 0)
                   for t, c in u.get(w, {}).items())
        assert dot(row, u) == want


@PROPERTY
@given(spaces(), spaces(), spaces(), st.integers(1, 3),
       st.integers(-1, 1), st.data())
def test_pre_rows_give_u_after_phi(SD, SA, SB, m, shift, data):
    phi = draw_linear(data.draw, SD, SA)
    u = draw_map(data.draw, SA, SB, m, shift)
    rows = list(pre_rows(abelian(SD), abelian(SA), abelian(SB), m, "u",
                         phi, shift))
    assert [(v, t) for v, t, _ in rows] == pairs(SD, SB, m, shift)
    keys = set(unknown_keys(SA, SB, m, "u", shift))
    for v, t, row in rows:
        assert set(row) <= keys
        expanded = term_oracle.expand(SA, [phi.get(a, {}) for a in v])
        want = sum(c * u.get(cw, {}).get(t, 0)
                   for cw, c in expanded.items())
        assert dot(row, u) == want


@PROPERTY
@given(spaces(), spaces(), st.integers(1, 3), st.integers(-1, 1),
       st.data())
def test_delta1_rows_give_delta1(SA, SB, m, shift, data):
    A = LInftyAlgebra(SA, {1: draw_map(data.draw, SA, SA, 1, 1)})
    B = LInftyAlgebra(SB, {1: draw_map(data.draw, SB, SB, 1, 1)})
    u = draw_map(data.draw, SA, SB, m, shift)
    cells = pairs(SA, SB, m, shift + 1)
    rows = list(delta1_rows(A, B, cells, shift, "u"))
    assert [(w, b) for w, b, _ in rows] == pairs(SA, SB, m, shift + 1)
    want = term_oracle.delta1(A, B, u, m, shift)
    for w, b, row in rows:
        assert dot(row, u) == want.get(w, {}).get(b, 0)
    # any selection of the cells gives the same rows at those cells
    picked = [c for c in cells if data.draw(st.booleans())]
    assert list(delta1_rows(A, B, picked, shift, "u")) \
        == [r for r in rows if r[:2] in picked]


# ---------------------------------------------------------------------------
# the systems of chain_inverse and the contracting extension


def stage_calls(call, *args):
    """(arguments, answer) of every stage the call hands
    solve_map_stage; the last argument is the LinearSystem the stage
    was written into.  A FillError of the call is swallowed, since its
    stage is written before the call refuses it."""
    calls = []
    real = linfty.solve_map_stage

    def spy(*stage):
        calls.append((stage, real(*stage)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(htpy, "solve_map_stage", spy)
        try:
            call(*args)
        except FillError:
            pass
    return calls


def recorded(call, *args):
    """The LinearSystem of every stage the call solves."""
    return [stage[-1] for stage, _ in stage_calls(call, *args)]


def table(values, tag):
    out = {}
    for (t, w, b), c in values.items():
        if t == tag and c:
            out.setdefault(w, {})[b] = c
    return out


def linear_rows(keys, sides):
    """The equations (row {key: coeff}, right side) whose left sides
    sides(values) gives, with their right sides, at values of the keys;
    each row is read off at the unit values."""
    at_zero = sides({k: 0 for k in keys})
    assert all(v == 0 for v, _ in at_zero)
    rows = [{} for _ in at_zero]
    for k in keys:
        for row, (v, _) in zip(rows, sides({j: int(j == k) for j in keys})):
            if v:
                row[k] = v
    return [(row, b) for row, (_, b) in zip(rows, at_zero)]


def reached_equations(eqs):
    """The equations `reached` selects, sorted."""
    hit = reached([row for row, _ in eqs], [b for _, b in eqs])
    return sorted((sorted(row.items()), b)
                  for i, (row, b) in enumerate(eqs) if i in hit)


@PROPERTY
@given(spaces(), spaces(), st.data())
def test_chain_inverse_rows_are_delta1(S1, S2, data):
    """delta1(g) = 0 for g: C2 -> C1, and g f1 - delta1(h) = id for h:
    C1 -> C1 of degree -1: every row written is one of them, and the
    rows written and the oracle's select the same reached rows."""
    C1 = LInftyAlgebra(S1, {1: draw_map(data.draw, S1, S1, 1, 1)})
    C2 = LInftyAlgebra(S2, {1: draw_map(data.draw, S2, S2, 1, 1)})
    f1 = draw_map(data.draw, S1, S2, 1, 0)
    f = LInftyMorphism(C1, C2, {1: f1})
    sys, = recorded(chain_inverse, f)
    keys = unknown_keys(S2, S1, 1, "g", 0) + unknown_keys(S1, S1, 1, "h", -1)
    assert columns(sys) == [k for k in keys if k in sys.index]

    def sides(values):
        g, h = table(values, "g"), table(values, "h")
        dg = term_oracle.delta1(C2, C1, g, 1, 0)
        dh = term_oracle.delta1(C1, C1, h, 1, -1)
        out = [(dg.get(w, {}).get(b, 0), 0) for w, b in pairs(S2, S1, 1, 1)]
        for w, y in pairs(S1, S1, 1, 0):
            gf = sum(c * g.get(cw, {}).get(y, 0) for cw, c in
                     term_oracle.expand(S2, [f1.get(w, {})]).items())
            out.append((gf - dh.get(w, {}).get(y, 0), int(w == (y,))))
        return out

    want = linear_rows(keys, sides)
    got = written(sys)
    assert all(e in want for e in got)
    assert reached_equations(got) == reached_equations(want)


def written(sys):
    """The equations of a solved LinearSystem over its keys."""
    keys = columns(sys)
    return [({keys[j]: c for j, c in row.items()}, b)
            for row, b in zip(sys.rows, sys.rhs)]


def fills():
    C = acyclic_pair()
    ident = LInftyMorphism.identity(C)
    phi = sign_automorphism(C)
    zero = LInftyMorphism(C, C, {}, arity_cap=4)
    return {"id-id": [ident, ident], "id-sign": [ident, phi],
            "id-zero": [ident, zero], "triangle": [ident, phi, phi]}


@pytest.mark.parametrize("name", sorted(fills()))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contracting_extension_rows_are_delta1(name, seed):
    """d A + A d = id on the kernel complex, read back from the cylinder:
    l1(x|k) is x|d(k) for the kernel differential d.  Every row written
    is one of its rows, and the rows written and the oracle's select
    the same reached rows."""
    fs = fills()[name]
    model = fill_n_homotopy(fs, 2, seed)
    sys = [s for s in recorded(fill_n_homotopy, fs, 2, seed)
           if any(k[0] == "A" for k in s.index)][-1]
    space = model.algebra.space
    korder = [lab[2:] for lab in space.labels if lab.startswith("x|")]
    kspace = GradedSpace([(k, space.deg["x|" + k]) for k in korder])
    d = {(k,): {j[2:]: c for j, c in
                model.algebra.op_word(1, ("x|" + k,)).items()}
         for k in korder}
    kcx = LInftyAlgebra(kspace, {1: d})
    keys = unknown_keys(kspace, kspace, 1, "A", -1)
    positions = [(0, (kspace.index[w[0]],), kspace.index[t])
                 for _, w, t in keys]
    assert columns(sys) == [k for k in ordered(keys, positions, seed)
                            if k in sys.index]

    def sides(values):
        dA = term_oracle.delta1(kcx, kcx, table(values, "A"), 1, -1)
        return [(dA.get(w, {}).get(t, 0), int(w == (t,)))
                for w, t in pairs(kspace, kspace, 1, 0)]

    want = linear_rows(keys, sides)
    got = written(sys)
    assert all(e in want for e in got)
    assert reached_equations(got) == reached_equations(want)


def test_refused_extension_writes_its_system():
    """The contracting extension of a non-acyclic kernel is refused
    after its system is written."""
    ident = LInftyMorphism.identity(dg_lie_triple())
    calls = stage_calls(fill_n_homotopy, [ident, ident])
    assert [(maps[0][0], got) for (_, maps, _, sys), got in calls
            if sys.rows] == [("A", None)]
