"""Differential test of the stage solver, linfty.solve_map_stage.

A stage is a list of unknown maps and a list of conditions, each a
signed sum of delta1, post and pre terms on the maps.  The solver writes
the rows of a condition of one delta1 or post term only for the cells
whose key (map tag, source l1 classes and target class) a nonzero
right-hand side reaches, and the other rows only where that walk hits
them.  The oracle is the full system: every condition built by the row
builders over every cell, the terms of a condition summed over (word,
label), written in the order the stage writes them (the one-term
delta1 and post conditions, then the others), over every unknown of
every map, each at its position (the map's place, the word's generator
indices, the label's index).  For each stage the test asserts that

- the solver orders the columns it uses the way the full system does,
  by position at tie-break 0 and by the scramble of it otherwise
  (test_gradedlin.tie_break_columns);
- its rows are a subsequence of the full system's rows;
- every row `reached` selects in the full system is among them, and both
  systems select the same rows in the same order;
- its solution is the canonical solution of the rows `reached` selects
  in the full system and, where the full system is small enough for
  dense elimination, the one tests/dense_oracle.py gives for the full
  system at the same tie-break.

The stages come from the bench fills, Whitehead inverses (the
chain-level inverse, the lift of the chain homotopy, each arity-m stage
and the cylinder fills) and model-over job at seeds 0 and 3, where the
rows written must be exactly the rows `reached` selects in the full
system and Echelon must receive exactly those rows, shortest first;
from hypothesis draws: small one-map stages, and two maps under one
two-term condition; and from two stages whose only inconsistent row
has no unknown.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfkit import cli, htpy, linfty
from linfkit.gradedlin import (Echelon, GradedSpace, LinearSystem,
                               reached, sym_words, word_degree)
from linfkit.linfty import LInftyAlgebra, delta1_rows, post_rows, pre_rows

from test_gradedlin import tie_break_oracle
from test_row_builders import (VALUES, columns, draw_linear, draw_map,
                               ordered, pairs, spaces, stage_calls,
                               unknown_keys, written)

JOBS = Path(__file__).resolve().parents[1] / "bench" / "jobs"
# dense elimination of the full system only up to this many cells
DENSE_CELLS = 40000


def one_term(terms):
    return len(terms) == 1 and terms[0][0] != "pre"


def condition_rows(m, maps, terms):
    """{(word, label): row} of the sum of the terms, over every cell."""
    spec = {tag: (A, B, shift) for tag, A, B, shift in maps}
    summed = {}
    for kind, tag, c, *known in terms:
        A, B, shift = spec[tag]
        if kind == "d":
            rows = delta1_rows(A, B, pairs(A.space, B.space, m, shift + 1),
                               shift, tag)
        elif kind == "post":
            rows = post_rows(pairs(A.space, known[0].space, m, shift), tag,
                             known[1])
        else:
            rows = pre_rows(known[0], A, B, m, tag, known[1], shift)
        for w, b, r in rows:
            row = summed.setdefault((w, b), {})
            for k, x in r.items():
                row[k] = row.get(k, 0) + c * x
    return summed


def full_system(m, maps, conds):
    """Every unknown of the maps, with its position, in canonical order,
    and every equation of the stage, built over every cell."""
    keys, positions = [], []
    for i, (tag, A, B, shift) in enumerate(maps):
        for key in unknown_keys(A.space, B.space, m, tag, shift):
            keys.append(key)
            positions.append((i, tuple(A.space.index[a] for a in key[1]),
                              B.space.index[key[2]]))
    eqs = []
    for terms, rhs in [c for c in conds if one_term(c[0])] \
            + [c for c in conds if not one_term(c[0])]:
        for (w, b), row in condition_rows(m, maps, terms).items():
            eqs.append(({k: c for k, c in row.items() if c},
                        rhs.get(w, {}).get(b, 0)))
    return keys, positions, eqs


def image(m, maps, terms, values):
    """The sum of the terms at values {tag: {word: element}}, as a
    right-hand side {word: element} the condition is consistent with."""
    out = {}
    for (w, b), row in condition_rows(m, maps, terms).items():
        c = sum(x * values[t].get(cw, {}).get(y, 0)
                for (t, cw, y), x in row.items())
        if c:
            out.setdefault(w, {})[b] = c
    return out


def tables(sol, maps):
    """The maps of a solution {(tag, word, label): value} by tag."""
    if sol is None:
        return None
    out = {tag: {} for tag, *_ in maps}
    for (tag, w, b), c in sol.items():
        out[tag].setdefault(w, {})[b] = c
    return out


def reached_in_order(eqs):
    """The equations `reached` selects, in order."""
    hit = reached([row for row, _ in eqs], [b for _, b in eqs])
    return [e for i, e in enumerate(eqs) if i in hit]


def solve_part(eqs, keys, positions, tie_break):
    """LinearSystem's answer on the equations, the unknowns at their
    positions."""
    part = LinearSystem(tie_break)
    for row, b in eqs:
        part.equation(row, b)
    return part.solve(dict(zip(keys, positions)).get)


def check_stage(stage, got):
    """stage: the arguments of a solve_map_stage call, whose last one is
    the system it wrote; got: its answer."""
    m, maps, conds, built = stage
    keys, positions, full = full_system(m, maps, conds)
    assert positions == sorted(positions)
    assert columns(built) == [k for k in ordered(keys, positions,
                                                 built.tie_break)
                              if k in built.index]
    kept = written(built)
    rest = iter(full)
    assert all(any(e == f for f in rest) for e in kept)
    want = reached_in_order(full)
    assert all(e in kept for e in want)
    assert reached_in_order(kept) == want
    assert got == tables(solve_part(want, keys, positions,
                                    built.tie_break), maps)
    if len(full) * (len(keys) + 1) <= DENSE_CELLS:
        dense = [[row.get(k, 0) for k in keys] for row, _ in full]
        x = tie_break_oracle(dense, [b for _, b in full], positions,
                             built.tie_break)
        assert got == (None if x is None else tables(
            {k: v for k, v in zip(keys, x) if v}, maps))
    elif got is not None:
        # too large to eliminate densely: the answer solves every row
        values = {key: got[key[0]].get(key[1], {}).get(key[2], 0)
                  for key in keys}
        for row, b in full:
            assert sum(c * values[k] for k, c in row.items()) == b
    return len(full), len(kept), kept == want


def solver_run(m, maps, conds, tie_break):
    """The stage's arguments, with the system the solver wrote into,
    and its answer."""
    stage = (m, maps, conds, LinearSystem(tie_break))
    return stage, linfty.solve_map_stage(*stage)


def caps(seed, weight=None):
    return {"arity": None, "jet": None, "weight": weight, "simp": None,
            "seed": seed}


def load(name, loader, c):
    return loader(json.loads((JOBS / name).read_text()), c)


def build_fill(name, seed):
    fs, = load(name, cli.load_fill, caps(seed))
    htpy.fill_n_homotopy(fs, K=2, tie_break=seed)


def build_whitehead(name, seed):
    f, = load(name, cli.load_three_part, caps(seed))
    htpy.whitehead_inverse(f, K=3, tie_break=seed)


def build_model_over(name, seed):
    _, f, m1, m2 = load(name, cli.load_model_over, caps(seed, weight=8))
    htpy.model_morphism_over(f, m1, m2, K=2, tie_break=seed)


BENCH = [("fill-edge-id-sign.json", build_fill),
         ("fill-edge-between-pairs.json", build_fill),
         ("fill-triangle.json", build_fill),
         ("whitehead-identity.json", build_whitehead),
         ("whitehead-between-pairs.json", build_whitehead),
         ("whitehead-sign.json", build_whitehead),
         ("whitehead-sum.json", build_whitehead),
         ("model-over-pair-identity.json", build_model_over)]


def handed(sys):
    """The rows the solve of sys inserts into Echelon: every row written,
    over its sorted columns (check_stage checks their order), with its
    right-hand side in column n, shortest first, ties in the order
    written."""
    n = len(sys.index)
    return [{**sys.rows[i], n: sys.rhs[i]}
            for i in sorted(range(len(sys.rows)),
                            key=lambda i: len(sys.rows[i]))]


def inserting_stage_calls(build, name, seed):
    """stage_calls of the build, and for each solved LinearSystem, in
    solve order, the system and the rows its solve inserted."""
    solved, current = [], None
    real_insert, real_solve = Echelon.insert, LinearSystem.solve

    def insert(self, v):
        if current is not None:
            current.append(dict(v))
        return real_insert(self, v)

    def solve(self, order):
        nonlocal current
        current = []
        solved.append((self, current))
        try:
            return real_solve(self, order)
        finally:
            current = None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Echelon, "insert", insert)
        mp.setattr(LinearSystem, "solve", solve)
        calls = stage_calls(build, name, seed)
    return calls, solved


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name,build", BENCH, ids=[n for n, _ in BENCH])
def test_bench_stages_match_the_full_system(name, build, seed):
    """Every bench stage writes exactly the rows `reached` selects in
    its full system, and its solve inserts exactly the rows it wrote,
    shortest first."""
    calls, solved = inserting_stage_calls(build, name, seed)
    assert calls
    assert [sys for sys, _ in solved] == [stage[-1] for stage, _ in calls]
    for sys, rows in solved:
        assert rows == handed(sys)
    # the lift of the chain homotopy is solved at tie-break 0 at every
    # seed, every other stage at the seed
    for (_, maps, _, sys), _ in calls:
        assert sys.tie_break == (0 if maps[0][0] == "hpp" else seed)
    assert all(exact for _, _, exact in (check_stage(*c) for c in calls))


def value_of(draw, space, target, m, shift):
    """A drawn map S^m space -> target of degree shift, nonzero at each
    coefficient unless drawn otherwise."""
    return {w: {b: c for b in target.basis_in_degree(word_degree(space, w)
                                                      + shift)
                if (c := draw(st.sampled_from(VALUES + [0])))}
            for w in sym_words(space, m)}


def right_side(draw, m, maps, terms, values, make):
    """A right-hand side of the condition: the condition at values
    {tag: {word: element}} of the maps (value_of), drawn by make, or
    zero, so that consistent stages with nonzero solutions occur."""
    pick = draw(st.sampled_from(["image", "drawn", "zero"]))
    return {} if pick == "zero" else make() if pick == "drawn" \
        else image(m, maps, terms, values)


def complex_on(draw, space):
    """A drawn l1 on the space, so that l1 classes vary."""
    return LInftyAlgebra(space, {1: draw_map(draw, space, space, 1, 1)})


@settings(derandomize=True, max_examples=150, deadline=None,
          database=None)
@given(spaces(), st.integers(1, 3), st.integers(-1, 1), st.integers(0, 3),
       st.data())
def test_drawn_stages_match_the_full_system(SA, m, shift, tie_break, data):
    """Chain complexes A and B, zero to two post and pre maps, and
    right-hand sides from right_side at one drawn value of u.  B and
    the targets of the post maps psi: B -> C have labels in or next to
    the degrees of the rows, and the sources of the pre maps in the
    degrees of A.  psi misses every label of C no drawn image holds, so
    that post rows with no unknown occur, with nonzero right-hand sides
    when drawn."""
    draw = data.draw
    rows_in = {word_degree(SA, w) + shift for w in sym_words(SA, m)} \
        or {shift}
    SB = space_near(draw, rows_in)
    A, B = complex_on(draw, SA), complex_on(draw, SB)
    maps = [("u", A, B, shift)]
    values = {"u": value_of(draw, SA, SB, m, shift)}
    d = [("d", "u", 1)]
    conds = [(d, right_side(draw, m, maps, d, values, lambda: draw_map(
        draw, SA, SB, m, shift + 1)))]
    for _ in range(draw(st.integers(0, 2))):
        SC = space_near(draw, rows_in)
        post = [("post", "u", 1, LInftyAlgebra(SC, {}),
                 draw_linear(draw, SB, SC))]
        conds.append((post, right_side(draw, m, maps, post, values,
                                       lambda: draw_map(draw, SA, SC, m,
                                                        shift))))
    for _ in range(draw(st.integers(0, 2))):
        SD = space_near(draw, {SA.deg[a] for a in SA.labels})
        pre = [("pre", "u", 1, LInftyAlgebra(SD, {}),
                draw_linear(draw, SD, SA))]
        conds.append((pre, right_side(draw, m, maps, pre, values,
                                      lambda: draw_map(draw, SD, SB, m,
                                                       shift))))
    check_stage(*solver_run(m, maps, conds, tie_break))


@pytest.mark.parametrize("rhs", [{("a",): {"y": 2, "z": 1}},
                                 {("a",): {"z": 1}}])
def test_a_post_row_with_no_unknown_refuses_its_right_side(rhs):
    """psi . u = rhs with psi: b -> y: the row at z has no unknown, and
    its nonzero right-hand side makes the stage inconsistent."""
    A = LInftyAlgebra(GradedSpace([("a", 0)]), {})
    B = LInftyAlgebra(GradedSpace([("b", 0)]), {})
    C = LInftyAlgebra(GradedSpace([("y", 0), ("z", 0)]), {})
    stage, got = solver_run(1, [("u", A, B, 0)], [
        ([("post", "u", 1, C, {"b": {"y": 1}})], rhs)], 0)
    assert got is None
    check_stage(stage, got)


def test_a_delta1_row_with_no_unknown_refuses_its_right_side():
    """delta1(u) = rhs where l'_1 has no preimage of c and a has no l1
    image: the row at (a, c) has no unknown, and its nonzero right-hand
    side makes the stage inconsistent, while the rest of the stage
    alone is solved."""
    A = LInftyAlgebra(GradedSpace([("a", 0)]), {})
    B = LInftyAlgebra(GradedSpace([("b", -1), ("b2", 0), ("c", 0)]),
                      {1: {("b",): {"b2": 1}}})
    maps = [("u", A, B, -1)]
    for rhs, want in [({("a",): {"b2": 1}}, {"u": {("a",): {"b": 1}}}),
                      ({("a",): {"b2": 1, "c": 1}}, None)]:
        stage, got = solver_run(1, maps, [([("d", "u", 1)], rhs)], 0)
        assert got == want
        check_stage(stage, got)


SIGNS = st.sampled_from([1, -1])


def space_near(draw, degrees):
    """One to four generators, the first in one of the degrees and the
    others in one of them or next to one, so that rows and unknowns
    meet in degree."""
    near = sorted({d + e for d in degrees for e in (-1, 0, 1)})
    degs = [draw(st.sampled_from(sorted(degrees)))] \
        + draw(st.lists(st.sampled_from(near), max_size=3))
    return GradedSpace(list(zip("abcd", degs)))


@settings(derandomize=True, max_examples=150, deadline=None,
          database=None)
@given(spaces(), st.integers(1, 3), st.integers(-1, 1), st.integers(0, 3),
       st.data())
def test_drawn_two_map_stages_match_the_full_system(SW, m, shift,
                                                    tie_break, data):
    """Two unknown maps u and v and one condition c_u term(u) + c_v
    term(v) = rhs on the arity-m words of a complex W, with values in
    a complex T in degree |word| + shift.  Each term is drawn: delta1
    of a map W -> T, psi . u for a map W -> B and psi: B -> T, or
    u . phi^{x m} for a map A -> T and phi: W -> A.  Each map may also
    carry a one-term delta1 condition of a drawn sign.  A right-hand
    side is zero, drawn, or the condition at drawn values of the maps,
    so that consistent stages with nonzero solutions occur."""
    draw = data.draw
    rows_in = {word_degree(SW, w) + shift for w in sym_words(SW, m)} \
        or {shift}
    ST = space_near(draw, rows_in)
    W, T = complex_on(draw, SW), complex_on(draw, ST)
    maps, terms, conds = [], [], []
    for tag in "uv":
        kind, c = draw(st.sampled_from(["d", "post", "pre"])), draw(SIGNS)
        if kind == "d":
            maps.append((tag, W, T, shift - 1))
            terms.append(("d", tag, c))
        elif kind == "post":
            SB = space_near(draw, rows_in)
            maps.append((tag, W, complex_on(draw, SB), shift))
            terms.append(("post", tag, c, T, draw_linear(draw, SB, ST)))
        else:
            SA = space_near(draw, {SW.deg[a] for a in SW.labels})
            maps.append((tag, complex_on(draw, SA), T, shift))
            terms.append(("pre", tag, c, W, draw_linear(draw, SW, SA)))
    values = {tag: value_of(draw, A.space, B.space, m, s)
              for tag, A, B, s in maps}

    def rhs(terms, make):
        return right_side(draw, m, maps, terms, values, make)

    for tag, A, B, s in maps:
        if draw(st.booleans()):
            one = [("d", tag, draw(SIGNS))]
            conds.append((one, rhs(one, lambda: draw_map(
                draw, A.space, B.space, m, s + 1))))
    conds.insert(draw(st.integers(0, len(conds))), (terms, rhs(
        terms, lambda: draw_map(draw, SW, ST, m, shift))))
    check_stage(*solver_run(m, maps, conds, tie_break))
