"""Differential test of the stage solver, linfty.solve_map_stage.

A stage is a list of unknown maps and a list of conditions, each a
signed sum of delta1, post and pre terms on the maps.  The solver writes
the rows of a condition of one delta1 or post term only for the words
whose key (map tag and l1 classes) a nonzero right-hand side reaches.
The oracle is the full system: every condition built by the row
builders over sym_words, the terms of a condition summed over (word,
label), written in the order the stage writes them (the one-term
delta1 and post conditions, then the others), with the unknowns
registered the same way.  For each stage the test asserts that

- the solver registers the same unknowns in the same order;
- its rows are a subsequence of the full system's rows;
- every row `reached` selects in the full system is among them, and both
  systems select the same rows in the same order, so Echelon receives
  the same rows;
- its solution is the full system's canonical solution and, where the
  full system is small enough for dense elimination, the one
  tests/dense_oracle.py gives at the same tie-break.

The stages come from the bench fills, Whitehead inverses (the
chain-level inverse, the lift of the chain homotopy, each arity-m stage
and the cylinder fills) and model-over job at seeds 0 and 3, and from
hypothesis draws: small one-map stages, and two maps under one
two-term condition.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfkit import cli, htpy, linfty
from linfkit.gradedlin import (GradedSpace, LinearSystem, reached,
                               sym_words, word_degree)
from linfkit.linfty import (LInftyAlgebra, delta1_rows, map_unknowns,
                            post_rows, pre_rows)

from test_gradedlin import tie_break_oracle
from test_row_builders import draw_linear, draw_map, spaces, stage_calls

JOBS = Path(__file__).resolve().parents[1] / "bench" / "jobs"
# dense elimination of the full system only up to this many cells
DENSE_CELLS = 40000


def one_term(terms):
    return len(terms) == 1 and terms[0][0] != "pre"


def condition_rows(m, maps, terms):
    """{(word, label): row} of the sum of the terms, over sym_words."""
    spec = {tag: (A, B, shift) for tag, A, B, shift in maps}
    summed = {}
    for kind, tag, c, *known in terms:
        A, B, shift = spec[tag]
        words = sym_words(A.space, m)
        if kind == "d":
            rows = delta1_rows(A, B, words, shift, tag)
        elif kind == "post":
            rows = post_rows(A, known[0], words, tag, known[1], shift)
        else:
            rows = pre_rows(known[0], A, B, m, tag, known[1], shift)
        for w, b, r in rows:
            row = summed.setdefault((w, b), {})
            for k, x in r.items():
                row[k] = row.get(k, 0) + c * x
    return summed


def full_system(m, maps, conds, tie_break):
    """Every row of the stage, built over sym_words."""
    sys = LinearSystem(tie_break)
    for tag, A, B, shift in maps:
        map_unknowns(sys, A, B, m, tag, shift)
    for terms, rhs in [c for c in conds if one_term(c[0])] \
            + [c for c in conds if not one_term(c[0])]:
        for (w, b), row in condition_rows(m, maps, terms).items():
            sys.equation(row, rhs.get(w, {}).get(b, 0))
    return sys


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


def equations(sys, idx):
    return [(sys.rows[i], sys.rhs[i]) for i in idx]


def check_stage(stage, got):
    """stage: the arguments of a solve_map_stage call, whose last one is
    the system it wrote; got: its answer."""
    m, maps, conds, built = stage
    full = full_system(m, maps, conds, built.tie_break)
    assert built.unknowns == full.unknowns
    rest = iter(equations(full, range(len(full.rows))))
    assert all(any(e == f for f in rest)
               for e in equations(built, range(len(built.rows))))
    want = equations(full, sorted(reached(full.rows, full.rhs)))
    kept = equations(built, range(len(built.rows)))
    assert all(e in kept for e in want)
    assert equations(built, sorted(reached(built.rows, built.rhs))) == want
    assert got == tables(full.solve(), maps)
    n = len(full.unknowns)
    if len(full.rows) * (n + 1) <= DENSE_CELLS:
        dense = [[row.get(j, 0) for j in range(n)] for row in full.rows]
        x = tie_break_oracle(dense, full.rhs, n, built.tie_break)
        assert got == (None if x is None else tables(
            {k: v for k, v in zip(full.unknowns, x) if v}, maps))
    elif got is not None:
        # too large to eliminate densely: the answer solves every row
        values = {key: got[key[0]].get(key[1], {}).get(key[2], 0)
                  for key in full.unknowns}
        for row, b in zip(full.rows, full.rhs):
            assert sum(c * values[full.unknowns[j]]
                       for j, c in row.items()) == b
    return len(full.rows), len(built.rows)


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


# (document, construction, whether some stage leaves rows unbuilt): an
# edge fill reaches every row of its stages
BENCH = [("fill-edge-id-sign.json", build_fill, False),
         ("fill-edge-between-pairs.json", build_fill, False),
         ("fill-triangle.json", build_fill, True),
         ("whitehead-identity.json", build_whitehead, True),
         ("whitehead-between-pairs.json", build_whitehead, True),
         ("whitehead-sign.json", build_whitehead, True),
         ("whitehead-sum.json", build_whitehead, True),
         ("model-over-pair-identity.json", build_model_over, True)]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name,build,pruned", BENCH,
                         ids=[n for n, _, _ in BENCH])
def test_bench_stages_match_the_full_system(name, build, pruned, seed):
    calls = stage_calls(build, name, seed)
    assert calls
    # the lift of the chain homotopy is solved at tie-break 0 at every
    # seed, every other stage at the seed
    for (_, maps, _, sys), _ in calls:
        assert sys.tie_break == (0 if maps[0][0] == "hpp" else seed)
    sizes = [check_stage(*call) for call in calls]
    assert any(kept < total for total, kept in sizes) == pruned


def maybe(draw, make):
    """A right-hand side, or zero on every word by a coin."""
    return make() if draw(st.booleans()) else {}


def complex_on(draw, space):
    """A drawn l1 on the space, so that l1 classes vary."""
    return LInftyAlgebra(space, {1: draw_map(draw, space, space, 1, 1)})


@settings(derandomize=True, max_examples=150, deadline=None,
          database=None)
@given(spaces(), spaces(), st.integers(1, 3), st.integers(-1, 1),
       st.integers(0, 3), st.data())
def test_drawn_stages_match_the_full_system(SA, SB, m, shift, tie_break,
                                            data):
    """Chain complexes A and B, zero to two post and pre maps, and
    right-hand sides that are zero on whole words or on every word of a
    condition."""
    draw = data.draw
    A, B = complex_on(draw, SA), complex_on(draw, SB)
    conds = [([("d", "u", 1)],
              maybe(draw, lambda: draw_map(draw, SA, SB, m, shift + 1)))]
    for _ in range(draw(st.integers(0, 2))):
        SC = draw(spaces())
        conds.append(([("post", "u", 1, LInftyAlgebra(SC, {}),
                        draw_linear(draw, SB, SC))],
                      maybe(draw, lambda: draw_map(draw, SA, SC, m,
                                                   shift))))
    for _ in range(draw(st.integers(0, 2))):
        SD = draw(spaces())
        conds.append(([("pre", "u", 1, LInftyAlgebra(SD, {}),
                        draw_linear(draw, SD, SA))],
                      maybe(draw, lambda: draw_map(draw, SD, SB, m,
                                                   shift))))
    check_stage(*solver_run(m, [("u", A, B, shift)], conds, tie_break))


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
    values = {tag: draw_map(draw, A.space, B.space, m, s)
              for tag, A, B, s in maps}

    def rhs(terms, make):
        pick = draw(st.sampled_from(["zero", "drawn", "image"]))
        return {} if pick == "zero" else make() if pick == "drawn" \
            else image(m, maps, terms, values)

    for tag, A, B, s in maps:
        if draw(st.booleans()):
            one = [("d", tag, draw(SIGNS))]
            conds.append((one, rhs(one, lambda: draw_map(
                draw, A.space, B.space, m, s + 1))))
    conds.insert(draw(st.integers(0, len(conds))), (terms, rhs(
        terms, lambda: draw_map(draw, SW, ST, m, shift))))
    check_stage(*solver_run(m, maps, conds, tie_break))
