"""Differential test of the stage solver, linfty.solve_map_stage.

The solver writes the delta1 and post rows only for the words whose l1
class a nonzero right-hand side reaches.  The oracle is the full system:
every row the row builders write over sym_words, in the order the stage
writes them (delta1, each post map, each pre map), with the unknowns
registered the same way.  For each stage the test asserts that

- the solver registers the same unknowns in the same order;
- its rows are a subsequence of the full system's rows;
- every row `reached` selects in the full system is among them, and both
  systems select the same rows in the same order, so Echelon receives
  the same rows;
- its solution is the full system's canonical solution and, where the
  full system is small enough for dense elimination, the one
  tests/dense_oracle.py gives at the same tie-break.

The stages come from the bench fills and model-over job at seeds 0 and
3, and from hypothesis draws of small stages.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfkit import cli, htpy, linfty
from linfkit.gradedlin import LinearSystem, reached, sym_words
from linfkit.linfty import (LInftyAlgebra, add_rows, delta1_rows,
                            map_unknowns, post_rows, pre_rows,
                            solution_table)

from test_gradedlin import tie_break_oracle
from test_row_builders import draw_linear, draw_map, spaces

JOBS = Path(__file__).resolve().parents[1] / "bench" / "jobs"
# dense elimination of the full system only up to this many cells
DENSE_CELLS = 40000


def full_system(A, B, m, tag, shift, rel_rhs, posts, pres, tie_break):
    """Every row of the stage, built over sym_words."""
    sys = LinearSystem(tie_break)
    map_unknowns(sys, A, B, m, tag, shift)
    words = sym_words(A.space, m)
    add_rows(sys, delta1_rows(A, B, words, shift, tag), rel_rhs)
    for C, psi, rhs in posts:
        add_rows(sys, post_rows(A, C, words, tag, psi, shift), rhs)
    for D, phi, rhs in pres:
        add_rows(sys, pre_rows(D, A, B, m, tag, phi, shift), rhs)
    return sys


def solver_run(args):
    """The solver's answer and the one LinearSystem it wrote."""
    made = []

    class Recording(LinearSystem):
        def __init__(self, tie_break=0):
            super().__init__(tie_break)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linfty, "LinearSystem", Recording)
        got = linfty.solve_map_stage(*args)
    built, = made
    return got, built


def equations(sys, idx):
    return [(sys.rows[i], sys.rhs[i]) for i in idx]


def check_stage(args):
    tag, tie_break = args[3], args[8]
    got, built = solver_run(args)
    full = full_system(*args)
    assert built.unknowns == full.unknowns
    rest = iter(equations(full, range(len(full.rows))))
    assert all(any(e == f for f in rest)
               for e in equations(built, range(len(built.rows))))
    want = equations(full, sorted(reached(full.rows, full.rhs)))
    kept = equations(built, range(len(built.rows)))
    assert all(e in kept for e in want)
    assert equations(built, sorted(reached(built.rows, built.rhs))) == want
    sol = full.solve()
    assert got == (None if sol is None else solution_table(sol, tag))
    n = len(full.unknowns)
    if len(full.rows) * (n + 1) <= DENSE_CELLS:
        dense = [[row.get(j, 0) for j in range(n)] for row in full.rows]
        x = tie_break_oracle(dense, full.rhs, n, tie_break)
        assert got == (None if x is None else solution_table(
            {k: v for k, v in zip(full.unknowns, x) if v}, tag))
    elif got is not None:
        # too large to eliminate densely: the answer solves every row
        values = {key: got.get(key[1], {}).get(key[2], 0)
                  for key in full.unknowns}
        for row, b in zip(full.rows, full.rhs):
            assert sum(c * values[full.unknowns[j]]
                       for j, c in row.items()) == b
    return len(full.rows), len(built.rows)


def caps(seed, weight=None):
    return {"arity": None, "jet": None, "weight": weight, "simp": None,
            "seed": seed}


def load(name, loader, c):
    return loader(json.loads((JOBS / name).read_text()), c)


def build_fill(name, seed):
    fs, = load(name, cli.load_fill, caps(seed))
    htpy.fill_n_homotopy(fs, K=2, tie_break=seed)


def build_model_over(name, seed):
    _, f, m1, m2 = load(name, cli.load_model_over, caps(seed, weight=8))
    htpy.model_morphism_over(f, m1, m2, K=2, tie_break=seed)


# (document, construction, whether some stage leaves rows unbuilt): an
# edge fill reaches every row of its stages
BENCH = [("fill-edge-id-sign.json", build_fill, False),
         ("fill-edge-between-pairs.json", build_fill, False),
         ("fill-triangle.json", build_fill, True),
         ("model-over-pair-identity.json", build_model_over, True)]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name,build,pruned", BENCH,
                         ids=[n for n, _, _ in BENCH])
def test_bench_stages_match_the_full_system(name, build, pruned, seed):
    calls = []
    real = linfty.solve_map_stage

    def spy(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(htpy, "solve_map_stage", spy)
        build(name, seed)
    assert calls and all(args[8] == seed for args in calls)
    sizes = [check_stage(args) for args in calls]
    assert any(kept < total for total, kept in sizes) == pruned


def maybe(draw, make):
    """A right-hand side, or zero on every word by a coin."""
    return make() if draw(st.booleans()) else {}


@settings(derandomize=True, max_examples=150, deadline=None,
          database=None)
@given(spaces(), spaces(), st.integers(1, 3), st.integers(-1, 1),
       st.integers(0, 3), st.data())
def test_drawn_stages_match_the_full_system(SA, SB, m, shift, tie_break,
                                            data):
    """Chain complexes A and B (l1 drawn, so classes vary), zero to two
    post and pre maps, and right-hand sides that are zero on whole
    words or on every word of a condition."""
    draw = data.draw
    A = LInftyAlgebra(SA, {1: draw_map(draw, SA, SA, 1, 1)})
    B = LInftyAlgebra(SB, {1: draw_map(draw, SB, SB, 1, 1)})
    rel = maybe(draw, lambda: draw_map(draw, SA, SB, m, shift + 1))
    posts, pres = [], []
    for _ in range(draw(st.integers(0, 2))):
        SC = draw(spaces())
        posts.append((LInftyAlgebra(SC, {}), draw_linear(draw, SB, SC),
                      maybe(draw, lambda: draw_map(draw, SA, SC, m,
                                                   shift))))
    for _ in range(draw(st.integers(0, 2))):
        SD = draw(spaces())
        pres.append((LInftyAlgebra(SD, {}), draw_linear(draw, SD, SA),
                     maybe(draw, lambda: draw_map(draw, SD, SB, m,
                                                  shift))))
    check_stage((A, B, m, "u", shift, rel, posts, pres, tie_break))
