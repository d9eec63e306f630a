"""Tests for polynomial simplex forms and tensor models.

Oracles: hand-computed calculus identities, the relation checker run
on the constructed models (independent code path from the op builder),
and rank-based cohomology of the truncated form complexes.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import matrix_rank
from linfkit import simplexmodel
from linfkit.derived import JetRing, mv_wedge
from linfkit.gradedlin import (CapError, GradedMap, GradedSpace, cohomology,
                               vec_acc, vec_scale)
from linfkit.koszul import Section, koszul_complex
from linfkit.linfty import (LInftyAlgebra, LInftyMorphism, check_morphism,
                            check_relations, compose, is_quasi_iso)
from linfkit.simplexmodel import (Homotopy, SimplexModel, constant_homotopy,
                                  d_form, face_restrict, mono_degree,
                                  mono_label, mono_weight, simplex_faces,
                                  simplex_forms, verify_model_axioms,
                                  vertex_boundary)

BENCH_JOBS = Path(__file__).resolve().parents[1] / "bench" / "jobs"


def dg_base():
    S = GradedSpace([("a", 0), ("b", 0), ("c", 1)])
    return LInftyAlgebra(S, {2: {("a", "b"): {"c": F(1)}}}, arity_cap=3)


def test_basic_calculus():
    t = {((1,), ()): F(1)}
    assert d_form(1, t) == {((0,), (1,)): F(1)}
    assert d_form(1, d_form(1, t)) == {}
    # wedge is graded commutative: dt1 ^ dt2 = - dt2 ^ dt1
    dt1 = {((0, 0), (1,)): F(1)}
    dt2 = {((0, 0), (2,)): F(1)}
    assert mv_wedge(dt1, dt2) == vec_scale(-1, mv_wedge(dt2, dt1))
    assert mv_wedge(dt1, dt1) == {}


def test_d_squared_zero_everywhere():
    for n in (1, 2):
        for k in simplex_forms(n, 4):
            f = {k: F(1)}
            assert d_form(n, d_form(n, f)) == {}


def test_weight_grading():
    for n in (1, 2):
        for k in simplex_forms(n, 4):
            for k2, _ in d_form(n, {k: F(1)}).items():
                assert mono_weight(k2) == mono_weight(k)


def forms_cohomology(n, weight_cap):
    """Cohomology of the truncated form complex by exact rank (d keeps
    the weight, so the truncation is d-stable)."""
    keys = simplex_forms(n, weight_cap)
    space = GradedSpace([(mono_label(k), mono_degree(k)) for k in keys])
    return cohomology(GradedMap(space, space, 1, {
        mono_label(k): {mono_label(k2): c
                        for k2, c in d_form(n, {k: F(1)}).items()}
        for k in keys}))


def test_form_cohomology_is_constants():
    for n in (1, 2):
        H = forms_cohomology(n, 5)
        assert H[0] == 1
        for d in range(1, n + 1):
            assert H.get(d, 0) == 0


def test_face_restrict_commutes_with_d():
    rng = random.Random(0)
    keys = simplex_forms(2, 3)
    form = {k: F(rng.choice([1, -1, 2])) for k in rng.sample(keys, 6)}
    for i in range(3):
        a = face_restrict(2, i, d_form(2, form))
        b = d_form(1, face_restrict(2, i, form))
        assert vec_acc(a, b, -1) == {}


def test_face_of_face_consistency():
    # restricting a function on the triangle along two routes to a
    # shared vertex agrees
    form = {((2, 1), ()): F(3)}  # t1^2 t2
    for i1 in range(3):
        r = face_restrict(2, i1, form)
        for j in range(2):
            v = face_restrict(1, j, r)
            assert all(k == ((), ()) for k in v)


def test_caps_enforced():
    with pytest.raises(CapError):
        simplex_forms(5, 3)
    with pytest.raises(CapError):
        simplex_forms(2, 9)


def test_model_relations_and_weights():
    C = dg_base()
    M = SimplexModel(C, 1, weight_cap=4)
    assert check_relations(M.algebra, up_to=3).ok
    # degree bookkeeping: 1-form tensor degree-1 element has degree 2
    lab = "dt1|c"
    assert M.space.deg[lab] == 2


def point_bases():
    """Strict bases for the point: dg_base with an empty arity-3 table,
    the algebras of the bench model documents and a Koszul complex,
    whose generators carry weights of their own."""
    C = dg_base()
    yield LInftyAlgebra(C.space, {**C.ops, 3: {}}, arity_cap=3)
    for name in ("model-verify-n1-w6", "model-verify-n2-w6",
                 "model-build-n2-w8"):
        doc = json.loads((BENCH_JOBS / (name + ".json")).read_text())
        yield LInftyAlgebra.from_json(doc["algebra"])
    ring = JetRing(["q1", "q2"], 3)
    yield koszul_complex(Section(ring, [ring.var("q1"), ring.var("q2")]))


@pytest.mark.parametrize("C", list(point_bases()))
def test_point_is_the_base(C):
    """The tensor model of the point is C: C's labels and degrees, each
    of weight 0, incl the identity and C's nonempty tables; it has no
    faces.  Every face of the interval model is that point."""
    P = SimplexModel(C, 0, weight_cap=4)
    assert P.space == C.space
    assert not P.algebra.weights or set(P.algebra.weights.values()) == {0}
    assert P.incl.images == {x: {x: 1} for x in C.space.labels}
    assert P.algebra.ops == {k: t for k, t in C.ops.items() if t}
    with pytest.raises(ValueError):
        P.face_model()
    M = SimplexModel(C, 1, weight_cap=4)
    point = M.face_model()
    assert point.n == 0 and point.space == C.space
    for i in (0, 1):
        ev = M.eval_face(i)
        assert ev.target is point.algebra
        assert ev.f1_map().compose(M.incl).images == point.incl.images


def test_zero_base_model():
    Z = LInftyAlgebra(GradedSpace([("z", 0)]), {})
    M = SimplexModel(Z, 1, weight_cap=3)
    assert check_relations(M.algebra).ok
    assert verify_model_axioms(M).ok


def test_curved_base_rejected():
    S = GradedSpace([("a", 0), ("b", 1)])
    curved = LInftyAlgebra(S, {}, l0={"b": F(1)})
    with pytest.raises(ValueError):
        SimplexModel(curved, 1)


def test_interval_model_axioms():
    M = SimplexModel(dg_base(), 1, weight_cap=4)
    rep = verify_model_axioms(M)
    assert rep.ok, rep.failures[:3]


def test_interval_eval_incl_identity():
    M = SimplexModel(dg_base(), 1, weight_cap=3)
    incl = M.incl
    for j in (0, 1):
        comp = M.eval_vertex(j).f1_map().compose(incl)
        for x in M.base.space.labels:
            assert comp.images.get(x, {}) == {x: F(1)}


def test_corrupted_incl_detected():
    # doubling the inclusion breaks the eval-incl identity
    M = SimplexModel(dg_base(), 1, weight_cap=3)
    incl = GradedMap(M.incl.source, M.incl.target, 0, {
        x: vec_scale(2, img) for x, img in M.incl.images.items()})
    comp = M.eval_vertex(0).f1_map().compose(incl)
    assert comp.images.get("a", {}) == {"a": F(2)}


def test_triangle_model_axioms_small():
    S = GradedSpace([("a", 0), ("b", 1)])
    C = LInftyAlgebra(S, {2: {("a", "a"): {"b": F(1)}}}, arity_cap=3)
    M = SimplexModel(C, 2, weight_cap=4)
    rep = verify_model_axioms(M)
    assert rep.ok, rep.failures[:3]


def test_faces_and_vertex_boundary_signs():
    """Faces come opposite vertices n, ..., 0 with sign (-1)^(n - i).
    Edge J enters J[0] with +sign ev_0 and J[1] with -sign ev_1: on the
    interval model over one generator, 1|x is x at both ends and t1|x
    is x at vertex 1 only."""
    assert simplex_faces(2) == [(2, (0, 1), 1), (1, (0, 2), -1),
                                (0, (1, 2), 1)]
    assert simplex_faces(1) == [(1, (0,), 1), (0, (1,), -1)]
    Z = LInftyAlgebra(GradedSpace([("x", 0)]), {})
    edge = SimplexModel(Z, 1, weight_cap=1)
    rows = vertex_boundary([((0, 2), -1, edge, {"1|x": 0, "t1^1|x": 1})])
    assert rows == {(0, "x"): {0: -1}, (2, "x"): {0: 1, 1: 1}}


def bench_triangle_model():
    """The n = 2 model of the model-verify-n2-w6 bench job."""
    doc = json.loads((BENCH_JOBS / "model-verify-n2-w6.json").read_text())
    return SimplexModel(LInftyAlgebra.from_json(doc["algebra"]), doc["n"],
                        weight_cap=6)


def tampered(ev, factor, entry=None):
    """The strict morphism ev with its linear component, or only the
    (word, label) entry of it, times factor."""
    return LInftyMorphism(ev.source, ev.target, {1: {
        w: {b: c * factor if entry in (None, (w, b)) else c
            for b, c in out.items()}
        for w, out in ev.comps[1].items()}}, arity_cap=ev.arity_cap)


@pytest.mark.parametrize("factor, face, witness", [
    (0, None, {"degree": 0}),
    (2, 1, {"reason": "boundary squared nonzero"}),
    (-1, 1, {"reason": "boundary squared nonzero"}),
    (-1, 2, {"reason": "boundary squared nonzero"}),
])
def test_tampered_top_evaluations_fail_exactness(factor, face, witness):
    """Zero top evaluations leave the degree-0 kernel outside the image;
    one face evaluation scaled by 2 or negated breaks boundary squared
    zero.  Both show in _exactness and in verify_model_axioms."""
    M = bench_triangle_model()
    evs = {i: M.eval_face(i) for i in range(3)}
    assert simplexmodel._exactness(M, evs, 4) == (True, None)
    bad = {i: tampered(ev, factor) if face in (None, i) else ev
           for i, ev in evs.items()}
    assert simplexmodel._exactness(M, bad, 4) == (False, witness)
    M._evals.update(bad)
    failures = dict(verify_model_axioms(M).failures)
    assert failures[("face-complex-exact",)] == witness


BOUNDARY_SQUARED = {"reason": "boundary squared nonzero"}


def draw_tampering(data, evs, factors=(0, 2, -1, F(1, 2))):
    """One face evaluation of evs scaled by a drawn factor, whole or in
    one drawn entry."""
    i = data.draw(st.sampled_from(sorted(evs)))
    factor = data.draw(st.sampled_from(factors))
    entries = sorted((w, b) for w, out in evs[i].comps[1].items()
                     for b in out)
    entry = data.draw(st.none() | st.sampled_from(entries))
    return {**evs, i: tampered(evs[i], factor, entry)}


def faces_agree_on_vertices(M, evs):
    """Oracle: at each vertex v of the triangle, evaluating onto either
    edge through v and then onto v gives the same linear map."""
    edge = M.face_model()
    for v in range(3):
        ends = [edge.eval_vertex(J.index(v)).f1_map()
                .compose(evs[i].f1_map()).images
                for i, J, _ in simplex_faces(2) if v in J]
        if ends[0] != ends[1]:
            return False
    return True


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_face_tampering_breaks_compatibility_iff_boundary_squared(data):
    """On the bench triangle model, the face evaluations disagree on a
    shared vertex exactly when _exactness, and with it the
    face-complex-exact record, reads "boundary squared nonzero"."""
    M = bench_triangle_model()
    evs = {i: M.eval_face(i) for i in range(3)}
    assert faces_agree_on_vertices(M, evs)
    bad = draw_tampering(data, evs)
    agree = faces_agree_on_vertices(M, bad)
    ok, witness = simplexmodel._exactness(M, bad, 4)
    assert (witness == BOUNDARY_SQUARED) == (not agree)
    M._evals.update(bad)
    failures = dict(verify_model_axioms(M).failures)
    assert failures.get(("face-complex-exact",)) == (None if ok else witness)


def joint_rank_defect(M, evs):
    """Oracle: the first degree of the base in which the joint
    evaluation onto C + C has rank below 2 dim C_d, or None."""
    C = M.base.space
    for d in C.degrees():
        tgt = [(j, t) for j in evs for t in C.basis_in_degree(d)]
        rows = [[evs[j].comp_word(1, (s,)).get(t, 0) for j, t in tgt]
                for s in M.space.basis_in_degree(d)]
        if matrix_rank(rows) < len(tgt):
            return d
    return None


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_interval_exactness_is_joint_surjectivity(data):
    """On interval models of the bench n = 1 algebra, at weight caps
    0-3 (weight 0 holds the constants only, so no evaluation is onto)
    and with one evaluation or one entry of it zeroed, the
    face-complex-exact record fails exactly when the joint evaluation
    is not onto, at the first degree where it is not."""
    doc = json.loads((BENCH_JOBS / "model-verify-n1-w6.json").read_text())
    M = SimplexModel(LInftyAlgebra.from_json(doc["algebra"]), 1,
                     weight_cap=data.draw(st.integers(0, 3)))
    evs = {i: M.eval_face(i) for i in (0, 1)}
    if data.draw(st.booleans()):
        evs = draw_tampering(data, evs, factors=(0,))
    defect = joint_rank_defect(M, evs)
    M._evals.update(evs)
    failures = dict(verify_model_axioms(M).failures)
    assert failures.get(("face-complex-exact",)) == \
        (None if defect is None else {"degree": defect})


def test_eval_is_morphism_and_quasi_iso():
    M = SimplexModel(dg_base(), 1, weight_cap=4)
    for j in (0, 1):
        ev = M.eval_vertex(j)
        assert check_morphism(ev, weight_cap=4).ok
        assert is_quasi_iso(ev)


def test_constant_homotopy_ends_on_its_morphism():
    C = dg_base()
    f = LInftyMorphism.identity(C)
    h = constant_homotopy(f, weight_cap=4)
    assert h.endpoints_match()
    assert check_relations(h.model.algebra, weight_cap=4).ok


def with_empty_table(f):
    """f with an empty arity-2 table: the same morphism."""
    return LInftyMorphism(f.source, f.target, {**f.comps, 2: {}},
                          arity_cap=f.arity_cap)


def test_constant_homotopy_ignores_empty_table():
    f = with_empty_table(LInftyMorphism.identity(dg_base()))
    assert f.comps[2] == {}
    assert constant_homotopy(f, weight_cap=3).endpoints_match()
