"""Tests for polynomial simplex forms and tensor models.

Oracles: hand-computed calculus identities, the relation checker run
on the constructed models (independent code path from the op builder),
and rank-based cohomology of the truncated form complexes.
"""

import random
from fractions import Fraction as F

import pytest

from linfkit.derived import mv_wedge
from linfkit.gradedlin import (GradedMap, GradedSpace, cohomology, vec_add,
                               vec_scale)
from linfkit.linfty import (LInftyAlgebra, LInftyMorphism, check_morphism,
                            check_relations, compose, is_quasi_iso)
from linfkit.simplexmodel import (Homotopy, SimplexCapError, SimplexModel,
                                  build_model, constant_homotopy, d_form,
                                  face_restrict, mono_degree, mono_label,
                                  mono_weight, simplex_forms,
                                  verify_model_axioms)


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
        assert vec_add(a, vec_scale(-1, b)) == {}


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
    with pytest.raises(SimplexCapError):
        simplex_forms(5, 3)
    with pytest.raises(SimplexCapError):
        simplex_forms(2, 9)


def test_model_relations_and_weights():
    C = dg_base()
    M = build_model(C, 1, weight_cap=4)
    assert check_relations(M.algebra, up_to=3).ok
    # degree bookkeeping: 1-form tensor degree-1 element has degree 2
    lab = "dt1|c"
    assert M.space.deg[lab] == 2


def test_zero_base_model():
    Z = LInftyAlgebra(GradedSpace([("z", 0)]), {})
    M = build_model(Z, 1, weight_cap=3)
    assert check_relations(M.algebra).ok
    assert verify_model_axioms(M).ok


def test_curved_base_rejected():
    S = GradedSpace([("a", 0), ("b", 1)])
    curved = LInftyAlgebra(S, {}, l0={"b": F(1)})
    with pytest.raises(ValueError):
        build_model(curved, 1)


def test_interval_model_axioms():
    M = build_model(dg_base(), 1, weight_cap=4)
    rep = verify_model_axioms(M)
    assert rep.ok, rep.failures[:3]


def test_interval_eval_incl_identity():
    M = build_model(dg_base(), 1, weight_cap=3)
    incl = M.incl
    for j in (0, 1):
        comp = M.eval_vertex(j).f1_map().compose(incl)
        for x in M.base.space.labels:
            assert comp.images.get(x, {}) == {x: F(1)}


def test_corrupted_incl_detected():
    # doubling the inclusion breaks the eval-incl identity
    M = build_model(dg_base(), 1, weight_cap=3)
    incl = M.incl.scale(F(2))
    comp = M.eval_vertex(0).f1_map().compose(incl)
    assert comp.images.get("a", {}) == {"a": F(2)}


def test_triangle_model_axioms_small():
    S = GradedSpace([("a", 0), ("b", 1)])
    C = LInftyAlgebra(S, {2: {("a", "a"): {"b": F(1)}}}, arity_cap=3)
    M = build_model(C, 2, weight_cap=4)
    rep = verify_model_axioms(M, weight_check=2, op_weight=3)
    assert rep.ok, rep.failures[:3]


def test_eval_is_morphism_and_quasi_iso():
    M = build_model(dg_base(), 1, weight_cap=4)
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
