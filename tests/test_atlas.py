"""Tests for toy atlases, hypercoverings, and cocycle data.

Oracles: every axiom is checked by exhaustive enumeration on finite
data, so the expected outcomes (including the failure witnesses of
deliberately broken inputs) are computed by hand on the fixtures.  The
dual-run oracle rebuilds the cocycle under an alternative echelon
tie-break and checks that a genuinely different assignment still
passes every check.
"""

import copy
from fractions import Fraction as F

import pytest

from linfkit.atlas import (CocycleData, Hypercovering, ToyAtlas,
                           build_cocycle, build_hypercovering,
                           check_cocycle, hypercover_check,
                           simplicial_identities, validate_atlas)
from linfkit.gradedlin import GradedSpace
from linfkit.htpy import FillError, FillingModel
from linfkit.linfty import (LInftyAlgebra, LInftyMorphism, compose,
                            comps_agree)


# ---------------------------------------------------------------------------
# fixtures


def pair_algebra():
    sp = GradedSpace([("x", 0), ("y", 1)])
    return LInftyAlgebra(sp, {1: {("x",): {"y": F(1)}}}, arity_cap=2)


def pincer_algebra():
    # acyclic, with two generators sharing a boundary so contracting
    # homotopies are non-unique (free variables in the fills)
    sp = GradedSpace([("u", -1), ("x1", 0), ("x2", 0), ("y", 1)])
    return LInftyAlgebra(sp, {1: {("u",): {"x1": F(1), "x2": F(-1)},
                                  ("x1",): {"y": F(1)},
                                  ("x2",): {"y": F(1)}}}, arity_cap=2)


def _scale(src, tgt, c):
    comps = {1: {(a,): {a: F(c)} for a in src.space.labels}}
    return LInftyMorphism(src, tgt, comps, arity_cap=2)


def three_chart_atlas(make_algebra=pair_algebra):
    """Three charts on X = {1, 2, 3} with images {1,2}, {1,2,3},
    {2,3}; base maps match on zero points, while the direct algebra
    morphism 3 -> 1 is twice the composite through 2."""
    A1, A2, A3 = make_algebra(), make_algebra(), make_algebra()
    algebras = {"A1": A1, "A2": A2, "A3": A3}
    morphisms = {"f12": _scale(A2, A1, 1), "f21": _scale(A1, A2, 1),
                 "f23": _scale(A3, A2, 1), "f32": _scale(A2, A3, 1),
                 "f13": _scale(A3, A1, 2), "f31": _scale(A1, A3, F(1, 2))}
    charts = {
        1: {"base_points": ["a1", "a2", "a3"],
            "zero_set": {"a1": 1, "a2": 2},
            "group_order": 1, "dim": 1, "algebra_ref": "A1"},
        2: {"base_points": ["b1", "b2", "b3", "b4"],
            "zero_set": {"b1": 1, "b2": 2, "b3": 3},
            "group_order": 1, "dim": 1, "algebra_ref": "A2"},
        3: {"base_points": ["c1", "c2", "c3"],
            "zero_set": {"c1": 2, "c2": 3},
            "group_order": 1, "dim": 1, "algebra_ref": "A3"},
    }

    def ident(p):
        base = charts[p]["base_points"]
        return {"U_pq": list(base), "base_map": {u: u for u in base},
                "morphism_ref": None}

    changes = {
        (1, 1): ident(1), (2, 2): ident(2), (3, 3): ident(3),
        (1, 2): {"U_pq": ["a1", "a2"],
                 "base_map": {"a1": "b1", "a2": "b2"},
                 "morphism_ref": "f12"},
        (2, 1): {"U_pq": ["b1", "b2"],
                 "base_map": {"b1": "a1", "b2": "a2"},
                 "morphism_ref": "f21"},
        (1, 3): {"U_pq": ["a2"], "base_map": {"a2": "c1"},
                 "morphism_ref": "f13"},
        (3, 1): {"U_pq": ["c1"], "base_map": {"c1": "a2"},
                 "morphism_ref": "f31"},
        (2, 3): {"U_pq": ["b2", "b3"],
                 "base_map": {"b2": "c1", "b3": "c2"},
                 "morphism_ref": "f23"},
        (3, 2): {"U_pq": ["c1", "c2"],
                 "base_map": {"c1": "b2", "c2": "b3"},
                 "morphism_ref": "f32"},
    }
    return ToyAtlas([1, 2, 3], charts, changes, algebras, morphisms)


def single_chart_atlas():
    alg = pair_algebra()
    charts = {1: {"base_points": ["a"], "zero_set": {"a": 1},
                  "group_order": 1, "dim": 0, "algebra_ref": "A"}}
    changes = {(1, 1): {"U_pq": ["a"], "base_map": {"a": "a"},
                        "morphism_ref": None}}
    return ToyAtlas([1], charts, changes, {"A": alg}, {})


# ---------------------------------------------------------------------------
# atlas validation


def test_single_chart_atlas_valid():
    rep = validate_atlas(single_chart_atlas())
    assert rep.ok


def test_three_chart_atlas_valid():
    A = three_chart_atlas()
    rep = validate_atlas(A)
    assert rep.ok, rep.failures[:3]
    # the cocycle axiom constrains base maps only: the algebra-level
    # composite through chart 2 is half the direct morphism, and
    # validation still passes
    direct = A.morphisms["f13"]
    around = compose(A.morphisms["f12"], A.morphisms["f23"])
    assert not comps_agree(direct, around, 2)


def test_shrinking_a_change_breaks_axiom_iv():
    A = three_chart_atlas()
    bad = ToyAtlas(A.points, A.charts, copy.deepcopy(A.changes),
                   A.algebras, A.morphisms)
    bad.changes[(1, 2)]["U_pq"] = ["a1"]
    bad.changes[(1, 2)]["base_map"] = {"a1": "b1"}
    rep = validate_atlas(bad)
    assert not rep.ok
    assert (("axiom-iv", 1, 2, 2), {"missing": 1}) in rep.failures


def test_ill_shaped_base_maps_fail_without_crashing():
    """A base map that misses points of its domain is a change-shape
    failure; the axioms that read the map later skip the missing
    points instead of raising KeyError."""
    A = three_chart_atlas()
    for pair, domain in (((1, 2), ["a1", "a2"]), ((1, 1), [None, "a2"])):
        bad = ToyAtlas(A.points, A.charts, copy.deepcopy(A.changes),
                       A.algebras, A.morphisms)
        bad.changes[pair]["U_pq"] = domain
        bad.changes[pair]["base_map"] = {}
        rep = validate_atlas(bad)
        assert not rep.ok
        assert (("change-shape",) + pair + (None,),
                {"base map domain mismatch": 1}) in rep.failures


def test_identity_and_zero_compat_axioms_detected():
    A = three_chart_atlas()
    bad = ToyAtlas(A.points, A.charts, copy.deepcopy(A.changes),
                   A.algebras, A.morphisms)
    bad.changes[(1, 1)]["base_map"]["a1"] = "a2"
    bad.changes[(1, 1)]["base_map"]["a2"] = "a1"
    rep = validate_atlas(bad)
    axioms = {w[0] for w, _ in rep.failures}
    assert "axiom-i" in axioms

    bad2 = ToyAtlas(A.points, A.charts, copy.deepcopy(A.changes),
                    A.algebras, A.morphisms)
    # send a zero point to a base point over a different space point
    bad2.changes[(1, 2)]["base_map"]["a1"] = "b2"
    bad2.changes[(1, 2)]["base_map"]["a2"] = "b1"
    rep2 = validate_atlas(bad2)
    axioms2 = {w[0] for w, _ in rep2.failures}
    assert "axiom-ii" in axioms2


def test_triple_cocycle_break_detected():
    A = three_chart_atlas()
    bad = ToyAtlas(A.points, A.charts, copy.deepcopy(A.changes),
                   A.algebras, A.morphisms)
    # reroute the direct map 1 -> 3 away from the composite through 2
    bad.charts[3] = dict(bad.charts[3])
    bad.changes[(1, 3)]["base_map"] = {"a2": "c3"}
    rep = validate_atlas(bad)
    axioms = {w[0] for w, _ in rep.failures}
    assert "axiom-iii" in axioms or "axiom-ii" in axioms
    assert not rep.ok


def test_atlas_json_roundtrip():
    A = three_chart_atlas()
    doc = A.to_json()
    B = ToyAtlas.from_json(doc, A.algebras, A.morphisms)
    assert validate_atlas(B).ok
    assert B.to_json() == doc


# ---------------------------------------------------------------------------
# hypercoverings


def test_three_chart_hypercovering_passes():
    A = three_chart_atlas()
    H = build_hypercovering(A, 3)
    assert {k: len(v) for k, v in H.simplices.items()} == \
        {0: 3, 1: 9, 2: 27, 3: 81}
    assert simplicial_identities(H).ok
    rep = hypercover_check(H)
    assert rep.ok, rep.failures[:3]


def test_single_chart_hypercovering_is_degenerate():
    A = single_chart_atlas()
    H = build_hypercovering(A, 4)
    assert all(len(v) == 1 for v in H.simplices.values())
    assert simplicial_identities(H).ok
    assert hypercover_check(H).ok


def test_u_and_v_subsets():
    A = three_chart_atlas()
    H = build_hypercovering(A, 2)
    assert H.u_set((1, 2)) == {"a1", "a2"}
    assert H.u_set((1, 3)) == {"a2"}
    assert H.v_set((1, 3)) == {2}
    assert H.v_set((1, 2, 3)) == {2}
    for k, simps in H.simplices.items():
        for alpha in simps:
            assert H.v_set(alpha) == H.v_by_images(alpha)


def without_simplex(H, alpha):
    """H less alpha and, cascading upward, every simplex with a face
    gone, so the collection stays face-closed."""
    simplices, kept = {}, set()
    for k in sorted(H.simplices):
        simplices[k] = [a for a in H.simplices[k] if a != alpha and (
            k == 0 or all(H.face(a, i) in kept for i in range(k + 1)))]
        kept |= set(simplices[k])
    return Hypercovering(H.atlas, H.m_max, simplices)


def test_deleting_an_edge_breaks_the_pair_glue_axiom():
    A = three_chart_atlas()
    H = without_simplex(build_hypercovering(A, 3), (1, 3))
    assert (1, 3) not in H.simplices[1]
    assert not any(a[1:] == (1, 3) for a in H.simplices[2])
    rep = hypercover_check(H)
    assert not rep.ok
    names = {w[0] for w, _ in rep.failures}
    assert names == {"pair-glue"}
    assert (("pair-glue", 1, 3), {"level 1": 1}) in rep.failures


def test_hypercovering_degree_guard():
    with pytest.raises(ValueError, match="degree 4"):
        build_hypercovering(three_chart_atlas(), 5)


# ---------------------------------------------------------------------------
# cocycle data


def test_single_chart_cocycle_is_constant():
    A = single_chart_atlas()
    H = build_hypercovering(A, 2)
    G = build_cocycle(A, H, level=1)
    assert all(not isinstance(c.model, FillingModel)
               for c in G.triangles.values())
    assert check_cocycle(G).ok


def test_three_chart_cocycle_fills_and_verifies():
    A = three_chart_atlas()
    H = build_hypercovering(A, 2)
    G = build_cocycle(A, H, level=2)
    rep = check_cocycle(G)
    assert rep.ok, rep.failures[:3]
    # the filled triangle's evaluation endpoints equal the direct edge
    # and the composite around the other two edges
    cell = G.triangles[(1, 2, 3)]
    assert isinstance(cell.model, FillingModel)
    direct = G.edges[(1, 3)]
    around = compose(G.edges[(1, 2)], G.edges[(2, 3)])
    assert comps_agree(cell.endpoints[0], direct, 2)
    assert comps_agree(cell.endpoints[1], around, 2)
    # degenerate triangles are constant cells
    assert not isinstance(G.triangles[(1, 1, 2)].model, FillingModel)
    # the level embedding fixes the data
    assert check_cocycle(G.include()).ok


def test_non_quasi_iso_edge_blocks_filling():
    B1 = LInftyAlgebra(GradedSpace([("z", 0)]), {}, arity_cap=2)
    B2 = LInftyAlgebra(GradedSpace([("z", 0)]), {}, arity_cap=2)
    zero12 = LInftyMorphism(B2, B1, {}, arity_cap=2)
    zero21 = LInftyMorphism(B1, B2, {}, arity_cap=2)
    charts = {
        1: {"base_points": ["a", "a2"], "zero_set": {"a": 1, "a2": 2},
            "group_order": 1, "dim": 0, "algebra_ref": "B1"},
        2: {"base_points": ["b", "b2"], "zero_set": {"b": 1, "b2": 2},
            "group_order": 1, "dim": 0, "algebra_ref": "B2"},
    }
    changes = {
        (1, 1): {"U_pq": ["a", "a2"],
                 "base_map": {"a": "a", "a2": "a2"}, "morphism_ref": None},
        (2, 2): {"U_pq": ["b", "b2"],
                 "base_map": {"b": "b", "b2": "b2"}, "morphism_ref": None},
        (1, 2): {"U_pq": ["a", "a2"],
                 "base_map": {"a": "b", "a2": "b2"}, "morphism_ref": "z12"},
        (2, 1): {"U_pq": ["b", "b2"],
                 "base_map": {"b": "a", "b2": "a2"}, "morphism_ref": "z21"},
    }
    A = ToyAtlas([1, 2], charts, changes, {"B1": B1, "B2": B2},
                 {"z12": zero12, "z21": zero21})
    assert validate_atlas(A).ok
    H = build_hypercovering(A, 2)
    with pytest.raises(FillError, match="not a quasi-isomorphism"):
        build_cocycle(A, H, level=1)


def test_level_guard_and_arity_guard():
    A = three_chart_atlas()
    H = build_hypercovering(A, 2)
    with pytest.raises(ValueError, match="dimension above the level"):
        build_cocycle(A, H, level=0)
    with pytest.raises(ValueError, match="degree 2"):
        build_cocycle(A, H, level=2, m_max=3)


def test_dual_run_tie_break_gives_different_valid_cocycle():
    A = three_chart_atlas(make_algebra=pincer_algebra)
    H = build_hypercovering(A, 2)
    G0 = build_cocycle(A, H, level=2)
    G1 = build_cocycle(A, H, level=2, tie_break=3)
    assert check_cocycle(G0).ok
    assert check_cocycle(G1).ok
    fills = [a for a in G0.triangles
             if isinstance(G0.triangles[a].model, FillingModel)]
    assert fills
    differing = [
        a for a in fills
        if any(G0.triangles[a].model.evals[J].comps
               != G1.triangles[a].model.evals[J].comps
               for J in G0.triangles[a].model.evals)]
    assert differing, "tie-break produced identical fills"


def test_cocycle_json_shape():
    A = three_chart_atlas()
    H = build_hypercovering(A, 2)
    G = build_cocycle(A, H, level=2)
    doc = G.to_json()
    assert doc["level"] == 2
    assert doc["vertices"] == {"1": "A1", "2": "A2", "3": "A3"}
    assert "1,2,3" in doc["triangles"]
