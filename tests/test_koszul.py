"""Tests for Koszul complexes, foliation forms, and local algebras.

Oracles: cohomology ranks are computed by exact linear algebra and
compared against hand-computed dimensions; the contracting-homotopy
identity for the primitive is property-tested; every produced algebra
is re-verified through the generic relation checker within its
certified weight range.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfkit.derived import (JetMultivectorModel, JetVAlgebra,
                             derived_brackets, poisson_from_presymplectic,
                             poly_mul, poly_trunc)
from linfkit.koszul import (JetRing, Section, augment_extension,
                            build_local_algebra, d_form, expand_chart,
                            foliation_complex, fooo_embedding_check,
                            koszul_cohomology, koszul_complex, make_label,
                            poincare_primitive, split_label)
from linfkit.linfty import (JetRecord, LInftyAlgebra, LInftyMorphism,
                            check_morphism, check_relations,
                            is_quasi_iso, l1_cohomology, mapping_cone)
from linfkit.gradedlin import GradedSpace, cohomology, sym_words, vec_acc
from linfkit import koszul, linfty

import term_oracle


# ---------------------------------------------------------------------------
# rings and sections


def mul(r, p, q):
    """The product of two jets of the ring r, truncated at its order."""
    return poly_trunc(poly_mul(p, q), range(r.nv), r.order)


def test_jet_ring_truncates():
    r = JetRing(["y1", "y2"], 2)
    y1 = r.var("y1")
    assert mul(r, y1, mul(r, y1, y1)) == {}
    assert r.mono_parse(r.mono_str((2, 0))) == (2, 0)
    assert len(r.monomials()) == 6


def test_section_roundtrip_and_vanishing_order():
    r = JetRing(["y1", "y2"], 3)
    s = Section(r, [mul(r, r.var("y2"), r.var("y2"))])
    s2 = Section.from_json(s.to_json())
    assert s2.comps == s.comps and s2.ring.names == r.names
    assert s.min_vanishing_order() == 2
    assert Section(r, [s.comps[0], r.var("y1")]).min_vanishing_order() == 1
    assert Section(r, [{}]).min_vanishing_order() is None


# ---------------------------------------------------------------------------
# Koszul complexes


def test_koszul_zero_section_has_full_cohomology():
    r = JetRing(["y1", "y2"], 3)
    K = koszul_complex(Section(r, [{}, {}]))
    H = koszul_cohomology(K)
    for d in (-2, -1, 0):
        assert H[d] == len(K.space.basis_in_degree(d))


def test_koszul_regular_sequence_is_exact_below_zero(monkeypatch):
    r = JetRing(["y1", "y2"], 3)
    K = koszul_complex(Section(r, [r.var("y1"), r.var("y2")]))
    # K has only l1, so each arity-2 relation (l1 after l2, l2 after l1)
    # vanishes by arity: those words are counted, no residual computed
    arities = []
    real = linfty.quad_residual

    def spy(A, word):
        arities.append(len(word))
        return real(A, word)

    monkeypatch.setattr(linfty, "quad_residual", spy)
    rep = check_relations(K, up_to=2)
    assert rep.ok
    assert rep.checked == sum(len(sym_words(K.space, k)) for k in range(3))
    assert arities.count(1) == K.space.dim and arities.count(2) == 0
    assert not term_oracle.codifferential_square(K, 2)
    H = koszul_cohomology(K)
    assert H[-2] == 0 and H[-1] == 0
    # the zero locus is the origin: one function survives
    assert H[0] == 1


def test_koszul_order_two_vanishing_detected():
    r = JetRing(["y1"], 3)
    K = koszul_complex(Section(r, [mul(r, r.var("y1"), r.var("y1"))]))
    H = koszul_cohomology(K)
    assert H[-1] >= 1


def test_koszul_module_linearity():
    # the differential commutes with multiplying coefficients
    r = JetRing(["y1", "y2"], 3)
    K = koszul_complex(Section(r, [r.var("y1"), r.var("y2")]))
    out1 = K.op_word(1, ("y1|a2",))
    base = K.op_word(1, ("1|a2",))
    scaled = {}
    for lab, c in base.items():
        mono, toks = split_label(lab)
        e = r.mono_parse(mono)
        prod = mul(r, {e: F(1)}, r.var("y1"))
        for e2, c2 in prod.items():
            lab2 = make_label(r.mono_str(e2), toks)
            scaled[lab2] = scaled.get(lab2, F(0)) + c * c2
    assert out1 == {k: v for k, v in scaled.items() if v}


# ---------------------------------------------------------------------------
# foliation complexes and the primitive


def _ring_q():
    return JetRing(["y1", "q1", "q2"], 4)


def test_foliation_complex_is_complex():
    r = _ring_q()
    Fc = foliation_complex(r, ["q1", "q2"], augmented=True)
    assert check_relations(Fc, up_to=2).ok


def test_augmented_foliation_complex_is_acyclic():
    r = _ring_q()
    Fc = foliation_complex(r, ["q1", "q2"], augmented=True)
    H = l1_cohomology(Fc)
    assert all(v == 0 for v in H.values()), H


def test_unaugmented_closed_functions_survive():
    r = _ring_q()
    Fc = foliation_complex(r, ["q1", "q2"], augmented=False)
    H = l1_cohomology(Fc)
    # leafwise-constant functions: polynomials in the transverse
    # variable up to the jet order
    assert H[-1] == r.order + 1


def test_primitive_examples():
    r = _ring_q()
    fol = ["q1", "q2"]
    assert poincare_primitive(r, fol, {"1|dq1": F(1)}) == {"q1|1": F(1)}
    assert poincare_primitive(r, fol, {}) == {}
    xi = {"q2|dq1": F(1), "q1|dq2": F(1)}
    assert poincare_primitive(r, fol, xi) == {"q1.q2|1": F(1)}
    with pytest.raises(ValueError, match="not closed"):
        poincare_primitive(r, fol, {"q2|dq1": F(1), "q1|dq2": F(-1)})


def _random_form(rng, ring, fol, min_wedge=1):
    out = {}
    wedge_pool = ["d" + n for n in fol]
    for _ in range(rng.randint(1, 3)):
        j = rng.randint(min_wedge, len(fol))
        toks = tuple(sorted(rng.sample(wedge_pool, j)))
        e = tuple(rng.randint(0, 1) for _ in range(ring.nv))
        out[make_label(ring.mono_str(e), toks)] = F(rng.choice([1, -1, 2]))
    return out


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_primitive_contracting_homotopy(seed):
    # d(h xi) + h(d xi) = xi on forms of positive degree
    rng = random.Random(seed)
    r = _ring_q()
    fol = ["q1", "q2"]
    xi = _random_form(rng, r, fol, min_wedge=1)
    dxi = d_form(r, fol, xi)
    closed_part = poincare_primitive(r, fol, d_form(r, fol, xi)) \
        if not dxi else None
    h_d = poincare_primitive(r, fol, dxi) if False else None
    # split xi = closed + rest is unnecessary: apply the identity term
    # by term using exact forms
    # h(d xi) needs d xi closed, which it is
    hdxi = poincare_primitive(r, fol, d_form(r, fol, xi)) \
        if not d_form(r, fol, d_form(r, fol, xi)) else None
    assert hdxi is not None
    # d xi is closed, so the primitive applies; and h xi needs xi
    # closed only for the error path, the formula itself is linear:
    # compute h xi directly through the monomial rule
    def h_raw(vec):
        out = {}
        fol_idxs = [r.name_to_idx[n] for n in fol]
        for lab, c in vec.items():
            mono, toks = split_label(lab)
            e = r.mono_parse(mono)
            denom = sum(e[i] for i in fol_idxs) + len(toks)
            for s, tok in enumerate(toks):
                e2 = list(e)
                e2[r.name_to_idx[tok[1:]]] += 1
                lab2 = make_label(r.mono_str(tuple(e2)),
                                  toks[:s] + toks[s + 1:])
                c2 = out.get(lab2, F(0)) + ((-1) ** s) * c / denom
                if c2:
                    out[lab2] = c2
                else:
                    out.pop(lab2, None)
        return out

    lhs = vec_acc(d_form(r, fol, h_raw(xi)), h_raw(d_form(r, fol, xi)))
    assert lhs == xi


def test_primitive_inverts_differential_on_functions():
    # h(d f) = f - f(foliation coordinates = 0)
    r = _ring_q()
    fol = ["q1", "q2"]
    f = {"y1.q1^2|1": F(3), "q2|1": F(1), "y1|1": F(2), "1|1": F(5)}
    df = d_form(r, fol, f)
    got = poincare_primitive(r, fol, df)
    want = {"y1.q1^2|1": F(3), "q2|1": F(1)}
    assert got == want


# ---------------------------------------------------------------------------
# the augmentation recursion


def test_augment_flat_base_adds_nothing_beyond_unary():
    m = JetMultivectorModel(0, 2, base_cap=3, fiber_cap=2)
    A = derived_brackets(JetVAlgebra(m, poisson_from_presymplectic(
        m, [], {})), 3)
    G = augment_extension(A, 3)
    mixed = [w for k in G.ops if k >= 2 for w in G.ops[k]
             if any(lab.endswith("|g") for lab in w)]
    assert mixed == []
    # the new unary entries are inclusions of closed functions
    assert G.op_word(1, ("1|g",)) == {"1|1": F(1)}
    assert check_relations(G, up_to=3, weight_cap=G.jet.check_cap).ok


def test_augment_nonflat_base_forces_mixed_operations():
    m = JetMultivectorModel(2, 1, base_cap=4, fiber_cap=2)
    P = poisson_from_presymplectic(m, [[0, 1], [-1, 0]],
                                   {(1, 1): m.var("q1")})
    A = derived_brackets(JetVAlgebra(m, P), 3)
    G = augment_extension(A, 3)
    mixed = [(k, w) for k in G.ops if k >= 2 for w in G.ops[k]
             if any(lab.endswith("|g") for lab in w)]
    assert mixed, "expected forced mixed operations"
    # regression value, re-derivable by hand: the residual at this
    # word is d of the leaf coordinate
    assert G.op_word(2, ("1|dq1", "y2|g")) == {"q1|1": F(-1)}
    rep = check_relations(G, up_to=3, weight_cap=G.jet.check_cap)
    assert rep.ok, rep.failures[:3]


def test_augment_new_arity_enters_the_support():
    """Brackets through arity 2 force a mixed arity-3 operation.  Later
    residuals must see it: the augmented algebra's arity support, which
    the term kernel prunes by, has to include 3."""
    m = JetMultivectorModel(2, 1, base_cap=4, fiber_cap=2)
    P = poisson_from_presymplectic(m, [[0, 1], [-1, 0]],
                                   {(1, 1): m.var("q1")})
    A = derived_brackets(JetVAlgebra(m, P), 2)
    G = augment_extension(A, 3)
    assert 3 not in A.support and G.ops.get(3)
    assert G.support == frozenset(k for k, t in G.ops.items() if t)
    rep = check_relations(G, up_to=3, weight_cap=G.jet.check_cap)
    assert rep.ok and (rep.failures, rep.checked) == \
        term_oracle.check_relations(G, up_to=3, weight_cap=G.jet.check_cap)


def test_augment_skips_the_closed_functions_already_held():
    """Over an augmented foliation complex the augmentation adds no
    generator: it keeps the labels, degrees, weights and l1 of the
    complex, and forces no higher operation."""
    Fc = foliation_complex(_ring_q(), ["q1", "q2"], augmented=True)
    G = augment_extension(Fc, 3)
    assert G.space.labels == Fc.space.labels
    assert G.space.deg == Fc.space.deg
    assert G.weights == Fc.weights
    assert G.ops == Fc.ops


def test_augment_raises_on_inconsistent_input():
    # a spurious binary operation on functions makes the forced
    # function-level residual depend on the leaf coordinates, which
    # cannot be matched by degree -2 generators
    space = GradedSpace([("1|1", -1), ("q1|1", -1)])
    ops = {2: {("1|1", "q1|1"): {"q1|1": F(1)}}}
    bad = LInftyAlgebra(space, ops, arity_cap=3,
                        jet=JetRecord(("q1",), 4, ("q1",), 0, None))
    with pytest.raises(ValueError, match="not closed"):
        augment_extension(bad, 2)


# ---------------------------------------------------------------------------
# local algebras and chart expansion


def test_local_algebra_summands_never_interact():
    r = JetRing(["y1"], 3)
    L = build_local_algebra(Section(r, [r.var("y1")]))
    assert check_relations(L.algebra, up_to=2).ok
    for k, tab in L.algebra.ops.items():
        for w, out in tab.items():
            sides = {lab.rsplit("@", 1)[1] for lab in w}
            assert len(sides) == 1
            assert {lab.rsplit("@", 1)[1] for lab in out} == sides
    # Koszul summand: origin cut out regularly; de Rham summand acyclic
    assert koszul_cohomology(L.koszul) == {-1: 0, 0: 1}
    assert all(h == 0 for h in l1_cohomology(L.derham).values())


def test_expand_chart_trivial():
    r = JetRing(["y1"], 3)
    L = build_local_algebra(Section(r, [r.var("y1")]))
    L2, pihat = expand_chart(L, [])
    assert L2 is L
    assert check_morphism(pihat, up_to=1).ok


def test_expand_chart_one_dimension():
    # one-dimensional expansion over a two-variable base
    r = JetRing(["y1", "y2"], 3)
    L = build_local_algebra(Section(r, [r.var("y1")]))
    L2, pihat = expand_chart(L, ["v1"])
    rep = check_morphism(pihat, up_to=1, weight_cap=r.order - 1)
    assert rep.ok, rep.failures[:3]
    assert is_quasi_iso(pihat)
    # the zero sets agree: same Koszul cohomology in degree 0
    assert koszul_cohomology(L.koszul)[0] == \
        koszul_cohomology(L2.koszul)[0]


def test_expand_chart_rejects_name_clash():
    r = JetRing(["y1"], 2)
    L = build_local_algebra(Section(r, [r.var("y1")]))
    with pytest.raises(ValueError, match="duplicate variable name"):
        expand_chart(L, ["y1"])


# ---------------------------------------------------------------------------
# quotient complexes


def test_quotient_of_zero_inclusion_is_target_cohomology():
    """The mapping cone of the zero map into K is a copy of K, so the
    two have the same cohomology in every degree."""
    r = JetRing(["y1"], 2)
    K = koszul_complex(Section(r, [{}]))
    f = LInftyMorphism(LInftyAlgebra(GradedSpace([]), {}), K, {},
                       arity_cap=2)
    H = cohomology(mapping_cone(f))
    assert H == koszul_cohomology(K)


# ---------------------------------------------------------------------------
# embedding acceptance


def _sub_chart():
    r = JetRing(["y1"], 3)
    return Section(r, [])


def test_embedding_identity_accepts():
    r = JetRing(["y1"], 3)
    s = Section(r, [r.var("y1")])
    rep = fooo_embedding_check(s, s, [[1]])
    assert rep.accepted, rep.reason
    assert rep.checks["quasi_iso"] is True


def test_embedding_codimension_one_accepts():
    sU = _sub_chart()
    rp = JetRing(["y1", "y2"], 3)
    sUp = Section(rp, [rp.var("y2")])
    rep = fooo_embedding_check(sU, sUp, [[]])
    assert rep.accepted, rep.reason
    assert rep.checks["chain_map"] is True
    assert rep.checks["quasi_iso"] is True
    # the Koszul quotient is acyclic in every degree
    assert all(v == 0 for v in rep.checks["koszul_quotient"].values())


def test_embedding_rejects_order_two_vanishing():
    sU = _sub_chart()
    rp = JetRing(["y1", "y2"], 3)
    sUp = Section(rp, [mul(rp, rp.var("y2"), rp.var("y2"))])
    rep = fooo_embedding_check(sU, sUp, [[]])
    assert not rep.accepted
    assert "regular sequence" in rep.reason


def test_embedding_rejects_degenerate_tangent_direction():
    sU = _sub_chart()
    rp = JetRing(["y1", "y2"], 3)
    sUp = Section(rp, [mul(rp, rp.var("y1"), rp.var("y2"))])
    rep = fooo_embedding_check(sU, sUp, [[]])
    assert not rep.accepted
    assert "degenerate" in rep.reason and "y2" in rep.reason


def test_embedding_rejects_restriction_mismatch():
    r = JetRing(["y1"], 3)
    s = Section(r, [r.var("y1")])
    rp = JetRing(["y1", "y2"], 3)
    sp = Section(rp, [rp.var("y2")])  # restricts to 0, not y1
    rep = fooo_embedding_check(s, sp, [[1]])
    assert not rep.accepted
    assert "restrict" in rep.reason


@pytest.mark.parametrize("targets", [(0, 1), (2, 3), (2, 9), (9, 2)],
                         ids=lambda t: "a%d-a%d" % (t[0] + 1, t[1] + 1))
def test_embedding_accepts_any_frame_relabelling(targets):
    # the section (q1, q2) inside a rank-10 section over q1..q10, its two
    # frame directions sent to the frame directions `targets`; labels
    # write frame words in frame order (a3.a10), so the pushed words
    # must be ordered by frame index, not as strings
    r = JetRing(["q1", "q2"], 2)
    s = Section(r, [r.var("q1"), r.var("q2")])
    amb = JetRing(["q%d" % i for i in range(1, 11)], 2)
    normal = iter(range(3, 11))
    comps = [amb.var("q%d" % (targets.index(b) + 1 if b in targets
                              else next(normal))) for b in range(10)]
    B = [[int(targets[i] == b) for i in range(2)] for b in range(10)]
    rep = fooo_embedding_check(s, Section(amb, comps), B)
    assert rep.accepted, rep.reason
    assert all(v == 0 for v in rep.checks["koszul_quotient"].values())


@pytest.mark.parametrize("sub, sec, amb, amb_sec, B", [
    (["q2", "q1"], ["q2", "q1"], ["q1", "q2"], ["q2", "q1"],
     [[1, 0], [0, 1]]),
    (["q2", "q1"], ["q2"], ["q1", "q2", "q3"], ["q2", "q3"], [[1], [0]])],
    ids=["same-section", "codim-one"])
def test_embedding_accepts_any_variable_order(sub, sec, amb, amb_sec, B):
    # the chart lists its variables in another order than the ambient
    # chart: its monomials are written as the ambient ring writes them
    r, rp = JetRing(sub, 3), JetRing(amb, 3)
    rep = fooo_embedding_check(Section(r, [r.var(n) for n in sec]),
                               Section(rp, [rp.var(n) for n in amb_sec]),
                               B)
    assert rep.accepted, rep.reason
    assert rep.checks["quasi_iso"] is True
    assert all(v == 0 for v in rep.checks["koszul_quotient"].values())


def test_zero_section_embedding_checks_the_chain_relation(monkeypatch):
    # a zero section has no vanishing order; the chain relation is still
    # checked to the jet order less one, on a nonempty set of words
    checked = []

    def spy(*args, **kw):
        rep = real(*args, **kw)
        checked.append(rep.checked)
        return rep

    real = koszul.check_morphism
    monkeypatch.setattr(koszul, "check_morphism", spy)
    s = Section(JetRing(["y1", "y2"], 3), [{}])
    rep = fooo_embedding_check(s, s, [[1]])
    assert rep.checks["chain_map"] is True
    assert checked and all(c > 0 for c in checked)


def test_embedding_requires_orthonormal_columns():
    r = JetRing(["y1"], 3)
    s = Section(r, [r.var("y1")])
    with pytest.raises(ValueError, match="orthonormal"):
        fooo_embedding_check(s, s, [[2]])
