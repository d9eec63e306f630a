"""End-to-end acceptance suite.

Each criterion below is packaged as a function returning a plain
JSON-able report, so the determinism criterion can re-run every
criterion and compare the canonical renderings byte for byte.  The
individual tests assert the substance of each report plus the runtime
budgets.
"""

import sys
import time

from fractions import Fraction as F

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from linfkit.gradedlin import GradedSpace, dumps_canonical, scalar_to_str
from linfkit.linfty import (LInftyAlgebra, LInftyMorphism, check_morphism,
                            check_relations, chain_complex,
                            compose, comps_agree, delta1,
                            direct_sum, direct_sum_mor, extend_morphism,
                            is_quasi_iso,
                            l1_cohomology, obstruction_cocycle,
                            obstruction_class, sym_words, word_degree)
from linfkit.simplexmodel import (SimplexModel, incl_morphism,
                                  verify_model_axioms)
from linfkit.htpy import fill_n_homotopy, whitehead_inverse
from linfkit.derived import (JetMultivectorModel, JetVAlgebra,
                             derived_brackets, op_weight_gain,
                             poisson_from_presymplectic, poly_mul)
from linfkit.koszul import (JetRing, Section, augment_extension, d_form,
                            foliation_complex, fooo_embedding_check,
                            koszul_cohomology, koszul_complex,
                            poincare_primitive)
from linfkit.atlas import (build_cocycle, build_hypercovering, check_cocycle,
                           hypercover_check, simplicial_identities,
                           validate_atlas)

import term_oracle
from dense_oracle import in_span
from test_atlas import three_chart_atlas


# ---------------------------------------------------------------------------
# shared fixtures


def acyclic_pair():
    S = GradedSpace([("a", 0), ("b", 1)])
    return LInftyAlgebra(S, {1: {("a",): {"b": F(1)}},
                             2: {("a", "a"): {"b": F(1)}}}, arity_cap=4)


def acyclic_pair_scaled():
    T = GradedSpace([("x", 0), ("y", 1)])
    return LInftyAlgebra(T, {1: {("x",): {"y": F(1)}},
                             2: {("x", "x"): {"y": F(2)}}}, arity_cap=4)


def pincer():
    S = GradedSpace([("u", -1), ("x1", 0), ("x2", 0), ("y", 1)])
    return LInftyAlgebra(S, {1: {("u",): {"x1": F(1), "x2": F(-1)},
                                 ("x1",): {"y": F(1)},
                                 ("x2",): {"y": F(1)}}}, arity_cap=4)


def qiso_between_pairs():
    C, D = acyclic_pair(), acyclic_pair_scaled()
    f = LInftyMorphism(C, D,
                       {1: {("a",): {"x": F(1)}, ("b",): {"y": F(1)}}},
                       arity_cap=4)
    f, _ = extend_morphism(f, 1)
    f, _ = extend_morphism(f, 2)
    return f


def sign_automorphism(C):
    f = LInftyMorphism(C, C,
                       {1: {("a",): {"a": F(-1)}, ("b",): {"b": F(-1)}}},
                       arity_cap=4)
    f, _ = extend_morphism(f, 1)
    f, _ = extend_morphism(f, 2)
    return f


def nonflat_model():
    m = JetMultivectorModel(2, 1, base_cap=3, fiber_cap=2)
    P = poisson_from_presymplectic(m, [[0, 1], [-1, 0]],
                                   {(1, 1): m.var("q1")})
    return m, P


def flat_algebra():
    m = JetMultivectorModel(0, 2, base_cap=3, fiber_cap=2)
    P = poisson_from_presymplectic(m, [], {})
    return m, derived_brackets(JetVAlgebra(m, P), 3)


# ---------------------------------------------------------------------------
# criterion 1: relation suite against the coalgebra square


def _dhat_squared_ok(A, cap, weight_cap=None):
    """d-hat squared vanishes on the truncated coalgebra, restricted to
    word sources within the weight filter when one is given.  d-hat is
    the term oracle's, which shares no term sum with check_relations."""
    square = term_oracle.codifferential_square(A, cap)
    if weight_cap is None:
        return not square
    return all(sum(A.weights[x] for x in w) > weight_cap
               for w, _ in square)


def _fixture_algebras():
    """(name, algebra, weight filter): >= 20 structures from every
    construction site, plus one deliberately broken differential."""
    out = []
    out.append(("zero-empty", LInftyAlgebra(GradedSpace([]), {}), None))
    out.append(("zero-3dim", LInftyAlgebra(
        GradedSpace([("p", -1), ("q", 0), ("r", 2)]), {}), None))
    sp = GradedSpace([("x", 0), ("y", 1)])
    out.append(("pair-complex", LInftyAlgebra(
        sp, {1: {("x",): {"y": F(1)}}}, arity_cap=4), None))
    out.append(("pincer-complex", pincer(), None))
    sp3 = GradedSpace([("e0", 0), ("e1", 1), ("e2", 2)])
    out.append(("length-three", LInftyAlgebra(
        sp3, {1: {("e0",): {"e1": F(2)}}}, arity_cap=4), None))
    out.append(("rational-complex", LInftyAlgebra(
        sp, {1: {("x",): {"y": F(3, 7)}}}, arity_cap=4), None))
    out.append(("acyclic-pair", acyclic_pair(), None))
    out.append(("acyclic-pair-scaled", acyclic_pair_scaled(), None))
    ab = GradedSpace([("a", 0), ("b", 0), ("c", 1)])
    out.append(("binary-only", LInftyAlgebra(
        ab, {2: {("a", "b"): {"c": F(1)}}}, arity_cap=4), None))
    tern = GradedSpace([("a", 0), ("b", 0), ("c", 0), ("d", 1)])
    out.append(("ternary-only", LInftyAlgebra(
        tern, {3: {("a", "b", "c"): {"d": F(1)}}}, arity_cap=4), None))

    m, A = flat_algebra()
    out.append(("derived-flat", A, m.base_cap))
    m2, P2 = nonflat_model()
    A2 = derived_brackets(JetVAlgebra(m2, P2), 4)
    out.append(("derived-nonflat", A2,
                m2.base_cap - 2 * op_weight_gain(A2)))

    pair = LInftyAlgebra(sp, {1: {("x",): {"y": F(1)}}}, arity_cap=4)
    out.append(("interval-model", SimplexModel(pair, 1, 6).algebra, 4))
    out.append(("triangle-model", SimplexModel(pair, 2, 3).algebra, 1))

    out.append(("sum-pair-pincer", direct_sum(pair, pincer()), None))
    out.append(("sum-acyclics", direct_sum(acyclic_pair(),
                                           acyclic_pair_scaled()), None))

    ring = JetRing(["q1", "q2"], 3)
    sec = Section(ring, [ring.var("q1"), ring.var("q2")])
    out.append(("koszul-coordinates", koszul_complex(sec), None))
    out.append(("foliation-augmented",
                foliation_complex(ring, ["q1", "q2"], augmented=True),
                None))
    ring4 = JetRing(["q1", "q2"], 4)
    G1 = augment_extension(foliation_complex(ring4, ["q1"]), 2)
    out.append(("augmented-extension-1", G1, max(0, G1.jet.check_cap)))
    ring5 = JetRing(["q1"], 5)
    G2 = augment_extension(foliation_complex(ring5, ["q1"]), 2)
    out.append(("augmented-extension-2", G2, max(0, G2.jet.check_cap)))

    sq = Section(JetRing(["q1"], 4), [JetRing(["q1"], 4).var("q1")])
    out.append(("koszul-single", koszul_complex(sq), None))
    return out


def _size_cap(dim):
    """Arity used for the full sweep, tiered by dimension so the
    quartic word count stays at desk scale; every operation arity in
    the fixture set is still exercised."""
    if dim <= 8:
        return 4
    if dim <= 20:
        return 3
    return 2


def criterion_1():
    checks = []
    for name, A, wcap in _fixture_algebras():
        cap = min(4, A.arity_cap, _size_cap(A.space.dim))
        rel_ok = check_relations(A, up_to=cap, weight_cap=wcap).ok
        sq_ok = _dhat_squared_ok(A, cap, weight_cap=wcap)
        checks.append({"name": name, "relations": rel_ok,
                       "square": sq_ok, "ok": rel_ok and sq_ok
                       and rel_ok == sq_ok})
    # the equivalence is two-sided: a broken differential fails both
    sp = GradedSpace([("x", 0), ("y", 1), ("z", 2)])
    bad = LInftyAlgebra(sp, {1: {("x",): {"y": F(1)},
                                 ("y",): {"z": F(1)}}}, arity_cap=4)
    rel_ok = check_relations(bad, up_to=4).ok
    sq_ok = _dhat_squared_ok(bad, 4)
    checks.append({"name": "broken-differential", "relations": rel_ok,
                   "square": sq_ok, "ok": not rel_ok and not sq_ok})
    return {"criterion": 1, "fixtures": len(checks),
            "ok": all(c["ok"] for c in checks), "checks": checks}


def test_criterion_1_relation_suite():
    t0 = time.monotonic()
    report = criterion_1()
    elapsed = time.monotonic() - t0
    assert report["ok"], report
    assert report["fixtures"] >= 20
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: obstruction theory against the image-membership oracle


def _hom_exactness_oracle(f, K, cocycle):
    """Is the obstruction cocycle in the image of the Hochschild
    differential on degree-0 homs?  Decided by the test-only dense
    Gauss-Jordan span membership, independent of the extension solver
    and of the package's echelon engine."""
    A, B = f.source, f.target
    words = list(sym_words(A.space, K + 1))
    basis = [(w, b) for w in words for b in B.space.labels
             if B.space.deg[b] == word_degree(A.space, w)]
    keys = [(w, b) for w in words for b in B.space.labels]
    key_pos = {k: i for i, k in enumerate(keys)}

    def densify(table):
        v = [F(0)] * len(keys)
        for w, el in table.items():
            for b, c in el.items():
                v[key_pos[(w, b)]] = c
        return v

    columns = [densify(delta1(A, B, {w: {b: F(1)}}, K + 1))
               for (w, b) in basis]
    return in_span(columns, densify(cocycle))


def _obstruction_instances():
    out = []
    C, D = acyclic_pair(), acyclic_pair_scaled()
    out.append(("identity-acyclic", LInftyMorphism.identity(C), 2))
    f1 = LInftyMorphism(C, D,
                        {1: {("a",): {"x": F(1)}, ("b",): {"y": F(1)}}},
                        arity_cap=4)
    out.append(("pairs-arity-1", f1, 1))
    out.append(("pairs-arity-2", extend_morphism(f1, 1)[0], 2))
    out.append(("sign-automorphism", sign_automorphism(acyclic_pair()),
                2))
    out.append(("zero-map", LInftyMorphism(C, D, {}, arity_cap=4), 1))
    P = pincer()
    out.append(("identity-pincer", LInftyMorphism.identity(P), 2))
    S = direct_sum(C, P)
    incl = LInftyMorphism(
        C, S, {1: {(a,): {a + "@0": F(1)} for a in C.space.labels}},
        arity_cap=4)
    out.append(("sum-inclusion", incl, 1))

    # non-extendable: the target cannot absorb the bracket
    sp = GradedSpace([("x", 0), ("y", 1)])
    for scale in (1, 2, -3):
        src = LInftyAlgebra(sp, {2: {("x", "x"): {"y": F(scale)}}},
                            arity_cap=4)
        tgt = LInftyAlgebra(sp, {}, arity_cap=4)
        g = LInftyMorphism(src, tgt,
                           {1: {("x",): {"x": F(1)}, ("y",): {"y": F(1)}}},
                           arity_cap=4)
        out.append(("bracket-to-abelian-%d" % scale, g, 1))
        rev = LInftyMorphism(tgt, src,
                             {1: {("x",): {"x": F(1)},
                                  ("y",): {"y": F(1)}}},
                             arity_cap=4)
        out.append(("abelian-to-bracket-%d" % scale, rev, 1))
    return out


def criterion_2():
    checks = []
    for name, f, K in _obstruction_instances():
        O = obstruction_cocycle(f, K)
        closed = not delta1(f.source, f.target, O, K + 1, shift=1)
        ext, obc = extend_morphism(f, K)
        oracle = _hom_exactness_oracle(f, K, O)
        agree = (obc.exact == oracle) and ((ext is not None) == oracle)
        checks.append({"name": name, "K": K, "closed": closed,
                       "exact": obc.exact, "oracle": oracle,
                       "ok": closed and agree})
    exact_flags = {c["exact"] for c in checks}
    return {"criterion": 2, "instances": len(checks),
            "ok": all(c["ok"] for c in checks)
            and exact_flags == {True, False},
            "checks": checks}


def test_criterion_2_obstruction_theory():
    report = criterion_2()
    assert report["ok"], report
    assert report["instances"] >= 10


# ---------------------------------------------------------------------------
# criterion 3: Whitehead inverses at desk scale


def _whitehead_instances():
    out = [("identity", LInftyMorphism.identity(acyclic_pair())),
           ("between-pairs", qiso_between_pairs()),
           ("sign", sign_automorphism(acyclic_pair())),
           ("sum", direct_sum_mor(qiso_between_pairs(),
                                  sign_automorphism(acyclic_pair()))),
           ("composite", compose(sign_automorphism(acyclic_pair()),
                                 sign_automorphism(acyclic_pair())))]
    return out


def criterion_3():
    checks = []
    for name, f in _whitehead_instances():
        assert f.source.space.dim <= 8 and f.target.space.dim <= 8
        assert f.source.ops.get(2) or f.target.ops.get(2)
        t0 = time.monotonic()
        cert = whitehead_inverse(f, K=3)
        rep = cert.verify()
        elapsed = time.monotonic() - t0
        checks.append({"name": name, "ok": rep.ok,
                       "within_budget": elapsed < 30.0})
    return {"criterion": 3, "instances": len(checks),
            "ok": all(c["ok"] and c["within_budget"] for c in checks),
            "checks": checks}


def test_criterion_3_whitehead():
    report = criterion_3()
    assert report["ok"], report
    assert report["instances"] >= 5


# ---------------------------------------------------------------------------
# criterion 4: homotopy filling with exact endpoint evaluation


def _endpoints_exact(model, fs):
    for i, f in enumerate(fs):
        got = compose(model.eval_vertex(i), model.hbar)
        if not comps_agree(got, f, min(2, f.arity_cap)):
            return False
    return True


def criterion_4():
    checks = []
    C = acyclic_pair()
    ident = LInftyMorphism.identity(C)
    phi = sign_automorphism(C)
    f = qiso_between_pairs()
    g = compose(f, sign_automorphism(f.source))
    pairs = [("id-id", [ident, ident]),
             ("id-sign", [ident, phi]),
             ("between-pairs", [f, g])]
    for name, fs in pairs:
        M = fill_n_homotopy(fs, K=2)
        checks.append({"name": "edge-" + name,
                       "ok": M.verify().ok and _endpoints_exact(M, fs)})
    M2 = fill_n_homotopy([ident, phi, phi], K=2)
    checks.append({"name": "triangle",
                   "ok": M2.verify().ok and _endpoints_exact(M2,
                                                             [ident, phi,
                                                              phi])})
    return {"criterion": 4, "ok": all(c["ok"] for c in checks),
            "checks": checks}


def test_criterion_4_filling():
    report = criterion_4()
    assert report["ok"], report


# ---------------------------------------------------------------------------
# criterion 5: simplex model axioms with exactness through weight 6


def criterion_5():
    sp = GradedSpace([("x", 0), ("y", 1)])
    base = LInftyAlgebra(sp, {1: {("x",): {"y": F(1)}}}, arity_cap=4)
    checks = []
    # the triangle model uses a quadratic arity cap: the base complex
    # has no higher operations, and the weight-8 construction keeps the
    # weight-6 exactness sweep free of truncation artifacts
    base2 = LInftyAlgebra(sp, {1: {("x",): {"y": F(1)}}}, arity_cap=2)
    for n, b in ((1, base), (2, base2)):
        model = SimplexModel(b, n, 8)
        rep = verify_model_axioms(model)
        checks.append({"name": "model-%d-axioms" % n, "ok": rep.ok})
    model = SimplexModel(base, 1, 6)
    incl = incl_morphism(model)
    ident = LInftyMorphism.identity(base)
    for j in (0, 1):
        got = compose(model.eval_vertex(j), incl)
        checks.append({"name": "eval%d-incl-identity" % j,
                       "ok": comps_agree(got, ident, 2)})
    return {"criterion": 5, "ok": all(c["ok"] for c in checks),
            "checks": checks}


def test_criterion_5_model_axioms():
    report = criterion_5()
    assert report["ok"], report


# ---------------------------------------------------------------------------
# criterion 6: derived brackets of the presymplectic jet models


def criterion_6():
    checks = []
    m, A = flat_algebra()
    ring = JetRing(["q1", "q2"], m.base_cap)
    fol = ["q1", "q2"]
    unary_matches = all(
        A.op_word(1, (lab,)) == d_form(ring, fol, {lab: F(1)})
        for lab in A.space.labels)
    checks.append({"name": "flat-unary-is-foliation-derivative",
                   "ok": unary_matches})
    checks.append({"name": "flat-no-higher-operations",
                   "ok": sorted(A.ops) == [1] and A.l0 == {}})

    m2, P2 = nonflat_model()
    A2 = derived_brackets(JetVAlgebra(m2, P2), 4)
    cap = m2.base_cap - 2 * op_weight_gain(A2)
    checks.append({"name": "nonflat-relations",
                   "ok": check_relations(A2, up_to=4,
                                         weight_cap=cap).ok})
    checks.append({"name": "nonflat-strict", "ok": A2.l0 == {}})
    checks.append({"name": "nonflat-has-binary",
                   "ok": bool(A2.ops.get(2))})
    return {"criterion": 6, "ok": all(c["ok"] for c in checks),
            "checks": checks}


def test_criterion_6_derived_brackets():
    report = criterion_6()
    assert report["ok"], report


# ---------------------------------------------------------------------------
# criterion 7: Koszul complexes and embedding acceptance


def criterion_7():
    checks = []
    for names in (["q1"], ["q1", "q2"], ["q1", "q2", "q3"]):
        ring = JetRing(names, 4)
        sec = Section(ring, [ring.var(n) for n in names])
        H = koszul_cohomology(koszul_complex(sec))
        checks.append({"name": "coordinates-%d" % len(names),
                       "ok": all(H.get(d, 0) == 0
                                 for d in range(-len(names), 0))})

    ring = JetRing(["q1"], 4)
    sq = Section(ring, [poly_mul(ring.var("q1"), ring.var("q1"))])
    K = koszul_complex(sq)
    checks.append({"name": "order-two-obstruction",
                   "ok": l1_cohomology(K).get(-1, 0) >= 1})

    r1 = JetRing(["q1"], 4)
    s1 = Section(r1, [r1.var("q1")])
    rep_id = fooo_embedding_check(s1, s1, [[F(1)]])
    checks.append({"name": "accept-identity", "ok": rep_id.accepted})
    r2 = JetRing(["q1", "q2"], 4)
    s_small = Section(r1, [r1.var("q1")])
    s_big = Section(r2, [r2.var("q1"), r2.var("q2")])
    rep_cod = fooo_embedding_check(s_small, s_big, [[F(1)], [F(0)]])
    checks.append({"name": "accept-codim-one", "ok": rep_cod.accepted})
    s_sq = Section(r2, [r2.var("q1"),
                        poly_mul(r2.var("q2"), r2.var("q2"))])
    rep_bad = fooo_embedding_check(s_small, s_sq, [[F(1)], [F(0)]])
    checks.append({"name": "reject-degenerate",
                   "ok": not rep_bad.accepted})

    for name, rep in (("identity", rep_id), ("codim-one", rep_cod)):
        checks.append({"name": "eta-quasi-iso-" + name,
                       "ok": is_quasi_iso(rep.eta)})
    return {"criterion": 7, "ok": all(c["ok"] for c in checks),
            "checks": checks}


def test_criterion_7_koszul_and_embeddings():
    report = criterion_7()
    assert report["ok"], report


# ---------------------------------------------------------------------------
# criterion 8: exterior primitive and augmented acyclicity


def criterion_8():
    ring = JetRing(["q1", "q2"], 5)
    fol = ["q1", "q2"]
    Omega = foliation_complex(ring, fol)
    swept = 0
    failures = 0
    for lab in Omega.space.labels:
        eta = d_form(ring, fol, {lab: F(1)})
        if not eta:
            continue
        prim = poincare_primitive(ring, fol, eta)
        if d_form(ring, fol, prim) != eta:
            failures += 1
        swept += 1
    checks = [{"name": "primitive-sweep", "swept": swept,
               "ok": failures == 0 and swept > 0}]
    for names, order in ((["q1"], 4), (["q1", "q2"], 5)):
        ring = JetRing(names, order)
        aug = foliation_complex(ring, names, augmented=True)
        H = l1_cohomology(aug)
        checks.append({"name": "augmented-acyclic-%d-%d"
                       % (len(names), order),
                       "ok": all(v == 0 for v in H.values())})
    return {"criterion": 8, "ok": all(c["ok"] for c in checks),
            "checks": checks}


def test_criterion_8_primitive():
    report = criterion_8()
    assert report["ok"], report


# ---------------------------------------------------------------------------
# criterion 9: atlas, hypercovering, and cocycle


def criterion_9():
    A = three_chart_atlas()
    checks = [{"name": "atlas-axioms", "ok": validate_atlas(A).ok}]
    H3 = build_hypercovering(A, 3)
    checks.append({"name": "simplicial-identities",
                   "ok": simplicial_identities(H3).ok})
    checks.append({"name": "hypercover-axioms",
                   "ok": hypercover_check(H3).ok})
    H2 = build_hypercovering(A, 2)
    level = max(c.get("dim", 0) for c in A.charts.values())
    G = build_cocycle(A, H2, level, m_max=2)
    checks.append({"name": "cocycle", "ok": check_cocycle(G).ok})
    return {"criterion": 9, "ok": all(c["ok"] for c in checks),
            "checks": checks}


def test_criterion_9_atlas_pipeline():
    t0 = time.monotonic()
    report = criterion_9()
    elapsed = time.monotonic() - t0
    assert report["ok"], report
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reports across two runs


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
            criterion_5, criterion_6, criterion_7, criterion_8,
            criterion_9]


def test_criterion_10_determinism():
    for fn in CRITERIA:
        first = dumps_canonical(fn())
        second = dumps_canonical(fn())
        assert first == second, fn.__name__
