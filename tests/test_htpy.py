"""Tests for filling, inversion up to homotopy, and model morphisms.

Oracles: the chain-level inverse identities are re-checked directly
against the definitions (independent of the solver), every constructed
object is re-verified through the generic relation/morphism checkers,
and endpoint agreements are compared coefficient by coefficient.
"""

import json
import re
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest

from linfkit import cli, htpy
from linfkit.gradedlin import GradedMap, GradedSpace, vec_acc, vec_scale
from linfkit.htpy import (FillError, FillingModel, WhiteheadCertificate,
                          chain_inverse, fill_n_homotopy,
                          model_morphism_over, whitehead_inverse)
from linfkit.linfty import (LInftyAlgebra, LInftyMorphism, check_morphism,
                            check_relations, compose, comps_agree,
                            extend_morphism, is_quasi_iso)
from linfkit.simplexmodel import SimplexModel


def acyclic_pair():
    """d a = b with the bracket l2(a, a) = b; acyclic."""
    S = GradedSpace([("a", 0), ("b", 1)])
    return LInftyAlgebra(S, {1: {("a",): {"b": F(1)}},
                             2: {("a", "a"): {"b": F(1)}}}, arity_cap=4)


def acyclic_pair_scaled():
    T = GradedSpace([("x", 0), ("y", 1)])
    return LInftyAlgebra(T, {1: {("x",): {"y": F(1)}},
                             2: {("x", "x"): {"y": F(2)}}}, arity_cap=4)


def qiso_between_pairs():
    """A quasi-isomorphism between the two acyclic pairs, extended to
    arity 3 through the obstruction machinery."""
    C, D = acyclic_pair(), acyclic_pair_scaled()
    f = LInftyMorphism(C, D, {1: {("a",): {"x": F(1)}, ("b",): {"y": F(1)}}},
                       arity_cap=4)
    f, _ = extend_morphism(f, 1)
    f, _ = extend_morphism(f, 2)
    assert check_morphism(f, up_to=3).ok
    return f


def sign_automorphism(C):
    """a -> -a extended to an algebra automorphism of the acyclic
    pair."""
    f = LInftyMorphism(C, C, {1: {("a",): {"a": F(-1)},
                                  ("b",): {"b": F(-1)}}}, arity_cap=4)
    f, _ = extend_morphism(f, 1)
    f, _ = extend_morphism(f, 2)
    assert check_morphism(f, up_to=3).ok
    return f


def dg_lie_triple():
    S = GradedSpace([("a", 0), ("b", 0), ("c", 1)])
    return LInftyAlgebra(S, {2: {("a", "b"): {"c": F(1)}}}, arity_cap=3)


# ---------------------------------------------------------------------------
# chain-level inverses


def test_chain_inverse_identities():
    f = qiso_between_pairs()
    g1, hp = chain_inverse(f)
    C1 = f.source
    d1 = {x: C1.op_word(1, (x,)) for x in C1.space.labels}
    d2 = {x: f.target.op_word(1, (x,)) for x in f.target.space.labels}

    def apply(tab, vec):
        out = {}
        for a, c in vec.items():
            vec_acc(out, tab.get(a, {}), c)
        return out

    # g is a chain map
    for a in f.target.space.labels:
        lhs = apply(g1, d2[a])
        rhs = apply(d1, g1.get(a, {}))
        assert lhs == rhs
    # g f - id = d h' + h' d
    for x in C1.space.labels:
        gf = apply(g1, f.comp_word(1, (x,)))
        want = vec_acc(gf, {x: F(-1)})
        got = vec_acc(apply(d1, hp.get(x, {})), apply(hp, d1[x]))
        assert want == got


def test_chain_inverse_rejects_non_qiso():
    # a map out of a non-acyclic source that kills cohomology admits no
    # one-sided homotopy inverse
    C = dg_lie_triple()
    Z = LInftyAlgebra(GradedSpace([("z", 1)]), {})
    f = LInftyMorphism(C, Z, {}, arity_cap=3)
    with pytest.raises(FillError):
        chain_inverse(f)


# ---------------------------------------------------------------------------
# interval filling


def test_fill_interval_identity_pair():
    C = acyclic_pair()
    ident = LInftyMorphism.identity(C)
    M = fill_n_homotopy([ident, ident], K=3)
    rep = M.verify()
    assert rep.ok, rep.failures[:3]
    assert M.algebra.space.dim == 10


def test_fill_interval_distinct_pair():
    C = acyclic_pair()
    phi = sign_automorphism(C)
    M = fill_n_homotopy([LInftyMorphism.identity(C), phi], K=3)
    rep = M.verify()
    assert rep.ok, rep.failures[:3]
    # endpoints hold coefficient-exactly
    for v, want in ((0, LInftyMorphism.identity(C)), (1, phi)):
        got = compose(M.eval_vertex(v), M.hbar)
        assert comps_agree(got, want, 3)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_fill_binds_each_record_once(K, monkeypatch):
    """The cylinder grows arity by arity, but the homotopy is lifted for
    every arity before the first stage and the evaluations stay linear
    maps: an interval fill builds the homotopy once for its stages, then
    each face evaluation and the homotopy once on the finished cylinder,
    whatever K."""
    C = acyclic_pair()
    fs = [LInftyMorphism.identity(C), sign_automorphism(C)]
    built = []
    real = LInftyMorphism.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(LInftyMorphism, "__init__", spy)
    M = fill_n_homotopy(fs, K=K)
    assert len(built) == 4
    assert M.hbar.target is M.algebra
    assert all(ev.source is M.algebra for ev in M.evals.values())


def test_fill_requires_quasi_isos():
    C = acyclic_pair()
    zero = LInftyMorphism(C, C, {}, arity_cap=4)
    ident = LInftyMorphism.identity(C)
    # the zero map here IS a quasi-isomorphism (everything is acyclic),
    # so filling must succeed for it too
    M = fill_n_homotopy([ident, zero], K=2)
    assert M.verify().ok
    # but a map between non-quasi-isomorphic endpoints is refused
    Z = LInftyAlgebra(GradedSpace([("z", 1)]), {})
    h = LInftyMorphism(Z, C, {}, arity_cap=3)
    with pytest.raises(ValueError):
        fill_n_homotopy([h, h], K=2)


def test_fill_non_acyclic_raises():
    C = dg_lie_triple()
    ident = LInftyMorphism.identity(C)
    with pytest.raises(FillError):
        fill_n_homotopy([ident, ident], K=2)


def test_fill_triangle():
    C = acyclic_pair()
    ident = LInftyMorphism.identity(C)
    phi = sign_automorphism(C)
    M = fill_n_homotopy([ident, phi, phi], K=2)
    rep = M.verify()
    assert rep.ok, rep.failures[:3]
    for v, want in ((0, ident), (1, phi), (2, phi)):
        got = compose(M.eval_vertex(v), M.hbar)
        assert comps_agree(got, want, 2)


def test_fill_refuses_constants_outside_the_kernel(monkeypatch):
    """Without the face signs the boundary of a constant is 2x at vertex
    0, so the inclusion of constants misses the kernel: its coordinates
    read off the free columns are checked, not trusted."""
    signed = htpy.vertex_boundary
    monkeypatch.setattr(htpy, "vertex_boundary", lambda faces: signed(
        [(J, 1, edge, cols) for J, _, edge, cols in faces]))
    C = acyclic_pair()
    phi = sign_automorphism(C)
    with pytest.raises(FillError, match="inclusion of constants misses"):
        fill_n_homotopy([LInftyMorphism.identity(C), phi, phi], K=2)


# ---------------------------------------------------------------------------
# tampered bench constructions fail their certificates

JOBS = Path(__file__).resolve().parents[1] / "bench" / "jobs"
CAPS = {"arity": None, "jet": None, "weight": None, "simp": None, "seed": 0}


@lru_cache(maxsize=None)
def bench_fill(name):
    fs, = cli.load_fill(json.loads((JOBS / name).read_text()), CAPS)
    return fill_n_homotopy(fs, K=2)


def refilled(M, **fields):
    """M rebuilt through the public constructor with some fields
    replaced."""
    kw = dict(algebra=M.algebra, n=M.n, K=M.K, base=M.base, fs=M.fs,
              evals=M.evals, boundary=M.boundary, incl=M.incl,
              hbar=M.hbar, notes=M.notes)
    kw.update(fields)
    return FillingModel(**kw)


def with_scaled_linear_part(f, factor):
    return LInftyMorphism(f.source, f.target, {**f.comps, 1: {
        w: vec_scale(factor, out) for w, out in f.comps[1].items()}},
        arity_cap=f.arity_cap)


def doubled_incl_a(M):
    """M with the inclusion of constants doubled on the generator a."""
    return refilled(M, incl=GradedMap(M.incl.source, M.incl.target, 0, {
        x: vec_scale(2 if x == "a" else 1, img)
        for x, img in M.incl.images.items()}))


def swapped_fs():
    M = bench_fill("fill-edge-id-sign.json")
    assert not comps_agree(M.fs[0], M.fs[1], M.K)
    return refilled(M, fs=M.fs[::-1])


def scaled_hbar():
    M = bench_fill("fill-edge-id-sign.json")
    return refilled(M, hbar=with_scaled_linear_part(M.hbar, 2))


def scaled_g1():
    doc = json.loads((JOBS / "whitehead-sign.json").read_text())
    f, = cli.load_three_part(doc, CAPS)
    c = whitehead_inverse(f, K=3)
    assert c.g.comps[1]
    return WhiteheadCertificate(c.f, with_scaled_linear_part(c.g, 2),
                                c.homotopy, c.model, c.K, reverse=c.reverse,
                                notes=c.notes)


@pytest.mark.parametrize("build, names", [
    (swapped_fs, {"endpoint"}),
    (scaled_hbar, {"hbar", "endpoint"}),
    (lambda: doubled_incl_a(bench_fill("fill-triangle.json")),
     {"eval-incl"}),
    (scaled_g1, {"endpoint"}),
], ids=["swapped-fs", "scaled-hbar", "doubled-incl", "scaled-g1"])
def test_tampered_construction_fails_its_certificate(build, names):
    rep = build().verify()
    assert names & {at[0] for at, _ in rep.failures}, rep.failures[:5]


def test_eval_incl_witness_names_source_and_target():
    """Doubling incl(a) on the triangle fill adds one more copy of the
    edge inclusion of a on every edge; the witness lists each entry of
    that difference under its source and its target."""
    M = bench_fill("fill-triangle.json")
    failures = dict(doubled_incl_a(M).verify().failures)
    for J in M.face_keys():
        want = M.boundary[J].incl.images["a"]
        assert len(want) == 2
        assert failures[("eval-incl", htpy._jtag(J))] == {"a": want}


FILL_JOBS = sorted(p.name for p in JOBS.glob("fill-*.json"))


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", FILL_JOBS)
def test_face_evaluation_of_the_homotopy_is_the_face_homotopy(name, seed):
    """ev_J . hbar is the homotopy of the face J on every face, down to
    the vertex morphisms: hbar is lifted from the face homotopies
    through kernel coordinates that reproduce them exactly, so the
    fill needs no check that its edges end on the vertex morphisms."""
    fs, = cli.load_fill(json.loads((JOBS / name).read_text()), CAPS)

    def walk(M):
        for J in M.face_keys():
            face = M.boundary[J]
            assert comps_agree(compose(M.evals[J], M.hbar), face.hbar, M.K)
            walk(face)
        return M.n

    assert walk(fill_n_homotopy(fs, K=2, tie_break=seed)) == len(fs) - 1


@pytest.mark.parametrize("name", FILL_JOBS)
def test_point_fill_of_each_vertex_morphism_verifies(name):
    """The point is C itself: no face, incl the identity and hbar the
    vertex morphism; its one vertex evaluation is the identity, so it
    passes its own certificate.  The faces of an interval fill are
    these points."""
    fs, = cli.load_fill(json.loads((JOBS / name).read_text()), CAPS)
    for f in fs:
        P = fill_n_homotopy([f], K=2)
        C = f.target
        assert (P.n, P.evals, P.boundary) == (0, {}, {})
        assert P.algebra is C and P.base is C and P.hbar is f
        assert P.incl.images == GradedMap.identity(C.space).images
        assert comps_agree(P.eval_vertex(0), LInftyMorphism.identity(C), 2)
        with pytest.raises(ValueError, match="no face contains vertex 1"):
            P.eval_vertex(1)
        assert P.verify().ok
        with pytest.raises(ValueError, match="below K"):
            fill_n_homotopy([f], K=min(C.arity_cap, f.source.arity_cap) + 1)
    if len(fs) == 2:
        M = bench_fill(name)
        assert all(M.boundary[(v,)].hbar is M.fs[v] for v in (0, 1))


# ---------------------------------------------------------------------------
# inverses up to homotopy


def test_whitehead_identity_is_trivial():
    C = dg_lie_triple()
    ident = LInftyMorphism.identity(C)
    M = SimplexModel(C, 1, weight_cap=4)
    cert = whitehead_inverse(ident, K=3, model=M)
    assert cert.g.comps == ident.comps
    assert cert.verify().ok


def test_whitehead_identity_nonacyclic_fallback():
    # the cylinder model needs an acyclic base; the tensor model is
    # picked automatically otherwise
    C = dg_lie_triple()
    cert = whitehead_inverse(LInftyMorphism.identity(C), K=2)
    assert cert.verify().ok
    assert any("tensor" in n for n in cert.notes)


def test_whitehead_inverse_full():
    f = qiso_between_pairs()
    cert = whitehead_inverse(f, K=3)
    rep = cert.verify()
    assert rep.ok, rep.failures[:3]
    assert cert.reverse is not None
    # g really inverts on the chain level
    gf = compose(cert.g, f)
    assert gf.comps[1] == LInftyMorphism.identity(f.source).comps[1]


@pytest.mark.parametrize("seed", range(1, 6))
def test_whitehead_seeded_certificate_verifies(seed):
    """A tie-break seed picks other free variables in every linear
    stage of the inversion, both cylinder fills included; every such
    certificate verifies."""
    f = qiso_between_pairs()
    cert = whitehead_inverse(f, K=3, tie_break=seed)
    rep = cert.verify()
    assert rep.ok, rep.failures[:3]
    assert cert.reverse is not None


def test_whitehead_seed_changes_the_inverse():
    f = qiso_between_pairs()
    base = whitehead_inverse(f, K=3).g.comps
    assert any(whitehead_inverse(f, K=3, tie_break=s).g.comps != base
               for s in range(1, 6))


@pytest.mark.parametrize("seed", [0, 3])
def test_whitehead_inverts_a_composite(seed):
    """qiso . sign is not the identity, unlike sign . sign; its inverse
    lives in the interval cylinder handed in, read as it is."""
    f = qiso_between_pairs()
    comp = compose(f, sign_automorphism(f.source))
    assert comp.comps[1] != LInftyMorphism.identity(f.source).comps[1]
    ident = LInftyMorphism.identity(f.source)
    M = fill_n_homotopy([ident, ident], K=3, tie_break=seed)
    cert = whitehead_inverse(comp, K=3, model=M, tie_break=seed)
    assert cert.model is M
    rep = cert.verify()
    assert rep.ok, rep.failures[:3]
    assert cert.reverse is not None


def test_whitehead_rejects_a_triangle_model():
    C = acyclic_pair()
    ident = LInftyMorphism.identity(C)
    M = fill_n_homotopy([ident, ident, ident], K=2)
    with pytest.raises(ValueError, match="n = 2"):
        whitehead_inverse(ident, K=2, model=M)


def test_whitehead_zero_map_between_acyclics():
    # the zero morphism between acyclic algebras is a quasi-isomorphism
    # and admits an inverse up to homotopy
    C, D = acyclic_pair(), acyclic_pair_scaled()
    zero = LInftyMorphism(C, D, {}, arity_cap=4)
    assert is_quasi_iso(zero)
    cert = whitehead_inverse(zero, K=2)
    assert cert.verify().ok


def test_whitehead_rejects_non_qiso():
    C = acyclic_pair()
    Z = LInftyAlgebra(GradedSpace([("z", 1)]), {})
    f = LInftyMorphism(C, Z, {}, arity_cap=3)
    with pytest.raises(ValueError):
        whitehead_inverse(f, K=2)


# ---------------------------------------------------------------------------
# model morphisms over a morphism


def test_model_morphism_over():
    f = qiso_between_pairs()
    M1 = fill_n_homotopy([LInftyMorphism.identity(f.source)] * 2, K=3)
    M2 = fill_n_homotopy([LInftyMorphism.identity(f.target)] * 2, K=3)
    FF = model_morphism_over(f, M1, M2, K=3)
    assert check_morphism(FF, up_to=3).ok
    for e1, e2 in ((M1.eval_vertex(j), M2.eval_vertex(j)) for j in (0, 1)):
        assert comps_agree(compose(e2, FF), compose(f, e1), 3)
    lhs = FF.f1_map().compose(M1.incl)
    rhs = M2.incl.compose(f.f1_map())
    assert lhs.images == rhs.images


@pytest.mark.parametrize("seed", range(1, 6))
def test_model_morphism_over_seeded(seed):
    """A tie-break seed gives another morphism of the same models, still
    compatible with both evaluations."""
    f = qiso_between_pairs()
    M1 = fill_n_homotopy([LInftyMorphism.identity(f.source)] * 2, K=3)
    M2 = fill_n_homotopy([LInftyMorphism.identity(f.target)] * 2, K=3)
    FF = model_morphism_over(f, M1, M2, K=3, tie_break=seed)
    assert FF.comps != model_morphism_over(f, M1, M2, K=3).comps
    assert check_morphism(FF, up_to=3).ok
    for e1, e2 in ((M1.eval_vertex(j), M2.eval_vertex(j)) for j in (0, 1)):
        assert comps_agree(compose(e2, FF), compose(f, e1), 3)


@pytest.mark.parametrize("K", [0, -1, True])
def test_arity_cap_below_one_is_refused_alike(K):
    """model_morphism_over refuses an arity cap below 1 with the error
    of fill_n_homotopy and whitehead_inverse, instead of returning the
    unset morphism of its empty arity loop."""
    C = acyclic_pair()
    ident = LInftyMorphism.identity(C)
    M = SimplexModel(C, 1, weight_cap=4)
    msg = "arity_cap must be an integer >= 1, got %r" % (K,)
    with pytest.raises(ValueError, match=re.escape(msg)):
        model_morphism_over(ident, M, M, K=K)
    with pytest.raises(ValueError, match=re.escape(msg)):
        fill_n_homotopy([ident, ident], K=K)
    with pytest.raises(ValueError, match=re.escape(msg)):
        whitehead_inverse(ident, K=K, model=M)
    assert check_morphism(model_morphism_over(ident, M, M, K=1),
                          up_to=1).ok


def test_model_morphism_endpoint_validation():
    f = qiso_between_pairs()
    M1 = fill_n_homotopy([LInftyMorphism.identity(f.source)] * 2, K=2)
    with pytest.raises(ValueError):
        model_morphism_over(f, M1, M1, K=2)
