"""Batch front end: parse job documents, dispatch to the library, and
emit machine-readable or human-readable verification reports.

A job is a verb plus one JSON input document.  Documents carry a
`version` field and are parsed strictly: unknown fields are rejected so
that silent schema drift cannot invalidate certificates.  Caps beyond
the configured guards are refused up front.

Exit codes: 0 all checks pass, 1 a check fails, 2 input error
(unparseable document, schema violation, malformed scalar), 3 cap
guard violation.

Reports are deterministic for a fixed input and caps: the canonical
JSON rendering is byte-identical across runs (wall-clock timing is
written to stderr, never into the report), and every verdict is
reproducible by calling the underlying library operation directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import atlas as atlas_mod
from . import derived as derived_mod
from . import htpy as htpy_mod
from . import koszul as koszul_mod
from . import linfty as linfty_mod
from . import simplexmodel as simplex_mod
from .gradedlin import (CapError, dumps_canonical, scalar_from_str,
                        scalar_to_str)

SCHEMA_VERSION = 1

GUARDS = {"arity": 6, "jet": 8, "weight": 12, "simp": 4}

VERBS = [
    "check-linfty", "check-mor", "compose", "cohomology", "obstruction",
    "extend", "model-build", "model-verify", "homotopy-check",
    "fill-homotopy", "whitehead", "model-over", "valgebra-check",
    "derived-brackets", "poisson-build", "localize", "koszul",
    "primitive", "augment", "local-algebra", "expand", "fooo-check",
    "atlas-check", "hypercover", "cocycle-build", "cocycle-check",
]


class InputError(Exception):
    """The input document cannot be used (exit code 2)."""


class CapGuard(Exception):
    """A requested cap exceeds the configured guard (exit code 3)."""


# ---------------------------------------------------------------------------
# strict document parsing


def expect(doc, where, required, optional=()):
    if not isinstance(doc, dict):
        raise InputError("%s: expected an object" % where)
    for k in required:
        if k not in doc:
            raise InputError("%s: missing field %r" % (where, k))
    for k in doc:
        if k not in required and k not in optional:
            raise InputError("%s: unknown field %r" % (where, k))
    return doc


def check_version(doc):
    if doc.get("version") != SCHEMA_VERSION:
        raise InputError("document version must be %d" % SCHEMA_VERSION)


def load_algebra(doc, where):
    try:
        return linfty_mod.LInftyAlgebra.from_json(doc)
    except ZeroDivisionError:
        raise InputError("%s: malformed coefficient (division by zero)"
                         % where)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("%s: %s" % (where, exc))


def load_morphism(doc, src, tgt, where):
    expect(doc, where, ("comps",), ("arity_cap",))
    comps = {}
    try:
        for blk in doc["comps"]:
            expect(blk, where + ".comps[]", ("arity", "entries"))
            k = blk["arity"]
            tab = comps.setdefault(k, {})
            for e in blk["entries"]:
                expect(e, where + ".entries[]", ("word", "out", "coeff"))
                w = tuple(e["word"])
                tab.setdefault(w, {})
                tab[w][e["out"]] = tab[w].get(e["out"], Fraction(0)) \
                    + scalar_from_str(e["coeff"])
        return linfty_mod.LInftyMorphism(
            src, tgt, comps,
            arity_cap=doc.get("arity_cap", min(src.arity_cap,
                                               tgt.arity_cap)))
    except ZeroDivisionError:
        raise InputError("%s: malformed coefficient (division by zero)"
                         % where)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("%s: %s" % (where, exc))


def load_scalar_map(doc, where):
    try:
        return {k: scalar_from_str(v) for k, v in doc.items()}
    except ZeroDivisionError:
        raise InputError("%s: malformed coefficient (division by zero)"
                         % where)
    except (TypeError, ValueError) as exc:
        raise InputError("%s: %s" % (where, exc))


def _wrap(loader, where, *args):
    try:
        return loader(*args)
    except ZeroDivisionError:
        raise InputError("%s: malformed coefficient (division by zero)"
                         % where)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("%s: %s" % (where, exc))


# ---------------------------------------------------------------------------
# report assembly


def record(name, ok, checked=1, witness=None, extra=None):
    rec = {"name": name, "ok": bool(ok), "checked": checked,
           "witness": witness}
    if extra:
        rec["detail"] = extra
    return rec


def _jsonable(value):
    if isinstance(value, Fraction):
        return scalar_to_str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(
            value.items(), key=lambda t: str(t[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted((_jsonable(v) for v in value), key=str)
    return value


def report_record(rep):
    witness = None
    if rep.failures:
        witness = [{"at": [str(x) for x in w],
                    "residual": _jsonable(r)}
                   for w, r in rep.failures[:5]]
    extra = {"notes": list(rep.notes)} if rep.notes else None
    return record(rep.name, rep.ok, checked=rep.checked, witness=witness,
                  extra=extra)


def fail_record(name, exc):
    return record(name, False, witness=[{"at": [name],
                                         "residual": {"error": str(exc)}}])


# ---------------------------------------------------------------------------
# verb handlers: each returns (checks, result)


def _relation_cap(alg, caps):
    return caps["arity"] if caps["arity"] is not None \
        else min(4, alg.arity_cap)


def run_check_linfty(doc, caps):
    expect(doc, "document", ("version", "algebra"))
    A = load_algebra(doc["algebra"], "algebra")
    up_to = _relation_cap(A, caps)
    checks = [report_record(linfty_mod.check_relations(
        A, up_to=up_to, weight_cap=caps["weight"]))]
    if caps["weight"] is None:
        d = linfty_mod.codifferential_hat(A, cap=up_to)
        checks.append(record("coalgebra-square",
                             d.compose(d).is_zero()))
    return checks, {"dim": A.space.dim}


def _three_part(doc, extra_req=(), extra_opt=()):
    expect(doc, "document",
           ("version", "source", "target", "morphism") + tuple(extra_req),
           tuple(extra_opt))
    src = load_algebra(doc["source"], "source")
    tgt = load_algebra(doc["target"], "target")
    f = load_morphism(doc["morphism"], src, tgt, "morphism")
    return src, tgt, f


def run_check_mor(doc, caps):
    src, tgt, f = _three_part(doc)
    up_to = caps["arity"] if caps["arity"] is not None \
        else min(4, f.arity_cap)
    return [report_record(linfty_mod.check_morphism(
        f, up_to=up_to, weight_cap=caps["weight"]))], None


def run_compose(doc, caps):
    expect(doc, "document",
           ("version", "source", "mid", "target", "first", "second"))
    src = load_algebra(doc["source"], "source")
    mid = load_algebra(doc["mid"], "mid")
    tgt = load_algebra(doc["target"], "target")
    f = load_morphism(doc["first"], src, mid, "first")
    g = load_morphism(doc["second"], mid, tgt, "second")
    h = linfty_mod.compose(g, f)
    rep = linfty_mod.check_morphism(h, up_to=min(2, h.arity_cap))
    return [report_record(rep)], {"morphism": h.to_json()}


def run_cohomology(doc, caps):
    expect(doc, "document", ("version", "algebra"))
    A = load_algebra(doc["algebra"], "algebra")
    H = linfty_mod.l1_cohomology(A)
    table = {str(d): h["dim"] for d, h in sorted(H.items())}
    return [record("cohomology-computed", True)], {"cohomology": table}


def _extension_arity(doc):
    """K of an obstruction or extend document: an integer K >= 1 whose
    arity K + 1 is within the arity guard."""
    K = doc["K"]
    if isinstance(K, bool) or not isinstance(K, int) or K < 1:
        raise InputError("K must be an integer >= 1, got %r" % (K,))
    if K + 1 > GUARDS["arity"]:
        raise CapGuard("arity K+1=%d exceeds the guard %d"
                       % (K + 1, GUARDS["arity"]))
    return K


def run_obstruction(doc, caps):
    src, tgt, f = _three_part(doc, extra_req=("K",))
    K = _extension_arity(doc)
    obc = linfty_mod.obstruction_class(f, K)
    closed = not linfty_mod.delta1(src, tgt, obc.cocycle, K + 1, shift=1)
    checks = [record("obstruction-closed", closed),
              record("obstruction-exact", True,
                     extra={"exact": obc.exact})]
    return checks, obc.to_json()


def run_extend(doc, caps):
    src, tgt, f = _three_part(doc, extra_req=("K",))
    K = _extension_arity(doc)
    ext, obc = linfty_mod.extend_morphism(f, K)
    checks = [record("extension-exists", ext is not None,
                     witness=None if ext is not None else
                     [{"at": ["obstruction"],
                       "residual": {"exact": False}}])]
    result = {"obstruction": obc.to_json()}
    if ext is not None:
        result["morphism"] = ext.to_json()
        checks.append(report_record(linfty_mod.check_morphism(
            ext, up_to=min(K + 1, ext.arity_cap))))
    return checks, result


def _model_weight(caps):
    return caps["weight"] if caps["weight"] is not None else 6


def _build_simplex_model(A, n, weight_cap):
    try:
        return simplex_mod.build_model(A, n, weight_cap)
    except simplex_mod.SimplexCapError as exc:
        raise CapGuard(str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("model: %s" % exc)


def run_model_build(doc, caps):
    expect(doc, "document", ("version", "algebra", "n"))
    A = load_algebra(doc["algebra"], "algebra")
    model = _build_simplex_model(A, doc["n"], _model_weight(caps))
    rep = linfty_mod.check_relations(model.algebra,
                                     up_to=min(3, model.algebra.arity_cap),
                                     weight_cap=_model_weight(caps) - 2)
    return [report_record(rep)], {"dim": model.algebra.space.dim}


def run_model_verify(doc, caps):
    expect(doc, "document", ("version", "algebra", "n"))
    A = load_algebra(doc["algebra"], "algebra")
    model = _build_simplex_model(A, doc["n"], _model_weight(caps))
    rep = simplex_mod.verify_model_axioms(model)
    return [report_record(rep)], {"dim": model.algebra.space.dim}


def run_homotopy_check(doc, caps):
    expect(doc, "document",
           ("version", "source", "target", "f0", "f1", "homotopy"))
    src = load_algebra(doc["source"], "source")
    tgt = load_algebra(doc["target"], "target")
    f0 = load_morphism(doc["f0"], src, tgt, "f0")
    f1 = load_morphism(doc["f1"], src, tgt, "f1")
    try:
        model = simplex_mod.SimplexModel(tgt, 1, _model_weight(caps))
    except simplex_mod.SimplexCapError as exc:
        raise CapGuard(str(exc))
    except ValueError as exc:
        raise InputError("target: %s" % exc)
    h = load_morphism(doc["homotopy"], src, model.algebra, "homotopy")
    checks = [report_record(linfty_mod.check_morphism(
        h, up_to=min(2, h.arity_cap)))]
    for i, f in ((0, f0), (1, f1)):
        got = linfty_mod.compose(model.eval_vertex(i), h)
        ok = htpy_mod._comps_equal(got, f, min(2, h.arity_cap))
        checks.append(record("endpoint-%d" % i, ok))
    return checks, None


def run_fill_homotopy(doc, caps):
    expect(doc, "document", ("version", "source", "target", "fs"))
    src = load_algebra(doc["source"], "source")
    tgt = load_algebra(doc["target"], "target")
    fs = [load_morphism(d, src, tgt, "fs[%d]" % i)
          for i, d in enumerate(doc["fs"])]
    K = caps["arity"] if caps["arity"] is not None else 2
    try:
        model = htpy_mod.fill_n_homotopy(fs, K=K)
    except (htpy_mod.FillError, ValueError) as exc:
        return [fail_record("filling", exc)], None
    return [report_record(model.verify())], model.to_json()


def run_whitehead(doc, caps):
    src, tgt, f = _three_part(doc)
    K = caps["arity"] if caps["arity"] is not None else 3
    try:
        cert = htpy_mod.whitehead_inverse(f, K=K)
    except (htpy_mod.FillError, ValueError) as exc:
        return [fail_record("whitehead", exc)], None
    return [report_record(cert.verify())], \
        {"inverse": cert.g.to_json(), "notes": list(cert.notes)}


def run_model_over(doc, caps):
    src, tgt, f = _three_part(doc)
    w = _model_weight(caps)
    try:
        m1 = simplex_mod.SimplexModel(src, 1, w)
        m2 = simplex_mod.SimplexModel(tgt, 1, w)
    except simplex_mod.SimplexCapError as exc:
        raise CapGuard(str(exc))
    except ValueError as exc:
        raise InputError("endpoints: %s" % exc)
    K = caps["arity"] if caps["arity"] is not None else 2
    try:
        F = htpy_mod.model_morphism_over(f, m1, m2, K=K)
    except (htpy_mod.FillError, ValueError) as exc:
        return [fail_record("model-over", exc)], None
    rep = linfty_mod.check_morphism(F, up_to=min(K, F.arity_cap),
                                    weight_cap=w - 2)
    return [report_record(rep)], {"morphism": F.to_json()}


def _load_valgebra(doc):
    if "valgebra" in doc:
        expect(doc, "document", ("version", "valgebra"))
        return _wrap(derived_mod.VAlgebra.from_json, "valgebra",
                     doc["valgebra"])
    expect(doc, "document", ("version", "jet"))
    jet = expect(doc["jet"], "jet", ("model", "P"))
    model = _wrap(derived_mod.JetMultivectorModel.from_json, "jet.model",
                  jet["model"])
    P = _wrap(derived_mod.mv_from_json, "jet.P", jet["P"])
    return derived_mod.jet_valgebra(model, P)


def run_valgebra_check(doc, caps):
    V = _load_valgebra(doc)
    return [report_record(derived_mod.check_valgebra(V))], None


def run_derived_brackets(doc, caps):
    if "valgebra" in doc:
        expect(doc, "document", ("version", "valgebra", "k_max"))
        V = _wrap(derived_mod.VAlgebra.from_json, "valgebra",
                  doc["valgebra"])
    else:
        expect(doc, "document", ("version", "jet", "k_max"))
        jet = expect(doc["jet"], "jet", ("model", "P"))
        model = _wrap(derived_mod.JetMultivectorModel.from_json,
                      "jet.model", jet["model"])
        P = _wrap(derived_mod.mv_from_json, "jet.P", jet["P"])
        V = derived_mod.jet_valgebra(model, P)
    k_max = doc["k_max"]
    if caps["arity"] is not None:
        k_max = min(k_max, caps["arity"])
    A = derived_mod.derived_brackets(V, k_max)
    gain = derived_mod.op_weight_gain(A)
    weight_cap = None
    if getattr(A, "truncated", False):
        weight_cap = max(0, A.jet_model.base_cap - 2 * gain)
    rep = linfty_mod.check_relations(A, up_to=min(4, k_max),
                                     weight_cap=weight_cap)
    checks = [report_record(rep), record("strict", A.is_strict)]
    return checks, {"algebra": A.to_json(), "weight_gain": gain}


def _load_jet_setup(doc, caps, extra_req=(), extra_opt=()):
    expect(doc, "document",
           ("version", "m", "k", "omega", "R") + tuple(extra_req),
           ("base_cap", "fiber_cap") + tuple(extra_opt))
    base_cap = doc.get("base_cap", caps["jet"] if caps["jet"] is not None
                       else 3)
    if base_cap > GUARDS["jet"]:
        raise CapGuard("jet order %d exceeds the guard %d"
                       % (base_cap, GUARDS["jet"]))
    model = derived_mod.JetMultivectorModel(
        doc["m"], doc["k"], base_cap=base_cap,
        fiber_cap=doc.get("fiber_cap", 2))
    omega = [[_wrap(scalar_from_str, "omega", str(c)) for c in row]
             for row in doc["omega"]]
    R = {}
    for key, poly in doc["R"].items():
        try:
            j, a = (int(x) for x in key.split(","))
        except ValueError:
            raise InputError("R: keys are 'j,alpha' pairs")
        R[(j, a)] = _wrap(derived_mod.poly_from_json, "R", poly)
    return model, omega, R


def run_poisson_build(doc, caps):
    model, omega, R = _load_jet_setup(doc, caps)
    try:
        P = derived_mod.poisson_from_presymplectic(model, omega, R)
    except ValueError as exc:
        return [fail_record("poisson", exc)], None
    return [record("squares-to-zero", True)], \
        {"P": derived_mod.mv_to_json(P)}


def run_localize(doc, caps):
    model, omega, R = _load_jet_setup(
        doc, caps, extra_req=("image_vars", "j_max"), extra_opt=("k_max",))
    try:
        P = derived_mod.poisson_from_presymplectic(model, omega, R)
    except ValueError as exc:
        return [fail_record("poisson", exc)], None
    V = derived_mod.jet_valgebra(model, P)
    C = derived_mod.derived_brackets(V, doc.get("k_max", 3))
    try:
        loc, normal = derived_mod.localized_algebra(
            C, doc["image_vars"], doc["j_max"])
        eps = derived_mod.epsilon_morphism(C, doc["image_vars"],
                                           doc["j_max"])
    except ValueError as exc:
        return [fail_record("localize", exc)], None
    gain = derived_mod.op_weight_gain(loc)
    cap = max(0, min(model.base_cap, doc["j_max"] - 1) - 2 * gain)
    checks = [
        report_record(linfty_mod.check_relations(
            loc, up_to=min(3, loc.arity_cap), weight_cap=cap)),
        report_record(linfty_mod.check_morphism(
            eps, up_to=1, weight_cap=doc["j_max"] - 1)),
    ]
    return checks, {"dim": loc.space.dim,
                    "normal": list(normal)}


def _load_section(doc, key="section"):
    return _wrap(koszul_mod.Section.from_json, key, doc[key])


def run_koszul(doc, caps):
    expect(doc, "document", ("version", "section"))
    s = _load_section(doc)
    if s.ring.order > GUARDS["jet"]:
        raise CapGuard("jet order %d exceeds the guard %d"
                       % (s.ring.order, GUARDS["jet"]))
    K = koszul_mod.koszul_complex(s)
    H = koszul_mod.koszul_cohomology(K)
    checks = [report_record(linfty_mod.check_relations(K, up_to=2))]
    return checks, {"cohomology": {str(d): v for d, v in sorted(H.items())},
                    "dim": K.space.dim}


def _load_ring_fol(doc, extra_req=(), extra_opt=()):
    expect(doc, "document", ("version", "ring", "fol") + tuple(extra_req),
           tuple(extra_opt))
    ring = _wrap(koszul_mod.JetRing.from_json, "ring", doc["ring"])
    if ring.order > GUARDS["jet"]:
        raise CapGuard("jet order %d exceeds the guard %d"
                       % (ring.order, GUARDS["jet"]))
    fol = list(doc["fol"])
    for n in fol:
        if n not in ring.names:
            raise InputError("fol: unknown variable %r" % (n,))
    return ring, fol


def run_primitive(doc, caps):
    ring, fol = _load_ring_fol(doc, extra_req=("form",))
    form = load_scalar_map(doc["form"], "form")
    try:
        prim = koszul_mod.poincare_primitive(ring, fol, form)
    except ValueError as exc:
        return [fail_record("primitive", exc)], None
    back = koszul_mod.d_form(ring, fol, prim)
    ok = back == form
    return [record("differential-of-primitive", ok)], \
        {"primitive": {k: scalar_to_str(c)
                       for k, c in sorted(prim.items())}}


def run_augment(doc, caps):
    ring, fol = _load_ring_fol(doc, extra_opt=("k_max",))
    Omega = koszul_mod.foliation_complex(ring, fol)
    k_max = doc.get("k_max", 3)
    if caps["arity"] is not None:
        k_max = min(k_max, caps["arity"])
    try:
        G = koszul_mod.augment_extension(Omega, k_max)
    except ValueError as exc:
        return [fail_record("augment", exc)], None
    rep = linfty_mod.check_relations(G, up_to=k_max,
                                     weight_cap=max(0, G.check_cap))
    return [report_record(rep)], {"dim": G.space.dim,
                                  "check_cap": G.check_cap}


def run_local_algebra(doc, caps):
    expect(doc, "document", ("version", "section"))
    s = _load_section(doc)
    L = koszul_mod.build_local_algebra(s)
    H = koszul_mod.koszul_cohomology(L.koszul)
    HdR = {d: h["dim"] for d, h in
           linfty_mod.l1_cohomology(L.derham).items()}
    checks = [
        report_record(linfty_mod.check_relations(
            L.algebra, up_to=min(2, L.algebra.arity_cap))),
        record("derham-acyclic", all(v == 0 for v in HdR.values())),
    ]
    return checks, {"dim": L.algebra.space.dim,
                    "koszul_cohomology": {str(d): v
                                          for d, v in sorted(H.items())}}


def run_expand(doc, caps):
    expect(doc, "document", ("version", "section", "new_vars"))
    s = _load_section(doc)
    L = koszul_mod.build_local_algebra(s)
    try:
        L2, pihat = koszul_mod.expand_chart(L, list(doc["new_vars"]))
    except ValueError as exc:
        return [fail_record("expand", exc)], None
    rep = linfty_mod.check_morphism(pihat, up_to=1,
                                    weight_cap=s.ring.order - 1)
    ok, H = linfty_mod.is_quasi_iso(pihat)
    checks = [report_record(rep), record("quasi-iso", ok)]
    return checks, {"dim": L2.algebra.space.dim}


def run_fooo_check(doc, caps):
    expect(doc, "document",
           ("version", "section", "ambient_section", "bundle_map"))
    s = _load_section(doc)
    sp = _load_section(doc, "ambient_section")
    bmap = [[_wrap(scalar_from_str, "bundle_map", str(c)) for c in row]
            for row in doc["bundle_map"]]
    try:
        rep = koszul_mod.fooo_embedding_check(s, sp, bmap)
    except ValueError as exc:
        raise InputError("fooo-check: %s" % exc)
    checks = [record("embedding-accepted", rep.accepted,
                     witness=None if rep.accepted else
                     [{"at": ["embedding"],
                       "residual": {"reason": rep.reason}}])]
    return checks, rep.to_json()


def _load_atlas(doc):
    expect(doc, "document", ("version", "atlas"),
           ("algebras", "morphisms", "m_max", "level"))
    algebras = {ref: load_algebra(adoc, "algebras.%s" % ref)
                for ref, adoc in doc.get("algebras", {}).items()}
    morphisms = {}
    for ref, mdoc in doc.get("morphisms", {}).items():
        expect(mdoc, "morphisms.%s" % ref,
               ("source", "target", "comps"), ("arity_cap",))
        if mdoc["source"] not in algebras or mdoc["target"] not in algebras:
            raise InputError("morphisms.%s: unknown algebra reference"
                             % ref)
        morphisms[ref] = load_morphism(
            {k: v for k, v in mdoc.items() if k in ("comps", "arity_cap")},
            algebras[mdoc["source"]], algebras[mdoc["target"]],
            "morphisms.%s" % ref)
    A = _wrap(atlas_mod.ToyAtlas.from_json, "atlas", doc["atlas"],
              algebras, morphisms)
    return A


def run_atlas_check(doc, caps):
    A = _load_atlas(doc)
    return [report_record(atlas_mod.validate_atlas(A))], None


def _simp_cap(doc, caps, default, guard):
    m_max = doc.get("m_max", default)
    if caps["simp"] is not None:
        m_max = caps["simp"]
    if m_max > guard:
        raise CapGuard("simplicial degree %d exceeds the guard %d"
                       % (m_max, guard))
    return m_max


def run_hypercover(doc, caps):
    A = _load_atlas(doc)
    m_max = _simp_cap(doc, caps, 3, GUARDS["simp"])
    rep = atlas_mod.validate_atlas(A)
    if not rep.ok:
        return [report_record(rep)], None
    H = atlas_mod.build_hypercovering(A, m_max)
    checks = [report_record(atlas_mod.simplicial_identities(H)),
              report_record(atlas_mod.hypercover_check(H))]
    return checks, {"sizes": {str(k): len(v)
                              for k, v in sorted(H.simplices.items())}}


def _build_cocycle(doc, caps, seed):
    A = _load_atlas(doc)
    m_max = _simp_cap(doc, caps, 2, 2)
    level = doc.get("level", max(c.get("dim", 0)
                                 for c in A.charts.values()))
    H = atlas_mod.build_hypercovering(A, m_max)
    G = atlas_mod.build_cocycle(A, H, level, m_max=m_max,
                                tie_break_seed=seed)
    return G


def run_cocycle_build(doc, caps, seed=0):
    try:
        G = _build_cocycle(doc, caps, seed)
    except (htpy_mod.FillError, ValueError) as exc:
        if isinstance(exc, CapGuard):
            raise
        return [fail_record("cocycle-build", exc)], None
    return [report_record(atlas_mod.check_cocycle(G))], G.to_json()


def run_cocycle_check(doc, caps, seed=0):
    try:
        G = _build_cocycle(doc, caps, seed)
    except (htpy_mod.FillError, ValueError) as exc:
        if isinstance(exc, CapGuard):
            raise
        return [fail_record("cocycle-check", exc)], None
    return [report_record(atlas_mod.check_cocycle(G))], None


HANDLERS = {
    "check-linfty": run_check_linfty,
    "check-mor": run_check_mor,
    "compose": run_compose,
    "cohomology": run_cohomology,
    "obstruction": run_obstruction,
    "extend": run_extend,
    "model-build": run_model_build,
    "model-verify": run_model_verify,
    "homotopy-check": run_homotopy_check,
    "fill-homotopy": run_fill_homotopy,
    "whitehead": run_whitehead,
    "model-over": run_model_over,
    "valgebra-check": run_valgebra_check,
    "derived-brackets": run_derived_brackets,
    "poisson-build": run_poisson_build,
    "localize": run_localize,
    "koszul": run_koszul,
    "primitive": run_primitive,
    "augment": run_augment,
    "local-algebra": run_local_algebra,
    "expand": run_expand,
    "fooo-check": run_fooo_check,
    "atlas-check": run_atlas_check,
    "hypercover": run_hypercover,
    "cocycle-build": run_cocycle_build,
    "cocycle-check": run_cocycle_check,
}

SEEDED_VERBS = {"cocycle-build", "cocycle-check"}


# ---------------------------------------------------------------------------
# rendering


def _inline(value):
    return json.dumps(value, sort_keys=True)


def render_text(report):
    lines = ["verb: %s" % report["verb"],
             "verdict: %s" % report["verdict"],
             "caps: %s" % _inline(report["caps"])]
    for rec in report["checks"]:
        lines.append("  [%s] %s (checked %d)"
                     % ("ok" if rec["ok"] else "FAIL", rec["name"],
                        rec["checked"]))
        if rec.get("witness"):
            for w in rec["witness"]:
                lines.append("      at %s: %s"
                             % (",".join(w["at"]), _inline(w["residual"])))
    if report.get("result") is not None:
        lines.append("result: %s" % _inline(report["result"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def run_job(verb, doc, caps, seed=0):
    """Dispatch a parsed document to a verb handler and assemble the
    deterministic report dictionary."""
    check_version(doc)
    for name, value in caps.items():
        if value is not None and name in GUARDS and value > GUARDS[name]:
            raise CapGuard("cap %s=%d exceeds the guard %d"
                           % (name, value, GUARDS[name]))
    handler = HANDLERS[verb]
    if verb in SEEDED_VERBS:
        checks, result = handler(doc, caps, seed=seed)
    else:
        checks, result = handler(doc, caps)
    verdict = "pass" if all(rec["ok"] for rec in checks) else "fail"
    return {
        "version": SCHEMA_VERSION,
        "verb": verb,
        "caps": {"arity": caps["arity"], "jet": caps["jet"],
                 "weight": caps["weight"], "simp": caps["simp"],
                 "seed": seed},
        "verdict": verdict,
        "checks": checks,
        "result": _jsonable(result),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="linfkit",
        description="verification jobs for the exact homotopy-algebra "
                    "engine")
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("input", help="path to the JSON job document")
    parser.add_argument("--cap-arity", type=int, default=None)
    parser.add_argument("--cap-jet", type=int, default=None)
    parser.add_argument("--cap-weight", type=int, default=None)
    parser.add_argument("--cap-simp", type=int, default=None)
    parser.add_argument("--format", choices=("json", "text"),
                        default="json")
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=0,
                        help="alternative tie-break seed for audits")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    try:
        try:
            with open(args.input) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise InputError("cannot read input: %s" % exc)
        except json.JSONDecodeError as exc:
            raise InputError("parse error at line %d column %d: %s"
                             % (exc.lineno, exc.colno, exc.msg))
        caps = {"arity": args.cap_arity, "jet": args.cap_jet,
                "weight": args.cap_weight, "simp": args.cap_simp}
        report = run_job(args.verb, doc, caps, seed=args.seed)
    except (InputError, linfty_mod.CurvedError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except (CapGuard, CapError, simplex_mod.SimplexCapError) as exc:
        print("cap guard: %s" % exc, file=sys.stderr)
        return 3

    if args.format == "json":
        text = dumps_canonical(report)
    else:
        text = render_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print("elapsed_ms=%d" % int((time.monotonic() - t0) * 1000),
          file=sys.stderr)
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
