"""Batch front end: parse job documents, dispatch to the library, and
emit machine-readable or human-readable verification reports.

A job is a verb plus one JSON input document.  Documents carry a
`version` field and are parsed strictly: unknown fields are rejected so
that silent schema drift cannot invalidate certificates.  Caps beyond
the configured guards are refused up front.

Each verb is a row of `HANDLERS`: a loader that reads and validates
the document, and a runner that calls the library.  `run_job` is the
one error boundary: what a loader raises is an input error, and a
library refusal a runner names through `attempt` is a failed check.

Exit codes: 0 all checks pass, 1 a check fails, 2 input error
(unparseable document, schema violation, malformed scalar, an `--out`
path that cannot be written), 3 cap guard violation (a cap above its
guard, a jet model or complex with more generators than its guard, or
a weight cap that leaves no word to check), 4 internal error
(any other exception: a fault in linfkit, never a verdict on the
input).

Reports are deterministic for a fixed input and caps: the canonical
JSON rendering is byte-identical across runs (wall-clock timing is
written to stderr, never into the report), and every verdict is
reproducible by calling the underlying library operation directly.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction

from . import atlas as atlas_mod
from . import derived as derived_mod
from . import htpy as htpy_mod
from . import koszul as koszul_mod
from . import linfty as linfty_mod
from . import simplexmodel as simplex_mod
from .gradedlin import (CapError, CohomologyError, dumps_canonical, expect,
                        expect_int, scalar_from_str, scalar_to_str)

SCHEMA_VERSION = 1

GUARDS = {"arity": 6, "jet": 8, "weight": 12, "simp": 4}

# the most generators a jet model may have: it builds their table when
# it is built, and every verb on its algebra works over them
JET_GENERATORS = 10 ** 5

# the most generators a Koszul complex, a foliation complex or a local
# algebra may have: building one and checking its relations takes time
# about quadratic in it
COMPLEX_GENERATORS = 4000

# what reading a document of the wrong shape or scalar raises
LOADER_ERRORS = (KeyError, TypeError, ValueError, AttributeError,
                 ZeroDivisionError)


class InputError(Exception):
    """The input document cannot be used (exit code 2)."""


class Refusal(Exception):
    """A library refusal; args: the failed check's name, the error."""


def attempt(name, fn, *args, **kwargs):
    """Call the library; a FillError, ValueError or CohomologyError it
    raises is the failed check `name`, not an input error."""
    try:
        return fn(*args, **kwargs)
    except (htpy_mod.FillError, ValueError, CohomologyError) as exc:
        raise Refusal(name, exc) from exc


# ---------------------------------------------------------------------------
# strict document parsing


def check_version(doc):
    if not isinstance(doc, dict) or doc.get("version") != SCHEMA_VERSION:
        raise InputError("document version must be %d" % SCHEMA_VERSION)
    # true and 1.0 compare equal to 1
    int_field("version", doc["version"], SCHEMA_VERSION)


def int_field(name, value, low, guard=None):
    """An integer field: exit 2 unless an integer >= low, exit 3 above
    the guard."""
    try:
        expect_int(name, value, low)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if guard is not None and value > guard:
        raise CapError("%s=%d exceeds the guard %d" % (name, value, guard))
    return value


def str_list(name, value):
    if not isinstance(value, list) or \
            not all(isinstance(v, str) for v in value):
        raise InputError("%s must be a list of names" % name)
    return value


# the library readers hold the document rules, arity caps included
load_algebra = linfty_mod.LInftyAlgebra.from_json
load_morphism = linfty_mod.LInftyMorphism.from_json


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


def _witness(failures):
    return [{"at": [str(x) for x in w], "residual": _jsonable(r)}
            for w, r in failures[:5]] or None


def report_record(rep):
    extra = {"notes": list(rep.notes)} if rep.notes else None
    return record(rep.name, rep.ok, checked=rep.checked,
                  witness=_witness(rep.failures), extra=extra)


def fail_record(name, exc):
    return record(name, False, witness=[{"at": [name],
                                         "residual": {"error": str(exc)}}])


# ---------------------------------------------------------------------------
# verbs: a loader (doc, caps) -> the runner's arguments, and a runner
# (caps, *arguments) -> (checks, result)


def _cap(caps, name, default):
    return caps[name] if caps[name] is not None else default


def load_one_algebra(doc, caps):
    expect(doc, "document", ("version", "algebra"))
    return (load_algebra(doc["algebra"]),)


def run_check_linfty(caps, A):
    up_to = _cap(caps, "arity", min(4, A.arity_cap))
    checks = [report_record(linfty_mod.check_relations(
        A, up_to=up_to, weight_cap=caps["weight"]))]
    # the square of the truncated coderivation drops the curvature
    # terms that raise arity, so it states the relations only for a
    # strict algebra
    if caps["weight"] is None and A.is_strict:
        d = linfty_mod.codifferential_hat(A, cap=up_to)
        checks.append(record("coalgebra-square",
                             d.compose(d).is_zero()))
    return checks, {"dim": A.space.dim}


def load_three_part(doc, caps, extra_req=()):
    expect(doc, "document",
           ("version", "source", "target", "morphism") + tuple(extra_req))
    src = load_algebra(doc["source"])
    tgt = load_algebra(doc["target"])
    return (load_morphism(doc["morphism"], src, tgt, "morphism"),)


def run_check_mor(caps, f):
    up_to = _cap(caps, "arity", min(4, f.arity_cap))
    return [report_record(linfty_mod.check_morphism(
        f, up_to=up_to, weight_cap=caps["weight"]))], None


def load_compose(doc, caps):
    expect(doc, "document",
           ("version", "source", "mid", "target", "first", "second"))
    src = load_algebra(doc["source"])
    mid = load_algebra(doc["mid"])
    tgt = load_algebra(doc["target"])
    return (load_morphism(doc["first"], src, mid, "first"),
            load_morphism(doc["second"], mid, tgt, "second"))


def run_compose(caps, f, g):
    h = linfty_mod.compose(g, f)
    rep = linfty_mod.check_morphism(h, up_to=min(2, h.arity_cap))
    return [report_record(rep)], {"morphism": h.to_json()}


def run_cohomology(caps, A):
    # a differential that does not square to zero is a failed check
    # naming the witness generator
    H = attempt("cohomology", linfty_mod.l1_cohomology, A)
    table = {str(d): h for d, h in sorted(H.items())}
    return [record("cohomology-computed", True)], {"cohomology": table}


def load_extension(doc, caps):
    # the extension has arity K + 1
    f, = load_three_part(doc, caps, ("K",))
    return f, int_field("K", doc["K"], 1, GUARDS["arity"] - 1)


def run_obstruction(caps, f, K):
    obc = linfty_mod.obstruction_class(f, K)
    checks = [record("obstruction-closed", obc.closed,
                     witness=_witness(linfty_mod.fraction_failures(
                         sorted(obc.residual.items())))),
              record("obstruction-exact", True,
                     extra={"exact": obc.exact})]
    return checks, obc.to_json()


def run_extend(caps, f, K):
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


def load_model(doc, caps):
    expect(doc, "document", ("version", "algebra", "n"))
    A = load_algebra(doc["algebra"])
    return (simplex_mod.SimplexModel(A, int_field("n", doc["n"], 0),
                                     _cap(caps, "weight", 6)),)


def load_model_verify(doc, caps):
    """A model of the n-simplex, n >= 1: the axioms speak of faces."""
    job = load_model(doc, caps)
    int_field("n", doc["n"], 1)
    return job


def model_check_cap(caps):
    """The weight cap of the checks on a model: two below the model's.
    Refused below 0, where no word would be checked."""
    weight = _cap(caps, "weight", 6)
    if weight < 2:
        raise CapError("cap weight=%d leaves no word to check; the model "
                       "checks need a weight cap >= 2" % weight)
    return weight - 2


def load_model_build(doc, caps):
    return (model_check_cap(caps),) + load_model(doc, caps)


def run_model_build(caps, weight_cap, model):
    rep = linfty_mod.check_relations(model.algebra,
                                     up_to=min(3, model.algebra.arity_cap),
                                     weight_cap=weight_cap)
    return [report_record(rep)], {"dim": model.algebra.space.dim}


def run_model_verify(caps, model):
    rep = simplex_mod.verify_model_axioms(model)
    return [report_record(rep)], {"dim": model.algebra.space.dim}


def load_homotopy_check(doc, caps):
    expect(doc, "document",
           ("version", "source", "target", "f0", "f1", "homotopy"))
    src = load_algebra(doc["source"])
    tgt = load_algebra(doc["target"])
    f0 = load_morphism(doc["f0"], src, tgt, "f0")
    f1 = load_morphism(doc["f1"], src, tgt, "f1")
    model = simplex_mod.SimplexModel(tgt, 1, _cap(caps, "weight", 6))
    h = load_morphism(doc["homotopy"], src, model.algebra, "homotopy")
    return f0, f1, model, h


def run_homotopy_check(caps, f0, f1, model, h):
    cap = min(2, h.arity_cap)
    checks = [report_record(linfty_mod.check_morphism(h, up_to=cap))]
    hom = simplex_mod.Homotopy(h, model, f0, f1)
    return checks + [record("endpoint-%d" % v, hom.endpoint_ok(v, cap))
                     for v in (0, 1)], None


def load_fill(doc, caps):
    expect(doc, "document", ("version", "source", "target", "fs"))
    src = load_algebra(doc["source"])
    tgt = load_algebra(doc["target"])
    if len(doc["fs"]) not in (2, 3):
        raise InputError("fs must hold 2 or 3 vertex morphisms")
    return ([load_morphism(d, src, tgt, "fs[%d]" % i)
             for i, d in enumerate(doc["fs"])],)


def run_fill_homotopy(caps, fs):
    K = _cap(caps, "arity", 2)
    model = attempt("filling", htpy_mod.fill_n_homotopy, fs, K=K,
                    tie_break=caps["seed"])
    return [report_record(model.verify())], model.to_json()


def run_whitehead(caps, f):
    K = _cap(caps, "arity", 3)
    cert = attempt("whitehead", htpy_mod.whitehead_inverse, f, K=K,
                   tie_break=caps["seed"])
    return [report_record(cert.verify())], \
        {"inverse": cert.g.to_json(), "notes": list(cert.notes)}


def load_model_over(doc, caps):
    weight_cap = model_check_cap(caps)
    f, = load_three_part(doc, caps)
    w = _cap(caps, "weight", 6)
    return (weight_cap, f, simplex_mod.SimplexModel(f.source, 1, w),
            simplex_mod.SimplexModel(f.target, 1, w))


def run_model_over(caps, weight_cap, f, m1, m2):
    K = _cap(caps, "arity", 2)
    F = attempt("model-over", htpy_mod.model_morphism_over, f, m1, m2, K=K,
                tie_break=caps["seed"])
    rep = linfty_mod.check_morphism(F, up_to=min(K, F.arity_cap),
                                    weight_cap=weight_cap)
    return [report_record(rep)], {"morphism": F.to_json()}


def guard_jet_model(where, m, k, base_cap):
    """Refuse a jet model above the guards before it is built, since
    building it builds its generator table."""
    int_field(where + "base_cap", base_cap, 0, GUARDS["jet"])
    int_field(where + "m", m, 0)
    int_field(where + "k", k, 0)
    # the base monomials of degree <= base_cap times the 2^k fiber
    # words; every k above 64 is over the guard
    guard_generators("a jet model with m=%d, k=%d, base_cap=%d"
                     % (m, k, base_cap),
                     math.comb(m + k + base_cap, base_cap) << min(k, 64),
                     JET_GENERATORS)


def guard_generators(what, size, guard):
    """Refuse what has more generators than its guard, before it is
    built."""
    if size > guard:
        raise CapError("%s has %d generators, above the guard %d"
                       % (what, size, guard))


def load_valgebra(doc, caps, extra_req=()):
    if "valgebra" in doc:
        expect(doc, "document", ("version", "valgebra") + extra_req)
        return (derived_mod.VAlgebra.from_json(doc["valgebra"]),)
    expect(doc, "document", ("version", "jet") + extra_req)
    jet = expect(doc["jet"], "jet", ("model", "P"))
    mdoc = jet["model"]
    guard_jet_model("jet.model.", mdoc["m"], mdoc["k"],
                    mdoc.get("base_cap", 3))
    model = derived_mod.JetMultivectorModel.from_json(mdoc)
    P = derived_mod.mv_from_json(jet["P"], model.nv)
    return (derived_mod.JetVAlgebra(model, P),)


def run_valgebra_check(caps, V):
    return [report_record(derived_mod.check_valgebra(V))], None


def load_derived_brackets(doc, caps):
    V, = load_valgebra(doc, caps, ("k_max",))
    return V, int_field("k_max", doc["k_max"], 1, GUARDS["arity"])


def run_derived_brackets(caps, V, k_max):
    k_max = min(k_max, _cap(caps, "arity", k_max))
    # brackets that are no L-infinity[1]-algebra are a failed check
    A = attempt("derived-brackets", derived_mod.derived_brackets, V, k_max)
    cap = A.jet.check_cap if A.jet else None
    if cap is not None:
        cap = max(0, cap)
    rep = linfty_mod.check_relations(A, up_to=min(4, k_max), weight_cap=cap)
    checks = [report_record(rep), record("strict", A.is_strict)]
    return checks, {"algebra": A.to_json(),
                    "weight_gain": derived_mod.op_weight_gain(A)}


def load_jet_setup(doc, caps, extra_req=(), extra_opt=()):
    expect(doc, "document",
           ("version", "m", "k", "omega", "R") + tuple(extra_req),
           ("base_cap", "fiber_cap") + tuple(extra_opt))
    base_cap = doc.get("base_cap", _cap(caps, "jet", 3))
    guard_jet_model("", doc["m"], doc["k"], base_cap)
    model = derived_mod.JetMultivectorModel(
        doc["m"], doc["k"], base_cap=base_cap,
        fiber_cap=doc.get("fiber_cap", 2))
    omega = [[scalar_from_str(str(c)) for c in row] for row in doc["omega"]]
    R = {}
    for key, poly in doc["R"].items():
        # digits only: int() would also read "+1", "1 " and "1_0"
        ja = re.fullmatch(r"([0-9]+),([0-9]+)", key)
        if ja is None:
            raise InputError("R: malformed key %r" % (key,))
        R[int(ja[1]), int(ja[2])] = derived_mod.poly_from_json(poly, model.nv)
    return model, omega, R


def run_poisson_build(caps, model, omega, R):
    P = attempt("poisson", derived_mod.poisson_from_presymplectic,
                model, omega, R)
    return [record("squares-to-zero", True)], \
        {"P": derived_mod.mv_to_json(P)}


def load_localize(doc, caps):
    setup = load_jet_setup(doc, caps, ("image_vars", "j_max"), ("k_max",))
    model = setup[0]
    coords = [model.ring.names[i] for i in model.base_idxs]
    image_vars = str_list("image_vars", doc["image_vars"])
    for n in image_vars:
        if n not in coords:
            raise InputError("image_vars: unknown coordinate %r" % (n,))
    return setup + (image_vars,
                    int_field("j_max", doc["j_max"], 1),
                    int_field("k_max", doc.get("k_max", 3), 1,
                              GUARDS["arity"]))


def run_localize(caps, model, omega, R, image_vars, j_max, k_max):
    P = attempt("poisson", derived_mod.poisson_from_presymplectic,
                model, omega, R)
    V = derived_mod.JetVAlgebra(model, P)
    C = derived_mod.derived_brackets(V, k_max)
    eps = attempt("localize", derived_mod.epsilon_morphism,
                  C, image_vars, j_max)
    loc = eps.target
    checks = [
        report_record(linfty_mod.check_relations(
            loc, up_to=min(3, loc.arity_cap),
            weight_cap=max(0, loc.jet.check_cap))),
        report_record(linfty_mod.check_morphism(
            eps, up_to=1, weight_cap=j_max - 1)),
    ]
    return checks, {"dim": loc.space.dim,
                    "normal": sorted(set(loc.jet.coords) - set(image_vars))}


def staircase_size(n, order, rank):
    """Generators of a staircase complex over n variables: the piece
    with j of the rank wedge factors holds the monomials of degree at
    most order - j."""
    return sum(math.comb(rank, j) * math.comb(n + order - j, n)
               for j in range(min(rank, order) + 1))


def foliation_size(n, order, f):
    """Generators of the foliation complex in f of n directions,
    augmented by the monomials free of them."""
    return staircase_size(n, order, f) + math.comb(n - f + order, order)


def local_size(n, order, rank):
    """Generators of the local algebra of a rank-r section: its Koszul
    complex beside the foliation complex in every direction."""
    return staircase_size(n, order, rank) + foliation_size(n, order, n)


def section_field(doc, name, local=True):
    """The section `name`, refused above the jet guard, and above the
    complex guard for its local algebra or, without `local`, for its
    Koszul complex alone."""
    s = koszul_mod.Section.from_json(doc[name])
    order = int_field(name + ".ring.order", doc[name]["ring"]["order"], 0,
                      GUARDS["jet"])
    if local:
        what, size = "local algebra", local_size(s.ring.nv, order, s.rank)
    else:
        what, size = "Koszul complex", staircase_size(s.ring.nv, order,
                                                      s.rank)
    guard_generators("the %s of %s" % (what, name), size,
                     COMPLEX_GENERATORS)
    return s


def load_section(doc, caps, extra_req=(), local=True):
    expect(doc, "document", ("version", "section") + extra_req)
    return (section_field(doc, "section", local),)


def load_koszul(doc, caps):
    return load_section(doc, caps, local=False)


def run_koszul(caps, s):
    K = koszul_mod.koszul_complex(s)
    H = koszul_mod.koszul_cohomology(K)
    checks = [report_record(linfty_mod.check_relations(K, up_to=2))]
    return checks, {"cohomology": {str(d): v for d, v in sorted(H.items())},
                    "dim": K.space.dim}


def load_ring_fol(doc, caps, extra_req=(), extra_opt=()):
    expect(doc, "document", ("version", "ring", "fol") + tuple(extra_req),
           tuple(extra_opt))
    ring = koszul_mod.JetRing.from_json(doc["ring"])
    int_field("ring.order", doc["ring"]["order"], 0, GUARDS["jet"])
    fol = str_list("fol", doc["fol"])
    for n in fol:
        if n not in ring.names:
            raise InputError("fol: unknown variable %r" % (n,))
    if len(set(fol)) != len(fol):
        raise InputError("fol: a variable is named twice")
    guard_generators("the foliation complex of ring",
                     foliation_size(ring.nv, ring.order, len(fol)),
                     COMPLEX_GENERATORS)
    return ring, fol


def load_primitive(doc, caps):
    ring, fol = load_ring_fol(doc, caps, ("form",))
    tokens = {"d" + n for n in fol}
    form = {}
    for lab, c in doc["form"].items():
        ring.label_parse(lab, tokens)
        form[lab] = scalar_from_str(c)
    return ring, fol, form


def run_primitive(caps, ring, fol, form):
    prim = attempt("primitive", koszul_mod.poincare_primitive,
                   ring, fol, form)
    back = koszul_mod.d_form(ring, fol, prim)
    ok = back == form
    return [record("differential-of-primitive", ok)], \
        {"primitive": {k: scalar_to_str(c)
                       for k, c in sorted(prim.items())}}


def load_augment(doc, caps):
    ring, fol = load_ring_fol(doc, caps, extra_opt=("k_max",))
    return ring, fol, int_field("k_max", doc.get("k_max", 3), 1,
                                GUARDS["arity"])


def run_augment(caps, ring, fol, k_max):
    Omega = koszul_mod.foliation_complex(ring, fol)
    k_max = min(k_max, _cap(caps, "arity", k_max))
    G = attempt("augment", koszul_mod.augment_extension, Omega, k_max)
    rep = linfty_mod.check_relations(G, up_to=k_max,
                                     weight_cap=max(0, G.jet.check_cap))
    return [report_record(rep)], {"dim": G.space.dim,
                                  "check_cap": G.jet.check_cap}


def run_local_algebra(caps, s):
    L = koszul_mod.build_local_algebra(s)
    H = koszul_mod.koszul_cohomology(L.koszul)
    HdR = linfty_mod.l1_cohomology(L.derham)
    checks = [
        report_record(linfty_mod.check_relations(
            L.algebra, up_to=min(2, L.algebra.arity_cap))),
        record("derham-acyclic", all(v == 0 for v in HdR.values())),
    ]
    return checks, {"dim": L.algebra.space.dim,
                    "koszul_cohomology": {str(d): v
                                          for d, v in sorted(H.items())}}


def load_expand(doc, caps):
    s, = load_section(doc, caps, ("new_vars",))
    new_vars = str_list("new_vars", doc["new_vars"])
    # the expanded ring refuses a repeated or non-identifier name here
    koszul_mod.JetRing(s.ring.names + new_vars, s.ring.order)
    v = len(new_vars)
    guard_generators("the expanded local algebra",
                     local_size(s.ring.nv + v, s.ring.order, s.rank + v),
                     COMPLEX_GENERATORS)
    return s, new_vars


def run_expand(caps, s, new_vars):
    L = koszul_mod.build_local_algebra(s)
    L2, pihat = attempt("expand", koszul_mod.expand_chart, L, new_vars)
    rep = linfty_mod.check_morphism(pihat, up_to=1,
                                    weight_cap=s.ring.order - 1)
    checks = [report_record(rep),
              record("quasi-iso", linfty_mod.is_quasi_iso(pihat))]
    return checks, {"dim": L2.algebra.space.dim}


def load_fooo(doc, caps):
    # the embedding check validates the bundle map against both sections
    # first, so its ValueError is an input error
    s, = load_section(doc, caps, ("ambient_section", "bundle_map"))
    sp = section_field(doc, "ambient_section")
    bmap = [[scalar_from_str(str(c)) for c in row]
            for row in doc["bundle_map"]]
    return (koszul_mod.fooo_embedding_check(s, sp, bmap),)


def run_fooo_check(caps, rep):
    checks = [record("embedding-accepted", rep.accepted,
                     witness=None if rep.accepted else
                     [{"at": ["embedding"],
                       "residual": {"reason": rep.reason}}])]
    return checks, rep.to_json()


def load_atlas(doc, caps):
    expect(doc, "document", ("version", "atlas"),
           ("algebras", "morphisms", "m_max", "level"))
    algebras = {ref: load_algebra(adoc)
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
    return (atlas_mod.ToyAtlas.from_json(doc["atlas"], algebras,
                                         morphisms),)


def run_atlas_check(caps, A):
    return [report_record(atlas_mod.validate_atlas(A))], None


def _simp_degree(doc, caps, default, guard):
    return int_field("m_max", _cap(caps, "simp", doc.get("m_max", default)),
                     0, guard)


def load_hypercover(doc, caps):
    A, = load_atlas(doc, caps)
    return A, _simp_degree(doc, caps, 3, GUARDS["simp"])


def run_hypercover(caps, A, m_max):
    rep = atlas_mod.validate_atlas(A)
    if not rep.ok:
        return [report_record(rep)], None
    H = atlas_mod.build_hypercovering(A, m_max)
    checks = [report_record(atlas_mod.simplicial_identities(H)),
              report_record(atlas_mod.hypercover_check(H))]
    return checks, {"sizes": {str(k): len(v)
                              for k, v in sorted(H.simplices.items())}}


def load_cocycle(doc, caps):
    A, = load_atlas(doc, caps)
    refs = [(c["algebra_ref"], A.algebras) for c in A.charts.values()] + \
        [(ch["morphism_ref"], A.morphisms) for ch in A.changes.values()
         if ch["morphism_ref"] is not None]
    if any(ref not in known for ref, known in refs):
        raise InputError("atlas: a chart or change names no loaded "
                         "algebra or morphism")
    level = int_field("level", doc.get("level", max(
        (c["dim"] for c in A.charts.values()), default=0)), 0)
    return A, _simp_degree(doc, caps, 2, 2), level


def cocycle_runner(verb, with_result):
    def run(caps, A, m_max, level):
        rep = atlas_mod.validate_atlas(A)
        if not rep.ok:
            return [report_record(rep)], None
        G = attempt(verb, lambda: atlas_mod.build_cocycle(
            A, atlas_mod.build_hypercovering(A, m_max), level, m_max=m_max,
            tie_break=caps["seed"]))
        return [report_record(atlas_mod.check_cocycle(G))], \
            G.to_json() if with_result else None
    return run


HANDLERS = {
    "check-linfty": (load_one_algebra, run_check_linfty),
    "check-mor": (load_three_part, run_check_mor),
    "compose": (load_compose, run_compose),
    "cohomology": (load_one_algebra, run_cohomology),
    "obstruction": (load_extension, run_obstruction),
    "extend": (load_extension, run_extend),
    "model-build": (load_model_build, run_model_build),
    "model-verify": (load_model_verify, run_model_verify),
    "homotopy-check": (load_homotopy_check, run_homotopy_check),
    "fill-homotopy": (load_fill, run_fill_homotopy),
    "whitehead": (load_three_part, run_whitehead),
    "model-over": (load_model_over, run_model_over),
    "valgebra-check": (load_valgebra, run_valgebra_check),
    "derived-brackets": (load_derived_brackets, run_derived_brackets),
    "poisson-build": (load_jet_setup, run_poisson_build),
    "localize": (load_localize, run_localize),
    "koszul": (load_koszul, run_koszul),
    "primitive": (load_primitive, run_primitive),
    "augment": (load_augment, run_augment),
    "local-algebra": (load_section, run_local_algebra),
    "expand": (load_expand, run_expand),
    "fooo-check": (load_fooo, run_fooo_check),
    "atlas-check": (load_atlas, run_atlas_check),
    "hypercover": (load_hypercover, run_hypercover),
    "cocycle-build": (load_cocycle, cocycle_runner("cocycle-build", True)),
    "cocycle-check": (load_cocycle, cocycle_runner("cocycle-check", False)),
}


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


def read_document(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError("parse error at line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg))
    except (OSError, ValueError) as exc:
        raise InputError("cannot read input: %s" % exc)


def run_job(verb, doc, caps):
    """Load a parsed document with the verb's loader, run it, and
    assemble the deterministic report dictionary.  caps holds the four
    caps and the tie-break seed."""
    check_version(doc)
    for name, guard in GUARDS.items():
        if caps[name] is not None:
            # an arity cap is at least 1, every other cap at least 0
            int_field("cap " + name, caps[name],
                      1 if name == "arity" else 0, guard)
    load, run = HANDLERS[verb]
    try:
        job = load(doc, caps)
    except LOADER_ERRORS as exc:
        raise InputError("malformed document (%s: %s)"
                         % (type(exc).__name__, exc)) from exc
    try:
        checks, result = run(caps, *job)
    except Refusal as exc:
        checks, result = [fail_record(*exc.args)], None
    verdict = "pass" if all(rec["ok"] for rec in checks) else "fail"
    return {
        "version": SCHEMA_VERSION,
        "verb": verb,
        "caps": dict(caps),
        "verdict": verdict,
        "checks": checks,
        "result": _jsonable(result),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="linfkit",
        description="verification jobs for the exact homotopy-algebra "
                    "engine")
    parser.add_argument("verb", choices=HANDLERS)
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
    caps = {"arity": args.cap_arity, "jet": args.cap_jet,
            "weight": args.cap_weight, "simp": args.cap_simp,
            "seed": args.seed}
    try:
        report = run_job(args.verb, read_document(args.input), caps)
    except (InputError, linfty_mod.CurvedError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except CapError as exc:
        print("cap guard: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 4

    if args.format == "json":
        text = dumps_canonical(report)
    else:
        text = render_text(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print("input error: cannot write output: %s" % exc,
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    print("elapsed_ms=%d" % int((time.monotonic() - t0) * 1000),
          file=sys.stderr)
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
