"""Build the benchmark's job documents and its verdict oracle.

Every document is built with the public linfkit API, using the same
constructions as the test suite, and written to ``bench/jobs/``.  Each
job is then run once through ``linfkit.cli.main`` and the sha256 of its
canonical report is stored in ``bench/workloads.json`` next to the
expected exit code and the source of that verdict.  The expected exit
code is written by hand below; recording refuses a job whose exit code
differs from it.

Run from the repository root:

    python3 bench/make_jobs.py

Re-running it re-records the oracle against the code in ``src/``; do so
only when a change to the report bytes is intended.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
from fractions import Fraction as F

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from linfkit import cli  # noqa: E402
from linfkit.atlas import ToyAtlas  # noqa: E402
from linfkit.derived import (JetMultivectorModel, mv_to_json,  # noqa: E402
                             poisson_from_presymplectic, poly_to_json)
from linfkit.gradedlin import GradedSpace  # noqa: E402
from linfkit.koszul import JetRing, Section, koszul_complex  # noqa: E402
from linfkit.linfty import (LInftyAlgebra, LInftyMorphism,  # noqa: E402
                            compose, direct_sum, direct_sum_mor,
                            extend_morphism)
from linfkit.simplexmodel import constant_homotopy  # noqa: E402


# ---------------------------------------------------------------------------
# constructions (as in tests/test_acceptance.py, test_cli.py, test_atlas.py)


def pair_complex(arity_cap):
    sp = GradedSpace([("x", 0), ("y", 1)])
    return LInftyAlgebra(sp, {1: {("x",): {"y": F(1)}}}, arity_cap=arity_cap)


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


def broken_differential():
    sp = GradedSpace([("x", 0), ("y", 1), ("z", 2)])
    return LInftyAlgebra(sp, {1: {("x",): {"y": F(1)},
                                  ("y",): {"z": F(1)}}}, arity_cap=3)


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


def jet_model():
    m = JetMultivectorModel(2, 1, base_cap=3, fiber_cap=2)
    P = poisson_from_presymplectic(m, [[0, 1], [-1, 0]],
                                   {(1, 1): m.var("q1")})
    return m, P


def section(names, order):
    ring = JetRing(names, order)
    return Section(ring, [ring.var(n) for n in names])


def three_chart_atlas():
    def scale(src, tgt, c):
        comps = {1: {(a,): {a: F(c)} for a in src.space.labels}}
        return LInftyMorphism(src, tgt, comps, arity_cap=2)

    A1, A2, A3 = pair_complex(2), pair_complex(2), pair_complex(2)
    algebras = {"A1": A1, "A2": A2, "A3": A3}
    morphisms = {"f12": scale(A2, A1, 1), "f21": scale(A1, A2, 1),
                 "f23": scale(A3, A2, 1), "f32": scale(A2, A3, 1),
                 "f13": scale(A3, A1, 2), "f31": scale(A1, A3, F(1, 2))}
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


# ---------------------------------------------------------------------------
# documents


def algebra_doc(A):
    return {"version": 1, "algebra": A.to_json()}


def morphism_doc(f, **extra):
    doc = {"version": 1, "source": f.source.to_json(),
           "target": f.target.to_json(), "morphism": f.to_json()}
    doc.update(extra)
    return doc


def fill_doc(fs):
    return {"version": 1, "source": fs[0].source.to_json(),
            "target": fs[0].target.to_json(),
            "fs": [f.to_json() for f in fs]}


def atlas_doc(**extra):
    A = three_chart_atlas()
    doc = {"version": 1, "atlas": A.to_json(),
           "algebras": {ref: alg.to_json()
                        for ref, alg in A.algebras.items()},
           "morphisms": {}}
    for ref, f in A.morphisms.items():
        sref = next(r for r, a in A.algebras.items() if a is f.source)
        tref = next(r for r, a in A.algebras.items() if a is f.target)
        mj = f.to_json()
        doc["morphisms"][ref] = {"source": sref, "target": tref,
                                 "comps": mj["comps"],
                                 "arity_cap": mj["arity_cap"]}
    doc.update(extra)
    return doc


def jet_setup_doc(**extra):
    m = JetMultivectorModel(2, 1, base_cap=3, fiber_cap=2)
    doc = {"version": 1, "m": 2, "k": 1, "base_cap": 3,
           "omega": [["0", "1"], ["-1", "0"]],
           "R": {"1,1": poly_to_json(m.var("q1"))}}
    doc.update(extra)
    return doc


def jet_doc():
    m, P = jet_model()
    return {"model": m.to_json(), "P": mv_to_json(P)}


def homotopy_doc():
    f = LInftyMorphism.identity(pair_complex(4))
    h = constant_homotopy(f, weight_cap=6)
    return {"version": 1, "source": f.source.to_json(),
            "target": f.target.to_json(), "f0": f.to_json(),
            "f1": f.to_json(), "homotopy": h.h.to_json()}


def primitive_doc(form):
    return {"version": 1, "ring": JetRing(["q1", "q2"], 4).to_json(),
            "fol": ["q1", "q2"], "form": form}


def whitehead_instances():
    return [("identity", LInftyMorphism.identity(acyclic_pair())),
            ("between-pairs", qiso_between_pairs()),
            ("sign", sign_automorphism(acyclic_pair())),
            ("sum", direct_sum_mor(qiso_between_pairs(),
                                   sign_automorphism(acyclic_pair()))),
            ("composite", compose(sign_automorphism(acyclic_pair()),
                                  sign_automorphism(acyclic_pair())))]


def model_axioms_jobs():
    pair4, pair2 = pair_complex(4), pair_complex(2)
    crit5 = "acceptance criterion 5: simplex model axioms of the pair complex"
    return [
        ("model-verify-n1-w6", "model-verify",
         dict(algebra_doc(pair4), n=1), ["--cap-weight", "6"], 0, crit5),
        ("model-verify-n1-w8", "model-verify",
         dict(algebra_doc(pair4), n=1), ["--cap-weight", "8"], 0, crit5),
        ("model-verify-n2-w6", "model-verify",
         dict(algebra_doc(pair2), n=2), ["--cap-weight", "6"], 0, crit5),
        ("model-build-n2-w8", "model-build",
         dict(algebra_doc(pair2), n=2), ["--cap-weight", "8"], 0,
         "acceptance criterion 1: triangle-model relations; criterion 5 "
         "builds the same model at weight 8"),
        ("model-over-pair-identity", "model-over",
         morphism_doc(LInftyMorphism.identity(pair4)),
         ["--cap-weight", "8"], 0,
         "fact: the identity of a complex lifts to the identity of its "
         "interval model, which is a morphism"),
        ("expand-q1q2-by-q3", "expand",
         {"version": 1, "section": section(["q1", "q2"], 4).to_json(),
          "new_vars": ["q3"]}, [], 0,
         "fact: stabilising a chart by a coordinate paired with a frame "
         "direction is a quasi-isomorphism (koszul.expand_chart)"),
        ("fooo-codim-one", "fooo-check",
         {"version": 1, "section": section(["q1"], 4).to_json(),
          "ambient_section": section(["q1", "q2"], 4).to_json(),
          "bundle_map": [["1"], ["0"]]}, [], 0,
         "acceptance criterion 7: accept-codim-one"),
        ("cohomology-pair-plus-pincer", "cohomology",
         algebra_doc(direct_sum(acyclic_pair(), pincer())), [], 0,
         "tests/test_cli.py: the cohomology verb reports dimensions; "
         "both summands are acyclic"),
    ]


def homotopy_fill_jobs():
    C = acyclic_pair()
    ident = LInftyMorphism.identity(C)
    phi = sign_automorphism(C)
    f = qiso_between_pairs()
    g = compose(f, sign_automorphism(f.source))
    crit4 = "acceptance criterion 4: homotopy filling"
    jobs = [
        ("fill-edge-id-id", "fill-homotopy", fill_doc([ident, ident]),
         [], 0, crit4),
        ("fill-edge-id-sign", "fill-homotopy", fill_doc([ident, phi]),
         [], 0, crit4),
        ("fill-edge-between-pairs", "fill-homotopy", fill_doc([f, g]),
         [], 0, crit4),
        ("fill-triangle", "fill-homotopy", fill_doc([ident, phi, phi]),
         [], 0, crit4),
    ]
    for name, w in whitehead_instances():
        jobs.append(("whitehead-" + name, "whitehead", morphism_doc(w), [],
                     0, "acceptance criterion 3: Whitehead inverses"))
    crit9 = "acceptance criterion 9: atlas, hypercovering and cocycle"
    jobs += [
        ("cocycle-build", "cocycle-build", atlas_doc(m_max=2), [], 0, crit9),
        ("cocycle-check-seed3", "cocycle-check", atlas_doc(m_max=2),
         ["--seed", "3"], 0,
         "tests/test_cli.py: test_atlas_verbs_end_to_end (cocycle-check "
         "--seed 3 exits 0)"),
        ("homotopy-check-constant", "homotopy-check", homotopy_doc(), [], 0,
         "fact: the constant homotopy of the identity is a morphism into "
         "the interval model with both endpoints equal to the identity"),
        ("hypercover-m3", "hypercover", atlas_doc(m_max=3), [], 0, crit9),
        ("atlas-check", "atlas-check", atlas_doc(), [], 0, crit9),
    ]
    return jobs


def relations_brackets_jobs():
    crit1 = "acceptance criterion 1: relation suite"
    f = qiso_between_pairs()
    ident3 = LInftyMorphism.identity(pair_complex(3))
    m, P = jet_model()
    sign = sign_automorphism(f.source)
    return [
        ("check-linfty-koszul-q1q2-o6", "check-linfty",
         algebra_doc(koszul_complex(section(["q1", "q2"], 6))),
         ["--cap-arity", "2"], 0,
         "acceptance criterion 7: Koszul complexes of coordinate sections "
         "are L-infinity algebras; criterion 1 checks koszul-coordinates"),
        ("check-linfty-koszul-q1q2q3-o3", "check-linfty",
         algebra_doc(koszul_complex(section(["q1", "q2", "q3"], 3))),
         ["--cap-arity", "2"], 0,
         "acceptance criterion 7: Koszul complexes of coordinate sections "
         "are L-infinity algebras; criterion 1 checks koszul-coordinates"),
        ("check-linfty-pair-plus-pincer", "check-linfty",
         algebra_doc(direct_sum(acyclic_pair(), pincer())),
         ["--cap-arity", "4"], 0, crit1 + " (sum of L-infinity algebras)"),
        ("check-linfty-broken", "check-linfty",
         algebra_doc(broken_differential()), [], 1,
         "fact: d(d(x)) = z is not 0, so the arity-1 relation fails; "
         "tests/test_cli.py: test_failing_check_exits_one"),
        ("derived-brackets-nonflat-k4", "derived-brackets",
         {"version": 1, "jet": jet_doc(), "k_max": 4}, [], 0,
         "acceptance criterion 6: nonflat derived brackets satisfy the "
         "relations"),
        ("valgebra-check-jet", "valgebra-check",
         {"version": 1, "jet": jet_doc()}, [], 0,
         "tests/test_derived.py: test_jet_valgebra_passes"),
        ("poisson-build", "poisson-build", jet_setup_doc(), [], 0,
         "acceptance criterion 6: constant-rank presymplectic data gives a "
         "Poisson bivector"),
        ("localize", "localize",
         jet_setup_doc(image_vars=["y1", "q1"], j_max=2, k_max=3), [], 0,
         "tests/test_cli.py: test_localize_verb_checks_relations_and_"
         "morphism"),
        ("koszul-q1q2-o4", "koszul",
         {"version": 1, "section": section(["q1", "q2"], 4).to_json()},
         [], 0, "acceptance criterion 7: coordinates-2"),
        ("local-algebra-q1q2-o4", "local-algebra",
         {"version": 1, "section": section(["q1", "q2"], 4).to_json()},
         [], 0, "acceptance criterion 8: augmented foliation complexes "
         "are acyclic; criterion 7: Koszul regularity"),
        ("augment-q1-in-q1q2-o4", "augment",
         {"version": 1, "ring": JetRing(["q1", "q2"], 4).to_json(),
          "fol": ["q1"], "k_max": 2}, [], 0,
         "acceptance criterion 1: augmented-extension-1"),
        ("primitive-closed", "primitive",
         primitive_doc({"q2|dq1": "1", "q1|dq2": "1"}), [], 0,
         "tests/test_cli.py: test_primitive_verb_accepts_closed_rejects_"
         "non_closed (closed form)"),
        ("primitive-not-closed", "primitive",
         primitive_doc({"q2|dq1": "1"}), [], 1,
         "fact: d(q2 dq1) = dq2 ^ dq1 is not 0, so no primitive exists; "
         "tests/test_cli.py: test_primitive_verb_accepts_closed_rejects_"
         "non_closed"),
        ("check-mor-between-pairs", "check-mor", morphism_doc(f),
         ["--cap-arity", "3"], 0,
         "acceptance criterion 2: extend_morphism to K=2 returns a "
         "morphism through arity 3"),
        ("compose-sign-then-qiso", "compose",
         {"version": 1, "source": f.source.to_json(),
          "mid": f.source.to_json(), "target": f.target.to_json(),
          "first": sign.to_json(), "second": f.to_json()}, [], 0,
         "fact: a composite of morphisms is a morphism; criterion 4 uses "
         "this composite"),
        ("extend-identity-k2", "extend", morphism_doc(ident3, K=2), [], 0,
         "tests/test_cli.py: test_extend_verb_returns_extension"),
        ("obstruction-identity-k2", "obstruction",
         morphism_doc(ident3, K=2), [], 0,
         "tests/test_cli.py: test_obstruction_verb_reports_closed_class"),
    ]


WORKLOADS = {
    "model-axioms": (
        "dense exact echelon work (rref under in_span, complement_in and "
        "cohomology) dominates; the target of a sparse echelon engine",
        model_axioms_jobs),
    "homotopy-fill": (
        "a few large sparse systems (solve_sparse under LinearSystem.solve) "
        "plus certificate verification dominate",
        homotopy_fill_jobs),
    "relations-brackets": (
        "word enumeration, GradedMap.compose and Schouten brackets dominate; "
        "linear algebra is nearly idle, so an echelon change predicts no "
        "change here",
        relations_brackets_jobs),
}

PREDICTIONS = [
    {"layer": "gradedlin.rref, in_span, complement_in, nullspace, "
              "solve_canonical, cohomology",
     "moves": "pass_s on model-axioms; no change on relations-brackets"},
    {"layer": "gradedlin.solve_sparse, htpy.LinearSystem.solve",
     "moves": "pass_s on homotopy-fill"},
    {"layer": "gradedlin.GradedMap.compose, gradedlin.sym_words, "
              "linfty.codifferential_hat, linfty.check_relations",
     "moves": "pass_s on relations-brackets"},
    {"layer": "linfty.check_morphism, htpy.FillingModel.verify, "
              "htpy.WhiteheadCertificate.verify",
     "moves": "pass_s on homotopy-fill, in the certificate-checking share"},
    {"layer": "linfty.l1_cohomology, linfty.is_quasi_iso, "
              "simplexmodel.SimplexModel, simplexmodel.verify_model_axioms, "
              "htpy.model_morphism_over, koszul.expand_chart, "
              "koszul.fooo_embedding_check",
     "moves": "pass_s on model-axioms; a cache may raise peak_rss_mb here"},
    {"layer": "htpy.fill_n_homotopy, htpy.whitehead_inverse, "
              "atlas.build_hypercovering, atlas.build_cocycle, "
              "atlas.check_cocycle",
     "moves": "pass_s on homotopy-fill"},
    {"layer": "derived.derived_brackets, poisson_from_presymplectic, "
              "check_valgebra, localized_algebra; koszul.koszul_complex, "
              "koszul_cohomology, build_local_algebra, augment_extension; "
              "linfty.compose, extend_morphism",
     "moves": "pass_s and job_geomean_ms on relations-brackets"},
    {"layer": "cli.run_job, cli.main (self), gradedlin.dumps_canonical",
     "moves": "job_geomean_ms on relations-brackets, where jobs take "
              "milliseconds"},
]

LEFT_OUT = [
    {"job": "check-linfty on the nonflat derived algebra without "
            "--cap-weight",
     "why": "did not finish within 5 minutes when the benchmark was "
            "defined: an unbounded coalgebra-square sweep"},
    {"job": "model-over on the acyclic pair",
     "why": "returns 'no model morphism component at arity 2', and "
            "whether that verdict is correct is not established"},
]


def main():
    jobs_dir = os.path.join(BENCH, "jobs")
    work = os.path.join(BENCH, ".work", "record")
    shutil.rmtree(jobs_dir, ignore_errors=True)
    os.makedirs(jobs_dir)
    os.makedirs(work, exist_ok=True)
    spec = {"workloads": {}, "predictions": PREDICTIONS,
            "left_out": LEFT_OUT}
    try:
        for wname, (why, build) in WORKLOADS.items():
            entries = []
            for jid, verb, doc, args, expect, source in build():
                rel = "jobs/%s.json" % jid
                with open(os.path.join(BENCH, rel), "w") as fh:
                    json.dump(doc, fh, sort_keys=True, indent=1)
                    fh.write("\n")
                out = os.path.join(work, jid + ".report")
                t0 = time.monotonic()
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([verb, os.path.join(BENCH, rel)] + args
                                    + ["--out", out])
                if code != expect:
                    raise SystemExit("%s: exit %d, expected %d"
                                     % (jid, code, expect))
                with open(out, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                entries.append({"id": jid, "verb": verb, "doc": rel,
                                "args": args, "expect_exit": expect,
                                "verdict_source": source,
                                "report_sha256": digest})
                print("%-34s exit %d  %s  %.2f s"
                      % (jid, code, digest[:12], time.monotonic() - t0))
            spec["workloads"][wname] = {"why": why, "jobs": entries}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    with open(os.path.join(BENCH, "workloads.json"), "w") as fh:
        json.dump(spec, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
