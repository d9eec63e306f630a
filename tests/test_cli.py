"""Command line front end: exit codes, strict input parsing, cap
guards, report determinism, and output plumbing."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys

from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfkit import cli
from linfkit.gradedlin import CapError, GradedSpace
from linfkit.linfty import LInftyAlgebra, LInftyMorphism
from linfkit.derived import (JetMultivectorModel, mv_to_json, poly_to_json,
                             poisson_from_presymplectic)
from linfkit.koszul import (JetRing, Section, augment_extension,
                            build_local_algebra, expand_chart,
                            foliation_complex, koszul_complex)
from linfkit.simplexmodel import constant_homotopy

from test_atlas import three_chart_atlas
from test_derived import finite_binary_valgebra


# ---------------------------------------------------------------------------
# fixtures


BENCH_JOBS = Path(__file__).resolve().parents[1] / "bench" / "jobs"


def pair_algebra():
    sp = GradedSpace([("x", 0), ("y", 1)])
    return LInftyAlgebra(sp, {1: {("x",): {"y": F(1)}}}, arity_cap=3)


def broken_algebra():
    # d squares to a nonzero map
    sp = GradedSpace([("x", 0), ("y", 1), ("z", 2)])
    return LInftyAlgebra(sp, {1: {("x",): {"y": F(1)},
                                  ("y",): {"z": F(1)}}}, arity_cap=3)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def algebra_doc():
    return {"version": 1, "algebra": pair_algebra().to_json()}


def morphism_doc():
    A = pair_algebra()
    return {"version": 1, "source": A.to_json(), "target": A.to_json(),
            "morphism": LInftyMorphism.identity(A).to_json()}


def jet_doc():
    m = JetMultivectorModel(2, 1, base_cap=3, fiber_cap=2)
    P = poisson_from_presymplectic(m, [[0, 1], [-1, 0]],
                                   {(1, 1): m.var("q1")})
    return {"model": m.to_json(), "P": mv_to_json(P)}


def ring_doc():
    return JetRing(["q1", "q2"], 4).to_json()


def section_doc():
    ring = JetRing(["q1", "q2"], 4)
    return Section(ring, [ring.var("q1"), ring.var("q2")]).to_json()


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


# ---------------------------------------------------------------------------
# exit code matrix


def test_passing_check_exits_zero(tmp_path, capsys):
    code, out = run(["check-linfty",
                     write(tmp_path, "a.json", algebra_doc())], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert all(rec["ok"] for rec in report["checks"])


def test_failing_check_exits_one(tmp_path, capsys):
    doc = {"version": 1, "algebra": broken_algebra().to_json()}
    code, out = run(["check-linfty", write(tmp_path, "a.json", doc)],
                    capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    bad = [rec for rec in report["checks"] if not rec["ok"]]
    assert bad and bad[0]["witness"]


def curved_doc(degrees, entries, l0, **extra):
    """A check-linfty document: generators {label: degree}, operations
    [(word, out)] with coefficient 1, and the curvature l0."""
    ops = {}
    for word, out in entries:
        ops.setdefault(len(word), []).append(
            {"word": list(word), "out": out, "coeff": "1"})
    return {"version": 1, "algebra": {
        "space": {"generators": [{"label": x, "deg": d}
                                 for x, d in degrees.items()]},
        "ops": [{"arity": k, "entries": e} for k, e in sorted(ops.items())],
        "l0": l0, **extra}}


@pytest.mark.parametrize("doc,args,want", [
    # l2(b, b) = c, l0 = d: every relation holds through arity 3, but
    # the coderivation truncated at arity 3 drops the arity-4 word
    # (d, b, b, b), whose image would cancel a term of its square on
    # (b, b, b); check-linfty exited 1 on that
    (curved_doc({"a": 0, "b": 0, "c": 1, "d": 1}, [("bb", "c")],
                {"d": "1"}, arity_cap=3), [], 0),
    # l1(l0) = z != 0 fails the arity-0 relation, which a square that
    # drops the empty word cannot see
    (curved_doc({"y": 1, "z": 2}, [("y", "z")], {"y": "1"}),
     ["--cap-arity", "1"], 1),
], ids=["relations-hold", "arity-zero-fails"])
def test_curved_algebra_is_judged_by_its_relations(tmp_path, capsys, doc,
                                                   args, want):
    code, out = run(["check-linfty", write(tmp_path, "a.json", doc)]
                    + args, capsys)
    assert code == want
    checks = json.loads(out)["checks"]
    assert [rec["name"] for rec in checks] == ["linfty-relations"]
    assert checks[0]["ok"] == (want == 0)


def test_malformed_scalar_exits_two(tmp_path, capsys):
    doc = algebra_doc()
    doc["algebra"]["ops"][0]["entries"][0]["coeff"] = "1/0"
    assert run(["check-linfty", write(tmp_path, "a.json", doc)],
               capsys)[0] == 2


@pytest.mark.parametrize("coeff", ["1_0", "\u0661", "1/2_0", "+6", "6.0",
                                   "1/-2", "", 6, None, ["6"]])
def test_scalar_outside_the_grammar_exits_two(coeff, tmp_path, capsys):
    """A coefficient that int() would read in another spelling
    ("1_0" as 10, an Arabic-Indic digit as 1) or that is no string is
    an input error, not a check of a different morphism."""
    doc = json.loads((BENCH_JOBS / "check-mor-between-pairs.json")
                     .read_text())
    block = [b for b in doc["morphism"]["comps"] if b["arity"] == 3][0]
    block["entries"][0]["coeff"] = coeff
    assert run(["check-mor", write(tmp_path, "m.json", doc)],
               capsys)[0] == 2


def test_unknown_field_exits_two(tmp_path, capsys):
    doc = algebra_doc()
    doc["bogus"] = 1
    assert run(["check-linfty", write(tmp_path, "a.json", doc)],
               capsys)[0] == 2


def test_missing_field_exits_two(tmp_path, capsys):
    assert run(["check-linfty",
                write(tmp_path, "a.json", {"version": 1})],
               capsys)[0] == 2


def test_wrong_version_exits_two(tmp_path, capsys):
    doc = algebra_doc()
    doc["version"] = 99
    assert run(["check-linfty", write(tmp_path, "a.json", doc)],
               capsys)[0] == 2


def test_json_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text("{not json")
    assert run(["check-linfty", str(path)], capsys)[0] == 2


def test_missing_file_exits_two(tmp_path, capsys):
    assert run(["check-linfty", str(tmp_path / "nope.json")],
               capsys)[0] == 2


@pytest.mark.parametrize("cap", [0, -1, "2", 2.7, 2.0, True, None])
def test_document_arity_cap_is_strict(cap, tmp_path, capsys):
    """An arity cap in an algebra or morphism document is an integer
    >= 1.  At cap 0 check-mor passed with nothing checked."""
    for part in ("source", "morphism"):
        doc = morphism_doc()
        doc[part]["arity_cap"] = cap
        assert cli.main(["check-mor", write(tmp_path, "m.json", doc)]) == 2
        assert capsys.readouterr().err.startswith("input error:")


def test_morphism_component_above_its_cap_exits_two(tmp_path, capsys):
    doc = morphism_doc()
    doc["morphism"]["arity_cap"] = 1
    doc["morphism"]["comps"].append(
        {"arity": 2, "entries": [{"word": ["x", "x"], "out": "x",
                                  "coeff": "1"}]})
    path = write(tmp_path, "m.json", doc)
    assert cli.main(["check-mor", path]) == 2
    assert "above the arity cap 1" in capsys.readouterr().err
    doc["morphism"]["arity_cap"] = 2
    path = write(tmp_path, "m.json", doc)
    assert run(["check-mor", path], capsys)[0] == 1


def test_morphism_value_on_a_vanishing_word_exits_two(tmp_path, capsys):
    """b is odd, so the word (b, b) vanishes: a value on it is refused,
    as in an algebra document, not silently dropped."""
    doc = json.loads((BENCH_JOBS / "check-mor-between-pairs.json")
                     .read_text())
    blk = [b for b in doc["morphism"]["comps"] if b["arity"] == 2][0]
    blk["entries"].append({"word": ["b", "b"], "out": "y", "coeff": "5"})
    assert cli.main(["check-mor", write(tmp_path, "m.json", doc)]) == 2
    assert "vanishing word" in capsys.readouterr().err


def test_cap_guard_exits_three(tmp_path, capsys):
    path = write(tmp_path, "a.json", algebra_doc())
    assert run(["check-linfty", path, "--cap-arity", "9"],
               capsys)[0] == 3
    assert run(["check-linfty", path, "--cap-weight", "20"],
               capsys)[0] == 3
    assert run(["check-linfty", path, "--cap-jet", "9"],
               capsys)[0] == 3


def test_negative_cap_exits_two(tmp_path, capsys):
    """A negative arity cap checked no word and passed a broken algebra."""
    doc = {"version": 1, "algebra": broken_algebra().to_json()}
    path = write(tmp_path, "a.json", doc)
    assert cli.main(["check-linfty", path, "--cap-arity", "-1"]) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("verb, job", [
    ("check-linfty", "check-linfty-pair-plus-pincer"),
    ("check-mor", "check-mor-between-pairs"),
    ("fill-homotopy", "fill-edge-id-id"),
    ("whitehead", "whitehead-identity"),
    ("derived-brackets", "derived-brackets-nonflat-k4"),
    ("model-over", "model-over-pair-identity"),
])
def test_zero_arity_cap_exits_two(verb, job, capsys):
    """Every arity cap is at least 1: an arity cap of 0 is an input
    error on every verb, not a check of arity 0 words, a failed check
    or a crash."""
    assert cli.main([verb, str(BENCH_JOBS / (job + ".json")),
                     "--cap-arity", "0"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("input error: cap arity must be an integer >= 1")


def test_simplex_cap_guard_exits_three(tmp_path, capsys):
    doc = {"version": 1, "algebra": pair_algebra().to_json(), "n": 5}
    assert run(["model-build", write(tmp_path, "a.json", doc)],
               capsys)[0] == 3


@pytest.mark.parametrize("verb,code", [("model-build", 0),
                                       ("model-verify", 2)])
def test_model_of_the_point(verb, code, tmp_path, capsys):
    """n = 0 is a valid model to build, but a model's axioms speak of
    its faces and vertex evaluations: model-verify refuses it as an
    input error, as it refuses n > 2 at its guard, and does not crash."""
    doc = json.loads((BENCH_JOBS / "model-verify-n1-w6.json").read_text())
    doc["n"] = 0
    assert cli.main([verb, write(tmp_path, "a.json", doc)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal error" not in err
    if code:
        assert err.startswith("input error: n must be an integer >= 1")


@pytest.mark.parametrize("verb", ["model-build", "model-over"])
def test_vacuous_model_weight_cap_exits_three(verb, tmp_path, capsys):
    """The model checks run at weight cap - 2; below cap 2 they checked
    no word and passed."""
    doc = dict(algebra_doc(), n=1) if verb == "model-build" \
        else morphism_doc()
    path = write(tmp_path, "a.json", doc)
    for weight in ("0", "1"):
        assert cli.main([verb, path, "--cap-weight", weight]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cap guard:") and "Traceback" not in err
    code, out = run([verb, path, "--cap-weight", "2"], capsys)
    assert code == 0 and json.loads(out)["checks"][0]["checked"] > 0


# ---------------------------------------------------------------------------
# determinism and output plumbing


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    jobs = [
        ("check-linfty", algebra_doc()),
        ("whitehead", morphism_doc()),
        ("koszul", {"version": 1, "section": section_doc()}),
        ("derived-brackets", {"version": 1, "jet": jet_doc(),
                              "k_max": 3}),
    ]
    for i, (verb, doc) in enumerate(jobs):
        path = write(tmp_path, "job%d.json" % i, doc)
        _, out1 = run([verb, path], capsys)
        _, out2 = run([verb, path], capsys)
        assert out1 == out2
        assert json.loads(out1) == json.loads(out2)


def test_out_flag_writes_report_file(tmp_path, capsys):
    path = write(tmp_path, "a.json", algebra_doc())
    dest = tmp_path / "report.json"
    code, out = run(["check-linfty", path, "--out", str(dest)], capsys)
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["verdict"] == "pass"


def test_unwritable_out_exits_two(tmp_path, capsys):
    """Writing the report used to end in a FileNotFoundError traceback
    with exit 1, which reads as a failed check."""
    path = write(tmp_path, "a.json", algebra_doc())
    dest = tmp_path / "missing" / "report.json"
    assert cli.main(["check-linfty", path, "--out", str(dest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot write output:")
    assert "Traceback" not in err


def test_text_format_renders_verdict(tmp_path, capsys):
    path = write(tmp_path, "a.json", algebra_doc())
    code, out = run(["check-linfty", path, "--format", "text"], capsys)
    assert code == 0
    assert "verdict: pass" in out
    assert "[ok]" in out


def test_timing_never_enters_the_report(tmp_path, capsys):
    path = write(tmp_path, "a.json", algebra_doc())
    cli.main(["check-linfty", path])
    captured = capsys.readouterr()
    assert "elapsed" not in captured.out
    assert "elapsed_ms" in captured.err


# ---------------------------------------------------------------------------
# verb behavior spot checks


def test_cohomology_verb_reports_dimensions(tmp_path, capsys):
    code, out = run(["cohomology",
                     write(tmp_path, "a.json", algebra_doc())], capsys)
    assert code == 0
    H = json.loads(out)["result"]["cohomology"]
    assert H == {"0": 0, "1": 0}


def test_cohomology_of_a_non_complex_fails_naming_the_witness(tmp_path,
                                                             capsys):
    """An l_1 that does not square to zero is a failed check (exit 1)
    whose witness names the generator, as check-linfty reports it, not
    an internal error."""
    doc = {"version": 1, "algebra": broken_algebra().to_json()}
    code, out = run(["cohomology", write(tmp_path, "a.json", doc)], capsys)
    assert code == 1
    rec, = json.loads(out)["checks"]
    assert rec["name"] == "cohomology" and not rec["ok"]
    assert "witness generator 'x'" in rec["witness"][0]["residual"]["error"]


def non_chain_map_doc():
    """a -> b and x -> y with f_1(a) = x: f_1 does not commute with the
    differentials."""
    A = LInftyAlgebra(GradedSpace([("a", 0), ("b", 1)]),
                      {1: {("a",): {"b": F(1)}}})
    B = LInftyAlgebra(GradedSpace([("x", 0), ("y", 1)]),
                      {1: {("x",): {"y": F(1)}}})
    f = LInftyMorphism.from_linear(A, B, {"a": {"x": F(1)}})
    return {"version": 1, "source": A.to_json(), "target": B.to_json(),
            "morphism": f.to_json()}


def test_whitehead_refuses_a_map_that_is_no_chain_map(tmp_path, capsys):
    path = write(tmp_path, "f.json", non_chain_map_doc())
    assert run(["check-mor", path], capsys)[0] == 1
    code, out = run(["whitehead", path], capsys)
    assert code == 1
    rec, = json.loads(out)["checks"]
    assert rec["name"] == "whitehead" and not rec["ok"]


@pytest.mark.parametrize("verb", ["whitehead", "fill-homotopy"])
def test_endpoints_that_are_no_complex_fail_the_check(verb, tmp_path,
                                                      capsys):
    """The identity of an algebra whose l_1 does not square to zero is
    no quasi-isomorphism: a failed check, not an internal error."""
    A = broken_algebra().to_json()
    mj = LInftyMorphism.identity(broken_algebra()).to_json()
    doc = {"version": 1, "source": A, "target": A}
    doc.update({"fs": [mj, mj]} if verb == "fill-homotopy" else
               {"morphism": mj})
    code, out = run([verb, write(tmp_path, "a.json", doc)], capsys)
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_extend_verb_returns_extension(tmp_path, capsys):
    doc = morphism_doc()
    doc["K"] = 2
    code, out = run(["extend", write(tmp_path, "a.json", doc)], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["obstruction"]["exact"] is True
    assert "morphism" in result


def test_fill_homotopy_verb_builds_cylinder(tmp_path, capsys, monkeypatch):
    """The filling passes; --seed is the tie-break of every linear stage
    of the filling (0 without it).  The spy also sees the point fills
    of the recursion; the fills of 2 or 3 morphisms are the ones
    whose stages solve."""
    seen = []
    real = cli.htpy_mod.fill_n_homotopy

    def spy(fs, **kwargs):
        if len(fs) > 1:
            seen.append(kwargs.get("tie_break", 0))
        return real(fs, **kwargs)

    monkeypatch.setattr(cli.htpy_mod, "fill_n_homotopy", spy)
    A = pair_algebra()
    mj = LInftyMorphism.identity(A).to_json()
    doc = {"version": 1, "source": A.to_json(), "target": A.to_json(),
           "fs": [mj, mj]}
    path = write(tmp_path, "a.json", doc)
    for argv in ([], ["--seed", "3"]):
        code, out = run(["fill-homotopy", path] + argv, capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"
    assert seen == [0, 3]


@pytest.mark.parametrize("verb, name", [
    ("whitehead", "whitehead_inverse"),
    ("model-over", "model_morphism_over")])
def test_seed_reaches_whitehead_and_model_over(verb, name, tmp_path, capsys,
                                               monkeypatch):
    """--seed is the tie-break of the inversion and of the model
    morphism (0 without it)."""
    seen = []
    real = getattr(cli.htpy_mod, name)

    def spy(*args, **kwargs):
        seen.append(kwargs.get("tie_break", 0))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.htpy_mod, name, spy)
    path = write(tmp_path, "m.json", morphism_doc())
    for argv in ([], ["--seed", "3"]):
        code, out = run([verb, path] + argv, capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"
    assert seen == [0, 3]


def test_primitive_verb_accepts_closed_rejects_non_closed(tmp_path,
                                                          capsys):
    good = {"version": 1, "ring": ring_doc(), "fol": ["q1", "q2"],
            "form": {"q2|dq1": "1", "q1|dq2": "1"}}
    code, out = run(["primitive", write(tmp_path, "g.json", good)],
                    capsys)
    assert code == 0
    assert json.loads(out)["result"]["primitive"] == {"q1.q2|1": "1"}
    bad = dict(good, form={"q2|dq1": "1"})
    code, out = run(["primitive", write(tmp_path, "b.json", bad)],
                    capsys)
    assert code == 1
    assert "not closed" in out


def test_localize_verb_checks_relations_and_morphism(tmp_path, capsys):
    m = JetMultivectorModel(2, 1, base_cap=3, fiber_cap=2)
    doc = {"version": 1, "m": 2, "k": 1, "base_cap": 3,
           "omega": [["0", "1"], ["-1", "0"]],
           "R": {"1,1": poly_to_json(m.var("q1"))},
           "image_vars": ["y1", "q1"], "j_max": 2, "k_max": 3}
    code, out = run(["localize", write(tmp_path, "a.json", doc)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["normal"] == ["y2"]


def test_localize_refuses_an_unknown_image_variable(tmp_path, capsys):
    """A misspelt image variable once widened the normal directions
    silently; it names no base coordinate, so the document is refused."""
    doc = json.loads((BENCH_JOBS / "localize.json").read_text())
    doc["image_vars"] = ["y1", "q1", "w9"]
    assert cli.main(["localize", write(tmp_path, "l.json", doc)]) == 2
    assert "'w9'" in capsys.readouterr().err


def test_localize_report_does_not_depend_on_hash_seed(tmp_path):
    """Two normal variables: the report lists them in one order under
    every PYTHONHASHSEED, so its bytes agree across processes."""
    m = JetMultivectorModel(2, 1, base_cap=3, fiber_cap=2)
    doc = {"version": 1, "m": 2, "k": 1, "base_cap": 3,
           "omega": [["0", "1"], ["-1", "0"]],
           "R": {"1,1": poly_to_json(m.var("q1"))},
           "image_vars": ["q1"], "j_max": 2, "k_max": 3}
    path = write(tmp_path, "a.json", doc)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    reports = []
    for seed in ("1", "2"):
        path_env = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(path_env))
        proc = subprocess.run(
            [sys.executable, "-m", "linfkit.cli", "localize", path],
            env=env, capture_output=True, check=False)
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    assert json.loads(reports[0])["result"]["normal"] == ["y1", "y2"]
    assert reports[0] == reports[1]


HASHLIB_PROBE = """
import json, sys
mods = ("hashlib", "_hashlib")
before = [m for m in mods if m in sys.modules]
import linfkit.cli
code = linfkit.cli.main(sys.argv[1:])
print(json.dumps([before, code, [m for m in mods if m in sys.modules]]))
"""


@pytest.mark.parametrize("seed, loaded", [("0", []),
                                          ("3", ["hashlib", "_hashlib"])])
def test_hashlib_is_imported_only_by_a_tie_break_audit(seed, loaded,
                                                        tmp_path):
    """hashlib loads OpenSSL, and only the column scramble of a nonzero
    tie-break needs it: importing linfkit.cli and running a seed-0 fill
    leave it unloaded, and the seed-3 audit of the same job loads it,
    which shows that the probe sees the import."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path_env = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_env))
    proc = subprocess.run(
        [sys.executable, "-c", HASHLIB_PROBE, "fill-homotopy",
         str(BENCH_JOBS / "fill-edge-id-id.json"), "--seed", seed,
         "--out", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, check=False)
    assert json.loads(proc.stdout) == [[], 0, loaded], proc.stderr


def test_fooo_verb_accepts_identity_embedding(tmp_path, capsys):
    ring = JetRing(["q1"], 4)
    s = Section(ring, [ring.var("q1")]).to_json()
    doc = {"version": 1, "section": s, "ambient_section": s,
           "bundle_map": [["1"]]}
    code, out = run(["fooo-check", write(tmp_path, "a.json", doc)],
                    capsys)
    assert code == 0
    assert json.loads(out)["result"]["accepted"] is True


def test_atlas_verbs_end_to_end(tmp_path, capsys):
    path = write(tmp_path, "atlas.json", atlas_doc())
    assert run(["atlas-check", path], capsys)[0] == 0

    hpath = write(tmp_path, "hyper.json", atlas_doc(m_max=3))
    code, out = run(["hypercover", hpath], capsys)
    assert code == 0
    sizes = json.loads(out)["result"]["sizes"]
    assert sizes == {"0": 3, "1": 9, "2": 27, "3": 81}

    cpath = write(tmp_path, "coc.json", atlas_doc(m_max=2))
    code, out1 = run(["cocycle-build", cpath], capsys)
    assert code == 0
    assert json.loads(out1)["verdict"] == "pass"
    _, out2 = run(["cocycle-build", cpath], capsys)
    assert out1 == out2
    assert run(["cocycle-check", cpath, "--seed", "3"], capsys)[0] == 0
    assert run(["cocycle-check", cpath, "--cap-simp", "3"],
               capsys)[0] == 3


def test_cocycle_verbs_read_empty_blocks_as_zero(tmp_path, capsys):
    """An empty arity-2 block on each change morphism of the bench
    document leaves every morphism as it is: both cocycle verbs pass
    and check as many conditions as on the document without them."""
    plain = Path(__file__).resolve().parents[1] / "bench" / "jobs" \
        / "cocycle-build.json"
    doc = json.loads(plain.read_text())
    for mor in doc["morphisms"].values():
        mor["comps"].append({"arity": 2, "entries": []})
    padded = write(tmp_path, "empty-blocks.json", doc)
    for verb in ("cocycle-check", "cocycle-build"):
        _, want = run([verb, str(plain)], capsys)
        code, out = run([verb, padded], capsys)
        assert code == 0
        assert json.loads(out)["checks"] == json.loads(want)["checks"]


@pytest.mark.parametrize("point", [
    [4], {"a": 1}, pytest.param(True, id="true"),
    pytest.param(None, id="null"), pytest.param(1.5, id="float"),
    pytest.param(float("nan"), id="nan"), pytest.param(3, id="repeated"),
    pytest.param("3", id="repeated-str")])
@pytest.mark.parametrize("verb", ["atlas-check", "hypercover",
                                  "cocycle-check", "cocycle-build"])
def test_point_that_is_not_a_scalar_exits_two(verb, point, tmp_path,
                                               capsys):
    """A point is a string or an integer, and no two points of a list
    share a string form: True == 1 would find the chart of 1, and a
    repeated point would inflate the nerve."""
    doc = atlas_doc()
    assert run([verb, write(tmp_path, "a.json", doc)], capsys)[0] == 0
    doc["atlas"]["points"].append(point)
    assert run([verb, write(tmp_path, "a.json", doc)], capsys)[0] == 2


def bool_pair(changes):
    changes[0]["pair"][0] = True


def unlisted_pair(changes):
    changes.append(dict(changes[0], pair=[1, 99]))


def repeated_pair(changes):
    changes.append(changes[0])


@pytest.mark.parametrize("edit", [bool_pair, unlisted_pair, repeated_pair])
@pytest.mark.parametrize("verb", ["atlas-check", "hypercover"])
def test_change_pair_is_checked(verb, edit, tmp_path, capsys):
    """A change's pair holds two listed points, and no two changes share
    a pair: True == 1 would find the change of 1, a pair naming an
    unlisted point was dropped, and a repeated pair replaced the
    earlier change."""
    doc = atlas_doc()
    assert doc["atlas"]["changes"][0]["pair"][0] == 1
    assert run([verb, write(tmp_path, "a.json", doc)], capsys)[0] == 0
    edit(doc["atlas"]["changes"])
    assert run([verb, write(tmp_path, "a.json", doc)], capsys)[0] == 2


@pytest.mark.parametrize("field, value", [
    ("dim", "x"), ("dim", 1.0), ("dim", True), ("dim", None), ("dim", -1),
    ("group_order", "x"), ("group_order", 2.0), ("group_order", False),
    ("group_order", 0), ("group_order", -2)])
@pytest.mark.parametrize("verb", ["atlas-check", "cocycle-check"])
def test_chart_dim_and_group_order_are_checked(verb, field, value,
                                                tmp_path, capsys):
    """A chart's dim must be an integer >= 0 and its group order an
    integer >= 1; anything else is an input error."""
    doc = atlas_doc(m_max=2)
    chart = next(iter(doc["atlas"]["charts"].values()))
    chart[field] = value
    assert run([verb, write(tmp_path, "a.json", doc)], capsys)[0] == 2
    chart[field] = {"dim": 0, "group_order": 1}[field]
    assert run([verb, write(tmp_path, "a.json", doc)], capsys)[0] == 0


@pytest.mark.parametrize("level", ["x", None, [1], 1.5, True, -1])
def test_cocycle_level_that_is_not_an_integer_exits_two(level, tmp_path,
                                                        capsys):
    doc = atlas_doc(m_max=2)
    doc["level"] = level
    for verb in ("cocycle-check", "cocycle-build"):
        assert run([verb, write(tmp_path, "a.json", doc)], capsys)[0] == 2


def test_hypercover_cap_guard(tmp_path, capsys):
    path = write(tmp_path, "h.json", atlas_doc(m_max=5))
    assert run(["hypercover", path], capsys)[0] == 3


def test_unknown_morphism_reference_exits_two(tmp_path, capsys):
    doc = atlas_doc()
    ref = next(iter(doc["morphisms"]))
    doc["morphisms"][ref]["source"] = "missing"
    assert run(["atlas-check", write(tmp_path, "a.json", doc)],
               capsys)[0] == 2


def test_obstruction_verb_reports_closed_class(tmp_path, capsys):
    doc = morphism_doc()
    doc["K"] = 2
    code, out = run(["obstruction", write(tmp_path, "a.json", doc)],
                    capsys)
    assert code == 0
    report = json.loads(out)
    names = {rec["name"]: rec["ok"] for rec in report["checks"]}
    assert names["obstruction-closed"] is True


@pytest.mark.parametrize("verb", ["extend", "obstruction"])
@pytest.mark.parametrize("K, code", [(40, 3), (6, 3), (-1, 2), (0, 2),
                                     (True, 2), (2.0, 2), ("2", 2)])
def test_bad_extension_arity_exits_cleanly(verb, K, code, tmp_path, capsys):
    """K outside 1 <= K and K + 1 <= the arity guard is refused before
    any work, with exit 2 (input) or 3 (cap guard) and no traceback."""
    doc = morphism_doc()
    doc["K"] = K
    assert cli.main([verb, write(tmp_path, "a.json", doc)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("cap guard:" if code == 3 else "input error:")


@pytest.mark.parametrize("error", [CapError])
def test_escaping_cap_error_exits_three(error, tmp_path, capsys,
                                        monkeypatch):
    """A cap error raised below a handler maps to exit 3, not a crash."""
    def too_wide(*args, **kwargs):
        raise error("too wide")
    monkeypatch.setattr(cli.linfty_mod, "extend_morphism", too_wide)
    doc = morphism_doc()
    doc["K"] = 2
    assert cli.main(["extend", write(tmp_path, "a.json", doc)]) == 3
    assert capsys.readouterr().err == "cap guard: too wide\n"


def test_non_closed_obstruction_fails_with_witness(tmp_path, capsys):
    """f_1 is not a chain map, so O_2 is not delta1-closed: obstruction
    fails its closedness record with the residual as witness, and
    extend reports that no extension exists.  Neither is a crash."""
    A = LInftyAlgebra(GradedSpace([("u", -1), ("v", 0)]),
                      {1: {("u",): {"v": F(1)}}}, arity_cap=3)
    B = LInftyAlgebra(GradedSpace([("x", -1), ("y", 0), ("z", 1)]),
                      {2: {("y", "y"): {"z": F(1)}}}, arity_cap=3)
    f = LInftyMorphism(A, B, {1: {("u",): {"x": F(1)}, ("v",): {"y": F(1)}}},
                       arity_cap=3)
    path = write(tmp_path, "a.json", {"version": 1, "source": A.to_json(),
                                      "target": B.to_json(),
                                      "morphism": f.to_json(), "K": 1})
    for verb, name in (("obstruction", "obstruction-closed"),
                       ("extend", "extension-exists")):
        code, out = run([verb, path], capsys)
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        rec = next(r for r in json.loads(out)["checks"] if r["name"] == name)
        assert rec["ok"] is False and rec["witness"]
    closed = json.loads(run(["obstruction", path], capsys)[1])["checks"][0]
    assert closed["witness"] == [{"at": ["u", "v"],
                                  "residual": {"z": "-1"}}]


@pytest.mark.parametrize("verb", ["derived-brackets", "augment", "localize"])
@pytest.mark.parametrize("k_max, code", [(7, 3), ("3", 2), (0, 2)])
def test_k_max_is_guarded(verb, k_max, code, tmp_path, capsys):
    """k_max above the arity guard is a cap violation, a non-integer an
    input error; both are refused before any work."""
    doc, args = SMALL_JOBS[verb]
    assert cli.main([verb, write(tmp_path, "a.json", dict(doc, k_max=k_max))]
                    + args) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("cap guard:" if code == 3 else "input error:")


def test_internal_error_exits_four(tmp_path, capsys, monkeypatch):
    """An exception no other exit code covers is exit 4, never exit 1."""
    def broken(*args, **kwargs):
        raise RuntimeError("broken")
    monkeypatch.setattr(cli.linfty_mod, "check_relations", broken)
    path = write(tmp_path, "a.json", algebra_doc())
    assert cli.main(["check-linfty", path]) == 4
    assert capsys.readouterr().err == \
        "internal error: RuntimeError: broken\n"


def curved_doc(verb, A):
    if verb == "cohomology":
        return {"version": 1, "algebra": A.to_json()}
    doc = {"version": 1, "source": A.to_json(), "target": A.to_json()}
    mj = LInftyMorphism.identity(A).to_json()
    if verb == "fill-homotopy":
        return dict(doc, fs=[mj, mj])
    return dict(doc, morphism=mj, K=2)


@pytest.mark.parametrize("verb", ["cohomology", "fill-homotopy",
                                  "obstruction", "extend"])
def test_curved_algebra_exits_two(verb, tmp_path, capsys):
    """Verbs that need a strict algebra refuse a curved one as an input
    error (exit 2), not as a failed check or a crash.  The same document
    with the curvature removed passes."""
    strict = pair_algebra()
    curved = LInftyAlgebra(strict.space, strict.ops, l0={"y": F(1)},
                           arity_cap=3)
    assert run([verb, write(tmp_path, "s.json", curved_doc(verb, strict))],
               capsys)[0] == 0
    assert cli.main([verb, write(tmp_path, "c.json",
                                 curved_doc(verb, curved))]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("input error:")


@pytest.mark.parametrize("end", ["source", "target"])
def test_whitehead_on_a_curved_end_exits_two(end, tmp_path, capsys):
    """whitehead refuses a curved source or target as an input error
    (exit 2), as the other verbs that need strict algebras do."""
    strict = pair_algebra()
    ends = {"source": strict, "target": strict,
            end: LInftyAlgebra(strict.space, strict.ops, l0={"y": F(1)},
                               arity_cap=3)}
    f = LInftyMorphism.from_linear(ends["source"], ends["target"],
                                   {a: {a: 1} for a in strict.space.labels})
    doc = {"version": 1, "source": ends["source"].to_json(),
           "target": ends["target"].to_json(), "morphism": f.to_json()}
    assert cli.main(["whitehead", write(tmp_path, "c.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("input error:")


@pytest.mark.parametrize("count", [0, 1, 4])
def test_fill_homotopy_needs_two_or_three_morphisms(count, tmp_path,
                                                    capsys):
    """fs must hold 2 or 3 vertex morphisms: any other count is a schema
    violation (exit 2), not a failed filling check."""
    A = pair_algebra()
    mj = LInftyMorphism.identity(A).to_json()
    doc = {"version": 1, "source": A.to_json(), "target": A.to_json(),
           "fs": [mj] * count}
    assert cli.main(["fill-homotopy", write(tmp_path, "f.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("input error:")


@pytest.mark.parametrize("verb", sorted(cli.HANDLERS))
def test_every_verb_rejects_empty_document(verb, tmp_path, capsys):
    assert run([verb, write(tmp_path, "e.json", {})], capsys)[0] == 2


# ---------------------------------------------------------------------------
# loader fuzz: every malformed document ends in a documented exit code


def small_jobs():
    """A small valid document, and its extra arguments, for every verb."""
    A = pair_algebra()
    aj, ident = A.to_json(), LInftyMorphism.identity(A).to_json()
    h = constant_homotopy(LInftyMorphism.identity(A), weight_cap=3)
    m = JetMultivectorModel(2, 1, base_cap=1, fiber_cap=1)
    jet = {"model": m.to_json(), "P": mv_to_json(poisson_from_presymplectic(
        m, [[0, 1], [-1, 0]], {(1, 1): m.var("q1")}))}
    setup = {"version": 1, "m": 2, "k": 1, "base_cap": 2,
             "omega": [["0", "1"], ["-1", "0"]],
             "R": {"1,1": poly_to_json(
                 JetMultivectorModel(2, 1, base_cap=2).var("q1"))}}
    ring = JetRing(["q1"], 2)
    section = Section(ring, [ring.var("q1")]).to_json()
    forms = {"version": 1, "ring": JetRing(["q1", "q2"], 2).to_json(),
             "fol": ["q1", "q2"]}
    return {
        "check-linfty": (algebra_doc(), []),
        "check-mor": (morphism_doc(), []),
        "compose": ({"version": 1, "source": aj, "mid": aj, "target": aj,
                     "first": ident, "second": ident}, []),
        "cohomology": (algebra_doc(), []),
        "obstruction": (dict(morphism_doc(), K=1), []),
        "extend": (dict(morphism_doc(), K=1), []),
        "model-build": (dict(algebra_doc(), n=1), ["--cap-weight", "3"]),
        "model-verify": (dict(algebra_doc(), n=1), ["--cap-weight", "2"]),
        "homotopy-check": ({"version": 1, "source": aj, "target": aj,
                            "f0": ident, "f1": ident,
                            "homotopy": h.h.to_json()},
                           ["--cap-weight", "3"]),
        "fill-homotopy": ({"version": 1, "source": aj, "target": aj,
                           "fs": [ident, ident]}, []),
        "whitehead": (morphism_doc(), ["--cap-arity", "2"]),
        "model-over": (morphism_doc(), ["--cap-weight", "3"]),
        "valgebra-check": ({"version": 1, "jet": jet}, []),
        "derived-brackets": ({"version": 1, "jet": jet, "k_max": 2}, []),
        "poisson-build": (setup, []),
        "localize": (dict(setup, image_vars=["y1", "q1"], j_max=2,
                          k_max=2), []),
        "koszul": ({"version": 1, "section": section}, []),
        "primitive": (dict(forms, form={"q2|dq1": "1", "q1|dq2": "1"}), []),
        "augment": (dict(forms, fol=["q1"], k_max=2), []),
        "local-algebra": ({"version": 1, "section": section}, []),
        "expand": ({"version": 1, "section": section, "new_vars": ["q2"]},
                   []),
        "fooo-check": ({"version": 1, "section": section,
                        "ambient_section": section,
                        "bundle_map": [["1"]]}, []),
        "atlas-check": (atlas_doc(), []),
        "hypercover": (atlas_doc(m_max=1), []),
        "cocycle-build": (atlas_doc(m_max=1), []),
        "cocycle-check": (atlas_doc(m_max=1), []),
    }


SMALL_JOBS = small_jobs()

# every verb's small job, and the finite V-algebra form of the two
# V-algebra verbs
FUZZ_JOBS = [pytest.param(verb, doc, args, id=verb)
             for verb, (doc, args) in sorted(SMALL_JOBS.items())] + [
    pytest.param(verb, dict(extra, version=1,
                            valgebra=finite_binary_valgebra().to_json()),
                 [], id=verb + "-finite")
    for verb, extra in (("valgebra-check", {}),
                        ("derived-brackets", {"k_max": 3}))]

# one value of each wrong type; large integers are left to the guards
WRONG_VALUES = ["x", [], {}, None, 0.5, True, -1]


def field_paths(node, path=()):
    """The path of every field and list item below node."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def exit_cleanly(verb, doc, args, tmp):
    """Run a job; its exit code must be documented and stderr free of a
    traceback.  Exit 4 (internal error) is not accepted."""
    path = tmp / "job.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([verb, str(path)] + args)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


def test_small_jobs_pass(tmp_path):
    assert sorted(SMALL_JOBS) == sorted(cli.HANDLERS)
    for verb, (doc, args) in SMALL_JOBS.items():
        assert exit_cleanly(verb, doc, args, tmp_path)[0] == 0, verb


@pytest.mark.parametrize("verb, doc, args", FUZZ_JOBS)
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_loader_fuzz(verb, doc, args, data, tmp_path_factory):
    """Replace one field of a small valid document, at any depth, with a
    value of a wrong type."""
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    value = data.draw(st.sampled_from(WRONG_VALUES))
    exit_cleanly(verb, replaced(doc, path, value), args,
                 tmp_path_factory.getbasetemp())


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("verb, doc, args", FUZZ_JOBS)
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_unknown_field_fuzz(verb, doc, args, data, tmp_path_factory):
    """Add an unknown field to one object of a small valid document, at
    any depth.  Every reader is strict, and in an object keyed by data
    (a form, a splitting datum, a zero set) the key is malformed too."""
    objects = [path for path in [(), *field_paths(doc)]
               if isinstance(at(doc, path), dict)]
    path = data.draw(st.sampled_from(objects))
    doc = copy.deepcopy(doc)
    at(doc, path)["bogus"] = 1
    code, err = exit_cleanly(verb, doc, args, tmp_path_factory.getbasetemp())
    assert code == 2 and err.startswith("input error:"), path


@pytest.mark.parametrize("verb, sections", [
    pytest.param("koszul", ("section",), id="koszul"),
    pytest.param("local-algebra", ("section",), id="local-algebra"),
    pytest.param("expand", ("section",), id="expand"),
    pytest.param("fooo-check", ("section", "ambient_section"),
                 id="fooo-check"),
    pytest.param("fooo-check", ("ambient_section",),
                 id="fooo-check-ambient"),
    pytest.param("valgebra-check", (), id="valgebra-check"),
    pytest.param("derived-brackets", (), id="derived-brackets"),
])
def test_jet_cap_guard_in_every_loader(verb, sections, tmp_path):
    """A jet order or base cap above the guard is refused by the loader
    of every verb that reads one, before any work."""
    doc, args = SMALL_JOBS[verb]
    doc = copy.deepcopy(doc)
    for name in sections:
        doc[name]["ring"]["order"] = cli.GUARDS["jet"] + 1
    if not sections:
        doc["jet"]["model"]["base_cap"] = cli.GUARDS["jet"] + 1
    code, err = exit_cleanly(verb, doc, args, tmp_path)
    assert code == 3 and err.startswith("cap guard:")


@pytest.mark.parametrize("verb", ["poisson-build", "localize",
                                  "valgebra-check", "derived-brackets"])
def test_jet_model_size_is_guarded(verb, tmp_path):
    """A jet model builds its generator table when it is built: a model
    above the generator guard is refused before that."""
    doc, args = SMALL_JOBS[verb]
    size = {"m": 2, "k": 6, "base_cap": 8}
    if "jet" in doc:
        doc = dict(doc, jet={"model": size, "P": []})
    else:
        doc = dict(doc, R={}, **size)
    code, err = exit_cleanly(verb, doc, args, tmp_path)
    assert code == 3 and "generators, above the guard" in err


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(n=st.integers(1, 3), order=st.integers(0, 3), rank=st.integers(0, 3),
       f=st.integers(0, 3), v=st.integers(0, 2))
def test_complex_guard_predicts_the_size(n, order, rank, f, v):
    """The closed forms the complex guard reads are the dimensions of
    the complexes the verbs build."""
    names = ["q%d" % (i + 1) for i in range(n)]
    ring = JetRing(names, order)
    s = Section(ring, [ring.var(names[i % n]) for i in range(rank)])
    fol = names[:f]
    f = len(fol)
    assert cli.staircase_size(n, order, rank) == \
        koszul_complex(s).space.dim
    L = build_local_algebra(s)
    assert cli.local_size(n, order, rank) == L.algebra.space.dim
    assert cli.foliation_size(n, order, f) == \
        foliation_complex(ring, fol, augmented=True).space.dim == \
        augment_extension(foliation_complex(ring, fol), 1).space.dim
    L2, _ = expand_chart(L, ["z%d" % (i + 1) for i in range(v)])
    assert cli.local_size(n + v, order, rank + v) == L2.algebra.space.dim


def big_ring_job(verb, n, order):
    """The small job of a verb on a rank-1 section or on forms over n
    variables at a jet order."""
    doc, args = copy.deepcopy(SMALL_JOBS[verb])
    ring = JetRing(["q%d" % (i + 1) for i in range(n)], order)
    section = Section(ring, [ring.var("q1")]).to_json()
    for name in ("section", "ambient_section"):
        if name in doc:
            doc[name] = section
    if "ring" in doc:
        doc["ring"] = ring.to_json()
    return doc, args


@pytest.mark.parametrize("verb", ["koszul", "local-algebra", "expand",
                                  "fooo-check", "augment", "primitive"])
def test_ring_size_is_guarded(verb, tmp_path):
    """A complex over many variables is refused before it is built: the
    Koszul complex of a rank-1 section over 10 variables at order 8 has
    C(18, 8) + C(17, 7) = 63,206 generators."""
    doc, args = big_ring_job(verb, 10, 8)
    code, err = exit_cleanly(verb, doc, args, tmp_path)
    assert code == 3 and "generators, above the guard" in err
    if verb == "koszul":
        assert "63206 generators" in err


def renamed(old, new):
    """The edit of a document replacing the name old by new."""
    return lambda doc: json.loads(
        json.dumps(doc).replace(json.dumps(old), json.dumps(new)))


def with_new_vars(names):
    return lambda doc: dict(doc, new_vars=names)


@pytest.mark.parametrize("verb, job, edit", [
    ("augment", "augment-q1-in-q1q2-o4.json", renamed("q1", "q^1")),
    ("augment", "augment-q1-in-q1q2-o4.json", renamed("q1", "q|1")),
    ("koszul", "koszul-q1q2-o4.json", renamed("q1", "q^1")),
    ("local-algebra", "local-algebra-q1q2-o4.json", renamed("q2", "q.2")),
    ("expand", "expand-q1q2-by-q3.json", renamed("q1", "q|1")),
    ("expand", "expand-q1q2-by-q3.json", with_new_vars(["q3", "q3"])),
    ("expand", "expand-q1q2-by-q3.json", with_new_vars(["q1"])),
], ids=["augment-caret", "augment-bar", "koszul-caret", "local-algebra-dot",
        "expand-bar", "expand-repeated", "expand-present"])
def test_variable_name_the_label_codec_cannot_read_exits_two(
        verb, job, edit, tmp_path, capsys):
    """A variable name is an identifier, so the monomial|wedge codec,
    which splits on ".", "^" and "|", reads every label back, and the
    new variables of `expand` neither repeat nor name a variable of
    the ring: an input error (exit 2), not a failed check (exit 1)."""
    doc = json.loads((BENCH_JOBS / job).read_text())
    assert run([verb, write(tmp_path, "a.json", doc)], capsys)[0] == 0
    assert run([verb, write(tmp_path, "b.json", edit(doc))], capsys)[0] == 2


def test_expanded_ring_size_is_guarded(tmp_path):
    """The new variables of `expand` count: a local algebra within the
    guard whose expansion is not is refused."""
    doc, args = big_ring_job("expand", 3, 8)
    doc["new_vars"] = ["z1", "z2"]
    assert cli.local_size(3, 8, 1) <= cli.COMPLEX_GENERATORS \
        < cli.local_size(5, 8, 3)
    code, err = exit_cleanly("expand", doc, args, tmp_path)
    assert code == 3 and "expanded local algebra" in err


@pytest.mark.parametrize("verb", ["augment", "primitive"])
def test_duplicate_foliation_variable_exits_two(verb, tmp_path):
    """A foliation direction named twice would build a complex with a
    repeated generator: it is malformed input, not an internal error."""
    doc, args = SMALL_JOBS[verb]
    code, err = exit_cleanly(verb, dict(doc, fol=["q1", "q1"]), args,
                             tmp_path)
    assert code == 2 and err.startswith("input error:")


@pytest.mark.parametrize("label", ["z9|dq1", "q1dq2", "q1|dz7",
                                   "q1|dq2.dq2", "q1^x|dq2"])
def test_malformed_form_label_exits_two(label, tmp_path):
    """A form label outside the ring's codec is malformed input, not a
    failed primitive check or an internal error."""
    doc, args = SMALL_JOBS["primitive"]
    code, err = exit_cleanly("primitive", dict(doc, form={label: "1"}),
                             args, tmp_path)
    assert code == 2 and err.startswith("input error:")


@pytest.mark.parametrize("verb, path, value", [
    ("fill-homotopy", ("fs",), 5),
    ("primitive", ("form",), []),
    ("augment", ("k_max",), "a"),
    ("localize", ("j_max",), "a"),
    ("poisson-build", ("R",), []),
    ("poisson-build", ("base_cap",), "a"),
])
def test_malformed_documents_exit_two(verb, path, value, tmp_path):
    """Documents that escaped as a TypeError or AttributeError traceback
    before the loaders were put behind one boundary."""
    doc, args = SMALL_JOBS[verb]
    code, err = exit_cleanly(verb, replaced(doc, path, value), args,
                             tmp_path)
    assert code == 2 and err.startswith("input error:")


# ---------------------------------------------------------------------------
# malformed component blocks


def short_word_morphism_doc():
    """The identity on a two-generator algebra with l_1(a) = l_2(a, a)
    = b, plus an arity-2 block holding the one-letter word ["a"]."""
    A = LInftyAlgebra(GradedSpace([("a", 0), ("b", 1)]),
                      {1: {("a",): {"b": F(1)}}, 2: {("a", "a"): {"b": F(1)}}},
                      arity_cap=4)
    doc = {"version": 1, "source": A.to_json(), "target": A.to_json(),
           "morphism": LInftyMorphism.identity(A).to_json()}
    doc["morphism"]["comps"].append(
        {"arity": 2, "entries": [{"word": ["a"], "out": "a", "coeff": "1"}]})
    return doc


def test_short_word_morphism_exits_two(tmp_path):
    """The stray entry used to be stored under arity 2, never read, and
    the check passed."""
    code, err = exit_cleanly("check-mor", short_word_morphism_doc(), [],
                             tmp_path)
    assert code == 2 and err.startswith("input error:")


@pytest.mark.parametrize("arity", ["1", True, 1.0])
@pytest.mark.parametrize("verb", ["check-linfty", "check-mor"])
def test_non_integer_arity_exits_two(verb, arity, tmp_path):
    """A non-integer arity next to the integer arity-1 block used to
    replace that block's table after int(): the algebra lost l_1 and
    passed, the identity morphism lost f_1 and failed."""
    if verb == "check-linfty":
        doc = algebra_doc()
        doc["algebra"]["ops"].append({"arity": arity, "entries": []})
    else:
        doc = morphism_doc()
        doc["morphism"]["comps"].append(
            {"arity": arity,
             "entries": [{"word": ["x"], "out": "x", "coeff": "1"}]})
    code, err = exit_cleanly(verb, doc, [], tmp_path)
    assert code == 2 and err.startswith("input error:")


ALGEBRA_LEVELS = {
    "algebra": lambda alg: alg,
    "space": lambda alg: alg["space"],
    "generator": lambda alg: alg["space"]["generators"][0],
    "ops": lambda alg: alg["ops"][0],
    "entry": lambda alg: alg["ops"][0]["entries"][0],
}


@pytest.mark.parametrize("level", list(ALGEBRA_LEVELS))
def test_unknown_algebra_field_exits_two(level, tmp_path):
    """An unknown field anywhere in an algebra used to be ignored and
    the check passed; algebras are now parsed as strictly as
    morphisms."""
    doc = algebra_doc()
    ALGEBRA_LEVELS[level](doc["algebra"])["bogus"] = 1
    code, err = exit_cleanly("check-linfty", doc, [], tmp_path)
    assert code == 2 and err.startswith("input error:")
    assert "unknown field 'bogus'" in err
