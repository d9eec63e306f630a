"""Command line front end: exit codes, strict input parsing, cap
guards, report determinism, and output plumbing."""

import json

from fractions import Fraction as F

import pytest

from linfkit import cli
from linfkit.gradedlin import CapError, GradedSpace
from linfkit.linfty import LInftyAlgebra, LInftyMorphism
from linfkit.derived import (JetMultivectorModel, mv_to_json, poly_to_json,
                             poisson_from_presymplectic)
from linfkit.koszul import JetRing, Section
from linfkit.simplexmodel import SimplexCapError

from test_atlas import three_chart_atlas


# ---------------------------------------------------------------------------
# fixtures


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


def test_malformed_scalar_exits_two(tmp_path, capsys):
    doc = algebra_doc()
    doc["algebra"]["ops"][0]["entries"][0]["coeff"] = "1/0"
    assert run(["check-linfty", write(tmp_path, "a.json", doc)],
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


def test_cap_guard_exits_three(tmp_path, capsys):
    path = write(tmp_path, "a.json", algebra_doc())
    assert run(["check-linfty", path, "--cap-arity", "9"],
               capsys)[0] == 3
    assert run(["check-linfty", path, "--cap-weight", "20"],
               capsys)[0] == 3
    assert run(["check-linfty", path, "--cap-jet", "9"],
               capsys)[0] == 3


def test_simplex_cap_guard_exits_three(tmp_path, capsys):
    doc = {"version": 1, "algebra": pair_algebra().to_json(), "n": 5}
    assert run(["model-build", write(tmp_path, "a.json", doc)],
               capsys)[0] == 3


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


def test_extend_verb_returns_extension(tmp_path, capsys):
    doc = morphism_doc()
    doc["K"] = 2
    code, out = run(["extend", write(tmp_path, "a.json", doc)], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["obstruction"]["exact"] is True
    assert "morphism" in result


def test_fill_homotopy_verb_builds_cylinder(tmp_path, capsys):
    A = pair_algebra()
    mj = LInftyMorphism.identity(A).to_json()
    doc = {"version": 1, "source": A.to_json(), "target": A.to_json(),
           "fs": [mj, mj]}
    code, out = run(["fill-homotopy", write(tmp_path, "a.json", doc)],
                    capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


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


@pytest.mark.parametrize("error", [CapError, SimplexCapError])
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


@pytest.mark.parametrize("verb", sorted(cli.HANDLERS))
def test_every_verb_rejects_empty_document(verb, tmp_path, capsys):
    assert run([verb, write(tmp_path, "e.json", {})], capsys)[0] == 2
