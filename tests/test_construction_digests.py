"""Pinned digests of the full constructions behind the homotopy verbs.

The `fill-homotopy`, `whitehead` and `model-over` reports omit most of
what they build: a fill report names no cylinder operation and no
evaluation map, and a Whitehead report omits the homotopy, the interval
model and the reverse filling.  A `model-verify` report holds only
pass or fail, and none of the tensor model's tables.  A refactor of the linear stages could
change any of them and keep every report byte.  So this test builds
each construction of the bench documents at two tie-break seeds and
compares a sha256 of its canonical JSON with a recorded value:

- fill: the cylinder algebra, every evaluation, the inclusion of
  constants and the filling homotopy, edge fills included;
- whitehead: the inverse g, the homotopy h, the interval model (algebra,
  both evaluations, inclusion) and the reverse filling;
- model-over: the model morphism F;
- tensor: the tensor model of a model document (algebra, every face
  evaluation, the inclusion of constants, and at n = 2 the face
  model's own).

Seed 0 is the canonical solution and seed 3 a scrambled tie-break, so
both the column order of every stage (each unknown's canonical
position, and LinearSystem's scramble of it at seed 3) and the row
space are pinned.  The tensor model solves nothing, so it is pinned at
seed 0 only.
"""

import hashlib
import json
from pathlib import Path

import pytest

from linfkit import cli, htpy
from linfkit.gradedlin import dumps_canonical

JOBS = Path(__file__).resolve().parents[1] / "bench" / "jobs"


def caps(seed, weight=None):
    return {"arity": None, "jet": None, "weight": weight, "simp": None,
            "seed": seed}


def load(name, loader, c):
    return loader(json.loads((JOBS / name).read_text()), c)


def filling_json(model):
    doc = {"algebra": model.algebra.to_json(),
           "evals": {htpy._jtag(J): model.evals[J].to_json()
                     for J in model.face_keys()},
           "incl": model.incl.to_json(),
           "hbar": model.hbar.to_json()}
    if model.n == 2:
        doc["edges"] = {htpy._jtag(J): filling_json(model.boundary[J])
                        for J in model.face_keys()}
    return doc


def fill_doc(name, seed):
    fs, = load(name, cli.load_fill, caps(seed))
    return filling_json(htpy.fill_n_homotopy(fs, K=2, tie_break=seed))


def whitehead_doc(name, seed):
    f, = load(name, cli.load_three_part, caps(seed))
    cert = htpy.whitehead_inverse(f, K=3, tie_break=seed)
    model = cert.model
    return {"g": cert.g.to_json(), "h": cert.homotopy.to_json(),
            "model": {"algebra": model.algebra.to_json(),
                      "ev0": model.eval_vertex(0).to_json(),
                      "ev1": model.eval_vertex(1).to_json(),
                      "incl": model.incl.to_json()},
            "reverse": None if cert.reverse is None
            else filling_json(cert.reverse),
            "notes": cert.notes}


def model_over_doc(name, seed):
    _, f, m1, m2 = load(name, cli.load_model_over, caps(seed, weight=8))
    return htpy.model_morphism_over(f, m1, m2, K=2,
                                    tie_break=seed).to_json()


def tensor_json(model):
    doc = {"algebra": model.algebra.to_json(),
           "evals": {str(i): model.eval_face(i).to_json()
                     for i in range(model.n + 1)},
           "incl": model.incl.to_json()}
    if model.n == 2:
        doc["face"] = tensor_json(model.face_model())
    return doc


def tensor_doc(name, seed):
    """The model at the weight cap its name states (-w6, -w8); the
    tensor model solves nothing, so the seed is unused."""
    weight = int(Path(name).stem.rsplit("-w", 1)[1])
    model, = load(name, cli.load_model, caps(seed, weight=weight))
    return tensor_json(model)


BUILD = {"fill": fill_doc, "whitehead": whitehead_doc,
         "model-over": model_over_doc, "tensor": tensor_doc}

DIGESTS = {
    ("fill", "fill-edge-id-id", 0):
        "a3bc5d62a8a3ab5b4275069dc74ea31c3c0e4455a6fc7abd06b7f8a59e4077da",
    ("fill", "fill-edge-id-id", 3):
        "a4fae45f526d4a99948ecde9b3b9a93af28070c1a3b0148480ba36a057eb7868",
    ("fill", "fill-edge-id-sign", 0):
        "05ced5acfbe1548d51a7610a7e4bc20e30042af07054d506f8b20cf16a7a867a",
    ("fill", "fill-edge-id-sign", 3):
        "26cee8c8c9151fcb658e9d930c68250d91e00c1bb8f9328caf8a2e67454b64dc",
    ("fill", "fill-edge-between-pairs", 0):
        "154524308a1d455b02ea96d764332f166f4470e72a45403af0f58503b4d6c4c7",
    ("fill", "fill-edge-between-pairs", 3):
        "821e4ae9a0231dfeadbcd5281c7dd5cbfc6a933e0b19f1dd25f377984886bca9",
    ("fill", "fill-triangle", 0):
        "c0ac68b012e23c5f12128bf93c7df88fe4b4c7669988a831e68c137bec20990f",
    ("fill", "fill-triangle", 3):
        "428b4a971494c264f458354648cf633f73f89401442c15124f6bfe7b3253605c",
    ("whitehead", "whitehead-identity", 0):
        "ca126cab57edd1f5aafe2931812452b06b33715bdb2fafca25cc42c94d6834b2",
    ("whitehead", "whitehead-identity", 3):
        "62692d67675ac06beb96a7ec4489644aedc9bb91e1f67993f4b09e12a57e9bfc",
    ("whitehead", "whitehead-between-pairs", 0):
        "5e8c4e02a35e5a002562dc152341e7953f2918a78f2d5b438e3807b9dfc16da1",
    ("whitehead", "whitehead-between-pairs", 3):
        "706db008a414ba7698883a8648dfbe73e801539c3a815f0bd048beeaf3647319",
    ("whitehead", "whitehead-sign", 0):
        "f1a68015c5830af564fcd017549a5e9ef0ff4a0f56822192270dfaa09a2801d2",
    ("whitehead", "whitehead-sign", 3):
        "62692d67675ac06beb96a7ec4489644aedc9bb91e1f67993f4b09e12a57e9bfc",
    ("whitehead", "whitehead-sum", 0):
        "876f6fbe01a699d5376bd48c2076246fbb39dc0e0207189e403bb9361559b78a",
    ("whitehead", "whitehead-sum", 3):
        "a2aa7e88a2c5d93005527f3f4ce728781ed5f1064556946d5e5feae51089f30a",
    ("whitehead", "whitehead-composite", 0):
        "ca126cab57edd1f5aafe2931812452b06b33715bdb2fafca25cc42c94d6834b2",
    ("whitehead", "whitehead-composite", 3):
        "62692d67675ac06beb96a7ec4489644aedc9bb91e1f67993f4b09e12a57e9bfc",
    ("model-over", "model-over-pair-identity", 0):
        "9545f3729d674df0e0a4d751d352257682d12356295db3b7da18070974eb3960",
    ("model-over", "model-over-pair-identity", 3):
        "20631d23ef1807478d3351fcac7cf1992d4a4e624c623e67d1429af262191684",
    ("tensor", "model-verify-n1-w6", 0):
        "96c27eaddad7c2d1655cc839c069f9e3703463b058e030c67629590a2de8057a",
    ("tensor", "model-verify-n1-w8", 0):
        "016e1067b76a550a9c95c909c8b66b5d6ecb95993ca6d275926d9197786faa57",
    ("tensor", "model-verify-n2-w6", 0):
        "919082dcd9486ea830f97b220c90eb8cb86c9c701c9e8c8672012a953ea3bdca",
    ("tensor", "model-build-n2-w8", 0):
        "6dcb23b375459385d7549cb0a5918570341b0086b14c7cb4a2e46640f72adeb7",
}


@pytest.mark.parametrize("kind, name, seed", sorted(DIGESTS))
def test_construction_digest(kind, name, seed):
    text = dumps_canonical(BUILD[kind](name + ".json", seed))
    got = hashlib.sha256(text.encode()).hexdigest()
    assert got == DIGESTS[(kind, name, seed)]
