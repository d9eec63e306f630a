"""Pinned reports of the two arity-4 refusals of the bench documents.

`whitehead` on whitehead-sum.json and `fill-homotopy` on
fill-edge-between-pairs.json pass at arity 3 and refuse at arity 4: a
linear stage there has no solution.  Their exit code alone does not show
which stage refused or with what message, and a change to the linear
stages could move either while keeping exit 1.  So each refusal's report
is run through `cli.main` and compared with a recorded sha256.
"""

import hashlib
from pathlib import Path

import pytest

from linfkit import cli

JOBS = Path(__file__).resolve().parents[1] / "bench" / "jobs"

REFUSALS = {
    ("whitehead", "whitehead-sum.json"):
        "809b32f00a0b969094e10d35d29660b8d7ac3343b1466d745ec3c3dbceab65f9",
    ("fill-homotopy", "fill-edge-between-pairs.json"):
        "baf0e50e641e8a87ded71d47e7ef926b1734a9da20798a64a7945b6ed2776f70",
}


@pytest.mark.parametrize("verb,doc", sorted(REFUSALS))
def test_arity_four_refusal_report_is_pinned(verb, doc, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main([verb, str(JOBS / doc), "--cap-arity", "4",
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        REFUSALS[verb, doc]
