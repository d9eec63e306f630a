"""The benchmark's job generator still runs against the library.

bench/make_jobs.py builds every job document with the public API.  It
is imported here without running its main(), so nothing is written;
each builder runs in memory and its documents must equal, byte for
byte, the files committed under bench/jobs/.
"""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_job_builders_reproduce_the_committed_documents():
    spec = importlib.util.spec_from_file_location(
        "make_jobs", BENCH / "make_jobs.py")
    make_jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_jobs)
    built = {}
    for _, build in make_jobs.WORKLOADS.values():
        for jid, _, doc, _, _, _ in build():
            assert jid not in built
            built[jid] = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    committed = {p.stem: p.read_text()
                 for p in (BENCH / "jobs").glob("*.json")}
    assert sorted(built) == sorted(committed)
    assert len(built) == 39
    for jid, text in built.items():
        assert text == committed[jid], jid
