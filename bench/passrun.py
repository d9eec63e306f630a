"""One benchmark pass in a fresh Python process; started by run.py.

    python3 bench/passrun.py SPAWN_TIME MODE [WORK_DIR]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` spans process start until ``linfkit.cli`` is
imported.  MODE is ``setup`` (stop there), ``pass`` or ``traced``.  For a
pass, stdin holds the jobs as a JSON list of {"id", "argv"} in run
order; each is run through ``linfkit.cli.main`` with its report written
under WORK_DIR.  One JSON object goes to stdout.

Every process also times ``probe``, a fixed computation that does not
touch linfkit, so run.py can scale its times to a reference machine
speed: in a pass, before each job and after the last, outside the
job's timing; in a setup process, after ``setup_s`` is taken.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# probe repetitions timed together at each probe point
PROBE_REPS = 4


def probe():
    """Time one exact Gauss-Jordan elimination of a fixed 9 x 12
    ``Fraction`` matrix: the machine's current speed at the kind of
    pure-Python exact arithmetic linfkit does, measured without linfkit."""
    t0 = time.perf_counter()
    n, m = 9, 12
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
             for j in range(m)] for i in range(n)]
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return time.perf_counter() - t0


def probe_point():
    """Seconds per probe, averaged over ``PROBE_REPS`` probes."""
    return sum(probe() for _ in range(PROBE_REPS)) / PROBE_REPS


def run_pass(cli_main, jobs, work, tracer):
    """Run the jobs in order; return (pass seconds, per-job records,
    probe seconds).  Pass seconds are the sum of the jobs' wall times,
    so the probes between jobs are not counted."""
    records = []
    probes = []
    for job in jobs:
        probes.append(probe_point())
        out = os.path.join(work, job["id"] + ".report")
        if tracer is not None:
            tracer.start_job(job["id"])
        code, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(job["argv"] + ["--out", out])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            error = traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        records.append({"id": job["id"], "ms": (t1 - t0) * 1000.0,
                        "exit": code, "error": error})
    for rec in records:
        path = os.path.join(work, rec["id"] + ".report")
        try:
            with open(path, "rb") as fh:
                rec["sha256"] = hashlib.sha256(fh.read()).hexdigest()
            os.remove(path)
        except OSError:
            rec["sha256"] = None
    probes.append(probe_point())
    return sum(rec["ms"] for rec in records) / 1000.0, records, probes


def main():
    spawn, mode = float(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, SRC)
    import linfkit.cli
    result = {"setup_s": time.monotonic() - spawn}
    if mode == "setup":
        result["probe_s"] = [probe_point()]
    else:
        jobs = json.load(sys.stdin)
        tracer = None
        if mode == "traced":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        # look cli.main up per call, so the traced run times its wrapper
        result["pass_s"], result["jobs"], result["probe_s"] = run_pass(
            lambda argv: linfkit.cli.main(argv), jobs, sys.argv[3], tracer)
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["spans"] = tracer.summary()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
