"""linfkit job benchmark: time to verdict on fixed CLI job workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads, their job documents and
the verdict oracle live in ``bench/workloads.json`` and ``bench/jobs/``
(built by ``bench/make_jobs.py``).

Every pass is one fresh Python process (``bench/passrun.py``) that
imports ``linfkit.cli`` and calls ``linfkit.cli.main([verb, doc, ...])``
once per job: a closed loop with one client, one job at a time, and one
process at a time.  The first pass runs the jobs in the order
``workloads.json`` lists them; the seed shuffles the job order of every
later pass.
Passes repeat while another one is expected to end within
``--seconds``; at least one always runs.

With ``--trace 0`` the run reports the end-to-end metrics: ``pass_s``
(median over passes of the summed wall seconds of the workload's
``main`` calls: time to all verdicts), ``job_geomean_ms`` (median over
passes of the geometric mean of per-job wall ms), ``setup_s`` (median
over several processes of process start until ``linfkit.cli`` is
imported) and ``peak_rss_mb`` (``ru_maxrss`` of the first pass's
process; heap fragmentation makes a pass's peak depend on its job
order, from 33 to 47 MB on model-axioms, so it is taken in one fixed
order).  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
of ``bench/spans.py`` plus ``trace.overhead_ratio``, traced over
untraced median ``pass_s``.

Times are given at a reference machine speed.  On a shared host the
speed of pure-Python code drifts by tens of percent over minutes, which
would swamp the changes the benchmark exists to show.  So every process
also times ``passrun.probe``, a fixed exact elimination that does not
touch linfkit, and each of its times is multiplied by ``REF_PROBE_S``
over the probe's mean time in that process: seconds on a machine where
one probe takes ``REF_PROBE_S``.  A change to linfkit moves a scaled
time as much as the raw one; the raw times and the scale factors are in
the context line.

A job fails if its exit code differs from the oracle's, if its report's
sha256 differs from the recorded one, or if it raises; failures are
counted in ``failed`` out of ``attempted``.  The line before the last
holds the run context (Python, nproc, load averages, seed, job orders,
sample counts, per-job times and, when traced, the full span table).
The last line is the result object.
"""

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PASS = os.path.join(BENCH, "passrun.py")

SETUP_PROBES = 7
# seconds one passrun.probe takes at the reference speed
REF_PROBE_S = 0.004
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child(mode, work=None, jobs=None):
    """Start one pass process, wait for it and return its result."""
    argv = [sys.executable, PASS, "%.9f" % time.monotonic(), mode]
    if work is not None:
        argv.append(work)
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT)
    try:
        out, err = proc.communicate(
            json.dumps(jobs).encode() if jobs is not None else b"",
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s process exceeded %d s" % (mode, CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("%s process exited %d:\n%s"
                         % (mode, proc.returncode, err.decode()[-2000:]))
    return json.loads(out)


def load_workload(name):
    path = os.path.join(BENCH, "workloads.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "linfkit")):
        raise BenchError("no linfkit sources under %s" % ROOT)
    with open(path) as fh:
        spec = json.load(fh)
    if name not in spec["workloads"]:
        raise BenchError("unknown workload %r" % name)
    return spec["workloads"][name]["jobs"]


def job_argv(job):
    return [job["verb"], os.path.join(BENCH, job["doc"])] + job["args"]


def check_jobs(records, oracle):
    """Number of records that disagree with the oracle."""
    failed = 0
    for rec in records:
        want = oracle[rec["id"]]
        if rec["error"] is not None or rec["exit"] != want["expect_exit"] \
                or rec["sha256"] != want["report_sha256"]:
            failed += 1
    return failed


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def scale(res):
    """Factor that takes a time measured in this child process to the
    reference speed."""
    return REF_PROBE_S / statistics.fmean(res["probe_s"])


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args):
    jobs = load_workload(args.workload)
    oracle = {job["id"]: job for job in jobs}
    rng = random.Random(args.seed)
    context = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "python": platform.python_version(),
               "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}
    work = os.path.join(BENCH, ".work", str(os.getpid()))
    os.makedirs(work)
    try:
        child("setup")  # writes bytecode caches; not measured
        setups = [child("setup") for _ in range(SETUP_PROBES)]
        passes = {"pass": [], "traced": []}
        orders = []
        modes = ["pass", "traced"] if args.trace else ["pass"]
        # stop before a further round would overrun --seconds
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for mode in modes:
                order = list(jobs)
                if passes["pass"] or mode != "pass":
                    rng.shuffle(order)
                orders.append([job["id"] for job in order])
                res = child(mode, work, [{"id": job["id"],
                                          "argv": job_argv(job)}
                                         for job in order])
                setups.append(res)
                passes[mode].append(res)
            now = time.monotonic()
            if (now - start) + (now - round_start) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    context["loadavg_end"] = os.getloadavg()

    done = passes["pass"] + passes["traced"]
    attempted = sum(len(p["jobs"]) for p in done)
    failed = sum(check_jobs(p["jobs"], oracle) for p in done)
    pass_s = statistics.median(p["pass_s"] * scale(p)
                               for p in passes["pass"])
    context.update({
        "samples": {mode: len(res) for mode, res in passes.items()},
        "setup_samples": len(setups),
        "failed_share": failed / attempted,
        "job_orders": orders,
        "raw_pass_s": {mode: [p["pass_s"] for p in res]
                       for mode, res in passes.items()},
        "scale": {mode: [scale(p) for p in res]
                  for mode, res in passes.items()},
        "peak_rss_mb": [p["peak_rss_mb"] for p in done],
        "raw_setup_s": [r["setup_s"] for r in setups],
        "setup_scale": [scale(r) for r in setups],
        "job_ms": {job["id"]: [rec["ms"] for p in done for rec in p["jobs"]
                               if rec["id"] == job["id"]] for job in jobs},
        "errors": [rec["error"] for p in done for rec in p["jobs"]
                   if rec["error"]],
    })
    if args.trace:
        traced = passes["traced"]
        metrics = {name: metric(statistics.median(
                       p["layers"][name]["value"]
                       * (scale(p) if m["unit"] == "s" else 1.0)
                       for p in traced), m["unit"])
                   for name, m in traced[0]["layers"].items()}
        metrics["trace.overhead_ratio"] = metric(statistics.median(
            p["pass_s"] * scale(p) for p in traced) / pass_s, "ratio")
        context["spans"] = traced[-1]["spans"]
    else:
        metrics = {
            "pass_s": metric(pass_s, "s"),
            "job_geomean_ms": metric(statistics.median(
                geomean([rec["ms"] for rec in p["jobs"]]) * scale(p)
                for p in passes["pass"]), "ms"),
            "setup_s": metric(statistics.median(
                r["setup_s"] * scale(r) for r in setups), "s"),
            "peak_rss_mb": metric(passes["pass"][0]["peak_rss_mb"], "MB"),
        }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
