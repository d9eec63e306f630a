"""Self-test of the benchmark's tracing and verdict oracle.

    python3 bench/selftest.py

1. Trace coverage: one job per workload runs with the tracer installed,
   under cProfile.  cProfile counts every execution of each wrapped
   function's code, whichever binding called it; the tracer counts only
   calls through its wrappers.  The two counts must be equal for every
   wrapped function, so a binding the tracer failed to patch shows up
   as a shortfall.
2. The tracer leaves no wrapper bound once uninstalled.
3. The oracle catches failures: the expected-fail jobs exit 1, and a
   record with a flipped exit code, a changed report or an exception is
   counted as failed.
4. ``BENCHMARK.json`` lists exactly the per-layer metrics a traced run
   reports.

Exits 0 when every check holds, 1 otherwise.
"""

import cProfile
import json
import os
import pstats
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import linfkit.cli  # noqa: E402

from passrun import run_pass  # noqa: E402
from run import check_jobs, job_argv, load_workload  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402

# one job per workload, chosen to reach that workload's dominant layers
COVERAGE_JOBS = {
    "model-axioms": "expand-q1q2-by-q3",
    "homotopy-fill": "whitehead-sign",
    "relations-brackets": "check-linfty-koszul-q1q2q3-o3",
}
EXPECTED_FAIL = ("check-linfty-broken", "primitive-not-closed")


def pick(workload, ids):
    return [job for job in load_workload(workload) if job["id"] in ids]


def coverage(work):
    tracer = Tracer()
    originals = tracer.install()
    jobs = [job for w, jid in COVERAGE_JOBS.items() for job in pick(w, jid)]
    profile = cProfile.Profile()
    profile.enable()
    try:
        _, records, _ = run_pass(lambda argv: linfkit.cli.main(argv),
                              [{"id": j["id"], "argv": job_argv(j)}
                               for j in jobs], work, tracer)
    finally:
        profile.disable()
        tracer.uninstall()
    stats = pstats.Stats(profile).stats
    summary = tracer.summary()
    problems = []
    exercised = 0
    for name, fn in originals.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled = stats[key][1] if key in stats else 0
        traced = summary[name]["calls"]
        exercised += traced > 0
        if profiled != traced:
            problems.append("%s: cProfile %d calls, traced %d"
                            % (name, profiled, traced))
    problems += ["%s not restored" % name for name in leftover_wrappers()]
    oracle = {j["id"]: j for j in jobs}
    if check_jobs(records, oracle):
        problems.append("coverage jobs disagree with the oracle")
    print("coverage: %d wrapped functions, %d exercised, %d mismatches"
          % (len(originals), exercised, len(problems)))
    return problems


def leftover_wrappers():
    """Names in the loaded linfkit modules, and in their classes, that
    are still bound to a tracing wrapper."""
    out = []
    for modname, module in sorted(sys.modules.items()):
        if module is None or not modname.startswith("linfkit"):
            continue
        for attr, val in vars(module).items():
            if hasattr(val, "bench_span"):
                out.append("%s.%s" % (modname, attr))
            if isinstance(val, type) and val.__module__ == modname:
                out += ["%s.%s.%s" % (modname, attr, key)
                        for key, v in vars(val).items()
                        if hasattr(v, "bench_span")]
    return out


def oracle_catches_failures(work):
    problems = []
    jobs = [job for w in ("relations-brackets",)
            for job in pick(w, EXPECTED_FAIL)]
    oracle = {j["id"]: j for j in jobs}
    _, records, _ = run_pass(lambda argv: linfkit.cli.main(argv),
                          [{"id": j["id"], "argv": job_argv(j)}
                           for j in jobs], work, None)
    if any(rec["exit"] != 1 for rec in records):
        problems.append("an expected-fail job did not exit 1")
    if check_jobs(records, oracle):
        problems.append("expected-fail jobs disagree with the oracle")
    for field, bad in (("exit", 0), ("sha256", "0" * 64),
                       ("error", "Traceback")):
        for rec in records:
            if check_jobs([dict(rec, **{field: bad})], oracle) != 1:
                problems.append("oracle missed a changed %s on %s"
                                % (field, rec["id"]))
    print("oracle: %d expected-fail jobs, %d problems"
          % (len(records), len(problems)))
    return problems


def per_layer_listed():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    reported = [name for name, _, _ in LAYER_METRICS]
    reported.append("trace.overhead_ratio")
    if listed != reported:
        return ["BENCHMARK.json per_layer differs from the traced metrics"]
    return []


def main():
    work = os.path.join(BENCH, ".work", "selftest")
    os.makedirs(work, exist_ok=True)
    try:
        problems = (coverage(work) + oracle_catches_failures(work)
                    + per_layer_listed())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    for line in problems:
        print("FAIL", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
