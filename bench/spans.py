"""Span tracing for the benchmark, applied from outside the program.

``Tracer.install`` replaces each function or method named in ``TARGETS``
with a wrapper that records one span per call: name, start, end, parent
span and job id.  A name bound by ``from .gradedlin import ...`` is a
separate binding in every module that imports it, so every binding in
every loaded ``linfkit`` module that refers to the original is
replaced.  Spans stay in memory until ``summary`` reduces them.

A span's self time is its duration minus the time its direct child
spans cover.  Inclusive time counts only the outermost span of a name,
so a name that re-enters itself is not counted twice.  Size counters
are taken from each call's arguments and result after the call ends;
that work falls in the parent span's self time and in the traced run's
overhead, never in the span itself.
"""

import functools
import sys
import time


def _rref(tracer, result, rows):
    return {"cells": len(rows) * len(rows[0]) if rows else 0}


def _complement_in(tracer, result, amb_basis, sub_basis):
    return {"candidates": len(amb_basis), "kept": len(result)}


def _cohomology(tracer, result, d):
    key = (tuple((lab, d.source.deg[lab]) for lab in d.source.labels),
           frozenset(d.entries.items()))
    seen = tracer.job_seen.setdefault("cohomology", set())
    repeat = key in seen
    seen.add(key)
    return {"repeats": int(repeat)}


def _solve_sparse(tracer, result, rows, rhs, ncols):
    return {"unknowns": ncols, "equations": len(rows),
            "nnz": sum(len(r) for r in rows), "solved": int(result is not None)}


def _compose_map(tracer, result, self, other):
    return {"entry_pairs": len(self.entries) * len(other.entries)}


def _sym_words(tracer, result, space, k):
    return {"words": len(result)}


def _checked_words(tracer, result, *args, **kwargs):
    return {"words": result.checked}


def _checked(tracer, result, *args, **kwargs):
    return {"checked": result.checked}


# (module, attribute path, size counter): every span the traced run records.
# A class name alone stands for its constructor.
TARGETS = [
    ("cli", "main", None),
    ("cli", "run_job", None),
    ("gradedlin", "rref", _rref),
    ("gradedlin", "in_span", None),
    ("gradedlin", "complement_in", _complement_in),
    ("gradedlin", "nullspace", None),
    ("gradedlin", "solve_canonical", None),
    ("gradedlin", "cohomology", _cohomology),
    ("gradedlin", "solve_sparse", _solve_sparse),
    ("gradedlin", "GradedMap.compose", _compose_map),
    ("gradedlin", "sym_words", _sym_words),
    ("gradedlin", "dumps_canonical", None),
    ("linfty", "codifferential_hat", None),
    ("linfty", "check_relations", _checked_words),
    ("linfty", "check_morphism", _checked_words),
    ("linfty", "l1_cohomology", None),
    ("linfty", "is_quasi_iso", None),
    ("linfty", "compose", None),
    ("linfty", "extend_morphism", None),
    ("simplexmodel", "SimplexModel", None),
    ("simplexmodel", "verify_model_axioms", _checked),
    ("htpy", "LinearSystem.solve", None),
    ("htpy", "FillingModel.verify", None),
    ("htpy", "WhiteheadCertificate.verify", None),
    ("htpy", "model_morphism_over", None),
    ("htpy", "fill_n_homotopy", None),
    ("htpy", "whitehead_inverse", None),
    ("koszul", "expand_chart", None),
    ("koszul", "fooo_embedding_check", None),
    ("koszul", "koszul_complex", None),
    ("koszul", "koszul_cohomology", None),
    ("koszul", "build_local_algebra", None),
    ("koszul", "augment_extension", None),
    ("atlas", "build_hypercovering", None),
    ("atlas", "build_cocycle", None),
    ("atlas", "check_cocycle", None),
    ("derived", "derived_brackets", None),
    ("derived", "poisson_from_presymplectic", None),
    ("derived", "check_valgebra", None),
    ("derived", "localized_algebra", None),
]


def _ratio(num, den):
    return num / den if den else 0.0


def _span(name, field):
    return lambda summ, cnt: summ[name][field]


def _count(name, field):
    return lambda summ, cnt: cnt[name].get(field, 0)


def _share(name, num, den):
    return lambda summ, cnt: _ratio(cnt[name].get(num, 0),
                                    cnt[name].get(den, 0))


def _share_of_calls(name, num):
    return lambda summ, cnt: _ratio(cnt[name].get(num, 0),
                                    summ[name]["calls"])


def _layer_metrics():
    """The per-layer metrics the traced run reports, as (metric name,
    unit, function of (span summary, size counters) giving the value)."""
    out = []

    def add(name, *fields):
        for field in fields:
            unit = {"calls": "count", "s": "s", "self_s": "s"}[field]
            out.append(("%s.%s" % (name, field), unit, _span(name, field)))

    def count(name, field):
        out.append(("%s.%s" % (name, field), "count", _count(name, field)))

    add("gradedlin.rref", "calls", "self_s")
    count("gradedlin.rref", "cells")
    add("gradedlin.in_span", "calls", "s")
    add("gradedlin.complement_in", "calls", "s")
    out.append(("gradedlin.complement_in.kept_ratio", "ratio",
                _share("gradedlin.complement_in", "kept", "candidates")))
    add("gradedlin.nullspace", "calls", "s")
    add("gradedlin.solve_canonical", "calls", "s")
    add("gradedlin.cohomology", "calls", "s")
    out.append(("gradedlin.cohomology.repeat_ratio", "ratio",
                _share_of_calls("gradedlin.cohomology", "repeats")))
    add("gradedlin.solve_sparse", "calls", "s")
    for field in ("unknowns", "equations", "nnz"):
        count("gradedlin.solve_sparse", field)
    out.append(("gradedlin.solve_sparse.solved_ratio", "ratio",
                _share_of_calls("gradedlin.solve_sparse", "solved")))
    add("htpy.LinearSystem.solve", "calls", "s")
    add("gradedlin.GradedMap.compose", "calls", "s")
    count("gradedlin.GradedMap.compose", "entry_pairs")
    add("gradedlin.sym_words", "calls")
    count("gradedlin.sym_words", "words")
    add("linfty.codifferential_hat", "s")
    add("linfty.check_relations", "s")
    count("linfty.check_relations", "words")
    add("linfty.check_morphism", "s")
    count("linfty.check_morphism", "words")
    add("htpy.FillingModel.verify", "s")
    add("htpy.WhiteheadCertificate.verify", "s")
    add("linfty.l1_cohomology", "calls", "s")
    add("linfty.is_quasi_iso", "calls", "s")
    add("simplexmodel.SimplexModel", "s")
    add("simplexmodel.verify_model_axioms", "s")
    count("simplexmodel.verify_model_axioms", "checked")
    for name in ("htpy.model_morphism_over", "koszul.expand_chart",
                 "koszul.fooo_embedding_check"):
        add(name, "s")
    add("htpy.fill_n_homotopy", "calls", "s")
    for name in ("htpy.whitehead_inverse", "atlas.build_hypercovering",
                 "atlas.build_cocycle", "atlas.check_cocycle",
                 "derived.derived_brackets",
                 "derived.poisson_from_presymplectic",
                 "derived.check_valgebra", "derived.localized_algebra",
                 "koszul.koszul_complex", "koszul.koszul_cohomology",
                 "koszul.build_local_algebra", "koszul.augment_extension",
                 "linfty.compose", "linfty.extend_morphism", "cli.run_job",
                 "gradedlin.dumps_canonical"):
        add(name, "s")
    add("cli.main", "self_s")
    return out


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Records spans around the calls named in ``TARGETS``."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counters = {}
        self.job = None
        self.job_seen = {}
        self._stack = [-1]
        self._active = {}
        self._patched = []

    def start_job(self, job):
        self.job = job
        self.job_seen = {}

    def _wrap(self, name, fn, counter):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        counts = self.counters.setdefault(name, {})
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            depth = active.get(name, 0)
            active[name] = depth + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[name] = depth
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.job, depth == 0)
            if counter is not None:
                for key, val in counter(tracer, result, *args,
                                        **kwargs).items():
                    counts[key] = counts.get(key, 0) + val
            return result

        wrapper.bench_span = name
        return wrapper

    def install(self):
        """Wrap every target at every binding in the loaded linfkit
        modules.  Returns {span name: original function}."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "linfkit" or n.startswith("linfkit."))
                   and m is not None]
        originals = {}
        for modname, path, counter in TARGETS:
            name = "%s.%s" % (modname, path)
            mod = sys.modules["linfkit." + modname]
            parts = path.split(".")
            if len(parts) == 2:
                owner, attr = getattr(mod, parts[0]), parts[1]
            elif isinstance(getattr(mod, path), type):
                owner, attr = getattr(mod, path), "__init__"
            else:
                owner, attr = None, path
            if owner is not None:
                orig = owner.__dict__[attr]
                wrapped = self._wrap(name, orig, counter)
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
            else:
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, counter)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, key, orig))
                            setattr(m, key, wrapped)
            self.names.append(name)
            originals[name] = orig
        return originals

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def summary(self):
        """{span name: {"calls", "s", "self_s"}} over all recorded spans
        (inclusive seconds count only outermost spans of a name)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            rec = out[span[0]]
            dur = span[2] - span[1]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if span[5]:
                rec["s"] += dur
        return out

    def layer_metrics(self):
        summ = self.summary()
        return {name: {"value": fn(summ, self.counters), "unit": unit}
                for name, unit, fn in LAYER_METRICS}
