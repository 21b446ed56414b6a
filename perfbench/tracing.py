"""Spans around torusflow's public functions, recorded from outside the package.

`Tracer` replaces each target function with a wrapper at every place the
function object is bound: its home module, every torusflow module that
imported it by name (`from .metrics import geodesic_accel`), and the class
for a method.  Each call becomes a span (name, start, end, parent) kept in
memory; `restore()` puts the original objects back.  Some wrappers also
record work taken from the call's arguments or result, such as the number
of points evaluated or the steps a curve-shortening run took.
"""
import functools
import gzip
import inspect
import json
import sys
import time

import numpy as np


def _points(fn, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return (np.size(x),)


def _member_steps(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    return (len(a["states"]) * int(round(a["T"] / a["h"])),)


def _first_len(fn, args, kwargs, result):
    return (len(result[0]),)


def _evolve_work(fn, args, kwargs, result):
    return (result.steps, result.halvings)


def _value(fn, args, kwargs, result):
    return (result,)


# (span name, module, attribute, work) where work maps (function, args,
# kwargs, result) to a tuple of numbers summed over the calls; a dotted
# attribute names a method
TARGETS = (
    ("metrics.geodesic_accel", "metrics", "geodesic_accel", _points),
    ("metrics.fields", "metrics", "MetricSpec.fields", _points),
    ("metrics.gauss_curvature_batch", "metrics", "gauss_curvature_batch",
     _points),
    ("flow.integrate", "flow", "integrate", None),
    ("flow.integrate_batch", "flow", "integrate_batch", _member_steps),
    ("flow.integrate_rays", "flow", "integrate_rays", None),
    ("segments.crossings", "segments", "crossings", _first_len),
    ("segments.candidate_pairs", "segments", "_candidate_pairs", _first_len),
    ("segments.refine_hermite", "segments", "_refine_hermite", None),
    ("cover.self_intersections", "cover", "self_intersections", None),
    ("cover.translate_intersections", "cover", "translate_intersections",
     None),
    ("cover.intersection_census", "cover", "intersection_census", None),
    ("cover.asymptotic_direction", "cover", "asymptotic_direction", None),
    ("cover.fit_strip", "cover", "fit_strip", None),
    ("shortening.evolve", "shortening", "evolve", _evolve_work),
    ("axes.find_minimal_axis", "axes", "find_minimal_axis", None),
    ("axes.shoot_closed_geodesic", "axes", "shoot_closed_geodesic", None),
    ("axes.grid_shortest_class_length", "axes", "grid_shortest_class_length",
     None),
    ("entropy.sample_phase_points", "entropy", "sample_phase_points", None),
    ("entropy.probe_trajectories", "entropy", "probe_trajectories", None),
    ("entropy.separated_count", "entropy", "separated_count", _value),
    ("entropy.pair_separates", "entropy", "_pair_separates", None),
    ("entropy.estimate_entropy", "entropy", "estimate_entropy", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    """In-memory span recorder; use as a context manager around traced work."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.work = {}
        self.sites = {}
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, work):
        names, parents = self.names, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter
        totals = self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if work is not None:
                got = work(fn, args, kwargs, result)
                acc = totals.get(name)
                totals[name] = got if acc is None else tuple(
                    a + b for a, b in zip(acc, got))
            return result
        return wrapper

    def install(self):
        """Wrap every target at every binding site in torusflow's modules."""
        modules = {key: mod for key, mod in list(sys.modules.items())
                   if key == "torusflow" or key.startswith("torusflow.")}
        for name, home, attr, work in TARGETS:
            owner = modules[f"torusflow.{home}"]
            if "." in attr:
                # a method: the class is its one binding site
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                fn = getattr(owner, attr)
                sites = [(owner, attr)]
            else:
                fn = getattr(owner, attr)
                sites = [(mod, key) for mod in modules.values()
                         for key, val in list(vars(mod).items()) if val is fn]
            wrapper = self._wrap(name, fn, work)
            for owner, key in sites:
                self._patch(owner, key, wrapper)
            self.sites[name] = [f"{owner.__name__}.{key}"
                                for owner, key in sites]

    def _patch(self, owner, key, new):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def restore(self):
        while self._patches:
            owner, key, old = self._patches.pop()
            setattr(owner, key, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path):
        """Write the spans, columnar, as gzip-compressed JSON."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {"run_id": self.run_id, "clock": "time.perf_counter",
               "names": table,
               "name": [index[n] for n in self.names],
               "parent": self.parents, "start": self.starts,
               "end": self.ends}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)

    def summary(self):
        """Span totals: per name, per (name, parent name) edge, and roots.

        Returns ({name: {"calls", "s", "self_s"}}, {(name, parent): calls},
        seconds covered by root spans).  Self time is a span's duration
        minus the time its child spans cover.  Spans of one thread nest
        without overlapping, so that covered time is the sum of the
        children's durations.
        """
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        code = np.array([index[n] for n in self.names], dtype=np.int64)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur[nested],
                              minlength=len(dur))
        k = len(table)
        calls = np.bincount(code, minlength=k)
        incl = np.bincount(code, weights=dur, minlength=k)
        own = np.bincount(code, weights=dur - covered, minlength=k)
        spans = {n: {"calls": int(calls[i]), "s": float(incl[i]),
                     "self_s": float(own[i])} for i, n in enumerate(table)}
        parent_code = np.where(nested, code[np.maximum(parents, 0)], k)
        edge = np.bincount(code * (k + 1) + parent_code,
                           minlength=k * (k + 1))
        edges = {(table[c // (k + 1)],
                  table[c % (k + 1)] if c % (k + 1) < k else None): int(n)
                 for c, n in enumerate(edge) if n}
        return spans, edges, float(dur[~nested].sum())


def layer_metrics(tracer, wall_s, cpu_s, untraced_wall_s):
    """The per-layer metrics of one traced pass, keyed as in spec.PER_LAYER."""
    spans, edges, root_s = tracer.summary()

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def work(name, i=0):
        got = tracer.work.get(name)
        return 0 if got is None else got[i]

    def ratio(num, den):
        return num / den if den else 0.0

    accel_calls = get("metrics.geodesic_accel", "calls")
    evolve_steps = work("shortening.evolve", 0)
    events = work("segments.crossings")
    candidates = work("segments.candidate_pairs")
    pair_checks = get("entropy.pair_separates", "calls")
    kept = work("entropy.separated_count")
    return {
        "metrics.geodesic_accel.calls": accel_calls,
        "metrics.geodesic_accel.points": work("metrics.geodesic_accel"),
        "metrics.geodesic_accel.self_s": get("metrics.geodesic_accel",
                                             "self_s"),
        "metrics.geodesic_accel.us_per_call": 1e6 * ratio(
            get("metrics.geodesic_accel", "self_s"), accel_calls),
        "metrics.fields.calls": get("metrics.fields", "calls"),
        "metrics.fields.points": work("metrics.fields"),
        "metrics.fields.self_s": get("metrics.fields", "self_s"),
        "metrics.gauss_curvature_batch.self_s": get(
            "metrics.gauss_curvature_batch", "self_s"),
        "flow.integrate.calls": get("flow.integrate", "calls"),
        "flow.integrate.self_s": get("flow.integrate", "self_s"),
        "flow.integrate.rhs_calls": edges.get(("metrics.geodesic_accel",
                                              "flow.integrate"), 0),
        "flow.integrate_batch.calls": get("flow.integrate_batch", "calls"),
        "flow.integrate_batch.self_s": get("flow.integrate_batch", "self_s"),
        "flow.integrate_batch.member_steps": work("flow.integrate_batch"),
        "segments.crossings.calls": get("segments.crossings", "calls"),
        "segments.crossings.self_s": get("segments.crossings", "self_s"),
        "segments.crossings.events": events,
        "segments.candidate_pairs": candidates,
        "segments.candidate_pairs.self_s": get("segments.candidate_pairs",
                                               "self_s"),
        "segments.refine_hermite.self_s": get("segments.refine_hermite",
                                              "self_s"),
        "segments.events_per_candidate": ratio(events, candidates),
        "cover.intersection_census.calls": get("cover.intersection_census",
                                               "calls"),
        "cover.intersection_census.s": get("cover.intersection_census", "s"),
        "cover.translate_intersections.calls": get(
            "cover.translate_intersections", "calls"),
        "shortening.evolve.calls": get("shortening.evolve", "calls"),
        "shortening.evolve.self_s": get("shortening.evolve", "self_s"),
        "shortening.evolve.steps": evolve_steps,
        "shortening.evolve.halvings": work("shortening.evolve", 1),
        "shortening.evolve.ms_per_step": 1e3 * ratio(
            get("shortening.evolve", "s"), evolve_steps),
        "axes.grid_shortest_class_length.s": get(
            "axes.grid_shortest_class_length", "s"),
        "axes.shoot_closed_geodesic.s": get("axes.shoot_closed_geodesic",
                                            "s"),
        "axes.shoot_closed_geodesic.integrate_calls": edges.get(
            ("flow.integrate", "axes.shoot_closed_geodesic"), 0),
        "entropy.probe_trajectories.s": get("entropy.probe_trajectories",
                                            "s"),
        "entropy.separated_count.calls": get("entropy.separated_count",
                                             "calls"),
        "entropy.separated_count.self_s": get("entropy.separated_count",
                                              "self_s"),
        "entropy.separated_count.kept": kept,
        "entropy.pair_checks": pair_checks,
        "entropy.pair_separates.self_s": get("entropy.pair_separates",
                                             "self_s"),
        "entropy.checks_per_kept": ratio(pair_checks, kept),
        "cli.main.self_s": get("cli.main", "self_s"),
        "process.cpu_s": cpu_s,
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.coverage": ratio(root_s, wall_s),
    }
