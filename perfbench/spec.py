"""Names, units and bounds of the torusflow benchmark, in one place.

`BENCHMARK.json` at the repository root is generated from this module
(`python3 perfbench/run.py --write-spec`), and `run.py` reports exactly the
metrics listed here, so the file and the program cannot drift apart.
"""

RUN_SECONDS = 25

WORKLOADS = {
    "rays": "adaptive DOP853 precision rays, batch size 1: per-call cost of "
            "integrate and geodesic_accel",
    "fan": "batched RK4 ray fans plus universal-cover censuses: crossing "
           "detection in segments and cover",
    "axis": "certified minimal axes through the CLI: curve shortening, series "
            "evaluation and the lattice oracle",
    "entropy": "separated-orbit table through the CLI: greedy separated count "
               "and large-batch RK4",
}

# name -> (unit, better, bound)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

_COUNT = "count"

# name -> (unit, better)
PER_LAYER = {
    "metrics.geodesic_accel.calls": (_COUNT, "lower"),
    "metrics.geodesic_accel.points": (_COUNT, "lower"),
    "metrics.geodesic_accel.self_s": ("s", "lower"),
    "metrics.geodesic_accel.us_per_call": ("us", "lower"),
    "metrics.fields.calls": (_COUNT, "lower"),
    "metrics.fields.points": (_COUNT, "lower"),
    "metrics.fields.self_s": ("s", "lower"),
    "metrics.gauss_curvature_batch.self_s": ("s", "lower"),
    "flow.integrate.calls": (_COUNT, "lower"),
    "flow.integrate.self_s": ("s", "lower"),
    "flow.integrate.rhs_calls": (_COUNT, "lower"),
    "flow.integrate_batch.calls": (_COUNT, "lower"),
    "flow.integrate_batch.self_s": ("s", "lower"),
    "flow.integrate_batch.member_steps": (_COUNT, "lower"),
    "segments.crossings.calls": (_COUNT, "lower"),
    "segments.crossings.self_s": ("s", "lower"),
    "segments.crossings.events": (_COUNT, "lower"),
    "segments.candidate_pairs": (_COUNT, "lower"),
    "segments.candidate_pairs.self_s": ("s", "lower"),
    "segments.refine_hermite.self_s": ("s", "lower"),
    "segments.events_per_candidate": ("ratio", "higher"),
    "cover.intersection_census.calls": (_COUNT, "lower"),
    "cover.intersection_census.s": ("s", "lower"),
    "cover.translate_intersections.calls": (_COUNT, "lower"),
    "shortening.evolve.calls": (_COUNT, "lower"),
    "shortening.evolve.self_s": ("s", "lower"),
    "shortening.evolve.steps": (_COUNT, "lower"),
    "shortening.evolve.halvings": (_COUNT, "lower"),
    "shortening.evolve.ms_per_step": ("ms", "lower"),
    "axes.grid_shortest_class_length.s": ("s", "lower"),
    "axes.shoot_closed_geodesic.s": ("s", "lower"),
    "axes.shoot_closed_geodesic.integrate_calls": (_COUNT, "lower"),
    "entropy.probe_trajectories.s": ("s", "lower"),
    "entropy.separated_count.calls": (_COUNT, "lower"),
    "entropy.separated_count.self_s": ("s", "lower"),
    "entropy.separated_count.kept": (_COUNT, "higher"),
    "entropy.pair_checks": (_COUNT, "lower"),
    "entropy.pair_separates.self_s": ("s", "lower"),
    "entropy.checks_per_kept": ("ratio", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def benchmark_json():
    """The contents of BENCHMARK.json as a dict."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }
