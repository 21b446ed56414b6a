"""The four workloads: their generated inputs, their jobs and the checks.

`build(name, seed, scratch_dir)` returns the job list of one workload.  It
imports torusflow and builds the workload's gallery metrics, so calling it
is the set-up that `setup_s` measures.  Each job returns `(output,
problems)`: `output` holds the numbers the job produced, compared across
passes and between traced and untraced passes, and `problems` lists every
check the output failed.  The seed only jitters inputs; every job does the
same kind and about the same amount of work for any seed.
"""
import json
import math
import os

import numpy as np

from torusflow import cli, cover, flow, metrics

# base points and angle of criteria 02 and 06; the precision base is dyadic
# so the deck-shifted launch point is exact
PRECISION_BASE = (561.0 / 4096.0, 1184.0 / 4096.0)
FAN_BASE = (0.137, 0.271)
LAUNCH_ANGLE = 0.437

RAY_METRICS = ("liouville", "conformal-bump", "two-frequency")
RAY_HORIZON = 10.0
RAY_TOL = dict(rtol=1e-12, atol=1e-13)

AXIS_METRICS = ("liouville", "conformal-bump")

ENTROPY_SAMPLES = 512
ENTROPY_ARGS = ["--metric", "two-frequency", "--samples", str(ENTROPY_SAMPLES),
                "--horizons", "3,6,9,12", "--epsilons", "1.5,1.25"]


def _rng(seed):
    return np.random.default_rng(seed % 2 ** 63)


def _ray_job(spec, base, angle):
    """Forward ray, deck-shifted ray and reversed return ray of one metric."""
    v0 = flow.unit_tangent(spec, base, angle)
    fwd = flow.integrate(spec, v0, RAY_HORIZON, dt=0.5, **RAY_TOL)
    drift = fwd.speed_drift(spec)

    shifted = flow.UnitTangent(v0.x + 1.0, v0.y + 1.0, v0.vx, v0.vy)
    deck = flow.integrate(spec, shifted, RAY_HORIZON, dt=0.5, **RAY_TOL)
    deck_gap = max(float(np.abs(deck.xy - (fwd.xy + 1.0)).max()),
                   float(np.abs(deck.v - fwd.v).max()))

    end = fwd.final_tangent()
    vrev = flow.unit_tangent(spec, (end.x, end.y), (-end.vx, -end.vy))
    back = flow.integrate(spec, vrev, RAY_HORIZON, dt=RAY_HORIZON, **RAY_TOL)
    e2 = back.final_tangent()
    rev_gap = max(abs(e2.x - v0.x), abs(e2.y - v0.y),
                  abs(e2.vx + v0.vx), abs(e2.vy + v0.vy))

    problems = []
    if not drift < 1e-6:
        problems.append(f"speed drift {drift:.3e}")
    if not deck_gap < 1e-9:
        problems.append(f"deck gap {deck_gap:.3e}")
    if not rev_gap < 1e-6:
        problems.append(f"reversal gap {rev_gap:.3e}")
    output = {"end": [end.x, end.y, end.vx, end.vy], "drift": drift,
              "deck_gap": deck_gap, "rev_gap": rev_gap}
    return output, problems


def _rays(seed, scratch_dir):
    rng = _rng(seed)
    jobs = []
    for name in RAY_METRICS:
        spec = metrics.gallery(name)
        # dyadic jitter keeps the shifted launch point exact
        k = rng.integers(-16, 17, size=2)
        base = (PRECISION_BASE[0] + k[0] / 4096.0,
                PRECISION_BASE[1] + k[1] / 4096.0)
        angle = LAUNCH_ANGLE + float(rng.uniform(-0.01, 0.01))
        jobs.append((name, lambda s=spec, b=base, a=angle: _ray_job(s, b, a)))
    return jobs


def _fan_job(spec, base, angles, horizon, class_radius, simple):
    """One ray fan and the universal-cover analysis of every ray in it.

    simple=True is the integrable check (no self-crossings, at most one
    growing class per ray); simple=False asks for a growing class somewhere.
    """
    tangents = [flow.unit_tangent(spec, base, a) for a in angles]
    rays = flow.integrate_rays(spec, tangents, horizon, dt=0.1, h=0.02)
    horizons = (horizon / 4.0, horizon / 2.0, horizon)
    rows = []
    for ray in rays:
        row = {"growing": len(cover.intersection_census(
            ray, class_radius=class_radius,
            horizons=horizons).growing_classes())}
        if simple:
            row["self_crossings"] = len(cover.self_intersections(ray)[0])
            est = cover.asymptotic_direction(ray)
            row["direction"] = list(est.direction)
            row["strip_width"] = cover.fit_strip(ray, est.direction).width
        rows.append(row)

    problems = []
    if simple:
        crossed = sum(r["self_crossings"] for r in rows)
        worst = max(r["growing"] for r in rows)
        if crossed:
            problems.append(f"{crossed} self-crossings on {spec.name}")
        if worst > 1:
            problems.append(f"a {spec.name} ray has {worst} growing classes")
    elif not any(r["growing"] for r in rows):
        problems.append(f"no {spec.name} ray has a growing class")
    return {"rays": rows}, problems


def _fan(seed, scratch_dir):
    rng = _rng(seed)
    liouville = metrics.gallery("liouville")
    twofreq = metrics.gallery("two-frequency")
    jobs = []
    for spec, n_rays, horizon, radius, simple in (
            (liouville, 64, 100.0, 3, True),
            (twofreq, 16, 50.0, 2, False)):
        base = (FAN_BASE[0] + float(rng.uniform(-0.005, 0.005)),
                FAN_BASE[1] + float(rng.uniform(-0.005, 0.005)))
        offset = float(rng.uniform(-0.1, 0.1)) * math.pi / n_rays
        angles = [(2 * k + 1) * math.pi / n_rays + offset
                  for k in range(n_rays)]
        jobs.append((spec.name, lambda s=spec, b=base, a=angles, T=horizon,
                     r=radius, simple=simple: _fan_job(s, b, a, T, r, simple)))
    return jobs


def _run_cli(argv, out_path):
    """Run one CLI command in-process and read back its JSON manifest."""
    if os.path.exists(out_path):
        os.remove(out_path)
    rc = cli.main(argv + ["--out", out_path])
    if rc != 0:
        return None, [f"exit code {rc}"]
    with open(out_path) as fh:
        return json.load(fh), []


def _axis_job(name, out_path):
    doc, problems = _run_cli(
        ["axis", "--metric", name, "--klass", "1,0", "--certify"], out_path)
    if doc is None:
        return {}, problems
    gap = doc["diagnostics"]["oracle_gap"]
    if not abs(gap) < 0.01:
        problems.append(f"oracle gap {gap:.4f}")
    if not doc["closing_residual"] < 1e-5:
        problems.append(f"closing residual {doc['closing_residual']:.2e}")
    output = {k: doc[k] for k in ("length", "closing_residual", "start",
                                  "angle", "line_deviation")}
    output["oracle_gap"] = gap
    return output, problems


def _axis(seed, scratch_dir):
    # the CLI resolves its own metric; building it here keeps the 64x64
    # positivity sweep of every metric the workload names inside set-up
    for name in AXIS_METRICS:
        metrics.gallery(name)
    return [(name, lambda n=name: _axis_job(
        n, os.path.join(scratch_dir, f"axis-{n}.json")))
        for name in AXIS_METRICS]


def _entropy_job(sample_seed, out_path):
    doc, problems = _run_cli(["entropy", *ENTROPY_ARGS,
                              "--seed", str(sample_seed)], out_path)
    if doc is None:
        return {}, problems
    counts = np.array(doc["counts"])
    if (np.diff(counts, axis=0) < 0).any():
        problems.append("a count falls as the horizon grows")
    if (np.diff(counts, axis=1) < 0).any():
        problems.append("a count falls as epsilon shrinks")
    if counts.max() > ENTROPY_SAMPLES:
        problems.append(f"a count exceeds the {ENTROPY_SAMPLES} samples")
    if not math.isfinite(doc["headline"]):
        problems.append(f"headline {doc['headline']} is not finite")
    output = {k: doc[k] for k in ("counts", "headline", "headline_epsilon",
                                  "slopes", "saturated")}
    return output, problems


def _entropy(seed, scratch_dir):
    metrics.gallery("two-frequency")
    sample_seed = int(_rng(seed).integers(2 ** 31))
    out_path = os.path.join(scratch_dir, "entropy.json")
    return [("two-frequency", lambda: _entropy_job(sample_seed, out_path))]


_BUILDERS = {"rays": _rays, "fan": _fan, "axis": _axis, "entropy": _entropy}


def build(workload, seed, scratch_dir):
    """Jobs of one workload as a list of (name, callable) pairs."""
    return _BUILDERS[workload](seed, scratch_dir)
