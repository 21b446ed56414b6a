"""Ten end-to-end checks, one per headline property of the package.

Each test prints one summary line with its measured numbers; `pytest -v`
then reads as a checklist.  Expensive shared artifacts (the 64-ray fan,
the entropy tables) are session fixtures so the suite stays inside a few
minutes.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from torusflow.axes import find_minimal_axis, flatness_test
from torusflow.cover import (asymptotic_direction,
                             detect_double_loop, direction_antisymmetry,
                             direction_field, fit_strip, hit_rotation_targets,
                             intersection_census, max_projective_jump,
                             self_intersections, torus_self_crossings,
                             translate_intersections)
from torusflow.entropy import (PRESETS, estimate_entropy, probe_trajectories,
                               sample_phase_points, separated_count)
from torusflow.flow import (Trajectory, UnitTangent, integrate, integrate_rays,
                            unit_tangent)
from torusflow.metrics import curvature_survey, gallery, gallery_names
from torusflow.shortening import (circle_curve, evolve,
                                  intersection_monotonicity_probe,
                                  straight_class_curve)

# base points without visible symmetry; the first is dyadic so the launch
# data is exactly representable
PRECISION_BASE = (561.0 / 4096.0, 1184.0 / 4096.0)
FAN_BASE = (0.137, 0.271)
LAUNCH_ANGLE = 0.437


def _truncate(traj, horizon):
    m = int(np.searchsorted(traj.t, horizon + 1e-12))
    return Trajectory(t=traj.t[:m], xy=traj.xy[:m], v=traj.v[:m])


@pytest.fixture(scope="session")
def liouville_fan():
    """64 rays on the liouville metric to horizon 400, paired fan.

    Angles (2k+1)*pi/64 cover both directions of 32 lines, so ray k+32 is
    the backward ray of ray k and one batch serves the direction
    antisymmetry check as well.
    """
    spec = gallery("liouville")
    angles = [(2 * k + 1) * math.pi / 64 for k in range(64)]
    tangents = [unit_tangent(spec, FAN_BASE, a) for a in angles]
    rays = integrate_rays(spec, tangents, 400.0, dt=0.1, h=0.01)
    return spec, rays


@pytest.fixture(scope="session")
def dichotomy_tables():
    """Entropy estimates of flat, liouville, two-frequency, one protocol.

    The liouville probe array is kept for the sample-size ladder of the
    estimator-invariant test.
    """
    params = PRESETS["dichotomy"]
    out = {"params": params}
    spec = gallery("liouville")
    states = sample_phase_points(spec, params.n_samples, params.seed)
    _, probes = probe_trajectories(spec, states, params.horizons[-1],
                                   params.dt_probe)
    out["liouville_probes"] = probes
    out["liouville"] = estimate_entropy(spec, params, probes=probes)
    out["flat"] = estimate_entropy(gallery("flat"), params)
    out["two-frequency"] = estimate_entropy(gallery("two-frequency"), params)
    # the flat run bounds what the ladder reports on a rate-zero flow; 0.053,
    # calibrated on the integrable gallery, bounds its transient sensitivity:
    # the smallest growth rate this ladder tells apart from transient
    # exploration of the phase box, where its transient growth has died off
    out["floor"] = max(out["flat"].headline, 0.053)
    return out


def test_criterion_01_flat_exactness():
    """Straight lines, slopes, and empty crossing sets on the flat torus."""
    t0 = time.monotonic()
    spec = gallery("flat")
    angles = [2.0 * math.pi * k / 64 for k in range(64)]
    tangents = [unit_tangent(spec, (0.0, 0.0), a) for a in angles]
    rays = integrate_rays(spec, tangents, 100.0, dt=0.1, h=0.05)

    worst_line = 0.0
    worst_slope = 0.0
    crossings = 0
    taus = [(1, 0), (0, 1), (1, 1), (1, -1)]
    for k, (ray, ang) in enumerate(zip(rays, angles)):
        ideal = ray.xy[0] + ray.t[:, None] * ray.v[0]
        worst_line = max(worst_line, float(np.abs(ray.xy - ideal).max()))
        rot = asymptotic_direction(ray).rotation
        if k in (16, 48):
            assert rot.infinite, f"ray {k} must read as vertical"
        else:
            worst_slope = max(worst_slope, abs(rot.slope - math.tan(ang)))
        events, _ = self_intersections(ray)
        crossings += len(events)
        for tau in taus:
            tev, _ = translate_intersections(ray, tau)
            crossings += len(tev)
    elapsed = time.monotonic() - t0

    assert worst_line < 1e-9, f"straight-line deviation {worst_line:.3e}"
    assert worst_slope < 1e-6, f"rotation vs tan(angle) gap {worst_slope:.3e}"
    assert crossings == 0, f"{crossings} crossings on flat rays"
    assert elapsed < 60.0, f"flat suite took {elapsed:.1f}s"
    print(f"flat exactness: line dev {worst_line:.2e}, slope dev "
          f"{worst_slope:.2e}, crossings 0, {elapsed:.1f}s")


def test_criterion_02_energy_equivariance():
    """Unit speed, deck equivariance, and time reversal on all four metrics."""
    tau = (1, 1)
    lines = []
    for name in gallery_names():
        spec = gallery(name)
        v0 = unit_tangent(spec, PRECISION_BASE, LAUNCH_ANGLE)
        fwd = integrate(spec, v0, 1000.0, dt=1.0, rtol=1e-12, atol=1e-13)
        drift = fwd.speed_drift(spec)
        assert drift < 1e-6, f"{name}: speed drift {drift:.3e}"

        # deck equivariance at full precision; the curved metrics get a
        # shorter horizon to keep the check inside the error budget of the
        # doubled integration
        t_eq = 1000.0 if name == "flat" else 200.0
        a = integrate(spec, v0, t_eq, dt=0.5, rtol=1e-12, atol=1e-13)
        shifted = UnitTangent(v0.x + tau[0], v0.y + tau[1], v0.vx, v0.vy)
        b = integrate(spec, shifted, t_eq, dt=0.5, rtol=1e-12, atol=1e-13)
        eq_gap = max(float(np.abs(b.xy - (a.xy + tau)).max()),
                     float(np.abs(b.v - a.v).max()))
        assert eq_gap < 1e-9, f"{name}: deck equivariance gap {eq_gap:.3e}"

        end = fwd.final_tangent()
        vrev = unit_tangent(spec, (end.x, end.y), (-end.vx, -end.vy))
        back = integrate(spec, vrev, 1000.0, dt=1000.0, rtol=1e-12, atol=1e-13)
        e2 = back.final_tangent()
        rev_gap = max(abs(e2.x - v0.x), abs(e2.y - v0.y),
                      abs(e2.vx + v0.vx), abs(e2.vy + v0.vy))
        assert rev_gap < 1e-6, f"{name}: reversal round trip {rev_gap:.3e}"
        lines.append(f"{name} drift {drift:.1e} deck {eq_gap:.1e} "
                     f"rev {rev_gap:.1e}")
    print("energy/equivariance: " + "; ".join(lines))


def test_criterion_03_shortening_exact_solutions():
    """Flat circles die at r^2/2; a flat class seed lands on length 1."""
    flat = gallery("flat")
    parts = []
    radii = (0.1, 0.2, 0.3)
    circles = [circle_curve((0.5, 0.5), r, n=256) for r in radii]
    for r, res in zip(radii, evolve(flat, circles)):
        assert res.verdict == "shrank_to_point", f"r={r}: {res.verdict}"
        exact = r * r / 2.0
        rel = abs(res.extinction_time - exact) / exact
        assert rel < 0.05, f"r={r}: extinction off by {rel:.3f}"
        parts.append(f"r={r}: {rel * 100:.1f}%")

    seed = straight_class_curve((1, 0), base=(0.0, 0.517), n=256,
                                amplitude=0.08)
    (res,) = evolve(flat, [seed])
    assert res.verdict == "converged_to_geodesic", res.verdict
    gap = abs(res.length - 1.0)
    assert gap < 1e-3, f"class-(1,0) length off by {gap:.2e}"
    print(f"shortening oracle: extinction {', '.join(parts)}; "
          f"class length gap {gap:.1e}")


def test_criterion_04_crossing_counts_never_increase():
    """20 randomized two-curve runs; any count increase fails the build."""
    rng = np.random.default_rng(20260818)
    metric_cycle = ("flat", "liouville", "conformal-bump")
    histories = []
    for run in range(20):
        spec = gallery(metric_cycle[run % 3])
        r1 = float(rng.uniform(0.10, 0.20))
        c1 = (float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)))
        a = circle_curve(c1, r1, n=64)
        if run % 2 == 0:
            r2 = float(rng.uniform(0.10, 0.20))
            c2 = (c1[0] + float(rng.uniform(-0.5, 0.5) * r1),
                  c1[1] + float(rng.uniform(-0.5, 0.5) * r1))
            b = circle_curve(c2, r2, n=64)
            horizon = 0.9 * min(r1, r2) ** 2 / 2.0
        else:
            klass = [(1, 0), (0, 1), (1, 1)][run % 3]
            b = straight_class_curve(klass, base=(c1[0], c1[1] - r1 / 2),
                                     n=64,
                                     amplitude=float(rng.uniform(0.0, 0.05)))
            horizon = 0.9 * r1 ** 2 / 2.0
        probe = [horizon / 3, 2 * horizon / 3, horizon]
        out = intersection_monotonicity_probe(spec, a, b, probe)
        assert out["nonincreasing"], (
            f"run {run} on {spec.name}: counts {out['counts']} increased")
        histories.append(out["counts"])
    drops = sum(1 for h in histories if h[-1] < h[0])
    print(f"crossing monotonicity: 20/20 nonincreasing, {drops} with strict "
          f"drops")


def test_criterion_05_minimal_axis_matches_grid_oracle():
    """Axis lengths against the independent 512x512 shortest-loop graph."""
    worst_gap = 0.0
    worst_res = 0.0
    for name in ("flat", "conformal-bump", "liouville"):
        spec = gallery(name)
        for klass in ((1, 0), (0, 1), (1, 1), (2, 1)):
            axis = find_minimal_axis(spec, klass, certify=True)
            gap = abs(axis.diagnostics["oracle_gap"])
            assert gap < 0.01, f"{name} {klass}: oracle gap {gap:.4f}"
            assert axis.closing_residual < 1e-5, (
                f"{name} {klass}: closing residual {axis.closing_residual:.2e}")
            worst_gap = max(worst_gap, gap)
            worst_res = max(worst_res, axis.closing_residual)
    print(f"minimal axes: 12 classes certified, worst oracle gap "
          f"{worst_gap * 100:.2f}%, worst closing residual {worst_res:.1e}")


def test_criterion_06_integrable_phenomenology(liouville_fan,
                                               dichotomy_tables):
    """Finite-horizon evidence of the integrable picture on liouville.

    Simple lifts, direction antisymmetry improving as the horizon doubles,
    strips that stop widening, crossing ladders with at most one growing
    class, and an entropy headline at the noise floor.  All of these are
    statements about horizon 400, not limits.
    """
    spec, rays = liouville_fan
    rays200 = [_truncate(r, 200.0) for r in rays]

    crossings = sum(len(self_intersections(r)[0]) for r in rays)
    assert crossings == 0, f"{crossings} self-crossings across the fan"

    res200, res400 = [], []
    for k in range(32):
        res200.append(direction_antisymmetry(rays200[k], rays200[k + 32]))
        res400.append(direction_antisymmetry(rays[k], rays[k + 32]))
    med2, med4 = float(np.median(res200)), float(np.median(res400))
    max2, max4 = max(res200), max(res400)
    assert med4 < med2, f"median antisymmetry {med2:.2e} -> {med4:.2e}"
    assert max4 < max2, f"max antisymmetry {max2:.2e} -> {max4:.2e}"

    # per-ray width ratios carry the phase of the transverse wander at the
    # two cut times, so the fan is summarized robustly: the median ray and
    # the widest strip must both be stable under horizon doubling
    w200 = np.array([fit_strip(r).width for r in rays200])
    w400 = np.array([fit_strip(r).width for r in rays])
    med_ratio = float(np.median(w400 / w200))
    max_ratio = float(w400.max() / w200.max())
    assert med_ratio < 1.05, f"median strip ratio {med_ratio:.4f}"
    assert max_ratio < 1.05, f"widest-strip ratio {max_ratio:.4f}"

    worst_growing = 0
    for ray in rays:
        census = intersection_census(ray, class_radius=3,
                                     horizons=(100.0, 200.0, 400.0))
        worst_growing = max(worst_growing, len(census.growing_classes()))
    assert worst_growing <= 1, f"a ladder has {worst_growing} growing classes"

    est = dichotomy_tables["liouville"]
    floor = dichotomy_tables["floor"]
    assert est.headline < 2.0 * floor, (
        f"liouville headline {est.headline:.4f} vs floor {floor:.4f}")
    print(f"liouville evidence (finite horizon 400): 0 self-crossings, "
          f"antisym median {med2:.1e}->{med4:.1e}, strip ratios "
          f"med {med_ratio:.3f} max {max_ratio:.3f}, <={worst_growing} "
          f"growing class, headline {est.headline:.3f} < 2x{floor:.3f}")


def test_criterion_07_chaotic_consistency(dichotomy_tables):
    """A double-loop witness and the entropy headline must agree in sign."""
    spec = gallery("two-frequency")
    v0 = unit_tangent(spec, (0.173, 0.319), LAUNCH_ANGLE)
    traj = integrate(spec, v0, 40.0, dt=0.05)
    events = [ev for ev, _ in torus_self_crossings(traj)]
    witness = detect_double_loop(events)
    assert witness is not None, "no double-loop witness on two-frequency"

    est = dichotomy_tables["two-frequency"]
    floor = dichotomy_tables["floor"]
    headline_positive = est.headline > 3.0 * floor
    if witness is not None and not headline_positive:
        pytest.fail(
            f"detectors disagree in sign, flagged for investigation: "
            f"witness found but headline {est.headline:.4f} is below "
            f"3x floor {floor:.4f}")
    assert headline_positive
    print(f"two-frequency: double loop at t=({witness.t1:.1f},{witness.t2:.1f},"
          f"{witness.t3:.1f},{witness.t4:.1f}), headline {est.headline:.3f} "
          f"> 3x{floor:.3f}, signs agree")


def test_criterion_08_flatness_verdicts():
    flat_report = flatness_test(gallery("flat"))
    assert flat_report.verdict == "flat"
    assert not flat_report.witness_classes

    bump_report = flatness_test(gallery("conformal-bump"))
    assert bump_report.verdict == "not flat"
    assert bump_report.curvature.max_abs > 1.0, "curvature witness missing"

    worst_total = 0.0
    for name in gallery_names():
        tot = abs(curvature_survey(gallery(name), 256).total)
        assert tot < 1e-6, f"{name}: total curvature {tot:.2e}"
        worst_total = max(worst_total, tot)
    print(f"flatness: flat/{flat_report.verdict}, bump/{bump_report.verdict} "
          f"(max |K| {bump_report.curvature.max_abs:.2f}), worst "
          f"|integral K dA| {worst_total:.1e}")


def test_criterion_09_estimator_invariants(dichotomy_tables):
    """Monotone counts in horizon, resolution, and sample size; exact reruns."""
    params = dichotomy_tables["params"]
    for name in ("flat", "liouville", "two-frequency"):
        counts = np.array(dichotomy_tables[name].counts)
        assert np.all(np.diff(counts, axis=0) >= 0), f"{name}: not monotone in T"
        assert np.all(np.diff(counts, axis=1) >= 0), f"{name}: not monotone in eps"

    calib = PRESETS["calibration"]
    flat_calib = estimate_entropy(gallery("flat"), calib)
    counts = np.array(flat_calib.counts)
    assert np.all(np.diff(counts, axis=0) >= 0)
    assert np.all(np.diff(counts, axis=1) >= 0)

    probes = dichotomy_tables["liouville_probes"]
    k_limit = int(round(params.horizons[-1] / params.dt_probe)) + 1
    ladder = [separated_count(probes, params.epsilons[-1], k_limit, m_limit=m)
              for m in (512, 1024, 2048, 4096)]
    assert ladder == sorted(ladder), f"not monotone in M: {ladder}"

    rerun = estimate_entropy(gallery("liouville"), params)
    first = dichotomy_tables["liouville"]
    assert rerun.counts == first.counts, "counts changed between reruns"
    assert rerun.headline == first.headline

    halved = estimate_entropy(gallery("flat"), replace(calib, dt_probe=0.025))
    assert halved.counts == flat_calib.counts, (
        "halving dt_probe moved the calibration counts")
    assert halved.headline == flat_calib.headline
    print(f"estimator invariants: 4 tables monotone, M-ladder {ladder}, "
          f"bit-exact rerun, dt-probe halving fixed point "
          f"(headline {flat_calib.headline:.4f})")


def test_criterion_10_rotation_regularity():
    """Direction-field jumps shrink under refinement; 16 targets are hit."""
    spec = gallery("liouville")
    jumps = {}
    for grid in (512, 1024):
        angles = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
        ests = direction_field(spec, FAN_BASE, angles, horizon=300.0,
                               dt=1.0, h=0.01)
        jumps[grid] = max_projective_jump(ests)
    assert jumps[1024] < jumps[512], (
        f"refinement did not shrink the max jump: {jumps}")

    targets = [0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0, 1.5, 2.0]
    targets = targets + [-t for t in targets]
    hits = hit_rotation_targets(spec, FAN_BASE, targets, horizon=300.0)
    misses = [h for h in hits
              if not h["achieved"] or abs(h["slope"] - h["target"]) > 1e-3]
    assert not misses, f"targets missed: {misses}"
    iters = max(h["iterations"] for h in hits)
    print(f"rotation regularity: max jump {jumps[512]:.4f} -> "
          f"{jumps[1024]:.4f}, 16/16 targets within 1e-3 "
          f"(<= {iters} bisections)")
