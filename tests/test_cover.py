import math
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusflow import cover
from torusflow import segments as sg
from torusflow.cover import (RotationNumber, asymptotic_direction,
                             class_frame, detect_double_loop, direction_antisymmetry,
                             direction_field, fit_strip, hit_rotation_targets,
                             intersection_census, max_projective_jump,
                             primitive_classes, self_intersections,
                             torus_self_crossings, translate_intersections)
from torusflow.errors import NotEscaping, ValidationError
from torusflow.flow import Trajectory
from torusflow.shortening import straight_class_curve


def synth(xy, dt=1.0):
    xy = np.asarray(xy, dtype=float)
    t = np.arange(len(xy)) * dt
    v = np.gradient(xy, dt, axis=0)
    return Trajectory(t=t, xy=xy, v=v)


def spiral(turns=6.0, n=1200, pitch=0.55):
    # Archimedean spiral: every translate family eventually gets crossed
    th = np.linspace(0.0, 2 * math.pi * turns, n)
    r = pitch * th / (2 * math.pi)
    return synth(np.stack([r * np.cos(th), r * np.sin(th)], axis=1),
                 dt=float(th[1] - th[0]))


# ---------------------------------------------------------------------------
# deck group

nonzero_pairs = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
    lambda p: p != (0, 0))


def class_rep_reference(m, n):
    # the class normalisation of the retired deck-transform class: the
    # primitive vector > (0, 0) on the line of (m, n)
    d = math.gcd(abs(m), abs(n))
    m, n = m // d, n // d
    if m < 0 or (m == 0 and n < 0):
        m, n = -m, -n
    return m, n


def class_frame_reference(klass):
    # the frame axes computed for itself before cover.class_frame
    p, q = int(klass[0]), int(klass[1])
    norm = math.hypot(p, q)
    e_s = np.array([p / norm, q / norm])
    e_w = np.array([-q / norm, p / norm])
    return p, q, norm, e_s, e_w


def straight_class_curve_reference(klass, base, n, amplitude):
    # straight_class_curve's nodes with the normal it computed inline
    p, q = int(klass[0]), int(klass[1])
    u = np.arange(n, dtype=float) / n
    nodes = np.stack([base[0] + u * p, base[1] + u * q], axis=1)
    if amplitude != 0.0:
        norm = math.hypot(p, q)
        perp = np.array([-q / norm, p / norm])
        nodes += amplitude * np.sin(2.0 * math.pi * u)[:, None] * perp
    return nodes


@given(a=nonzero_pairs, b=nonzero_pairs)
@settings(max_examples=80, deadline=None)
def test_deck_compose_inverse(a, b):
    # deck shifts compose by pair addition, and -a undoes a
    xy = np.array([[0.25, -0.5]])
    assert np.array_equal(xy + a + (-a[0], -a[1]), xy)
    assert np.array_equal(xy + a + b, xy + (a[0] + b[0], a[1] + b[1]))


def test_primitive_classes_radius():
    assert primitive_classes(1) == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert len(primitive_classes(3)) == 16
    for radius in range(6):
        box = [(m, n) for m in range(-radius, radius + 1)
               for n in range(-radius, radius + 1) if m or n]
        reps = [s for s in box if class_rep_reference(*s) == s]
        assert primitive_classes(radius) == sorted(reps)


CLASS_CURVES = [((1, 0), (0.0, 0.0), 64, 0.0), ((2, -1), (0.3, 0.1), 97, 0.08),
                ((-1, 2), (0.1, 0.4), 64, -0.3), ((0, -1), (0.5, 0.0), 80, 0.45),
                ((-3, -2), (0.2, 0.7), 50, 0.2), ((1, 1), (0.0, 0.5), 33, 0.0)]


@pytest.mark.parametrize("klass,base,n,amplitude", CLASS_CURVES)
def test_class_frame_equals_inline_frames(klass, base, n, amplitude):
    got = class_frame(klass)
    want = class_frame_reference(klass)
    assert got[:3] == want[:3]
    for g, w in zip(got[3:], want[3:]):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    curve = straight_class_curve(klass, base=base, n=n, amplitude=amplitude)
    want = straight_class_curve_reference(klass, base, n, amplitude)
    assert np.array_equal(curve.nodes.view(np.int64), want.view(np.int64))
    assert curve.deck == klass


@given(rx=st.integers(0, 6), ry=st.integers(0, 6))
def test_half_lattice_lists_one_of_each_pair(rx, ry):
    listed = cover.half_lattice(rx, ry)
    assert listed == sorted(set(listed))
    box = {(m, n) for m in range(rx + 1) for n in range(-ry, ry + 1)} - {(0, 0)}
    assert set(listed) <= box
    for m, n in box:
        if (-m, -n) in box:
            assert ((m, n) in listed) != ((-m, -n) in listed)
        else:
            assert (m, n) in listed


# ---------------------------------------------------------------------------
# crossings

def test_self_intersections_simple_cross():
    traj = synth([(0, 0), (1, 1), (1, 0), (0, 1)])
    # without velocities the polyline solve is reported as is
    events, tangential = sg.crossings(traj.xy, traj.t, traj.xy, traj.t)
    assert len(events) == 1 and not tangential
    ev = events[0]
    assert (ev.x, ev.y) == pytest.approx((0.5, 0.5), abs=1e-12)
    assert ev.t1 < ev.t2
    # self_intersections polishes the same crossing on the Hermite arcs
    polished, tangential = self_intersections(traj)
    assert len(polished) == 1 and not tangential
    assert polished[0].t1 < polished[0].t2


def test_translate_intersections_equivariance():
    traj = spiral()
    tau = (1, 1)
    ev1, _ = translate_intersections(traj, tau)
    shifted = replace(traj, xy=traj.xy + [3.0, -2.0])
    ev2, _ = translate_intersections(shifted, tau)
    assert len(ev1) == len(ev2)
    for a, b in zip(ev1, ev2):
        assert a.t1 == pytest.approx(b.t1, abs=1e-9)
        assert a.t2 == pytest.approx(b.t2, abs=1e-9)


def test_translate_intersections_rejects_identity():
    with pytest.raises(ValidationError):
        translate_intersections(spiral(), (0, 0))


def test_census_growth_on_spiral():
    traj = spiral()
    T = traj.horizon
    census = intersection_census(traj, class_radius=2,
                                 horizons=(T / 2, 3 * T / 4, T))
    growing = census.growing_classes()
    assert growing                      # the spiral keeps meeting translates
    for by_power in census.classes.values():
        for counts in by_power.values():
            assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_census_horizon_validation():
    traj = spiral()
    with pytest.raises(ValidationError):
        intersection_census(traj, class_radius=2,
                            horizons=(10.0, traj.horizon * 2))
    with pytest.raises(ValidationError, match="nonempty"):
        intersection_census(traj, class_radius=2, horizons=())
    for horizons in ((-5.0, 10.0), (0.0, 10.0), (10.0, math.nan)):
        with pytest.raises(ValidationError, match="positive, finite"):
            intersection_census(traj, class_radius=2, horizons=horizons)


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_census_scans_one_shift_of_each_pair(monkeypatch, radius):
    calls, engine = [], sg.crossings_by_shift

    def spy(xyA, tA, xyB, tB, shifts, vA=None, vB=None):
        calls.append(list(shifts))
        return engine(xyA, tA, xyB, tB, shifts, vA, vB)

    monkeypatch.setattr(sg, "crossings_by_shift", spy)
    traj = spiral()
    census = intersection_census(traj, class_radius=radius,
                                 horizons=(traj.horizon,))
    reps = primitive_classes(radius)
    # one engine call, with the powers k = 1..radius of each class
    assert calls == [[(k * m, k * n) for m, n in reps
                      for k in range(1, radius + 1)]]
    assert all(s > (0, 0) for s in calls[0])
    powers = [k for k in range(-radius, radius + 1) if k != 0]
    for by_power in census.classes.values():
        assert list(by_power) == powers
        assert all(by_power[-k] == by_power[k] for k in powers)


def test_torus_self_crossings_unique_and_ordered():
    traj = spiral()
    pairs = torus_self_crossings(traj)
    assert pairs
    keys = [(round(ev.t1, 9), round(ev.t2, 9)) for ev, _ in pairs]
    assert len(set(keys)) == len(keys)
    assert all(ev.t1 < ev.t2 for ev, _ in pairs)
    assert all(type(loop) is tuple for _, loop in pairs)
    ident = [ev for ev, loop in pairs if loop == (0, 0)]
    events, _ = self_intersections(traj)
    assert len(ident) == len(events)


# ---------------------------------------------------------------------------
# rotation numbers and direction estimates

def test_rotation_slope_exact():
    r = RotationNumber.of_direction(2.0, 3.0)
    assert not r.infinite and r.slope == 1.5
    v = RotationNumber.of_direction(0.0, -1.0)
    assert v.infinite


def test_asymptotic_direction_straight():
    traj = synth(np.outer(np.arange(40, dtype=float), [0.6, 0.8]))
    est = asymptotic_direction(traj)
    assert est.direction == pytest.approx((0.6, 0.8), abs=1e-12)
    assert est.rotation.slope == pytest.approx(0.8 / 0.6, rel=1e-12)
    assert est.tail_oscillation < 1e-12


def test_asymptotic_direction_snaps_vertical():
    xy = np.outer(np.arange(40, dtype=float), [1e-15, 1.0])
    est = asymptotic_direction(synth(xy))
    assert est.rotation.infinite
    assert est.direction[0] == 0.0


def test_not_escaping_raises():
    traj = synth([(0, 0), (0.5, 0.5), (1, 1)])
    with pytest.raises(NotEscaping):
        asymptotic_direction(traj)


def test_direction_antisymmetry_synthetic():
    fwd = synth(np.outer(np.arange(40, dtype=float), [0.6, 0.8]))
    bwd = synth(np.outer(np.arange(40, dtype=float), [-0.6, -0.8]))
    assert direction_antisymmetry(fwd, bwd)["angle_gap"] < 1e-12


def test_fit_strip_sine_ribbon():
    t = np.linspace(0.0, 60.0, 1201)
    xy = np.stack([t, 0.1 * np.sin(t)], axis=1)
    strip = fit_strip(synth(xy, dt=float(t[1] - t[0])), direction=(1.0, 0.0))
    assert strip.direction == (1.0, 0.0)
    assert strip.width == pytest.approx(0.2, abs=1e-3)
    assert strip.offset_lo == pytest.approx(-0.1, abs=1e-3)


def test_direction_field_flat_slopes(flat):
    angles = [0.2, 0.8, 2.0]
    ests = direction_field(flat, (0.0, 0.0), angles, horizon=40.0, dt=0.5,
                           h=0.01)
    for ang, est in zip(angles, ests):
        assert est.rotation.slope == pytest.approx(math.tan(ang), abs=1e-9)
    assert max_projective_jump(ests) > 0


def hit_rotation_targets_reference(spec, base, targets, horizon, grid=256,
                                   tol=1e-3):
    # the sequential search with one state dict per target that
    # cover.hit_rotation_targets replaced, copied unchanged except that it
    # calls cover.direction_field, so a test can patch the fan of both
    if grid < 2:
        raise ValidationError(f"the scan grid needs at least 2 angles, got {grid}")
    if not all(map(math.isfinite, targets)):
        raise ValidationError(f"rotation targets must be finite, got {targets}")

    def fan(angles):
        return cover.direction_field(spec, base, angles, horizon=horizon, dt=1.0, h=0.01)

    angles = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    estimates = fan(angles)
    slopes = [e.rotation.slope for e in estimates]
    state = []
    for target in targets:
        bracket = None
        for i in range(len(angles)):
            j = (i + 1) % len(angles)
            si, sj = slopes[i], slopes[j]
            if si is None or sj is None:
                continue
            lo, hi = min(si, sj), max(si, sj)
            # a wide slope gap means the pair straddles a vertical direction
            if lo <= target <= hi and hi - lo < 1.0:
                step = (angles[j] - angles[i]) % (2.0 * math.pi)
                bracket = [angles[i], angles[i] + step, si, sj]
                break
        state.append({"target": target, "bracket": bracket, "achieved": False,
                      "angle": None, "slope": None, "iterations": 0})

    for _ in range(40):
        pending = [s for s in state if s["bracket"] is not None and not s["achieved"]]
        if not pending:
            break
        mids = [0.5 * (s["bracket"][0] + s["bracket"][1]) for s in pending]
        ests = fan(mids)
        for s, angle, est in zip(pending, mids, ests):
            s["iterations"] += 1
            s_mid = est.rotation.slope
            s["angle"] = angle
            if s_mid is None:
                s["bracket"] = None
                continue
            s["slope"] = s_mid
            if abs(s_mid - s["target"]) <= tol:
                s["achieved"] = True
                continue
            a_lo, a_hi, s_lo, s_hi = s["bracket"]
            if (s_lo <= s["target"]) == (s_mid <= s["target"]):
                s["bracket"] = [angle, a_hi, s_mid, s_hi]
            else:
                s["bracket"] = [a_lo, angle, s_lo, s_mid]

    results = []
    for s in state:
        r = {"target": s["target"], "achieved": s["achieved"],
             "angle": s["angle"], "slope": s["slope"],
             "iterations": s["iterations"]}
        if not s["achieved"] and s["angle"] is None:
            r["reason"] = "no bracket on the scan grid"
        results.append(r)
    return results


def spied_targets(mp, search, field, *args, **kwargs):
    """Run a target search with cover.direction_field replaced by `field`;
    returns the results and the angle list of every fan call."""
    calls = []

    def spy(spec, base, angles, horizon, dt, h):
        calls.append(np.asarray(angles, dtype=float).tolist())
        return field(spec, base, angles, horizon, dt, h)

    mp.setattr(cover, "direction_field", spy)
    return search(*args, **kwargs), calls


def synthetic_field(c, phi, delta):
    """Slopes c tan(theta + phi) of launch angles theta, vertical (None)
    within `delta` of a vertical direction."""
    def field(spec, base, angles, horizon, dt, h):
        out = []
        for a in angles:
            u = float(a) + phi
            vertical = abs(u % math.pi - 0.5 * math.pi) < delta
            slope = None if vertical else c * math.tan(u)
            out.append(SimpleNamespace(rotation=RotationNumber(slope)))
        return out
    return field


def assert_search_matches_reference(field, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        got, got_calls = spied_targets(mp, hit_rotation_targets, field,
                                       *args, **kwargs)
        want, want_calls = spied_targets(mp, hit_rotation_targets_reference,
                                         field, *args, **kwargs)
    assert pickle.dumps(got) == pickle.dumps(want)
    assert got_calls == want_calls
    return got


# at small c the scan's first pair straddles the vertical with slopes 0.047
# and -0.053, so it brackets 0 and 0.03, and its midpoint is vertical
@example(grid=8, c=0.02, phi=1.168, delta=0.1, tol=1e-6, targets=[0.0, 0.03, -0.5])
@example(grid=2, c=1.0, phi=0.0, delta=0.0, tol=1e-3, targets=[0.5, 1e6])
@given(grid=st.integers(2, 64),
       c=st.floats(0.01, 10.0) | st.floats(-10.0, -0.01),
       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       delta=st.floats(0.0, 0.4),
       tol=st.floats(1e-9, 0.5),
       targets=st.lists(st.floats(-5.0, 5.0) | st.sampled_from([-1e6, 1e6]),
                        max_size=6))
@settings(max_examples=300, deadline=None)
def test_target_search_matches_sequential_reference(grid, c, phi, delta, tol,
                                                    targets):
    # targets outside every bracket, vertical scan angles and vertical
    # midpoints all leave the results and every fan call as the reference's
    assert_search_matches_reference(synthetic_field(c, phi, delta), None,
                                    (0.0, 0.0), targets, 1.0, grid=grid,
                                    tol=tol)


def test_target_search_matches_reference_on_liouville(liouville):
    res = assert_search_matches_reference(
        direction_field, liouville, (0.0, 0.0),
        [0.25, 0.5, 1.0, -1.5, 2.0, -0.75, 7.0], 60.0, grid=64, tol=1e-3)
    assert any(r["achieved"] for r in res)
    assert any("reason" in r for r in res)


def test_hit_rotation_targets_flat(flat):
    res = assert_search_matches_reference(direction_field, flat, (0.0, 0.0),
                                          [0.5, 2.0], 40.0, grid=64, tol=1e-3)
    for r in res:
        assert r["achieved"]
        assert abs(r["slope"] - r["target"]) <= 1e-3


# ---------------------------------------------------------------------------
# the double-loop detector

def _event(t1, t2):
    from torusflow.segments import IntersectionEvent
    return IntersectionEvent(t1=t1, t2=t2, x=0.0, y=0.0, sign=1, margin=1.0)


def test_detect_double_loop_disjoint():
    w = detect_double_loop([_event(0.0, 1.0), _event(2.0, 3.0)])
    assert w is not None
    assert (w.t1, w.t2, w.t3, w.t4) == (0.0, 1.0, 2.0, 3.0)


def test_detect_double_loop_nested_only():
    assert detect_double_loop([_event(0.0, 10.0), _event(1.0, 9.0),
                               _event(2.0, 8.0)]) is None


def test_detect_double_loop_picks_earliest_closure():
    w = detect_double_loop([_event(0.0, 9.0), _event(1.0, 2.0),
                            _event(2.5, 3.0)])
    assert (w.t1, w.t2) == (1.0, 2.0)
    assert (w.t3, w.t4) == (2.5, 3.0)
