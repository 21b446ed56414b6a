import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import cover
from torusflow import segments as sg
from torusflow.cover import (RotationNumber, asymptotic_direction,
                             class_frame, class_rep, detect_double_loop, direction_antisymmetry,
                             direction_field, fit_strip, hit_rotation_targets,
                             intersection_census, max_projective_jump,
                             primitive_classes, self_intersections,
                             torus_self_crossings, translate_intersections)
from torusflow.errors import NotEscaping, PrimitiveRequired, ValidationError
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
    # the class normalisation of the retired deck-transform class
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


@given(a=nonzero_pairs, b=nonzero_pairs, k=st.integers(-4, 4).filter(bool))
@settings(max_examples=80, deadline=None)
def test_deck_compose_inverse(a, b, k):
    # deck shifts compose by pair addition; a shift, its inverse and its
    # nonzero powers name one class
    xy = np.array([[0.25, -0.5]])
    assert np.array_equal(xy + a + (-a[0], -a[1]), xy)
    assert np.array_equal(xy + a + b, xy + (a[0] + b[0], a[1] + b[1]))
    rep = class_rep(a)
    assert class_rep((-a[0], -a[1])) == rep
    assert class_rep((k * a[0], k * a[1])) == rep


@given(a=nonzero_pairs)
@settings(max_examples=80, deadline=None)
def test_class_rep_normalisation(a):
    rep = class_rep(a)
    assert rep == class_rep_reference(*a)
    assert type(rep) is tuple and math.gcd(*rep) == 1
    # first nonzero coordinate of the representative is positive
    assert rep > (0, 0)
    assert class_rep(rep) == rep


def test_primitive_rules():
    assert class_rep((2, 3)) == (2, 3)
    assert class_rep((2, 4)) == (1, 2)
    assert class_rep((0, -3)) == (0, 1)
    with pytest.raises(PrimitiveRequired):
        class_rep((0, 0))


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
    for c in census.classes.values():
        for counts in c.counts.values():
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
    for c in census.classes.values():
        assert list(c.counts) == powers
        assert all(c.counts[-k] == c.counts[k] for k in powers)


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


def test_hit_rotation_targets_flat(flat):
    res = hit_rotation_targets(flat, (0.0, 0.0), [0.5, 2.0], horizon=40.0,
                               grid=64, tol=1e-3)
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
