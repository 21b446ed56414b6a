import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import cover
from torusflow import segments as sg
from torusflow.cover import (DeckTransform, RotationNumber,
                             asymptotic_direction, detect_anchored_crossing_pair,
                             detect_double_loop, direction_antisymmetry,
                             direction_field, fit_strip, hit_rotation_targets,
                             intersection_census, max_projective_jump,
                             primitive_classes, self_intersections,
                             torus_self_crossings, translate_intersections)
from torusflow.errors import (AxesNotDisjoint, NotEscaping, PrimitiveRequired,
                              ValidationError)
from torusflow.flow import Trajectory


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


@given(a=nonzero_pairs, b=nonzero_pairs)
@settings(max_examples=80, deadline=None)
def test_deck_compose_inverse(a, b):
    ta, tb = DeckTransform(*a), DeckTransform(*b)
    xy = np.array([[0.25, -0.5]])
    assert np.array_equal(ta.inverse().apply_array(ta.apply_array(xy)), xy)
    ab = tb.apply_array(ta.apply_array(xy))
    assert np.array_equal(ab, xy + [a[0] + b[0], a[1] + b[1]])
    assert ta.power(3).m == 3 * ta.m and ta.power(-2).n == -2 * ta.n


@given(a=nonzero_pairs)
@settings(max_examples=80, deadline=None)
def test_class_rep_normalisation(a):
    t = DeckTransform(*a)
    rep = t.class_rep()
    assert rep.is_primitive
    # first nonzero coordinate of the representative is positive
    lead = rep.m if rep.m != 0 else rep.n
    assert lead > 0
    assert t.inverse().class_rep() == rep


def test_primitive_rules():
    assert DeckTransform(2, 3).is_primitive
    assert not DeckTransform(2, 4).is_primitive
    assert not DeckTransform(0, 0).is_primitive
    with pytest.raises(PrimitiveRequired):
        DeckTransform(0, 0).class_rep()


def test_primitive_classes_radius():
    r1 = [(t.m, t.n) for t in primitive_classes(1)]
    assert r1 == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert len(primitive_classes(3)) == 16
    for radius in range(6):
        box = [DeckTransform(m, n) for m in range(-radius, radius + 1)
               for n in range(-radius, radius + 1) if m or n]
        reps = [t for t in box if t.is_primitive and t.class_rep() == t]
        assert primitive_classes(radius) == sorted(
            reps, key=lambda t: (t.m, t.n))


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
    events, tangential = sg.crossings(traj.xy, traj.t, traj.xy, traj.t,
                                      same_curve=True, t_sep=0.5)
    assert len(events) == 1 and not tangential
    ev = events[0]
    assert (ev.x, ev.y) == pytest.approx((0.5, 0.5), abs=1e-12)
    assert ev.t1 < ev.t2
    # self_intersections polishes the same crossing on the Hermite arcs
    polished, tangential = self_intersections(traj, t_sep=0.5)
    assert len(polished) == 1 and not tangential
    assert polished[0].t1 < polished[0].t2


def test_translate_intersections_equivariance():
    traj = spiral()
    tau = DeckTransform(1, 1)
    ev1, _ = translate_intersections(traj, tau)
    shifted = replace(traj, xy=traj.xy + [3.0, -2.0])
    ev2, _ = translate_intersections(shifted, tau)
    assert len(ev1) == len(ev2)
    for a, b in zip(ev1, ev2):
        assert a.t1 == pytest.approx(b.t1, abs=1e-9)
        assert a.t2 == pytest.approx(b.t2, abs=1e-9)


def test_translate_intersections_rejects_identity():
    with pytest.raises(ValidationError):
        translate_intersections(spiral(), DeckTransform(0, 0))


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


def test_torus_self_crossings_unique_and_ordered():
    traj = spiral()
    pairs = torus_self_crossings(traj)
    assert pairs
    keys = [(round(ev.t1, 9), round(ev.t2, 9)) for ev, _ in pairs]
    assert len(set(keys)) == len(keys)
    assert all(ev.t1 < ev.t2 for ev, _ in pairs)
    ident = [ev for ev, tau in pairs if tau.is_identity]
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
    ests = direction_field(flat, (0.0, 0.0), angles, horizon=40.0, dt=0.5)
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
# configuration detectors

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


def _tent(x0, peak_y, width=0.1, n=201):
    xs = np.linspace(x0, x0 + width, n)
    ys = peak_y * (1.0 - np.abs(np.linspace(-1, 1, n)))
    return synth(np.stack([xs, ys], axis=1), dt=1.0 / (n - 1))


def test_anchored_crossing_pair_positive():
    axis_nodes = np.stack([np.arange(64) / 64.0, np.zeros(64)], axis=1)
    eta = DeckTransform(0, 1)
    c1 = _tent(0.2, 1.2)     # rises through eta(axis) at y = 1
    c2 = _tent(0.6, -1.2)    # dips through eta^-1(axis) at y = -1
    res = detect_anchored_crossing_pair(c1, c2, axis_nodes, (1, 0), eta)
    assert res.found
    assert res.witness_plus is not None and res.witness_minus is not None
    assert res.witness_plus[1] == pytest.approx(1.0, abs=1e-9)
    assert res.witness_minus[1] == pytest.approx(-1.0, abs=1e-9)


def test_anchored_crossing_pair_missing_side():
    axis_nodes = np.stack([np.arange(64) / 64.0, np.zeros(64)], axis=1)
    res = detect_anchored_crossing_pair(
        _tent(0.2, 1.2), _tent(0.6, 1.2), axis_nodes, (1, 0),
        DeckTransform(0, 1))
    assert not res.found
    assert "missing" in res.reason


def test_anchored_crossing_pair_endpoints_checked():
    axis_nodes = np.stack([np.arange(64) / 64.0, np.zeros(64)], axis=1)
    c1 = _tent(0.2, 1.2)
    bad = synth(c1.xy + [0.0, 0.05])      # lifted off the axis
    res = detect_anchored_crossing_pair(bad, _tent(0.6, -1.2), axis_nodes,
                                        (1, 0), DeckTransform(0, 1))
    assert not res.found and "endpoints" in res.reason


def test_anchored_crossing_pair_parallel_eta_rejected():
    axis_nodes = np.stack([np.arange(64) / 64.0, np.zeros(64)], axis=1)
    with pytest.raises(AxesNotDisjoint):
        detect_anchored_crossing_pair(_tent(0.2, 1.2), _tent(0.6, -1.2),
                                      axis_nodes, (1, 0), DeckTransform(2, 0))
