"""The crossing engine against brute force and against the per-shift loops.

`crossings_by_shift` hashes polyline A once and queries every translate of
B against it.  Two references check it:

* a brute-force O(NM) reference that feeds every segment pair of A and
  B + shift to the exact solve, so any pair the spatial hash drops shows up
  as a missing event;
* the per-shift loops the four callers used before the engine (one
  `crossings` call per deck translate), kept here only as the reference
  for the census, the torus self-crossings and the torus crossing counts.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import cover, flow, segments as sg
from torusflow.cover import (ClassCensus, DeckTransform, IntersectionCensus,
                             primitive_classes, self_intersections,
                             translate_intersections)
from torusflow.metrics import gallery
from torusflow.shortening import (ClosedCurve, circle_curve,
                                  straight_class_curve, torus_crossing_count)


def _fields(events):
    return [(e.t1, e.t2, e.x, e.y, e.sign, e.margin) for e in events]


def brute_force(xyA, tA, xyB, tB, shift, vA=None, vB=None, same_curve=False,
                t_sep=sg.SELF_T_SEP, cyclic_span=None):
    """Every segment pair of A and B + shift through the exact solve."""
    xyA = np.asarray(xyA, dtype=float)
    xyB = np.asarray(xyB, dtype=float) + np.asarray(shift, dtype=float)
    iA, iB = np.meshgrid(np.arange(len(xyA) - 1), np.arange(len(xyB) - 1),
                         indexing="ij")
    iA, iB = iA.ravel(), iB.ravel()
    if same_curve:
        keep = iA < iB - 1
        iA, iB = iA[keep], iB[keep]
    return sg._events(xyA, np.asarray(tA, float), vA, xyB,
                      np.asarray(tB, float), vB, iA, iB, sg.THETA_MIN,
                      same_curve, t_sep, cyclic_span)


def assert_same(got, want):
    assert _fields(got[0]) == _fields(want[0])
    assert _fields(got[1]) == _fields(want[1])


# ---------------------------------------------------------------------------
# random polylines

@st.composite
def polylines(draw, max_nodes=24):
    """Random walks: quarter-unit axis steps (nodes on cell edges), dyadic
    diagonal steps, or float steps, at times with one long step."""
    n = draw(st.integers(2, max_nodes))
    kind = draw(st.sampled_from(["axis", "dyadic", "float"]))
    x0 = draw(st.integers(-8, 8)) / 4.0
    y0 = draw(st.integers(-8, 8)) / 4.0
    if kind == "axis":
        steps = draw(st.lists(st.tuples(st.booleans(),
                                        st.sampled_from([-2, -1, 1, 2])),
                              min_size=n - 1, max_size=n - 1))
        d = np.array([(k, 0) if horizontal else (0, k)
                      for horizontal, k in steps], dtype=float) / 4.0
    elif kind == "dyadic":
        d = np.array(draw(st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
                lambda p: p != (0, 0)),
            min_size=n - 1, max_size=n - 1)), dtype=float) / 4.0
    else:
        mag = st.floats(0.05, 0.7) | st.floats(-0.7, -0.05)
        d = np.array(draw(st.lists(st.tuples(mag, mag), min_size=n - 1,
                                   max_size=n - 1)), dtype=float)
    # one step stretched so that it is cut into pieces before hashing
    stretch = draw(st.sampled_from([1.0, 1.0, 4.0, 16.0, 64.0]))
    d[draw(st.integers(0, n - 2))] *= stretch
    return np.vstack([[x0, y0], np.array([x0, y0]) + np.cumsum(d, axis=0)])


shift_sets = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                      min_size=1, max_size=8)


@given(A=polylines(), B=polylines(), shifts=shift_sets,
       refine=st.booleans(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=300, deadline=None)
def test_engine_matches_brute_force(A, B, shifts, refine, seed):
    rng = np.random.default_rng(seed)
    tA = np.arange(len(A), dtype=float)
    tB = 0.5 * np.arange(len(B), dtype=float)
    # velocities switch on the Hermite polish; without them the polyline
    # solve is reported as is
    vA = A + rng.normal(size=A.shape) if refine else None
    vB = B + rng.normal(size=B.shape) if refine else None
    got = sg.crossings_by_shift(A, tA, B, tB, shifts, vA, vB)
    assert len(got) == len(shifts)
    for shift, res in zip(shifts, got):
        assert_same(res, brute_force(A, tA, B, tB, shift, vA, vB))


@given(A=polylines(max_nodes=40), cyclic=st.booleans(),
       t_sep=st.sampled_from([0.1, 1.5, 4.0]))
@settings(max_examples=200, deadline=None)
def test_same_curve_matches_brute_force(A, cyclic, t_sep):
    t = np.arange(len(A), dtype=float)
    span = float(len(A)) if cyclic else None
    got = sg.crossings(A, t, A, t, same_curve=True, t_sep=t_sep,
                       cyclic_span=span)
    assert_same(got, brute_force(A, t, A, t, (0, 0), same_curve=True,
                                 t_sep=t_sep, cyclic_span=span))


def test_engine_equals_one_crossings_call_per_shift():
    rng = np.random.default_rng(3)
    A = np.cumsum(rng.normal(scale=0.3, size=(300, 2)), axis=0)
    t = np.arange(len(A), dtype=float)
    v = rng.normal(size=A.shape)
    shifts = [(m, n) for m in range(-2, 3) for n in range(-2, 3)]
    got = sg.crossings_by_shift(A, t, A, t, shifts, v, v)
    assert sum(len(ev) for ev, _ in got) > 50
    for (m, n), res in zip(shifts, got):
        assert_same(res, sg.crossings(A, t, A + np.array([m, n], float), t,
                                      v, v))


def test_short_polylines_give_no_events():
    one = np.zeros((1, 2))
    two = np.array([[0.0, 0.0], [1.0, 1.0]])
    got = sg.crossings_by_shift(one, [0.0], two, [0.0, 1.0], [(0, 0), (1, 0)])
    assert got == [([], []), ([], [])]


def test_long_segment_rasterises_in_linear_entries():
    # 400 steps of 0.01 along a zigzag, then one segment 1000x longer
    k = np.arange(401)
    zig = np.stack([0.01 * k, 0.005 * (k % 2)], axis=1)
    A = np.vstack([zig, zig[-1] + [10.0, 7.0]])
    lens = np.hypot(*np.diff(A, axis=0).T)
    cell = 2.0 * np.percentile(lens, 95)
    long = float(lens[-1])
    assert long > 900 * lens[0]
    table = sg._CellTable(A, sg._pieces(A, cell), cell)
    # each cut piece covers at most 4 x 4 cells (its box widened by one
    # cell), while the segment's bounding box has about 140k cells
    assert len(table.segs) <= 4 * len(zig) + 16 * (math.ceil(long / cell) + 1)
    assert len(table.segs) < (10.0 / cell) * (7.0 / cell) / 10
    # a comb crossing the long segment many times, at many shifts
    y = np.linspace(-1.0, 9.0, 41)
    comb = np.stack([np.where(np.arange(41) % 2, 3.0, 9.0), y], axis=1)
    t = np.arange(len(A), dtype=float)
    tc = np.arange(len(comb), dtype=float)
    shifts = [(m, n) for m in range(-3, 3) for n in range(-3, 3)]
    got = sg.crossings_by_shift(A, t, comb, tc, shifts)
    assert sum(len(ev) for ev, _ in got) > 100
    for shift, res in zip(shifts, got):
        assert_same(res, brute_force(A, t, comb, tc, shift))


def test_candidates_share_a_cell():
    # a near-vertical polyline a few cells wide and a thousand cells tall,
    # against its translates one unit up and down (which poke out of A's
    # cell range): cell keys must never alias, so every candidate pair of
    # segments lies within one cell of each other on both axes (no segment
    # is cut here, so piece boxes are segment boxes)
    y = np.linspace(0.0, 50.0, 2001)
    A = np.stack([0.1 * np.sin(y), y], axis=1)
    lens = np.hypot(*np.diff(A, axis=0).T)
    cell = 2.0 * np.percentile(lens, 95)
    boxes = sg._pieces(A, cell)
    table = sg._CellTable(A, boxes, cell)
    assert table.top[0, 0] >= 3 and table.top[1, 0] > 900
    lo, hi = boxes[0], boxes[1]
    for dy in (1.0, -1.0):
        shift = np.array([[0.0], [dy]])
        iA, iB = sg._candidate_pairs(table, boxes, shift, len(A) - 1, False)
        assert len(iA) > 0
        gap = np.maximum(lo[:, iA] - (hi[:, iB] + shift),
                         (lo[:, iB] + shift) - hi[:, iA])
        assert gap.max() <= cell


# ---------------------------------------------------------------------------
# the per-shift loops the engine replaced, kept as the reference

def census_reference(traj, class_radius, horizons):
    horizons = tuple(sorted(horizons))
    classes = {}
    for rep in primitive_classes(class_radius):
        counts = {}
        for k in range(-class_radius, class_radius + 1):
            if k == 0:
                continue
            # the census counts polyline crossings: no velocities, no polish
            events, _ = sg.crossings(traj.xy, traj.t,
                                     rep.power(k).apply_array(traj.xy), traj.t)
            counts[k] = [sum(1 for e in events if e.t1 <= h and e.t2 <= h)
                         for h in horizons]
        classes[rep.class_key()] = ClassCensus(
            class_key=rep.class_key(), counts=counts,
            growing=cover._growing(counts))
    return IntersectionCensus(horizons=horizons, class_radius=class_radius,
                              classes=classes)


def torus_self_crossings_reference(traj, class_radius=2):
    out = []
    ident = DeckTransform(0, 0)
    events, _ = self_intersections(traj)
    out.extend((ev, ident) for ev in events)
    r = int(class_radius)
    for m in range(0, r + 1):
        for n in range(-r, r + 1):
            if m == 0 and n <= 0:
                continue
            tau = DeckTransform(m, n)
            events, _ = translate_intersections(traj, tau)
            for ev in events:
                if ev.t1 > ev.t2:
                    ev = sg.IntersectionEvent(ev.t2, ev.t1, ev.x, ev.y,
                                              -ev.sign, ev.margin)
                    loop = tau
                else:
                    loop = tau.inverse()
                out.append((ev, loop))
    out.sort(key=lambda pair: (pair[0].t1, pair[0].t2))
    return out


def self_crossing_count_reference(curve):
    p = curve.closed_polyline()
    t = np.arange(len(p), dtype=float)
    events, _ = sg.crossings(p, t, p, t, same_curve=True, t_sep=1.5,
                             cyclic_span=float(curve.n_nodes))
    count = len(events)
    lo = p.min(axis=0)
    hi = p.max(axis=0)
    for jj in range(0, int(math.ceil(hi[0] - lo[0])) + 1):
        kk_lo = -int(math.ceil(hi[1] - lo[1])) - 1
        for kk in range(kk_lo, -kk_lo + 1):
            if jj == 0 and kk <= 0:
                continue
            shift = np.array([jj, kk], dtype=float)
            if (lo + shift > hi).any() or (hi + shift < lo).any():
                continue
            ev, _ = sg.crossings(p, t, p + shift, t)
            count += len(ev)
    return count


def torus_crossing_count_reference(curveA, curveB):
    pA = curveA.closed_polyline()
    tA = np.arange(len(pA), dtype=float)
    pB = curveB.closed_polyline()
    tB = np.arange(len(pB), dtype=float)
    loA, hiA = pA.min(axis=0), pA.max(axis=0)
    loB, hiB = pB.min(axis=0), pB.max(axis=0)
    count = 0
    for jj in range(int(math.floor(loA[0] - hiB[0])),
                    int(math.ceil(hiA[0] - loB[0])) + 1):
        for kk in range(int(math.floor(loA[1] - hiB[1])),
                        int(math.ceil(hiA[1] - loB[1])) + 1):
            shift = np.array([jj, kk], dtype=float)
            if (loB + shift > hiA).any() or (hiB + shift < loA).any():
                continue
            ev, _ = sg.crossings(pA, tA, pB + shift, tB)
            count += len(ev)
    return count


def _fan(name, n_rays, horizon):
    spec = gallery(name)
    tangents = [flow.unit_tangent(spec, (0.31, 0.17),
                                  (2 * k + 1) * math.pi / n_rays + 0.01)
                for k in range(n_rays)]
    return flow.integrate_rays(spec, tangents, horizon, dt=0.1, h=0.02)


@pytest.fixture(scope="module")
def fans():
    return {"liouville": (_fan("liouville", 8, 60.0), 3),
            "two-frequency": (_fan("two-frequency", 6, 40.0), 2)}


@pytest.mark.parametrize("name", ["liouville", "two-frequency"])
def test_census_equals_per_shift_loop(fans, name):
    rays, radius = fans[name]
    for ray in rays:
        T = ray.horizon
        horizons = (T / 4, T / 2, T)
        got = cover.intersection_census(ray, class_radius=radius,
                                        horizons=horizons)
        want = census_reference(ray, radius, horizons)
        assert got == want


@pytest.mark.parametrize("name", ["liouville", "two-frequency"])
def test_torus_self_crossings_equal_per_shift_loop(fans, name):
    rays, _ = fans[name]
    total = 0
    for ray in rays:
        got = cover.torus_self_crossings(ray)
        want = torus_self_crossings_reference(ray, class_radius=2)
        assert [(_fields([ev]), loop) for ev, loop in got] == \
            [(_fields([ev]), loop) for ev, loop in want]
        total += len(got)
    assert total > 0


SHORTENING_CURVES = [
    circle_curve((0.5, 0.5), 0.15, n=64),
    circle_curve((0.62, 0.5), 0.15, n=64),
    straight_class_curve((0, 1), base=(0.5, 0.0), n=64),
    circle_curve((0.1, 0.1), 0.05, n=64),
    circle_curve((0.02, 0.5), 0.1, n=64),
    circle_curve((0.98, 0.5), 0.1, n=64),
    straight_class_curve((2, 1), n=96, amplitude=0.08),
    straight_class_curve((1, -1), base=(0.3, 0.1), n=80, amplitude=0.3),
    straight_class_curve((1, 2), base=(0.1, 0.4), n=128, amplitude=0.45),
]


def test_torus_crossing_count_equals_per_shift_loop():
    total = 0
    for a in SHORTENING_CURVES:
        for b in SHORTENING_CURVES:
            got = torus_crossing_count(a, b)
            assert got == torus_crossing_count_reference(a, b)
            total += got
    assert total > 0


def test_self_crossing_count_equals_per_shift_loop():
    curves = SHORTENING_CURVES + [
        # a figure eight and a tightly bent class curve cross themselves
        ClosedCurve(nodes=np.stack(
            [0.5 + 0.3 * np.sin(2 * np.linspace(0, 2 * math.pi, 96,
                                                endpoint=False)),
             0.5 + 0.3 * np.sin(np.linspace(0, 2 * math.pi, 96,
                                            endpoint=False))], axis=1)),
        straight_class_curve((1, 1), n=128, amplitude=0.9),
    ]
    counts = [c.self_crossing_count() for c in curves]
    assert counts == [self_crossing_count_reference(c) for c in curves]
    assert any(counts)
