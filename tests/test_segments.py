"""The crossing engines against brute force and against the shift lists.

`crossings_by_shift` hashes polylines A and B once and meets A with each
integer translate of B as a key offset; `torus_crossings` answers the
all-shift question from one torus-reduced hash.  Three references check them:

* a brute-force O(NM) reference that feeds every segment pair of A and
  B + shift to the exact solve, so any pair the spatial hash drops shows up
  as a missing event;
* `box_shifts`, the list of every shift whose boxes can meet, which the
  all-shift torus queries scanned with `crossings_by_shift` before the torus
  hash; the torus hash must return, shift by shift, exactly its events;
* the per-shift loops the callers used before the engine (one `crossings`
  call per deck translate), kept here only as the reference for the census
  and the torus crossing counts.
"""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import cover, flow, segments as sg
from torusflow.cover import IntersectionCensus, half_lattice, primitive_classes
from torusflow.errors import ValidationError
from torusflow.metrics import gallery
from torusflow.shortening import (ClosedCurve, circle_curve,
                                  straight_class_curve, torus_crossing_count)


def _fields(events):
    return [(e.t1, e.t2, e.x, e.y, e.sign, e.margin) for e in events]


def _bits(events):
    """Events as the int64 bits of their float fields, plus the sign."""
    return [tuple(np.array([e.t1, e.t2, e.x, e.y, e.margin]).view(np.int64))
            + (e.sign,) for e in events]


def brute_force(xyA, tA, xyB, tB, shift, vA=None, vB=None, same_curve=False):
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
                      np.asarray(tB, float), vB, iA, iB, same_curve)


def assert_same(got, want):
    assert _fields(got[0]) == _fields(want[0])
    assert _fields(got[1]) == _fields(want[1])


# ---------------------------------------------------------------------------
# random polylines

@st.composite
def polylines(draw, max_nodes=24, kinds=("axis", "dyadic", "float")):
    """Random walks: quarter-unit axis steps (nodes on cell edges), dyadic
    diagonal steps, or float steps, at times with one long step."""
    n = draw(st.integers(2, max_nodes))
    kind = draw(st.sampled_from(kinds))
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
# shifts out to +-40 mostly move B's cells clear of A's, so the engine skips
# them before listing candidates; brute force still solves every pair
far_shift_sets = st.lists(st.tuples(st.integers(-40, 40),
                                    st.integers(-40, 40)),
                          min_size=1, max_size=8)


@given(A=polylines(), B=polylines(), shifts=shift_sets | far_shift_sets,
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


@given(A=polylines(max_nodes=40), dt=st.sampled_from([0.02, 0.05, 1.0]))
@settings(max_examples=200, deadline=None)
def test_same_curve_matches_brute_force(A, dt):
    # node spacings below and above SELF_T_SEP in parameter
    t = dt * np.arange(len(A), dtype=float)
    got = sg.crossings(A, t, A, t)
    assert_same(got, brute_force(A, t, A, t, (0, 0), same_curve=True))


@given(A=polylines(max_nodes=40), shifts=shift_sets)
@settings(max_examples=200, deadline=None)
def test_self_mode_is_read_from_the_inputs(A, shifts):
    # A met with itself: the zero shift is a self-intersection query, every
    # other shift a query against another curve
    shifts = shifts + [(0, 0)]
    t = 0.05 * np.arange(len(A), dtype=float)
    got = sg.crossings_by_shift(A, t, A, t, shifts)
    for shift, res in zip(shifts, got):
        assert_same(res, brute_force(A, t, A, t, shift,
                                     same_curve=shift == (0, 0)))
    # an equal copy of A is another curve, at the zero shift too
    got = sg.crossings_by_shift(A, t, A.copy(), t, shifts)
    for shift, res in zip(shifts, got):
        assert_same(res, brute_force(A, t, A, t, shift))


def test_engine_equals_one_crossings_call_per_shift():
    rng = np.random.default_rng(3)
    A = np.cumsum(rng.normal(scale=0.3, size=(300, 2)), axis=0)
    t = np.arange(len(A), dtype=float)
    v = rng.normal(size=A.shape)
    shifts = [(m, n) for m in range(-2, 3) for n in range(-2, 3)]
    got = sg.crossings_by_shift(A, t, A, t, shifts, v, v)
    assert sum(len(ev) for ev, _ in got) > 50
    for (m, n), res in zip(shifts, got):
        if (m, n) == (0, 0):
            # A met with itself at the zero shift is a self-intersection query
            want = brute_force(A, t, A, t, (0, 0), v, v, same_curve=True)
            assert want[0]
        else:
            want = sg.crossings(A, t, A + np.array([m, n], float), t, v, v)
        assert_same(res, want)


nonzero_shifts = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda p: p != (0, 0))


@given(A=polylines(max_nodes=40, kinds=("axis", "dyadic")), s=nonzero_shifts,
       dt=st.sampled_from([0.05, 1.0]))
@settings(max_examples=300, deadline=None)
def test_minus_shift_mirrors_the_shift(A, s, dt):
    # lift(t1) = lift(t2) + s exactly when lift(t2) = lift(t1) - s: on exact
    # input the solve for -s is the solve for s with the two segments
    # swapped, so times, margins and negated signs agree bit for bit (what a
    # census reads); the point is interpolated on the other strand, so it
    # agrees with the s point, moved by -s, up to rounding
    t = dt * np.arange(len(A), dtype=float)
    (plus,), (minus,) = (sg.crossings_by_shift(A, t, A, t, [shift])
                         for shift in (s, (-s[0], -s[1])))
    for got, want in zip(minus, plus):
        mirrored = sorted((sg.IntersectionEvent(e.t2, e.t1, e.x - s[0],
                                                e.y - s[1], -e.sign, e.margin)
                           for e in want), key=lambda e: (e.t1, e.t2))
        assert (_bits([replace(e, x=0.0, y=0.0) for e in got])
                == _bits([replace(e, x=0.0, y=0.0) for e in mirrored]))
        assert np.allclose([e.point for e in got],
                           [e.point for e in mirrored], rtol=0.0, atol=1e-12)


def test_short_polylines_give_no_events():
    one = np.zeros((1, 2))
    two = np.array([[0.0, 0.0], [1.0, 1.0]])
    got = sg.crossings_by_shift(one, [0.0], two, [0.0, 1.0], [(0, 0), (1, 0)])
    assert got == [([], []), ([], [])]


def _grid(xyA, xyB):
    """The engines' G: the unit lattice's hash grid has cells 1/G."""
    return max(int(1.0 / sg._cell_size(xyA, xyB)), 1)


def _spy_candidates(monkeypatch):
    """Record the (A, B) segment pairs of each `_candidate_pairs` call."""
    calls, real = [], sg._candidate_pairs

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(sg, "_candidate_pairs", spy)
    return calls


def test_long_segment_rasterises_in_linear_entries():
    # 400 steps of 0.01 along a zigzag, then one segment 1000x longer
    k = np.arange(401)
    zig = np.stack([0.01 * k, 0.005 * (k % 2)], axis=1)
    A = np.vstack([zig, zig[-1] + [10.0, 7.0]])
    lens = np.hypot(*np.diff(A, axis=0).T)
    G = _grid(A, A)
    long = float(lens[-1])
    assert long > 900 * lens[0] and lens[0] < 1.0 / G
    cells, segs = sg._grid_entries(A, G)
    assert cells.shape == (2, len(segs))
    # an uncut segment covers at most 3 x 3 cells (its box widened by 1e-6
    # of a cell) and each cut piece at most 5 x 5 (widened by one cell
    # more), while the long segment's bounding box has about 135k cells
    assert len(segs) <= 9 * len(zig) + 25 * (math.ceil(long * G) + 1)
    assert len(segs) < (10.0 * G) * (7.0 * G) / 10
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


def test_candidates_share_a_cell(monkeypatch):
    # a near-vertical polyline a few cells wide and a thousand cells tall,
    # against its translates one unit up and down (which poke out of A's
    # cell range): cell keys must never alias, so every candidate pair of
    # segments lies within one cell of each other on both axes (no segment
    # is cut here, so piece boxes are segment boxes)
    y = np.linspace(0.0, 50.0, 2001)
    A = np.stack([0.1 * np.sin(y), y], axis=1)
    t = np.arange(len(A), dtype=float)
    G = _grid(A, A)
    cells, _ = sg._grid_entries(A, G)
    span = cells.max(axis=1) - cells.min(axis=1)
    assert span[0] >= 3 and span[1] > 900
    assert np.hypot(*np.diff(A, axis=0).T).max() < 1.0 / G
    lo, hi = np.minimum(A[:-1], A[1:]).T, np.maximum(A[:-1], A[1:]).T
    calls = _spy_candidates(monkeypatch)
    shifts = [(0, 1), (0, -1)]
    sg.crossings_by_shift(A, t, A.copy(), t, shifts)
    assert len(calls) == len(shifts)
    for (iA, iB), s in zip(calls, shifts):
        assert len(iA) > 0
        shift = np.array(s, dtype=float)[:, None]
        gap = np.maximum(lo[:, iA] - (hi[:, iB] + shift),
                         (lo[:, iB] + shift) - hi[:, iA])
        assert gap.max() <= 1.0 / G


def test_disjoint_collinear_segments_do_not_cross(monkeypatch):
    # B lies on the line through A's first segment, about 3 units beyond
    # its end, and one hash cell holds both; the solve of two such
    # segments is rounding noise and used to report a tangential crossing
    # at A's first node
    A = np.array([[-0.75, 0.0], [-2.6090624786635574, -1.8590624786635572],
                  [-4.0, -3.0]])
    B = np.array([[-3.0, -2.25], [-3.25, -2.5]])
    calls = _spy_candidates(monkeypatch)
    assert sg.crossings(A, [0.0, 1.0, 2.0], B, [0.0, 1.0]) == ([], [])
    ((iA, _),) = calls
    assert 0 in iA


def test_shifts_must_be_integer_pairs():
    A = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    t = np.arange(3, dtype=float)
    for bad in ([(0.5, 0)], [(0, 0), (1, 1e-9)], [(math.nan, 0)],
                [(0, math.inf)]):
        with pytest.raises(ValidationError, match="integer pairs"):
            sg.crossings_by_shift(A, t, A, t, bad)
    # integer-valued floats are integer shifts
    assert sg.crossings_by_shift(A, t, A, t, [(1.0, -2.0)]) == [([], [])]
    spec = gallery("flat")
    traj = flow.integrate(spec, flow.unit_tangent(spec, (0.1, 0.2), 0.6), 2.0,
                          dt=0.1)
    with pytest.raises(ValidationError, match="integer pairs"):
        cover.translate_intersections(traj, (0.5, 0))


def test_long_segment_fails_before_any_allocation():
    # 100 steps of 0.01 and one of 1e12: about 5e13 hash pieces; the piece
    # count is checked before a piece array is made
    P = np.vstack([np.stack([0.01 * np.arange(101), np.zeros(101)], axis=1),
                   [[1e12, 1.0]]])
    t = np.arange(len(P), dtype=float)
    tracemalloc.start()
    try:
        for engine in (lambda: sg.crossings(P, t, P, t),
                       lambda: sg.torus_crossings(P, t, P, t, None, None)):
            with pytest.raises(ValidationError, match="hash pieces"):
                engine()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# ---------------------------------------------------------------------------
# the per-shift loops the engine replaced, kept as the reference

def census_reference(traj, class_radius, horizons, solve=None):
    """The census from one crossing solve per nonzero power k, by default a
    `crossings` call; `solve(traj, shift)` replaces it."""
    horizons = tuple(sorted(horizons))
    classes = {}
    for m, n in primitive_classes(class_radius):
        counts = {}
        for k in range(-class_radius, class_radius + 1):
            if k == 0:
                continue
            # the census counts polyline crossings: no velocities, no polish
            if solve is None:
                events, _ = sg.crossings(traj.xy, traj.t,
                                         traj.xy + [k * m, k * n], traj.t)
            else:
                events, _ = solve(traj, (k * m, k * n))
            counts[k] = [sum(1 for e in events if e.t1 <= h and e.t2 <= h)
                         for h in horizons]
        classes[f"{m}/{n}"] = counts
    return IntersectionCensus(horizons=horizons, class_radius=class_radius,
                              classes=classes)


def box_shifts(xyA, xyB):
    """Integer shifts s, in lexicographic order, whose box(B) + s may meet
    box(A), rounded outwards (the crossing engine's box test drops the rest).

    For B = A, the s >= (0, 0) are the zero shift and one of each pair +-s.
    """
    lo = np.floor(xyA.min(axis=0) - xyB.max(axis=0)).astype(int)
    hi = np.ceil(xyA.max(axis=0) - xyB.min(axis=0)).astype(int)
    return [(m, n) for m in range(lo[0], hi[0] + 1)
            for n in range(lo[1], hi[1] + 1)]


def box_shift_crossings(xyA, tA, xyB, tB, vA, vB):
    """{shift: (events, tangential)} of the engine over the box shifts, the
    s >= (0, 0) ones when xyB is xyA: the torus query before the torus hash."""
    shifts = box_shifts(xyA, xyB)
    if xyB is xyA:
        shifts = [s for s in shifts if s >= (0, 0)]
    return dict(zip(shifts, sg.crossings_by_shift(xyA, tA, xyB, tB, shifts,
                                                  vA, vB)))


def torus_self_crossings_reference(traj):
    """torus_self_crossings as it read over the box shifts."""
    found = box_shift_crossings(traj.xy, traj.t, traj.xy, traj.t, traj.v,
                                traj.v)
    out = []
    for (m, n), (events, _) in found.items():
        for ev in events:
            if ev.t1 > ev.t2:
                ev = sg.IntersectionEvent(ev.t2, ev.t1, ev.x, ev.y,
                                          -ev.sign, ev.margin)
                loop = (m, n)
            else:
                loop = (-m, -n)
            out.append((ev, loop))
    out.sort(key=lambda pair: (pair[0].t1, pair[0].t2))
    return out


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


def test_census_equals_brute_force_census():
    # every segment pair of the lift and each translate through the exact
    # solve, no hash: an oracle independent of the engine's grid and of the
    # shifts it skips
    horizons = (5.0, 12.5, 25.0)
    found = {}
    for name in ("liouville", "two-frequency"):
        found[name] = 0
        for ray in _fan(name, 4, 25.0):
            got = cover.intersection_census(ray, class_radius=3,
                                            horizons=horizons)
            want = census_reference(
                ray, 3, horizons, lambda traj, s: brute_force(
                    traj.xy, traj.t, traj.xy, traj.t, s))
            assert got == want
            found[name] += sum(counts[-1] for by_power in got.classes.values()
                               for counts in by_power.values())
    # liouville's lifts stay near straight lines and miss their translates
    # up to T = 25; two-frequency's cross several translate families
    assert found["liouville"] == 0 and found["two-frequency"] > 100


@pytest.mark.parametrize("name", ["liouville", "two-frequency"])
def test_torus_self_crossings_equal_per_shift_loop(fans, name):
    rays, _ = fans[name]
    total = far = 0
    for ray in rays:
        got = cover.torus_self_crossings(ray)
        want = torus_self_crossings_reference(ray)
        assert [(_bits([ev]), loop) for ev, loop in got] == \
            [(_bits([ev]), loop) for ev, loop in want]
        total += len(got)
        far += sum(max(map(abs, loop)) > 2 for _, loop in got)
    # the scan is complete: loop classes beyond sup-norm 2 are found too
    assert total > 0 and far > 0


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


def _live(shifts, pA, pB):
    """The shifts that pass the engine's bounding-box test."""
    loA, hiA = pA.min(axis=0), pA.max(axis=0)
    loB, hiB = pB.min(axis=0), pB.max(axis=0)
    return [s for s in shifts
            if not ((loB + s > hiA) | (hiB + s < loA)).any()]


def test_box_shifts_equal_the_old_shift_lists():
    # the reference against the lists it replaced: torus_crossing_count
    # used to list the box range inline, and the closed-curve self-crossing
    # count the zero shift plus a half lattice one row taller than the box
    for a in SHORTENING_CURVES:
        pA = a.closed_polyline()
        for b in SHORTENING_CURVES:
            pB = b.closed_polyline()
            lo = np.floor(pA.min(axis=0) - pB.max(axis=0)).astype(int)
            hi = np.ceil(pA.max(axis=0) - pB.min(axis=0)).astype(int)
            old = [(m, n) for m in range(lo[0], hi[0] + 1)
                   for n in range(lo[1], hi[1] + 1)]
            assert _live(box_shifts(pA, pB), pA, pB) == _live(old, pA, pB)
        span = np.ceil(pA.max(axis=0) - pA.min(axis=0)).astype(int)
        old = [(0, 0)] + half_lattice(span[0], span[1] + 1)
        new = [s for s in box_shifts(pA, pA) if s >= (0, 0)]
        assert _live(new, pA, pA) == _live(old, pA, pA)


# ---------------------------------------------------------------------------
# the torus hash against the engine over the box shifts

def assert_same_by_shift(got, want):
    """The torus hash's {shift: (events, tangential)} equals the box-shift
    engine's, shift by shift, compared as float bits."""
    # padded pieces may give candidates, but no crossing, beyond the box
    assert not any(got[s][0] or got[s][1] for s in set(got) - set(want))
    for shift, (events, tangential) in want.items():
        got_events, got_tangential = got.get(shift, ([], []))
        assert _bits(got_events) == _bits(events), shift
        assert _bits(got_tangential) == _bits(tangential), shift


@given(A=polylines(), B=polylines(), self_query=st.booleans(),
       refine=st.booleans(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=200, deadline=None)
def test_torus_crossings_match_box_shifts(A, B, self_query, refine, seed):
    rng = np.random.default_rng(seed)
    tA = 0.05 * np.arange(len(A), dtype=float)
    tB = tA if self_query else 0.5 * np.arange(len(B), dtype=float)
    B = A if self_query else B
    vA = A + rng.normal(size=A.shape) if refine else None
    vB = vA if self_query else (B + rng.normal(size=B.shape) if refine
                                else None)
    assert_same_by_shift(sg.torus_crossings(A, tA, B, tB, vA, vB),
                         box_shift_crossings(A, tA, B, tB, vA, vB))


@st.composite
def closed_curves(draw):
    """Class curves bent by a sine, circles for the zero class, each with a
    periodic wiggle that can make it cross itself."""
    klass = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    n = draw(st.integers(8, 96))
    base = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    bend = draw(st.floats(0.0, 0.6))
    if klass == (0, 0):
        curve = circle_curve(base, 0.02 + bend, n)
    else:
        curve = straight_class_curve(klass, base=base, n=n, amplitude=bend)
    k = draw(st.integers(1, 3))
    wiggle = draw(st.floats(0.0, 0.4))
    u = 2.0 * math.pi * np.arange(n) / n
    nodes = curve.nodes + wiggle * np.stack([np.sin(k * u),
                                             np.cos((k + 1) * u)], axis=1)
    return ClosedCurve(nodes=nodes, deck=curve.deck)


@given(a=closed_curves(), b=closed_curves())
@settings(max_examples=100, deadline=None)
def test_torus_crossings_match_box_shifts_on_closed_curves(a, b):
    pA, pB = a.closed_polyline(), b.closed_polyline()
    tA = np.arange(len(pA), dtype=float)
    tB = np.arange(len(pB), dtype=float)
    assert_same_by_shift(sg.torus_crossings(pA, tA, pB, tB, None, None),
                         box_shift_crossings(pA, tA, pB, tB, None, None))
    assert_same_by_shift(sg.torus_crossings(pA, tA, pA, tA, None, None),
                         box_shift_crossings(pA, tA, pA, tA, None, None))


def test_torus_crossings_match_box_shifts_on_criterion_07_ray():
    spec = gallery("two-frequency")
    v0 = flow.unit_tangent(spec, (0.173, 0.319), 0.437)
    ray = flow.integrate(spec, v0, 40.0, dt=0.05)
    got = sg.torus_crossings(ray.xy, ray.t, ray.xy, ray.t, ray.v, ray.v)
    want = box_shift_crossings(ray.xy, ray.t, ray.xy, ray.t, ray.v, ray.v)
    assert_same_by_shift(got, want)
    # 1,405 shifts to list, of which 26 hold candidates
    assert len(want) > 50 * len(got)
    assert sum(len(ev) for ev, _ in got.values()) == 395
