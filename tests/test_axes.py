import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from torusflow import axes, shortening
from torusflow.axes import (check_foliation, find_minimal_axis, flatness_test,
                            grid_shortest_class_length, line_deviation,
                            shoot_closed_geodesic)
from torusflow.cover import class_frame
from torusflow.errors import ValidationError
from torusflow.metrics import MetricSpec, gallery, quadratic_form
from torusflow.shortening import evolve

# closed-form lengths of the two short liouville axes, from one-dimensional
# quadrature of the separated metric along the coordinate circles
LIOUVILLE_AXIS_LENGTH = {(1, 0): 0.8862896010071855, (0, 1): 0.8323066247111648}


def test_class_frame_rejects_zero(flat):
    # the one nonzero-class check, shared with straight_class_curve
    with pytest.raises(ValidationError,
                       match="translation class must be a nonzero"):
        find_minimal_axis(flat, (0, 0))


def test_shoot_flat_horizontal(flat):
    axis = shoot_closed_geodesic(flat, (1, 0), (0.0, 0.3), 0.0, 1.0)
    assert axis.length == pytest.approx(1.0, abs=1e-10)
    assert axis.closing_residual < 1e-10
    assert axis.klass == (1, 0)
    assert np.allclose(axis.nodes[:, 1], 0.3, atol=1e-12)


def test_minimal_axis_flat_diagonal(flat):
    axis = find_minimal_axis(flat, (1, 1), n=128, n_offsets=3)
    assert axis.length == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert line_deviation(axis) < 1e-8


def test_minimal_axis_liouville_short_classes(liouville):
    for klass, ref in LIOUVILLE_AXIS_LENGTH.items():
        axis = find_minimal_axis(liouville, klass, n=128, n_offsets=3)
        assert axis.length == pytest.approx(ref, rel=1e-4)
        assert axis.closing_residual < 1e-5


def test_basin_stop_reaches_liouville_closed_form(liouville):
    for klass, ref in LIOUVILLE_AXIS_LENGTH.items():
        axis = find_minimal_axis(liouville, klass)
        assert axis.length == pytest.approx(ref, rel=1e-10)
        assert axis.closing_residual < 1e-9


@pytest.mark.parametrize("klass", [(1, 0), (1, 1)])
def test_basin_stop_matches_full_flow(bump, klass, monkeypatch):
    fast = find_minimal_axis(bump, klass)
    # the slow path: the same search with the flow run to its own tolerance
    monkeypatch.setattr(axes, "_BASIN_K_TOL",
                        inspect.signature(evolve).parameters["k_tol"].default)
    slow = find_minimal_axis(bump, klass)
    assert fast.length == pytest.approx(slow.length, rel=1e-10)
    assert fast.closing_residual < 1e-9
    # same axis: the starts differ by a whole number of class periods
    gap = np.subtract(fast.start, slow.start)
    periods = round(float(gap @ klass) / float(np.dot(klass, klass)))
    assert np.abs(gap - periods * np.asarray(klass)).max() < 1e-9


def test_twin_candidates_keep_seed_order(flat, monkeypatch):
    # lengths that differ by rounding keep their seed order; a real gap wins
    lengths = iter([1.0 + 4e-15, 1.0 - 3e-15, 1.0 + 1e-9, 1.0, 0.999])
    monkeypatch.setattr(axes.sh, "evolve", lambda spec, seeds, **kw: tuple(
        SimpleNamespace(length=next(lengths), curve=seed) for seed in seeds))
    shot = []

    def shoot(spec, klass, start, theta, length, n_samples):
        shot.append(length)
        raise axes.NotConverged("recorded")
    monkeypatch.setattr(axes, "shoot_closed_geodesic", shoot)
    with pytest.raises(axes.NotConverged):
        find_minimal_axis(flat, (1, 0))
    assert shot == [0.999, 1.0 + 4e-15, 1.0 - 3e-15]


def test_shooting_judges_stalled_flow_candidates(twofreq):
    # every two-frequency (1, 1) seed flow plateaus at a curvature near 0.05,
    # above the basin tolerance; the shooting still closes the shortest one.
    # (0, 1) needs the flow: shot from the straight seeds alone it closes a
    # geodesic 6.5% longer than the oracle's loop
    for klass in [(1, 1), (0, 1)]:
        axis = find_minimal_axis(twofreq, klass, certify=True)
        assert abs(axis.diagnostics["oracle_gap"]) < 0.01, klass
        assert axis.closing_residual < 1e-9, klass


def test_grid_oracle_flat(flat):
    out = grid_shortest_class_length(flat, (1, 0), n=128)
    # the straight axis is a grid path, so the oracle can only overshoot
    assert 1.0 - 1e-12 <= out["length"] <= 1.0005
    diag = grid_shortest_class_length(flat, (1, 1), n=128)
    assert math.sqrt(2.0) - 1e-12 <= diag["length"] <= math.sqrt(2.0) + 0.001


def _stencil_reference(radius):
    # the loop that listed the oracle's moves before primitive_classes did
    moves = []
    for di in range(1, radius + 1):
        for dj in range(-radius, radius + 1):
            if math.gcd(di, abs(dj)) == 1:
                moves.append((di, dj))
    return moves


@pytest.mark.parametrize("radius", range(7))
def test_oracle_moves_equal_stencil_loop(flat, radius, monkeypatch):
    # each move (di, dj) weighs its edges through one quadratic form of the
    # chart step di ds e_s + dj dw e_w, then the vertical chain (0, 1) follows;
    # for class (1, 0) on an n-grid that step is (di / n, dj / n)
    n = 16
    seen = []

    def spy(g, dx, dy):
        seen.append((round(float(dx) * n), round(float(dy) * n)))
        return quadratic_form(g, dx, dy)

    monkeypatch.setattr(axes, "_ORACLE_STENCIL_RADIUS", radius)
    monkeypatch.setattr(axes, "quadratic_form", spy)
    grid_shortest_class_length(flat, (1, 0), n=n)
    assert seen == _stencil_reference(radius) + [(0, 1)]


def _edge_weights_two_sqrt(g, delta, di, dj):
    # the oracle's edge weights as first written: one square root per end
    q = quadratic_form(g, delta[0], delta[1])
    src, dst = q[:len(q) - di], q[di:]
    if dj > 0:
        return 0.5 * (np.sqrt(src[:, :-dj]) + np.sqrt(dst[:, dj:]))
    if dj < 0:
        return 0.5 * (np.sqrt(src[:, -dj:]) + np.sqrt(dst[:, :dj]))
    return 0.5 * (np.sqrt(src) + np.sqrt(dst))


@pytest.mark.parametrize("name", ["flat", "liouville"])
@pytest.mark.parametrize("klass", [(1, 0), (1, 1)])
def test_oracle_takes_each_square_root_once(name, klass, monkeypatch):
    spec = gallery(name)
    got = grid_shortest_class_length(spec, klass, n=64)
    monkeypatch.setattr(axes, "_edge_weights", _edge_weights_two_sqrt)
    want = grid_shortest_class_length(spec, klass, n=64)
    exact = {k: v.hex() if isinstance(v, float) else v for k, v in got.items()}
    assert exact == {k: v.hex() if isinstance(v, float) else v for k, v in want.items()}


_chart_coef = st.floats(-0.1, 0.1)
_chart_term = st.tuples(st.integers(-4, 4), st.integers(-4, 4), _chart_coef, _chart_coef)


@st.composite
def _chart_cases(draw):
    """A positive-definite metric with g12 and negative modes, a class and n.

    The oscillatory parts stay below 6 * 0.15 in l1 norm, so E and G stay
    above 1.1 and |F| below 0.6.
    """
    g11 = [(0, 0, 2.0, 0.0)] + draw(st.lists(_chart_term, max_size=6))
    g22 = (g11 if draw(st.booleans())
           else [(0, 0, 2.5, 0.0)] + draw(st.lists(_chart_term, max_size=6)))
    spec = MetricSpec("chart", g11=g11, g12=draw(st.lists(_chart_term, max_size=4)),
                      g22=g22)
    klass = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                 .filter(lambda k: k != (0, 0)))
    return spec, klass, draw(st.sampled_from([8, 16, 32, 64]))


@settings(max_examples=60, deadline=None)
@given(_chart_cases())
def test_class_chart_equals_fields_at_the_chart_nodes(case):
    # the slow path: each chart node's position i ds e_s + w_j e_w, laid out
    # as the oracle lays out its graph, evaluated through fields()
    spec, klass, n = case
    p, q, norm, e_s, e_w = class_frame(klass)
    Ns, dw, margin = int(round(norm * n)), 1.0 / n, axes._ORACLE_MARGIN
    W = int(round((1.0 / norm + margin + margin) / dw)) + 1
    j_grid = -margin + np.arange(W) * dw
    P = ((np.arange(Ns + 1) * (norm / Ns))[:, None, None] * e_s
         + j_grid[None, :, None] * e_w)
    f = spec.fields(P[..., 0].ravel(), P[..., 1].ravel(), order=0)
    g = axes._class_chart(spec, klass, Ns, j_grid)
    for key in "EFG":
        want = np.broadcast_to(f[key], f["E"].shape).reshape(Ns + 1, W)
        assert np.abs(g[key] - want).max() <= 1e-13, key
    if not spec.g12:
        assert g["F"] == 0.0 and np.ndim(g["F"]) == 0
    assert (g["G"] is g["E"]) == (spec.g22 == spec.g11)


@pytest.mark.parametrize("name", ["liouville", "conformal-bump"])
def test_oracle_start_loop_alone_equals_it_in_a_batch(name, monkeypatch):
    calls, loops = [], axes._loop_lengths

    def spy(wgt, vert, start_rows):
        calls.append((wgt, vert, start_rows))
        return loops(wgt, vert, start_rows)
    monkeypatch.setattr(axes, "_loop_lengths", spy)
    out = grid_shortest_class_length(gallery(name), (1, 1), n=64)
    (wgt, vert, coarse_rows), (_, _, fine_rows) = calls
    rows = np.concatenate([coarse_rows, fine_rows])
    batch = loops(wgt, vert, rows)
    alone = np.concatenate([loops(wgt, vert, rows[k:k + 1]) for k in range(len(rows))])
    assert batch.tobytes() == alone.tobytes()
    # the fine pass skips the window centre, whose loop the coarse pass ran:
    # 16 + 12 starts, and the answer is the minimum over the whole window
    radius = axes._ORACLE_REFINE_WINDOW
    assert (len(coarse_rows), len(fine_rows)) == (axes._ORACLE_COARSE_STARTS, 2 * radius)
    centre = coarse_rows[np.argmin(batch[:len(coarse_rows)])]
    window = np.arange(centre - radius, centre + radius + 1)
    assert np.array_equal(np.setdiff1d(window, fine_rows), [centre])
    full = loops(wgt, vert, window)
    assert out["length"].hex() == float(full.min()).hex()
    assert out["offset"] == -axes._ORACLE_MARGIN + window[np.argmin(full)] * (1.0 / 64)


def _vertical_relax_minimum(d, vw):
    """_vertical_relax with np.minimum.accumulate, the scan it replaced."""
    c = np.concatenate([[0.0], np.cumsum(vw)])
    up = np.minimum.accumulate(d - c[None, :], axis=1) + c[None, :]
    down = (np.flip(np.minimum.accumulate(np.flip(d + c[None, :], axis=1),
                                          axis=1), axis=1) - c[None, :])
    return np.minimum(np.minimum(d, up), down)


# the DP's distances: unreached (inf) or a finite length, with one row all
# unreached; the vertical edge weights are positive lengths
_distance = st.one_of(st.just(np.inf), st.floats(0.0, 50.0))


@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_vertical_relax_fmin_equals_minimum_scan(data, rows, cols):
    d = data.draw(hnp.arrays(float, (rows, cols), elements=_distance))
    d[data.draw(st.integers(0, rows - 1))] = np.inf
    vw = data.draw(hnp.arrays(float, cols - 1, elements=st.floats(1e-3, 2.0)))
    got = axes._vertical_relax(d, vw)
    assert got.tobytes() == _vertical_relax_minimum(d, vw).tobytes()


def test_certified_axis_carries_oracle_gap(flat):
    axis = find_minimal_axis(flat, (0, 1), n=128, n_offsets=3, certify=True)
    assert "grid_oracle" in axis.diagnostics
    assert abs(axis.diagnostics["oracle_gap"]) < 0.01


def test_foliation_flat_vs_liouville(flat, liouville):
    rep = check_foliation(flat, (1, 0), n_seeds=6, n=96)
    assert rep.foliated
    assert rep.n_distinct == 6
    assert rep.crossing_free
    rep = check_foliation(liouville, (1, 0), n_seeds=6, n=96)
    assert not rep.foliated
    assert rep.n_distinct < 6


def _limit_curves_reference(intercepts, period_w):
    """(n_distinct, representative indices) by the pairwise clustering scan
    and seam merge that check_foliation's circular gaps replaced."""
    order = np.argsort(intercepts)
    clusters = []
    for k in order:
        val = intercepts[k]
        wrapped = (val - clusters[-1][-1][1]) % period_w if clusters else None
        if clusters and min(wrapped, period_w - wrapped) < axes._DISTINCT_TOL:
            clusters[-1].append((k, val))
        else:
            clusters.append([(k, val)])
    # the first and last cluster can be the same one across the seam
    if len(clusters) > 1:
        gap = (clusters[0][0][1] - clusters[-1][-1][1]) % period_w
        if min(gap, period_w - gap) < axes._DISTINCT_TOL:
            clusters[0] = clusters.pop() + clusters[0]
    return len(clusters), {int(cl[0][0]) for cl in clusters}


@st.composite
def _foliation_limits(draw):
    """A class, and per seed the transverse offset of its limit or None."""
    klass = draw(st.sampled_from([(1, 0), (1, 1), (2, 1)]))
    period = 1.0 / math.hypot(*klass)
    tol = axes._DISTINCT_TOL
    # cluster centres, some on or next to the seam, with members spread
    # around them by less than the distinctness tolerance
    centre = (st.floats(0.0, 1.0, exclude_max=True).map(lambda u: u * period)
              | st.sampled_from([0.0, 0.3 * tol, period - 0.3 * tol]))
    members = st.tuples(centre, st.lists(st.floats(-0.9 * tol, 0.9 * tol),
                                         min_size=1, max_size=4))
    offsets = [(c + d) % period
               for c, ds in draw(st.lists(members, max_size=6)) for d in ds]
    offsets += [None] * draw(st.integers(0, 2))
    return klass, period, draw(st.permutations(offsets)) if offsets else [None]


@settings(max_examples=300, deadline=None)
@given(_foliation_limits())
def test_foliation_limit_curves_match_pairwise_clustering(case):
    klass, period, offsets = case
    e_w = class_frame(klass)[4]
    limits = iter(offsets)
    limit_curves = []
    pairs = []

    def fake_evolve(spec, curves, max_steps):
        return tuple(fake_member(next(limits)) for _ in curves)

    def fake_member(w):
        if w is None:
            return SimpleNamespace(verdict="budget_exhausted", curve=None)
        limit_curves.append(SimpleNamespace(nodes=np.tile(w * e_w, (4, 1))))
        return SimpleNamespace(verdict="converged_to_geodesic",
                               curve=limit_curves[-1])

    def no_crossings(a, b):
        pairs.append((a, b))
        return 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortening, "evolve", fake_evolve)
        mp.setattr(shortening, "torus_crossing_count", no_crossings)
        report = check_foliation(None, klass, n_seeds=len(offsets))
    intercepts = [float(np.median((c.nodes @ e_w) % period))
                  for c in limit_curves]
    n_distinct, reps = _limit_curves_reference(intercepts, period)
    assert report.n_distinct == n_distinct
    assert report.intercepts == sorted(intercepts)
    if n_distinct > 1:
        # the representatives are the curves the crossing check pairs up
        index = {id(c): k for k, c in enumerate(limit_curves)}
        assert {index[id(c)] for pair in pairs for c in pair} == reps


def test_foliation_without_limit_curve_is_not_foliated(monkeypatch):
    # one seed that ends without converging leaves no limit curve, so no
    # family to call foliated, though the empty gap list and 0 >= 1 // 2
    # would pass the other two tests
    monkeypatch.setattr(shortening, "evolve", lambda spec, curves, max_steps: tuple(
        SimpleNamespace(verdict="budget_exhausted", curve=None) for _ in curves))
    report = check_foliation(None, (1, 0), n_seeds=1)
    assert report.verdicts == ["budget_exhausted"]
    assert report.n_distinct == 0 and report.max_gap_fraction == 1.0
    assert report.crossing_free
    assert not report.foliated


def test_flatness_verdicts(flat, bump):
    rf = flatness_test(flat, grid_n=128)
    assert rf.verdict == "flat"
    assert not rf.witness_classes
    assert abs(rf.curvature.total) < 1e-6
    rb = flatness_test(bump, grid_n=128)
    assert rb.verdict == "not flat"
    assert rb.curvature.max_abs > 1.0
    assert abs(rb.curvature.total) < 1e-6
