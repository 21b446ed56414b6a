import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from torusflow import segments as sg
from torusflow.errors import (DegenerateSpacing, NumericalBlowup,
                              ValidationError)
from torusflow.metrics import gallery
from torusflow.shortening import (ClosedCurve, _edge_data, _periodic_spline,
                                  _solve_cyclic_tridiag, _spline_resample,
                                  circle_curve, evolve,
                                  intersection_monotonicity_probe,
                                  straight_class_curve, torus_crossing_count)


def test_circle_geometry(flat):
    c = circle_curve((0.5, 0.5), 0.2, n=256)
    # inscribed polygon: relative length defect pi^2 / (6 n^2)
    assert c.g_length(flat) == pytest.approx(2 * math.pi * 0.2, rel=1e-4)
    _, k = c.curvature(flat)
    assert np.allclose(k, 5.0, rtol=1e-3)
    # the embedded circle: no transversal crossing with itself or with any
    # of its translates on the torus
    p = c.closed_polyline()
    t = np.arange(len(p), dtype=float)
    found = sg.torus_crossings(p, t, p, t, None, None)
    assert found and not any(ev for ev, _ in found.values())


def test_curve_validation():
    with pytest.raises(ValidationError):
        ClosedCurve(nodes=np.zeros((3, 2)))
    with pytest.raises(ValidationError,
                       match="translation class must be a nonzero"):
        straight_class_curve((0, 0))


def test_bent_class_curve_is_longer(flat):
    straight = straight_class_curve((1, 0), n=128)
    bent = straight_class_curve((1, 0), n=128, amplitude=0.05)
    assert straight.g_length(flat) == pytest.approx(1.0, abs=1e-12)
    assert bent.g_length(flat) > straight.g_length(flat) + 1e-3
    assert bent.deck == (1, 0)


def test_cyclic_tridiag_against_dense():
    rng = np.random.default_rng(7)
    n = 12
    sub = rng.uniform(0.1, 0.5, n)
    sup = rng.uniform(0.1, 0.5, n)
    diag = rng.uniform(3.0, 4.0, n)       # diagonally dominant
    clo, chi = 0.3, 0.2
    rhs = rng.normal(size=(n, 2))
    dense = np.diag(diag)
    for i in range(1, n):
        dense[i, i - 1] = sub[i]
        dense[i - 1, i] = sup[i - 1]
    dense[0, n - 1] = clo
    dense[n - 1, 0] = chi
    x = _solve_cyclic_tridiag(sub, diag, sup, clo, chi, rhs)
    assert np.abs(x - np.linalg.solve(dense, rhs)).max() < 1e-12


def test_cyclic_tridiag_singular_raises():
    n = 12
    rhs = np.ones((n, 1))
    sub, diag, sup = np.full(n, 0.5), np.full(n, 3.0), np.full(n, 0.5)
    sub[5] = diag[5] = sup[5] = 0.0       # a zero row
    with pytest.raises(NumericalBlowup):
        _solve_cyclic_tridiag(sub, diag, sup, 0.3, 0.2, rhs)
    # the periodic second difference: constants span its null space, and
    # only the rank-one update sees it
    ones = np.ones(n)
    with pytest.raises(NumericalBlowup):
        _solve_cyclic_tridiag(-ones, 2.0 * ones, -ones, -1.0, -1.0, rhs)


def resampled(spec, curve, n):
    """Copy of a curve with n nodes at uniform metric arclength."""
    return ClosedCurve(nodes=_spline_resample(spec, curve.nodes, curve.deck, n),
                       deck=curve.deck)


def test_resample_uniform_and_closed(flat):
    c = straight_class_curve((1, 1), n=97, amplitude=0.08)
    r = resampled(flat, c, 128)
    assert len(r.nodes) == 128 and r.deck == (1, 1)
    h = r.g_edge_lengths(flat)
    assert h.max() / h.min() < 1.001
    assert r.g_length(flat) == pytest.approx(c.g_length(flat), rel=1e-4)


def test_flat_circle_extinction(flat):
    res = evolve(flat, circle_curve((0.5, 0.5), 0.2, n=96))
    assert res.verdict == "shrank_to_point"
    assert res.extinction_time == pytest.approx(0.02, rel=0.05)
    # symmetric collapse keeps the centroid fixed
    assert res.containment_drift < 1e-9


def test_flat_class_curve_converges(flat):
    res = evolve(flat, straight_class_curve((1, 0), base=(0.0, 0.3), n=64,
                                            amplitude=0.05))
    assert res.verdict == "converged_to_geodesic"
    assert res.length == pytest.approx(1.0, abs=1e-3)
    assert res.curve.deck == (1, 0)


def _dissipation_mismatch(records):
    """Worst relative gap between shrink rate and curvature integral."""
    worst = 0.0
    for r in records:
        scale = max(abs(r.curvature_integral), 1e-12)
        worst = max(worst, abs(r.shrink_rate - r.curvature_integral) / scale)
    return worst


def test_shrink_rate_matches_curvature_integral(flat):
    res = evolve(flat, circle_curve((0.5, 0.5), 0.25, n=128))
    assert res.records
    assert _dissipation_mismatch(res.records) < 0.02


def test_snapshots_land_exactly(flat):
    res = evolve(flat, circle_curve((0.5, 0.5), 0.2, n=96),
                 snapshot_times=(0.004, 0.009))
    times = [t for t, _ in res.snapshots]
    assert times == [0.004, 0.009]
    lengths = [c.g_length(flat) for _, c in res.snapshots]
    assert lengths[0] > lengths[1]
    # the shrinking circle stays round: radius ~ sqrt(r0^2 - 2t)
    r1 = math.sqrt(0.2 ** 2 - 2 * 0.004)
    assert lengths[0] == pytest.approx(2 * math.pi * r1, rel=0.02)


def test_degenerate_spacing_raises(flat):
    nodes = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(DegenerateSpacing):
        ClosedCurve(nodes=nodes).curvature(flat)


def test_torus_crossing_counts():
    a = circle_curve((0.5, 0.5), 0.15, n=64)
    b = circle_curve((0.62, 0.5), 0.15, n=64)
    assert torus_crossing_count(a, b) == 2
    line = straight_class_curve((0, 1), base=(0.5, 0.0), n=64)
    assert torus_crossing_count(a, line) == 2
    far = circle_curve((0.1, 0.1), 0.05, n=64)
    assert torus_crossing_count(a, far) == 0
    # crossings through the seam of the fundamental domain
    left = circle_curve((0.02, 0.5), 0.1, n=64)
    right = circle_curve((0.98, 0.5), 0.1, n=64)
    assert torus_crossing_count(left, right) == 2


def test_monotonicity_probe_flat(flat):
    a = circle_curve((0.45, 0.5), 0.15, n=64)
    b = circle_curve((0.57, 0.5), 0.13, n=64)
    out = intersection_monotonicity_probe(flat, a, b,
                                          probe_times=(0.002, 0.005, 0.008))
    assert out["counts"][0] == 2
    assert out["nonincreasing"]
    assert out["verdict_a"] == "shrank_to_point"
    assert len(out["times"]) == len(out["counts"])


def test_find_contractible_geodesic_flat(flat):
    res = evolve(flat, circle_curve((0.5, 0.5), 0.15, n=64))
    assert res.verdict == "shrank_to_point"
    assert res.extinction_time == pytest.approx(0.15 ** 2 / 2, rel=0.05)


# ---------------------------------------------------------------------------
# the periodic spline resample against scipy's periodic CubicSpline

def _spline_resample_scipy(spec, nodes, deck, n_new):
    """The resample as it was written on scipy's CubicSpline."""
    _, h = _edge_data(spec, nodes, deck)
    u = np.concatenate([[0.0], np.cumsum(h)])
    u /= u[-1]
    d = np.asarray(deck, dtype=float)
    periodic = np.vstack([nodes - np.outer(u[:-1], d), nodes[0]])
    cs = CubicSpline(u, periodic, bc_type="periodic", axis=0)
    u_new = np.arange(n_new, dtype=float) / n_new
    return cs(u_new) + np.outer(u_new, d)


@given(widths=st.lists(st.floats(0.05, 20.0), min_size=4, max_size=80),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_periodic_spline_matches_scipy(widths, seed):
    u = np.concatenate([[0.0], np.cumsum(widths)])
    u /= u[-1]
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(len(widths), 2))
    t = np.concatenate([u[:-1], rng.uniform(0.0, 1.0, 64)])
    t = t[t < 1.0]
    want = CubicSpline(u, np.vstack([y, y[:1]]), bc_type="periodic", axis=0)(t)
    got = _periodic_spline(u, y, t)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(y).max())
    # the knots, the seam included, are reproduced exactly
    assert np.array_equal(_periodic_spline(u, y, u[:-1]), y)


@given(p=st.integers(-2, 2), q=st.integers(-2, 2),
       amplitude=st.floats(-0.15, 0.15), warp=st.floats(-0.8, 0.8),
       n=st.integers(8, 160), n_new=st.integers(8, 160),
       base=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
@settings(max_examples=60, deadline=None)
def test_spline_resample_matches_scipy(p, q, amplitude, warp, n, n_new, base):
    if (p, q) == (0, 0):
        p = 1
    # a bent class curve on unevenly spaced parameters
    u = np.arange(n) / n
    u = u + warp * np.sin(2.0 * math.pi * u) / (2.0 * math.pi)
    norm = math.hypot(p, q)
    nodes = (np.asarray(base) + np.outer(u, (p, q))
             + amplitude * np.outer(np.sin(4.0 * math.pi * u), (-q / norm, p / norm)))
    spec = gallery("liouville")
    got = _spline_resample(spec, nodes, (p, q), n_new)
    want = _spline_resample_scipy(spec, nodes, (p, q), n_new)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(nodes).max())
    # the closing node is the lift's first node, exactly
    assert np.array_equal(got[0], nodes[0])
