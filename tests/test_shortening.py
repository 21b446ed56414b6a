import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from torusflow import segments as sg
from torusflow import shortening
from torusflow.errors import (DegenerateSpacing, NumericalBlowup,
                              ValidationError)
from torusflow.metrics import gallery
from torusflow.shortening import (ClosedCurve, _covariant_acceleration,
                                  _edge_data, _periodic_spline,
                                  _solve_cyclic_tridiag, _spline_resample,
                                  circle_curve, evolve,
                                  intersection_monotonicity_probe,
                                  straight_class_curve, torus_crossing_count)


def test_circle_geometry(flat):
    c = circle_curve((0.5, 0.5), 0.2, n=256)
    # inscribed polygon: relative length defect pi^2 / (6 n^2)
    assert c.g_length(flat) == pytest.approx(2 * math.pi * 0.2, rel=1e-4)
    # the norm of the covariant acceleration is the unsigned geodesic curvature
    k = _covariant_acceleration(flat, c.nodes[None], [c.deck])[2][0]
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
    sub[0], sup[-1] = clo, chi          # the cyclic corners
    rhs = rng.normal(size=(n, 2))
    dense = np.diag(diag)
    for i in range(1, n):
        dense[i, i - 1] = sub[i]
        dense[i - 1, i] = sup[i - 1]
    dense[0, n - 1] = clo
    dense[n - 1, 0] = chi
    x = _solve_cyclic_tridiag(sub[None], diag[None], sup[None], rhs[None])[0]
    assert np.abs(x - np.linalg.solve(dense, rhs)).max() < 1e-12


def test_cyclic_tridiag_singular_raises():
    n = 12
    rhs = np.ones((n, 1))
    sub, diag, sup = np.full(n, 0.5), np.full(n, 3.0), np.full(n, 0.5)
    sub[5] = diag[5] = sup[5] = 0.0       # a zero row
    sub[0], sup[-1] = 0.3, 0.2
    with pytest.raises(NumericalBlowup):
        _solve_cyclic_tridiag(sub[None], diag[None], sup[None], rhs[None])
    # the periodic second difference: constants span its null space, and
    # only the rank-one update sees it
    ones = np.ones(n)
    with pytest.raises(NumericalBlowup):
        _solve_cyclic_tridiag(-ones[None], 2.0 * ones[None], -ones[None], rhs[None])


@given(S=st.integers(2, 5), n=st.integers(4, 64), seed=st.integers(0, 2**32 - 1),
       dominance=st.sampled_from([0.0, 0.5, 3.0]))
@settings(max_examples=150, deadline=None)
def test_stacked_cyclic_solve_equals_each_block_alone(S, n, seed, dominance):
    # weakly dominant diagonals make LAPACK pivot; the block-diagonal solve
    # must still give each block exactly its own solution
    rng = np.random.default_rng(seed)
    sub, sup = rng.uniform(-1.0, 1.0, (2, S, n))
    diag = rng.uniform(-1.0, 1.0, (S, n)) + dominance * rng.choice([-1.0, 1.0], (S, n))
    rhs = rng.normal(size=(S, n, 2))
    try:
        alone = [_solve_cyclic_tridiag(sub[i:i + 1], diag[i:i + 1], sup[i:i + 1],
                                       rhs[i:i + 1]) for i in range(S)]
    except NumericalBlowup:
        return
    stacked = _solve_cyclic_tridiag(sub, diag, sup, rhs)
    assert stacked.tobytes() == np.concatenate(alone).tobytes()


def test_non_finite_spline_solve_sends_the_trial_one_member_at_a_time(
        liouville, monkeypatch):
    # 0 * inf is nan: an inf in one member's spline right-hand side leaks
    # through the zero coupling entries into every block of the stacked
    # solve, so the stacked trial must not be trusted; tried one at a time,
    # every member holds with the geometry its trial gives alone
    curves = _mixed_stack()
    nodes = np.stack([c.nodes for c in curves])
    decks = np.array([c.deck for c in curves], dtype=float)
    gamma_term, h, _ = _covariant_acceleration(liouville, nodes, decks)
    dt = np.full(len(curves), 1e-5)
    alone = [shortening._try_step(liouville, nodes[i:i + 1], decks[i:i + 1], h[i:i + 1],
                                  gamma_term[i:i + 1], dt[i:i + 1])
             for i in range(len(curves))]
    solve, sizes = shortening._solve_cyclic_tridiag, []

    def spoiled(sub, diag, sup, rhs):
        sizes.append(len(diag))
        if len(sizes) == 2:   # the stack's spline solve
            rhs = rhs.copy()
            rhs[1, 5, 0] = np.inf
        return solve(sub, diag, sup, rhs)

    monkeypatch.setattr(shortening, "_solve_cyclic_tridiag", spoiled)
    held, after = shortening._try_step(liouville, nodes, decks, h, gamma_term, dt)
    assert sizes[:2] == [len(curves)] * 2
    assert held.tolist() == [True] * len(curves)
    for i, (_, geometry) in enumerate(alone):
        assert [a[i].tobytes() for a in after] == [a[0].tobytes() for a in geometry]


def _bits(res):
    """Every field of a FlowResult, floats as hex and arrays as bytes."""
    def exact(x):
        return x.hex() if isinstance(x, float) else x
    return {
        "verdict": res.verdict, "nodes": res.curve.nodes.tobytes(),
        "deck": res.curve.deck,
        "snapshots": [(t.hex(), c.nodes.tobytes(), c.deck) for t, c in res.snapshots],
        "records": [tuple(map(exact, dataclasses.astuple(r))) for r in res.records],
        **{key: exact(getattr(res, key)) for key in (
            "steps", "halvings", "t_final", "length", "max_curvature",
            "extinction_time", "plateaued")},
    }


def _mixed_stack():
    """Curves of decks (0, 0), (1, 0) and (0, 1) that finish at different steps."""
    return [circle_curve((0.5, 0.5), 0.15, n=64),
            straight_class_curve((1, 0), base=(0.1, 0.3), n=64, amplitude=0.05),
            straight_class_curve((0, 1), base=(0.4, 0.0), n=64, amplitude=0.03),
            circle_curve((0.3, 0.6), 0.1, n=64)]


@pytest.mark.parametrize("name", ["flat", "liouville", "conformal-bump"])
def test_stack_members_equal_their_flows_alone(name):
    spec = gallery(name)
    curves = _mixed_stack()
    snaps = (0.001, 0.003, 0.005)
    stacked = evolve(spec, curves, snapshot_times=snaps)
    assert len({r.steps for r in stacked}) > 1
    assert all(r.snapshots for r in stacked)
    for curve, member in zip(curves, stacked):
        (alone,) = evolve(spec, [curve], snapshot_times=snaps)
        assert _bits(member) == _bits(alone)
    assert stacked.steps == sum(r.steps for r in stacked)
    assert stacked.halvings == 0


def test_member_halving_alone_leaves_the_others_in_step(monkeypatch):
    # with a curvature cap this loose the shrinking circle's steps fail and
    # halve; the class curves' steps hold and must not notice
    monkeypatch.setattr(shortening, "_DT_CURVATURE_CAP", 10.0)
    spec = gallery("liouville")
    curves = _mixed_stack()[:3]
    stacked = evolve(spec, curves, snapshot_times=(0.001, 0.003))
    assert [r.halvings > 0 for r in stacked] == [True, False, False]
    for curve, member in zip(curves, stacked):
        (alone,) = evolve(spec, [curve], snapshot_times=(0.001, 0.003))
        assert _bits(member) == _bits(alone)
    assert stacked.halvings == stacked[0].halvings


def test_broken_member_step_is_tried_alone(liouville):
    # a member whose trial nodes are not finite sends the stack's trial down
    # the one-member-at-a-time path: it fails, the others hold, and every
    # member's geometry is the one its trial gives alone
    curves = _mixed_stack()
    nodes = np.stack([c.nodes for c in curves])
    decks = np.array([c.deck for c in curves], dtype=float)
    gamma_term, h, _ = shortening._covariant_acceleration(liouville, nodes, decks)
    gamma_term[1, 7] = np.nan
    dt = np.full(len(curves), 1e-5)
    held, after = shortening._try_step(liouville, nodes, decks, h, gamma_term, dt)
    assert held.tolist() == [True, False, True, True]
    for i in (0, 2, 3):
        alone = shortening._try_step(liouville, nodes[i:i + 1], decks[i:i + 1],
                                     h[i:i + 1], gamma_term[i:i + 1], dt[i:i + 1])
        assert alone[0].tolist() == [True]
        assert [a[i].tobytes() for a in after] == [a[0].tobytes() for a in alone[1]]


def test_evolve_rejects_empty_and_ragged_stacks(flat):
    with pytest.raises(ValidationError, match=r"got \[\]"):
        evolve(flat, [])
    with pytest.raises(ValidationError, match=r"got \[64, 48\]"):
        evolve(flat, [circle_curve((0.5, 0.5), 0.2, n=64),
                      circle_curve((0.5, 0.5), 0.1, n=48)])


def test_monotonicity_probe_rejects_negative_times(flat):
    a = circle_curve((0.45, 0.5), 0.15, n=64)
    b = circle_curve((0.57, 0.5), 0.13, n=64)
    with pytest.raises(ValidationError, match="positive snapshot times"):
        intersection_monotonicity_probe(flat, a, b, probe_times=(-1.0, 0.001))


def resampled(spec, curve, n):
    """Copy of a curve with n nodes at uniform metric arclength."""
    return ClosedCurve(nodes=_spline_resample(spec, curve.nodes[None],
                                              [curve.deck], n)[0],
                       deck=curve.deck)


def test_resample_uniform_and_closed(flat):
    c = straight_class_curve((1, 1), n=97, amplitude=0.08)
    r = resampled(flat, c, 128)
    assert len(r.nodes) == 128 and r.deck == (1, 1)
    h = r.g_edge_lengths(flat)
    assert h.max() / h.min() < 1.001
    assert r.g_length(flat) == pytest.approx(c.g_length(flat), rel=1e-4)


def test_flat_circle_extinction(flat):
    (res,) = evolve(flat, [circle_curve((0.5, 0.5), 0.2, n=96)])
    assert res.verdict == "shrank_to_point"
    assert res.extinction_time == pytest.approx(0.02, rel=0.05)


def test_flat_class_curve_converges(flat):
    (res,) = evolve(flat, [straight_class_curve((1, 0), base=(0.0, 0.3), n=64,
                                                amplitude=0.05)])
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
    (res,) = evolve(flat, [circle_curve((0.5, 0.5), 0.25, n=128)])
    assert res.records
    assert _dissipation_mismatch(res.records) < 0.02


def test_snapshots_land_exactly(flat):
    (res,) = evolve(flat, [circle_curve((0.5, 0.5), 0.2, n=96)],
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
        evolve(flat, [ClosedCurve(nodes=nodes)])


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
    (res,) = evolve(flat, [circle_curve((0.5, 0.5), 0.15, n=64)])
    assert res.verdict == "shrank_to_point"
    assert res.extinction_time == pytest.approx(0.15 ** 2 / 2, rel=0.05)


# ---------------------------------------------------------------------------
# the periodic spline resample against scipy's periodic CubicSpline

def _spline_resample_scipy(spec, nodes, deck, n_new):
    """The resample as it was written on scipy's CubicSpline."""
    h = _edge_data(spec, nodes[None], [deck])[1][0]
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
    got = _periodic_spline(u[None], y[None], t)[0]
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(y).max())
    # the knots, the seam included, are reproduced exactly
    assert np.array_equal(_periodic_spline(u[None], y[None], u[:-1])[0], y)


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
    got = _spline_resample(spec, nodes[None], [(p, q)], n_new)[0]
    want = _spline_resample_scipy(spec, nodes, (p, q), n_new)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(nodes).max())
    # the closing node is the lift's first node, exactly
    assert np.array_equal(got[0], nodes[0])
