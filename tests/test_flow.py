import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tables
from test_metrics import SHEARED

from torusflow import cli, dop853_tables, flow
from torusflow.entropy import PRESETS
from torusflow.errors import StepFailure, ValidationError
from torusflow.flow import (DEFAULT_ATOL, DEFAULT_RTOL, MAX_SAMPLES, Trajectory,
                            _sample_times, arclength_of, integrate,
                            integrate_batch, integrate_rays, unit_tangent)
from torusflow.metrics import (gallery, gallery_names, geodesic_accel,
                               quadratic_form)


def test_unit_tangent_angle_and_direction_agree(liouville):
    a = unit_tangent(liouville, (0.2, 0.3), 0.7)
    b = unit_tangent(liouville, (0.2, 0.3), (math.cos(0.7), math.sin(0.7)))
    assert a.vx == pytest.approx(b.vx, rel=1e-15)
    assert a.vy == pytest.approx(b.vy, rel=1e-15)


def test_unit_tangent_is_g_unit(twofreq):
    v = unit_tangent(twofreq, (0.13, 0.77), 1.1)
    f = twofreq.fields(np.array([v.x]), np.array([v.y]), order=0)
    n2 = f["E"][0] * v.vx ** 2 + 2 * f["F"][0] * v.vx * v.vy + f["G"][0] * v.vy ** 2
    assert n2 == pytest.approx(1.0, abs=1e-14)


def test_integrate_validates(flat):
    v = unit_tangent(flat, (0, 0), 0.3)
    with pytest.raises(ValidationError):
        integrate(flat, v, -1.0)
    with pytest.raises(ValidationError):
        integrate(flat, type(v)(0.0, 0.0, 0.5, 0.5), 1.0)   # not g-unit
    with pytest.raises(ValidationError):
        integrate(flat, v, 1.0, dt=math.inf)


def test_flat_geodesics_are_straight(flat):
    v = unit_tangent(flat, (0.1, 0.2), 0.53)
    traj = integrate(flat, v, 20.0, dt=0.1)
    line = traj.xy[0] + np.outer(traj.t, [v.vx, v.vy])
    assert np.abs(traj.xy - line).max() < 1e-10
    assert traj.speed_drift(flat) < 1e-13


def test_arclength_equals_time(liouville):
    v = unit_tangent(liouville, (0.7, 0.1), 0.2)
    traj = integrate(liouville, v, 30.0, dt=0.05)
    # unit-speed parameterisation: arclength tracks time
    s = arclength_of(traj.t, traj.speeds(liouville))
    assert abs(s[-1] - traj.t[-1]) < 1e-6


def test_short_horizon_reversal(liouville):
    v0 = unit_tangent(liouville, (0.42, 0.66), 1.0)
    fwd = integrate(liouville, v0, 50.0, dt=0.5, rtol=1e-12, atol=1e-13)
    end = fwd.final_tangent()
    vb = unit_tangent(liouville, (end.x, end.y), (-end.vx, -end.vy))
    back = integrate(liouville, vb, 50.0, dt=0.5, rtol=1e-12, atol=1e-13)
    assert abs(back.xy[-1, 0] - v0.x) < 1e-8
    assert abs(back.xy[-1, 1] - v0.y) < 1e-8


def _scipy_rhs(spec):
    # integrate's own right-hand side: one-point geodesic_accel on floats
    def rhs(t, state):
        x, y, vx, vy = state.tolist()
        ax, ay = geodesic_accel(spec, x, y, vx, vy)
        return vx, vy, ax, ay
    return rhs


def _dense_output_samples(spec, v0, T, dt, rtol, atol):
    """Reference sampler: scipy's DOP853 dense output, evaluated after the run."""
    sol = solve_ivp(_scipy_rhs(spec), (0.0, T), [v0.x, v0.y, v0.vx, v0.vy],
                    method="DOP853", rtol=rtol, atol=atol, dense_output=True)
    return sol.sol(_sample_times(T, dt)).T


def _t_eval_nfev(spec, v0, T, dt, rtol, atol):
    """RHS calls of scipy's DOP853 sampling through t_eval."""
    sol = solve_ivp(_scipy_rhs(spec), (0.0, T), [v0.x, v0.y, v0.vx, v0.vy],
                    method="DOP853", rtol=rtol, atol=atol,
                    t_eval=_sample_times(T, dt))
    return sol.nfev


def _count_rhs_calls(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return geodesic_accel(*args)
    monkeypatch.setattr(flow, "geodesic_accel", counted)
    return calls


def _assert_matches_scipy(spec, T, dt, rtol, atol, monkeypatch):
    v0 = unit_tangent(spec, (0.31, 0.58), 0.9)
    calls = _count_rhs_calls(monkeypatch)
    traj = integrate(spec, v0, T, dt=dt, rtol=rtol, atol=atol)
    monkeypatch.undo()
    ref = _dense_output_samples(spec, v0, T, dt, rtol, atol)
    assert np.abs(traj.xy - ref[:, 0:2]).max() < 1e-11
    assert np.abs(traj.v - ref[:, 2:4]).max() < 1e-11
    # the same steps: scipy's t_eval path also builds an interpolant on a
    # first step that holds only the t = 0 sample, 3 calls that the stepper
    # skips by returning the initial state
    assert calls[0] == _t_eval_nfev(spec, v0, T, dt, rtol, atol) - 3


_ORACLE_SPECS = [gallery(name) for name in gallery_names()] + [SHEARED]


@pytest.mark.parametrize("spec", _ORACLE_SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("T, dt", [(10.0, 0.1), (3.7, 0.3)])
def test_samples_equal_dense_output(spec, T, dt, monkeypatch):
    _assert_matches_scipy(spec, T, dt, 1e-12, 1e-13, monkeypatch)


@pytest.mark.parametrize("spec", _ORACLE_SPECS, ids=lambda s: s.name)
def test_step_control_matches_solve_ivp(spec, monkeypatch):
    # a loose tolerance reaches the factor caps that rtol 1e-12 never does
    _assert_matches_scipy(spec, 10.0, 0.1, 1e-6, 1e-8, monkeypatch)


def test_dop853_tables_equal_scipy():
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(dop853_tables, name) == getattr(scipy_tables, name)
    for name in ("A", "B", "D", "E3", "E5"):
        ours, theirs = getattr(dop853_tables, name), getattr(scipy_tables, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def _nan_after(n, accel):
    """accel for its first n calls, then a NaN acceleration on every call."""
    calls = [0]

    def patched(*args):
        calls[0] += 1
        return (math.nan, math.nan) if calls[0] > n else accel(*args)
    return patched, calls


def test_step_failure_matches_solve_ivp(liouville, monkeypatch):
    # a NaN stage fails the error test, so the step shrinks by the minimum
    # factor until it falls below 10 ulp of t: both steppers give up at the
    # same t after the same RHS calls (dt = T samples no step before the end)
    v0 = unit_tangent(liouville, (0.2, 0.3), 0.7)
    patched, calls = _nan_after(200, geodesic_accel)
    monkeypatch.setattr(flow, "geodesic_accel", patched)
    with pytest.raises(StepFailure) as failure:
        integrate(liouville, v0, 10.0, dt=10.0)
    monkeypatch.undo()
    patched, ref_calls = _nan_after(200, geodesic_accel)

    def rhs(t, state):
        x, y, vx, vy = state.tolist()
        return (vx, vy, *patched(liouville, x, y, vx, vy))
    sol = solve_ivp(rhs, (0.0, 10.0), [v0.x, v0.y, v0.vx, v0.vy],
                    method="DOP853", rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL)
    assert sol.status == -1
    assert calls[0] == ref_calls[0] == sol.nfev
    assert f"stalled at t={sol.t[-1]:g}:" in str(failure.value)


def test_nan_from_the_start_fails_fast(liouville, monkeypatch):
    # a NaN first step would otherwise shrink by 0.2 forever
    monkeypatch.setattr(flow, "geodesic_accel", _nan_after(0, geodesic_accel)[0])
    with pytest.raises(StepFailure, match="stalled at t=0:"):
        integrate(liouville, unit_tangent(liouville, (0.2, 0.3), 0.7), 10.0)


@pytest.mark.parametrize("field", ["x", "y", "vx", "vy"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrate_rejects_nonfinite_tangent(flat, field, bad):
    v = dataclasses.replace(unit_tangent(flat, (0.1, 0.2), 0.3), **{field: bad})
    with pytest.raises(ValidationError):
        integrate(flat, v, 1.0)


@pytest.mark.parametrize("T", [math.nan, math.inf])
def test_integrate_rejects_nonfinite_horizon(flat, T):
    with pytest.raises(ValidationError):
        integrate(flat, unit_tangent(flat, (0.1, 0.2), 0.3), T)


@pytest.mark.parametrize("T", [-5.0, -0.01, 0.0])
def test_batch_rejects_nonpositive_horizon(flat, T):
    with pytest.raises(ValidationError, match="horizon T must be positive"):
        integrate_batch(flat, np.array([[0.1, 0.2, 1.0, 0.0]]), T, h=0.01,
                        sample_dt=0.01)


def test_sample_grid_past_the_bound_fails_before_allocating(flat):
    # the largest grid in use, the calibration preset at half its probe step
    # (criterion 09), fits under the bound
    plan = PRESETS["calibration"]
    assert plan.n_samples * (2 * plan.horizons[-1] / plan.dt_probe + 1) <= MAX_SAMPLES
    v0 = unit_tangent(flat, (0.0, 0.0), 0.3)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="sample grid"):
            integrate(flat, v0, float(MAX_SAMPLES), dt=1.0)
        with pytest.raises(ValidationError, match="sample grid"):
            integrate_batch(flat, np.zeros((2 ** 12, 4)), 2.0 ** 12, h=1.0,
                            sample_dt=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sample_times_stay_inside_horizon(flat):
    # 3 * 0.1 rounds to 0.30000000000000004, past the horizon
    assert list(_sample_times(0.3, 0.1)) == [0.0, 0.1, 0.2, 0.3]
    traj = integrate(flat, unit_tangent(flat, (0.0, 0.0), 0.4), 0.3, dt=0.1)
    assert traj.t[-1] == 0.3
    assert len(traj) == 4


@settings(max_examples=200, deadline=None)
@given(T=st.floats(1e-3, 1e3), dt=st.floats(1e-3, 10.0))
def test_sample_times_grid(T, dt):
    assume(T / dt < 1e5)
    ts = _sample_times(T, dt)
    assert ts[0] == 0.0
    assert ts[-1] <= T
    assert T - ts[-1] <= 1e-12 * max(1.0, T)
    steps = np.diff(ts)
    assert (steps > 0).all()
    assert (steps <= dt * (1.0 + 1e-9)).all()


def test_batch_member_independent_of_batch(liouville):
    # entropy sampling relies on this: a ray's samples never depend on
    # which other rays share the batch
    states = []
    for ang in (0.1, 0.9, 2.2, 4.0):
        v = unit_tangent(liouville, (0.25, 0.5), ang)
        states.append([v.x, v.y, v.vx, v.vy])
    states = np.array(states)
    _, all4 = integrate_batch(liouville, states, 5.0, h=0.01, sample_dt=0.1)
    _, just1 = integrate_batch(liouville, states[2:3], 5.0, h=0.01, sample_dt=0.1)
    assert np.array_equal(all4[2], just1[0])


def _stacked_rk4(spec, states, T, h, sample_dt):
    """The (M, 4) RK4 loop with a stacked right-hand side and a fresh array per
    stage, which integrate_batch's in-place row buffers replaced."""
    def rhs(y):
        x, yy, vx, vy = y[:, 0], y[:, 1], y[:, 2], y[:, 3]
        ax, ay = geodesic_accel(spec, x, yy, vx, vy)
        return np.stack([vx, vy, ax, ay], axis=1)

    y = np.array(states, dtype=float)
    nsteps = int(round(T / h))
    sample_every = int(round(sample_dt / h))
    samples = [y]
    for n in range(1, nsteps + 1):
        k1 = rhs(y)
        k2 = rhs(y + (0.5 * h) * k1)
        k3 = rhs(y + (0.5 * h) * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if n % sample_every == 0:
            samples.append(y)
    return np.stack(samples, axis=1)


@pytest.mark.parametrize("name", gallery_names())
@pytest.mark.parametrize("M", [1, 5, 64])
def test_batch_equals_stacked_reference(name, M):
    spec = gallery(name)
    rng = np.random.default_rng(M)
    states = []
    for x, y, ang in rng.uniform(-2.0, 2.0, size=(M, 3)):
        v = unit_tangent(spec, (x, y), ang)
        states.append([v.x, v.y, v.vx, v.vy])
    _, got = integrate_batch(spec, states, 2.0, h=0.02, sample_dt=0.1)
    want = _stacked_rk4(spec, states, 2.0, 0.02, 0.1)
    # compared as integers, so a flipped sign of zero counts too
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_batch_matches_adaptive(liouville):
    # RK4 global error at h=0.005 over T=10 sits just above 1e-8 here; the
    # bound checks the order of agreement, not a tuned constant
    v = unit_tangent(liouville, (0.25, 0.5), 0.9)
    traj = integrate(liouville, v, 10.0, dt=0.1, rtol=1e-12, atol=1e-13)
    _, samples = integrate_batch(
        liouville, np.array([[v.x, v.y, v.vx, v.vy]]), 10.0, h=0.005,
        sample_dt=0.1)
    assert np.abs(samples[0, :, :2] - traj.xy).max() < 3e-8


def test_batch_sampling_grid(flat):
    v = unit_tangent(flat, (0, 0), 0.0)
    times, samples = integrate_batch(
        flat, np.array([[v.x, v.y, v.vx, v.vy]]), 2.0, h=0.01, sample_dt=0.5)
    assert np.allclose(times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert samples.shape == (1, 5, 4)
    with pytest.raises(ValidationError):
        integrate_batch(flat, np.array([[0, 0, 1, 0.0]]), 2.0, h=0.01,
                        sample_dt=0.013)   # not a multiple of h


def _arclength_reference(spec, xy, v, t):
    """Trapezoid arclength along the sample axis of (..., N, 2) arrays: the
    eager arclength every Trajectory used to carry, which integrate_rays
    took for a whole fan from one fields() call."""
    p, w = xy.reshape(-1, 2), v.reshape(-1, 2)
    sp = quadratic_form(spec.fields(p[:, 0], p[:, 1], order=0), w[:, 0], w[:, 1])
    sp = np.sqrt(sp, out=sp).reshape(xy.shape[:-1])
    ds = 0.5 * (sp[..., 1:] + sp[..., :-1]) * np.diff(t)
    return np.concatenate([np.zeros(sp.shape[:-1] + (1,)), np.cumsum(ds, axis=-1)], axis=-1)


@pytest.mark.parametrize("name", gallery_names())
def test_arclength_matches_reference(name):
    spec = gallery(name)
    ray = integrate(spec, unit_tangent(spec, (0.2, 0.6), 0.3), 4.0, dt=0.05)
    fan = integrate_rays(spec, [unit_tangent(spec, (0.2, 0.6), a)
                                for a in (0.3, 1.9, 4.4)], 4.0, dt=0.1,
                         h=0.05)
    want = _arclength_reference(spec, ray.xy, ray.v, ray.t)
    got = arclength_of(ray.t, ray.speeds(spec))
    assert got.shape == ray.t.shape and got[0] == 0.0
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the reference on the whole fan at once, as integrate_rays once did
    want = _arclength_reference(spec, np.stack([r.xy for r in fan]),
                                np.stack([r.v for r in fan]), fan[0].t)
    got = np.stack([arclength_of(r.t, r.speeds(spec)) for r in fan])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_trajectory_csv(capsys, tmp_path, flat):
    # a trajectory reaches a CSV file through the integrate command
    v = unit_tangent(flat, (0, 0), 0.3)
    traj = integrate(flat, v, 1.0, dt=0.25)
    path = tmp_path / "ray.csv"
    assert cli.main(["integrate", "--metric", "flat", "--angle", "0.3",
                     "--horizon", "1.0", "--dt", "0.25", "--csv", str(path)]) == 0
    capsys.readouterr()
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    assert data.shape == (len(traj), 6)
    assert np.allclose(data[:, 1:3], traj.xy)


def test_integrate_rays_shapes(flat):
    vs = [unit_tangent(flat, (0, 0), a) for a in (0.2, 1.4)]
    trajs = integrate_rays(flat, vs, 3.0, dt=0.1, h=0.05)
    assert len(trajs) == 2
    assert all(isinstance(t, Trajectory) for t in trajs)
    assert trajs[1].xy.shape == trajs[0].xy.shape
