import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from torusflow.errors import ValidationError
from torusflow.flow import (Trajectory, _arclength, _sample_times, integrate,
                            integrate_batch, integrate_rays, unit_tangent)
from torusflow.metrics import gallery, gallery_names, geodesic_accel


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
    assert abs(traj.s[-1] - traj.t[-1]) < 1e-6


def test_short_horizon_reversal(liouville):
    v0 = unit_tangent(liouville, (0.42, 0.66), 1.0)
    fwd = integrate(liouville, v0, 50.0, dt=0.5, rtol=1e-12, atol=1e-13)
    end = fwd.final_tangent()
    vb = unit_tangent(liouville, (end.x, end.y), (-end.vx, -end.vy))
    back = integrate(liouville, vb, 50.0, dt=0.5, rtol=1e-12, atol=1e-13)
    assert abs(back.xy[-1, 0] - v0.x) < 1e-8
    assert abs(back.xy[-1, 1] - v0.y) < 1e-8


def _dense_output_samples(spec, v0, T, dt, rtol, atol):
    """Reference sampler: the full dense output, evaluated after the run.

    Its right-hand side is integrate's own (one-point geodesic_accel on
    floats), so the samples can be compared bit for bit.
    """
    def rhs(t, state):
        x, y, vx, vy = state.tolist()
        ax, ay = geodesic_accel(spec, x, y, vx, vy)
        return vx, vy, ax, ay

    sol = solve_ivp(rhs, (0.0, T), [v0.x, v0.y, v0.vx, v0.vy],
                    method="DOP853", rtol=rtol, atol=atol, dense_output=True)
    return sol.sol(_sample_times(T, dt)).T


@pytest.mark.parametrize("name", gallery_names())
@pytest.mark.parametrize("T, dt", [(10.0, 0.1), (3.7, 0.3)])
def test_samples_equal_dense_output(name, T, dt):
    spec = gallery(name)
    v0 = unit_tangent(spec, (0.31, 0.58), 0.9)
    traj = integrate(spec, v0, T, dt=dt, rtol=1e-12, atol=1e-13)
    ref = _dense_output_samples(spec, v0, T, dt, 1e-12, 1e-13)
    assert np.array_equal(traj.xy, ref[:, 0:2])
    assert np.array_equal(traj.v, ref[:, 2:4])


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


@pytest.mark.parametrize("name", ["liouville", "two-frequency"])
def test_integrate_rays_arclength_equals_per_ray(name):
    # integrate_rays takes every ray's arclength from one fields() call
    spec = gallery(name)
    vs = [unit_tangent(spec, (0.2, 0.6), a) for a in (0.3, 1.9, 4.4)]
    for ray in integrate_rays(spec, vs, 4.0, dt=0.1):
        assert np.array_equal(ray.s, _arclength(spec, ray.xy, ray.v, ray.t))
        assert ray.s.shape == ray.t.shape and ray.s[0] == 0.0


def test_integrate_rays_shapes(flat):
    vs = [unit_tangent(flat, (0, 0), a) for a in (0.2, 1.4)]
    trajs = integrate_rays(flat, vs, 3.0, dt=0.1)
    assert len(trajs) == 2
    assert all(isinstance(t, Trajectory) for t in trajs)
    assert trajs[1].xy.shape == trajs[0].xy.shape


def test_trajectory_csv(tmp_path, flat):
    v = unit_tangent(flat, (0, 0), 0.3)
    traj = integrate(flat, v, 1.0, dt=0.25)
    path = tmp_path / "ray.csv"
    traj.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    assert data.shape == (len(traj), 6)
    assert np.allclose(data[:, 1:3], traj.xy)
