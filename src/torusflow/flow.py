"""Geodesic flow on the universal cover of a Fourier torus metric.

`integrate` is the one adaptive path: it drives a single geodesic with a
high-order Runge-Kutta method (DOP853, tolerance 1e-10 by default) and
samples its dense output on a uniform time grid that never passes the
horizon.  It is the precision path used for exactness tests, shooting and
certified runs; the time-t image of a tangent is
`integrate(...).final_tangent()`.  Its right-hand side evaluates the metric
point by point (`geodesic_accel` on Python floats).  `integrate_batch`
advances many geodesics simultaneously with a fixed-step classical RK4; each
trajectory in the batch is computed by arithmetic that does not depend on
the rest of the batch, which the entropy sampler relies on for
reproducibility.  `integrate_rays` wraps each batch member as a
Trajectory with its arclength.

Unit speed is an invariant of the continuous flow, so the g-norm of the
velocity is monitored as an accuracy certificate and never renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import StepFailure, ValidationError
from .metrics import geodesic_accel, quadratic_form

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_DT = 0.01


def g_norm(spec, point, v):
    """Riemannian norm of a tangent vector at a cover point."""
    f = spec.fields(np.asarray([point[0]]), np.asarray([point[1]]), order=0)
    return math.sqrt(quadratic_form(f, v[0], v[1])[0])


@dataclass(frozen=True)
class UnitTangent:
    """Point of the unit tangent bundle: base point and g-unit velocity."""

    x: float
    y: float
    vx: float
    vy: float


def unit_tangent(spec, base, direction):
    """Build a UnitTangent by g-normalising a direction (vector or angle)."""
    if np.isscalar(direction):
        d = (math.cos(direction), math.sin(direction))
    else:
        d = (float(direction[0]), float(direction[1]))
    n = g_norm(spec, base, d)
    if n == 0.0:
        raise ValidationError("direction vector must be nonzero")
    return UnitTangent(float(base[0]), float(base[1]), d[0] / n, d[1] / n)


def _check_unit(spec, v0):
    n = g_norm(spec, (v0.x, v0.y), (v0.vx, v0.vy))
    if abs(n - 1.0) > 1e-9:
        raise ValidationError(
            f"tangent is not g-unit: |v|_g = {n!r}; build it with unit_tangent()")


@dataclass
class Trajectory:
    """Uniformly sampled geodesic on the cover.

    Attributes
    ----------
    t : (N,) times (equal to arclength up to the reported speed drift)
    xy : (N, 2) cover positions
    v : (N, 2) velocities
    s : (N,) Riemannian arclength accumulated by trapezoid rule on speeds
    """

    spec_name: str
    t: np.ndarray
    xy: np.ndarray
    v: np.ndarray
    s: np.ndarray
    rtol: float
    atol: float
    method: str = "dop853"

    def __len__(self):
        return len(self.t)

    @property
    def horizon(self):
        return float(self.t[-1])

    def final_tangent(self):
        return UnitTangent(*self.xy[-1], *self.v[-1])

    def speeds(self, spec):
        f = spec.fields(self.xy[:, 0], self.xy[:, 1], order=0)
        return np.sqrt(quadratic_form(f, self.v[:, 0], self.v[:, 1]))

    def speed_drift(self, spec):
        """Max deviation of the g-speed from 1 over all samples."""
        return float(np.abs(self.speeds(spec) - 1.0).max())

    def to_csv(self, path):
        header = (f"# metric={self.spec_name} method={self.method} "
                  f"rtol={self.rtol:g} atol={self.atol:g}\n"
                  "t,x,y,vx,vy,s")
        data = np.column_stack([self.t, self.xy, self.v, self.s])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.17g")


def _sample_times(T, dt):
    n = int(math.floor(T / dt + 1e-9))
    # rounding can put n * dt past T, where t_eval may not sample
    ts = np.minimum(np.arange(n + 1) * dt, T)
    if ts[-1] < T - 1e-12 * max(1.0, T):
        ts = np.append(ts, T)
    return ts


def _arclength(spec, xy, v, t):
    """Trapezoid arclength along the sample axis of (..., N, 2) arrays."""
    # views, not copies, and no fields() dict kept: whole fans come through here
    p, w = xy.reshape(-1, 2), v.reshape(-1, 2)
    sp = quadratic_form(spec.fields(p[:, 0], p[:, 1], order=0), w[:, 0], w[:, 1])
    sp = np.sqrt(sp, out=sp).reshape(xy.shape[:-1])
    ds = 0.5 * (sp[..., 1:] + sp[..., :-1]) * np.diff(t)
    return np.concatenate([np.zeros(sp.shape[:-1] + (1,)), np.cumsum(ds, axis=-1)], axis=-1)


def integrate(spec, v0, T, dt=DEFAULT_DT, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Integrate one geodesic to horizon T with adaptive error control.

    Parameters
    ----------
    spec : MetricSpec
    v0 : UnitTangent (validated to be g-unit within 1e-9)
    T : positive horizon; the backward ray of v0 is the forward ray of
        the tangent with negated velocity
    dt : positive uniform sampling step of the returned Trajectory

    Raises
    ------
    StepFailure if the adaptive integrator gives up before T.
    """
    _check_unit(spec, v0)
    if T <= 0:
        raise ValidationError("horizon T must be positive")
    if not dt > 0:
        raise ValidationError("sampling step dt must be positive")

    def rhs(t, state):
        x, y, vx, vy = state.tolist()
        ax, ay = geodesic_accel(spec, x, y, vx, vy)
        return vx, vy, ax, ay

    ts = _sample_times(T, dt)
    # t_eval builds the dense interpolant only on steps that hold a sample
    sol = solve_ivp(rhs, (0.0, T), [v0.x, v0.y, v0.vx, v0.vy],
                    method="DOP853", rtol=rtol, atol=atol, t_eval=ts)
    if sol.status != 0 or not sol.success:
        raise StepFailure(f"integration stalled at t={sol.t[-1]:g}: {sol.message}")
    states = sol.y.T
    xy = np.ascontiguousarray(states[:, 0:2])
    v = np.ascontiguousarray(states[:, 2:4])
    s = _arclength(spec, xy, v, ts)
    return Trajectory(spec_name=spec.name, t=ts, xy=xy, v=v, s=s,
                      rtol=rtol, atol=atol, method="dop853")


# ---------------------------------------------------------------------------
# fixed-step batch engine

def _rhs_batch(spec, y):
    x, yy, vx, vy = y[:, 0], y[:, 1], y[:, 2], y[:, 3]
    ax, ay = geodesic_accel(spec, x, yy, vx, vy)
    return np.stack([vx, vy, ax, ay], axis=1)


def integrate_batch(spec, states, T, h, sample_dt):
    """Advance a batch of phase states with fixed-step classical RK4.

    Parameters
    ----------
    states : (M, 4) array of (x, y, vx, vy)
    T : horizon; T/h must be an integer count of steps (within roundoff)
    h : positive RK4 step
    sample_dt : positive sampling interval, an integer multiple of h; the
        initial state is always the first sample

    Returns
    -------
    times : (K,) sample times
    samples : (M, K, 4) recorded states

    Each batch member evolves by elementwise arithmetic, so its samples are
    identical no matter which other states share the batch.
    """
    y = np.array(states, dtype=float)
    if y.ndim != 2 or y.shape[1] != 4:
        raise ValidationError("states must have shape (M, 4)")
    if not (h > 0 and sample_dt > 0):
        raise ValidationError("step h and sample_dt must be positive")
    nsteps = int(round(T / h))
    if abs(nsteps * h - T) > 1e-9 * max(1.0, T):
        raise ValidationError(f"horizon {T} is not a multiple of the step {h}")
    sample_every = int(round(sample_dt / h))
    if abs(sample_every * h - sample_dt) > 1e-12:
        raise ValidationError("sample_dt must be a multiple of the step h")
    nsamp = nsteps // sample_every + 1
    samples = np.empty((y.shape[0], nsamp, 4))
    samples[:, 0] = y
    times = np.arange(nsamp) * (sample_every * h)
    k = 1
    for n in range(1, nsteps + 1):
        k1 = _rhs_batch(spec, y)
        k2 = _rhs_batch(spec, y + (0.5 * h) * k1)
        k3 = _rhs_batch(spec, y + (0.5 * h) * k2)
        k4 = _rhs_batch(spec, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if n % sample_every == 0:
            samples[:, k] = y
            k += 1
    return times, samples


def integrate_rays(spec, tangents, T, dt=DEFAULT_DT, h=None):
    """Batch-integrate many unit tangents and wrap each ray as a Trajectory.

    Fixed-step RK4 at step h (default dt/2) sampled every dt.  Accuracy is
    order h^4, ample for intersection censuses and direction estimates; use
    `integrate` when 1e-9 level exactness is required.
    """
    if h is None:
        h = dt / 2.0
    states = np.array([[v.x, v.y, v.vx, v.vy] for v in tangents])
    times, samples = integrate_batch(spec, states, T, h=h, sample_dt=dt)
    # one fields() call for every ray; its values do not depend on the batch
    s = _arclength(spec, samples[..., 0:2], samples[..., 2:4], times)
    out = []
    for i in range(states.shape[0]):
        xy = np.ascontiguousarray(samples[i, :, 0:2])
        v = np.ascontiguousarray(samples[i, :, 2:4])
        out.append(Trajectory(spec_name=spec.name, t=times.copy(), xy=xy, v=v,
                              s=s[i], rtol=float("nan"), atol=float("nan"),
                              method=f"rk4-batch-h{h:g}"))
    return out

