"""Geodesic flow on the universal cover of a Fourier torus metric.

`integrate` is the one adaptive path: it drives a single geodesic with
Dormand and Prince's 8(5,3) Runge-Kutta pair (DOP853, tolerance 1e-10 by
default) and samples its dense output on a uniform time grid that never
passes the horizon.  It is the precision path used for exactness tests,
shooting and certified runs; the time-t image of a tangent is
`integrate(...).final_tangent()`.  The stepper `_dop853` is written out
here on two complex numbers, position x + iy and velocity vx + i vy, with
the step control of scipy's DOP853 and the coefficient tables of
`dop853_tables`; it builds the dense interpolant only on steps that hold a
sample.  Its right-hand side evaluates the metric point by point
(`geodesic_accel` on Python floats).  `integrate_batch` advances many
geodesics simultaneously with a fixed-step classical RK4; each trajectory
in the batch is computed by arithmetic that does not depend on the rest of
the batch, which the entropy sampler relies on for reproducibility.
`integrate_rays` wraps each batch member as a Trajectory.

Unit speed is an invariant of the continuous flow, so the g-norm of the
velocity is monitored as an accuracy certificate and never renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from . import dop853_tables as _tab
from .errors import StepFailure, ValidationError
from .metrics import geodesic_accel, quadratic_form

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_DT = 0.01

# sample rows (sample times of every member) one integration may allocate;
# the largest grid in use is 2,048 calibration rays at 6,401 samples each
MAX_SAMPLES = 2 ** 24


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
    if not np.isfinite(np.append(base, direction)).all():
        raise ValidationError("base point and direction must be finite")
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
    if not abs(n - 1.0) <= 1e-9:
        raise ValidationError(
            f"tangent is not g-unit: |v|_g = {n!r}; build it with unit_tangent()")


@dataclass
class Trajectory:
    """Uniformly sampled geodesic on the cover; its speeds are computed
    from the samples on demand, given the metric (`arclength_of` sums them).

    Attributes
    ----------
    t : (N,) times (equal to arclength up to the reported speed drift)
    xy : (N, 2) cover positions
    v : (N, 2) velocities
    """

    t: np.ndarray
    xy: np.ndarray
    v: np.ndarray

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
        return speed_drift_of(self.speeds(spec))


def speed_drift_of(speeds):
    """Max deviation of sampled g-speeds from 1."""
    return float(np.abs(speeds - 1.0).max())


def arclength_of(t, speeds):
    """Cumulative trapezoid rule on speeds sampled at times t, from 0."""
    ds = 0.5 * (speeds[1:] + speeds[:-1]) * np.diff(t)
    return np.concatenate([np.zeros(1), np.cumsum(ds)])


def _check_samples(rows):
    """Raise ValidationError, before allocating, when a samples array would
    hold more than MAX_SAMPLES rows; `rows` is a float, so inf fails too."""
    if not rows <= MAX_SAMPLES:
        raise ValidationError(f"the sample grid would hold {rows:.3g} rows, "
                              f"more than {MAX_SAMPLES}")


def _sample_times(T, dt):
    _check_samples(T / dt + 2.0)
    n = int(math.floor(T / dt + 1e-9))
    # rounding can put n * dt past T, where t_eval may not sample
    ts = np.minimum(np.arange(n + 1) * dt, T)
    if ts[-1] < T - 1e-12 * max(1.0, T):
        ts = np.append(ts, T)
    return ts


def integrate(spec, v0, T, dt=DEFAULT_DT, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Integrate one geodesic to horizon T with adaptive error control.

    Parameters
    ----------
    spec : MetricSpec
    v0 : UnitTangent (finite, and validated to be g-unit within 1e-9)
    T : finite positive horizon; the backward ray of v0 is the forward ray
        of the tangent with negated velocity
    dt : finite positive uniform sampling step of the returned Trajectory

    Raises
    ------
    StepFailure if the adaptive integrator gives up before T.
    ValidationError, before allocating, for more than MAX_SAMPLES samples.
    """
    if not all(map(math.isfinite, (T, v0.x, v0.y, v0.vx, v0.vy))):
        raise ValidationError("horizon T and the tangent must be finite")
    _check_unit(spec, v0)
    if T <= 0:
        raise ValidationError("horizon T must be positive")
    if not 0 < dt < math.inf:
        raise ValidationError("sampling step dt must be positive and finite")
    ts = _sample_times(T, dt)
    zs, ws = _dop853(spec, complex(v0.x, v0.y), complex(v0.vx, v0.vy), T, ts,
                     rtol, atol)
    # a complex array viewed as floats is its (real, imag) pairs
    xy = np.array(zs).view(float).reshape(-1, 2)
    v = np.array(ws).view(float).reshape(-1, 2)
    return Trajectory(t=ts, xy=xy, v=v)


# ---------------------------------------------------------------------------
# DOP853 on a complex position z = x + iy and velocity w = vx + i vy

def _complex(row):
    # a complex coefficient times a complex stage is one C-level multiply;
    # with a zero imaginary part it rounds like the two real products
    return tuple(map(complex, row))


_STAGE_ROWS = tuple(_complex(_tab.A[s, :s]) for s in range(1, _tab.N_STAGES))
_EXTRA_ROWS = tuple(_complex(_tab.A[s, :s]) for s in
                    range(_tab.N_STAGES + 1, _tab.N_STAGES_EXTENDED))
_B = _complex(_tab.B)
_E5 = _complex(_tab.E5[:_tab.N_STAGES])
_E3 = _complex(_tab.E3[:_tab.N_STAGES])
_D = tuple(map(_complex, _tab.D))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0


def _sq(z, w, sz, sw):
    """Squared 2-norm of the four real components of (z, w) over their scales."""
    a, b, c, d = z.real / sz.real, z.imag / sz.imag, w.real / sw.real, w.imag / sw.imag
    return a * a + b * b + c * c + d * d


def _dop853(spec, z, w, T, ts, rtol, atol):
    """States of one geodesic at the times ts (ts[0] = 0, ts[-1] <= T).

    Dormand and Prince's 8(5,3) pair with the step control of scipy's DOP853:
    Hairer's initial step, safety 0.9, step factors in [0.2, 10] from
    the error norm to the power -1/8 (at most 1 right after a rejection), a
    last step clipped to T and a floor of 10 ulp of t.  The 3 extra stages
    and the 7th-degree interpolant are built only on steps that hold a
    sample.  Returns the lists of sampled positions and velocities.
    """
    # read at call time, so a traced or patched geodesic_accel sees every call
    accel = geodesic_accel

    def rhs(z, w):
        ax, ay = accel(spec, z.real, z.imag, w.real, w.imag)
        return complex(ax, ay)

    a = rhs(z, w)
    h_abs = _initial_step(rhs, z, w, a, T, rtol, atol)
    z_out, w_out = [z], [w]
    t, k, n = 0.0, 1, len(ts)
    while t < T:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:   # also a NaN step from a NaN start
                raise StepFailure(f"integration stalled at t={t:g}: the step "
                                  "size fell below 10 ulp of t")
            t_new = min(t + h_abs, T)
            h = h_abs = t_new - t
            W, K = [w], [a]
            _stages(rhs, z, w, h, W, K, _STAGE_ROWS)
            z_new = z + h * sum(map(mul, _B, W))
            w_new = w + h * sum(map(mul, _B, K))
            a_new = rhs(z_new, w_new)
            sz = complex(atol + max(abs(z.real), abs(z_new.real)) * rtol,
                         atol + max(abs(z.imag), abs(z_new.imag)) * rtol)
            sw = complex(atol + max(abs(w.real), abs(w_new.real)) * rtol,
                         atol + max(abs(w.imag), abs(w_new.imag)) * rtol)
            e5 = _sq(sum(map(mul, _E5, W)), sum(map(mul, _E5, K)), sz, sw)
            e3 = _sq(sum(map(mul, _E3, W)), sum(map(mul, _E3, K)), sz, sw)
            denom = e5 + 0.01 * e3
            err = h * e5 / math.sqrt(denom * 4.0) if denom else 0.0
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        if k < n and ts[k] <= t_new:
            W.append(w_new)
            K.append(a_new)
            _stages(rhs, z, w, h, W, K, _EXTRA_ROWS)
            fz = _interpolant(z, z_new, w, w_new, W, h)
            fw = _interpolant(w, w_new, a, a_new, K, h)
            while k < n and ts[k] <= t_new:
                x = (ts[k] - t) / h
                z_out.append(_evaluate(z, fz, x))
                w_out.append(_evaluate(w, fw, x))
                k += 1
        t, z, w, a = t_new, z_new, w_new, a_new
    return z_out, w_out


def _stages(rhs, z, w, h, W, K, rows):
    """Append the stages of the tableau rows to the velocity stages W and
    the acceleration stages K (a row of length j combines the first j)."""
    for row in rows:
        wj = w + sum(map(mul, row, K)) * h
        K.append(rhs(z + sum(map(mul, row, W)) * h, wj))
        W.append(wj)


def _initial_step(rhs, z, w, a, T, rtol, atol):
    """Hairer's starting step for an order-7 error estimate (scipy's rule)."""
    sz = complex(atol + abs(z.real) * rtol, atol + abs(z.imag) * rtol)
    sw = complex(atol + abs(w.real) * rtol, atol + abs(w.imag) * rtol)
    d0 = math.sqrt(_sq(z, w, sz, sw) / 4.0)
    d1 = math.sqrt(_sq(w, a, sz, sw) / 4.0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, T)
    w1 = w + h0 * a
    a1 = rhs(z + h0 * w, w1)
    d2 = math.sqrt(_sq(w1 - w, a1 - a, sz, sw) / 4.0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, T)


def _interpolant(y, y_new, f, f_new, K, h):
    """The seven coefficients of a step's dense output, last one first."""
    dy = y_new - y
    tail = [h * sum(map(mul, row, K)) for row in _D]
    return (*reversed(tail), 2.0 * dy - h * (f_new + f), h * f - dy, dy)


def _evaluate(y, coef, x):
    """Dense output at the fraction x of the step (scipy's nested product)."""
    u = 1.0 - x
    acc = 0j
    for i, c in enumerate(coef):
        acc = (acc + c) * (x if i % 2 == 0 else u)
    return acc + y


# ---------------------------------------------------------------------------
# fixed-step batch engine

def _rhs_batch(spec, y, out):
    """The geodesic field at the (4, M) state rows y, written into out."""
    out[0:2] = y[2:4]
    out[2], out[3] = geodesic_accel(spec, *y)


def integrate_batch(spec, states, T, h, sample_dt):
    """Advance a batch of phase states with fixed-step classical RK4.

    Parameters
    ----------
    states : (M, 4) array of (x, y, vx, vy)
    T : positive horizon; T/h must be an integer count of steps (within
        roundoff)
    h : positive RK4 step
    sample_dt : positive sampling interval, an integer multiple of h; the
        initial state is always the first sample

    Returns
    -------
    times : (K,) sample times
    samples : (M, K, 4) recorded states, refused when M * K > MAX_SAMPLES

    The state and the four stages live in preallocated (4, M) row buffers,
    one row per component, and every step updates them in place with `out=`
    in the operand order of y + (h/6) (k1 + 2 k2 + 2 k3 + k4).  Each batch
    member evolves by elementwise arithmetic, so its samples are identical
    no matter which other states share the batch.
    """
    y = np.array(states, dtype=float)
    if y.ndim != 2 or y.shape[1] != 4:
        raise ValidationError("states must have shape (M, 4)")
    if not (h > 0 and sample_dt > 0):
        raise ValidationError("step h and sample_dt must be positive")
    if not all(map(math.isfinite, (T, h, sample_dt))):
        raise ValidationError("horizon T, step h and sample_dt must be finite")
    if T <= 0:
        raise ValidationError("horizon T must be positive")
    _check_samples(len(y) * (T / sample_dt + 1.0))
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
    y = np.ascontiguousarray(y.T)
    k1, k2, k3, k4, arg = np.empty((5,) + y.shape)
    half, sixth = 0.5 * h, h / 6.0
    k = 1
    for n in range(1, nsteps + 1):
        _rhs_batch(spec, y, k1)
        _rhs_batch(spec, np.add(y, np.multiply(half, k1, out=arg), out=arg), k2)
        _rhs_batch(spec, np.add(y, np.multiply(half, k2, out=arg), out=arg), k3)
        _rhs_batch(spec, np.add(y, np.multiply(h, k3, out=arg), out=arg), k4)
        # k1 + 2 k2 + 2 k3 + k4, summed left to right
        np.multiply(2.0, k2, out=arg)
        np.add(k1, arg, out=k1)
        np.multiply(2.0, k3, out=arg)
        np.add(k1, arg, out=k1)
        np.add(k1, k4, out=k1)
        np.add(y, np.multiply(sixth, k1, out=k1), out=y)
        if n % sample_every == 0:
            samples[:, k] = y.T
            k += 1
    return times, samples


def integrate_rays(spec, tangents, T, dt, h):
    """Batch-integrate many unit tangents and wrap each ray as a Trajectory.

    Fixed-step RK4 at step h sampled every dt.  Accuracy is order h^4,
    ample for intersection censuses and direction estimates; use `integrate`
    when 1e-9 level exactness is required.
    """
    states = np.array([[v.x, v.y, v.vx, v.vy] for v in tangents])
    times, samples = integrate_batch(spec, states, T, h=h, sample_dt=dt)
    return [Trajectory(t=times.copy(),
                       xy=np.ascontiguousarray(samples[i, :, 0:2]),
                       v=np.ascontiguousarray(samples[i, :, 2:4]))
            for i in range(states.shape[0])]

