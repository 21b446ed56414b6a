"""Geodesic flow on the universal cover of a Fourier torus metric.

`integrate` is the one adaptive path: it drives a single geodesic with
Dormand and Prince's 8(5,3) Runge-Kutta pair (DOP853, tolerance 1e-10 by
default) and samples its dense output on a uniform time grid that never
passes the horizon.  It is the precision path used for exactness tests,
shooting and certified runs; the time-t image of a tangent is
`integrate(...).final_tangent()`.  The stepper `_dop853` runs on two complex
numbers, position x + iy and velocity vx + i vy, with the step control of
scipy's DOP853.  Its stage, solution, error and dense-output sums are
straight-line code over the nonzero entries of `dop853_tables`, written out
once at import (`_step`, `_dense`); it builds the dense interpolant only on
steps that hold a sample.  Its right-hand side evaluates the metric point by
point (`geodesic_accel` on Python floats, looked up as each ray starts).
`integrate_batch` advances many geodesics simultaneously with a fixed-step
classical RK4 on a sample grid that ends at the horizon; each trajectory
in the batch is computed by arithmetic that does not depend on the rest of
the batch, which the entropy sampler relies on for reproducibility.
`integrate_rays` wraps each batch member as a Trajectory.

Unit speed is an invariant of the continuous flow, so the g-norm of the
velocity is monitored as an accuracy certificate and never renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    StepFailure if the integrator gives up before T or a stage is not finite.
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
    try:
        zs, ws = _dop853(spec, complex(v0.x, v0.y), complex(v0.vx, v0.vy), T, ts,
                         rtol, atol)
    except (ValueError, OverflowError) as exc:   # math.floor of a stage position
        raise StepFailure(f"a stage position is not finite: {exc}") from None
    # a complex array viewed as floats is its (real, imag) pairs
    xy = np.array(zs).view(float).reshape(-1, 2)
    v = np.array(ws).view(float).reshape(-1, 2)
    return Trajectory(t=ts, xy=xy, v=v)


# ---------------------------------------------------------------------------
# DOP853 on a complex position z = x + iy and velocity w = vx + i vy

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0


def _sq(z, w, sz, sw):
    """Squared 2-norm of the four real components of (z, w) over their scales."""
    a, b, c, d = z.real / sz.real, z.imag / sz.imag, w.real / sw.real, w.imag / sw.imag
    return a * a + b * b + c * c + d * d


def _sum(row, v):
    """Source of sum(map(mul, row, [v0, v1, ...])): the nonzero terms of the
    table row with complex constants, in order, after a 0j that makes an exact
    zero sum +0.0 as the sum from 0 does (a complex coefficient times a complex
    stage is one C-level multiply and rounds like the two real products)."""
    return "(0j" + "".join(f" + {complex(c)!r} * {v}{j}"
                           for j, c in enumerate(row) if c) + ")"


def _stage_lines(first, last):
    """Source lines of the stages first..last-1 of A: velocity stage Ws and
    acceleration stage Ks, each row combining the stages before it."""
    return "".join(f"\n    W{s} = w + {_sum(_tab.A[s, :s], 'K')} * h"
                   f"\n    K{s} = rhs(z + {_sum(_tab.A[s, :s], 'W')} * h, W{s})"
                   for s in range(first, last))


# The sums over the nonzero entries of dop853_tables, written out once:
# `_step` runs a step's stages from (z, w) and K0 and returns the new state,
# the E5 and E3 sums of W and K, and the stages; `_dense` adds the 3 extra
# stages and returns the D rows' interpolant coefficients of z and of w.  A
# NaN stage still fails the step: every stage reaches E5 by nonzero entries.
_N, _NE = _tab.N_STAGES, _tab.N_STAGES_EXTENDED
_WN, _KN = (", ".join(f"{v}{j}" for j in range(_N)) for v in "WK")
_SUMS = {}
exec(compile(f"""
def _step(rhs, z, w, K0, h):
    W0 = w{_stage_lines(1, _N)}
    return (z + h * {_sum(_tab.B, 'W')}, w + h * {_sum(_tab.B, 'K')},
            {', '.join(_sum(e[:_N], v) for e in (_tab.E5, _tab.E3) for v in 'WK')},
            ({_WN}), ({_KN}))


def _dense(rhs, z, w, h, W, K, W{_N}, K{_N}):
    {_WN} = W
    {_KN} = K{_stage_lines(_N + 1, _NE)}
    return (({', '.join(f'h * {_sum(d, "W")}' for d in _tab.D[::-1])}),
            ({', '.join(f'h * {_sum(d, "K")}' for d in _tab.D[::-1])}))
""", "<dop853 sums>", "exec"), _SUMS)
_step, _dense = _SUMS["_step"], _SUMS["_dense"]


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
            z_new, w_new, e5z, e5w, e3z, e3w, W, K = _step(rhs, z, w, a, h)
            a_new = rhs(z_new, w_new)
            sz = complex(atol + max(abs(z.real), abs(z_new.real)) * rtol,
                         atol + max(abs(z.imag), abs(z_new.imag)) * rtol)
            sw = complex(atol + max(abs(w.real), abs(w_new.real)) * rtol,
                         atol + max(abs(w.imag), abs(w_new.imag)) * rtol)
            e5 = _sq(e5z, e5w, sz, sw)
            e3 = _sq(e3z, e3w, sz, sw)
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
            tz, tw = _dense(rhs, z, w, h, W, K, w_new, a_new)
            fz = _interpolant(z, z_new, w, w_new, tz, h)
            fw = _interpolant(w, w_new, a, a_new, tw, h)
            while k < n and ts[k] <= t_new:
                x = (ts[k] - t) / h
                z_out.append(_evaluate(z, fz, x))
                w_out.append(_evaluate(w, fw, x))
                k += 1
        t, z, w, a = t_new, z_new, w_new, a_new
    return z_out, w_out


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


def _interpolant(y, y_new, f, f_new, tail, h):
    """The seven coefficients of a step's dense output, last one first: the
    D rows' four (`tail`, from `_dense`) and three from the step's ends."""
    dy = y_new - y
    return (*tail, 2.0 * dy - h * (f_new + f), h * f - dy, dy)


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
    T : positive horizon; T/h must be a positive integer count of steps
        (within roundoff) of at most MAX_SAMPLES
    h : positive RK4 step
    sample_dt : positive sampling interval, an integer multiple of h of at
        most MAX_SAMPLES steps; the initial state is always the first sample
        and the state at T the last

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
    # no more steps than a grid may hold rows: a quotient that overflows, or a
    # step that would take 1e301 steps, fails here before int() and any step
    span = max(T, sample_dt)
    if not span / h <= MAX_SAMPLES:
        raise ValidationError(f"T or sample_dt {span:g} spans {span / h:.3g} "
                              f"steps of h = {h:g}, more than {MAX_SAMPLES}")
    nsteps = int(round(T / h))
    if nsteps < 1 or abs(nsteps * h - T) > 1e-9 * max(1.0, T):
        raise ValidationError(f"horizon {T} is not a positive multiple of the step {h}")
    sample_every = int(round(sample_dt / h))
    if sample_every < 1 or abs(sample_every * h - sample_dt) > 1e-12:
        raise ValidationError("sample_dt must be a positive multiple of the step h")
    # a horizon off the sample grid adds the state at T as the last sample
    nsamp = -(-nsteps // sample_every) + 1
    _check_samples(len(y) * float(nsamp))
    samples = np.empty((y.shape[0], nsamp, 4))
    samples[:, 0] = y
    times = np.arange(nsamp) * (sample_every * h)
    if nsteps % sample_every:
        times[-1] = T
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
        if n % sample_every == 0 or n == nsteps:
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

