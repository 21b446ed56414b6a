"""Curve shortening flow for closed curves on a metric torus.

Curves move with velocity equal to their covariant acceleration, which at
arclength parameterisation is the geodesic-curvature normal.  The length
is nonincreasing, contractible curves generically shrink to points, and
non-contractible ones converge to closed geodesics of their class.

The discretisation keeps the curve as a lifted polygon: `nodes` holds one
period, and the lift closes up to the integer translation `deck`.  The
diffusion part of the velocity is treated implicitly (cyclic tridiagonal
solve per step, with seam corrections carrying the deck offset), the
metric's quadratic velocity term explicitly.  Nodes are redistributed to
uniform arclength after every step through a periodic cubic spline on the
drift-subtracted lift; linear interpolation would cut corners and bias
shrinking curves' extinction times by percents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import segments as sg
from .cover import class_frame
from .errors import DegenerateSpacing, NumericalBlowup, ValidationError
from .metrics import accel_from_fields, gauss_curvature_batch, quadratic_form


@dataclass
class ClosedCurve:
    """Closed curve on the torus, stored as one lifted period.

    nodes : (N, 2) lift of one period; the first node is not repeated
    deck : (p, q) integer translation with node[N] == node[0] + (p, q);
        (0, 0) marks a contractible curve
    """

    nodes: np.ndarray
    deck: tuple = (0, 0)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2 or len(self.nodes) < 4:
            raise ValidationError("a closed curve needs at least 4 nodes of shape (N, 2)")
        if not np.isfinite(self.nodes).all():
            raise ValidationError("curve nodes must be finite")
        self.deck = (int(self.deck[0]), int(self.deck[1]))

    def closed_polyline(self):
        """Nodes with the closing node appended (one full period)."""
        return np.vstack([self.nodes, self.nodes[0] + np.asarray(self.deck, float)])

    def g_edge_lengths(self, spec):
        """Metric length of each edge, evaluated at edge midpoints."""
        return _edge_data(spec, self.nodes, self.deck)[1]

    def g_length(self, spec):
        return float(self.g_edge_lengths(spec).sum())

    def curvature(self, spec):
        """Covariant acceleration at the nodes and its pointwise metric norm.

        Finite differences are taken with respect to metric arclength, so
        the acceleration approximates the geodesic-curvature normal and its
        norm the unsigned geodesic curvature.
        """
        acc, _, _, k = _covariant_acceleration(spec, self.nodes, self.deck)
        return acc, k


def circle_curve(center, radius, n):
    """Round circle, a contractible seed for the flow."""
    a = 2.0 * math.pi * np.arange(n) / n
    nodes = np.stack([center[0] + radius * np.cos(a),
                      center[1] + radius * np.sin(a)], axis=1)
    return ClosedCurve(nodes=nodes, deck=(0, 0))


def straight_class_curve(klass, base=(0.0, 0.0), n=256, amplitude=0.0):
    """Straight (optionally sinusoidally bent) representative of a class.

    The transverse bend makes a non-geodesic seed whose flow has something
    to do; amplitude 0 gives the affine representative.
    """
    p, q, _, _, e_w = class_frame(klass)
    u = np.arange(n, dtype=float) / n
    nodes = np.stack([base[0] + u * p, base[1] + u * q], axis=1)
    if amplitude != 0.0:
        nodes += amplitude * np.sin(2.0 * math.pi * u)[:, None] * e_w
    return ClosedCurve(nodes=nodes, deck=(p, q))


# ---------------------------------------------------------------------------
# discrete geometry

def _edge_data(spec, nodes, deck):
    e = np.empty_like(nodes)
    e[:-1] = nodes[1:] - nodes[:-1]
    e[-1] = nodes[0] + np.asarray(deck, float) - nodes[-1]
    mid = nodes + 0.5 * e
    f = spec.fields(mid[:, 0], mid[:, 1], order=0)
    return e, np.sqrt(quadratic_form(f, e[:, 0], e[:, 1]))


def _covariant_acceleration(spec, nodes, deck):
    """Discrete covariant second derivative in metric arclength at the nodes.

    Returns (acc, x_ss, h, k): the acceleration, its flat part, the edge
    lengths and the acceleration's metric norm, the last from the same
    metric evaluation at the nodes as the connection term.
    """
    e, h = _edge_data(spec, nodes, deck)
    if h.min() <= 1e-13:
        raise DegenerateSpacing(f"shortest edge has length {h.min():.3g}")
    e_prev = np.roll(e, 1, axis=0)
    h_next = h[:, None]
    h_prev = np.roll(h, 1)[:, None]
    # weighted central difference, exact for quadratics in arclength
    x_s = (h_prev * e / h_next + h_next * e_prev / h_prev) / (h_prev + h_next)
    x_ss = 2.0 * (e / h_next - e_prev / h_prev) / (h_prev + h_next)
    f = spec.fields(nodes[:, 0], nodes[:, 1], order=1)
    ax, ay = accel_from_fields(spec, f, x_s[:, 0], x_s[:, 1])
    # the geodesic acceleration is minus the quadratic form of the connection
    acc = x_ss - np.stack([ax, ay], axis=1)
    k = np.sqrt(np.maximum(quadratic_form(f, acc[:, 0], acc[:, 1]), 0.0))
    return acc, x_ss, h, k


def _solve_cyclic_tridiag(sub, diag, sup, corner_lo, corner_hi, rhs):
    """Solve the cyclic tridiagonal system, Sherman-Morrison over LAPACK gtsv.

    sub[i] multiplies x[i-1] (i >= 1), sup[i] multiplies x[i+1] (i <= N-2),
    corner_lo is the (0, N-1) entry, corner_hi the (N-1, 0) one.  rhs may
    have several columns.  Raises NumericalBlowup when the tridiagonal
    part or the rank-one update is exactly singular.
    """
    # imported here, not at the top, so that the commands that never solve
    # (integrate, entropy, report and the rest) start without loading scipy
    from scipy.linalg.lapack import dgtsv

    gamma = -diag[0]
    d2 = diag.copy()
    d2[0] -= gamma
    d2[-1] -= corner_lo * corner_hi / gamma
    # the rank-one correction's u rides along as one more right-hand side
    b = np.zeros((len(diag), rhs.shape[1] + 1), order="F")
    b[:, :-1] = rhs
    b[0, -1] = gamma
    b[-1, -1] = corner_hi
    _, _, _, sol, info = dgtsv(sub[1:], d2, sup[:-1], b,
                               overwrite_d=1, overwrite_b=1)
    if info != 0:
        raise NumericalBlowup(f"singular tridiagonal system (LAPACK info {info})")
    y, z = sol[:, :-1], sol[:, -1]
    vy = y[0] + (corner_lo / gamma) * y[-1]
    vz = z[0] + (corner_lo / gamma) * z[-1]
    if 1.0 + vz == 0.0:
        raise NumericalBlowup("singular cyclic system")
    return y - np.outer(z, vy / (1.0 + vz))


def _spline_resample(spec, nodes, deck, n_new):
    """Redistribute nodes to uniform metric arclength.

    Fits a periodic cubic spline to the drift-subtracted lift, so the
    closing constraint is exact and the sampled curve is C^2.
    """
    _, h = _edge_data(spec, nodes, deck)
    u = np.concatenate([[0.0], np.cumsum(h)])
    if h.min() <= 0.0 or u[-1] <= 0.0:
        raise DegenerateSpacing("cannot redistribute a collapsed polygon")
    u /= u[-1]
    d = np.asarray(deck, dtype=float)
    u_new = np.arange(n_new, dtype=float) / n_new
    return _periodic_spline(u, nodes - np.outer(u[:-1], d), u_new) + np.outer(u_new, d)


def _periodic_spline(u, y, t):
    """Periodic cubic spline through (u[i], y[i]), evaluated at t.

    u holds n + 1 increasing knots spanning one period, y the n values at
    the first n of them (the last knot repeats y[0]); t lies in
    [u[0], u[-1]).  The node slopes solve the cyclic tridiagonal system of
    C^2 continuity, and each interval is the cubic Hermite piece through
    its end values and slopes.
    """
    dx = np.diff(u)
    dx_prev = np.concatenate([dx[-1:], dx[:-1]])
    slope = (np.concatenate([y[1:], y[:1]]) - y) / dx[:, None]
    slope_prev = np.concatenate([slope[-1:], slope[:-1]])
    rhs = 3.0 * (dx[:, None] * slope_prev + dx_prev[:, None] * slope)
    s = _solve_cyclic_tridiag(dx, 2.0 * (dx_prev + dx), dx_prev, dx[0], dx_prev[-1], rhs)
    s = np.concatenate([s, s[:1]])
    i = np.searchsorted(u, t, side="right") - 1
    w = (t - u[i])[:, None]
    h = dx[i][:, None]
    s0, m = s[i], slope[i]
    c2 = (s0 + s[i + 1] - 2.0 * m) / h
    c1 = (m - s0) / h - c2
    return ((c2 / h * w + c1) * w + s0) * w + y[i]


# ---------------------------------------------------------------------------
# the flow

@dataclass(frozen=True)
class FlowRecord:
    """One accepted step of the flow."""

    step: int
    t: float
    dt: float
    length: float
    max_curvature: float
    shrink_rate: float        # (L_before - L_after) / dt
    curvature_integral: float  # integral of k^2 ds, the expected shrink rate


@dataclass
class FlowResult:
    """Outcome of a curve-shortening run.

    verdict is one of
      shrank_to_point : length fell below 1e-3; extinction_time holds
          the completed estimate
      converged_to_geodesic : max curvature fell below k_tol, or the length
          plateaued (fell by less than 1e-8 over 100 steps) with the
          curvature at the polygon's resolution floor (100 (L/n)^2);
          `plateaued` records which case it was
      budget_exhausted : step budget ran out, or the length plateaued while
          the curvature was still well above the resolution floor
    All verdicts are statements about the discrete evolution.
    """

    verdict: str
    curve: ClosedCurve
    t_final: float
    length: float
    max_curvature: float
    steps: int
    halvings: int
    extinction_time: float | None = None
    plateaued: bool = False
    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    # escape monitor: how far the lift's centroid wandered from the seed's;
    # the flow is expected to stay in a compact set, and this reports on it
    # instead of assuming it
    containment_drift: float = 0.0


# evolve's time-step schedule, its two caps and its halving budget, as its
# docstring describes them
_DT_SAFETY = 0.2
_DT_GROWTH = 1.2
_DT_CURVATURE_CAP = 0.01
_DT_JACOBI_FRAC = 0.25
_MAX_HALVINGS = 40


def evolve(spec, curve, max_steps=20000, k_tol=1e-5, snapshot_times=()):
    """Run curve shortening until extinction, convergence, or budget.

    The time step starts at _DT_SAFETY * (shortest edge)^2 and grows by
    _DT_GROWTH per accepted step, capped twice: by _DT_CURVATURE_CAP / k^2
    so one step never moves the curve more than a small fraction of its
    curvature scale, and by _DT_JACOBI_FRAC / max|K| along the curve, the
    relaxation rate of normal perturbations; without the second cap a
    nearly converged curve on a curved metric overshoots its geodesic every
    step and rings forever.  A step whose result has exploding curvature or
    non-finite nodes is retried with half the step; NumericalBlowup is
    raised after _MAX_HALVINGS of them.  Every accepted step is recorded in
    result.records.

    snapshot_times: the step lands exactly on each requested time and the
    curve is copied into result.snapshots as (t, ClosedCurve).
    """
    nodes = curve.nodes.copy()
    deck = curve.deck
    d = np.asarray(deck, dtype=float)

    def jacobi_cap_at(pts):
        kb = float(np.abs(gauss_curvature_batch(spec, pts[:, 0], pts[:, 1])).max())
        return _DT_JACOBI_FRAC / kb if kb > 1e-12 else math.inf

    jacobi_cap = jacobi_cap_at(nodes)

    _, h0 = _edge_data(spec, nodes, deck)
    dt = _DT_SAFETY * float(h0.min()) ** 2
    t = 0.0
    halvings = 0
    records = []
    snapshots = []
    snap_queue = sorted(float(s) for s in snapshot_times)
    lengths_window = []

    verdict = "budget_exhausted"
    extinction = None
    plateaued = False
    step = 0

    # geometry of the current curve; carried across iterations so each
    # accepted step evaluates the metric only on its own result
    acc, x_ss, h, k = _covariant_acceleration(spec, nodes, deck)
    maxk = float(k.max())
    L = float(h.sum())
    centroid0 = nodes.mean(axis=0)
    containment_drift = 0.0

    while step < max_steps:
        maxk = float(k.max())

        if L < 1e-3:
            verdict = "shrank_to_point"
            extinction = t + (L / (2.0 * math.pi)) ** 2 / 2.0
            break
        if maxk < k_tol:
            verdict = "converged_to_geodesic"
            break
        lengths_window.append(L)
        if len(lengths_window) > 100:
            lengths_window.pop(0)
            if lengths_window[0] - lengths_window[-1] < 1e-8:
                plateaued = True
                k_floor = 100.0 * (L / len(nodes)) ** 2
                verdict = ("converged_to_geodesic" if maxk < k_floor
                           else "budget_exhausted")
                break

        if step % 10 == 0 and step > 0:
            # the curve drifts between curvature regions; refresh its cap
            jacobi_cap = jacobi_cap_at(nodes)
        cap = _DT_CURVATURE_CAP / maxk ** 2 if maxk > 0 else math.inf
        dt = min(dt * _DT_GROWTH, cap, jacobi_cap)
        hit_snap = None
        if snap_queue and t + dt >= snap_queue[0] - 1e-15:
            dt = max(snap_queue[0] - t, 1e-15)
            hit_snap = snap_queue[0]

        gamma_term = acc - x_ss

        while True:
            new_nodes = _implicit_step(nodes, d, h, gamma_term, dt)
            ok = np.isfinite(new_nodes).all()
            if ok:
                try:
                    resampled = _spline_resample(spec, new_nodes, deck, len(nodes))
                    acc2, xss2, h2, k2 = _covariant_acceleration(spec, resampled, deck)
                    k2max = float(k2.max())
                    ok = np.isfinite(k2max) and k2max <= 1.0 / (10.0 * dt)
                except DegenerateSpacing:
                    ok = False
            if ok:
                break
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise NumericalBlowup(
                    f"flow step kept failing after {_MAX_HALVINGS} halvings at t={t:.6g}")
            dt *= 0.5
            if hit_snap is not None:
                hit_snap = None   # no longer landing on the snapshot time

        L_after = float(h2.sum())
        t += dt
        step += 1
        if hit_snap is not None:
            snapshots.append((hit_snap, ClosedCurve(nodes=resampled.copy(), deck=deck)))
            snap_queue.pop(0)
        records.append(FlowRecord(
            step=step, t=t, dt=dt, length=L_after, max_curvature=maxk,
            shrink_rate=(L - L_after) / dt,
            curvature_integral=float((k * k * h).sum())))
        nodes, acc, x_ss, h, k, L = resampled, acc2, xss2, h2, k2, L_after
        containment_drift = max(containment_drift,
                                float(np.hypot(*(nodes.mean(axis=0) - centroid0))))

    return FlowResult(verdict=verdict, curve=ClosedCurve(nodes=nodes, deck=deck),
                      t_final=t, length=L, max_curvature=maxk, steps=step,
                      halvings=halvings, extinction_time=extinction,
                      plateaued=plateaued, records=records, snapshots=snapshots,
                      containment_drift=containment_drift)


def _implicit_step(nodes, d, h, gamma_term, dt):
    """One backward step of the diffusion part, explicit metric term.

    Solves (I - dt * D2) X_new = X_old + dt * gamma_term where D2 is the
    arclength second difference with the deck offset folded into the seam
    rows of the right-hand side.
    """
    n = len(nodes)
    h_next = h
    h_prev = np.roll(h, 1)
    alpha = 2.0 / (h_prev * (h_prev + h_next))
    gammac = 2.0 / (h_next * (h_prev + h_next))
    beta = -(alpha + gammac)

    sub = -dt * alpha
    diag = 1.0 - dt * beta
    sup = -dt * gammac
    corner_lo = -dt * alpha[0]
    corner_hi = -dt * gammac[-1]

    rhs = nodes + dt * gamma_term
    rhs[0] -= dt * alpha[0] * d
    rhs[-1] += dt * gammac[-1] * d
    return _solve_cyclic_tridiag(sub, diag, sup, corner_lo, corner_hi, rhs)


# ---------------------------------------------------------------------------
# crossings of torus curves and the monotonicity probe

def torus_crossing_count(curveA, curveB):
    """Transversal crossings of two closed torus curves.

    Counts crossings of one period of A against every integer translate of
    B's period, all of them scanned by one `segments.torus_crossings` pass,
    which enumerates each torus crossing exactly once.
    """
    pA = curveA.closed_polyline()
    tA = np.arange(len(pA), dtype=float)
    pB = curveB.closed_polyline()
    tB = np.arange(len(pB), dtype=float)
    found = sg.torus_crossings(pA, tA, pB, tB, None, None)
    return sum(len(ev) for ev, _ in found.values())


def intersection_monotonicity_probe(spec, curveA, curveB, probe_times):
    """Crossing counts of two flowing curves on a shared clock.

    Both curves evolve independently; the step lands exactly on each probe
    time, so counts at index i compare the curves at the same flow time.
    Returns a dict with times, counts, the two verdicts, and whether the
    count sequence is nonincreasing.
    """
    probe_times = sorted(float(s) for s in probe_times)
    resA = evolve(spec, curveA, snapshot_times=probe_times)
    resB = evolve(spec, curveB, snapshot_times=probe_times)
    snapsA = dict(resA.snapshots)
    snapsB = dict(resB.snapshots)
    times = [0.0]
    counts = [torus_crossing_count(curveA, curveB)]
    for s in probe_times:
        if s in snapsA and s in snapsB:
            times.append(s)
            counts.append(torus_crossing_count(snapsA[s], snapsB[s]))
    nonincreasing = all(b <= a for a, b in zip(counts, counts[1:]))
    return {"times": times, "counts": counts, "nonincreasing": nonincreasing,
            "verdict_a": resA.verdict, "verdict_b": resB.verdict}

