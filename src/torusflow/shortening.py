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

`evolve` flows a stack of curves with equal node counts at once, since a
step on a few hundred nodes costs mostly fixed overhead.  Every array
operation of a step is elementwise or acts within one member's rows, the
metric evaluation is batch-independent, and the members' tridiagonal
systems are solved as one block-diagonal system, so stacking changes no
member's numbers: each member's result is bit for bit the one it gets
flowing alone.
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
        return _edge_data(spec, self.nodes[None], [self.deck])[1][0]

    def g_length(self, spec):
        return float(self.g_edge_lengths(spec).sum())

    def curvature(self, spec):
        """Covariant acceleration at the nodes and its pointwise metric norm.

        Finite differences are taken with respect to metric arclength, so
        the acceleration approximates the geodesic-curvature normal and its
        norm the unsigned geodesic curvature.
        """
        acc, _, _, k = _covariant_acceleration(spec, self.nodes[None], [self.deck])
        return acc[0], k[0]


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
#
# Everything below works on stacks: S curves with n nodes each as (S, n, 2)
# nodes, (S, 2) decks and (S, n) per-node or per-edge values.  Every
# operation is elementwise or acts within one member's row, so a member's
# numbers do not depend on the stack it is in.

def _prev(a):
    """Each member's values moved one node on, cyclically: out[:, i] = a[:, i - 1]."""
    return np.concatenate([a[:, -1:], a[:, :-1]], axis=1)


def _next(a):
    """Each member's values moved one node back, cyclically: out[:, i] = a[:, i + 1]."""
    return np.concatenate([a[:, 1:], a[:, :1]], axis=1)


def _xy(a):
    """The x and y columns of a stack of points, as flat views."""
    return a.reshape(-1, 2).T


def _edge_data(spec, nodes, deck):
    """Edge vectors of each lifted polygon, the last one closing it by its
    deck, and their metric lengths at the edge midpoints."""
    e = np.concatenate([nodes[:, 1:], nodes[:, :1] + np.asarray(deck, float)[:, None]],
                       axis=1) - nodes
    f = spec.fields(*_xy(nodes + 0.5 * e), order=0)
    return e, np.sqrt(quadratic_form(f, *_xy(e))).reshape(e.shape[:-1])


def _covariant_acceleration(spec, nodes, deck):
    """Discrete covariant second derivative in metric arclength at the nodes.

    Returns (acc, x_ss, h, k): the acceleration, its flat part, the edge
    lengths and the acceleration's metric norm, the last from the same
    metric evaluation at the nodes as the connection term.
    """
    e, h = _edge_data(spec, nodes, deck)
    if h.min() <= 1e-13:
        raise DegenerateSpacing(f"shortest edge has length {h.min():.3g}")
    e_prev = _prev(e)
    h_next = h[..., None]
    h_prev = _prev(h)[..., None]
    h_sum = h_prev + h_next
    # weighted central difference, exact for quadratics in arclength
    x_s = (h_prev * e / h_next + h_next * e_prev / h_prev) / h_sum
    x_ss = 2.0 * (e / h_next - e_prev / h_prev) / h_sum
    f = spec.fields(*_xy(nodes), order=1)
    ax, ay = accel_from_fields(spec, f, *_xy(x_s))
    # the geodesic acceleration is minus the quadratic form of the connection
    acc = x_ss - np.stack([ax, ay], axis=-1).reshape(x_ss.shape)
    k = np.sqrt(np.maximum(quadratic_form(f, *_xy(acc)), 0.0)).reshape(h.shape)
    return acc, x_ss, h, k


def _solve_cyclic_tridiag(sub, diag, sup, rhs):
    """Solve S cyclic tridiagonal systems: Sherman-Morrison over one LAPACK gtsv.

    Row i of the (S, n) arrays holds system i, cyclically: sub[i, j]
    multiplies x[j - 1] and sup[i, j] multiplies x[j + 1], indices mod n, so
    sub[i, 0] and sup[i, -1] are its corners; rhs is (S, n, columns).  The
    systems are solved as one block-diagonal system with zero coupling
    entries, which gives each block's own solution bit for bit.  Raises
    NumericalBlowup when a tridiagonal part or a rank-one update is exactly
    singular.
    """
    # imported here, not at the top, so that the commands that never solve
    # (integrate, entropy, report and the rest) start without loading scipy
    from scipy.linalg.lapack import dgtsv

    S, n = diag.shape
    gamma = -diag[:, 0]
    shift = np.zeros_like(diag)
    shift[:, 0] = gamma
    shift[:, -1] = sub[:, 0] * sup[:, -1] / gamma
    d2 = diag - shift
    # the corners leave the tridiagonal part, and the blocks do not couple
    lo = sub.ravel()[1:].copy()
    lo[n - 1::n] = 0.0
    hi = sup.ravel()[:-1].copy()
    hi[n - 1::n] = 0.0
    # the rank-one corrections' u vectors ride along as one more right-hand
    # side, each in its own block's rows
    b = np.zeros((S * n, rhs.shape[-1] + 1), order="F")
    blocks = b.reshape(S, n, -1)
    blocks[..., :-1] = rhs
    blocks[:, 0, -1] = gamma
    blocks[:, -1, -1] = sup[:, -1]
    _, _, _, sol, info = dgtsv(lo, d2.ravel(), hi, b, overwrite_dl=1,
                               overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise NumericalBlowup(f"singular tridiagonal system (LAPACK info {info})")
    sol = sol.reshape(S, n, -1)
    if S > 1 and not np.isfinite(sol).all():
        # a zero coupling entry times a non-finite neighbour is nan, so a
        # block that overflowed would spoil the others: solve each alone
        return np.concatenate([
            _solve_cyclic_tridiag(sub[i:i + 1], diag[i:i + 1], sup[i:i + 1],
                                  rhs[i:i + 1]) for i in range(S)])
    # v . y for the right-hand sides and v . z for u, v = (1, 0, .., corner_lo / gamma)
    vsol = sol[:, 0] + (sub[:, 0] / gamma)[:, None] * sol[:, -1]
    scale = 1.0 + vsol[:, -1:]
    if not scale.all():
        raise NumericalBlowup("singular cyclic system")
    return sol[..., :-1] - sol[..., -1:] * (vsol[:, None, :-1] / scale[:, None])


def _spline_resample(spec, nodes, deck, n_new):
    """Redistribute each member's nodes to uniform metric arclength.

    Fits a periodic cubic spline to the drift-subtracted lift, so the
    closing constraint is exact and the sampled curve is C^2.
    """
    _, h = _edge_data(spec, nodes, deck)
    u = np.concatenate([np.zeros((len(h), 1)), np.cumsum(h, axis=1)], axis=1)
    if h.min() <= 0.0 or u[:, -1].min() <= 0.0:
        raise DegenerateSpacing("cannot redistribute a collapsed polygon")
    u = u / u[:, -1:]
    d = np.asarray(deck, dtype=float)[:, None]
    u_new = np.arange(n_new, dtype=float) / n_new
    return (_periodic_spline(u, nodes - u[:, :-1, None] * d, u_new)
            + u_new[:, None] * d)


def _periodic_spline(u, y, t):
    """Periodic cubic splines through (u[i, j], y[i, j]), evaluated at t.

    Row i of u holds n + 1 increasing knots spanning one period, y[i] the n
    values at the first n of them (the last knot repeats y[i, 0]); t lies in
    [u[i, 0], u[i, -1]) for every row.  The node slopes solve the cyclic
    tridiagonal system of C^2 continuity, and each interval is the cubic
    Hermite piece through its end values and slopes.
    """
    S, n = y.shape[:2]
    dx = np.diff(u, axis=1)
    dx_prev = _prev(dx)
    slope = (_next(y) - y) / dx[..., None]
    rhs = 3.0 * (dx[..., None] * _prev(slope) + dx_prev[..., None] * slope)
    s = _solve_cyclic_tridiag(dx, 2.0 * (dx_prev + dx), dx_prev, rhs)
    # each t's interval, as a row-major index into the (S, n) arrays
    i = np.array([np.searchsorted(row, t, side="right") for row in u]) - 1
    row = np.arange(S)[:, None]
    w = (t - u.take(i + (n + 1) * row))[..., None]
    i += n * row
    h = dx.take(i)[..., None]
    s0, s1, m = (a.reshape(-1, 2).take(i, axis=0) for a in (s, _next(s), slope))
    c2 = (s0 + s1 - 2.0 * m) / h
    c1 = (m - s0) / h - c2
    return ((c2 / h * w + c1) * w + s0) * w + y.reshape(-1, 2).take(i, axis=0)


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


class FlowResults(tuple):
    """evolve's FlowResults in the order of its curves; `steps` and
    `halvings` are their totals."""

    steps = property(lambda self: sum(r.steps for r in self))
    halvings = property(lambda self: sum(r.halvings for r in self))


# evolve's time-step schedule, its two caps and its halving budget, as its
# docstring describes them
_DT_SAFETY = 0.2
_DT_GROWTH = 1.2
_DT_CURVATURE_CAP = 0.01
_DT_JACOBI_FRAC = 0.25
_MAX_HALVINGS = 40


def evolve(spec, curves, max_steps=20000, k_tol=1e-5, snapshot_times=()):
    """Run curve shortening on each curve until extinction, convergence, or budget.

    `curves` is a sequence of one or more closed curves with equal node
    counts and any decks; they advance as one (S, n, 2) stack.  Each step
    makes one metric evaluation per stage for all S * n nodes, one
    block-diagonal LAPACK tridiagonal solve whose Sherman-Morrison column
    holds every member's corner entries, and one spline resample.
    Everything else belongs to the member: its time step, halvings,
    snapshot queue, plateau window, curvature and Jacobi caps, records,
    verdict and containment drift.  A member that finishes leaves the
    stack; a member whose step fails retries alone at half its step while
    the others keep theirs.  Each member's FlowResult is therefore the one
    it gets flowing alone, bit for bit.  Returns FlowResults, a tuple of
    one FlowResult per curve in input order whose `steps` and `halvings`
    are the totals over the members.  ValidationError is raised for an
    empty sequence or unequal node counts.

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
    curves = list(curves)
    counts = [len(c.nodes) for c in curves]
    if not counts or len(set(counts)) > 1:
        raise ValidationError(
            f"evolve needs one or more curves with equal node counts, got {counts}")
    nodes = np.stack([c.nodes for c in curves])
    decks = np.array([c.deck for c in curves], dtype=float)
    caps = _jacobi_caps(spec, nodes)
    _, h0 = _edge_data(spec, nodes, decks)
    # the geometry of the members still flowing, stacked in member order;
    # each accepted step evaluates the metric only on its own result
    acc, x_ss, h, k = _covariant_acceleration(spec, nodes, decks)
    members = [_Member(c.deck, rows, cap, _DT_SAFETY * float(h0_row.min()) ** 2,
                       snapshot_times)
               for c, rows, cap, h0_row in zip(curves, zip(nodes, k, h), caps, h0)]
    active = members
    while True:
        going = [i for i, m in enumerate(active)
                 if not m.finished(k[i], h[i], max_steps, k_tol)]
        if len(going) < len(active):
            if not going:
                break
            active = [active[i] for i in going]
            nodes, decks, acc, x_ss, h, k = (a[going] for a in
                                             (nodes, decks, acc, x_ss, h, k))
        refresh = [i for i, m in enumerate(active)
                   if m.res.steps % 10 == 0 and m.res.steps > 0]
        if refresh:
            # the curves drift between curvature regions; refresh their caps
            for i, cap in zip(refresh, _jacobi_caps(spec, nodes[refresh])):
                active[i].jacobi_cap = cap
        dt = np.array([m.plan_step() for m in active])
        gamma_term = acc - x_ss
        held, after = _try_step(spec, nodes, decks, h, gamma_term, dt)
        for i in np.flatnonzero(~held):
            # this member retries alone at half its step, the others keep theirs
            m, alone = active[i], slice(i, i + 1)
            while not held[i]:
                m.halve()
                (held[i],), retry = _try_step(spec, nodes[alone], decks[alone], h[alone],
                                              gamma_term[alone], np.array([m.dt]))
            for a, r in zip(after, retry):
                a[i] = r[0]
        for m, new_nodes, new_h in zip(active, after[0], after[3]):
            m.accept(new_nodes, new_h)
        nodes, acc, x_ss, h, k = after
    return FlowResults(m.result() for m in members)


def _jacobi_caps(spec, nodes):
    """_DT_JACOBI_FRAC / max|K| over each member's nodes (inf where flat)."""
    K = gauss_curvature_batch(spec, *_xy(nodes))
    return [_DT_JACOBI_FRAC / kb if kb > 1e-12 else math.inf
            for kb in np.abs(K).reshape(len(nodes), -1).max(axis=1).tolist()]


class _Member:
    """One curve of an evolve stack: its FlowResult, filled in as it flows,
    and the state that steers its steps.  Its geometry lives in the stack,
    whose rows are laid out as one curve's arrays are."""

    def __init__(self, deck, rows, jacobi_cap, dt, snapshot_times):
        nodes, k, h = rows
        self.res = FlowResult(verdict="budget_exhausted", curve=None, t_final=0.0,
                              length=float(h.sum()), max_curvature=float(k.max()),
                              steps=0, halvings=0)
        self.nodes, self.deck = nodes, deck
        self.centroid0 = nodes.mean(axis=0)
        self.jacobi_cap, self.dt, self.hit_snap = jacobi_cap, dt, None
        self.snap_queue = sorted(float(s) for s in snapshot_times)
        self.lengths_window = []

    def finished(self, k, h, max_steps, k_tol):
        """The checks that open a step, on the member's curvature k and edge
        lengths h; True once its flow has stopped."""
        res = self.res
        if res.steps >= max_steps:
            return True
        res.max_curvature = maxk = float(k.max())
        L = res.length
        if L < 1e-3:
            res.verdict = "shrank_to_point"
            res.extinction_time = res.t_final + (L / (2.0 * math.pi)) ** 2 / 2.0
            return True
        if maxk < k_tol:
            res.verdict = "converged_to_geodesic"
            return True
        window = self.lengths_window
        window.append(L)
        if len(window) > 100:
            window.pop(0)
            if window[0] - window[-1] < 1e-8:
                res.plateaued = True
                k_floor = 100.0 * (L / len(self.nodes)) ** 2
                res.verdict = ("converged_to_geodesic" if maxk < k_floor
                               else "budget_exhausted")
                return True
        # the step goes ahead; its record needs this of the curve it starts from
        self.curvature_integral = float((k * k * h).sum())
        return False

    def plan_step(self):
        """This step's dt, which lands on the next snapshot time if it is near."""
        maxk, t = self.res.max_curvature, self.res.t_final
        cap = _DT_CURVATURE_CAP / maxk ** 2 if maxk > 0 else math.inf
        self.dt = min(self.dt * _DT_GROWTH, cap, self.jacobi_cap)
        self.hit_snap = None
        queue = self.snap_queue
        if queue and t + self.dt >= queue[0] - 1e-15:
            self.dt = max(queue[0] - t, 1e-15)
            self.hit_snap = queue[0]
        return self.dt

    def halve(self):
        self.res.halvings += 1
        if self.res.halvings > _MAX_HALVINGS:
            raise NumericalBlowup(f"flow step kept failing after {_MAX_HALVINGS} "
                                  f"halvings at t={self.res.t_final:.6g}")
        self.dt *= 0.5
        self.hit_snap = None   # no longer landing on the snapshot time

    def accept(self, nodes, h):
        """Record the step to the curve with these nodes and edge lengths."""
        res = self.res
        L_after = float(h.sum())
        res.t_final += self.dt
        res.steps += 1
        if self.hit_snap is not None:
            res.snapshots.append((self.hit_snap,
                                  ClosedCurve(nodes=nodes.copy(), deck=self.deck)))
            self.snap_queue.pop(0)
        res.records.append(FlowRecord(
            step=res.steps, t=res.t_final, dt=self.dt, length=L_after,
            max_curvature=res.max_curvature, shrink_rate=(res.length - L_after) / self.dt,
            curvature_integral=self.curvature_integral))
        self.nodes = nodes
        res.length = L_after
        res.containment_drift = max(res.containment_drift, float(
            np.hypot(*(nodes.mean(axis=0) - self.centroid0))))

    def result(self):
        self.res.curve = ClosedCurve(nodes=self.nodes, deck=self.deck)
        return self.res


def _try_step(spec, nodes, decks, h, gamma_term, dt):
    """One trial step of every member of a stack, each at its own dt.

    Returns (held, after): held[i] says whether member i's step held, and
    after = (nodes, acc, x_ss, h, k) is the stack's geometry after the step,
    valid in the rows that held.  A step fails on non-finite nodes, a
    collapsed polygon, or a curvature that exploded past 1 / (10 dt).
    """
    new = _implicit_step(nodes, decks, h, gamma_term, dt)
    if np.isfinite(new).all():
        try:
            resampled = _spline_resample(spec, new, decks, new.shape[1])
            after = (resampled, *_covariant_acceleration(spec, resampled, decks))
        except DegenerateSpacing:
            pass
        else:
            kmax = after[-1].max(axis=1)
            return np.isfinite(kmax) & (kmax <= 1.0 / (10.0 * dt)), after
    if len(new) == 1:
        return np.zeros(1, dtype=bool), tuple(np.full_like(a, np.nan)
                                             for a in (nodes, nodes, nodes, h, h))
    # a member's step broke down: find it by trying each member alone
    held, after = zip(*(_try_step(spec, nodes[i:i + 1], decks[i:i + 1], h[i:i + 1],
                                  gamma_term[i:i + 1], dt[i:i + 1])
                        for i in range(len(new))))
    return np.concatenate(held), tuple(map(np.concatenate, zip(*after)))


def _implicit_step(nodes, d, h, gamma_term, dt):
    """One backward step of the diffusion part, explicit metric term.

    For each member of the stack, solves (I - dt * D2) X_new = X_old +
    dt * gamma_term where D2 is the arclength second difference with the
    deck offset d folded into the seam rows of the right-hand side.
    """
    h_prev = _prev(h)
    h_sum = h_prev + h
    alpha = 2.0 / (h_prev * h_sum)
    gammac = 2.0 / (h * h_sum)
    dt_rows = dt[:, None]
    rhs = nodes + dt_rows[..., None] * gamma_term
    rhs[:, 0] -= (dt * alpha[:, 0])[:, None] * d
    rhs[:, -1] += (dt * gammac[:, -1])[:, None] * d
    return _solve_cyclic_tridiag(-dt_rows * alpha, 1.0 + dt_rows * (alpha + gammac),
                                 -dt_rows * gammac, rhs)


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

    The two curves, with equal node counts, flow as one evolve stack, each
    as it would alone; the step lands exactly on each probe time, so counts
    at index i compare the curves at the same flow time.  Returns a dict
    with times, counts, the two verdicts, and whether the count sequence is
    nonincreasing.
    """
    probe_times = sorted(float(s) for s in probe_times)
    resA, resB = evolve(spec, (curveA, curveB), snapshot_times=probe_times)
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

