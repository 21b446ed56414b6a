"""Minimal closed geodesics in prescribed translation classes.

An axis of class (p, q) is a closed geodesic whose lift advances by the
integer vector (p, q) per period.  They are found in two stages: curve
shortening from straight representatives at several transverse offsets
gets close and ranks the candidates by length, then Newton shooting on
(transverse offset, launch angle, period) closes the geodesic to far below
the flow's resolution floor.  The flow only has to land in the shooting's
basin, so it stops at a coarse curvature tolerance (_BASIN_K_TOL), at its
length plateau or at its step budget, whichever comes first.  The shooting,
not the flow's verdict, decides: every flow result is a candidate, and a
candidate counts only once the shooting closes it.

A deliberately independent check lives alongside: a shortest-path length
over a dense grid graph in a chart aligned with the class, whose metric is
a product of two small phase tables in that frame.  It shares only the
Fourier coefficient lists with the flow and the shooting, and serves as an
upper bound, tight to a fraction of a percent for mildly curved metrics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import shortening as sh
from .cover import class_frame, intersection_census, primitive_classes
from .errors import NotConverged, ValidationError
from .flow import integrate, unit_tangent
from .metrics import CurvatureSurvey, curvature_survey, quadratic_form

# max geodesic curvature at which a seed's flow stops early: well inside
# the shooting's basin, and far above the curvature floor of a 256-node
# polygon that the flow's own default tolerance sits below
_BASIN_K_TOL = 1e-2
# flow candidates whose lengths agree to this relative gap keep their seed
# order: mirror-image seeds flow to twin axes whose lengths differ only by
# rounding (about 1e-15), while distinct flow results differ by 1e-10 or more
_TWIN_RTOL = 1e-12
# largest closing residual the shooting accepts
_SHOOT_TOL = 1e-5
# lattice oracle: chart margin either side of one transverse period, move
# stencil radius, coarse start offsets, and fine rows either side of the best
_ORACLE_MARGIN = 0.35
_ORACLE_STENCIL_RADIUS = 3
_ORACLE_COARSE_STARTS = 16
_ORACLE_REFINE_WINDOW = 6
# foliation check: limit curves with closer intercepts are the same curve
_DISTINCT_TOL = 1e-3
# horizon of the flatness test's witness ray
_WITNESS_HORIZON = 240.0


@dataclass
class Axis:
    """Closed geodesic of one translation class, sampled at unit speed.

    nodes holds one period (first node not repeated), klass the class.
    closing_residual is the sup norm of the position and angle gaps of the
    shooting solution; length equals the period of the unit-speed orbit.
    """

    klass: tuple
    nodes: np.ndarray
    length: float
    closing_residual: float
    start: tuple
    angle: float
    diagnostics: dict = field(default_factory=dict)

    def curve(self):
        return sh.ClosedCurve(nodes=self.nodes.copy(), deck=self.klass)


def _shoot(spec, start, theta, T, n_samples=0):
    v0 = unit_tangent(spec, start, float(theta))
    dt = T / max(n_samples, 8)
    traj = integrate(spec, v0, float(T), dt=dt, rtol=1e-12, atol=1e-13)
    end = traj.xy[-1]
    ang = math.atan2(traj.v[-1, 1], traj.v[-1, 0])
    return traj, end, ang


def _closing_residual(end, ang, start, theta, klass):
    gap = np.array([end[0] - start[0] - klass[0],
                    end[1] - start[1] - klass[1],
                    (ang - theta + math.pi) % (2.0 * math.pi) - math.pi])
    return gap


def shoot_closed_geodesic(spec, klass, start, theta, period, n_samples=256):
    """Newton-polish a near-closed geodesic into a closed one.

    Unknowns are the transverse offset of the start point, the launch
    angle, and the period; residuals the closing gaps in position and
    angle.  Raises NotConverged when, after at most 12 Newton steps, the
    residual stays above _SHOOT_TOL.
    """
    p, q, norm, e_s, e_w = class_frame(klass)
    x0 = np.asarray(start, dtype=float)
    u = np.array([0.0, float(theta), float(period)])

    def residual(u):
        s = x0 + u[0] * e_w
        _, end, ang = _shoot(spec, s, u[1], u[2])
        return _closing_residual(end, ang, s, u[1], (p, q))

    r = residual(u)
    eps = 1e-7
    for _ in range(12):
        if np.abs(r).max() < 1e-11:
            break
        J = np.empty((3, 3))
        for col in range(3):
            du = u.copy()
            du[col] += eps
            J[:, col] = (residual(du) - r) / eps
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            raise NotConverged("singular shooting Jacobian")
        step[0] = np.clip(step[0], -0.1, 0.1)
        step[1] = np.clip(step[1], -0.3, 0.3)
        step[2] = np.clip(step[2], -0.2, 0.2)
        u = u + step
        r = residual(u)
    res = float(np.abs(r).max())
    if res > _SHOOT_TOL:
        raise NotConverged(f"closing residual {res:.3g} above {_SHOOT_TOL:g}")

    s = x0 + u[0] * e_w
    traj, end, ang = _shoot(spec, s, u[1], u[2], n_samples=n_samples)
    nodes = traj.xy[:n_samples]
    return Axis(klass=(p, q), nodes=nodes, length=float(u[2]),
                closing_residual=res, start=(float(s[0]), float(s[1])),
                angle=float(u[1]),
                diagnostics={"newton_residual": [float(x) for x in r]})


def find_minimal_axis(spec, klass, n=256, n_offsets=5, certify=False):
    """Minimal closed geodesic of a class: flow to candidates, shoot, pick.

    Straight representatives at n_offsets transverse offsets across one
    transverse period are relaxed by curve shortening, as one evolve stack,
    until their curvature falls below _BASIN_K_TOL, their length plateaus or
    40,000 steps have run.  Every flow result is a candidate, whatever its
    verdict: the candidates are sorted by length, lengths within
    _TWIN_RTOL of each other keeping their seed order, and the three shortest
    are shot in that order; the first that closes is the axis, and
    NotConverged is raised when none does.  With certify=True the result is
    compared against the independent grid oracle and the comparison stored
    in diagnostics.
    """
    p, q = class_frame(klass)[:2]
    seeds = _straight_seeds(klass, [(i + 0.5) / n_offsets for i in range(n_offsets)], n)
    candidates = [(res.length, res.curve) for res in
                  sh.evolve(spec, seeds, max_steps=40000, k_tol=_BASIN_K_TOL)]
    lengths = [c[0] for c in candidates]
    tol = _TWIN_RTOL * min(lengths)
    # rank by the number of clearly shorter candidates; the sort is stable
    candidates.sort(key=lambda c: sum(other < c[0] - tol for other in lengths))

    last_err = None
    for length, curve in candidates[:3]:
        start = curve.nodes[0]
        tang = curve.nodes[1] - curve.nodes[0]
        theta = math.atan2(tang[1], tang[0])
        try:
            axis = shoot_closed_geodesic(spec, (p, q), start, theta, length,
                                         n_samples=n)
            break
        except NotConverged as e:
            last_err = e
    else:
        raise NotConverged(f"shooting failed for class {(p, q)}: {last_err}")

    axis.diagnostics["flow_candidates"] = [float(c[0]) for c in candidates]
    axis.diagnostics["polygon_length"] = axis.curve().g_length(spec)
    if certify:
        oracle = grid_shortest_class_length(spec, (p, q))
        axis.diagnostics["grid_oracle"] = oracle
        axis.diagnostics["oracle_gap"] = (oracle["length"] - axis.length) / axis.length
    return axis


def _straight_seeds(klass, fractions, n):
    """Straight n-node seeds of a class at these fractions of its transverse period."""
    p, q, norm, _, e_w = class_frame(klass)
    period_w = 1.0 / norm
    seeds = []
    for f in fractions:
        w0 = f * period_w
        base = (float(w0 * e_w[0]), float(w0 * e_w[1]))
        seeds.append(sh.straight_class_curve((p, q), base=base, n=n))
    return seeds


# ---------------------------------------------------------------------------
# independent grid oracle

def grid_shortest_class_length(spec, klass, n=512):
    """Shortest class-(p, q) loop length over a dense chart graph.

    The chart axes are the class direction s and its normal w; the graph
    couples nodes by every primitive integer move with sup-norm up to
    _ORACLE_STENCIL_RADIUS, plus vertical chains handled exactly by min-plus
    sweeps.  A loop must return to its starting transverse offset after
    advancing one period in s, so the answer is minimised over a coarse
    fan of start offsets covering one transverse period, then over a fine
    window around the best one, whose centre the coarse pass already ran.
    Pure dynamic programming on a chart built from the coefficient lists
    alone (_class_chart); nothing else is shared with the flow pipeline.
    """
    p, q, norm, e_s, e_w = class_frame(klass)
    Ns = int(round(norm * n))
    ds = norm / Ns
    dw = 1.0 / n
    period_w = 1.0 / norm
    w_lo = -_ORACLE_MARGIN
    w_hi = period_w + _ORACLE_MARGIN
    W = int(round((w_hi - w_lo) / dw)) + 1

    j_grid = w_lo + np.arange(W) * dw
    # one chart for the whole graph; edge weights take the trapezoid of the
    # endpoint quadratic forms, free of per-move series evaluations
    g = _class_chart(spec, (p, q), Ns, j_grid)

    wgt = {(di, dj): _edge_weights(g, di * ds * e_s + dj * dw * e_w, di, dj)
           for di, dj in primitive_classes(_ORACLE_STENCIL_RADIUS) if di > 0}
    vert = _edge_weights(g, dw * e_w, 0, 1)          # (Ns+1, W-1)

    coarse_rows = np.round((np.arange(_ORACLE_COARSE_STARTS)
                            / _ORACLE_COARSE_STARTS * period_w - w_lo)
                           / dw).astype(int)
    coarse_rows = np.clip(coarse_rows, 0, W - 1)
    coarse = _loop_lengths(wgt, vert, coarse_rows)
    best = int(np.argmin(coarse))
    center = coarse_rows[best]
    fine_rows = np.unique(np.clip(
        center + np.arange(-_ORACLE_REFINE_WINDOW, _ORACLE_REFINE_WINDOW + 1),
        0, W - 1))
    # a start's loop does not depend on its batch: the centre's is coarse[best]
    fine = np.full(len(fine_rows), coarse[best])
    rest = fine_rows != center
    fine[rest] = _loop_lengths(wgt, vert, fine_rows[rest])
    k = int(np.argmin(fine))
    return {"length": float(fine[k]),
            "offset": float(j_grid[fine_rows[k]]),
            "coarse_best": float(coarse[best]),
            "n": n, "stencil_radius": _ORACLE_STENCIL_RADIUS}


def _class_chart(spec, klass, Ns, w):
    """E, F and G at the chart nodes i |(p, q)|/Ns e_s + w[j] e_w, i = 0..Ns.

    Term (mx, my) has phase 2 pi (i a / Ns + w[j] b / |(p, q)|) there, with
    integers a = mx p + my q and b = my p - mx q, so a component is Re(S A W^T):
    S[i, a] = exp(2 pi i ((i a) mod Ns) / Ns), A[a, b] sums the terms' c - i s
    and W[j, b] = exp(2 pi i w[j] b / |(p, q)|).  An empty component is 0.0.
    """
    p, q, norm = class_frame(klass)[:3]

    def chart(terms):
        if not terms:
            return 0.0
        mx, my, c, s = map(np.array, zip(*terms))
        a, ia = np.unique(mx * p + my * q, return_inverse=True)
        b, ib = np.unique(my * p - mx * q, return_inverse=True)
        A = np.zeros((len(a), len(b)), dtype=complex)
        np.add.at(A, (ia, ib), c - 1j * s)
        S = np.exp(2j * math.pi / Ns * (np.arange(Ns + 1)[:, None] * a % Ns))
        # Re(z w) is the dot product of z and conj(w) viewed as float pairs
        Wc = np.exp(-2j * math.pi / norm * np.outer(w, b))
        return (S @ A).view(float) @ Wc.view(float).T

    E = chart(spec.g11)
    return {"E": E, "F": chart(spec.g12),
            "G": E if spec.g22 == spec.g11 else chart(spec.g22)}


def _loop_lengths(wgt, vert, start_rows):
    """Shortest chart loop from each start row back to it, one section period on.

    Elementwise over the starts: a start's length does not depend on its batch.
    """
    rows = np.arange(len(start_rows))
    d = np.full((len(rows), vert.shape[1] + 1), np.inf)
    d[rows, start_rows] = 0.0
    hist = [_vertical_relax(d, vert[0])]
    for i in range(1, len(vert)):
        d = np.full(d.shape, np.inf)
        for (di, dj), wmat in wgt.items():
            if di > i:
                continue
            src, wrow = hist[i - di], wmat[i - di]
            if dj == 0:
                np.minimum(d, src + wrow, out=d)
            elif dj > 0:
                np.minimum(d[:, dj:], src[:, :-dj] + wrow, out=d[:, dj:])
            else:
                np.minimum(d[:, :dj], src[:, -dj:] + wrow, out=d[:, :dj])
        hist.append(_vertical_relax(d, vert[i]))
        if len(hist) > _ORACLE_STENCIL_RADIUS + 1:
            hist[i - _ORACLE_STENCIL_RADIUS - 1] = None
    return hist[-1][rows, start_rows]


def _edge_weights(g, delta, di, dj):
    """Trapezoid lengths of the chart edges of one move (di, dj).

    g holds the metric components at every chart node; delta is the move's
    step in the torus.  Edge (i, j) -> (i + di, j + dj) weighs the mean of
    the metric norms of delta at its two ends.
    """
    norm = np.sqrt(quadratic_form(g, delta[0], delta[1]))
    src, dst = norm[:len(norm) - di], norm[di:]
    if dj > 0:
        return 0.5 * (src[:, :-dj] + dst[:, dj:])
    if dj < 0:
        return 0.5 * (src[:, -dj:] + dst[:, :dj])
    return 0.5 * (src + dst)


def _vertical_relax(d, vw):
    """Exact within-section relaxation along the vertical chain.

    Min-plus prefix/suffix scans: the cost of the chain from row k to row j
    telescopes, so one cumulative array and two running minima cover every
    monotone vertical run.
    """
    c = np.concatenate([[0.0], np.cumsum(vw)])
    up = np.fmin.accumulate(d - c[None, :], axis=1) + c[None, :]
    down = (np.flip(np.fmin.accumulate(np.flip(d + c[None, :], axis=1),
                                       axis=1), axis=1) - c[None, :])
    return np.minimum(np.minimum(d, up), down)


# ---------------------------------------------------------------------------
# slab widths and foliation structure

def line_deviation(axis):
    """Width of the smallest class-direction slab containing the axis."""
    _, _, _, _, e_w = class_frame(axis.klass)
    w = axis.nodes @ e_w
    return float(w.max() - w.min())


@dataclass
class FoliationReport:
    """How the flow limits of a fan of seeds fill the transverse period.

    foliated means some seed converged, the limit curves pass near every
    seed offset (their intercepts leave no gap above 2/n_seeds transverse
    periods) and no two distinct limits cross; isolated means the seeds
    collapse onto a few distinct axes.
    """

    klass: tuple
    n_seeds: int
    n_distinct: int
    max_gap_fraction: float
    crossing_free: bool
    foliated: bool
    intercepts: list
    verdicts: list


def check_foliation(spec, klass, n_seeds, n=192):
    """Flow a fan of straight seeds and classify the limit family.

    The n_seeds (at least 1) seeds flow as one evolve stack, each for at
    most 30,000 steps.  For a flat metric every seed stays put, the
    intercept fan stays dense and the report says foliated; a metric with
    isolated minimal axes funnels the seeds onto a few curves instead.
    """
    if n_seeds < 1:
        raise ValidationError(f"a foliation check needs at least 1 seed, got {n_seeds}")
    p, q, norm, _, e_w = class_frame(klass)
    period_w = 1.0 / norm
    seeds = _straight_seeds(klass, [i / n_seeds for i in range(n_seeds)], n)
    results = sh.evolve(spec, seeds, max_steps=30000)
    verdicts = [res.verdict for res in results]
    curves = [res.curve for res in results
              if res.verdict == "converged_to_geodesic"]
    intercepts = [float(np.median((c.nodes @ e_w) % period_w)) for c in curves]

    order = np.argsort(intercepts)
    icpt = np.asarray(intercepts, dtype=float)[order]
    # gaps between neighbours on the circle of intercepts; a gap of
    # _DISTINCT_TOL or more starts a new limit curve, represented by the
    # first intercept after it (no such gap: all form one curve)
    gaps = np.diff(icpt, append=icpt[:1] + period_w)
    reps = ([curves[k] for k in order[np.roll(gaps, 1) >= _DISTINCT_TOL]]
            or curves[:1])
    crossing_free = not any(sh.torus_crossing_count(a, b) > 0
                            for a, b in itertools.combinations(reps, 2))
    max_gap = float(gaps.max()) / period_w if len(gaps) else 1.0
    # without a limit curve there is no family to call foliated
    foliated = (bool(curves) and len(reps) >= n_seeds // 2
                and max_gap < 2.0 / n_seeds and crossing_free)
    return FoliationReport(klass=(p, q), n_seeds=n_seeds,
                           n_distinct=len(reps), max_gap_fraction=max_gap,
                           crossing_free=crossing_free, foliated=foliated,
                           intercepts=icpt.tolist(), verdicts=verdicts)


# ---------------------------------------------------------------------------
# flatness

@dataclass
class FlatnessReport:
    """Two-pronged flatness verdict.

    The curvature prong is decisive: a metric is flat exactly when its
    curvature vanishes, and the grid maximum measures that directly.  The
    dynamical prong hunts for a behavioural witness, a translate family a
    lifted geodesic keeps crossing, which can exist only on a non-flat
    torus; absence of a witness is weak evidence, never a proof of
    flatness.  The survey's total integrates K dA, which is zero for every
    torus metric and so checks the curvature computation itself.
    """

    curvature: CurvatureSurvey
    curvature_flat: bool
    witness_found: bool
    witness_classes: list
    verdict: str


def flatness_test(spec, grid_n=256):
    """Decide flatness by curvature, and look for a dynamical witness."""
    survey = curvature_survey(spec, grid_n)

    v0 = unit_tangent(spec, (0.173, 0.319), 0.437)
    traj = integrate(spec, v0, _WITNESS_HORIZON, dt=0.05)
    census = intersection_census(
        traj, class_radius=2,
        horizons=(_WITNESS_HORIZON / 2, 0.75 * _WITNESS_HORIZON, _WITNESS_HORIZON))
    growing = census.growing_classes()

    curvature_flat = survey.max_abs < 1e-9
    return FlatnessReport(
        curvature=survey, curvature_flat=curvature_flat,
        witness_found=bool(growing), witness_classes=growing,
        verdict="flat" if curvature_flat else "not flat")
