"""Analysis of lifted geodesics on the universal cover.

The deck group of the square torus acts by integer translations.  This
module tracks how a lifted geodesic meets its own deck translates
(self-intersections, per-class intersection censuses), where it escapes to
(asymptotic direction, rotation number as a point of the projective line,
bounding strip), and detects the two configurations that certify dynamical
complexity: a double loop on one lift, and a pair of geodesic segments
anchored on a closed geodesic's axis whose interiors cross disjoint
translates of that axis on either side.

All finite-horizon counts and estimates are evidence about the sampled
window, never proofs about infinite rays; report consumers are expected to
treat them that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import segments as sg
from .errors import (AxesNotDisjoint, NotEscaping, PrimitiveRequired,
                     ValidationError)
from .flow import integrate_rays, unit_tangent
from .metrics import circle_distance

IntersectionEvent = sg.IntersectionEvent

# a ray must end at least this far from its launch point for its escape
# direction to be estimated
_MIN_ESCAPE_NORM = 10.0
# sup-norm radius of the translates torus_self_crossings scans
_TORUS_CLASS_RADIUS = 2


# ---------------------------------------------------------------------------
# deck group

@dataclass(frozen=True)
class DeckTransform:
    """Integer translation (x, y) -> (x + m, y + n) of the cover."""

    m: int
    n: int

    def apply_array(self, xy):
        return np.asarray(xy, dtype=float) + np.array([self.m, self.n], dtype=float)

    def inverse(self):
        return DeckTransform(-self.m, -self.n)

    def power(self, k):
        return DeckTransform(k * self.m, k * self.n)

    @property
    def is_identity(self):
        return self.m == 0 and self.n == 0

    @property
    def is_primitive(self):
        """True when (m, n) is not a nontrivial multiple of a shorter vector."""
        return not self.is_identity and math.gcd(abs(self.m), abs(self.n)) == 1

    def class_rep(self):
        """Primitive, sign-normalised representative of this transform's class.

        Two nonzero transforms are equivalent when they have equal nonzero
        powers; each class is tagged by the primitive vector along the same
        line, with the first nonzero coordinate positive.
        """
        if self.is_identity:
            raise PrimitiveRequired("the identity translation has no class")
        d = math.gcd(abs(self.m), abs(self.n))
        m, n = self.m // d, self.n // d
        if m < 0 or (m == 0 and n < 0):
            m, n = -m, -n
        return DeckTransform(m, n)

    def class_key(self):
        rep = self.class_rep()
        return f"{rep.m}/{rep.n}"


def half_lattice(rx, ry):
    """One of each pair +-(m, n) of nonzero shifts with |m| <= rx, |n| <= ry.

    The listed ones are those with m > 0, or m = 0 and n > 0, in
    lexicographic order.  Each torus point met by a curve and a deck
    translate of it shows up for exactly one listed shift.
    """
    return [(m, n) for m in range(rx + 1) for n in range(-ry, ry + 1)
            if m > 0 or n > 0]


def primitive_classes(radius):
    """Sign-normalised primitive vectors with sup-norm at most `radius`."""
    return [DeckTransform(m, n) for m, n in half_lattice(radius, radius)
            if math.gcd(m, n) == 1]


# ---------------------------------------------------------------------------
# intersections of lifts

def self_intersections(traj, t_sep=sg.SELF_T_SEP):
    """Transversal self-crossings of one lifted geodesic.

    Returns (events, tangential); events are sorted by parameter and each
    has t1 < t2.  Pairs closer than t_sep in parameter are not crossings of
    distinct strands and are excluded.
    """
    return sg.crossings(traj.xy, traj.t, traj.xy, traj.t, traj.v, traj.v,
                        same_curve=True, t_sep=t_sep)


def translate_intersections(traj, tau):
    """Transversal crossings between a lift and its deck translate tau(lift)."""
    if tau.is_identity:
        raise ValidationError("translate_intersections needs a nonzero translation")
    shifted = tau.apply_array(traj.xy)
    return sg.crossings(traj.xy, traj.t, shifted, traj.t, traj.v, traj.v)


def torus_self_crossings(traj):
    """Parameter pairs where the projected geodesic meets itself on the torus.

    Each unordered pair {t1, t2} with equal torus points lifts to a unique
    integer difference vector, so the half-lattice of translates within
    sup-norm _TORUS_CLASS_RADIUS, plus the identity case of the planar lift,
    records each such torus crossing exactly once.  Returns (event,
    loop_class) pairs sorted by (t1, t2), with t1 < t2 and loop_class the
    deck class of the loop run from t1 to t2, (0, 0) for contractible ones.
    """
    ident = DeckTransform(0, 0)
    events, _ = self_intersections(traj)
    out = [(ev, ident) for ev in events]
    shifts = half_lattice(_TORUS_CLASS_RADIUS, _TORUS_CLASS_RADIUS)
    found = sg.crossings_by_shift(traj.xy, traj.t, traj.xy, traj.t, shifts,
                                  traj.v, traj.v)
    for tau, (events, _) in zip([DeckTransform(*v) for v in shifts], found):
        # an event (ta, tb) asserts lift(ta) = tau(lift(tb)); the loop
        # class compares the later lift point against the earlier one
        for ev in events:
            if ev.t1 > ev.t2:
                ev = sg.IntersectionEvent(ev.t2, ev.t1, ev.x, ev.y,
                                          -ev.sign, ev.margin)
                loop = tau
            else:
                loop = tau.inverse()
            out.append((ev, loop))
    out.sort(key=lambda pair: (pair[0].t1, pair[0].t2))
    return out


@dataclass
class ClassCensus:
    """Per-class intersection counts against a ladder of horizons."""

    class_key: str
    counts: dict            # power k -> list of counts, one per horizon
    growing: bool


@dataclass
class IntersectionCensus:
    """Counts of a lift against translate families, per class and horizon.

    A class is flagged `growing` when, for at least one power of its
    representative, the counts strictly increase across the final three
    horizon rungs.  Growth over a finite ladder is evidence that the lift
    keeps meeting that translate family, not a proof of infinitely many
    crossings.
    """

    horizons: tuple
    class_radius: int
    classes: dict           # class_key -> ClassCensus

    def growing_classes(self):
        return [k for k, c in self.classes.items() if c.growing]

def _growing(counts_by_power):
    for counts in counts_by_power.values():
        tail = counts[-3:] if len(counts) >= 3 else counts
        if len(tail) >= 2 and all(b > a for a, b in zip(tail, tail[1:])):
            return True
    return False


def intersection_census(traj, class_radius, horizons):
    """Census of crossings between a lift and translate families.

    For every primitive class within `class_radius` (sup-norm) and every
    nonzero power k with |k| <= class_radius, counts the transversal
    crossings of the lift with its translate at each horizon rung.  Events
    are computed once at the deepest horizon and re-thresholded, so a rung
    counts exactly the crossings both of whose parameters lie within it.
    """
    if not all(map(math.isfinite, horizons)):
        raise ValidationError(f"census horizons must be finite, got {horizons}")
    horizons = tuple(sorted(horizons))
    if horizons[-1] > traj.horizon + 1e-9:
        raise ValidationError(
            f"census horizon {horizons[-1]} exceeds trajectory horizon {traj.horizon}")
    reps = primitive_classes(class_radius)
    powers = [k for k in range(-class_radius, class_radius + 1) if k != 0]
    etas = [rep.power(k) for rep in reps for k in powers]
    found = iter(sg.crossings_by_shift(traj.xy, traj.t, traj.xy, traj.t,
                                       [(eta.m, eta.n) for eta in etas]))
    classes = {}
    for rep in reps:
        counts = {}
        for k in powers:
            events, _ = next(found)
            counts[k] = [sum(1 for e in events if e.t1 <= h and e.t2 <= h)
                         for h in horizons]
        classes[rep.class_key()] = ClassCensus(class_key=rep.class_key(),
                                               counts=counts,
                                               growing=_growing(counts))
    return IntersectionCensus(horizons=horizons, class_radius=class_radius,
                              classes=classes)


# ---------------------------------------------------------------------------
# asymptotic direction, rotation number, strip

@dataclass(frozen=True)
class RotationNumber:
    """Slope of an asymptotic direction as a point of the projective line.

    The vertical direction is the point at infinity, with slope None, so
    that comparisons and printed values never rely on float sentinels.
    """

    slope: float | None

    @classmethod
    def of_direction(cls, dx, dy):
        """Slope map: (x, y) -> y/x when x is nonzero, else the vertical point."""
        return cls(float(dy / dx) if dx != 0.0 else None)

    @property
    def infinite(self):
        return self.slope is None

    def projective_angle(self):
        """Angle in [0, pi) of the corresponding line through the origin."""
        if self.infinite:
            return math.pi / 2.0
        return math.atan(self.slope) % math.pi

    def __str__(self):
        return "inf" if self.infinite else f"{self.slope:.12g}"


@dataclass(frozen=True)
class DirectionEstimate:
    """Finite-horizon estimate of the escape direction of a ray.

    `direction` is the unit displacement direction at the horizon,
    `rotation` its slope, and `tail_oscillation` the largest angle (radians)
    between the direction samples over the final fifth of the ray and the
    final direction; it decays as the estimate converges.
    """

    direction: tuple
    rotation: RotationNumber
    tail_oscillation: float
    horizon: float
    final_norm: float


def asymptotic_direction(traj):
    """Estimate the escape direction of a lifted ray from its samples.

    Raises NotEscaping when the ray has not moved at least _MIN_ESCAPE_NORM
    away from its launch point at the horizon.
    """
    disp = traj.xy - traj.xy[0]
    final = disp[-1]
    norm = float(np.hypot(final[0], final[1]))
    if norm < _MIN_ESCAPE_NORM:
        raise NotEscaping(f"displacement {norm:.3g} at horizon {traj.horizon:g} "
                          f"is below {_MIN_ESCAPE_NORM:g}")
    d = (final[0] / norm, final[1] / norm)
    # a component at roundoff scale is a zero component; without the snap a
    # vertical ray would report slope ~1e16 instead of the vertical point
    if abs(d[0]) < 1e-12:
        d = (0.0, math.copysign(1.0, d[1]))
    elif abs(d[1]) < 1e-12:
        d = (math.copysign(1.0, d[0]), 0.0)
    tail = disp[int(0.8 * (len(disp) - 1)):]
    norms = np.hypot(tail[:, 0], tail[:, 1])
    good = norms > 1e-12
    cosang = np.clip((tail[good, 0] * d[0] + tail[good, 1] * d[1]) / norms[good],
                     -1.0, 1.0)
    osc = float(np.arccos(cosang).max()) if good.any() else math.inf
    return DirectionEstimate(direction=d,
                             rotation=RotationNumber.of_direction(*d),
                             tail_oscillation=osc,
                             horizon=traj.horizon,
                             final_norm=norm)


def direction_antisymmetry(fwd_traj, bwd_traj):
    """Angle between the forward direction and minus the backward direction."""
    dplus = asymptotic_direction(fwd_traj)
    dminus = asymptotic_direction(bwd_traj)
    dot = -(dplus.direction[0] * dminus.direction[0]
            + dplus.direction[1] * dminus.direction[1])
    gap = float(np.arccos(np.clip(dot, -1.0, 1.0)))
    return {"angle_gap": gap, "forward": dplus, "backward": dminus}


@dataclass(frozen=True)
class Strip:
    """Smallest slab of the given direction containing the sampled ray."""

    direction: tuple     # unit vector along the slab
    offset_lo: float
    offset_hi: float

    @property
    def width(self):
        return self.offset_hi - self.offset_lo


def fit_strip(traj, direction=None):
    """Bounding slab of a sampled lift in a direction (default: its escape one)."""
    if direction is None:
        direction = asymptotic_direction(traj).direction
    dx, dy = direction
    n = math.hypot(dx, dy)
    dx, dy = dx / n, dy / n
    w = -dy * traj.xy[:, 0] + dx * traj.xy[:, 1]
    return Strip(direction=(dx, dy), offset_lo=float(w.min()),
                 offset_hi=float(w.max()))


# ---------------------------------------------------------------------------
# configuration detectors

@dataclass(frozen=True)
class DoubleLoopWitness:
    """Two self-crossings with disjoint, ordered parameter intervals."""

    t1: float
    t2: float
    t3: float
    t4: float
    first: IntersectionEvent
    second: IntersectionEvent


def detect_double_loop(events):
    """First pair of self-crossings whose loops are traversed one after the other.

    `events` are self-intersection events (each with t1 < t2).  Returns a
    DoubleLoopWitness with t1 < t2 <= t3 < t4, or None.
    """
    best = None     # among scanned events, the one closing earliest
    for ev in sorted(events, key=lambda e: (e.t1, e.t2)):
        if best is not None and best.t2 <= ev.t1:
            return DoubleLoopWitness(best.t1, best.t2, ev.t1, ev.t2, best, ev)
        if best is None or ev.t2 < best.t2:
            best = ev
    return None


def _point_polyline_distance(points, poly):
    """Distance from each point to a polyline, vectorised over segments."""
    a = poly[:-1]
    d = poly[1:] - a
    len2 = (d * d).sum(axis=1)
    len2[len2 == 0.0] = 1.0
    out = np.empty(len(points))
    for i, p in enumerate(np.asarray(points, dtype=float)):
        t = np.clip(((p - a) * d).sum(axis=1) / len2, 0.0, 1.0)
        proj = a + t[:, None] * d
        out[i] = np.hypot(*(proj - p).T).min()
    return out


def _tile_axis(axis_nodes, deck, span_lo, span_hi):
    """Concatenate deck-periodic copies of one axis period to cover a span.

    `axis_nodes` is one period of the closed geodesic's lift (first node not
    repeated); `deck` its translation (p, q).  Copies k = span_lo..span_hi
    are chained into a single polyline.
    """
    p = np.array(deck, dtype=float)
    pieces = [axis_nodes + k * p for k in range(span_lo, span_hi + 1)]
    pieces.append(axis_nodes[:1] + (span_hi + 1) * p)
    return np.vstack(pieces)


@dataclass(frozen=True)
class AnchoredCrossingResult:
    """Verdict of the anchored-segments detector, with crossing witnesses."""

    found: bool
    reason: str
    witness_plus: tuple | None = None    # point where eta(axis) crosses c1
    witness_minus: tuple | None = None   # point where eta^-1(axis) crosses c2
    diagnostics: dict = field(default_factory=dict)


def detect_anchored_crossing_pair(c1, c2, axis_nodes, axis_deck, eta):
    """Detect two arcs anchored on an axis that cross its translates on both sides.

    Parameters
    ----------
    c1, c2 : Trajectory segments whose endpoints are expected on the axis
    axis_nodes : (N, 2) one period of the axis lift
    axis_deck : (p, q) translation closing the axis
    eta : DeckTransform; its translate of the axis must be disjoint from the
        axis itself, otherwise AxesNotDisjoint is raised

    The four arc endpoints must lie within 1e-6 of the axis, and each arc's
    interior, without the 2% of its samples at either end, must avoid it.

    Returns an AnchoredCrossingResult; `found` is True only when all the
    geometric requirements hold and both required crossings exist.
    """
    axis_nodes = np.asarray(axis_nodes, dtype=float)
    axis_class = DeckTransform(int(round(axis_deck[0])),
                               int(round(axis_deck[1]))).class_rep()
    if eta.class_rep() == axis_class:
        # such a translate maps the axis onto itself as a set, with no
        # transversal crossings to count
        raise AxesNotDisjoint(
            f"translate {eta} is parallel to the axis class {axis_class}")
    arcs = np.vstack([c1.xy, c2.xy])
    dirvec = np.array(axis_deck, dtype=float)
    dlen2 = float(dirvec @ dirvec)
    # project everything on the axis direction to size the tiling
    offs = ((arcs - axis_nodes[0]) @ dirvec) / dlen2
    span_lo = int(math.floor(offs.min())) - 2 - max(abs(eta.m), abs(eta.n))
    span_hi = int(math.ceil(offs.max())) + 2 + max(abs(eta.m), abs(eta.n))
    tiled = _tile_axis(axis_nodes, axis_deck, span_lo, span_hi)

    ev, tang = sg.crossings(tiled, np.arange(len(tiled), dtype=float),
                            eta.apply_array(tiled),
                            np.arange(len(tiled), dtype=float))
    if ev or tang:
        raise AxesNotDisjoint(
            f"translate {eta} of the axis meets the axis ({len(ev)} crossings)")

    end_pts = [c1.xy[0], c1.xy[-1], c2.xy[0], c2.xy[-1]]
    end_d = _point_polyline_distance(end_pts, tiled)
    if end_d.max() > 1e-6:
        return AnchoredCrossingResult(
            found=False, reason="arc endpoints are not on the axis",
            diagnostics={"endpoint_distances": end_d.tolist()})

    def interior(c):
        n = len(c.t)
        k = max(1, int(0.02 * n))
        return c.xy[k:n - k], c.t[k:n - k]

    for label, c in (("c1", c1), ("c2", c2)):
        ixy, it = interior(c)
        iev, _ = sg.crossings(ixy, it, tiled,
                              np.arange(len(tiled), dtype=float))
        if iev:
            return AnchoredCrossingResult(
                found=False, reason=f"interior of {label} meets the axis",
                diagnostics={"interior_events": len(iev)})

    ev_plus, _ = sg.crossings(c1.xy, c1.t, eta.apply_array(tiled),
                              np.arange(len(tiled), dtype=float))
    ev_minus, _ = sg.crossings(c2.xy, c2.t, eta.inverse().apply_array(tiled),
                               np.arange(len(tiled), dtype=float))
    if not ev_plus or not ev_minus:
        return AnchoredCrossingResult(
            found=False,
            reason="required crossings with the shifted axis are missing",
            diagnostics={"plus": len(ev_plus), "minus": len(ev_minus)})
    return AnchoredCrossingResult(
        found=True, reason="all requirements hold",
        witness_plus=ev_plus[0].point, witness_minus=ev_minus[0].point,
        diagnostics={"plus": len(ev_plus), "minus": len(ev_minus)})


# ---------------------------------------------------------------------------
# rotation-number field over launch angles

def direction_field(spec, base, angles, horizon, dt, h=0.01):
    """Direction estimates for a fan of launch angles at one base point.

    Batch-integrates all rays at once; estimates come from the uniform
    samples, so the cost per angle is small.  Returns a list of
    DirectionEstimate in the order of `angles`.
    """
    tangents = [unit_tangent(spec, base, float(a)) for a in angles]
    return [asymptotic_direction(ray)
            for ray in integrate_rays(spec, tangents, horizon, dt=dt, h=h)]


def max_projective_jump(estimates):
    """Largest angular jump of the direction line between adjacent estimates."""
    if len(estimates) < 2:
        raise ValidationError("a projective jump needs at least two estimates")
    ang = np.array([e.rotation.projective_angle() for e in estimates])
    return float(circle_distance(ang[1:], ang[:-1], math.pi).max())


def hit_rotation_targets(spec, base, targets, horizon, grid=256, tol=1e-3):
    """Find launch angles whose rotation number hits each target slope.

    Scans a fan of `grid` angles (at least 2) for a bracket around each
    finite target, then bisects all targets in lockstep, for at most 40
    rounds, so every round costs one batched integration (RK4 step 0.01,
    sampled every 1.0).  Returns a list of dicts (target, angle, slope,
    achieved, iterations), in the order of `targets`.
    """
    if grid < 2:
        raise ValidationError(f"the scan grid needs at least 2 angles, got {grid}")
    if not all(map(math.isfinite, targets)):
        raise ValidationError(f"rotation targets must be finite, got {targets}")

    def fan(angles):
        return direction_field(spec, base, angles, horizon=horizon, dt=1.0, h=0.01)

    angles = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    estimates = fan(angles)
    slopes = [e.rotation.slope for e in estimates]
    state = []
    for target in targets:
        bracket = None
        for i in range(len(angles)):
            j = (i + 1) % len(angles)
            si, sj = slopes[i], slopes[j]
            if si is None or sj is None:
                continue
            lo, hi = min(si, sj), max(si, sj)
            # a wide slope gap means the pair straddles a vertical direction
            if lo <= target <= hi and hi - lo < 1.0:
                step = (angles[j] - angles[i]) % (2.0 * math.pi)
                bracket = [angles[i], angles[i] + step, si, sj]
                break
        state.append({"target": target, "bracket": bracket, "achieved": False,
                      "angle": None, "slope": None, "iterations": 0})

    for _ in range(40):
        pending = [s for s in state if s["bracket"] is not None and not s["achieved"]]
        if not pending:
            break
        mids = [0.5 * (s["bracket"][0] + s["bracket"][1]) for s in pending]
        ests = fan(mids)
        for s, angle, est in zip(pending, mids, ests):
            s["iterations"] += 1
            s_mid = est.rotation.slope
            s["angle"] = angle
            if s_mid is None:
                s["bracket"] = None
                continue
            s["slope"] = s_mid
            if abs(s_mid - s["target"]) <= tol:
                s["achieved"] = True
                continue
            a_lo, a_hi, s_lo, s_hi = s["bracket"]
            if (s_lo <= s["target"]) == (s_mid <= s["target"]):
                s["bracket"] = [angle, a_hi, s_mid, s_hi]
            else:
                s["bracket"] = [a_lo, angle, s_lo, s_mid]

    results = []
    for s in state:
        r = {"target": s["target"], "achieved": s["achieved"],
             "angle": s["angle"], "slope": s["slope"],
             "iterations": s["iterations"]}
        if not s["achieved"] and s["angle"] is None:
            r["reason"] = "no bracket on the scan grid"
        results.append(r)
    return results
