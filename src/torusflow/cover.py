"""Analysis of lifted geodesics on the universal cover.

The deck group of the square torus acts by integer translations, so a deck
shift and a translation class are both integer pairs (m, n): `class_frame`
gives a class's direction and normal, and `half_lattice` and
`primitive_classes` list the shifts a census scans.

This module tracks how a lifted geodesic meets its own deck translates
(self-intersections, per-class intersection censuses, and every
self-crossing of its torus projection, found by one complete scan that
lists no shifts), where it escapes to (asymptotic direction, rotation
number as a point of the projective line, bounding strip), and detects the
double loop on one lift that certifies dynamical complexity.

All finite-horizon counts and estimates are evidence about the sampled
window, never proofs about infinite rays; report consumers are expected to
treat them that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import segments as sg
from .errors import NotEscaping, ValidationError
from .flow import integrate_rays, unit_tangent
from .metrics import circle_distance

IntersectionEvent = sg.IntersectionEvent

# a ray must end at least this far from its launch point for its escape
# direction to be estimated; the slack lets a straight unit-speed ray at
# horizon 10, which ends 10 away up to roundoff, pass
_MIN_ESCAPE_NORM = 10.0 * (1.0 - 1e-9)


# ---------------------------------------------------------------------------
# deck group: shifts and classes as integer pairs

def class_frame(klass):
    """(p, q, |(p, q)|, e_s, e_w) of a nonzero class (p, q): e_s is the unit
    class direction and e_w its normal, e_s turned a quarter anticlockwise."""
    p, q = int(klass[0]), int(klass[1])
    if p == 0 and q == 0:
        raise ValidationError(
            "a translation class must be a nonzero integer vector")
    norm = math.hypot(p, q)
    e_s = np.array([p / norm, q / norm])
    e_w = np.array([-q / norm, p / norm])
    return p, q, norm, e_s, e_w


def half_lattice(rx, ry):
    """One of each pair +-(m, n) of nonzero shifts with |m| <= rx, |n| <= ry.

    The listed ones are those with m > 0, or m = 0 and n > 0, in
    lexicographic order.  Each torus point met by a curve and a deck
    translate of it shows up for exactly one listed shift.
    """
    return [(m, n) for m in range(rx + 1) for n in range(-ry, ry + 1)
            if m > 0 or n > 0]


def primitive_classes(radius):
    """Primitive shifts with sup-norm at most `radius`, in half_lattice order:
    one representative of each class, the primitive vector > (0, 0) on its
    line."""
    return [s for s in half_lattice(radius, radius) if math.gcd(*s) == 1]


# ---------------------------------------------------------------------------
# intersections of lifts

def self_intersections(traj):
    """Transversal self-crossings of one lifted geodesic.

    Returns (events, tangential); events are sorted by parameter and each
    has t1 < t2.  Pairs closer than segments.SELF_T_SEP in parameter are not
    crossings of distinct strands and are excluded.
    """
    return sg.crossings(traj.xy, traj.t, traj.xy, traj.t)


def translate_intersections(traj, shift):
    """Transversal crossings between a lift and its deck translate lift + shift."""
    m, n = shift
    if m == 0 and n == 0:
        raise ValidationError("translate_intersections needs a nonzero translation")
    return sg.crossings_by_shift(traj.xy, traj.t, traj.xy, traj.t,
                                 [(m, n)])[0]


def torus_self_crossings(traj):
    """Every torus self-crossing of the projected geodesic, any loop class.

    Each unordered pair {t1, t2} with equal torus points lifts to a unique
    integer difference vector, and `segments.torus_crossings` scans every
    such vector in one pass, the zero shift and one of each pair +-s, so
    each crossing is recorded exactly once.  Returns (event, loop_class)
    pairs sorted by (t1, t2), with t1 < t2 and loop_class the integer pair
    (m, n) by which the loop run from t1 to t2 advances, (0, 0) for
    contractible ones.
    """
    found = sg.torus_crossings(traj.xy, traj.t, traj.xy, traj.t)
    out = []
    for (m, n), (events, _) in found.items():
        # an event (ta, tb) asserts lift(ta) = lift(tb) + (m, n); the loop
        # class compares the later lift point against the earlier one
        for ev in events:
            if ev.t1 > ev.t2:
                ev = sg.IntersectionEvent(ev.t2, ev.t1, ev.x, ev.y,
                                          -ev.sign, ev.margin)
                loop = (m, n)
            else:
                loop = (-m, -n)
            out.append((ev, loop))
    out.sort(key=lambda pair: (pair[0].t1, pair[0].t2))
    return out


@dataclass
class IntersectionCensus:
    """Counts of a lift against translate families, per class and horizon.

    `classes` maps a class key "m/n" to {power k: counts, one per rung}.  A
    class is growing when, for at least one power of its representative,
    the counts strictly increase across the final three horizon rungs.
    Growth over a finite ladder is evidence that the lift keeps meeting
    that translate family, not a proof of infinitely many crossings.
    """

    horizons: tuple
    class_radius: int
    classes: dict

    def growing_classes(self):
        return [key for key, counts in self.classes.items() if _growing(counts)]


def _growing(counts_by_power):
    for counts in counts_by_power.values():
        tail = counts[-3:] if len(counts) >= 3 else counts
        if len(tail) >= 2 and all(b > a for a, b in zip(tail, tail[1:])):
            return True
    return False


def intersection_census(traj, class_radius, horizons):
    """Census of crossings between a lift and translate families.

    For every primitive class (m, n) within `class_radius` (sup-norm, at
    least 1) and every nonzero power k with |k| <= class_radius, counts the
    transversal crossings of the lift with its translate by (k m, k n) at
    each horizon rung; classes are keyed "m/n".  Events are computed once at
    the deepest horizon and re-thresholded, so a rung counts exactly the
    crossings both of whose parameters lie within it.  One shift of each
    +-pair is scanned, k = 1..class_radius; -k copies the counts of k, so
    on float input a rounding edge case is counted as the +k solve counts it.
    """
    if class_radius < 1:
        raise ValidationError(
            f"census class radius must be at least 1, got {class_radius}")
    if not horizons or not all(0.0 < h < math.inf for h in horizons):
        raise ValidationError(
            f"census horizons must be positive, finite and nonempty, got {horizons}")
    horizons = tuple(sorted(horizons))
    if horizons[-1] > traj.horizon + 1e-9:
        raise ValidationError(
            f"census horizon {horizons[-1]} exceeds trajectory horizon {traj.horizon}")
    reps = primitive_classes(class_radius)
    found = iter(sg.crossings_by_shift(
        traj.xy, traj.t, traj.xy, traj.t,
        [(k * m, k * n) for m, n in reps for k in range(1, class_radius + 1)]))
    classes = {}
    for m, n in reps:
        rungs = [[sum(1 for e in events if e.t1 <= h and e.t2 <= h)
                  for h in horizons]
                 for events, _ in islice(found, class_radius)]
        # lift(t1) = lift(t2) + s exactly when lift(t2) = lift(t1) - s: the
        # crossings with -s are those with s, t1 and t2 swapped, and a rung
        # bounds both parameters, so power -k counts what power k counts; on
        # float input an event within rounding of a segment end, of THETA_MIN
        # or of a rung edge is counted for -k as the +k solve counts it
        classes[f"{m}/{n}"] = {k: list(rungs[abs(k) - 1])
                               for k in range(-class_radius, class_radius + 1)
                               if k != 0}
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


def asymptotic_direction(traj):
    """Estimate the escape direction of a lifted ray from its samples.

    Raises NotEscaping when the ray has not moved at least _MIN_ESCAPE_NORM
    away from its launch point at the horizon.
    """
    disp = traj.xy - traj.xy[0]
    final = disp[-1]
    norm = float(np.hypot(final[0], final[1]))
    if norm < _MIN_ESCAPE_NORM:
        raise NotEscaping(f"displacement {norm!r} at horizon {traj.horizon:g} "
                          f"is below {_MIN_ESCAPE_NORM!r}")
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
                             tail_oscillation=osc)


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
# the double-loop detector

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


# ---------------------------------------------------------------------------
# rotation-number field over launch angles

def direction_field(spec, base, angles, horizon, dt, h):
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

    Scans a fan of `grid` angles (at least 2).  A neighbour pair of the
    scan, the last angle paired with the first included, can bracket a
    target when both slopes are finite and differ by less than 1 (a wider
    gap straddles a vertical direction); each finite target takes the first
    such pair whose slopes enclose it.  All bracketed targets are then
    bisected in lockstep, for at most 40 rounds, so every round costs one
    batched integration (RK4 step 0.01, sampled every 1.0); a target is
    done when a midpoint slope is within `tol` (positive and finite) of it,
    or given up when a midpoint is vertical.  Returns a list of dicts
    (target, achieved, angle, slope, iterations), in the order of `targets`.
    """
    if grid < 2:
        raise ValidationError(f"the scan grid needs at least 2 angles, got {grid}")
    if not all(map(math.isfinite, targets)):
        raise ValidationError(f"rotation targets must be finite, got {targets}")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"the slope tolerance must be positive and finite, got {tol}")

    def fan(angles):
        return direction_field(spec, base, angles, horizon=horizon, dt=1.0, h=0.01)

    two_pi = 2.0 * math.pi
    angles = np.linspace(0.0, two_pi, grid, endpoint=False)
    slopes = [e.rotation.slope for e in fan(angles)]
    pairs = [(a, a + (b - a) % two_pi, sa, sb)
             for a, b, sa, sb in zip(angles, np.roll(angles, -1),
                                     slopes, slopes[1:] + slopes[:1])
             if sa is not None and sb is not None and abs(sb - sa) < 1.0]
    brackets = [next((p for p in pairs if min(p[2:]) <= t <= max(p[2:])), None)
                for t in targets]
    results = [{"target": t, "achieved": False, "angle": None, "slope": None,
                "iterations": 0} for t in targets]
    for r, bracket in zip(results, brackets):
        if bracket is None:
            r["reason"] = "no bracket on the scan grid"

    for _ in range(40):
        live = [i for i, b in enumerate(brackets) if b is not None]
        if not live:
            break
        mids = [0.5 * (brackets[i][0] + brackets[i][1]) for i in live]
        for i, angle, est in zip(live, mids, fan(mids)):
            r, (a_lo, a_hi, s_lo, s_hi) = results[i], brackets[i]
            r["iterations"] += 1
            r["angle"] = angle
            s_mid = est.rotation.slope
            if s_mid is None:
                brackets[i] = None
                continue
            r["slope"] = s_mid
            if abs(s_mid - r["target"]) <= tol:
                r["achieved"] = True
                brackets[i] = None
            elif (s_lo <= r["target"]) == (s_mid <= r["target"]):
                brackets[i] = (angle, a_hi, s_mid, s_hi)
            else:
                brackets[i] = (a_lo, angle, s_lo, s_mid)
    return results
