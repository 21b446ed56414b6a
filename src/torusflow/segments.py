"""Transversal crossing detection between sampled plane curves.

Curves arrive as polylines with a parameter value per node (trajectory time
or curve parameter).  Both engines hash polylines on the unit lattice's 1/G
grid, G = max(floor(1/cell), 1) for a cell twice the 95th-percentile
segment length; a segment longer than 1/G is hashed in pieces no longer than
1/G.  The engine, `crossings_by_shift`, meets polyline A with a list of
integer translates B + s: A and B are hashed once, s moves every cell of B
by exactly s * G, so the keys of B + s are B's keys plus one offset, and a
shift whose offset keys meet none of A's costs no candidate listing; the
zero shift of B = A (one object) is A's self-intersection query.
`torus_crossings` meets A with every integer translate of B without listing
shifts: the entries, wrapped onto the torus, go into one hash, and each
candidate pair reads its shift from the lattice cells of its pieces.  Both
list candidates with one sorted-key join.  Candidate pairs get an exact
closed-form solve, and crossings whose |sin| of intersection angle falls
below a margin threshold are reported separately as tangential events
rather than being counted.  When node velocities are available the crossing
is polished on a local cubic Hermite model of each curve, which recovers the
intersection of the underlying smooth curves to about 1e-8 for sampling
steps near 0.01.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

THETA_MIN = 1e-4    # |sin| threshold separating transversal from tangential
SELF_T_SEP = 0.1    # parameter separation excluding trivial self-overlap
MAX_PIECES = 2 ** 24  # hash pieces per polyline; int64 cell keys stay exact


@dataclass(frozen=True)
class IntersectionEvent:
    """One transversal crossing of two parameterised curves."""

    t1: float
    t2: float
    x: float
    y: float
    sign: int      # orientation of (tangent1, tangent2): +1 counterclockwise
    margin: float  # |sin| of the crossing angle

    @property
    def point(self):
        return (self.x, self.y)


def _pieces(xy, cell):
    """Bounding boxes of a polyline's segments, long segments cut into pieces.

    A segment longer than `cell` is cut into equal pieces no longer than a
    cell; the pieces share their cut points and keep the parent's segment
    id.  Returns (lo, hi, seg, pad): (2, P) lower and upper box corners
    (x row, y row), (P,) segment ids, and the number of cells by which to
    widen each piece's cell range, 1 for cut pieces so that rounding of the
    cut points never drops the cell of a point on the parent segment.
    Raises ValidationError, before allocating any, when the pieces would
    number more than MAX_PIECES.
    """
    a = xy[:-1].T
    b = xy[1:].T
    n = np.maximum(np.ceil(np.hypot(*(b - a)) / cell), 1.0)
    if not n.sum() <= MAX_PIECES:
        raise ValidationError(f"a polyline of {len(n)} segments needs "
                              f"{n.sum():.3g} hash pieces of length {cell:.3g}, "
                              f"more than {MAX_PIECES}")
    n = n.astype(np.int64)
    seg = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(n) - n, n)
    nr = n[seg]
    d = (b - a)[:, seg]
    p = np.where(k == 0, a[:, seg], a[:, seg] + k / nr * d)
    q = np.where(k == nr - 1, b[:, seg], a[:, seg] + (k + 1) / nr * d)
    return np.minimum(p, q), np.maximum(p, q), seg, (nr > 1).astype(float)


def _grid_entries(xy, G):
    """Hash entries ((2, E) cell, segment id) of the cells of the unit
    lattice's 1/G grid that a polyline's pieces, no longer than 1/G, cover."""
    lo, hi, seg, pad = _pieces(xy, 1.0 / G)
    # the exact test sees B + s rounded, which may cross a cell edge that a
    # box edge lies within rounding of: widen each range by 1e-6 of a cell
    i0 = (np.floor(lo * G - 1e-6) - pad).astype(np.int64)
    span = (np.floor(hi * G + 1e-6) + pad).astype(np.int64) - i0
    # a piece spans a few cells per axis: list cell i0 + (dx, dy) of the
    # pieces spanning that far
    w = int(span.max()) + 1
    cells, segs = [i0[:, :0]], [seg[:0]]
    for dx in range(w):
        for dy in range(w):
            hit = (span[0] >= dx) & (span[1] >= dy)
            cells.append(i0[:, hit] + [[dx], [dy]])
            segs.append(seg[hit])
    return np.concatenate(cells, axis=1), np.concatenate(segs)


def _join(keys, probe):
    """Index pairs (i, j), grouped by j, with keys[i] == probe[j]; keys
    ascending."""
    first = np.searchsorted(keys, probe)
    counts = np.searchsorted(keys, probe, side="right") - first
    j = np.repeat(np.arange(len(probe)), counts)
    i = np.arange(len(j)) + np.repeat(first + counts - np.cumsum(counts), counts)
    return i, j


def _distinct(keys):
    """The distinct values of an int64 array of keys >= 0, ascending."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _candidate_pairs(keyA, segA, keyB, segB, n_segB, same_curve):
    """Segment index pairs (A, B), ordered by (A, B), sharing a cell key;
    keyA ascending."""
    a, b = _join(keyA, keyB)
    segA, segB = segA[a], segB[b]
    if same_curve:
        keep = segA < segB - 1
        segA, segB = segA[keep], segB[keep]
    return np.divmod(_distinct(segA * np.int64(n_segB) + segB), n_segB)


def _hermite(p0, p1, m0, m1, u):
    u = u[..., None]
    u2 = u * u
    u3 = u2 * u
    return ((2 * u3 - 3 * u2 + 1) * p0 + (u3 - 2 * u2 + u) * m0
            + (-2 * u3 + 3 * u2) * p1 + (u3 - u2) * m1)


def _hermite_deriv(p0, p1, m0, m1, u):
    u = u[..., None]
    u2 = u * u
    return ((6 * u2 - 6 * u) * p0 + (3 * u2 - 4 * u + 1) * m0
            + (-6 * u2 + 6 * u) * p1 + (3 * u2 - 2 * u) * m1)


def _refine_hermite(xyA, vA, tA, iA, a0, xyB, vB, tB, iB, b0):
    """Polish crossings on cubic Hermite arcs with a damped Newton iteration.

    Falls back to the polyline solution for any pair that fails to converge
    inside the bracketing intervals.
    """
    dtA = (tA[iA + 1] - tA[iA])[:, None]
    dtB = (tB[iB + 1] - tB[iB])[:, None]
    p0, p1 = xyA[iA], xyA[iA + 1]
    q0, q1 = xyB[iB], xyB[iB + 1]
    m0, m1 = vA[iA] * dtA, vA[iA + 1] * dtA
    n0, n1 = vB[iB] * dtB, vB[iB + 1] * dtB
    a, b = a0.copy(), b0.copy()
    for _ in range(12):
        Pa = _hermite(p0, p1, m0, m1, a)
        Qb = _hermite(q0, q1, n0, n1, b)
        r = Pa - Qb
        if np.abs(r).max() < 1e-10:
            break
        da = _hermite_deriv(p0, p1, m0, m1, a)
        db = _hermite_deriv(q0, q1, n0, n1, b)
        det = -da[:, 0] * db[:, 1] + da[:, 1] * db[:, 0]
        bad = np.abs(det) < 1e-14
        det[bad] = 1.0
        step_a = (-db[:, 1] * -r[:, 0] + db[:, 0] * -r[:, 1]) / det
        step_b = (-da[:, 1] * -r[:, 0] + da[:, 0] * -r[:, 1]) / det
        step_a[bad] = 0.0
        step_b[bad] = 0.0
        a = np.clip(a + step_a, -0.25, 1.25)
        b = np.clip(b + step_b, -0.25, 1.25)
    Pa = _hermite(p0, p1, m0, m1, a)
    Qb = _hermite(q0, q1, n0, n1, b)
    res = np.hypot(*(Pa - Qb).T)
    ok = (res < 1e-8) & (a > -0.25) & (a < 1.25) & (b > -0.25) & (b < 1.25)
    da = _hermite_deriv(p0, p1, m0, m1, a)
    db = _hermite_deriv(q0, q1, n0, n1, b)
    return a, b, 0.5 * (Pa + Qb), da, db, ok


def crossings(xyA, tA, xyB, tB, vA=None, vB=None):
    """All transversal crossings between two polylines: (events, tangential).

    The single-shift case of `crossings_by_shift`, which documents the
    arguments and the result.
    """
    return crossings_by_shift(xyA, tA, xyB, tB, [(0, 0)], vA=vA, vB=vB)[0]


def crossings_by_shift(xyA, tA, xyB, tB, shifts, vA=None, vB=None):
    """Crossings of polyline A with each translate B + shift, A hashed once.

    Parameters
    ----------
    xyA, xyB : (N, 2) node positions; tA, tB: (N,) node parameters
    shifts : sequence of integer (m, n) deck shifts of B; a non-finite or
        non-integer entry raises ValidationError
    vA, vB : optional node velocities; when both are given every crossing
        is polished on the local cubic Hermite model

    A and B are hashed once on the unit lattice's 1/G grid.  A shift s moves
    every cell of B by exactly s * G, so the cell keys of B + s are B's keys
    plus one offset; a shift whose offset keys meet none of A's is skipped
    before any candidate pair is listed.  A self-intersection query (zero
    shift with xyB the very object xyA; an equal copy is another curve)
    skips adjacent segments and pairs up to SELF_T_SEP apart in parameter.

    Returns
    -------
    One (events, tangential) pair per shift, in order: two lists of
    IntersectionEvent, events sorted by (t1, t2).  Tangential events carry
    the same fields but margins below THETA_MIN and are never counted by
    callers.  Each shift is solved and refined as its own batch, so its
    events do not depend on which other shifts share the call.
    """
    self_query = xyB is xyA
    xyA, xyB, tA, tB, shifts = (np.asarray(v, dtype=float)
                                for v in (xyA, xyB, tA, tB, shifts))
    shifts = shifts.reshape(-1, 2)
    if not (np.isfinite(shifts) & (shifts == np.round(shifts))).all():
        raise ValidationError(
            f"deck shifts must be integer pairs, got {shifts.tolist()}")
    out = [([], []) for _ in shifts]
    if len(xyA) < 2 or len(xyB) < 2:
        return out
    if vA is None or vB is None:
        vA = vB = None
    G = max(int(1.0 / _cell_size(xyA, xyB)), 1)
    cellA, segA = _grid_entries(xyA, G)
    cellB, segB = (cellA, segA) if self_query else _grid_entries(xyB, G)
    # cells count from each curve's lower corner, keyed cx * rows + cy; rows
    # exceeds both curves' heights together, so while the rows of B + s
    # meet A's no two cells share a key
    loA, loB = cellA.min(axis=1), cellB.min(axis=1)
    topA, topB = cellA.max(axis=1) - loA, cellB.max(axis=1) - loB
    rows = int(topA[1] + topB[1]) + 1
    keyA = (cellA[0] - loA[0]) * rows + (cellA[1] - loA[1])
    keyB = (cellB[0] - loB[0]) * rows + (cellB[1] - loB[1])
    order = np.argsort(keyA)
    keyA, segA = keyA[order], segA[order]
    liveA, liveB = _distinct(keyA), _distinct(keyB)
    d = loB - loA + G * shifts  # lower corner of each B + s from A's, in cells
    for i in np.flatnonzero(((d >= -topB) & (d <= topA)).all(axis=1)):
        off = int(d[i, 0]) * rows + int(d[i, 1])
        at = np.searchsorted(liveA, liveB + off)
        if not (liveA[np.minimum(at, len(liveA) - 1)] == liveB + off).any():
            continue
        same_curve = self_query and not shifts[i].any()
        iA, iB = _candidate_pairs(keyA, segA, keyB + off, segB, len(xyB) - 1,
                                  same_curve)
        out[i] = _events(xyA, tA, vA, xyB + shifts[i], tB, vB, iA, iB,
                         same_curve)
    return out


def _cell_size(xyA, xyB):
    """Hash cell size: twice the larger 95th-percentile segment length."""
    lensA = np.hypot(*(xyA[1:] - xyA[:-1]).T)
    lensB = np.hypot(*(xyB[1:] - xyB[:-1]).T)
    return 2.0 * max(np.percentile(lensA, 95), np.percentile(lensB, 95), 1e-9)


def torus_crossings(xyA, tA, xyB, tB, vA, vB):
    """Crossings of polyline A with every integer translate of polyline B.

    Answers `crossings_by_shift` over all deck shifts without listing them:
    the pieces of A and B go once into a hash on the unit torus's G x G
    grid (cell 1/G, near the engine's cell size), keyed by wrapped cell and
    tagged with the lattice cell L of their lift.  Pieces i of A and j of B
    sharing a wrapped cell are a candidate at shift L_i - L_j; one sort
    groups the candidates by shift and dedupes them.  With xyB the very
    object xyA each torus self-crossing shows up once, at a shift > (0, 0)
    or in the zero shift's self-intersection query.

    Returns {(m, n): (events, tangential)} in ascending shift order over
    the shifts with candidates, each entry what `crossings_by_shift`
    returns for that shift, as each shift is solved and refined as its own
    batch.  vA and vB are both velocities or both None.
    """
    self_query = xyB is xyA
    xyA, xyB, tA, tB = (np.asarray(v, dtype=float)
                        for v in (xyA, xyB, tA, tB))
    if len(xyA) < 2 or len(xyB) < 2:
        return {}
    G = max(int(1.0 / _cell_size(xyA, xyB)), 1)
    keyA, segA, latA = _torus_entries(xyA, G)
    keyB, segB, latB = ((keyA, segA, latA) if self_query
                        else _torus_entries(xyB, G))
    # join the entries of A and B that share a wrapped cell
    order = np.argsort(keyA)
    a, b = _join(keyA[order], keyB)
    a = order[a]
    i, j = segA[a], segB[b]
    sx, sy = latA[:, a] - latB[:, b]
    if self_query:
        keep = (sx > 0) | ((sx == 0) & ((sy > 0) | ((sy == 0) & (i < j - 1))))
        i, j, sx, sy = i[keep], j[keep], sx[keep], sy[keep]
    if len(i) == 0:
        return {}
    # one int64 code per candidate, ordered by shift, then by (i, j) as the
    # engine orders a shift's pairs; sorting it groups and dedupes
    nA, nB = np.int64(len(xyA) - 1), np.int64(len(xyB) - 1)
    x0, y0 = sx.min(), sy.min()
    rows = np.int64(sy.max() - y0 + 1)
    code = _distinct(((sx - x0) * rows + (sy - y0)) * (nA * nB) + i * nB + j)
    shift, pair = np.divmod(code, nA * nB)
    cut = np.flatnonzero(np.diff(shift, prepend=-1, append=-1))
    out = {}
    for lo, hi in zip(cut[:-1], cut[1:]):
        m, n = (int(v) for v in divmod(shift[lo], rows))
        s = (m + int(x0), n + int(y0))
        iA, iB = np.divmod(pair[lo:hi], nB)
        out[s] = _events(xyA, tA, vA, xyB + np.array(s, dtype=float), tB, vB,
                         iA, iB, self_query and s == (0, 0))
    return out


def _torus_entries(xy, G):
    """Torus hash entries (wrapped cell key, segment id, (2, E) lattice cell)
    of the 1/G grid cells that a polyline's pieces cover."""
    cell, seg = _grid_entries(xy, G)
    lattice, wrapped = np.divmod(cell, G)
    return wrapped[0] * G + wrapped[1], seg, lattice


def _events(xyA, tA, vA, xyB, tB, vB, iA, iB, same_curve):
    """Exact crossings of the candidate segment pairs, refined when vA is set."""
    a = xyA[iA]
    r = xyA[iA + 1] - a
    c = xyB[iB]
    s = xyB[iB + 1] - c
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    diff = c - a
    with np.errstate(divide="ignore", invalid="ignore"):
        tpar = (diff[:, 0] * s[:, 1] - diff[:, 1] * s[:, 0]) / denom
        upar = (diff[:, 0] * r[:, 1] - diff[:, 1] * r[:, 0]) / denom
    hit = ((denom != 0.0) & (tpar >= 0.0) & (tpar < 1.0)
           & (upar >= 0.0) & (upar < 1.0))
    if not hit.any():
        return [], []
    # segments with disjoint boxes do not meet, whatever the rounded solve
    # says (it is noise for collinear ones); so no hit depends on the hash
    ends = [xyA[iA[hit]], xyA[iA[hit] + 1], xyB[iB[hit]], xyB[iB[hit] + 1]]
    lo = np.maximum(np.minimum(*ends[:2]), np.minimum(*ends[2:]))
    hit[hit] = (lo <= np.minimum(np.maximum(*ends[:2]),
                                 np.maximum(*ends[2:]))).all(axis=1)
    if not hit.any():
        return [], []
    iA, iB = iA[hit], iB[hit]
    tpar, upar = tpar[hit], upar[hit]
    r, s, a = r[hit], s[hit], a[hit]
    pts = a + tpar[:, None] * r
    tanA, tanB = r, s

    if vA is not None:
        ra, rb, rpts, da, db, ok = _refine_hermite(
            xyA, np.asarray(vA, float), tA, iA, tpar,
            xyB, np.asarray(vB, float), tB, iB, upar)
        tpar = np.where(ok, ra, tpar)
        upar = np.where(ok, rb, upar)
        pts = np.where(ok[:, None], rpts, pts)
        tanA = np.where(ok[:, None], da, tanA)
        tanB = np.where(ok[:, None], db, tanB)

    t1 = tA[iA] + tpar * (tA[iA + 1] - tA[iA])
    t2 = tB[iB] + upar * (tB[iB + 1] - tB[iB])
    cross = tanA[:, 0] * tanB[:, 1] - tanA[:, 1] * tanB[:, 0]
    margin = np.abs(cross) / (np.hypot(*tanA.T) * np.hypot(*tanB.T))

    if same_curve:
        keep = np.abs(t1 - t2) > SELF_T_SEP
        t1, t2, pts, cross, margin = (t1[keep], t2[keep], pts[keep],
                                      cross[keep], margin[keep])

    events, tangential = [], []
    order = np.lexsort((t2, t1))
    for j in order:
        ev = IntersectionEvent(t1=float(t1[j]), t2=float(t2[j]),
                               x=float(pts[j, 0]), y=float(pts[j, 1]),
                               sign=int(np.sign(cross[j])) or 1,
                               margin=float(margin[j]))
        (events if margin[j] >= THETA_MIN else tangential).append(ev)
    return events, tangential
