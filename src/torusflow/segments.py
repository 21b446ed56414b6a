"""Transversal crossing detection between sampled plane curves.

Curves arrive as polylines with a parameter value per node (trajectory time
or curve parameter).  The engine, `crossings_by_shift`, meets polyline A
with a list of translates B + shift: A goes into a uniform spatial hash once
(cells twice the 95th-percentile segment length, keyed by column and row
within A's cell range; a segment longer than a cell is hashed in pieces no
longer than a cell), and each translate is rasterised onto the same grid
and looked up in it; the zero shift of B = A (one object) is A's
self-intersection query.  `torus_crossings` meets A with every integer
translate of B without listing shifts: both go into one hash on the unit
torus's grid, and each candidate pair reads its shift from the lattice
cells of its pieces.  Candidate pairs get an exact closed-form solve, and
crossings whose |sin| of intersection angle falls below a margin threshold
are reported separately as tangential events rather than being counted.
When node velocities are available the crossing is polished on a local
cubic Hermite model of each curve, which recovers the intersection of the
underlying smooth curves to about 1e-8 for sampling steps near 0.01.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

THETA_MIN = 1e-4    # |sin| threshold separating transversal from tangential
SELF_T_SEP = 0.1    # parameter separation excluding trivial self-overlap


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
    """
    a = xy[:-1].T
    b = xy[1:].T
    n = np.maximum(np.ceil(np.hypot(*(b - a)) / cell), 1.0).astype(np.int64)
    seg = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(n) - n, n)
    nr = n[seg]
    d = (b - a)[:, seg]
    p = np.where(k == 0, a[:, seg], a[:, seg] + k / nr * d)
    q = np.where(k == nr - 1, b[:, seg], a[:, seg] + (k + 1) / nr * d)
    return np.minimum(p, q), np.maximum(p, q), seg, (nr > 1).astype(float)


def _cell_entries(boxes, shift, cell, origin, top):
    """Hash entries (cell key, segment id) for the cells each piece of B +
    shift covers.

    Cell (cx, cy) counts from `origin` in steps of `cell`; only cells in
    [0, top] are listed, so the key cx * (top_y + 1) + cy names one cell.
    """
    lo, hi, seg, pad = boxes
    i0 = np.floor((lo + shift - origin) / cell) - pad
    i1 = np.floor((hi + shift - origin) / cell) + pad
    i0 = np.maximum(i0, 0.0).astype(np.int64)
    i1 = np.minimum(i1, top).astype(np.int64)
    return _spread(i0, i1, seg, int(top[1, 0]) + 1)


def _spread(i0, i1, seg, rows):
    """Entries (cx * rows + cy, segment id) for the cells (cx, cy) in each
    piece's index range [i0, i1], with 0 <= cx and 0 <= cy < rows."""
    span = i1 - i0
    # a piece spans a few cells per axis (none when it misses the grid):
    # list cell (i0x + dx, i0y + dy) of the pieces spanning that far
    w = int(span.max()) + 1
    reach_x = [span[0] >= d for d in range(w)]
    reach_y = [span[1] >= d for d in range(w)]
    base = i0[0] * rows + i0[1]
    keys, segs = [base[:0]], [seg[:0]]
    for dx in range(w):
        for dy in range(w):
            hit = reach_x[dx] & reach_y[dy]
            keys.append(base[hit] + (dx * rows + dy))
            segs.append(seg[hit])
    return np.concatenate(keys), np.concatenate(segs)


class _CellTable:
    """Polyline A's spatial hash on a grid from A's lower corner (`origin`)
    to its largest cell indices (`top`): the occupied cell keys, ascending,
    and for keys[i] the segments segs[start[i]:start[i] + count[i]]."""

    def __init__(self, xyA, boxesA, cell):
        self.cell = cell
        self.origin = xyA.min(axis=0)[:, None]
        self.top = np.floor((xyA.max(axis=0)[:, None] - self.origin) / cell)
        keys, segs = _cell_entries(boxesA, 0.0, cell, self.origin, self.top)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        self.start = np.flatnonzero(np.diff(keys, prepend=-1))
        self.count = np.diff(np.append(self.start, len(keys)))
        self.keys, self.segs = keys[self.start], segs[order]


def _candidate_pairs(table, boxesB, shift, n_segB, same_curve):
    """Segment index pairs (A, B + shift), ordered by (A, B), sharing a cell."""
    keys, segB = _cell_entries(boxesB, shift, table.cell, table.origin,
                               table.top)
    at = np.minimum(np.searchsorted(table.keys, keys), len(table.keys) - 1)
    counts = np.where(table.keys[at] == keys, table.count[at], 0)
    segB_rep = np.repeat(segB, counts)
    k = np.arange(len(segB_rep)) - np.repeat(np.cumsum(counts) - counts, counts)
    segA_rep = table.segs[np.repeat(table.start[at], counts) + k]
    if same_curve:
        keep = segA_rep < segB_rep - 1
        segA_rep, segB_rep = segA_rep[keep], segB_rep[keep]
    pair = np.sort(segA_rep * np.int64(n_segB) + segB_rep)
    pair = pair[np.diff(pair, prepend=-1) != 0]
    return pair // n_segB, pair % n_segB


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
    shifts : sequence of (dx, dy) translations of B, deck shifts in practice
    vA, vB : optional node velocities; when both are given every crossing
        is polished on the local cubic Hermite model

    A self-intersection query (zero shift with xyB the very object xyA; an
    equal copy is another curve) skips adjacent segments and pairs up to
    SELF_T_SEP apart in parameter.

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
    out = [([], []) for _ in shifts]
    if len(xyA) < 2 or len(xyB) < 2:
        return out
    # cheap reject: disjoint bounding boxes
    loA, hiA = xyA.min(axis=0), xyA.max(axis=0)
    loB, hiB = xyB.min(axis=0), xyB.max(axis=0)
    live = np.flatnonzero(
        ~((loB + shifts > hiA) | (hiB + shifts < loA)).any(axis=1))
    if len(live) == 0:
        return out
    if vA is None or vB is None:
        vA = vB = None
    cell = _cell_size(xyA, xyB)
    boxesA = _pieces(xyA, cell)
    boxesB = boxesA if self_query else _pieces(xyB, cell)
    table = _CellTable(xyA, boxesA, cell)
    for i in live:
        same_curve = self_query and not shifts[i].any()
        iA, iB = _candidate_pairs(table, boxesB, shifts[i][:, None],
                                  len(xyB) - 1, same_curve)
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
    keyA = keyA[order]
    first = np.searchsorted(keyA, keyB)
    counts = np.searchsorted(keyA, keyB, side="right") - first
    b = np.repeat(np.arange(len(keyB)), counts)
    k = np.arange(len(b)) - np.repeat(np.cumsum(counts) - counts, counts)
    a = order[np.repeat(first, counts) + k]
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
    code = np.sort(((sx - x0) * rows + (sy - y0)) * (nA * nB) + i * nB + j)
    code = code[np.diff(code, prepend=-1) != 0]
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
    of the cells that a polyline's pieces, no longer than 1/G, cover."""
    lo, hi, seg, pad = _pieces(xy, 1.0 / G)
    # the exact test sees B + s rounded, which may cross a cell edge that a
    # box edge lies within rounding of: widen each range by 1e-6 of a cell
    i0 = (np.floor(lo * G - 1e-6) - pad).astype(np.int64)
    i1 = (np.floor(hi * G + 1e-6) + pad).astype(np.int64)
    c0 = i0.min(axis=1, keepdims=True)
    rows = int((i1[1] - c0[1]).max()) + 1
    keys, seg = _spread(i0 - c0, i1 - c0, seg, rows)
    cell = np.stack(np.divmod(keys, rows)) + c0
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
