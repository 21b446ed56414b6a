"""Riemannian metrics on the square 2-torus given by truncated double Fourier series.

A metric is described by its three components g11, g12, g22, each a finite
sum of terms

    c * cos(2*pi*(mx*x + my*y)) + s * sin(2*pi*(mx*x + my*y))

with integer mode numbers (mx, my).  Everything downstream (geodesic flow,
curve shortening, length oracles, entropy sampling) consumes metrics through
this representation: derivatives of any order are available in closed form
and periodicity under integer translations is exact because coordinates are
reduced modulo 1 before any phase is formed; `circle_distance` is the
matching distance on a circle of any period.

Evaluation forms X = e^{2 pi i x} and Y = e^{2 pi i y} once per point and
builds each axis's mode powers by repeated multiplication (negative modes
are conjugates), so a term costs a few multiplies instead of one cos and one
sin.  Derivatives are the same sums with coefficients multiplied by 2 pi i m.
A series of at most `_POINT_SUM_TERMS` terms is straight-line code written
out when the series is built, one function per derivative order: it forms
only the powers its modes use and sums each term's Re(z c) = z.real c.real -
z.imag c.imag from 0.0 in term order, zero parts skipped.  The same source
runs on arrays with `np.exp` (`_Series.eval`) and, for order 1, on Python
floats with `cmath.exp` (`eval_point`): the one-point path of
`geodesic_accel` and `MetricSpec.point_fields`, with none of numpy's fixed
per-call cost.  A longer series gathers its terms from the power tables and
contracts them with the coefficient rows, by one `np.einsum` without
`optimize` (no BLAS) on arrays and one dot product on floats.  Arrays are
evaluated in blocks of a fixed number of point-terms, which keeps
temporaries cache-sized, and no sum runs across points, so a point's value
does not depend on the batch or block it was evaluated in.

Metric description files use a line-oriented key-value grammar::

    # comment and blank lines are skipped
    name my-metric
    lambda_min 0.25
    term component=g11 mx=0 my=0 cos=1.0 sin=0.0
    term component=g11 mx=1 my=0 cos=0.3 sin=0.0
    term component=g22 mx=0 my=0 cos=1.0 sin=0.0

`name` and `lambda_min` appear once; `term` lines repeat.  Components may be
listed in any order; g12 defaults to zero.  `lambda_min` declares the
positive-definiteness margin: det g >= lambda_min is verified on a 64x64
grid at construction time.  Coefficients must be finite and `lambda_min`
positive and finite.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import MetricFormatError, ValidationError

TWO_PI = 2.0 * math.pi

COMPONENTS = ("g11", "g12", "g22")

_VERIFY_GRID = 64

_TWO_PI_J = 1j * TWO_PI

# points times terms per evaluation block.  It keeps each block's (points,
# terms) temporaries near 100 kB, so they stay in cache, bound the memory of
# large charts and stay clear of the allocator's mmap and heap-trim churn
# (measured on glibc: 2^14 refaulted about 400 pages per call on
# conformal-bump at 256 points).  Few-term metrics get blocks of over a
# thousand points.
_BLOCK_TERMS = 1 << 12

# series of at most this many terms are summed by straight-line code, on
# floats and on arrays; a longer one gathers its terms and contracts them
# (on one point, the crossover with numpy's dot is at 12-16 terms)
_POINT_SUM_TERMS = 12

# fields() keys per order: E, F and G with derivative suffixes in
# _Series.eval's output order
_KEYS = tuple(tuple(tuple(c + d for d in ("", "x", "y", "xx", "xy", "yy")[:n])
                    for c in "EFG") for n in (1, 3, 6))


def circle_distance(a, b, period):
    """Distance |a - b| on a circle of the given period, in the dtype of a - b.

    The period is cast to that dtype first, so float32 operands stay in
    float32 arithmetic.
    """
    d = np.abs(a - b)
    return np.minimum(d, d.dtype.type(period) - d, out=d)


def _canonical_terms(terms):
    """Merge duplicate modes, drop vanishing terms, return sorted tuple."""
    acc = {}
    for term in terms:
        mx, my, c, s = term
        mx, my = int(mx), int(my)
        c, s = float(c), float(s)
        if not (math.isfinite(c) and math.isfinite(s)):
            raise ValidationError(f"Fourier coefficients must be finite, got {term}")
        if (mx, my) == (0, 0):
            s = 0.0  # sin of zero phase contributes nothing
        cc, ss = acc.get((mx, my), (0.0, 0.0))
        acc[(mx, my)] = (cc + c, ss + s)
    out = []
    for (mx, my), (c, s) in sorted(acc.items()):
        if c == 0.0 and s == 0.0:
            continue
        out.append((mx, my, c, s))
    return tuple(out)


class _Series:
    """Vectorised evaluator for one Fourier component and its derivatives.

    With X = e^{2 pi i x} and Y = e^{2 pi i y}, the term (mx, my, c, s) is
    Re(A * X**mx * Y**my) with A = c - i s, and its derivative
    d^(a+b)/dx^a dy^b is the same with A * (2 pi i mx)^a * (2 pi i my)^b.
    Every output row is therefore one fixed coefficient vector per term.
    """

    def __init__(self, terms):
        terms = terms or ((0, 0, 0.0, 0.0),)
        self.mx = np.array([t[0] for t in terms], dtype=int)
        self.my = np.array([t[1] for t in terms], dtype=int)
        self.c = np.array([t[2] for t in terms], dtype=float)
        self.s = np.array([t[3] for t in terms], dtype=float)
        modes = np.concatenate([self.mx, self.my])
        # per axis, a table of powers with rows 0..pos holding k = 0..pos and
        # rows pos+1..pos+neg holding k = -1..-neg, the conjugates of rows
        # 1..neg
        self._neg = int(max(0, -modes.min()))
        self._pos = int(max(self._neg, modes.max()))
        width = 1 + self._pos + self._neg
        row = lambda m: np.where(m >= 0, m, self._pos - m)
        # gather indices into both axes' tables stacked as 2 * width rows
        self._take = np.concatenate([row(self.mx), width + row(self.my)])
        a = self.c - 1j * self.s
        wx = 1j * TWO_PI * self.mx
        wy = 1j * TWO_PI * self.my
        rows = np.stack([a, a * wx, a * wy, a * wx * wx, a * wx * wy, a * wy * wy])
        # Re(z * a) = z.real * a.real - z.imag * a.imag: a real dot product
        # of z viewed as float pairs with conj(a) viewed the same way
        coef = np.conj(rows).view(float)
        self._coef = tuple(coef[:r] for r in (1, 3, 6))
        self._block_points = max(1, _BLOCK_TERMS // len(terms))
        if len(terms) <= _POINT_SUM_TERMS:
            # one source per order, run by numpy on arrays; order 1's also
            # by cmath on floats
            mx, my = self.mx.tolist(), self.my.tolist()
            body = [_sum_lines(mx, my, rows[:r].T.tolist()) for r in (1, 3, 6)]
            self._eval = [_bind(b, {"exp": np.exp, "fill": np.full_like}) for b in body]
            self.eval_point = _bind(body[1], {"exp": cmath.exp, "fill": lambda r, v: v})
        else:
            self._eval = [partial(self._block, c) for c in self._coef]
            self.eval_point = _bind(_dot_lines(self), {
                "exp": cmath.exp, "array": np.array, "take": self._take, "coef": self._coef[1]})

    def __reduce__(self):   # rebuilt from its terms: generated code cannot be pickled
        return _Series, (tuple(zip(*(v.tolist() for v in (self.mx, self.my, self.c, self.s)))),)

    def eval(self, xr, yr, order):
        """Evaluate value and partial derivatives at reduced coordinates.

        Returns a tuple whose layout depends on `order`:
        0 -> (v,); 1 -> (v, vx, vy); 2 -> (v, vx, vy, vxx, vxy, vyy).
        Inputs are 1-D arrays of coordinates already reduced to [0, 1).
        Points are evaluated in blocks of _BLOCK_TERMS // (number of terms).
        The arithmetic is elementwise, plus for a series longer than
        _POINT_SUM_TERMS one `einsum` contraction over each point's own terms,
        so results do not depend on how points are batched or blocked.
        """
        f = self._eval[order]
        n = len(xr)
        b = self._block_points
        if n <= b:
            return tuple(f(xr, yr))
        out = np.empty((len(self._coef[order]), n))
        for lo in range(0, n, b):
            out[:, lo:lo + b] = f(xr[lo:lo + b], yr[lo:lo + b])
        return tuple(out)

    def _block(self, coef, xr, yr):
        # no optimize=: that could route through BLAS, whose summation order
        # may depend on the batch
        return np.einsum("nk,rk->rn", self._terms(xr, yr), coef)

    def _terms(self, xr, yr):
        """X**mx * Y**my per point and term, as (points, 2 * terms) float pairs."""
        pos, neg = self._pos, self._neg
        n = len(xr)
        powers = np.empty((2, 1 + pos + neg, n), dtype=complex)
        powers[:, 0] = 1.0
        if pos:
            e = np.exp(_TWO_PI_J * np.array([xr, yr]))
            powers[:, 1:pos + 1] = e[:, None]
            # repeated multiplication
            np.multiply.accumulate(powers[:, 1:pos + 1], axis=1, out=powers[:, 1:pos + 1])
            if neg:
                np.conjugate(powers[:, 1:neg + 1], out=powers[:, pos + 1:])
        # one gather for both axes, each point's terms contiguous
        g = powers.reshape(-1, n).T.take(self._take, axis=1)
        k = len(self.mx)
        return (g[:, :k] * g[:, k:]).view(float)


def _power_lines(v, r, modes):
    """Source lines of axis v's powers e**m, m != 0, named like X2 and Xm2,
    that modes use: e = exp(J * r), the rest by accumulate's left-to-right
    products and negative modes as conjugates."""
    top = max(map(abs, modes), default=0)
    return ([f"{v}1 = exp(J * {r})"] * (top > 0)
            + [f"{v}{k} = {v}{k - 1} * {v}1" for k in range(2, top + 1)]
            + [f"{v}m{k} = {v}{k}.conjugate()" for k in sorted({-m for m in modes if m < 0})])


def _sum_lines(mx, my, cols):
    """Body of f(xr, yr) returning, for each column of complex coefficients c
    (one row per term), 0.0 plus Re(X**mx * Y**my * c) = z.real * c.real -
    z.imag * c.imag in term order, zero parts skipped and no product formed
    with a zero mode; a column with no term in X or Y is fill(xr, its
    constant), an array like xr on the batch path."""
    names = [(f"z{k}" if i and j else f"X{i}" if i else f"Y{j}" if j else "").replace("-", "m")
             for k, (i, j) in enumerate(zip(mx, my))]
    used, sums = set(), []
    for col in zip(*cols):
        expr, live = "0.0", False
        for k, (z, c) in enumerate(zip(names, col)):
            p, q = c.real, c.imag
            if not z:
                expr += f" + {p!r}" * (p != 0.0)
            elif p or q:
                used.add(k)
                live = True
                expr += (f" + ({z}.real * {p!r} - {z}.imag * {q!r})" if p and q
                         else f" + {z}.real * {p!r}" if p else f" - {z}.imag * {q!r}")
        sums.append(expr if live else f"fill(xr, {expr})")
    used = sorted(used)
    return (_power_lines("X", "xr", [mx[k] for k in used])
            + _power_lines("Y", "yr", [my[k] for k in used])
            + [f"{names[k]} = X{mx[k]} * Y{my[k]}".replace("-", "m")
               for k in used if names[k][0] == "z"]
            + [f"return ({', '.join(sums)},)"])


def _dot_lines(series):
    """Body of a longer series' eval_point: one list literal of `_terms`' power
    rows, gathered, multiplied and dotted with the order-1 coefficient rows."""
    rows = [*range(series._pos + 1), *range(-1, -series._neg - 1, -1)]
    table = ", ".join(f"{v}{m}" if m else "1.0" for v in "XY" for m in rows).replace("-", "m")
    return _power_lines("X", "xr", rows) + _power_lines("Y", "yr", rows) + [
        f"g = array([{table}], dtype=complex).take(take).reshape(2, -1)",
        "return coef.dot((g[0] * g[1]).view(float)).tolist()"]


def _bind(lines, names):
    """The function f(xr, yr) with body `lines`, run with `names`, J and the
    names of repr's non-finite floats as globals."""
    ns = {"J": _TWO_PI_J, "inf": math.inf, "nan": math.nan, **names}
    exec(compile("def f(xr, yr):\n    " + "\n    ".join(lines), "<series>", "exec"), ns)
    return ns["f"]


@dataclass(eq=False)
class MetricSpec:
    """A torus metric as truncated Fourier data, verified positive definite.

    Parameters
    ----------
    name : str
        Human-readable identifier, echoed into every output.
    g11, g12, g22 : iterable of (mx, my, cos, sin)
        Fourier terms per component.  g12 may be empty.
    lambda_min : float, optional
        Declared lower bound for det g.  When omitted, 90% of the grid
        minimum is declared.

    Raises
    ------
    ValidationError
        If a coefficient is not finite, the metric fails the 64x64
        positivity sweep, or lambda_min is not positive and finite or
        exceeds the grid minimum of det g.
    """

    name: str
    g11: tuple = ()
    g12: tuple = ()
    g22: tuple = ()
    lambda_min: float | None = None

    def __post_init__(self):
        self.g11 = _canonical_terms(self.g11)
        self.g12 = _canonical_terms(self.g12)
        self.g22 = _canonical_terms(self.g22)
        s11 = _Series(self.g11)
        self._series = {
            "g11": s11,
            "g12": _Series(self.g12),
            # the shared instance lets fields() evaluate a conformal metric's
            # identical components once
            "g22": s11 if self.g22 == self.g11 else _Series(self.g22),
        }
        # conformal-factor metrics (u dx^2 + u dy^2) admit a cheaper
        # geodesic right-hand side; every gallery metric is of this form
        self._conformal = (self.g12 == () and self.g11 == self.g22)
        self._verify_positivity()

    def _verify_positivity(self):
        f = self.fields(*_unit_grid(_VERIFY_GRID), order=0)
        E, F, G = f["E"], f["F"], f["G"]
        det = E * G - F * F
        min_E = float(E.min())
        min_det = float(det.min())
        # a NaN minimum fails the test too
        if not (min_E > 0.0 and min_det > 0.0):
            raise ValidationError(
                f"metric {self.name!r} is not positive definite on the "
                f"verification grid (min g11={min_E:.3g}, min det={min_det:.3g})"
            )
        if self.lambda_min is None:
            self.lambda_min = 0.9 * min_det
        if not 0.0 < self.lambda_min < math.inf:
            raise ValidationError(
                f"lambda_min must be positive and finite, got {self.lambda_min}")
        if min_det < self.lambda_min:
            raise ValidationError(
                f"metric {self.name!r}: grid det minimum {min_det:.6g} falls "
                f"below the declared margin {self.lambda_min:.6g}"
            )

    def fields(self, x, y, order=1):
        """Metric components and derivatives at cover points, vectorised.

        `x`, `y` are 1-D arrays of equal length, or real scalars, which are
        one-point arrays (cover coordinates; reduction modulo 1 happens here
        and in geodesic_accel only).  Returns a dict with keys 'E','F','G'
        plus 'Ex','Ey',... for order >= 1 and 'Exx','Exy','Eyy', ... for
        order == 2.  A metric without g12 terms gets the scalar 0.0 for F and
        its derivatives, as in point_fields.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        xr = x - np.floor(x)
        yr = y - np.floor(y)
        return self._components(_KEYS[order], lambda s: s.eval(xr, yr, order))

    def point_fields(self, x, y):
        """fields(x, y, order=1) at one cover point, as a dict of floats."""
        xr, yr = x - math.floor(x), y - math.floor(y)
        return self._components(_KEYS[1], lambda s: s.eval_point(xr, yr))

    def _components(self, keys, evaluate):
        s11, s22 = self._series["g11"], self._series["g22"]
        v11 = evaluate(s11)
        out = dict(zip(keys[0], v11))
        # conformal metrics share one series between g11 and g22
        out.update(zip(keys[2], v11 if s22 is s11 else evaluate(s22)))
        if self.g12:
            out.update(zip(keys[1], evaluate(self._series["g12"])))
        else:
            out.update(dict.fromkeys(keys[1], 0.0))
        return out

    def terms_of(self, component):
        if component not in COMPONENTS:
            raise ValidationError(f"unknown component {component!r}")
        return {"g11": self.g11, "g12": self.g12, "g22": self.g22}[component]

    def __repr__(self):
        nterms = len(self.g11) + len(self.g12) + len(self.g22)
        return (f"MetricSpec({self.name!r}, {nterms} terms, "
                f"lambda_min={self.lambda_min:.4g})")


def quadratic_form(f, vx, vy):
    """g(v, v) from a fields() dict, vectorised over points and vectors."""
    return f["E"] * vx * vx + 2.0 * f["F"] * vx * vy + f["G"] * vy * vy


def _lower_symbols(f):
    """Christoffel symbols of the first kind from a fields() dict.

    Returns (L111, L112, L122, L211, L212, L222) where L_kij is the symbol
    with lowered index k and symmetric pair (i, j).
    """
    L111 = 0.5 * f["Ex"]
    L112 = 0.5 * f["Ey"]
    L122 = f["Fy"] - 0.5 * f["Gx"]
    L211 = f["Fx"] - 0.5 * f["Ey"]
    L212 = 0.5 * f["Gx"]
    L222 = 0.5 * f["Gy"]
    return L111, L112, L122, L211, L212, L222


def geodesic_accel(spec, x, y, vx, vy):
    """Acceleration of the geodesic equation: real scalars in, Python floats
    out through the one-point path; arrays through the blocked batch path."""
    if not isinstance(x, float) and np.ndim(x) == 0:
        x, y, vx, vy = float(x), float(y), float(vx), float(vy)
    point = isinstance(x, float)
    if spec._conformal:
        # the flows call this every step: no fields() dict
        s = spec._series["g11"]
        u, ux, uy = (s.eval_point(x - math.floor(x), y - math.floor(y)) if point
                     else s.eval(x - np.floor(x), y - np.floor(y), 1))
        return _conformal_accel(u, ux, uy, vx, vy)
    f = spec.point_fields(x, y) if point else spec.fields(x, y, order=1)
    return accel_from_fields(spec, f, vx, vy)


def _conformal_accel(u, ux, uy, vx, vy):
    """geodesic_accel of u (dx^2 + dy^2) from u and its gradient:
    a = -(ux a2 + uy b2, ux b2 - uy a2) / 2u with a2 = vx^2 - vy^2 and
    b2 = 2 vx vy."""
    a2 = vx * vx - vy * vy
    b2 = 2.0 * vx * vy
    h = -0.5 / u
    return (ux * a2 + uy * b2) * h, (ux * b2 - uy * a2) * h


def accel_from_fields(spec, f, vx, vy):
    """geodesic_accel from an order >= 1 fields() dict of the same points."""
    if spec._conformal:
        return _conformal_accel(f["E"], f["Ex"], f["Ey"], vx, vy)
    L111, L112, L122, L211, L212, L222 = _lower_symbols(f)
    A1 = L111 * vx * vx + 2.0 * L112 * vx * vy + L122 * vy * vy
    A2 = L211 * vx * vx + 2.0 * L212 * vx * vy + L222 * vy * vy
    E, F, G = f["E"], f["F"], f["G"]
    det = E * G - F * F
    ax = -(G * A1 - F * A2) / det
    ay = -(E * A2 - F * A1) / det
    return ax, ay


def gauss_curvature_batch(spec, x, y):
    """Gauss curvature at arrays of cover points."""
    f = spec.fields(x, y, order=2)
    E, F, G = f["E"], f["F"], f["G"]
    Ex, Ey, Gx, Gy = f["Ex"], f["Ey"], f["Gx"], f["Gy"]
    Fx, Fy = f["Fx"], f["Fy"]
    Eyy, Gxx, Fxy = f["Eyy"], f["Gxx"], f["Fxy"]
    a = -0.5 * Eyy + Fxy - 0.5 * Gxx
    b = 0.5 * Ex
    c = Fx - 0.5 * Ey
    d = Fy - 0.5 * Gx
    e = 0.5 * Gy
    p = 0.5 * Ey
    q = 0.5 * Gx
    # 3x3 determinants written out; rows of the first matrix are
    # [a, b, c], [d, E, F], [e, F, G]; of the second [0, p, q], [p, E, F], [q, F, G].
    det1 = a * (E * G - F * F) - b * (d * G - F * e) + c * (d * F - E * e)
    det2 = -p * (p * G - F * q) + q * (p * F - E * q)
    den = E * G - F * F
    return (det1 - det2) / (den * den)


def _unit_grid(n):
    """Flattened n x n uniform grid over the unit cell."""
    if n < 1:
        raise ValidationError(f"grid size must be at least 1, got {n}")
    ax = np.arange(n) / n
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return gx.ravel(), gy.ravel()


@dataclass(frozen=True)
class CurvatureSurvey:
    """Gauss curvature K on an n x n grid over the unit cell.

    max_abs is max |K|, range is (min K, max K) and total the integral of
    K dA.  Uniform-grid quadrature of a smooth periodic integrand converges
    spectrally, so n = 256 leaves only roundoff in total for gallery-sized
    spectra; its exact value is zero for every metric on the torus.
    """

    max_abs: float
    range: tuple
    total: float


def curvature_survey(spec, n):
    """CurvatureSurvey of spec from one curvature evaluation on the grid."""
    x, y = _unit_grid(n)
    K = gauss_curvature_batch(spec, x, y)
    f = spec.fields(x, y, order=0)
    area = np.sqrt(f["E"] * f["G"] - f["F"] * f["F"])
    return CurvatureSurvey(max_abs=float(np.abs(K).max()),
                           range=(float(K.min()), float(K.max())),
                           total=float((K * area).mean()))


# ---------------------------------------------------------------------------
# gallery

def flat_metric():
    """The flat unit metric dx^2 + dy^2."""
    return MetricSpec("flat", g11=[(0, 0, 1.0, 0.0)], g22=[(0, 0, 1.0, 0.0)],
                      lambda_min=1.0)


# Fourier coefficients of a gridded conformal factor at or below this are
# dropped; the truncation is far below every tolerance used downstream
_FOURIER_TOL = 1e-14


def _fourier_of_grid(u):
    """Real Fourier terms of a periodic grid sample, thresholded at _FOURIER_TOL."""
    n = u.shape[0]
    coeff = np.fft.fft2(u) / (n * n)
    terms = []
    for mx in range(0, n // 2):
        my_lo = 0 if mx == 0 else -(n // 2) + 1
        for my in range(my_lo, n // 2):
            a = coeff[mx % n, my % n]
            if (mx, my) == (0, 0):
                if abs(a.real) > _FOURIER_TOL:
                    terms.append((0, 0, a.real, 0.0))
                continue
            c = 2.0 * a.real
            s = -2.0 * a.imag
            if math.hypot(c, s) > _FOURIER_TOL:
                terms.append((mx, my, c, s))
    return terms


def conformal_bump():
    """Conformal metric exp(2 f) (dx^2 + dy^2), f = 0.1 cos(2 pi x) cos(2 pi y).

    The factor exp(2 f) is expanded into a Fourier series on a 64x64 grid
    and thresholded at _FOURIER_TOL.
    """
    x, y = _unit_grid(64)
    # f as its two harmonics, 0.05 cos 2 pi (x + y) + 0.05 cos 2 pi (x - y)
    f = 0.05 * np.cos(TWO_PI * (x + y)) + 0.05 * np.cos(TWO_PI * (x - y))
    terms = _fourier_of_grid(np.exp(2.0 * f).reshape(64, 64))
    return MetricSpec("conformal-bump", g11=terms, g22=terms)


def liouville_metric():
    """Separable metric (1 + 0.3 cos(2 pi x) + 0.2 cos(2 pi y)) (dx^2 + dy^2).

    The geodesic flow of such a metric is integrable, which makes it the
    package's reference example of a zero-entropy, nowhere-flat torus.
    """
    terms = [(0, 0, 1.0, 0.0), (1, 0, 0.3, 0.0), (0, 1, 0.2, 0.0)]
    return MetricSpec("liouville", g11=terms, g22=terms)


def two_frequency():
    """Strongly bumped conformal-factor metric mixing two incommensurate waves.

    u = 1 + 0.5 cos(2 pi x) cos(2 pi y) + 0.3 cos(2 pi (2x + y)); the metric
    is u (dx^2 + dy^2).  The flow develops crossing lifted geodesics and a
    clearly positive entropy estimate, in contrast to the separable gallery
    entries.
    """
    # the product wave as its two harmonics, 0.25 cos 2 pi (x + y) + 0.25 cos 2 pi (x - y)
    terms = [(0, 0, 1.0, 0.0), (1, 1, 0.25, 0.0), (1, -1, 0.25, 0.0), (2, 1, 0.3, 0.0)]
    return MetricSpec("two-frequency", g11=terms, g22=terms)


_GALLERY = {
    "flat": flat_metric,
    "conformal-bump": conformal_bump,
    "liouville": liouville_metric,
    "two-frequency": two_frequency,
}


def gallery_names():
    return tuple(_GALLERY)


def gallery(name):
    """Construct a gallery metric by name."""
    try:
        builder = _GALLERY[name]
    except KeyError:
        raise ValidationError(
            f"unknown gallery metric {name!r}; choices: {', '.join(_GALLERY)}")
    return builder()


# ---------------------------------------------------------------------------
# file grammar

def save_metric(spec, path):
    """Write a MetricSpec in the line grammar documented in the module docstring."""
    lines = [f"name {spec.name}", f"lambda_min {spec.lambda_min!r}"]
    for comp in COMPONENTS:
        for mx, my, c, s in spec.terms_of(comp):
            lines.append(f"term component={comp} mx={mx} my={my} cos={c!r} sin={s!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_term(body, lineno):
    fields = {}
    for chunk in body.split():
        if "=" not in chunk:
            raise MetricFormatError(f"line {lineno}: malformed term field {chunk!r}")
        key, _, val = chunk.partition("=")
        fields[key] = val
    missing = {"component", "mx", "my", "cos", "sin"} - set(fields)
    if missing:
        raise MetricFormatError(f"line {lineno}: term missing {sorted(missing)}")
    comp = fields["component"]
    if comp not in COMPONENTS:
        raise MetricFormatError(f"line {lineno}: unknown component {comp!r}")
    try:
        term = (int(fields["mx"]), int(fields["my"]),
                float(fields["cos"]), float(fields["sin"]))
    except ValueError as exc:
        raise MetricFormatError(f"line {lineno}: {exc}") from None
    return comp, term


def load_metric(path):
    """Parse a metric description file into a verified MetricSpec."""
    name = None
    lambda_min = None
    terms = {c: [] for c in COMPONENTS}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, body = line.partition(" ")
            body = body.strip()
            if key == "name":
                name = body
            elif key == "lambda_min":
                try:
                    lambda_min = float(body)
                except ValueError:
                    raise MetricFormatError(f"line {lineno}: bad lambda_min {body!r}")
            elif key == "term":
                comp, term = _parse_term(body, lineno)
                terms[comp].append(term)
            else:
                raise MetricFormatError(f"line {lineno}: unknown key {key!r}")
    if name is None:
        raise MetricFormatError("metric file lacks a name line")
    return MetricSpec(name, g11=terms["g11"], g12=terms["g12"], g22=terms["g22"],
                      lambda_min=lambda_min)


def resolve_metric(ref):
    """Gallery name or file path -> MetricSpec (convenience for the CLI)."""
    if ref in _GALLERY:
        return gallery(ref)
    if os.path.exists(ref):
        return load_metric(ref)
    raise ValidationError(f"metric {ref!r} is neither a gallery name nor a file")
