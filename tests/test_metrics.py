import cmath
import math
import pickle
from itertools import accumulate, repeat
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torusflow.errors import MetricFormatError, ValidationError
from torusflow.flow import integrate, unit_tangent
from torusflow.metrics import (_KEYS, _POINT_SUM_TERMS, COMPONENTS, TWO_PI, MetricSpec,
                               _canonical_terms, _conformal_accel,
                               _lower_symbols, _Series,
                               _unit_grid, gallery, gallery_names,
                               accel_from_fields, curvature_survey,
                               gauss_curvature_batch, geodesic_accel,
                               liouville_metric, load_metric, quadratic_form,
                               resolve_metric, save_metric)

# frozen curvature extrema of the gallery, measured on the 256x256 grid
GALLERY_MAX_K = {
    "flat": 0.0,
    "conformal-bump": 9.643810,
    "liouville": 39.478418,
    "two-frequency": 1233.700550,
}


def test_gallery_names():
    assert gallery_names() == ("flat", "conformal-bump", "liouville",
                               "two-frequency")


def test_flat_fields_exact(flat):
    x = np.linspace(0, 3, 17)
    y = np.linspace(-1, 2, 17)
    f = flat.fields(x, y, order=2)
    assert np.all(f["E"] == 1.0) and np.all(f["G"] == 1.0)
    for key in ("F", "Ex", "Ey", "Gxx", "Fxy"):
        assert np.all(f[key] == 0.0)


@given(x=st.floats(0, 1, exclude_max=True), y=st.floats(0, 1, exclude_max=True),
       mx=st.integers(-3, 3), my=st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_fields_periodic(x, y, mx, my):
    spec = gallery("liouville")
    a = spec.fields(np.array([x]), np.array([y]), order=1)
    b = spec.fields(np.array([x + mx]), np.array([y + my]), order=1)
    for key in a:
        assert _first(a[key]) == pytest.approx(_first(b[key]), rel=0, abs=5e-13)


def test_positive_definite_everywhere():
    for name in gallery_names():
        spec = gallery(name)
        x = np.random.default_rng(7).uniform(size=400)
        y = np.random.default_rng(8).uniform(size=400)
        f = spec.fields(x, y, order=0)
        det = f["E"] * f["G"] - f["F"] ** 2
        assert det.min() > 0
        assert f["E"].min() > 0


def test_nonpositive_metric_rejected():
    with pytest.raises(ValidationError):
        MetricSpec("bad", g11=[(0, 0, 1.0, 0.0), (1, 0, 2.0, 0.0)],
                   g12=[], g22=[(0, 0, 1.0, 0.0)])


def test_lambda_min_margin_enforced():
    with pytest.raises(ValidationError):
        MetricSpec("tight", g11=[(0, 0, 1.0, 0.0), (1, 0, 0.5, 0.0)],
                   g12=[], g22=[(0, 0, 1.0, 0.0)], lambda_min=0.9)


def _l1_split(series):
    """(constant term, l1 norm of the oscillatory rest) of a series."""
    const = 0.0
    rest = 0.0
    for mx, my, c, s in zip(series.mx, series.my, series.c, series.s):
        if mx == 0 and my == 0:
            const += c
        else:
            rest += math.hypot(c, s)
    return const, rest


def _l1_det_bound(spec):
    """Lower bound of det g from the coefficient l1 norms, or -inf where the
    bound on a diagonal component is not positive: each oscillatory part is
    at most its l1 norm in absolute value."""
    (cE, rE), (cF, rF), (cG, rG) = (_l1_split(spec._series[c]) for c in COMPONENTS)
    lo_E, lo_G, hi_F = cE - rE, cG - rG, abs(cF) + rF
    return lo_E * lo_G - hi_F * hi_F if lo_E > 0.0 and lo_G > 0.0 else -math.inf


def test_grid_sweep_accepts_what_l1_cannot_certify():
    liouville = gallery("liouville")
    assert _l1_det_bound(liouville) >= liouville.lambda_min
    # positive on the grid but with oscillation beyond the l1 margin: the
    # grid sweep alone accepts it, and declares 90% of its det minimum
    spec = MetricSpec("sampled", g11=[(0, 0, 1.0, 0.0), (1, 0, 0.55, 0.0),
                                      (2, 0, 0.42, 0.0)],
                      g12=[], g22=[(0, 0, 1.0, 0.0)])
    assert _l1_det_bound(spec) < spec.lambda_min
    f = spec.fields(*_unit_grid(64), order=0)
    assert spec.lambda_min == 0.9 * float((f["E"] * f["G"] - f["F"] * f["F"]).min())


_ONE = [(0, 0, 1.0, 0.0)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_metric_input_rejected(bad):
    # NaN compared false with every bound, so such a metric loaded with a
    # NaN lambda_min
    for term in [(1, 0, bad, 0.0), (1, 0, 0.0, bad), (0, 0, 0.0, bad)]:
        with pytest.raises(ValidationError, match="coefficients must be finite"):
            MetricSpec("c", g11=_ONE + [term], g22=_ONE)
    with pytest.raises(ValidationError, match="lambda_min must be positive and finite"):
        MetricSpec("l", g11=_ONE, g22=_ONE, lambda_min=bad)


def test_positivity_test_fails_nan_and_overflow():
    # finite terms whose merged g11 overflows to inf: with an overflowing
    # F * F the det is inf - inf, NaN, and without g12 it is inf everywhere,
    # which would declare an infinite margin
    huge = [(0, 0, 1e308, 0.0), (0, 0, 1e308, 0.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError, match="not positive definite"):
            MetricSpec("n", g11=huge, g12=huge[:1], g22=_ONE)
        with pytest.raises(ValidationError,
                           match="lambda_min must be positive and finite"):
            MetricSpec("i", g11=huge, g22=_ONE)


def test_eval_metric_value(liouville):
    f = liouville.fields(np.array([0.25]), np.array([0.5]), order=1)
    E, F, G = f["E"][0], f["F"], f["G"][0]
    # u(x,y) = 1 + 0.3 cos(2 pi x) + 0.2 cos(2 pi y); at (1/4, 1/2) u = 0.8
    assert E == pytest.approx(0.8, abs=1e-14)
    assert G == pytest.approx(0.8, abs=1e-14)
    # no g12 terms: F and its derivatives are the scalar zero
    assert (F, f["Fx"], f["Fy"]) == (0.0, 0.0, 0.0)
    assert E * G - F * F == pytest.approx(0.64, abs=1e-14)
    assert all(len(f[k]) == 1 for k in ("Ex", "Ey", "Gx", "Gy"))


def _first(v):
    """The first point's value of a fields() entry; an absent g12 is the
    scalar 0.0."""
    return np.ravel(v)[0]


def christoffel(spec, point):
    """Christoffel symbols of the second kind at a point: the oracle of
    geodesic_accel.

    Returns an array Gamma of shape (2, 2, 2) with Gamma[k, i, j] symmetric
    in (i, j).
    """
    x, y = float(point[0]), float(point[1])
    f = spec.fields(np.array([x]), np.array([y]), order=1)
    L111, L112, L122, L211, L212, L222 = (v[0] for v in _lower_symbols(f))
    E, F, G = (_first(f[k]) for k in "EFG")
    det = E * G - F * F
    iE, iF, iG = G / det, -F / det, E / det
    gamma = np.empty((2, 2, 2))
    gamma[0, 0, 0] = iE * L111 + iF * L211
    gamma[0, 0, 1] = gamma[0, 1, 0] = iE * L112 + iF * L212
    gamma[0, 1, 1] = iE * L122 + iF * L222
    gamma[1, 0, 0] = iF * L111 + iG * L211
    gamma[1, 0, 1] = gamma[1, 1, 0] = iF * L112 + iG * L212
    gamma[1, 1, 1] = iF * L122 + iG * L222
    return gamma


def test_christoffel_flat_zero(flat):
    gam = christoffel(flat, (0.3, 0.7))
    assert all(abs(g) == 0.0 for g in np.asarray(gam).ravel())


def test_christoffel_against_finite_differences(bump):
    # independent check: Gamma from centred differences of the metric itself
    x0, y0 = 0.31, 0.57
    eps = 1e-6

    def g_at(x, y):
        f = bump.fields(np.array([x]), np.array([y]), order=0)
        E, F, G = (_first(f[k]) for k in "EFG")
        return np.array([[E, F], [F, G]])

    dgx = (g_at(x0 + eps, y0) - g_at(x0 - eps, y0)) / (2 * eps)
    dgy = (g_at(x0, y0 + eps) - g_at(x0, y0 - eps)) / (2 * eps)
    g = g_at(x0, y0)
    ginv = np.linalg.inv(g)
    dg = [dgx, dgy]
    gamma_fd = np.empty((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                s = sum(ginv[k, l] * (dg[i][l, j] + dg[j][l, i] - dg[l][i, j])
                        for l in range(2))
                gamma_fd[k, i, j] = 0.5 * s
    gam = np.asarray(christoffel(bump, (x0, y0)))
    assert np.allclose(gam, gamma_fd, atol=5e-9)


def test_geodesic_accel_matches_christoffel(liouville):
    x, y, vx, vy = 0.2, 0.8, 0.6, -0.4
    gam = np.asarray(christoffel(liouville, (x, y)))
    v = np.array([vx, vy])
    expect = -np.einsum("kij,i,j->k", gam, v, v)
    ax, ay = geodesic_accel(liouville, np.array([x]), np.array([y]),
                            np.array([vx]), np.array([vy]))
    assert ax[0] == pytest.approx(expect[0], rel=1e-12)
    assert ay[0] == pytest.approx(expect[1], rel=1e-12)


def test_gauss_curvature_flat_zero(flat):
    assert curvature_survey(flat, 64).max_abs == 0.0


def test_gauss_curvature_conformal_oracle(liouville):
    # for u (dx^2+dy^2): K = -(1/2u) Laplacian(log u), via finite differences
    x0, y0 = 0.37, 0.81
    eps = 1e-5

    def u_at(x, y):
        return liouville.fields(np.array([x]), np.array([y]), order=0)["E"][0]

    def logu(x, y):
        return math.log(u_at(x, y))

    lap = ((logu(x0 + eps, y0) + logu(x0 - eps, y0)
            + logu(x0, y0 + eps) + logu(x0, y0 - eps) - 4 * logu(x0, y0))
           / eps ** 2)
    u = u_at(x0, y0)
    K = gauss_curvature_batch(liouville, np.array([x0]), np.array([y0]))
    assert K[0] == pytest.approx(
        -lap / (2 * u), rel=1e-4)


def test_gallery_curvature_extrema():
    for name, ref in GALLERY_MAX_K.items():
        max_abs = curvature_survey(gallery(name), 256).max_abs
        if ref == 0.0:
            assert max_abs == 0.0
        else:
            assert max_abs == pytest.approx(ref, rel=1e-5)


def test_total_curvature_vanishes():
    # Gauss-Bonnet: integral of K dA is zero on every torus metric
    for name in gallery_names():
        assert abs(curvature_survey(gallery(name), 256).total) < 1e-6


def test_curvature_batch_matches_pointwise(bump):
    xs = np.array([0.1, 0.4, 0.77])
    ys = np.array([0.9, 0.33, 0.5])
    batch = gauss_curvature_batch(bump, xs, ys)
    for i in range(3):
        assert batch[i] == pytest.approx(
            gauss_curvature_batch(bump, xs[i:i + 1], ys[i:i + 1])[0], rel=1e-12)


def test_file_grammar_roundtrip(tmp_path, liouville):
    path = tmp_path / "liou.metric"
    save_metric(liouville, path)
    back = load_metric(path)
    assert back.name == liouville.name
    assert back.g11 == liouville.g11
    assert back.g12 == liouville.g12
    assert back.g22 == liouville.g22


def test_file_grammar_errors(tmp_path):
    p = tmp_path / "bad.metric"
    p.write_text("term component=g11 mx=0 my=0 cos=1 sin=0\n")
    with pytest.raises(MetricFormatError):
        load_metric(p)           # no name line
    p.write_text("name x\nbogus stuff\n")
    with pytest.raises(MetricFormatError):
        load_metric(p)
    p.write_text("name x\nterm component=g99 mx=0 my=0 cos=1 sin=0\n")
    with pytest.raises(MetricFormatError):
        load_metric(p)
    p.write_text("name x\nterm component=g11 mx=zero my=0 cos=1 sin=0\n")
    with pytest.raises(MetricFormatError):
        load_metric(p)


def test_resolve_metric(tmp_path, flat):
    assert resolve_metric("flat").name == "flat"
    path = tmp_path / "f.metric"
    save_metric(flat, path)
    assert resolve_metric(str(path)).name == "flat"
    with pytest.raises(ValidationError):
        resolve_metric("not-a-metric")


def test_liouville_constructor_terms():
    spec = liouville_metric()
    # (1 + 0.3 cos 2 pi x + 0.2 cos 2 pi y) on both diagonal components
    assert spec.g11 == spec.g22
    assert spec.g12 == ()
    consts = [t for t in spec.g11 if t[0] == 0 and t[1] == 0]
    assert consts[0][2] == pytest.approx(1.0)


# a metric with a g12 term: the only one in the suite that reaches the F
# cross term of the quadratic form and the non-conformal geodesic_accel
SHEARED = MetricSpec(
    "sheared",
    g11=[(0, 0, 1.0, 0.0), (1, 0, 0.2, 0.0)],
    g12=[(1, 1, 0.1, 0.05)],
    g22=[(0, 0, 1.2, 0.0), (0, 1, 0.0, 0.15)])


def test_sheared_metric_certified():
    assert _l1_det_bound(SHEARED) >= SHEARED.lambda_min
    assert not SHEARED._conformal


@given(x=st.floats(-2, 2), y=st.floats(-2, 2),
       vx=st.floats(-3, 3), vy=st.floats(-3, 3))
@settings(max_examples=80, deadline=None)
def test_quadratic_form_matches_matrix(x, y, vx, vy):
    # both components tiny would put the products among subnormals
    assume(max(abs(vx), abs(vy)) > 1e-100)
    f = SHEARED.fields(np.array([x]), np.array([y]), order=0)
    g = np.array([[f["E"][0], f["F"][0]], [f["F"][0], f["G"][0]]])
    v = np.array([vx, vy])
    expect = v @ g @ v
    got = quadratic_form(f, vx, vy)[0]
    assert got == pytest.approx(expect, rel=1e-14, abs=1e-300)


def test_geodesic_accel_matches_christoffel_sheared():
    for x, y, vx, vy in ((0.2, 0.8, 0.6, -0.4), (0.71, 0.13, -0.3, 0.9),
                         (1.45, -0.6, 0.8, 0.5)):
        gam = np.asarray(christoffel(SHEARED, (x, y)))
        v = np.array([vx, vy])
        expect = -np.einsum("kij,i,j->k", gam, v, v)
        ax, ay = geodesic_accel(SHEARED, np.array([x]), np.array([y]),
                                np.array([vx]), np.array([vy]))
        assert ax[0] == pytest.approx(expect[0], rel=1e-12, abs=1e-15)
        assert ay[0] == pytest.approx(expect[1], rel=1e-12, abs=1e-15)


def test_sheared_speed_conserved():
    v0 = unit_tangent(SHEARED, (0.31, 0.57), 0.9)
    traj = integrate(SHEARED, v0, 50.0, dt=0.1)
    assert traj.speed_drift(SHEARED) < 1e-8


# ---------------------------------------------------------------------------
# the one-point path of geodesic_accel against the batch path

# small oscillations on a unit constant keep every drawn metric positive
# definite: l1 norms stay below 0.23 on the diagonal and 0.12 off it.  No
# coefficient is tiny, or accelerations would fall among the subnormals
_small_coef = st.one_of(st.just(0.0), st.floats(1e-4, 0.02), st.floats(-0.02, -1e-4))
_small_term = st.tuples(st.integers(-6, 6), st.integers(-6, 6), _small_coef, _small_coef)


@st.composite
def _random_metric(draw):
    g11 = [(0, 0, 1.0, 0.0)] + draw(st.lists(_small_term, max_size=8))
    shape = draw(st.sampled_from(("conformal", "shared-diagonal", "general")))
    g22 = g11
    if shape == "general":
        g22 = [(0, 0, 1.2, 0.0)] + draw(st.lists(_small_term, max_size=8))
    g12 = []
    if shape != "conformal":
        g12 = draw(st.lists(_small_term, min_size=1, max_size=4))
    return MetricSpec("random", g11=g11, g12=g12, g22=g22)


@st.composite
def random_conformal_metric(draw):
    """u (dx^2 + dy^2) with up to 16 small terms on a unit constant, so both
    sides of the one-point path's Python sum limit are drawn."""
    g = [(0, 0, 1.0, 0.0)] + draw(st.lists(_small_term, max_size=16))
    return MetricSpec("random-conformal", g11=g, g22=g)


_cover = st.floats(-1e3, 1e3)
_speed = st.floats(-3.0, 3.0)
_ORACLE_SPECS = {name: gallery(name) for name in gallery_names()}
_ORACLE_SPECS["sheared"] = SHEARED


def _accel_tol(spec, a, vx, vy):
    """1e-12 relative to the acceleration vector (one component alone can
    cancel to near zero), plus the rounding of the terms it sums: |v|^2
    times every first derivative's l1 bound over lambda_min."""
    d = sum(2.0 * math.pi * (abs(mx) + abs(my)) * math.hypot(c, s)
            for comp in ("g11", "g12", "g22") for mx, my, c, s in spec.terms_of(comp))
    return 1e-12 * math.hypot(*a) + 1e-15 * (vx * vx + vy * vy) * d / spec.lambda_min


def _assert_point_matches_batch(spec, x, y, vx, vy):
    # both components tiny would put the products among subnormals
    assume(max(abs(vx), abs(vy)) > 1e-100)
    ax, ay = geodesic_accel(spec, x, y, vx, vy)
    assert type(ax) is float and type(ay) is float
    bx, by = (a[0] for a in geodesic_accel(
        spec, *(np.array([v]) for v in (x, y, vx, vy))))
    tol = _accel_tol(spec, (bx, by), vx, vy)
    assert abs(ax - bx) <= tol and abs(ay - by) <= tol


@pytest.mark.parametrize("name", list(_ORACLE_SPECS))
@given(x=_cover, y=_cover, vx=_speed, vy=_speed)
@settings(max_examples=60, deadline=None)
def test_point_accel_matches_batch_on_gallery(name, x, y, vx, vy):
    _assert_point_matches_batch(_ORACLE_SPECS[name], x, y, vx, vy)


@given(spec=_random_metric(), x=_cover, y=_cover, vx=_speed, vy=_speed)
@settings(max_examples=150, deadline=None)
def test_point_accel_matches_batch_on_random_terms(spec, x, y, vx, vy):
    _assert_point_matches_batch(spec, x, y, vx, vy)
    # and the symbols the batch path is checked against
    gam = christoffel(spec, (x, y))
    v = np.array([vx, vy])
    expect = -np.einsum("kij,i,j->k", gam, v, v)
    got = np.array(geodesic_accel(spec, x, y, vx, vy))
    assert np.abs(got - expect).max() <= _accel_tol(spec, expect, vx, vy)


@pytest.mark.parametrize("name", list(_ORACLE_SPECS))
def test_point_accel_deck_shift_bit_equal(name):
    # the rays workload's deck check launches from a dyadic point and its
    # (1, 1) shift; both reduce to the same coordinates exactly
    spec = _ORACLE_SPECS[name]
    rng = np.random.default_rng(13)
    for (k, l), (vx, vy) in zip(rng.integers(-3 * 4096, 3 * 4096, size=(40, 2)),
                                rng.uniform(-2.0, 2.0, size=(40, 2))):
        x, y, vx, vy = k / 4096.0, l / 4096.0, float(vx), float(vy)
        assert (geodesic_accel(spec, x, y, vx, vy)
                == geodesic_accel(spec, x + 1.0, y + 1.0, vx, vy))
        assert spec.point_fields(x, y) == spec.point_fields(x + 1.0, y + 1.0)


@given(spec=st.sampled_from([gallery(n) for n in gallery_names()])
       | random_conformal_metric(), x=_cover, y=_cover, vx=_speed, vy=_speed)
@settings(max_examples=150, deadline=None)
def test_conformal_accel_equals_fields_dict(spec, x, y, vx, vy):
    # geodesic_accel forms a conformal metric's acceleration from (u, ux, uy)
    # with no fields() dict; the dict route gives the same bits, on the
    # one-point path and on the batch path
    assert spec._conformal
    got = geodesic_accel(spec, x, y, vx, vy)
    want = accel_from_fields(spec, spec.point_fields(x, y), vx, vy)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    p = [np.array([v]) for v in (x, y, vx, vy)]
    got = geodesic_accel(spec, *p)
    want = accel_from_fields(spec, spec.fields(p[0], p[1], order=1), p[2], p[3])
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_point_fields_shares_and_skips(bump, monkeypatch):
    s11 = bump._series["g11"]
    calls = []
    real = s11.eval_point

    def counted(xr, yr):
        calls.append((xr, yr))
        return real(xr, yr)

    def boom(*args):
        raise AssertionError("the empty g12 series was evaluated")
    monkeypatch.setattr(s11, "eval_point", counted)
    monkeypatch.setattr(bump._series["g12"], "eval_point", boom)
    f = bump.point_fields(1.1, -0.6)
    assert len(calls) == 1
    assert sorted(f) == sorted(bump.fields(np.array([0.1]), np.array([0.4])))
    assert (f["F"], f["Fx"], f["Fy"]) == (0.0, 0.0, 0.0)
    assert (f["G"], f["Gx"], f["Gy"]) == (f["E"], f["Ex"], f["Ey"])


# ---------------------------------------------------------------------------
# the one-point path before eval_point was written out as straight-line code:
# power lists built by accumulate, a loop over each term's table rows and
# coefficients up to _POINT_SUM_TERMS terms, a dot product beyond

def _reference_point_powers(series, r):
    """`_terms`' rows of one axis: e**0..e**pos, then e**-1..e**-neg as conjugates."""
    powers = [1.0, *accumulate(repeat(cmath.exp(1j * TWO_PI * r), series._pos), mul)]
    return powers + list(map(complex.conjugate, powers[1:series._neg + 1]))


def _reference_point_terms(series):
    """Each term's table rows and v, vx, vy coefficients, as _Series forms them."""
    row = lambda m: np.where(m >= 0, m, series._pos - m)
    a = series.c - 1j * series.s
    wx = 1j * TWO_PI * series.mx
    wy = 1j * TWO_PI * series.my
    return tuple(zip(*(v.tolist() for v in (row(series.mx), row(series.my),
                                            a, a * wx, a * wy))))


def _reference_sum_point(series, xr, yr):
    px = _reference_point_powers(series, xr)
    py = _reference_point_powers(series, yr)
    v = vx = vy = 0.0
    for i, j, a, ax, ay in _reference_point_terms(series):
        z = px[i] * py[j]
        v += (z * a).real
        vx += (z * ax).real
        vy += (z * ay).real
    return [v, vx, vy]


def _reference_dot_point(series, xr, yr):
    g = np.array(_reference_point_powers(series, xr) + _reference_point_powers(series, yr),
                 dtype=complex).take(series._take).reshape(2, -1)
    return series._coef[1].dot((g[0] * g[1]).view(float)).tolist()


def _reference_eval_point(series, xr, yr):
    few = len(series.mx) <= _POINT_SUM_TERMS
    return (_reference_sum_point if few else _reference_dot_point)(series, xr, yr)


# distinct modes with negative entries and coefficients away from zero; term
# counts fall on both sides of the Python sum's limit
_point_term = st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                        st.floats(-1.0, 1.0), st.floats(0.01, 1.0))
_point_terms = st.one_of(
    st.just([(0, 0, 1.3, 0.0)]),
    st.lists(_point_term, min_size=1, max_size=2 * _POINT_SUM_TERMS + 4,
             unique_by=lambda t: t[:2]))


@given(terms=_point_terms, xr=st.floats(0.0, 1.0, exclude_max=True),
       yr=st.floats(0.0, 1.0, exclude_max=True))
@example(terms=[(m, -m, 0.5, 0.25) for m in range(1, _POINT_SUM_TERMS + 1)],
         xr=0.3, yr=0.7)
@example(terms=[(m, -m, 0.5, 0.25) for m in range(1, _POINT_SUM_TERMS + 2)],
         xr=0.3, yr=0.7)
@settings(max_examples=300, deadline=None)
def test_point_sum_matches_dot_reference(terms, xr, yr):
    s = _Series(_canonical_terms(terms))
    got = s.eval_point(xr, yr)
    assert all(type(v) is float for v in got)
    # _accel_tol's rounding term for one series: 1e-15 times the l1 norm of
    # the value's and first derivatives' coefficients
    tol = 1e-15 * sum((1.0 + 2.0 * math.pi * (abs(mx) + abs(my))) * math.hypot(c, s_)
                      for mx, my, c, s_ in _canonical_terms(terms))
    assert np.abs(np.subtract(got, _reference_dot_point(s, xr, yr))).max() <= tol


_signed = st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)
_HEX_MODES = [(mx, my) for mx in range(-6, 7) for my in range(-6, 7)]


@st.composite
def _hex_terms(draw):
    """Terms on distinct modes in -6..6 as _Series takes them, signed zero
    coefficients kept; about half the draws have exactly 12 or 13 terms, on
    either side of the Python sum's limit."""
    n = draw(st.sampled_from([_POINT_SUM_TERMS, _POINT_SUM_TERMS + 1])
             | st.integers(0, 2 * _POINT_SUM_TERMS + 4))
    modes = draw(st.lists(st.sampled_from(_HEX_MODES), min_size=n, max_size=n,
                          unique=True))
    return [(mx, my, draw(_signed), draw(_signed)) for mx, my in modes]


@given(terms=st.just([(0, 0, 1.3, 0.0)]) | _hex_terms(),
       xr=st.floats(0.0, 1.0, exclude_max=True),
       yr=st.floats(0.0, 1.0, exclude_max=True))
@example(terms=[], xr=0.3, yr=0.7)
@example(terms=[(0, 0, -0.0, 0.0)], xr=0.3, yr=0.7)
@example(terms=[(0, 0, 1.3, 0.0), (0, 2, -0.0, -0.5), (-6, 6, 0.5, -0.0)],
         xr=0.0, yr=0.25)
@settings(max_examples=400, deadline=None)
def test_point_evaluator_is_bit_equal_to_reference(terms, xr, yr):
    # the generated evaluator against the sum loop (up to _POINT_SUM_TERMS
    # terms) and the dot product (beyond), every bit including zero signs
    s = _Series(terms)
    got = s.eval_point(xr, yr)
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in _reference_eval_point(s, xr, yr)]


@pytest.mark.parametrize("name", list(_ORACLE_SPECS))
def test_spec_pickles_with_its_point_evaluators(name):
    spec = _ORACLE_SPECS[name]
    # the generated eval_point is rebuilt, and a conformal metric's g11 and
    # g22 stay one series
    copy = pickle.loads(pickle.dumps(spec))
    assert ((copy._series["g22"] is copy._series["g11"])
            == (spec._series["g22"] is spec._series["g11"]))
    for comp in COMPONENTS:
        assert (copy._series[comp].eval_point(0.3, 0.7)
                == spec._series[comp].eval_point(0.3, 0.7))


@pytest.mark.parametrize("name", list(_ORACLE_SPECS))
def test_integrate_unchanged_by_reference_point_evaluator(name, monkeypatch):
    spec = _ORACLE_SPECS[name]
    v0 = unit_tangent(spec, (0.137, 0.271), 0.437)
    got = pickle.dumps(integrate(spec, v0, 10.0, dt=0.5))
    for series in set(spec._series.values()):
        monkeypatch.setattr(series, "eval_point",
                            lambda xr, yr, s=series: _reference_eval_point(s, xr, yr))
    assert pickle.dumps(integrate(spec, v0, 10.0, dt=0.5)) == got


# ---------------------------------------------------------------------------
# the power-table series evaluation against the direct cos/sin sum

def _reference_eval(series, xr, yr, order):
    """One cos and one sin per term and point: the evaluation it replaced."""
    mx = series.mx.astype(float)
    my = series.my.astype(float)
    phase = 2.0 * math.pi * (xr[..., None] * mx + yr[..., None] * my)
    cp = np.cos(phase)
    sp = np.sin(phase)
    v = (cp * series.c + sp * series.s).sum(axis=-1)
    if order == 0:
        return (v,)
    wx = 2.0 * math.pi * mx
    wy = 2.0 * math.pi * my
    dcos = -sp * series.c + cp * series.s
    vx = (dcos * wx).sum(axis=-1)
    vy = (dcos * wy).sum(axis=-1)
    if order == 1:
        return v, vx, vy
    d2 = -(cp * series.c + sp * series.s)
    return (v, vx, vy, (d2 * wx * wx).sum(axis=-1), (d2 * wx * wy).sum(axis=-1),
            (d2 * wy * wy).sum(axis=-1))


_SUBNORMAL = np.finfo(float).smallest_subnormal


def _assert_matches_reference(series, xr, yr, order, reference=_reference_eval):
    const, rest = _l1_split(series)
    m = max(1, int(np.abs(series.mx).max()), int(np.abs(series.my).max()))
    got = series.eval(xr, yr, order)
    want = reference(series, xr, yr, order)
    assert len(got) == len(want)
    for d, (a, b) in enumerate(zip(got, want)):
        # derivative rows of order 1 and 2 scale with (2 pi m)^order
        k = 0 if d == 0 else (1 if d < 3 else 2)
        # the floor keeps subnormal coefficients, whose relative tolerance
        # underflows to 0, to a few steps of the subnormal grid
        tol = (max(1e-13 * (abs(const) + rest), 8 * _SUBNORMAL)
               * (2.0 * math.pi * m) ** k)
        assert np.abs(a - b).max() <= tol


_term = st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                  st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
_unit = st.floats(0.0, 1.0, exclude_max=True)


@given(terms=st.lists(_term, min_size=1, max_size=12),
       pts=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=20),
       order=st.integers(0, 2))
@example(terms=[(1, 0, 0.0, 5e-324)], pts=[(0.625, 0.0)], order=1)
@settings(max_examples=150, deadline=None)
def test_series_eval_matches_cos_sin_reference(terms, pts, order):
    series = _Series(_canonical_terms(terms))
    xr = np.array([p[0] for p in pts])
    yr = np.array([p[1] for p in pts])
    _assert_matches_reference(series, xr, yr, order)
    # a point's value does not depend on the batch it came in
    one = [series.eval(xr[i:i + 1], yr[i:i + 1], order) for i in range(len(xr))]
    for d, row in enumerate(series.eval(xr, yr, order)):
        assert np.array_equal(row, np.concatenate([o[d] for o in one]))


def test_series_eval_matches_reference_on_sheared_and_gallery():
    rng = np.random.default_rng(11)
    xr = rng.uniform(size=300)
    yr = rng.uniform(size=300)
    specs = [SHEARED] + [gallery(name) for name in gallery_names()]
    for spec in specs:
        for comp in ("g11", "g12", "g22"):
            for order in (0, 1, 2):
                _assert_matches_reference(spec._series[comp], xr, yr, order)


def test_fields_components_match_reference():
    # each component's series lands under its own keys, on both paths; the
    # oracle of the one-point path shares this assembly with the batch path
    rng = np.random.default_rng(14)
    x = rng.uniform(-5, 5, 40)
    y = rng.uniform(-5, 5, 40)
    f = SHEARED.fields(x, y, order=1)
    points = [SHEARED.point_fields(float(a), float(b)) for a, b in zip(x, y)]
    for comp, key in (("g11", "E"), ("g12", "F"), ("g22", "G")):
        want = _reference_eval(SHEARED._series[comp], x - np.floor(x),
                               y - np.floor(y), 1)
        for suffix, w in zip(("", "x", "y"), want):
            assert np.abs(f[key + suffix] - w).max() <= 1e-12
            assert np.abs([p[key + suffix] for p in points] - w).max() <= 1e-12


def _bits(a):
    # compared as integers, a flipped sign of zero counts too
    return np.asarray(a, dtype=float).view(np.int64)


def test_fields_blocks_equal_one_point_calls(bump, liouville):
    # the bump's 71 terms make its blocks 57 points long, contracted by
    # einsum; liouville's 3 terms make them 1,365 points, summed by its
    # emitted code
    rng = np.random.default_rng(12)
    for spec in (bump, liouville):
        b = spec._series["g11"]._block_points
        n = 2 * b + 37
        x = rng.uniform(-3, 3, n)
        y = rng.uniform(-3, 3, n)
        for s in (spec, SHEARED):
            for order in (0, 1, 2):
                whole = s.fields(x, y, order=order)
                parts = [s.fields(x[i:i + 1], y[i:i + 1], order=order) for i in range(n)]
                for key, val in whole.items():
                    # an absent g12's scalar zero stands for every point
                    assert np.array_equal(_bits(np.broadcast_to(val, n)),
                                          _bits([_first(p[key]) for p in parts]))
        # batches that straddle the first and second block boundaries
        whole = spec.fields(x, y, order=2)
        for lo, hi in ((b - 5, b + 9), (1, 2 * b + 1), (b - 1, n)):
            part = spec.fields(x[lo:hi], y[lo:hi], order=2)
            for key, val in whole.items():
                assert np.array_equal(_bits(np.broadcast_to(val, n)[lo:hi]),
                                      _bits(np.broadcast_to(part[key], hi - lo)))
        ax, ay = geodesic_accel(spec, x, y, np.cos(x), np.sin(y))
        one = [geodesic_accel(spec, x[i:i + 1], y[i:i + 1], np.cos(x[i:i + 1]),
                              np.sin(y[i:i + 1])) for i in range(n)]
        assert np.array_equal(_bits(ax), _bits([a[0] for a, _ in one]))
        assert np.array_equal(_bits(ay), _bits([c[0] for _, c in one]))


def _einsum_eval(series, xr, yr, order):
    """eval before series of at most _POINT_SUM_TERMS terms were written out:
    each point's `_terms` contracted with the coefficient rows by one einsum
    (longer series still evaluate this way)."""
    return tuple(np.einsum("nk,rk->rn", series._terms(xr, yr), series._coef[order]))


def test_constant_series_equals_general_path(flat):
    # the flat metric's one series is constant: its emitted columns, the
    # constant and +0.0 filled out to the batch, are the contraction's bits
    rng = np.random.default_rng(15)
    x = rng.uniform(-3, 3, 50)
    y = rng.uniform(-3, 3, 50)
    vx, vy = rng.uniform(-2, 2, (2, 50))
    xr, yr = x - np.floor(x), y - np.floor(y)
    series = flat._series["g11"]
    for order in (0, 1, 2):
        want = _einsum_eval(series, xr, yr, order)
        f = flat.fields(x, y, order=order)
        for got in (series.eval(xr, yr, order), [f[k] for k in _KEYS[order][0]],
                    [f[k] for k in _KEYS[order][2]]):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(_bits(a), _bits(b))
    want = _conformal_accel(*_einsum_eval(series, xr, yr, 1), vx, vy)
    for a, b in zip(geodesic_accel(flat, x, y, vx, vy), want):
        assert np.array_equal(_bits(a), _bits(b))


_few_coefficient = st.sampled_from([0.0, -0.0, _SUBNORMAL, -_SUBNORMAL]) | st.floats(-1.0, 1.0)


@st.composite
def _few_terms(draw):
    """At most _POINT_SUM_TERMS terms on distinct modes in -6..6 as _Series
    takes them, signed zero and subnormal coefficients kept; about half the
    draws have exactly _POINT_SUM_TERMS terms."""
    n = draw(st.just(_POINT_SUM_TERMS) | st.integers(0, _POINT_SUM_TERMS))
    modes = draw(st.lists(st.sampled_from(_HEX_MODES), min_size=n, max_size=n,
                          unique=True))
    return [(mx, my, draw(_few_coefficient), draw(_few_coefficient)) for mx, my in modes]


@given(terms=st.just([(0, 0, 1.3, 0.0)]) | _few_terms(),
       pts=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=20),
       order=st.integers(0, 2), block=st.integers(1, 7))
@example(terms=[], pts=[(0.3, 0.7), (0.0, 0.5)], order=2, block=1)
@example(terms=[(0, 0, 1.3, 0.0), (0, 2, -0.0, -0.5), (-6, 6, _SUBNORMAL, -0.0)],
         pts=[(0.0, 0.25), (0.5, 0.0), (0.25, 0.5)], order=2, block=2)
@settings(max_examples=300, deadline=None)
def test_few_term_eval_matches_einsum_reference(terms, pts, order, block):
    series = _Series(terms)
    xr = np.array([p[0] for p in pts])
    yr = np.array([p[1] for p in pts])
    _assert_matches_reference(series, xr, yr, order, _einsum_eval)
    # a point's value depends neither on its batch nor on its block
    one = [series.eval(xr[i:i + 1], yr[i:i + 1], order) for i in range(len(xr))]
    series._block_points = block
    got = series.eval(xr, yr, order)
    assert len(got) == len(one[0])
    for d, row in enumerate(got):
        assert np.array_equal(_bits(row), _bits(np.concatenate([o[d] for o in one])))


@pytest.mark.parametrize("name", ["liouville", "two-frequency"])
def test_few_term_series_never_call_terms(name, bump, monkeypatch):
    # equal results cannot show a silent fallback to the einsum contraction
    def boom(*args):
        raise AssertionError("_Series._terms was called")
    monkeypatch.setattr(_Series, "_terms", boom)
    spec = gallery(name)
    x = np.linspace(-2.0, 3.0, 3001)   # crosses liouville's 1,365-point blocks
    y = np.linspace(4.0, -1.5, 3001)
    geodesic_accel(spec, x, y, np.cos(x), np.sin(y))
    geodesic_accel(spec, x[:64], y[:64], np.cos(x[:64]), np.sin(y[:64]))
    for order in (0, 1, 2):
        spec.fields(x, y, order=order)
    for series in spec._series.values():
        series.eval_point(0.3, 0.7)
    geodesic_accel(spec, 0.3, 0.7, 1.0, -0.5)
    # the spy sees the contraction of a longer series
    with pytest.raises(AssertionError, match="_terms"):
        bump.fields(x[:8], y[:8], order=1)


@pytest.mark.parametrize("name", list(_ORACLE_SPECS))
def test_real_scalars_take_the_point_path(name):
    # integers used to fall into the batch path as 0-d values and fail there
    spec = _ORACLE_SPECS[name]
    want = [v.hex() for v in geodesic_accel(spec, 2.0, -1.0, 1.0, 3.0)]
    for args in ((2, -1, 1, 3), tuple(np.int64(v) for v in (2, -1, 1, 3)),
                 tuple(np.array(v) for v in (2.0, -1.0, 1.0, 3.0))):
        got = geodesic_accel(spec, *args)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == want


def _trailing_sum_eval(series, xr, yr, order):
    """eval with the (rows, points, terms) product summed over its trailing
    axis: the contraction the einsum replaced."""
    return tuple((series._terms(xr, yr) * series._coef[order][:, None, :]).sum(axis=-1))


@given(terms=st.lists(_term, min_size=1, max_size=40),
       pts=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=20),
       order=st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_series_eval_matches_trailing_sum(terms, pts, order):
    series = _Series(_canonical_terms(terms))
    xr = np.array([p[0] for p in pts])
    yr = np.array([p[1] for p in pts])
    got = series.eval(xr, yr, order)
    want = _trailing_sum_eval(series, xr, yr, order)
    for a, b, row in zip(got, want, series._coef[order]):
        # both sum the same products of magnitude at most |row|, in two
        # orders; subnormal products may round once more
        tol = 2 * len(row) * (np.finfo(float).eps * np.abs(row).sum() + _SUBNORMAL)
        assert np.abs(a - b).max() <= tol


def test_fields_skips_empty_g12(bump, monkeypatch):
    def boom(*args):
        raise AssertionError("the empty g12 series was evaluated")
    monkeypatch.setattr(bump._series["g12"], "eval", boom)
    f = bump.fields(np.array([0.1, 0.7]), np.array([0.4, 0.2]), order=2)
    for key in ("F", "Fx", "Fy", "Fxx", "Fxy", "Fyy"):
        assert f[key] == 0.0 and np.ndim(f[key]) == 0


class _ArrayZeroSpec(MetricSpec):
    """A metric whose fields() gives an absent g12 the all-zero arrays that
    fields() used to return: the reference for the scalar zero."""

    def fields(self, x, y, order=1):
        f = super().fields(x, y, order)
        if not self.g12:
            f.update(dict.fromkeys(_KEYS[order][1], np.zeros(np.shape(f["E"]))))
        return f


_NO_G12 = {**{name: _ORACLE_SPECS[name] for name in gallery_names()},
           "anisotropic": MetricSpec("anisotropic",
                                     g11=[(0, 0, 1.0, 0.0), (1, 0, 0.3, 0.0)],
                                     g22=[(0, 0, 1.2, 0.0), (0, 1, 0.2, 0.0),
                                          (1, 1, 0.1, 0.0)])}
_NO_G12_PAIRS = {name: (s, _ArrayZeroSpec(s.name, s.g11, s.g12, s.g22, s.lambda_min))
                 for name, s in _NO_G12.items()}


@given(name=st.sampled_from(sorted(_NO_G12_PAIRS)), order=st.integers(0, 2),
       pts=st.lists(st.tuples(_cover, _cover, _speed, _speed), min_size=1, max_size=40),
       grid=st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_scalar_zero_f_matches_zero_arrays(name, order, pts, grid):
    # adding a +-0 product never changes these sums, so the scalar gives
    # the bits of the arrays
    spec, ref = _NO_G12_PAIRS[name]
    x, y, vx, vy = np.array(pts).T
    f, g = spec.fields(x, y, order=order), ref.fields(x, y, order=order)
    assert np.array_equal(_bits(quadratic_form(f, vx, vy)), _bits(quadratic_form(g, vx, vy)))
    if order:
        assert np.array_equal(_bits(accel_from_fields(spec, f, vx, vy)),
                              _bits(accel_from_fields(ref, g, vx, vy)))
    assert np.array_equal(_bits(gauss_curvature_batch(spec, x, y)),
                          _bits(gauss_curvature_batch(ref, x, y)))
    a, b = curvature_survey(spec, grid), curvature_survey(ref, grid)
    assert _bits([a.max_abs, *a.range, a.total]).tolist() == _bits(
        [b.max_abs, *b.range, b.total]).tolist()


@pytest.mark.parametrize("order", [0, 1, 2])
def test_fields_take_real_scalars_as_one_point(liouville, order):
    # 0-d input used to raise a raw TypeError from len()
    for spec in (liouville, SHEARED):
        for x, y in ((0.5, 0.25), (np.float64(0.5), np.float64(0.25))):
            f, want = spec.fields(x, y, order=order), spec.fields([0.5], [0.25], order=order)
            assert sorted(f) == sorted(want)
            for key in want:
                assert np.shape(f[key]) == np.shape(want[key])
                assert np.array_equal(_bits(f[key]), _bits(want[key]))
        assert np.array_equal(_bits(gauss_curvature_batch(spec, 0.5, 0.25)),
                              _bits(gauss_curvature_batch(spec, [0.5], [0.25])))


@pytest.mark.parametrize("n", [0, -3])
def test_curvature_grid_size_validated(liouville, n):
    with pytest.raises(ValidationError):
        curvature_survey(liouville, n)
