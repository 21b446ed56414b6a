import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import entropy
from torusflow.entropy import (PRESETS, TWO_PI, EntropyParams,
                               estimate_entropy, probe_trajectories,
                               sample_phase_points, separated_count,
                               separated_counts)
from torusflow.cli import _jsonable
from torusflow.errors import ValidationError
from torusflow.metrics import circle_distance, gallery

TINY = EntropyParams(n_samples=256, horizons=(2.0, 4.0, 6.0, 8.0),
                     epsilons=(1.25, 1.0))


def test_params_validation():
    with pytest.raises(ValidationError):
        EntropyParams(horizons=(4.0, 2.0))
    with pytest.raises(ValidationError):
        EntropyParams(epsilons=(0.25, 0.5))
    with pytest.raises(ValidationError, match="multiple of the RK4 step"):
        EntropyParams(dt_probe=0.03)
    with pytest.raises(ValidationError):
        EntropyParams(horizons=(1.03, 2.0))
    for horizons in ((-3.0, 6.0), (0.0, 6.0)):
        with pytest.raises(ValidationError, match="positive"):
            EntropyParams(horizons=horizons)


def test_presets_are_valid():
    assert set(PRESETS) == {"calibration", "dichotomy"}
    assert PRESETS["dichotomy"].epsilons[0] > math.hypot(0.5, 0.5)


def test_sampling_prefix_stable(liouville):
    small = sample_phase_points(liouville, 64, seed=11)
    big = sample_phase_points(liouville, 256, seed=11)
    assert np.array_equal(small, big[:64])


def test_sampled_tangents_are_unit(liouville):
    pts = sample_phase_points(liouville, 128, seed=3)
    f = liouville.fields(pts[:, 0], pts[:, 1], order=0)
    q = (f["E"] * pts[:, 2] ** 2 + 2 * f["F"] * pts[:, 2] * pts[:, 3]
         + f["G"] * pts[:, 3] ** 2)
    assert np.abs(q - 1.0).max() < 1e-12


def _static_probes(rows):
    """Constant-in-time probe array from (x, y, theta) rows."""
    arr = np.asarray(rows, dtype=np.float32)
    return np.repeat(arr[:, None, :], 4, axis=1)


def test_separated_count_wraps_positions():
    probes = _static_probes([(0.05, 0.0, 0.0), (0.95, 0.0, 0.0)])
    # wrap distance is 0.1, not 0.9
    assert separated_count(probes, 0.15, k_limit=4) == 1
    assert separated_count(probes, 0.05, k_limit=4) == 2


def test_separated_count_wraps_angles():
    probes = _static_probes([(0.5, 0.5, 3.0), (0.5, 0.5, -3.0)])
    gap = 2 * math.pi - 6.0
    assert separated_count(probes, gap + 0.02, k_limit=4) == 1
    assert separated_count(probes, gap - 0.02, k_limit=4) == 2


def test_separated_count_adds_components():
    probes = _static_probes([(0.05, 0.0, 0.0), (0.95, 0.0, math.pi)])
    d = 0.1 + math.pi
    assert separated_count(probes, d + 0.05, k_limit=4) == 1
    assert separated_count(probes, d - 0.05, k_limit=4) == 2


# ---------------------------------------------------------------------------
# the phase distance and the dynamical distance the separated counts use,
# written out as references

def phase_distance(u, v):
    """Distance between two phase points, base part plus angle part.

    u and v are state rows (x, y, vx, vy).  The base part is the quotient
    distance of the flat torus (minimum over deck images of the Euclidean
    one); the angle part is the circle distance between the tangent
    direction angles; the two add with weight 1:1.  Symmetric, and zero
    exactly on equal points.
    """
    a, b = (np.array([[w[0] % 1.0, w[1] % 1.0, math.atan2(w[3], w[2])]])
            for w in (u, v))
    return float(_phase_gap(a, b)[0])


def _phase_gap(a, b):
    """Phase distance of reduced rows (x mod 1, y mod 1, angle), rowwise."""
    dx = circle_distance(a[..., 0], b[..., 0], 1.0)
    dy = circle_distance(a[..., 1], b[..., 1], 1.0)
    return np.hypot(dx, dy) + circle_distance(a[..., 2], b[..., 2], TWO_PI)


def dynamical_distance(spec, u, v, t_max):
    """Largest phase distance of the two orbits over the probe time grid.

    The probe grid and RK4 step are EntropyParams' defaults.  Nondecreasing
    in t_max by construction.  Probes are stored in float32, so results
    carry that storage grain.
    """
    states = np.stack([np.asarray(u, dtype=float), np.asarray(v, dtype=float)])
    _, probes = probe_trajectories(spec, states, float(t_max),
                                   EntropyParams.dt_probe)
    probes = probes.astype(np.float64)
    return float(_phase_gap(probes[0], probes[1]).max())


def test_phase_distance_examples():
    a = (0.1, 0.0, 1.0, 0.0)
    assert phase_distance(a, a) == 0.0
    b = (0.9, 0.0, 1.0, 0.0)
    assert phase_distance(a, b) == pytest.approx(0.2, abs=1e-15)
    c = (0.1, 0.0, -1.0, 0.0)
    assert phase_distance(a, c) == pytest.approx(math.pi, abs=1e-15)
    assert phase_distance(a, b) == phase_distance(b, a)


def test_dynamical_distance_flat_cases(flat):
    u = (0.2, 0.5, 1.0, 0.0)
    assert dynamical_distance(flat, u, u, 4.0) == 0.0
    # parallel flat orbits keep their launch offset
    v = (0.2, 0.8, 1.0, 0.0)
    assert dynamical_distance(flat, u, v, 4.0) == pytest.approx(0.3, abs=1e-6)


def test_dynamical_distance_linear_divergence(flat):
    # same base, small angle gap: separation grows like t * gap
    gap = 0.05
    u = (0.3, 0.3, 1.0, 0.0)
    v = (0.3, 0.3, math.cos(gap), math.sin(gap))
    d0 = phase_distance(u, v)
    d5 = dynamical_distance(flat, u, v, 5.0)
    slope = (d5 - d0) / 5.0
    assert abs(slope - gap) / gap < 0.05
    # and it never decreases in the horizon
    d3 = dynamical_distance(flat, u, v, 3.0)
    assert d0 <= d3 <= d5


def test_separated_count_scans_the_window():
    k = np.arange(16, dtype=np.float32)
    a = np.stack([np.full(16, 0.5), np.full(16, 0.5), np.zeros(16)], axis=1)
    b = np.stack([(0.5 + 0.04 * k) % 1.0, np.full(16, 0.5), np.zeros(16)], axis=1)
    probes = np.stack([a, b]).astype(np.float32)
    # the pair drifts apart only later in the window
    assert separated_count(probes, 0.45, k_limit=4) == 1
    assert separated_count(probes, 0.45, k_limit=16) == 2


def test_separated_count_monotone_in_samples():
    rng = np.random.default_rng(5)
    probes = np.stack([
        rng.uniform(0.0, 1.0, size=(40, 8)),
        rng.uniform(0.0, 1.0, size=(40, 8)),
        rng.uniform(-math.pi, math.pi, size=(40, 8)),
    ], axis=2).astype(np.float32)
    counts = [separated_count(probes, 0.4, k_limit=8, m_limit=m)
              for m in (10, 20, 30, 40)]
    assert counts == sorted(counts)


def test_estimate_entropy_flat_structure(flat):
    res = estimate_entropy(flat, TINY)
    counts = np.asarray(res.counts)
    assert counts.shape == (4, 2)
    assert (np.diff(counts, axis=0) >= 0).all()
    assert (np.diff(counts, axis=1) >= 0).all()
    assert res.saturated == [False, False]
    assert not res.sample_limited
    assert res.headline_epsilon == 1.0
    again = estimate_entropy(flat, TINY)
    assert again.counts == res.counts
    assert again.headline == res.headline


def test_estimate_entropy_accepts_external_probes(flat):
    states = sample_phase_points(flat, TINY.n_samples, TINY.seed)
    _, probes = probe_trajectories(flat, states, TINY.horizons[-1],
                                   TINY.dt_probe)
    res = estimate_entropy(flat, TINY, probes=probes)
    assert res.counts == estimate_entropy(flat, TINY).counts
    short = probes[: TINY.n_samples - 1]
    with pytest.raises(ValidationError):
        estimate_entropy(flat, TINY, probes=short)


def test_estimate_entropy_saturation_flags(flat):
    params = EntropyParams(n_samples=64, horizons=(2.0, 4.0),
                           epsilons=(0.1, 0.05))
    res = estimate_entropy(flat, params)
    assert res.saturated == [True, True]
    assert res.sample_limited


def test_estimate_json(flat):
    res = estimate_entropy(flat, TINY)
    obj = json.loads(json.dumps(res, default=_jsonable))
    assert obj["metric"] == "flat"
    assert obj["counts"] == res.counts


def test_estimate_entropy_rejects_short_windows(flat):
    params = EntropyParams(n_samples=32, horizons=(2.0, 4.0),
                           epsilons=(1.25, 1.0))
    states = sample_phase_points(flat, params.n_samples, params.seed)
    _, probes = probe_trajectories(flat, states, 2.0, params.dt_probe)
    with pytest.raises(ValidationError):
        estimate_entropy(flat, params, probes=probes)


def test_separated_count_rejects_m_limit_beyond_samples():
    probes = _static_probes([(0.1, 0.1, 0.0), (0.6, 0.6, 1.0)])
    with pytest.raises(ValidationError):
        separated_count(probes, 0.5, k_limit=4, m_limit=3)


# -- separated_counts against the per-pair greedy scan it replaced ----------

def _reference_count(probes, eps, k_limit, m_limit, apart_at_launch):
    """Greedy count for one window, one _pair_separates call per pair."""
    m = probes.shape[0] if m_limit is None else int(m_limit)
    kept = []
    for i in range(m):
        # a pair already apart at launch needs no scan, even in an empty window
        near = [j for j in kept if not apart_at_launch(i, j)]
        if all(entropy._pair_separates(probes, i, j, k_limit, eps)
               for j in near):
            kept.append(i)
    return len(kept)


def _reference_counts(probes, eps, k_limits, m_limit=None):
    @functools.cache
    def apart_at_launch(i, j):
        return entropy._pair_separates(probes, i, j, 1, eps)
    return [_reference_count(probes, eps, k, m_limit, apart_at_launch)
            for k in k_limits]


# dyadic grids holding the wrap edges 0, 0.5 and +-pi: on them the float32
# arithmetic is exact, so distances equal to eps and coincident samples
# occur often
_POSITION_GRID = [k / 8 for k in range(8)]
_ANGLE_GRID = [0.0, math.pi, -math.pi, 0.25, -0.5, 1.0]
_EPS_GRID = [0.125, 0.25, 0.5, 0.75, 1.5]


@st.composite
def _count_cases(draw):
    m = draw(st.integers(1, 40))
    n_probes = draw(st.integers(1, 24))
    shape = (m, n_probes)
    if draw(st.booleans()):
        # uniform picks from the grids; hypothesis' own draws favour a few
        # simple values, which seldom line up a distance equal to eps
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        cols = [rng.choice(grid, size=shape) for grid in
                (_POSITION_GRID, _POSITION_GRID, _ANGLE_GRID)]
        eps = draw(st.sampled_from(_EPS_GRID))
    else:
        position = (st.sampled_from(_POSITION_GRID)
                    | st.floats(0.0, 1.0, exclude_max=True))
        angle = st.sampled_from(_ANGLE_GRID) | st.floats(-math.pi, math.pi)
        size = m * n_probes
        cols = [np.reshape(draw(st.lists(elem, min_size=size,
                                         max_size=size)), shape)
                for elem in (position, position, angle)]
        eps = draw(st.sampled_from(_EPS_GRID) | st.floats(0.01, 4.0))
    probes = np.stack(cols, axis=2).astype(np.float32)
    k_limits = sorted(draw(st.lists(st.integers(0, n_probes), min_size=1,
                                    max_size=4)))
    m_limit = draw(st.one_of(st.none(), st.integers(0, m)))
    return probes, eps, k_limits, m_limit


@settings(deadline=None)
@given(_count_cases())
def test_separated_counts_match_pairwise_scan(case):
    probes, eps, k_limits, m_limit = case
    got = separated_counts(probes, eps, k_limits, m_limit)
    assert got.tolist() == _reference_counts(probes, eps, k_limits, m_limit)


def _phase_gaps(a, b):
    """Phase distance of two probe rows at every probe, in float64."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    dx = np.abs(a[:, 0] - b[:, 0])
    dy = np.abs(a[:, 1] - b[:, 1])
    da = np.abs(a[:, 2] - b[:, 2])
    dx, dy = np.minimum(dx, 1.0 - dx), np.minimum(dy, 1.0 - dy)
    da = np.minimum(da, entropy.TWO_PI - da)
    return np.hypot(dx, dy) + da


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_separated_counts_match_pairwise_scan_at_eps_ties(seed):
    # a tight cluster, with eps the largest distance of its first pair
    # rounded to float32: that pair's test is decided in the last bits, so
    # arithmetic in any other precision or order changes the count
    rng = np.random.default_rng(seed)
    base = rng.uniform([0.0, 0.0, -math.pi], [1.0, 1.0, math.pi])
    probes = base + rng.uniform(-0.05, 0.05, size=(6, 12, 3))
    probes[:, :, :2] %= 1.0
    probes[:, :, 2] = (probes[:, :, 2] + math.pi) % entropy.TWO_PI - math.pi
    probes = probes.astype(np.float32)
    eps = float(np.float32(_phase_gaps(probes[0], probes[1]).max()))
    k_limits = list(range(13))
    got = separated_counts(probes, eps, k_limits)
    assert got.tolist() == _reference_counts(probes, eps, k_limits)


@pytest.mark.parametrize("name", ["two-frequency", "liouville"])
@pytest.mark.parametrize("seed", [PRESETS["dichotomy"].seed, 7])
def test_separated_counts_match_pairwise_scan_on_flows(name, seed):
    params = PRESETS["dichotomy"]
    spec = gallery(name)
    states = sample_phase_points(spec, 512, seed)
    _, probes = probe_trajectories(spec, states, params.horizons[-1],
                                   params.dt_probe)
    k_limits = [int(round(T / params.dt_probe)) + 1 for T in params.horizons]
    for eps in params.epsilons:
        got = separated_counts(probes, eps, k_limits)
        assert got.tolist() == _reference_counts(probes, eps, k_limits)


def test_entropy_workload_table_is_pinned(twofreq):
    # the two-frequency table of the benchmark's entropy workload at its
    # seed 1, which draws sample seed 1016164991
    params = EntropyParams(n_samples=512, seed=1016164991,
                           horizons=(3.0, 6.0, 9.0, 12.0),
                           epsilons=(1.5, 1.25))
    res = estimate_entropy(twofreq, params)
    assert res.counts == [[66, 105], [133, 204], [200, 272], [252, 305]]
