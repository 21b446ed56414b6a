"""Separated-orbit counts and entropy-style growth rates for the flow.

The estimator follows the classical recipe: sample phase points, integrate
them all, and count how many stay pairwise distinguishable (at resolution
eps) somewhere along a horizon-T window.  The growth rate of that count in
T is the headline number.  Everything here is a finite-sample lower-bound
style estimate, never a proof about the true topological entropy.

Phase points are compared with the quotient distance of the torus between
the base points (minimum over deck images) plus the circle distance between
the tangent direction angles, weighted 1:1.  Any equivalent metric gives
the same growth rates; this one is the cheapest to evaluate.

Counting makes one greedy pass per eps that serves every horizon at once:
each candidate's launch-near kept samples get one batched time scan for
the first probe index at which the pair separates, and each horizon
compares those indices with its window length.  The scan repeats the
per-pair test of _pair_separates elementwise in float32, with no
reduction across pairs, so the counts are bit-identical to scanning each
(candidate, kept) pair on its own for each horizon.  The launch test is
the scan's own float32 predicate (_apart) at probe 0, so a pair is apart
at launch exactly when the scan would find it apart at its first probe.

Three monotonicity properties are guaranteed structurally rather than
numerically:

  against T  : a set separated within a window stays separated in any
               longer window, so counts are composed with a running max
               along the horizon ladder;
  against eps: separation at eps implies separation at smaller eps, so a
               running max along the descending-eps ladder applies too;
  against M  : samples are consumed in a fixed prefix-stable order (one
               uniform block per seed), each trajectory is integrated with
               batch-size-independent arithmetic, and the greedy scan never
               lets a later sample influence an earlier decision.

Determinism: with equal parameters and seed, every count and every slope
is bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .flow import integrate_batch
from .metrics import circle_distance, quadratic_form

TWO_PI = 2.0 * math.pi

# probes per time chunk of the pair scans
_CHUNK = 512

# counts above this fraction of the sample budget are crowding-limited: well
# before formal exhaustion they bend the growth curve down, visible as a
# slope inversion across the eps ladder, so they are not trusted
SATURATION_FRACTION = 0.4


@dataclass(frozen=True)
class EntropyParams:
    """Sampling plan of one entropy run.

    horizons must be ascending, epsilons descending; dt_probe must be an
    integer multiple of step_h and divide every horizon.
    """

    n_samples: int = 2048
    seed: int = 20260818
    horizons: tuple = (20.0, 40.0, 80.0, 160.0)
    epsilons: tuple = (0.5, 0.25, 0.125)
    dt_probe: float = 0.05
    step_h: float = 0.0125

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValidationError("n_samples must be at least 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if not all(0 < eps < math.inf for eps in self.epsilons):
            raise ValidationError("every epsilon must be positive and finite")
        if not all(map(math.isfinite, (*self.horizons, self.dt_probe, self.step_h))):
            raise ValidationError("horizons, dt_probe and step_h must be finite")
        if not all(T > 0 for T in self.horizons):
            raise ValidationError("every horizon must be positive")
        if list(self.horizons) != sorted(self.horizons):
            raise ValidationError("horizons must be ascending")
        if list(self.epsilons) != sorted(self.epsilons, reverse=True):
            raise ValidationError("epsilons must be descending")
        if not (self.dt_probe > 0 and self.step_h > 0):
            raise ValidationError("dt_probe and step_h must be positive")
        ratio = self.dt_probe / self.step_h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValidationError("dt_probe must be a multiple of step_h")
        for T in self.horizons:
            n = T / self.dt_probe
            if abs(n - round(n)) > 1e-9:
                raise ValidationError("every horizon must be a multiple of dt_probe")


PRESETS = {
    # long horizons at moderate resolution; exercises the saturation flags
    "calibration": EntropyParams(),
    # short horizons with epsilon above the torus position diameter, where
    # separation demands angle drift: the flat count is then constant in T
    # and the integrable/chaotic contrast survives a finite sample budget
    "dichotomy": EntropyParams(n_samples=4096, horizons=(3.0, 6.0, 9.0, 12.0),
                               epsilons=(1.5, 1.25)),
}


def sample_phase_points(spec, n_samples, seed):
    """Unit tangent vectors at uniform positions and angles, prefix-stable.

    One uniform block of shape (n, 3) is drawn in a single call, so for a
    fixed seed the first m rows of any larger draw coincide with the m-row
    draw; growing the sample only appends.
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(int(n_samples), 3))
    x = u[:, 0]
    y = u[:, 1]
    theta = TWO_PI * u[:, 2]
    cx = np.cos(theta)
    sy = np.sin(theta)
    norm = np.sqrt(quadratic_form(spec.fields(x, y, order=0), cx, sy))
    return np.stack([x, y, cx / norm, sy / norm], axis=1)


def probe_trajectories(spec, states, t_max, dt_probe, step_h):
    """Integrate a batch and keep compact probes (x mod 1, y mod 1, angle).

    float32 is plenty: the separation scales of interest sit at 1e-1, nine
    decades above the storage grain.
    """
    times, samples = integrate_batch(spec, states, float(t_max), h=step_h,
                                     sample_dt=dt_probe)
    probes = np.empty(samples.shape[:2] + (3,), dtype=np.float32)
    probes[:, :, 0] = np.mod(samples[:, :, 0], 1.0)
    probes[:, :, 1] = np.mod(samples[:, :, 1], 1.0)
    probes[:, :, 2] = np.arctan2(samples[:, :, 3], samples[:, :, 2])
    return times, probes


def _pair_separates(probes, i, j, k_limit, eps):
    """Whether samples i and j get phase distance >= eps within the window.

    The per-pair reference for _apart, written out on its own.
    """
    a = probes[i, :k_limit]
    b = probes[j, :k_limit]
    for s in range(0, k_limit, _CHUNK):
        dx = circle_distance(a[s:s + _CHUNK, 0], b[s:s + _CHUNK, 0], 1.0)
        dy = circle_distance(a[s:s + _CHUNK, 1], b[s:s + _CHUNK, 1], 1.0)
        da = circle_distance(a[s:s + _CHUNK, 2], b[s:s + _CHUNK, 2], TWO_PI)
        # sum metric without the square root: sqrt(pos2) + da >= eps holds
        # iff da >= eps already or pos2 >= (eps - da)^2
        rest = np.float32(eps) - da
        pos2 = dx * dx + dy * dy
        if bool(np.any((rest <= 0.0) | (pos2 >= rest * rest))):
            return True
    return False


def _apart(a, b, eps):
    """Whether reduced rows a and b are eps-apart, elementwise.

    The arithmetic runs in the rows' dtype, eps cast to it, without the
    square root of the sum metric, as in _pair_separates.
    """
    dx = circle_distance(a[..., 0], b[..., 0], 1.0)
    dy = circle_distance(a[..., 1], b[..., 1], 1.0)
    rest = dx.dtype.type(eps) - circle_distance(a[..., 2], b[..., 2], TWO_PI)
    return (rest <= 0.0) | (dx * dx + dy * dy >= rest * rest)


def _first_separations(probes, i, js, k_stop, eps):
    """First probe index at which sample i is eps-apart from each sample js.

    Pairs that do not separate before k_stop read k_stop.  The float32
    arithmetic is elementwise and the same as _pair_separates', so
    first < k_limit holds exactly when _pair_separates(probes, i, j,
    k_limit, eps) does, for every k_limit <= k_stop.  The scan runs in time
    chunks and drops each pair once it has separated, which bounds the
    temporaries on long windows.
    """
    first = np.full(len(js), k_stop, dtype=np.intp)
    live = np.arange(len(js))
    for s in range(0, k_stop, _CHUNK):
        if not len(live):
            break
        e = min(s + _CHUNK, k_stop)
        hit = _apart(probes[i, s:e], probes[js[live], s:e], eps)
        found = hit.any(axis=1)
        first[live[found]] = s + hit[found].argmax(axis=1)
        live = live[~found]
    return first


def separated_counts(probes, eps, k_limits, m_limit=None):
    """Greedy separated-set sizes over the first m_limit samples, per window.

    For each window length k in k_limits (in probes), samples are scanned
    in index order and one is kept when its dynamical distance to every
    sample kept for that window reaches eps within the first k probes.
    All windows share one pass: the samples kept in some window that are
    eps-near the candidate at launch get one time scan for their first
    separating probe index, and each window compares those indices with
    its own length.  Pairs already eps-apart at launch need no time scan.
    Returns an integer array with one count per entry of k_limits.
    """
    n_probes = probes.shape[1]
    m = probes.shape[0] if m_limit is None else int(m_limit)
    k_limits = np.asarray(k_limits, dtype=np.intp)
    if m > probes.shape[0]:
        raise ValidationError(f"the probe array holds {probes.shape[0]} "
                              f"samples, fewer than the {m} asked for")
    k_stop = int(k_limits.max(initial=0))
    if k_stop > n_probes:
        raise ValidationError(f"the probe array holds {n_probes} probes per "
                              f"sample, fewer than the {k_stop} of the "
                              f"longest window")
    kept = np.zeros((len(k_limits), m), dtype=bool)
    # samples kept in at least one window
    pool = np.empty(m, dtype=np.intp)
    n_pool = 0
    for i in range(m):
        pooled = pool[:n_pool]
        near = pooled[~_apart(probes[pooled, 0], probes[i, 0], eps)]
        first = _first_separations(probes, i, near, k_stop, eps)
        blocked = kept[:, near] & (first >= k_limits[:, None])
        kept[:, i] = ~blocked.any(axis=1)
        if kept[:, i].any():
            pool[n_pool] = i
            n_pool += 1
    return kept.sum(axis=1)


def separated_count(probes, eps, k_limit, m_limit=None):
    """Greedy separated-set size over the first m_limit samples.

    The one-window case of separated_counts.
    """
    return int(separated_counts(probes, eps, [k_limit], m_limit)[0])


@dataclass
class EntropyEstimate:
    """Counts, growth rates, and the headline rate of one run.

    counts[i][j] is the monotone-composed separated count at horizons[i],
    epsilons[j].  slopes[j] is the least-squares growth rate of log counts
    over the upper half of the horizon ladder at epsilons[j].  headline is
    the slope at the smallest epsilon whose counts stay below
    SATURATION_FRACTION of the sample budget; sample_limited reports that
    every epsilon saturated, in which case the headline underestimates.
    """

    metric: str
    params: EntropyParams
    counts: list
    slopes: list
    headline: float
    headline_epsilon: float
    sample_limited: bool
    saturated: list
    diagnostics: dict = field(default_factory=dict)


def _slope_of_counts(horizons, counts):
    """Least-squares growth rate of log counts over the upper half ladder."""
    Ts = np.asarray(horizons, dtype=float)
    ns = np.log(np.maximum(np.asarray(counts, dtype=float), 1.0))
    half = len(Ts) // 2
    Ts, ns = Ts[half - 1:], ns[half - 1:]
    if len(Ts) < 2:
        return 0.0
    A = np.stack([Ts, np.ones_like(Ts)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ns, rcond=None)
    return float(coef[0])


def estimate_entropy(spec, params, probes=None):
    """Separated-count table over the horizon/epsilon ladders and its rates.

    probes may be passed in to rerun the counting stage on an existing
    integration (the array from probe_trajectories); otherwise the run
    integrates its own batch.  A probe array with fewer than n_samples
    samples, or too few probes for the longest horizon, raises
    ValidationError.
    """
    if probes is None:
        states = sample_phase_points(spec, params.n_samples, params.seed)
        _, probes = probe_trajectories(spec, states, params.horizons[-1],
                                       params.dt_probe, params.step_h)
    m = params.n_samples
    k_limits = [int(round(T / params.dt_probe)) + 1 for T in params.horizons]
    raw = np.empty((len(params.horizons), len(params.epsilons)), dtype=int)
    for j, eps in enumerate(params.epsilons):
        raw[:, j] = separated_counts(probes, eps, k_limits, m_limit=m)

    counts = np.maximum.accumulate(raw, axis=0)          # longer horizon
    counts = np.maximum.accumulate(counts, axis=1)       # finer resolution
    sat_cut = SATURATION_FRACTION * m
    saturated = [bool(counts[-1, j] >= sat_cut)
                 for j in range(len(params.epsilons))]
    slopes = [_slope_of_counts(params.horizons, counts[:, j])
              for j in range(len(params.epsilons))]

    usable = [j for j in range(len(params.epsilons)) if not saturated[j]]
    sample_limited = not usable
    j_head = usable[-1] if usable else 0
    return EntropyEstimate(
        metric=spec.name, params=params,
        counts=counts.tolist(), slopes=slopes,
        headline=slopes[j_head],
        headline_epsilon=params.epsilons[j_head],
        sample_limited=sample_limited, saturated=saturated,
        diagnostics={"raw_counts": raw.tolist()})
