"""Correlation-function estimation, factorial-moment (Campbell) checks, the
falling-factorial pushforward identity, the tagged-particle non-explosion
criterion, and trajectory diagnostics (MSD, explosion scans)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr

from .configuration import BALL, Configuration, KLabeledState, _all_pairs, falling_factorial, kappa
from .errors import InsufficientSamples

_SE_FLOOR_REL = 1e-9  # paired z-scores: identical routes differ only by float noise


# ---------------------------------------------------------------------------
# correlation estimators
# ---------------------------------------------------------------------------

@dataclass
class CorrelationEstimate:
    order: int
    edges: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    counts: np.ndarray
    n_samples: int


def _positions_1d(samples) -> list[np.ndarray]:
    out = []
    for s in samples:
        pts = s.points if isinstance(s, Configuration) else np.atleast_2d(s)
        if pts.shape[1] != 1:
            raise ValueError("binned estimators are one-dimensional")
        out.append(pts[:, 0])
    return out


def _bootstrap_se(per_sample: np.ndarray, n_boot: int, seed: int):
    """Bootstrap standard error of the mean over the first (sample) axis."""
    rng = np.random.default_rng(seed)
    n = per_sample.shape[0]
    means = [per_sample[rng.integers(0, n, size=n)].mean(axis=0) for _ in range(n_boot)]
    return np.std(np.asarray(means), axis=0, ddof=1)


def estimate_rho(samples, order: int, edges, n_boot: int = 200,
                 seed: int = 0, min_expected: float = 10.0) -> CorrelationEstimate:
    """Correlation-function estimate of order 1 or 2 on one-dimensional bins.

    Order 1: mean bin count / bin width. Order 2: mean ordered distinct pair
    count across bin pairs / product of widths (within-bin pairs use the
    falling factorial m(m-1)). Standard errors by bootstrap over samples.
    """
    if order not in (1, 2):
        raise ValueError("estimate_rho supports orders 1 and 2")
    edges = np.asarray(edges, dtype=float)
    widths = np.diff(edges)
    positions = _positions_1d(samples)
    n = len(positions)
    hist = np.array([np.histogram(p, bins=edges)[0] for p in positions])

    total = hist.sum(axis=0)
    if np.any(total < min_expected):
        raise InsufficientSamples(
            f"bin counts {total.min()} below the floor of {min_expected}"
        )

    if order == 1:
        per_sample = hist / widths
        values = per_sample.mean(axis=0)
        stderr = _bootstrap_se(per_sample, n_boot, seed)
        return CorrelationEstimate(1, edges, values, stderr, total, n)

    m = hist.astype(float)
    cross = m[:, :, None] * m[:, None, :]
    diag = np.arange(len(widths))
    cross[:, diag, diag] = m * (m - 1.0)
    area = widths[:, None] * widths[None, :]
    per_sample = cross / area
    values = per_sample.mean(axis=0)
    stderr = _bootstrap_se(per_sample, n_boot, seed)
    pair_counts = cross.sum(axis=0)
    return CorrelationEstimate(2, edges, values, stderr, pair_counts, n)


def mean_intensity(samples) -> float:
    """Mean count / volume over sampled configurations."""
    counts = np.array([len(s) for s in samples], dtype=float)
    return counts.mean() / samples[0].domain.volume


def _disk_set_covariance(s, radius):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = s < 2.0 * radius
    si = s[inside]
    out[inside] = 2.0 * radius**2 * np.arccos(si / (2.0 * radius)) - 0.5 * si * np.sqrt(
        4.0 * radius**2 - si**2
    )
    return out


def separation_weight(s, radius, d: int):
    """Density of ordered-pair separations s in the window |x| < radius: the
    sphere measure at s times the window's overlap with itself shifted by s,
    2 (2 radius - s) for an interval (d = 1), 2 pi s gamma(s) for a disk (d = 2)."""
    if d == 1:
        return 2.0 * np.maximum(2.0 * radius - np.asarray(s, dtype=float), 0.0)
    if d == 2:
        return 2.0 * math.pi * np.asarray(s, dtype=float) * _disk_set_covariance(s, radius)
    raise ValueError("separation windows are intervals (d = 1) or disks (d = 2)")


def pair_correlation_separation(samples, edges):
    """Separation-pooled two-point estimate for interval (d = 1) or disk
    (d = 2) windows |x| < w.

    Returns (centers, rho2, pair_counts): ordered-pair counts per separation
    bin B, divided by the number of samples and the bin measure, the integral
    of `separation_weight` over B (closed form for an interval, a 4096-point
    trapezoid CDF for a disk).
    """
    edges = np.asarray(edges, dtype=float)
    dom = samples[0].domain
    if dom.geometry != BALL:
        raise ValueError(f"separation windows are balls |x| < w, not a {dom.geometry}")
    radius, d = dom.size, dom.dimension
    counts = []
    for s in samples:
        i, j = _all_pairs(len(s))
        counts.append(np.histogram(dom.distance(s.points[i], s.points[j]), bins=edges)[0])
    counts = np.asarray(counts, dtype=float)
    if d == 1:
        geom = 2.0 * (2.0 * radius * np.diff(edges) - 0.5 * np.diff(edges**2))
    else:
        grid = np.linspace(edges[0], edges[-1], 4096)
        density = separation_weight(grid, radius, d)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1])
                                               * np.diff(grid))])
        geom = np.interp(edges[1:], grid, cdf) - np.interp(edges[:-1], grid, cdf)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, (counts / geom).mean(axis=0), counts.sum(axis=0)


def _floored_z(diff: float, se: float, lhs: float, rhs: float) -> float:
    """diff / se, with the se floored at 1e-9 of the scale of the means lhs, rhs."""
    return diff / max(se, _SE_FLOOR_REL * (1.0 + abs(lhs) + abs(rhs)))


def paired_z(lhs, rhs):
    """(z, se) of the mean paired difference lhs - rhs. The se is floored at
    1e-9 of the scale of the means, so identical routes (float noise only)
    read z = 0 and a constant nonzero difference reads |z| >> 3."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    diff = lhs - rhs
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    return float(_floored_z(diff.mean(), se, lhs.mean(), rhs.mean())), float(se)


# ---------------------------------------------------------------------------
# Campbell / factorial-moment check
# ---------------------------------------------------------------------------

@dataclass
class CampbellReport:
    sets: tuple
    ks: tuple
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float

    @property
    def z(self) -> float:
        return _floored_z(self.lhs - self.rhs, math.hypot(self.lhs_se, self.rhs_se),
                          self.lhs, self.rhs)


def _factorial_moment_products(samples, sets, ks) -> np.ndarray:
    out = np.ones(len(samples))
    positions = _positions_1d(samples)
    for (lo, hi), k in zip(sets, ks):
        counts = np.array([np.count_nonzero((p >= lo) & (p < hi)) for p in positions])
        out = out * np.array([falling_factorial(int(c), k) for c in counts], dtype=float)
    return out


_CAMPBELL_BATCHES = 20


def _batch_se(values: np.ndarray) -> float:
    """Standard error of the mean from batch means; robust to the serial
    correlation of thinned-chain samples. Up to 20 batches of at least two
    values each; fewer than 4 values raise InsufficientSamples."""
    values = np.asarray(values, dtype=float)
    if values.size < 4:
        raise InsufficientSamples(f"a batch-means se needs at least 4 values, got {values.size}")
    batches = np.array_split(values, min(_CAMPBELL_BATCHES, values.size // 2))
    means = np.array([b.mean() for b in batches])
    return float(means.std(ddof=1) / math.sqrt(len(means)))


def campbell_check(samples, sets, ks) -> CampbellReport:
    """Split-half check of the defining factorial-moment (Campbell) identity
    E[prod_i N(A_i)^[k_i]] = integral of rho_k over A_1^k_1 x ... x A_n^k_n.

    `lhs` and `rhs` are the means of the falling-factorial count product over
    the first and the second half of the samples, each with its batch-means
    se, so the z-score compares two disjoint halves. Integrating a binned rho
    estimate over bins that tile the test sets gives, term for term, the same
    first-half mean, so no correlation function is estimated here.
    """
    sets = tuple(tuple(map(float, s)) for s in sets)
    ks = tuple(int(k) for k in ks)
    if sum(ks) == 0:
        # empty product on both sides of the identity
        return CampbellReport(sets, ks, 1.0, 0.0, 1.0, 0.0)
    if sum(ks) not in (1, 2):
        raise ValueError("campbell_check covers total order 1 and 2")
    for i, (lo_i, hi_i) in enumerate(sets):
        if not hi_i > lo_i:
            raise ValueError("test sets must be non-degenerate intervals")
        for lo_j, hi_j in sets[i + 1 :]:
            if max(lo_i, lo_j) < min(hi_i, hi_j):
                raise ValueError("test sets must be disjoint")

    half = len(samples) // 2
    first = _factorial_moment_products(samples[:half], sets, ks)
    second = _factorial_moment_products(samples[half:], sets, ks)
    return CampbellReport(sets, ks, float(first.mean()), _batch_se(first),
                          float(second.mean()), _batch_se(second))


# ---------------------------------------------------------------------------
# pushforward identity
# ---------------------------------------------------------------------------

@dataclass
class PushforwardReport:
    k: int
    r: float
    n_cap: int
    lhs: float
    rhs: float
    se: float
    z: float
    replicas: int


def pushforward_check(sampler, r: float, k: int, n_cap: int, replicas: int,
                      F=None, seed: int = 0) -> PushforwardReport:
    """Paired Monte Carlo check of the falling-factorial pushforward identity.

    Route one samples a configuration, picks a uniform ordered k-tuple of its
    points inside the ball of radius r, removes and re-attaches it through the
    k-labeled unlabeling map, and weights by m^[k]; route two applies the
    weight directly. Both estimate the same truncated pushforward expectation.
    """
    if F is None:
        def F(config):  # bounded default functional
            dist = config.domain.distance(
                config.points, np.zeros(config.domain.dimension)
            )
            inner = float(np.count_nonzero(dist < 0.5 * r))
            return math.exp(-inner / 5.0)

    rng = np.random.default_rng(seed)
    lhs = np.zeros(replicas)
    rhs = np.zeros(replicas)
    for i in range(replicas):
        config = sampler(seed * 69_061 + i)
        dom = config.domain
        dist = dom.distance(config.points, np.zeros(dom.dimension))
        inside = np.nonzero(dist < r)[0]
        m = inside.size
        if m < k or m > n_cap:
            continue
        weight = float(falling_factorial(m, k))
        chosen = rng.choice(inside, size=k, replace=False)
        tagged = config.points[chosen]
        rest = config.without(chosen)
        lhs[i] = weight * F(kappa(KLabeledState(tagged, rest, validate=False)))
        rhs[i] = weight * F(config)
    z, se = paired_z(lhs, rhs)
    return PushforwardReport(k, r, n_cap, float(lhs.mean()), float(rhs.mean()),
                             se, z, replicas)


# ---------------------------------------------------------------------------
# non-explosion criterion
# ---------------------------------------------------------------------------

def ell(x: float) -> float:
    """Standard normal upper-tail probability via the complementary error
    function; exact at 0 and monotone decreasing."""
    if math.isinf(x):
        return 0.0 if x > 0 else 1.0
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def log_ell(x) -> np.ndarray:
    """log of the upper tail, stable for very large arguments."""
    return log_ndtr(-np.asarray(x, dtype=float))


def constant_log_profile(intensity: float):
    logc = math.log(intensity)
    return lambda s: np.full_like(np.asarray(s, dtype=float), logc)


def exponential_log_profile(rate: float):
    return lambda s: rate * np.asarray(s, dtype=float)


def gaussian_growth_log_profile(scale: float = 1.0):
    return lambda s: scale * np.asarray(s, dtype=float) ** 2


def _log_sphere_area(d: int) -> float:
    return math.log(2.0) + (d / 2.0) * math.log(math.pi) - gammaln(d / 2.0)


def log_radial_integral(log_rho1, d: int, upper: float) -> float:
    """log of the integral of rho1(|x|) over the ball of radius `upper`,
    evaluated in the log domain on a grid refined toward the endpoint (the
    integrand may be endpoint-dominated by many thousand e-folds)."""
    u = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, 129),
        1.0 - 0.5 ** np.arange(1, 64, 0.5),
    ]))
    s = upper * u
    g = np.asarray(log_rho1(s), dtype=float)
    if d > 1:
        with np.errstate(divide="ignore"):
            g = g + (d - 1) * np.where(s > 0, np.log(np.maximum(s, 1e-300)), -np.inf)
    with np.errstate(divide="ignore"):
        seg = np.logaddexp(g[1:], g[:-1]) + np.log(0.5 * np.diff(s))
    return _log_sphere_area(d) + float(np.logaddexp.reduce(seg))


@dataclass
class CriterionResult:
    verdict: str
    r_values: np.ndarray
    log_evidence: np.ndarray
    T: float
    R: float


_DECAY_FACTOR = 1e-12
_TREND_WINDOW = 10
_SCAN_T = (0.25, 0.5, 1.0, 2.0)
_SCAN_R = (1.0, 10.0)


def nonexplosion_criterion(log_rho1, d: int, T: float, R: float) -> CriterionResult:
    """Evaluate the tail-criterion products on the radius grid 2^0 ... 2^40.

    The product of the intensity mass of the ball of radius r + R with the
    Gaussian tail at r / sqrt((r + R) T) is computed in the log domain.
    `satisfied` needs the running minimum to fall below 1e-12 times the
    first value while trending down over the last 10 points (relative
    thresholds keep the verdict invariant under rescaling rho1),
    `not-satisfied` needs a diverging tail of the curve, anything else is
    `inconclusive`.
    """
    r = 2.0 ** np.arange(0, 41)
    log_mass = np.array([log_radial_integral(log_rho1, d, ri + R) for ri in r])
    log_tail = log_ell(r / np.sqrt((r + R) * T))
    log_evidence = log_mass + log_tail

    tail_diffs = np.diff(log_evidence[-(_TREND_WINDOW + 1):])
    decayed = np.min(log_evidence) <= log_evidence[0] + math.log(_DECAY_FACTOR)
    trending_down = bool(np.all(tail_diffs <= 1e-9))
    trending_up = bool(np.all(tail_diffs >= -1e-9)) and log_evidence[-1] > log_evidence[0]

    if decayed and trending_down:
        verdict = "satisfied"
    elif trending_up:
        verdict = "not-satisfied"
    else:
        verdict = "inconclusive"
    return CriterionResult(verdict, r, log_evidence, T, R)


def nonexplosion_scan(log_rho1, d: int):
    """Existence scan over T in (0.25, 0.5, 1, 2) and R in (1, 10) (the
    criterion quantifies 'there exists T > 0 such that for each R'); returns
    the overall verdict and the per-(T, R) evidence table."""
    results = {}
    for T in _SCAN_T:
        for R in _SCAN_R:
            results[(T, R)] = nonexplosion_criterion(log_rho1, d, T, R)
    satisfied_T = [
        T for T in _SCAN_T
        if all(results[(T, R)].verdict == "satisfied" for R in _SCAN_R)
    ]
    if satisfied_T:
        verdict = "satisfied"
    elif all(res.verdict == "not-satisfied" for res in results.values()):
        verdict = "not-satisfied"
    else:
        verdict = "inconclusive"
    return verdict, results


# ---------------------------------------------------------------------------
# trajectory diagnostics
# ---------------------------------------------------------------------------

@dataclass
class MSDCurve:
    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray


def msd(trajectories, tag: int | None = None, n_boot: int = 200,
        seed: int = 0) -> MSDCurve:
    """Ensemble mean squared displacement with bootstrap errors.

    Either a list of trajectories with a tagged index per replica, or one
    trajectory whose particles are treated as independent replicas (valid for
    non-interacting runs). Positions are used as stored, so on a torus the
    curve is meaningful only while displacements stay below half the period.
    """
    if not isinstance(trajectories, (list, tuple)):
        trajectories = [trajectories]
    first = trajectories[0]
    if first.n_snapshots < 2:
        return MSDCurve(np.empty(0), np.empty(0), np.empty(0))
    if len(trajectories) == 1 and tag is None:
        pos = trajectories[0].positions  # (t, replicas, d)
    else:
        idx = 0 if tag is None else tag
        pos = np.stack([t.positions[:, idx, :] for t in trajectories], axis=1)
    disp = np.sum((pos - pos[0]) ** 2, axis=2)  # (t, replicas)
    return MSDCurve(first.times.copy(), disp.mean(axis=1),
                    _bootstrap_se(disp.T, n_boot, seed))


@dataclass
class ExplosionReport:
    times: np.ndarray
    fraction: np.ndarray
    bound: float
    r: float


def explosion_scan(trajectories, r: float, bound: float) -> ExplosionReport:
    """Fraction of replicas in which any particle that started inside the
    ball of radius r has running-max displacement exceeding `bound` by each
    snapshot time."""
    if not isinstance(trajectories, (list, tuple)):
        trajectories = [trajectories]
    times = trajectories[0].times
    exceed = np.zeros((len(trajectories), times.size), dtype=bool)
    for rep, traj in enumerate(trajectories):
        start = traj.positions[0]
        inside = np.sqrt(np.sum(start * start, axis=1)) < r
        if not np.any(inside):
            continue
        exceed[rep] = np.any(traj.running_max[:, inside] > bound, axis=1)
    return ExplosionReport(times.copy(), exceed.mean(axis=0), bound, r)
