"""Correlation-function estimation, factorial-moment (Campbell) checks, the
falling-factorial pushforward identity, the tagged-particle non-explosion
criterion, and trajectory diagnostics (MSD, explosion scans)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, log_ndtr

from .configuration import Configuration, KLabeledState, falling_factorial, kappa
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


def _bootstrap_se(per_sample: np.ndarray, statistic, n_boot: int, seed: int):
    rng = np.random.default_rng(seed)
    n = per_sample.shape[0]
    stats = [statistic(per_sample[rng.integers(0, n, size=n)]) for _ in range(n_boot)]
    return np.std(np.asarray(stats), axis=0, ddof=1)


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
        stderr = _bootstrap_se(per_sample, lambda a: a.mean(axis=0), n_boot, seed)
        return CorrelationEstimate(1, edges, values, stderr, total, n)

    m = hist.astype(float)
    cross = m[:, :, None] * m[:, None, :]
    diag = np.arange(len(widths))
    cross[:, diag, diag] = m * (m - 1.0)
    area = widths[:, None] * widths[None, :]
    per_sample = cross / area
    values = per_sample.mean(axis=0)
    stderr = _bootstrap_se(per_sample, lambda a: a.mean(axis=0), n_boot, seed)
    pair_counts = cross.sum(axis=0)
    return CorrelationEstimate(2, edges, values, stderr, pair_counts, n)


def mean_intensity(samples):
    """(mean count / volume, standard error) over sampled configurations."""
    counts = np.array([len(s) for s in samples], dtype=float)
    volume = samples[0].domain.volume
    se = counts.std(ddof=1) / math.sqrt(len(counts)) / volume
    return counts.mean() / volume, se


def pair_correlation_separation(samples, edges, n_boot: int = 200, seed: int = 0):
    """Separation-pooled two-point estimate for 1-d interval windows |x| < w.

    Returns (centers, rho2, stderr, pair_counts). The geometry factor for an
    ordered-pair separation bin B in [0, 2w) is 2 * integral_B (2w - s) ds.
    """
    edges = np.asarray(edges, dtype=float)
    dom = samples[0].domain
    w = dom.size
    counts = []
    for s in samples:
        x = s.points[:, 0]
        sep = np.abs(x[:, None] - x[None, :])[np.triu_indices(x.size, k=1)]
        counts.append(2.0 * np.histogram(sep, bins=edges)[0])  # ordered pairs
    counts = np.asarray(counts, dtype=float)
    geom = 2.0 * (2.0 * w * np.diff(edges) - 0.5 * np.diff(edges**2))
    per_sample = counts / geom
    values = per_sample.mean(axis=0)
    stderr = _bootstrap_se(per_sample, lambda a: a.mean(axis=0), n_boot, seed)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, values, stderr, counts.sum(axis=0)


def _disk_set_covariance(s, radius):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = s < 2.0 * radius
    si = s[inside]
    out[inside] = 2.0 * radius**2 * np.arccos(si / (2.0 * radius)) - 0.5 * si * np.sqrt(
        4.0 * radius**2 - si**2
    )
    return out


def disk_separation_weight(s, radius):
    """Density of ordered-pair separations in a disk window: 2 pi s times the
    area of the window overlapped with itself shifted by s."""
    return 2.0 * math.pi * np.asarray(s, dtype=float) * _disk_set_covariance(s, radius)


def pair_correlation_disk(samples, edges, n_boot: int = 200, seed: int = 0):
    """Separation-pooled two-point estimate for disk windows |z| < w (d = 2)."""
    edges = np.asarray(edges, dtype=float)
    radius = samples[0].domain.size
    counts = []
    for s in samples:
        pts = s.points
        diff = pts[:, None, :] - pts[None, :, :]
        sep = np.sqrt(np.sum(diff * diff, axis=-1))[np.triu_indices(len(pts), k=1)]
        counts.append(2.0 * np.histogram(sep, bins=edges)[0])
    counts = np.asarray(counts, dtype=float)
    # ordered-pair measure of a separation bin: integral_B 2 pi s gamma_W(s) ds
    grid = np.linspace(edges[0], edges[-1], 4096)
    density = 2.0 * math.pi * grid * _disk_set_covariance(grid, radius)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    geom = np.interp(edges[1:], grid, cdf) - np.interp(edges[:-1], grid, cdf)
    per_sample = counts / geom
    values = per_sample.mean(axis=0)
    stderr = _bootstrap_se(per_sample, lambda a: a.mean(axis=0), n_boot, seed)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, values, stderr, counts.sum(axis=0)


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
        se = math.hypot(self.lhs_se, self.rhs_se)
        scale = _SE_FLOOR_REL * (1.0 + abs(self.lhs) + abs(self.rhs))
        return (self.lhs - self.rhs) / max(se, scale)


def _factorial_moment_products(samples, sets, ks) -> np.ndarray:
    out = np.ones(len(samples))
    positions = _positions_1d(samples)
    for (lo, hi), k in zip(sets, ks):
        counts = np.array([np.count_nonzero((p >= lo) & (p < hi)) for p in positions])
        out = out * np.array([falling_factorial(int(c), k) for c in counts], dtype=float)
    return out


def _batch_se(values: np.ndarray, n_batches: int) -> float:
    """Standard error of the mean from batch means; robust to the serial
    correlation of thinned-chain samples."""
    batches = np.array_split(np.asarray(values, dtype=float), n_batches)
    means = np.array([b.mean() for b in batches])
    return float(means.std(ddof=1) / math.sqrt(len(means)))


def campbell_check(samples, sets, ks, n_bins: int = 4, n_boot: int = 200,
                   seed: int = 0, n_batches: int = 20) -> CampbellReport:
    """Two-route check of the defining factorial-moment identity.

    Route one estimates the correlation function on bins tiling the test sets
    and integrates it; route two takes the empirical mean of the product of
    falling-factorial counts. The two routes use disjoint halves of the
    samples, so the z-score is a genuine two-sample comparison.
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
    est_samples, emp_samples = samples[:half], samples[half:]

    order = sum(ks)
    active = [(s, k) for s, k in zip(sets, ks) if k > 0]
    if order == 1:
        (lo, hi), _ = active[0]
        edges = np.linspace(lo, hi, n_bins + 1)
        est = estimate_rho(est_samples, 1, edges, n_boot=n_boot, seed=seed)
        widths = np.diff(edges)
        lhs = float(est.values @ widths)
        per = np.array(
            [np.count_nonzero((p >= lo) & (p < hi)) for p in _positions_1d(est_samples)],
            dtype=float,
        )
        lhs_se = _batch_se(per, n_batches)
    else:
        if len(active) == 1:
            (lo, hi), _ = active[0]
            edges = np.linspace(lo, hi, n_bins + 1)
            sel_a = sel_b = np.arange(n_bins)
        else:
            (lo_a, hi_a), _ = active[0]
            (lo_b, hi_b), _ = active[1]
            edges = np.concatenate(
                [np.linspace(lo_a, hi_a, n_bins + 1), np.linspace(lo_b, hi_b, n_bins + 1)]
            )
            edges = np.unique(edges)
            sel_a = np.nonzero((edges[:-1] >= lo_a) & (edges[1:] <= hi_a))[0]
            sel_b = np.nonzero((edges[:-1] >= lo_b) & (edges[1:] <= hi_b))[0]
        est = estimate_rho(est_samples, 2, edges, n_boot=n_boot, seed=seed,
                           min_expected=0.0)
        widths = np.diff(edges)
        area = widths[sel_a][:, None] * widths[sel_b][None, :]
        lhs = float(np.sum(est.values[np.ix_(sel_a, sel_b)] * area))
        per = _factorial_moment_products(est_samples, sets, ks)
        lhs_se = _batch_se(per, n_batches)

    emp = _factorial_moment_products(emp_samples, sets, ks)
    rhs = float(emp.mean())
    rhs_se = _batch_se(emp, n_batches)
    return CampbellReport(sets, ks, lhs, lhs_se, rhs, rhs_se)


# ---------------------------------------------------------------------------
# pushforward identity
# ---------------------------------------------------------------------------

@dataclass
class ShellPartition:
    """Counts of a configuration in the radial shells (r_{j-1}, r_j]."""

    radii: np.ndarray
    counts: np.ndarray

    def count_within(self, r: float) -> int:
        return int(self.counts[self.radii <= r].sum())


def shell_partition(config: Configuration, radii) -> ShellPartition:
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise ValueError("shell radii must be strictly increasing")
    dist = config.domain.distance(config.points, np.zeros(config.domain.dimension))
    counts = np.histogram(dist, bins=np.concatenate([[0.0], radii]))[0]
    return ShellPartition(radii, counts)


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
    diff = lhs - rhs
    se = diff.std(ddof=1) / math.sqrt(replicas)
    scale = _SE_FLOOR_REL * (1.0 + abs(lhs.mean()) + abs(rhs.mean()))
    z = diff.mean() / max(se, scale)
    return PushforwardReport(k, r, n_cap, float(lhs.mean()), float(rhs.mean()),
                             float(se), float(z), replicas)


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
    extra: dict = field(default_factory=dict)


_DECAY_FACTOR = 1e-12
_TREND_WINDOW = 10


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


def nonexplosion_scan(log_rho1, d: int, T_values=(0.25, 0.5, 1.0, 2.0),
                      R_values=(1.0, 10.0)):
    """Existence scan over T (the criterion quantifies 'there exists T > 0
    such that for each R'); returns the overall verdict and the per-(T, R)
    evidence table."""
    results = {}
    for T in T_values:
        for R in R_values:
            results[(T, R)] = nonexplosion_criterion(log_rho1, d, T, R)
    satisfied_T = [
        T for T in T_values
        if all(results[(T, R)].verdict == "satisfied" for R in R_values)
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
    values = disp.mean(axis=1)
    rng = np.random.default_rng(seed)
    n = disp.shape[1]
    boot = np.array(
        [disp[:, rng.integers(0, n, size=n)].mean(axis=1) for _ in range(n_boot)]
    )
    return MSDCurve(first.times.copy(), values, boot.std(axis=0, ddof=1))


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
