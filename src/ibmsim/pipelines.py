"""Named end-to-end experiment pipelines wiring samplers, dynamics, tagged
views, forms and analysis into reproducible reports. Pipelines are data: each
name maps to a default plain-text config, and user configs go through the
same runner, so test runs and user runs share one path."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    constant_log_profile,
    ell,
    exponential_log_profile,
    gaussian_growth_log_profile,
    mean_intensity,
    nonexplosion_scan,
    pair_correlation_separation,
    paired_z,
    separation_weight,
)
from .configuration import Configuration, Domain, KLabeledState, _all_pairs, label
from .cylinder import (
    Bump,
    Gaussian,
    LinearStatistic,
    random_cylinder,
)
from .dynamics import SimParams, _simulate_batch, child_seeds
from .errors import ConfigError
from .forms import (
    EXACT_CAP,
    FormReport,
    check_iota_identity,
    check_product_formula,
    exchange_energy,
    gamma_k,
    symmetrize,
    symmetrized,
)
from .persistence import (
    build_potentials,
    build_spec,
    config_sha256,
    manifest,
    parse_config,
    write_manifest,
    write_tsv,
)
from .potentials import PotentialSpec
from .pointprocess import (
    DPPSpec,
    GibbsSpec,
    LockstepChains,
    make_poisson_sampler,
    sample_dyson_sine,
    sample_ginibre,
    sample_poisson,
)
from .tagged import environment_process, environment_via_iota

PIPELINES = (
    "thm24-identity",
    "thm27-environment",
    "dyson-correlations",
    "ginibre-correlations",
    "nonexplosion-suite",
    "forms-suite",
)

DEFAULT_CONFIGS = {
    "thm24-identity": """\
[pipeline]
name = thm24-identity
seed = 2024
replicas = 2000
n_values = 3,8
k_values = 1,2
dt = 2e-3
t_end = 0.2
stride = 20
p_threshold = 0.01

[potentials]
phi = harmonic
phi_strength = 0.5
psi = soft_core
psi_strength = 0.5
psi_range = 0.8
""",
    "thm27-environment": """\
[pipeline]
name = thm27-environment
seed = 2027
replicas = 250
intensity = 1.25
domain_size = 8.0
dt = 1e-3
t_end = 0.5
stride = 50
interacting_replicas = 250
activity = 1.25
psi_strength = 0.6
psi_range = 0.7
burn_in = 20000
""",
    "dyson-correlations": """\
[pipeline]
name = dyson-correlations
seed = 1962
n_matrix = 500
replicas = 200
window_radius = 10.0
rho1_bins = 5
rho1_tolerance = 0.05
rho2_edges_start = 0.25
rho2_edges_stop = 4.0
rho2_bin_width = 0.75
rho2_tolerance = 0.05
min_pair_count = 200
""",
    "ginibre-correlations": """\
[pipeline]
name = ginibre-correlations
seed = 1965
n_matrix = 500
replicas = 200
window_radius = 5.0
rho1_tolerance = 0.05
rho2_tolerance = 0.10
min_pair_count = 200
""",
    "nonexplosion-suite": """\
[pipeline]
name = nonexplosion-suite
seed = 2025
dimension = 1
exponential_rate = 0.5
""",
    "forms-suite": """\
[pipeline]
name = forms-suite
seed = 551
iota_pairs = 200
iota_h = 1e-4
iota_threshold = 1e-5
pointwise_samples = 200
mc_samples = 10000
product_h = 1e-4
product_threshold = 1e-5
oracle_samples = 100
oracle_threshold = 1e-6
contraction_instances = 100
idempotence_max_points = 8
""",
}


@dataclass
class PipelineRow:
    check: str
    value: float
    threshold: str
    passed: bool

    def as_tuple(self):
        return (self.check, format(self.value, ".10g"), self.threshold,
                "pass" if self.passed else "FAIL")


@dataclass
class PipelineResult:
    name: str
    seed: int
    rows: list = field(default_factory=list)
    config_text: str = ""
    # manifest-only facts of the run (routes, counts, stage wall times)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def summary(self) -> str:
        lines = [f"pipeline {self.name} (seed {self.seed})"]
        for r in self.rows:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"  [{status}] {r.check}: {r.value:.6g} (need {r.threshold})")
        lines.append(f"  => {'ALL PASS' if self.passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)


def _count(sec, key: str, least: int = 1) -> int:
    """The integer sec[key], at least `least`; a missing, empty or
    non-integer value is a ConfigError."""
    n = sec.getint(key)
    if n is None or n < least:
        raise ConfigError(f"[{sec.name}] {key} must be an integer of at least {least}, "
                          f"got {sec.get(key)!r}")
    return n


def _real(sec, key: str, default: float | None = None) -> float:
    """The float sec[key], or `default` when the key is absent; a missing key
    without a default is a ConfigError."""
    x = sec.getfloat(key, default)
    if x is None:
        raise ConfigError(f"[{sec.name}] {key} needs a number")
    return x


def _items(sec, key: str, parse=int) -> list:
    """The comma-separated list sec[key], each item read by `parse`; a missing
    or empty list, or an item that `parse` rejects with a ValueError, is a
    ConfigError."""
    text = sec.get(key)
    if not text:
        raise ConfigError(f"[{sec.name}] {key} needs a comma-separated list")
    try:
        return [parse(item) for item in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad value for [{sec.name}] {key}: {text!r}") from None


# ---------------------------------------------------------------------------
# path functionals for the labeled/unlabeled identity check
# ---------------------------------------------------------------------------

def _path_functionals(positions: np.ndarray) -> dict[str, float]:
    """Five symmetric functionals of the unlabeled path (T, N, d) in free space."""
    return {name: float(v[0]) for name, v in _batch_path_functionals(positions[None]).items()}


def _batch_path_functionals(positions: np.ndarray) -> dict[str, np.ndarray]:
    """_path_functionals of each path of the batch (R, T, N, d), one value per
    path, with the bits of each path's own call: every reduction runs along
    the axes, and in the order, that it takes on one path alone."""
    radii_sq = np.sum(positions**2, axis=3)
    r, _, n, _ = positions.shape
    i, j = _all_pairs(n)
    upper = i < j
    diff = positions[:, :, i[upper]] - positions[:, :, j[upper]]
    gauss = np.exp(-np.sum(diff**2, axis=-1))
    final = diff[:, -1]
    return {
        "sum_sq_final": radii_sq[:, -1].sum(axis=1),
        # the all-pairs minimum, which _min_gap's bits equal
        "min_gap_final": (np.sqrt(np.sum(final * final, axis=-1)).min(axis=1) if n > 1
                          else np.zeros(r)),
        "mean_sum_sq": radii_sq.sum(axis=2).mean(axis=1),
        "sup_radius": np.sqrt(radii_sq).max(axis=(1, 2)),
        # a path's pair terms lie pair-major in memory, the layout its fancy
        # index gives, and its mean adds them in that order
        "mean_gauss_pair": (np.ascontiguousarray(gauss.transpose(0, 2, 1)).reshape(r, -1)
                            .mean(axis=1) if n > 1 else np.zeros(r)),
    }


def _run_thm24(cfg, seed: int, extra: dict) -> list[PipelineRow]:
    sec = cfg["pipeline"]
    replicas = _count(sec, "replicas", least=2)
    n_values = _items(sec, "n_values")
    k_values = _items(sec, "k_values")
    if min(k_values) < 1:  # a k = 0 arm reruns the unlabeled arm's paths bit for bit
        raise ConfigError(f"k_values must be at least 1, got {min(k_values)}")
    if not any(k < n for n in n_values for k in k_values):
        raise ConfigError("no (n, k) in n_values x k_values has k < n: nothing to check")
    p_threshold = _real(sec, "p_threshold", 0.01)
    params = SimParams(dt=_real(sec, "dt"), t_end=_real(sec, "t_end"),
                       stride=_count(sec, "stride"))
    pot = build_potentials(cfg)
    dom = Domain(1, "free", 50.0)

    from scipy import stats  # here, not at module level: the CLI starts without it

    rows = []
    for n in n_values:
        start = Configuration(np.linspace(-1.2, 1.2, n)[:, None], dom)
        names = list(_path_functionals(np.zeros((1, n, 1))).keys())

        def run_arm(arm_index: int, k: int) -> np.ndarray:
            if k == 0:
                state = label(start, "lexicographic")
            else:
                ordered = label(start, "distance-from-origin")
                background = Configuration(ordered.points[k:], dom, validate=False)
                state = KLabeledState(ordered.points[:k], background)
            seeds = [seed * 4_000_037 + arm_index * 1_000_003 + n * 101 + rep
                     for rep in range(replicas)]
            trajs = _simulate_batch([state] * replicas, pot, params, seeds)
            values = _batch_path_functionals(np.stack([traj.positions for traj in trajs]))
            return np.stack([values[name] for name in names], axis=1)

        unlabeled = run_arm(0, k=0)
        for k in k_values:
            if k >= n:
                continue
            klab = run_arm(k, k=k)
            for fi, name in enumerate(names):
                pvalue = stats.ks_2samp(unlabeled[:, fi], klab[:, fi]).pvalue
                rows.append(PipelineRow(
                    f"ks-N{n}-k{k}-{name}", float(pvalue), f"> {p_threshold}",
                    bool(pvalue > p_threshold),
                ))
    return rows


def _run_thm27(cfg, seed: int, extra: dict) -> list[PipelineRow]:
    import time

    sec = cfg["pipeline"]
    if "thin" in sec:
        raise ConfigError("bad [pipeline] thin: thm27 draws each replica's Palm start "
                          "from its own chain, so there is nothing to thin")
    replicas = _count(sec, "replicas", least=2)
    intensity = _real(sec, "intensity")
    size = _real(sec, "domain_size")
    params = SimParams(dt=_real(sec, "dt"), t_end=_real(sec, "t_end"),
                       stride=_count(sec, "stride"))
    dom = Domain(1, "torus", size)
    origin = np.zeros((1, 1))
    observable = LinearStatistic(Gaussian(1.0, [0.0], 1.0))

    def _centered(config, length):
        pts = config.points.copy()
        pts[pts[:, 0] > length / 2, 0] -= length
        return pts

    def environment_observable(traj):
        env = environment_process(traj, origin[0])
        via_iota = environment_via_iota(traj, origin[0])
        worst = 0.0
        for a, b in zip(env, via_iota):
            ca, cb = a.canonical(), b.canonical()
            worst = max(worst, 0.0 if np.array_equal(ca, cb)
                        else float(np.max(np.abs(ca - cb))))
        # center the frame so the Gaussian observable sees displacements
        g0 = observable.value(np.zeros((0, 1)), _centered(env[0], size))
        g1 = observable.value(np.zeros((0, 1)), _centered(env[-1], size))
        return worst, g0, g1

    # exact Palm starts at the origin, one child seed of (seed, arm, replica)
    # each: Slivnyak's origin plus a fresh Poisson sample for the free arm,
    # a Gibbs chain with a point pinned at the origin (GNZ) for the other
    arms = [("free", PotentialSpec(), child_seeds(seed, 0, replicas), None)]
    psi_strength = _real(sec, "psi_strength", 0.0)
    if psi_strength > 0:
        n_interacting = (_count(sec, "interacting_replicas", least=2)
                         if "interacting_replicas" in sec else replicas)
        pot = PotentialSpec(psi="soft_core", psi_strength=psi_strength,
                            psi_range=_real(sec, "psi_range", 1.0), r_cut=3.0)
        # the two chain keys thm27 reads, over its own burn-in and activity defaults
        chain = {"burn_in": 20000, "activity": intensity}
        chain.update({key: sec[key] for key in ("activity", "burn_in") if key in sec})
        spec = build_spec(GibbsSpec, chain, "[pipeline]", potentials=pot)
        chain_seeds = child_seeds(seed, 1, n_interacting)
        arms.append(("interacting", pot, chain_seeds,
                     LockstepChains(spec, dom, chain_seeds, pin=origin[0])))

    rows = []
    for label_name, pot, palm_seeds, chains in arms:
        n_reps = palm_seeds.size
        started = time.perf_counter()
        if chains is None:
            states = [KLabeledState(origin, sample_poisson(dom, intensity, int(s)), validate=False)
                      for s in palm_seeds]
            record = {"palm_route": "slivnyak-poisson", "chains": 0, "burn_in": 0}
        else:
            chains.burn_in()
            states = chains.palm_states()
            record = {"palm_route": "pinned-gibbs-lockstep", "chains": n_reps,
                      "burn_in": chains.spec.burn_in, "acceptance": chains.acceptance()}
        record["palm_s"] = time.perf_counter() - started
        worst = 0.0
        starts, ends = np.empty(n_reps), np.empty(n_reps)
        seeds = [seed * 104729 + rep for rep in range(n_reps)]
        started = time.perf_counter()
        trajs = _simulate_batch(states, pot, params, seeds)
        record["simulate_s"] = time.perf_counter() - started
        started = time.perf_counter()
        for rep, traj in enumerate(trajs):
            w, g0, g1 = environment_observable(traj)
            worst = max(worst, w)
            starts[rep], ends[rep] = g0, g1
        record["observe_s"] = time.perf_counter() - started
        extra[f"thm27-{label_name}"] = record
        z, _ = paired_z(ends, starts)
        rows.append(PipelineRow(f"pathwise-iota-identity-{label_name}", worst,
                                "== 0", worst == 0.0))
        rows.append(PipelineRow(f"environment-stationarity-z-{label_name}",
                                z, "|z| < 3", abs(z) < 3.0))
    return rows


def _rho2_rows(field: str, samples, edges, sec, n_grid: int, rho2) -> list[PipelineRow]:
    """Relative error of the separation-pooled rho2 estimate against the true
    rho2 averaged over each bin with the window's separation weight (an
    n_grid-point trapezoid), on bins holding at least min_pair_count pairs."""
    centers, values, counts = pair_correlation_separation(samples, edges)
    dom = samples[0].domain
    tol = _real(sec, "rho2_tolerance")
    min_count = _count(sec, "min_pair_count")
    rows = []
    for j, center in enumerate(centers):
        if counts[j] < min_count:
            continue
        grid = np.linspace(edges[j], edges[j + 1], n_grid)
        weight = separation_weight(grid, dom.size, dom.dimension)
        pred = float(np.trapezoid(weight * rho2(grid), grid) / np.trapezoid(weight, grid))
        rel = abs(values[j] - pred) / pred
        rows.append(PipelineRow(f"{field}-rho2-s{center:.3g}", float(rel),
                                f"< {tol}", bool(rel < tol)))
    return rows


def _run_dyson(cfg, seed: int, extra: dict) -> list[PipelineRow]:
    sec = cfg["pipeline"]
    spec = build_spec(DPPSpec, sec, "[pipeline]", kernel="sine")
    replicas = _count(sec, "replicas")
    samples = [sample_dyson_sine(spec, seed * 31337 + i) for i in range(replicas)]
    rows = []

    tol1 = _real(sec, "rho1_tolerance")
    rho1 = mean_intensity(samples)
    rows.append(PipelineRow("dyson-rho1", float(rho1), f"within {tol1} of 1",
                            bool(abs(rho1 - 1.0) < tol1)))
    # per-bin intensity flatness across the window
    edges = np.linspace(-spec.window_radius, spec.window_radius,
                        _count(sec, "rho1_bins") + 1)
    hist = np.array([np.histogram(s.points[:, 0], bins=edges)[0] for s in samples])
    per_bin = hist.mean(axis=0) / np.diff(edges)
    for b, val in enumerate(per_bin):
        rows.append(PipelineRow(f"dyson-rho1-bin{b}", float(val),
                                f"within {tol1} of 1", bool(abs(val - 1.0) < tol1)))
    edges2 = np.arange(_real(sec, "rho2_edges_start"), _real(sec, "rho2_edges_stop") + 1e-9,
                       _real(sec, "rho2_bin_width"))
    return rows + _rho2_rows("dyson", samples, edges2, sec, 400,
                             lambda s: 1.0 - np.sinc(s) ** 2)


def _run_ginibre(cfg, seed: int, extra: dict) -> list[PipelineRow]:
    sec = cfg["pipeline"]
    spec = build_spec(DPPSpec, sec, "[pipeline]", kernel="ginibre")
    replicas = _count(sec, "replicas")
    samples = [sample_ginibre(spec, seed * 27644437 + i) for i in range(replicas)]
    tol1 = _real(sec, "rho1_tolerance")
    rho1 = mean_intensity(samples)
    target = 1.0 / math.pi
    rows = [PipelineRow("ginibre-rho1", float(rho1), f"within {tol1} rel of 1/pi",
                        bool(abs(rho1 - target) / target < tol1))]
    return rows + _rho2_rows("ginibre", samples, np.arange(0.25, 3.5, 0.5), sec, 200,
                             lambda s: (1.0 - np.exp(-s**2)) / math.pi**2)


def _run_nonexplosion(cfg, seed: int, extra: dict) -> list[PipelineRow]:
    sec = cfg["pipeline"]
    d = sec.getint("dimension", 1)
    rate = _real(sec, "exponential_rate", 0.5)
    cases = [
        ("constant-intensity", constant_log_profile(1.0), "satisfied"),
        (f"exp-{rate}-growth", exponential_log_profile(rate), "satisfied"),
        ("gaussian-growth", gaussian_growth_log_profile(), "not-satisfied"),
    ]
    rows = []
    for name, profile, expected in cases:
        verdict, _ = nonexplosion_scan(profile, d)
        rows.append(PipelineRow(
            f"criterion-{name}", 1.0 if verdict == expected else 0.0,
            f"verdict {expected}", verdict == expected,
        ))
    err = abs(ell(0.0) - 0.5)
    rows.append(PipelineRow("ell-at-zero", err, "<= 1e-15", err <= 1e-15))
    return rows


def iota_sweep(rng, n_pairs: int, h: float) -> FormReport:
    """Frame-change identity over n_pairs random 1-labeled pairs f, g, each at
    a random tagged point with 2-4 background points; returns the report of
    the worst pair, the first NaN if any, counting every pair in n_samples."""
    if n_pairs < 1:
        raise ConfigError(f"the iota sweep needs at least 1 pair, got {n_pairs}")
    reports = []
    for _ in range(n_pairs):
        f = random_cylinder(rng, 1, 1)
        g = random_cylinder(rng, 1, 1)
        x = rng.uniform(-1, 1, size=(1, 1))
        pts = rng.uniform(-1.5, 1.5, size=(int(rng.integers(2, 5)), 1))
        reports.append(check_iota_identity(f, g, x, pts, h=h))
    # argmax takes the first maximum, and a NaN before any number
    worst = reports[int(np.argmax([r.max_residual for r in reports]))]
    worst.n_samples = n_pairs
    return worst


def product_check(sampler_seed: int, seed: int, n_pointwise: int, n_samples: int,
                  h: float) -> FormReport:
    """Tensor-product formula, pointwise and integrated, for a bump times a
    Gaussian linear statistic over Poisson(0.8) on the length-4 torus."""
    if n_pointwise < 1 or n_samples < 2:
        raise ConfigError("the product check needs at least 1 pointwise sample and "
                          f"2 Monte Carlo samples, got {n_pointwise} and {n_samples}")
    sampler = make_poisson_sampler(Domain(1, "torus", 4.0), 0.8, sampler_seed)
    return check_product_formula(
        Bump(1.5, 1), LinearStatistic(Gaussian(0.8, [0.5], 0.9)), sampler,
        n_pointwise=n_pointwise, n_samples=n_samples, h=h, seed=seed,
    )


def _run_forms(cfg, seed: int, extra: dict) -> list[PipelineRow]:
    sec = cfg["pipeline"]
    # every count is checked before any work: a zero would pass checking nothing
    n_pairs = _count(sec, "iota_pairs")
    n_pointwise = _count(sec, "pointwise_samples")
    n_samples = _count(sec, "mc_samples", least=2)
    n_oracle = _count(sec, "oracle_samples")
    n_contraction = _count(sec, "contraction_instances")
    cap = _count(sec, "idempotence_max_points")
    if cap > EXACT_CAP:
        raise ConfigError(f"idempotence_max_points must be at most {EXACT_CAP}, got {cap}")
    rng = np.random.default_rng(seed)
    rows = []

    worst = iota_sweep(rng, n_pairs, _real(sec, "iota_h")).max_residual
    thr = _real(sec, "iota_threshold")
    rows.append(PipelineRow("iota-identity-max-residual", worst, f"< {thr}",
                            worst < thr))

    report = product_check(seed + 13, seed + 29, n_pointwise, n_samples,
                           _real(sec, "product_h"))
    thr = _real(sec, "product_threshold")
    rows.append(PipelineRow("product-pointwise-max-residual", report.max_residual,
                            f"< {thr}", report.max_residual < thr))
    z = report.extra["mc_z"]
    rows.append(PipelineRow("product-integrated-mc-z", z, "|z| < 3", abs(z) < 3.0))

    # finite differences against the analytic-gradient oracle
    rel_errs = []
    for _ in range(n_oracle):
        f = random_cylinder(rng, 1, 1)
        g = random_cylinder(rng, 1, 1)
        x = rng.uniform(-1, 1, size=(1, 1))
        pts = rng.uniform(-1.5, 1.5, size=(3, 1))
        fd = gamma_k(f, g, x, pts, h=1e-5)
        exact = gamma_k(f, g, x, pts, analytic=True)
        rel_errs.append(abs(fd - exact) / (1.0 + abs(exact)))
    worst_rel = float(np.max(rel_errs))  # a NaN is the maximum, so the row fails
    thr = _real(sec, "oracle_threshold")
    rows.append(PipelineRow("gamma-oracle-max-rel-err", worst_rel, f"< {thr}",
                            worst_rel < thr))

    # symmetrization: exact idempotence (full composition for small m, the
    # equivalent bitwise permutation invariance up to the cap: identical
    # values make re-averaging return them unchanged)
    idem_exact = True
    for m in (3, 4, 5):
        h_fn = random_cylinder(rng, 1, 1)
        x = rng.uniform(-1, 1, size=(1, 1))
        pts = rng.uniform(-1.5, 1.5, size=(m - 1, 1))
        once = symmetrize(h_fn, x, pts)
        twice = symmetrize(symmetrized(h_fn), x, pts)
        idem_exact = idem_exact and (once == twice)
    h_fn = LinearStatistic(Gaussian(1.0, [0.2], 0.9)) + LinearStatistic(
        Gaussian(-0.5, [-0.4], 1.3)
    )
    sym = symmetrized(h_fn)
    for m in range(6, cap + 1):
        stacked = rng.uniform(-1.5, 1.5, size=(m, 1))
        base = sym.value(stacked[:1], stacked[1:])
        for _ in range(3):
            perm = rng.permutation(m)
            val = sym.value(stacked[perm][:1], stacked[perm][1:])
            idem_exact = idem_exact and (val == base)
    rows.append(PipelineRow("symmetrize-idempotent", 1.0 if idem_exact else 0.0,
                            "exact", idem_exact))

    # energy contraction on random instances (analytic gradients: the
    # inequality is exact, no discretization slack needed)
    violations = 0
    for _ in range(n_contraction):
        h_fn = random_cylinder(rng, 1, 1)
        x = rng.uniform(-1, 1, size=(1, 1))
        pts = rng.uniform(-1.5, 1.5, size=(int(rng.integers(2, 4)), 1))
        raw = exchange_energy(h_fn, x, pts, analytic=True)
        sym_e = exchange_energy(symmetrized(h_fn), x, pts, analytic=True)
        if sym_e > raw + 1e-12 * (1.0 + abs(raw)):
            violations += 1
    rows.append(PipelineRow("symmetrize-energy-contraction-violations",
                            float(violations), "== 0", violations == 0))
    return rows


_RUNNERS = {
    "thm24-identity": _run_thm24,
    "thm27-environment": _run_thm27,
    "dyson-correlations": _run_dyson,
    "ginibre-correlations": _run_ginibre,
    "nonexplosion-suite": _run_nonexplosion,
    "forms-suite": _run_forms,
}


def run_pipeline(name: str, config_text: str | None = None,
                 seed: int | None = None, out_dir=None) -> PipelineResult:
    """Execute a named pipeline; deterministic given (config, seed).

    Writes `<name>.tsv` (byte-stable report) and `<name>.manifest.json` under
    out_dir when given; returns the result with one row per assertion.
    """
    if name not in _RUNNERS:
        raise ConfigError(f"unknown pipeline {name!r}; choose from {PIPELINES}")
    text = config_text if config_text is not None else DEFAULT_CONFIGS[name]
    cfg = parse_config(text)
    if "pipeline" not in cfg:
        raise ConfigError("pipeline config needs a [pipeline] section")
    run_seed = seed if seed is not None else cfg["pipeline"].getint("seed", 0)

    import time as _time

    started = _time.time()
    result = PipelineResult(name=name, seed=run_seed, config_text=text)
    result.rows = _RUNNERS[name](cfg, run_seed, result.extra)

    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        report_path = os.path.join(out_dir, f"{name}.tsv")
        sha = config_sha256(text)
        write_tsv(
            report_path,
            [f"ibm-sim report pipeline={name}", f"config_sha256={sha}",
             f"seed={run_seed}", f"manifest={name}.manifest.json"],
            ["check", "value", "threshold", "status"],
            [r.as_tuple() for r in result.rows],
        )
        record = manifest({
            "config_text": text, "seed": run_seed, "started": started,
            "finished": _time.time(), "outputs": [report_path], "extra": result.extra,
        })
        write_manifest(record, os.path.join(out_dir, f"{name}.manifest.json"))
    return result
