"""Named end-to-end experiment pipelines wiring samplers, dynamics, tagged
views, forms and analysis into reproducible reports. Pipelines are data: each
name maps to a default plain-text config, and user configs go through the
same runner, so test runs and user runs share one path."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .analysis import (
    constant_log_profile,
    disk_separation_weight,
    ell,
    exponential_log_profile,
    gaussian_growth_log_profile,
    mean_intensity,
    nonexplosion_scan,
    pair_correlation_disk,
    pair_correlation_separation,
)
from .configuration import Configuration, Domain, KLabeledState, label
from .cylinder import (
    Bump,
    Gaussian,
    LinearStatistic,
    random_cylinder,
)
from .dynamics import SimParams, simulate, simulate_k_labeled
from .errors import ConfigError
from .forms import (
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
    make_gibbs_sampler,
    make_poisson_sampler,
    palm_condition,
    sample_dyson_sine,
    sample_ginibre,
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
thin = 50
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


# ---------------------------------------------------------------------------
# path functionals for the labeled/unlabeled identity check
# ---------------------------------------------------------------------------

def _path_functionals(positions: np.ndarray) -> dict[str, float]:
    """Five symmetric functionals of the unlabeled path (T, N, d)."""
    radii_sq = np.sum(positions**2, axis=2)
    final = positions[-1]
    diff = final[:, None, :] - final[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    iu = np.triu_indices(positions.shape[1], k=1)
    gauss = np.exp(-np.sum(
        (positions[:, :, None, :] - positions[:, None, :, :]) ** 2, axis=-1
    ))
    return {
        "sum_sq_final": float(radii_sq[-1].sum()),
        "min_gap_final": float(dist[iu].min()) if iu[0].size else 0.0,
        "mean_sum_sq": float(radii_sq.sum(axis=1).mean()),
        "sup_radius": float(np.sqrt(radii_sq).max()),
        "mean_gauss_pair": float(gauss[:, iu[0], iu[1]].mean()) if iu[0].size else 0.0,
    }


def _run_thm24(cfg, seed: int) -> list[PipelineRow]:
    sec = cfg["pipeline"]
    replicas = sec.getint("replicas")
    n_values = [int(v) for v in sec.get("n_values").split(",")]
    k_values = [int(v) for v in sec.get("k_values").split(",")]
    p_threshold = sec.getfloat("p_threshold", 0.01)
    params_base = dict(
        dt=sec.getfloat("dt"), t_end=sec.getfloat("t_end"), stride=sec.getint("stride")
    )
    pot = build_potentials(cfg)
    dom = Domain(1, "free", 50.0)

    rows = []
    for n in n_values:
        start = Configuration(np.linspace(-1.2, 1.2, n)[:, None], dom)
        names = list(_path_functionals(np.zeros((1, n, 1))).keys())

        def run_arm(arm_index: int, k: int) -> np.ndarray:
            out = np.empty((replicas, len(names)))
            for rep in range(replicas):
                run_seed = seed * 4_000_037 + arm_index * 1_000_003 + n * 101 + rep
                params = SimParams(seed=run_seed, **params_base)
                if k == 0:
                    state = label(start, "lexicographic")
                    traj = simulate(state, pot, params)
                else:
                    ordered = label(start, "distance-from-origin")
                    tagged = ordered.points[:k]
                    background = Configuration(ordered.points[k:], dom, validate=False)
                    traj = simulate_k_labeled(
                        KLabeledState(tagged, background), pot, params
                    )
                values = _path_functionals(traj.positions)
                out[rep] = [values[name] for name in names]
            return out

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


def _run_thm27(cfg, seed: int) -> list[PipelineRow]:
    sec = cfg["pipeline"]
    replicas = sec.getint("replicas")
    intensity = sec.getfloat("intensity")
    size = sec.getfloat("domain_size")
    params_base = dict(
        dt=sec.getfloat("dt"), t_end=sec.getfloat("t_end"), stride=sec.getint("stride")
    )
    dom = Domain(1, "torus", size)
    delta = 0.01 / intensity
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

    rows = []
    setups = [("free", PotentialSpec(), make_poisson_sampler(dom, intensity, seed))]
    psi_strength = sec.getfloat("psi_strength", 0.0)
    if psi_strength > 0:
        pot = PotentialSpec(psi="soft_core", psi_strength=psi_strength,
                            psi_range=sec.getfloat("psi_range", 1.0), r_cut=3.0)
        spec = GibbsSpec(pot, beta=1.0, activity=sec.getfloat("activity", intensity),
                         burn_in=sec.getint("burn_in", 20000),
                         thin=sec.getint("thin", 50))
        setups.append(("interacting", pot, make_gibbs_sampler(spec, dom, seed + 1)))

    for label_name, pot, sampler in setups:
        n_reps = replicas if label_name == "free" else sec.getint(
            "interacting_replicas", replicas
        )
        worst = 0.0
        starts, ends = np.empty(n_reps), np.empty(n_reps)
        for rep in range(n_reps):
            state = palm_condition(sampler, origin, delta, seed=seed * 7919 + rep)
            params = SimParams(seed=seed * 104729 + rep, **params_base)
            traj = simulate_k_labeled(state, pot, params)
            w, g0, g1 = environment_observable(traj)
            worst = max(worst, w)
            starts[rep], ends[rep] = g0, g1
        diffs = ends - starts
        se = diffs.std(ddof=1) / math.sqrt(n_reps)
        z = diffs.mean() / se if se > 0 else 0.0
        rows.append(PipelineRow(f"pathwise-iota-identity-{label_name}", worst,
                                "== 0", worst == 0.0))
        rows.append(PipelineRow(f"environment-stationarity-z-{label_name}",
                                float(z), "|z| < 3", bool(abs(z) < 3.0)))
    return rows


def _run_dyson(cfg, seed: int) -> list[PipelineRow]:
    sec = cfg["pipeline"]
    spec = DPPSpec("sine", sec.getint("n_matrix"), sec.getfloat("window_radius"))
    replicas = sec.getint("replicas")
    samples = [sample_dyson_sine(spec, seed * 31337 + i) for i in range(replicas)]
    rows = []

    tol1 = sec.getfloat("rho1_tolerance")
    rho1, _ = mean_intensity(samples)
    rows.append(PipelineRow("dyson-rho1", float(rho1), f"within {tol1} of 1",
                            bool(abs(rho1 - 1.0) < tol1)))
    # per-bin intensity flatness across the window
    edges = np.linspace(-spec.window_radius, spec.window_radius,
                        sec.getint("rho1_bins") + 1)
    hist = np.array([np.histogram(s.points[:, 0], bins=edges)[0] for s in samples])
    per_bin = hist.mean(axis=0) / np.diff(edges)
    for b, val in enumerate(per_bin):
        rows.append(PipelineRow(f"dyson-rho1-bin{b}", float(val),
                                f"within {tol1} of 1", bool(abs(val - 1.0) < tol1)))

    w = spec.window_radius
    edges2 = np.arange(sec.getfloat("rho2_edges_start"),
                       sec.getfloat("rho2_edges_stop") + 1e-9,
                       sec.getfloat("rho2_bin_width"))
    centers, values, _, counts = pair_correlation_separation(samples, edges2, n_boot=2)
    tol2 = sec.getfloat("rho2_tolerance")
    min_count = sec.getint("min_pair_count")
    for j, center in enumerate(centers):
        if counts[j] < min_count:
            continue
        grid = np.linspace(edges2[j], edges2[j + 1], 400)
        weight = 2.0 * (2.0 * w - grid)
        pred = float(np.trapezoid(weight * (1.0 - np.sinc(grid) ** 2), grid)
                     / np.trapezoid(weight, grid))
        rel = abs(values[j] - pred) / pred
        rows.append(PipelineRow(f"dyson-rho2-s{center:.3g}", float(rel),
                                f"< {tol2}", bool(rel < tol2)))
    return rows


def _run_ginibre(cfg, seed: int) -> list[PipelineRow]:
    sec = cfg["pipeline"]
    spec = DPPSpec("ginibre", sec.getint("n_matrix"), sec.getfloat("window_radius"))
    replicas = sec.getint("replicas")
    samples = [sample_ginibre(spec, seed * 27644437 + i) for i in range(replicas)]
    rows = []
    tol1 = sec.getfloat("rho1_tolerance")
    rho1, _ = mean_intensity(samples)
    target = 1.0 / math.pi
    rows.append(PipelineRow("ginibre-rho1", float(rho1),
                            f"within {tol1} rel of 1/pi",
                            bool(abs(rho1 - target) / target < tol1)))
    edges = np.arange(0.25, 3.5, 0.5)
    centers, values, _, counts = pair_correlation_disk(samples, edges, n_boot=2)
    tol2 = sec.getfloat("rho2_tolerance")
    for j, center in enumerate(centers):
        if counts[j] < sec.getint("min_pair_count"):
            continue
        grid = np.linspace(edges[j], edges[j + 1], 200)
        weight = disk_separation_weight(grid, spec.window_radius)
        pred_density = (1.0 - np.exp(-grid**2)) / math.pi**2
        pred = float(np.trapezoid(weight * pred_density, grid)
                     / np.trapezoid(weight, grid))
        rel = abs(values[j] - pred) / pred
        rows.append(PipelineRow(f"ginibre-rho2-s{center:.3g}", float(rel),
                                f"< {tol2}", bool(rel < tol2)))
    return rows


def _run_nonexplosion(cfg, seed: int) -> list[PipelineRow]:
    sec = cfg["pipeline"]
    d = sec.getint("dimension", 1)
    rate = sec.getfloat("exponential_rate", 0.5)
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
    the worst pair, counting every pair in n_samples."""
    if n_pairs < 1:
        raise ConfigError(f"the iota sweep needs at least 1 pair, got {n_pairs}")
    worst = None
    for _ in range(n_pairs):
        f = random_cylinder(rng, 1, 1)
        g = random_cylinder(rng, 1, 1)
        x = rng.uniform(-1, 1, size=(1, 1))
        pts = rng.uniform(-1.5, 1.5, size=(int(rng.integers(2, 5)), 1))
        report = check_iota_identity(f, g, x, pts, h=h)
        if worst is None or report.max_residual > worst.max_residual:
            worst = report
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


def _count(sec, key: str, least: int = 1) -> int:
    n = sec.getint(key)
    if n < least:
        raise ConfigError(f"{key} must be at least {least}, got {n}")
    return n


def _run_forms(cfg, seed: int) -> list[PipelineRow]:
    sec = cfg["pipeline"]
    # every count is checked before any work: a zero would pass checking nothing
    n_pairs = _count(sec, "iota_pairs")
    n_pointwise = _count(sec, "pointwise_samples")
    n_mc = _count(sec, "mc_samples", least=2)
    n_oracle = _count(sec, "oracle_samples")
    n_contraction = _count(sec, "contraction_instances")
    rng = np.random.default_rng(seed)
    rows = []

    worst = iota_sweep(rng, n_pairs, sec.getfloat("iota_h")).max_residual
    thr = sec.getfloat("iota_threshold")
    rows.append(PipelineRow("iota-identity-max-residual", worst, f"< {thr}",
                            worst < thr))

    report = product_check(seed + 13, seed + 29, n_pointwise, n_mc,
                           sec.getfloat("product_h"))
    thr = sec.getfloat("product_threshold")
    rows.append(PipelineRow("product-pointwise-max-residual", report.max_residual,
                            f"< {thr}", report.max_residual < thr))
    z = report.extra["mc_z"]
    rows.append(PipelineRow("product-integrated-mc-z", float(z), "|z| < 3",
                            bool(abs(z) < 3.0)))

    # finite differences against the analytic-gradient oracle
    worst_rel = 0.0
    for _ in range(n_oracle):
        f = random_cylinder(rng, 1, 1)
        g = random_cylinder(rng, 1, 1)
        x = rng.uniform(-1, 1, size=(1, 1))
        pts = rng.uniform(-1.5, 1.5, size=(3, 1))
        fd = gamma_k(f, g, x, pts, h=1e-5)
        exact = gamma_k(f, g, x, pts, analytic=True)
        worst_rel = max(worst_rel, abs(fd - exact) / (1.0 + abs(exact)))
    thr = sec.getfloat("oracle_threshold")
    rows.append(PipelineRow("gamma-oracle-max-rel-err", worst_rel, f"< {thr}",
                            worst_rel < thr))

    # symmetrization: exact idempotence (full composition for small m, the
    # equivalent bitwise permutation invariance up to the cap: identical
    # values make re-averaging return them unchanged)
    cap = sec.getint("idempotence_max_points")
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
    for m in range(6, cap + 1):
        sym = symmetrized(h_fn, exact_cap=cap)
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
    rows = _RUNNERS[name](cfg, run_seed)
    result = PipelineResult(name=name, seed=run_seed, rows=rows, config_text=text)

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
            [r.as_tuple() for r in rows],
        )
        record = manifest({
            "config_text": text, "seed": run_seed, "started": started,
            "finished": _time.time(), "outputs": [report_path],
        })
        write_manifest(record, os.path.join(out_dir, f"{name}.manifest.json"))
    return result
