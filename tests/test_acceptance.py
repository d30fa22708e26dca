"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing a pass/fail line. Stochastic checks pin their replica
counts and seeds, so reruns are deterministic.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete."""

import math
import time

import numpy as np
import pytest

from ibmsim.analysis import campbell_check, ell, estimate_rho, pushforward_check
from ibmsim.configuration import (
    Configuration,
    Domain,
    KLabeledState,
    iota,
    iota_inverse,
    kappa,
    label,
)
from ibmsim.dynamics import SimParams, compute_drift, simulate
from ibmsim.configuration import LabeledState
from ibmsim.pipelines import run_pipeline
from ibmsim.pointprocess import (
    GibbsSpec,
    make_gibbs_sampler,
    make_poisson_sampler,
    sample_poisson,
)
from ibmsim.potentials import PotentialSpec


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def forms_suite():
    t0 = time.time()
    result = run_pipeline("forms-suite")
    return result, time.time() - t0


@pytest.fixture(scope="module")
def rows_by_name():
    def lookup(result, prefix):
        return {r.check: r for r in result.rows if r.check.startswith(prefix)}

    return lookup


class TestCriterion1MapAlgebra:
    def test_label_kappa_identity_and_iota_round_trip(self):
        rng = np.random.default_rng(20_240_001)
        dom = Domain(1, "torus", 8.0)
        n_configs = 10_000
        points = rng.uniform(0, 8, size=(n_configs, 4, 1))
        t0 = time.time()
        worst_iota = 0.0
        for i in range(n_configs):
            config = Configuration(points[i], dom, validate=False)
            relabeled = kappa(label(config, "lexicographic"))
            if not relabeled.same_points(config):
                report("criterion-1", False, f"label round trip broke at {i}")
            state = KLabeledState(points[i, :1], Configuration(points[i, 1:], dom,
                                                               validate=False))
            back = iota_inverse(iota(state))
            resid = float(np.max(np.abs(back.background.points - points[i, 1:])))
            worst_iota = max(worst_iota, resid)
        elapsed = time.time() - t0
        ok = worst_iota < 1e-12 and elapsed < 1.0
        report(
            "criterion-1 map algebra",
            ok,
            f"kappa∘label exact on {n_configs} configs, iota residual "
            f"{worst_iota:.2e} (< 1e-12), runtime {elapsed:.2f}s (< 1s)",
        )


class TestCriterion2FormIdentities:
    def test_iota_and_product_identities(self, forms_suite, rows_by_name):
        result, elapsed = forms_suite
        rows = {r.check: r for r in result.rows}
        iota_row = rows["iota-identity-max-residual"]
        point_row = rows["product-pointwise-max-residual"]
        mc_row = rows["product-integrated-mc-z"]
        ok = (iota_row.passed and point_row.passed and mc_row.passed
              and elapsed < 60.0)
        report(
            "criterion-2 form identities",
            ok,
            f"frame-change residual {iota_row.value:.2e} (< 1e-5) over 200 pairs, "
            f"product pointwise {point_row.value:.2e} (< 1e-5), "
            f"integrated MC z {mc_row.value:.2f} (|z|<3, 1e4 samples), "
            f"runtime {elapsed:.1f}s (< 60s)",
        )


class TestCriterion3Symmetrization:
    def test_idempotence_and_contraction(self, forms_suite):
        result, elapsed = forms_suite
        rows = {r.check: r for r in result.rows}
        idem = rows["symmetrize-idempotent"]
        contraction = rows["symmetrize-energy-contraction-violations"]
        ok = idem.passed and contraction.passed and elapsed < 60.0
        report(
            "criterion-3 symmetrization",
            ok,
            f"idempotence exact up to m=8: {bool(idem.value)}, contraction "
            f"violations {int(contraction.value)}/100 (== 0), "
            f"runtime {elapsed:.1f}s (< 60s)",
        )


class TestCriterion4CorrelationOracles:
    def test_poisson_rho1_rho2(self):
        dom = Domain(1, "torus", 10.0)
        lam = 2.0
        samples = [sample_poisson(dom, lam, 40_000 + s) for s in range(10_000)]
        est1 = estimate_rho(samples, 1, np.linspace(0, 10, 6), seed=1)
        z1 = np.max(np.abs(est1.values - lam) / est1.stderr)
        est2 = estimate_rho(samples, 2, np.linspace(0, 10, 5), seed=2)
        z2 = np.max(np.abs(est2.values - lam**2) / est2.stderr)
        ok = z1 < 3.0 and z2 < 3.0
        report(
            "criterion-4a Poisson correlations",
            ok,
            f"rho1 max |z| {z1:.2f}, rho2 max |z| {z2:.2f} (both < 3, 1e4 replicas)",
        )

    def test_dyson_rho2(self):
        result = run_pipeline("dyson-correlations")
        rho2_rows = [r for r in result.rows if r.check.startswith("dyson-rho2")]
        ok = result.passed and len(rho2_rows) >= 3
        worst = max(r.value for r in rho2_rows)
        report(
            "criterion-4b Dyson sine-kernel",
            ok,
            f"{len(rho2_rows)} bins with >= 200 pairs, worst rel dev "
            f"{worst:.3f} (< 0.05), N_mat=500, 200 replicas",
        )

    def test_ginibre_rho1(self):
        result = run_pipeline("ginibre-correlations")
        row = [r for r in result.rows if r.check == "ginibre-rho1"][0]
        rel = abs(row.value - 1 / math.pi) * math.pi
        report(
            "criterion-4c Ginibre intensity",
            row.passed,
            f"rho1 {row.value:.4f} vs 1/pi, rel dev {rel:.3f} (< 0.05)",
        )


class TestCriterion5Campbell:
    def test_poisson_and_gibbs(self):
        t0 = time.time()
        dom = Domain(1, "torus", 10.0)
        poisson = [sample_poisson(dom, 2.0, 90_000 + s) for s in range(10_000)]
        gibbs_spec = GibbsSpec(
            PotentialSpec(psi="soft_core", psi_strength=0.8, psi_range=0.6, r_cut=3.0),
            activity=1.5, burn_in=5_000, thin=25,
        )
        sampler = make_gibbs_sampler(gibbs_spec, dom, seed=17)
        gibbs = [sampler(i) for i in range(10_000)]
        zs = {}
        for name, samples in (("poisson", poisson), ("gibbs", gibbs)):
            zs[f"{name} k=(1)"] = campbell_check(samples, [(0.0, 2.0)], [1]).z
            zs[f"{name} k=(1,1)"] = campbell_check(
                samples, [(0.0, 2.0), (4.0, 6.0)], [1, 1]
            ).z
        elapsed = time.time() - t0
        worst = max(abs(z) for z in zs.values())
        ok = worst < 3.0 and elapsed < 60.0
        detail = ", ".join(f"{k}: z={v:.2f}" for k, v in zs.items())
        report(
            "criterion-5 Campbell identity",
            ok,
            f"{detail} (all |z| < 3, 1e4 replicas), runtime {elapsed:.1f}s (< 60s)",
        )


class TestCriterion6Pushforward:
    def test_poisson_and_hard_core(self):
        t0 = time.time()
        dom = Domain(1, "torus", 10.0)
        poisson = make_poisson_sampler(dom, 1.5, seed=23)
        hard = make_gibbs_sampler(
            GibbsSpec(
                PotentialSpec(psi="hard_core", hard_core_diameter=0.5),
                activity=1.5, burn_in=5_000, thin=20,
            ),
            dom, seed=29,
        )
        zs = {}
        for name, sampler in (("poisson", poisson), ("hard-core", hard)):
            for k in (1, 2):
                rep = pushforward_check(sampler, r=2.0, k=k, n_cap=12,
                                        replicas=10_000, seed=100 + k)
                zs[f"{name} k={k}"] = rep.z
        elapsed = time.time() - t0
        worst = max(abs(z) for z in zs.values())
        ok = worst < 3.0 and elapsed < 120.0
        detail = ", ".join(f"{k}: z={v:.2f}" for k, v in zs.items())
        report(
            "criterion-6 pushforward identity",
            ok,
            f"{detail} (all |z| < 3, N_cap=12, 1e4 replicas), "
            f"runtime {elapsed:.1f}s (< 120s)",
        )


class TestCriterion7LabeledUnlabeledIdentity:
    def test_labeled_unlabeled_pipeline(self):
        t0 = time.time()
        result = run_pipeline("thm24-identity")
        elapsed = time.time() - t0
        min_p = min(r.value for r in result.rows)
        ok = result.passed and elapsed < 300.0
        report(
            "criterion-7 labeled/unlabeled identity",
            ok,
            f"{len(result.rows)} KS tests (5 functionals x N in {{3,8}} x k in "
            f"{{1,2}}), min p {min_p:.3f} (> 0.01, 2e3 replicas), "
            f"runtime {elapsed:.1f}s (< 300s)",
        )


class TestCriterion8Environment:
    def test_environment_pipeline(self):
        t0 = time.time()
        result = run_pipeline("thm27-environment")
        elapsed = time.time() - t0
        rows = {r.check: r for r in result.rows}
        path_free = rows["pathwise-iota-identity-free"]
        path_int = rows["pathwise-iota-identity-interacting"]
        z_free = rows["environment-stationarity-z-free"]
        z_int = rows["environment-stationarity-z-interacting"]
        ok = result.passed and elapsed < 300.0
        report(
            "criterion-8 environment process",
            ok,
            f"pathwise identity exact (max dev {path_free.value:.1e}, "
            f"{path_int.value:.1e}), stationarity z {z_free.value:.2f} / "
            f"{z_int.value:.2f} (|z| < 3), runtime {elapsed:.1f}s (< 300s)",
        )


class TestCriterion9NonExplosion:
    def test_verdicts_and_ell(self):
        t0 = time.time()
        result = run_pipeline("nonexplosion-suite")
        elapsed = time.time() - t0
        ell_err = abs(ell(0.0) - 0.5)
        ok = result.passed and ell_err <= 1e-15 and elapsed < 1.0
        verdicts = ", ".join(
            r.check.replace("criterion-", "") for r in result.rows if r.passed
        )
        report(
            "criterion-9 non-explosion criterion",
            ok,
            f"verdicts reproduced ({verdicts}), ell(0) error {ell_err:.1e} "
            f"(<= 1e-15), runtime {elapsed:.2f}s (< 1s)",
        )


class TestCriterion10DynamicsCalibration:
    def test_calibrations(self):
        t0 = time.time()
        details = []

        # free-particle MSD slope over 1e4 replicas
        dom = Domain(2, "free", 100.0)
        state = LabeledState(np.zeros((10_000, 2)), dom)
        traj = simulate(state, PotentialSpec(),
                        SimParams(dt=1e-2, t_end=1.0, seed=77, stride=25))
        slope = float(np.mean(
            np.sum((traj.positions[-1] - traj.positions[0]) ** 2, axis=1)
        )) / traj.times[-1]
        msd_ok = abs(slope - 2.0) / 2.0 < 0.02
        details.append(f"MSD slope {slope:.4f} vs 2 ({abs(slope-2)/2:.1%} < 2%)")

        # Ornstein-Uhlenbeck stationary variance: D/(2a) = 1/2
        dom1 = Domain(1, "free", 100.0)
        state = LabeledState(np.zeros((40_000, 1)), dom1)
        traj = simulate(state, PotentialSpec(phi="harmonic"),
                        SimParams(dt=2e-3, t_end=5.0, seed=78, stride=500))
        var = float(traj.positions[-1, :, 0].var())
        ou_ok = abs(var - 0.5) / 0.5 < 0.02
        details.append(f"OU variance {var:.4f} vs 0.5 ({abs(var-0.5)/0.5:.1%} < 2%)")

        # cell-list force equals brute force exactly for N <= 64
        rng = np.random.default_rng(79)
        domt = Domain(2, "torus", 10.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=1.3, psi_range=0.8, r_cut=2.5)
        cell_ok = True
        for n in (8, 33, 64):
            st = LabeledState(rng.uniform(0, 10, size=(n, 2)), domt)
            cell_ok = cell_ok and np.array_equal(
                compute_drift(st, pot, cell_size=None),
                compute_drift(st, pot, cell_size=2.5),
            )
        details.append(f"cell-list == brute force exactly (N up to 64): {cell_ok}")

        # hard-core invariant over 1e6 accepted steps
        domh = Domain(1, "torus", 12.0)
        hard = PotentialSpec(psi="hard_core", hard_core_diameter=0.5)
        state = LabeledState(np.arange(6)[:, None] * 2.0, domh)
        traj = simulate(state, hard,
                        SimParams(dt=1e-4, t_end=100.0, seed=80, stride=10_000))
        gap = traj.diagnostics["min_pair_gap"]
        hc_ok = gap >= 0.5
        details.append(f"hard-core min gap over 1e6 steps {gap:.4f} (>= 0.5)")

        elapsed = time.time() - t0
        ok = msd_ok and ou_ok and cell_ok and hc_ok and elapsed < 300.0
        report(
            "criterion-10 dynamics calibration",
            ok,
            "; ".join(details) + f"; runtime {elapsed:.1f}s (< 300s)",
        )


MINI_CONFIGS = {
    "thm24-identity": """\
[pipeline]
name = thm24-identity
seed = 1
replicas = 25
n_values = 3
k_values = 1
dt = 2e-3
t_end = 0.05
stride = 10
p_threshold = 0.0001

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
seed = 2
replicas = 8
intensity = 1.0
domain_size = 8.0
dt = 1e-3
t_end = 0.05
stride = 10
psi_strength = 0
""",
    "dyson-correlations": """\
[pipeline]
name = dyson-correlations
seed = 3
n_matrix = 80
replicas = 10
window_radius = 4.0
rho1_bins = 2
rho1_tolerance = 0.5
rho2_edges_start = 0.5
rho2_edges_stop = 3.5
rho2_bin_width = 1.5
rho2_tolerance = 0.5
min_pair_count = 10
""",
    "ginibre-correlations": """\
[pipeline]
name = ginibre-correlations
seed = 4
n_matrix = 80
replicas = 10
window_radius = 4.0
rho1_tolerance = 0.5
rho2_tolerance = 0.5
min_pair_count = 10
""",
    "nonexplosion-suite": None,  # defaults are already fast
    "forms-suite": """\
[pipeline]
name = forms-suite
seed = 5
iota_pairs = 5
iota_h = 1e-4
iota_threshold = 1e-5
pointwise_samples = 5
mc_samples = 100
product_h = 1e-4
product_threshold = 1e-5
oracle_samples = 5
oracle_threshold = 1e-6
contraction_instances = 5
idempotence_max_points = 6
""",
}


class TestCriterion11Determinism:
    def test_pipeline_reports_byte_identical(self, tmp_path):
        from ibmsim.pipelines import PIPELINES

        identical = True
        for name in PIPELINES:
            cfg = MINI_CONFIGS[name]
            out_a = tmp_path / f"{name}-a"
            out_b = tmp_path / f"{name}-b"
            run_pipeline(name, cfg, out_dir=str(out_a))
            run_pipeline(name, cfg, out_dir=str(out_b))
            a = (out_a / f"{name}.tsv").read_bytes()
            b = (out_b / f"{name}.tsv").read_bytes()
            identical = identical and a == b
        report(
            "criterion-11 determinism",
            identical,
            "all six pipelines reproduce byte-identical reports on rerun",
        )


class _ShiftedObservable:
    """Stands in for the stationarity observable: every replica reads 1.0 at
    the start frame and exactly 0.1 more at the end frame."""

    def __init__(self, block):
        self.calls = 0

    def value(self, x, pts):
        self.calls += 1
        start = 1.0
        return start if self.calls % 2 else start + 0.1


class TestStationarityConstantShift:
    def test_constant_shift_fails(self, monkeypatch):
        import ibmsim.pipelines as pipelines

        monkeypatch.setattr(pipelines, "LinearStatistic", _ShiftedObservable)
        result = run_pipeline("thm27-environment", MINI_CONFIGS["thm27-environment"])
        row = {r.check: r for r in result.rows}["environment-stationarity-z-free"]
        assert not row.passed and row.value > 1e6


THM27_TWO_ARMS = """\
[pipeline]
name = thm27-environment
seed = 2
replicas = 3
interacting_replicas = 2
intensity = 1.0
activity = 1.0
domain_size = 6.0
dt = 1e-3
t_end = 0.01
stride = 5
psi_strength = 0.6
psi_range = 0.7
burn_in = 40
"""


class TestThm27ArmSeeds:
    @pytest.mark.xfail(strict=True, reason="both arms integrate replica r with seed "
                       "seed*104729 + r; ROADMAP direction 6 gives every child seed one "
                       "rule, a declared stream change")
    def test_arms_integrate_with_disjoint_seeds(self, monkeypatch):
        import ibmsim.pipelines as pipelines

        seen = []
        simulate_batch = pipelines._simulate_batch

        def spy(states, pot, params, seeds):
            seen.append([int(s) for s in seeds])
            return simulate_batch(states, pot, params, seeds)

        monkeypatch.setattr(pipelines, "_simulate_batch", spy)
        run_pipeline("thm27-environment", THM27_TWO_ARMS)
        assert len(seen) == 2
        assert not set(seen[0]) & set(seen[1])
