import math

import numpy as np
import pytest
from scipy import integrate

from ibmsim.analysis import (
    campbell_check,
    constant_log_profile,
    ell,
    estimate_rho,
    explosion_scan,
    exponential_log_profile,
    gaussian_growth_log_profile,
    log_ell,
    log_radial_integral,
    mean_intensity,
    msd,
    nonexplosion_criterion,
    nonexplosion_scan,
    pair_correlation_separation,
    paired_z,
    pushforward_check,
)
from ibmsim.configuration import Configuration, Domain
from ibmsim.dynamics import SimParams, simulate
from ibmsim.errors import InsufficientSamples
from ibmsim.configuration import LabeledState
from ibmsim.pointprocess import (
    DPPSpec,
    GibbsSpec,
    make_gibbs_sampler,
    make_poisson_sampler,
    sample_dyson_sine,
    sample_poisson,
)
from ibmsim.pipelines import _path_functionals
from ibmsim.potentials import PotentialSpec


def same_bits(a, b):
    """Equal values with equal sign bits (so +0.0 and -0.0 differ)."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def triu_separation_counts(config, edges):
    """Ordered-pair counts per separation bin from the upper-triangle pairs,
    the form pair_correlation_separation had before it took the pair list."""
    i, j = np.triu_indices(len(config), k=1)
    sep = config.domain.distance(config.points[i], config.points[j])
    return 2.0 * np.histogram(sep, bins=edges)[0]


def dense_path_functionals(positions):
    """_path_functionals on a (T, N, N) array and an N x N distance matrix,
    the form it had before it took the pair list."""
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


def seeded_points(rng, shape):
    """Normal points; from three points on, two coincide and one has signed zeros."""
    pts = rng.normal(size=shape)
    if shape[-2] > 2:
        pts[..., 1, :] = pts[..., 0, :]
        pts[..., 2, :] *= -0.0
    return pts


class TestEstimateRho:
    def test_poisson_rho1(self):
        dom = Domain(1, "torus", 10.0)
        lam = 2.0
        samples = [sample_poisson(dom, lam, s) for s in range(3000)]
        est = estimate_rho(samples, 1, np.linspace(0, 10, 6), seed=1)
        assert np.all(np.abs(est.values - lam) < 3 * est.stderr + 1e-9)

    def test_poisson_rho2(self):
        dom = Domain(1, "torus", 10.0)
        lam = 2.0
        samples = [sample_poisson(dom, lam, 10_000 + s) for s in range(3000)]
        est = estimate_rho(samples, 2, np.linspace(0, 10, 5), seed=2)
        assert np.all(np.abs(est.values - lam**2) < 3 * est.stderr + 1e-9)

    def test_deterministic_configuration_concentrates(self):
        dom = Domain(1, "torus", 4.0)
        config = Configuration([0.1], dom)
        est = estimate_rho([config] * 50, 1, np.linspace(0, 4, 5), min_expected=0.0)
        assert est.values[0] == pytest.approx(1.0)  # count 1 / width 1
        assert np.all(est.values[1:] == 0.0)

    def test_insufficient_samples_guard(self):
        dom = Domain(1, "torus", 4.0)
        config = Configuration([0.1], dom)
        with pytest.raises(InsufficientSamples):
            estimate_rho([config] * 50, 1, np.linspace(0, 4, 5))

    def test_translation_covariance_on_torus(self):
        dom = Domain(1, "torus", 4.0)
        rng = np.random.default_rng(3)
        samples = [
            Configuration(rng.uniform(0, 4, size=(6, 1)), dom) for _ in range(200)
        ]
        edges = np.linspace(0, 4, 5)
        base = estimate_rho(samples, 1, edges, n_boot=2)
        shifted_samples = [
            Configuration(dom.wrap(s.points - 1.0), dom) for s in samples
        ]
        shifted = estimate_rho(shifted_samples, 1, edges, n_boot=2)
        assert np.allclose(np.roll(base.values, -1), shifted.values)

    def test_permutation_invariance(self):
        dom = Domain(1, "torus", 4.0)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 4, size=(6, 1))
        a = Configuration(pts, dom)
        b = Configuration(pts[::-1], dom)
        ea = estimate_rho([a] * 30, 1, np.linspace(0, 4, 3), n_boot=2, min_expected=0.0)
        eb = estimate_rho([b] * 30, 1, np.linspace(0, 4, 3), n_boot=2, min_expected=0.0)
        assert np.array_equal(ea.values, eb.values)


class TestDysonCorrelations:
    def test_rho2_matches_sine_kernel(self):
        spec = DPPSpec("sine", n_matrix=300, window_radius=8.0)
        samples = [sample_dyson_sine(spec, s) for s in range(100)]
        rho1 = mean_intensity(samples)
        assert rho1 * 16.0 / 16.0 == pytest.approx(1.0, rel=0.08)
        edges = np.arange(0.25, 4.01, 0.75)
        centers, values, counts = pair_correlation_separation(samples, edges)
        w = 8.0
        for j in range(len(centers)):
            if counts[j] < 200:
                continue
            grid = np.linspace(edges[j], edges[j + 1], 200)
            sinc = np.sinc(grid)  # sin(pi s)/(pi s)
            weight = 2.0 * (2.0 * w - grid)
            pred = np.trapezoid(weight * (1.0 - sinc**2), grid) / np.trapezoid(
                weight, grid
            )
            assert abs(values[j] - pred) / pred < 0.1


class TestPairCorrelationSeparation:
    @pytest.mark.parametrize("d", [1, 2])
    def test_pair_counts_match_double_loop(self, d):
        dom = Domain(d, "ball", 3.0)
        samples = [sample_poisson(dom, 1.5, 40 + s) for s in range(5)]
        edges = np.linspace(0.0, 6.0, 9)
        _, _, counts = pair_correlation_separation(samples, edges)
        expected = np.zeros(len(edges) - 1)
        for config in samples:
            pts = config.points
            for i in range(len(pts)):
                for j in range(len(pts)):
                    if i != j:
                        sep = np.sqrt(np.sum((pts[i] - pts[j]) ** 2))
                        expected[min(np.searchsorted(edges, sep, "right") - 1,
                                     len(edges) - 2)] += 1
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize("d", [1, 2])
    def test_counts_equal_upper_triangle_form(self, d):
        rng = np.random.default_rng(70 + d)
        dom = Domain(d, "ball", 3.0)
        edges = np.linspace(0.0, 6.0, 13)
        for n in range(10):
            for _ in range(20):
                pts = seeded_points(rng, (n, d))
                scale = 3.0 / max(1.0, float(np.sqrt(np.sum(pts**2, axis=1)).max(initial=0.0)))
                config = Configuration(pts * scale, dom)
                counts = pair_correlation_separation([config], edges)[2]
                assert same_bits(counts, triu_separation_counts(config, edges))

    def test_torus_rejected(self):
        samples = [sample_poisson(Domain(1, "torus", 10.0), 2.0, s) for s in range(3)]
        with pytest.raises(ValueError):
            pair_correlation_separation(samples, np.linspace(0.5, 4.5, 5))

    def test_poisson_in_disk(self):
        lam = 1.0
        dom = Domain(2, "ball", 3.0)
        samples = [sample_poisson(dom, lam, 100 + s) for s in range(1000)]
        edges = np.arange(0.25, 6.0, 0.5)
        _, values, counts = pair_correlation_separation(samples, edges)
        kept = counts >= 200
        assert kept.sum() >= 8
        assert np.all(np.abs(values[kept] / lam**2 - 1.0) < 0.1)


class TestPathFunctionals:
    @pytest.mark.parametrize("d", [1, 2])
    def test_equal_dense_form(self, d):
        rng = np.random.default_rng(90 + d)
        for n in range(10):
            for steps in range(1, 12):
                positions = seeded_points(rng, (steps, n, d))
                if n == 0:  # an empty path has no sup_radius in either form
                    for form in (_path_functionals, dense_path_functionals):
                        with pytest.raises(ValueError):
                            form(positions)
                    continue
                got, want = _path_functionals(positions), dense_path_functionals(positions)
                assert list(got) == list(want)
                for name in want:
                    assert same_bits(got[name], want[name]), name


class TestPairedZ:
    def test_identical_routes_read_zero(self):
        x = np.random.default_rng(5).normal(size=40)
        assert paired_z(x, x.copy()) == (0.0, 0.0)

    def test_constant_shift_fails(self):
        x = np.random.default_rng(6).normal(size=40)
        z, se = paired_z(x + 0.1, x)
        assert se < 1e-15 and z > 1e6


class TestDppIntensityIntegral:
    def test_integrated_rho1_equals_mean_window_count(self):
        # estimator route integral over the window vs the direct mean count
        spec = DPPSpec("sine", n_matrix=200, window_radius=6.0)
        samples = [sample_dyson_sine(spec, 700 + s) for s in range(60)]
        edges = np.linspace(-6.0, 6.0, 7)
        est = estimate_rho(samples, 1, edges, seed=3)
        integral = float(est.values @ np.diff(edges))
        mean_count = np.mean([len(s) for s in samples])
        se = np.std([len(s) for s in samples], ddof=1) / math.sqrt(len(samples))
        assert abs(integral - mean_count) < 3 * se + 1e-9


class TestCampbell:
    def test_poisson_order1(self):
        dom = Domain(1, "torus", 10.0)
        lam = 2.0
        samples = [sample_poisson(dom, lam, 5000 + s) for s in range(2000)]
        report = campbell_check(samples, [(0.0, 1.0)], [1])
        assert report.rhs == pytest.approx(lam, rel=0.1)
        assert abs(report.z) < 3.0

    def test_poisson_order_1_1(self):
        dom = Domain(1, "torus", 10.0)
        samples = [sample_poisson(dom, 2.0, 9000 + s) for s in range(2000)]
        report = campbell_check(samples, [(0.0, 1.5), (3.0, 4.5)], [1, 1])
        assert report.rhs == pytest.approx((2.0 * 1.5) ** 2, rel=0.15)
        assert abs(report.z) < 3.0

    @pytest.mark.parametrize("sets, ks", [
        ([(0.0, 1.5)], [1]), ([(0.0, 1.5), (3.0, 4.5)], [1, 1]), ([(1.0, 3.0)], [2]),
        ([(1.0, 3.0), (5.0, 6.0)], [2, 0]),
    ], ids=["1", "1,1", "2", "2,0"])
    def test_sides_are_the_half_means_of_the_count_products(self, sets, ks):
        dom = Domain(1, "torus", 8.0)
        samples = [sample_poisson(dom, 1.5, 700 + s) for s in range(301)]

        def products(half):
            out = []
            for s in half:
                x = s.points[:, 0]
                prod = 1
                for (lo, hi), k in zip(sets, ks):
                    prod *= math.perm(int(np.count_nonzero((x >= lo) & (x < hi))), k)
                out.append(float(prod))
            return np.array(out)

        report = campbell_check(samples, sets, ks)
        first, second = products(samples[:150]), products(samples[150:])
        assert report.lhs == first.mean() and report.rhs == second.mean()
        # the binned rho route integrated over bins tiling the set is the same sum
        (lo, hi), k = sets[0], ks[0]
        if len(sets) == 1 or ks[1] == 0:
            edges = np.linspace(lo, hi, 5)
            est = estimate_rho(samples[:150], k, edges, n_boot=2, min_expected=0.0)
            widths = np.diff(edges)
            area = widths if k == 1 else np.outer(widths, widths)
            assert float(np.sum(est.values * area)) == pytest.approx(report.lhs, rel=1e-12)

    def test_halves_at_different_intensities_fail(self):
        dom = Domain(1, "torus", 8.0)
        samples = ([sample_poisson(dom, 1.5, s) for s in range(400)]
                   + [sample_poisson(dom, 2.5, 1000 + s) for s in range(400)])
        for sets, ks in (([(0.0, 2.0)], [1]), ([(0.0, 2.0), (4.0, 6.0)], [1, 1])):
            assert abs(campbell_check(samples, sets, ks).z) > 3.0

    def test_sparse_order_one_is_reported(self):
        dom = Domain(1, "torus", 8.0)
        samples = [sample_poisson(dom, 0.2, s) for s in range(60)]  # ~6 points per half
        report = campbell_check(samples, [(0.0, 1.0)], [1])
        assert math.isfinite(report.z) and report.lhs + report.rhs < 1.0

    def test_few_samples_give_a_finite_z(self):
        # 10 samples per half: fewer than the 20 batches of a long run
        dom = Domain(1, "torus", 10.0)
        samples = [sample_poisson(dom, 1.0, 300 + s) for s in range(20)]
        report = campbell_check(samples, [(0.0, 3.0)], [1])
        assert math.isfinite(report.lhs_se) and report.lhs_se > 0
        assert math.isfinite(report.z)

    def test_below_four_samples_per_half_raises(self):
        dom = Domain(1, "torus", 10.0)
        samples = [sample_poisson(dom, 1.0, 400 + s) for s in range(7)]
        with pytest.raises(InsufficientSamples):
            campbell_check(samples, [(0.0, 3.0)], [1])

    def test_order_zero_trivial(self):
        dom = Domain(1, "torus", 10.0)
        samples = [sample_poisson(dom, 1.0, s) for s in range(10)]
        report = campbell_check(samples, [(0.0, 1.0)], [0])
        assert report.lhs == 1.0 and report.rhs == 1.0 and report.z == 0.0

    def test_hard_core_small_set_gives_zero_pairs(self):
        dom = Domain(1, "torus", 8.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.6)
        sampler = make_gibbs_sampler(
            GibbsSpec(pot, activity=1.5, burn_in=3000, thin=10), dom, seed=5
        )
        samples = [sampler(i) for i in range(300)]
        report = campbell_check(samples, [(1.0, 1.4)], [2])
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)

    def test_disjointness_enforced(self):
        dom = Domain(1, "torus", 10.0)
        samples = [sample_poisson(dom, 1.0, s) for s in range(40)]
        with pytest.raises(ValueError):
            campbell_check(samples, [(0.0, 2.0), (1.0, 3.0)], [1, 1])


class TestPushforward:
    def test_constant_functional_collapses(self):
        dom = Domain(1, "torus", 10.0)
        sampler = make_poisson_sampler(dom, 1.5, seed=6)
        report = pushforward_check(sampler, r=2.0, k=1, n_cap=40,
                                   replicas=2000, F=lambda c: 1.0, seed=1)
        # both routes reduce to E[m; m <= N] = lambda |S_r| up to truncation
        assert report.lhs == report.rhs
        assert report.lhs == pytest.approx(1.5 * 4.0, rel=0.1)
        assert report.z == 0.0

    def test_default_functional_paired_z(self):
        dom = Domain(1, "torus", 10.0)
        sampler = make_poisson_sampler(dom, 1.5, seed=7)
        for k in (1, 2):
            report = pushforward_check(sampler, r=2.0, k=k, n_cap=12,
                                       replicas=2000, seed=k)
            assert abs(report.z) < 3.0


class TestEll:
    def test_exact_values(self):
        assert ell(0.0) == 0.5
        assert ell(math.inf) == 0.0
        assert ell(-math.inf) == 1.0

    def test_against_quadrature_oracle(self):
        for x in (0.3, 1.0, 1.6449, 2.5):
            oracle, _ = integrate.quad(
                lambda t: math.exp(-t * t / 2.0) / math.sqrt(2 * math.pi), x, np.inf
            )
            assert ell(x) == pytest.approx(oracle, rel=1e-10)
        assert round(ell(1.6449), 4) == 0.05

    def test_monotone_and_symmetric(self):
        xs = np.linspace(-6, 6, 200)
        vals = np.array([ell(x) for x in xs])
        assert np.all(np.diff(vals) < 0)
        for x in (0.0, 0.7, 2.2, 5.0):
            assert abs(ell(x) + ell(-x) - 1.0) < 1e-15

    def test_log_ell_matches_for_moderate_and_huge_arguments(self):
        assert log_ell(2.0) == pytest.approx(math.log(ell(2.0)), rel=1e-12)
        huge = log_ell(1e6)
        assert huge == pytest.approx(-5.0000000000e11, rel=1e-3)


class TestNonExplosion:
    def test_radial_integral_against_closed_form(self):
        # constant profile: integral = lambda * omega_d * U^d / d
        for d in (1, 2, 3):
            logi = log_radial_integral(constant_log_profile(1.0), d, 10.0)
            omega = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
            assert logi == pytest.approx(math.log(omega * 10.0**d / d), abs=5e-3)
        # exponential profile in d = 1: 2 (e^{aU} - 1)/a
        logi = log_radial_integral(exponential_log_profile(0.5), 1, 40.0)
        assert logi == pytest.approx(math.log(2.0 * (math.exp(20.0) - 1) / 0.5), abs=5e-3)

    def test_constant_profile_satisfied(self):
        for d in (1, 2, 3):
            res = nonexplosion_criterion(constant_log_profile(1.0), d, T=1.0, R=1.0)
            assert res.verdict == "satisfied"

    def test_exponential_profile_needs_small_T(self):
        res = nonexplosion_criterion(exponential_log_profile(0.5), 1, T=0.5, R=1.0)
        assert res.verdict == "satisfied"
        diverging = nonexplosion_criterion(exponential_log_profile(0.5), 1, T=4.0, R=1.0)
        assert diverging.verdict == "not-satisfied"

    def test_gaussian_growth_never_satisfied(self):
        res = nonexplosion_criterion(gaussian_growth_log_profile(), 1, T=1.0, R=1.0)
        assert res.verdict == "not-satisfied"

    def test_scan_verdicts(self):
        assert nonexplosion_scan(constant_log_profile(1.0), 1)[0] == "satisfied"
        assert nonexplosion_scan(exponential_log_profile(0.5), 1)[0] == "satisfied"
        assert nonexplosion_scan(gaussian_growth_log_profile(), 1)[0] == "not-satisfied"

    def test_scale_consistency(self):
        base = nonexplosion_criterion(constant_log_profile(1.0), 2, T=1.0, R=1.0)
        scaled_profile = lambda s: constant_log_profile(1.0)(s) + math.log(1e6)
        scaled = nonexplosion_criterion(scaled_profile, 2, T=1.0, R=1.0)
        assert scaled.verdict == base.verdict == "satisfied"
        assert np.allclose(
            scaled.log_evidence - base.log_evidence, math.log(1e6), atol=1e-9
        )


class TestMsd:
    def test_free_particle_slope(self):
        dom = Domain(2, "free", 50.0)
        state = LabeledState(np.zeros((3000, 2)), dom)
        traj = simulate(state, PotentialSpec(), SimParams(dt=5e-3, t_end=0.5, seed=8, stride=20))
        curve = msd(traj)
        slope = curve.values[-1] / curve.times[-1]
        assert slope == pytest.approx(2.0, rel=0.06)

    def test_harmonic_trap_plateau(self):
        # from a stationary start the displacement plateau is 2 d Var = d
        rng = np.random.default_rng(9)
        dom = Domain(1, "free", 50.0)
        n = 20_000
        state = LabeledState(rng.normal(scale=math.sqrt(0.5), size=(n, 1)), dom)
        traj = simulate(
            state, PotentialSpec(phi="harmonic"),
            SimParams(dt=1e-2, t_end=5.0, seed=10, stride=100),
        )
        curve = msd(traj)
        assert curve.values[-1] == pytest.approx(1.0, rel=0.05)
        # saturated: last two points close, far below linear growth
        assert abs(curve.values[-1] - curve.values[-2]) < 0.05 * curve.values[-1]

    def test_zero_length_path(self):
        dom = Domain(1, "free", 5.0)
        state = LabeledState([0.0], dom)
        traj = simulate(state, PotentialSpec(), SimParams(dt=1e-3, t_end=0.0, seed=1))
        curve = msd(traj)
        assert curve.times.size == 0


class TestExplosionScan:
    def _free_ensemble(self, n, t_end, seed):
        dom = Domain(1, "free", 50.0)
        state = LabeledState(np.zeros((n, 1)), dom)
        return simulate(state, PotentialSpec(), SimParams(dt=1e-2, t_end=t_end, seed=seed, stride=10))

    def test_generous_bound_rare(self):
        traj = self._free_ensemble(2000, 1.0, seed=11)
        report = explosion_scan([traj], r=1.0, bound=6.0)
        # oracle: P(sup |B_t| > 6) over t <= 1 is ~ 2 ell(6) ~ 2e-9
        assert report.fraction[-1] == 0.0

    def test_zero_bound_trips_immediately(self):
        traj = self._free_ensemble(50, 0.1, seed=12)
        report = explosion_scan([traj], r=1.0, bound=0.0)
        assert report.fraction[0] == 0.0  # nothing has moved at t = 0
        assert np.all(report.fraction[1:] == 1.0)

    def test_confining_potential_bounded_by_ou_tail(self):
        rng = np.random.default_rng(13)
        dom = Domain(1, "free", 50.0)
        n = 2000
        state = LabeledState(rng.normal(scale=math.sqrt(0.5), size=(n, 1)), dom)
        traj = simulate(
            state, PotentialSpec(phi="harmonic"),
            SimParams(dt=1e-2, t_end=2.0, seed=14, stride=20),
        )
        bound = 5.0
        report = explosion_scan([traj], r=10.0, bound=bound)
        # max displacement beyond 5 needs |X| ~ 2.5 sigma excursions; rare
        assert report.fraction[-1] <= 0.01
