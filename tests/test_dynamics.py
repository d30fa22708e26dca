import math

import numpy as np
import pytest

from ibmsim.configuration import Configuration, Domain, KLabeledState, LabeledState, kappa
from ibmsim.dynamics import (
    SimParams,
    compute_drift,
    label_noise,
    simulate,
    simulate_k_labeled,
    step,
)
from ibmsim.errors import ConfigError, Overlap
from ibmsim.potentials import PotentialSpec


def ou_stationary_variance(drift_rate: float = 1.0, diffusion: float = 1.0) -> float:
    # dX = -a X dt + sqrt(D) dB  =>  Var_inf = D / (2a)
    return diffusion / (2.0 * drift_rate)


class TestPotentialGradients:
    @pytest.mark.parametrize(
        "pot",
        [
            PotentialSpec(phi="harmonic", phi_strength=0.7),
            PotentialSpec(
                phi="table",
                phi_table_r=tuple(np.linspace(0.0, 6.0, 25)),
                phi_table_v=tuple((np.linspace(0.0, 6.0, 25) ** 2) * 0.3),
            ),
        ],
    )
    def test_phi_gradient_matches_finite_difference(self, pot):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.5, 2.5, size=(8, 2))
        grad = pot.phi_gradient(pts)
        h = 1e-6
        for a in range(2):
            shift = np.zeros(2)
            shift[a] = h
            fd = (pot.phi_value(pts + shift) - pot.phi_value(pts - shift)) / (2 * h)
            assert np.max(np.abs(fd - grad[:, a]) / (1.0 + np.abs(grad[:, a]))) < 1e-6

    @pytest.mark.parametrize(
        "pot",
        [
            PotentialSpec(psi="harmonic_pair", psi_strength=0.4),
            PotentialSpec(psi="soft_core", psi_strength=1.2, psi_range=0.8),
            PotentialSpec(psi="lennard_jones", psi_strength=0.9, psi_range=1.1),
        ],
    )
    def test_pair_gradient_matches_finite_difference(self, pot):
        rng = np.random.default_rng(1)
        r = rng.uniform(0.8, 2.5, size=40)
        factor, capped = pot.pair_gradient_factor(r)
        assert capped == 0
        h = 1e-6
        fd = (pot.pair_value(r + h) - pot.pair_value(r - h)) / (2 * h)
        assert np.max(np.abs(fd - factor * r) / (1.0 + np.abs(fd))) < 1e-6

    def test_psi_symmetry(self):
        pot = PotentialSpec(psi="soft_core", psi_strength=1.0, psi_range=0.5)
        dom = Domain(2, "free", 5.0)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, y = rng.normal(size=(2, 2))
            rxy = np.linalg.norm(dom.displacement(x, y))
            ryx = np.linalg.norm(dom.displacement(y, x))
            assert pot.pair_value(rxy) == pytest.approx(pot.pair_value(ryx))

    def test_lennard_jones_cap_counter(self):
        pot = PotentialSpec(psi="lennard_jones", psi_strength=1.0, psi_range=1.0)
        _, capped = pot.pair_gradient_factor(np.array([0.1, 0.2, 1.0]))
        assert capped == 2


class TestComputeDrift:
    def test_harmonic_self_drift(self):
        dom = Domain(1, "free", 10.0)
        state = LabeledState([1.0, -2.0], dom)
        drift = compute_drift(state, PotentialSpec(phi="harmonic"))
        assert np.allclose(drift[:, 0], [-1.0, 2.0])

    def test_harmonic_pair_drift(self):
        dom = Domain(1, "free", 10.0)
        state = LabeledState([1.0, 3.0], dom)
        drift = compute_drift(state, PotentialSpec(psi="harmonic_pair"))
        # -1/2 * grad |x1-x2|^2 = -(x1 - x2)
        assert np.allclose(drift[:, 0], [2.0, -2.0])

    def test_lennard_jones_zero_at_minimum(self):
        dom = Domain(1, "free", 10.0)
        sep = 2.0 ** (1.0 / 6.0)
        state = LabeledState([0.0, sep], dom)
        drift = compute_drift(state, PotentialSpec(psi="lennard_jones"))
        assert np.max(np.abs(drift)) < 1e-12

    def test_newtons_third_law(self):
        rng = np.random.default_rng(4)
        dom = Domain(2, "torus", 8.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=2.0, psi_range=1.0)
        state = LabeledState(rng.uniform(0, 8, size=(20, 2)), dom)
        drift = compute_drift(state, pot)
        for a in range(2):
            assert abs(math.fsum(drift[:, a].tolist())) < 1e-10

    def test_overlap_raises(self):
        dom = Domain(1, "torus", 10.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=1.0)
        state = LabeledState([2.0, 2.4], dom)
        with pytest.raises(Overlap):
            compute_drift(state, pot)

    @pytest.mark.parametrize("d,geometry", [(d, g) for d in (1, 2, 3)
                                            for g in ("torus", "free", "ball")])
    def test_cell_list_equals_brute_force_exactly(self, d, geometry):
        rng = np.random.default_rng(5)
        dom = Domain(d, geometry, 10.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=1.5, psi_range=0.8, r_cut=2.5)
        low, high = (0.0, 10.0) if geometry == "torus" else (-5.0, 5.0)
        for n in (2, 17, 64):
            pts = rng.uniform(low, high, size=(n, d))
            # slots 0 and 1 sit exactly r_cut apart, on the cutoff
            pts[1] = pts[0]
            pts[0, 0], pts[1, 0] = 1.0, 3.5
            state = LabeledState(pts, dom)
            brute = compute_drift(state, pot, cell_size=None)
            cell = compute_drift(state, pot, cell_size=2.5)
            assert np.array_equal(brute, cell)
            if n == 2:
                assert brute[0, 0] != 0.0

    def test_cell_list_equals_brute_force_on_free_domain(self):
        rng = np.random.default_rng(55)
        dom = Domain(2, "free", 20.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=1.0, psi_range=0.9, r_cut=2.5)
        for n in (5, 40):
            state = LabeledState(rng.uniform(-8, 8, size=(n, 2)), dom)
            assert np.array_equal(
                compute_drift(state, pot, cell_size=None),
                compute_drift(state, pot, cell_size=2.5),
            )

    def test_cell_list_equals_brute_force_when_rcut_covers_domain(self):
        rng = np.random.default_rng(6)
        dom = Domain(2, "torus", 6.0)
        pot = PotentialSpec(psi="soft_core", r_cut=100.0)
        state = LabeledState(rng.uniform(0, 6, size=(24, 2)), dom)
        assert np.array_equal(
            compute_drift(state, pot, cell_size=None),
            compute_drift(state, pot, cell_size=100.0),
        )

    def test_cell_size_below_rcut_rejected(self):
        dom = Domain(1, "torus", 10.0)
        pot = PotentialSpec(psi="soft_core", r_cut=2.0)
        state = LabeledState([1.0, 2.0], dom)
        with pytest.raises(ConfigError):
            simulate(state, pot, SimParams(dt=1e-3, t_end=1e-3, cell_size=1.0))
        with pytest.raises(ConfigError):
            compute_drift(state, pot, cell_size=1.0)


class TestNoise:
    def test_deterministic_and_label_resolved(self):
        a = label_noise(7, 3, 5, 2)
        b = label_noise(7, 3, 5, 2)
        assert np.array_equal(a, b)
        sub = label_noise(7, 3, np.array([2, 4]), 2)
        assert np.array_equal(sub[0], a[2])
        assert np.array_equal(sub[1], a[4])

    def test_moments(self):
        z = label_noise(11, 1, 200_000, 1).ravel()
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs(np.mean(z**3)) < 0.02


class TestSimulate:
    def test_free_increments_are_gaussian(self):
        dom = Domain(1, "free", 100.0)
        n = 50_000
        state = LabeledState(np.zeros((n, 1)), dom)
        params = SimParams(dt=0.04, t_end=0.04, seed=3, stride=1)
        traj = simulate(state, PotentialSpec(), params)
        incr = traj.positions[1, :, 0] - traj.positions[0, :, 0]
        assert abs(incr.mean()) < 3 * math.sqrt(0.04 / n)
        assert incr.var() == pytest.approx(0.04, rel=0.03)

    def test_free_msd_slope(self):
        dom = Domain(2, "free", 100.0)
        n = 4000
        state = LabeledState(np.zeros((n, 2)), dom)
        params = SimParams(dt=1e-2, t_end=1.0, seed=5, stride=25)
        traj = simulate(state, PotentialSpec(), params)
        msd = np.mean(np.sum((traj.positions[-1] - traj.positions[0]) ** 2, axis=1))
        assert msd / traj.times[-1] == pytest.approx(2.0, rel=0.05)

    def test_ou_stationary_variance(self):
        dom = Domain(1, "free", 100.0)
        n = 30_000
        state = LabeledState(np.zeros((n, 1)), dom)
        params = SimParams(dt=1e-2, t_end=5.0, seed=6, stride=100)
        traj = simulate(state, PotentialSpec(phi="harmonic"), params)
        var = traj.positions[-1, :, 0].var()
        assert var == pytest.approx(ou_stationary_variance(), rel=0.03)

    def test_determinism(self):
        dom = Domain(1, "torus", 6.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=0.5)
        state = LabeledState([1.0, 2.0, 4.5], dom)
        params = SimParams(dt=1e-3, t_end=0.05, seed=9)
        t1 = simulate(state, pot, params)
        t2 = simulate(state, pot, params)
        assert np.array_equal(t1.positions, t2.positions)
        assert np.array_equal(t1.running_max, t2.running_max)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        dom = Domain(2, "torus", 5.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=1.0, psi_range=0.7)
        pts = rng.uniform(0, 5, size=(6, 2))
        perm = rng.permutation(6)
        params = SimParams(dt=1e-3, t_end=0.02, seed=12)
        base = simulate(LabeledState(pts, dom), pot, params)
        permuted = simulate(
            LabeledState(pts[perm], dom), pot, params, stream_labels=perm
        )
        assert np.array_equal(base.positions[:, perm, :], permuted.positions)
        for i in range(base.n_snapshots):
            assert base.configuration(i).same_points(permuted.configuration(i))

    def test_hard_core_never_violated(self):
        dom = Domain(1, "torus", 12.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.5)
        state = LabeledState(np.arange(6)[:, None] * 2.0, dom)
        params = SimParams(dt=1e-3, t_end=2.0, seed=13, stride=1)
        traj = simulate(state, pot, params)
        for i in range(traj.n_snapshots):
            assert traj.configuration(i).min_pair_distance() >= 0.5

    def test_hard_core_reflect_mode(self):
        dom = Domain(1, "torus", 12.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.5)
        state = LabeledState(np.arange(6)[:, None] * 2.0, dom)
        params = SimParams(dt=1e-3, t_end=0.5, seed=14, stride=10, hard_core_mode="reflect")
        traj = simulate(state, pot, params)
        for i in range(traj.n_snapshots):
            assert traj.configuration(i).min_pair_distance() >= 0.5 - 1e-12

    def test_hard_core_reflect_resolves_sub_ulp_overlap(self):
        # a push can leave a pair one ulp inside sigma, below what any later
        # push of 0.5 * (sigma - r) can move
        dom = Domain(1, "torus", 8.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.3)
        state = LabeledState(np.arange(10)[:, None] * 0.8, dom)
        params = SimParams(dt=1e-3, t_end=0.05, seed=11, stride=1, hard_core_mode="reflect")
        traj = simulate(state, pot, params)
        for i in range(traj.n_snapshots):
            assert traj.configuration(i).min_pair_distance() >= 0.3 - 1e-12

    def test_ball_reflection_keeps_points_inside(self):
        dom = Domain(2, "ball", 1.5)
        state = LabeledState([[1.4, 0.0]], dom)
        params = SimParams(dt=1e-2, t_end=1.0, seed=15, stride=5)
        traj = simulate(state, PotentialSpec(), params)
        radii = np.sqrt(np.sum(traj.positions**2, axis=2))
        assert np.all(radii <= 1.5 + 1e-9)

    def test_running_max_is_monotone_displacement_bound(self):
        dom = Domain(1, "torus", 6.0)
        state = LabeledState([1.0, 3.0], dom)
        params = SimParams(dt=1e-3, t_end=0.2, seed=16, stride=20)
        traj = simulate(state, PotentialSpec(), params)
        assert np.all(np.diff(traj.running_max, axis=0) >= 0)
        assert np.all(traj.running_max[0] == 0)


class TestStep:
    def test_matches_first_simulate_snapshot(self):
        dom = Domain(1, "torus", 6.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=0.7)
        state = LabeledState([1.0, 3.0, 5.0], dom)
        once = step(state, pot, dt=1e-3, seed=5, step_index=1)
        traj = simulate(state, pot, SimParams(dt=1e-3, t_end=1e-3, seed=5, stride=1))
        assert np.array_equal(once.points, traj.positions[1])

    def test_hard_core_mode_respected(self):
        dom = Domain(1, "torus", 12.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.5)
        state = LabeledState(np.arange(6)[:, None] * 2.0, dom)
        out = step(state, pot, dt=1e-3, seed=6)
        assert out.configuration().min_pair_distance() >= 0.5

    def test_reversibility_smoke(self):
        # the dynamics conserves particle count, so a single time average only
        # sees one canonical component; averaging time averages over
        # independent equilibrium draws recovers the ensemble average
        from ibmsim.configuration import label as label_fn
        from ibmsim.pointprocess import GibbsSpec, make_gibbs_sampler

        dom = Domain(1, "torus", 6.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=0.6, psi_range=0.6, r_cut=3.0)
        spec = GibbsSpec(pot, beta=1.0, activity=1.5, burn_in=4000, thin=40)
        sampler = make_gibbs_sampler(spec, dom, seed=31)

        def observable(points):
            return float(np.sum(np.exp(-((points[:, 0] - 3.0) ** 2))))

        ensemble = np.array([observable(sampler(i).points) for i in range(400)])
        time_avgs = []
        for rep in range(30):
            start = sampler(400 + rep)
            traj = simulate(label_fn(start, "stored-order"), pot,
                            SimParams(dt=1e-3, t_end=3.0, seed=32 + rep, stride=100))
            time_avgs.append(np.mean([observable(traj.positions[t])
                                      for t in range(traj.n_snapshots)]))
        time_avgs = np.array(time_avgs)
        se_time = time_avgs.std(ddof=1) / math.sqrt(time_avgs.size)
        se_ens = ensemble.std(ddof=1) / math.sqrt(ensemble.size)
        gap = abs(time_avgs.mean() - ensemble.mean())
        assert gap < 3.0 * math.hypot(se_time, se_ens)


class TestKLabeled:
    def test_all_tagged_has_empty_background(self):
        dom = Domain(1, "torus", 6.0)
        bg = Configuration(np.empty((0, 1)), dom)
        s = KLabeledState([1.0, 2.0], bg)
        traj = simulate_k_labeled(s, PotentialSpec(), SimParams(dt=1e-3, t_end=0.01, seed=1))
        assert traj.n_tagged == 2
        assert len(traj.k_state(-1).background) == 0

    def test_kappa_pushforward_identity_under_shared_noise(self):
        dom = Domain(1, "torus", 8.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=0.8)
        tagged = np.array([[1.0], [5.0]])
        bg = Configuration([2.5, 6.5], dom)
        ks = KLabeledState(tagged, bg)
        params = SimParams(dt=1e-3, t_end=0.05, seed=21)
        traj_k = simulate_k_labeled(ks, pot, params)
        flat = LabeledState(kappa(ks).points, dom)
        traj_u = simulate(flat, pot, params)
        assert np.array_equal(traj_k.positions, traj_u.positions)
