import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibmsim import dynamics
from ibmsim.configuration import Configuration, Domain, KLabeledState, LabeledState, kappa
from ibmsim.dynamics import (
    SimParams,
    compute_drift,
    label_noise,
    simulate,
    simulate_k_labeled,
    step,
)
from ibmsim.errors import ConfigError, Overlap, StepRejected
from ibmsim.potentials import PotentialSpec


def ou_stationary_variance(drift_rate: float = 1.0, diffusion: float = 1.0) -> float:
    # dX = -a X dt + sqrt(D) dB  =>  Var_inf = D / (2a)
    return diffusion / (2.0 * drift_rate)


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def reference_noise(seed, step, labels, d, round_key=0):
    """The one-step label_noise formula, kept as the reference for the block
    draws: one counter per call, hashed per (label, lane)."""
    u64 = np.uint64
    golden = u64(0x9E3779B97F4A7C15)
    if np.isscalar(labels):
        labels = np.arange(labels)
    labels = np.asarray(labels, dtype=np.uint64)[:, None]
    lanes = np.arange(d, dtype=np.uint64)[None, :]
    counter = (seed + int(golden) * (step + 1)) & 0xFFFFFFFFFFFFFFFF
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(counter))
        base = _mix64(base ^ (u64(0xE7037ED1A0B428DB) * u64(round_key + 1)))
        h = _mix64(base ^ (u64(0xD6E8FEB86659FD93) * (labels + u64(1))))
        h = _mix64(h ^ (u64(0xA0761D6478BD642F) * (lanes + u64(1))))
        u1_bits = _mix64(h + golden)
        u2_bits = _mix64(h ^ u64(0x8EBC6AF09C88C6E3))
    u1 = ((u1_bits >> u64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (u2_bits >> u64(11)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestPotentialSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(phi="table"),
        dict(psi="soft_core", psi_range=0.0),
        dict(psi="lennard_jones", psi_range=-1.0),
        dict(hard_core_diameter=-0.5),
    ])
    def test_rejected_when_built(self, kwargs):
        with pytest.raises(ValueError):
            PotentialSpec(**kwargs)

    def test_hard_core_sigma_is_the_diameter(self):
        assert PotentialSpec().hard_core_sigma == 0.0
        assert PotentialSpec(psi="soft_core", hard_core_diameter=0.3).hard_core_sigma == 0.3


class TestPotentialGradients:
    def test_phi_gradient_matches_finite_difference(self):
        pot = PotentialSpec(phi="harmonic", phi_strength=0.7)
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
            compute_drift(state, pot, cell_size=1.0)


class TestPairSearchRoute:
    """The integrator searches pairs with the tree at radius r_cut from
    _TREE_MIN_POINTS points on, and over all pairs below that or for an
    infinite r_cut; both routes give the same bits."""

    @staticmethod
    def run(n, r_cut=2.5):
        rng = np.random.default_rng(60)
        dom = Domain(2, "torus", math.sqrt(n))
        pot = PotentialSpec(psi="soft_core", psi_strength=1.0, psi_range=0.7, r_cut=r_cut)
        state = LabeledState(rng.uniform(0, dom.size, size=(n, 2)), dom)
        return simulate(state, pot, SimParams(dt=1e-3, t_end=3e-3, seed=61))

    @staticmethod
    def record_radii(monkeypatch):
        radii = []
        close_pairs = dynamics._close_pairs

        def recording(points, domain, radius):
            radii.append(radius)
            return close_pairs(points, domain, radius)

        monkeypatch.setattr(dynamics, "_close_pairs", recording)
        return radii

    @pytest.mark.parametrize("n, r_cut, radius", [
        (150, 2.5, 2.5), (20, 2.5, None), (150, math.inf, None),
    ], ids=["tree", "few-points", "infinite-r_cut"])
    def test_search_radius(self, monkeypatch, n, r_cut, radius):
        radii = self.record_radii(monkeypatch)
        self.run(n, r_cut)
        assert radii == [radius] * 3  # one drift per step

    def test_tree_and_all_pairs_paths_are_bitwise_equal(self, monkeypatch):
        tree = self.run(150)
        monkeypatch.setattr(dynamics, "_TREE_MIN_POINTS", 151)
        radii = self.record_radii(monkeypatch)
        all_pairs = self.run(150)
        assert radii == [None] * 3
        assert np.array_equal(tree.positions, all_pairs.positions)
        assert np.array_equal(tree.running_max, all_pairs.running_max)


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


class TestNoiseBlocks:
    """Round-key-0 draws come from blocks of steps; every draw must carry the
    bits of the one-step formula whatever the call order."""

    @pytest.mark.parametrize("n,d", [(3, 1), (10, 1), (7, 3), (100, 2)])
    def test_runs_across_block_boundaries(self, n, d):
        for s in range(1, 201):
            assert_same_bits(label_noise(17, s, n, d), reference_noise(17, s, n, d))

    def test_backward_and_random_access(self):
        rng = np.random.default_rng(40)
        order = list(range(150, 0, -1)) + [int(s) for s in rng.permutation(300)]
        for s in order:
            assert_same_bits(label_noise(5, s, 4, 2), reference_noise(5, s, 4, 2))

    def test_interleaved_seeds_round_keys_and_steps(self):
        rng = np.random.default_rng(41)
        dom = Domain(1, "torus", 6.0)
        state = LabeledState([1.0, 3.0, 5.0], dom)
        pot = PotentialSpec(psi="soft_core", psi_strength=0.7)
        for s in range(1, 130):
            for seed in (3, 4):
                for key in (0, int(rng.choice([1, 131, 13232]))):
                    assert_same_bits(label_noise(seed, s, 6, 1, key),
                                     reference_noise(seed, s, 6, 1, key))
            if s % 7 == 0:
                step(state, pot, dt=1e-3, seed=int(rng.integers(100)), step_index=s)

    def test_permuted_stream_labels(self):
        perm = np.random.default_rng(42).permutation(9)
        for s in range(1, 100):
            draw = label_noise(8, s, perm, 2)
            assert_same_bits(draw, reference_noise(8, s, perm, 2))
            assert_same_bits(draw, label_noise(8, s, 9, 2)[perm])

    def test_stream_id_types_share_bits(self):
        for s in range(1, 80):
            ref = reference_noise(2, s, 5, 3)
            for labels in (5, np.arange(5, dtype=np.int64), np.arange(5, dtype=np.uint64)):
                assert_same_bits(label_noise(2, s, labels, 3), ref)

    def test_large_stream_sets_draw_one_step_blocks(self):
        # n * d above the block's 4096 numbers leaves one step per block
        for s in (1, 2, 3, 2, 70):
            assert_same_bits(label_noise(9, s, 2049, 2), reference_noise(9, s, 2049, 2))
            assert dynamics._NOISE_BLOCK[2].shape == (1, 2049, 2)

    def test_negative_seed(self):
        for s in range(1, 140):
            assert_same_bits(label_noise(-12345, s, 3, 1), reference_noise(-12345, s, 3, 1))

    def test_pinned_digest(self):
        # SHA-256 of these draws from the one-step implementation
        parts = []
        for seed, labels, d in ((0, 3, 1), (20091, np.array([4, 0, 2]), 2), (-7, 10, 3)):
            for s in (1, 2, 63, 64, 65, 1000):
                for key in (0, 1, 131):
                    parts.append(label_noise(seed, s, labels, d, key).tobytes())
        digest = hashlib.sha256(b"".join(parts)).hexdigest()
        assert digest == "6ae4164dfbd83dc8e6742ed4998cfba86f46a4d564ee51a765021c95b2f1a8c0"

    def test_returned_array_is_a_fresh_copy(self):
        first = label_noise(6, 10, 4, 2)
        first[:] = 0.0
        again = label_noise(6, 10, 4, 2)
        assert_same_bits(again, reference_noise(6, 10, 4, 2))
        assert not np.shares_memory(first, again)

    def test_returned_redraw_is_a_fresh_copy(self):
        first = label_noise(6, 10, 4, 2, 3)
        first[:] = 0.0
        assert_same_bits(label_noise(6, 10, 4, 2, 3), reference_noise(6, 10, 4, 2, 3))

    # the round keys of the hard-core retries (attempts 1-3) and of the two
    # half steps of a halving (noise_key * 131 + 101 or 102) and their retries
    REDRAW_KEYS = (1, 2, 3, 101, 102, 101 * 131 + 1, 102 * 131 + 2)

    @pytest.mark.parametrize("n,d", [(6, 1), (7, 3), (100, 2)])
    def test_redraws_interleaved_with_key_zero(self, n, d):
        # forward runs across block boundaries, with the redraw keys of the
        # hard-core step in between, as a rejecting run calls them
        rng = np.random.default_rng(43)
        for s in range(1, 260):
            keys = [0] + [int(k) for k in rng.choice(self.REDRAW_KEYS, rng.integers(0, 4))]
            if s % 5 == 0:
                keys.append(0)
            for key in keys:
                assert_same_bits(label_noise(19, s, n, d, key), reference_noise(19, s, n, d, key))

    def test_redraws_with_a_seed_per_stream(self):
        rng = np.random.default_rng(44)
        seeds = [int(s) for s in rng.integers(-2**62, 2**62, size=5)]
        labels = rng.permutation(8)[:5]
        for s in [*range(1, 140), 70, 3, 200]:
            for key in (0, *(int(k) for k in rng.choice(self.REDRAW_KEYS, 2))):
                draw = label_noise(seeds, s, labels, 2, key)
                for m, (seed, lab) in enumerate(zip(seeds, labels)):
                    assert_same_bits(draw[m], reference_noise(seed, s, [lab], 2, key)[0])

    def test_redraws_backward_and_after_other_streams(self):
        rng = np.random.default_rng(45)
        for s in [*range(150, 0, -3), *(int(x) for x in rng.permutation(300)[:80])]:
            for seed, n in ((5, 4), (6, 4), (5, 9)):
                key = int(rng.choice(self.REDRAW_KEYS))
                assert_same_bits(label_noise(seed, s, n, 2, key),
                                 reference_noise(seed, s, n, 2, key))

    def test_redraw_memo_stays_bounded(self):
        # 600 distinct round keys, each a fresh 64-step block of 64 streams
        # (32 KiB each) if every key kept its block: 19 MiB unbounded
        tracemalloc.start()
        try:
            for key in range(1, 601):
                label_noise(3, 7, 64, 1, key)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 * 2**20


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_min_pair_gap_is_all_pairs_minimum_over_snapshots(self, d):
        # at stride 1 and without halvings, the accepted updates are the
        # snapshots after the first
        dom = Domain(d, "torus", 4.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.5)
        pts = np.ones((6, d))
        pts[:, 0] = np.arange(6) * 0.6 + 0.2
        params = SimParams(dt=1e-3, t_end=0.2, seed=17, stride=1, hard_core_mode="reject")
        traj = simulate(LabeledState(pts, dom), pot, params)
        assert traj.diagnostics["step_halvings"] == 0
        assert traj.diagnostics["noise_redraws"] > 0  # the proposal check rejected some
        i, j = np.triu_indices(6, k=1)
        dist = dom.distance(traj.positions[1:, i], traj.positions[1:, j])
        assert traj.diagnostics["min_pair_gap"] == float(dist.min())

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

    def test_hard_core_reflect_resolves_a_dense_cluster(self):
        # a cluster of three close rods needs hundreds of pair pushes: each
        # push sets one pair to exactly sigma and closes its neighbours' gaps
        dom = Domain(1, "torus", 8.0)
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.3)
        state = LabeledState(np.arange(10)[:, None] * 0.8, dom)
        params = SimParams(dt=1e-3, t_end=3.0, seed=4, stride=100, hard_core_mode="reflect")
        traj = simulate(state, pot, params)
        assert traj.diagnostics["min_pair_gap"] >= 0.3 - 1e-12
        for i in range(traj.n_snapshots):
            assert traj.configuration(i).min_pair_distance() >= 0.3 - 1e-12

    def test_ball_reflection_keeps_points_inside(self):
        dom = Domain(2, "ball", 1.5)
        state = LabeledState([[1.4, 0.0]], dom)
        params = SimParams(dt=1e-2, t_end=1.0, seed=15, stride=5)
        traj = simulate(state, PotentialSpec(), params)
        radii = np.sqrt(np.sum(traj.positions**2, axis=2))
        assert np.all(radii <= 1.5 + 1e-9)

    def test_noise_redraws_counted(self, monkeypatch):
        keys = []

        def counting(seed, step_index, labels, d, round_key=0):
            keys.append(round_key)
            return label_noise(seed, step_index, labels, d, round_key)

        monkeypatch.setattr(dynamics, "label_noise", counting)
        dom = Domain(1, "torus", 8.0)
        state = LabeledState(np.arange(10)[:, None] * 0.8, dom)
        hard = PotentialSpec(psi="hard_core", hard_core_diameter=0.3)
        params = SimParams(dt=1e-3, t_end=0.05, seed=11, max_retries=3)
        with pytest.warns(UserWarning, match="halving"):
            traj = simulate(state, hard, params)
        redraws = sum(key != 0 for key in keys)
        assert traj.diagnostics["noise_redraws"] == redraws > 0
        assert traj.diagnostics["step_halvings"] > 0
        soft = PotentialSpec(psi="soft_core", psi_strength=0.5)
        assert simulate(state, soft, params).diagnostics["noise_redraws"] == 0

    def test_running_max_is_monotone_displacement_bound(self):
        dom = Domain(1, "torus", 6.0)
        state = LabeledState([1.0, 3.0], dom)
        params = SimParams(dt=1e-3, t_end=0.2, seed=16, stride=20)
        traj = simulate(state, PotentialSpec(), params)
        assert np.all(np.diff(traj.running_max, axis=0) >= 0)
        assert np.all(traj.running_max[0] == 0)


def trajectory_digest(traj) -> str:
    """SHA-256 of a path's times, positions, running max and diagnostics."""
    h = hashlib.sha256()
    for array in (traj.times, traj.positions, traj.running_max):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr(sorted(traj.diagnostics.items())).encode())
    return h.hexdigest()


class TestPinnedPaths:
    """Single-state paths pinned by digest: the integrator's fast paths must
    keep the bits of the plain Euler-Maruyama step."""

    ROD = PotentialSpec(psi="hard_core", hard_core_diameter=0.3)

    @staticmethod
    def rods(n, spacing, size, d=1):
        pts = np.full((n, d), 0.5)
        pts[:, 0] = np.arange(n) * spacing + 0.2
        return LabeledState(pts, Domain(d, "torus", size))

    CASES = {
        "hard-core-reject": (
            lambda c: c.rods(6, 0.6, 4.0),
            ROD, SimParams(dt=1e-3, t_end=0.3, seed=17, stride=7),
            "d8aa4054dff9a3e9ec777873a737008a96787ad34cd059c6bc039d8c40b6cc34"),
        "hard-core-reject-2d": (
            lambda c: c.rods(6, 0.55, 3.3, d=2),
            ROD, SimParams(dt=1e-3, t_end=0.1, seed=18, stride=3),
            "3b66cdc2d74d9613e242d2a9100d0f1fa7e091ed9b0ac4103160552ce8e56601"),
        "hard-core-reflect": (
            lambda c: c.rods(10, 0.8, 8.0),
            ROD, SimParams(dt=1e-3, t_end=0.2, seed=11, stride=5, hard_core_mode="reflect"),
            "a9a7552fc7d64b9d2f4b6d5310a7498b4cf051d9c95c1310472957f10724a866"),
        "halvings": (
            lambda c: c.rods(10, 0.8, 8.0),
            ROD, SimParams(dt=1e-3, t_end=0.05, seed=11, max_retries=3),
            "a0bbcfbd68e017cf64ba79c34e22d71520424977eb857b1fd25f261b46aef9fa"),
        "drift-free-free-domain": (
            lambda c: LabeledState(np.random.default_rng(81).normal(size=(7, 2)),
                                   Domain(2, "free", 3.0)),
            PotentialSpec(), SimParams(dt=1e-2, t_end=0.5, seed=5, stride=3),
            "76b8034a15b9876a6ae407db0e0a7ae60da41bb0d3b944598262c54f592d76b8"),
        "drift-free-ball": (
            lambda c: LabeledState([[1.4, 0.0], [0.0, -1.3], [0.2, 0.1]], Domain(2, "ball", 1.5)),
            PotentialSpec(), SimParams(dt=1e-2, t_end=0.4, seed=15, stride=2),
            "c3d9bcd682d719776bdd838f98ef636598d99d5596d97d4febcc25875f329a43"),
        "harmonic-phi": (
            lambda c: LabeledState([[-1.0], [0.3], [2.5], [0.31]], Domain(1, "free", 5.0)),
            PotentialSpec(phi="harmonic", phi_strength=0.7),
            SimParams(dt=1e-3, t_end=0.3, seed=6, stride=10),
            "879a3d7f1eecc609a47460021eee702a678a8700a8374dd9cde0a433741c9ede"),
        "soft-core-n5": (
            lambda c: LabeledState(np.random.default_rng(82).uniform(0, 4, size=(5, 2)),
                                   Domain(2, "torus", 4.0)),
            PotentialSpec(psi="soft_core", psi_strength=0.9, psi_range=0.6, r_cut=2.0),
            SimParams(dt=1e-3, t_end=0.3, seed=9, stride=4),
            "614c54ebc3e1b2e39ee51f7502d7bcca7821778bd972fe2d05675b1e31b2d430"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_path_digest(self, case):
        make, pot, params, digest = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # halvings warn
            traj = simulate(make(self), pot, params)
        diag = traj.diagnostics
        if case.startswith("hard-core-reject"):
            assert diag["noise_redraws"] > 0 and diag["step_halvings"] == 0
        if case == "halvings":
            assert diag["step_halvings"] > 0
        assert trajectory_digest(traj) == digest


def per_step_reference(state, pot, params):
    """times, positions, running max and diagnostics of a loop that calls
    _Stepper.advance every step and reduces the running max each step: the
    reference for the runs that 1-d hard rods step in."""
    stepper = dynamics._Stepper(state.domain, pot, params, [len(state)], [params.seed], [None])
    n_steps = int(round(params.t_end / params.dt))
    steps = np.unique(np.append(np.arange(0, n_steps + 1, params.stride), n_steps))
    due = set(steps.tolist())
    points = unwrapped = start = state.points
    run_max = np.zeros(len(state))
    positions, running_max = [points], [run_max]
    for step_index in range(1, n_steps + 1):
        points, unwrapped = stepper.advance(points, unwrapped, step_index)
        disp = np.sqrt(np.sum(np.square(unwrapped - start), axis=1))
        run_max = np.maximum(disp, run_max)
        if step_index in due:
            positions.append(points)
            running_max.append(run_max)
    diagnostics = {"capped_forces": 0, "step_halvings": stepper.halvings,
                   "noise_redraws": stepper.redraws, "min_pair_gap": stepper.min_gap}
    return steps * params.dt, np.array(positions), np.array(running_max), diagnostics


def outcome(run, *args):
    """run(*args), or the type and message of the StepRejected it raises."""
    try:
        return run(*args)
    except StepRejected as exc:
        return type(exc), str(exc)


class TestRuns:
    """One state of drift-free 1-d hard rods steps in runs of accepted steps
    (_Stepper.run); every bit of the path, its running max and diagnostics is
    the per-step loop's."""

    SIGMA = 0.3

    @staticmethod
    def rods(geometry, n, spacing, slack, offset, edge):
        """n rods spacing apart in a domain of length n * spacing * slack;
        edge puts the first rod at the low end or the last just below (on
        the torus) or at (in the ball) the high end."""
        length = n * spacing * slack
        low, high = {"torus": (0.0, np.nextafter(length, 0.0)),
                     "ball": (-length / 2, length / 2), "free": (-1.0, 1.0)}[geometry]
        x = low + offset + np.arange(n) * spacing
        if edge == "low":
            x = low + np.arange(n) * spacing
        elif edge == "high":
            x = high - np.arange(n)[::-1] * spacing
        size = {"torus": length, "ball": length / 2, "free": length}[geometry]
        return LabeledState(x[:, None], Domain(1, geometry, size))

    @staticmethod
    def simulate_counting(state, pot, params):
        """simulate, and the number of steps it gave to advance."""
        calls = []
        advance = dynamics._Stepper.advance

        def counting(self, points, unwrapped, step_index, dt=None, *args):
            if dt is None:
                calls.append(step_index)
            return advance(self, points, unwrapped, step_index, dt, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics._Stepper, "advance", counting)
            traj = outcome(simulate, state, pot, params)
        return traj, len(calls)

    def assert_matches_reference(self, state, params):
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=self.SIGMA)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # halvings warn
            want = outcome(per_step_reference, state, pot, params)
            traj, advanced = self.simulate_counting(state, pot, params)
        if isinstance(want[0], type):
            assert traj == want
            return None
        times, positions, running_max, diagnostics = want
        assert_same_bits(traj.times, times)
        assert_same_bits(traj.positions, positions)
        assert_same_bits(traj.running_max, running_max)
        assert traj.diagnostics == diagnostics
        return advanced

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_runs_keep_the_per_step_bits(self, data):
        geometry = data.draw(st.sampled_from(["torus", "free", "ball"]))
        n = data.draw(st.integers(2, 10))
        # from dense packings, which force redraws and halvings, to loose ones
        spacing = self.SIGMA * data.draw(st.sampled_from([1.02, 1.1, 1.5, 3.0]))
        state = self.rods(geometry, n, spacing, data.draw(st.sampled_from([1.0, 1.4, 3.0])),
                          data.draw(st.floats(0.0, spacing / 2)),
                          data.draw(st.sampled_from([None, "low", "high"])))
        # up to 700 steps: across noise blocks (64 steps) and, from 6 rods
        # on, across running-max blocks (4096 numbers)
        n_steps = data.draw(st.integers(1, 700))
        dt = data.draw(st.sampled_from([1e-4, 1e-3, 4e-3]))
        params = SimParams(dt=dt, t_end=n_steps * dt, seed=data.draw(st.integers(0, 2**32)),
                           stride=data.draw(st.integers(1, 13)),
                           hard_core_mode=data.draw(st.sampled_from(["reject", "reflect"])),
                           max_retries=data.draw(st.sampled_from([2, 3, 20])))
        self.assert_matches_reference(state, params)

    @pytest.mark.parametrize("geometry", ["torus", "free", "ball"])
    def test_runs_are_taken_across_blocks(self, geometry):
        # 2 rods keep 2048 steps in a running-max block; 2300 steps cross it
        state = self.rods(geometry, 2, 1.0, 2.0, 0.2, None)
        n_steps = 2300
        params = SimParams(dt=1e-3, t_end=n_steps * 1e-3, seed=3, stride=7)
        advanced = self.assert_matches_reference(state, params)
        assert advanced < n_steps // 4

    def test_dense_rods_halve_steps_in_both_routes(self):
        state = self.rods("torus", 10, self.SIGMA * 1.5, 1.0, 0.0, "low")
        params = SimParams(dt=4e-3, t_end=0.5, seed=12, stride=3, max_retries=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            diagnostics = simulate(state, PotentialSpec(psi="hard_core",
                                                        hard_core_diameter=self.SIGMA),
                                   params).diagnostics
        assert diagnostics["step_halvings"] > 0
        self.assert_matches_reference(state, params)

    @pytest.mark.xfail(strict=True, raises=StepRejected,
                       reason="ROADMAP direction 1: pairwise reflection cycles on criterion "
                              "10's torus; the Harris-map resolution is to end the cycle")
    def test_reflect_mode_on_criterion_10_torus(self):
        state = LabeledState(np.arange(6)[:, None] * 2.0, Domain(1, "torus", 12.0))
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.5)
        simulate(state, pot, SimParams(dt=1e-3, t_end=1.0, seed=7129, hard_core_mode="reflect"))

    def test_reflect_cycle_fails_at_the_per_step_step(self):
        # the run path hands the same steps to advance, so a failure, if
        # any, comes at the same step and with the same message
        state = LabeledState(np.arange(6)[:, None] * 2.0, Domain(1, "torus", 12.0))
        pot = PotentialSpec(psi="hard_core", hard_core_diameter=0.5)
        params = SimParams(dt=1e-3, t_end=1.0, seed=7129, hard_core_mode="reflect")
        failing = []
        advance = dynamics._Stepper.advance

        def recording(self, points, unwrapped, step_index, *args):
            failing[:] = [step_index]
            return advance(self, points, unwrapped, step_index, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics._Stepper, "advance", recording)
            got = outcome(simulate, state, pot, params), list(failing)
            want = outcome(per_step_reference, state, pot, params), list(failing)
        if isinstance(want[0][0], type):
            assert got == want
        else:
            assert_same_bits(got[0].positions, want[0][1])


class TestSimParams:
    @pytest.mark.parametrize("max_retries", [0, 132])
    def test_max_retries_outside_key_range_rejected(self, max_retries):
        # retry keys noise_key * 131 + attempt collide once attempt reaches 131
        with pytest.raises(ConfigError):
            SimParams(max_retries=max_retries)

    @pytest.mark.parametrize("max_retries", [1, 131])
    def test_max_retries_in_key_range_accepted(self, max_retries):
        assert SimParams(max_retries=max_retries).max_retries == max_retries


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


class TestSeedPerStream:
    def test_each_stream_draws_with_its_own_seed(self):
        rng = np.random.default_rng(70)
        seeds = [int(s) for s in rng.integers(-2**62, 2**62, size=7)]
        labels = rng.permutation(9)[:7]
        for s in (1, 2, 64, 65, 300):
            for key in (0, 1, 131):
                draw = label_noise(seeds, s, labels, 2, key)
                for m, (seed, lab) in enumerate(zip(seeds, labels)):
                    assert_same_bits(draw[m], reference_noise(seed, s, [lab], 2, key)[0])

    def test_seed_count_must_match_streams(self):
        with pytest.raises(ValueError):
            label_noise([1, 2], 1, 3, 1)



class TestChildSeeds:
    def test_int_purposes_keep_their_bits(self):
        assert dynamics.child_seeds(2027, 0, 3).tolist() == [
            15099945742574519658, 2613231825589261445, 13838301194628640521]
        assert dynamics.child_seeds(2**64 - 1, 11, 2).tolist() == [
            8859333987751804285, 11472937596101288861]
        blob = b"".join(dynamics.child_seeds(s, p, 50).tobytes()
                        for s in (0, 1, 2027, 2**63) for p in (0, 1, 2, 5, 11))
        assert hashlib.sha256(blob).hexdigest() == (
            "1739837b93b4699548911443ff10a6c39a8e40e3e2b64671a666c177a2824ffc")

    def test_tuples_and_first(self):
        whole = dynamics.child_seeds(7, (3, 8, 1), 10)
        assert np.array_equal(dynamics.child_seeds(7, (3, 8, 1), 4, first=6), whole[6:])
        assert np.array_equal(dynamics.child_seeds(7, (5,), 10), dynamics.child_seeds(7, 5, 10))
        others = [dynamics.child_seeds(7, p, 10) for p in (3, (3, 8), (3, 1, 8), (3, 8, 2))]
        assert np.unique(np.concatenate([whole, *others])).size == 50

    def test_purpose_table_repeats_no_purpose(self):
        purposes = list(dynamics.PURPOSES.values())
        assert sorted(purposes) == list(range(len(purposes)))


class TestBatch:
    """_simulate_batch integrates several states as one flat array; each
    state's trajectory carries the bits of its own simulate run."""

    POTENTIALS = {
        "free": PotentialSpec(),
        "ou-soft-core-cut": PotentialSpec(phi="harmonic", psi="soft_core", psi_strength=0.8,
                                          psi_range=0.7, r_cut=1.5),
        "harmonic-pair": PotentialSpec(psi="harmonic_pair", psi_strength=0.3),
        # weak enough that a capped force moves a point by less than the noise
        "lennard-jones": PotentialSpec(psi="lennard_jones", psi_strength=1e-7, psi_range=0.6,
                                       r_cut=2.0),
    }

    @staticmethod
    def state(rng, n, dom):
        # the square of side size / sqrt(2) lies inside the ball of radius size
        low, high = {"torus": (0.0, dom.size), "free": (-dom.size, dom.size),
                     "ball": (-dom.size / 2**0.5, dom.size / 2**0.5)}[dom.geometry]
        return LabeledState(rng.uniform(low, high, size=(n, dom.dimension)), dom)

    @staticmethod
    def assert_segments_match(initials, pot, params, seeds, stream_labels=None):
        batch = dynamics._simulate_batch(initials, pot, params, seeds, stream_labels)
        assert len(batch) == len(initials)
        for r, state in enumerate(initials):
            own = dataclasses.replace(params, seed=seeds[r])
            if isinstance(state, KLabeledState):
                alone = simulate_k_labeled(state, pot, own)
            else:
                labels = None if stream_labels is None else stream_labels[r]
                alone = simulate(state, pot, own, stream_labels=labels)
            for key in ("times", "positions", "running_max"):
                assert_same_bits(getattr(batch[r], key), getattr(alone, key))
            assert batch[r].diagnostics == alone.diagnostics
            assert batch[r].params == alone.params
            assert batch[r].n_tagged == alone.n_tagged
        return batch

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_segment_is_its_own_simulate(self, data):
        geometry = data.draw(st.sampled_from(["torus", "free", "ball"]))
        d = data.draw(st.sampled_from([1, 2]))
        pot = self.POTENTIALS[data.draw(st.sampled_from(sorted(self.POTENTIALS)))]
        sizes = data.draw(st.lists(st.integers(0, 7), min_size=2, max_size=5))
        seeds = data.draw(st.lists(st.integers(-2**63, 2**64), min_size=len(sizes),
                                   max_size=len(sizes)))
        permute = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        dom = Domain(d, geometry, 2.5)
        initials = [self.state(rng, n, dom) for n in sizes]
        stream_labels = [rng.permutation(n) for n in sizes] if permute else None
        params = SimParams(dt=2e-3, t_end=0.03, stride=4)
        self.assert_segments_match(initials, pot, params, seeds, stream_labels)

    def test_capped_forces_are_counted_per_segment(self):
        dom = Domain(2, "torus", 4.0)
        pot = self.POTENTIALS["lennard-jones"]
        close = LabeledState([[1.0, 1.0], [1.1, 1.0], [3.0, 2.5]], dom)
        spread = LabeledState([[0.5, 0.5], [2.5, 2.5]], dom)
        params = SimParams(dt=1e-4, t_end=5e-4)
        batch = self.assert_segments_match([spread, close, spread], pot, params, [3, 4, 5])
        assert [t.diagnostics["capped_forces"] for t in batch] == [0, 10, 0]

    def test_k_labeled_states_and_a_large_segment(self):
        # a lone segment of _TREE_MIN_POINTS points or more searches with the tree
        rng = np.random.default_rng(71)
        dom = Domain(1, "torus", 40.0)
        pot = self.POTENTIALS["ou-soft-core-cut"]
        ks = [KLabeledState(rng.uniform(0, 40, size=(k, 1)),
                            Configuration(rng.uniform(0, 40, size=(n, 1)), dom))
              for k, n in ((1, 0), (1, 9), (2, 140))]
        params = SimParams(dt=1e-3, t_end=5e-3)
        self.assert_segments_match(ks, pot, params, [8, 9, 10])
        self.assert_segments_match(ks[2:], pot, params, [11])

    @pytest.mark.parametrize("geometry", ["free", "torus"])
    def test_strided_snapshots_across_running_max_blocks(self, geometry):
        # the running max is reduced a block of steps at a time; run over two
        # whole blocks and part of a third, with a stride that divides neither
        rng = np.random.default_rng(17)
        dom = Domain(2, geometry, 2.5)
        initials = [self.state(rng, n, dom) for n in (13, 0, 27)]
        block = dynamics._TRACK_NUMBERS // (40 * 2)
        n_steps = 2 * block + 5
        stride = 11
        assert n_steps % block and block % stride and n_steps % stride
        pot = self.POTENTIALS["ou-soft-core-cut"]
        strided = SimParams(dt=1e-3, t_end=n_steps * 1e-3, stride=stride)
        batch = self.assert_segments_match(initials, pot, strided, [5, 6, 7])
        every = dynamics._simulate_batch(initials, pot, dataclasses.replace(strided, stride=1),
                                         [5, 6, 7])
        rows = np.append(np.arange(0, n_steps + 1, stride), n_steps)
        for r in range(len(initials)):
            for key in ("times", "positions", "running_max"):
                assert_same_bits(getattr(batch[r], key), getattr(every[r], key)[rows])
            if geometry == "free":
                # no wrap: the unwrapped path is the path itself
                path = every[r].positions
                disp = np.sqrt(np.sum((path - path[0]) ** 2, axis=2))
                assert_same_bits(every[r].running_max, np.maximum.accumulate(disp, axis=0))

    def test_wide_batch_keeps_a_bounded_block(self):
        # thm24's widest arm, 2000 replicas of 8 points, over 400 steps: a
        # buffer of every step's 16 000 unwrapped points would take 49 MiB
        rng = np.random.default_rng(24)
        dom = Domain(1, "torus", 8.0)
        initials = [self.state(rng, 8, dom) for _ in range(2000)]
        params = SimParams(dt=1e-3, t_end=0.4, stride=200)
        seeds = list(range(100, 2100))
        tracemalloc.start()
        try:
            batch = dynamics._simulate_batch(initials, PotentialSpec(), params, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        for r in (0, 1234, 1999):
            alone = simulate(initials[r], PotentialSpec(), dataclasses.replace(params, seed=seeds[r]))
            for key in ("times", "positions", "running_max"):
                assert_same_bits(getattr(batch[r], key), getattr(alone, key))

    def test_one_segment_batch_keeps_hard_core_handling(self):
        dom = Domain(1, "torus", 8.0)
        state = LabeledState(np.arange(10)[:, None] * 0.8, dom)
        hard = PotentialSpec(psi="hard_core", hard_core_diameter=0.3)
        params = SimParams(dt=1e-3, t_end=0.05, seed=11, max_retries=3)
        with pytest.warns(UserWarning, match="halving"):
            traj, = self.assert_segments_match([state], hard, params, [11])
        assert traj.diagnostics["step_halvings"] > 0

    def test_hard_core_batch_rejected(self):
        dom = Domain(1, "torus", 8.0)
        state = LabeledState([[1.0], [4.0]], dom)
        for pot in (PotentialSpec(psi="hard_core", hard_core_diameter=0.3),
                    PotentialSpec(psi="soft_core", hard_core_diameter=0.3)):
            with pytest.raises(ConfigError):
                dynamics._simulate_batch([state, state], pot, SimParams(), [1, 2])

    def test_states_must_share_a_domain(self):
        a = LabeledState([[1.0]], Domain(1, "torus", 8.0))
        b = LabeledState([[1.0]], Domain(1, "torus", 9.0))
        with pytest.raises(ConfigError):
            dynamics._simulate_batch([a, b], PotentialSpec(), SimParams(), [1, 2])
