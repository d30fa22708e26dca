import math

import numpy as np
import pytest

from ibmsim.configuration import Configuration, Domain, KLabeledState, LabeledState
from ibmsim.dynamics import SimParams, simulate, simulate_k_labeled
from ibmsim.errors import AmbiguousMatching, NoSuchPoint, NotSingle
from ibmsim.potentials import PotentialSpec
from ibmsim.tagged import (
    environment_process,
    environment_via_iota,
    split_paths,
    tag_particle,
)


def run_small(seed=1, n=4, t_end=0.05):
    dom = Domain(1, "torus", 8.0)
    pot = PotentialSpec(psi="soft_core", psi_strength=0.6, psi_range=0.7)
    pts = (np.arange(n) * 8.0 / n)[:, None] + 0.3
    state = LabeledState(pts, dom)
    params = SimParams(dt=1e-3, t_end=t_end, seed=seed, stride=10)
    return simulate(state, pot, params), pts


def dense_match_frame(prev, cur, domain, radius):
    """Oracle: greedy argmin over the dense (n_prev, n_cur) distance matrix,
    then every pair of matched pairs checked crosswise."""
    n_prev, n_cur = prev.shape[0], cur.shape[0]
    if n_prev == 0 or n_cur == 0:
        return {}
    diff = domain.displacement(prev[:, None, :], cur[None, :, :])
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    assignment = {}
    cost = dist.copy()
    while len(assignment) < min(n_prev, n_cur):
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        if not cost[i, j] <= radius:
            break
        assignment[int(i)] = int(j)
        cost[i, :] = np.inf
        cost[:, j] = np.inf
    items = list(assignment.items())
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            (i1, j1), (i2, j2) = items[a], items[b]
            if dist[i1, j2] <= radius and dist[i2, j1] <= radius:
                raise AmbiguousMatching("crosswise")
    return assignment


def dense_split_paths(configs, times, matching_radius):
    """Oracle: split_paths over dense_match_frame with per-track point lists;
    tracks as (times, positions, start_index, starts_at_zero)."""
    for c in configs:
        if not c.is_single():
            raise NotSingle("snapshot")
    first = configs[0].points
    open_tracks = {idx: [0, [first[idx]]] for idx in range(first.shape[0])}
    finished = []
    next_id = first.shape[0]
    prev_points, prev_owner = first, {i: i for i in range(first.shape[0])}
    for t in range(1, len(configs)):
        cur = configs[t].points
        assignment = dense_match_frame(prev_points, cur, configs[0].domain, matching_radius)
        new_owner = {}
        for i_prev, j_cur in assignment.items():
            open_tracks[prev_owner[i_prev]][1].append(cur[j_cur])
            new_owner[j_cur] = prev_owner[i_prev]
        for i_prev, track_id in prev_owner.items():
            if i_prev not in assignment:
                finished.append(open_tracks.pop(track_id))
        for j in range(cur.shape[0]):
            if j not in new_owner:
                open_tracks[next_id] = [t, [cur[j]]]
                new_owner[j] = next_id
                next_id += 1
        prev_points, prev_owner = cur, new_owner
    finished.extend(open_tracks.values())
    tracks = [(times[start : start + len(pts)], np.asarray(pts), start, start == 0)
              for start, pts in finished]
    tracks.sort(key=lambda tr: (tr[2], tuple(tr[1][0])))
    return tracks


def random_path(rng, d, geometry):
    """A short unlabeled path with jitter, births, deaths and shuffles; torus
    points may sit whole periods off the box (unvalidated input)."""
    size = 4.0
    dom = Domain(d, geometry, size)
    low = 0.0 if geometry == "torus" else -size / math.sqrt(d)
    high = size if geometry == "torus" else size / math.sqrt(d)
    pts = rng.uniform(low, high, size=(int(rng.integers(0, 10)), d))
    step = rng.choice([0.02, 0.2, 1.0])
    on_grid = rng.random() < 0.2  # quarter-unit coordinates: exact distance ties
    configs = []
    for _ in range(int(rng.integers(1, 6))):
        pts = pts + rng.normal(0.0, step, size=pts.shape)
        if geometry == "torus":
            pts = dom.wrap(pts)
        keep = rng.random(pts.shape[0]) > 0.15  # deaths
        born = rng.uniform(low, high, size=(int(rng.poisson(0.8)), d))
        pts = np.concatenate([pts[keep], born])[rng.permutation(int(keep.sum()) + born.shape[0])]
        frame = np.round(pts * 4.0) / 4.0 if on_grid else pts.copy()
        if geometry == "torus" and rng.random() < 0.3:
            frame += size * rng.integers(-2, 3, size=frame.shape)
        if frame.shape[0] > 1 and rng.random() < 0.03:  # coincident points
            frame[-1] = frame[0]
        configs.append(Configuration(frame, dom, validate=False))
    radius = float(rng.choice([0.05, 0.3, 1.0, 2.5, 3.5]))  # up to past size / 2
    return configs, np.cumsum(rng.uniform(0.1, 1.0, size=len(configs))), radius


class TestSplitPathsAgainstDenseOracle:
    def test_same_tracks_and_same_errors(self):
        rng = np.random.default_rng(2013)
        outcomes = {"tracks": 0, AmbiguousMatching: 0, NotSingle: 0}
        born_late = 0
        for case in range(2400):
            d, geometry = [(1, "torus"), (2, "torus"), (1, "free"), (2, "free"),
                           (1, "ball"), (2, "ball")][case % 6]
            configs, times, radius = random_path(rng, d, geometry)
            try:
                want = dense_split_paths(configs, times, radius)
            except (AmbiguousMatching, NotSingle) as exc:
                with pytest.raises(type(exc)):
                    split_paths(configs, times, radius)
                outcomes[type(exc)] += 1
                continue
            got = split_paths(configs, times, radius)
            assert len(got) == len(want)
            for track, (w_times, w_pos, w_start, w_zero) in zip(got, want):
                assert np.array_equal(track.times, w_times)
                assert np.array_equal(track.positions, w_pos)
                assert track.positions.shape == w_pos.shape
                assert track.start_index == w_start
                assert track.starts_at_zero == w_zero
            outcomes["tracks"] += 1
            born_late += sum(not tr.starts_at_zero for tr in got)
        assert min(outcomes.values()) >= 50, outcomes
        assert born_late >= 500


class TestSplitPaths:
    def test_round_trip_against_native_labels(self):
        traj, _ = run_small(seed=3)
        configs = [traj.configuration(i) for i in range(traj.n_snapshots)]
        tracks = split_paths(configs, traj.times)
        assert len(tracks) == traj.n_particles
        recovered = np.stack([t.positions for t in tracks], axis=1)
        # tracks come back sorted by starting point; align by start position
        order = np.argsort(traj.positions[0, :, 0])
        assert np.array_equal(recovered, traj.positions[:, order, :])

    def test_round_trip_many_particles_on_a_2d_torus(self):
        # 1024 particles at density 1: the tree search with ~1000 candidates a frame
        side = 32
        dom = Domain(2, "torus", float(side))
        rng = np.random.default_rng(17)
        grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2)
        pts = dom.wrap(grid + 0.5 + rng.uniform(-0.2, 0.2, size=grid.shape))
        traj = simulate(LabeledState(pts, dom), PotentialSpec(),
                        SimParams(dt=1e-4, t_end=2e-3, seed=21, stride=1))
        configs = [traj.configuration(i) for i in range(traj.n_snapshots)]
        tracks = split_paths(configs, traj.times)
        assert len(tracks) == traj.n_particles == side * side
        recovered = np.stack([t.positions for t in tracks], axis=1)
        order = np.lexsort(traj.positions[0].T[::-1])
        assert np.array_equal(recovered, traj.positions[:, order, :])

    def test_static_particle_single_track(self):
        dom = Domain(1, "torus", 4.0)
        configs = [Configuration([1.5], dom)] * 5
        tracks = split_paths(configs, np.linspace(0, 1, 5))
        assert len(tracks) == 1
        assert tracks[0].starts_at_zero
        assert tracks[0].interval == (0.0, 1.0)

    def test_crossing_within_one_stride_is_ambiguous(self):
        dom = Domain(1, "free", 10.0)
        a = Configuration([0.0, 1.0], dom)
        b = Configuration([1.0, 0.0], dom)  # swapped positions
        with pytest.raises(AmbiguousMatching):
            split_paths([a, b], np.array([0.0, 1.0]), matching_radius=2.0)

    def test_birth_and_death_intervals(self):
        dom = Domain(1, "free", 10.0)
        configs = [
            Configuration([0.0], dom),
            Configuration([0.05, 3.0], dom),
            Configuration([0.1, 3.02], dom),
            Configuration([3.05], dom),
        ]
        tracks = split_paths(configs, np.array([0.0, 1.0, 2.0, 3.0]),
                             matching_radius=0.5)
        assert len(tracks) == 2
        first = [t for t in tracks if t.starts_at_zero][0]
        second = [t for t in tracks if not t.starts_at_zero][0]
        assert first.interval == (0.0, 2.0)
        assert second.interval == (1.0, 3.0)

    def test_times_must_match_snapshots(self):
        dom = Domain(1, "free", 10.0)
        configs = [Configuration([1.0], dom)] * 3
        with pytest.raises(ValueError, match=r"shape \(2,\) for 3 snapshots"):
            split_paths(configs, np.array([0.0, 1.0]))

    def test_not_single_rejected(self):
        dom = Domain(1, "free", 10.0)
        with pytest.raises(NotSingle):
            split_paths([Configuration([1.0, 1.0], dom)])


class TestTagParticle:
    def test_returns_label_track(self):
        traj, pts = run_small(seed=4)
        track = tag_particle(traj, pts[0])
        assert np.array_equal(track.positions, traj.positions[:, 0, :])

    def test_no_such_point(self):
        traj, _ = run_small(seed=5)
        with pytest.raises(NoSuchPoint):
            tag_particle(traj, [5.55])

    def test_tagged_track_free_msd(self):
        # one tagged particle per replica; tracks recovered by position
        dom = Domain(1, "free", 50.0)
        disp = []
        for rep in range(400):
            state = LabeledState([[1.0], [7.0]], dom)
            traj = simulate(state, PotentialSpec(),
                            SimParams(dt=5e-3, t_end=0.5, seed=600 + rep, stride=20))
            track = tag_particle(traj, [1.0])
            disp.append(float((track.positions[-1, 0] - track.positions[0, 0]) ** 2))
        slope = np.mean(disp) / traj.times[-1]
        # chi-square spread: relative 3 sigma over 400 replicas is ~0.21
        assert slope == pytest.approx(1.0, rel=0.22)


class TestEnvironment:
    def test_two_particle_difference(self):
        traj, pts = run_small(seed=7, n=2)
        env = environment_process(traj, pts[0])
        for t, config in enumerate(env):
            expected = traj.domain.wrap(traj.positions[t, 1] - traj.positions[t, 0])
            assert np.allclose(config.points[0], expected)

    def test_initial_environment_is_translated_background(self):
        traj, pts = run_small(seed=8)
        env = environment_process(traj, pts[0])
        from ibmsim.configuration import translate

        others = Configuration(traj.positions[0, 1:], traj.domain, validate=False)
        expected = translate(others, traj.positions[0, 0])
        assert env[0].same_points(expected)

    def test_pathwise_identity_with_iota_route(self):
        traj, pts = run_small(seed=9)
        direct = environment_process(traj, pts[0])
        via_iota = environment_via_iota(traj, pts[0])
        for a, b in zip(direct, via_iota):
            assert np.array_equal(a.canonical(), b.canonical())

    def test_environment_independent_of_label_rule(self):
        # relabeling the background slots (with matching noise streams) leaves
        # the environment configurations identical as point multisets
        dom = Domain(1, "torus", 8.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=0.6, psi_range=0.7)
        pts = np.array([[0.3], [2.3], [4.3], [6.3]])
        params = SimParams(dt=1e-3, t_end=0.03, seed=30, stride=10)
        base = simulate(LabeledState(pts, dom), pot, params)
        perm = np.array([0, 3, 1, 2])  # keep the tagged slot, permute the rest
        permuted = simulate(LabeledState(pts[perm], dom), pot, params,
                            stream_labels=perm)
        env_a = environment_process(base, pts[0])
        env_b = environment_process(permuted, pts[0])
        for a, b in zip(env_a, env_b):
            assert np.array_equal(a.canonical(), b.canonical())

    def test_environment_from_k_labeled_run_matches_unlabeled(self):
        dom = Domain(1, "torus", 8.0)
        pot = PotentialSpec(psi="soft_core", psi_strength=0.6)
        tagged = np.array([[1.0]])
        bg = Configuration([3.0, 5.0, 7.0], dom)
        params = SimParams(dt=1e-3, t_end=0.04, seed=10, stride=5)
        traj = simulate_k_labeled(KLabeledState(tagged, bg), pot, params)
        env = environment_process(traj, [1.0])
        for t in range(traj.n_snapshots):
            state = traj.k_state(t)
            from ibmsim.configuration import iota

            assert env[t].same_points(iota(state).background)
