import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibmsim.configuration import Configuration, Domain, LabeledState
from ibmsim.dynamics import SimParams, Trajectory, simulate
from ibmsim.errors import ConfigError, FormatError, VersionMismatch
from ibmsim.persistence import (
    build_domain,
    build_potentials,
    build_sampler,
    build_sim_params,
    config_sha256,
    manifest,
    parse_config,
    read_configuration,
    read_trajectory,
    trajectory_equal,
    write_configuration,
    write_manifest,
    write_trajectory,
)
from ibmsim.potentials import PotentialSpec

EXAMPLE_CONFIG = """
[domain]
dimension = 1
geometry = torus
size = 8.0

[potentials]
phi = none
psi = soft_core
psi_strength = 0.5
psi_range = 0.7
r_cut = 3.0

[sampler]
kind = poisson
intensity = 1.5

[sim]
dt = 1e-3
t_end = 0.5
stride = 10
seed = 7
"""


def small_trajectory(seed=3, coord_mode="decimal"):
    dom = Domain(1, "torus", 6.0)
    state = LabeledState([1.0, 2.5, 4.0], dom)
    params = SimParams(dt=1e-3, t_end=0.02, seed=seed, stride=5)
    return simulate(state, PotentialSpec(psi="soft_core"), params,
                    provenance={"sampler": "fixed", "note": "unit"})


class TestConfigurationFormat:
    @given(
        st.integers(1, 3),
        st.integers(0, 6),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, d, n, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        dom = Domain(d, "torus", 5.0)
        config = Configuration(rng.uniform(0, 5, size=(n, d)), dom)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/config.txt"
            write_configuration(config, path)
            back = read_configuration(path)
        assert back.domain == dom
        assert np.array_equal(back.points, config.points)

    def test_header_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n")
        with pytest.raises(FormatError):
            read_configuration(path)

    def test_bad_coordinate_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# d=1 geometry=torus size=5\n1.0\nxyz\n")
        with pytest.raises(FormatError) as err:
            read_configuration(path)
        assert err.value.line == 3


class TestTrajectoryFormat:
    @pytest.mark.parametrize("mode", ["decimal", "hex"])
    def test_round_trip_bit_exact(self, tmp_path, mode):
        traj = small_trajectory()
        path = tmp_path / "run.traj"
        write_trajectory(traj, path, coord_format=mode)
        back = read_trajectory(path)
        assert trajectory_equal(traj, back)

    def test_empty_trajectory(self, tmp_path):
        dom = Domain(1, "torus", 4.0)
        state = LabeledState([1.0], dom)
        traj = simulate(state, PotentialSpec(), SimParams(dt=1e-3, t_end=0.0, seed=1))
        path = tmp_path / "empty.traj"
        write_trajectory(traj, path)
        back = read_trajectory(path)
        assert trajectory_equal(traj, back)
        assert back.n_snapshots == 1  # initial snapshot only

    def test_truncated_file_reports_line(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "run.traj"
        write_trajectory(traj, path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-2]) + "\n")
        with pytest.raises(FormatError):
            read_trajectory(path)

    def test_version_mismatch(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "run.traj"
        write_trajectory(traj, path)
        text = path.read_text().replace("format_version=1", "format_version=99")
        path.write_text(text)
        with pytest.raises(VersionMismatch):
            read_trajectory(path)


class TestEnvironmentPath:
    def test_round_trip_with_tagged_frame(self, tmp_path):
        from ibmsim.persistence import write_environment_path
        from ibmsim.tagged import environment_process

        traj = small_trajectory()
        env = environment_process(traj, traj.positions[0, 0])
        path = tmp_path / "env.traj"
        write_environment_path(traj.times, env, traj.params, path)
        text = path.read_text()
        assert "frame=tagged" in text
        back = read_trajectory(path)
        assert back.n_particles == traj.n_particles - 1
        for t, config in enumerate(env):
            assert np.array_equal(
                np.sort(back.positions[t], axis=0), config.canonical()
            )


class TestRunConfig:
    def test_build_everything(self):
        cfg = parse_config(EXAMPLE_CONFIG)
        dom = build_domain(cfg)
        assert dom == Domain(1, "torus", 8.0)
        pot = build_potentials(cfg)
        assert pot.psi == "soft_core" and pot.r_cut == 3.0
        params = build_sim_params(cfg)
        assert params.dt == 1e-3 and params.seed == 7
        sampler = build_sampler(cfg, dom, seed=3)
        config = sampler(0)
        assert config.domain == dom

    def test_seed_override(self):
        cfg = parse_config(EXAMPLE_CONFIG)
        assert build_sim_params(cfg, seed=99).seed == 99

    def test_sim_defaults_without_section(self):
        params = build_sim_params(parse_config("[domain]\ndimension = 1\n"))
        assert (params.dt, params.t_end, params.seed, params.stride) == (1e-3, 1.0, 0, 1)
        assert params.cell_size is None and params.max_retries == 20

    @pytest.mark.parametrize("line", [
        "phi = table", "psi_range = 0", "psi_range = -1", "hard_core_diameter = -0.5",
    ])
    def test_bad_potentials_rejected(self, line):
        with pytest.raises(ConfigError):
            build_potentials(parse_config(f"[potentials]\npsi = soft_core\n{line}\n"))
    def test_missing_section(self):
        with pytest.raises(ConfigError):
            build_domain(parse_config("[sim]\ndt = 1\n"))

    def test_unknown_sampler(self):
        cfg = parse_config("[domain]\ndimension=1\nsize=4\n[sampler]\nkind = magic\n")
        with pytest.raises(ConfigError):
            build_sampler(cfg, build_domain(cfg), 0)

    @pytest.mark.parametrize("kind, dimension, geometry, size", [
        ("ginibre", 1, "torus", 8), ("ginibre", 2, "torus", 3), ("ginibre", 2, "ball", 4),
        ("ginibre", 1, "ball", 3), ("dyson_sine", 2, "ball", 3), ("dyson_sine", 1, "free", 3),
    ])
    def test_dpp_kind_needs_its_window_as_domain(self, kind, dimension, geometry, size):
        cfg = parse_config(f"[domain]\ndimension = {dimension}\ngeometry = {geometry}\n"
                           f"size = {size}\n[sampler]\nkind = {kind}\n"
                           "n_matrix = 100\nwindow_radius = 3\n")
        with pytest.raises(ConfigError, match="geometry = ball"):
            build_sampler(cfg, build_domain(cfg), 0)

    @pytest.mark.parametrize("kind, dimension", [("dyson_sine", 1), ("ginibre", 2)])
    def test_dpp_kind_samples_in_its_window(self, kind, dimension):
        cfg = parse_config(f"[domain]\ndimension = {dimension}\ngeometry = ball\nsize = 3\n"
                           f"[sampler]\nkind = {kind}\nn_matrix = 100\nwindow_radius = 3\n")
        dom = build_domain(cfg)
        config = build_sampler(cfg, dom, 5)(0)
        assert config.domain == dom and len(config) > 0
        assert dom.contains(config.points)


class TestManifest:
    def test_same_config_same_hash(self):
        run = {"config_text": EXAMPLE_CONFIG, "seed": 7, "started": 0.0, "finished": 1.0}
        a, b = manifest(run), manifest(run)
        assert a.config_sha256 == b.config_sha256

    def test_changed_dt_changes_hash(self):
        other = EXAMPLE_CONFIG.replace("dt = 1e-3", "dt = 2e-3")
        assert config_sha256(EXAMPLE_CONFIG) != config_sha256(other)

    def test_append_only(self, tmp_path):
        rec = manifest({"config_text": "x", "seed": 1, "started": 0.0, "finished": 0.5})
        path = tmp_path / "manifest.json"
        write_manifest(rec, path)
        with pytest.raises(FileExistsError):
            write_manifest(rec, path)
