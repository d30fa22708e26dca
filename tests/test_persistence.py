import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ibmsim.configuration import Configuration, Domain, LabeledState
from ibmsim.dynamics import SimParams, Trajectory, simulate
from ibmsim.errors import ConfigError, FormatError, VersionMismatch
from ibmsim.persistence import (
    build_domain,
    build_potentials,
    build_sampler,
    build_sim_params,
    build_spec,
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
from ibmsim.pointprocess import DPPSpec
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


# trajectory files as the format wrote them while SimParams had a cell_size:
# hex with one, decimal with an empty one. The reader skips that line now.
WRITTEN_HEX = """\
# ibm-sim trajectory
format_version=1
coord_format=hex
frame=lab
d=1
geometry=torus
size=0x1.8000000000000p+2
n_particles=2
n_tagged=0
dt=0x1.0624dd2f1a9fcp-10
t_end=0x1.0624dd2f1a9fcp-9
seed=3
stride=1
cell_size=0x1.4000000000000p+1
hard_core_mode=reject
max_retries=7
prov.note=unit

time=0x0.0p+0
0x1.0000000000000p+0
0x1.4000000000000p+1
runmax 0x0.0p+0 0x0.0p+0
time=0x1.0624dd2f1a9fcp-10
0x1.f2b11e1bba94cp-1
0x1.413650d3c6f3fp+1
runmax 0x1.a9dc3c88ad680p-6 0x1.3650d3c6f3f00p-7
time=0x1.0624dd2f1a9fcp-9
0x1.edb117af771fep-1
0x1.4437e0ad5ff2dp+1
runmax 0x1.24ee85088e020p-5 0x1.0df82b57fcb40p-5
"""

WRITTEN_DECIMAL = """\
# ibm-sim trajectory
format_version=1
coord_format=decimal
frame=lab
d=1
geometry=torus
size=6
n_particles=2
n_tagged=0
dt=0.001
t_end=0.002
seed=4
stride=2
cell_size=
hard_core_mode=reject
max_retries=20

time=0
1
2.5
runmax 0 0
time=0.002
1.0355841810591346
2.4138389742821253
runmax 0.035584181059134634 0.086161025717874651
"""


# values a path can carry: signed zeros, infinities, NaN (a blown-up path),
# subnormals and magnitudes near the float range
SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                  1e300, -1e300, 1.7976931348623157e308]
PATH_FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


def per_value_body(traj, mode):
    """The snapshot blocks of a .traj file, encoded one value at a time."""
    enc = {"decimal": "%.17g".__mod__, "hex": float.hex}[mode]
    runmax = None if traj.running_max is None else traj.running_max.tolist()
    out = []
    for i, (t, snap) in enumerate(zip(traj.times.tolist(), traj.positions.tolist())):
        out.append(f"time={enc(t)}\n")
        out.extend(" ".join(map(enc, row)) + "\n" for row in snap)
        if runmax is not None:
            out.append("runmax " + " ".join(map(enc, runmax[i])) + "\n")
    return "".join(out)


def assert_same_floats(a, b):
    """Bitwise equal, except that any NaN matches any NaN."""
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


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

    @pytest.mark.parametrize("header", ["# d=1 geometry", "# d=1 geometry=cube size=5",
                                        "# d=1 geometry=torus size=-5"])
    def test_bad_header_item_is_format_error(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n1.0\n")
        with pytest.raises(FormatError) as err:
            read_configuration(path)
        assert err.value.line == 1

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

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_matches_per_value_encoder(self, tmp_path_factory, data):
        d, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6))
        frames = data.draw(st.integers(1, 6))
        mode = data.draw(st.sampled_from(["decimal", "hex"]))
        runmax = data.draw(st.sampled_from([None, "any", "steps"]))
        if runmax == "steps":
            # a step function of time, as a running max is: few distinct
            # values, among them 0.0 and -0.0
            values = np.array([0.0, -0.0] + data.draw(st.lists(PATH_FLOATS, max_size=3)))
            picks = data.draw(hnp.arrays(np.intp, (frames, n),
                                         elements=st.integers(0, values.size - 1)))
            running_max = values[np.sort(picks, axis=0)]
        elif runmax == "any":
            running_max = data.draw(hnp.arrays(np.float64, (frames, n), elements=PATH_FLOATS))
        else:
            running_max = None
        traj = Trajectory(
            times=data.draw(hnp.arrays(np.float64, frames, elements=PATH_FLOATS)),
            positions=data.draw(hnp.arrays(np.float64, (frames, n, d), elements=PATH_FLOATS)),
            domain=Domain(d, "torus", 5.0),
            params=SimParams(),
            n_tagged=data.draw(st.integers(1, 6)),
            running_max=running_max,
        )
        path = tmp_path_factory.mktemp("traj") / "run.traj"
        write_trajectory(traj, path, coord_format=mode)
        body = path.read_text().split("\n\n", 1)[1]
        assert body == per_value_body(traj, mode)
        back = read_trajectory(path)
        assert (back.domain, back.params, back.n_tagged) == (traj.domain, traj.params,
                                                              traj.n_tagged)
        assert_same_floats(back.times, traj.times)
        assert_same_floats(back.positions, traj.positions)
        if runmax:
            assert_same_floats(back.running_max, traj.running_max)
        else:
            assert back.running_max is None

    @pytest.mark.parametrize("mode", ["decimal", "hex"])
    def test_blown_up_path_equals_itself(self, tmp_path, mode):
        traj = Trajectory(times=np.array([0.0, 1e-3]),
                          positions=np.array([[[1.0], [2.0]], [[np.nan], [2.5]]]),
                          domain=Domain(1, "torus", 4.0), params=SimParams(),
                          running_max=np.array([[0.0, 0.0], [np.nan, 0.5]]))
        assert trajectory_equal(traj, traj)
        write_trajectory(traj, tmp_path / "nan.traj", coord_format=mode)
        assert trajectory_equal(traj, read_trajectory(tmp_path / "nan.traj"))

    @pytest.mark.parametrize("field", ["times", "positions", "running_max"])
    def test_signed_zeros_differ(self, tmp_path, field):
        # the writer keeps the sign of zero, so equality must too
        def path(value):
            arrays = {"times": np.array([0.0]), "positions": np.array([[[1.0]]]),
                      "running_max": np.array([[0.5]])}
            arrays[field] = np.full_like(arrays[field], value)
            return Trajectory(domain=Domain(1, "torus", 4.0), params=SimParams(), **arrays)

        plus, minus = path(0.0), path(-0.0)
        assert not trajectory_equal(plus, minus)
        assert trajectory_equal(minus, path(-0.0))
        for traj, name in ((plus, "plus.traj"), (minus, "minus.traj")):
            write_trajectory(traj, tmp_path / name)
            assert trajectory_equal(traj, read_trajectory(tmp_path / name))

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

    @pytest.mark.parametrize("text, mode, params", [
        (WRITTEN_HEX, "hex", SimParams(dt=1e-3, t_end=2e-3, seed=3, max_retries=7)),
        (WRITTEN_DECIMAL, "decimal", SimParams(dt=1e-3, t_end=2e-3, seed=4, stride=2)),
    ], ids=["hex", "decimal"])
    def test_written_files_rewrite_to_their_bytes(self, tmp_path, text, mode, params):
        path = tmp_path / "old.traj"
        path.write_text(text)
        traj = read_trajectory(path)
        assert traj.params == params
        write_trajectory(traj, tmp_path / "new.traj", coord_format=mode)
        written = (tmp_path / "new.traj").read_text()
        assert written == "".join(line for line in text.splitlines(keepends=True)
                                  if not line.startswith("cell_size="))
        assert len(written.splitlines()) == len(text.splitlines()) - 1
        assert trajectory_equal(traj, read_trajectory(tmp_path / "new.traj"))

    def test_missing_sim_params_key(self, tmp_path):
        path = tmp_path / "old.traj"
        path.write_text(WRITTEN_DECIMAL.replace("stride=2\n", ""))
        with pytest.raises(FormatError, match="missing header key stride"):
            read_trajectory(path)

    @pytest.mark.parametrize("line, bad", [
        ("seed=4", "seed=x"), ("max_retries=20", "max_retries=1.5"), ("stride=2", "stride=0"),
        ("dt=0.001", "dt=soon"), ("d=1", "d=one"), ("n_particles=2", "n_particles=two"),
        ("n_tagged=0", "n_tagged=none"), ("size=6", "size=big"),
        ("coord_format=decimal", "coord_format=octal"),
    ], ids=["seed", "max_retries", "stride", "dt", "d", "n_particles", "n_tagged", "size",
            "coord_format"])
    def test_malformed_header_value_is_format_error(self, tmp_path, line, bad):
        path = tmp_path / "bad.traj"
        path.write_text(WRITTEN_DECIMAL.replace(f"\n{line}\n", f"\n{bad}\n", 1))
        with pytest.raises(FormatError, match=bad.split("=")[0]) as info:
            read_trajectory(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("text, old, new, message, line", [
        (WRITTEN_DECIMAL, "\n2.5\n", "\n2.5x\n", "bad coordinate '2.5x'", 20),
        (WRITTEN_DECIMAL, "time=0.002", "time=soon", "bad coordinate 'soon'", 22),
        (WRITTEN_DECIMAL, "runmax 0 0", "runmax 0 zero", "bad coordinate 'zero'", 21),
        (WRITTEN_HEX, "0x1.f2b11e1bba94cp-1", "0x1.zp+0", "bad coordinate '0x1.zp+0'", 24),
        (WRITTEN_DECIMAL, "\n2.5\n", "\n2.5 1\n", "expected 1 coordinates for particle 1", 20),
        (WRITTEN_DECIMAL, "runmax 0 0", "runmax 0", "runmax length mismatch", 21),
        (WRITTEN_DECIMAL, "runmax 0 0\n", "", "runmax blocks do not match snapshots", 24),
        (WRITTEN_DECIMAL, "runmax 0 0\n", "runmax 0 0\njunk\n", "expected a time= line", 22),
    ], ids=["coordinate", "time", "runmax-value", "hex-coordinate", "coordinate-count",
            "runmax-length", "runmax-on-some-blocks", "stray-line"])
    def test_body_fault_names_its_line(self, tmp_path, text, old, new, message, line):
        path = tmp_path / "bad.traj"
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(FormatError, match=re.escape(message)) as info:
            read_trajectory(path)
        assert info.value.line == line

    @pytest.mark.parametrize("text", [WRITTEN_DECIMAL, WRITTEN_HEX], ids=["decimal", "hex"])
    def test_blank_lines_between_blocks_are_skipped(self, tmp_path, text):
        blocks = text.split("\ntime=")
        spaced = "\n\n \t\ntime=".join(blocks) + "\n  \n"
        assert spaced.count("\n \t\n") == len(blocks) - 1
        (tmp_path / "plain.traj").write_text(text)
        (tmp_path / "spaced.traj").write_text(spaced)
        assert trajectory_equal(read_trajectory(tmp_path / "plain.traj"),
                                read_trajectory(tmp_path / "spaced.traj"))

    @pytest.mark.parametrize("old, new, particle, line", [
        ("time=0\n1\n", "time=0\n\n1\n", 0, 19),
        ("\n1\n2.5\n", "\n1\n \n2.5\n", 1, 20),
        ("\n2.4138389742821253\n", "\n\n2.4138389742821253\n", 1, 24),
    ], ids=["first-particle", "whitespace-line", "second-block"])
    def test_blank_line_inside_a_block_is_a_format_error(self, tmp_path, old, new, particle,
                                                         line):
        path = tmp_path / "bad.traj"
        assert WRITTEN_DECIMAL.count(old) == 1
        path.write_text(WRITTEN_DECIMAL.replace(old, new))
        with pytest.raises(FormatError,
                           match=f"expected 1 coordinates for particle {particle}") as info:
            read_trajectory(path)
        assert info.value.line == line

    @pytest.mark.parametrize("faults, message, line", [
        ([("\n2.5\n", "\n2.5x\n"), ("runmax 0.0355", "runmax 0")],
         "bad coordinate '2.5x'", 20),
        ([("\n1\n", "\n1 1\n"), ("time=0.002", "time=soon")],
         "expected 1 coordinates for particle 0", 19),
        ([("time=0.002", "time=soon"), ("runmax 0.0355", "junk\nrunmax 0.0355")],
         "bad coordinate 'soon'", 22),
        ([("runmax 0 0", "runmax 0"), ("\n2.4138389742821253\n", "\nx\n")],
         "runmax length mismatch", 21),
        ([("\n2.4138389742821253\n", "\nx\n"),
          ("runmax 0.035584181059134634 0.086161025717874651\n", "")],
         "bad coordinate 'x'", 24),
        ([("\n2.4138389742821253\n", "\n2.4138389742821253 1\n"),
          ("runmax 0.035584181059134634 0.086161025717874651\n", "")],
         "expected 1 coordinates for particle 1", 24),
        ([("\n1\n", "\ntime=0.001\n"), ("time=0.002", "time=soon")],
         "bad coordinate 'time=0.001'", 19),
    ], ids=["value-then-length", "count-then-time", "time-then-stray", "length-then-value",
            "value-then-truncated", "count-then-truncated", "time-line-as-particle"])
    def test_first_of_two_body_faults_is_reported(self, tmp_path, faults, message, line):
        text = WRITTEN_DECIMAL
        for old, new in faults:
            assert text.count(old) == 1
            text = text.replace(old, new)
        path = tmp_path / "bad.traj"
        path.write_text(text)
        with pytest.raises(FormatError, match=re.escape(message)) as info:
            read_trajectory(path)
        assert info.value.line == line

    def test_version_mismatch(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "run.traj"
        write_trajectory(traj, path)
        text = path.read_text().replace("format_version=1", "format_version=99")
        path.write_text(text)
        with pytest.raises(VersionMismatch):
            read_trajectory(path)


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
        assert params.hard_core_mode == "reject" and params.max_retries == 20

    def test_keys_that_name_no_sim_field_are_ignored(self):
        # configs written while SimParams had a cell_size still run
        cfg = parse_config(EXAMPLE_CONFIG.replace("seed = 7", "seed = 7\ncell_size = 3.0"))
        assert build_sim_params(cfg) == build_sim_params(parse_config(EXAMPLE_CONFIG))

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


class TestBuildSpec:
    def test_absent_keys_keep_the_dataclass_default(self):
        assert build_spec(DPPSpec, {"n_matrix": "100"}, "[x]") == DPPSpec(n_matrix=100)
        assert build_potentials(parse_config("[domain]\ndimension = 1\n")) == PotentialSpec()

    def test_only_str_int_and_float_fields_are_read(self):
        # neither the phi table (no longer a field) nor a DPP kernel (set by the
        # sampler kind) is a config key
        cfg = parse_config("[potentials]\nphi_table_r = 1, 2\nphi_table_v = 0, 1\n"
                           "[sampler]\nkind = dyson_sine\nkernel = ginibre\n"
                           "window_radius = 3\n[domain]\ndimension = 1\n"
                           "geometry = ball\nsize = 3\n")
        assert build_potentials(cfg) == PotentialSpec()
        assert build_sampler(cfg, build_domain(cfg), 1)(0).domain.dimension == 1

    def test_bad_value_names_where_key_and_value(self):
        with pytest.raises(ConfigError, match=r"\[sim\] seed: '1\.5'"):
            build_sim_params(parse_config("[sim]\nseed = 1.5\n"))
        with pytest.raises(ConfigError, match="bad value for here n_matrix: 'x'"):
            build_spec(DPPSpec, {"n_matrix": "x"}, "here")


class TestParseConfig:
    def test_inline_comments_are_stripped(self):
        cfg = parse_config("[domain]\ngeometry = ball   ; torus | ball\nsize = 2;no space\n")
        assert cfg["domain"]["geometry"] == "ball"
        assert cfg["domain"]["size"] == "2;no space"  # a comment needs whitespace before ;

    @pytest.mark.parametrize("read", [
        lambda cfg: cfg["a"].getint("n"),
        lambda cfg: cfg["a"].getfloat("n", 1.0),
        lambda cfg: cfg.getfloat("a", "n", fallback=1.0),
        lambda cfg: cfg.getboolean("a", "n"),
    ], ids=["section-getint", "section-getfloat-fallback", "getfloat-fallback", "getboolean"])
    def test_every_conversion_raises_config_error(self, read):
        with pytest.raises(ConfigError, match=r"\[a\] n: 'lots'"):
            read(parse_config("[a]\nn = lots\n"))

    def test_absent_key_still_falls_back(self):
        cfg = parse_config("[a]\n")
        assert cfg["a"].getint("n") is None and cfg.getfloat("a", "n", fallback=2.0) == 2.0


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
