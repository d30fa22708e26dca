import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ibmsim import pipelines
from ibmsim.cli import main
from ibmsim.configuration import Domain
from ibmsim.dynamics import SimParams, Trajectory
from ibmsim.errors import ConfigError
from ibmsim.persistence import (
    config_sha256,
    read_configuration,
    read_trajectory,
    write_trajectory,
)
from ibmsim.pipelines import DEFAULT_CONFIGS

BASE_CONFIG = """
[domain]
dimension = 1
geometry = torus
size = 8.0

[potentials]
psi = soft_core
psi_strength = 0.4
psi_range = 0.7
r_cut = 3.0

[sampler]
kind = poisson
intensity = 1.0

[sim]
dt = 1e-3
t_end = 0.05
stride = 10
seed = 5

[analysis]
replicas = 400
edges_start = 0.0
edges_stop = 8.0
edges_count = 5
"""

SMALL_FORMS = """
[pipeline]
name = forms-suite
seed = 99
iota_pairs = 10
iota_h = 1e-4
iota_threshold = 1e-5
pointwise_samples = 5
mc_samples = 200
product_h = 1e-4
product_threshold = 1e-5
oracle_samples = 5
oracle_threshold = 1e-6
contraction_instances = 5
idempotence_max_points = 6
"""

SMALL_THM24 = """
[pipeline]
name = thm24-identity
seed = 1
replicas = 4
n_values = 3
k_values = 1
dt = 2e-3
t_end = 0.01
stride = 5
"""

SMALL_THM27 = """
[pipeline]
name = thm27-environment
seed = 2
replicas = 3
intensity = 1.0
domain_size = 8.0
dt = 1e-3
t_end = 0.01
stride = 5
interacting_replicas = 3
psi_strength = 0.6
psi_range = 0.7
burn_in = 500
"""

SMALL_CONFIGS = {"forms-suite": SMALL_FORMS, "thm24-identity": SMALL_THM24,
                 "thm27-environment": SMALL_THM27,
                 "dyson-correlations": DEFAULT_CONFIGS["dyson-correlations"],
                 "ginibre-correlations": DEFAULT_CONFIGS["ginibre-correlations"]}

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


class TestSampleAndSimulate:
    def test_sample_writes_configuration(self, tmp_path, config_file):
        out = str(tmp_path / "sample.cfgpts")
        assert main(["sample", "--config", config_file, "--seed", "3", "--out", out]) == 0
        config = read_configuration(out)
        assert config.domain.size == 8.0
        assert (tmp_path / "sample.cfgpts.manifest.json").exists()

    def test_simulate_round_trip(self, tmp_path, config_file):
        out = str(tmp_path / "run.traj")
        assert main(["simulate", "--config", config_file, "--out", out]) == 0
        traj = read_trajectory(out)
        assert traj.times[-1] == pytest.approx(0.05)
        assert "config_sha256" in traj.provenance


    def test_dpp_sampler_outside_its_window_exits_with_error(self, tmp_path, capsys):
        path = tmp_path / "ginibre.cfg"
        path.write_text(BASE_CONFIG.replace(
            "kind = poisson\nintensity = 1.0", "kind = ginibre\nwindow_radius = 3"))
        out = tmp_path / "sample.cfgpts"
        assert main(["sample", "--config", str(path), "--seed", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: sampler kind ginibre")
        assert not out.exists()

    def test_dpp_sampler_in_its_window_samples(self, tmp_path):
        path = tmp_path / "ginibre.cfg"
        path.write_text(BASE_CONFIG.replace(
            "dimension = 1\ngeometry = torus\nsize = 8.0",
            "dimension = 2\ngeometry = ball\nsize = 3.0").replace(
            "kind = poisson\nintensity = 1.0", "kind = ginibre\nwindow_radius = 3"))
        out = str(tmp_path / "sample.cfgpts")
        assert main(["sample", "--config", str(path), "--seed", "3", "--out", out]) == 0
        config = read_configuration(out)
        assert config.domain.dimension == 2 and config.domain.geometry == "ball"
        assert np.all(np.sum(config.points**2, axis=1) < 9.0)

    def test_bad_potentials_exit_with_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG.replace("psi_range = 0.7", "psi_range = 0"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "t.txt")]) == 2
        assert capsys.readouterr().err.startswith("error: bad [potentials]")

    def test_readme_example_config_runs(self, tmp_path):
        example = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        assert " ; " in example  # it carries inline comments
        path = tmp_path / "readme.cfg"
        path.write_text(example)
        out = str(tmp_path / "points.txt")
        assert main(["sample", "--config", str(path), "--seed", "7", "--out", out]) == 0
        assert read_configuration(out).domain.geometry == "torus"
        out = str(tmp_path / "run.traj")
        assert main(["simulate", "--config", str(path), "--out", out]) == 0
        traj = read_trajectory(out)
        assert traj.params.seed == 7 and traj.times[-1] == pytest.approx(1.0)


CAMPBELL = BASE_CONFIG + "sets = 0:1,1:2\nks = 1,1\n"
PUSHFORWARD = BASE_CONFIG + "r = 2.0\nk = 1\n"

MALFORMED = [  # (command, config, section, key) with one value missing or not parsing
    ("simulate", BASE_CONFIG.replace("size = 8.0", "size = big"), "domain", "size"),
    ("simulate", BASE_CONFIG.replace("psi_strength = 0.4", "psi_strength = abc"),
     "potentials", "psi_strength"),
    ("simulate", BASE_CONFIG.replace("t_end = 0.05", "t_end = abc"), "sim", "t_end"),
    ("sample", BASE_CONFIG.replace("intensity = 1.0", "intensity = x"), "sampler", "intensity"),
    ("sample", BASE_CONFIG.replace("kind = poisson", "kind = gibbs\nburn_in = lots"),
     "sampler", "burn_in"),
    ("analyze", BASE_CONFIG.replace("replicas = 400", "replicas = many"), "analysis", "replicas"),
    ("analyze", BASE_CONFIG.replace("edges_start = 0.0\n", ""), "analysis", "edges_start"),
    ("analyze", BASE_CONFIG.replace("edges_stop = 8.0\n", ""), "analysis", "edges_stop"),
    ("analyze --kind campbell", CAMPBELL.replace("sets = 0:1,1:2", "sets = 0:1,a"),
     "analysis", "sets"),
    ("analyze --kind campbell", CAMPBELL.replace("ks = 1,1", "ks = 1,one"), "analysis", "ks"),
    ("analyze --kind pushforward", PUSHFORWARD.replace("r = 2.0\n", ""), "analysis", "r"),
    ("analyze --kind pushforward", PUSHFORWARD.replace("k = 1\n", ""), "analysis", "k"),
    ("check-forms", "[forms]\nidentity = iota\nsamples = few\n", "forms", "samples"),
    ("pipeline", SMALL_THM24.replace("dt = 2e-3", "dt = soon"), "pipeline", "dt"),
    ("pipeline", SMALL_THM24.replace("n_values = 3", "n_values = 3,x"), "pipeline", "n_values"),
    ("pipeline --name thm27-environment", SMALL_THM27.replace("burn_in = 500", "burn_in = lots"),
     "pipeline", "burn_in"),
    ("pipeline --name thm27-environment", SMALL_THM27 + "thin = 1.5\n", "pipeline", "thin"),
]


class TestMalformedValues:
    @pytest.mark.parametrize("command, text, section, key",
                             [pytest.param(*case, id=f"{case[2]}-{case[3]}") for case in MALFORMED])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command, text, section, key):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        command, *kind = command.split()
        extra = {"sample": ["--out", str(tmp_path / "o")],
                 "simulate": ["--out", str(tmp_path / "o")],
                 "analyze": [*(kind or ["--kind", "rho1"]), "--out", str(tmp_path / "o")],
                 "check-forms": [],
                 "pipeline": kind or ["--name", "thm24-identity"]}[command]
        assert main([command, "--config", str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"[{section}] {key}" in err


class TestRejectedRequests:
    """Requests the program cannot serve exit 2 with one `error:` line."""

    @staticmethod
    def run(tmp_path, capsys, text, *argv):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        code = main([*argv, "--config", str(path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["msd", "explosion"])
    def test_trajectory_kinds_need_an_input(self, tmp_path, capsys, kind):
        code, err = self.run(tmp_path, capsys, "[analysis]\ntag = 0\n", "analyze",
                             "--kind", kind, "--out", str(tmp_path / "o.tsv"))
        assert code == 2 and err.startswith("error: ") and "--in" in err

    @pytest.mark.parametrize("sets, ks", [
        ("1:0,1:2", "1,1"), ("0:2,1:3", "1,1"), ("0:1,1:2", "2,1"),
    ], ids=["degenerate", "overlapping", "order-3"])
    def test_campbell_sets_outside_the_check(self, tmp_path, capsys, sets, ks):
        text = (CAMPBELL.replace("sets = 0:1,1:2", f"sets = {sets}")
                .replace("ks = 1,1", f"ks = {ks}").replace("replicas = 400", "replicas = 4"))
        code, err = self.run(tmp_path, capsys, text, "analyze", "--kind", "campbell",
                             "--out", str(tmp_path / "o.tsv"))
        assert code == 2 and err.startswith("error: [analysis] sets/ks")

    @pytest.mark.parametrize("key, value", [("burn_in", "-1"), ("thin", "0")])
    def test_thm27_gibbs_keys_out_of_range(self, tmp_path, capsys, key, value):
        # thm27 has no thin at all: each replica's Palm start is its own chain
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", SMALL_THM27, flags=re.M)
        if f"{key} = " not in text:
            text += f"{key} = {value}\n"
        code, err = self.run(tmp_path, capsys, text, "pipeline", "--name", "thm27-environment")
        assert code == 2 and err.startswith("error: bad [pipeline]") and key in err



class TestNegativeSeeds:
    """A negative seed is a request error where it enters the program, not a
    numpy traceback from the first sampler that uses it."""

    @pytest.mark.parametrize("argv", [
        ["sample", "--seed", "-1"],
        ["check-forms", "--seed", "-1"],
        ["pipeline", "--name", "forms-suite", "--seed", "-5"],
    ], ids=["sample", "check-forms", "pipeline"])
    def test_seed_flag_rejected(self, tmp_path, config_file, capsys, argv):
        if argv[0] == "sample":
            argv = [*argv, "--config", config_file, "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: argument --seed" in capsys.readouterr().err

    def test_sim_seed_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(BASE_CONFIG.replace("seed = 5", "seed = -3"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad [sim]") and "seed" in err

    def test_pipeline_config_seed_rejected(self, tmp_path, capsys):
        text = SMALL_FORMS.replace("seed = 99", "seed = -5")
        path = tmp_path / "forms.cfg"
        path.write_text(text)
        assert main(["pipeline", "--name", "forms-suite", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        with pytest.raises(ConfigError):
            pipelines.run_pipeline("forms-suite", SMALL_FORMS, seed=-5)


class TestThm27GibbsDefaults:
    class Stop(Exception):
        pass

    def spec(self, monkeypatch, text):
        seen = []

        def capture(spec, domain, seeds, pin=None):
            seen.append(spec)
            raise self.Stop

        monkeypatch.setattr(pipelines, "LockstepChains", capture)
        with pytest.raises(self.Stop):
            pipelines.run_pipeline("thm27-environment", config_text=text)
        return seen[0]

    def test_omitted_keys_take_the_pipeline_defaults(self, monkeypatch):
        text = re.sub(r"^(burn_in|activity) = .*\n", "",
                      DEFAULT_CONFIGS["thm27-environment"], flags=re.M)
        spec = self.spec(monkeypatch, text)
        assert (spec.burn_in, spec.activity) == (20000, 1.25)  # = intensity

    def test_given_keys_are_read_and_no_others(self, monkeypatch):
        spec = self.spec(monkeypatch, SMALL_THM27 + "activity = 0.5\nbeta = 2.0\n")
        assert (spec.burn_in, spec.activity, spec.beta) == (500, 0.5, 1.0)


class TestThm27PalmStarts:
    class Stop(Exception):
        pass

    def test_default_config_repeats_no_palm_seed(self, monkeypatch):
        # every child seed the default config draws, up to the chains' start
        drawn, real = [], pipelines.child_seeds

        def record(*args):
            drawn.append(real(*args))
            return drawn[-1]

        def stop(spec, domain, seeds, pin=None):
            assert np.array_equal(seeds, drawn[-1])
            raise self.Stop

        monkeypatch.setattr(pipelines, "child_seeds", record)
        monkeypatch.setattr(pipelines, "LockstepChains", stop)
        with pytest.raises(self.Stop):
            pipelines.run_pipeline("thm27-environment")
        seeds = np.concatenate(drawn)
        assert [len(s) for s in drawn] == [250, 250]
        assert np.unique(seeds).size == seeds.size

    def test_manifest_records_each_arm(self, tmp_path):
        pipelines.run_pipeline("thm27-environment", SMALL_THM27, out_dir=str(tmp_path))
        extra = json.loads((tmp_path / "thm27-environment.manifest.json").read_text())["extra"]
        free, chains = extra["thm27-free"], extra["thm27-interacting"]
        assert (free["palm_route"], free["chains"], free["burn_in"]) == ("slivnyak-poisson", 0, 0)
        assert (chains["palm_route"], chains["chains"], chains["burn_in"]) == (
            "pinned-gibbs-lockstep", 3, 500)
        assert set(chains["acceptance"]) == {"move", "birth", "death"}
        for record in (free, chains):
            assert all(record[key] >= 0 for key in ("palm_s", "simulate_s", "observe_s"))
        # timings stay out of the report
        text = (tmp_path / "thm27-environment.tsv").read_text()
        assert not any(key in text for key in ("palm_s", "simulate_s", "observe_s", "acceptance"))


class TestAnalyze:
    def test_rho1_report(self, tmp_path, config_file):
        out = str(tmp_path / "rho1.tsv")
        code = main(["analyze", "--kind", "rho1", "--config", config_file,
                     "--seed", "2", "--out", out])
        assert code == 0
        lines = [l for l in open(out) if not l.startswith("#")]
        assert lines[0].split("\t")[0] == "bin_lo"
        assert len(lines) == 5  # header + 4 bins

    @pytest.mark.parametrize("kind, text, columns", [
        ("campbell", CAMPBELL, "lhs"), ("pushforward", PUSHFORWARD, "k"),
    ], ids=["campbell", "pushforward"])
    def test_list_and_required_keys_read(self, tmp_path, kind, text, columns):
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"{kind}.tsv"
        assert main(["analyze", "--kind", kind, "--config", str(cfg), "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split("\t")[0] == columns and len(lines) == 2

    def test_nonexplosion_scan_report(self, tmp_path):
        cfg = tmp_path / "ne.cfg"
        cfg.write_text("[analysis]\nprofile = exponential\nrate = 0.5\ndimension = 1\n")
        out = str(tmp_path / "ne.tsv")
        assert main(["analyze", "--kind", "nonexplosion", "--config", str(cfg),
                     "--out", out]) == 0
        body = open(out).read()
        assert "satisfied" in body

    def test_check_explosion_alias(self, tmp_path):
        cfg = tmp_path / "ne.cfg"
        cfg.write_text("[analysis]\nprofile = gaussian-growth\ndimension = 1\n")
        out = str(tmp_path / "ne.tsv")
        assert main(["check-explosion", "--config", str(cfg), "--out", out]) == 0
        assert "not-satisfied" in open(out).read()

    def test_msd_from_trajectory(self, tmp_path, config_file):
        traj_path = str(tmp_path / "run.traj")
        main(["simulate", "--config", config_file, "--out", traj_path])
        cfg = tmp_path / "msd.cfg"
        cfg.write_text("[analysis]\ntag = 0\n")
        out = str(tmp_path / "msd.tsv")
        assert main(["analyze", "--kind", "msd", "--config", str(cfg),
                     "--out", out, "--in", traj_path]) == 0
        lines = [l for l in open(out) if not l.startswith("#")]
        assert lines[0].startswith("t\t")

    def test_explosion_report_bytes_on_edge_values(self, tmp_path):
        # the report's text of signed zeros, infinities, nan and the floats
        # where repr switches to exponents
        times = np.array([-0.0, 0.0, 1e-5, 1e16, np.inf, -np.inf, np.nan])
        # two replicas of one rod: the running max passes bound 3.0 in the
        # first at times[2] and in the second at times[4]
        paths = []
        for k, running_max in enumerate(([0.0, 1.0, 3.5, 3.5, 3.5, 3.5, 3.5],
                                         [0.0, 0.0, 0.0, 2.0, 4.0, 4.0, 4.0])):
            traj = Trajectory(times=times, positions=np.full((7, 1, 1), 0.5),
                              domain=Domain(1, "torus", 8.0), params=SimParams(),
                              running_max=np.array(running_max)[:, None])
            paths.append(str(tmp_path / f"edge{k}.traj"))
            write_trajectory(traj, paths[-1])
        cfg = tmp_path / "explosion.cfg"
        cfg.write_text("[analysis]\nr = 10.0\nbound = 3.0\n")
        out = tmp_path / "explosion.tsv"
        assert main(["analyze", "--kind", "explosion", "--config", str(cfg),
                     "--out", str(out), "--in", *paths]) == 0
        body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert body == ["t\tfraction_exceeding", "-0.0\t0.0", "0.0\t0.0", "1e-05\t0.5",
                        "1e+16\t0.5", "inf\t1.0", "-inf\t1.0", "nan\t1.0"]


class TestCheckForms:
    def test_iota_row(self, tmp_path, capsys):
        out = tmp_path / "iota.tsv"
        assert main(["check-forms", "--identity", "iota", "--samples", "5",
                     "--h", "1e-4", "--seed", "1", "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        fields = line.split("\t")
        assert fields[0] == "iota-frame-change"
        assert float(fields[1]) < 1e-5
        # without a config the manifest hashes the effective settings
        record = json.loads((tmp_path / "iota.tsv.manifest.json").read_text())
        assert record["config_sha256"] == config_sha256(
            "identity = iota\nsamples = 5\nh = 0.0001\n")

    def test_config_section_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "forms.cfg"
        cfg.write_text("[forms]\nidentity = iota\nsamples = 3\nh = 1e-4\n")
        out = tmp_path / "forms.tsv"
        assert main(["check-forms", "--config", str(cfg), "--seed", "2",
                     "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.split("\t")[2] == "3"
        assert out.exists()
        record = json.loads((tmp_path / "forms.tsv.manifest.json").read_text())
        assert record["config_sha256"] == config_sha256(cfg.read_text())
        assert record["seed"] == 2

    @pytest.mark.parametrize("identity, samples",
                             [("iota", "0"), ("product", "1"), ("all", "0")])
    def test_too_few_samples_rejected(self, identity, samples, capsys):
        assert main(["check-forms", "--identity", identity, "--samples", samples]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestPipelineCommand:
    def test_exit_code_and_report(self, tmp_path):
        cfg = tmp_path / "forms.cfg"
        cfg.write_text(SMALL_FORMS)
        out_dir = str(tmp_path / "reports")
        code = main(["pipeline", "--name", "forms-suite", "--config", str(cfg),
                     "--out", out_dir])
        assert code == 0
        report = open(f"{out_dir}/forms-suite.tsv").read()
        assert "iota-identity-max-residual" in report
        assert "FAIL" not in report

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "forms.cfg"
        cfg.write_text(SMALL_FORMS)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["pipeline", "--name", "forms-suite", "--config", str(cfg), "--out", out_a])
        main(["pipeline", "--name", "forms-suite", "--config", str(cfg), "--out", out_b])
        a = open(f"{out_a}/forms-suite.tsv", "rb").read()
        b = open(f"{out_b}/forms-suite.tsv", "rb").read()
        assert a == b

    @pytest.mark.parametrize("name, key, value", [
        *[pytest.param("forms-suite", key, value, id=f"{key}-{value}") for key, value in (
            ("iota_pairs", 0), ("pointwise_samples", 0), ("mc_samples", 1),
            ("oracle_samples", 0), ("contraction_instances", 0),
            ("idempotence_max_points", 9),
        )],
        ("thm24-identity", "k_values", 3),  # no (n, k) with k < n
        ("thm24-identity", "k_values", 0),  # the unlabeled arm against itself
        ("thm24-identity", "replicas", 1),
        ("thm27-environment", "replicas", 1),
        ("thm27-environment", "interacting_replicas", 1),
        ("dyson-correlations", "replicas", 0),
        ("ginibre-correlations", "replicas", 0),
    ])
    def test_counts_that_check_nothing_rejected(self, tmp_path, capsys, name, key, value):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", SMALL_CONFIGS[name]))
        assert main(["pipeline", "--name", name, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name, text", [
        pytest.param("forms-suite", "[pipeline]\nname = forms-suite\nseed = 99\n",
                     id="name-and-seed-only"),
        pytest.param("forms-suite", SMALL_FORMS.replace("iota_pairs = 10", "iota_pairs ="),
                     id="empty"),
        pytest.param("forms-suite", SMALL_FORMS.replace("mc_samples = 200", "mc_samples = 2.5"),
                     id="non-integer"),
        pytest.param("forms-suite", SMALL_FORMS.replace("idempotence_max_points = 6\n", ""),
                     id="missing-cap"),
        pytest.param("thm24-identity", SMALL_THM24.replace("dt = 2e-3\n", ""),
                     id="thm24-missing-dt"),
        pytest.param("thm24-identity", SMALL_THM24.replace("t_end = 0.01", "t_end = soon"),
                     id="thm24-malformed-t_end"),
    ])
    def test_missing_or_non_integer_count_rejected(self, tmp_path, capsys, name, text):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(text)
        assert main(["pipeline", "--name", name, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(SystemExit):
            main(["pipeline", "--name", "nope"])

    @pytest.mark.parametrize("name, values, digest", [
        ("thm24-identity", {"replicas": 60},
         "1b07b101e27f7e3a9e9a25f7eba6ae204a0850bdc4f851813b41468ad601aae1"),
        ("thm27-environment",
         {"replicas": 30, "interacting_replicas": 20, "burn_in": 2000},
         "835f63f41ae90204d3d832fae40ca0cc15256c8e08e35e64b59c7b05c664fca0"),
    ], ids=["thm24", "thm27"])
    def test_pinned_report_digest(self, tmp_path, name, values, digest):
        # SHA-256 of the reports from the route that ran each replica alone
        text = DEFAULT_CONFIGS[name]
        for key, value in values.items():
            text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        pipelines.run_pipeline(name, text, out_dir=str(tmp_path))
        assert hashlib.sha256((tmp_path / f"{name}.tsv").read_bytes()).hexdigest() == digest


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone doubles the start-up time of every command
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import ibmsim.cli; " \
           "print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


class TestNonexplosionPipelineCli:
    def test_runs_and_passes(self, tmp_path):
        out_dir = str(tmp_path / "ne")
        code = main(["pipeline", "--name", "nonexplosion-suite", "--out", out_dir])
        assert code == 0
        assert (tmp_path / "ne" / "nonexplosion-suite.manifest.json").exists()
