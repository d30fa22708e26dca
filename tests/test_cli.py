import json
import re

import numpy as np
import pytest

from ibmsim.cli import main
from ibmsim.persistence import config_sha256, read_configuration, read_trajectory

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


class TestAnalyze:
    def test_rho1_report(self, tmp_path, config_file):
        out = str(tmp_path / "rho1.tsv")
        code = main(["analyze", "--kind", "rho1", "--config", config_file,
                     "--seed", "2", "--out", out])
        assert code == 0
        lines = [l for l in open(out) if not l.startswith("#")]
        assert lines[0].split("\t")[0] == "bin_lo"
        assert len(lines) == 5  # header + 4 bins

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

    @pytest.mark.parametrize("key, value", [
        ("iota_pairs", 0), ("pointwise_samples", 0), ("mc_samples", 1),
        ("oracle_samples", 0), ("contraction_instances", 0),
    ])
    def test_counts_that_check_nothing_rejected(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "forms.cfg"
        cfg.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", SMALL_FORMS))
        assert main(["pipeline", "--name", "forms-suite", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(SystemExit):
            main(["pipeline", "--name", "nope"])


class TestNonexplosionPipelineCli:
    def test_runs_and_passes(self, tmp_path):
        out_dir = str(tmp_path / "ne")
        code = main(["pipeline", "--name", "nonexplosion-suite", "--out", out_dir])
        assert code == 0
        assert (tmp_path / "ne" / "nonexplosion-suite.manifest.json").exists()
