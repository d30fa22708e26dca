"""The benchmark's workloads: inputs made from a seed, timed jobs that call
the library's public entry points, and correctness checks run afterwards.

Jobs look library functions up through their modules at call time
(`configuration.label`, `pipelines.run_pipeline`, `cli.main`), so a traced
run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ibmsim import cli, configuration, dynamics, persistence, pipelines, pointprocess
from ibmsim.potentials import PotentialSpec

# Sizes. Pipelines keep their own configs and tolerances; only replica and
# sample counts shrink.
MAP_CONFIGS = 4000          # 4-point 1-d torus configs through the map algebra
THM24_REPLICAS = 24
THM27_REPLICAS = 40         # free (Poisson) arm only, see _small_inputs
DYSON_SAMPLES = 6
GINIBRE_SAMPLES = 3
FORMS_COUNTS = {"iota_pairs": 20, "pointwise_samples": 20, "mc_samples": 1000,
                "oracle_samples": 10, "contraction_instances": 10}
LARGE_DENSITY_SIDE = math.sqrt(4000.0)   # unit density: about 4000 points
LARGE_STEPS = 3
HARD_CORE_STEPS = 20_000
HARD_CORE_SIGMA = 0.5

# Rows whose outcome does not depend on the random stream: identities that
# hold exactly or to a discretization error far below the threshold.
EXACT_ROWS = ("pathwise-iota-identity-", "iota-identity-max-residual",
              "product-pointwise-max-residual", "gamma-oracle-max-rel-err",
              "symmetrize-idempotent", "symmetrize-energy-contraction-violations")


def derive_seed(seed: int, stream: int) -> int:
    """Independent 31-bit seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0] >> 1)


def with_values(text: str, **values) -> str:
    """Config text with `key = value` lines replaced (keys must exist)."""
    lines = text.splitlines()
    for key, value in values.items():
        hits = [i for i, line in enumerate(lines) if line.split("=")[0].strip() == key]
        if len(hits) != 1:
            raise KeyError(f"config key {key!r} found {len(hits)} times")
        lines[hits[0]] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def is_exact_row(check: str) -> bool:
    return check.startswith(EXACT_ROWS)


def _pipeline(name: str, inputs: dict, out: Path) -> dict:
    result = pipelines.run_pipeline(name, inputs[name], seed=inputs["seeds"][name],
                                    out_dir=str(out))
    return {"rows": [(name, r) for r in result.rows], "files": [out / f"{name}.tsv"]}


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ibm-sim {argv[0]} exited with {code}")


def _rows_checks(rows) -> list[tuple[str, bool]]:
    checks = [(f"{name}:{r.check}", bool(r.passed)) for name, r in rows if is_exact_row(r.check)]
    checks.append(("pipeline-rows-finite", all(math.isfinite(r.value) for _, r in rows)))
    return checks


def _tsv_finite(path: Path) -> bool:
    """No numeric cell of a TSV report is inf or nan."""
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            continue
        for cell in line.split("\t"):
            try:
                if not math.isfinite(float(cell)):
                    return False
            except ValueError:  # column names and verdict words
                continue
    return True


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: object   # (seed, workdir) -> inputs dict
    jobs: tuple           # ((job name, fn(inputs, outdir) -> outputs), ...)
    checks: object        # (inputs, outputs by job) -> [(check name, passed)]


# ---------------------------------------------------------------------------
# small-systems: map algebra, thm24 and thm27's free arm, all at N <= ~15
# ---------------------------------------------------------------------------

def _small_inputs(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(derive_seed(seed, 1))
    dom = configuration.Domain(1, "free", 50.0)
    start = configuration.label(configuration.Configuration(
        np.sort(rng.uniform(-1.5, 1.5, 8))[:, None], dom))
    # psi_strength = 0 leaves thm27's interacting arm out: its cost is a sum
    # of geometric Palm waiting times through one Gibbs chain, and no run
    # short enough for this benchmark holds its spread across seeds in bound.
    thm27 = with_values(pipelines.DEFAULT_CONFIGS["thm27-environment"],
                        replicas=THM27_REPLICAS, psi_strength=0.0)
    sec = persistence.parse_config(thm27)["pipeline"]
    torus = configuration.Domain(1, "torus", sec.getfloat("domain_size"))
    intensity = sec.getfloat("intensity")
    sampler = pointprocess.make_poisson_sampler(torus, intensity, derive_seed(seed, 4))
    return {
        "map_domain": configuration.Domain(1, "torus", 8.0),
        "map_points": rng.uniform(0.0, 8.0, size=(MAP_CONFIGS, 4, 1)),
        "thm24-identity": with_values(pipelines.DEFAULT_CONFIGS["thm24-identity"],
                                      replicas=THM24_REPLICAS),
        "thm27-environment": thm27,
        "seeds": {"thm24-identity": derive_seed(seed, 2),
                  "thm27-environment": derive_seed(seed, 3)},
        "exact_state": start,
        "exact_perm": rng.permutation(8),
        "exact_params": dynamics.SimParams(dt=sec.getfloat("dt"), t_end=0.2, stride=1,
                                           seed=derive_seed(seed, 5)),
        "palm_state": pointprocess.palm_condition(sampler, np.zeros((1, 1)), 0.01 / intensity,
                                                  seed=derive_seed(seed, 6)),
    }


def _map_algebra(inputs: dict, out: Path) -> dict:
    dom = inputs["map_domain"]
    broken, worst = 0, 0.0
    for pts in inputs["map_points"]:
        config = configuration.Configuration(pts, dom, validate=False)
        relabeled = configuration.kappa(configuration.label(config, "lexicographic"))
        broken += not relabeled.same_points(config)
        state = configuration.KLabeledState(
            pts[:1], configuration.Configuration(pts[1:], dom, validate=False))
        back = configuration.iota_inverse(configuration.iota(state))
        worst = max(worst, float(np.max(np.abs(back.background.points - pts[1:]))))
    return {"broken": broken, "iota_residual": worst, "files": []}


def _thm24(inputs: dict, out: Path) -> dict:
    return _pipeline("thm24-identity", inputs, out)


def _thm27(inputs: dict, out: Path) -> dict:
    return _pipeline("thm27-environment", inputs, out)


def _k_labeled_matches(state, pot, params) -> bool:
    """simulate_k_labeled equals simulate on kappa of the state, bitwise."""
    k_path = dynamics.simulate_k_labeled(state, pot, params).positions
    flat = configuration.LabeledState(configuration.kappa(state).points, state.domain)
    return np.array_equal(k_path, dynamics.simulate(flat, pot, params).positions)


def _small_checks(inputs: dict, outputs: dict) -> list[tuple[str, bool]]:
    maps = outputs["map_algebra"]
    checks = [("kappa-label-round-trip", maps["broken"] == 0),
              ("iota-round-trip-residual", maps["iota_residual"] < 1e-12)]
    checks += _rows_checks(outputs["thm24"]["rows"] + outputs["thm27"]["rows"])
    # thm24's interacting potentials on 8 points of a free line
    pot = persistence.build_potentials(persistence.parse_config(inputs["thm24-identity"]))
    state, perm, params = inputs["exact_state"], inputs["exact_perm"], inputs["exact_params"]
    path = dynamics.simulate(state, pot, params).positions
    permuted = dynamics.simulate(
        configuration.LabeledState(state.points[perm], state.domain), pot, params,
        stream_labels=perm).positions
    checks.append(("label-permutation-equivariance", np.array_equal(permuted, path[:, perm])))
    checks.append(("paths-finite", bool(np.isfinite(path).all())))
    k_state = configuration.KLabeledState(
        state.points[:2], configuration.Configuration(state.points[2:], state.domain))
    checks.append(("k-labeled-equals-simulate", _k_labeled_matches(k_state, pot, params)))
    # and on a Palm state of thm27's free arm (no interaction)
    checks.append(("palm-k-labeled-equals-simulate",
                   _k_labeled_matches(inputs["palm_state"], PotentialSpec(), params)))
    return checks


# ---------------------------------------------------------------------------
# cli-trajectories: large-N soft core and a long 1-d hard-core run
# ---------------------------------------------------------------------------

LARGE_CFG = """\
[domain]
dimension = 2
geometry = torus
size = {size!r}

[potentials]
psi = soft_core
psi_strength = 0.5
psi_range = 0.7
r_cut = 3.0

[sampler]
kind = poisson
intensity = 1.0

[sim]
dt = 1e-3
t_end = {t_end!r}
stride = 1
cell_size = 3.0
seed = {seed}

[analysis]
"""

HARD_CORE_CFG = """\
[domain]
dimension = 1
geometry = torus
size = 8.0

[potentials]
psi = hard_core
hard_core_diameter = {sigma!r}

[sampler]
kind = gibbs
activity = 2.2
burn_in = 5000

[sim]
dt = 1e-3
t_end = {t_end!r}
stride = 1
hard_core_mode = reject
seed = {seed}

[analysis]
r = 10.0
bound = 3.0
"""


def _cli_inputs(seed: int, workdir: Path) -> dict:
    large = workdir / "large.cfg"
    large.write_text(LARGE_CFG.format(size=LARGE_DENSITY_SIDE, t_end=LARGE_STEPS * 1e-3,
                                      seed=derive_seed(seed, 1)))
    hard = workdir / "hardcore.cfg"
    hard.write_text(HARD_CORE_CFG.format(sigma=HARD_CORE_SIGMA, t_end=HARD_CORE_STEPS * 1e-3,
                                         seed=derive_seed(seed, 2)))
    return {"large_cfg": str(large), "hard_cfg": str(hard)}


def _simulate_then_analyze(cfg: str, kind: str, out: Path, stem: str) -> dict:
    traj, report = out / f"{stem}.traj", out / f"{stem}-{kind}.tsv"
    _cli(["simulate", "--config", cfg, "--out", str(traj)])
    _cli(["analyze", "--kind", kind, "--config", cfg, "--in", str(traj), "--out", str(report)])
    return {"files": [traj, report]}


def _simulate_large(inputs: dict, out: Path) -> dict:
    return _simulate_then_analyze(inputs["large_cfg"], "msd", out, "large")


def _simulate_hardcore(inputs: dict, out: Path) -> dict:
    return _simulate_then_analyze(inputs["hard_cfg"], "explosion", out, "hardcore")


def _cli_checks(inputs: dict, outputs: dict) -> list[tuple[str, bool]]:
    large_traj, large_tsv = outputs["simulate_large"]["files"]
    hard_traj, hard_tsv = outputs["simulate_hardcore"]["files"]
    checks = []
    large = persistence.read_trajectory(large_traj)
    cfg = persistence.load_config(inputs["large_cfg"])
    pot = persistence.build_potentials(cfg)
    # a quarter of the points keeps this check from setting the peak RSS
    subset = configuration.LabeledState(large.positions[0, ::4], large.domain)
    checks.append(("cell-list-drift-equals-all-pairs", np.array_equal(
        dynamics.compute_drift(subset, pot, cell_size=None),
        dynamics.compute_drift(subset, pot, cell_size=cfg.getfloat("sim", "cell_size")))))
    # stride 1 stores every accepted update, so this sees each step's gaps
    hard = persistence.read_trajectory(hard_traj)
    x = np.sort(hard.positions[:, :, 0], axis=1)
    gaps = np.concatenate([np.diff(x, axis=1), hard.domain.size - (x[:, -1:] - x[:, :1])], axis=1)
    checks.append(("hard-core-min-gap-at-least-sigma", float(gaps.min()) >= HARD_CORE_SIGMA))
    for stem, traj in (("large", large), ("hardcore", hard)):
        checks.append((f"trajectory-finite:{stem}", bool(
            np.isfinite(traj.positions).all() and np.isfinite(traj.running_max).all())))
    checks.append(("reports-finite", _tsv_finite(large_tsv) and _tsv_finite(hard_tsv)))
    return checks


# ---------------------------------------------------------------------------
# field-oracles: random-matrix correlations and the forms suite
# ---------------------------------------------------------------------------

def _field_inputs(seed: int, workdir: Path) -> dict:
    d = pipelines.DEFAULT_CONFIGS
    return {
        "dyson-correlations": with_values(d["dyson-correlations"], replicas=DYSON_SAMPLES),
        "ginibre-correlations": with_values(d["ginibre-correlations"], replicas=GINIBRE_SAMPLES),
        "forms-suite": with_values(d["forms-suite"], **FORMS_COUNTS),
        "seeds": {name: derive_seed(seed, i) for i, name in enumerate(
            ("dyson-correlations", "ginibre-correlations", "forms-suite"))},
    }


def _dpp(inputs: dict, out: Path) -> dict:
    dyson = _pipeline("dyson-correlations", inputs, out)
    ginibre = _pipeline("ginibre-correlations", inputs, out)
    return {"rows": dyson["rows"] + ginibre["rows"], "files": dyson["files"] + ginibre["files"]}


def _forms(inputs: dict, out: Path) -> dict:
    return _pipeline("forms-suite", inputs, out)


def _field_checks(inputs: dict, outputs: dict) -> list[tuple[str, bool]]:
    return _rows_checks(outputs["dpp"]["rows"] + outputs["forms"]["rows"])


WORKLOADS = {w.name: w for w in (
    Workload(
        "small-systems",
        "Tens of thousands of calls on arrays of at most ~15 points (map algebra, "
        "thm24, thm27 free arm): per-call overhead, not N, sets the time.",
        _small_inputs, (("map_algebra", _map_algebra), ("thm24", _thm24), ("thm27", _thm27)),
        _small_checks),
    Workload(
        "cli-trajectories",
        "The only large-N pair assembly (about 4000 points), hard-core rejection "
        "and trajectory write and read, all through the CLI.",
        _cli_inputs, (("simulate_large", _simulate_large),
                      ("simulate_hardcore", _simulate_hardcore)), _cli_checks),
    Workload(
        "field-oracles",
        "500x500 eigensolves and the m!-permutation forms checks with no "
        "dynamics, so integrator work should show no change here.",
        _field_inputs, (("dpp", _dpp), ("forms", _forms)), _field_checks),
)}


def statistical_rows(rows) -> list[tuple[str, str, float, str, bool]]:
    """Rows whose outcome depends on the random stream: reported, not gated."""
    return [(name, r.check, r.value, r.threshold, bool(r.passed))
            for name, r in rows if not is_exact_row(r.check)]
