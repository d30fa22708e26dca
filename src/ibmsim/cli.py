"""Batch entry point: `ibm-sim <subcommand>` wires samplers, the integrator,
tagged views, forms checks and estimators into reproducible runs driven by
plain-text configs."""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .analysis import (
    campbell_check,
    constant_log_profile,
    estimate_rho,
    explosion_scan,
    exponential_log_profile,
    gaussian_growth_log_profile,
    msd,
    nonexplosion_criterion,
    nonexplosion_scan,
    pushforward_check,
)
from .configuration import label
from .dynamics import simulate
from .errors import ConfigError, IbmSimError
from .persistence import (
    build_domain,
    build_sampler,
    build_sim_params,
    config_sha256,
    load_config,
    manifest,
    parse_config,
    read_trajectory,
    write_configuration,
    write_manifest,
    write_trajectory,
    write_tsv,
    build_potentials,
)
from .pipelines import PIPELINES, iota_sweep, product_check, run_pipeline

ANALYSIS_KINDS = ("rho1", "rho2", "campbell", "pushforward", "nonexplosion",
                  "msd", "explosion")

_PROFILES = {
    "constant": lambda p: constant_log_profile(p.getfloat("intensity", 1.0)),
    "exponential": lambda p: exponential_log_profile(p.getfloat("rate", 0.5)),
    "gaussian-growth": lambda p: gaussian_growth_log_profile(p.getfloat("scale", 1.0)),
}


def _read_config_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _emit_manifest(out_path: str, config_text: str, seed: int, started: float):
    record = manifest({
        "config_text": config_text, "seed": seed, "started": started,
        "finished": time.time(), "outputs": [out_path],
    })
    write_manifest(record, out_path + ".manifest.json")


def _report_comments(kind: str, config_text: str, seed: int) -> list[str]:
    comments = [
        f"ibm-sim report kind={kind}",
        f"config_sha256={config_sha256(config_text)}",
        f"seed={seed}",
        "manifest=<out>.manifest.json",
    ]
    comments += [f"cfg: {line}" for line in config_text.splitlines() if line.strip()]
    return comments


def cmd_sample(args) -> int:
    text = _read_config_text(args.config)
    cfg = load_config(args.config)
    domain = build_domain(cfg)
    started = time.time()
    sampler = build_sampler(cfg, domain, args.seed)
    config = sampler(0)
    write_configuration(config, args.out)
    _emit_manifest(args.out, text, args.seed, started)
    print(f"sampled {len(config)} points -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    text = _read_config_text(args.config)
    cfg = load_config(args.config)
    domain = build_domain(cfg)
    potentials = build_potentials(cfg)
    params = build_sim_params(cfg, seed=args.seed)
    started = time.time()
    sampler = build_sampler(cfg, domain, params.seed)
    initial = label(sampler(0), cfg.get("sim", "label_rule", fallback="lexicographic"))
    traj = simulate(initial, potentials, params,
                    provenance={"config_sha256": config_sha256(text)})
    write_trajectory(traj, args.out)
    _emit_manifest(args.out, text, params.seed, started)
    print(f"simulated {traj.n_particles} particles to t={traj.times[-1]:g} -> {args.out}")
    return 0


def _analysis_section(cfg):
    if "analysis" not in cfg:
        raise ConfigError("config needs an [analysis] section")
    return cfg["analysis"]


def _collect_samples(cfg, seed, n):
    domain = build_domain(cfg)
    sampler = build_sampler(cfg, domain, seed)
    return [sampler(i) for i in range(n)]


def cmd_analyze(args) -> int:
    text = _read_config_text(args.config)
    cfg = load_config(args.config)
    sec = _analysis_section(cfg)
    started = time.time()
    comments = _report_comments(args.kind, text, args.seed)
    rows: list
    if args.kind in ("rho1", "rho2"):
        samples = _collect_samples(cfg, args.seed, sec.getint("replicas", 1000))
        edges = np.linspace(sec.getfloat("edges_start"), sec.getfloat("edges_stop"),
                            sec.getint("edges_count", 6))
        order = 1 if args.kind == "rho1" else 2
        est = estimate_rho(samples, order, edges, seed=args.seed)
        if order == 1:
            columns = ["bin_lo", "bin_hi", "rho1", "stderr", "counts"]
            rows = [
                (edges[i], edges[i + 1], est.values[i], est.stderr[i], est.counts[i])
                for i in range(len(edges) - 1)
            ]
        else:
            columns = ["bin_i", "bin_j", "rho2", "stderr", "pair_counts"]
            rows = [
                (i, j, est.values[i, j], est.stderr[i, j], est.counts[i, j])
                for i in range(len(edges) - 1)
                for j in range(len(edges) - 1)
            ]
    elif args.kind == "campbell":
        samples = _collect_samples(cfg, args.seed, sec.getint("replicas", 1000))
        sets = [tuple(float(v) for v in pair.split(":"))
                for pair in sec.get("sets").split(",")]
        ks = [int(v) for v in sec.get("ks").split(",")]
        report = campbell_check(samples, sets, ks)
        columns = ["lhs", "lhs_se", "rhs", "rhs_se", "z"]
        rows = [(report.lhs, report.lhs_se, report.rhs, report.rhs_se, report.z)]
    elif args.kind == "pushforward":
        domain = build_domain(cfg)
        sampler = build_sampler(cfg, domain, args.seed)
        report = pushforward_check(
            sampler, r=sec.getfloat("r"), k=sec.getint("k"),
            n_cap=sec.getint("n_cap", 12), replicas=sec.getint("replicas", 10_000),
            seed=args.seed,
        )
        columns = ["k", "r", "n_cap", "lhs", "rhs", "se", "z"]
        rows = [(report.k, report.r, report.n_cap, report.lhs, report.rhs,
                 report.se, report.z)]
    elif args.kind == "nonexplosion":
        profile_name = sec.get("profile", "constant")
        if profile_name not in _PROFILES:
            raise ConfigError(f"unknown profile {profile_name!r}")
        profile = _PROFILES[profile_name](sec)
        d = sec.getint("dimension", 1)
        if sec.get("T", fallback=None) is not None:
            res = nonexplosion_criterion(profile, d, sec.getfloat("T"), sec.getfloat("R", 1.0))
            columns = ["r", "log_evidence", "verdict"]
            rows = [(res.r_values[i], res.log_evidence[i], res.verdict)
                    for i in range(res.r_values.size)]
        else:
            verdict, table = nonexplosion_scan(profile, d)
            columns = ["T", "R", "verdict", "overall"]
            rows = [(T, R, res.verdict, verdict) for (T, R), res in sorted(table.items())]
    elif args.kind == "msd":
        traj = read_trajectory(args.inputs[0])
        curve = msd(traj, tag=sec.getint("tag", fallback=None))
        columns = ["t", "msd", "stderr"]
        rows = list(zip(curve.times, curve.values, curve.stderr))
    elif args.kind == "explosion":
        trajs = [read_trajectory(p) for p in args.inputs]
        report = explosion_scan(trajs, r=sec.getfloat("r", 1.0),
                                bound=sec.getfloat("bound", 10.0))
        columns = ["t", "fraction_exceeding"]
        rows = list(zip(report.times, report.fraction))
    else:
        raise ConfigError(f"unknown analysis kind {args.kind!r}")

    write_tsv(args.out, comments, columns, rows)
    _emit_manifest(args.out, text, args.seed, started)
    print(f"analysis {args.kind}: {len(rows)} rows -> {args.out}")
    return 0


def cmd_check_forms(args) -> int:
    text = None
    if args.config:
        text = _read_config_text(args.config)
        cfg = parse_config(text)
        if "forms" in cfg:
            sec = cfg["forms"]
            args.identity = sec.get("identity", args.identity)
            args.samples = sec.getint("samples", args.samples)
            args.h = sec.getfloat("h", args.h)
    started = time.time()
    reports = []
    if args.identity in ("iota", "all"):
        reports.append(iota_sweep(np.random.default_rng(args.seed), args.samples, args.h))
    if args.identity in ("product", "all"):
        reports.append(product_check(args.seed + 1, args.seed, min(args.samples, 200),
                                     args.samples, args.h))
    if not reports:
        raise ConfigError(f"unknown identity {args.identity!r}")
    if args.out:
        write_tsv(args.out, [f"ibm-sim check-forms seed={args.seed}"],
                  ["identity", "max_residual", "n_samples", "h", "extra"],
                  [r.tsv_row().split("\t") for r in reports])
        if text is None:
            text = f"identity = {args.identity}\nsamples = {args.samples}\nh = {args.h!r}\n"
        _emit_manifest(args.out, text, args.seed, started)
    for r in reports:
        print(r.tsv_row())
    return 0


def cmd_check_explosion(args) -> int:
    args.kind = "nonexplosion"
    args.inputs = []
    return cmd_analyze(args)


def cmd_pipeline(args) -> int:
    text = _read_config_text(args.config) if args.config else None
    result = run_pipeline(args.name, config_text=text, seed=args.seed,
                          out_dir=args.out)
    print(result.summary())
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibm-sim",
        description="simulation and verification toolkit for interacting "
                    "Brownian motions on configuration spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one configuration from [sampler]")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("simulate", help="integrate the labeled SDE")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="run an estimator or diagnostic")
    p.add_argument("--kind", required=True, choices=ANALYSIS_KINDS)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--in", dest="inputs", nargs="*", default=[],
                   help="input trajectory files (msd / explosion)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check-forms", help="numerical identity checks")
    p.add_argument("--identity", default="all", choices=("iota", "product", "all"))
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--config", default=None,
                   help="optional config whose [forms] section overrides the flags")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_forms)

    p = sub.add_parser("check-explosion", help="evaluate the non-explosion criterion")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_check_explosion)

    p = sub.add_parser("pipeline", help="run a named experiment pipeline")
    p.add_argument("--name", required=True, choices=PIPELINES)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IbmSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
