"""ibm-sim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload small-systems --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the library is imported from
src/). The workload runs in a fresh interpreter with BLAS pinned to one
thread; set-up is timed in that process and in a few extra interpreters
that only set up. With --trace 0 the last line reports the end-to-end
metrics named in BENCHMARK.json, with --trace 1 the per-layer ones. Lines
before it give every metric with its unit, the checks, the statistical rows,
output digests and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
SETUP_PROBES = 2          # extra interpreters that only set up
PROBE_TIMEOUT_S = 60
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def spawn(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
          setup_only: bool, timeout: float) -> dict:
    """Run the worker in a fresh interpreter and return its result."""
    result = workdir.with_suffix(".json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               **{k: str(BLAS_THREADS) for k in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--result", str(result),
           "--digest-store", str(ROOT / ".perfbench" / "digests")]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=timeout,
                   stdout=sys.stderr)
    return json.loads(result.read_text())


def machine(versions: dict) -> dict:
    """Machine and provenance of this run."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    git = ROOT / ".git"
    if (git / "HEAD").exists():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            ref = commit[5:]
            packed = git / "packed-refs"
            lines = packed.read_text().splitlines() if packed.exists() else []
            commit = ((git / ref).read_text().strip() if (git / ref).exists() else
                      next((line.split()[0] for line in lines if line.endswith(" " + ref)), ref))
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "ibmsim").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            **versions, "blas_threads": BLAS_THREADS,
            "commit": commit, "src_lines": src_lines}


def collect(run: dict, setups: list[float], trace: int,
            declared_jobs: list[str]) -> dict[str, float]:
    if trace:
        out = dict(run["layers"])
        out.update({f"jobs.{k}_s": v for k, v in run["job_s"].items()})
        # jobs of other workloads read 0 here
        out.update({m: 0.0 for m in declared_jobs if m not in out})
        out.update(run["warnings"])
        out["pipelines.stat_rows"] = len(run["stat_rows"])
        out["pipelines.stat_rows_failed"] = run["stat_rows_failed"]
        return out
    return {"wall_s": run["wall_s"], "setup_s": statistics.median(setups),
            "peak_rss_mib": run["peak_rss_mib"], "checks_run": run["checks_run"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "ibmsim" / "__init__.py").is_file():
        print("error: no library source under src/ibmsim", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        setups = [spawn(args.workload, args.seed, args.seconds, args.trace,
                        workdir / f"setup-{i}", True, PROBE_TIMEOUT_S)["setup_s"]
                  for i in range(SETUP_PROBES)]
        run = spawn(args.workload, args.seed, args.seconds, args.trace, workdir / "run",
                    False, args.seconds * 3 + 90)
        setups.append(run["setup_s"])
        measured = collect(run, setups, args.trace,
                           [m["name"] for m in declared if m["name"].startswith("jobs.")])
        info = machine(run["versions"])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: workload {args.workload} did not complete: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run['iterations']} untraced and {run['traced_iterations']} traced iterations")
    print("machine " + json.dumps(info, sort_keys=True))
    for name, value in sorted(measured.items()):
        unit = next((m["unit"] for m in declared if m["name"] == name), "")
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"setup_s samples {[round(s, 4) for s in setups]}")
    print(f"iteration wall_s {[round(s, 4) for s in run['walls']]}")
    for name, ok in run["checks"]:
        print(f"check {'pass' if ok else 'FAIL'} {name}")
    for pipeline, check, value, threshold, ok in run["stat_rows"]:
        print(f"stat-row {'pass' if ok else 'fail'} {pipeline} {check} = {value:.6g} "
              f"(need {threshold})")
    for category, count in run["warnings"].items():
        print(f"{category} {count} per iteration")
    for name, digest in sorted(run["digests"].items()):
        print(f"sha256 {digest} {name}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
