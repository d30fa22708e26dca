"""Runs one workload in a fresh interpreter and writes its measurements as
JSON. Started by run.py; not meant to be run by hand.

The timed loop repeats the workload's jobs on the same inputs. With
--trace 0 it runs untraced for --seconds. With --trace 1 it runs untraced for
half of --seconds, then installs the span tracer for the other half, so the
per-layer numbers and the tracing overhead come from one process. Times are
means per pass over the loop: the machine's speed drifts over tens of
seconds, and the mean uses every pass of the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

from spans import Tracer, layer_metrics

WARNING_CATEGORIES = ("NonConvergenceWarning", "UserWarning", "RuntimeWarning")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_iteration(workload, inputs: dict, out: Path) -> dict:
    """One pass over the workload's jobs; timings exclude digesting."""
    out.mkdir(parents=True)
    job_s, outputs, failed = {}, {}, []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        for name, job in workload.jobs:
            t = time.perf_counter()
            try:
                outputs[name] = job(inputs, out)
            except Exception:  # a failed job is counted, the others still run
                traceback.print_exc(file=sys.stderr)
                failed.append(name)
                outputs[name] = None
            job_s[name] = time.perf_counter() - t
        wall = time.perf_counter() - start
    digests = {str(Path(p).relative_to(out)): sha256_file(Path(p))
               for o in outputs.values() if o for p in o["files"]}
    warned = Counter(w.category.__name__ for w in caught)
    warn_counts = {f"warnings.{c}": warned.pop(c, 0) for c in WARNING_CATEGORIES}
    warn_counts["warnings.other"] = sum(warned.values())
    return {"wall_s": wall, "job_s": job_s, "outputs": outputs, "failed": failed,
            "digests": digests, "warnings": warn_counts}


def timed_loop(workload, inputs, workdir: Path, seconds: float, min_iters: int,
               first_index: int = 0, tracer=None) -> list[dict]:
    iters = []
    start = time.perf_counter()
    # stop when the next iteration would be expected to end more than half an
    # iteration past `seconds`
    while len(iters) < min_iters or (time.perf_counter() - start
                                     + 0.5 * statistics.fmean(it["wall_s"] for it in iters)
                                     < seconds):
        if tracer is not None:
            tracer.reset()
        it = run_iteration(workload, inputs, workdir / f"iter-{first_index + len(iters)}")
        if tracer is not None:
            it["layers"] = layer_metrics(tracer)
        iters.append(it)
    return iters


def code_digest(root: Path) -> str:
    """Hash of the library sources and the benchmark's workloads."""
    digest = hashlib.sha256()
    files = sorted((root / "src" / "ibmsim").rglob("*.py"))
    files.append(Path(__file__).with_name("workloads.py"))
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()[:16]


def digest_checks(iters: list[dict], store: Path) -> list[tuple[str, bool]]:
    """Every iteration writes byte-identical outputs, and so does every
    earlier run of the same code, workload and seed recorded in `store`."""
    first = iters[0]["digests"]
    checks = [(f"digest-stable:{name}", all(it["digests"].get(name) == d for it in iters))
              for name, d in sorted(first.items())]
    if store.exists():
        checks.append(("digests-match-earlier-runs", json.loads(store.read_text()) == first))
    else:  # the first run of this code and seed sets the record
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(first, indent=1, sort_keys=True))
        os.replace(tmp, store)
        checks.append(("digests-match-earlier-runs", True))
    return checks


def mean_of(dicts: list[dict]) -> dict[str, float]:
    return {k: statistics.fmean(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--digest-store", required=True,
                        help="directory of output digests from earlier runs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    inputs = workload.make_inputs(args.seed, workdir)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    if args.trace:
        iters = timed_loop(workload, inputs, workdir, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_loop(workload, inputs, workdir, args.seconds / 2, 1,
                                first_index=len(iters), tracer=tracer)
        finally:
            tracer.uninstall()
        layers = mean_of([it["layers"] for it in traced])
        layers["trace.overhead_s"] = (statistics.fmean(it["wall_s"] for it in traced)
                                      - statistics.fmean(it["wall_s"] for it in iters))
        result["layers"] = layers
    else:
        iters = timed_loop(workload, inputs, workdir, args.seconds, 2)
        traced = []
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = iters + traced
    code = code_digest(Path(__file__).resolve().parents[1])
    store = Path(args.digest_store) / f"{code}-{args.workload}-{args.seed}.json"
    checks = digest_checks(every, store)
    try:
        checks += [(n, bool(ok)) for n, ok in workload.checks(inputs, iters[0]["outputs"])]
    except Exception:  # a check that cannot run is a failed check
        traceback.print_exc(file=sys.stderr)
        checks.append(("checks-completed", False))

    rows = [r for o in iters[0]["outputs"].values() if o for r in o.get("rows", [])]
    stat_rows = workloads.statistical_rows(rows)
    jobs_failed = sum(len(it["failed"]) for it in every)
    checks_failed = sum(not ok for _, ok in checks)
    result.update({
        "wall_s": statistics.fmean(it["wall_s"] for it in iters),
        "walls": [it["wall_s"] for it in every],
        "iterations": len(iters),
        "traced_iterations": len(traced),
        "job_s": mean_of([it["job_s"] for it in iters]),
        "peak_rss_mib": peak_rss_mib,
        "checks": checks,
        "checks_run": len(checks),
        "checks_failed": checks_failed,
        "attempted": len(checks) + sum(len(workload.jobs) for _ in every),
        "failed": checks_failed + jobs_failed,
        "digests": iters[0]["digests"],
        "warnings": iters[0]["warnings"],
        "stat_rows": stat_rows,
        "stat_rows_failed": sum(not r[4] for r in stat_rows),
    })
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    Path(args.result).write_text(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
