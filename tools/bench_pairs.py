"""Run the benchmark on two checkouts in alternating pairs and write one
BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr 10 \
        --seed 1001 [--pairs 10] [--extra more.json]

For each workload of the change's BENCHMARK.json, pair i runs
`perfbench/run.py --workload W --seed S+i --seconds R --trace 0` once in each
checkout, R being that file's run_seconds, the parent first in even pairs and
the change first in odd ones; there are at least ten pairs per workload. The file keeps each run's final JSON
line and its `sha256` lines; per end-to-end metric, the medians and quartiles
of both sides and in how many pairs the change was better; and, per artifact,
whether the two sides wrote the same bytes in every pair. Keys of --extra
(tier-1 totals, line counts, notes) are merged in at the top level.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its final JSON line, its sha256 lines, its exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    digests = {}
    for line in lines:
        if line.startswith("sha256 "):
            _, digest, name = line.split(" ", 2)
            digests[name] = digest
    final = None
    if proc.returncode == 0 and lines:
        final = json.loads(lines[-1])
    return {"seed": seed, "exit_code": proc.returncode, "final": final, "sha256": digests,
            "stderr_tail": proc.stderr.strip().splitlines()[-3:] if proc.returncode else []}


def spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "quartiles": quartiles}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Medians, quartiles and change wins per metric, over pairs both sides finished."""
    done = [p for p in pairs if p["parent"]["final"] and p["change"]["final"]]
    out = {"pairs": len(pairs), "pairs_completed": len(done),
           "failed_runs": {side: sum(1 for p in pairs if p[side]["final"] is None
                                     or not p[side]["final"]["correct"]) for side in SIDES}}
    for metric in metrics if done else []:
        name = metric["name"]
        values = {side: [p[side]["final"]["metrics"][name]["value"] for p in done]
                  for side in SIDES}
        sign = -1.0 if metric["better"] == "lower" else 1.0
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            **{side: spread(values[side]) for side in SIDES},
            "change_wins": sum(sign * (c - p) > 0
                               for p, c in zip(values["parent"], values["change"])),
        }
    return out


def digests_match(workload: str, pairs: list[dict]) -> dict[str, bool]:
    names = sorted({name for p in pairs for side in SIDES for name in p[side]["sha256"]})
    return {f"{workload}:{name}": all(p["parent"]["sha256"].get(name)
                                      == p["change"]["sha256"].get(name) for p in pairs)
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="parent source checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed source checkout")
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS,
                        help=f"alternating pairs per workload, at least {MIN_PAIRS}")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--extra", type=Path, default=None,
                        help="JSON object merged into the output")
    parser.add_argument("--out", type=Path, default=None, help="default: BENCH_<pr>.json")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"pr": args.pr,
              "command": f"python3 perfbench/run.py --workload W --seed S "
                         f"--seconds {seconds} --trace 0",
              "order": "parent first in even pairs, change first in odd pairs",
              "benchmark": {}, "sha256_identical": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                pair[side] = run_once(checkout, workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: exit {pair[side]['exit_code']}",
                      file=sys.stderr)
            pairs.append(pair)
        report["benchmark"][workload] = {"summary": summarize(pairs, spec["end_to_end"]),
                                         "runs": pairs}
        report["sha256_identical"].update(digests_match(workload, pairs))
    if args.extra is not None:
        report.update(json.loads(args.extra.read_text()))
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
