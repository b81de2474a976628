"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--trace-seeds 1-3] [--out FILE]

Runs `run.py` once per (workload, seed), one run at a time, interleaving the
workloads so that a slow stretch of the host spreads over all of them. Every
workload in BENCHMARK.json is run, each run lasting its `run_seconds`, so the
summary is always of the benchmark as defined. For each
metric it reports the median, the quartiles (statistics.quantiles, n=4) and
their distance as a share of the median, which is the spread a metric's bound
in BENCHMARK.json must exceed. The summary is printed and, with --out, written
as JSON stamped with the Python and numpy versions, nproc, load average and
git commit, so a later change can cite before and after from the same tool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def stamp() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    import numpy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def sweep(seeds: list[int], trace: int) -> dict:
    results: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            result = run_once(workload, seed, trace)
            results[workload].append(result)
            print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    summary = {}
    for workload, runs in results.items():
        names = runs[0]["metrics"].keys()
        summary[workload] = {
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {
                n: {"unit": runs[0]["metrics"][n]["unit"],
                    **summarise([r["metrics"][n]["value"] for r in runs])}
                for n in names
            },
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seeds", type=seed_range, default=[])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    out = {"stamp": stamp(), "seconds": SECONDS}
    out["end_to_end"] = sweep(args.seeds, 0)
    if args.trace_seeds:
        out["per_layer"] = sweep(args.trace_seeds, 1)
    out["stamp"]["loadavg_end"] = os.getloadavg()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload, entry in out["end_to_end"].items():
        print(f"{workload}: {entry['runs']} runs, all correct: {entry['all_correct']}")
        for name, m in entry["metrics"].items():
            print(f"  {name:14s} median {m['median']:12.6g} {m['unit']:8s} "
                  f"iqr/median {m['iqr_over_median']:.4f}  bound {bounds.get(name, '-')}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
