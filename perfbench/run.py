"""The mzkick benchmark: one command, three workloads, every metric with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from `src/`. The load
is a closed loop with one client: each `python -m mzkick ...` child starts only
after the previous one has exited, and its wall time, CPU time and peak RSS
come from `os.wait4`. Every output is checked (see workloads.py). A `--help`
invocation follows each workload invocation, so the set-up time samples the
same stretch of host speed as the workload.

--trace 0 reports the end-to-end metrics; --trace 1 alternates traced and
untraced in-process runs of `mzkick.cli.main` (see traced.py) and reports the
per-layer metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Children write into
.bench_build/perfbench, which is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from traced import ROOT_SPAN
from workloads import CheckFailed, Workload, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it
MIN_INVOCATIONS = 3
MIN_TRACED_PAIRS = 1

LAYERS = ("cli", "ensemble", "pointer", "weak_measurement", "photon_modes", "classical_optics")
TRACED_FUNCTIONS = (
    "ensemble.sample_runs",
    "ensemble.fluctuation_analysis",
    "ensemble.write_records_csv",
    "pointer.shift",
    "pointer.gaussian_pointer",
    "pointer.overlap",
    "pointer.mean_momentum",
    "weak_measurement.couple_with_kick",
    "weak_measurement.postselect",
)
BOUNDARY_COUNTS = ("ensemble.records", "ensemble.csv_bytes", "pointer.fft_points")

# Exceptions a checker may raise on malformed output, beyond CheckFailed.
MALFORMED = (CheckFailed, ValueError, TypeError, KeyError, AttributeError, IndexError)


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_kib: int
    exit_code: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{what}: {problem}")


class Runner:
    """Spawns children one at a time, with outputs under a work directory."""

    def __init__(self, root: Path, work: Path, program: list[str] | None = None) -> None:
        self.work = work
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.program = program or [sys.executable, "-m", "mzkick"]
        self.env = dict(os.environ)
        paths = [str(root / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def spawn(self, argv: list[str], logs: Path) -> Child:
        out_path, err_path = logs / "stdout.txt", logs / "stderr.txt"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        return Child(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_kib=usage.ru_maxrss,
            exit_code=os.waitstatus_to_exitcode(status),
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )

    def run_program(
        self, workload: Workload, argv: list[str], command: list[str]
    ) -> tuple[Child, str | None]:
        """Run one invocation writing into a fresh directory and check its outputs."""
        out = self.fresh_dir("out")
        child = self.spawn([*command, *argv, "--out", str(out)], self.work)
        return child, problem_of(child, lambda: workload.check(argv, out, child.stdout))

    def run_setup(self, workload: Workload) -> tuple[Child, str | None]:
        child = self.spawn([*self.program, workload.subcommand, "--help"], self.work)

        def check() -> None:
            if not child.stdout.startswith(f"usage: mzkick {workload.subcommand}"):
                raise CheckFailed("--help printed no usage line")

        return child, problem_of(child, check)


def problem_of(child: Child, check) -> str | None:
    """Why an invocation failed, or None: exit code, traceback, then the output check."""
    if child.exit_code != 0:
        return f"exit code {child.exit_code}: {child.stderr.strip()[-200:]}"
    if "Traceback" in child.stderr:
        return "traceback on stderr"
    try:
        check()
    except MALFORMED as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more loop, at the mean pace so far, still ends within the run."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond).

    With TAIL_BEYOND or fewer samples no percentile qualifies; the minimum is
    reported then, and `beyond` says how many samples lie above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)  # 1-based rank of the reported value
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def measure_end_to_end(runner: Runner, workload: Workload, seed: int, seconds: float):
    tally = Tally()
    runs: list[Child] = []
    setups: list[Child] = []
    runner.run_setup(workload)  # untimed: lets the interpreter write bytecode caches
    start = time.perf_counter()
    k = 0
    while k < MIN_INVOCATIONS or fits(start, k, seconds):
        argv = workload.argv(seed, k)
        child, problem = runner.run_program(workload, argv, runner.program)
        runs.append(child)
        tally.record(f"invocation {k}", problem)
        child, problem = runner.run_setup(workload)
        setups.append(child)
        tally.record(f"setup after invocation {k}", problem)
        k += 1

    walls = [c.wall_s for c in runs]
    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s_tail": (tail_value, "s"),
        "items_per_s": (workload.items * len(walls) / sum(walls), "items/s"),
        "cpu_s": (statistics.median(c.cpu_s for c in runs), "s"),
        "peak_rss_mb": (statistics.median(c.rss_kib for c in runs) / 1024.0, "MiB"),
        "setup_s": (statistics.median(c.wall_s for c in setups), "s"),
    }
    notes = {
        "wall_s": f"median of {len(walls)} invocations",
        "wall_s_tail": f"p{tail_pct:.1f} of {len(walls)} invocations, {beyond} beyond it",
        "items_per_s": f"{workload.items} {workload.item_unit} per invocation / summed wall",
        "cpu_s": "median user+sys of one invocation",
        "peak_rss_mb": "median ru_maxrss",
        "setup_s": f"median of {len(setups)} '{workload.subcommand} --help' invocations",
    }
    return metrics, notes, tally


def span_metrics(result: dict) -> dict[str, float]:
    """Self time and calls per layer and per traced function, from one traced run."""
    spans = result["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    main_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] += end - start - covered[i]
        calls[name] += 1
        if name == ROOT_SPAN:
            main_s = end - start
    out = {"cli.import_s": result["import_s"], "cli.main_s": main_s, "trace.spans": float(len(spans))}
    for layer in LAYERS:
        names = [n for n in self_s if n.split(".", 1)[0] == layer]
        layer_self = sum(self_s[n] for n in names)
        out[f"{layer}.self_s"] = layer_self
        out[f"{layer}.share"] = layer_self / main_s if main_s > 0 else 0.0
        if layer != "cli":
            out[f"{layer}.calls"] = float(sum(calls[n] for n in names))
    for name in TRACED_FUNCTIONS:
        out[f"{name}_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = float(calls.get(name, 0))
    for name in BOUNDARY_COUNTS:
        out[name] = float(result["counts"].get(name, 0))
    out["cli.output_bytes"] = float(result["output_bytes"])
    return out


LAYER_UNITS = {
    "_s": "s", ".share": "frac", "_frac": "frac", ".calls": "count", "_bytes": "bytes", "_points": "points",
}


def layer_unit(name: str) -> str:
    return next((unit for suffix, unit in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def measure_layers(runner: Runner, workload: Workload, seed: int, seconds: float):
    """Pairs of traced and untraced runs on one argv; the side that runs first alternates."""
    tally = Tally()
    traced: list[dict] = []
    harness = [sys.executable, str(HERE / "traced.py")]
    result_path = runner.work / "traced.json"
    start = time.perf_counter()
    k = 0
    while k < MIN_TRACED_PAIRS or fits(start, k, seconds):
        argv = workload.argv(seed, k)
        pair = {}
        for trace in ("1", "0") if k % 2 == 0 else ("0", "1"):
            result_path.unlink(missing_ok=True)
            child, problem = runner.run_program(workload, argv, [*harness, str(result_path), trace, "--"])
            tally.record(f"{'traced' if trace == '1' else 'untraced'} run {k}", problem)
            if problem is None:
                pair[trace] = result = json.loads(result_path.read_text())
                result["output_bytes"] = len(child.stdout.encode()) + sum(
                    p.stat().st_size for p in (runner.work / "out").iterdir())
        k += 1
        if len(pair) == 2:
            metrics = span_metrics(pair["1"])
            metrics["trace_overhead_frac"] = pair["1"]["main_s"] / pair["0"]["main_s"] - 1.0
            traced.append(metrics)
    if not traced:
        return {}, {}, tally
    names = traced[0].keys()
    metrics = {n: (statistics.median(m[n] for m in traced), layer_unit(n)) for n in names}
    notes = {n: f"median of {len(traced)} traced runs" for n in names}
    notes["trace_overhead_frac"] = f"median over {len(traced)} traced/untraced main() pairs"
    return metrics, notes, tally


def report(workload: Workload, seed: int, mode: str, metrics, notes, tally: Tally) -> dict:
    print(f"# mzkick benchmark  workload={workload.name}  seed={seed}  mode={mode}  "
          f"closed loop, 1 client")
    rows = [(n, v, u, notes.get(n, "")) for n, (v, u) in metrics.items()]
    # Not a BENCHMARK.json metric (those must never read 0); the JSON line
    # carries it exactly as failed / attempted.
    rows.append(("failed_frac", tally.failed / max(1, tally.attempted), "frac",
                 f"{tally.failed} of {tally.attempted} invocations"))
    for name, value, unit, note in rows:
        print(f"{name:40s} {value:16.6g} {unit:8s} {note}")
    for reason in tally.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    table = workloads()
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mzkick" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'mzkick'}; "
              "run from the root of an mzkick checkout", file=sys.stderr)
        return 2
    # On SIGTERM, unwind: spawn() then kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_build" / "perfbench"
    runner = Runner(ROOT, work)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, notes, tally = measure(runner, table[args.workload], args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(table[args.workload], args.seed, "traced" if args.trace else "end-to-end",
                    metrics, notes, tally)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
