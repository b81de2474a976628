"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest -q perfbench

Checks that every metric BENCHMARK.json declares is reported with its unit,
that a corrupted output counts toward failed_frac, that the seed changes the
argv but not the work, and that the exact counts repeat.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from run import ROOT, Runner, measure_end_to_end, measure_layers
from workloads import workloads

TINY = workloads(tiny=True)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Counts that depend only on the workload's size, not on the seeded values.
SIZE_COUNTS = ("ensemble.records", "pointer.fft_points", "trace.spans") + tuple(
    m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".calls")
)
# Byte counts repeat for a fixed seed but follow the digits of seeded values.
BYTE_COUNTS = ("ensemble.csv_bytes", "cli.output_bytes")


@pytest.fixture
def runner(tmp_path):
    return Runner(ROOT, tmp_path / "work")


def units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_have_their_units(runner, name):
    metrics, _, tally = measure_end_to_end(runner, TINY[name], seed=1, seconds=0)
    assert tally.failed == 0 < tally.attempted, tally.reasons
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_metrics_have_their_units_and_counts_repeat(runner, name):
    first, _, tally = measure_layers(runner, TINY[name], seed=1, seconds=0)
    again, _, _ = measure_layers(runner, TINY[name], seed=1, seconds=0)
    other, _, _ = measure_layers(runner, TINY[name], seed=2, seconds=0)
    assert tally.failed == 0, tally.reasons
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for count in SIZE_COUNTS:
        assert first[count] == again[count] == other[count], count
    for count in BYTE_COUNTS:
        assert first[count] == again[count], count
    # Predicted bypasses: the grid layers never run on ensemble-mc, and the
    # ensemble layer never runs on the grid workloads.
    idle = ("pointer", "weak_measurement") if name == "ensemble-mc" else ("ensemble",)
    busy = ("ensemble",) if name == "ensemble-mc" else ("pointer", "weak_measurement")
    assert all(first[f"{layer}.calls"][0] == 0 for layer in idle)
    assert all(first[f"{layer}.calls"][0] > 0 for layer in busy)


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_changes_argv_not_items(name):
    workload = TINY[name]
    a, b = workload.argv(1, 0), workload.argv(2, 0)
    assert a != b
    assert a == workload.argv(1, 0)
    assert a[0] == b[0] == workload.subcommand
    assert len(a) == len(b)  # same flags and, for deco-scan, the same number of ratios


def test_corrupted_output_counts_as_failed(tmp_path):
    wrapper = tmp_path / "corrupting_mzkick.py"
    wrapper.write_text(textwrap.dedent("""
        import contextlib, io, json, pathlib, sys
        from mzkick.cli import main
        if "--out" not in sys.argv:  # the --help set-up invocations stay clean
            sys.exit(main(sys.argv[1:]))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(sys.argv[1:])
        out = pathlib.Path(sys.argv[sys.argv.index("--out") + 1]) / "single_photon.json"
        report = json.loads(out.read_text())
        report["channels"][1]["mean_kick"] += 1e-6  # a wrong number, consistently reported
        out.write_text(json.dumps(report))
        print(json.dumps(report))
        sys.exit(rc)
    """))
    runner = Runner(ROOT, tmp_path / "work", program=[sys.executable, str(wrapper)])
    _, _, tally = measure_end_to_end(runner, TINY["wide-grid"], seed=1, seconds=0)
    # Every workload invocation is corrupted; every --help invocation is clean.
    assert tally.failed / tally.attempted == 0.5
    assert "mean_kick" in " ".join(tally.reasons)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
