"""Workload definitions: argv generated from a seed, item counts, and output checks.

Each workload is one `mzkick` subcommand at a fixed size. The benchmark seed
decides only the argv the program sees; the sizes (and so the item counts) are
the same for every seed. Every output is strict-parsed and compared with
closed forms kept here, independent of the program and of its test suite, so a
reordered summation still passes while a wrong number does not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Program defaults the workloads rely on (not passed in argv). A run checks
# that the echoed config still carries them, so a changed default is caught.
OMEGA = 1.0
ALPHA_DEGREES = 60.0
HBAR = 1.0
SPREAD = 10.0
DEFAULT_R_SQUARED = 0.75

R_SQUARED_RANGE = (0.55, 0.95)  # r > t (inward D2 kick), clear of r = t


class CheckFailed(Exception):
    """An output failed to parse strictly or disagreed with its closed form."""


def delta_kick() -> float:
    return 2.0 * HBAR * OMEGA * math.cos(math.radians(ALPHA_DEGREES))


def d2_weak_value(r2: float) -> float:
    t2 = 1.0 - r2
    return -t2 / (r2 - t2)


def visibility(delta: float, spread: float = SPREAD) -> float:
    return math.exp(-(delta * delta) / (4.0 * spread * spread))


def d2_mean_kick(r2: float, delta: float, spread: float = SPREAD) -> float:
    """Exact conditional D2 mirror kick for a Gaussian pointer of the given spread."""
    t2 = 1.0 - r2
    v = visibility(delta, spread)
    return delta * (t2 * t2 - r2 * t2 * v) / (r2 * r2 + t2 * t2 - 2.0 * r2 * t2 * v)


def _reject_constant(name: str):
    raise CheckFailed(f"non-standard JSON constant {name}")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from exc


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CheckFailed(f"missing output {path.name}") from exc


def _read_json(path: Path):
    return strict_json(_read(path).decode())


def _close(name: str, got: float, want: float, tol: float, relative: bool = False) -> None:
    scale = max(1.0, abs(want)) if relative else 1.0
    if not (isinstance(got, (int, float)) and math.isfinite(got)) or abs(got - want) > tol * scale:
        raise CheckFailed(f"{name}: got {got!r}, want {want!r} within {tol:g}")


def _check_config(config: dict, **expected) -> None:
    want = {
        "omega": OMEGA,
        "alpha_degrees": ALPHA_DEGREES,
        "delta_spread": SPREAD,
        "r_squared": DEFAULT_R_SQUARED,
        **expected,
    }
    for key, value in want.items():
        if config.get(key) != value:
            raise CheckFailed(f"config.{key}: got {config.get(key)!r}, want {value!r}")


def _check_echo(stdout: str, payload) -> None:
    if strict_json(stdout) != payload:
        raise CheckFailed("stdout echo differs from the written output")


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    items: int  # work items per invocation
    item_unit: str
    make_argv: Callable[[random.Random], list[str]]
    check: Callable[[list[str], Path, str], None]  # (argv, out_dir, stdout) -> None

    def argv(self, seed: int, k: int) -> list[str]:
        """The argv of invocation k of a run with the given seed."""
        return self.make_argv(random.Random(f"{self.name}/{seed}/{k}"))


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


# --- ensemble-mc ------------------------------------------------------------

def ensemble_workload(trials: int = 300_000, nbar: float = 10_000.0) -> Workload:
    def make_argv(rng: random.Random) -> list[str]:
        return ["ensemble", "--nbar", repr(nbar), "--trials", str(trials),
                "--seed", str(rng.randrange(2**32))]

    def check(argv: list[str], out: Path, stdout: str) -> None:
        summary = _read_json(out / "ensemble_summary.json")
        _check_echo(stdout, summary)
        _check_config(summary.get("config", {}), nbar=nbar, trials=trials,
                      seed=int(_flag(argv, "--seed")))
        header, _, body = _read(out / "ensemble_records.csv").partition(b"\n")
        if header != b"trial,N,n1,n2,momentum":
            raise CheckFailed(f"records header {header[:80]!r}")
        try:
            table = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=float, ndmin=2)
        except ValueError as exc:
            raise CheckFailed(f"records CSV does not parse: {exc}") from exc
        if table.shape != (trials, 5) or not np.isfinite(table).all():
            raise CheckFailed(f"records table shape {table.shape} or non-finite values")
        trial, total, n1, n2, momentum = table.T
        if not np.array_equal(trial, np.arange(trials)):
            raise CheckFailed("trial column is not 0..trials-1")
        if not all(np.array_equal(c, np.round(c)) and c.min() >= 0 for c in (total, n1, n2)):
            raise CheckFailed("photon counts are not non-negative integers")
        if not np.array_equal(n1 + n2, total):
            raise CheckFailed("n1 + n2 != N on some row")
        r2, t2 = DEFAULT_R_SQUARED, 1.0 - DEFAULT_R_SQUARED
        kick2 = d2_weak_value(r2) * delta_kick()
        want = n2 * kick2
        worst = float(np.max(np.abs(momentum - want) / np.maximum(1.0, np.abs(want))))
        if worst > 1e-12:
            raise CheckFailed(f"momentum != n2 * kick2: worst relative error {worst:.3g}")
        mean = float(momentum.mean())
        se = float(momentum.std(ddof=1)) / math.sqrt(trials)
        expected = nbar * (r2 - t2) ** 2 * kick2
        if abs(mean - expected) > 5.0 * se:
            raise CheckFailed(f"sample mean {mean!r} not within 5 SE ({se:.3g}) of {expected!r}")
        _close("sample_mean", summary.get("sample_mean"), mean, 1e-9, relative=True)
        _close("correlation_within_total", summary.get("correlation_within_total"), 1.0, 1e-9)

    return Workload("ensemble-mc", "ensemble", trials, "trials", make_argv, check)


# --- deco-scan --------------------------------------------------------------

DECO_HEADER = ["delta_over_spread", "visibility", "p_d1", "p_d2", "d2_mean_kick", "d2_weak_kick"]


def deco_workload(ratios: int = 2000) -> Workload:
    def make_argv(rng: random.Random) -> list[str]:
        r2 = rng.uniform(*R_SQUARED_RANGE)
        xs = [0.0, 5.0] + [rng.uniform(0.0, 5.0) for _ in range(ratios - 2)]
        return ["decoherence", "--r-squared", repr(r2), "--ratios", *map(repr, xs)]

    def check(argv: list[str], out: Path, stdout: str) -> None:
        r2 = float(_flag(argv, "--r-squared"))
        t2 = 1.0 - r2
        xs = [float(x) for x in argv[argv.index("--ratios") + 1:]]
        text = _read(out / "decoherence_scan.csv").decode()
        reader = csv.reader(io.StringIO(text, newline=""))
        if next(reader, None) != DECO_HEADER:
            raise CheckFailed("decoherence header")
        rows = []
        for fields in reader:
            try:
                values = [float(f) for f in fields]
            except ValueError as exc:
                raise CheckFailed(f"decoherence row does not parse: {fields}") from exc
            if len(values) != len(DECO_HEADER) or not all(map(math.isfinite, values)):
                raise CheckFailed(f"decoherence row {fields}")
            rows.append(dict(zip(DECO_HEADER, values)))
        if [row["delta_over_spread"] for row in rows] != xs:
            raise CheckFailed("decoherence ratios differ from the requested ones")
        echo = strict_json(stdout)
        if echo.get("rows") != rows:
            raise CheckFailed("stdout echo differs from the written CSV")
        for row in rows:
            x = row["delta_over_spread"]
            delta = x * SPREAD
            v = math.exp(-x * x / 4.0)
            _close(f"visibility at {x}", row["visibility"], v, 1e-8)
            _close(f"p_d1 + p_d2 at {x}", row["p_d1"] + row["p_d2"], 1.0, 1e-10)
            _close(f"p_d1 at {x}", row["p_d1"], 2.0 * r2 * t2 * (1.0 + v), 1e-8)
            _close(f"d2_mean_kick at {x}", row["d2_mean_kick"], d2_mean_kick(r2, delta), 1e-8)
            _close(f"d2_weak_kick at {x}", row["d2_weak_kick"], d2_weak_value(r2) * delta, 1e-12, True)

    return Workload("deco-scan", "decoherence", ratios, "ratios", make_argv, check)


# --- wide-grid --------------------------------------------------------------

def wide_workload(grid_points: int = 4_194_304) -> Workload:
    def make_argv(rng: random.Random) -> list[str]:
        r2 = rng.uniform(*R_SQUARED_RANGE)
        return ["single-photon", "--r-squared", repr(r2), "--grid-points", str(grid_points)]

    def check(argv: list[str], out: Path, stdout: str) -> None:
        r2 = float(_flag(argv, "--r-squared"))
        t2 = 1.0 - r2
        report = _read_json(out / "single_photon.json")
        _check_echo(stdout, report)
        _check_config(report.get("config", {}), r_squared=r2, grid_points=grid_points)
        delta = delta_kick()
        v = visibility(delta)
        _close("weak_value_d1", report.get("weak_value_d1"), 0.5, 1e-12, True)
        _close("weak_value_d2", report.get("weak_value_d2"), d2_weak_value(r2), 1e-12, True)
        _close("net_kick_d1", report.get("net_kick_d1"), 0.0, 1e-12)
        _close("net_kick_d2", report.get("net_kick_d2"), d2_weak_value(r2) * delta, 1e-12, True)
        channels = report.get("channels")
        if not isinstance(channels, list) or [c.get("channel") for c in channels] != ["D1", "D2"]:
            raise CheckFailed("channels must be D1, D2")
        d1, d2 = channels
        _close("p_d1", d1.get("probability"), 2.0 * r2 * t2 * (1.0 + v), 1e-8)
        _close("p_d1 + p_d2", d1.get("probability", 0.0) + d2.get("probability", 0.0), 1.0, 1e-10)
        _close("D2 mean_kick", d2.get("mean_kick"), d2_mean_kick(r2, delta), 1e-8)

    return Workload("wide-grid", "single-photon", grid_points, "grid points", make_argv, check)


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The three benchmark workloads; tiny=True shrinks them for the smoke test."""
    if tiny:
        made = [ensemble_workload(trials=2000), deco_workload(ratios=20), wide_workload(grid_points=16384)]
    else:
        made = [ensemble_workload(), deco_workload(), wide_workload()]
    return {w.name: w for w in made}
