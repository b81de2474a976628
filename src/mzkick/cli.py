"""Command-line front-end: scenario configuration and the analysis subcommands.

Scenarios come from an optional JSON config file plus flag overrides (flags
win). Angles are taken in degrees at this boundary and converted to radians
internally. All emitted JSON/CSV carries a schema_version field and full
double precision, so outputs re-parse losslessly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .ensemble import POISSON_NBAR_MAX, RunTable, expected_kick_report, fluctuation_analysis, sample_runs
from .errors import ConfigError, DegenerateSampleError, MzkickError
from .photon_modes import CHANNEL_D1, CHANNEL_D2, CHANNELS, BeamsplitterSpec, detector_state, intra_state
from .pointer import MomentumGrid, default_grid, gaussian_pointer, overlap, shift
from .weak_measurement import (
    OpticalSetup,
    couple_with_kick,
    net_kick_d1,
    net_kick_d2,
    postselect,
    weak_value_PB,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

DEFAULT_SCAN_RATIOS = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """One reproducible experiment scenario; t^2 is always derived as 1 - r^2."""

    r_squared: float = 0.75
    omega: float = 1.0
    alpha_degrees: float = 60.0
    nbar: float = 100.0
    delta_spread: float = 10.0
    grid_points: int = 4096
    grid_halfwidth: float = 0.0  # 0 means: size the grid automatically
    seed: int = 7
    trials: int = 1000

    def validate(self) -> None:
        problems = [
            f"{name}: must be finite (got {getattr(self, name)})"
            for name, kind in FIELD_TYPES.items()
            if kind is float and not math.isfinite(getattr(self, name))
        ]
        if not 0.0 < self.r_squared < 1.0:
            problems.append(f"r_squared: must lie strictly between 0 and 1 (got {self.r_squared})")
        if self.omega <= 0.0:
            problems.append(f"omega: must be positive (got {self.omega})")
        if not 0.0 < self.alpha_degrees < 90.0:
            problems.append(
                f"alpha_degrees: must lie strictly between 0 and 90 (got {self.alpha_degrees})"
            )
        if self.nbar < 0.0:
            problems.append(f"nbar: must be non-negative (got {self.nbar})")
        if self.delta_spread <= 0.0:
            problems.append(f"delta_spread: must be positive (got {self.delta_spread})")
        if self.grid_points < 16:
            problems.append(f"grid_points: must be at least 16 (got {self.grid_points})")
        if self.grid_halfwidth < 0.0:
            problems.append(f"grid_halfwidth: must be non-negative (got {self.grid_halfwidth})")
        if not 0 <= self.seed < 2**64:
            problems.append(f"seed: must fit in an unsigned 64-bit integer (got {self.seed})")
        if self.trials < 1:
            problems.append(f"trials: must be at least 1 (got {self.trials})")
        if problems:
            raise ConfigError("\n".join(problems))

    @property
    def alpha(self) -> float:
        return math.radians(self.alpha_degrees)

    def to_setup(self) -> OpticalSetup:
        return OpticalSetup(
            bs=BeamsplitterSpec.from_r_squared(self.r_squared),
            omega=self.omega,
            alpha=self.alpha,
            nbar=self.nbar,
        )

    def build_grid(self, max_shift: float) -> MomentumGrid:
        if self.grid_halfwidth > 0.0:
            return MomentumGrid(-self.grid_halfwidth, self.grid_halfwidth, self.grid_points)
        return default_grid(self.delta_spread, max_shift, self.grid_points)


# Scenario field -> int or float: the one source for the CLI flags, the
# config-file parsing and the finiteness check.
FIELD_TYPES = {f.name: int if f.type in ("int", int) else float for f in fields(ScenarioConfig)}


def load_config(path: str | Path | None, overrides: dict) -> ScenarioConfig:
    """Merge defaults, an optional JSON config file, and CLI flag overrides."""
    values: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path} ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {path} is not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config: {path} must contain a JSON object")
        unknown = sorted(set(raw) - set(FIELD_TYPES))
        if unknown:
            raise ConfigError(f"config: unknown keys {unknown}; expected a subset of {sorted(FIELD_TYPES)}")
        values.update(raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in values.items():
        kind = FIELD_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: must be a number (got {value!r})")
        if kind is int and not float(value).is_integer():
            raise ConfigError(f"{key}: must be an integer (got {value!r})")
        values[key] = kind(value)
    cfg = ScenarioConfig(**values)
    cfg.validate()
    return cfg


def _setup_summary(cfg: ScenarioConfig, setup: OpticalSetup) -> dict:
    return {
        "r": setup.bs.r,
        "t": setup.bs.t,
        "omega": setup.omega,
        "alpha_radians": setup.alpha,
        "beta_radians": setup.beta,
        "hbar": setup.hbar,
        "nbar": setup.nbar,
        "delta_kick": setup.delta_kick,
        "delta_spread": cfg.delta_spread,
    }


def _exact_channels(cfg: ScenarioConfig, setup: OpticalSetup, kicks: list[float], weak_channels):
    """Weak values of weak_channels, then (D1, D2) post-selections at each kick.

    Builds the states and one Gaussian pointer on a grid sized for the largest
    |kick|. The weak values come before any grid work, so a forbidden channel
    raises first; the returned iterator couples and post-selects as it is read.
    """
    psi = intra_state(setup.bs)
    phis = {channel: detector_state(setup.bs, channel) for channel in CHANNELS}
    weak = [weak_value_PB(psi, phis[channel]) for channel in weak_channels]
    pointer = gaussian_pointer(cfg.build_grid(max(abs(k) for k in kicks)), cfg.delta_spread)
    joints = (couple_with_kick(psi, pointer, kick) for kick in kicks)
    return weak, pointer, (tuple(postselect(joint, phi) for phi in phis.values()) for joint in joints)


def run_single_photon(cfg: ScenarioConfig) -> dict:
    """Weak values, exact conditional kicks, and net per-channel kicks."""
    setup = cfg.to_setup()
    kick1 = net_kick_d1(setup)
    kick2 = net_kick_d2(setup)  # raises ZeroOverlapError naming D2 at r = t
    (wv1, wv2), _, [(res1, res2)] = _exact_channels(cfg, setup, [setup.delta_kick], CHANNELS)

    channels = [
        {
            "channel": channel,
            "probability": res.probability,
            "mean_kick": res.mean_kick,
            "weak_value_re": wv.real,
            "weak_value_im": wv.imag,
            "net_kick": kick,
        }
        for channel, res, wv, kick in ((CHANNEL_D1, res1, wv1, kick1), (CHANNEL_D2, res2, wv2, kick2))
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "setup": _setup_summary(cfg, setup),
        "channels": channels,
        "weak_value_d1": wv1.real,
        "weak_value_d2": wv2.real,
        "net_kick_d1": kick1,
        "net_kick_d2": kick2,
    }


def run_ensemble(cfg: ScenarioConfig) -> tuple[dict, RunTable]:
    """Monte-Carlo run records plus a summary against the expected totals."""
    if not 0.0 < cfg.nbar <= POISSON_NBAR_MAX:
        raise ConfigError(f"nbar: must lie in (0, {POISSON_NBAR_MAX!r}] to sample (got {cfg.nbar})")
    setup = cfg.to_setup()
    records = sample_runs(setup, cfg.trials, cfg.seed)
    report = expected_kick_report(setup)
    sample_mean = float(records.momentum.mean())
    standard_error = None  # undefined for a single trial
    if cfg.trials > 1:
        standard_error = float(records.momentum.std(ddof=1)) / math.sqrt(cfg.trials)

    def _corr(**kwargs):
        try:
            return fluctuation_analysis(records, **kwargs)
        except DegenerateSampleError:
            return None

    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "setup": _setup_summary(cfg, setup),
        "sample_mean": sample_mean,
        "standard_error": standard_error,
        "expected": report.grand_total,
        "classical_reference": report.classical_reference,
        "d1_total_expected": report.d1_total,
        "d2_total_expected": report.d2_total,
        "correlation_unconditional": _corr(),
        "correlation_within_total": _corr(conditional_on_total=True),
        "correlation_classical_attribution": _corr(classical_attribution=True),
    }
    return summary, records


def run_decoherence_scan(cfg: ScenarioConfig, delta_over_spread_list: list[float]) -> list[dict]:
    """Exact channel statistics as the per-photon kick sweeps through the spread.

    Each row evaluates one ratio delta/spread: mirror visibility, exact channel
    probabilities, the exact D2 conditional kick, and the weak-value prediction
    it departs from once the coupling decoheres the photon.
    """
    if not delta_over_spread_list or not all(map(math.isfinite, delta_over_spread_list)):
        raise ConfigError("ratios: need at least one delta/spread ratio, all finite "
                          f"(got {delta_over_spread_list})")
    setup = cfg.to_setup()
    kicks = [ratio * cfg.delta_spread for ratio in delta_over_spread_list]
    (wv2,), pointer, results = _exact_channels(cfg, setup, kicks, (CHANNEL_D2,))
    return [
        {
            "delta_over_spread": ratio,
            "visibility": abs(overlap(pointer, shift(pointer, delta))),
            "p_d1": res1.probability,
            "p_d2": res2.probability,
            "d2_mean_kick": res2.mean_kick,
            "d2_weak_kick": wv2.real * delta,
        }
        for ratio, delta, (res1, res2) in zip(delta_over_spread_list, kicks, results)
    ]


def run_compare_classical(cfg: ScenarioConfig) -> dict:
    """Side-by-side quantum ensemble total and classical wave-optics momentum."""
    setup = cfg.to_setup()
    report = expected_kick_report(setup)
    classical = report.classical_reference  # zero only when nbar = 0
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "setup": _setup_summary(cfg, setup),
        "quantum_total": report.grand_total,
        "quantum_d1_total": report.d1_total,
        "quantum_d2_total": report.d2_total,
        "classical_total": classical,
        "ratio": report.grand_total / classical if classical != 0.0 else None,
    }


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_dumps(payload) + "\n")


def _write_table(path: Path, fmt: str, key: str, header: list[str], rows) -> None:
    """Write rows (tuples of Python numbers in header order) to path.csv, or to
    path.json as objects under key; CSV rows are streamed, each number as its
    repr, so floats keep full precision."""
    if fmt == "csv":
        line = ",".join(["%r"] * len(header)) + "\n"
        with open(path.with_suffix(".csv"), "w", newline="") as f:
            f.write(",".join(header) + "\n")
            f.writelines(line % row for row in rows)
    else:
        records = [dict(zip(header, row)) for row in rows]
        _write_json(path.with_suffix(".json"), {"schema_version": SCHEMA_VERSION, key: records})


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON scenario file")
    common.add_argument("--out", type=Path, default=Path("."), help="output directory")
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", dest="fmt",
        help="format for tabular outputs",
    )
    for name, kind in FIELD_TYPES.items():
        common.add_argument("--" + name.replace("_", "-"), type=kind, dest=name)

    parser = argparse.ArgumentParser(
        prog="mzkick",
        description="Momentum bookkeeping for a Mach-Zehnder interferometer "
        "whose mirror is struck from both sides",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "single-photon", parents=[common],
        help="weak values, channel probabilities, and per-channel kicks",
    )
    sub.add_parser(
        "ensemble", parents=[common],
        help="Monte-Carlo photon counting against the expected totals",
    )
    deco = sub.add_parser(
        "decoherence", parents=[common],
        help="channel statistics versus the kick-to-spread ratio",
    )
    deco.add_argument(
        "--ratios", type=float, nargs="+", default=list(DEFAULT_SCAN_RATIOS),
        help="delta/spread ratios to scan",
    )
    sub.add_parser(
        "compare-classical", parents=[common],
        help="quantum ensemble total versus the classical wave-optics momentum",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = {name: getattr(args, name) for name in FIELD_TYPES}
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir: Path = args.out
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "single-photon":
            report = run_single_photon(cfg)
            _write_json(out_dir / "single_photon.json", report)
        elif args.command == "ensemble":
            report, records = run_ensemble(cfg)
            rows = zip(range(len(records)), *(col.tolist() for col in records.columns))
            header = ["trial", "N", "n1", "n2", "momentum"]
            _write_table(out_dir / "ensemble_records", args.fmt, "records", header, rows)
            _write_json(out_dir / "ensemble_summary.json", report)
        elif args.command == "decoherence":
            scan = run_decoherence_scan(cfg, list(args.ratios))
            rows = (tuple(row.values()) for row in scan)
            _write_table(out_dir / "decoherence_scan", args.fmt, "rows", list(scan[0]), rows)
            report = {"schema_version": SCHEMA_VERSION, "rows": scan}
        elif args.command == "compare-classical":
            report = run_compare_classical(cfg)
            _write_json(out_dir / "compare_classical.json", report)
        print(_dumps(report))
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MzkickError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def run() -> None:
    raise SystemExit(main())
