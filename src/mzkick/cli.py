"""Command-line front-end: scenario configuration and the analysis subcommands.

Scenarios come from an optional JSON config file plus flag overrides (flags
win). Angles are taken in degrees at this boundary and converted to radians
internally. Every JSON document carries a schema_version field; CSV tables
carry a header row only. Every number is written at full double precision,
so outputs re-parse losslessly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import shutil
import sys
import tempfile
from dataclasses import asdict, astuple, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .ensemble import POISSON_NBAR_MAX, binary_scaled, expected_kick_report, fluctuation_analysis, sample_runs
from .errors import ConfigError, ConstraintViolationError, MzkickError
from .photon_modes import CHANNEL_D1, CHANNEL_D2, CHANNELS, BeamsplitterSpec, detector_state, intra_state
from .pointer import DEFAULT_GRID_POINTS, MomentumGrid, default_halfwidth, gaussian_pointer, overlap
from .weak_measurement import (
    OpticalSetup,
    couple_with_kicks,
    net_kick_d1,
    net_kick_d2,
    postselect,
    weak_value_PB,
)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

DEFAULT_SCAN_RATIOS = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)

# The longest complex128 array numpy can describe: its byte count fits in intp.
ARRAY_LENGTH_MAX = np.iinfo(np.intp).max // 16

# Rows per block in which _write_table spells a table: its text, not the whole
# table's, is what is held in memory at once.
TABLE_BLOCK_ROWS = 2**15

# A decimal number with a leading minus, exponent form included.
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _is_normal(x: float) -> bool:
    """Whether x is a normal float: not zero, subnormal, infinite or nan."""
    return sys.float_info.min <= abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class ScenarioConfig:
    """One reproducible experiment scenario; t^2 is always derived as 1 - r^2. Building
    one checks it, raising one ConfigError that names every field at fault."""

    r_squared: float = 0.75
    omega: float = 1.0
    alpha_degrees: float = 60.0
    nbar: float = 100.0
    delta_spread: float = 10.0
    grid_points: int = DEFAULT_GRID_POINTS
    grid_halfwidth: float = 0.0  # 0 means: size the grid automatically
    seed: int = 7
    trials: int = 1000

    def __post_init__(self) -> None:
        problems = [
            f"{name}: must be finite (got {getattr(self, name)})"
            for name, kind in FIELD_TYPES.items()
            if kind is float and not math.isfinite(getattr(self, name))
        ]
        try:
            BeamsplitterSpec(self.r_squared)
        except ConstraintViolationError as exc:
            problems.append(str(exc))
        if self.omega <= 0.0:
            problems.append(f"omega: must be positive (got {self.omega})")
        if not 0.0 < math.radians(self.alpha_degrees) < math.pi / 2.0:  # OpticalSetup's rule on alpha
            problems.append(f"alpha_degrees: must lie strictly between 0 and 90, and in radians strictly "
                            f"between 0 and pi/2 (got {self.alpha_degrees})")
        if self.nbar < 0.0:
            problems.append(f"nbar: must be non-negative (got {self.nbar})")
        if self.delta_spread <= 0.0:
            problems.append(f"delta_spread: must be positive (got {self.delta_spread})")
        elif self.delta_spread < math.inf and not _is_normal(2.0 * self.delta_spread * self.delta_spread):
            problems.append(f"delta_spread: 2*spread**2 is not a normal float (got {self.delta_spread})")
        if self.grid_points < 16:
            problems.append(f"grid_points: must be at least 16 (got {self.grid_points})")
        elif self.grid_points > ARRAY_LENGTH_MAX:
            problems.append(f"grid_points: must be at most {ARRAY_LENGTH_MAX} (got {self.grid_points})")
        if self.grid_halfwidth < 0.0:
            problems.append(f"grid_halfwidth: must be non-negative (got {self.grid_halfwidth})")
        if not 0 <= self.seed < 2**64:
            problems.append(f"seed: must fit in an unsigned 64-bit integer (got {self.seed})")
        if self.trials < 1:
            problems.append(f"trials: must be at least 1 (got {self.trials})")
        elif self.trials > ARRAY_LENGTH_MAX:
            problems.append(f"trials: must be at most {ARRAY_LENGTH_MAX} (got {self.trials})")
        if problems:
            raise ConfigError("\n".join(problems))
        if not _is_normal(self.setup.delta_kick):
            raise ConfigError(f"omega: the kick 2*omega*cos(alpha) must be a normal float "
                              f"(got omega {self.omega}, alpha_degrees {self.alpha_degrees})")

    @cached_property
    def setup(self) -> OpticalSetup:
        """The optical setup this config was checked with (not a field, so asdict omits it)."""
        return OpticalSetup(
            bs=BeamsplitterSpec(self.r_squared),
            omega=self.omega,
            alpha=math.radians(self.alpha_degrees),
            nbar=self.nbar,
        )


# Scenario field -> int or float: the one source for the CLI flags, the
# config-file parsing and the finiteness check.
FIELD_TYPES = {f.name: int if f.type in ("int", int) else float for f in fields(ScenarioConfig)}


class _LongInteger(str):
    """The digits of a JSON integer too long for int() (sys.get_int_max_str_digits())."""


def _parse_int(text: str) -> int | _LongInteger:
    try:
        return int(text)
    except ValueError:
        return _LongInteger(text)


def load_config(path: str | Path | None, overrides: dict) -> ScenarioConfig:
    """Merge defaults, an optional JSON config file, and CLI flag overrides."""
    values: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(), parse_int=_parse_int)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path} ({exc})") from exc
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
            raise ConfigError(f"config: {path} is not valid UTF-8 JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config: {path} must contain a JSON object")
        unknown = sorted(set(raw) - set(FIELD_TYPES))
        if unknown:
            raise ConfigError(f"config: unknown keys {unknown}; expected a subset of {sorted(FIELD_TYPES)}")
        values.update(raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in values.items():
        kind = FIELD_TYPES[key]
        if isinstance(value, _LongInteger):  # too long to print, as it is to convert
            raise ConfigError(f"{key}: out of range (got an integer of {len(value.lstrip('-'))} digits)")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: must be a number (got {value!r})")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key}: must be an integer (got {value!r})")
        try:
            values[key] = kind(value)
        except OverflowError:  # an int beyond the float range
            raise ConfigError(f"{key}: must be finite (got {value!r})") from None
    return ScenarioConfig(**values)


def _report_head(cfg: ScenarioConfig) -> dict:
    """The schema_version, config and setup keys that open every JSON report."""
    setup = cfg.setup
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "setup": {
            "r": setup.bs.r,
            "t": setup.bs.t,
            "omega": setup.omega,
            "alpha_radians": setup.alpha,
            "beta_radians": setup.beta,
            "hbar": setup.hbar,
            "nbar": setup.nbar,
            "delta_kick": setup.delta_kick,
            "delta_spread": cfg.delta_spread,
        },
    }


def _expected_totals(setup: OpticalSetup):
    """The expected momentum totals, each of which must be zero or a normal float."""
    report = expected_kick_report(setup)
    if not all(x == 0.0 or _is_normal(x) for x in astuple(report)):
        raise ConfigError(f"nbar: the expected momentum totals must be zero or normal floats "
                          f"(got {astuple(report)} at nbar {setup.nbar}, omega {setup.omega})")
    return report


def _exact_channels(cfg: ScenarioConfig, kicks: list[float], kick_field: str):
    """Both weak values, then an iterator of (joint, d1, d2): each kick's joint state
    and the (probability, mean_kick) of D1 and of D2.

    Builds the states and one Gaussian pointer on a grid of half-width grid_halfwidth,
    or, where that is 0, of default_halfwidth for the largest |kick|; a half-width
    whose square is not a normal float is refused, before the grid is built,
    under grid_halfwidth if it was given, else under kick_field, the input the kicks
    were made from. The weak values come before any grid work, so a forbidden channel
    raises first, and every kick is checked before any transform; the returned
    iterator couples and post-selects as it is read.
    """
    psi = intra_state(cfg.setup.bs)
    phis = [detector_state(cfg.setup.bs, channel) for channel in CHANNELS]
    weak = [weak_value_PB(psi, phi) for phi in phis]
    if cfg.grid_halfwidth > 0.0:
        half = cfg.grid_halfwidth
        field, what = "grid_halfwidth", "the given grid half-width"
    else:
        largest = max(abs(k) for k in kicks)
        half = default_halfwidth(cfg.delta_spread, largest)
        field, what = kick_field, f"the grid half-width, 8 spreads plus the largest kick {largest},"
    if not _is_normal(half * half):
        raise ConfigError(f"{field}: {what} must square to a normal float (got {half})")
    pointer = gaussian_pointer(MomentumGrid(-half, half, cfg.grid_points), cfg.delta_spread)
    # map, not a generator expression, whose loop variable would keep each
    # kick's joint state alive while the next kick is made.
    return weak, map(lambda joint: (joint, *(postselect(joint, phi) for phi in phis)),
                     couple_with_kicks(psi, pointer, kicks))


def run_single_photon(cfg: ScenarioConfig) -> tuple[dict, dict, str | None]:
    """Weak values, exact conditional kicks, and net per-channel kicks."""
    kick1 = net_kick_d1(cfg.setup)
    kick2 = net_kick_d2(cfg.setup)  # raises ZeroOverlapError naming D2 at r = t
    (wv1, wv2), [(_, d1, d2)] = _exact_channels(cfg, [cfg.setup.delta_kick], "omega")

    channels = [
        {
            "channel": channel,
            "probability": probability,
            "mean_kick": mean_kick,
            "weak_value_re": wv.real,
            "weak_value_im": wv.imag,
            "net_kick": kick,
        }
        for channel, (probability, mean_kick), wv, kick in (
            (CHANNEL_D1, d1, wv1, kick1), (CHANNEL_D2, d2, wv2, kick2)
        )
    ]
    report = {
        **_report_head(cfg),
        "channels": channels,
        "weak_value_d1": wv1.real,
        "weak_value_d2": wv2.real,
        "net_kick_d1": kick1,
        "net_kick_d2": kick2,
    }
    return report, {}, "single_photon.json"


def run_ensemble(cfg: ScenarioConfig) -> tuple[dict, dict, str | None]:
    """A summary against the expected totals, and the Monte-Carlo run records as columns."""
    if not 0.0 < cfg.nbar <= POISSON_NBAR_MAX:
        raise ConfigError(f"nbar: must lie in (0, {POISSON_NBAR_MAX!r}] to sample (got {cfg.nbar})")
    report = _expected_totals(cfg.setup)
    with np.errstate(over="ignore"):  # an overflowing momentum is inf, refused below
        records = sample_runs(cfg.setup, cfg.trials, cfg.seed)
    try:
        momenta, e = binary_scaled(records.momentum)
    except ConstraintViolationError:
        raise ConfigError(f"omega: a drawn run momentum overflows (got {cfg.omega})") from None
    sample_mean = math.ldexp(float(momenta.mean()), e)
    standard_error = None  # undefined for a single trial
    if cfg.trials > 1:
        standard_error = math.ldexp(float(momenta.std(ddof=1)), e) / math.sqrt(cfg.trials)
    if not all(x == 0.0 or _is_normal(x) for x in (sample_mean, standard_error or 0.0)):
        raise ConfigError(f"omega: the sample mean and standard error must be zero or normal floats "
                          f"(got {sample_mean}, {standard_error} at omega {cfg.omega})")

    summary = {
        **_report_head(cfg),
        "sample_mean": sample_mean,
        "standard_error": standard_error,
        "expected": report.grand_total,
        "classical_reference": report.classical_reference,
        "d1_total_expected": report.d1_total,
        "d2_total_expected": report.d2_total,
        "correlation_unconditional": fluctuation_analysis(records.d1, records.momentum),
        "correlation_within_total": fluctuation_analysis(records.d1, records.momentum, records.totals),
    }
    columns = {"trial": np.arange(cfg.trials), "N": records.totals, "n1": records.d1,
               "n2": records.d2, "momentum": records.momentum}
    return summary, {"ensemble_records": columns}, "ensemble_summary.json"


def run_decoherence_scan(cfg: ScenarioConfig, ratios: list[float]) -> tuple[dict, dict, str | None]:
    """Exact channel statistics as the per-photon kick sweeps through the spread.

    Each row evaluates one ratio delta/spread: mirror visibility, exact channel
    probabilities, the exact D2 conditional kick, and the weak-value prediction
    it departs from once the coupling decoheres the photon. The rows are the
    report and, as columns, the one table.
    """
    kicks = [ratio * cfg.delta_spread for ratio in ratios]
    if not kicks or not all(kick == 0.0 or _is_normal(kick) for kick in kicks):
        raise ConfigError(f"ratios: need one or more, each ratio*delta_spread zero or normal (got {ratios})")
    (_, wv2), results = _exact_channels(cfg, kicks, "ratios")

    def scan_row(ratio: float, delta: float, result: tuple) -> dict:
        joint, (p_d1, _), (p_d2, d2_mean_kick) = result
        return {
            "delta_over_spread": ratio,
            "visibility": abs(overlap(joint.arm_a, joint.arm_b)),
            "p_d1": p_d1,
            "p_d2": p_d2,
            "d2_mean_kick": d2_mean_kick,
            "d2_weak_kick": wv2.real * delta,
        }

    # map releases each kick's joint state once its row is made; a comprehension
    # over zip would hold it while the next kick is made.
    rows = list(map(scan_row, ratios, kicks, results))
    columns = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    return {"schema_version": SCHEMA_VERSION, "rows": rows}, {"decoherence_scan": columns}, None


def run_compare_classical(cfg: ScenarioConfig) -> tuple[dict, dict, str | None]:
    """Side-by-side quantum ensemble total and classical wave-optics momentum."""
    report = _expected_totals(cfg.setup)
    classical = report.classical_reference  # zero only when nbar = 0
    comparison = {
        **_report_head(cfg),
        "quantum_total": report.grand_total,
        "quantum_d1_total": report.d1_total,
        "quantum_d2_total": report.d2_total,
        "classical_total": classical,
        "ratio": report.grand_total / classical if classical != 0.0 else None,
    }
    return comparison, {}, "compare_classical.json"


# Subcommand name -> (help text, runner), in the order --help lists them. Every
# runner returns its report, its {file stem: {name: column}} tables, and the name
# of the file that holds the report, or None where none does. The runners are the
# ones defined here, so every library call goes through its import site in this module:
# perfbench/traced.py wraps library functions where this module imports them, so a
# helper that called them from another module would drop their per-layer spans.
COMMANDS = {
    "single-photon": ("weak values, channel probabilities, and per-channel kicks", run_single_photon),
    "ensemble": ("Monte-Carlo photon counting against the expected totals", run_ensemble),
    "decoherence": ("channel statistics versus the kick-to-spread ratio", run_decoherence_scan),
    "compare-classical": ("quantum ensemble total versus the classical wave-optics momentum",
                          run_compare_classical),
}


@contextlib.contextmanager
def _output_set(out_dir: Path):
    """Yield a fresh staging directory inside out_dir to write this run's data files
    to; then move them into out_dir with os.replace. Each file or symlink (the link
    itself, dangling or not) a move replaces is first hard-linked into the staging
    directory, or copied where out_dir's filesystem has no hard links, so if any move
    fails, the moved names get their earlier entry back or are removed: out_dir gains
    all of the set or is left as it was. The staging directory is removed in every case."""
    staging = Path(tempfile.mkdtemp(prefix=".mzkick-", dir=out_dir))
    moved = []
    try:
        yield staging
        names = sorted(path.name for path in staging.iterdir())
        for name in names:
            if (out_dir / name).is_symlink() or (out_dir / name).is_file():
                try:
                    os.link(out_dir / name, staging / f"{name}~", follow_symlinks=False)
                except OSError:  # a filesystem without hard links
                    shutil.copy2(out_dir / name, staging / f"{name}~", follow_symlinks=False)
        for name in names:
            os.replace(staging / name, out_dir / name)
            moved.append(name)
    except BaseException:
        for name in moved:
            try:
                os.replace(staging / f"{name}~", out_dir / name)
            except FileNotFoundError:  # the name had no earlier file
                (out_dir / name).unlink()
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write_table(path: Path, fmt: str, table: dict[str, np.ndarray]) -> None:
    """Write table ({name: 1-D array}) to path.csv, or to path.json as
    {"schema_version", "columns": {name: values}}, TABLE_BLOCK_ROWS rows at a time, so
    the text in memory is one block's. Both formats spell each block of each column by
    digits or by repr into a NUL-padded text matrix (see _column_text) and drop the NULs.
    Every value is its repr, as json.dumps spells an int or a float, so -0.0 stays -0.0.
    No value is nan or inf: main refuses those in the report, which holds the scan's
    rows, and run_ensemble refuses a non-finite momentum."""
    rows = len(next(iter(table.values())))
    blocks = [slice(i, i + TABLE_BLOCK_ROWS) for i in range(0, rows, TABLE_BLOCK_ROWS)]
    with open(path.with_suffix(f".{fmt}"), "wb") as f:
        if fmt == "csv":
            ends = [","] * (len(table) - 1) + ["\n"]
            f.write((",".join(table) + "\n").encode())
            for block in blocks:
                body = np.concatenate([_column_text(col[block], end) for col, end in zip(table.values(), ends)],
                                      axis=1)
                f.write(body[body != 0])
        else:
            f.write(f'{{"schema_version": {SCHEMA_VERSION}, "columns": {{'.encode())
            for i, (name, col) in enumerate(table.items()):
                f.write((", " * (i > 0) + json.dumps(name) + ": [").encode())
                for j, block in enumerate(blocks):
                    text = _column_text(col[block], ", ")
                    f.write(b", " * (j > 0) + text[text != 0][:-2].tobytes())
                f.write(b"]")
            f.write(b"}}\n")


def _column_text(col: np.ndarray, end: str) -> np.ndarray:
    """repr(value) + end for each entry of col, as the rows of a NUL-padded uint8 matrix.

    A non-negative integer column is spelled out by digits (_digit_text), at the same
    cost whether its values repeat or not, as the trial index's do not. Any other
    column, negative integers included, calls repr once per distinct bit pattern."""
    if col.dtype.kind in "iu" and col.min(initial=0) >= 0:
        return _digit_text(col, end)
    bits, inverse = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    text = np.array([repr(v) + end for v in bits.view(col.dtype).tolist()], dtype=bytes)
    return text[inverse].view(np.uint8).reshape(len(col), text.itemsize)


def _digit_text(col: np.ndarray, end: str) -> np.ndarray:
    """The decimal text of a non-negative integer column plus end, right-aligned in
    NUL-padded rows, from divmod by 10 in the smallest unsigned type that holds the
    largest value (a narrower type divides faster)."""
    top = col.max(initial=0)
    rest = col.astype(np.min_scalar_type(top))
    digits = len(str(top))
    text = np.zeros((len(col), digits + len(end)), np.uint8)
    text[:, digits:] = np.frombuffer(end.encode(), np.uint8)
    live = True  # the ones place is written even for 0, a higher one only while the rest is nonzero
    for place in range(digits - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        text[:, place] = (digit + ord("0")) * live
        live = rest != 0
    return text


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
    for name, (help_text, _) in COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        # argparse reads "-1e-3" as an option unless its private negative-number
        # pattern, set per parser, matches; widened to take exponent forms.
        command._negative_number_matcher = NEGATIVE_NUMBER
        if name == "decoherence":
            command.add_argument(
                "--ratios", type=float, nargs="+", default=list(DEFAULT_SCAN_RATIOS),
                help="delta/spread ratios to scan",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    # What is left after the shared flags are taken out are the subcommand's own
    # options, which its runner takes as keywords.
    options = vars(_build_parser().parse_args(argv))
    command, config, out_dir, fmt = (options.pop(key) for key in ("command", "config", "out", "fmt"))
    try:
        cfg = load_config(config, {name: options.pop(name) for name in FIELD_TYPES})
        report, tables, document = COMMANDS[command][1](cfg, **options)
        text = json.dumps(report, indent=2, allow_nan=False)
        try:  # only now, so a refused run leaves no directory behind
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out: cannot create directory {out_dir} ({exc})") from exc
        with _output_set(out_dir) as staging:
            for stem, table in tables.items():
                _write_table(staging / stem, fmt, table)
            if document:
                (staging / document).write_text(text + "\n")
        print(text)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MzkickError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: out of memory; lower grid_points or trials ({exc})", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so that the flush at
        # exit cannot raise again (the recipe in Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: cannot write output ({exc})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK
