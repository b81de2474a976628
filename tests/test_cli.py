"""End-to-end coverage of the command-line interface and its file outputs."""

import argparse
import ast
import contextlib
import csv
import ctypes
import errno
import importlib.util
import inspect
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mzkick
from mzkick import cli, pointer, weak_measurement
from mzkick.__main__ import run
from mzkick.cli import (
    ARRAY_LENGTH_MAX,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ScenarioConfig,
    _build_parser,
    _write_table,
    load_config,
    main,
    run_decoherence_scan,
    run_ensemble,
    run_single_photon,
)
from mzkick.errors import ConfigError
from mzkick.pointer import GRID_BLOCK, block_map, grid_blocks
from mzkick.weak_measurement import OpticalSetup
from oracles import child_env, d2_mean_kick, p_d1, visibility


def strict_loads(text):
    """Parse JSON, rejecting the non-standard NaN/Infinity constants."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def read_json(path):
    with open(path) as f:
        return strict_loads(f.read())


# Subnormals, and the floats at and next to 0, 0.5, 1 and 90.
FLOAT_EDGES = [5e-324, 1e-322, 1e-300, 5.5e-17, 2.0**-54, 2.0**-53, *(
    x for edge in (0.0, 0.5, 1.0, 90.0)
    for x in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))
)]


class TestConfigLoading:
    def test_defaults_validate(self):
        cfg = load_config(None, {})
        assert cfg == ScenarioConfig()

    def test_file_then_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps({"r_squared": 0.9, "nbar": 400}))
        cfg = load_config(cfg_file, {"nbar": 50.0})
        assert cfg.r_squared == 0.9   # from file
        assert cfg.nbar == 50.0       # flag wins
        assert cfg.omega == 1.0       # default

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps({"rsquared": 0.9}))
        with pytest.raises(ConfigError):
            load_config(cfg_file, {})

    def test_non_numeric_value_rejected(self, tmp_path):
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps({"r_squared": "threequarters"}))
        with pytest.raises(ConfigError):
            load_config(cfg_file, {})

    def test_field_level_messages(self):
        with pytest.raises(ConfigError) as err:
            load_config(None, {"r_squared": 1.5, "trials": 0})
        assert "r_squared" in str(err.value)
        assert "trials" in str(err.value)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(*[st.floats() | st.sampled_from(FLOAT_EDGES)] * 3)
    @example(0.75, 60.0, 5e-324)  # a subnormal kick
    @example(0.75, math.nextafter(90.0, 0.0), 5e-324)  # a kick that rounds to 0
    def test_check_agrees_with_the_library(self, r_squared, alpha_degrees, omega):
        # Every r_squared, alpha_degrees and omega is refused as a field, or builds the
        # setup with a normal kick: no library ConstraintViolationError gets past the
        # config check, and no kick it passes underflows or overflows.
        try:
            cfg = load_config(None, {"r_squared": r_squared, "alpha_degrees": alpha_degrees, "omega": omega})
        except ConfigError:
            return
        assert isinstance(cfg.setup, OpticalSetup)
        assert sys.float_info.min <= abs(cfg.setup.delta_kick) <= sys.float_info.max

    @pytest.mark.parametrize(
        "content,field",
        [
            (None, "config:"),  # no such file
            ("directory", "config:"),
            (b"{", "config:"),
            (b"\xff\xfe{", "config:"),  # not UTF-8
            (b"[1]", "config:"),
            (b'{"seed": 1.5}', "seed:"),
            (b'{"grid_points": 1%s}' % (b"0" * 400), "grid_points:"),  # beyond the float range
            (b'{"omega": 1%s}' % (b"0" * 400), "omega:"),
            (b'{"nbar": -1%s}' % (b"0" * 400), "nbar:"),
            # beyond Python's int-string limit of 4300 digits
            (b'{"seed": 1%s}' % (b"0" * 5000), "seed:"),
            (b'{"grid_points": 1%s}' % (b"0" * 5000), "grid_points:"),
            (b'{"omega": -1%s}' % (b"0" * 5000), "omega:"),
        ],
        ids=["missing", "directory", "invalid-json", "not-utf8", "non-object", "fractional-seed",
             "huge-grid-points", "huge-omega", "huge-negative-nbar", "long-seed", "long-grid-points",
             "long-negative-omega"],
    )
    def test_bad_config_file_exits_two_before_output(self, tmp_path, capsys, content, field):
        path = tmp_path / "scenario.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        out = tmp_path / "out"
        assert main(["single-photon", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines()[1].startswith(field) and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["--grid-points", "15"], "grid_points:"),
            (["--seed", str(2**64)], "seed:"),
            (["--seed", str(10**400)], "seed:"),  # beyond the float range
        ],
    )
    def test_out_of_range_integer_flag_exits_two(self, tmp_path, capsys, argv, field):
        assert main(["single-photon", *argv, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines()[1].startswith(field)


class TestSinglePhoton:
    def test_default_report(self, tmp_path, capsys):
        assert main(["single-photon", "--out", str(tmp_path)]) == EXIT_OK
        report = read_json(tmp_path / "single_photon.json")
        assert report["schema_version"] == 2
        assert report["weak_value_d1"] == pytest.approx(0.5, abs=1e-12)
        assert report["weak_value_d2"] == pytest.approx(-0.5, abs=1e-12)
        assert report["net_kick_d1"] == 0.0
        assert report["net_kick_d2"] == pytest.approx(-0.5, abs=1e-12)
        channels = {ch["channel"]: ch for ch in report["channels"]}
        assert channels["D1"]["mean_kick"] == pytest.approx(0.5, abs=1e-8)
        assert channels["D2"]["mean_kick"] == pytest.approx(-0.49626865865015585, abs=1e-5)
        assert channels["D1"]["probability"] + channels["D2"]["probability"] == pytest.approx(
            1.0, abs=1e-10
        )
        # stdout carries the same report
        assert json.loads(capsys.readouterr().out)["weak_value_d1"] == report["weak_value_d1"]

    def test_balanced_splitter_fails_numerically(self, tmp_path, capsys):
        code = main(["single-photon", "--r-squared", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "D2" in err and "overlap" in err

    def test_validation_failure_exits_two(self, tmp_path, capsys):
        code = main(["single-photon", "--r-squared", "1.5", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "r_squared:" in capsys.readouterr().err
        assert not (tmp_path / "single_photon.json").exists()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("omega", "nan"),
            ("nbar", "inf"),
            ("delta_spread", "nan"),
            ("grid_halfwidth", "inf"),
        ],
    )
    def test_non_finite_value_exits_two(self, tmp_path, capsys, field, value):
        flag = "--" + field.replace("_", "-")
        code = main(["single-photon", f"{flag}={value}", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert f"{field}:" in capsys.readouterr().err
        assert not (tmp_path / "single_photon.json").exists()

    def test_peak_memory_on_a_wide_grid(self, monkeypatch):
        # The real pointer (half a complex array) and its shifted copy, plus the
        # cached points and widths of the first block and the working arrays
        # of the blocks in flight, about two block arrays (2 MiB) per worker;
        # post-selection never stores the conditional pointer. The run is
        # pinned to 2 workers, since each more adds its 2 MiB, and the pool is
        # built, with its import, before the measurement. At 2**18 points a
        # 2**16-point block is a quarter of the grid, and the peak is 3.29
        # complex grid arrays (3.79 with a complex pointer, 5.03 when every
        # pass took whole-grid temporaries). At 2**20 points a block is a
        # sixteenth of the grid and the peak is 1.94 arrays, against 2.44 with
        # a complex pointer and 3.19 while post-selection stored the
        # conditional pointer: each bound is within 0.1 array of its reading.
        monkeypatch.setattr(pointer, "_cpus", lambda: 2)
        block_map(lambda s: None, grid_blocks(2 * GRID_BLOCK))
        for n, bound in ((2**18, 3.35), (2**20, 2.0)):
            cfg = ScenarioConfig(grid_points=n)
            tracemalloc.start()
            try:
                run_single_photon(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound * 16 * n, f"peak {peak / (16 * n):.2f} complex grid arrays at n = {n}"

    def test_multi_block_grid_meets_the_closed_forms(self):
        # 2**17 + 1 points: three blocks per grid pass, two per integral.
        report, _, _ = run_single_photon(ScenarioConfig(grid_points=2**17 + 1))
        config = report["config"]
        kick, want_d1, d2_kick = gaussian_channel_closed_forms(config)
        d1, d2 = report["channels"]
        tol = 1e-8 * max(1.0, abs(kick))
        rounding = 64.0 * sys.float_info.epsilon * (abs(kick) + 8.0 * config["delta_spread"])
        assert d1["probability"] == pytest.approx(want_d1, abs=tol)
        assert d2["mean_kick"] == pytest.approx(d2_kick, abs=tol + rounding)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_writing_an_ensemble_table(self, tmp_path, fmt):
        # Tables are spelled a block of rows at a time, so writing one holds a
        # block's text, not the whole file's (3x and 6x the file when it held it).
        _, tables, _ = run_ensemble(ScenarioConfig(nbar=1e4, trials=300_000))
        columns = tables["ensemble_records"]
        tracemalloc.start()
        try:
            _write_table(tmp_path / "table", fmt, columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (tmp_path / f"table.{fmt}").stat().st_size
        assert peak <= 0.5 * size, f"peak {peak / size:.2f} times the {size}-byte file"

    def test_coarse_grid_names_spacing(self, tmp_path, capsys):
        code = main(["single-photon", "--grid-points", "16", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "grid spacing 10.8" in err and "raise grid_points" in err
        assert "widen" not in err


class TestEnsemble:
    def test_summary_values(self, tmp_path, capsys):
        code = main(
            ["ensemble", "--nbar", "10000", "--trials", "1000", "--seed", "7", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        summary = read_json(tmp_path / "ensemble_summary.json")
        # expected total = -2 t^2 nbar (r^2 - t^2) cos(alpha) = -1250 at these settings
        assert summary["expected"] == pytest.approx(-1250.0, abs=1e-9)
        assert summary["classical_reference"] == pytest.approx(-1250.0, abs=1e-9)
        assert summary["d1_total_expected"] == 0.0
        assert abs(summary["sample_mean"] - summary["expected"]) < 3.0 * summary["standard_error"]
        assert abs(summary["correlation_within_total"] - 1.0) < 1e-12
        assert abs(summary["correlation_unconditional"]) < 0.2

    def test_headline_expectation_at_default_nbar(self, tmp_path, capsys):
        main(["ensemble", "--trials", "100", "--out", str(tmp_path)])
        summary = read_json(tmp_path / "ensemble_summary.json")
        assert summary["expected"] == pytest.approx(-12.5, abs=1e-12)  # nbar = 100 default

    def test_fixed_seed_reproduces_csv_bytes(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code = main(["ensemble", "--seed", "7", "--trials", "200", "--out", str(tmp_path / sub)])
            assert code == EXIT_OK
        assert (tmp_path / "a" / "ensemble_records.csv").read_bytes() == (
            tmp_path / "b" / "ensemble_records.csv"
        ).read_bytes()

    def test_records_csv_round_trip(self, tmp_path, capsys):
        main(["ensemble", "--trials", "50", "--out", str(tmp_path)])
        with open(tmp_path / "ensemble_records.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 50
        for row in rows:
            assert int(row["n1"]) + int(row["n2"]) == int(row["N"])
            float(row["momentum"])  # parses at full precision

    def test_json_record_format(self, tmp_path, capsys):
        main(["ensemble", "--trials", "25", "--format", "json", "--out", str(tmp_path)])
        payload = read_json(tmp_path / "ensemble_records.json")
        assert payload["schema_version"] == 2
        assert list(payload["columns"]) == ["trial", "N", "n1", "n2", "momentum"]
        assert all(len(col) == 25 for col in payload["columns"].values())

    def test_zero_trials_is_config_error(self, tmp_path, capsys):
        assert main(["ensemble", "--trials", "0", "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("nbar", ["0", "1e19", "1e30"])
    def test_nbar_outside_sampling_range_is_config_error(self, tmp_path, capsys, nbar):
        assert main(["ensemble", "--nbar", nbar, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "nbar:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_single_trial_writes_null_statistics(self, tmp_path, capsys):
        assert main(["ensemble", "--trials", "1", "--out", str(tmp_path)]) == EXIT_OK
        summary = read_json(tmp_path / "ensemble_summary.json")
        assert summary["standard_error"] is None
        assert summary["correlation_unconditional"] is None
        assert strict_loads(capsys.readouterr().out) == summary

    def test_large_momenta_within_the_statistics_range_succeed(self, tmp_path, capsys):
        # momenta near 1e143: every sum of squares the statistics form stays finite
        argv = ["ensemble", "--omega", "1e140", "--nbar", "1e4", "--trials", "1000"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        summary = read_json(tmp_path / "ensemble_summary.json")
        assert strict_loads(capsys.readouterr().out) == summary
        assert abs(summary["correlation_within_total"] - 1.0) < 1e-12
        assert abs(summary["correlation_unconditional"]) < 0.2

    def test_one_total_per_run_writes_a_null_pooled_correlation(self, tmp_path, capsys):
        # At nbar 1e18 every run draws its own photon total, so no group of equal
        # total has any variance: the pooled correlation is undefined, the plain one is not.
        argv = ["ensemble", "--nbar", "1e18", "--trials", "31", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        with open(tmp_path / "ensemble_records.csv", newline="") as f:
            assert len({row["N"] for row in csv.DictReader(f)}) == 31
        summary = read_json(tmp_path / "ensemble_summary.json")
        assert summary["correlation_within_total"] is None
        assert isinstance(summary["correlation_unconditional"], float)
        assert strict_loads(capsys.readouterr().out) == summary


class TestDecoherence:
    def test_scan_rows(self, tmp_path, capsys):
        ratios = ["0", "0.1", "4"]
        code = main(["decoherence", "--ratios", *ratios, "--out", str(tmp_path)])
        assert code == EXIT_OK
        with open(tmp_path / "decoherence_scan.csv", newline="") as f:
            rows = {float(r["delta_over_spread"]): r for r in csv.DictReader(f)}
        # coherent endpoint: closed-form channel probabilities survive exactly
        assert float(rows[0.0]["visibility"]) == pytest.approx(1.0, abs=1e-10)
        assert float(rows[0.0]["p_d1"]) == pytest.approx(0.75, abs=1e-10)
        assert float(rows[0.0]["p_d2"]) == pytest.approx(0.25, abs=1e-10)
        assert float(rows[0.1]["visibility"]) == pytest.approx(0.9975031223974601, abs=1e-8)
        assert float(rows[0.1]["p_d1"]) == pytest.approx(0.7490636708990476, abs=1e-8)
        assert float(rows[4.0]["visibility"]) == pytest.approx(0.01831563888873418, abs=1e-8)
        assert float(rows[4.0]["p_d1"]) == pytest.approx(0.38186836458327533, abs=1e-8)
        # weak-value prediction column is the weak value times the kick
        assert float(rows[4.0]["d2_weak_kick"]) == pytest.approx(-20.0, abs=1e-10)

    def test_rows_api_matches_oracle(self):
        cfg = ScenarioConfig()
        rows = run_decoherence_scan(cfg, [0.5])[0]["rows"]
        # The kick is 0.5 of the default spread 10.
        assert rows[0]["visibility"] == pytest.approx(visibility(5.0, 10.0), abs=1e-8)
        assert rows[0]["p_d1"] == pytest.approx(p_d1(0.75, 5.0, 10.0), abs=1e-8)

    def test_one_shift_per_kick(self, monkeypatch):
        ifft_calls = []
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: ifft_calls.append(1) or ifft(*a, **k))
        ratios = [0.0, 0.5, 1.0, -2.0, 5.0]
        rows = run_decoherence_scan(ScenarioConfig(), ratios)[0]["rows"]
        assert [row["delta_over_spread"] for row in rows] == ratios
        assert len(ifft_calls) == 4  # one per nonzero ratio; a zero kick shifts nothing

    def test_empty_ratio_list_rejected(self):
        with pytest.raises(ConfigError):
            run_decoherence_scan(ScenarioConfig(), [])

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_non_finite_ratio_exits_two(self, tmp_path, capsys, ratio):
        code = main(["decoherence", "--ratios", "0.5", ratio, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "ratios:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_oversized_kick_needs_wider_grid(self, tmp_path, capsys):
        code = main(
            ["decoherence", "--ratios", "5", "--grid-halfwidth", "60", "--out", str(tmp_path)]
        )
        assert code == EXIT_NUMERICAL
        assert "grid" in capsys.readouterr().err.lower()


class TestGridRules:
    @pytest.mark.parametrize(
        "argv",
        [
            ["single-photon", "--grid-halfwidth", "1e6"],
            ["single-photon", "--omega", "1e8"],
            ["single-photon", "--delta-spread", "1e-9"],
            ["decoherence", "--ratios", "1e6"],
        ],
        ids=["halfwidth", "omega", "spread", "ratio"],
    )
    def test_unresolved_pointer_is_refused(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "grid spacing" in err and "raise grid_points" in err
        assert list(tmp_path.iterdir()) == []


class TestFloatRange:
    @pytest.mark.parametrize(
        "argv,field",
        [
            (["single-photon", "--delta-spread", "1e300"], "delta_spread"),
            (["single-photon", "--delta-spread", "1e154"], "delta_spread"),
            (["single-photon", "--delta-spread", "1e-300", "--omega", "1e-300"], "delta_spread"),
            (["compare-classical", "--nbar", "1e300", "--omega", "1e300"], "nbar"),
            (["ensemble", "--omega", "1e308", "--nbar", "1e4", "--trials", "50"], "omega"),
            # finite totals, but a run with 3 D2 photons overflows its momentum
            (["ensemble", "--omega", "3e307", "--nbar", "2.5", "--r-squared", "0.6",
              "--trials", "20000"], "omega"),
            # a grid sized from the kicks names the input they came from
            (["decoherence", "--ratios", "0.5", "1e300"], "ratios"),
            (["single-photon", "--omega", "1e300"], "omega"),
            (["single-photon", "--grid-halfwidth", "1e200"], "grid_halfwidth"),
            (["decoherence", "--ratios", "0.5", "1e308"], "ratios"),
            (["decoherence", "--ratios", "1e-310", "0.5"], "ratios"),
            (["single-photon", "--omega", "-1e-3"], "omega"),
            # normal momenta, but a subnormal standard error
            (["ensemble", "--omega", "1e-307", "--trials", "1000"], "omega"),
            (["ensemble", "--omega", "1e-308", "--trials", "1000"], "omega"),
            (["ensemble", "--omega", "3e-309", "--trials", "1000"], "omega"),
        ],
        ids=["spread-huge", "spread-square-overflow", "spread-tiny", "totals", "kick",
             "momentum-overflow", "ratio-huge", "omega-huge", "halfwidth-given", "ratio-kick-overflow",
             "ratio-kick-subnormal", "negative-exponent", "statistics-subnormal-1e-307", "statistics-subnormal-1e-308",
             "statistics-subnormal-3e-309"],
    )
    def test_out_of_range_exits_two_before_writing(self, tmp_path, capsys, argv, field):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"\n{field}:" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    # Inside the open ranges, yet t = sqrt(1 - r_squared) rounds to 1, the angle
    # in radians rounds to 0, or the kick 2*omega*cos(alpha) is subnormal.
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize(
        "flag,value",
        [("--r-squared", "5.5e-17"), ("--r-squared", "1e-300"), ("--r-squared", "5e-324"),
         ("--alpha-degrees", "5e-324"), ("--alpha-degrees", "1e-322"), ("--omega", "1e-320")],
    )
    def test_float_floor_exits_two_before_writing(self, tmp_path, capsys, command, flag, value):
        assert main([command, flag, value, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.splitlines()[1].startswith(f"{field}:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("omega", ["1e200", "1e150", "1e-160", "1e-300"],
                             ids=["momentum-huge", "statistics", "momentum-tiny", "statistics-tiny"])
    def test_far_omega_gives_strict_statistics(self, tmp_path, capsys, omega):
        assert main(["ensemble", "--omega", omega, "--trials", "50", "--out", str(tmp_path)]) == EXIT_OK
        report = read_json(tmp_path / "ensemble_summary.json")
        assert strict_loads(capsys.readouterr().out) == report
        assert report["standard_error"] > 0.0 and report["correlation_within_total"] is not None

    @pytest.mark.parametrize("k", [500, -500, -520])
    def test_power_of_two_omega_scales_the_statistics_exactly(self, tmp_path, capsys, k):
        # The statistics are computed on momenta scaled by an exact power of two,
        # so 2**k times the kick gives 2**k times the mean and the same correlations.
        argv = ["ensemble", "--nbar", "1e4", "--trials", "1000", "--out"]
        assert main([*argv, str(tmp_path / "one")]) == EXIT_OK
        assert main([*argv, str(tmp_path / "scaled"), "--omega", repr(2.0**k)]) == EXIT_OK
        one, scaled = (read_json(tmp_path / name / "ensemble_summary.json") for name in ("one", "scaled"))
        for key in ("sample_mean", "standard_error", "expected"):
            assert scaled[key] == one[key] * 2.0**k
        for key in ("correlation_unconditional", "correlation_within_total"):
            assert scaled[key] == one[key]


class TestNegativeNumbers:
    def test_argparse_keeps_its_negative_number_pattern(self):
        # cli replaces this private argparse attribute on each subcommand parser;
        # if argparse drops it, exponent-form negatives are options again.
        assert isinstance(argparse.ArgumentParser()._negative_number_matcher, re.Pattern)
        parser = _build_parser()
        for command in ("single-photon", "ensemble", "decoherence", "compare-classical"):
            assert parser.parse_args([command, "--omega", "-1e-3"]).omega == -1e-3

    @pytest.mark.parametrize("value", ["-1e-3", "-1E+3", "-.5e2", "-2.", "-1.5e-300"])
    def test_negative_ratio_in_any_form(self, tmp_path, capsys, value):
        assert main(["decoherence", "--ratios", "0.5", value, "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "decoherence_scan.csv", newline="") as f:
            ratios = [float(row["delta_over_spread"]) for row in csv.DictReader(f)]
        assert ratios == [0.5, float(value)]

    @pytest.mark.parametrize(
        "field", ["r_squared", "omega", "alpha_degrees", "nbar", "delta_spread", "grid_halfwidth"]
    )
    def test_negative_exponent_reaches_field_check(self, tmp_path, capsys, field):
        flag = "--" + field.replace("_", "-")
        assert main(["single-photon", flag, "-1e-3", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"{field}:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_ratios_belong_to_decoherence_alone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["single-photon", "--ratios", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ratios 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_lists_the_subcommands_in_order(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one line per subcommand
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
        start = lines.index("{single-photon,ensemble,decoherence,compare-classical}")
        assert lines[start + 1:start + 5] == [
            "single-photon weak values, channel probabilities, and per-channel kicks",
            "ensemble Monte-Carlo photon counting against the expected totals",
            "decoherence channel statistics versus the kick-to-spread ratio",
            "compare-classical quantum ensemble total versus the classical wave-optics momentum",
        ]

    @pytest.mark.parametrize("command", ["single-photon", "ensemble", "decoherence", "compare-classical"])
    def test_subcommand_help_opens_with_its_usage_line(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: mzkick {command} ")


class TestCompareClassical:
    def test_ratio_is_unity(self, tmp_path, capsys):
        assert main(["compare-classical", "--out", str(tmp_path)]) == EXIT_OK
        report = read_json(tmp_path / "compare_classical.json")
        assert report["ratio"] == pytest.approx(1.0, abs=1e-12)
        assert report["quantum_total"] == pytest.approx(-12.5, abs=1e-12)
        assert report["classical_total"] == pytest.approx(-12.5, abs=1e-12)

    @pytest.mark.parametrize("r_squared,alpha", [("0.6", "60"), ("0.9", "10"), ("0.9", "80")])
    def test_ratio_across_settings(self, tmp_path, capsys, r_squared, alpha):
        main([
            "compare-classical", "--r-squared", r_squared,
            "--alpha-degrees", alpha, "--out", str(tmp_path),
        ])
        report = read_json(tmp_path / "compare_classical.json")
        assert report["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_no_photons_gives_null_ratio(self, tmp_path, capsys):
        assert main(["compare-classical", "--nbar", "0", "--out", str(tmp_path)]) == EXIT_OK
        report = read_json(tmp_path / "compare_classical.json")
        assert report["classical_total"] == 0.0
        assert report["ratio"] is None
        assert strict_loads(capsys.readouterr().out) == report

    def test_nbar_beyond_poisson_limit_succeeds(self, tmp_path, capsys):
        assert main(["compare-classical", "--nbar", "1e30", "--out", str(tmp_path)]) == EXIT_OK
        assert read_json(tmp_path / "compare_classical.json")["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_infinite_nbar_is_config_error(self, tmp_path, capsys):
        code = main(["compare-classical", "--nbar", "inf", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "nbar:" in capsys.readouterr().err
        assert not (tmp_path / "compare_classical.json").exists()


# Any magnitude in 1e-300..1e300, of either sign.
ANY_MAGNITUDE = st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300)


def extreme(values, typical):
    """Mostly a typical draw, else one of the listed extreme values or any magnitude."""
    return st.integers(0, 3).flatmap(
        lambda i: typical if i else st.sampled_from(values) | ANY_MAGNITUDE
    )


# Sizes numpy cannot describe lead, because sampled_from draws its first
# entries most often (10**400 is past the float range too); the cap and 10**15
# it describes but cannot allocate.
EXTREME_SIZES = [10**400, 2**63 - 1, 10**30, ARRAY_LENGTH_MAX + 1, ARRAY_LENGTH_MAX, 10**15]


def extreme_size(typical):
    """Mostly a typical size, else one of EXTREME_SIZES."""
    return st.integers(0, 3).flatmap(lambda i: typical if i else st.sampled_from(EXTREME_SIZES))


SCENARIO_FLAGS = {
    "r_squared": extreme([0.0, 0.5, 1.0, 1.5], st.floats(0.55, 0.95)),
    "omega": extreme([1e-9, 1e3, 1e8, 1e9], st.floats(0.01, 10.0)),
    "alpha_degrees": extreme([0.0, 90.0], st.floats(1.0, 89.0)),
    "nbar": extreme([0.0, 1e19, 1e30], st.floats(1.0, 1e4)),
    "delta_spread": extreme([1e-10, 1e-9, 1e-3, 1e4], st.floats(0.1, 100.0)),
    "grid_points": extreme_size(st.integers(16, 4096)),
    "grid_halfwidth": extreme([1e6, 1e7], st.just(0.0) | st.floats(1.0, 1e3)),
    "seed": st.integers(0, 2**32),
    "trials": extreme_size(st.integers(1, 500)),
}
RATIOS = st.lists(extreme([math.nan, math.inf, 1e6], st.floats(0.0, 5.0)), min_size=1, max_size=4)


@st.composite
def cli_argv(draw):
    # single-photon twice: its successes carry the closed-form check
    command = draw(st.sampled_from(
        ["single-photon", "single-photon", "ensemble", "decoherence", "compare-classical"]
    ))
    argv = [command, "--format", draw(st.sampled_from(["csv", "json"]))]
    for name, values in SCENARIO_FLAGS.items():
        value = draw(st.none() | values)
        if value is not None:
            flag = f"--{name.replace('_', '-')}"
            argv += draw(st.sampled_from([[f"{flag}={value!r}"], [flag, repr(value)]]))
    if command == "decoherence" and draw(st.booleans()):
        argv += ["--ratios", *map(repr, draw(RATIOS))]
    return argv


# Each subcommand's report file and table file stem, or None where it writes no such file.
OUTPUT_FILES = {
    "single-photon": ("single_photon.json", None),
    "ensemble": ("ensemble_summary.json", "ensemble_records"),
    "decoherence": (None, "decoherence_scan"),
    "compare-classical": ("compare_classical.json", None),
}


def read_table(path: Path) -> dict:
    """A written CSV or JSON table as {name: values}; each CSV field is the repr of its
    value, which parses as a strict JSON number."""
    if path.suffix == ".json":
        return read_json(path)["columns"]
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    return {name: [strict_loads(v) for v in values] for name, values in zip(header, zip(*rows))}


def gaussian_channel_closed_forms(config: dict) -> tuple[float, float, float]:
    """Kick, P(D1) and the D2 mean kick for a Gaussian pointer, from the config alone."""
    r2, spread = config["r_squared"], config["delta_spread"]
    kick = 2.0 * config["omega"] * math.cos(math.radians(config["alpha_degrees"]))
    return kick, p_d1(r2, kick, spread), d2_mean_kick(r2, kick, spread)


class TestArgvProperty:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(cli_argv())
    def test_any_argv_exits_cleanly_with_strict_json(self, argv):
        with tempfile.TemporaryDirectory() as out:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", out])
            assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_CONFIG), stderr.getvalue()
            names = sorted(path.name for path in Path(out).iterdir())
            if code != EXIT_OK:
                assert names == []  # no data file and no staging directory
                if code == EXIT_CONFIG:  # the second stderr line opens with the field at fault
                    field = stderr.getvalue().splitlines()[1].partition(":")[0]
                    assert field in [*cli.FIELD_TYPES, "config", "out", "ratios"], stderr.getvalue()
                return
            # Exactly the command's files; the report file holds the text on stdout.
            document, stem = OUTPUT_FILES[argv[0]]
            table = stem and f"{stem}.{argv[2]}"
            assert names == sorted(filter(None, [document, table]))
            report = strict_loads(stdout.getvalue())
            if document:
                assert (Path(out) / document).read_text() == stdout.getvalue()
            if table:
                columns = read_table(Path(out) / table)
        if argv[0] == "decoherence":
            rows = report["rows"]
            assert list(columns) == list(rows[0])
            for name, values in columns.items():
                assert bit_patterns(values) == bit_patterns([row[name] for row in rows])
        if argv[0] == "single-photon" and 0.55 <= report["config"]["r_squared"] <= 0.95:
            kick, want_d1, d2_kick = gaussian_channel_closed_forms(report["config"])
            d1, d2 = report["channels"]
            tol = 1e-8 * max(1.0, abs(kick))
            assert d1["probability"] == pytest.approx(want_d1, abs=tol)
            # A first moment over a grid of half-width H carries rounding of order eps*H.
            config = report["config"]
            half = config["grid_halfwidth"] or abs(kick) + 8.0 * config["delta_spread"]
            rounding = 64.0 * sys.float_info.epsilon * half
            assert d2["mean_kick"] == pytest.approx(d2_kick, abs=tol + rounding)


def bit_patterns(values):
    """Each value as (type, bits): an int as itself, a float as its IEEE 754 bytes."""
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in values]


# Signed zeros, subnormals and the ends of the float range, besides any value.
TABLE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, sys.float_info.max]
) | st.floats(allow_nan=False, allow_infinity=False)
INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def int_edges(dtype) -> list[int]:
    """0, -1 where it fits, and both ends of the integer dtype's range."""
    info = np.iinfo(dtype)
    return [0, max(-1, info.min), info.min, info.max]


@st.composite
def table_columns(draw):
    """One to five columns of equal length, float64 or any numpy integer dtype. Most
    are drawn from a small pool of values, so that the table repeats values; some
    integer columns are all-distinct, as the trial index is, and negated if signed."""
    rows = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        dtype = draw(st.sampled_from([np.float64, *INT_DTYPES]))
        if dtype is not np.float64 and draw(st.booleans()):
            column = np.arange(rows, dtype=dtype)
            negate = np.issubdtype(dtype, np.signedinteger) and draw(st.booleans())
            columns.append(-column if negate else column)
            continue
        if dtype is np.float64:
            values = TABLE_FLOATS
        else:
            edges = int_edges(dtype)
            values = st.sampled_from(edges) | st.integers(min(edges), max(edges))
        pool = draw(st.lists(values, min_size=1, max_size=8))
        column = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
        columns.append(np.array(column, dtype=dtype))
    return columns


INT_EDGES = [np.array(int_edges(dtype), dtype=dtype) for dtype in INT_DTYPES]

# Tables whose blocks of 3 rows differ: a column negative only in its second
# block, a digit width that grows and shrinks, 0.0 and -0.0 a block apart, and no rows.
BLOCK_EDGE_TABLES = [
    [np.array([0, 1, 2, 3, -4], dtype=np.int64), np.arange(5, dtype=np.uint8)],
    [np.array([7, 8, 9, 10, 99999, 100, 0, 1, 2], dtype=np.uint32)],
    [np.array([0.0, 1.5, 0.0, -0.0, -1.5, -0.0])],
    [np.array([], dtype=np.int64), np.array([], dtype=np.float64)],
]


def block_edge_examples(test):
    for columns in BLOCK_EDGE_TABLES:
        test = example(columns)(test)
    return test


def written_at_each_block_size(fmt: str, columns: list[np.ndarray]) -> list[bytes]:
    """The file _write_table makes of columns (named c0, c1, ...), with blocks of 3
    rows and with blocks of TABLE_BLOCK_ROWS."""
    table = {f"c{i}": col for i, col in enumerate(columns)}
    written = []
    for block_rows in (3, cli.TABLE_BLOCK_ROWS):
        with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "TABLE_BLOCK_ROWS", block_rows)
            _write_table(Path(out) / "table", fmt, table)
            written.append((Path(out) / f"table.{fmt}").read_bytes())
    return written


class TestWriteTable:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(table_columns())
    @example(INT_EDGES)
    @example([-np.arange(40)])
    @example([np.array([0, 9, 10, np.iinfo(dtype).max], dtype=dtype) for dtype in INT_DTYPES])
    @block_edge_examples
    def test_csv_matches_row_wise_repr(self, columns):
        header = [f"c{i}" for i in range(len(columns))]
        line = ",".join(["%r"] * len(columns)) + "\n"
        rows = zip(*(col.tolist() for col in columns))
        want = ",".join(header) + "\n" + "".join(line % row for row in rows)
        for written in written_at_each_block_size("csv", columns):
            assert written == want.encode()

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(table_columns())
    @block_edge_examples
    def test_json_columns_keep_every_bit(self, columns):
        header = [f"c{i}" for i in range(len(columns))]
        want = {"schema_version": 2, "columns": {name: col.tolist() for name, col in zip(header, columns)}}
        for written in written_at_each_block_size("json", columns):
            assert written == (json.dumps(want, allow_nan=False) + "\n").encode()
            payload = strict_loads(written)
            assert list(payload["columns"]) == header
            for name, col in zip(header, columns):
                assert bit_patterns(payload["columns"][name]) == bit_patterns(col.tolist())


class TestJsonTables:
    @pytest.mark.parametrize(
        "argv, stem",
        [
            (["ensemble", "--trials", "200"], "ensemble_records"),
            (["decoherence", "--ratios", "0.0", "-0.0", "0.5"], "decoherence_scan"),
        ],
    )
    def test_json_columns_equal_csv_values_bit_for_bit(self, tmp_path, capsys, argv, stem):
        for fmt in ("csv", "json"):
            assert main([*argv, "--format", fmt, "--out", str(tmp_path / fmt)]) == EXIT_OK
        with open(tmp_path / "csv" / f"{stem}.csv", newline="") as f:
            header, *rows = list(csv.reader(f))
        columns = read_json(tmp_path / "json" / f"{stem}.json")["columns"]
        assert list(columns) == header
        for name, values in zip(header, zip(*rows)):
            # Each CSV field is the repr of its value, which parses as a JSON number.
            assert bit_patterns(columns[name]) == bit_patterns(map(json.loads, values))


def no_libc(name):
    raise OSError("no libc")


@pytest.fixture
def mallopt_calls(monkeypatch):
    """An in-process `run` that leaves this process alone: ctypes finds a
    stand-in libc whose mallopt records its arguments, and `os.environ` is a
    copy without OPENBLAS_NUM_THREADS."""
    calls = []

    class StandInLibc:
        def __init__(self, name):
            assert name is None

        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ctypes, "CDLL", StandInLibc)
    monkeypatch.setattr(os, "environ", {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"})
    return calls


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "mzkick", "compare-classical", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_run_keeps_freed_memory(self, mallopt_calls, tmp_path, capsys):
        assert run(["compare-classical", "--out", str(tmp_path)]) == EXIT_OK
        assert mallopt_calls == [(-4, 0), (-1, 2**30)]  # M_MMAP_MAX, M_TRIM_THRESHOLD
        assert strict_loads(capsys.readouterr().out)["ratio"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("libc", [no_libc, lambda name: object()], ids=["no-libc", "no-symbol"])
    def test_run_without_mallopt_still_runs(self, mallopt_calls, monkeypatch, tmp_path, capsys, libc):
        monkeypatch.setattr(ctypes, "CDLL", libc)
        assert run(["compare-classical", "--out", str(tmp_path)]) == EXIT_OK
        assert strict_loads(capsys.readouterr().out)["ratio"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("given, want", [(None, "1"), ("2", "2")], ids=["absent", "set"])
    def test_run_defaults_blas_threads_to_one(self, mallopt_calls, tmp_path, capsys, given, want):
        if given is not None:
            os.environ["OPENBLAS_NUM_THREADS"] = given
        assert run(["compare-classical", "--out", str(tmp_path)]) == EXIT_OK
        assert os.environ["OPENBLAS_NUM_THREADS"] == want

    @pytest.mark.parametrize("entry, sets_policy", [("mzkick.cli:main", False), ("mzkick.__main__:run", True)])
    def test_only_the_command_sets_the_process_policy(self, tmp_path, entry, sets_policy):
        # A fresh interpreter, so that the import itself is watched too: the
        # audit hook sees every symbol ctypes looks up.
        module, _, name = entry.partition(":")
        code = "\n".join([
            "import importlib, os, sys",
            "symbols = []",
            "sys.addaudithook(lambda event, args: event == 'ctypes.dlsym' and symbols.append(args[1]))",
            f"rc = getattr(importlib.import_module({module!r}), {name!r})(sys.argv[1:])",
            "print(rc, 'mallopt' in symbols, os.environ.get('OPENBLAS_NUM_THREADS'), file=sys.stderr)",
        ])
        env = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", code, "compare-classical", "--out", str(tmp_path)],
                              capture_output=True, text=True, env=env)
        assert proc.stderr.split() == ["0", str(sets_policy), "1" if sets_policy else "None"]

    def test_unallocatable_size_exits_one(self, tmp_path):
        # With mmap off, glibc falls back to it once brk cannot grow the heap.
        proc = subprocess.run(
            [sys.executable, "-m", "mzkick", "single-photon", "--grid-points", str(10**15),
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_console_script_target(self, mallopt_calls, tmp_path, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["mzkick"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        assert entry(["compare-classical", "--out", str(tmp_path)]) == EXIT_OK
        assert mallopt_calls == [(-4, 0), (-1, 2**30)]  # M_MMAP_MAX, M_TRIM_THRESHOLD
        assert strict_loads(capsys.readouterr().out)["ratio"] == pytest.approx(1.0, abs=1e-12)


def link_refused(src, dst, **kwargs):
    """os.link as it fails on a filesystem without hard links."""
    raise PermissionError(errno.EPERM, os.strerror(errno.EPERM), str(src))


class TestResourceFailures:
    def test_closed_stdout_exits_one_without_traceback(self, tmp_path):
        # 3,000 zero-kick rows print far more than a pipe buffer holds, so the
        # child is still writing when the reader goes away.
        argv = ["decoherence", "--grid-points", "64", "--ratios", *["0"] * 3000]
        proc = subprocess.Popen([sys.executable, "-m", "mzkick", *argv, "--out", str(tmp_path)],
                                env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.read(1) == "{"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_NUMERICAL
        assert "Traceback" not in err and "Exception ignored" not in err
        assert (tmp_path / "decoherence_scan.csv").stat().st_size > 0  # written before stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["single-photon", "--grid-points", str(10**15)],
            ["decoherence", "--grid-points", str(10**15), "--ratios", "0.5"],
            ["ensemble", "--trials", str(10**15)],
            ["single-photon", "--grid-points", str(ARRAY_LENGTH_MAX)],
            ["decoherence", "--grid-points", str(ARRAY_LENGTH_MAX), "--ratios", "0.5"],
            ["ensemble", "--trials", str(ARRAY_LENGTH_MAX)],
        ],
        ids=["single-photon", "decoherence", "ensemble",
             "single-photon-cap", "decoherence-cap", "ensemble-cap"],
    )
    def test_unallocatable_size_exits_one(self, tmp_path, capsys, argv):
        # 10**15 eight-byte values are 7.1 PiB, past the 128 TiB user address
        # space, so the first allocation fails at once under any overcommit policy.
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "size",
        [ARRAY_LENGTH_MAX + 1, 2**60 - 1, 2**63 - 1, 10**30, pytest.param(10**400, id="10**400")],
    )
    @pytest.mark.parametrize(
        "argv,field",
        [
            (["single-photon", "--grid-points"], "grid_points:"),
            (["decoherence", "--ratios", "0.5", "--grid-points"], "grid_points:"),
            (["ensemble", "--trials"], "trials:"),
        ],
        ids=["single-photon", "decoherence", "ensemble"],
    )
    def test_size_numpy_cannot_describe_exits_two(self, tmp_path, capsys, argv, field, size):
        assert main([*argv, str(size), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines()[1].startswith(field)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["single-photon", "ensemble"])
    def test_out_that_is_not_a_directory_exits_two(self, tmp_path, capsys, command):
        (tmp_path / "file").touch()
        for out in (tmp_path / "file", tmp_path / "file" / "sub"):
            assert main([command, "--trials", "50", "--out", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err.splitlines()[1].startswith("out:")

    @pytest.mark.parametrize(
        "argv,code",
        [(["ensemble", "--nbar", "0"], EXIT_CONFIG),
         (["single-photon", "--r-squared", "0.5"], EXIT_NUMERICAL)],
        ids=["refused-config", "numerical-failure"],
    )
    def test_refused_run_creates_no_out(self, tmp_path, capsys, argv, code):
        assert main([*argv, "--out", str(tmp_path / "new" / "deep")]) == code
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command,name,earlier,hard_links",
        [
            ("single-photon", "single_photon.json", False, True),
            ("ensemble", "ensemble_records.csv", False, True),
            ("ensemble", "ensemble_summary.json", False, True),
            ("ensemble", "ensemble_summary.json", True, True),
            ("ensemble", "ensemble_summary.json", True, False),
        ],
        ids=["single-photon-single_photon.json", "ensemble-ensemble_records.csv",
             "ensemble-ensemble_summary.json", "ensemble-over-an-earlier-output",
             "ensemble-over-an-earlier-output-without-hard-links"],
    )
    def test_unwritable_output_file_exits_one(
        self, tmp_path, capsys, monkeypatch, command, name, earlier, hard_links
    ):
        if not hard_links:
            monkeypatch.setattr(os, "link", link_refused)
        if earlier:  # a complete earlier output, then a run whose records differ
            assert main([command, "--trials", "50", "--out", str(tmp_path)]) == EXIT_OK
            (tmp_path / name).unlink()
        (tmp_path / name).mkdir()
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        assert main([command, "--trials", "50", "--seed", "9", "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1
        # All or nothing: --out is as it was, earlier files byte for byte, and holds
        # no temporary file.
        after = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        assert after == before and len(before) == earlier
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted([*before, name])


class TestOneOutputPath:
    def test_output_set_is_entered_only_in_main(self):
        """Every reference to _output_set in the package, by the top-level definition that holds it."""
        sites = []
        for path in sorted(Path(mzkick.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    names = [getattr(node, key, None) for key in ("id", "attr", "name")]
                    if "_output_set" in names:
                        sites.append((path.name, getattr(top, "name", None)))
        assert sites == [("cli.py", "_output_set"), ("cli.py", "main")]

    def test_interrupted_move_puts_the_earlier_files_back(self, tmp_path, capsys, monkeypatch):
        argv = ["ensemble", "--trials", "50", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        replace = os.replace

        def interrupted(src, dst):
            if Path(dst).name == "ensemble_summary.json":
                raise KeyboardInterrupt
            replace(src, dst)

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main([*argv, "--seed", "9"])
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("hard_links", [True, False], ids=["hard-links", "without-hard-links"])
    @pytest.mark.parametrize("target", ["missing", "directory"], ids=["dangling", "to-a-directory"])
    def test_failed_set_puts_an_earlier_symlink_back(self, tmp_path, capsys, monkeypatch, target, hard_links):
        if not hard_links:
            monkeypatch.setattr(os, "link", link_refused)
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "directory").mkdir()
        (out / "ensemble_records.csv").symlink_to(tmp_path / target)
        (out / "ensemble_summary.json").mkdir()  # the move after the records' fails
        assert main(["ensemble", "--trials", "40", "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("error: cannot write output")
        # The symlink itself is back, pointing where it did, and nothing else is left.
        assert os.readlink(out / "ensemble_records.csv") == str(tmp_path / target)
        assert sorted(path.name for path in out.iterdir()) == [
            "ensemble_records.csv", "ensemble_summary.json"]

    def test_rerun_without_hard_links_overwrites(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "link", link_refused)
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        argv = ["ensemble", "--trials", "50", "--seed", "9"]
        assert main([*argv, "--out", str(fresh)]) == EXIT_OK
        assert main(["ensemble", "--trials", "50", "--out", str(out)]) == EXIT_OK
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        # The second run's own bytes, and no staging directory left behind.
        files = {path.name: path.read_bytes() for path in fresh.iterdir()}
        assert {path.name: path.read_bytes() for path in out.iterdir()} == files


class TestTracedImportSites:
    def test_the_tracer_wraps_every_import_site(self, monkeypatch):
        # perfbench/traced.py wraps library functions where cli and
        # weak_measurement import them, by name: a renamed site breaks every
        # traced benchmark run, and the suite here does not run perfbench.
        spec = importlib.util.spec_from_file_location("traced", Path(__file__).parents[1] / "perfbench" / "traced.py")
        traced = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(traced)
        functions = {name: obj for name, obj in vars(weak_measurement).items() if inspect.isfunction(obj)}
        for module in (cli, weak_measurement):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj):
                    monkeypatch.setattr(module, name, obj)  # put back when the test ends
        traced.install(traced.Tracer(), cli, weak_measurement)
        for name in ("shift", "mean_momentum"):
            assert getattr(weak_measurement, name).__wrapped__ is functions[name]
