"""End-to-end coverage of the command-line interface and its file outputs."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mzkick
from mzkick.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ScenarioConfig,
    load_config,
    main,
    run_decoherence_scan,
)
from mzkick.errors import ConfigError


def strict_loads(text):
    """Parse JSON, rejecting the non-standard NaN/Infinity constants."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def read_json(path):
    with open(path) as f:
        return strict_loads(f.read())


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
            load_config(None, {"r_squared": 1.5, "trials": 0}).validate()
        assert "r_squared" in str(err.value)
        assert "trials" in str(err.value)


class TestSinglePhoton:
    def test_default_report(self, tmp_path, capsys):
        assert main(["single-photon", "--out", str(tmp_path)]) == EXIT_OK
        report = read_json(tmp_path / "single_photon.json")
        assert report["schema_version"] == 1
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
        assert summary["correlation_classical_attribution"] == pytest.approx(-1.0, abs=1e-12)

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
        assert payload["schema_version"] == 1
        assert len(payload["records"]) == 25

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
        rows = run_decoherence_scan(cfg, [0.5])
        v = math.exp(-0.5**2 / 4.0)
        assert rows[0]["visibility"] == pytest.approx(v, abs=1e-8)
        assert rows[0]["p_d1"] == pytest.approx(2.0 * 0.75 * 0.25 * (1.0 + v), abs=1e-8)

    def test_empty_ratio_list_rejected(self):
        with pytest.raises(ConfigError):
            run_decoherence_scan(ScenarioConfig(), [])

    def test_oversized_kick_needs_wider_grid(self, tmp_path, capsys):
        code = main(
            ["decoherence", "--ratios", "5", "--grid-halfwidth", "60", "--out", str(tmp_path)]
        )
        assert code == EXIT_NUMERICAL
        assert "grid" in capsys.readouterr().err.lower()


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


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        # the child imports the same mzkick as this process, installed or not
        src = str(Path(mzkick.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "mzkick", "compare-classical", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["ratio"] == pytest.approx(1.0, abs=1e-12)
