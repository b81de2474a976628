"""Golden SHA-256 digests of every CLI output file and of stdout.

Each case runs `mzkick.cli.main` in-process at a fixed config and seed and
hashes every file written to `--out` plus the captured stdout, so any change
to a single byte of any report fails here. The digests were captured with
numpy 2.4.6; FFT and RNG output may differ in the last bits under another
numpy, which is why a mismatch names the numpy version.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mzkick
from mzkick.cli import EXIT_OK, main

CONFIGS = {
    "defaults": [],
    "reflective": [
        "--r-squared", "0.9", "--alpha-degrees", "30", "--nbar", "400", "--seed", "11",
        "--trials", "300", "--delta-spread", "5", "--grid-points", "8192",
    ],
    "json": [
        "--r-squared", "0.6", "--omega", "2.5", "--nbar", "1234.5", "--seed", "3",
        "--trials", "2000", "--format", "json", "--grid-halfwidth", "120",
    ],
}

COMMANDS = {
    "single-photon": ["single-photon"],
    "ensemble": ["ensemble"],
    "decoherence": ["decoherence"],
    "decoherence-ratios": ["decoherence", "--ratios", "0", "0.3", "2.5"],
    # In CSV the 0.0 row's d2_weak_kick reads -0.0 and the -0.0 row's 0.0, so a
    # writer that merges values equal as floats fails here.
    "decoherence-signed-zero": ["decoherence", "--ratios", "0.0", "-0.0", "0.5"],
    "compare-classical": ["compare-classical"],
}

DIGESTS = {
    ("defaults", "compare-classical"): {
        "<stdout>": "0c1762523dfc29c859152d89b9ed482a0e50cf7fbb0b937f29a9353be70e1c77",
        "compare_classical.json": "0c1762523dfc29c859152d89b9ed482a0e50cf7fbb0b937f29a9353be70e1c77",
    },
    ("defaults", "decoherence"): {
        "<stdout>": "33e4a8b927b45ab720cbc9fab25f73d486bbd034aeecfd680af38d3586d3ee96",
        "decoherence_scan.csv": "c3e364fc5b93f7048616f7d76cac11fc76d58fca7010e2ce967bc9bbadaeb031",
    },
    ("defaults", "decoherence-ratios"): {
        "<stdout>": "d61d7660f6fe814c15a8e9ecc5c1ee632b389c251383becda616f347817a4961",
        "decoherence_scan.csv": "7bfba93f18d3f8c8cf1ad7f78a7d20f0dcb17906bb0a942b161566c8b4684de8",
    },
    ("defaults", "decoherence-signed-zero"): {
        "<stdout>": "ca59cf68282faabe486474b2b2663d6ff1a87d273a699c45260ddca91479c60f",
        "decoherence_scan.csv": "a5098da532cfb54054a837f1aa696844cad7b2a36a31033c5e7212dc00926340",
    },
    ("defaults", "ensemble"): {
        "<stdout>": "3ee7ea49f28474cf74391df81915b4438cb49cc9cfbff6b68405d8bd7f6d428e",
        "ensemble_records.csv": "b71951b3ccdf737935f847fe6548cb1bd5dfa745bbb96b2e4a12fd823e851b05",
        "ensemble_summary.json": "3ee7ea49f28474cf74391df81915b4438cb49cc9cfbff6b68405d8bd7f6d428e",
    },
    ("defaults", "single-photon"): {
        "<stdout>": "ce5fa9890cca89373633cefc5a8fb1fa23890c14a91df5ebefce01c2019a8fb7",
        "single_photon.json": "ce5fa9890cca89373633cefc5a8fb1fa23890c14a91df5ebefce01c2019a8fb7",
    },
    ("json", "compare-classical"): {
        "<stdout>": "685704f39e5bff1e0a260e2959a02f4a3e9a16f02f9a675506dd749d81cc2c63",
        "compare_classical.json": "685704f39e5bff1e0a260e2959a02f4a3e9a16f02f9a675506dd749d81cc2c63",
    },
    ("json", "decoherence"): {
        "<stdout>": "d61f7fc4091bbb79b77c8a146265391b4677a15017e2313d0bf23be31811f746",
        "decoherence_scan.json": "d61f7fc4091bbb79b77c8a146265391b4677a15017e2313d0bf23be31811f746",
    },
    ("json", "decoherence-ratios"): {
        "<stdout>": "a1398e1664c2b538acb35db80d565b111af147ac09c8d8529be4acf46c3ce9bd",
        "decoherence_scan.json": "a1398e1664c2b538acb35db80d565b111af147ac09c8d8529be4acf46c3ce9bd",
    },
    ("json", "decoherence-signed-zero"): {
        "<stdout>": "924e3e28f2293ab65a6f05ff1909a1dd3051c8d7669602288fab7f3c5a665d04",
        "decoherence_scan.json": "924e3e28f2293ab65a6f05ff1909a1dd3051c8d7669602288fab7f3c5a665d04",
    },
    ("json", "ensemble"): {
        "<stdout>": "2e32a7e9652a87803ca54fce295203041bb83f5ed5bf4e5b3c30bef9efa10551",
        "ensemble_records.json": "88d5310f817b6848163ed205e44bd2d504e3d00435fe28472cd60653c202e1fa",
        "ensemble_summary.json": "2e32a7e9652a87803ca54fce295203041bb83f5ed5bf4e5b3c30bef9efa10551",
    },
    ("json", "single-photon"): {
        "<stdout>": "e607d903ebc9aefe0fcbc8413f675d448094758df8592f7150fbdedd13e5c2cb",
        "single_photon.json": "e607d903ebc9aefe0fcbc8413f675d448094758df8592f7150fbdedd13e5c2cb",
    },
    ("reflective", "compare-classical"): {
        "<stdout>": "ed113afb1dbc6dbb1839609c31bb36c4a7fa3c0cd9170698aa14e89b2881b58b",
        "compare_classical.json": "ed113afb1dbc6dbb1839609c31bb36c4a7fa3c0cd9170698aa14e89b2881b58b",
    },
    ("reflective", "decoherence"): {
        "<stdout>": "5a9679f5d3b0622426f9a211a8c84c19d6983e57114b5cd5162dd72d21814c35",
        "decoherence_scan.csv": "cf6aae9704ba8da015e1f7aa8566627b8af0a1fce20c829bf43597cb452dfe02",
    },
    ("reflective", "decoherence-ratios"): {
        "<stdout>": "726f3900564c8009a01851c3072150f3711d13bb4ac28a2852d9e80fc16b3d29",
        "decoherence_scan.csv": "d0cf4ae3e6f71b68c36a13cb76da1010df5cc187f773c8dc35dbf8b684831897",
    },
    ("reflective", "decoherence-signed-zero"): {
        "<stdout>": "7846bcc53044821c24dcc6ab966ad2aa1257fda1c738f0d1481b7dbcdd877ad5",
        "decoherence_scan.csv": "21f42b1ca0d0c1a831b53afa80474be8ab7a5402ebfd5628474632a028b8e66b",
    },
    ("reflective", "ensemble"): {
        "<stdout>": "cde726c04856f7d458c28158130ae324b1d3dcd4bbccc482035fb95c5dae9d95",
        "ensemble_records.csv": "d664525c8477205d9e691cadf316f6280fdfbbbd635539b86b39ddcdc1dfc4a2",
        "ensemble_summary.json": "cde726c04856f7d458c28158130ae324b1d3dcd4bbccc482035fb95c5dae9d95",
    },
    ("reflective", "single-photon"): {
        "<stdout>": "4c7829b0b0587410cc79a69fd9ee8c983ef881b96714afd9517ce97fe2710341",
        "single_photon.json": "4c7829b0b0587410cc79a69fd9ee8c983ef881b96714afd9517ce97fe2710341",
    },
}


# About 600 distinct Poisson totals, so the within-total correlation pools
# many groups; captured like DIGESTS.
MANY_GROUPS = ["ensemble", "--nbar", "10000", "--trials", "20000", "--seed", "5"]
MANY_GROUPS_SUMMARY = "df7600d6555227a5870b888c442e4a2e71c672a503263f6bbf624345d28f4d89"
MANY_GROUPS_DIGESTS = {
    "csv": {
        "<stdout>": MANY_GROUPS_SUMMARY,
        "ensemble_records.csv": "32d0add1c7bfe3c8eb6034210857ecbef69628911831fd5caf15add42f297a9d",
        "ensemble_summary.json": MANY_GROUPS_SUMMARY,
    },
    "json": {
        "<stdout>": MANY_GROUPS_SUMMARY,
        "ensemble_records.json": "e9f18229fedf187a9d82962b62f2a1ad3692a05466fa85bd266fcc3b07af118c",
        "ensemble_summary.json": MANY_GROUPS_SUMMARY,
    },
}


def run_digests(argv, out_dir, capsys) -> dict[str, str]:
    """Run one CLI invocation; return the SHA-256 of stdout and of each output file."""
    assert main([*argv, "--out", str(out_dir)]) == EXIT_OK
    digests = {"<stdout>": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_outputs_match_golden_digests(tmp_path, capsys, config, command):
    got = run_digests(COMMANDS[command] + CONFIGS[config], tmp_path, capsys)
    want = DIGESTS[config, command]
    assert sorted(got) == sorted(want), f"{config}/{command}: output files differ"
    for name, digest in want.items():
        assert got[name] == digest, (
            f"{config}/{command}: {name} changed (digests captured with numpy 2.4.6, "
            f"running numpy {np.__version__})"
        )


@pytest.mark.parametrize("fmt", sorted(MANY_GROUPS_DIGESTS))
def test_many_poisson_groups_match_golden_digests(tmp_path, capsys, fmt):
    got = run_digests([*MANY_GROUPS, "--format", fmt], tmp_path, capsys)
    assert got == MANY_GROUPS_DIGESTS[fmt], (
        f"many-groups ensemble ({fmt}) changed (digests captured with numpy 2.4.6, "
        f"running numpy {np.__version__})"
    )


def test_summary_does_not_depend_on_blas_threads(tmp_path):
    # A BLAS dot product over more than 10,000 elements splits across threads,
    # which changes its last bits; the statistics must not use one.
    src = str(Path(mzkick.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    summaries = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "mzkick", *MANY_GROUPS, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        summaries.append((out / "ensemble_summary.json").read_bytes())
    assert summaries[0] == summaries[1]
