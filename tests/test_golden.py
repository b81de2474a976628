"""Golden SHA-256 digests of every CLI output file and of stdout.

Each case runs `mzkick.cli.main` in-process at a fixed config and seed and
hashes every file written to `--out` plus the captured stdout, so any change
to a single byte of any report fails here. One case per subcommand also runs
through `python -m mzkick`, whose process policies must move no byte. The
digests were captured with numpy 2.4.6 on its X86_V4 tier with AVX512_ICL and
AVX512_SPR. FFT and RNG output may differ in the last bits under another
numpy, and numpy picks its SIMD loops by CPU at import, so the grid digests
also move on a host of another tier; a mismatch names both. The cases without
a grid hold on every tier, and are also checked on two older x86 tiers emulated
in a child.
"""

import hashlib
import json
import platform
import subprocess
import sys

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from mzkick.cli import EXIT_OK, main
from oracles import SIMD_TIERS, child_env

# numpy's x86 SIMD features that set the digests' tier, highest first; the
# digests were captured with all of them on.
TIER_FEATURES = ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3")
PINNED_TIER = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"


def provenance() -> str:
    """Where the digests were captured and where they are checked."""
    host = " ".join(f for f in TIER_FEATURES if __cpu_features__.get(f)) or "baseline"
    return (f"digests captured with numpy 2.4.6 on {PINNED_TIER}, "
            f"running numpy {np.__version__} on {host}")


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
        "<stdout>": "c842cf8443502ca3891d9b9bec6539c2c51e12f2f735b9a3f054a663d5000910",
        "compare_classical.json": "c842cf8443502ca3891d9b9bec6539c2c51e12f2f735b9a3f054a663d5000910",
    },
    ("defaults", "decoherence"): {
        "<stdout>": "cb3241193634eb768a1e5fbe65b6a378bfe93b88f02aad6cf60998b61a04bf19",
        "decoherence_scan.csv": "c3e364fc5b93f7048616f7d76cac11fc76d58fca7010e2ce967bc9bbadaeb031",
    },
    ("defaults", "decoherence-ratios"): {
        "<stdout>": "9eab982847e403d48e14530b96a7abac9e24e0c5b1e44cd3fcc2caeca8a67f75",
        "decoherence_scan.csv": "7bfba93f18d3f8c8cf1ad7f78a7d20f0dcb17906bb0a942b161566c8b4684de8",
    },
    ("defaults", "decoherence-signed-zero"): {
        "<stdout>": "e02665158ae84d29d47a514c231dd9109fbaf46ba6054aafe9d3779ae29cb4d6",
        "decoherence_scan.csv": "a5098da532cfb54054a837f1aa696844cad7b2a36a31033c5e7212dc00926340",
    },
    ("defaults", "ensemble"): {
        "<stdout>": "9ceb262f4cc2c5b03f51b99668a124a954a8a1fd1a341b2e6b497dd3ead54e5f",
        "ensemble_records.csv": "b71951b3ccdf737935f847fe6548cb1bd5dfa745bbb96b2e4a12fd823e851b05",
        "ensemble_summary.json": "9ceb262f4cc2c5b03f51b99668a124a954a8a1fd1a341b2e6b497dd3ead54e5f",
    },
    ("defaults", "single-photon"): {
        "<stdout>": "acb1151c32c9673b1f7252202571644ca9c251fcf9fdd72203fa3a5baa043f2b",
        "single_photon.json": "acb1151c32c9673b1f7252202571644ca9c251fcf9fdd72203fa3a5baa043f2b",
    },
    ("json", "compare-classical"): {
        "<stdout>": "e745395b09f37d51ec496a83f0159339f5502dc2756b51174a712cc7149e5808",
        "compare_classical.json": "e745395b09f37d51ec496a83f0159339f5502dc2756b51174a712cc7149e5808",
    },
    ("json", "decoherence"): {
        "<stdout>": "1babb926d4b19112d4c56a5208f8d254ae6637a6935b295ae9985126a6873b92",
        "decoherence_scan.json": "bc31bbb58d405ac7f2e207d1084d8749ce9b9e7e89a673af5f6be75eb6b33ad2",
    },
    ("json", "decoherence-ratios"): {
        "<stdout>": "c44e34f51c915b54fe5598ee371bbbc744cc9249730122643d1a29031aed4c0b",
        "decoherence_scan.json": "53fb02180327acfdede47c931ab17f175d632e982eb312893a5315184acdeca5",
    },
    ("json", "decoherence-signed-zero"): {
        "<stdout>": "d54527c8a4652b111001bf634ded30f68cf84e9389205812b93d52318c225348",
        "decoherence_scan.json": "07225d6219efe2b5de394177ed7ce6ba3cb126fce8a7ce3011c87a21c44a1a58",
    },
    ("json", "ensemble"): {
        "<stdout>": "bee420fa921563c4ee169be81090c9687b2a79caa82727eee5fcafe6c76cf151",
        "ensemble_records.json": "f100f65a658bebdd092ac4539436cb543a6e70a7b0c96463ec516b99d53ed2ff",
        "ensemble_summary.json": "bee420fa921563c4ee169be81090c9687b2a79caa82727eee5fcafe6c76cf151",
    },
    ("json", "single-photon"): {
        "<stdout>": "8eecb6a6787cc1cf15a67ba73f96fd0e845553503ffac67cbf882070f8b6c225",
        "single_photon.json": "8eecb6a6787cc1cf15a67ba73f96fd0e845553503ffac67cbf882070f8b6c225",
    },
    ("reflective", "compare-classical"): {
        "<stdout>": "18d6c34cfa3b2cdb05d22fff5008ec7fbfccb747b92aba6f91c7659444a16c8d",
        "compare_classical.json": "18d6c34cfa3b2cdb05d22fff5008ec7fbfccb747b92aba6f91c7659444a16c8d",
    },
    ("reflective", "decoherence"): {
        "<stdout>": "09c1a3dcba02304f0533c87840ddf5668b372e2e045b1a963771c8d5fb5d5c20",
        "decoherence_scan.csv": "cf6aae9704ba8da015e1f7aa8566627b8af0a1fce20c829bf43597cb452dfe02",
    },
    ("reflective", "decoherence-ratios"): {
        "<stdout>": "33c733dc40441bb8e227c6e55ccab4d205ee1e3b541ab1246273eb57be36ee70",
        "decoherence_scan.csv": "d0cf4ae3e6f71b68c36a13cb76da1010df5cc187f773c8dc35dbf8b684831897",
    },
    ("reflective", "decoherence-signed-zero"): {
        "<stdout>": "5abf962effae5398e01a51f6c39aeafc908d6a1b2dfb21dec6d00cc968434287",
        "decoherence_scan.csv": "21f42b1ca0d0c1a831b53afa80474be8ab7a5402ebfd5628474632a028b8e66b",
    },
    ("reflective", "ensemble"): {
        "<stdout>": "388d11d83417089d567f533759e4ad4459f0fb1207756bda610f330579149cfa",
        "ensemble_records.csv": "d664525c8477205d9e691cadf316f6280fdfbbbd635539b86b39ddcdc1dfc4a2",
        "ensemble_summary.json": "388d11d83417089d567f533759e4ad4459f0fb1207756bda610f330579149cfa",
    },
    ("reflective", "single-photon"): {
        "<stdout>": "5ba28f52d62c2082e23d436b065adf56eb3d211599ea727acc5a0f6a06db366e",
        "single_photon.json": "5ba28f52d62c2082e23d436b065adf56eb3d211599ea727acc5a0f6a06db366e",
    },
}


# About 600 distinct Poisson totals, so the within-total correlation pools
# many groups; captured like DIGESTS.
MANY_GROUPS = ["ensemble", "--nbar", "10000", "--trials", "20000", "--seed", "5"]
MANY_GROUPS_SUMMARY = "3b45e3398575efce38aba52674f4db6113ed2f2dfd22bfd40778393556b15cf4"
MANY_GROUPS_DIGESTS = {
    "csv": {
        "<stdout>": MANY_GROUPS_SUMMARY,
        "ensemble_records.csv": "32d0add1c7bfe3c8eb6034210857ecbef69628911831fd5caf15add42f297a9d",
        "ensemble_summary.json": MANY_GROUPS_SUMMARY,
    },
    "json": {
        "<stdout>": MANY_GROUPS_SUMMARY,
        "ensemble_records.json": "eb172be3a7d9b6f0ab26cbdf0dfabe615a63034d39d516b91cb7d500cde20f3c",
        "ensemble_summary.json": MANY_GROUPS_SUMMARY,
    },
}

# Grids of 2**17 + 1 points: three blocks per grid pass, where every grid above
# is one block. Captured like DIGESTS, before the grid points were made per block.
MULTI_BLOCK = {
    "single-photon": ["single-photon", "--grid-points", "131073"],
    "decoherence": ["decoherence", "--grid-points", "131073", "--ratios", "0", "0.3", "2.5", "-0.7"],
}
MULTI_BLOCK_DIGESTS = {
    "single-photon": {
        "<stdout>": "4278fa925eecc3ae83800be82e9e116c888e17bb5224625cf51a5ecb959b7369",
        "single_photon.json": "4278fa925eecc3ae83800be82e9e116c888e17bb5224625cf51a5ecb959b7369",
    },
    "decoherence": {
        "<stdout>": "0ce85fbe903f0db4d1e9203ed33be3290e6a8867a2c5bf436cd8cce89ea98229",
        "decoherence_scan.csv": "b0d20c4518a7aa1e5794fbced23e7940b4090a88f7391a07bc7918313a9dc191",
    },
}


def output_digests(stdout: bytes, out_dir) -> dict[str, str]:
    """The SHA-256 of stdout and of each output file."""
    digests = {"<stdout>": hashlib.sha256(stdout).hexdigest()}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run_digests(argv, out_dir, capsys) -> dict[str, str]:
    """Run one CLI invocation in this process and digest its outputs."""
    assert main([*argv, "--out", str(out_dir)]) == EXIT_OK
    return output_digests(capsys.readouterr().out.encode(), out_dir)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_outputs_match_golden_digests(tmp_path, capsys, config, command):
    got = run_digests(COMMANDS[command] + CONFIGS[config], tmp_path, capsys)
    want = DIGESTS[config, command]
    assert sorted(got) == sorted(want), f"{config}/{command}: output files differ"
    for name, digest in want.items():
        assert got[name] == digest, f"{config}/{command}: {name} changed ({provenance()})"


@pytest.mark.parametrize("command", ["compare-classical", "decoherence", "ensemble", "single-photon"])
def test_python_dash_m_matches_golden_digests(tmp_path, command):
    # The command sets process policies that an in-process main does not
    # (see mzkick.__main__); none of them may move a byte.
    proc = subprocess.run([sys.executable, "-m", "mzkick", *COMMANDS[command], "--out", str(tmp_path)],
                          env=child_env(), check=True, capture_output=True)
    assert output_digests(proc.stdout, tmp_path) == DIGESTS["defaults", command], (
        f"python -m mzkick {command} changed ({provenance()})"
    )


@pytest.mark.parametrize("fmt", sorted(MANY_GROUPS_DIGESTS))
def test_many_poisson_groups_match_golden_digests(tmp_path, capsys, fmt):
    got = run_digests([*MANY_GROUPS, "--format", fmt], tmp_path, capsys)
    assert got == MANY_GROUPS_DIGESTS[fmt], f"many-groups ensemble ({fmt}) changed ({provenance()})"


@pytest.mark.parametrize("case", sorted(MULTI_BLOCK))
def test_multi_block_grids_match_golden_digests(tmp_path, capsys, case):
    got = run_digests(MULTI_BLOCK[case], tmp_path, capsys)
    assert got == MULTI_BLOCK_DIGESTS[case], f"multi-block {case} changed ({provenance()})"


def test_summary_does_not_depend_on_blas_threads(tmp_path):
    # A BLAS dot product over more than 10,000 elements splits across threads,
    # which changes its last bits; the statistics must not use one.
    summaries = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**child_env(), "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "mzkick", *MANY_GROUPS, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        summaries.append((out / "ensemble_summary.json").read_bytes())
    assert summaries[0] == summaries[1]


# The golden cases that use no grid, so no FFT, whose digests hold on every SIMD
# tier: every ensemble and compare-classical config case and the many-groups
# cases, which between them write every ensemble table in CSV and JSON.
GRIDLESS_COMMANDS = ("compare-classical", "ensemble")
GRIDLESS = {
    **{f"{config}-{command}": (COMMANDS[command] + CONFIGS[config], DIGESTS[config, command])
       for config in CONFIGS for command in GRIDLESS_COMMANDS},
    **{f"many-groups-{fmt}": ([*MANY_GROUPS, "--format", fmt], digests)
       for fmt, digests in MANY_GROUPS_DIGESTS.items()},
}

# Run in a child under an emulated tier: cli.main on each [out, argv] pair of its
# JSON argument, each captured stdout written to out + ".stdout".
TIER_CHILD = """
import contextlib, io, json, sys
from pathlib import Path
from mzkick.cli import main

for out, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main([*argv, "--out", out]) == 0, argv
    Path(out + ".stdout").write_bytes(stdout.getvalue().encode())
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="numpy's x86 SIMD tiers")
@pytest.mark.parametrize("tier", ["x86-v3", "baseline"])
def test_gridless_cases_match_golden_digests_on_older_simd_tiers(tmp_path, tier):
    # numpy picks its SIMD loops at import, so a tier needs a child of its own.
    env = {**child_env(), "NPY_DISABLE_CPU_FEATURES": SIMD_TIERS[tier]}
    cases = [(str(tmp_path / name), argv) for name, (argv, _) in GRIDLESS.items()]
    proc = subprocess.run([sys.executable, "-c", TIER_CHILD, json.dumps(cases)], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    for name, (_, want) in GRIDLESS.items():
        got = output_digests((tmp_path / f"{name}.stdout").read_bytes(), tmp_path / name)
        assert got == want, f"{name} changed on {tier} ({provenance()})"
    for command in GRIDLESS_COMMANDS:
        out = tmp_path / f"python-m-{command}"
        proc = subprocess.run([sys.executable, "-m", "mzkick", *COMMANDS[command], "--out", str(out)],
                              env=env, check=True, capture_output=True)
        assert output_digests(proc.stdout, out) == DIGESTS["defaults", command], (
            f"python -m mzkick {command} changed on {tier} ({provenance()})"
        )
