"""Golden outputs: sha256 digests of whole CLI outputs at fixed seeds.

These pin the bytes of `esrc run` and `esrc pdf`, so a refactor that is
meant to keep the arithmetic unchanged shows any drift here first.  A
change that alters these numbers on purpose (a new Monte Carlo kernel, for
instance) re-pins the digests and says why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import esrc
from esrc.cli import main

BETAS_10DB = "9.18,8.36,8.41,8.35,8.36,8.34,8.31,9.14"

# the benchmark's wide point: the one golden that sends 32 users through
# the chi-squared gate
WIDE_CONFIG = """\
n_t = 32
n_r = 64
side = receive
snr_db = 10
rho = 0.3
l_band = full
m = 0.7
"""


@pytest.mark.parametrize(
    "preset, extra, digest",
    [
        ("fig1", [], "c35a87145a26f1c9625095009c9018b856b1936deb3849feebeb4244f0f87df6"),
        ("fig2", [], "b016deea54c31c8511de5c4968cbfd4a8d8049b1f6e96ec2ed440068ee7a2bff"),
        (
            "fig3",
            ["--full-fit"],
            "ebc4f55206f5399ae0a3803f311955ee23b209163ce20bcb843fdd545c95ff44",
        ),
    ],
)
def test_run_csv_bytes(tmp_path, preset, extra, digest):
    cfg = tmp_path / "preset.cfg"
    cfg.write_text(f"preset = {preset}\n")
    out = tmp_path / "out.csv"
    argv = ["run", "--config", str(cfg), "--trials", "200", "--seed", "7", "--out", str(out)]
    assert main(argv + extra) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "extra, digest",
    [
        (["--points", "40"], "327fbc3f2ea58ca0f1238c1230afbdee7d017c7d3c07263c58ef1286d565fa94"),
        (
            ["--grid-max", "8", "--points", "64"],
            "73094df7f9e55e58297eb33668932870853d55335f77b14dddab12257c26e707",
        ),
    ],
)
def test_pdf_table_bytes(tmp_path, extra, digest):
    out = tmp_path / "pdf.dat"
    assert main(["pdf", "--betas", BETAS_10DB, *extra, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_wide_full_fit_csv_bytes(tmp_path):
    # a child process, so that BLAS runs single-threaded: unpinned threads
    # make this point take about ten times as long on two cores
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(WIDE_CONFIG)
    out = tmp_path / "out.csv"
    argv = ["run", "--config", str(cfg), "--trials", "2500", "--seed", "7", "--full-fit"]
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(esrc.__file__).resolve().parents[1]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    subprocess.run(
        [sys.executable, "-m", "esrc.cli", *argv, "--out", str(out)], env=env, check=True
    )
    digest = "62e490a028d9d5a1811b4edd416f0757dbcc86677b9f1d3756c352e4c84d8e7f"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "command, digest",
    [
        ("run", "a47491013132ae525e298f9a21941c111804c68d604e20e897c9e97ea2c3e94a"),
        ("pdf", "80e341a728330697d799ccf11f290c7838e509b7fe4464a989da05585b7448c4"),
    ],
)
def test_help_bytes(monkeypatch, capsys, command, digest):
    # argparse wraps to the COLUMNS width, and its layout differs between
    # Python versions; these digests are of Python 3.11's output
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
