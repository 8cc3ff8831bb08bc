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
        ("fig1", [], "fe15c72e57cbce86a3489c5f03e508d36bb609d746e65c305978d81d6f7101c9"),
        ("fig2", [], "202bad1e6984021cc9fcfacd8d761acf0e7c8cb3716bf8e3c37e3e817e74345a"),
        (
            "fig3",
            ["--full-fit"],
            "f3da47579d9c05ba5f98129ca773e3b4cc1769162e99842f987a97692c9098f6",
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
        (["--points", "40"], "119d056a9cf47570c85b673c7b5854f3db37b9eafef87b4d8b1e9ac41f795d7a"),
        (
            ["--grid-max", "8", "--points", "64"],
            "bd452f47b8687b6e090f9208a553eccd6426e2253e88537cbfa69caf6f72c9b0",
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
    digest = "9de824064deaa9c90aa96d46964c6a16ddcc60644a61d29f12d3a2bbaa6d9834"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
