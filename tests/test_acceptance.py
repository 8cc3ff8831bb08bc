"""End-to-end acceptance gate: nine criteria, one pass/fail line each.

Each test prints its verdict to the real stdout (bypassing capture) so a
full run always shows the nine lines.  The heavy Monte Carlo fixtures are
shared across criteria; the whole gate runs in a few minutes single
threaded.
"""

import sys
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats
from scipy.signal import fftconvolve

from esrc.analytic import (
    BetaVector,
    capacity_pdf,
    default_capacity_grid,
    esrc_closed_form,
)
from esrc.channel import FadingParams, sample_nakagami_component
from esrc.cli import main
from esrc.config import SystemConfig
from esrc.runner import SweepPlan, run_sweep
from esrc.specfun import LN2
from esrc.statfit import fit_gamma_ml
from esrc.zf import monte_carlo_esrc
from oracles import gm_pdf, mgf_mean_check, per_user_capacity_quadrature, sum_capacity_mgf

TRIALS = 100_000
FIG_SEED = 2468
BAND_SEED = 505
SHAPE_SEED = 31415
CHAN_SEED = 808

_CAPTURE = None


@pytest.fixture(scope="session", autouse=True)
def _grab_capture_manager(request):
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")


def _report(number, name, ok, detail):
    line = f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            print(line, file=sys.__stdout__, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _system(snr_db, rho, l_band, m, seed, trials=TRIALS, omega=1.0):
    return SystemConfig(
        n_t=8,
        n_r=8,
        side="transmit",
        snr_db=snr_db,
        rho=rho,
        l_band=l_band,
        m=m,
        omega=omega,
        trials=trials,
        seed=seed,
    )


@lru_cache(maxsize=None)
def _per_trial_rates(snr_db, rho, l_band, m, seed):
    """Sum rate of every trial; same seed means trial-paired channels."""
    *_, samples, _ = monte_carlo_esrc(_system(snr_db, rho, l_band, m, seed))
    return np.log1p(samples).sum(axis=0) / LN2


@pytest.fixture(scope="module")
def figure_rows():
    """Desk-scale figure grid: SNR {0,5,10,15,20} x m {0.7,2.5}, rho=0.3."""
    base = _system(10.0, 0.3, 7, 1.0, FIG_SEED)
    plan = SweepPlan(
        base=base,
        axes=(("snr_db", (0.0, 5.0, 10.0, 15.0, 20.0)), ("m", (0.7, 2.5))),
    )
    return run_sweep(plan)


def test_criterion_01_closed_form_matches_quadrature():
    worst = 0.0
    for beta in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
        closed = esrc_closed_form(BetaVector([beta]))
        oracle = per_user_capacity_quadrature(beta)
        worst = max(worst, abs(closed - oracle) / oracle)
    _report(1, "closed form vs quadrature oracle", worst < 1e-8, f"worst rel err {worst:.3e}")


def test_criterion_02_mgf_consistency():
    rng = np.random.default_rng(20250819)
    worst_origin = 0.0
    worst_mean = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        b = BetaVector(10.0 ** rng.uniform(-2.0, 2.0, size=n))
        worst_origin = max(worst_origin, abs(sum_capacity_mgf(0.0, b) - 1.0))
        closed = esrc_closed_form(b)
        worst_mean = max(worst_mean, abs(mgf_mean_check(b) - closed) / closed)
    ok = worst_origin < 1e-12 and worst_mean < 1e-5
    _report(
        2,
        "MGF normalization and mean consistency",
        ok,
        f"worst |M(0)-1| {worst_origin:.3e}, worst mean rel err {worst_mean:.3e}",
    )


def test_criterion_03_figure_scale_mc_vs_analytic(figure_rows):
    assert all(row.status == "ok" for row in figure_rows)
    worst = max(row.rel_err for row in figure_rows)
    _report(
        3,
        "Monte Carlo vs fitted analytic at figure scale",
        worst <= 0.03,
        f"10 points, worst rel err {worst:.4f} (tolerance 0.03)",
    )


def test_criterion_04_sinr_shape_claim():
    alpha_ok = []
    chi2_ok = []
    ks_ok = []
    pair_ok = []
    seed = SHAPE_SEED
    for m in (0.7, 2.5):
        for rho in (0.0, 0.3, 0.5):
            for snr_db in (0.0, 10.0, 20.0):
                seed += 1
                *_, samples, _ = monte_carlo_esrc(_system(snr_db, rho, 7, m, seed))
                for row in samples:
                    fit = fit_gamma_ml(row)
                    a = 0.85 <= fit.alpha <= 1.15
                    alpha_ok.append(a)
                    chi2_ok.append(fit.chi2_pass)
                    ks_ok.append(fit.ks_pass)
                    pair_ok.append(a and fit.chi2_pass and fit.ks_pass)
    rate = float(np.mean(pair_ok))
    detail = (
        f"pass rate {rate:.3f} over {len(pair_ok)} (config, user) pairs, need >= 0.80; "
        f"alpha in [0.85, 1.15]: {np.mean(alpha_ok):.3f}, "
        f"chi2 gate: {np.mean(chi2_ok):.3f}, ks gate: {np.mean(ks_ok):.3f}"
    )
    _report(4, "per-user SINR shape claim with GoF gates", rate >= 0.80, detail)


def test_criterion_05_banding_loss():
    full = _per_trial_rates(10.0, 0.5, 7, 1.0, BAND_SEED)
    n_users = 8
    gaps = {}
    errs = {}
    for l_band in (1, 2):
        diff = full - _per_trial_rates(10.0, 0.5, l_band, 1.0, BAND_SEED)
        gaps[l_band] = diff.mean() / n_users
        errs[l_band] = diff.std(ddof=1) / np.sqrt(diff.size) / n_users
    ok = (
        0.1 < gaps[1] <= 1.5
        and gaps[2] < 0.15
        and errs[1] < gaps[1] / 5.0
        and errs[2] < gaps[2] / 5.0
    )
    _report(
        5,
        "correlation banding loss per user",
        ok,
        f"full-l1 {gaps[1]:.4f} (need (0.1, 1.5]), full-l2 {gaps[2]:.4f} (need < 0.15), "
        f"paired std errs {errs[1]:.5f}/{errs[2]:.5f}",
    )


def test_criterion_06_monotonicity(figure_rows):
    # SNR direction: strictly increasing for both fading regimes
    snr_margin = np.inf
    for m in (0.7, 2.5):
        rows = [row for row in figure_rows if row.m == m]
        rows.sort(key=lambda row: row.snr_db)
        for lo, hi in zip(rows, rows[1:]):
            step = hi.esrc_mc - lo.esrc_mc
            margin = step / np.hypot(lo.esrc_stderr, hi.esrc_stderr)
            snr_margin = min(snr_margin, margin)
    # correlation direction: non-increasing, trial-paired for sharp margins
    rho_margin = np.inf
    rates = {rho: _per_trial_rates(10.0, rho, 7, 1.0, BAND_SEED) for rho in (0.0, 0.25, 0.5)}
    for lo, hi in ((0.0, 0.25), (0.25, 0.5)):
        diff = rates[lo] - rates[hi]
        drop = diff.mean()
        margin = drop / (diff.std(ddof=1) / np.sqrt(diff.size))
        rho_margin = min(rho_margin, margin)
    ok = snr_margin > 3.0 and rho_margin > 3.0
    _report(
        6,
        "monotone in SNR, non-increasing in correlation",
        ok,
        f"worst SNR margin {snr_margin:.1f} sigma, worst rho margin {rho_margin:.1f} sigma",
    )


def test_criterion_07_channel_law():
    draws = 1_000_000
    worst_power = 0.0
    worst_p = 1.0
    seed = CHAN_SEED
    for m in (0.7, 1.0, 2.5):
        for omega in (0.8, 1.0, 1.2):
            seed += 1
            rng = np.random.default_rng(seed)
            parts = sample_nakagami_component(
                FadingParams(m=m, omega=omega), rng, size=(2, draws)
            )
            power = np.mean(parts[0] ** 2 + parts[1] ** 2)
            worst_power = max(worst_power, abs(power - omega) / omega)
            if m == 1.0:
                # each quadrature is exactly Gaussian at m=1
                scale = np.sqrt(omega / 2.0)
                for plane in parts:
                    p = stats.kstest(plane, "norm", args=(0.0, scale)).pvalue
                    worst_p = min(worst_p, p)
    ok = worst_power < 0.01 and worst_p > 0.01
    _report(
        7,
        "channel sampler power and Gaussian quadratures",
        ok,
        f"worst power rel err {worst_power:.4f} (need < 0.01), "
        f"worst KS p-value {worst_p:.3f} (need > 0.01)",
    )


def test_criterion_08_capacity_density_suite():
    worst_single = 0.0
    worst_mass = 0.0
    worst_mean = 0.0
    for beta in (0.5, 1.0, 5.0):
        b = BetaVector([beta])
        upper = default_capacity_grid(b)[-1]
        # the density is finite but nonzero at the origin, so the grid must
        # start close enough to zero for the uncovered sliver to stay within
        # the mass tolerance
        grid = np.linspace(1e-4, upper, 500)
        dens = capacity_pdf(b, grid)
        worst_single = max(worst_single, np.max(np.abs(dens - gm_pdf(grid, LN2, 1.0 / beta))))
        worst_mass = max(worst_mass, abs(np.trapezoid(dens, grid) - 1.0))
        mean = np.trapezoid(grid * dens, grid)
        worst_mean = max(worst_mean, abs(mean - esrc_closed_form(b)) / esrc_closed_form(b))

    b2 = BetaVector([1.0, 1.0])
    grid2 = np.linspace(0.05, 10.0, 160)
    dens2 = capacity_pdf(b2, grid2)
    dx = 0.001
    x = np.arange(0.0, 16.0, dx)
    f = gm_pdf(x, LN2, 1.0)
    conv = (fftconvolve(f, f)[: x.size] - f[0] * f) * dx
    worst_pair = np.max(np.abs(dens2 - np.interp(grid2, x, conv)))

    wide2 = np.linspace(1e-4, default_capacity_grid(b2)[-1], 600)
    dens2w = capacity_pdf(b2, wide2)
    worst_mass = max(worst_mass, abs(np.trapezoid(dens2w, wide2) - 1.0))
    mean2 = np.trapezoid(wide2 * dens2w, wide2)
    worst_mean = max(worst_mean, abs(mean2 - esrc_closed_form(b2)) / esrc_closed_form(b2))

    ok = worst_single < 1e-4 and worst_pair < 1e-3 and worst_mass < 1e-3 and worst_mean < 1e-2
    _report(
        8,
        "capacity density inversion suite",
        ok,
        f"single-user sup err {worst_single:.2e} (< 1e-4), two-user vs convolution "
        f"{worst_pair:.2e} (< 1e-3), mass err {worst_mass:.2e}, mean rel err {worst_mean:.2e}",
    )


def test_criterion_09_csv_determinism(tmp_path):
    cfg = tmp_path / "preset.cfg"
    cfg.write_text("preset = fig3\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["run", "--config", str(cfg), "--trials", "400", "--seed", "5"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    _report(
        9,
        "byte-identical CSV reruns",
        identical,
        f"fig3 preset, {len(out_a.read_text().splitlines()) - 1} rows compared",
    )
