"""Sweep planning, per-point seeding, CSV output, and the CLI surface."""

import csv
import hashlib
import math
import os
import signal
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import esrc
import esrc.cli as cli_mod
import esrc.runner as runner_mod
import esrc.zf
from esrc.channel import FadingParams, SemiCorrelationMode
from esrc.cli import main
from esrc.config import SystemConfig
from esrc.correlation import CorrelationSpec
from esrc.runner import (
    AXIS_ORDER,
    CSV_HEADER,
    ConfigError,
    SweepPlan,
    SweepRow,
    emit_csv,
    parse_config,
    point_seed,
    render_csv,
    run_sweep,
)
from esrc.specfun import LN2, NumericalError
from esrc.zf import MonteCarloAbort

SRC_DIR = str(Path(esrc.__file__).resolve().parents[1])


def tiny_doc(extra=""):
    return (
        "n_t = 2\n"
        "n_r = 2\n"
        "trials = 400\n"
        "seed = 9\n" + extra
    )


def tiny_plan(extra=""):
    return parse_config(tiny_doc(extra))


class TestParseConfig:
    def test_defaults(self):
        plan = parse_config("")
        base = plan.base
        assert base.n_t == 8 and base.n_r == 8
        assert base.snr_db == 10.0
        assert base.correlation.rho == 0.0
        assert base.correlation.l_band == 7
        assert base.fading.m == 1.0 and base.fading.omega == 1.0
        assert base.trials == 100_000
        assert base.seed == 0
        assert base.mode.side == "transmit"
        assert plan.axes == ()
        assert len(list(plan.points())) == 1

    def test_fig1_preset_expansion(self):
        plan = parse_config("preset = fig1\n")
        names = [name for name, _ in plan.axes]
        assert names == ["snr_db", "m"]
        snr_values = dict(plan.axes)["snr_db"]
        assert snr_values == tuple(float(v) for v in range(21))
        assert dict(plan.axes)["m"] == (0.7, 2.5)
        assert plan.base.correlation.rho == 0.3
        assert plan.base.correlation.l_band == 7
        assert len(list(plan.points())) == 42

    def test_fig2_preset_expansion(self):
        plan = parse_config("preset = fig2\n")
        assert dict(plan.axes)["l_band"] == (1, 2, 3, 4, 5, 6, 7)
        assert dict(plan.axes)["m"] == (0.7, 2.5)
        assert plan.base.snr_db == 10.0
        assert plan.base.correlation.rho == 0.5

    def test_fig3_preset_expansion(self):
        plan = parse_config("preset = fig3\n")
        assert dict(plan.axes)["rho"] == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        assert plan.base.snr_db == 10.0
        assert plan.base.correlation.l_band == 3

    def test_preset_overrides_user_axes_but_keeps_omega(self):
        doc = (
            "preset = fig1\n"
            "[sweep.snr_db]\n"
            "values = 3, 4\n"
            "[sweep.omega]\n"
            "values = 0.8, 1.0, 1.2\n"
            "[sweep.rho]\n"
            "values = 0.1, 0.2\n"
        )
        plan = parse_config(doc)
        assert dict(plan.axes)["snr_db"] == tuple(float(v) for v in range(21))
        assert dict(plan.axes)["omega"] == (0.8, 1.0, 1.2)
        # fig1 sets rho without sweeping it, so the rho section is superseded too
        assert "rho" not in dict(plan.axes)
        assert plan.base.correlation.rho == 0.3

    def test_explicit_scalar_beats_preset_default(self):
        plan = parse_config("preset = fig1\nrho = 0.1\n")
        assert plan.base.correlation.rho == 0.1

    def test_cli_preset_override_wins(self):
        plan = parse_config("preset = fig1\n", preset="fig2")
        assert [name for name, _ in plan.axes] == ["l_band", "m"]
        plan = parse_config("preset = fig1\n", preset="none")
        assert plan.axes == ()

    def test_trials_and_seed_overrides(self):
        plan = parse_config("trials = 50\nseed = 1\n", trials=777, seed=42)
        assert plan.base.trials == 777
        assert plan.base.seed == 42

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            parse_config("bandwidth = 20\n")

    def test_rho_out_of_range(self):
        with pytest.raises(ConfigError, match=r"rho out of range \[0, 0.5\]"):
            parse_config("rho = 0.9\n")
        plan = parse_config("rho = 0.9\n", allow_extended=True)
        assert plan.base.correlation.rho == 0.9
        with pytest.raises(ConfigError, match=r"rho out of range \[0, 1\)"):
            parse_config("rho = 1.0\n", allow_extended=True)

    def test_l_band_exceeds_band_limit(self):
        with pytest.raises(ConfigError, match="l_band exceeds n-1"):
            parse_config("l_band = 9\n")
        with pytest.raises(ConfigError, match="l_band out of range"):
            parse_config("l_band = -1\n")

    def test_scalar_range_error_names_its_line(self):
        with pytest.raises(ConfigError, match=r"^line 2: rho out of range \[0, 0.5\], got 0.9$"):
            parse_config("n_t = 4\nrho = 0.9\n")
        with pytest.raises(ConfigError, match=r"^line 3: l_band exceeds n-1 \(n=4, got 4\)$"):
            parse_config("n_t = 4\nn_r = 4\nl_band = 4\n")
        with pytest.raises(ConfigError, match=r"^line 1: omega out of range \(0, inf\)"):
            parse_config("omega = -1\npreset = fig1\n")

    def test_l_band_full_sentinel(self):
        plan = parse_config("n_t = 4\nn_r = 4\nl_band = full\n")
        assert plan.base.correlation.l_band == 3

    def test_sweep_value_validation(self):
        with pytest.raises(ConfigError, match=r"rho out of range \[0, 0.5\]"):
            parse_config("[sweep.rho]\nvalues = 0.1, 0.7\n")
        with pytest.raises(ConfigError, match="l_band exceeds n-1"):
            parse_config("[sweep.l_band]\nvalues = 3, 8\n")
        with pytest.raises(ConfigError, match="repeats a value"):
            parse_config("[sweep.m]\nvalues = 1, 1\n")
        with pytest.raises(ConfigError, match="empty entry"):
            parse_config("[sweep.m]\nvalues = 1,,2\n")
        # 4000 dB overflows the linear SNR and -4000 dB underflows it to 0
        with pytest.raises(ConfigError, match=r"^line 2: snr_db out of range.*got 4000.0$"):
            parse_config("[sweep.snr_db]\nvalues = 10, 4000\n")
        with pytest.raises(ConfigError, match=r"^line 3: snr_db out of range.*got -4000.0$"):
            parse_config("m = 1\n[sweep.snr_db]\nvalues = -4000, 10\n")

    def test_document_shape_errors(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            parse_config("[sweep.gamma]\nvalues = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[general]\nx = 1\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("m = 1\nm = 2\n")
        with pytest.raises(ConfigError, match="duplicate sweep section"):
            parse_config("[sweep.m]\nvalues = 1\n[sweep.m]\nvalues = 2\n")
        with pytest.raises(ConfigError, match="missing its values"):
            parse_config("[sweep.m]\n")
        with pytest.raises(ConfigError, match="expected key = value"):
            parse_config("just some words\n")
        with pytest.raises(ConfigError, match="only 'values'"):
            parse_config("[sweep.m]\nweights = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'values'"):
            parse_config("values = 1, 2\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config("trials = 2.5\n")
        with pytest.raises(ConfigError, match="seed out of range"):
            parse_config("seed = -1\n")
        with pytest.raises(ConfigError, match="must be a real number"):
            parse_config("m = fast\n")
        with pytest.raises(ConfigError, match="side must be"):
            parse_config("side = sideways\n")
        with pytest.raises(ConfigError, match="m out of range"):
            parse_config("m = 0\n")

    def test_comments_and_blank_lines(self):
        plan = parse_config("# a comment\n\nm = 2.0  # trailing\n")
        assert plan.base.fading.m == 2.0

    def test_axes_normalize_to_canonical_order(self):
        doc = "[sweep.m]\nvalues = 1, 2\n[sweep.snr_db]\nvalues = 0, 5\n"
        plan = parse_config(doc)
        assert [name for name, _ in plan.axes] == ["snr_db", "m"]

    @pytest.mark.parametrize(
        "doc, owner, field, value",
        [
            ("rho = 1.0", "correlation", "rho", 1.0),
            ("l_band = 8", "correlation", "l_band", 8),
            ("l_band = -1", "correlation", "l_band", -1),
            ("m = 0", "fading", "m", 0.0),
            ("omega = inf", "fading", "omega", math.inf),
            ("snr_db = 4000", None, "snr_db", 4000.0),
            ("snr_db = -4000", None, "snr_db", -4000.0),
            ("snr_db = nan", None, "snr_db", math.nan),
            ("trials = 0", None, "trials", 0),
            ("seed = -1", None, "seed", -1),
            (f"seed = {2**64}", None, "seed", 2**64),
        ],
    )
    def test_the_dataclass_and_the_parser_give_one_message(self, doc, owner, field, value):
        # the default 8x8 transmit-side point, one field of it set to value
        base = parse_config("").base
        with pytest.raises(ValueError) as from_model:
            replace(base if owner is None else getattr(base, owner), **{field: value})
        with pytest.raises(ConfigError) as from_parser:
            parse_config(doc + "\n", allow_extended=True)
        assert str(from_parser.value) == f"line 1: {from_model.value}"


# documents drawn from the grammar's keys, values and section headers, mixed
# with free text; values stay short so no drawn antenna count is huge
_TOKENS = st.one_of(
    st.sampled_from(
        ["full", "fig1", "fig2", "none", "receive", "transmit", "nan", "-inf", "1e400", "0.9"]
    ),
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)
_LINES = st.one_of(
    st.builds(
        "{} = {}".format,
        st.sampled_from(("preset", "n_t", "n_r", "side", "trials", "seed", "values", "x")
                        + AXIS_ORDER),
        st.lists(_TOKENS, min_size=1, max_size=3).map(", ".join),
    ),
    st.sampled_from(AXIS_ORDER + ("gamma",)).map("[sweep.{}]".format),
    st.text(max_size=12),
)


class TestParseProperties:
    @given(doc=st.lists(_LINES, max_size=10).map("\n".join), extended=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_parser_raises_nothing_but_config_errors(self, doc, extended):
        try:
            plan = parse_config(doc, allow_extended=extended)
        except ConfigError:
            return
        assert isinstance(plan, SweepPlan)


def plan_digest(plan):
    """blake2b over each point (in AXIS_ORDER, with its value types) and its seed."""
    digest = hashlib.blake2b(digest_size=16)
    for point in plan.points():
        entry = (tuple((name, point[name]) for name in AXIS_ORDER),
                 point_seed(plan.base.seed, point))
        digest.update(repr(entry).encode("ascii"))
    return digest.hexdigest()


OMEGA_FULL_DOC = """\
n_t = 4
n_r = 6
side = receive
snr_db = 5
l_band = full
m = 1.5
[sweep.omega]
values = 0.5, 1, 2
[sweep.rho]
values = 0, 0.25, 0.5
"""


class TestParsePlanContract:
    # frozen from the if/elif parser that preceded the AXES/PRESETS tables
    @pytest.mark.parametrize(
        "doc, points, digest",
        [
            ("preset = fig1\n", 42, "69a7efe7018188190af90007b966f41b"),
            ("preset = fig2\n", 14, "1297c7092ce8e018826ae2f267e5a609"),
            ("preset = fig3\n", 12, "cd18021ca73dfd13aef716d95c954695"),
            ("preset = fig2\nn_t = 32\nn_r = 64\nside = receive\n", 126,
             "7f9f77419d42ef494b8356ee094eee8a"),
            (OMEGA_FULL_DOC, 9, "859fb0bb3039a49ec177efa533a930af"),
        ],
    )
    def test_points_and_seeds_are_pinned(self, doc, points, digest):
        plan = parse_config(doc, seed=7)
        assert len(list(plan.points())) == points
        assert plan_digest(plan) == digest


class TestSweepPlan:
    def base(self):
        return SystemConfig(
            n_t=2,
            n_r=2,
            snr_db=10.0,
            fading=FadingParams(m=1.0, omega=1.0),
            correlation=CorrelationSpec(n=2, rho=0.2, l_band=1),
            mode=SemiCorrelationMode("transmit"),
            trials=100,
            seed=0,
        )

    def test_points_are_lexicographic(self):
        plan = SweepPlan(
            base=self.base(),
            axes=(("m", (0.7, 2.5)), ("snr_db", (0.0, 10.0))),
        )
        pts = [(p["snr_db"], p["m"]) for p in plan.points()]
        assert pts == [(0.0, 0.7), (0.0, 2.5), (10.0, 0.7), (10.0, 2.5)]

    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            SweepPlan(base=self.base(), axes=(("n_t", (2, 4)),))
        with pytest.raises(ValueError, match="no values"):
            SweepPlan(base=self.base(), axes=(("m", ()),))
        with pytest.raises(ValueError, match="unique"):
            SweepPlan(base=self.base(), axes=(("m", (1.0,)), ("m", (2.0,))))
        with pytest.raises(ValueError, match="l_band must be an integer"):
            SweepPlan(base=self.base(), axes=(("l_band", (0.5,)),))


class TestPointSeed:
    def point(self, **overrides):
        point = {"snr_db": 10.0, "rho": 0.2, "l_band": 1, "m": 1.0, "omega": 1.0}
        point.update(overrides)
        return point

    def test_deterministic_and_sensitive(self):
        a = point_seed(7, self.point())
        assert a == point_seed(7, self.point())
        assert a != point_seed(8, self.point())
        assert a != point_seed(7, self.point(snr_db=11.0))
        assert 0 <= a < 2**64

    def test_independent_of_which_axes_exist(self):
        # the hash covers all five parameters, so a plan that pins omega via
        # an axis of one value seeds identically to one that leaves it fixed
        assert point_seed(3, self.point(omega=1.0)) == point_seed(3, self.point())

    def test_rejects_bad_master_seed(self):
        with pytest.raises(ValueError):
            point_seed(-1, self.point())


# documents over the full ranges parse_config accepts with allow_extended:
# 1x1 to 4x4 antennas on either side, log-uniform m and omega up to 1e308,
# every representable SNR, and one swept axis of one or two values
_LOG_UNIFORM = st.floats(-308.0, 308.0).map(lambda e: 10.0**e)


@st.composite
def _sweep_docs(draw):
    n_r = draw(st.integers(1, 4))
    n_t = draw(st.integers(1, n_r))
    side = draw(st.sampled_from(["transmit", "receive"]))
    n_side = n_t if side == "transmit" else n_r
    values = {
        "snr_db": st.floats(-3236.0, 3082.0),
        "rho": st.floats(0.0, 1.0, exclude_max=True),
        "l_band": st.integers(0, n_side - 1),
        "m": _LOG_UNIFORM,
        "omega": _LOG_UNIFORM,
    }
    lines = [
        f"n_t = {n_t}",
        f"n_r = {n_r}",
        f"side = {side}",
        f"trials = {draw(st.sampled_from([1, 16, 300]))}",
        f"seed = {draw(st.integers(0, 2**64 - 1))}",
    ]
    lines += [f"{name} = {draw(strategy)!r}" for name, strategy in values.items()]
    axis = draw(st.sampled_from(AXIS_ORDER))
    swept = draw(st.lists(values[axis], min_size=1, max_size=2, unique=True))
    lines += [f"[sweep.{axis}]", "values = " + ", ".join(map(repr, swept))]
    return "\n".join(lines) + "\n"


class TestRunSweep:
    def test_rows_and_consistency(self):
        plan = tiny_plan("[sweep.snr_db]\nvalues = 0, 10\n")
        rows = run_sweep(plan)
        assert [row.snr_db for row in rows] == [0.0, 10.0]
        for row in rows:
            assert row.status == "ok"
            assert row.trials == 400
            assert row.seed == point_seed(9, {
                "snr_db": row.snr_db, "rho": 0.0, "l_band": 1, "m": 1.0, "omega": 1.0,
            })
            assert row.esrc_mc > 0.0 and row.esrc_stderr > 0.0
            assert row.rel_err == pytest.approx(
                abs(row.esrc_mc - row.esrc_analytic) / row.esrc_analytic
            )
            assert row.alpha_mean is None and row.gof_pass_rate is None

    def test_seed_isolation_across_axis_edits(self):
        short = run_sweep(tiny_plan("[sweep.snr_db]\nvalues = 0, 10\n"))
        long = run_sweep(tiny_plan("[sweep.snr_db]\nvalues = 0, 10, 20\n"))
        assert short == long[:2]

    def test_adding_a_default_valued_axis_changes_nothing(self):
        plain = run_sweep(tiny_plan())
        pinned = run_sweep(tiny_plan("[sweep.omega]\nvalues = 1.0\n"))
        assert plain == pinned

    def test_full_fit_populates_fit_columns(self):
        plan = parse_config("n_t = 2\nn_r = 2\ntrials = 600\nseed = 9\n")
        (row,) = run_sweep(plan, full_fit=True)
        assert 0.7 < row.alpha_mean < 1.3
        assert 0.0 <= row.gof_pass_rate <= 1.0

    @pytest.mark.parametrize(
        "error",
        [
            MonteCarloAbort("too many singular draws", 5, 100),
            # the type matrix_sqrt raises when its eigensolver fails
            ArithmeticError("eigensolver failed"),
            ValueError("every beta must be positive and finite"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_failed_point_keeps_the_sweep_going(self, monkeypatch, caplog, error):
        real = runner_mod.monte_carlo_esrc

        def flaky(config):
            if config.snr_db == 10.0:
                raise error
            return real(config)

        monkeypatch.setattr(runner_mod, "monte_carlo_esrc", flaky)
        rows = run_sweep(tiny_plan("[sweep.snr_db]\nvalues = 0, 10, 20\n"))
        assert [row.status for row in rows] == ["ok", "failed", "ok"]
        label = "snr_db=10 rho=0 l_band=1 m=1 omega=1"
        assert f"{label}: failed ({type(error).__name__}: {error})" in caplog.text
        failed = rows[1]
        assert failed.esrc_mc is None and failed.esrc_analytic is None
        assert failed.rel_err is None and failed.alpha_mean is None
        assert failed.seed == rows[1].seed  # seed still recorded
        assert failed.trials == 400

    def test_closed_form_failure_keeps_the_sweep_going(self, monkeypatch):
        real = runner_mod.esrc_closed_form
        calls = []

        def flaky(b):
            calls.append(b)
            if len(calls) == 1:
                raise NumericalError("capacity term failed")
            return real(b)

        monkeypatch.setattr(runner_mod, "esrc_closed_form", flaky)
        rows = run_sweep(tiny_plan("[sweep.snr_db]\nvalues = 0, 10\n"))
        assert [row.status for row in rows] == ["failed", "ok"]

    def test_overflowing_omega_over_m_fails_naming_it(self, caplog):
        for m, omega, flow in (("1e-308", "1e308", "overflows"), ("1e308", "1e-308", "underflows")):
            plan = parse_config(f"n_t = 2\nn_r = 3\nm = {m}\nomega = {omega}\ntrials = 16\n")
            (row,) = run_sweep(plan)
            assert row.status == "failed"
            assert f"failed (NumericalError: omega/m {flow} float64" in caplog.text

    def test_full_fit_below_200_trials_raises_before_any_point(self, monkeypatch):
        def no_point_may_run(config):
            raise AssertionError("a point ran")

        monkeypatch.setattr(runner_mod, "monte_carlo_esrc", no_point_may_run)
        plan = parse_config("n_t = 2\nn_r = 2\ntrials = 150\n")
        with pytest.raises(ValueError, match="needs at least 200 trials per point, got 150"):
            run_sweep(plan, full_fit=True)

    # 1.0-1.4 s for the 100 drawn documents and the two examples on 2 vCPUs
    @given(doc=_sweep_docs(), full_fit=st.booleans())
    @example(doc="n_t = 4\nn_r = 4\ntrials = 50\n[sweep.omega]\nvalues = 1, 1e306\n",
             full_fit=False)
    @example(doc="n_t = 4\nn_r = 4\ntrials = 50\n[sweep.snr_db]\nvalues = 10, 3070\n",
             full_fit=False)
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_every_accepted_document_gives_one_row_per_point(self, doc, full_fit):
        plan = parse_config(doc, allow_extended=True)
        full_fit = full_fit and plan.base.trials >= 200
        rows = run_sweep(plan, full_fit=full_fit)
        assert len(rows) == len(list(plan.points()))
        for row in rows:
            assert row.status in ("ok", "failed")
            results = [row.esrc_mc, row.esrc_stderr, row.esrc_analytic, row.rel_err]
            if full_fit:
                results += [row.alpha_mean, row.gof_pass_rate]
            if row.status == "ok":
                assert all(math.isfinite(value) for value in results), row


class TestCsvOutput:
    def ok_row(self):
        return SweepRow(
            snr_db=10.0, rho=0.3, l_band=7, m=0.7, omega=1.0,
            trials=1000, seed=123456789,
            esrc_mc=12.3456789123, esrc_stderr=0.0123456789123,
            esrc_analytic=12.3399999999, rel_err=0.000460204,
            alpha_mean=None, gof_pass_rate=None, status="ok",
        )

    def test_header_is_pinned(self):
        assert CSV_HEADER == (
            "snr_db,rho,l_band,m,omega,trials,seed,esrc_mc,esrc_stderr,"
            "esrc_analytic,rel_err,alpha_mean,gof_pass_rate,status"
        )

    def test_header_and_layout(self):
        text = render_csv([self.ok_row()])
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_HEADER.split(","))
        assert cells[0] == "10" and cells[1] == "0.3" and cells[2] == "7"
        assert cells[7] == "12.3456789"  # 9 significant digits
        assert cells[11] == "" and cells[12] == ""
        assert cells[13] == "ok"

    def test_empty_table_is_header_only(self):
        assert render_csv([]) == CSV_HEADER + "\n"

    def test_failed_row_has_empty_numeric_cells(self):
        row = SweepRow(
            snr_db=0.0, rho=0.0, l_band=1, m=1.0, omega=1.0,
            trials=10, seed=1,
            esrc_mc=None, esrc_stderr=None, esrc_analytic=None, rel_err=None,
            alpha_mean=None, gof_pass_rate=None, status="failed",
        )
        cells = render_csv([row]).splitlines()[1].split(",")
        assert cells[7:13] == [""] * 6
        assert cells[13] == "failed"

    def test_emit_csv_is_byte_stable(self, tmp_path):
        rows = run_sweep(tiny_plan("[sweep.m]\nvalues = 0.7, 2.5\n"))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_csv(rows, a)
        emit_csv(rows, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(CSV_HEADER.encode("ascii"))

    def test_emit_csv_unwritable_destination(self, tmp_path):
        with pytest.raises(OSError):
            emit_csv([], tmp_path / "missing" / "a.csv")


class TestCli:
    def test_import_loads_no_unused_scipy_subpackage(self):
        # every invocation pays for what `import esrc.cli` loads: numpy and
        # the standard library, no scipy module at all and no mpmath
        code = (
            "import sys, esrc.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'mpmath')))"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

    def test_import_pins_blas_threads_unless_set(self):
        # pinned, BLAS starts no thread, so the Monte Carlo kernel may fork
        # one worker per CPU
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        code = (
            "import os, esrc.zf; "
            f"print([os.environ[name] for name in {names!r}], esrc.zf._cpu_count())"
        )
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = SRC_DIR
        cpus = len(os.sched_getaffinity(0))
        for preset, expected in (
            ({}, f"['1', '1', '1'] {cpus}"),
            ({names[0]: "2"}, "['2', '1', '1']"),
        ):
            done = subprocess.run(
                [sys.executable, "-c", code],
                env={**env, **preset},
                capture_output=True,
                text=True,
                check=True,
            )
            assert done.stdout.strip().startswith(expected)

    def write_cfg(self, tmp_path, extra=""):
        path = tmp_path / "sweep.cfg"
        path.write_text(tiny_doc(extra))
        return str(path)

    def test_run_writes_csv(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "[sweep.snr_db]\nvalues = 0, 10\n")
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_run_is_deterministic_across_invocations(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "[sweep.m]\nvalues = 0.7, 2.5\n")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--out", str(a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_seed_override_changes_rows(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--out", str(a)]) == 0
        assert main(["run", "--config", cfg, "--seed", "77", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_run_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rho = 0.9\n")
        assert main(["run", "--config", str(path)]) == 2
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_full_fit_below_200_trials_exits_2_before_any_point(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_point_may_run(config):
            raise AssertionError("a point ran")

        monkeypatch.setattr(runner_mod, "monte_carlo_esrc", no_point_may_run)
        cfg = self.write_cfg(tmp_path)
        assert main(["run", "--config", cfg, "--trials", "150", "--full-fit"]) == 2
        err = capsys.readouterr().err
        assert "--full-fit needs at least 200 trials per point, got 150" in err

    def test_unwritable_out_exits_2_before_any_point(self, tmp_path, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
        cfg = self.write_cfg(tmp_path)
        for out in (tmp_path / "missing" / "out.csv", tmp_path):
            assert main(["run", "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(out) in err
        assert not (tmp_path / "missing").exists()

    def test_out_is_not_truncated_before_the_table_is_ready(self, tmp_path, monkeypatch):
        real = cli_mod.run_sweep

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out.csv"
        out.write_text("an earlier table\n")
        monkeypatch.setattr(cli_mod, "run_sweep", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", cfg, "--out", str(out)])
        assert out.read_text() == "an earlier table\n"
        # nor does the check leave a new file behind, and the table, once
        # ready, gets the mode of a plain open for writing
        fresh, reference = tmp_path / "fresh.csv", tmp_path / "reference"
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", cfg, "--out", str(fresh)])
        assert not fresh.exists()
        monkeypatch.setattr(cli_mod, "run_sweep", real)
        assert main(["run", "--config", cfg, "--out", str(fresh)]) == 0
        reference.open("w").close()
        assert fresh.stat().st_mode == reference.stat().st_mode
        assert fresh.read_text().startswith(CSV_HEADER)

    def test_run_failed_point_exits_1(self, tmp_path, monkeypatch):
        def always_abort(config):
            raise MonteCarloAbort("too many singular draws", 5, 100)

        monkeypatch.setattr(runner_mod, "monte_carlo_esrc", always_abort)
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert out.read_text().splitlines()[1].endswith("failed")

    def test_a_killed_worker_costs_no_row(self, tmp_path, monkeypatch):
        # 4x4 at 2048 trials is two chunks of 1024; with two CPUs a forked
        # child runs the second, and on the second point it kills itself
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "n_t = 4\nn_r = 4\ntrials = 2048\nseed = 9\n[sweep.snr_db]\nvalues = 0, 10\n"
        )
        monkeypatch.setattr(esrc.zf, "_cpu_count", lambda: 2)
        clean = tmp_path / "clean.csv"
        assert main(["run", "--config", str(cfg), "--out", str(clean)]) == 0
        points = []
        real_point, real_sinr = runner_mod.monte_carlo_esrc, esrc.zf.zf_sinr
        caller = os.getpid()

        def counted(config):
            points.append(config)
            return real_point(config)

        def dying(h, snr):
            if len(points) == 2 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_sinr(h, snr)

        monkeypatch.setattr(runner_mod, "monte_carlo_esrc", counted)
        monkeypatch.setattr(esrc.zf, "zf_sinr", dying)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(points) == 2
        rows = csv.DictReader(out.read_text().splitlines())
        assert [row["status"] for row in rows] == ["ok", "ok"]
        assert out.read_bytes() == clean.read_bytes()

    def test_indefinite_point_fails_alone(self, tmp_path):
        # rho = 0.9 banded to l_band = 1 is not positive semidefinite; the
        # full band at l_band = 7 is, and its row must survive
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("rho = 0.9\n[sweep.l_band]\nvalues = 1, 7\n")
        out = tmp_path / "out.csv"
        argv = ["run", "--config", str(cfg), "--allow-extended", "--trials", "50"]
        assert main(argv + ["--out", str(out)]) == 1
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(row[2], row[-1]) for row in rows] == [("1", "failed"), ("7", "ok")]
        assert rows[0][7] == "" and float(rows[1][7]) > 0.0

    @pytest.mark.parametrize(
        "axis, values, reason",
        [
            # -3233 dB passes the parse-time check as the smallest subnormal
            # SNR, and the SINR underflows to 0
            ("snr_db", "10, -3233", "SINR underflows float64"),
            # finite SINRs whose per-user mean overflows to inf
            ("snr_db", "10, 3070", "sample mean overflows float64"),
            ("omega", "1, 1e306", "sample mean overflows float64"),
        ],
        ids=["snr_db=-3233", "snr_db=3070", "omega=1e306"],
    )
    def test_underflowing_sinr_fails_alone(self, tmp_path, caplog, axis, values, reason):
        # the first point must survive the second's failure
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"n_t = 4\nn_r = 4\ntrials = 50\n[sweep.{axis}]\nvalues = {values}\n")
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["status"] for row in rows] == ["ok", "failed"]
        assert rows[1]["esrc_mc"] == ""
        assert f"failed (NumericalError: {reason})" in caplog.text

    def test_pdf_table(self, tmp_path):
        out = tmp_path / "pdf.dat"
        assert main(["pdf", "--betas", "1.0,2.5", "--points", "32", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# bits density"
        assert len(lines) == 33
        grid = np.array([float(line.split()[0]) for line in lines[1:]])
        assert np.all(np.diff(grid) > 0)

    def test_pdf_explicit_grid_max(self, tmp_path):
        out = tmp_path / "pdf.dat"
        assert main(
            ["pdf", "--betas", "1.0", "--grid-max", "8", "--points", "16", "--out", str(out)]
        ) == 0
        last = out.read_text().splitlines()[-1]
        assert float(last.split()[0]) == pytest.approx(8.0)

    def test_pdf_tiny_grid_max(self, tmp_path):
        # one user's density is ln2/beta at the origin
        out = tmp_path / "pdf.dat"
        argv = ["pdf", "--betas", "2", "--points", "8", "--grid-max", "1e-100"]
        assert main(argv + ["--out", str(out)]) == 0
        density = [float(line.split()[1]) for line in out.read_text().splitlines()[1:]]
        assert density == pytest.approx([LN2 / 2.0] * 8, rel=1e-6)

    def test_pdf_rejects_bad_input(self, capsys):
        assert main(["pdf", "--betas", "1.0,,2"]) == 2
        assert main(["pdf", "--betas", "-1.0"]) == 2
        assert main(["pdf", "--betas", "1.0", "--points", "4"]) == 2
        assert main(["pdf", "--betas", "1.0", "--grid-max", "100"]) == 2
        # inf is the top that np.linspace would warn on if the range rule went
        for extra in (
            ["--grid-max=inf"],
            ["--grid-max=-inf"],
            ["--grid-max=nan"],
            ["--grid-max=0"],
            ["--grid-max=-1"],
            ["--points", "4", "--grid-max", "8"],
        ):
            capsys.readouterr()
            assert main(["pdf", "--betas", "1.0", *extra]) == 2, extra
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, extra

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--betas", "1e-310,2", "--points", "8"], 2),
            (["--betas", "1e-308,2", "--points", "8"], 0),
            (["--betas", "1e-300", "--grid-max", "8", "--points", "8"], 0),
        ],
        ids=["1e-310", "1e-308", "1e-300-grid-max"],
    )
    def test_pdf_tiny_betas_warn_nothing(self, argv, code, capsys):
        # 1/1e-310 overflows and is rejected by name; 1e-308 and 1e-300 overflow
        # only ratios whose limit is exact (a tail term 0, a mass 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pdf", *argv]) == code
        err = capsys.readouterr().err
        assert err == ("error: 1/beta overflows float64 for beta=1e-310\n" if code else "")

    @pytest.mark.parametrize("command", ["run", "pdf"])
    def test_stdout_table_matches_the_out_file(self, tmp_path, capsys, command):
        if command == "run":
            argv = ["run", "--config", self.write_cfg(tmp_path, "[sweep.m]\nvalues = 0.7, 2.5\n")]
        else:
            argv = ["pdf", "--betas", "1,2", "--points", "16"]
        out = tmp_path / "table"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("ascii") == out.read_bytes()

    @pytest.mark.parametrize("betas", ["1e-300", "1e300"])
    def test_pdf_unrepresentable_betas_exit_2(self, betas, capsys):
        # 1e-300 has no capacity grid; 1e300 leaves no capacity mass below
        # the grid's 64-bit cap
        assert main(["pdf", "--betas", betas, "--points", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
