"""Tests for the system configuration container."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esrc.config import SystemConfig
from esrc.runner import _point_of


def make_config(**overrides):
    base = dict(
        n_t=8,
        n_r=8,
        side="transmit",
        snr_db=10.0,
        rho=0.3,
        l_band=7,
        m=1.0,
        omega=1.0,
        trials=1000,
        seed=42,
    )
    base.update(overrides)
    return SystemConfig(**base)


class TestSystemConfig:
    def test_valid(self):
        cfg = make_config()
        assert cfg.n_users == 8

    def test_snr_linear(self):
        assert make_config(snr_db=10.0).snr_linear == pytest.approx(10.0)
        assert make_config(snr_db=0.0).snr_linear == pytest.approx(1.0)
        assert make_config(snr_db=20.0).snr_linear == pytest.approx(100.0)
        assert make_config(snr_db=3.0).snr_linear == pytest.approx(1.9952623149688795)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, math.nan, math.inf])
    def test_rejects_out_of_range_snr(self, snr_db):
        # 10^(snr_db/10) must be a positive finite float
        with pytest.raises(ValueError, match=r"^snr_db out of range: .*got"):
            make_config(snr_db=snr_db)

    def test_rejects_wide_channel(self):
        with pytest.raises(ValueError, match="n_r >= n_t"):
            make_config(n_r=4)

    def test_receive_side_needs_n_r_sized_matrix(self):
        cfg = make_config(n_t=4, side="receive")
        assert cfg.correlation.n == 8

    @given(
        sizes=st.tuples(st.integers(1, 8), st.integers(1, 8)).map(sorted),
        side=st.sampled_from(["transmit", "receive"]),
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_correlation_is_sized_to_its_side_and_points_round_trip(self, sizes, side):
        n_t, n_r = sizes
        n = n_t if side == "transmit" else n_r
        cfg = make_config(n_t=n_t, n_r=n_r, side=side, l_band=n - 1)
        assert cfg.correlation.n == n
        assert replace(cfg, **_point_of(cfg)) == cfg

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            make_config(n_t=0)
        with pytest.raises(ValueError):
            make_config(trials=0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            make_config(seed=-1)
        with pytest.raises(ValueError):
            make_config(seed=2**64)
        assert make_config(seed=2**64 - 1).seed == 2**64 - 1
