"""Tests for workload current waveforms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.pdn.waveforms import (
    BIN_WAVE_PARAMS,
    ActivityBin,
    BinWaveParams,
    CurrentWaveform,
    TileLoad,
)


class TestTileLoad:
    def test_idle(self):
        idle = TileLoad.idle()
        assert idle.total_power_w == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            TileLoad(-0.1, 0.0, ActivityBin.HIGH)
        with pytest.raises(ValueError):
            TileLoad(0.1, -0.1, ActivityBin.HIGH)

    def test_nonpositive_freq_scale_rejected(self):
        with pytest.raises(ValueError):
            TileLoad(0.1, 0.0, ActivityBin.HIGH, freq_scale=0.0)

    def test_total_power(self):
        load = TileLoad(0.3, 0.1, ActivityBin.LOW)
        assert load.total_power_w == pytest.approx(0.4)


class TestBinWaveParams:
    def test_bins_have_distinct_burst_frequencies(self):
        high = BIN_WAVE_PARAMS[ActivityBin.HIGH]
        low = BIN_WAVE_PARAMS[ActivityBin.LOW]
        assert high.burst_hz != low.burst_hz
        assert high.swing >= low.swing

    def test_validation(self):
        with pytest.raises(ValueError):
            BinWaveParams(burst_hz=0.0, swing=0.5, sharpness=4.0)
        with pytest.raises(ValueError):
            BinWaveParams(burst_hz=1e8, swing=1.0, sharpness=4.0)
        with pytest.raises(ValueError):
            BinWaveParams(burst_hz=1e8, swing=0.5, sharpness=0.0)


class TestCurrentWaveform:
    def _times(self):
        return np.linspace(0.0, 400e-9, 40001)

    def test_mean_current_matches_power(self):
        """Time-average of the waveform must be P / Vdd so that the IR
        component of PSN tracks power consumption."""
        load = TileLoad(0.4, 0.1, ActivityBin.HIGH)
        wave = CurrentWaveform(load, 0.5)
        samples = wave(self._times())
        assert float(np.mean(samples)) == pytest.approx(0.5 / 0.5, rel=0.01)

    def test_idle_waveform_is_zero(self):
        wave = CurrentWaveform(TileLoad.idle(), 0.5)
        assert np.allclose(wave(self._times()), 0.0)

    def test_swing_bounds(self):
        load = TileLoad(0.4, 0.0, ActivityBin.HIGH)
        wave = CurrentWaveform(load, 0.5)
        samples = wave(self._times())
        mean = 0.4 / 0.5
        swing = BIN_WAVE_PARAMS[ActivityBin.HIGH].swing
        assert samples.max() <= mean * (1 + swing) + 1e-9
        assert samples.min() >= mean * (1 - swing) - 1e-9
        assert samples.min() > 0  # current never reverses

    def test_phase_shift_moves_waveform(self):
        load0 = TileLoad(0.4, 0.0, ActivityBin.HIGH, phase_s=0.0)
        load1 = TileLoad(0.4, 0.0, ActivityBin.HIGH, phase_s=2e-9)
        t = self._times()
        w0, w1 = CurrentWaveform(load0, 0.5)(t), CurrentWaveform(load1, 0.5)(t)
        assert not np.allclose(w0, w1)
        # Shifting back by the phase recovers the original.
        w1_shifted = CurrentWaveform(load1, 0.5)(t + 2e-9)
        assert np.allclose(w0, w1_shifted, atol=1e-9)

    def test_vdd_must_be_positive(self):
        with pytest.raises(ValueError):
            CurrentWaveform(TileLoad.idle(), 0.0)

    @given(
        core=st.floats(0.01, 2.0),
        router=st.floats(0.0, 0.5),
        vdd=st.sampled_from([0.4, 0.6, 0.8]),
        bin_=st.sampled_from(list(ActivityBin)),
    )
    def test_mean_preserved_for_any_load(self, core, router, vdd, bin_):
        wave = CurrentWaveform(TileLoad(core, router, bin_), vdd)
        t = np.linspace(0.0, 1e-6, 100001)
        assert float(np.mean(wave(t))) == pytest.approx(
            (core + router) / vdd, rel=0.02
        )
