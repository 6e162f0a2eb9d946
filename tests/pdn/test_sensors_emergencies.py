"""Tests for the sensor network and voltage-emergency models."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.pdn.emergencies import (
    MAX_POISSON_MEAN,
    VE_THRESHOLD_PCT,
    VoltageEmergencyPolicy,
)
from repro.pdn.sensors import SensorFault, SensorNetwork


class TestSensorNetwork:
    def test_quantisation(self):
        net = SensorNetwork(lsb_pct=0.25)
        assert net.read(1.13) == pytest.approx(1.25)
        assert net.read(1.12) == pytest.approx(1.0)
        assert net.read(0.0) == 0.0

    def test_clamping(self):
        net = SensorNetwork(lsb_pct=0.25, full_scale_pct=10.0)
        assert net.read(50.0) == pytest.approx(10.0)
        assert net.read(-3.0) == 0.0

    def test_read_array_matches_scalar(self):
        net = SensorNetwork()
        values = np.array([0.0, 1.13, 4.9, 30.0])
        arr = net.read_array(values)
        assert arr == pytest.approx([net.read(v) for v in values])

    def test_update_and_latest(self):
        net = SensorNetwork()
        assert net.snapshot() == {}
        net.update(5, 3.1)
        snap = net.snapshot()
        assert snap == {5: net.read(3.1)}
        snap[5] = 99.0  # snapshot is a copy
        assert net.snapshot()[5] != 99.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SensorNetwork(lsb_pct=0.0)
        with pytest.raises(ValueError):
            SensorNetwork(lsb_pct=1.0, full_scale_pct=0.5)

    @given(value=st.floats(0.0, 25.0))
    def test_quantisation_error_bounded(self, value):
        net = SensorNetwork(lsb_pct=0.25)
        assert abs(net.read(value) - value) <= 0.125 + 1e-9

    def test_non_finite_input_rejected(self):
        """Regression: round(nan) used to propagate a NaN reading into
        every downstream PANR cost term; non-finite PSN must raise."""
        net = SensorNetwork()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                net.read(bad)
        with pytest.raises(ValueError) as err:
            net.read_array(np.array([1.0, math.nan, 2.0, math.inf]))
        # The error names the offending tiles to speed up debugging.
        assert "[1, 3]" in str(err.value)
        with pytest.raises(ValueError):
            net.update(0, math.nan)


class TestSensorFaults:
    def test_stuck_sensor_reports_latched_code_invalid(self):
        net = SensorNetwork()
        net.set_fault(2, SensorFault("stuck", value_pct=7.0))
        values, valid = net.read_tiles(np.array([1.0, 1.0, 1.0]), 0.0)
        assert values[2] == pytest.approx(7.0)
        assert not valid[2]
        assert valid[0] and valid[1]

    def test_dead_sensor_holds_last_healthy_reading(self):
        net = SensorNetwork()
        net.read_tiles(np.array([3.0, 3.0]), 0.0)
        net.set_fault(1, SensorFault("dead", since_s=1.0))
        values, valid = net.read_tiles(np.array([8.0, 8.0]), 1.0)
        assert values[0] == pytest.approx(8.0)
        assert values[1] == pytest.approx(3.0)  # frozen
        assert not valid[1]

    def test_drift_is_silent(self):
        net = SensorNetwork()
        net.set_fault(0, SensorFault("drift", value_pct=2.0, since_s=0.0))
        values, valid = net.read_tiles(np.array([1.0]), 2.0)
        assert values[0] == pytest.approx(5.0)  # 1 + 2 %/s * 2 s
        assert valid[0]  # silent: consumers cannot tell

    def test_staleness_invalidates_unrefreshed_reading(self):
        net = SensorNetwork(staleness_limit_s=0.5)
        assert net.is_stale(0, 0.0)  # never sampled
        net.read_tiles(np.array([1.0]), 0.0)
        assert not net.is_stale(0, 0.4)
        assert net.is_stale(0, 0.6)

    def test_clear_fault_guarded_by_onset_time(self):
        net = SensorNetwork()
        net.set_fault(0, SensorFault("stuck", since_s=5.0))
        net.clear_fault(0, since_s=1.0)  # stale expiry: must not clear
        assert net.fault(0) is not None
        net.clear_fault(0, since_s=5.0)
        assert net.fault(0) is None
        net.clear_fault(0)  # clearing a healthy tile is a no-op

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            SensorFault("gone")
        with pytest.raises(ValueError):
            SensorFault("stuck", value_pct=math.nan)
        with pytest.raises(ValueError):
            SensorFault("stuck", since_s=-1.0)


class TestVoltageEmergencyPolicy:
    def test_threshold_matches_paper(self):
        assert VE_THRESHOLD_PCT == 5.0
        policy = VoltageEmergencyPolicy()
        assert policy.expected_rate_hz(4.99) == 0.0
        assert policy.expected_rate_hz(5.01) > 0.0

    def test_rate_zero_below_threshold(self):
        policy = VoltageEmergencyPolicy()
        assert policy.expected_rate_hz(3.0) == 0.0
        assert policy.expected_rate_hz(5.0) == 0.0

    def test_rate_grows_superlinearly(self):
        policy = VoltageEmergencyPolicy()
        r1 = policy.expected_rate_hz(6.0)
        r2 = policy.expected_rate_hz(7.0)
        assert r2 > 2 * r1

    def test_sampling_deterministic_with_seed(self):
        policy = VoltageEmergencyPolicy()
        a = policy.sample_emergencies(7.0, 1.0, np.random.default_rng(3))
        b = policy.sample_emergencies(7.0, 1.0, np.random.default_rng(3))
        assert a == b

    def test_sampling_zero_cases(self):
        policy = VoltageEmergencyPolicy()
        rng = np.random.default_rng(0)
        assert policy.sample_emergencies(4.0, 10.0, rng) == 0
        assert policy.sample_emergencies(8.0, 0.0, rng) == 0
        with pytest.raises(ValueError):
            policy.sample_emergencies(8.0, -1.0, rng)

    def test_sampling_mean_tracks_rate(self):
        policy = VoltageEmergencyPolicy()
        rng = np.random.default_rng(42)
        rate = policy.expected_rate_hz(6.5)
        counts = [policy.sample_emergencies(6.5, 1.0, rng) for _ in range(300)]
        assert np.mean(counts) == pytest.approx(rate, rel=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            VoltageEmergencyPolicy(threshold_pct=0.0)
        with pytest.raises(ValueError):
            VoltageEmergencyPolicy(rate_per_pct_s=-1.0)

    def test_non_finite_noise_rejected(self):
        """Regression: NaN/inf peak PSN must raise instead of poisoning
        the Poisson sampling (inf * duration -> nan mean)."""
        policy = VoltageEmergencyPolicy()
        rng = np.random.default_rng(0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                policy.expected_rate_hz(bad)
            with pytest.raises(ValueError):
                policy.sample_emergencies(bad, 1.0, rng)

    def test_poisson_mean_clamped(self):
        """Regression: a pathological rate x duration product used to
        crash numpy's Poisson sampler; the mean is clamped instead."""
        policy = VoltageEmergencyPolicy(rate_per_pct_s=1e30)
        rng = np.random.default_rng(1)
        count = policy.sample_emergencies(20.0, 1e6, rng)
        assert isinstance(count, int)
        assert 0 < count <= MAX_POISSON_MEAN * 1.01
