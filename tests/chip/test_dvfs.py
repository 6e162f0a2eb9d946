"""Tests for the Vdd ladder and the alpha-power frequency law."""

import pytest
from hypothesis import given, strategies as st

from repro.chip.dvfs import VddLadder, alpha_power_frequency
from repro.chip.technology import technology


class TestAlphaPowerLaw:
    def test_normalised_at_nominal(self):
        tech = technology("7nm")
        f = alpha_power_frequency(tech.vdd_nominal, tech)
        assert f == pytest.approx(tech.freq_at_nominal_hz)

    def test_monotonic_in_vdd(self):
        tech = technology("7nm")
        freqs = [alpha_power_frequency(v, tech) for v in (0.4, 0.5, 0.6, 0.7, 0.8)]
        assert freqs == sorted(freqs)
        assert all(f > 0 for f in freqs)

    def test_below_threshold_rejected(self):
        tech = technology("7nm")
        with pytest.raises(ValueError, match="threshold"):
            alpha_power_frequency(0.2, tech)
        with pytest.raises(ValueError):
            alpha_power_frequency(tech.vth, tech)

    def test_near_threshold_much_slower_than_nominal(self):
        """NTC operation sacrifices substantial frequency (motivates DoP)."""
        tech = technology("7nm")
        ratio = alpha_power_frequency(0.4, tech) / alpha_power_frequency(0.8, tech)
        assert 0.2 < ratio < 0.6


class TestVddLadder:
    def test_paper_default(self):
        ladder = VddLadder.paper_default()
        assert list(ladder) == pytest.approx([0.4, 0.5, 0.6, 0.7, 0.8])
        assert len(ladder) == 5
        assert ladder.lowest == pytest.approx(0.4)
        assert ladder.highest == pytest.approx(0.8)

    def test_contains(self):
        ladder = VddLadder.paper_default()
        assert 0.5 in ladder
        assert 0.55 not in ladder

    def test_nearest(self):
        ladder = VddLadder.paper_default()
        assert ladder.nearest(0.44) == pytest.approx(0.4)
        assert ladder.nearest(0.56) == pytest.approx(0.6)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            VddLadder((0.5, 0.4))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            VddLadder((0.4, 0.4, 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VddLadder(())

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            VddLadder((0.0, 0.4))

    def test_from_range_validation(self):
        with pytest.raises(ValueError):
            VddLadder.from_range(0.4, 0.8, 0.0)
        with pytest.raises(ValueError):
            VddLadder.from_range(0.8, 0.4, 0.1)

    @given(
        low=st.floats(0.3, 0.6),
        steps=st.integers(1, 8),
        step=st.sampled_from([0.05, 0.1, 0.25]),
    )
    def test_from_range_covers_endpoints(self, low, steps, step):
        high = low + steps * step
        ladder = VddLadder.from_range(low, high, step)
        assert len(ladder) == steps + 1
        assert ladder.lowest == pytest.approx(low)
        assert ladder.highest == pytest.approx(high, abs=1e-6)
