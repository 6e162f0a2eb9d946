"""Tests for the McPAT-style power model."""

import pytest
from hypothesis import given, strategies as st

import math

from repro.chip.dvfs import VddLadder, alpha_power_frequency
from repro.chip.power import PowerModel
from repro.chip.technology import technology


@pytest.fixture
def model():
    return PowerModel(technology("7nm"))


class TestCorePower:
    def test_dynamic_power_scales_with_activity(self, model):
        low = model.core_dynamic(0.1, 0.8)
        high = model.core_dynamic(0.9, 0.8)
        assert high == pytest.approx(9 * low)

    def test_dynamic_power_grows_superlinearly_with_vdd(self, model):
        """P = a C V^2 f(V): more than V^2 growth because f also rises."""
        p_low = model.core_dynamic(0.5, 0.4)
        p_high = model.core_dynamic(0.5, 0.8)
        assert p_high / p_low > (0.8 / 0.4) ** 2

    def test_zero_activity_means_zero_dynamic(self, model):
        assert model.core_dynamic(0.0, 0.6) == 0.0

    def test_activity_out_of_range_rejected(self, model):
        with pytest.raises(ValueError):
            model.core_dynamic(-0.1, 0.6)
        with pytest.raises(ValueError):
            model.core_dynamic(1.1, 0.6)

    def test_leakage_increases_with_vdd(self, model):
        leaks = [model.core_leakage(v) for v in (0.4, 0.6, 0.8)]
        assert leaks == sorted(leaks)
        assert leaks[0] > 0

    def test_leakage_at_nominal_matches_tech(self, model):
        tech = model.tech
        assert model.core_leakage(tech.vdd_nominal) == pytest.approx(
            tech.leakage_power_core_w
        )


class TestPerVddMemo:
    """frequency/core_leakage keep one value per Vdd, bit-equal to the
    formulas, and never cache a failure."""

    VDDS = VddLadder.paper_default().levels + (0.45, 0.55, 0.73, 0.95)

    @staticmethod
    def leakage(tech, vdd):
        scale = (vdd / tech.vdd_nominal) * math.exp(
            PowerModel._LEAK_SENSITIVITY * (vdd - tech.vdd_nominal)
        )
        return tech.leakage_power_core_w * scale

    def test_bit_equal_to_the_formulas(self, model):
        tech = model.tech
        for _ in range(2):  # the first pass fills the memo, the second reads it
            for vdd in self.VDDS:
                assert model.frequency(vdd).hex() == alpha_power_frequency(
                    vdd, tech
                ).hex()
                assert model.core_leakage(vdd).hex() == self.leakage(
                    tech, vdd
                ).hex()

    def test_below_threshold_raises_on_every_call(self, model):
        vth = model.tech.vth
        for vdd in (vth, vth - 0.05):
            for _ in range(3):
                with pytest.raises(ValueError, match="threshold"):
                    model.frequency(vdd)
                with pytest.raises(ValueError, match="threshold"):
                    model.core_dynamic(0.5, vdd)


class TestRouterPower:
    def test_idle_router_draws_some_power(self, model):
        assert model.router_dynamic(0.0, 0.6) > 0.0

    def test_router_power_linear_in_flit_rate(self, model):
        p0 = model.router_dynamic(0.0, 0.6)
        p1 = model.router_dynamic(1.0, 0.6)
        p2 = model.router_dynamic(2.0, 0.6)
        assert p2 - p1 == pytest.approx(p1 - p0)

    def test_negative_flit_rate_rejected(self, model):
        with pytest.raises(ValueError):
            model.router_dynamic(-1.0, 0.6)

    def test_router_leakage_smaller_than_core(self, model):
        assert model.router_leakage(0.6) < model.core_leakage(0.6)


class TestTilePower:
    def test_breakdown_sums(self, model):
        tp = model.tile_power(0.5, 1.5, 0.6)
        assert tp.total == pytest.approx(tp.core + tp.router)
        assert tp.core == pytest.approx(tp.core_dynamic + tp.core_leakage)
        assert tp.router == pytest.approx(tp.router_dynamic + tp.router_leakage)

    def test_idle_tile_power_below_active(self, model):
        idle = model.idle_tile_power(0.6)
        active = model.tile_power(0.6, 1.0, 0.6)
        assert idle.total < active.total

    def test_dark_silicon_pressure_at_high_vdd(self, model):
        """Key premise: 60 active tiles at 0.8 V break a 65 W budget,
        while at 0.4 V (NTC) the whole chip fits comfortably."""
        per_tile_high = model.tile_power(0.5, 1.0, 0.8).total
        per_tile_ntc = model.tile_power(0.5, 1.0, 0.4).total
        assert 60 * per_tile_high > 65.0
        assert 60 * per_tile_ntc < 65.0

    def test_noc_power_share_for_communication_workloads(self, model):
        """The paper cites an 18-20 % NoC share of chip power for
        communication-intensive workloads (Section 5.2); at a realistic
        per-router flit rate the model lands in that neighbourhood."""
        tp = model.tile_power(core_activity=0.35, flits_per_cycle=0.35, vdd=0.6)
        share = tp.router / tp.total
        assert 0.10 < share < 0.30

    @given(
        activity=st.floats(0.0, 1.0),
        flits=st.floats(0.0, 4.0),
        vdd=st.sampled_from([0.4, 0.5, 0.6, 0.7, 0.8]),
    )
    def test_power_always_positive_and_finite(self, activity, flits, vdd):
        tp = PowerModel(technology("7nm")).tile_power(activity, flits, vdd)
        assert tp.total > 0
        assert tp.total < 20.0  # sane bound for one mobile tile
