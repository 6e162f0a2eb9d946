"""Tests for the steady-state thermal model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chip.mesh import MeshGeometry
from repro.chip.thermal import T_JUNCTION_MAX_C, ThermalModel


@pytest.fixture
def model():
    return ThermalModel(MeshGeometry(10, 6))


class TestValidation:
    def test_resistances_positive(self):
        with pytest.raises(ValueError):
            ThermalModel(MeshGeometry(2, 2), r_vertical_k_per_w=0.0)
        with pytest.raises(ValueError):
            ThermalModel(MeshGeometry(2, 2), r_lateral_k_per_w=-1.0)

    def test_power_shape_and_sign(self, model):
        with pytest.raises(ValueError):
            model.temperatures_c([1.0] * 59)
        with pytest.raises(ValueError):
            model.temperatures_c([-1.0] + [0.0] * 59)


class TestPhysics:
    def test_idle_chip_at_ambient(self, model):
        temps = model.temperatures_c([0.0] * 60)
        assert temps == pytest.approx([model.ambient_c] * 60)

    def test_uniform_power_uniform_rise(self, model):
        """Uniform power: lateral flow cancels, rise = P * R_vertical."""
        temps = model.temperatures_c([1.0] * 60)
        expected = model.ambient_c + 1.0 * model.r_vertical_k_per_w
        assert temps == pytest.approx([expected] * 60)

    def test_hotspot_peaks_at_the_source_and_spreads(self, model):
        power = [0.0] * 60
        power[25] = 5.0
        temps = model.temperatures_c(power)
        assert int(np.argmax(temps)) == 25
        # Neighbours are warmer than far corners (lateral spreading).
        neighbor = temps[24]
        corner = temps[0]
        assert neighbor > corner > model.ambient_c - 1e-9

    def test_linearity(self, model):
        p = np.zeros(60)
        p[10] = 2.0
        t1 = model.temperatures_c(p) - model.ambient_c
        t2 = model.temperatures_c(2 * p) - model.ambient_c
        assert t2 == pytest.approx(2 * t1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_superposition(self, seed):
        model = ThermalModel(MeshGeometry(4, 4))
        rng = np.random.default_rng(seed)
        pa = rng.uniform(0, 2, 16)
        pb = rng.uniform(0, 2, 16)
        ta = model.temperatures_c(pa) - model.ambient_c
        tb = model.temperatures_c(pb) - model.ambient_c
        tab = model.temperatures_c(pa + pb) - model.ambient_c
        assert tab == pytest.approx(ta + tb)


class TestDarkSiliconBudget:
    def test_dspb_matches_junction_limit(self, model):
        """The paper's 65 W DsPB is the thermally safe uniform budget of
        this cooling solution, within a few watts."""
        assert model.is_thermally_safe([58.0 / 60] * 60)
        assert not model.is_thermally_safe([72.0 / 60] * 60)

    def test_uniform_dspb_is_safe_but_not_much_more(self, model):
        uniform = [65.0 / 60] * 60
        assert model.is_thermally_safe(uniform)
        hot = [90.0 / 60] * 60
        assert not model.is_thermally_safe(hot)

    def test_concentrated_power_is_worse_than_uniform(self, model):
        """The same 65 W concentrated on one quadrant overheats - why
        the runtime budget alone is conservative only for spread maps."""
        concentrated = [0.0] * 60
        for t in range(15):
            concentrated[t] = 65.0 / 15
        assert model.peak_temperature_c(concentrated) > (
            model.peak_temperature_c([65.0 / 60] * 60)
        )
