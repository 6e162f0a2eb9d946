"""Tests for the small-signal AC impedance analysis (``ac_impedance.py``)."""

import math

import numpy as np
import pytest

from ac_impedance import ac_impedance, impedance_profile
from repro.chip.technology import technology
from repro.pdn.builder import DomainPdnBuilder
from repro.pdn.circuit import GROUND, Circuit


class TestAcValidation:
    def test_ground_probe_rejected(self):
        c = Circuit()
        c.resistor("a", GROUND, 1.0)
        with pytest.raises(ValueError, match="ground"):
            ac_impedance(c, GROUND, [1e6])

    def test_unknown_node_rejected(self):
        c = Circuit()
        c.resistor("a", GROUND, 1.0)
        with pytest.raises(KeyError):
            ac_impedance(c, "b", [1e6])

    def test_bad_frequencies_rejected(self):
        c = Circuit()
        c.resistor("a", GROUND, 1.0)
        with pytest.raises(ValueError):
            ac_impedance(c, "a", [])
        with pytest.raises(ValueError):
            ac_impedance(c, "a", [0.0])


class TestAcAnalytic:
    def test_pure_resistor_is_flat(self):
        c = Circuit()
        c.resistor("a", GROUND, 42.0)
        z = ac_impedance(c, "a", [1e3, 1e6, 1e9])
        assert z == pytest.approx([42.0] * 3)

    def test_capacitor_impedance(self):
        """|Z_C| = 1 / (2 pi f C)."""
        c = Circuit()
        c.capacitor("a", GROUND, 1e-9)
        freqs = [1e6, 1e7, 1e8]
        z = ac_impedance(c, "a", freqs)
        expected = [1.0 / (2 * math.pi * f * 1e-9) for f in freqs]
        assert z == pytest.approx(expected, rel=1e-9)

    def test_inductor_impedance_through_source(self):
        """A DC source is an AC short, so an L in series to the source
        gives |Z| = 2 pi f L at the far node."""
        c = Circuit()
        c.vsource("vin", GROUND, 1.0)
        c.inductor("vin", "a", 1e-9)
        freqs = [1e6, 1e8]
        z = ac_impedance(c, "a", freqs)
        expected = [2 * math.pi * f * 1e-9 for f in freqs]
        assert z == pytest.approx(expected, rel=1e-9)

    def test_parallel_rlc_peaks_at_resonance(self):
        """Parallel L (via source) and C: anti-resonance at
        1/(2 pi sqrt(LC)), where |Z| = Q * sqrt(L/C) is maximal."""
        l_h, c_f, r_ohm = 20e-12, 8.5e-9, 0.003
        f_res = 1.0 / (2 * math.pi * math.sqrt(l_h * c_f))
        c = Circuit()
        c.vsource("vin", GROUND, 1.0)
        c.resistor("vin", "m", r_ohm)
        c.inductor("m", "a", l_h)
        c.capacitor("a", GROUND, c_f)
        freqs = np.geomspace(f_res / 10, f_res * 10, 201)
        z = ac_impedance(c, "a", freqs)
        peak_f = freqs[int(np.argmax(z))]
        assert peak_f == pytest.approx(f_res, rel=0.05)
        # Peak magnitude ~ Q * characteristic impedance.
        z0 = math.sqrt(l_h / c_f)
        q = z0 / r_ohm
        assert z.max() == pytest.approx(q * z0, rel=0.05)


class TestDomainImpedance:
    def test_profile_peaks_near_tank_resonance(self):
        builder = DomainPdnBuilder(technology("7nm"))
        f_res = builder.resonance_hz()
        freqs = np.geomspace(f_res / 20, f_res * 20, 101)
        z = impedance_profile(builder, freqs)
        peak_f = freqs[int(np.argmax(z))]
        # The 4-tile grid shifts the peak somewhat from the single-tile
        # estimate, but it stays in the same octave.
        assert f_res / 2 < peak_f < f_res * 2
        # Low-frequency impedance approaches the resistive path.
        tech = technology("7nm")
        assert z[0] == pytest.approx(tech.r_bump_ohm, rel=0.5)

    def test_newer_nodes_have_peakier_pdn(self):
        """Less decap and thinner wires at 7 nm raise the anti-resonant
        impedance versus 45 nm - the Fig. 1 mechanism."""
        z_peaks = {}
        for name in ("45nm", "7nm"):
            builder = DomainPdnBuilder(technology(name))
            f_res = builder.resonance_hz()
            freqs = np.geomspace(f_res / 10, f_res * 10, 61)
            z_peaks[name] = float(impedance_profile(builder, freqs).max())
        assert z_peaks["7nm"] > z_peaks["45nm"]
