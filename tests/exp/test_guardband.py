"""Tests for the guardband/decap savings analysis."""

import sys
from pathlib import Path

import numpy as np
import pytest

# The AC analysis is a test helper of the PDN tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "pdn"))
from ac_impedance import ac_impedance  # noqa: E402
from repro.chip.technology import technology
from repro.exp.guardband import (
    equivalent_decap_factor,
    guardband_pct,
    guardband_table,
    print_guardband,
)
from repro.pdn.circuit import GROUND, Circuit


class TestGuardband:
    def test_zero_psn_zero_guardband(self):
        assert guardband_pct(0.0, 0.8) == pytest.approx(0.0)

    def test_guardband_grows_with_psn(self):
        values = [guardband_pct(p, 0.8) for p in (2.0, 5.0, 13.0)]
        assert values == sorted(values)
        assert values[-1] > 10.0

    def test_ntc_margin_is_thinner(self):
        """The same droop costs more frequency near threshold - the
        paper's NTC motivation."""
        assert guardband_pct(5.0, 0.4) > guardband_pct(5.0, 0.8)

    def test_full_margin_consumed(self):
        """A droop that pushes Vdd to the threshold voltage costs the
        entire clock."""
        tech = technology("7nm")
        psn = 100.0 * (1.0 - tech.vth / 0.4) + 1.0
        assert guardband_pct(psn, 0.4) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            guardband_pct(-1.0, 0.8)
        with pytest.raises(ValueError):
            guardband_pct(100.0, 0.8)

    def test_table_and_print(self, capsys):
        """Compared at the same NTC operating point, HM-level noise
        would cost far more guardband than PARM-level noise - the point
        of running PSN-aware at near threshold."""
        rows = guardband_table(
            {"HM-level": (0.4, 15.0), "PARM-level": (0.4, 4.7)}
        )
        by = {r.label: r for r in rows}
        assert by["PARM-level"].guardband_pct < 0.6 * by["HM-level"].guardband_pct
        assert by["HM-level"].relative_frequency < 1.0
        print_guardband(rows)
        out = capsys.readouterr().out
        assert "HM-level" in out and "guardband" in out


class TestEquivalentDecap:
    def test_linear_law(self):
        assert equivalent_decap_factor(1.0) == 1.0
        assert equivalent_decap_factor(2.0) == 2.0
        with pytest.raises(ValueError):
            equivalent_decap_factor(0.5)

    def test_matches_ac_impedance_scaling(self):
        """Verify L/(RC) against the AC solver: 4x decap cuts the peak
        impedance of the series-damped tank by ~4x."""
        import math

        def peak_z(c_f):
            c = Circuit()
            c.vsource("vin", GROUND, 1.0)
            c.resistor("vin", "m", 0.003)
            c.inductor("m", "a", 20e-12)
            c.capacitor("a", GROUND, c_f)
            f_res = 1.0 / (2 * math.pi * math.sqrt(20e-12 * c_f))
            freqs = np.geomspace(f_res / 5, f_res * 5, 121)
            return float(ac_impedance(c, "a", freqs).max())

        ratio = peak_z(8.5e-9) / peak_z(4 * 8.5e-9)
        assert ratio == pytest.approx(4.0, rel=0.1)
