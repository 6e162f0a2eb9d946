"""Tests for the transient PSN analysis and the paper's Fig. 3 behaviours.

These run the MNA solver, so each analysis takes a noticeable fraction of
a second; the suite keeps the count modest and shares module-scoped
fixtures.
"""

import numpy as np
import pytest

from repro.chip.power import PowerModel
from repro.chip.technology import technology
from repro.pdn.transient import (
    SAME_BIN_JITTER_S,
    PsnTransientAnalysis,
    apply_phase_convention,
    pair_loads,
)
from repro.pdn.waveforms import ActivityBin, TileLoad


@pytest.fixture(scope="module")
def tech():
    return technology("7nm")


@pytest.fixture(scope="module")
def analysis(tech):
    return PsnTransientAnalysis(tech)


@pytest.fixture(scope="module")
def power(tech):
    return PowerModel(tech)


def make_load(power, vdd, activity, bin_, flits=0.5):
    core = power.core_dynamic(activity, vdd) + power.core_leakage(vdd)
    router = power.router_dynamic(flits, vdd) + power.router_leakage(vdd)
    return TileLoad(core, router, bin_)


class TestPhaseConvention:
    def test_same_bin_tasks_get_laddered_phases(self):
        loads = [
            TileLoad(0.3, 0.0, ActivityBin.HIGH),
            TileLoad(0.3, 0.0, ActivityBin.HIGH),
            TileLoad(0.1, 0.0, ActivityBin.LOW),
            TileLoad(0.3, 0.0, ActivityBin.HIGH),
        ]
        out = apply_phase_convention(loads)
        highs = [l for l in out if l.activity_bin is ActivityBin.HIGH]
        assert [l.phase_s for l in highs] == [
            0.0,
            SAME_BIN_JITTER_S,
            2 * SAME_BIN_JITTER_S,
        ]
        lows = [l for l in out if l.activity_bin is ActivityBin.LOW]
        assert lows[0].phase_s == 0.0

    def test_idle_tiles_unchanged(self):
        idle = TileLoad.idle()
        out = apply_phase_convention([idle] * 4)
        assert out == [idle] * 4

    def test_bins_counted_independently(self):
        loads = [
            TileLoad(0.3, 0.0, ActivityBin.HIGH),
            TileLoad(0.1, 0.0, ActivityBin.LOW),
            TileLoad(0.3, 0.0, ActivityBin.HIGH),
            TileLoad(0.1, 0.0, ActivityBin.LOW),
        ]
        out = apply_phase_convention(loads)
        assert out[0].phase_s == 0.0
        assert out[1].phase_s == 0.0
        assert out[2].phase_s == SAME_BIN_JITTER_S
        assert out[3].phase_s == SAME_BIN_JITTER_S


class TestAnalysis:
    def test_idle_domain_has_negligible_psn(self, analysis):
        report = analysis.analyze(0.5, [TileLoad.idle()] * 4)
        assert report.domain_peak_pct == pytest.approx(0.0, abs=1e-6)
        assert report.domain_avg_pct == pytest.approx(0.0, abs=1e-6)

    def test_load_count_validated(self, analysis):
        with pytest.raises(ValueError):
            analysis.analyze(0.5, [TileLoad.idle()] * 3)

    def test_window_validation(self, tech):
        with pytest.raises(ValueError):
            PsnTransientAnalysis(tech, window_s=0.0)
        with pytest.raises(ValueError):
            PsnTransientAnalysis(tech, window_s=1e-9, dt_s=2e-9)

    def test_loaded_tile_has_highest_psn(self, analysis, power):
        loads = [TileLoad.idle()] * 4
        loads[2] = make_load(power, 0.5, 0.7, ActivityBin.HIGH)
        report = analysis.analyze(0.5, loads)
        assert int(np.argmax(report.peak_psn_pct)) == 2
        assert report.peak_psn_pct[2] > 1.0
        assert report.domain_peak_pct == report.peak_psn_pct[2]
        assert np.all(report.avg_psn_pct <= report.peak_psn_pct)

    def test_peak_psn_grows_with_vdd(self, analysis, power):
        """Fig. 3a: peak PSN (percent of Vdd) rises with supply voltage."""
        peaks = []
        for vdd in (0.4, 0.6, 0.8):
            loads = [
                make_load(power, vdd, 0.7, ActivityBin.HIGH),
                make_load(power, vdd, 0.65, ActivityBin.HIGH),
                make_load(power, vdd, 0.2, ActivityBin.LOW),
                make_load(power, vdd, 0.25, ActivityBin.LOW),
            ]
            peaks.append(analysis.analyze(vdd, loads).domain_peak_pct)
        assert peaks[0] < peaks[1] < peaks[2]

    def test_communication_noisier_than_compute(self, analysis, power):
        """Fig. 3a holds for both workload kinds, comm slightly higher."""
        vdd = 0.6

        def domain(flits):
            loads = [
                make_load(power, vdd, 0.7, ActivityBin.HIGH, flits),
                make_load(power, vdd, 0.65, ActivityBin.HIGH, flits),
                make_load(power, vdd, 0.2, ActivityBin.LOW, flits),
                make_load(power, vdd, 0.25, ActivityBin.LOW, flits),
            ]
            return analysis.analyze(vdd, loads).domain_peak_pct

        assert domain(2.5) > domain(0.3)


class TestPairInterference:
    """The Fig. 3b behaviours, measured as interference components."""

    @pytest.fixture(scope="class")
    def bars(self, analysis, power):
        # Pair characterisation runs at the nominal voltage, where the
        # inductive coupling regime (and hence the hop-distance effect)
        # is strongest.
        vdd = 0.8
        high = make_load(power, vdd, 0.7, ActivityBin.HIGH)
        high2 = make_load(power, vdd, 0.65, ActivityBin.HIGH)
        low = make_load(power, vdd, 0.25, ActivityBin.LOW)
        low2 = make_load(power, vdd, 0.2, ActivityBin.LOW)

        def solo(load, pos):
            loads = [TileLoad.idle()] * 4
            loads[pos] = load
            return analysis.analyze(vdd, loads).peak_psn_pct[pos]

        def interference(load_a, load_b, hops):
            pos_b = 1 if hops == 1 else 3
            report = analysis.analyze(vdd, pair_loads(load_a, load_b, hops))
            return max(
                report.peak_psn_pct[0] - solo(load_a, 0),
                report.peak_psn_pct[pos_b] - solo(load_b, pos_b),
            )

        return {
            ("HH", 1): interference(high, high2, 1),
            ("HL", 1): interference(high, low, 1),
            ("HL", 2): interference(high, low, 2),
            ("LL", 1): interference(low, low2, 1),
        }

    def test_high_low_interferes_most(self, bars):
        assert bars[("HL", 1)] > bars[("HH", 1)]
        assert bars[("HL", 1)] > bars[("LL", 1)]

    def test_high_low_excess_roughly_35_percent(self, bars):
        """Paper: H-L interference up to ~35 % higher than H-H."""
        excess = bars[("HL", 1)] / bars[("HH", 1)]
        assert 1.2 < excess < 1.6

    def test_two_hops_interfere_less(self, bars):
        """Paper: 2-hop separation interferes ~10 % less than 1-hop."""
        ratio = bars[("HL", 2)] / bars[("HL", 1)]
        assert 0.75 < ratio < 0.97

    def test_invalid_hops_rejected(self, power):
        load = make_load(power, 0.5, 0.5, ActivityBin.HIGH)
        with pytest.raises(ValueError, match="hops"):
            pair_loads(load, load, 3)


class TestPlanReuse:
    """The second solve of one analyser must reuse the LU factorisation."""

    def _splu_counter(self, monkeypatch):
        import repro.pdn.circuit as circuit_mod

        calls = {"n": 0}
        real_splu = circuit_mod.spla.splu

        def counting_splu(*args, **kwargs):
            calls["n"] += 1
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(circuit_mod.spla, "splu", counting_splu)
        return calls

    def test_second_solve_reuses_factorisation(
        self, tech, power, monkeypatch
    ):
        calls = self._splu_counter(monkeypatch)
        analysis = PsnTransientAnalysis(tech, window_s=10e-9)
        loads = [
            make_load(power, 0.6, 0.7, ActivityBin.HIGH) for _ in range(4)
        ]
        first = analysis.analyze(0.6, loads)
        primed = calls["n"]
        assert primed >= 1  # DC + transient factorisations
        # Same workload, a different workload, and a different supply
        # voltage: all enter through the right-hand side only, so none
        # may factorise again.
        analysis.analyze(0.6, loads)
        analysis.analyze(0.7, loads)
        low = [make_load(power, 0.5, 0.2, ActivityBin.LOW) for _ in range(4)]
        analysis.analyze(0.5, low)
        assert calls["n"] == primed
        again = analysis.analyze(0.6, loads)
        np.testing.assert_array_equal(first.peak_psn_pct, again.peak_psn_pct)
