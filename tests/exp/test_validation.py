"""Tests for the fast-vs-transient validation experiment."""

import pytest

from repro.exp.validation import (
    ValidationRow,
    ValidationSummary,
    print_validation,
    validate_on_manager_decisions,
)


@pytest.fixture(scope="module")
def summary():
    return validate_on_manager_decisions(
        benchmarks=("fft", "swaptions"), window_s=200e-9, dt_s=100e-12
    )


class TestValidation:
    def test_rows_cover_both_managers(self, summary):
        managers = {r.manager for r in summary.rows}
        assert managers == {"PARM", "HM"}
        benchmarks = {r.benchmark for r in summary.rows}
        assert benchmarks == {"fft", "swaptions"}

    def test_fast_model_tracks_transient(self, summary):
        assert summary.mean_abs_peak_error_pct < 2.0
        assert summary.worst_tile_error_pct < 5.0

    def test_rank_agreement(self, summary):
        """The fast model must order mappings by noise like the ground
        truth - that is what the runtime's decisions rest on."""
        assert summary.rank_agreement

    def test_parm_quieter_than_hm_in_both_models(self, summary):
        by = {(r.benchmark, r.manager): r for r in summary.rows}
        for name in ("fft", "swaptions"):
            parm = by[(name, "PARM")]
            hm = by[(name, "HM")]
            assert hm.transient_peak_pct > 2 * parm.transient_peak_pct
            assert hm.fast_peak_pct > 2 * parm.fast_peak_pct

    def test_print(self, summary, capsys):
        print_validation(summary)
        out = capsys.readouterr().out
        assert "rank agreement = True" in out
        assert "fft" in out


class TestSummaryMechanics:
    def test_rank_agreement_tolerates_near_ties(self):
        rows = (
            ValidationRow("a", "PARM", 0.4, 8, 3.0, 3.2, 0.2),
            ValidationRow("b", "PARM", 0.4, 8, 3.1, 3.0, 0.2),  # swapped, near tie
            ValidationRow("c", "HM", 0.8, 16, 10.0, 11.0, 1.0),
        )
        assert ValidationSummary(rows).rank_agreement

    def test_rank_agreement_fails_on_real_inversion(self):
        rows = (
            ValidationRow("a", "PARM", 0.4, 8, 3.0, 12.0, 9.0),
            ValidationRow("c", "HM", 0.8, 16, 10.0, 2.0, 8.0),
        )
        assert not ValidationSummary(rows).rank_agreement


def test_every_audit_is_one_transient_batch(monkeypatch):
    """All decisions' domains share one PDN plan and are solved as the
    lanes of a single batch."""
    from repro.pdn.circuit import Circuit

    batches = []
    real = Circuit.transient_lanes

    def counting(self, duration, dt, lanes, **kwargs):
        batches.append(len(lanes))
        return real(self, duration, dt, lanes, **kwargs)

    monkeypatch.setattr(Circuit, "transient_lanes", counting)
    summary = validate_on_manager_decisions(window_s=20e-9, dt_s=100e-12)
    assert len(summary.rows) == 8
    # One call for all 73 domains the 8 decisions occupy.
    assert batches == [73]
