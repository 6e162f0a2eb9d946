"""Tests for the checkpoint cost model and run metrics."""

import pytest

from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.metrics import AppRecord, RunMetrics


class TestCheckpointPolicy:
    def test_paper_defaults(self):
        policy = CheckpointPolicy()
        assert policy.period_s == pytest.approx(1e-3)
        assert policy.checkpoint_cycles == 256
        assert policy.rollback_cycles == 10000

    def test_dilation_small_but_positive(self):
        policy = CheckpointPolicy()
        dilation = policy.execution_dilation(1e9)
        # 256 cycles per 1e6-cycle period: 0.0256 % overhead.
        assert dilation == pytest.approx(1.000256)

    def test_rollback_penalty_dominated_by_reexecution(self):
        policy = CheckpointPolicy()
        penalty = policy.rollback_penalty_s(1e9)
        assert penalty == pytest.approx(10e-6 + 0.5e-3)

    def test_slower_clock_costs_more(self):
        policy = CheckpointPolicy()
        assert policy.rollback_penalty_s(0.5e9) > policy.rollback_penalty_s(2e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(period_s=0.0)
        with pytest.raises(ValueError):
            CheckpointPolicy(checkpoint_cycles=-1)
        with pytest.raises(ValueError):
            CheckpointPolicy().execution_dilation(0.0)
        with pytest.raises(ValueError):
            CheckpointPolicy().rollback_penalty_s(-1.0)


class TestAppRecord:
    def test_lifecycle_flags(self):
        rec = AppRecord(0, "fft", arrival_s=0.0, deadline_s=1.0)
        assert not rec.completed and not rec.dropped
        rec.finished_s = 0.9
        assert rec.completed and rec.met_deadline
        late = AppRecord(1, "fft", arrival_s=0.0, deadline_s=1.0)
        late.finished_s = 1.5
        assert late.completed and not late.met_deadline
        dropped = AppRecord(2, "fft", arrival_s=0.0, deadline_s=1.0)
        dropped.dropped_s = 0.4
        assert dropped.dropped and not dropped.completed


class TestRunMetrics:
    def test_counts(self):
        m = RunMetrics()
        for i in range(3):
            m.apps[i] = AppRecord(i, "x", 0.0, 1.0)
        m.apps[0].finished_s = 0.5
        m.apps[1].dropped_s = 0.5
        assert m.completed_count == 1
        assert m.dropped_count == 1
        assert m.apps[0].met_deadline

    def test_psn_interval_accounting(self):
        m = RunMetrics()
        m.record_psn_interval(1.0, [2.0, 4.0], peak_pct=6.0)
        assert m.peak_psn_pct == 6.0
        assert m.avg_psn_pct == pytest.approx(3.0)
        m.record_psn_interval(3.0, [1.0], peak_pct=2.0)
        # Weighted: (1*2 + 1*4 + 3*1) / (2 + 3) tile-seconds.
        assert m.avg_psn_pct == pytest.approx(9.0 / 5.0)
        assert m.peak_psn_pct == 6.0  # running maximum

    def test_empty_interval_ignored(self):
        m = RunMetrics()
        m.record_psn_interval(0.0, [5.0], peak_pct=1.0)
        assert m.avg_psn_pct == 0.0
        with pytest.raises(ValueError):
            m.record_psn_interval(-1.0, [], 0.0)
