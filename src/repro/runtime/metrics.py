"""Metrics collected by the runtime simulator for the paper's figures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class AppRecord:
    """Lifecycle of one application in a run.

    Times in seconds; ``None`` while the stage has not happened.
    """

    app_id: int
    name: str
    arrival_s: float
    deadline_s: float
    mapped_s: Optional[float] = None
    finished_s: Optional[float] = None
    dropped_s: Optional[float] = None
    #: Set when fault recovery exhausted its re-mapping retries: the
    #: application was abandoned because the degraded chip could no
    #: longer host it (distinct from a deadline-driven drop).
    failed_s: Optional[float] = None
    vdd: Optional[float] = None
    dop: Optional[int] = None
    ve_count: int = 0
    migrated_tasks: int = 0
    #: Fault-triggered re-mappings this application survived.
    remap_count: int = 0

    @property
    def completed(self) -> bool:
        return self.finished_s is not None

    @property
    def dropped(self) -> bool:
        return self.dropped_s is not None

    @property
    def failed(self) -> bool:
        """Abandoned after fault-recovery retries were exhausted."""
        return self.failed_s is not None

    @property
    def degraded(self) -> bool:
        """Completed, but only after fault-triggered re-mapping."""
        return self.completed and self.remap_count > 0

    @property
    def met_deadline(self) -> bool:
        return self.completed and self.finished_s <= self.deadline_s + 1e-9


@dataclass
class RunMetrics:
    """Aggregate results of one runtime simulation.

    Attributes:
        apps: Per-application lifecycle records keyed by app id.
        total_time_s: Completion time of the last finished application -
            the paper's Fig. 6 metric ("total time taken to execute the
            applications").
        peak_psn_pct: Worst per-tile peak PSN observed - Fig. 7.
        avg_psn_pct: Time- and tile-weighted mean PSN over occupied
            tiles - Fig. 7.
        total_ve_count: Voltage emergencies across the run.
        reactive_move_count: Hotspot-triggered thread migrations (only
            when a :class:`~repro.runtime.migration.ReactiveMigrationPolicy`
            is active).
        fault_count: Fault events injected over the run (only when a
            :class:`~repro.faults.campaign.FaultCampaign` is active).
        remap_count: Successful fault-triggered re-mappings.
        remap_retry_count: Re-mapping retry attempts (beyond each
            recovery's immediate attempt).
    """

    apps: Dict[int, AppRecord] = field(default_factory=dict)
    total_time_s: float = 0.0
    peak_psn_pct: float = 0.0
    avg_psn_pct: float = 0.0
    total_ve_count: int = 0
    reactive_move_count: int = 0
    fault_count: int = 0
    remap_count: int = 0
    remap_retry_count: int = 0
    #: Optional time series of ``(time_s, chip_peak_psn_pct,
    #: occupied_tiles)`` snapshots, filled when the simulator runs with
    #: ``record_trace=True``.
    trace: List[Tuple[float, float, int]] = field(default_factory=list)
    # Internal accumulators for the time-weighted average.
    _psn_weight: float = 0.0
    _psn_accum: float = 0.0

    @property
    def completed_count(self) -> int:
        return sum(1 for a in self.apps.values() if a.completed)

    @property
    def dropped_count(self) -> int:
        return sum(1 for a in self.apps.values() if a.dropped)

    @property
    def failed_count(self) -> int:
        """Applications abandoned after fault-recovery retries ran out."""
        return sum(1 for a in self.apps.values() if a.failed)

    @property
    def degraded_count(self) -> int:
        """Applications that completed despite fault-triggered re-maps."""
        return sum(1 for a in self.apps.values() if a.degraded)

    def record_psn_interval(
        self, duration_s: float, occupied_avg_psn: List[float], peak_pct: float
    ) -> None:
        """Fold one inter-event interval into the PSN statistics."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        self.peak_psn_pct = max(self.peak_psn_pct, peak_pct)
        if occupied_avg_psn and duration_s > 0:
            weight = duration_s * len(occupied_avg_psn)
            self._psn_accum += duration_s * sum(occupied_avg_psn)
            self._psn_weight += weight
            self.avg_psn_pct = self._psn_accum / self._psn_weight
