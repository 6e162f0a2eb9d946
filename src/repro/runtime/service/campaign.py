"""Epoch-chunked, crash-safe execution of a service run.

A service run is an open-ended simulation; checkpointing it as one
giant cell would lose everything to a SIGKILL near the end.  Instead
the run is chunked into epochs: each :class:`ServiceEpochCell` is a
*pure function* ``(config, entry state) -> exit state`` whose identity
content-hashes both inputs, executed by one
:class:`~repro.harness.supervisor.CellExecutor` (retries, watchdog,
error taxonomy) and committed to one shared checkpoint file.  Because
epoch N's cell key embeds epoch N-1's exit state, a resumed campaign
restores the exact chain of states and emits traffic JSON
byte-identical to an uninterrupted run - the property the
``service-smoke`` CI job kills a run mid-flight to assert.

All epochs share one :class:`~repro.runtime.checkpoint.CellCheckpoint`
in memory: the file is read only on ``run(resume=True)``, and each
epoch's commit encodes only that epoch's record and splices it into
the cached encodings of the earlier ones.  The file after every epoch
is byte-identical to a
:class:`~repro.harness.supervisor.CampaignSupervisor` checkpoint of the
same cells (schema ``parm-campaign``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.harness.errors import ConfigError, ReproError
from repro.harness.supervisor import (
    COMPLETED,
    CellExecutor,
    CellOutcome,
    SupervisorPolicy,
    campaign_checkpoint,
)
from repro.runtime.service.config import ServiceConfig
from repro.runtime.service.engine import ServiceEngine, ServiceState

#: Schema name / version of the service checkpoint and traffic payloads.
SERVICE_SCHEMA = "parm-service"
SERVICE_VERSION = 1

#: Hex digits of the cell content hash kept as the cell key.
_KEY_HEX_DIGITS = 16


def _canonical(data: Dict[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ServiceEpochCell:
    """One supervised epoch: ``(config, entry state) -> exit state``.

    Attributes:
        config_json: Canonical :meth:`ServiceConfig.spec` JSON.
        epoch: Index of the epoch this cell advances past.
        entry_state_json: Canonical entry :meth:`ServiceState.to_json`
            JSON; hashing it into the key chains the cells, so a resume
            can only reuse an epoch whose entire history matches.
    """

    config_json: str
    epoch: int
    entry_state_json: str

    def spec(self) -> Dict[str, Any]:
        return {
            "config": json.loads(self.config_json),
            "entry_state": json.loads(self.entry_state_json),
            "epoch": int(self.epoch),
        }

    @property
    def key(self) -> str:
        canonical = _canonical(
            {"schema": SERVICE_SCHEMA, "spec": self.spec()}
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[
            :_KEY_HEX_DIGITS
        ]

    @property
    def label(self) -> str:
        framework = json.loads(self.config_json).get("framework", "?")
        return f"service/{framework}@epoch{self.epoch}"

    def validate(self) -> None:
        config = ServiceConfig.from_spec(json.loads(self.config_json))
        if not 0 <= self.epoch < config.epochs:
            raise ConfigError(
                "epoch index outside the campaign",
                epoch=self.epoch,
                epochs=config.epochs,
            )
        entry = json.loads(self.entry_state_json)
        if int(entry["epoch"]) != self.epoch:
            raise ConfigError(
                "entry state does not match the cell's epoch",
                epoch=self.epoch,
                state_epoch=entry["epoch"],
            )


#: Per-process engine memo keyed by the config's canonical JSON.  An
#: engine is a deterministic pure function of its config (plus chip
#: immutables built from constants), so reusing one per process is safe
#: and skips the profile-library warm-up on every epoch.
_ENGINE_CACHE: Dict[str, ServiceEngine] = {}  # parmlint: ok[worker-safety] - deterministic per-process memo


def run_service_epoch(cell: ServiceEpochCell) -> Dict[str, Any]:
    """Cell runner: advance the service by one epoch.

    Module-level (and registered in
    :data:`repro.perf.parallel.WORKER_ROOTS`) so the supervisor can ship
    it to worker processes.
    """
    engine = _ENGINE_CACHE.get(cell.config_json)
    if engine is None:
        config = ServiceConfig.from_spec(json.loads(cell.config_json))
        engine = ServiceEngine(config)
        # Deterministic per-process memo: the engine is a pure function
        # of the config JSON (content-hashed into the cell key), so
        # every worker computes the identical entry and epoch results
        # cannot depend on which worker ran which epoch.
        # parmlint: ok[worker-safety] - deterministic per-process memo
        _ENGINE_CACHE[cell.config_json] = engine
    else:
        config = engine.config
    state = ServiceState.from_json(
        json.loads(cell.entry_state_json), config
    )
    engine.run_epoch(state)
    return {
        "epoch": int(cell.epoch),
        "exit_state": state.to_json(),
        "key": cell.key,
    }


class ServiceCampaign:
    """Runs a :class:`ServiceConfig` epoch-by-epoch under supervision.

    Args:
        config: The service description.
        checkpoint_path: Shared checkpoint file; every completed epoch
            is committed here, so a SIGKILL loses at most the in-flight
            epoch and ``run(resume=True)`` replays nothing finished.
        policy: Supervisor retry/backoff/watchdog limits.
        sleep_fn: Backoff sleep hook (``None`` records without
            sleeping).
    """

    def __init__(
        self,
        config: ServiceConfig,
        checkpoint_path: str,
        policy: Optional[SupervisorPolicy] = None,
        sleep_fn: Optional[Callable[[float], None]] = None,
    ) -> None:
        self._config = config
        self._checkpoint_path = checkpoint_path
        self._policy = policy or SupervisorPolicy()
        self._sleep_fn = sleep_fn
        self._config_json = _canonical(config.spec())

    @property
    def config(self) -> ServiceConfig:
        return self._config

    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Checkpoint progress without running anything."""
        summary: Dict[str, Any] = {
            "checkpoint": self._checkpoint_path,
            "exists": os.path.exists(self._checkpoint_path),
            "epochs": int(self._config.epochs),
            "completed": 0,
            "failed": 0,
        }
        if not summary["exists"]:
            return summary
        checkpoint = campaign_checkpoint(self._checkpoint_path)
        checkpoint.load()
        for record in checkpoint.records.values():
            status = record.get("status")
            if status in summary:
                summary[status] += 1
        return summary

    def run(self, resume: bool = False) -> Dict[str, Any]:
        """Execute (or resume) every epoch; return the traffic payload.

        With ``resume=True`` an existing checkpoint is loaded once: an
        epoch recorded as completed is restored, one recorded as failed
        is re-run with a fresh retry budget.  Without it the checkpoint
        starts empty and is overwritten by the first commit.

        Raises:
            ReproError: when an epoch exhausts its retry budget (with
                the supervisor's full attempt provenance in context).
        """
        executor = CellExecutor(
            self._policy, run_service_epoch, self._sleep_fn
        )
        checkpoint = campaign_checkpoint(self._checkpoint_path)
        if resume and os.path.exists(self._checkpoint_path):
            checkpoint.load()
        state = ServiceState(self._config)
        for epoch in range(self._config.epochs):
            cell = ServiceEpochCell(
                config_json=self._config_json,
                epoch=epoch,
                entry_state_json=_canonical(state.to_json()),
            )
            cell.validate()
            record = checkpoint.records.get(cell.key)
            if record is not None and record.get("status") == COMPLETED:
                outcome = CellOutcome.from_record(cell, record)
            else:
                outcome = executor.run_cell(cell)
                checkpoint.commit(cell.key, outcome.record())
            if not outcome.completed:
                attempts = [a.to_json() for a in outcome.attempts]
                raise ReproError(
                    "service epoch failed after exhausting its retries",
                    epoch=epoch,
                    cell=cell.label,
                    key=cell.key,
                    attempts=attempts,
                )
            state = ServiceState.from_json(
                outcome.result["exit_state"], self._config
            )
        return self.traffic_payload(state)

    # ------------------------------------------------------------------

    def traffic_payload(self, state: ServiceState) -> Dict[str, Any]:
        """The run's deterministic traffic report payload.

        Contains the full final state, so byte-comparing two payloads
        compares the entire visible history of the service.
        """
        stats = state.stats
        classes: Dict[str, Any] = {}
        for name in self._config.class_names:
            c = stats.cls(name)
            arrived = c.counters["arrived"]
            classes[name] = {
                "counters": {
                    k: int(v) for k, v in sorted(c.counters.items())
                },
                "drop_fraction": (
                    (c.counters["rejected"] + c.counters["dropped"])
                    / arrived
                    if arrived
                    else 0.0
                ),
                "shed_fraction": (
                    c.counters["shed"] / arrived if arrived else 0.0
                ),
                "sla_miss_fraction": (
                    c.counters["sla_missed"]
                    / (c.counters["sla_met"] + c.counters["sla_missed"])
                    if (c.counters["sla_met"] + c.counters["sla_missed"])
                    else 0.0
                ),
                "wait_mean_s": c.wait.moments.mean_s,
                "wait_p95_s": c.wait.quantile_s(0.95),
                "sojourn_mean_s": c.sojourn.moments.mean_s,
                "sojourn_p99_s": c.sojourn.quantile_s(0.99),
            }
        return {
            "classes": classes,
            "config": json.loads(self._config_json),
            "final_state": state.to_json(),
            "schema": SERVICE_SCHEMA,
            "totals": {
                "arrived": stats.total("arrived"),
                "avg_psn_pct": stats.avg_psn_pct,
                "completed": stats.total("completed"),
                "drop_fraction": stats.rate_fraction("rejected")
                + stats.rate_fraction("dropped"),
                "fault_count": int(stats.fault_count),
                "peak_psn_pct": stats.peak_psn_pct,
                "shed_events": int(stats.shed_events),
                "shed_fraction": stats.rate_fraction("shed"),
                "utilization_fraction": stats.utilization_fraction,
                "ve_count": int(stats.ve_count),
            },
            "version": SERVICE_VERSION,
        }


def traffic_json(payload: Dict[str, Any]) -> str:
    """Canonical byte-stable serialisation of a traffic payload."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
