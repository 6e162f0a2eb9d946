"""Crash-safe, resumable supervision of experiment campaigns.

The paper's evaluation (Figs. 6-10) is a long sweep of frameworks x
workloads x arrival intervals x seeds.  Before this module, one
``LinAlgError`` from a near-singular MNA matrix - or one hung transient
solve - killed the whole campaign with no partial results.  The
supervisor runs each (framework, workload, interval) *cell* as a
resumable unit:

* **content-hashed cell keys** - a cell's identity is the SHA-256 of
  its canonical spec, so a checkpoint survives reordering, subsetting,
  or extension of the campaign, and a spec change naturally invalidates
  only the cells it touches;
* **versioned JSON checkpoints** - progress is persisted after every
  cell through :class:`repro.runtime.checkpoint.CellCheckpoint`
  (schema-versioned, SHA-256-checksummed, atomically replaced, and
  encoding only the new cell's record per save), so a
  SIGKILL at any instant loses at most the in-flight cell and
  ``run(resume=True)`` re-executes nothing that already finished;
* **deadline watchdogs** - each cell runs on a daemon worker thread
  with a bounded ``join``; exceeding the deadline surfaces as
  :class:`~repro.harness.errors.SimTimeout` instead of a hang.  Python
  threads cannot be killed, so a timed-out worker is *abandoned*: it
  may keep consuming CPU until its solve finishes on its own.  To keep
  abandoned work from racing live work on shared state, the default
  cell runner (and its shared chip / profile-library cache) is
  discarded and rebuilt fresh after every timeout; a custom
  ``cell_runner`` is kept and must tolerate abandoned attempts;
* **bounded retries with seeded backoff** - retry budget and backoff
  curve reuse :class:`~repro.faults.recovery.RecoveryPolicy` semantics;
  jitter is seeded from the cell's content hash
  (:meth:`RecoveryPolicy.jittered_backoff_s`), so the schedule is
  deterministic and parmlint-clean (no wall clock, no global RNG).
  Delays are *recorded* as provenance; actually sleeping is opt-in via
  an injectable ``sleep_fn`` so tests and replays stay instant;
* **salvage** - completed cells always make it into the final
  :class:`CampaignOutcome` table; cells that exhaust their retry budget
  are listed in ``failed_cells`` with their full attempt history.

The result table serialisation is deterministic (sorted keys, no
timestamps), so an interrupted-then-resumed campaign produces output
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.faults.recovery import RecoveryPolicy
from repro.harness.errors import (
    ConfigError,
    ReproError,
    SimTimeout,
    jsonable_context,
)
from repro.runtime.checkpoint import CellCheckpoint

#: Schema name / version of the campaign checkpoint payload.
CAMPAIGN_SCHEMA = "parm-campaign"
CAMPAIGN_VERSION = 1

#: Hex digits of the cell content hash kept as the cell key.
_KEY_HEX_DIGITS = 16


def campaign_checkpoint(path: str) -> CellCheckpoint:
    """The (empty, not yet loaded) campaign cell map stored at ``path``."""
    return CellCheckpoint(path, CAMPAIGN_SCHEMA, CAMPAIGN_VERSION)


@runtime_checkable
class SupervisedCell(Protocol):
    """Structural contract of anything the supervisor can run.

    The supervisor machinery (checkpointing, retry, watchdog, parallel
    fan-out) touches a cell only through this surface, so any frozen,
    picklable value type implementing it can ride the campaign
    infrastructure - :class:`CampaignCell` is the canonical
    implementation, and the sequential verifier's
    :class:`~repro.exp.verify.sequential.ReplicaCell` reuses the whole
    stack (checkpoints, resume, workers) without subclassing.
    """

    @property
    def key(self) -> str:
        """Content-hashed identity (stable across processes)."""
        ...

    @property
    def label(self) -> str:
        """Human-readable name for logs and failure records."""
        ...

    def spec(self) -> Dict[str, Any]:
        """Canonical JSON spec (the input to the content hash)."""
        ...

    def validate(self) -> None:
        """Raise :class:`~repro.harness.errors.ConfigError` if unrunnable."""
        ...


#: A cell runner maps a cell spec to its result row (plain JSON types).
CellRunner = Callable[["SupervisedCell"], Dict[str, Any]]


@dataclass(frozen=True)
class CampaignCell:
    """One resumable unit of a campaign: a ``run_framework`` call.

    Attributes:
        framework: Evaluation framework name (e.g. ``"PARM+PANR"``).
        workload: Workload-type value (e.g. ``"compute"``).
        arrival_interval_s: Inter-application arrival interval.
        n_apps: Applications per sequence.
        seeds: One simulation per seed; results are seed-averaged.
    """

    framework: str
    workload: str
    arrival_interval_s: float
    n_apps: int = 20
    seeds: Tuple[int, ...] = (1, 2, 3)

    def validate(self) -> None:
        """Raise :class:`ConfigError` unless the cell can run."""
        from repro.apps.workload import WorkloadType
        from repro.exp.frameworks import framework as fw_lookup

        try:
            fw_lookup(self.framework)
        except KeyError as exc:
            raise ConfigError(
                "unknown framework", framework=self.framework
            ) from exc
        try:
            WorkloadType(self.workload)
        except ValueError as exc:
            raise ConfigError(
                "unknown workload type", workload=self.workload
            ) from exc
        if not self.seeds:
            raise ConfigError("cell needs at least one seed", **self._where())
        if self.n_apps <= 0:
            raise ConfigError(
                "n_apps must be positive", n_apps=self.n_apps, **self._where()
            )
        if not np.isfinite(self.arrival_interval_s) or (
            self.arrival_interval_s <= 0
        ):
            raise ConfigError(
                "arrival_interval_s must be positive and finite",
                arrival_interval_s=self.arrival_interval_s,
                **self._where(),
            )

    def _where(self) -> Dict[str, str]:
        return {"framework": self.framework, "workload": self.workload}

    def spec(self) -> Dict[str, Any]:
        """Canonical JSON spec (the input to the content hash)."""
        return {
            "framework": self.framework,
            "workload": self.workload,
            "arrival_interval_s": float(self.arrival_interval_s),
            "n_apps": int(self.n_apps),
            "seeds": [int(s) for s in self.seeds],
        }

    @property
    def key(self) -> str:
        """Content-hashed cell identity (stable across processes)."""
        canonical = json.dumps(
            {"schema": CAMPAIGN_SCHEMA, "spec": self.spec()},
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return digest[:_KEY_HEX_DIGITS]

    @property
    def label(self) -> str:
        """Human-readable cell name for logs and reports."""
        return (
            f"{self.framework}/{self.workload}"
            f"@{self.arrival_interval_s:g}s"
        )

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "CampaignCell":
        return cls(
            framework=str(spec["framework"]),
            workload=str(spec["workload"]),
            arrival_interval_s=float(spec["arrival_interval_s"]),
            n_apps=int(spec["n_apps"]),
            seeds=tuple(int(s) for s in spec["seeds"]),
        )


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry, backoff and watchdog limits of one supervised campaign.

    Attributes:
        recovery: Retry budget and backoff curve; the campaign reuses
            the fault-recovery semantics (``1 + max_remap_retries``
            attempts per cell, exponential backoff between them).
        deadline_s: Per-cell wall-clock watchdog; ``None`` disables it.
        jitter_fraction: Multiplicative backoff jitter amplitude, seeded
            from the cell key (see
            :meth:`RecoveryPolicy.jittered_backoff_s`).
    """

    recovery: RecoveryPolicy = field(
        default_factory=lambda: RecoveryPolicy(max_remap_retries=2)
    )
    deadline_s: Optional[float] = None
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")

    @property
    def max_attempts(self) -> int:
        """Total attempts per cell (the first try plus retries)."""
        return self.recovery.max_attempts

    def backoff_schedule_s(self, cell_key: str) -> List[float]:
        """Deterministic jittered delay before each retry of one cell."""
        rng = np.random.default_rng(int(cell_key, 16))
        return [
            self.recovery.jittered_backoff_s(i, rng, self.jitter_fraction)
            for i in range(self.recovery.max_remap_retries)
        ]


@dataclass(frozen=True)
class CellAttempt:
    """Provenance of one failed attempt at a cell."""

    index: int
    error_type: str
    error_message: str
    context: Dict[str, Any]
    #: Backoff recorded before the following attempt (0 after the last).
    backoff_s: float

    def to_json(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "context": self.context,
            "backoff_s": self.backoff_s,
        }

    @classmethod
    def from_json(cls, record: Dict[str, Any]) -> "CellAttempt":
        return cls(
            index=int(record["index"]),
            error_type=str(record["error_type"]),
            error_message=str(record["error_message"]),
            context=dict(record["context"]),
            backoff_s=float(record["backoff_s"]),
        )


#: Terminal cell states.
COMPLETED = "completed"
FAILED = "failed"


@dataclass(frozen=True)
class CellOutcome:
    """Terminal state of one cell, with full attempt provenance.

    ``from_checkpoint`` marks cells restored rather than executed in
    this process; it is deliberately *not* serialised into the result
    table, so resumed and uninterrupted campaigns emit identical bytes.
    """

    cell: SupervisedCell
    status: str
    result: Optional[Dict[str, Any]]
    attempts: Tuple[CellAttempt, ...] = ()
    from_checkpoint: bool = False

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED

    def record(self) -> Dict[str, Any]:
        """The outcome's checkpoint record (plain JSON types)."""
        return {
            "spec": self.cell.spec(),
            "status": self.status,
            "result": self.result,
            "attempts": [a.to_json() for a in self.attempts],
        }

    @classmethod
    def from_record(
        cls, cell: SupervisedCell, record: Dict[str, Any]
    ) -> "CellOutcome":
        """Restore a checkpointed outcome of ``cell``."""
        return cls(
            cell=cell,
            status=str(record["status"]),
            result=record["result"],
            attempts=tuple(
                CellAttempt.from_json(a) for a in record["attempts"]
            ),
            from_checkpoint=True,
        )


@dataclass(frozen=True)
class CampaignOutcome:
    """Final state of a campaign: salvage table plus failure provenance."""

    outcomes: Tuple[CellOutcome, ...]

    @property
    def completed_cells(self) -> Tuple[CellOutcome, ...]:
        return tuple(o for o in self.outcomes if o.completed)

    @property
    def failed_cells(self) -> Tuple[CellOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.completed)

    @property
    def restored_count(self) -> int:
        """Cells restored from the checkpoint instead of re-executed."""
        return sum(1 for o in self.outcomes if o.from_checkpoint)

    def table(self) -> Dict[str, Any]:
        """The final report table as plain JSON types.

        Deterministic by construction: cell order follows the campaign
        spec, keys are canonical, and no wall-clock data is included -
        a resumed campaign emits bytes identical to an uninterrupted
        one.
        """
        results = [dict(o.result or {}) for o in self.completed_cells]
        failed = [
            {
                "cell": o.cell.spec(),
                "key": o.cell.key,
                "attempts": [a.to_json() for a in o.attempts],
                "error_type": o.attempts[-1].error_type
                if o.attempts
                else "unknown",
                "error_message": o.attempts[-1].error_message
                if o.attempts
                else "",
            }
            for o in self.failed_cells
        ]
        return {
            "schema": CAMPAIGN_SCHEMA,
            "version": CAMPAIGN_VERSION,
            "results": results,
            "failed_cells": failed,
        }

    def table_json(self) -> str:
        """Canonical serialisation of :meth:`table` (byte-stable)."""
        return json.dumps(self.table(), sort_keys=True, indent=2) + "\n"


def _result_row(cell: CampaignCell, fr: Any) -> Dict[str, Any]:
    """Flatten a :class:`~repro.exp.runner.FrameworkResult` to JSON types.

    The per-run :class:`~repro.runtime.metrics.RunMetrics` detail is
    deliberately dropped: checkpoints carry the seed-averaged table the
    report needs, not megabytes of traces.
    """
    return {
        "cell": cell.spec(),
        "key": cell.key,
        "framework": fr.framework,
        "workload": fr.workload,
        "arrival_interval_s": float(fr.arrival_interval_s),
        "total_time_s": float(fr.total_time_s),
        "peak_psn_pct": float(fr.peak_psn_pct),
        "avg_psn_pct": float(fr.avg_psn_pct),
        "completed": float(fr.completed),
        "dropped": float(fr.dropped),
        "ve_count": float(fr.ve_count),
        "total_time_std_s": float(fr.total_time_std_s),
        "completed_std": float(fr.completed_std),
    }


def default_cell_runner() -> CellRunner:
    """The production cell runner: one ``run_framework`` call per cell.

    The chip description and profile library are built once and shared
    across cells (both are immutable inputs), matching what a manual
    sweep would do.
    """
    from repro.apps.suite import ProfileLibrary
    from repro.apps.workload import WorkloadType
    from repro.chip.cmp import default_chip
    from repro.exp.frameworks import framework as fw_lookup
    from repro.exp.runner import run_framework

    chip = default_chip()
    library = ProfileLibrary()

    def run(cell: CampaignCell) -> Dict[str, Any]:
        fr = run_framework(
            fw_lookup(cell.framework),
            WorkloadType(cell.workload),
            cell.arrival_interval_s,
            n_apps=cell.n_apps,
            seeds=cell.seeds,
            chip=chip,
            library=library,
        )
        return _result_row(cell, fr)

    return run


class CellExecutor:
    """Runs single cells with the watchdog / taxonomy / retry semantics.

    This is the execution unit shared by the serial
    :class:`CampaignSupervisor` loop and by the
    :mod:`repro.perf.parallel` process-pool workers: each worker process
    holds exactly one executor, so the default runner's shared chip /
    profile-library cache is built once per process and rebuilt after a
    timeout - exactly the serial semantics, per process.

    A cell's outcome depends only on ``(cell, policy, cell_runner)``:
    the backoff schedule is seeded from the cell's content hash and no
    wall-clock data is recorded, so the same cell produces the same
    outcome in any process, in any order.

    Args:
        policy: Retry/backoff/watchdog limits.
        cell_runner: Override runner; ``None`` builds
            :func:`default_cell_runner` lazily on first use.
        sleep_fn: Called with each recorded backoff delay before a
            retry; ``None`` records the schedule without sleeping.
    """

    def __init__(
        self,
        policy: SupervisorPolicy,
        cell_runner: Optional[CellRunner] = None,
        sleep_fn: Optional[Callable[[float], None]] = None,
    ) -> None:
        self._policy = policy
        self._cell_runner = cell_runner
        self._sleep_fn = sleep_fn
        #: The runner currently in use; rebuilt after a timeout when it
        #: is the (shared-state) default runner.
        self._runner: Optional[CellRunner] = cell_runner

    def run_cell(self, cell: SupervisedCell) -> CellOutcome:
        """Run one cell to a terminal state (retries included)."""
        attempts: List[CellAttempt] = []
        schedule = self._policy.backoff_schedule_s(cell.key)
        for attempt in range(self._policy.max_attempts):
            try:
                result = self._execute(cell)
                return CellOutcome(cell, COMPLETED, result, tuple(attempts))
            except ReproError as exc:
                if isinstance(exc, SimTimeout):
                    self._discard_runner()
                last = attempt == self._policy.max_attempts - 1
                backoff_s = 0.0 if last else schedule[attempt]
                attempts.append(
                    CellAttempt(
                        index=attempt,
                        error_type=type(exc).__name__,
                        error_message=exc.message,
                        context=jsonable_context(exc.context),
                        backoff_s=backoff_s,
                    )
                )
                if not last and self._sleep_fn is not None:
                    self._sleep_fn(backoff_s)
        return CellOutcome(cell, FAILED, None, tuple(attempts))

    def _current_runner(self) -> CellRunner:
        if self._runner is None:
            self._runner = self._cell_runner or default_cell_runner()
        return self._runner

    def _discard_runner(self) -> None:
        """Drop the default runner after a timed-out attempt.

        The abandoned daemon worker may still be executing against the
        runner's shared state (the chip and ``ProfileLibrary`` cache of
        :func:`default_cell_runner`), so later attempts get a freshly
        built runner and never race it.  A user-supplied ``cell_runner``
        cannot be rebuilt here and is kept (see
        :class:`CampaignSupervisor`).
        """
        if self._cell_runner is None:
            self._runner = None

    def _execute(self, cell: SupervisedCell) -> Dict[str, Any]:
        """Run one attempt, bounded by the deadline watchdog."""
        runner = self._current_runner()
        if self._policy.deadline_s is None:
            return self._guard(cell, runner)
        box: Dict[str, Any] = {}

        def target() -> None:
            try:
                box["result"] = self._guard(cell, runner)
            # Deferred re-raise: the exception is stored for the
            # supervising thread, which re-raises it right below - the
            # evidence is never swallowed.
            except BaseException as exc:  # parmlint: ok[broad-except]
                box["error"] = exc

        worker = threading.Thread(
            target=target, name=f"cell-{cell.key}", daemon=True
        )
        worker.start()
        worker.join(self._policy.deadline_s)
        if worker.is_alive():
            # The worker cannot be killed; it is abandoned (daemon
            # thread, may keep consuming CPU until its solve returns),
            # the cell is charged a timeout, and run_cell discards the
            # shared default runner so no live attempt races it.
            raise SimTimeout(
                "cell exceeded its deadline watchdog",
                cell=cell.label,
                key=cell.key,
                deadline_s=self._policy.deadline_s,
            )
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _guard(self, cell: SupervisedCell, runner: CellRunner) -> Dict[str, Any]:
        """Taxonomy boundary: classify anything a cell can raise."""
        try:
            return runner(cell)
        except ReproError:
            raise
        except Exception as exc:
            raise ReproError(
                "unclassified error while running cell",
                cell=cell.label,
                key=cell.key,
                error_type=type(exc).__name__,
                error=str(exc),
            ) from exc


class CampaignSupervisor:
    """Runs a campaign's cells as supervised, checkpointed units.

    Args:
        cells: The campaign, in report order.  Cell keys must be unique.
        checkpoint_path: JSON checkpoint location (written after every
            cell; loaded by ``run(resume=True)`` and :meth:`status`).
        policy: Retry/backoff/watchdog limits.
        cell_runner: Override for tests and custom campaigns; defaults
            to :func:`default_cell_runner` (built lazily on first run,
            and rebuilt after a cell timeout so abandoned workers never
            share state with live attempts).  A custom runner is reused
            across attempts even after a timeout - it must tolerate an
            abandoned attempt still executing in the background.  With
            ``workers > 1`` the runner must be picklable (a module-level
            callable), because it is shipped to spawned worker
            processes.
        sleep_fn: Called with each recorded backoff delay before a
            retry.  ``None`` (default) records the schedule without
            sleeping, keeping replays instant and deterministic.  Not
            forwarded to pool workers (``workers > 1`` records backoff
            without sleeping).
        workers: Number of worker processes for cell execution.  ``1``
            (default) runs serially in-process; ``N > 1`` fans pending
            cells across ``N`` spawned processes via
            :func:`repro.perf.parallel.run_cells`.  Results are merged
            in campaign order and checkpointed as each cell completes,
            so the final table and checkpoint are byte-identical to a
            serial run.
    """

    def __init__(
        self,
        cells: Sequence[SupervisedCell],
        checkpoint_path: str,
        policy: Optional[SupervisorPolicy] = None,
        cell_runner: Optional[CellRunner] = None,
        sleep_fn: Optional[Callable[[float], None]] = None,
        workers: int = 1,
    ) -> None:
        cells = tuple(cells)
        if not cells:
            raise ConfigError("campaign has no cells")
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ConfigError("duplicate campaign cells", keys=tuple(dupes))
        if workers < 1:
            raise ConfigError("workers must be >= 1", workers=workers)
        self._cells = cells
        self._checkpoint_path = checkpoint_path
        self._policy = policy or SupervisorPolicy()
        self._cell_runner = cell_runner
        self._sleep_fn = sleep_fn
        self._workers = int(workers)
        self._executor = CellExecutor(
            self._policy, cell_runner=cell_runner, sleep_fn=sleep_fn
        )

    @property
    def cells(self) -> Tuple[SupervisedCell, ...]:
        return self._cells

    @property
    def checkpoint_path(self) -> str:
        return self._checkpoint_path

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Summarise checkpoint progress without running anything."""
        summary: Dict[str, Any] = {
            "checkpoint": self._checkpoint_path,
            "exists": os.path.exists(self._checkpoint_path),
            "cells": len(self._cells),
            "completed": 0,
            "failed": 0,
            "pending": len(self._cells),
        }
        if not summary["exists"]:
            return summary
        checkpoint = campaign_checkpoint(self._checkpoint_path)
        checkpoint.load()
        for cell in self._cells:
            record = checkpoint.records.get(cell.key)
            if record is None:
                continue
            summary[record["status"]] += 1
            summary["pending"] -= 1
        return summary

    def run(
        self,
        resume: bool = False,
        retry_failed: bool = False,
        checkpoint: Optional[CellCheckpoint] = None,
    ) -> CampaignOutcome:
        """Execute (or resume) the campaign and return its outcome.

        With ``resume=True``, cells whose content-hash key is recorded
        in the checkpoint are restored, not re-executed - *including*
        cells recorded as failed, which stay failed.  Pass
        ``retry_failed=True`` to re-execute checkpointed failures
        instead (fresh retry budget; the checkpoint record is
        overwritten with the new outcome).  A missing checkpoint file
        simply starts fresh.  Without ``resume``, any existing
        checkpoint is overwritten.

        A caller that runs several supervisors over one checkpoint file
        passes its in-memory cell map as ``checkpoint`` (a
        :func:`campaign_checkpoint` of this supervisor's path, loaded or
        not as the caller decided): its records are restored as if
        resumed, commits go to it, and ``resume`` is not consulted, so
        the file is read at most once across all of them.

        Raises:
            ConfigError: when a cell spec is invalid (checked up front,
                before any cell runs).
            CheckpointCorrupt: when resuming from a damaged checkpoint.
        """
        for cell in self._cells:
            cell.validate()
        if checkpoint is None:
            checkpoint = campaign_checkpoint(self._checkpoint_path)
            if resume and os.path.exists(self._checkpoint_path):
                checkpoint.load()
        restored: Dict[str, CellOutcome] = {}
        pending: List[SupervisedCell] = []
        for cell in self._cells:
            record = checkpoint.records.get(cell.key)
            if record is not None and not (
                retry_failed and record.get("status") == FAILED
            ):
                restored[cell.key] = CellOutcome.from_record(cell, record)
            else:
                pending.append(cell)
        executed: Dict[str, CellOutcome] = {}

        def commit(outcome: CellOutcome) -> None:
            executed[outcome.cell.key] = outcome
            checkpoint.commit(outcome.cell.key, outcome.record())

        if self._workers > 1 and len(pending) > 1:
            # repro.perf builds on this module, so the pool is loaded at
            # run time (importlib) rather than imported statically: the
            # dependency is one-way per call and only exists when the
            # caller asked for workers > 1.
            run_cells = importlib.import_module(
                "repro.perf.parallel"
            ).run_cells
            # self._cell_runner is opaque here by design (any picklable
            # callable); the runners actually shipped through it
            # (run_replica_cell, None -> default_cell_runner built
            # in-worker) are registered in WORKER_ROOTS, and run_cells
            # itself rejects unpicklable runners before the pool starts.
            # parmlint: ok[worker-safety] - opaque runner, see above
            run_cells(
                pending,
                self._policy,
                workers=self._workers,
                cell_runner=self._cell_runner,
                on_outcome=commit,
            )
        else:
            for cell in pending:
                commit(self._run_cell(cell))
        return CampaignOutcome(
            tuple(
                restored[c.key] if c.key in restored else executed[c.key]
                for c in self._cells
            )
        )

    # ------------------------------------------------------------------
    # Cell execution (delegated to the shared CellExecutor unit)
    # ------------------------------------------------------------------

    def _run_cell(self, cell: SupervisedCell) -> CellOutcome:
        return self._executor.run_cell(cell)
