"""Deterministic process-pool execution of campaign cells and map tasks.

Both fan-outs of the code base go through one dispatch loop,
:func:`map_tasks`: the routing sweep maps
:func:`repro.exp.routing_sweep.run_batch` over its policy groups, and
:func:`run_cells` maps :func:`_run_cell_task` over pending
:class:`~repro.harness.supervisor.CampaignCell` runs.  Every guarantee
of the serial :class:`~repro.harness.supervisor.CampaignSupervisor`
loop is preserved:

* **determinism** - a task's result depends only on the task: a cell's
  outcome is a pure function of ``(cell, policy, cell_runner)`` (the
  retry backoff schedule is seeded from the cell's content hash and no
  wall-clock data is recorded), so the same task produces the same
  result in any worker, in any order.  Results are merged back by task
  index.
* **watchdog / retry / taxonomy semantics** - each worker process runs
  cells on one :class:`~repro.harness.supervisor.CellExecutor`, the
  exact unit the serial loop runs, so deadlines, retries and error
  classification behave identically.  The default runner's shared chip
  / profile-library cache is built once per worker and rebuilt after a
  timeout, mirroring the serial discard-on-timeout rule per process.
* **crash safety** - the parent invokes ``on_result`` as each task
  completes, so the supervisor checkpoints progress continuously; a
  kill loses at most the tasks in flight, and the checkpoint payload is
  key-sorted, so the final bytes match a serial run's exactly.

The ``spawn`` start method is mandatory (see :data:`START_METHOD`): it
gives every worker a fresh interpreter with no inherited locks, RNG
state or solver caches, which both avoids fork-after-thread hazards
(the supervisor's watchdog uses threads) and keeps workers identical to
a fresh serial process.  parmlint's ``process-pool`` rule enforces that
no other module spawns workers behind the supervisor's back.

Worker processes are *persistent*: :func:`map_tasks` leases the
process-lifetime pool of :mod:`repro.perf.pool` (one per worker
count), whose workers keep their imports, cell executor and lookup
tables across calls.  Each call cancels only its own futures on exit
and flags - never shuts down - a broken pool, so interleaved batches
cannot cancel each other's queued work.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.perf import pool as warm_pool
from repro.harness.errors import ConfigError, ReproError, WorkerCrash
from repro.harness.supervisor import (
    SupervisedCell,
    CellExecutor,
    CellOutcome,
    CellRunner,
    SupervisorPolicy,
)

#: Multiprocessing start method.  ``spawn`` starts each worker from a
#: fresh interpreter - deterministic, thread-safe, and identical across
#: platforms - where ``fork`` would inherit the parent's entire heap
#: (solver caches, RNG state, held locks) into every worker.
START_METHOD = "spawn"

#: Every callable shipped into a worker process, by dotted name.  This
#: is the root set of parmlint's interprocedural ``worker-safety``
#: analysis: the transitive closure of these callables must not mutate
#: module globals, read the wall clock/environment, or capture
#: unpicklable state (see docs/lint.md).  The linter parses this tuple
#: statically and flags both unresolvable entries and pool shipments
#: whose target is missing from it, so the registry cannot silently go
#: stale as new fan-outs appear; tests/perf/test_worker_roots.py pins
#: that each entry resolves to a real callable.
WORKER_ROOTS = (
    "repro.exp.routing_sweep.run_batch",
    "repro.exp.verify.sequential.run_replica_cell",
    "repro.harness.supervisor.CellExecutor.run_cell",
    "repro.harness.supervisor.default_cell_runner",
    "repro.perf.parallel._probe_worker",
    "repro.perf.parallel._run_cell_task",
    "repro.runtime.service.campaign.run_service_epoch",
)

#: This process's cell executor and the ``(policy, cell_runner)`` key it
#: was built for; kept across cells so a worker builds the default
#: runner's chip and profile library once, not once per cell.
_EXECUTOR_SLOT: Optional[
    Tuple[Tuple[SupervisorPolicy, Optional[CellRunner]], CellExecutor]
] = None


def _run_cell_task(
    task: Tuple[SupervisorPolicy, Optional[CellRunner], SupervisedCell]
) -> CellOutcome:
    """Run one ``(policy, cell_runner, cell)`` task (the run_cells task)."""
    global _EXECUTOR_SLOT
    policy, cell_runner, cell = task
    key = (policy, cell_runner)
    if _EXECUTOR_SLOT is None or _EXECUTOR_SLOT[0] != key:
        # Per-process executor slot, never shared across processes; an
        # executor yields the same outcome as a fresh one, so reusing it
        # cannot make serial and parallel bytes diverge.
        # parmlint: ok[worker-safety] - per-process executor cache write
        _EXECUTOR_SLOT = (key, CellExecutor(policy, cell_runner=cell_runner))
    return _EXECUTOR_SLOT[1].run_cell(cell)


def _probe_worker(token: int) -> int:
    """Warm-up task: the pid of the process that ran it.

    ``token`` distinguishes the submissions so a round of probes cannot
    be deduplicated; the pid only groups probe results per worker and is
    never recorded in outputs.  Unpickling this task imports this
    module, so a probed worker has paid the imports every real task
    needs.
    """
    return os.getpid()


def _require_picklable(value: Any, name: str) -> None:
    try:
        pickle.dumps(value)
    except Exception as exc:
        raise ConfigError(
            f"{name} is not picklable; worker processes need a "
            "module-level callable",
            callable=repr(value),
            error=str(exc),
        ) from exc


def map_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int,
    retries: int = 0,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Map a pure, module-level ``fn`` over ``tasks``; results in order.

    ``fn`` must be a pure function of its task (no wall clock, no shared
    RNG), so the result list is identical for any ``workers`` value -
    parallelism changes wall-clock time only, never bytes.  One future
    is submitted per task; results are merged by task index, so
    completion order and retries reorder nothing.

    Failures are classified per task: a task raising a non-taxonomy
    exception, or a worker process dying outright (``BrokenProcessPool``
    from an OOM kill or hard crash, which also flags the pool for a
    rebuild), charges one attempt to that task, and a task whose
    attempts run out surfaces as
    :class:`~repro.harness.errors.WorkerCrash` carrying its index and
    repr - never a bare traceback with no hint of which input died.  A
    worker death charges every task that was in flight at the time,
    since the pool cannot tell which input killed the process.  Taxonomy
    errors raised by ``fn`` itself propagate unchanged and are never
    retried.  Charged tasks are resubmitted once the round in flight
    drains, to a rebuilt pool when the previous one broke.

    Args:
        fn: Module-level callable (must be picklable for ``spawn``
            workers) mapping one task to one result.
        tasks: Task values; must themselves be picklable when
            ``workers > 1``.
        workers: Worker process count; repeated calls with the same
            count reuse the same pool.  ``1`` runs in-process with
            identical semantics.
        retries: Extra attempts per task beyond the first (default 0:
            fail fast).
        on_result: Invoked in the parent as ``on_result(index, value)``
            as each task completes - *completion* order, which is
            nondeterministic with ``workers > 1``.

    Returns:
        ``[fn(t) for t in tasks]`` in task order, regardless of
        completion order.

    Raises:
        ConfigError: on ``workers < 1``, ``retries < 0``, or an
            unpicklable ``fn``.
        WorkerCrash: when a task exhausts its attempts raising
            non-taxonomy exceptions or losing worker processes; context
            identifies the task and attempt count.
    """
    tasks = list(tasks)
    if workers < 1:
        raise ConfigError("workers must be >= 1", workers=workers)
    if retries < 0:
        raise ConfigError("retries must be >= 0", retries=retries)
    attempts = [0] * len(tasks)
    results: Dict[int, Any] = {}

    def charge(index: int, exc: BaseException, reason: str) -> None:
        """Record one failed attempt; raise when the budget is spent."""
        attempts[index] += 1
        if attempts[index] > retries:
            raise WorkerCrash(
                reason,
                attempts=attempts[index],
                task_index=index,
                task=repr(tasks[index]),
                error_type=type(exc).__name__,
                error=str(exc),
            ) from exc

    def finish(index: int, value: Any) -> None:
        results[index] = value
        if on_result is not None:
            on_result(index, value)

    if workers == 1 or len(tasks) <= 1:
        for index, task in enumerate(tasks):
            while index not in results:
                try:
                    value = fn(task)
                except ReproError:
                    raise
                # Charged to the retry budget, re-raised as a
                # WorkerCrash when it runs out.
                except Exception as exc:  # parmlint: ok[broad-except]
                    charge(index, exc, "task raised inside its worker")
                else:
                    finish(index, value)
        return [results[index] for index in range(len(tasks))]
    _require_picklable(fn, "fn")

    died = "worker process died before completing its task"
    unfinished = list(range(len(tasks)))
    while unfinished:
        # Lease the persistent pool; a broken pool is flagged via the
        # lease and rebuilt by the next round's lease_pool call.
        lease = warm_pool.lease_pool(workers)
        futures: Dict[Future, int] = {}
        retry: List[int] = []
        try:
            for position, index in enumerate(unfinished):
                try:
                    futures[lease.pool.submit(fn, tasks[index])] = index
                except BrokenProcessPool as exc:
                    # The pool died between calls (e.g. an idle worker
                    # was OOM-killed): charge the unsubmitted tasks.
                    lease.mark_broken()
                    for unsent in unfinished[position:]:
                        charge(unsent, exc, died)
                    retry.extend(unfinished[position:])
                    break
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in sorted(done, key=futures.__getitem__):
                    index = futures[future]
                    try:
                        value = future.result()
                    except ReproError:
                        raise
                    except BrokenProcessPool as exc:
                        # The worker *process* died before returning;
                        # every future still in flight fails with it.
                        lease.mark_broken()
                        charge(index, exc, died)
                        retry.append(index)
                    # Charged to the retry budget, re-raised as a
                    # WorkerCrash when it runs out.
                    except Exception as exc:  # parmlint: ok[broad-except]
                        charge(index, exc, "task raised inside its worker")
                        retry.append(index)
                    else:
                        finish(index, value)
        finally:
            # Cancel only *this call's* futures - the pool is shared
            # with concurrent callers and must keep draining their
            # queued work (a completed future's cancel() is a no-op).
            for future in futures:
                future.cancel()
            lease.release()
        unfinished = sorted(retry)
    return [results[index] for index in range(len(tasks))]


def run_cells(
    cells: Sequence[SupervisedCell],
    policy: SupervisorPolicy,
    workers: int,
    cell_runner: Optional[CellRunner] = None,
    on_outcome: Optional[Callable[[CellOutcome], None]] = None,
) -> List[CellOutcome]:
    """Run ``cells`` across ``workers`` processes; results in cell order.

    A thin :func:`map_tasks` over :func:`_run_cell_task`.  A worker
    death is survived: the lost cells re-run on a rebuilt pool, which is
    safe because outcomes are deterministic.

    Args:
        cells: Cells to execute (keys must be unique).
        policy: Retry/backoff/watchdog limits, applied inside each
            worker exactly as in a serial run.
        workers: Worker process count.  ``1`` runs in-process (no pool)
            with identical semantics.
        cell_runner: Optional runner override.  Must be picklable (a
            module-level callable) because it is shipped to spawned
            workers; ``None`` builds the default runner lazily in each
            worker.
        on_outcome: Invoked in the parent as each cell completes -
            *completion* order, which is nondeterministic; callers that
            need determinism (checkpoints, tables) must key by
            ``outcome.cell.key``, which the supervisor's sorted-key
            serialisation already does.

    Returns:
        One :class:`CellOutcome` per cell, in the input cell order
        regardless of completion order.

    Raises:
        ConfigError: on ``workers < 1`` or an unpicklable runner.
        WorkerCrash: when one cell loses its worker process more than
            :data:`repro.perf.pool.MAX_POOL_REBUILDS` times.
    """
    if workers > 1:
        _require_picklable(cell_runner, "cell_runner")
    return map_tasks(
        _run_cell_task,
        [(policy, cell_runner, cell) for cell in cells],
        workers,
        retries=warm_pool.MAX_POOL_REBUILDS,
        on_result=(
            None
            if on_outcome is None
            else lambda index, outcome: on_outcome(outcome)
        ),
    )
