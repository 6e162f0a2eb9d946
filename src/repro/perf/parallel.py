"""Deterministic process-pool execution of campaign cells.

Fans pending :class:`~repro.harness.supervisor.CampaignCell` runs across
``spawn``-context worker processes while preserving every guarantee of
the serial :class:`~repro.harness.supervisor.CampaignSupervisor` loop:

* **determinism** - a cell's outcome depends only on
  ``(cell, policy, cell_runner)``: the retry backoff schedule is seeded
  from the cell's content hash and no wall-clock data is recorded, so
  the same cell produces the same outcome in any worker, in any order.
  Results are returned merged back into the caller's cell order.
* **watchdog / retry / taxonomy semantics** - each worker process owns
  one :class:`~repro.harness.supervisor.CellExecutor`, the exact unit
  the serial loop runs, so deadlines, retries and error classification
  behave identically.  The default runner's shared chip /
  profile-library cache is built once per worker and rebuilt after a
  timeout, mirroring the serial discard-on-timeout rule per process.
* **crash safety** - the parent invokes ``on_outcome`` as each cell
  completes, so the supervisor checkpoints progress continuously; a
  kill loses at most the cells in flight, and the checkpoint payload is
  key-sorted, so the final bytes match a serial run's exactly.

The ``spawn`` start method is mandatory (see :data:`START_METHOD`): it
gives every worker a fresh interpreter with no inherited locks, RNG
state or solver caches, which both avoids fork-after-thread hazards
(the supervisor's watchdog uses threads) and keeps workers identical to
a fresh serial process.  parmlint's ``process-pool`` rule enforces that
no other module spawns workers behind the supervisor's back.

Worker processes are *persistent*: both entry points lease the
process-lifetime warm pool of :mod:`repro.perf.pool`, whose workers
build their cell executor (chip, profile library) once at
initialisation, cache the lookup tables their tasks build, and are
reused across calls.  Each call cancels only its
own futures on exit and flags - never shuts down - a broken pool, so
interleaved batches cannot cancel each other's queued work.
"""

from __future__ import annotations

import pickle
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.faults.recovery import RecoveryPolicy
from repro.perf import pool as warm_pool
from repro.harness.errors import ConfigError, ReproError, WorkerCrash
from repro.harness.seeding import derive_seed
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
    "repro.perf.parallel._chunk_runner",
    "repro.perf.parallel._pool_run_cell",
    "repro.perf.parallel._worker_init",
    "repro.perf.pool._probe_worker",
    "repro.perf.pool._warm_worker_init",
    "repro.runtime.service.campaign.run_service_epoch",
)

#: Per-process cell executor, built once by :func:`_worker_init` when
#: the pool starts and reused for every cell the worker receives.
_EXECUTOR: Optional[CellExecutor] = None


def _worker_init(
    policy: SupervisorPolicy, cell_runner: Optional[CellRunner]
) -> None:
    """Build this worker process's cell executor (pool initializer)."""
    global _EXECUTOR
    # Per-process executor slot: written exactly once by the pool
    # initializer before any task runs, never shared across processes,
    # so serial/parallel bytes cannot diverge.
    # parmlint: ok[worker-safety] - once-per-worker initializer write
    _EXECUTOR = CellExecutor(policy, cell_runner=cell_runner)


def _pool_run_cell(cell: SupervisedCell) -> CellOutcome:
    """Run one cell on this worker's executor (the pool task)."""
    if _EXECUTOR is None:  # pragma: no cover - initializer always runs
        raise RuntimeError("worker pool was not initialised")
    return _EXECUTOR.run_cell(cell)


def _require_picklable(cell_runner: CellRunner) -> None:
    try:
        pickle.dumps(cell_runner)
    except Exception as exc:
        raise ConfigError(
            "cell_runner is not picklable; parallel campaigns need a "
            "module-level callable (or None for the default runner)",
            runner=repr(cell_runner),
            error=str(exc),
        ) from exc


class _ChunkTaskError(Exception):
    """One task inside a shipped chunk raised (picklable carrier).

    Carries the failing task's in-chunk index and the original
    exception, so the parent can charge the right *global* task index
    and report the original error type - not the chunk wrapper.  The
    ``(index, cause)`` args round-trip through ``Exception.__reduce__``,
    so the error survives the pool's pickling like any worker exception.
    """

    def __init__(self, index: int, cause: BaseException) -> None:
        super().__init__(index, cause)
        self.index = index
        self.cause = cause


def _chunk_runner(chunk: Any) -> List[Any]:
    """Run one ``(fn, tasks)`` chunk in a worker (the chunked pool task).

    Batching many small task descriptors into one pickle/queue round
    trip is what makes fine-grained sweeps scale; results come back as
    one list in task order.  Taxonomy errors propagate unchanged (they
    already carry provenance); any other failure is wrapped in
    :class:`_ChunkTaskError` with its in-chunk index.
    """
    fn, chunk_tasks = chunk
    results = []
    for index, task in enumerate(chunk_tasks):
        try:
            results.append(fn(task))
        except ReproError:
            raise
        except Exception as exc:  # parmlint: ok[broad-except]
            raise _ChunkTaskError(index, exc) from exc
    return results


def _auto_chunk_size(n_tasks: int, workers: int) -> int:
    """Heuristic chunk size: ~4 chunks per worker once tasks are many.

    Small task counts stay unchunked (one descriptor per round trip
    costs little and keeps failure attribution trivial); beyond 4 tasks
    per worker, consecutive tasks are grouped so each worker sees a
    handful of queue round trips instead of hundreds, while 4 chunks
    per worker preserve load balancing against uneven task costs.
    """
    if n_tasks <= 4 * workers:
        return 1
    return -(-n_tasks // (4 * workers))


def _task_context(index: int, task: Any, exc: BaseException) -> Dict[str, Any]:
    """Provenance context of one failed map task (for WorkerCrash)."""
    return {
        "task_index": index,
        "task": repr(task),
        "error_type": type(exc).__name__,
        "error": str(exc),
    }


class _MapRetryBudget:
    """Per-task attempt accounting for :func:`map_tasks` retries.

    Each task index owns an independent retry budget.  The backoff
    before attempt ``k`` of task ``i`` is the supervisor's jittered
    exponential schedule seeded by ``derive_seed(retry_seed,
    "perf/map-retry/attempt<k>", i)`` - a pure function of ``(seed,
    index, attempt)``, so the recorded delays are identical however the
    failures interleave across workers and rounds.
    """

    def __init__(
        self,
        retries: int,
        retry_seed: int,
        sleep_fn: Optional[Callable[[float], None]],
    ) -> None:
        self._retries = retries
        self._retry_seed = retry_seed
        self._sleep_fn = sleep_fn
        self._attempts: Dict[int, int] = {}

    def charge(
        self, index: int, task: Any, exc: BaseException, reason: str
    ) -> None:
        """Record one failed attempt; raise when the budget is spent."""
        used = self._attempts.get(index, 0) + 1
        self._attempts[index] = used
        if used > self._retries:
            raise WorkerCrash(
                reason,
                attempts=used,
                **_task_context(index, task, exc),
            ) from exc
        rng = np.random.default_rng(
            derive_seed(
                self._retry_seed, f"perf/map-retry/attempt{used - 1}", index
            )
        )
        backoff_s = RecoveryPolicy().jittered_backoff_s(used - 1, rng)
        if self._sleep_fn is not None:
            self._sleep_fn(backoff_s)


def map_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int,
    retries: int = 0,
    retry_seed: int = 0,
    sleep_fn: Optional[Callable[[float], None]] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Map a pure, module-level ``fn`` over ``tasks``; results in order.

    The generic sibling of :func:`run_cells` for work that is not a
    campaign cell (e.g. the routing-sweep points of
    :mod:`repro.exp.routing_sweep`).  The same determinism contract
    applies: ``fn`` must be a pure function of its task (no wall clock,
    no shared RNG), so the result list is identical for any ``workers``
    value - parallelism changes wall-clock time only, never bytes.
    Results are merged by task index, so retries reorder nothing.

    Failures are classified like :func:`run_cells` outcomes are: a task
    raising a non-taxonomy exception, or a worker process dying outright
    (``BrokenProcessPool`` from an OOM kill or hard crash), surfaces as
    :class:`~repro.harness.errors.WorkerCrash` carrying the task index
    and repr - never a bare traceback with no hint of which input died.
    Taxonomy errors raised by ``fn`` itself propagate unchanged.

    Many small tasks are *chunked*: consecutive task descriptors are
    grouped into one pickle/queue round trip per chunk (the per-task
    dispatch overhead otherwise dominates fine-grained sweeps).
    ``chunk_size=None`` picks the size automatically - unchunked until
    tasks exceed four per worker, then ~4 chunks per worker (see
    :func:`_auto_chunk_size`); pass an explicit size to override.
    Chunking never changes results: merges stay keyed by the global
    task index, so the returned list is byte-identical for any chunk
    size, and a failing task is still reported under its own index and
    original error type (a failed chunk re-runs whole, which is safe
    because ``fn`` is pure).

    With ``retries > 0`` each task additionally owns a bounded retry
    budget: a crashed or raising task is resubmitted (to a rebuilt pool
    when the previous one broke) after a jittered exponential backoff
    seeded from ``(retry_seed, task index, attempt)`` - see
    :class:`_MapRetryBudget`.  A worker death charges one attempt to
    *every* task that was submitted and unfinished at the time, since
    the pool cannot tell which input killed the process.

    Args:
        fn: Module-level callable (must be picklable for ``spawn``
            workers) mapping one task to one result.
        tasks: Task values; must themselves be picklable when
            ``workers > 1``.
        workers: Worker process count (a warm-pool fingerprint
            component, so repeated calls with the same count reuse the
            same workers).  ``1`` runs in-process with identical
            semantics.
        retries: Extra attempts per task beyond the first (default 0:
            fail fast, the historical behaviour).
        retry_seed: Root seed of the backoff jitter streams.
        sleep_fn: Receives each backoff delay in seconds; ``None`` (the
            default) records no delay and retries immediately, which
            keeps tests and deterministic replays instant.
        chunk_size: Tasks per pickle/queue round trip; ``None`` (the
            default) chooses automatically, ``1`` disables chunking.

    Returns:
        ``[fn(t) for t in tasks]`` in task order, regardless of
        completion order.

    Raises:
        ConfigError: on ``workers < 1``, ``retries < 0``,
            ``chunk_size < 1``, or an unpicklable ``fn``.
        WorkerCrash: when a task exhausts its attempts raising
            non-taxonomy exceptions or losing worker processes; context
            identifies the task and attempt count.
    """
    tasks = list(tasks)
    if workers < 1:
        raise ConfigError("workers must be >= 1", workers=workers)
    if retries < 0:
        raise ConfigError("retries must be >= 0", retries=retries)
    if chunk_size is not None and chunk_size < 1:
        raise ConfigError("chunk_size must be >= 1", chunk_size=chunk_size)
    budget = _MapRetryBudget(retries, retry_seed, sleep_fn)
    if workers == 1 or len(tasks) <= 1:
        results = []
        for index, task in enumerate(tasks):
            while True:
                try:
                    results.append(fn(task))
                    break
                except ReproError:
                    raise
                # Charged to the retry budget, re-raised as a
                # WorkerCrash when it runs out.
                except Exception as exc:  # parmlint: ok[broad-except]
                    budget.charge(
                        index, task, exc, "task raised inside its worker"
                    )
        return results
    try:
        pickle.dumps(fn)
    except Exception as exc:
        raise ConfigError(
            "fn is not picklable; parallel map needs a module-level "
            "callable",
            fn=repr(fn),
            error=str(exc),
        ) from exc

    if chunk_size is None:
        chunk_size = _auto_chunk_size(len(tasks), workers)

    results_by_index: Dict[int, Any] = {}
    unfinished = list(range(len(tasks)))
    while unfinished:
        # One submission unit is a chunk of consecutive task indices
        # (singleton chunks when unchunked); merges stay keyed by the
        # global index, so chunking cannot reorder results.
        chunks = [
            unfinished[start:start + chunk_size]
            for start in range(0, len(unfinished), chunk_size)
        ]
        # Lease the persistent warm pool; a broken pool is flagged via
        # the lease and rebuilt by the next round's lease_pool call.
        lease = warm_pool.lease_pool(workers)
        retry_indices: List[int] = []
        futures: Dict[int, Future] = {}
        try:
            submit_failure: Optional[BaseException] = None
            for position, chunk in enumerate(chunks):
                try:
                    futures[position] = lease.pool.submit(
                        _chunk_runner,
                        (fn, [tasks[index] for index in chunk]),
                    )
                except BrokenProcessPool as exc:
                    # The pool died between calls (e.g. an idle worker
                    # was OOM-killed); charge the unsubmitted tasks and
                    # let the next round rebuild.
                    lease.mark_broken()
                    submit_failure = exc
                    break
            for position, chunk in enumerate(chunks):
                future = futures.get(position)
                if future is None:
                    for index in chunk:
                        budget.charge(
                            index,
                            tasks[index],
                            submit_failure,
                            "worker process died before completing its task",
                        )
                        retry_indices.append(index)
                    continue
                try:
                    chunk_results = future.result()
                except ReproError:
                    raise
                except BrokenProcessPool as exc:
                    # The worker *process* died before returning (OOM
                    # kill, segfault, interpreter abort); every future
                    # still in flight fails with it.
                    lease.mark_broken()
                    for index in chunk:
                        budget.charge(
                            index,
                            tasks[index],
                            exc,
                            "worker process died before completing its task",
                        )
                        retry_indices.append(index)
                except _ChunkTaskError as exc:
                    # Charge the failing task under its global index
                    # and original error; the whole chunk re-runs (fn
                    # is pure, so recomputed siblings cannot diverge).
                    budget.charge(
                        chunk[exc.index],
                        tasks[chunk[exc.index]],
                        exc.cause,
                        "task raised inside its worker",
                    )
                    retry_indices.extend(chunk)
                # Charged to the retry budget, re-raised as a
                # WorkerCrash when it runs out.
                except Exception as exc:  # parmlint: ok[broad-except]
                    budget.charge(
                        chunk[0],
                        tasks[chunk[0]],
                        exc,
                        "task raised inside its worker",
                    )
                    retry_indices.extend(chunk)
                else:
                    for index, value in zip(chunk, chunk_results):
                        results_by_index[index] = value
        finally:
            # Cancel only *this call's* futures - the pool is shared
            # with concurrent callers and must keep draining their
            # queued work (a completed future's cancel() is a no-op).
            for future in futures.values():
                future.cancel()
            lease.release()
        unfinished = retry_indices
    return [results_by_index[index] for index in range(len(tasks))]


def run_cells(
    cells: Sequence[SupervisedCell],
    policy: SupervisorPolicy,
    workers: int,
    cell_runner: Optional[CellRunner] = None,
    on_outcome: Optional[Callable[[CellOutcome], None]] = None,
) -> List[CellOutcome]:
    """Run ``cells`` across ``workers`` processes; results in cell order.

    Args:
        cells: Cells to execute (keys must be unique).
        policy: Retry/backoff/watchdog limits, applied inside each
            worker exactly as in a serial run.
        workers: Worker process count (a warm-pool fingerprint
            component).  ``1`` runs in-process (no pool) with identical
            semantics.
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
        WorkerCrash: when the pool keeps breaking (a worker death is
            otherwise survived: the rebuilt pool re-runs the lost
            cells, which is safe because outcomes are deterministic).
    """
    cells = list(cells)
    if workers < 1:
        raise ConfigError("workers must be >= 1", workers=workers)
    if workers == 1 or len(cells) <= 1:
        executor = CellExecutor(policy, cell_runner=cell_runner)
        outcomes = []
        for cell in cells:
            outcome = executor.run_cell(cell)
            if on_outcome is not None:
                on_outcome(outcome)
            outcomes.append(outcome)
        return outcomes
    if cell_runner is not None:
        _require_picklable(cell_runner)

    by_key: Dict[str, CellOutcome] = {}
    remaining: Dict[str, SupervisedCell] = {cell.key: cell for cell in cells}
    rebuilds = 0
    while remaining:
        # Lease the persistent warm pool keyed by (workers, policy,
        # runner); workers build their CellExecutor once, at pool init.
        lease = warm_pool.lease_pool(
            workers, policy=policy, cell_runner=cell_runner
        )
        futures: Dict[Future, str] = {}
        broken: Optional[BaseException] = None
        try:
            for key, cell in remaining.items():
                try:
                    futures[lease.pool.submit(_pool_run_cell, cell)] = key
                except BrokenProcessPool as exc:
                    broken = exc
                    break
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as exc:
                        # Cell outcomes are deterministic, so the cells
                        # lost with the dead worker can simply be re-run
                        # on a rebuilt pool - bytes cannot diverge.
                        broken = exc
                        continue
                    by_key[futures[future]] = outcome
                    del remaining[futures[future]]
                    if on_outcome is not None:
                        on_outcome(outcome)
            if broken is not None:
                lease.mark_broken()
        finally:
            # Cancel only *this call's* futures - the pool is shared
            # with concurrent callers and must keep draining their
            # queued work (a completed future's cancel() is a no-op).
            for future in futures:
                future.cancel()
            lease.release()
        if remaining:
            rebuilds += 1
            if rebuilds > warm_pool.MAX_POOL_REBUILDS:
                raise WorkerCrash(
                    "worker pool kept dying while running cells",
                    rebuilds=rebuilds,
                    pending_cells=sorted(remaining),
                    error_type=(
                        type(broken).__name__ if broken else "unknown"
                    ),
                    error=str(broken) if broken else "",
                ) from broken
    return [by_key[cell.key] for cell in cells]
