"""Process-lifetime warm worker pool.

:mod:`repro.perf.parallel` used to build a throwaway spawn-context pool
per ``run_cells``/``map_tasks`` call, so every batch re-paid interpreter
spawn, imports, and the chip / profile-library construction in every
worker - the measured "parallel" paths lost to serial.  This module
makes worker warm-up a *process-lifetime* cost:

* **One long-lived pool.**  :func:`lease_pool` lazily creates a single
  ``spawn``-context ``ProcessPoolExecutor`` and hands out leases to it.
  The pool is rebuilt only when the configuration fingerprint -
  ``(workers, policy, cell_runner)`` - changes, or after a
  ``BrokenProcessPool`` (a lease calls :meth:`_PoolLease.mark_broken`).
  A caller that needs a different fingerprint while other leases are
  still active gets a private *ephemeral* pool instead, so no call can
  reconfigure (and thereby cancel) another call's workers.
* **One warm-up per worker.**  :func:`_warm_worker_init` runs once per
  worker process.  With a supervisor policy it builds the worker's
  :class:`~repro.harness.supervisor.CellExecutor`, pre-warmed with the
  default cell runner (chip description + ``ProfileLibrary``).  Tasks
  then ship only small cell descriptors.

Workers share no memory with the parent.  The read-only lookup tables
a task needs (mesh topology, route columns, fast-PSN kernel matrices)
are built lazily inside the worker by the same code a serial run uses
and cached there for the worker's lifetime; together they are a few
tens of kilobytes and cheaper to build than to publish.

Determinism is unchanged: each worker computes exactly the values a
serial run computes, the warm runner is byte-equivalent to the lazily
built default runner, and merge order is owned by the callers in
:mod:`repro.perf.parallel`.
"""

from __future__ import annotations

import atexit
import hashlib
import importlib
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Any, Dict, Optional, Tuple

from repro.harness.errors import ConfigError

#: Start method of the warm pool - same contract as
#: :data:`repro.perf.parallel.START_METHOD` (fresh interpreters, no
#: inherited heap), restated here because this module must not import
#: :mod:`repro.perf.parallel` at module level (it imports us).
_START_METHOD = "spawn"

#: Consecutive pool rebuilds :mod:`repro.perf.parallel` tolerates per
#: ``run_cells`` call before classifying the failure (see its use).
MAX_POOL_REBUILDS = 2


#: Seconds this worker's initializer took; -1.0 in the parent (and in
#: workers whose initializer has not run, which the pool guarantees
#: never happens).
_INIT_SECONDS = -1.0


def _warm_worker_init(policy: Any = None, cell_runner: Any = None) -> None:
    """Pool initializer: warm this worker once, before any task runs.

    With a ``policy`` the worker gets the
    :class:`~repro.harness.supervisor.CellExecutor` that ``run_cells``
    tasks use, pre-warmed with :func:`default_cell_runner` (byte-
    equivalent to the runner the executor would build lazily).
    """
    global _INIT_SECONDS
    # Wall-clock reads here time the once-per-worker initialisation for
    # the bench suite's init_seconds entry; no task result depends on
    # them.
    # parmlint: ok[wall-clock, worker-safety]
    start = time.perf_counter()
    if policy is not None:
        from repro.harness.supervisor import default_cell_runner

        # importlib indirection: repro.perf.parallel imports this
        # module at top level, so the reverse edge lives only inside
        # the worker initializer.
        parallel = importlib.import_module("repro.perf.parallel")
        parallel._worker_init(policy, cell_runner)
        if parallel._EXECUTOR is not None and cell_runner is None:
            parallel._EXECUTOR.prewarm(default_cell_runner())
    # Once-per-worker slot, written before any task runs.
    # parmlint: ok[wall-clock, worker-safety]
    _INIT_SECONDS = time.perf_counter() - start


def _probe_worker(token: int) -> Tuple[int, float]:
    """Bench/warm-up task: (worker id, init seconds) of this process.

    ``token`` distinguishes the submissions so a round of probes cannot
    be deduplicated; the returned id is only used to group probe
    results per worker, never recorded in outputs.
    """
    return os.getpid(), _INIT_SECONDS


# ---------------------------------------------------------------------------
# The persistent pool
# ---------------------------------------------------------------------------


class _PoolState:
    """The one persistent executor plus its bookkeeping."""

    __slots__ = ("pool", "fingerprint", "leases", "broken")

    def __init__(
        self, pool: ProcessPoolExecutor, fingerprint: str
    ) -> None:
        self.pool = pool
        self.fingerprint = fingerprint
        self.leases = 0
        self.broken = False


_LOCK = threading.Lock()
_STATE: Optional[_PoolState] = None
_STATS = {"created": 0, "reused": 0, "broken_rebuilds": 0, "ephemeral": 0}


class _PoolLease:
    """One caller's handle on the pool for the duration of one call.

    Callers submit through :attr:`pool`, cancel *their own* futures on
    exit, call :meth:`mark_broken` when they observe a
    ``BrokenProcessPool``, and :meth:`release` in a ``finally``.  They
    never shut the executor down - it outlives the call by design.
    """

    def __init__(self, pool: ProcessPoolExecutor, persistent: bool) -> None:
        self.pool = pool
        self._persistent = persistent
        self._released = False

    def mark_broken(self) -> None:
        """Flag the pool so the next lease rebuilds it."""
        if not self._persistent:
            return
        with _LOCK:
            if _STATE is not None and _STATE.pool is self.pool:
                _STATE.broken = True

    def release(self) -> None:
        """Return the lease (idempotent); ephemeral pools shut down here."""
        if self._released:
            return
        self._released = True
        if not self._persistent:
            self.pool.shutdown(wait=False, cancel_futures=True)
            return
        with _LOCK:
            if _STATE is not None and _STATE.pool is self.pool:
                _STATE.leases -= 1


def _fingerprint(workers: int, policy: Any, cell_runner: Any) -> str:
    """Content hash of everything that shapes a worker's behaviour."""
    try:
        payload = pickle.dumps((workers, policy, cell_runner), protocol=4)
    except Exception as exc:
        raise ConfigError(
            "pool configuration is not picklable",
            error=str(exc),
        ) from exc
    return hashlib.sha256(payload).hexdigest()


def _make_pool(
    workers: int, policy: Any, cell_runner: Any
) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(  # parmlint: ok[process-pool]
        max_workers=workers,
        mp_context=get_context(_START_METHOD),
        initializer=_warm_worker_init,
        initargs=(policy, cell_runner),
    )


def lease_pool(
    workers: int,
    policy: Any = None,
    cell_runner: Any = None,
) -> _PoolLease:
    """Lease the persistent warm pool (creating/rebuilding as needed).

    Args:
        workers: Worker process count (part of the fingerprint: a
            different count is a different pool).
        policy: Optional :class:`SupervisorPolicy` for ``run_cells``
            pools; workers then build their cell executor at init.
        cell_runner: Optional runner override shipped to workers.

    Returns:
        A :class:`_PoolLease`.  The caller must ``release()`` it in a
        ``finally`` and must not shut the executor down.
    """
    global _STATE
    fingerprint = _fingerprint(workers, policy, cell_runner)
    with _LOCK:
        state = _STATE
        if (
            state is not None
            and not state.broken
            and state.fingerprint == fingerprint
        ):
            state.leases += 1
            _STATS["reused"] += 1
            return _PoolLease(state.pool, persistent=True)
        if state is not None and state.leases > 0:
            # Another call is mid-flight on a different fingerprint:
            # give this caller a private pool rather than yanking the
            # shared one out from under the active leases.
            _STATS["ephemeral"] += 1
            return _PoolLease(
                _make_pool(workers, policy, cell_runner),
                persistent=False,
            )
        if state is not None:
            state.pool.shutdown(wait=False, cancel_futures=True)
            if state.broken and state.fingerprint == fingerprint:
                _STATS["broken_rebuilds"] += 1
            else:
                _STATS["created"] += 1
        else:
            _STATS["created"] += 1
        _STATE = _PoolState(
            _make_pool(workers, policy, cell_runner), fingerprint
        )
        _STATE.leases = 1
        return _PoolLease(_STATE.pool, persistent=True)


def pool_stats() -> Dict[str, int]:
    """Copy of the lifetime pool counters (created/reused/...)."""
    with _LOCK:
        return dict(_STATS)


def shutdown_pool() -> None:
    """Shut the persistent pool down.

    Safe to call at any time (registered ``atexit``); the next
    :func:`lease_pool` simply starts fresh.
    """
    global _STATE
    with _LOCK:
        state = _STATE
        _STATE = None
    if state is not None:
        state.pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pool)
