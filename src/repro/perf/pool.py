"""Process-lifetime worker pool.

:mod:`repro.perf.parallel` used to build a throwaway spawn-context pool
per call, so every batch re-paid interpreter spawn and imports in every
worker - the measured "parallel" paths lost to serial.  This module
makes worker start-up a *process-lifetime* cost: :func:`lease_pool`
lazily creates one ``spawn``-context ``ProcessPoolExecutor`` and hands
out leases to it.  The pool is rebuilt only when the worker count
changes, or after a ``BrokenProcessPool`` (a lease calls
:meth:`_PoolLease.mark_broken`).  A caller that needs a different
worker count while other leases are still active gets a private
*ephemeral* pool instead, so no call can reconfigure (and thereby
cancel) another call's workers.

Workers start bare and share no memory with the parent.  What a task
needs - imports, the cell executor of
:func:`repro.perf.parallel._run_cell_task`, the read-only lookup tables
(mesh topology, route columns, fast-PSN kernel matrices) - is built
lazily inside the worker by the same code a serial run uses and cached
there for the worker's lifetime.  Determinism is unchanged: each worker
computes exactly the values a serial run computes, and merge order is
owned by :mod:`repro.perf.parallel`.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Dict, Optional

#: Start method of the pool - same contract as
#: :data:`repro.perf.parallel.START_METHOD` (fresh interpreters, no
#: inherited heap), restated here because this module must not import
#: :mod:`repro.perf.parallel` (it imports us).
_START_METHOD = "spawn"

#: Times :func:`repro.perf.parallel.run_cells` re-runs a cell whose
#: worker process died before the cell is classified as a crash.
MAX_POOL_REBUILDS = 2


class _PoolState:
    """The one persistent executor plus its bookkeeping."""

    __slots__ = ("pool", "workers", "leases", "broken")

    def __init__(self, pool: ProcessPoolExecutor, workers: int) -> None:
        self.pool = pool
        self.workers = workers
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


def _make_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(  # parmlint: ok[process-pool]
        max_workers=workers, mp_context=get_context(_START_METHOD)
    )


def lease_pool(workers: int) -> _PoolLease:
    """Lease the persistent pool (creating/rebuilding as needed).

    Args:
        workers: Worker process count (a different count is a
            different pool).

    Returns:
        A :class:`_PoolLease`.  The caller must ``release()`` it in a
        ``finally`` and must not shut the executor down.
    """
    global _STATE
    with _LOCK:
        state = _STATE
        if state is not None and not state.broken and state.workers == workers:
            state.leases += 1
            _STATS["reused"] += 1
            return _PoolLease(state.pool, persistent=True)
        if state is not None and state.leases > 0:
            # Another call is mid-flight on a different worker count:
            # give this caller a private pool rather than yanking the
            # shared one out from under the active leases.
            _STATS["ephemeral"] += 1
            return _PoolLease(_make_pool(workers), persistent=False)
        if state is not None:
            state.pool.shutdown(wait=False, cancel_futures=True)
        if state is not None and state.broken and state.workers == workers:
            _STATS["broken_rebuilds"] += 1
        else:
            _STATS["created"] += 1
        _STATE = _PoolState(_make_pool(workers), workers)
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
