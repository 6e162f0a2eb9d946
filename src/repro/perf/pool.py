"""Process-lifetime warm worker pool with shared read-only numpy state.

:mod:`repro.perf.parallel` used to build a throwaway spawn-context pool
per ``run_cells``/``map_tasks`` call, so every batch re-paid interpreter
spawn, imports, and the chip / profile-library / route-table / solver
construction in every worker - the measured "parallel" paths lost to
serial.  This module makes worker warm-up a *process-lifetime* cost:

* **One long-lived pool.**  :func:`lease_pool` lazily creates a single
  ``spawn``-context ``ProcessPoolExecutor`` and hands out leases to it.
  The pool is rebuilt only when the configuration fingerprint -
  ``(workers, warm spec, policy, cell_runner)`` - changes, or after a
  ``BrokenProcessPool`` (a lease calls :meth:`_PoolLease.mark_broken`).
  A caller that needs a different fingerprint while other leases are
  still active gets a private *ephemeral* pool instead, so no call can
  reconfigure (and thereby cancel) another call's workers.
* **One warm-up per worker.**  :func:`_warm_worker_init` runs once per
  worker process and builds the expensive read-only world exactly once:
  chip description, ``ProfileLibrary``, fast-PSN kernel tables,
  per-destination route tables, mesh topology lookups, and the primed
  (LU-factorised) PDN transient plan.  Tasks then ship only small cell
  descriptors.
* **Shared read-only arrays.**  The large lookup tables are published
  by the parent into ``multiprocessing.shared_memory`` segments
  (:func:`publish_arrays`) and attached read-only by every worker
  (:func:`attach_arrays`): one physical copy serves all workers.  The
  adopting classes declare the arrays ``__shared_readonly__`` so
  parmlint's shared-readonly rule enforces the no-write contract.

Cleanup is owned by the parent: :func:`shutdown_pool` (also registered
``atexit``) shuts the executor down and unlinks every published
segment, and the process tree's shared
``multiprocessing.resource_tracker`` reaps the segments even if the
parent is SIGKILLed mid-batch (``tests/perf/test_pool.py`` asserts
both no-leak properties).

Determinism is unchanged by any of this: the shared arrays hold exactly
the values each worker would have computed locally, the warm runner is
byte-equivalent to the lazily built default runner, and merge order is
still owned by the callers in :mod:`repro.perf.parallel`.
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
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.harness.errors import ConfigError, WorkerCrash

#: Start method of the warm pool - same contract as
#: :data:`repro.perf.parallel.START_METHOD` (fresh interpreters, no
#: inherited heap), restated here because this module must not import
#: :mod:`repro.perf.parallel` at module level (it imports us).
_START_METHOD = "spawn"

#: Prefix of every shared-memory segment this module publishes; the
#: leak tests glob ``/dev/shm`` for it.
SEGMENT_PREFIX = "parm"

#: Consecutive pool rebuilds :mod:`repro.perf.parallel` tolerates per
#: ``run_cells`` call before classifying the failure (see its use).
MAX_POOL_REBUILDS = 2


# ---------------------------------------------------------------------------
# Shared-memory publish / attach
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedArraySpec:
    """Address of one published array: everything a worker needs to attach."""

    key: str
    segment: str
    shape: Tuple[int, ...]
    dtype: str


class SharedArrayBundle:
    """Parent-side owner of a set of published shared-memory segments.

    Holds the ``SharedMemory`` handles open (closing them would
    invalidate the parent's own views) until :meth:`unlink`, which is
    idempotent and tolerates segments already removed by the resource
    tracker.
    """

    def __init__(
        self,
        entries: List[Tuple[SharedArraySpec, shared_memory.SharedMemory]],
    ) -> None:
        self._entries = entries
        self._unlinked = False

    def specs(self) -> Tuple[SharedArraySpec, ...]:
        return tuple(spec for spec, _ in self._entries)

    @property
    def segments(self) -> Tuple[str, ...]:
        return tuple(spec.segment for spec, _ in self._entries)

    def unlink(self) -> None:
        """Close and remove every segment (idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        for _, shm in self._entries:
            try:
                shm.close()
                shm.unlink()
            # Already reaped (e.g. by the resource tracker after a
            # worker-side crash); gone is the goal state.
            except FileNotFoundError:  # parmlint: ok[silent-except]
                pass


#: Monotonic counter making segment names unique within this process.
#: Guarded by its own lock: publishers may run while the pool lock is
#: held (default_warm_spec publishes under _LOCK).
_SEGMENT_SEQ = 0
_SEGMENT_LOCK = threading.Lock()



def publish_arrays(
    arrays: Mapping[str, np.ndarray], prefix: str = SEGMENT_PREFIX
) -> SharedArrayBundle:
    """Copy ``arrays`` into shared-memory segments (parent side).

    Args:
        arrays: Key -> array.  Arrays must be non-empty; each is copied
            once into a fresh segment (C-contiguous).
        prefix: Segment-name prefix (tests use a private one so leak
            assertions cannot collide with a concurrently warm pool).

    Returns:
        A :class:`SharedArrayBundle` owning the segments; ship its
        :meth:`~SharedArrayBundle.specs` to workers and call
        :meth:`~SharedArrayBundle.unlink` (or :func:`shutdown_pool`)
        when done.
    """
    global _SEGMENT_SEQ
    entries: List[Tuple[SharedArraySpec, shared_memory.SharedMemory]] = []
    try:
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            if array.nbytes == 0:
                raise ConfigError(
                    "cannot publish an empty array", key=key
                )
            with _SEGMENT_LOCK:
                _SEGMENT_SEQ += 1
                seq = _SEGMENT_SEQ
            digest = hashlib.sha256(key.encode()).hexdigest()[:8]
            name = f"{prefix}-{os.getpid()}-{seq}-{digest}"
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=array.nbytes
            )
            view = np.ndarray(array.shape, array.dtype, buffer=shm.buf)
            view[...] = array
            entries.append(
                (
                    SharedArraySpec(
                        key=key,
                        segment=name,
                        shape=tuple(array.shape),
                        dtype=str(array.dtype),
                    ),
                    shm,
                )
            )
    # Publish-or-nothing: a failure mid-publish unlinks the segments
    # created so far, then re-raises unchanged.
    except BaseException:  # parmlint: ok[broad-except]
        SharedArrayBundle(entries).unlink()
        raise
    return SharedArrayBundle(entries)


class AttachedArrays:
    """Worker-side view of published arrays: read-only, handles held open."""

    def __init__(
        self,
        arrays: Dict[str, np.ndarray],
        handles: List[shared_memory.SharedMemory],
    ) -> None:
        self.arrays = arrays
        self._handles = handles

    def close(self) -> None:
        """Drop the mappings (views become invalid; parent keeps the files)."""
        self.arrays = {}
        for shm in self._handles:
            shm.close()
        self._handles = []


def attach_arrays(specs: Tuple[SharedArraySpec, ...]) -> AttachedArrays:
    """Attach published segments read-only (worker side).

    A vanished segment (unlinked before the worker attached) surfaces
    as a taxonomy :class:`~repro.harness.errors.WorkerCrash` naming the
    segment and key, never a bare ``FileNotFoundError``.
    """
    arrays: Dict[str, np.ndarray] = {}
    handles: List[shared_memory.SharedMemory] = []
    for spec in specs:
        try:
            shm = shared_memory.SharedMemory(name=spec.segment)
        except FileNotFoundError as exc:
            for held in handles:
                held.close()
            raise WorkerCrash(
                "shared-memory segment vanished before the worker could "
                "attach (published world unlinked too early?)",
                segment=spec.segment,
                key=spec.key,
                error_type=type(exc).__name__,
                error=str(exc),
            ) from exc
        # Python 3.x registers *attachments* with the resource tracker
        # too.  Spawn workers inherit the parent's tracker process, and
        # the tracker deduplicates names, so the extra registration is
        # a no-op there - and deliberately left in place: it is what
        # lets the tracker reap the segments of a SIGKILLed parent.
        handles.append(shm)
        view = np.ndarray(spec.shape, np.dtype(spec.dtype), buffer=shm.buf)
        view.flags.writeable = False
        arrays[spec.key] = view
    return AttachedArrays(arrays, handles)


# ---------------------------------------------------------------------------
# The warm spec: what the parent publishes, what workers rebuild
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarmSpec:
    """Picklable description of the warm per-worker world.

    Everything here is either a small literal or a
    :class:`SharedArraySpec` address, so shipping the spec to a spawn
    worker costs bytes, not rebuild time.
    """

    meshes: Tuple[Tuple[int, int], ...]
    route_policies: Tuple[str, ...]
    tech_name: str
    window_s: float
    dt_s: float
    array_specs: Tuple[SharedArraySpec, ...]


#: Meshes whose topology tables are published by default: the routing
#: sweep's 8x8 and the paper evaluation platform's 10x6.
_DEFAULT_MESHES: Tuple[Tuple[int, int], ...] = ((8, 8), (10, 6))

#: Context-free policies whose full route tables are published (the
#: adaptive policies - PANR, ICON - have no table by construction).
_DEFAULT_ROUTE_POLICIES: Tuple[str, ...] = ("xy", "odd-even")

_DEFAULT_TECH = "7nm"


def _topology_keys(width: int, height: int) -> Tuple[str, str]:
    base = f"topology/{width}x{height}"
    return f"{base}/hops", f"{base}/neighbor_codes"


def _route_key(width: int, height: int, policy: str) -> str:
    return f"route/{width}x{height}/{policy}"


def _kernel_key(ladder: str, level: float, field_name: str) -> str:
    return f"kernel/{ladder}/{level!r}/{field_name}"


def _kernel_ladders():
    from repro.pdn.fast import _DEFAULT_AVG, _DEFAULT_PEAK

    return (("peak", _DEFAULT_PEAK), ("avg", _DEFAULT_AVG))


def _build_shared_arrays(
    meshes: Tuple[Tuple[int, int], ...],
    route_policies: Tuple[str, ...],
) -> Dict[str, np.ndarray]:
    """Compute every array the default warm world shares (parent side)."""
    from repro.chip.mesh import MeshGeometry
    from repro.noc.batch import build_route_table
    from repro.noc.routing import make_routing
    from repro.noc.topology import MeshTopology

    arrays: Dict[str, np.ndarray] = {}
    for width, height in meshes:
        mesh = MeshGeometry(width, height)
        topo = MeshTopology(mesh)
        hops_key, codes_key = _topology_keys(width, height)
        arrays[hops_key] = topo.hops_table()
        arrays[codes_key] = topo.neighbor_codes()
        for policy in route_policies:
            arrays[_route_key(width, height, policy)] = build_route_table(
                mesh, make_routing(policy), topology=topo
            )
    for tag, ladder in _kernel_ladders():
        for level, kernel in ladder.kernels.items():
            tables = kernel.tables()
            arrays[_kernel_key(tag, level, "z_own")] = tables.z_own
            arrays[_kernel_key(tag, level, "z_cross")] = tables.z_cross
            arrays[_kernel_key(tag, level, "kappa")] = tables.kappa
    return arrays


_DEFAULT_SPEC: Optional[WarmSpec] = None
_DEFAULT_BUNDLE: Optional[SharedArrayBundle] = None


def default_warm_spec() -> WarmSpec:
    """The default warm spec, publishing its shared world on first use."""
    global _DEFAULT_SPEC, _DEFAULT_BUNDLE
    with _LOCK:
        if _DEFAULT_SPEC is not None:
            return _DEFAULT_SPEC
    arrays = _build_shared_arrays(_DEFAULT_MESHES, _DEFAULT_ROUTE_POLICIES)
    with _LOCK:
        if _DEFAULT_SPEC is None:
            bundle = publish_arrays(arrays)
            _DEFAULT_BUNDLE = bundle
            _DEFAULT_SPEC = WarmSpec(
                meshes=_DEFAULT_MESHES,
                route_policies=_DEFAULT_ROUTE_POLICIES,
                tech_name=_DEFAULT_TECH,
                window_s=300e-9,
                dt_s=50e-12,
                array_specs=bundle.specs(),
            )
        return _DEFAULT_SPEC


class _WarmWorld:
    """Per-worker warm state, built once by :func:`_warm_worker_init`.

    Everything expensive and read-only lives here: shared-memory-backed
    topology / route / kernel tables, the primed transient analyser,
    and the chip + profile library the default cell runner shares.
    """

    def __init__(self, spec: WarmSpec, attached: AttachedArrays) -> None:
        from repro.apps.suite import ProfileLibrary
        from repro.chip.cmp import default_chip
        from repro.chip.mesh import MeshGeometry
        from repro.chip.technology import technology
        from repro.noc.topology import MeshTopology, TopologyTables
        from repro.pdn.fast import _KernelTables
        from repro.pdn.transient import PsnTransientAnalysis

        self.spec = spec
        self.attached = attached
        self.init_seconds = 0.0
        arrays = attached.arrays
        self._topologies: Dict[Tuple[int, int], Any] = {}
        self._route_tables: Dict[Tuple[int, int, str], np.ndarray] = {}
        for width, height in spec.meshes:
            hops_key, codes_key = _topology_keys(width, height)
            self._topologies[(width, height)] = MeshTopology(
                MeshGeometry(width, height),
                shared_tables=TopologyTables(
                    hops=arrays[hops_key],
                    neighbor_codes=arrays[codes_key],
                ),
            )
            for policy in spec.route_policies:
                self._route_tables[(width, height, policy)] = arrays[
                    _route_key(width, height, policy)
                ]
        # Install the shared kernel matrices into the default ladders'
        # lazy table slot: the values are identical to what tables()
        # would compute, only the backing storage is shared.
        for tag, ladder in _kernel_ladders():
            for level, kernel in ladder.kernels.items():
                tables = _KernelTables(
                    z_own=arrays[_kernel_key(tag, level, "z_own")],
                    z_cross=arrays[_kernel_key(tag, level, "z_cross")],
                    kappa=arrays[_kernel_key(tag, level, "kappa")],
                )
                object.__setattr__(kernel, "_tables", tables)
        self.transient = PsnTransientAnalysis(
            technology(spec.tech_name),
            window_s=spec.window_s,
            dt_s=spec.dt_s,
        )
        self.transient.prime()
        self.chip = default_chip()
        self.library = ProfileLibrary()

    def topology(self, width: int, height: int):
        """Shared-table topology for a mesh size, or None if unpublished."""
        return self._topologies.get((width, height))

    def route_table(
        self, width: int, height: int, policy: str
    ) -> Optional[np.ndarray]:
        """Prebuilt route table for a context-free policy, or None."""
        return self._route_tables.get((width, height, policy))

    def cell_runner(self):
        """A default cell runner over this world's shared chip/library."""
        from repro.harness.supervisor import default_cell_runner

        return default_cell_runner(chip=self.chip, library=self.library)


#: This worker's warm world; None in the parent (and in workers whose
#: initializer has not run, which the pool guarantees never happens).
_WORLD: Optional[_WarmWorld] = None


def warm_world() -> Optional[_WarmWorld]:
    """The calling process's warm world (None outside warm pool workers)."""
    return _WORLD


def _warm_worker_init(
    spec: WarmSpec,
    policy: Any = None,
    cell_runner: Any = None,
) -> None:
    """Pool initializer: build the read-only world once per worker.

    With a ``policy`` the worker additionally gets the
    :class:`~repro.harness.supervisor.CellExecutor` that ``run_cells``
    tasks use, pre-warmed with a runner over the world's shared chip and
    profile library (byte-equivalent to the lazily built default).
    """
    global _WORLD
    # Wall-clock reads here time the once-per-worker initialisation for
    # the bench suite's init_seconds entry; no task result depends on
    # them.
    # parmlint: ok[wall-clock, worker-safety]
    start = time.perf_counter()
    attached = attach_arrays(spec.array_specs)
    world = _WarmWorld(spec, attached)
    if policy is not None:
        # importlib indirection: repro.perf.parallel imports this
        # module at top level, so the reverse edge lives only inside
        # the worker initializer.
        parallel = importlib.import_module("repro.perf.parallel")
        parallel._worker_init(policy, cell_runner)
        if parallel._EXECUTOR is not None and cell_runner is None:
            parallel._EXECUTOR.prewarm(world.cell_runner())
    # parmlint: ok[wall-clock, worker-safety]
    world.init_seconds = time.perf_counter() - start
    # Once-per-worker slot, written before any task runs.
    _WORLD = world  # parmlint: ok[worker-safety]


def _probe_worker(token: int) -> Tuple[int, float]:
    """Bench/warm-up task: (worker id, init seconds) of this process.

    ``token`` distinguishes the submissions so a round of probes cannot
    be deduplicated; the returned id is only used to group probe
    results per worker, never recorded in outputs.
    """
    world = _WORLD
    return os.getpid(), world.init_seconds if world is not None else -1.0


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


def _fingerprint(
    workers: int, spec: WarmSpec, policy: Any, cell_runner: Any
) -> str:
    """Content hash of everything that shapes a worker's behaviour."""
    try:
        payload = pickle.dumps(
            (workers, spec, policy, cell_runner), protocol=4
        )
    except Exception as exc:
        raise ConfigError(
            "pool configuration is not picklable",
            error=str(exc),
        ) from exc
    return hashlib.sha256(payload).hexdigest()


def _make_pool(
    workers: int, spec: WarmSpec, policy: Any, cell_runner: Any
) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(  # parmlint: ok[process-pool]
        max_workers=workers,
        mp_context=get_context(_START_METHOD),
        initializer=_warm_worker_init,
        initargs=(spec, policy, cell_runner),
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
    spec = default_warm_spec()
    fingerprint = _fingerprint(workers, spec, policy, cell_runner)
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
                _make_pool(workers, spec, policy, cell_runner),
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
            _make_pool(workers, spec, policy, cell_runner), fingerprint
        )
        _STATE.leases = 1
        return _PoolLease(_STATE.pool, persistent=True)


def pool_stats() -> Dict[str, int]:
    """Copy of the lifetime pool counters (created/reused/...)."""
    with _LOCK:
        return dict(_STATS)


def shutdown_pool(unlink_segments: bool = True) -> None:
    """Shut the persistent pool down and (by default) unlink segments.

    Safe to call at any time (registered ``atexit``); the next
    :func:`lease_pool` simply starts fresh.  With ``unlink_segments``
    the default published world is removed from ``/dev/shm`` and will
    be re-published on next use.
    """
    global _STATE, _DEFAULT_SPEC, _DEFAULT_BUNDLE
    with _LOCK:
        state = _STATE
        _STATE = None
        bundle = None
        if unlink_segments:
            bundle = _DEFAULT_BUNDLE
            _DEFAULT_BUNDLE = None
            _DEFAULT_SPEC = None
    if state is not None:
        state.pool.shutdown(wait=True, cancel_futures=True)
    if bundle is not None:
        bundle.unlink()


atexit.register(shutdown_pool)
