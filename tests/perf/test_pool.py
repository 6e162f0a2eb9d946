"""Tests for the persistent warm worker pool and shared read-only state.

Covers the pool lifecycle (create / reuse / ephemeral / broken-rebuild),
the shared-memory publish/attach round trip and its failure taxonomy,
and the two no-leak guarantees: zero residual segments after a normal
shutdown and after a SIGKILLed parent (the process tree's resource
tracker reaps them).

Task callables live at module level so ``spawn`` workers can unpickle
them.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro
from repro.harness.errors import ConfigError, WorkerCrash
from repro.harness.supervisor import CampaignCell, SupervisorPolicy
from repro.perf import pool
from repro.perf.parallel import map_tasks, run_cells


def segment_exists(name):
    """True when a shared-memory segment of that name is attachable."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def make_cells(n=2):
    return [
        CampaignCell(
            framework=fw,
            workload="mixed",
            arrival_interval_s=0.2,
            n_apps=2,
            seeds=(1,),
        )
        for fw in ("HM+XY", "PARM+PANR")
    ][:n]


def slow_square(task):
    """Module-level map task slow enough for batches to interleave."""
    time.sleep(0.05)
    return task * task


def world_report(task):
    """Module-level map task describing the worker's warm world."""
    world = pool.warm_world()
    if world is None:
        return None
    table = world.route_table(8, 8, "xy")
    return {
        "has_topology": world.topology(8, 8) is not None,
        "route_writeable": None if table is None else bool(
            table.flags.writeable
        ),
        "init_seconds_positive": world.init_seconds > 0.0,
        "transient_primed": world.transient is not None,
    }


def sigkill_cell_runner(cell):
    """Cell runner that takes its worker down outright, every time."""
    os.kill(os.getpid(), signal.SIGKILL)
    return {}  # pragma: no cover - the process is dead


class TestPublishAttach:
    def test_round_trip_values_and_read_only(self):
        arrays = {
            "ints": np.arange(12, dtype=np.int64).reshape(3, 4),
            "floats": np.linspace(0.0, 1.0, 7),
        }
        bundle = pool.publish_arrays(arrays, prefix="parmtest")
        attached = pool.attach_arrays(bundle.specs())
        try:
            for key, array in arrays.items():
                view = attached.arrays[key]
                assert np.array_equal(view, array)
                assert view.dtype == array.dtype
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[0] = 0
        finally:
            attached.close()
            bundle.unlink()
        for spec in bundle.specs():
            assert not segment_exists(spec.segment)

    def test_empty_array_rejected(self):
        with pytest.raises(ConfigError) as info:
            pool.publish_arrays(
                {"empty": np.empty((0, 4))}, prefix="parmtest"
            )
        assert info.value.context["key"] == "empty"

    def test_unlink_is_idempotent(self):
        bundle = pool.publish_arrays(
            {"x": np.ones(3)}, prefix="parmtest"
        )
        bundle.unlink()
        bundle.unlink()
        for spec in bundle.specs():
            assert not segment_exists(spec.segment)

    def test_attach_after_unlink_is_classified(self):
        bundle = pool.publish_arrays(
            {"gone": np.ones((2, 2))}, prefix="parmtest"
        )
        specs = bundle.specs()
        bundle.unlink()
        with pytest.raises(WorkerCrash, match="segment vanished") as info:
            pool.attach_arrays(specs)
        assert info.value.context["segment"] == specs[0].segment
        assert info.value.context["key"] == "gone"
        assert info.value.context["error_type"] == "FileNotFoundError"


class TestSharedWorldValues:
    def test_published_tables_match_fresh_computation(self):
        from repro.chip.mesh import MeshGeometry
        from repro.noc.batch import build_route_table
        from repro.noc.routing import make_routing
        from repro.noc.topology import MeshTopology

        spec = pool.default_warm_spec()
        attached = pool.attach_arrays(spec.array_specs)
        try:
            mesh = MeshGeometry(8, 8)
            topo = MeshTopology(mesh)
            assert np.array_equal(
                attached.arrays["topology/8x8/hops"], topo.hops_table()
            )
            assert np.array_equal(
                attached.arrays["topology/8x8/neighbor_codes"],
                topo.neighbor_codes(),
            )
            for policy in spec.route_policies:
                assert np.array_equal(
                    attached.arrays[f"route/8x8/{policy}"],
                    build_route_table(mesh, make_routing(policy)),
                )
        finally:
            attached.close()


class TestWarmPoolLifecycle:
    def test_lease_reuse_init_and_clean_shutdown(self):
        pool.shutdown_pool()
        before = pool.pool_stats()
        lease = pool.lease_pool(2)
        try:
            probes = [
                lease.pool.submit(pool._probe_worker, i).result()
                for i in range(6)
            ]
        finally:
            lease.release()
        assert all(init_s > 0.0 for _, init_s in probes)
        second = pool.lease_pool(2)
        try:
            assert second.pool is lease.pool
        finally:
            second.release()
        after = pool.pool_stats()
        assert after["created"] == before["created"] + 1
        assert after["reused"] >= before["reused"] + 1
        segments = [
            spec.segment for spec in pool.default_warm_spec().array_specs
        ]
        assert segments and all(segment_exists(s) for s in segments)
        pool.shutdown_pool()
        assert not any(segment_exists(s) for s in segments)

    def test_workers_expose_warm_world(self):
        pool.shutdown_pool()
        assert pool.warm_world() is None  # parent has no world
        try:
            reports = map_tasks(world_report, [0, 1], workers=2)
        finally:
            pool.shutdown_pool()
        for report in reports:
            assert report is not None
            assert report["has_topology"]
            assert report["route_writeable"] is False
            assert report["init_seconds_positive"]
            assert report["transient_primed"]

    def test_concurrent_different_fingerprint_gets_ephemeral_pool(self):
        pool.shutdown_pool()
        lease = pool.lease_pool(2)
        try:
            before = pool.pool_stats()
            other = pool.lease_pool(1)  # different fingerprint, mid-flight
            try:
                assert other.pool is not lease.pool
                pid, _ = other.pool.submit(pool._probe_worker, 0).result()
                assert pid != os.getpid()
            finally:
                other.release()
            after = pool.pool_stats()
            assert after["ephemeral"] == before["ephemeral"] + 1
            again = pool.lease_pool(2)
            try:
                assert again.pool is lease.pool  # shared pool untouched
            finally:
                again.release()
        finally:
            lease.release()
        pool.shutdown_pool()

    def test_broken_pool_rebuilt_on_next_lease(self):
        pool.shutdown_pool()
        lease = pool.lease_pool(1)
        lease.mark_broken()
        lease.release()
        before = pool.pool_stats()
        fresh = pool.lease_pool(1)
        try:
            assert fresh.pool is not lease.pool
        finally:
            fresh.release()
        after = pool.pool_stats()
        assert after["broken_rebuilds"] == before["broken_rebuilds"] + 1
        pool.shutdown_pool()


class TestInterleavedBatches:
    def test_map_tasks_batches_do_not_cancel_each_other(self):
        pool.shutdown_pool()
        before = pool.pool_stats()
        results = {}

        def background(tag, items):
            results[tag] = map_tasks(slow_square, items, workers=2)

        thread = threading.Thread(
            target=background, args=("a", list(range(8)))
        )
        thread.start()
        try:
            # Same fingerprint: this batch shares the pool with the
            # background one and, crucially, finishing first must not
            # cancel the background batch's queued futures.
            results["b"] = map_tasks(slow_square, [10, 11, 12], workers=2)
        finally:
            thread.join()
        pool.shutdown_pool()
        assert results["a"] == [t * t for t in range(8)]
        assert results["b"] == [100, 121, 144]
        after = pool.pool_stats()
        assert after["ephemeral"] == before["ephemeral"]


class TestPoolRebuildLimit:
    def test_pool_kept_dying_is_classified(self):
        pool.shutdown_pool()
        with pytest.raises(WorkerCrash, match="kept dying") as info:
            run_cells(
                make_cells(2),
                SupervisorPolicy(),
                workers=2,
                cell_runner=sigkill_cell_runner,
            )
        err = info.value
        assert err.context["rebuilds"] == pool.MAX_POOL_REBUILDS + 1
        assert err.context["pending_cells"]
        pool.shutdown_pool()


class TestSigkilledParent:
    def test_resource_tracker_reaps_segments_of_dead_parent(self, tmp_path):
        script = tmp_path / "kill_parent.py"
        script.write_text(
            textwrap.dedent(
                """
                import os
                import signal
                import sys

                from repro.perf import pool

                if __name__ == "__main__":
                    lease = pool.lease_pool(1)
                    lease.pool.submit(pool._probe_worker, 0).result()
                    for spec in pool.default_warm_spec().array_specs:
                        print(spec.segment)
                    sys.stdout.flush()
                    # No shutdown, no unlink: the whole tree (workers
                    # first, then this parent) dies with the segments
                    # published and the pool live - the OOM-killer /
                    # cgroup-kill scenario.  Only the detached resource
                    # tracker survives.
                    for proc in lease.pool._processes.values():
                        os.kill(proc.pid, signal.SIGKILL)
                    os.kill(os.getpid(), signal.SIGKILL)
                """
            )
        )
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=180,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        segments = [
            line.strip() for line in proc.stdout.splitlines() if line.strip()
        ]
        assert segments, proc.stderr
        # The tracker (a separate process that survives the SIGKILL)
        # notices the tree is gone and unlinks what the parent leaked.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and any(
            segment_exists(s) for s in segments
        ):
            time.sleep(0.25)
        assert [s for s in segments if segment_exists(s)] == []
