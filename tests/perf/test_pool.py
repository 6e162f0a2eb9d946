"""Tests for the persistent warm worker pool.

Covers the pool lifecycle (create / reuse / ephemeral / broken-rebuild),
the once-per-worker initializer, the rebuild limit, and that workers
share no memory segments with the parent.

Task callables live at module level so ``spawn`` workers can unpickle
them.
"""

import glob
import os
import signal
import threading
import time

import pytest

from repro.harness.errors import WorkerCrash
from repro.harness.supervisor import CampaignCell, SupervisorPolicy
from repro.perf import pool
from repro.perf.parallel import map_tasks, run_cells


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


def sigkill_cell_runner(cell):
    """Cell runner that takes its worker down outright, every time."""
    os.kill(os.getpid(), signal.SIGKILL)
    return {}  # pragma: no cover - the process is dead


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
        pool.shutdown_pool()

    def test_workers_report_init_seconds(self):
        pool.shutdown_pool()
        assert pool._probe_worker(0) == (os.getpid(), -1.0)  # parent
        try:
            probes = map_tasks(pool._probe_worker, list(range(8)), workers=2)
        finally:
            pool.shutdown_pool()
        assert all(pid != os.getpid() for pid, _ in probes)
        assert all(init_s > 0.0 for _, init_s in probes)

    def test_live_pool_publishes_no_shared_memory(self):
        pool.shutdown_pool()
        pattern = f"/dev/shm/parm-{os.getpid()}-*"
        try:
            assert map_tasks(slow_square, [1, 2, 3], workers=2) == [1, 4, 9]
            run_cells(make_cells(2), SupervisorPolicy(), workers=2)
            # The run_cells pool is still live here.
            assert glob.glob(pattern) == []
        finally:
            pool.shutdown_pool()

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
