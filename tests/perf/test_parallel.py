"""Tests for the deterministic process pool: byte-identical merges,
crash-safe resume under workers, and pickling guards.

The toy runner lives at module level so ``spawn`` workers can unpickle
it (pytest's rootdir sys.path is inherited by the children).
"""

import json
import os
import signal
import time

import pytest

from repro.harness.errors import ConfigError, SolverError, WorkerCrash
from repro.harness.supervisor import (
    CampaignCell,
    CampaignSupervisor,
    SupervisorPolicy,
)
from repro.perf.parallel import map_tasks, run_cells


def toy_runner(c):
    """Deterministic module-level cell runner (picklable for spawn)."""
    return {
        "cell": c.spec(),
        "key": c.key,
        "framework": c.framework,
        "workload": c.workload,
        "arrival_interval_s": c.arrival_interval_s,
        "total_time_s": 1.0 + c.arrival_interval_s,
    }


def cells(n=4):
    return [
        CampaignCell(
            framework=fw,
            workload="mixed",
            arrival_interval_s=interval,
            n_apps=2,
            seeds=(1,),
        )
        for fw in ("HM+XY", "PARM+PANR")
        for interval in (0.2, 0.1)
    ][:n]


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def crash_on_three(task):
    """Module-level map task that raises on one specific input."""
    if task == 3:
        raise ValueError("boom on three")
    return task * 2


def raise_taxonomy(task):
    """Module-level map task raising a classified (taxonomy) error."""
    raise SolverError("already classified", node="n0", task=task)


def sigkill_self(task):
    """Module-level map task whose worker is killed outright (OOM-like)."""
    os.kill(os.getpid(), signal.SIGKILL)
    return task  # pragma: no cover - the process is dead


class TestMapTasksFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_exception_becomes_worker_crash(self, workers):
        with pytest.raises(WorkerCrash) as info:
            map_tasks(crash_on_three, [1, 2, 3, 4], workers=workers)
        err = info.value
        assert err.context["task_index"] == 2
        assert err.context["task"] == "3"
        assert err.context["error_type"] == "ValueError"
        assert "boom on three" in err.context["error"]

    def test_serial_cause_is_preserved(self):
        with pytest.raises(WorkerCrash) as info:
            map_tasks(crash_on_three, [3], workers=1)
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_taxonomy_errors_propagate_unwrapped(self, workers):
        # A classified failure already carries provenance; wrapping it
        # in WorkerCrash would bury the classification.
        with pytest.raises(SolverError, match="already classified"):
            map_tasks(raise_taxonomy, [1, 2], workers=workers)

    def test_oom_killed_worker_becomes_worker_crash(self):
        # SIGKILL-ing the worker process is how an OOM kill looks from
        # the parent: BrokenProcessPool with zero context.  map_tasks
        # must classify it and name the in-flight task.
        with pytest.raises(WorkerCrash, match="worker process died") as info:
            map_tasks(sigkill_self, [10, 20], workers=2)
        err = info.value
        assert err.context["error_type"] == "BrokenProcessPool"
        assert err.context["task"] in ("10", "20")


def crash_once_marker(task):
    """Kill the worker on first sight of the task, succeed after.

    The marker file is the cross-process memory of the injected fault:
    absent means "not crashed yet".  An empty marker path never crashes.
    """
    value, marker = task
    if marker and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def flaky_until(task):
    """Raise ValueError until the counter file reaches ``fail_times``."""
    value, counter_path, fail_times = task
    count = 0
    if os.path.exists(counter_path):
        with open(counter_path, "r", encoding="utf-8") as handle:
            count = int(handle.read())
    if count < fail_times:
        with open(counter_path, "w", encoding="utf-8") as handle:
            handle.write(str(count + 1))
        raise ValueError(f"transient failure {count}")
    return value * 2


def echo_after(task):
    """Module-level map task returning ``value`` once ``wait_for`` exists.

    ``signal_path`` (if set) is created just before returning, so one
    task can hold another back across worker processes.
    """
    value, wait_for, signal_path = task
    if wait_for:
        deadline = time.monotonic() + 30.0
        while not os.path.exists(wait_for) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # let the signalling task's result land first
    if signal_path:
        with open(signal_path, "w", encoding="utf-8"):
            pass
    return value


class TestMapTasksOnResult:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_reports_every_index_once(self, workers):
        seen = []
        result = map_tasks(
            echo_after,
            [("a", "", ""), ("b", "", ""), ("c", "", "")],
            workers=workers,
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert result == ["a", "b", "c"]
        assert sorted(seen) == [(0, "a"), (1, "b"), (2, "c")]

    def test_fast_task_reported_before_earlier_slow_task(self, tmp_path):
        # Task 0 is submitted first but cannot finish before task 1 has:
        # on_result follows completion order, the return value follows
        # task order.
        done = str(tmp_path / "fast-done")
        seen = []
        result = map_tasks(
            echo_after,
            [("slow", done, ""), ("fast", "", done)],
            workers=2,
            on_result=lambda index, value: seen.append(index),
        )
        assert seen == [1, 0]
        assert result == ["slow", "fast"]


class TestMapTasksRetries:
    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError, match="retries"):
            map_tasks(crash_on_three, [1], workers=1, retries=-1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_exception_retried(self, tmp_path, workers):
        counter = str(tmp_path / "counter")
        tasks = [(1, str(tmp_path / "c1"), 0), (2, counter, 2)]
        assert map_tasks(
            flaky_until, tasks, workers=workers, retries=2
        ) == [2, 4]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_exhaustion_raises_with_attempts(self, tmp_path, workers):
        counter = str(tmp_path / "counter")
        tasks = [(2, counter, 5)]
        with pytest.raises(WorkerCrash) as info:
            map_tasks(flaky_until, tasks, workers=workers, retries=2)
        assert info.value.context["attempts"] == 3
        assert info.value.context["task_index"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_taxonomy_errors_never_retried(self, workers):
        # A classified error is a deterministic verdict, not a transient
        # fault; retrying a pure fn on it would just repeat the verdict.
        with pytest.raises(SolverError, match="already classified"):
            map_tasks(raise_taxonomy, [1], workers=workers, retries=3)

    def test_sigkilled_worker_retried_and_merge_order_kept(self, tmp_path):
        # One injected OOM-style kill mid-pool: the broken pool is
        # rebuilt, unfinished tasks resubmitted, and the merged result
        # is byte-identical to an undisturbed run.
        marker = str(tmp_path / "crashed-once")
        tasks = [(1, ""), (2, marker), (3, ""), (4, "")]
        result = map_tasks(
            crash_once_marker, tasks, workers=2, retries=1
        )
        assert result == [2, 4, 6, 8]
        assert os.path.exists(marker)


class TestRunCells:
    def test_single_worker_runs_in_process(self):
        outcomes = run_cells(cells(), SupervisorPolicy(), workers=1,
                             cell_runner=toy_runner)
        assert [o.cell.key for o in outcomes] == [c.key for c in cells()]
        assert all(o.completed for o in outcomes)

    def test_pool_preserves_input_order(self):
        outcomes = run_cells(cells(), SupervisorPolicy(), workers=4,
                             cell_runner=toy_runner)
        assert [o.cell.key for o in outcomes] == [c.key for c in cells()]
        assert all(o.completed for o in outcomes)

    def test_unpicklable_runner_rejected(self):
        with pytest.raises(ConfigError, match="not picklable"):
            run_cells(cells(), SupervisorPolicy(), workers=4,
                      cell_runner=lambda c: toy_runner(c))

    def test_on_outcome_sees_every_cell(self):
        seen = []
        run_cells(cells(), SupervisorPolicy(), workers=4,
                  cell_runner=toy_runner, on_outcome=lambda o: seen.append(o))
        assert sorted(o.cell.key for o in seen) == sorted(
            c.key for c in cells()
        )


class TestParallelSupervisor:
    def test_workers_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="workers"):
            CampaignSupervisor(
                cells(), str(tmp_path / "cp.json"), workers=0
            )

    def test_parallel_run_is_byte_identical_to_serial(self, tmp_path):
        serial_cp = str(tmp_path / "serial.json")
        parallel_cp = str(tmp_path / "parallel.json")
        serial = CampaignSupervisor(
            cells(), serial_cp, cell_runner=toy_runner, workers=1
        ).run()
        parallel = CampaignSupervisor(
            cells(), parallel_cp, cell_runner=toy_runner, workers=4
        ).run()
        assert parallel.table_json() == serial.table_json()
        assert read_bytes(parallel_cp) == read_bytes(serial_cp)

    def test_kill_midrun_then_parallel_resume_matches_serial(self, tmp_path):
        serial_cp = str(tmp_path / "serial.json")
        CampaignSupervisor(
            cells(), serial_cp, cell_runner=toy_runner, workers=1
        ).run()

        crashed_cp = str(tmp_path / "crashed.json")
        victim = CampaignSupervisor(
            cells(), crashed_cp, cell_runner=toy_runner, workers=4
        )
        original_save = victim._save_state
        saves = []

        def crashing_save(state):
            if len(saves) >= 2:
                raise RuntimeError("injected mid-campaign crash")
            saves.append(len(state))
            original_save(state)

        victim._save_state = crashing_save
        with pytest.raises(RuntimeError, match="injected"):
            victim.run()

        # The checkpoint survived the crash with a strict subset of
        # cells; a parallel resume finishes the rest and the final
        # bytes match the never-crashed serial run exactly.
        with open(crashed_cp, "r", encoding="utf-8") as handle:
            partial = json.load(handle)["payload"]["cells"]
        assert 0 < len(partial) < len(cells())

        resumed = CampaignSupervisor(
            cells(), crashed_cp, cell_runner=toy_runner, workers=4
        ).run(resume=True)
        assert all(o.completed for o in resumed.outcomes)
        assert read_bytes(crashed_cp) == read_bytes(serial_cp)
