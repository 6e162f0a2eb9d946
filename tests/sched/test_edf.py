"""Tests for the EDF list scheduler."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.graph import ApplicationGraph, TaskNode
from repro.pdn.waveforms import ActivityBin
from repro.sched.deadlines import assign_task_deadlines
from repro.sched.edf import EdfSchedule, ScheduledTask, edf_schedule


def make_graph(edges, n, work=None):
    g = ApplicationGraph()
    for i in range(n):
        g.add_task(TaskNode(i, ActivityBin.HIGH, (work or {}).get(i, 1.0), 0.5))
    for u, v in edges:
        g.add_edge(u, v, 10.0)
    return g


def by_task(sched):
    return {t.task_id: t for t in sched.tasks}


class TestBasics:
    def test_empty_graph(self):
        sched = edf_schedule(ApplicationGraph(), 4, lambda t: 1.0)
        assert sched.makespan == 0.0
        assert sched.deadline_met

    def test_single_task(self):
        g = make_graph([], 1)
        sched = edf_schedule(g, 1, lambda t: 2.5)
        assert sched.makespan == pytest.approx(2.5)
        assert sched.tasks[0].start == 0.0

    def test_core_count_validated(self):
        with pytest.raises(ValueError):
            edf_schedule(make_graph([], 1), 0, lambda t: 1.0)

    def test_chain_is_sequential(self):
        g = make_graph([(0, 1), (1, 2)], 3)
        sched = edf_schedule(g, 3, lambda t: 1.0)
        assert sched.makespan == pytest.approx(3.0)
        by = by_task(sched)
        assert by[1].start >= by[0].finish
        assert by[2].start >= by[1].finish

    def test_independent_tasks_run_in_parallel(self):
        g = make_graph([], 4)
        sched = edf_schedule(g, 4, lambda t: 1.0)
        assert sched.makespan == pytest.approx(1.0)

    def test_fewer_cores_serialise(self):
        g = make_graph([], 4)
        sched = edf_schedule(g, 2, lambda t: 1.0)
        assert sched.makespan == pytest.approx(2.0)

    def test_comm_delay_on_cross_core_edges(self):
        g = make_graph([(0, 1)], 2)
        no_comm = edf_schedule(g, 2, lambda t: 1.0)
        with_comm = edf_schedule(g, 2, lambda t: 1.0, comm_delay=lambda s, d: 0.5)
        assert with_comm.makespan == pytest.approx(no_comm.makespan + 0.5)


class TestEdfOrder:
    def test_earliest_deadline_runs_first_on_contention(self):
        """Two ready tasks, one core: the longer-downstream task (earlier
        derived deadline) must go first."""
        # 0 and 1 are sources; 1 feeds a long chain so it gets the earlier
        # deadline.
        g = make_graph([(1, 2), (2, 3)], 4, work={0: 1.0, 1: 1.0, 2: 5.0, 3: 5.0})
        sched = edf_schedule(g, 1, lambda t: g.task(t).work_cycles)
        by = by_task(sched)
        assert by[1].start < by[0].start

    def test_deadline_met_flag(self):
        g = make_graph([(0, 1)], 2)
        ok = edf_schedule(g, 2, lambda t: 1.0, app_deadline=10.0)
        assert ok.deadline_met
        tight = edf_schedule(g, 2, lambda t: 1.0, app_deadline=1.5)
        assert not tight.deadline_met

    def test_deterministic(self):
        g = make_graph([(0, 2), (1, 2), (0, 3)], 4)
        a = edf_schedule(g, 2, lambda t: 1.0)
        b = edf_schedule(g, 2, lambda t: 1.0)
        assert a == b


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 4), min_size=2, max_size=4),
        cores=st.integers(1, 8),
        seed=st.integers(0, 50),
    )
    def test_schedule_respects_precedence_and_capacity(self, widths, cores, seed):
        rng = np.random.default_rng(seed)
        g = ApplicationGraph.layered(
            layer_sizes=widths,
            rng=rng,
            work_cycles_range=(1.0, 5.0),
            high_fraction=0.5,
            volume_range=(1.0, 10.0),
        )
        sched = edf_schedule(
            g,
            cores,
            task_time=lambda t: g.task(t).work_cycles,
            comm_delay=lambda s, d: 0.3,
        )
        by = by_task(sched)
        assert len(by) == g.task_count
        # Precedence: successors start after predecessors finish.
        for u, v, _ in g.edges():
            assert by[v].start >= by[u].finish - 1e-9
        # Capacity: no core runs two tasks at once.
        for core in range(cores):
            intervals = sorted(
                (t.start, t.finish) for t in sched.tasks if t.core == core
            )
            for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
                assert s2 >= f1 - 1e-9
        # Makespan is the max finish.
        assert sched.makespan == pytest.approx(max(t.finish for t in sched.tasks))


def oracle_edf_schedule(graph, core_count, task_time, comm_delay):
    """EDF with the original core choice, a min over every core keyed by
    ``(max(core_free[c], earliest), c)``; otherwise the same loop."""
    app_deadline = sum(task_time(t.task_id) for t in graph.tasks()) or 1.0
    deadlines = assign_task_deadlines(graph, app_deadline, task_time)
    pending = {t.task_id: len(graph.predecessors(t.task_id)) for t in graph.tasks()}
    finish_time, core_of = {}, {}
    core_free = [0.0] * core_count
    ready = []
    for t, n in pending.items():
        if n == 0:
            heapq.heappush(ready, (deadlines[t], t, 0.0))
    scheduled = []
    while ready:
        deadline, task, earliest = heapq.heappop(ready)
        core = min(range(core_count), key=lambda c: (max(core_free[c], earliest), c))
        start = max(core_free[core], earliest)
        finish = start + task_time(task)
        core_free[core] = finish
        finish_time[task] = finish
        core_of[task] = core
        scheduled.append(ScheduledTask(task, core, start, finish, deadline))
        for succ in graph.successors(task):
            pending[succ] -= 1
            if pending[succ] == 0:
                est = 0.0
                for pred in graph.predecessors(succ):
                    delay = 0.0
                    if core_of[pred] != core_of.get(succ, -1):
                        delay = comm_delay(pred, succ)
                    est = max(est, finish_time[pred] + delay)
                heapq.heappush(ready, (deadlines[succ], succ, est))
    return EdfSchedule(
        tasks=tuple(sorted(scheduled, key=lambda t: (t.start, t.task_id))),
        makespan=max(t.finish for t in scheduled),
        deadline_met=all(t.finish <= t.deadline + 1e-12 for t in scheduled),
    )


class TestCoreChoiceEquivalence:
    """The core choice (lowest core free by the earliest start, else the
    first to free up) gives exactly the original min-over-cores
    schedule."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("fewer_cores", [True, False], ids=["fewer", "equal"])
    def test_whole_schedule_matches_oracle(self, seed, fewer_cores):
        rng = np.random.default_rng(seed)
        middle = rng.integers(1, 6, size=int(rng.integers(1, 5)))
        widths = [1] + [int(w) for w in middle] + [1]
        g = ApplicationGraph.layered(
            layer_sizes=widths,
            rng=rng,
            work_cycles_range=(1.0, 5.0),
            high_fraction=0.5,
            volume_range=(1.0, 10.0),
        )
        n = g.task_count
        cores = int(rng.integers(1, n)) if fewer_cores else n
        # Integer times and delays make core-free ties common.
        times = {t: float(rng.integers(1, 4)) for t in range(n)}
        delays = {(u, v): float(rng.integers(0, 3)) for u, v, _ in g.edges()}
        args = (g, cores, times.__getitem__, lambda s, d: delays[s, d])
        assert edf_schedule(*args) == oracle_edf_schedule(*args)
