"""Earliest-deadline-first list scheduling of an application graph.

The scheduler places the tasks of one application onto ``core_count``
cores.  A task becomes ready when all predecessors have finished and
their output data has traversed the NoC (modelled as a per-byte
communication delay, zero for tasks sharing a core).  Among ready tasks,
the one with the earliest deadline runs first (EDF).

In PARM's normal operation every thread has a dedicated core
(``core_count == task_count``), in which case EDF degenerates to
dataflow-driven execution and the makespan equals the communication-aware
critical path; the general scheduler also supports fewer cores than tasks,
which the tests exercise.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.graph import ApplicationGraph
from repro.sched.deadlines import assign_task_deadlines


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one task in the schedule (times in seconds)."""

    task_id: int
    core: int
    start: float
    finish: float
    deadline: float


@dataclass(frozen=True)
class EdfSchedule:
    """Result of EDF scheduling one application.

    Attributes:
        tasks: Scheduled tasks in start-time order.
        makespan: Completion time of the last task (seconds).
        deadline_met: Whether every task finished by its deadline.
    """

    tasks: Tuple[ScheduledTask, ...]
    makespan: float
    deadline_met: bool


def edf_schedule(
    graph: ApplicationGraph,
    core_count: int,
    task_time: Callable[[int], float],
    comm_delay: Optional[Callable[[int, int], float]] = None,
    app_deadline: Optional[float] = None,
) -> EdfSchedule:
    """Schedule an application graph on ``core_count`` cores with EDF.

    Args:
        graph: The application graph.
        core_count: Number of cores available to the application.
        task_time: Execution time of each task in seconds.
        comm_delay: Delay for the edge ``(src, dst)`` in seconds, applied
            when the two tasks run on different cores; ``None`` means no
            communication delay.
        app_deadline: Application deadline used to derive per-task EDF
            priorities; defaults to the sum of all task times (priorities
            only order execution, so the scale is irrelevant).

    Returns:
        The :class:`EdfSchedule`.
    """
    if core_count < 1:
        raise ValueError("core_count must be at least 1")
    if graph.task_count == 0:
        return EdfSchedule(tasks=(), makespan=0.0, deadline_met=True)

    if app_deadline is None:
        app_deadline = sum(task_time(t.task_id) for t in graph.tasks()) or 1.0
    deadlines = assign_task_deadlines(graph, app_deadline, task_time)

    pending_preds = {
        t.task_id: len(graph.predecessors(t.task_id)) for t in graph.tasks()
    }
    finish_time: Dict[int, float] = {}
    core_of: Dict[int, int] = {}
    core_free = [0.0] * core_count
    # Ready heap keyed by (deadline, task id) for deterministic EDF order.
    ready: List[Tuple[float, int, float]] = []  # (deadline, task, earliest start)
    for t, n in pending_preds.items():
        if n == 0:
            heapq.heappush(ready, (deadlines[t], t, 0.0))

    scheduled: List[ScheduledTask] = []
    while ready:
        deadline, task, earliest = heapq.heappop(ready)
        # Pick the core that lets the task start soonest (ties: lowest
        # id): the lowest core already free by ``earliest``, else the
        # one that frees up first.
        for core, free in enumerate(core_free):
            if free <= earliest:
                break
        else:
            core = min(range(core_count), key=core_free.__getitem__)
        start = max(core_free[core], earliest)
        finish = start + task_time(task)
        core_free[core] = finish
        finish_time[task] = finish
        core_of[task] = core
        scheduled.append(
            ScheduledTask(
                task_id=task,
                core=core,
                start=start,
                finish=finish,
                deadline=deadline,
            )
        )
        for succ in graph.successors(task):
            pending_preds[succ] -= 1
            if pending_preds[succ] == 0:
                est = 0.0
                for pred in graph.predecessors(succ):
                    delay = 0.0
                    if comm_delay is not None and core_of[pred] != _planned_core(
                        core_of, succ
                    ):
                        delay = comm_delay(pred, succ)
                    est = max(est, finish_time[pred] + delay)
                heapq.heappush(ready, (deadlines[succ], succ, est))

    makespan = max(t.finish for t in scheduled)
    met = all(t.finish <= t.deadline + 1e-12 for t in scheduled)
    return EdfSchedule(
        tasks=tuple(sorted(scheduled, key=lambda t: (t.start, t.task_id))),
        makespan=makespan,
        deadline_met=met,
    )


def _planned_core(core_of: Dict[int, int], task: int) -> int:
    """Core a not-yet-scheduled task will run on (-1 = unknown).

    The core of a successor is unknown when its readiness is computed, so
    communication from a predecessor is charged unless the successor was
    already placed (which cannot happen in topological processing); the
    conservative result is that cross-task edges always pay the NoC delay,
    matching the paper's one-thread-per-core execution model.
    """
    return core_of.get(task, -1)
