"""Application graphs (APGs): DAGs of threads with communication volumes.

Section 3.2 of the paper: ``APG = G(V, E)`` is a directed acyclic graph
where each vertex is a thread and each edge weight is the communication
volume between two threads.  The PSN-aware mapping heuristic consumes the
edges sorted by decreasing volume (Algorithm 2).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.pdn.waveforms import ActivityBin


@dataclass(frozen=True)
class TaskNode:
    """One thread of an application.

    Attributes:
        task_id: Index of the thread within the application (0-based).
        activity_bin: High or Low switching-activity class.
        work_cycles: Computation demand of the thread in core cycles.
        activity_factor: Core switching-activity factor in [0, 1] used by
            the power model (High-bin tasks have larger factors).
    """

    task_id: int
    activity_bin: ActivityBin
    work_cycles: float
    activity_factor: float

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task_id must be non-negative")
        if self.work_cycles < 0:
            raise ValueError("work_cycles must be non-negative")
        if not 0.0 <= self.activity_factor <= 1.0:
            raise ValueError("activity_factor must be in [0, 1]")


class _Snapshot(NamedTuple):
    """Read-only answers to the structural queries of one graph state."""

    tasks: Tuple[TaskNode, ...]
    edges: Tuple[Tuple[int, int, float], ...]
    predecessors: Dict[int, Tuple[int, ...]]
    successors: Dict[int, Tuple[int, ...]]
    topological_order: Tuple[int, ...]


class ApplicationGraph:
    """A validated APG with volume-sorted edge access.

    Edges carry ``volume_bytes``: the total data exchanged between the two
    threads over one execution of the application.

    Two plain dicts store the graph, both in insertion order: each
    task's successors with their volumes, and each task's predecessors.
    The structural queries (:meth:`tasks`, :meth:`edges`,
    :meth:`predecessors`, :meth:`successors`, :meth:`topological_order`)
    read one snapshot of plain tuples and dicts, built on the first query
    after a change; every mutator clears it.
    """

    def __init__(self) -> None:
        self._tasks: Dict[int, TaskNode] = {}
        self._succ: Dict[int, Dict[int, float]] = {}
        self._pred: Dict[int, List[int]] = {}
        self._snap: Optional[_Snapshot] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_task(self, task: TaskNode) -> None:
        """Add a thread; task ids must be unique."""
        if task.task_id in self._tasks:
            raise ValueError(f"duplicate task id {task.task_id}")
        self._tasks[task.task_id] = task
        self._succ[task.task_id] = {}
        self._pred[task.task_id] = []
        self._snap = None

    def replace_task(self, task: TaskNode) -> None:
        """Replace the attributes of an existing task (same id)."""
        if task.task_id not in self._tasks:
            raise ValueError(f"unknown task id {task.task_id}")
        self._tasks[task.task_id] = task
        self._snap = None

    def scale_volumes(self, factor: float) -> None:
        """Multiply every edge's communication volume by ``factor``.

        Used by the profile builder to normalise a generated graph to an
        application's total communication volume: the data a program
        moves is set by its problem size, so finer partitioning (higher
        DoP) means proportionally less volume per edge.
        """
        if factor < 0:
            raise ValueError("factor must be non-negative")
        for succ in self._succ.values():
            for v in succ:
                succ[v] = succ[v] * factor
        self._snap = None

    def add_edge(self, src: int, dst: int, volume_bytes: float) -> None:
        """Add a communication edge; both endpoints must exist.

        The graph stays acyclic: an edge closes a cycle exactly when
        ``src`` is already reachable from ``dst``, and such an edge is
        rejected with the graph unchanged.  Adding an existing edge
        again replaces its volume.
        """
        if src not in self._tasks or dst not in self._tasks:
            raise ValueError(f"edge ({src}, {dst}) references unknown task")
        if src == dst:
            raise ValueError("self edges are not allowed")
        if volume_bytes < 0:
            raise ValueError("volume must be non-negative")
        if self._reaches(dst, src):
            raise ValueError(f"edge ({src}, {dst}) would create a cycle")
        succ = self._succ[src]
        if dst not in succ:
            self._pred[dst].append(src)
        succ[dst] = float(volume_bytes)
        self._snap = None

    def _reaches(self, start: int, target: int) -> bool:
        """Whether ``target`` is reachable from ``start`` along edges."""
        seen = {start}
        stack = [start]
        while stack:
            for v in self._succ[stack.pop()]:
                if v == target:
                    return True
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _snapshot(self) -> _Snapshot:
        snap = self._snap
        if snap is None:
            succ, pred = self._succ, self._pred
            snap = self._snap = _Snapshot(
                tasks=tuple(self._tasks[i] for i in sorted(self._tasks)),
                edges=tuple(
                    (u, v, w) for u, out in succ.items() for v, w in out.items()
                ),
                predecessors={n: tuple(sorted(pred[n])) for n in succ},
                successors={n: tuple(sorted(succ[n])) for n in succ},
                topological_order=self._kahn_order(),
            )
        return snap

    def _kahn_order(self) -> Tuple[int, ...]:
        """Kahn's algorithm, always releasing the smallest ready task id."""
        indegree = {n: len(p) for n, p in self._pred.items()}
        ready = [n for n, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for v in self._succ[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    heapq.heappush(ready, v)
        return tuple(order)

    @property
    def task_count(self) -> int:
        return len(self._tasks)

    def task(self, task_id: int) -> TaskNode:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise KeyError(f"unknown task id {task_id}")

    def tasks(self) -> Tuple[TaskNode, ...]:
        """All tasks ordered by id."""
        return self._snapshot().tasks

    def edges(self) -> Tuple[Tuple[int, int, float], ...]:
        """All edges as ``(src, dst, volume_bytes)``."""
        return self._snapshot().edges

    def edges_by_volume(self) -> List[Tuple[int, int, float]]:
        """Edges sorted by decreasing volume (ties broken by endpoints for
        determinism) - the order consumed by Algorithm 2."""
        return sorted(self.edges(), key=lambda e: (-e[2], e[0], e[1]))

    def volume(self, src: int, dst: int) -> float:
        """Volume of one edge (0 if absent)."""
        return self._succ.get(src, {}).get(dst, 0.0)

    def total_volume_bytes(self) -> float:
        return sum(v for _, _, v in self.edges())

    def predecessors(self, task_id: int) -> List[int]:
        """Ids of the task's predecessors, ascending (a fresh list)."""
        return list(self._snapshot().predecessors[task_id])

    def successors(self, task_id: int) -> List[int]:
        """Ids of the task's successors, ascending (a fresh list)."""
        return list(self._snapshot().successors[task_id])

    def topological_order(self) -> Tuple[int, ...]:
        """Deterministic topological order of task ids."""
        return self._snapshot().topological_order

    def sources(self) -> List[int]:
        preds = self._snapshot().predecessors
        return [t.task_id for t in self.tasks() if not preds[t.task_id]]

    def sinks(self) -> List[int]:
        succs = self._snapshot().successors
        return [t.task_id for t in self.tasks() if not succs[t.task_id]]

    def high_tasks(self) -> List[int]:
        return [t.task_id for t in self.tasks() if t.activity_bin.is_high]

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------

    @classmethod
    def layered(
        cls,
        layer_sizes: List[int],
        rng: np.random.Generator,
        work_cycles_range: Tuple[float, float],
        high_fraction: float,
        volume_range: Tuple[float, float],
        high_activity_range: Tuple[float, float] = (0.55, 0.9),
        low_activity_range: Tuple[float, float] = (0.12, 0.35),
        fanout: int = 2,
    ) -> "ApplicationGraph":
        """Random layered DAG: edges go from each task to ``fanout``
        random tasks of the next layer (plus a connectivity guarantee that
        every task has at least one predecessor in the previous layer).
        """
        if any(s < 1 for s in layer_sizes) or not layer_sizes:
            raise ValueError("layer sizes must be positive")
        if not 0.0 <= high_fraction <= 1.0:
            raise ValueError("high_fraction must be in [0, 1]")
        g = cls()
        task_count = sum(layer_sizes)
        n_high = int(round(high_fraction * task_count))
        # Deterministic bin assignment: shuffle ids, first n_high are HIGH.
        ids = list(range(task_count))
        rng.shuffle(ids)
        high_set = set(ids[:n_high])
        for i in range(task_count):
            is_high = i in high_set
            bin_ = ActivityBin.HIGH if is_high else ActivityBin.LOW
            factor_range = high_activity_range if is_high else low_activity_range
            g.add_task(
                TaskNode(
                    i,
                    bin_,
                    float(rng.uniform(*work_cycles_range)),
                    float(rng.uniform(*factor_range)),
                )
            )
        # Layer index bounds.
        starts = np.cumsum([0] + layer_sizes).tolist()
        for layer in range(len(layer_sizes) - 1):
            cur = range(starts[layer], starts[layer + 1])
            nxt = list(range(starts[layer + 1], starts[layer + 2]))
            fed = set()  # tasks of nxt with a predecessor
            for u in cur:
                targets = rng.choice(
                    nxt, size=min(fanout, len(nxt)), replace=False
                )
                for v in targets:
                    if g.volume(u, int(v)) <= 0.0:
                        g.add_edge(u, int(v), float(rng.uniform(*volume_range)))
                    fed.add(int(v))
            for v in nxt:
                if v not in fed:
                    u = int(rng.choice(list(cur)))
                    g.add_edge(u, v, float(rng.uniform(*volume_range)))
        return g
