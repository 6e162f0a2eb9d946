"""The APG's structural queries: one snapshot, fresh after every mutator,
and the plain-dict store checked against a networkx ``DiGraph`` built
from the same calls (networkx is the oracle here, not a dependency)."""

import dataclasses

import networkx as nx
import numpy as np
import pytest

from repro.apps.graph import ApplicationGraph, TaskNode
from repro.pdn.waveforms import ActivityBin


def node(i, work=1e6):
    bin_ = ActivityBin.HIGH if i % 2 == 0 else ActivityBin.LOW
    return TaskNode(i, bin_, work, 0.5)


def add_edge_whole_graph_check(g, src, dst, volume):
    """The networkx ``add_edge``: insert, then reject on any cycle."""
    g.add_edge(src, dst, volume_bytes=float(volume))
    if not nx.is_directed_acyclic_graph(g):
        g.remove_edge(src, dst)
        raise ValueError(f"edge ({src}, {dst}) would create a cycle")


class Mirrored:
    """An :class:`ApplicationGraph` and a networkx oracle fed the same
    calls; each mutator checks that both accept or reject alike."""

    def __init__(self):
        self.g = ApplicationGraph()
        self.oracle = nx.DiGraph()
        self.task_nodes = {}

    def add_task(self, task):
        self.g.add_task(task)
        self.oracle.add_node(task.task_id)
        self.task_nodes[task.task_id] = task

    def replace_task(self, task):
        self.g.replace_task(task)
        self.task_nodes[task.task_id] = task

    def scale_volumes(self, factor):
        self.g.scale_volumes(factor)
        for _, _, data in self.oracle.edges(data=True):
            data["volume_bytes"] = data["volume_bytes"] * factor

    def add_edge(self, src, dst, volume):
        """Apply to both; return the rejection message or None."""
        try:
            add_edge_whole_graph_check(self.oracle, src, dst, volume)
            expected = None
        except ValueError as exc:
            expected = str(exc)
        try:
            self.g.add_edge(src, dst, volume)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected
        return got


def answers(g):
    """Every query of the graph, as plain comparable values."""
    ids = [t.task_id for t in g.tasks()]
    return {
        "task_count": g.task_count,
        "tasks": list(g.tasks()),
        "task": {t: g.task(t) for t in ids},
        "edges": list(g.edges()),
        "edges_by_volume": g.edges_by_volume(),
        "volume": {(u, v): g.volume(u, v) for u in ids for v in ids},
        "total_volume_bytes": g.total_volume_bytes(),
        "predecessors": {t: g.predecessors(t) for t in ids},
        "successors": {t: g.successors(t) for t in ids},
        "topological_order": list(g.topological_order()),
        "sources": g.sources(),
        "sinks": g.sinks(),
        "high_tasks": g.high_tasks(),
    }


def reference(m):
    """The same answers computed from the networkx oracle."""
    o = m.oracle
    ids = sorted(m.task_nodes)
    tasks = [m.task_nodes[i] for i in ids]
    edges = [(u, v, d["volume_bytes"]) for u, v, d in o.edges(data=True)]
    volume = {}
    for u in ids:
        for v in ids:
            data = o.get_edge_data(u, v)
            volume[(u, v)] = data["volume_bytes"] if data else 0.0
    return {
        "task_count": o.number_of_nodes(),
        "tasks": tasks,
        "task": dict(zip(ids, tasks)),
        "edges": edges,
        "edges_by_volume": sorted(edges, key=lambda e: (-e[2], e[0], e[1])),
        "volume": volume,
        "total_volume_bytes": sum(w for _, _, w in edges),
        "predecessors": {t: sorted(o.predecessors(t)) for t in ids},
        "successors": {t: sorted(o.successors(t)) for t in ids},
        "topological_order": list(nx.lexicographical_topological_sort(o)),
        "sources": [t for t in ids if o.in_degree(t) == 0],
        "sinks": [t for t in ids if o.out_degree(t) == 0],
        "high_tasks": [t.task_id for t in tasks if t.activity_bin.is_high],
    }


@pytest.fixture
def diamond():
    m = Mirrored()
    for i in range(4):
        m.add_task(node(i))
    m.add_edge(0, 1, 100.0)
    m.add_edge(0, 2, 300.0)
    m.add_edge(1, 3, 200.0)
    m.add_edge(2, 3, 50.0)
    return m


class TestSnapshot:
    def test_answers_match_networkx(self, diamond):
        assert answers(diamond.g) == reference(diamond)

    def test_every_mutator_refreshes_the_answers(self, diamond):
        m, g = diamond, diamond.g
        before = answers(g)

        m.add_task(node(4))
        after_task = answers(g)
        assert after_task != before
        assert after_task == reference(m)
        assert g.topological_order()[-1] == 4

        assert m.add_edge(3, 4, 25.0) is None
        assert answers(g) == reference(m)
        assert g.successors(3) == [4]
        assert g.predecessors(4) == [3]
        assert (3, 4, 25.0) in g.edges()

        # Adding an existing edge again replaces its volume in place.
        assert m.add_edge(0, 1, 150.0) is None
        assert answers(g) == reference(m)
        assert g.edges()[0] == (0, 1, 150.0)
        assert g.predecessors(1) == [0]

        m.replace_task(dataclasses.replace(g.task(0), work_cycles=7.0))
        assert g.tasks()[0].work_cycles == 7.0
        assert answers(g) == reference(m)

        m.scale_volumes(2.0)
        assert dict(((u, v), w) for u, v, w in g.edges())[(0, 2)] == 600.0
        assert answers(g) == reference(m)

        m.scale_volumes(1.0 / 3.0)
        assert answers(g) == reference(m)

    def test_rejected_edge_keeps_the_answers(self, diamond):
        before = answers(diamond.g)
        with pytest.raises(ValueError, match="cycle"):
            diamond.g.add_edge(3, 0, 1.0)
        assert answers(diamond.g) == before

    def test_callers_cannot_mutate_the_snapshot(self, diamond):
        g = diamond.g
        g.predecessors(3).append(99)
        g.successors(0).clear()
        assert g.predecessors(3) == [1, 2]
        assert g.successors(0) == [1, 2]
        for shared in (g.tasks(), g.edges(), g.topological_order()):
            assert isinstance(shared, tuple)

    def test_repeated_queries_share_one_snapshot(self, diamond):
        g = diamond.g
        assert g.edges() is g.edges()
        assert g.tasks() is g.tasks()
        assert g.topological_order() is g.topological_order()


class TestIncrementalCycleCheck:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_decisions_as_whole_graph_check(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        m = Mirrored()
        # Insert tasks out of id order so that insertion order and id
        # order differ in edges() and in the topological tie-breaks.
        for i in rng.permutation(n):
            m.add_task(node(int(i)))
        rejected = 0
        for _ in range(4 * n):
            src, dst = (int(x) for x in rng.choice(n, size=2, replace=False))
            volume = float(rng.uniform(1.0, 10.0))
            rejected += m.add_edge(src, dst, volume) is not None
            assert answers(m.g) == reference(m)
        m.scale_volumes(float(rng.uniform(0.1, 3.0)))
        assert answers(m.g) == reference(m)
        assert rejected > 0  # the sequence exercises rejection

    def test_long_cycle_rejected(self):
        g = ApplicationGraph()
        for i in range(6):
            g.add_task(node(i))
        for i in range(5):
            g.add_edge(i, i + 1, 1.0)
        with pytest.raises(ValueError, match=r"edge \(5, 0\) would create a cycle"):
            g.add_edge(5, 0, 1.0)
        assert len(g.edges()) == 5
        assert g.volume(5, 0) == 0.0
        # A shortcut along the existing direction is fine.
        g.add_edge(0, 5, 2.0)
        assert g.successors(0) == [1, 5]
