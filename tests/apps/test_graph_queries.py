"""The APG's structural queries: one snapshot, fresh after every mutator,
and an incremental cycle check with the old whole-graph decisions."""

import dataclasses

import networkx as nx
import numpy as np
import pytest

from repro.apps.graph import ApplicationGraph, TaskNode
from repro.pdn.waveforms import ActivityBin


def node(i, work=1e6):
    bin_ = ActivityBin.HIGH if i % 2 == 0 else ActivityBin.LOW
    return TaskNode(i, bin_, work, 0.5)


def answers(g):
    """Every structural query, as plain comparable values."""
    ids = [t.task_id for t in g.tasks()]
    return {
        "tasks": list(g.tasks()),
        "edges": list(g.edges()),
        "predecessors": {t: g.predecessors(t) for t in ids},
        "successors": {t: g.successors(t) for t in ids},
        "topological_order": list(g.topological_order()),
    }


def reference(g):
    """The same answers computed from networkx, as the queries did
    before the snapshot."""
    ids = sorted(g._tasks)
    return {
        "tasks": [g._tasks[i] for i in ids],
        "edges": [(u, v, d["volume_bytes"]) for u, v, d in g._g.edges(data=True)],
        "predecessors": {t: sorted(g._g.predecessors(t)) for t in ids},
        "successors": {t: sorted(g._g.successors(t)) for t in ids},
        "topological_order": list(nx.lexicographical_topological_sort(g._g)),
    }


@pytest.fixture
def diamond():
    g = ApplicationGraph()
    for i in range(4):
        g.add_task(node(i))
    g.add_edge(0, 1, 100.0)
    g.add_edge(0, 2, 300.0)
    g.add_edge(1, 3, 200.0)
    g.add_edge(2, 3, 50.0)
    return g


class TestSnapshot:
    def test_answers_match_networkx(self, diamond):
        assert answers(diamond) == reference(diamond)

    def test_every_mutator_refreshes_the_answers(self, diamond):
        g = diamond
        before = answers(g)

        g.add_task(node(4))
        after_task = answers(g)
        assert after_task != before
        assert after_task == reference(g)
        assert g.topological_order()[-1] == 4

        g.add_edge(3, 4, 25.0)
        assert answers(g) == reference(g)
        assert g.successors(3) == [4]
        assert g.predecessors(4) == [3]
        assert (3, 4, 25.0) in g.edges()

        g.replace_task(dataclasses.replace(g.task(0), work_cycles=7.0))
        assert g.tasks()[0].work_cycles == 7.0
        assert answers(g) == reference(g)

        g.scale_volumes(2.0)
        assert dict(((u, v), w) for u, v, w in g.edges())[(0, 2)] == 600.0
        assert answers(g) == reference(g)

    def test_rejected_edge_keeps_the_answers(self, diamond):
        before = answers(diamond)
        with pytest.raises(ValueError, match="cycle"):
            diamond.add_edge(3, 0, 1.0)
        assert answers(diamond) == before

    def test_callers_cannot_mutate_the_snapshot(self, diamond):
        diamond.predecessors(3).append(99)
        diamond.successors(0).clear()
        assert diamond.predecessors(3) == [1, 2]
        assert diamond.successors(0) == [1, 2]
        for shared in (
            diamond.tasks(),
            diamond.edges(),
            diamond.topological_order(),
        ):
            assert isinstance(shared, tuple)

    def test_repeated_queries_share_one_snapshot(self, diamond):
        assert diamond.edges() is diamond.edges()
        assert diamond.tasks() is diamond.tasks()
        assert diamond.topological_order() is diamond.topological_order()


def add_edge_whole_graph_check(g, src, dst, volume):
    """The former ``add_edge``: insert, then reject on any cycle."""
    g.add_edge(src, dst, volume_bytes=float(volume))
    if not nx.is_directed_acyclic_graph(g):
        g.remove_edge(src, dst)
        raise ValueError(f"edge ({src}, {dst}) would create a cycle")


class TestIncrementalCycleCheck:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_decisions_as_whole_graph_check(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        g = ApplicationGraph()
        oracle = nx.DiGraph()
        for i in range(n):
            g.add_task(node(i))
            oracle.add_node(i)
        rejected = 0
        for _ in range(4 * n):
            src, dst = (int(x) for x in rng.choice(n, size=2, replace=False))
            volume = float(rng.uniform(1.0, 10.0))
            try:
                add_edge_whole_graph_check(oracle, src, dst, volume)
                expected = None
            except ValueError as exc:
                expected = str(exc)
            try:
                g.add_edge(src, dst, volume)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expected
            rejected += got is not None
            assert list(g.edges()) == [
                (u, v, d["volume_bytes"]) for u, v, d in oracle.edges(data=True)
            ]
        assert g._g.number_of_edges() == oracle.number_of_edges()
        assert nx.is_directed_acyclic_graph(g._g)
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
