"""Tests for application graphs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.graph import ApplicationGraph, TaskNode
from repro.pdn.waveforms import ActivityBin


def node(i, bin_=ActivityBin.HIGH, work=1e6, factor=0.5):
    return TaskNode(i, bin_, work, factor)


@pytest.fixture
def diamond():
    """0 -> {1, 2} -> 3 with distinct volumes."""
    g = ApplicationGraph()
    for i in range(4):
        bin_ = ActivityBin.HIGH if i % 2 == 0 else ActivityBin.LOW
        g.add_task(node(i, bin_))
    g.add_edge(0, 1, 100.0)
    g.add_edge(0, 2, 300.0)
    g.add_edge(1, 3, 200.0)
    g.add_edge(2, 3, 50.0)
    return g


class TestTaskNode:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskNode(-1, ActivityBin.HIGH, 1.0, 0.5)
        with pytest.raises(ValueError):
            TaskNode(0, ActivityBin.HIGH, -1.0, 0.5)
        with pytest.raises(ValueError):
            TaskNode(0, ActivityBin.HIGH, 1.0, 1.5)


class TestConstruction:
    def test_duplicate_task_rejected(self):
        g = ApplicationGraph()
        g.add_task(node(0))
        with pytest.raises(ValueError, match="duplicate"):
            g.add_task(node(0))

    def test_edge_to_unknown_task_rejected(self):
        g = ApplicationGraph()
        g.add_task(node(0))
        with pytest.raises(ValueError, match="unknown"):
            g.add_edge(0, 1, 10.0)

    def test_self_edge_rejected(self):
        g = ApplicationGraph()
        g.add_task(node(0))
        with pytest.raises(ValueError, match="self"):
            g.add_edge(0, 0, 10.0)

    def test_cycle_rejected_and_rolled_back(self):
        g = ApplicationGraph()
        for i in range(3):
            g.add_task(node(i))
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        with pytest.raises(ValueError, match="cycle"):
            g.add_edge(2, 0, 1.0)
        assert len(g.edges()) == 2  # offending edge not left behind

    def test_negative_volume_rejected(self, diamond):
        with pytest.raises(ValueError):
            diamond.add_edge(1, 2, -1.0)

    def test_replace_task(self, diamond):
        diamond.replace_task(node(1, ActivityBin.HIGH, work=9e9))
        assert diamond.task(1).work_cycles == 9e9
        with pytest.raises(ValueError):
            diamond.replace_task(node(99))


class TestQueries:
    def test_counts(self, diamond):
        assert diamond.task_count == 4
        assert len(diamond.edges()) == 4

    def test_edges_by_volume_descending(self, diamond):
        volumes = [v for _, _, v in diamond.edges_by_volume()]
        assert volumes == sorted(volumes, reverse=True)
        assert diamond.edges_by_volume()[0] == (0, 2, 300.0)

    def test_volume_lookup(self, diamond):
        assert diamond.volume(0, 2) == 300.0
        assert diamond.volume(2, 0) == 0.0

    def test_total_volume(self, diamond):
        assert diamond.total_volume_bytes() == 650.0

    def test_topology_queries(self, diamond):
        assert diamond.sources() == [0]
        assert diamond.sinks() == [3]
        assert diamond.predecessors(3) == [1, 2]
        assert diamond.successors(0) == [1, 2]
        order = diamond.topological_order()
        assert order.index(0) < order.index(1) < order.index(3)

    def test_bin_partition(self, diamond):
        assert diamond.high_tasks() == [0, 2]

    def test_unknown_task_lookup(self, diamond):
        with pytest.raises(KeyError):
            diamond.task(7)


class TestLayered:
    def _make(self, sizes, high_fraction=0.5, seed=0):
        return ApplicationGraph.layered(
            layer_sizes=sizes,
            rng=np.random.default_rng(seed),
            work_cycles_range=(1e6, 2e6),
            high_fraction=high_fraction,
            volume_range=(10.0, 100.0),
        )

    def test_every_noninitial_task_has_predecessor(self):
        g = self._make([1, 4, 4, 1])
        for t in g.tasks():
            if t.task_id != 0:
                assert g.predecessors(t.task_id), f"task {t.task_id} orphaned"

    def test_task_count(self):
        g = self._make([1, 3, 3, 1])
        assert g.task_count == 8

    def test_high_fraction_respected(self):
        g = self._make([1, 8, 8, 8, 8, 1], high_fraction=0.5)
        assert len(g.high_tasks()) == g.task_count // 2

    def test_deterministic_for_seed(self):
        a, b = self._make([1, 4, 1], seed=3), self._make([1, 4, 1], seed=3)
        assert a.edges() == b.edges()
        assert [t.work_cycles for t in a.tasks()] == [
            t.work_cycles for t in b.tasks()
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            self._make([])
        with pytest.raises(ValueError):
            self._make([1, 0, 1])
        with pytest.raises(ValueError):
            ApplicationGraph.layered(
                [1, 2, 1],
                np.random.default_rng(0),
                (1e6, 2e6),
                high_fraction=1.5,
                volume_range=(1.0, 2.0),
            )

    @settings(max_examples=20)
    @given(
        widths=st.lists(st.integers(1, 6), min_size=2, max_size=5),
        seed=st.integers(0, 100),
    )
    def test_always_acyclic_and_connected(self, widths, seed):
        g = self._make(widths, seed=seed)
        order = g.topological_order()  # raises if cyclic
        assert len(order) == sum(widths)
        for t in order:
            if t >= widths[0]:
                assert g.predecessors(t)

