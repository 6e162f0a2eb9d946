"""Tests for the odd-even turn-model extension routing."""

import pytest
from hypothesis import given, settings, strategies as st

from cycle_oracle import CycleNocSimulator, TrafficFlow
from repro.chip.mesh import MeshGeometry
from repro.noc.routing import OddEvenRouting, make_routing
from repro.noc.topology import Direction, MeshTopology


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshGeometry(8, 6))


class TestTurnRules:
    def test_factory_names(self):
        assert isinstance(make_routing("odd-even"), OddEvenRouting)
        assert isinstance(make_routing("ODDEVEN"), OddEvenRouting)

    def test_arrival_returns_empty(self, topo):
        assert OddEvenRouting().permissible(topo, 10, 10) == []

    def test_aligned_routes_are_direct(self, topo):
        oe = OddEvenRouting()
        assert oe.permissible(topo, 0, 3) == [Direction.EAST]
        assert oe.permissible(topo, 3, 0) == [Direction.WEST]
        assert oe.permissible(topo, 0, 16) == [Direction.SOUTH]

    def test_no_east_turnoff_in_even_columns(self, topo):
        """EN/ES turns forbidden at even columns (conservative variant:
        vertical never offered while eastbound at an even column unless
        the east move itself is illegal)."""
        oe = OddEvenRouting()
        for cur in range(topo.mesh.tile_count):
            cx, _ = topo.mesh.coord_of(cur)
            for dst in range(topo.mesh.tile_count):
                dx_, _ = topo.mesh.coord_of(dst)
                dirs = oe.permissible(topo, cur, dst)
                eastbound = dx_ > cx
                if eastbound and cx % 2 == 0 and Direction.EAST in dirs:
                    assert Direction.NORTH not in dirs
                    assert Direction.SOUTH not in dirs

    def test_no_west_turnoff_in_odd_columns(self, topo):
        oe = OddEvenRouting()
        for cur in range(topo.mesh.tile_count):
            cx, _ = topo.mesh.coord_of(cur)
            for dst in range(topo.mesh.tile_count):
                dx_, _ = topo.mesh.coord_of(dst)
                dirs = oe.permissible(topo, cur, dst)
                if dx_ < cx and cx % 2 == 1:
                    assert dirs == [Direction.WEST]

    @settings(max_examples=60)
    @given(cur=st.integers(0, 47), dst=st.integers(0, 47))
    def test_minimal_and_always_progressing(self, topo, cur, dst):
        """Every offered hop reduces distance; some hop is always
        offered until arrival."""
        oe = OddEvenRouting()
        dirs = oe.permissible(topo, cur, dst)
        if cur == dst:
            assert dirs == []
            return
        assert dirs
        for d in dirs:
            nxt = topo.neighbor(cur, d)
            assert nxt is not None
            assert (
                topo.mesh.manhattan(nxt, dst)
                == topo.mesh.manhattan(cur, dst) - 1
            )


class TestDelivery:
    def test_cycle_sim_delivers_under_load(self):
        mesh = MeshGeometry(6, 6)
        sim = CycleNocSimulator(mesh, OddEvenRouting(), seed=1)
        flows = [
            TrafficFlow(0, 35, 0.3),
            TrafficFlow(5, 30, 0.3),
            TrafficFlow(30, 5, 0.25),
            TrafficFlow(35, 0, 0.25),
        ]
        stats = sim.run(flows, 5000)
        assert stats.packets_delivered >= stats.packets_injected - 8
