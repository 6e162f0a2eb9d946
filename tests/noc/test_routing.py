"""Tests for the routing algorithms.

Adaptive selection is checked on the array interface the NoC models
use (``select_columns`` / ``weight_columns``), one hand-built decision
at a time through ``routing_oracle.one_pair``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chip.mesh import MeshGeometry
from repro.noc.routing import (
    IconRouting,
    OddEvenRouting,
    PanrRouting,
    WestFirstRouting,
    XYRouting,
    make_routing,
)
from repro.noc.topology import PORT_CODES, Direction, MeshTopology
from routing_oracle import RoutingContext, array_select, array_weights


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshGeometry(6, 6))


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("xy", XYRouting),
            ("XY", XYRouting),
            ("west-first", WestFirstRouting),
            ("westfirst", WestFirstRouting),
            ("panr", PanrRouting),
            ("icon", IconRouting),
            ("odd-even", OddEvenRouting),
            ("oddeven", OddEvenRouting),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_routing(name), cls)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="warp"):
            make_routing("warp")


class TestXY:
    def test_x_before_y(self, topo):
        # From (0,0) to (3,2): east until x matches, then south.
        assert XYRouting().permissible(topo, 0, 15) == [Direction.EAST]
        # (3,0) -> (3,2): x aligned, go south.
        assert XYRouting().permissible(topo, 3, 15) == [Direction.SOUTH]

    def test_arrival(self, topo):
        assert XYRouting().permissible(topo, 15, 15) == []

    def test_single_direction_always(self, topo):
        xy = XYRouting()
        for dst in (1, 8, 35, 30):
            for cur in range(36):
                dirs = xy.permissible(topo, cur, dst)
                assert len(dirs) <= 1


class TestWestFirst:
    def test_west_exclusive(self, topo):
        # (3,1)=9 to (1,3)=19: needs west, so west only.
        dirs = WestFirstRouting().permissible(topo, 9, 19)
        assert dirs == [Direction.WEST]

    def test_adaptive_when_no_west(self, topo):
        # (0,0) to (2,2)=14: east and south both permitted.
        dirs = WestFirstRouting().permissible(topo, 0, 14)
        assert set(dirs) == {Direction.EAST, Direction.SOUTH}

    def test_no_turn_into_west(self, topo):
        """The defining turn-model property: WEST never appears together
        with another direction."""
        wf = WestFirstRouting()
        for cur in range(36):
            for dst in range(36):
                dirs = wf.permissible(topo, cur, dst)
                if Direction.WEST in dirs:
                    assert dirs == [Direction.WEST]

    @settings(max_examples=50)
    @given(cur=st.integers(0, 35), dst=st.integers(0, 35))
    def test_minimal_and_productive(self, topo, cur, dst):
        """Every permitted hop reduces the Manhattan distance by one."""
        wf = WestFirstRouting()
        for d in wf.permissible(topo, cur, dst):
            nxt = topo.neighbor(cur, d)
            assert nxt is not None
            assert topo.mesh.manhattan(nxt, dst) == topo.mesh.manhattan(cur, dst) - 1


class TestPanr:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PanrRouting(buffer_threshold=1.5)

    def test_low_occupancy_prefers_low_psn(self, topo):
        """Algorithm 3 line 6: below B, pick the least-PSN direction."""
        panr = PanrRouting(buffer_threshold=0.5)
        ctx = RoutingContext(
            buffer_occupancy=0.2,
            neighbor_data_rate={Direction.EAST: 0.9, Direction.SOUTH: 0.1},
            neighbor_psn_pct={Direction.EAST: 1.0, Direction.SOUTH: 6.0},
        )
        # 0 -> 14: east or south permitted; east has lower PSN.
        assert array_select(panr, topo, 0, 14, ctx) is Direction.EAST

    def test_high_occupancy_prefers_low_data_rate(self, topo):
        """Algorithm 3 line 5: above B, pick the least-congested."""
        panr = PanrRouting(buffer_threshold=0.5)
        ctx = RoutingContext(
            buffer_occupancy=0.8,
            neighbor_data_rate={Direction.EAST: 0.9, Direction.SOUTH: 0.1},
            neighbor_psn_pct={Direction.EAST: 1.0, Direction.SOUTH: 6.0},
        )
        assert array_select(panr, topo, 0, 14, ctx) is Direction.SOUTH

    def test_single_permitted_direction_short_circuits(self, topo):
        # 9 -> 19 requires west regardless of noise: the hop comes from
        # the forced-hop table, and the policy is never asked there.
        panr = PanrRouting()
        assert panr.permissible(topo, 9, 19) == [Direction.WEST]
        assert panr.forced_hops(topo)[9, 19] == PORT_CODES[Direction.WEST]

    def test_weights_inverse_to_metric(self, topo):
        panr = PanrRouting()
        ctx = RoutingContext(
            buffer_occupancy=0.0,
            neighbor_psn_pct={Direction.EAST: 2.0, Direction.SOUTH: 4.0},
        )
        w = array_weights(panr, topo, 0, 14, ctx)
        assert w[Direction.EAST] > w[Direction.SOUTH]


class TestIcon:
    def test_activity_balancing_regardless_of_psn(self, topo):
        """ICON ignores core PSN entirely - its defining limitation."""
        icon = IconRouting()
        ctx = RoutingContext(
            buffer_occupancy=0.0,
            neighbor_data_rate={Direction.EAST: 0.9, Direction.SOUTH: 0.1},
            neighbor_psn_pct={Direction.EAST: 0.1, Direction.SOUTH: 99.0},
        )
        assert array_select(icon, topo, 0, 14, ctx) is Direction.SOUTH

    def test_respects_west_first_turns(self, topo):
        icon = IconRouting()
        assert icon.permissible(topo, 9, 19) == [Direction.WEST]


class TestSelectDeterminism:
    def test_ties_break_deterministically(self, topo):
        panr = PanrRouting()
        ctx = RoutingContext(
            buffer_occupancy=0.0,
            neighbor_psn_pct={Direction.EAST: 1.0, Direction.SOUTH: 1.0},
        )
        picks = {array_select(panr, topo, 0, 14, ctx) for _ in range(5)}
        # Equal weights: the lower port code (EAST) wins.
        assert picks == {Direction.EAST}
