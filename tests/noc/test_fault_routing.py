"""NoC graceful degradation under faults.

Covers the three fault-facing behaviours: PANR's deterministic-XY
fallback when sensor readings cannot be trusted, the analytical model
routing around dead links/routers, and unroutable-flow flagging when no
route survives.
"""

import numpy as np
import pytest

from repro.chip.mesh import MeshGeometry
from repro.noc.analytical import AnalyticalNocModel, Flow
from repro.noc.routing import PanrRouting, WestFirstRouting, XYRouting
from repro.noc.routing.base import FREE_HOP
from repro.noc.topology import Direction, MeshTopology
from routing_oracle import RoutingContext, array_select, array_weights


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshGeometry(6, 6))


def all_invalid_ctx():
    return RoutingContext(
        neighbor_psn_pct={d: 3.0 for d in Direction},
        neighbor_psn_valid={d: False for d in Direction},
    )


class TestPanrSensorFallback:
    def test_fully_faulted_sensors_reduce_panr_to_xy(self, topo):
        """With every sensor reading untrusted, PANR must route exactly
        like deterministic XY at every hop (the acceptance criterion
        for sensor-fault degradation): its forced hops are XY's, and at
        every free hop its weights put 1.0 on XY's direction alone."""
        panr, xy = PanrRouting(), XYRouting()
        ctx = all_invalid_ctx()
        forced = panr.forced_hops(topo)
        want = xy.forced_hops(topo)
        free = 0
        for cur in topo.mesh.tiles():
            for dst in topo.mesh.tiles():
                if forced[cur, dst] != FREE_HOP:
                    assert forced[cur, dst] == want[cur, dst], (cur, dst)
                    continue
                free += 1
                (xy_dir,) = xy.permissible(topo, cur, dst)
                got = array_weights(panr, topo, cur, dst, ctx)
                assert got == {
                    d: float(d is xy_dir) for d in got
                }, (cur, dst)
                assert array_select(panr, topo, cur, dst, ctx) is xy_dir
        assert free > 0

    def test_single_untrusted_direction_triggers_fallback(self, topo):
        """One untrusted permissible direction is enough: a poisoned
        comparison cannot be salvaged by the other operand."""
        panr = PanrRouting()
        # At tile 0 toward 14 (east + south permissible for west-first).
        ctx = RoutingContext(
            neighbor_psn_pct={Direction.EAST: 0.0, Direction.SOUTH: 9.0},
            neighbor_psn_valid={Direction.SOUTH: False},
        )
        # XY goes east first.
        want = {Direction.EAST: 1.0, Direction.SOUTH: 0.0}
        assert array_weights(panr, topo, 0, 14, ctx) == want

    def test_trusted_sensors_keep_adaptive_selection(self, topo):
        """Sanity: with valid readings PANR still steers by PSN."""
        panr = PanrRouting()
        quiet_south = RoutingContext(
            neighbor_psn_pct={Direction.EAST: 9.0, Direction.SOUTH: 0.5},
        )
        weights = array_weights(panr, topo, 0, 14, quiet_south)
        assert weights[Direction.SOUTH] > weights[Direction.EAST]

    def test_xy_choice_always_permissible_under_west_first(self, topo):
        """The fallback preserves the turn model: XY's direction is
        always inside west-first's permissible set."""
        xy, wf = XYRouting(), WestFirstRouting()
        for cur in topo.mesh.tiles():
            for dst in topo.mesh.tiles():
                if cur == dst:
                    continue
                xy_dirs = xy.permissible(topo, cur, dst)
                assert len(xy_dirs) == 1
                assert xy_dirs[0] in wf.permissible(topo, cur, dst)


class TestDeadLinkRouting:
    def test_adaptive_routes_around_dead_link(self, topo):
        """West-first re-splits onto surviving minimal paths."""
        model = AnalyticalNocModel(topo, WestFirstRouting())
        dead = {(0, Direction.EAST)}
        rep = model.evaluate([Flow(0, 14, 0.4)], dead_links=dead)
        stats = rep.flows[0]
        assert not stats.unroutable
        assert (0, Direction.EAST) not in rep.link_rho
        # All traffic leaves tile 0 southward instead.
        assert rep.link_rho[(0, Direction.SOUTH)] > 0
        assert rep.router_flits_per_cycle[14] == pytest.approx(0.4)

    def test_xy_flow_blocked_by_dead_link_is_unroutable(self, topo):
        """Deterministic XY has a single path; killing it must flag the
        flow instead of raising."""
        model = AnalyticalNocModel(topo, XYRouting())
        rep = model.evaluate(
            [Flow(0, 2, 0.4), Flow(12, 13, 0.1)],
            dead_links={(1, Direction.EAST)},
        )
        assert rep.flows[0].unroutable
        assert not rep.flows[1].unroutable
        assert rep.unroutable_flow_indices == [0]

    def test_dead_router_blocks_endpoints_and_transit(self, topo):
        model = AnalyticalNocModel(topo, WestFirstRouting())
        rep = model.evaluate(
            [Flow(7, 9, 0.2), Flow(8, 1, 0.2), Flow(0, 3, 0.2)],
            dead_routers={8},
        )
        # Transit around router 8 is possible on other minimal paths? No:
        # 7 -> 9 is a straight east row; west-first allows no detour, so
        # the flow is unroutable.  A flow from the dead router itself is
        # unroutable by definition.
        assert rep.flows[0].unroutable
        assert rep.flows[1].unroutable
        assert not rep.flows[2].unroutable

    def test_fault_free_evaluate_unchanged(self, topo):
        """Passing no fault arguments must reproduce the plain report."""
        model = AnalyticalNocModel(topo, PanrRouting())
        flows = [Flow(0, 14, 0.3), Flow(20, 3, 0.2)]
        psn = np.linspace(0.0, 4.0, topo.mesh.tile_count)
        plain = model.evaluate(flows, psn_pct=psn)
        faulted = model.evaluate(
            flows, psn_pct=psn, dead_links=set(), dead_routers=set()
        )
        assert plain.link_rho == faulted.link_rho
        for a, b in zip(plain.flows, faulted.flows):
            assert a.avg_hops == b.avg_hops
            assert a.latency_scale == b.latency_scale

    def test_psn_valid_shape_checked(self, topo):
        model = AnalyticalNocModel(topo, PanrRouting())
        with pytest.raises(ValueError):
            model.evaluate([Flow(0, 1, 0.1)], psn_valid=np.ones(3, bool))

    def test_all_sensors_invalid_matches_xy_loads(self, topo):
        """End to end through the analytical model: PANR with every
        reading untrusted produces XY's link loads."""
        flows = [Flow(0, 14, 0.3), Flow(35, 3, 0.2), Flow(6, 29, 0.25)]
        psn = np.linspace(0.0, 4.0, topo.mesh.tile_count)
        invalid = np.zeros(topo.mesh.tile_count, dtype=bool)
        panr_rep = AnalyticalNocModel(topo, PanrRouting()).evaluate(
            flows, psn_pct=psn, psn_valid=invalid
        )
        xy_rep = AnalyticalNocModel(topo, XYRouting()).evaluate(flows)
        assert set(panr_rep.link_rho) == set(xy_rep.link_rho)
        for link, rho in xy_rep.link_rho.items():
            assert panr_rep.link_rho[link] == pytest.approx(rho)
