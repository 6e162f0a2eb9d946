"""Tests for the analytical flow-based NoC model."""

import numpy as np
import pytest

from repro.chip.mesh import MeshGeometry
from repro.noc.analytical import AnalyticalNocModel, Flow
from repro.noc.batch import BatchedNocEngine, TrafficFlow
from repro.noc.routing import (
    IconRouting,
    OddEvenRouting,
    PanrRouting,
    WestFirstRouting,
    XYRouting,
    make_routing,
)
from repro.noc.topology import PORT_CODES, Direction, MeshTopology


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshGeometry(6, 6))


def model(topo, routing=None, **kw):
    return AnalyticalNocModel(topo, routing or XYRouting(), **kw)


class TestFlowValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            Flow(0, 1, -0.5)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        # Before the check, a 4x4 XY evaluate of these flows returned
        # NaN router loads and latencies with saturated=False.
        xy = model(MeshTopology(MeshGeometry(4, 4)))
        with pytest.raises(ValueError, match="finite"):
            xy.evaluate([Flow(0, 5, rate), Flow(1, 2, 0.1)])

    def test_constructor_validation(self, topo):
        with pytest.raises(ValueError):
            AnalyticalNocModel(topo, XYRouting(), iterations=0)
        with pytest.raises(ValueError):
            AnalyticalNocModel(topo, XYRouting(), link_bandwidth=0.0)

    def test_bad_psn_shape(self, topo):
        with pytest.raises(ValueError):
            model(topo).evaluate([Flow(0, 1, 0.1)], psn_pct=np.zeros(3))

    def test_bad_tile_ids(self, topo):
        with pytest.raises(ValueError):
            model(topo).evaluate([Flow(0, 99, 0.1)])


class TestConservation:
    def test_xy_single_flow_loads_path_links(self, topo):
        rep = model(topo).evaluate([Flow(0, 2, 0.4)])
        # Utilisation includes the burstiness factor (default 1.6).
        assert rep.link_rho[(0, Direction.EAST)] == pytest.approx(0.4 * 1.6)
        assert rep.link_rho[(1, Direction.EAST)] == pytest.approx(0.4 * 1.6)
        assert (2, Direction.EAST) not in rep.link_rho

    def test_router_load_includes_endpoints(self, topo):
        rep = model(topo).evaluate([Flow(0, 2, 0.4)])
        for t in (0, 1, 2):
            assert rep.router_flits_per_cycle[t] == pytest.approx(0.4)
        assert rep.router_flits_per_cycle[3] == 0.0

    def test_adaptive_split_conserves_flow(self, topo):
        """West-first splits over minimal paths; total ejected flow at
        the destination must equal the injected rate."""
        rep = model(topo, WestFirstRouting()).evaluate([Flow(0, 14, 0.6)])
        assert rep.router_flits_per_cycle[14] == pytest.approx(0.6)
        # Inflow to dst = sum of link loads on its incoming links
        # (link_rho carries the burstiness factor).
        inflow = sum(
            rho
            for (tile, d), rho in rep.link_rho.items()
            if topo.neighbor(tile, d) == 14
        )
        assert inflow == pytest.approx(0.6 * 1.6)

    def test_zero_rate_and_self_flow(self, topo):
        rep = model(topo).evaluate([Flow(0, 5, 0.0), Flow(3, 3, 0.5)])
        assert rep.avg_latency_cycles == 0.0
        assert float(np.max(rep.router_flits_per_cycle)) == 0.0


class TestLatency:
    def test_hops_match_manhattan_for_minimal_routing(self, topo):
        rep = model(topo, WestFirstRouting()).evaluate([Flow(0, 14, 0.2)])
        assert rep.flows[0].avg_hops == pytest.approx(4.0)

    def test_latency_grows_with_load(self, topo):
        light = model(topo).evaluate([Flow(0, 5, 0.1)])
        heavy = model(topo).evaluate([Flow(0, 5, 0.85)])
        assert (
            heavy.flows[0].header_latency_cycles
            > light.flows[0].header_latency_cycles
        )

    def test_latency_scale_grows_near_saturation(self, topo):
        light = model(topo).evaluate([Flow(0, 5, 0.1)])
        heavy = model(topo).evaluate([Flow(0, 5, 0.94)])
        assert light.flows[0].latency_scale < heavy.flows[0].latency_scale
        assert light.flows[0].latency_scale >= 1.0

    def test_saturation_flag(self, topo):
        ok = model(topo).evaluate([Flow(0, 5, 0.5)])
        sat = model(topo).evaluate([Flow(0, 5, 1.4)])
        assert not ok.saturated
        assert sat.saturated


class TestPolicyBehaviour:
    def test_west_first_spreads_load_vs_xy(self, topo):
        """Adaptive routing lowers the worst link utilisation for
        diagonal traffic."""
        flows = [Flow(0, 14, 0.8)]
        xy = model(topo).evaluate(flows)
        wf = model(topo, WestFirstRouting()).evaluate(flows)
        assert max(wf.link_rho.values()) < max(xy.link_rho.values())

    def test_panr_avoids_noisy_tiles(self, topo):
        psn = np.zeros(36)
        psn[[1, 2]] = 9.0  # noisy top row
        flows = [Flow(0, 14, 0.5)]
        panr = model(topo, PanrRouting()).evaluate(flows, psn_pct=psn)
        wf = model(topo, WestFirstRouting()).evaluate(flows, psn_pct=psn)
        noisy_panr = panr.router_flits_per_cycle[[1, 2]].sum()
        noisy_wf = wf.router_flits_per_cycle[[1, 2]].sum()
        assert noisy_panr < noisy_wf

    def test_icon_balances_router_activity(self, topo):
        """ICON steers away from routers already busy with other flows:
        the probe's XY path rides the loaded top row, ICON drops south."""
        base = [Flow(0, 4, 0.5)]  # loads the row y=0
        probe = [Flow(0, 16, 0.3)]  # XY shares row 0; ICON can go south
        icon = model(topo, IconRouting(), iterations=4).evaluate(base + probe)
        xy = model(topo).evaluate(base + probe)
        assert max(icon.link_rho.values()) < max(xy.link_rho.values()) - 0.1

    def test_deterministic(self, topo):
        flows = [Flow(0, 14, 0.5), Flow(3, 30, 0.3)]
        a = model(topo, PanrRouting()).evaluate(flows)
        b = model(topo, PanrRouting()).evaluate(flows)
        assert a.link_rho == b.link_rho


def distinct_expansions(topo, routing, flows):
    """(router, destination) pairs one propagation expands: every router
    a flow reaches over permissible directions, short of its
    destination."""
    pairs = set()
    for f in flows:
        if f.rate <= 0.0 or f.src == f.dst:
            continue
        frontier = [f.src]
        while frontier:
            node = frontier.pop()
            if node == f.dst or (node, f.dst) in pairs:
                continue
            pairs.add((node, f.dst))
            frontier.extend(
                topo.neighbor(node, d)
                for d in routing.permissible(topo, node, f.dst)
            )
    return pairs


def counted_weight_columns(routing):
    """Wrap ``routing.weight_columns`` on the instance; return one list
    of (router, destination) pairs per call."""
    calls = []
    inner = routing.weight_columns

    def weight_columns(topo, pairs, contexts):
        calls.append(list(zip(pairs.cur.tolist(), pairs.dst.tolist())))
        return inner(topo, pairs, contexts)

    routing.weight_columns = weight_columns
    return calls


class TestWeightCalls:
    """Each propagation asks the policy for a (router, destination)
    pair's weights once, only where it has a choice, and a context-free
    policy propagates once."""

    @staticmethod
    def overlapping_flows(n_tiles):
        rng = np.random.default_rng(3)
        flows = [
            Flow(int(s), int(d), 0.02)
            for s, d in zip(
                rng.integers(0, n_tiles, 30), rng.integers(0, n_tiles, 30)
            )
        ]
        # Several flows into one destination share most of their DAGs.
        return flows + [Flow(s, n_tiles - 1, 0.03) for s in (0, 1, 2, 6)]

    @staticmethod
    def free_pairs(topo, routing, pairs):
        """The pairs where ``permissible`` leaves more than one choice."""
        return {
            (cur, dst)
            for cur, dst in pairs
            if len(routing.permissible(topo, cur, dst)) > 1
        }

    @pytest.mark.parametrize(
        "policy", [XYRouting, WestFirstRouting, OddEvenRouting]
    )
    def test_context_free_policy_expands_each_pair_once(self, topo, policy):
        routing = policy()
        flows = self.overlapping_flows(topo.mesh.tile_count)
        expected = distinct_expansions(topo, routing, flows)
        free = self.free_pairs(topo, routing, expected)
        calls = counted_weight_columns(routing)
        model(topo, routing, iterations=4).evaluate(flows)
        # One propagation, one call; forced pairs take 1.0 on their one
        # column from the table without asking the policy.
        if not free:
            assert calls == []
            return
        (pairs,) = calls
        assert len(pairs) == len(free)
        assert set(pairs) == free

    @pytest.mark.parametrize("policy", [PanrRouting, IconRouting])
    def test_adaptive_policy_expands_each_pair_once_per_iteration(
        self, topo, policy
    ):
        # PANR and ICON weigh all free pairs of a propagation in one
        # array call.
        routing = policy()
        flows = self.overlapping_flows(topo.mesh.tile_count)
        expected = distinct_expansions(topo, routing, flows)
        free = self.free_pairs(topo, routing, expected)
        calls = counted_weight_columns(routing)
        psn = np.linspace(0.0, 6.0, topo.mesh.tile_count)
        model(topo, routing, iterations=4).evaluate(flows, psn_pct=psn)
        assert free and len(calls) == 4
        for pairs in calls:
            assert len(pairs) == len(free)
            assert set(pairs) == free


class TestSharedForcedHops:
    def test_separate_policies_share_one_table(self):
        mesh = MeshGeometry(10, 6)
        a = AnalyticalNocModel(MeshTopology(mesh), make_routing("panr"))
        b = AnalyticalNocModel(MeshTopology(mesh), make_routing("panr"))
        assert a._forced is b._forced
        # ICON inherits west-first's permissible, so it reads the same table.
        icon = AnalyticalNocModel(MeshTopology(mesh), make_routing("icon"))
        assert icon._forced is a._forced

    def test_table_is_per_permissible_and_mesh(self):
        mesh = MeshGeometry(6, 6)
        panr = PanrRouting().forced_hops(MeshTopology(mesh))
        assert XYRouting().forced_hops(MeshTopology(mesh)) is not panr
        assert PanrRouting().forced_hops(MeshTopology(MeshGeometry(6, 5))) is not panr
        fresh = PanrRouting()._build_forced_hops(MeshTopology(mesh))
        assert np.array_equal(fresh, panr)


class TestRoutingContract:
    """A policy whose choice steps outside its own ``permissible`` set
    is rejected by name instead of routing the packet there."""

    class Rogue(WestFirstRouting):
        name = "ROGUE"

        def __init__(self, direction):
            self.direction = direction

        def select_columns(self, topo, pairs, contexts):
            return np.full(len(pairs.cur), PORT_CODES[self.direction])

    @pytest.mark.parametrize(
        "direction",
        # WEST is never permissible where west-first has a choice (a
        # non-minimal hop); NORTH off the top row leaves the mesh.
        [Direction.WEST, Direction.NORTH, Direction.LOCAL],
    )
    def test_direction_outside_permissible_raises(self, topo, direction):
        # Single choices are the flit-level engine's; the analytical
        # model weighs each pair's permissible columns, which cannot
        # name another direction.
        engine = BatchedNocEngine(topo.mesh, self.Rogue(direction))
        with pytest.raises(
            ValueError, match=r"ROGUE routing at router 0 towards 7 names"
        ):
            engine.run([[TrafficFlow(0, 7, 1.0)]], 20)

    def test_non_minimal_permissible_raises(self, topo):
        class Detour(XYRouting):
            name = "DETOUR"

            def permissible(self, topo, cur, dst):
                dirs = super().permissible(topo, cur, dst)
                return dirs + [Direction.SOUTH] if cur == 1 else dirs

        with pytest.raises(ValueError, match="DETOUR routing at router 1"):
            model(topo, Detour()).evaluate([Flow(0, 3, 0.2)])
