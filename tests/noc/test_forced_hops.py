"""Forced hops: where ``permissible`` names one direction, no policy
chooses.

Both NoC models route such hops from ``RoutingAlgorithm.forced_hops``
without asking the policy, while the test oracles ask the scalar
policies of ``routing_oracle`` at every hop.  The two agree only if
every scalar ``select`` and ``weights`` return the forced direction
whatever the context.  These tests check that exhaustively over every
forced (tile, destination) pair of three meshes, check the table
against ``permissible``, and check that the engine asks the policy's
array methods for exactly the free decisions.
"""

import numpy as np
import pytest

from cycle_oracle import CycleNocSimulator
from noc_oracle import band_psn, uniform_flows
from repro.chip.mesh import MeshGeometry
from repro.noc import BatchedNocEngine
from repro.noc.analytical import AnalyticalNocModel
from repro.noc.routing import (
    IconRouting,
    OddEvenRouting,
    PanrRouting,
    WestFirstRouting,
    XYRouting,
)
from repro.noc.routing.base import FREE_HOP
from repro.noc.topology import (
    MESH_DIRECTIONS,
    PORT_CODES,
    Direction,
    MeshTopology,
)
from routing_oracle import RoutingContext, select, weights

POLICIES = {
    "xy": XYRouting,
    "west-first": WestFirstRouting,
    "odd-even": OddEvenRouting,
    "panr-b0": lambda: PanrRouting(buffer_threshold=0.0),
    "panr-b0.5": lambda: PanrRouting(buffer_threshold=0.5),
    "panr-b1": lambda: PanrRouting(buffer_threshold=1.0),
    "icon": IconRouting,
}

MESHES = [(4, 4), (8, 8), (10, 6)]


def random_contexts(seed):
    """Seeded contexts over every trust mode and occupancy extreme.

    Per-direction rates, PSN readings and link utilisations are drawn
    from extremes (0, tiny, huge, saturated) as well as ordinary values,
    so that any context-dependent choice would show up somewhere.
    """
    rng = np.random.default_rng(seed)
    rates = (0.0, 1e-12, 0.3, 5.0, 1e9)
    psns = (0.0, 1e-12, 4.0, 12.0, 1e9)
    rhos = (0.0, 0.5, 0.99, 1.0)
    contexts = []
    for valid in ("trusted", "untrusted", "missing"):
        for occupancy in (0.0, 1.0, float(rng.uniform())):
            ctx = RoutingContext(
                buffer_occupancy=occupancy,
                neighbor_data_rate={
                    d: float(rng.choice(rates)) for d in MESH_DIRECTIONS
                },
                neighbor_psn_pct={
                    d: float(rng.choice(psns)) for d in MESH_DIRECTIONS
                },
                out_link_rho={
                    d: float(rng.choice(rhos)) for d in MESH_DIRECTIONS
                },
            )
            if valid != "missing":
                ctx.neighbor_psn_valid = {
                    d: valid == "trusted" for d in MESH_DIRECTIONS
                }
            contexts.append(ctx)
    return contexts


@pytest.mark.parametrize("width,height", MESHES)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_forced_pairs_ignore_every_context(policy, width, height):
    routing = POLICIES[policy]()
    topo = MeshTopology(MeshGeometry(width, height))
    table = routing.forced_hops(topo)
    contexts = random_contexts(width * 100 + height)
    n = topo.mesh.tile_count
    forced_pairs = 0
    for cur in range(n):
        assert table[cur, cur] == PORT_CODES[Direction.LOCAL]
        for dst in range(n):
            if cur == dst:
                continue
            dirs = routing.permissible(topo, cur, dst)
            if len(dirs) != 1:
                assert table[cur, dst] == FREE_HOP
                continue
            forced = dirs[0]
            assert table[cur, dst] == PORT_CODES[forced]
            forced_pairs += 1
            for ctx in contexts:
                assert select(routing, topo, cur, dst, ctx) is forced
                assert weights(routing, topo, cur, dst, ctx) == {forced: 1.0}
    assert forced_pairs > 0


class TestTable:
    def test_read_only(self):
        table = PanrRouting().forced_hops(MeshTopology(MeshGeometry(4, 3)))
        assert table.shape == (12, 12)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 1] = 0

    def test_off_mesh_forced_hop_raises_at_table_build(self):
        class WestOffMesh(XYRouting):
            """Names west as the only hop, even on the west edge."""

            def permissible(self, topo, cur, dst):
                return [] if cur == dst else [Direction.WEST]

        mesh = MeshGeometry(4, 4)
        with pytest.raises(RuntimeError, match="off mesh edge at tile 0"):
            WestOffMesh().forced_hops(MeshTopology(mesh))
        with pytest.raises(RuntimeError, match="off mesh"):
            BatchedNocEngine(mesh, WestOffMesh())
        with pytest.raises(RuntimeError, match="off mesh"):
            AnalyticalNocModel(MeshTopology(mesh), WestOffMesh())

    def test_free_hop_must_offer_two_directions(self):
        class Spread(WestFirstRouting):
            """Adds WEST as a third choice wherever west-first has two."""

            name = "SPREAD"

            def permissible(self, topo, cur, dst):
                dirs = super().permissible(topo, cur, dst)
                return dirs + [Direction.WEST] if len(dirs) == 2 else dirs

        with pytest.raises(ValueError, match="SPREAD .* offers 3 hops"):
            BatchedNocEngine(MeshGeometry(4, 4), Spread())


@pytest.mark.parametrize("policy", [PanrRouting, IconRouting])
def test_engine_calls_select_only_for_free_decisions(policy):
    # The oracle asks the policy's scalar select at every head-flit
    # decision.  The engine makes the same decisions but asks PANR and
    # ICON only where permissible leaves a choice: one weight_columns
    # call per cycle, whose rows are exactly that cycle's free
    # decisions over all lanes.
    mesh = MeshGeometry(6, 6)
    psn = band_psn(mesh)
    seeds = (3, 4)
    flows = [uniform_flows(mesh, 0.2, seed=s) for s in seeds]
    oracle_free = {}
    oracle_calls = []
    for lane_flows in flows:
        routing = policy()
        sim = CycleNocSimulator(mesh, routing, psn_pct=psn)
        inner = sim._route

        def route(router, in_port, flit, sim=sim, inner=inner, r=routing):
            cur, dst = router.tile, flit.dst
            if cur != dst:
                oracle_calls.append(cur)
                if len(r.permissible(sim._topo, cur, dst)) > 1:
                    oracle_free.setdefault(sim._cycle, []).append((cur, dst))
            return inner(router, in_port, flit)

        sim._route = route
        sim.run(lane_flows, 300)
    routing = policy()
    engine = BatchedNocEngine(mesh, routing, n_lanes=len(seeds), psn_pct=psn)
    engine_free = {}
    columns = routing.weight_columns

    def weight_columns(topo, pairs, contexts):
        assert engine._cycle not in engine_free
        engine_free[engine._cycle] = sorted(
            zip(pairs.cur.tolist(), pairs.dst.tolist())
        )
        return columns(topo, pairs, contexts)

    routing.weight_columns = weight_columns
    engine.run(flows, 300)
    assert engine_free == {c: sorted(rows) for c, rows in oracle_free.items()}
    rows = sum(len(r) for r in engine_free.values())
    assert len(engine_free) < rows < len(oracle_calls)
