"""Forced hops: where ``permissible`` names one direction, no policy
chooses.

Both NoC models route such hops from ``RoutingAlgorithm.forced_hops``
without asking the policy, which is only sound if every policy's
``select`` and ``weights`` return that direction whatever the context.
These tests check that contract exhaustively over every forced
(tile, destination) pair of three meshes, check the table against
``permissible``, and count the policy calls the table saves.
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
from repro.noc.routing.base import FREE_HOP, RoutingContext
from repro.noc.topology import (
    MESH_DIRECTIONS,
    PORT_CODES,
    Direction,
    MeshTopology,
)

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
                assert routing.select(topo, cur, dst, ctx) is forced
                assert routing.weights(topo, cur, dst, ctx) == {forced: 1.0}
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

            context_free = False

            def permissible(self, topo, cur, dst):
                return [] if cur == dst else [Direction.WEST]

        mesh = MeshGeometry(4, 4)
        with pytest.raises(RuntimeError, match="off mesh edge at tile 0"):
            WestOffMesh().forced_hops(MeshTopology(mesh))
        with pytest.raises(RuntimeError, match="off mesh"):
            BatchedNocEngine(mesh, WestOffMesh())
        with pytest.raises(RuntimeError, match="off mesh"):
            AnalyticalNocModel(MeshTopology(mesh), WestOffMesh())


def counted_selects(routing):
    """Wrap ``routing.select`` on the instance; return one flag per call,
    True where ``permissible`` left a choice."""
    calls = []
    inner = routing.select

    def select(topo, cur, dst, ctx):
        calls.append(len(routing.permissible(topo, cur, dst)) > 1)
        return inner(topo, cur, dst, ctx)

    routing.select = select
    return calls


@pytest.mark.parametrize("policy", [PanrRouting, IconRouting])
def test_engine_calls_select_only_for_free_decisions(policy):
    # The oracle asks the policy at every head-flit decision; the
    # engine, which makes the same decisions, only at those where
    # permissible leaves a choice.
    mesh = MeshGeometry(6, 6)
    psn = band_psn(mesh)
    seeds = (3, 4)
    flows = [uniform_flows(mesh, 0.2, seed=s) for s in seeds]
    oracle_calls = []
    for lane_flows in flows:
        routing = policy()
        calls = counted_selects(routing)
        CycleNocSimulator(mesh, routing, psn_pct=psn).run(lane_flows, 300)
        oracle_calls.extend(calls)
    routing = policy()
    engine_calls = counted_selects(routing)
    BatchedNocEngine(mesh, routing, n_lanes=len(seeds), psn_pct=psn).run(
        flows, 300
    )
    assert all(engine_calls)
    assert len(engine_calls) == sum(oracle_calls)
    assert 0 < len(engine_calls) < len(oracle_calls)
