"""Golden equivalence suite: BatchedNocEngine lanes vs the oracle.

The batched engine extends the one-lane "same bits, less time"
contract to whole sweeps: **every lane** of a batch must be
flit-for-flit identical to a legacy run with that lane's flows and PSN
field, regardless of what its sibling lanes carry.  These tests pin
that across all five routing policies, two mesh sizes and two load
levels; exercise heterogeneous per-lane rates/PSN and state carried
across ``run()`` calls; and cover argument validation.
"""

import numpy as np
import pytest

from cycle_oracle import CycleNocSimulator
from noc_oracle import POLICIES, assert_stats_equal, band_psn, uniform_flows
from repro.chip.mesh import MeshGeometry
from repro.noc import BatchedNocEngine, TrafficFlow
from repro.noc.routing import XYRouting, make_routing
from repro.noc.topology import PORT_CODES, Direction


class _AlwaysWest(XYRouting):
    """Adaptive policy that routes west even off the mesh.

    Two permissible directions everywhere make every decision free, so
    each one reaches ``select_columns`` instead of the forced-hop table.
    """

    def permissible(self, topo, cur, dst):
        return [] if cur == dst else [Direction.WEST, Direction.EAST]

    def select_columns(self, topo, pairs, contexts):
        return np.full(len(pairs.cur), PORT_CODES[Direction.WEST])


class TestLaneIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("width,height", [(4, 4), (8, 8)])
    @pytest.mark.parametrize("rate", [0.05, 0.35])
    def test_every_lane_matches_legacy_oracle(
        self, policy, width, height, rate
    ):
        # Lanes differ by traffic seed; each must reproduce the legacy
        # simulator's stats for its own flows exactly.
        mesh = MeshGeometry(width, height)
        psn = band_psn(mesh)
        seeds = (7, 8, 9)
        flows = [uniform_flows(mesh, rate, seed=s) for s in seeds]
        cycles = 300 if (width, height) == (8, 8) else 500
        batch = BatchedNocEngine(
            mesh, make_routing(policy), n_lanes=len(seeds), psn_pct=psn
        ).run(flows, cycles)
        assert len(batch) == len(seeds)
        for lane, lane_flows in enumerate(flows):
            legacy = CycleNocSimulator(
                mesh, make_routing(policy), psn_pct=psn
            )
            assert_stats_equal(legacy.run(lane_flows, cycles), batch[lane])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_heterogeneous_rates_seeds_and_psn(self, policy):
        # A mixed batch - every lane a different (rate, seed) over one
        # shared PSN field - must still match per-lane oracle runs:
        # lane state never leaks across the block-diagonal boundary,
        # and PSN-aware lanes all route by the same field.
        mesh = MeshGeometry(8, 8)
        lane_cfg = [(0.05, 3), (0.35, 7), (0.20, 11), (0.30, 13)]
        psn = np.roll(band_psn(mesh), 2 * mesh.width) + np.arange(
            mesh.tile_count
        ) % 3
        flows = [uniform_flows(mesh, r, seed=s) for r, s in lane_cfg]
        batch = BatchedNocEngine(
            mesh, make_routing(policy), n_lanes=len(lane_cfg), psn_pct=psn
        ).run(flows, 300)
        for lane in range(len(lane_cfg)):
            legacy = CycleNocSimulator(mesh, make_routing(policy), psn_pct=psn)
            assert_stats_equal(legacy.run(flows[lane], 300), batch[lane])

    def test_multi_flow_same_source_lanes(self):
        # Shared injection ports inside a lane: the backlog FIFO and
        # accumulator arithmetic serialise exactly as legacy even with
        # a sibling lane hammering the same tile ids.
        mesh = MeshGeometry(4, 4)
        lane_a = [
            TrafficFlow(0, 15, 0.31, packet_size=3),
            TrafficFlow(0, 12, 0.17, packet_size=5),
            TrafficFlow(5, 10, 0.23, packet_size=1),
        ]
        lane_b = [
            TrafficFlow(0, 9, 0.41, packet_size=2),
            TrafficFlow(5, 0, 0.11, packet_size=2),
        ]
        for policy in ("xy", "panr"):
            batch = BatchedNocEngine(
                mesh, make_routing(policy), n_lanes=2
            ).run([lane_a, lane_b], 700)
            for lane_flows, got in zip((lane_a, lane_b), batch):
                legacy = CycleNocSimulator(mesh, make_routing(policy))
                assert_stats_equal(legacy.run(lane_flows, 700), got)

    def test_state_persists_across_runs(self):
        # Back-to-back run() calls carry in-flight flits, wormhole state
        # and data rates per lane, exactly like back-to-back oracle
        # runs; 64 does not divide 250, so the rate window open at the
        # end of the first call straddles into the second.
        mesh = MeshGeometry(8, 8)
        psn = band_psn(mesh)
        seeds = (11, 12)
        flows = [uniform_flows(mesh, 0.2, seed=s) for s in seeds]
        for policy in ("xy", "panr"):
            batch = BatchedNocEngine(
                mesh, make_routing(policy), n_lanes=len(seeds), psn_pct=psn
            )
            oracles = [
                CycleNocSimulator(mesh, make_routing(policy), psn_pct=psn)
                for _ in seeds
            ]
            for _ in range(2):
                got = batch.run(flows, 250)
                for lane, oracle in enumerate(oracles):
                    assert_stats_equal(oracle.run(flows[lane], 250), got[lane])

    def test_saturated_backlog_and_second_run(self):
        # Two flows offer source 0 more flits than its LOCAL port takes
        # (at most one a cycle), so its backlog grows far past 64 flits.
        # A second run continues the packet ids and the cycle count and
        # drops the first run's backlog, exactly like the oracle.
        mesh = MeshGeometry(4, 4)
        lane_flows = [
            TrafficFlow(0, 15, 0.9, packet_size=8),
            TrafficFlow(0, 6, 0.7, packet_size=3),
            TrafficFlow(9, 2, 0.2, packet_size=5),
        ]
        cycles = 300
        # Flits source 0 emits beyond what its port can take, less one
        # packet per flow still accumulating.
        backlog = sum(
            f.rate * cycles - f.packet_size for f in lane_flows if f.src == 0
        ) - cycles
        assert backlog > 64
        for policy in ("xy", "panr"):
            batch = BatchedNocEngine(mesh, make_routing(policy), n_lanes=2)
            oracle = CycleNocSimulator(mesh, make_routing(policy))
            emitted = 0
            for _ in range(2):
                got = batch.run([[], lane_flows], cycles)
                want = oracle.run(lane_flows, cycles)
                assert_stats_equal(want, got[1])
                assert got[0].packets_injected == 0
                emitted += want.packets_injected
                assert batch._next_packet_id == oracle._next_packet_id
                assert batch._next_packet_id == emitted
            assert batch._cycle == oracle._cycle == 2 * cycles


class TestValidation:
    def test_bad_construction_rejected(self):
        mesh = MeshGeometry(4, 4)
        with pytest.raises(ValueError):
            BatchedNocEngine(mesh, make_routing("xy"), n_lanes=0)
        with pytest.raises(ValueError, match="psn_pct must have shape"):
            BatchedNocEngine(mesh, make_routing("xy"), n_lanes=2,
                             psn_pct=np.zeros((2, mesh.tile_count)))
        with pytest.raises(ValueError, match="psn_pct must have shape"):
            BatchedNocEngine(mesh, make_routing("xy"),
                             psn_pct=np.zeros(mesh.tile_count - 1))

    def test_bad_run_arguments_rejected(self):
        mesh = MeshGeometry(4, 4)
        batch = BatchedNocEngine(mesh, make_routing("xy"), n_lanes=2)
        with pytest.raises(ValueError):
            batch.run([[TrafficFlow(0, 1, 0.1)]], 10)  # lane count
        with pytest.raises(ValueError):
            batch.run([[TrafficFlow(3, 3, 0.1)], []], 10)
        with pytest.raises(Exception):
            batch.run([[TrafficFlow(0, 99, 0.1)], []], 10)
        with pytest.raises(ValueError):
            batch.run([[], []], 0)

    def test_off_mesh_adaptive_route_raises(self):
        # Tile 0 sits on the west edge: an adaptive decision there that
        # leaves the mesh must fail loudly, as it does in the oracle.
        mesh = MeshGeometry(4, 4)
        flows = [TrafficFlow(0, 1, 0.5)]
        batch = BatchedNocEngine(mesh, _AlwaysWest(), n_lanes=2)
        with pytest.raises(RuntimeError, match="off mesh"):
            batch.run([[], flows], 20)
        legacy = CycleNocSimulator(mesh, _AlwaysWest())
        with pytest.raises(RuntimeError, match="off mesh"):
            legacy.run(flows, 20)
