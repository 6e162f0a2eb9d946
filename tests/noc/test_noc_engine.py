"""Golden equivalence suite: one-lane engine runs vs the oracle.

A scalar simulation is a one-lane :class:`BatchedNocEngine` batch, and
its whole contract is "same bits, less time": for any routing policy,
mesh and load, its :class:`NocSimStats` must be flit-for-flit identical
to the reference :class:`CycleNocSimulator`'s.  These tests pin that
across every routing policy, two mesh sizes and two load levels, plus
repeatability and state persistence across ``run()`` calls.
Multi-lane batches are pinned in ``test_batch_engine.py``.
"""

import numpy as np
import pytest

from cycle_oracle import CycleNocSimulator
from noc_oracle import POLICIES, assert_stats_equal, band_psn, uniform_flows
from repro.chip.mesh import MeshGeometry
from repro.noc import BatchedNocEngine, NocSimStats, TrafficFlow
from repro.noc.routing import make_routing


def run_one(engine, flows, cycles):
    """Stats of the only lane of a one-lane engine."""
    (stats,) = engine.run([flows], cycles)
    return stats


class TestFlitLevelEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("width,height", [(4, 4), (8, 8)])
    @pytest.mark.parametrize("rate", [0.05, 0.35])
    def test_identical_stats(self, policy, width, height, rate):
        mesh = MeshGeometry(width, height)
        psn = band_psn(mesh)
        flows = uniform_flows(mesh, rate, seed=7)
        legacy = CycleNocSimulator(
            mesh, make_routing(policy), psn_pct=psn, seed=3
        )
        engine = BatchedNocEngine(mesh, make_routing(policy), psn_pct=psn)
        cycles = 400 if (width, height) == (8, 8) else 600
        assert_stats_equal(
            legacy.run(flows, cycles), run_one(engine, flows, cycles)
        )

    @pytest.mark.parametrize("policy", ("xy", "panr"))
    def test_multi_flow_same_source(self, policy):
        # Several flows share an injection port: the backlog FIFO and
        # the accumulator arithmetic must serialise exactly as legacy.
        mesh = MeshGeometry(4, 4)
        flows = [
            TrafficFlow(0, 15, 0.31, packet_size=3),
            TrafficFlow(0, 12, 0.17, packet_size=5),
            TrafficFlow(5, 10, 0.23, packet_size=1),
            TrafficFlow(5, 0, 0.11, packet_size=2),
        ]
        legacy = CycleNocSimulator(mesh, make_routing(policy), seed=1)
        engine = BatchedNocEngine(mesh, make_routing(policy))
        assert_stats_equal(
            legacy.run(flows, 700), run_one(engine, flows, 700)
        )


class TestDeterminismAndState:
    def test_same_seed_same_stats(self):
        # Two fresh engines fed the same seeded traffic agree exactly.
        mesh = MeshGeometry(8, 8)
        flows = uniform_flows(mesh, 0.2, seed=5)
        runs = [
            run_one(
                BatchedNocEngine(
                    mesh, make_routing("panr"), psn_pct=band_psn(mesh)
                ),
                flows,
                300,
            )
            for _ in range(2)
        ]
        assert_stats_equal(runs[0], runs[1])

    @pytest.mark.parametrize("policy", ("xy", "icon", "panr"))
    def test_state_persists_across_runs(self, policy):
        # Two back-to-back run() calls must match legacy, including the
        # in-flight flits, wormhole state and data rates carried over.
        # 250 is not a multiple of the 64-cycle rate window, so the
        # window open at the end of the first run straddles the call.
        mesh = MeshGeometry(8, 8)
        psn = band_psn(mesh)
        flows = uniform_flows(mesh, 0.2, seed=11)
        legacy = CycleNocSimulator(mesh, make_routing(policy),
                                   psn_pct=psn, seed=5)
        engine = BatchedNocEngine(mesh, make_routing(policy), psn_pct=psn)
        for _ in range(2):
            assert_stats_equal(
                legacy.run(flows, 250), run_one(engine, flows, 250)
            )

    def test_psn_update_changes_adaptive_routes(self):
        # Sanity: the PSN field actually steers PANR (the equivalence
        # suite would also pass if both models ignored psn_pct).
        mesh = MeshGeometry(8, 8)
        flows = uniform_flows(mesh, 0.3, seed=17)
        quiet = run_one(
            BatchedNocEngine(mesh, make_routing("panr"),
                             psn_pct=np.full(mesh.tile_count, 4.0)),
            flows,
            400,
        )
        banded = run_one(
            BatchedNocEngine(mesh, make_routing("panr"),
                             psn_pct=band_psn(mesh)),
            flows,
            400,
        )
        assert not np.array_equal(
            quiet.router_flits_per_cycle, banded.router_flits_per_cycle
        )


class TestEngineValidation:
    def test_bad_psn_shape_rejected(self):
        mesh = MeshGeometry(4, 4)
        with pytest.raises(ValueError):
            BatchedNocEngine(mesh, make_routing("xy"), psn_pct=np.zeros(3))

    def test_bad_flows_rejected(self):
        mesh = MeshGeometry(4, 4)
        engine = BatchedNocEngine(mesh, make_routing("xy"))
        with pytest.raises(ValueError):
            engine.run([[TrafficFlow(3, 3, 0.1)]], 10)
        with pytest.raises(Exception):
            engine.run([[TrafficFlow(0, 99, 0.1)]], 10)
        with pytest.raises(ValueError):
            engine.run([[TrafficFlow(0, 1, 0.1)]], 0)

    @pytest.mark.parametrize("rate", (float("nan"), float("inf")))
    def test_non_finite_rate_rejected(self, rate):
        # NaN slips past a plain `rate < 0` check and +inf would only
        # fail deep inside run(); both must fail at construction.
        with pytest.raises(ValueError, match="finite"):
            TrafficFlow(0, 5, rate)


class TestStatsAccessors:
    def test_router_flits_optional_default(self):
        stats = NocSimStats(
            cycles=10, packets_injected=0, packets_delivered=0,
            flits_delivered=0,
        )
        assert stats.router_flits_per_cycle is None
