"""Oracle parity of the experiments that run on the flit-level engine.

The routing sweep's :func:`run_batch` and the packet-latency
estimand's ``sample_batch`` pack their points as lanes of one
:class:`BatchedNocEngine` batch; each value must equal what the
reference :class:`CycleNocSimulator` gives for that point's traffic
and PSN field.
"""

from cycle_oracle import CycleNocSimulator
from repro.chip.mesh import MeshGeometry
from repro.exp.routing_sweep import (
    SweepPoint,
    _point_result,
    hotspot_psn,
    run_batch,
    uniform_random_flows,
)
from repro.exp.verify.estimands import PacketLatencyEstimand
from repro.harness.seeding import derive_seed
from repro.noc.routing import make_routing


def oracle_stats(policy, mesh, flows, cycles):
    """One oracle run under the sweep's PSN hotspot band."""
    oracle = CycleNocSimulator(
        mesh, make_routing(policy), psn_pct=hotspot_psn(mesh)
    )
    return oracle.run(flows, cycles)


def oracle_result(point):
    """One sweep point simulated on the reference simulator."""
    mesh = MeshGeometry(point.mesh_width, point.mesh_height)
    flows = uniform_random_flows(
        mesh, point.injection_rate_flits, point.seed, point.packet_size_flits
    )
    return _point_result(
        point, oracle_stats(point.policy, mesh, flows, point.cycles)
    )


def sweep_points(policy, n=4):
    return [
        SweepPoint(policy=policy, injection_rate_flits=rate, seed=seed,
                   mesh_width=4, mesh_height=4, cycles=200)
        for rate in (0.1, 0.3)
        for seed in (1, 2)
    ][:n]


class TestRoutingSweepParity:
    def test_batch_matches_oracle_points(self):
        for policy in ("xy", "panr"):
            points = sweep_points(policy)
            assert run_batch(points) == [oracle_result(p) for p in points]

    def test_single_point_batch_matches_oracle(self):
        points = sweep_points("icon", n=1)
        assert run_batch(points) == [oracle_result(points[0])]


class TestLatencyEstimandParity:
    def test_sample_batch_adaptive_matches_oracle(self):
        # PANR replicas run as batch lanes; each value must be the pick
        # from an oracle run of that replica's traffic.
        estimand = PacketLatencyEstimand(
            policy="panr", mesh_width=4, mesh_height=4, cycles=300
        )
        mesh = MeshGeometry(4, 4)
        seeds = [derive_seed(0, "verify/latency/replica", i)
                 for i in range(2)]
        expected = []
        for seed in seeds:
            flows = uniform_random_flows(
                mesh, estimand.injection_rate_flits,
                derive_seed(seed, "verify/latency/traffic", 0),
                estimand.packet_size_flits,
            )
            stats = oracle_stats("panr", mesh, flows, estimand.cycles)
            expected.append(estimand._pick_latency(seed, stats))
        assert estimand.sample_batch(seeds) == expected
