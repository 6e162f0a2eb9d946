"""Deadlock-freedom stress tests: every routing policy keeps delivering
under sustained random all-to-all load (single virtual channel)."""

import numpy as np
import pytest

from cycle_oracle import CycleNocSimulator, TrafficFlow
from repro.chip.mesh import MeshGeometry
from repro.noc.routing import make_routing

POLICIES = ["xy", "west-first", "panr", "icon", "odd-even"]


@pytest.mark.parametrize("policy", POLICIES)
def test_no_deadlock_under_random_load(policy):
    """Random pairs at high aggregate load for many cycles: if the turn
    model admitted a cycle of channel dependencies the network would
    wedge and deliveries would stop."""
    mesh = MeshGeometry(6, 6)
    rng = np.random.default_rng(42)
    flows = []
    for _ in range(12):
        src, dst = rng.choice(36, size=2, replace=False)
        flows.append(
            TrafficFlow(int(src), int(dst), 0.12, packet_size=6)
        )
    psn = rng.uniform(0.0, 9.0, size=36)
    sim = CycleNocSimulator(mesh, make_routing(policy), psn_pct=psn, seed=1)
    stats = sim.run(flows, 8000)
    assert stats.packets_injected > 150
    # Nearly everything injected must come out the other side.
    assert stats.packets_delivered >= stats.packets_injected - 20


@pytest.mark.parametrize("policy", ["panr", "icon"])
def test_adaptive_policies_progress_under_hotspot(policy):
    """Adaptive selection must not livelock flits around a noisy hotspot."""
    mesh = MeshGeometry(6, 6)
    psn = np.zeros(36)
    psn[14] = psn[15] = psn[20] = psn[21] = 12.0  # hot centre block
    flows = [
        TrafficFlow(0, 35, 0.3, packet_size=4),
        TrafficFlow(30, 5, 0.3, packet_size=4),
        TrafficFlow(2, 33, 0.25, packet_size=4),
    ]
    sim = CycleNocSimulator(mesh, make_routing(policy), psn_pct=psn, seed=2)
    stats = sim.run(flows, 6000)
    assert stats.packets_delivered >= stats.packets_injected - 10
