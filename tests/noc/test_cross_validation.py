"""Cross-validation: the analytical model must rank scenarios like the
cycle-accurate simulator (DESIGN.md decision #2)."""

import numpy as np
import pytest

from cycle_oracle import CycleNocSimulator, TrafficFlow
from repro.chip.mesh import MeshGeometry
from repro.noc.analytical import AnalyticalNocModel, Flow
from repro.noc.routing import XYRouting
from repro.noc.topology import MeshTopology


@pytest.fixture(scope="module")
def mesh():
    return MeshGeometry(6, 6)


# Increasingly congested scenarios: under XY all flows to tile 35 share
# the column-5 south links, so contention genuinely escalates.  Rates are
# chosen so that "medium" stays below the analytical model's
# burstiness-scaled saturation clamp while "heavy" exceeds it.
SCENARIOS = {
    "light": [(0, 35, 0.05)],
    "medium": [(0, 35, 0.15), (6, 35, 0.15)],
    "heavy": [(0, 35, 0.35), (6, 35, 0.35), (12, 35, 0.35), (18, 35, 0.35)],
}


class TestRankAgreement:
    def test_latency_rank_matches(self, mesh):
        cyc_lat = {}
        ana_lat = {}
        topo = MeshTopology(mesh)
        for name, spec in SCENARIOS.items():
            sim = CycleNocSimulator(mesh, XYRouting(), seed=0)
            stats = sim.run(
                [TrafficFlow(s, d, r) for s, d, r in spec], 6000
            )
            cyc_lat[name] = stats.avg_packet_latency
            rep = AnalyticalNocModel(topo, XYRouting()).evaluate(
                [Flow(s, d, r) for s, d, r in spec]
            )
            ana_lat[name] = rep.avg_latency_cycles
        cyc_order = sorted(SCENARIOS, key=cyc_lat.get)
        ana_order = sorted(SCENARIOS, key=ana_lat.get)
        assert cyc_order == ana_order == ["light", "medium", "heavy"]

    def test_router_activity_correlates(self, mesh):
        spec = SCENARIOS["medium"]
        sim = CycleNocSimulator(mesh, XYRouting(), seed=0)
        stats = sim.run([TrafficFlow(s, d, r) for s, d, r in spec], 6000)
        topo = MeshTopology(mesh)
        rep = AnalyticalNocModel(topo, XYRouting()).evaluate(
            [Flow(s, d, r) for s, d, r in spec]
        )
        a = stats.router_flits_per_cycle
        b = rep.router_flits_per_cycle
        # Same set of active routers (deterministic XY paths)...
        assert set(np.nonzero(a > 0.01)[0]) == set(np.nonzero(b > 0.01)[0])
        # ...and strongly correlated magnitudes.
        active = b > 0.01
        corr = np.corrcoef(a[active], b[active])[0, 1]
        assert corr > 0.9
