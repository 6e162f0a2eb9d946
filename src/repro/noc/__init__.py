"""Network-on-chip: routing algorithms, cycle-level and analytical models.

The paper's CMP uses a 2D-mesh wormhole NoC.  Four routing schemes matter
to its evaluation:

* **XY** - dimension-ordered baseline;
* **west-first** - the deadlock-free turn model [32] PANR builds on;
* **PANR** - the paper's PSN- and congestion-aware adaptive scheme
  (Algorithm 3): among west-first-permissible directions, pick the least
  congested one when the input buffer is above the occupancy threshold B,
  otherwise the one whose neighbouring tile reports the least PSN;
* **ICON** - the prior-work baseline [22], adaptive on *router* activity
  only (core PSN ignored).

Two network models share these policies: a flit-level cycle model used
for micro-experiments such as the routing sweep and the buffer
threshold ablation, and a flow-based analytical model
(:mod:`repro.noc.analytical`) fast enough to sit inside the runtime loop
while preserving the routing-policy-dependent link loads and latencies.
The cycle model is the structure-of-arrays
:class:`~repro.noc.batch.BatchedNocEngine`, which advances one or many
independent simulations (lanes) in one vectorised lock-step pass for
every policy.  The test suite pins each lane flit for flit against an
object-per-flit reference simulator.
"""

from repro.noc.topology import Direction, MeshTopology
from repro.noc.routing import (
    IconRouting,
    PanrRouting,
    RoutingAlgorithm,
    WestFirstRouting,
    XYRouting,
    make_routing,
)
from repro.noc.analytical import AnalyticalNocModel, Flow, NocLoadReport
from repro.noc.batch import BatchedNocEngine, NocSimStats, TrafficFlow
from repro.noc.overhead import panr_router_overhead, OverheadReport

__all__ = [
    "Direction",
    "MeshTopology",
    "RoutingAlgorithm",
    "XYRouting",
    "WestFirstRouting",
    "PanrRouting",
    "IconRouting",
    "make_routing",
    "AnalyticalNocModel",
    "BatchedNocEngine",
    "Flow",
    "NocLoadReport",
    "NocSimStats",
    "TrafficFlow",
    "panr_router_overhead",
    "OverheadReport",
]
