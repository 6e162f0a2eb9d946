"""ICON-style routing baseline (Basu et al. [22], "IcoNoClast").

The prior work tackles voltage noise in the NoC power supply through
flow control and routing that balance *router* switching activity.  Its
defining limitation, which the paper exploits, is that it considers only
NoC router activity and is agnostic of the cores' switching activity and
of the application mapping: flits are steered toward the quietest
*routers*, even when those sit next to highly active cores.

We model it as west-first minimal routing that always selects the
direction whose adjacent router has the least incoming data rate (a
proxy for router switching activity), regardless of buffer state or core
PSN.

Under PSN-sensor faults ICON degrades trivially: it never consults the
sensor network (``ctx.neighbor_psn_pct`` / ``ctx.neighbor_psn_valid``),
so faulted sensor input is ignored by construction and the policy keeps
its data-rate behaviour.  Dead links and routers are handled one layer
up, in the analytical model's propagation step.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.noc.routing.base import (
    FreePairs,
    RouterContexts,
    RoutingContext,
    soft_argmin_columns,
)
from repro.noc.routing.west_first import WestFirstRouting
from repro.noc.topology import Direction, MeshTopology

_EPS = 1e-6


class IconRouting(WestFirstRouting):
    """Router-activity-balancing adaptive routing, core-agnostic."""

    name = "ICON"
    # Reads neighbour data rates: must not inherit WestFirst's flag.
    context_free = False

    def weights(
        self,
        topo: MeshTopology,
        cur: int,
        dst: int,
        ctx: RoutingContext,
    ) -> Dict[Direction, float]:
        dirs = self.permissible(topo, cur, dst)
        if not dirs:
            return {}
        if len(dirs) == 1:
            return {dirs[0]: 1.0}
        rate = {d: ctx.neighbor_data_rate.get(d, 0.0) for d in dirs}
        # Soft argmin, mirroring PANR's hardware minimum selection.
        best = min(rate.values())
        weights = {d: 1.0 / (rate[d] - best + 0.4) ** 2 for d in dirs}
        # Same credit-stall gating as PANR (shared wormhole hardware).
        return {
            d: w * max(0.05, 1.0 - ctx.out_link_rho.get(d, 0.0))
            for d, w in weights.items()
        }

    def weight_columns(
        self,
        topo: MeshTopology,
        pairs: FreePairs,
        contexts: Optional[RouterContexts],
    ) -> np.ndarray:
        """:meth:`weights` of every free pair as one array computation."""
        if contexts is None or type(self).weights is not IconRouting.weights:
            return super().weight_columns(topo, pairs, contexts)
        out = soft_argmin_columns(
            contexts.data_rate[pairs.tiles], contexts.out_rho[pairs.links]
        )
        out[pairs.codes < 0] = 0.0
        return out
