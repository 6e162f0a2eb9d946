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
sensor network (``RouterContexts.psn_pct`` / ``psn_valid``),
so faulted sensor input is ignored by construction and the policy keeps
its data-rate behaviour.  Dead links and routers are handled one layer
up, in the analytical model's propagation step.
"""

from __future__ import annotations

import numpy as np

from repro.noc.routing.base import (
    FreePairs,
    RouterContexts,
    soft_argmin_columns,
)
from repro.noc.routing.west_first import WestFirstRouting
from repro.noc.topology import MeshTopology


class IconRouting(WestFirstRouting):
    """Router-activity-balancing adaptive routing, core-agnostic."""

    name = "ICON"

    def weight_columns(
        self,
        topo: MeshTopology,
        pairs: FreePairs,
        contexts: RouterContexts,
    ) -> np.ndarray:
        """Weigh the columns by their neighbours' incoming data rate: a
        soft argmin mirroring PANR's hardware minimum selection, with
        the same credit-stall gating (shared wormhole hardware)."""
        out = soft_argmin_columns(
            contexts.data_rate[pairs.tiles], contexts.out_rho[pairs.links]
        )
        out[pairs.codes < 0] = 0.0
        return out
