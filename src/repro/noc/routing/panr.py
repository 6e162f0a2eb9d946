"""PANR: the paper's PSN- and congestion-aware NoC routing (Algorithm 3).

PANR enhances west-first routing: among the permitted hop directions, the
router consults its voltage-noise sensor data and the incoming data rate
of adjacent routers.

* if the input channel's buffer occupancy exceeds the threshold ``B``
  (50 % in the paper, chosen by the Section 5.1 ablation), the direction
  with the **least incoming data rate** is chosen to relieve congestion;
* otherwise the direction whose adjacent tile reports the **least PSN**
  is chosen, steering flits away from noisy (highly switching) regions
  and thereby keeping router activity low around high-activity cores.

Hop selection costs one cycle, masked by running in parallel with route
computation (Section 4.4), so PANR adds no latency over west-first.

**Graceful degradation**: PANR's adaptivity rests on trustworthy sensor
input.  When any permissible direction's PSN reading is flagged invalid
(detected sensor fault or stale data - see
:class:`~repro.pdn.sensors.SensorNetwork`), the router's fail-safe
reverts the whole selection stage to deterministic XY for that hop:
routing on garbage noise data could steer *all* traffic into the noisy
region it is meant to avoid, whereas XY is always safe.  The XY
direction is by construction inside the west-first permissible set, so
the fallback preserves the turn model's deadlock freedom; with the
entire sensor network faulted, PANR's routes collapse exactly onto XY.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noc.routing.base import (
    FreePairs,
    RouterContexts,
    soft_argmin_columns,
)
from repro.noc.routing.west_first import WestFirstRouting
from repro.noc.routing.xy import XYRouting
from repro.noc.topology import MeshTopology

#: Default buffer-occupancy threshold B (fraction of buffer depth).
DEFAULT_BUFFER_THRESHOLD = 0.5

#: Deterministic fallback used when sensor input cannot be trusted.
_XY_FALLBACK = XYRouting()


@dataclass
class PanrRouting(WestFirstRouting):
    """West-first + PSN/congestion-aware direction selection.

    Attributes:
        buffer_threshold: Occupancy fraction above which congestion
            (data-rate) selection replaces PSN selection.
    """

    buffer_threshold: float = DEFAULT_BUFFER_THRESHOLD
    name = "PANR"

    def __post_init__(self) -> None:
        if not 0.0 <= self.buffer_threshold <= 1.0:
            raise ValueError("buffer_threshold must be in [0, 1]")

    def weight_columns(
        self,
        topo: MeshTopology,
        pairs: FreePairs,
        contexts: RouterContexts,
    ) -> np.ndarray:
        """Above the buffer threshold, weigh the columns by their
        neighbours' incoming data rate, otherwise by their PSN."""
        congested = contexts.occupancy[pairs.inputs] > self.buffer_threshold
        metric = np.where(
            congested[:, None],
            contexts.data_rate[pairs.tiles],
            contexts.psn_pct[pairs.tiles],
        )
        # The hardware picks the minimum (Algorithm 3 lines 5-6); for the
        # analytical flow model the argmin is expressed as a sharply
        # peaked soft-min so nearly all flow follows the winning direction
        # while near-ties still split.  Credit-based flow control: a
        # backed-up output stalls flits no matter what the selector
        # prefers, so the achievable split is gated by the outgoing
        # link's remaining capacity.
        out = soft_argmin_columns(metric, contexts.out_rho[pairs.links])
        out[pairs.codes < 0] = 0.0
        if contexts.psn_valid is not None:
            # Fail-safe: unreliable sensor input reverts the pair to
            # deterministic XY (see the module docstring), weight 1.0 on
            # the XY direction alone.  A free pair offers both minimal
            # directions, XY's among them.
            untrusted = ~(
                contexts.psn_valid[pairs.tiles] | (pairs.codes < 0)
            ).all(axis=1)
            xy = _XY_FALLBACK.forced_hops(topo)[pairs.cur, pairs.dst]
            out[untrusted] = pairs.codes[untrusted] == xy[untrusted, None]
        return out
