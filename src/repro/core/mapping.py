"""PSN-aware mapping heuristic (Algorithm 2, end to end).

Given a (Vdd, DoP) pair that satisfies the deadline, the heuristic:

1. rejects the placement when the application's estimated power at that
   operating point exceeds the available dark-silicon headroom
   (lines 1-2);
2. clusters the tasks by activity bin in decreasing communication order
   (lines 3-9, :mod:`repro.core.clustering`), read from the profile,
   which clusters each DoP's APG once;
3. fails when fewer free domains exist than clusters (lines 10-11);
4. places the clusters on domains minimising inter-domain communication
   distance and arranges same-bin tasks adjacently inside mixed domains
   (line 13, :mod:`repro.core.placement`).
"""

from __future__ import annotations

from typing import Optional

from repro.apps.profiles import ApplicationProfile
from repro.core.base import MappingDecision
from repro.core.placement import place_clusters
from repro.runtime.state import ChipState


def psn_aware_mapping(
    profile: ApplicationProfile,
    vdd: float,
    dop: int,
    state: ChipState,
) -> Optional[MappingDecision]:
    """Algorithm 2: find a PSN-minimising placement or report failure.

    Args:
        profile: The application's offline profile.
        vdd: Candidate supply voltage.
        dop: Candidate degree of parallelism.
        state: Current chip occupancy.

    Returns:
        The mapping decision, or ``None`` when the DsPB or domain
        availability constraints cannot be met.
    """
    power = profile.power_w(vdd, dop)
    if power > state.available_power_w():
        return None  # lines 1-2
    graph = profile.graph(dop)
    clusters = profile.clusters(dop)  # lines 3-9
    free = state.free_domains()
    if len(free) < len(clusters):
        return None  # lines 10-11
    task_to_tile = place_clusters(graph, clusters, free, state.chip.domains)
    if task_to_tile is None:
        return None
    return MappingDecision(
        vdd=vdd, dop=dop, task_to_tile=task_to_tile, power_w=power
    )
