"""Harmonic-mapping baseline (HM), after Dahir et al. [21].

The state-of-the-art the paper compares against: a PSN-aware mapping
scheme that places tasks with high switching activity at long Manhattan
distances from each other so their supply noise does not compound.  Its
defining traits, which the paper's evaluation exploits:

* **no Vdd adaptation** - applications run at the nominal (highest)
  supply voltage.  Per Fig. 3a this maximises peak PSN, and the high
  per-app power means fewer applications fit under the dark-silicon
  budget ("HM fails ... because of its increased power consumption (due
  to high Vdd)", Section 5.2);
* **no DoP adaptation** - adaptable parallelism is one of PARM's
  contributions; the baseline runs every application at its default
  thread count;
* **scatter placement** - high-activity tasks are spread across the chip
  in non-contiguous regions at maximal pairwise distances, stretching
  communication paths and letting applications share power domains.

Placement: tasks are considered in decreasing activity factor.  Each
High-bin task takes the free tile maximising its minimum distance to the
already-placed High tasks (harmonic spreading); each Low-bin task takes
the free tile minimising communication distance to its placed APG
neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.graph import ApplicationGraph
from repro.apps.profiles import ApplicationProfile
from repro.core.base import MappingDecision, ResourceManager
from repro.pdn.waveforms import ActivityBin
from repro.runtime.state import ChipState


@dataclass
class HarmonicManager(ResourceManager):
    """The HM prior-work baseline.

    Attributes:
        default_dop: Thread count every application runs with (HM does
            not adapt parallelism); must be supported by the profiles.
    """

    default_dop: int = 16
    name = "HM"

    def __post_init__(self) -> None:
        if self.default_dop < 4 or self.default_dop % 4:
            raise ValueError("default_dop must be a positive multiple of 4")

    def try_map(
        self,
        profile: ApplicationProfile,
        deadline_s: float,
        state: ChipState,
    ) -> Optional[MappingDecision]:
        vdd = state.chip.vdd_ladder.highest
        dop = self.default_dop
        if dop not in profile.supported_dops:
            raise ValueError(
                f"{profile.name} does not support DoP {dop}; "
                f"supported: {profile.supported_dops}"
            )
        if profile.wcet_s(vdd, dop) >= deadline_s:
            return None
        power = profile.power_w(vdd, dop)
        if power > state.available_power_w():
            return None
        task_to_tile = self._scatter(profile.graph(dop), state, vdd)
        if task_to_tile is None:
            return None
        return MappingDecision(
            vdd=vdd, dop=dop, task_to_tile=task_to_tile, power_w=power
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _scatter(
        graph: ApplicationGraph,
        state: ChipState,
        vdd: float,
    ) -> Optional[Dict[int, int]]:
        """Harmonic placement over individual free tiles."""
        hops = state.chip.mesh.hop_table()
        domains = state.chip.domains
        free = [
            t
            for t in state.free_tiles()
            # HM may share domains between applications, but the hardware
            # still requires one Vdd per domain.
            if state.domain_vdd(domains.domain_of(t)) in (None, vdd)
        ]
        if len(free) < graph.task_count:
            return None

        order = sorted(
            graph.tasks(),
            key=lambda t: (-t.activity_factor, t.task_id),
        )
        placed: Dict[int, int] = {}
        placed_high: List[int] = []
        for task in order:
            if task.activity_bin is ActivityBin.HIGH:
                if placed_high:
                    tile = max(
                        free,
                        key=lambda f: (
                            min(hops[f][p] for p in placed_high),
                            -f,
                        ),
                    )
                else:
                    tile = free[0]
                placed_high.append(tile)
            else:
                neighbours = [
                    placed[n]
                    for n in graph.predecessors(task.task_id)
                    + graph.successors(task.task_id)
                    if n in placed
                ]
                if neighbours:
                    tile = min(
                        free,
                        key=lambda f: (
                            sum(hops[f][p] for p in neighbours),
                            f,
                        ),
                    )
                else:
                    tile = free[0]
            placed[task.task_id] = tile
            free.remove(tile)
        return placed
