"""Chip-level transient PSN audit of a mapping (slow-path validation).

The runtime uses the fast fitted kernels; this module re-evaluates a
concrete chip occupancy with the ground-truth MNA transient solver,
domain by domain (domains are electrically independent, Section 3.3).
Use it to audit a mapping decision offline, or to quantify the fast
model's error on exactly the configurations a manager produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apps.graph import ApplicationGraph
from repro.chip.cmp import ChipDescription
from repro.core.base import MappingDecision
from repro.pdn.fast import FastPsnModel
from repro.pdn.transient import PsnTransientAnalysis
from repro.pdn.waveforms import TileLoad


@dataclass(frozen=True)
class ChipPsnAudit:
    """Per-tile PSN of one mapping from the transient solver.

    Attributes:
        peak_psn_pct: Peak PSN per tile (zeros for dark domains).
        avg_psn_pct: Average PSN per tile.
        fast_peak_psn_pct: The fast model's estimate on the same loads,
            for error analysis.
    """

    peak_psn_pct: np.ndarray
    avg_psn_pct: np.ndarray
    fast_peak_psn_pct: np.ndarray

    @property
    def chip_peak_pct(self) -> float:
        return float(np.max(self.peak_psn_pct))

    @property
    def fast_model_peak_error_pct(self) -> float:
        """Worst absolute per-tile disagreement between the fast kernel
        and the transient solver, in PSN percentage points."""
        return float(
            np.max(np.abs(self.peak_psn_pct - self.fast_peak_psn_pct))
        )


def audit_mapping(
    chip: ChipDescription,
    decision: MappingDecision,
    graph: ApplicationGraph,
    router_flits_per_cycle: Optional[Sequence[float]] = None,
    window_s: float = 300e-9,
    dt_s: float = 50e-12,
) -> ChipPsnAudit:
    """Run the transient solver over every domain a mapping occupies.

    Args:
        chip: The platform.
        decision: The mapping to audit.
        graph: The application graph at the decision's DoP.
        router_flits_per_cycle: Optional per-tile router activity (e.g.
            from :class:`~repro.noc.analytical.AnalyticalNocModel`);
            zeros when omitted.
        window_s, dt_s: Transient analysis window and step.

    Returns:
        The :class:`ChipPsnAudit`.
    """
    if router_flits_per_cycle is None:
        router_rates = np.zeros(chip.tile_count)
    else:
        router_rates = np.asarray(list(router_flits_per_cycle), dtype=float)
        if router_rates.shape != (chip.tile_count,):
            raise ValueError(
                f"need {chip.tile_count} router rates, got {router_rates.shape}"
            )

    analysis = PsnTransientAnalysis(chip.tech, window_s=window_s, dt_s=dt_s)
    fast = FastPsnModel()
    power_model = chip.power_model
    vdd = decision.vdd

    tile_task: Dict[int, int] = {
        tile: task for task, tile in decision.task_to_tile.items()
    }
    peak = np.zeros(chip.tile_count)
    avg = np.zeros(chip.tile_count)
    fast_peak = np.zeros(chip.tile_count)

    domains = {chip.domains.domain_of(t) for t in decision.tiles}
    # Idle domains carrying through-traffic still see router noise; the
    # NoC keeps their routers powered at the lowest DVS step (matching
    # the runtime's convention).
    traffic_domains = {
        chip.domains.domain_of(t)
        for t in chip.mesh.tiles()
        if router_rates[t] > 0
    } - domains
    domain_tiles = []
    requests = []
    for domain in sorted(domains | traffic_domains):
        domain_vdd = (
            vdd if domain in domains else chip.vdd_ladder.lowest
        )
        tiles = chip.domains.tiles_of(domain)
        loads: List[TileLoad] = []
        for tile in tiles:
            rate = float(router_rates[tile])
            router_power = (
                power_model.router_dynamic(rate, domain_vdd)
                + power_model.router_leakage(domain_vdd)
                if rate > 0 or tile in tile_task
                else 0.0
            )
            task_id = tile_task.get(tile)
            if task_id is None:
                loads.append(
                    TileLoad(0.0, router_power, TileLoad.idle().activity_bin)
                )
                continue
            task = graph.task(task_id)
            core_power = power_model.core_dynamic(
                task.activity_factor, domain_vdd
            ) + power_model.core_leakage(domain_vdd)
            loads.append(
                TileLoad(core_power, router_power, task.activity_bin)
            )
        domain_tiles.append(tiles)
        requests.append((domain_vdd, loads))

    # The decision's domains share one PDN plan: one batch of lanes.
    reports = analysis.analyze_many(requests)
    for tiles, (domain_vdd, loads), report in zip(
        domain_tiles, requests, reports
    ):
        fast_estimate, _ = fast.domain_psn(domain_vdd, loads)
        for i, tile in enumerate(tiles):
            peak[tile] = report.peak_psn_pct[i]
            avg[tile] = report.avg_psn_pct[i]
            fast_peak[tile] = fast_estimate[i]

    return ChipPsnAudit(
        peak_psn_pct=peak, avg_psn_pct=avg, fast_peak_psn_pct=fast_peak
    )
