"""Chip-level transient PSN audit of a mapping (slow-path validation).

The runtime uses the fast fitted kernels; this module re-evaluates a
concrete chip occupancy with the ground-truth MNA transient solver,
domain by domain (domains are electrically independent, Section 3.3).
Use it to audit a mapping decision offline, or to quantify the fast
model's error on exactly the configurations a manager produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


#: One mapping to audit: the decision, the application graph at the
#: decision's DoP, and optional per-tile router activity (e.g. from
#: :class:`~repro.noc.analytical.AnalyticalNocModel`; zeros when None).
AuditedMapping = Tuple[
    MappingDecision, ApplicationGraph, Optional[Sequence[float]]
]


def audit_mappings(
    chip: ChipDescription,
    mappings: Sequence[AuditedMapping],
    window_s: float = 300e-9,
    dt_s: float = 50e-12,
) -> List[ChipPsnAudit]:
    """Run the transient solver over every domain the mappings occupy.

    Every audited domain of every mapping shares one PDN plan, so all of
    them are solved as lanes of one batch; each audit is bit-identical
    to the one a batch of its own mapping gives.

    Args:
        chip: The platform.
        mappings: ``(decision, graph, router_flits_per_cycle)`` triples.
        window_s, dt_s: Transient analysis window and step.

    Returns:
        One :class:`ChipPsnAudit` per mapping, in order.
    """
    plans = [
        _domain_requests(chip, decision, graph, rates)
        for decision, graph, rates in mappings
    ]
    analysis = PsnTransientAnalysis(chip.tech, window_s=window_s, dt_s=dt_s)
    reports = iter(
        analysis.analyze_many(
            [request for _, requests in plans for request in requests]
        )
    )
    fast = FastPsnModel()
    audits = []
    for domain_tiles, requests in plans:
        peak = np.zeros(chip.tile_count)
        avg = np.zeros(chip.tile_count)
        fast_peak = np.zeros(chip.tile_count)
        for tiles, (domain_vdd, loads) in zip(domain_tiles, requests):
            report = next(reports)
            fast_estimate, _ = fast.domain_psn(domain_vdd, loads)
            for i, tile in enumerate(tiles):
                peak[tile] = report.peak_psn_pct[i]
                avg[tile] = report.avg_psn_pct[i]
                fast_peak[tile] = fast_estimate[i]
        audits.append(
            ChipPsnAudit(
                peak_psn_pct=peak, avg_psn_pct=avg, fast_peak_psn_pct=fast_peak
            )
        )
    return audits


def _domain_requests(
    chip: ChipDescription,
    decision: MappingDecision,
    graph: ApplicationGraph,
    router_flits_per_cycle: Optional[Sequence[float]],
) -> Tuple[List[Sequence[int]], List[Tuple[float, List[TileLoad]]]]:
    """The tiles and the ``(vdd, loads)`` analysis request of every
    domain one mapping's audit covers, in ascending domain order."""
    if router_flits_per_cycle is None:
        router_rates = np.zeros(chip.tile_count)
    else:
        router_rates = np.asarray(list(router_flits_per_cycle), dtype=float)
        if router_rates.shape != (chip.tile_count,):
            raise ValueError(
                f"need {chip.tile_count} router rates, got {router_rates.shape}"
            )

    power_model = chip.power_model
    vdd = decision.vdd
    tile_task: Dict[int, int] = {
        tile: task for task, tile in decision.task_to_tile.items()
    }
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
    return domain_tiles, requests
