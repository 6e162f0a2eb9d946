"""Reactive hotspot migration for the runtime.

The paper's conclusion positions PARM against "schemes such as thread
migration employed to keep the tile switching activity in check",
arguing PARM avoids their software overhead.  This module implements
that reactive alternative so the claim can be measured: when a tile's
PSN sensor reading crosses a trigger threshold, the runtime moves its
thread to a quieter free tile and charges a per-thread migration
penalty (checkpoint, state transfer over the NoC, restart).  The
prevention-vs-correction comparison (EXPERIMENTS.md) runs ORCH with and
without it against PARM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.runtime.state import ChipState


@dataclass(frozen=True)
class ReactiveMigrationPolicy:
    """Reactive hotspot migration (the Orchestrator-style back end).

    When a tile's PSN *sensor* reading crosses the trigger threshold, the
    runtime moves that tile's thread to the free tile predicted to be
    quietest (an idle domain when one exists), paying the per-task
    migration cost.  At most one thread moves per scheduling event, and
    each application gets a cooldown so a hopeless hotspot does not
    thrash.

    Attributes:
        trigger_pct: Sensor PSN level (percent of Vdd) that triggers a
            migration - the voltage-emergency margin by default.
        per_task_cost_s: Wall-clock penalty of one thread move.
        cooldown_s: Minimum time between two migrations of one app.
        max_moves: Total moves allowed per run (thrash guard).
    """

    trigger_pct: float = 5.0
    per_task_cost_s: float = 100e-6
    cooldown_s: float = 5e-3
    max_moves: int = 200

    def __post_init__(self) -> None:
        if self.trigger_pct <= 0:
            raise ValueError("trigger_pct must be positive")
        if self.per_task_cost_s < 0:
            raise ValueError("per_task_cost_s must be non-negative")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        if self.max_moves < 1:
            raise ValueError("max_moves must be at least 1")


def pick_migration_target(
    state: ChipState,
    hot_tile: int,
    vdd: float,
) -> Optional[int]:
    """Quietest feasible destination for a thread fleeing ``hot_tile``.

    Prefers tiles in fully idle domains (no interference at all), then
    tiles far from the hotspot; the domain must be idle or already at
    the thread's Vdd.
    """
    domains = state.chip.domains
    mesh = state.chip.mesh
    candidates = [
        t
        for t in state.free_tiles()
        if state.domain_vdd(domains.domain_of(t)) in (None, vdd)
    ]
    if not candidates:
        return None

    def occupancy_of_domain(tile: int) -> int:
        return sum(
            1
            for other in domains.tiles_of(domains.domain_of(tile))
            if state.occupant(other) is not None
        )

    best = min(
        candidates,
        key=lambda t: (occupancy_of_domain(t), -mesh.manhattan(t, hot_tile), t),
    )
    if best == hot_tile:
        return None
    return best
