"""Chip occupancy state shared by resource managers and the runtime.

Tracks which tiles run which task of which application, the supply
voltage of every power domain, and the power headroom against the dark
silicon power budget (DsPB).

Two granularities coexist because the compared managers differ:

* PARM occupies whole 2x2 domains (applications never share a domain,
  Section 3.3);
* the HM baseline scatters tasks over individual tiles across the chip.

The state enforces the one invariant the hardware imposes: all occupied
tiles of one domain run at the domain's single Vdd.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.chip.cmp import ChipDescription


@dataclass(frozen=True)
class TileOccupant:
    """What a tile is currently running."""

    app_id: int
    task_id: int
    vdd: float


class ChipState:
    """Mutable occupancy/power state of the CMP.

    Args:
        chip: The platform description.
        failed_tiles: Tiles that are permanently unusable (fault
            injection); they are excluded from every free-tile/domain
            query and can never be occupied.  Trial states built for
            what-if planning (compaction, re-mapping) must carry the
            source state's failed set so plans stay executable.
    """

    def __init__(
        self,
        chip: ChipDescription,
        failed_tiles: Optional[Iterable[int]] = None,
    ):
        self._chip = chip
        self._occupants: Dict[int, TileOccupant] = {}
        self._domain_vdd: Dict[int, float] = {}
        self._app_power_w: Dict[int, float] = {}
        self._failed: Set[int] = set(failed_tiles or ())
        for tile in self._failed:
            chip.mesh._check_tile(tile)
        #: Memo of :meth:`free_domains`; every mutator clears it.
        self._free_domains: Optional[List[int]] = None

    @property
    def chip(self) -> ChipDescription:
        return self._chip

    # ------------------------------------------------------------------
    # Queries used by the mapping algorithms
    # ------------------------------------------------------------------

    def free_tiles(self) -> List[int]:
        """Tiles with no occupant and no permanent fault, ascending id."""
        return [
            t
            for t in self._chip.mesh.tiles()
            if t not in self._occupants and t not in self._failed
        ]

    def free_domains(self) -> List[int]:
        """Domains with all four tiles free and healthy, ascending id.

        The scan runs once per state: the answer is kept until the next
        mutation, and each call returns a fresh copy of it.
        """
        if self._free_domains is None:
            self._free_domains = self._scan_free_domains()
        return list(self._free_domains)

    def _scan_free_domains(self) -> List[int]:
        domains = self._chip.domains
        return [
            d
            for d in range(domains.domain_count)
            if all(
                t not in self._occupants and t not in self._failed
                for t in domains.tiles_of(d)
            )
        ]

    def failed_tiles(self) -> Set[int]:
        """Copy of the permanently failed tile set."""
        return set(self._failed)

    def is_failed(self, tile: int) -> bool:
        return tile in self._failed

    def used_power_w(self) -> float:
        """Estimated power of all running applications."""
        return sum(self._app_power_w.values())

    def available_power_w(self) -> float:
        """Headroom under the dark silicon power budget."""
        return self._chip.dark_silicon_budget_w - self.used_power_w()

    def occupant(self, tile: int) -> Optional[TileOccupant]:
        return self._occupants.get(tile)

    def occupied_tiles(self) -> List[int]:
        """Tiles running a task, ascending id."""
        return sorted(self._occupants)

    def domain_vdd(self, domain: int) -> Optional[float]:
        """Current supply voltage of a domain (None when idle)."""
        return self._domain_vdd.get(domain)

    def running_apps(self) -> List[int]:
        return sorted(self._app_power_w)

    def tiles_of_app(self, app_id: int) -> Dict[int, int]:
        """Mapping of task id to tile for one running application."""
        return {
            occ.task_id: tile
            for tile, occ in self._occupants.items()
            if occ.app_id == app_id
        }

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def occupy(
        self,
        app_id: int,
        task_to_tile: Dict[int, int],
        vdd: float,
        power_w: float,
    ) -> None:
        """Place an application.

        Raises:
            ValueError: if a tile is already occupied, the app is already
                placed, a domain would end up with two voltages, or the
                placement exceeds the DsPB headroom.
        """
        if app_id in self._app_power_w:
            raise ValueError(f"app {app_id} is already placed")
        if power_w > self.available_power_w() + 1e-9:
            raise ValueError(
                f"placing app {app_id} ({power_w:.2f} W) exceeds the "
                f"available budget ({self.available_power_w():.2f} W)"
            )
        tiles = list(task_to_tile.values())
        if len(set(tiles)) != len(tiles):
            raise ValueError("two tasks mapped to one tile")
        domains = self._chip.domains
        for tile in tiles:
            if tile in self._occupants:
                raise ValueError(f"tile {tile} already occupied")
            if tile in self._failed:
                raise ValueError(f"tile {tile} has failed permanently")
            current = self._domain_vdd.get(domains.domain_of(tile))
            if current is not None and abs(current - vdd) > 1e-9:
                raise ValueError(
                    f"tile {tile} is in a domain running at {current} V, "
                    f"cannot place a {vdd} V task"
                )
        self._free_domains = None
        for task, tile in task_to_tile.items():
            self._occupants[tile] = TileOccupant(app_id, task, vdd)
            self._domain_vdd[domains.domain_of(tile)] = vdd
        self._app_power_w[app_id] = power_w

    def move_task(self, app_id: int, task_id: int, new_tile: int) -> None:
        """Migrate one task of a running application to a free tile.

        Used by reactive thread-migration schemes (e.g. the
        Orchestrator-style baseline).  The destination must be free and
        its domain must be idle or already running at the app's Vdd.

        Raises:
            ValueError: if the task is not placed, the destination is
                occupied, or the domain voltage would conflict.
        """
        current = self.tiles_of_app(app_id)
        if task_id not in current:
            raise ValueError(
                f"app {app_id} has no task {task_id} placed"
            )
        old_tile = current[task_id]
        if new_tile == old_tile:
            return
        if new_tile in self._occupants:
            raise ValueError(f"tile {new_tile} already occupied")
        if new_tile in self._failed:
            raise ValueError(f"tile {new_tile} has failed permanently")
        vdd = self._occupants[old_tile].vdd
        domains = self._chip.domains
        new_domain = domains.domain_of(new_tile)
        current_vdd = self._domain_vdd.get(new_domain)
        if current_vdd is not None and abs(current_vdd - vdd) > 1e-9:
            raise ValueError(
                f"tile {new_tile} is in a domain running at {current_vdd} V"
            )
        self._free_domains = None
        del self._occupants[old_tile]
        self._occupants[new_tile] = TileOccupant(app_id, task_id, vdd)
        self._domain_vdd[new_domain] = vdd
        old_domain = domains.domain_of(old_tile)
        if all(
            t not in self._occupants for t in domains.tiles_of(old_domain)
        ):
            self._domain_vdd.pop(old_domain, None)

    def fail_tile(self, tile: int) -> None:
        """Permanently retire a tile (fault injection).

        The tile must be vacant: a faulting occupant is recovered
        (checkpoint rollback + re-mapping) by the runtime *before* the
        tile is retired, so state transitions stay explicit.

        Raises:
            ValueError: if the tile id is invalid or still occupied.
        """
        self._chip.mesh._check_tile(tile)
        if tile in self._occupants:
            raise ValueError(
                f"tile {tile} is occupied; recover its application "
                "before retiring it"
            )
        self._free_domains = None
        self._failed.add(tile)

    def release(self, app_id: int) -> None:
        """Remove an application's tasks and free idle domains."""
        if app_id not in self._app_power_w:
            raise ValueError(f"app {app_id} is not placed")
        domains = self._chip.domains
        freed = [
            tile
            for tile, occ in self._occupants.items()
            if occ.app_id == app_id
        ]
        self._free_domains = None
        for tile in freed:
            del self._occupants[tile]
        for d in sorted({domains.domain_of(t) for t in freed}):
            if all(t not in self._occupants for t in domains.tiles_of(d)):
                self._domain_vdd.pop(d, None)
        del self._app_power_w[app_id]
