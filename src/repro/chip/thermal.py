"""Steady-state thermal model of the tiled CMP (extension).

The paper treats the dark-silicon power budget (DsPB, 65 W) as "the
thermally safe power limit that the cooling system of the chip can
operate effectively within" (Section 3.1) and never models temperature
explicitly.  This module closes that loop: a standard steady-state
thermal resistance network over the tile grid, so the 65 W figure can be
validated against a junction-temperature limit and mappings can be
checked for hotspots.

Model: one thermal node per tile.  Each node couples

* vertically to the heat spreader/ambient through ``r_vertical``
  (K/W, the per-tile share of the heatsink stack), and
* laterally to its mesh neighbours through ``r_lateral`` (silicon
  conduction between adjacent tiles).

Steady state solves ``G @ T = P`` with ``T`` the temperature rise over
ambient - the thermal analogue of the PDN's DC analysis, reusing the
same sparse-linear-algebra approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.chip.mesh import MeshGeometry

#: Junction temperature limit for consumer silicon, deg C.
T_JUNCTION_MAX_C = 95.0


@dataclass(frozen=True)
class ThermalModel:
    """Per-tile steady-state temperature from a power map.

    Attributes:
        mesh: Tile grid.
        r_vertical_k_per_w: Tile-to-ambient thermal resistance (K/W).
            The default corresponds to a mobile-class passive cooling
            solution: a uniform 65 W over 60 tiles heats the chip by
            ~55 K, right at the edge of a 95 degC junction limit from a
            40 degC ambient - i.e. the paper's DsPB.
        r_lateral_k_per_w: Tile-to-tile lateral resistance (K/W).
        ambient_c: Ambient temperature in deg C.
    """

    mesh: MeshGeometry
    r_vertical_k_per_w: float = 50.5
    r_lateral_k_per_w: float = 8.0
    ambient_c: float = 40.0

    def __post_init__(self) -> None:
        if self.r_vertical_k_per_w <= 0 or self.r_lateral_k_per_w <= 0:
            raise ValueError("thermal resistances must be positive")

    def temperatures_c(self, tile_power_w: Sequence[float]) -> np.ndarray:
        """Steady-state tile temperatures in deg C.

        Args:
            tile_power_w: Power dissipated per tile (one entry per tile).
        """
        power = np.asarray(list(tile_power_w), dtype=float)
        n = self.mesh.tile_count
        if power.shape != (n,):
            raise ValueError(f"need {n} tile powers, got {power.shape}")
        if np.any(power < 0):
            raise ValueError("tile powers must be non-negative")

        g_v = 1.0 / self.r_vertical_k_per_w
        g_l = 1.0 / self.r_lateral_k_per_w
        rows, cols, vals = [], [], []
        for tile in self.mesh.tiles():
            diag = g_v
            for neighbor in self.mesh.neighbors(tile):
                diag += g_l
                rows.append(tile)
                cols.append(neighbor)
                vals.append(-g_l)
            rows.append(tile)
            cols.append(tile)
            vals.append(diag)
        conductance = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
        rise = spla.spsolve(conductance, power)
        return self.ambient_c + rise

    def peak_temperature_c(self, tile_power_w: Sequence[float]) -> float:
        """Hottest tile temperature in deg C."""
        return float(np.max(self.temperatures_c(tile_power_w)))

    def is_thermally_safe(
        self,
        tile_power_w: Sequence[float],
        limit_c: float = T_JUNCTION_MAX_C,
    ) -> bool:
        """Whether every tile stays below the junction limit."""
        return self.peak_temperature_c(tile_power_w) <= limit_c
