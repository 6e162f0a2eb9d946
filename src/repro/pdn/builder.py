"""Builds the Fig. 2 power-delivery network of one power-supply domain.

Topology (per the paper's Section 3.3/3.4):

* a domain power source (ideal Vdd) feeds four per-tile regulator branches,
  each a series bump resistance ``Rb`` and bump inductance ``Lb``;
* the four tile supply nodes are coupled by on-chip grid wire segments
  (``Rc`` in series with a small wire inductance) along the four edges of
  the 2x2 tile block - adjacent tiles share a direct segment, diagonal
  tiles couple only through two-segment paths, which is what makes 2-hop
  interference weaker than 1-hop interference (Fig. 3b);
* each tile has decoupling capacitance ``Cdecap`` to ground;
* the workload of each tile is a current source pulling from the tile node.

Domains are physically separated (no inter-domain PDN interference), so the
whole-chip analysis decomposes into independent per-domain circuits.
"""

from __future__ import annotations

from typing import Sequence

from repro.chip.technology import TechnologyNode
from repro.pdn.circuit import GROUND, Circuit, Waveform

#: Node names of the four tile supply rails, in the domain's row-major
#: tile order: index 0 = top-left, 1 = top-right, 2 = bottom-left,
#: 3 = bottom-right of the 2x2 block.
TILE_NODES = ("tile0", "tile1", "tile2", "tile3")

#: Pairs of tile indices joined by a direct grid segment (the four edges
#: of the 2x2 block; diagonals (0,3) and (1,2) are not directly wired).
_GRID_EDGES = ((0, 1), (2, 3), (0, 2), (1, 3))


class DomainPdnBuilder:
    """Constructs the per-domain PDN circuit for a technology node.

    Args:
        tech: Technology node providing Rb, Lb, Rc, grid inductance and
            decap values.
    """

    def __init__(self, tech: TechnologyNode):
        self._tech = tech

    @property
    def tech(self) -> TechnologyNode:
        return self._tech

    def build(self, vdd: float, tile_currents: Sequence[Waveform]) -> Circuit:
        """Create the domain circuit with the given tile load currents.

        Args:
            vdd: Domain supply voltage in volts.
            tile_currents: One waveform per tile (constant amperes or a
                vectorised callable of time); exactly four entries.

        Returns:
            The assembled :class:`~repro.pdn.circuit.Circuit`; tile supply
            rails are the :data:`TILE_NODES` nodes.
        """
        if vdd <= 0:
            raise ValueError(f"vdd must be positive, got {vdd}")
        if len(tile_currents) != len(TILE_NODES):
            raise ValueError(
                f"expected {len(TILE_NODES)} tile currents, got {len(tile_currents)}"
            )
        tech = self._tech
        circuit = Circuit()
        circuit.vsource("vsrc", GROUND, vdd)
        for i, node in enumerate(TILE_NODES):
            mid = f"bump{i}"
            circuit.resistor("vsrc", mid, tech.r_bump_ohm)
            circuit.inductor(mid, node, tech.l_bump_h)
            circuit.capacitor(node, GROUND, tech.c_decap_f)
            circuit.isource(node, GROUND, tile_currents[i])
        for a, b in _GRID_EDGES:
            mid = f"grid{a}{b}"
            circuit.resistor(TILE_NODES[a], mid, tech.r_grid_ohm)
            circuit.inductor(mid, TILE_NODES[b], tech.l_grid_h)
        return circuit

    def resonance_hz(self) -> float:
        """Natural frequency of one tile's bump-L / decap-C tank.

        Useful for choosing transient windows and interpreting why
        misaligned switching between neighbouring tiles excites larger
        droops than aligned switching.
        """
        import math

        return 1.0 / (
            2.0 * math.pi * math.sqrt(self._tech.l_bump_h * self._tech.c_decap_f)
        )
