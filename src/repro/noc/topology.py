"""Mesh NoC topology: directions, ports and neighbour lookup.

Coordinates follow :class:`repro.chip.mesh.MeshGeometry`: x grows EAST,
y grows SOUTH (row-major tile ids).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.chip.mesh import MeshGeometry


class Direction(enum.Enum):
    """Router port directions; LOCAL is the tile's injection/ejection port."""

    LOCAL = "local"
    EAST = "east"
    WEST = "west"
    NORTH = "north"
    SOUTH = "south"

    # Members are singletons compared by identity, so hash by identity
    # too: Enum's default hashes the member name in Python on every
    # dict lookup, millions of times per campaign in the routing loops.
    __hash__ = object.__hash__

    @property
    def offset(self) -> Tuple[int, int]:
        return _OFFSETS[self]

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITES[self]


_OFFSETS = {
    Direction.LOCAL: (0, 0),
    Direction.EAST: (1, 0),
    Direction.WEST: (-1, 0),
    Direction.NORTH: (0, -1),
    Direction.SOUTH: (0, 1),
}

_OPPOSITES = {
    Direction.LOCAL: Direction.LOCAL,
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
}

#: The four mesh directions (excluding LOCAL).
MESH_DIRECTIONS = (
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)

#: Canonical router-port order shared by the flit-level engine, the
#: forced-hop tables and the analytical model; index into this tuple is
#: the integer *port code*.
PORT_DIRECTIONS = (
    Direction.LOCAL,
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)

#: Direction -> integer port code (position in :data:`PORT_DIRECTIONS`).
PORT_CODES: Dict[Direction, int] = {
    d: i for i, d in enumerate(PORT_DIRECTIONS)
}

#: ``OPPOSITE_CODES[code]`` is the port code of the opposite direction.
OPPOSITE_CODES = tuple(
    PORT_CODES[d.opposite] for d in PORT_DIRECTIONS
)


class MeshTopology:
    """Port-level view of a tile mesh for NoC models.

    Args:
        mesh: Tile mesh.
    """

    #: Precomputed all-pairs lookup tables, read-only once built: every
    #: routing policy, NoC model and engine over this topology shares
    #: them, and parmlint's shared-readonly rule flags any write outside
    #: __init__ / the lazy neighbor-code builder (see docs/lint.md).
    __shared_readonly__ = ("_hops", "_towards", "_neighbor_codes")
    __shared_readonly_init__ = ("neighbor_codes",)

    def __init__(self, mesh: MeshGeometry):
        self._mesh = mesh
        self._neighbor_codes: Optional[np.ndarray] = None
        self._neighbors: Dict[int, Dict[Direction, int]] = {}
        coords = [mesh.coord_of(tile) for tile in mesh.tiles()]
        for tile, (x, y) in enumerate(coords):
            table: Dict[Direction, int] = {}
            for d in MESH_DIRECTIONS:
                dx, dy = d.offset
                coord = (x + dx, y + dy)
                if mesh.contains(coord):
                    table[d] = mesh.tile_at(coord)
            self._neighbors[tile] = table
        # Hop-distance and productive-direction tables, precomputed once
        # per topology: routing and the analytical NoC model look these
        # up in their innermost loops, where the coordinate arithmetic
        # of MeshGeometry.manhattan dominated profiles.
        self._hops = np.array(
            [
                [abs(ax - bx) + abs(ay - by) for bx, by in coords]
                for ax, ay in coords
            ],
            dtype=np.int64,
        )
        self._towards: Dict[Tuple[int, int], Tuple[Direction, ...]] = {}
        for src, (sx, sy) in enumerate(coords):
            for dst, (dx_, dy_) in enumerate(coords):
                dirs: List[Direction] = []
                if dx_ > sx:
                    dirs.append(Direction.EAST)
                elif dx_ < sx:
                    dirs.append(Direction.WEST)
                if dy_ > sy:
                    dirs.append(Direction.SOUTH)
                elif dy_ < sy:
                    dirs.append(Direction.NORTH)
                self._towards[(src, dst)] = tuple(dirs)

    @property
    def mesh(self) -> MeshGeometry:
        return self._mesh

    def neighbor(self, tile: int, direction: Direction) -> Optional[int]:
        """Neighbouring tile in a direction, or None at the mesh edge."""
        if direction is Direction.LOCAL:
            return tile
        return self._neighbors[tile].get(direction)

    def out_directions(self, tile: int) -> List[Direction]:
        """Mesh directions with a neighbour (2-4 of them)."""
        return list(self._neighbors[tile])

    def hops(self, src: int, dst: int) -> int:
        """Manhattan (hop) distance between two tiles, via the table."""
        return int(self._hops[src, dst])

    def direction_towards(self, src: int, dst: int) -> List[Direction]:
        """Productive (distance-reducing) directions from src to dst."""
        return list(self._towards[(src, dst)])

    def neighbor_codes(self) -> np.ndarray:
        """All-pairs neighbour table keyed by port code.

        Returns an ``(tile_count, 5)`` int array where column ``c`` holds
        the neighbouring tile in direction ``PORT_DIRECTIONS[c]`` or
        ``-1`` at a mesh edge; the LOCAL column holds the tile itself.
        The array is built once and cached: the flit-level engine
        derives its downstream lookups from it, and
        ``RoutingAlgorithm.forced_hops`` checks forced hops against it.
        """
        if self._neighbor_codes is None:
            table = np.full(
                (self._mesh.tile_count, len(PORT_DIRECTIONS)),
                -1,
                dtype=np.int64,
            )
            for tile in self._mesh.tiles():
                table[tile, PORT_CODES[Direction.LOCAL]] = tile
                for d, other in self._neighbors[tile].items():
                    table[tile, PORT_CODES[d]] = other
            self._neighbor_codes = table
        return self._neighbor_codes

    def links(self) -> List[Tuple[int, Direction]]:
        """All unidirectional links as ``(src_tile, direction)`` pairs."""
        return [
            (tile, d)
            for tile, table in self._neighbors.items()
            for d in table
        ]
