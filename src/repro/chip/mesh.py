"""2D mesh floorplan of the CMP.

Tiles are indexed row-major: tile id ``y * width + x`` sits at coordinate
``(x, y)``.  The paper's evaluation platform is a 10x6 mesh (60 tiles).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

Coordinate = Tuple[int, int]

#: ``table[a][b]`` is the hop distance between tiles ``a`` and ``b``.
HopTable = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class MeshGeometry:
    """Rectangular mesh of tiles.

    Attributes:
        width: Number of tile columns (x extent).
        height: Number of tile rows (y extent).
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"mesh must be at least 1x1, got {self.width}x{self.height}")

    @property
    def tile_count(self) -> int:
        """Total number of tiles in the mesh."""
        return self.width * self.height

    def contains(self, coord: Coordinate) -> bool:
        """Whether ``coord`` lies inside the mesh."""
        x, y = coord
        return 0 <= x < self.width and 0 <= y < self.height

    def coord_of(self, tile: int) -> Coordinate:
        """Coordinate ``(x, y)`` of a tile id."""
        self._check_tile(tile)
        return tile % self.width, tile // self.width

    def tile_at(self, coord: Coordinate) -> int:
        """Tile id at a coordinate."""
        if not self.contains(coord):
            raise ValueError(f"coordinate {coord} outside {self.width}x{self.height} mesh")
        x, y = coord
        return y * self.width + x

    def tiles(self) -> Iterator[int]:
        """Iterate over all tile ids in row-major order."""
        return iter(range(self.tile_count))

    def manhattan(self, a: int, b: int) -> int:
        """Manhattan (hop) distance between two tiles."""
        ax, ay = self.coord_of(a)
        bx, by = self.coord_of(b)
        return abs(ax - bx) + abs(ay - by)

    def pair_hop_sum(self, tiles: Sequence[int]) -> int:
        """:meth:`manhattan` summed over every unordered pair of ``tiles``.

        Each axis adds ``sum |a - b|`` over the pairs, which the sorted
        coordinates give in O(n log n): the k-th smallest of n values is
        added k times and subtracted n - 1 - k times.
        """
        total = 0
        for axis in zip(*(self.coord_of(tile) for tile in tiles)):
            last = len(axis) - 1
            for k, value in enumerate(sorted(axis)):
                total += value * (2 * k - last)
        return total

    def hop_table(self) -> HopTable:
        """Every pair's :meth:`manhattan` distance, built once per mesh
        shape: ``hop_table()[a][b] == manhattan(a, b)``.  Indexing does
        not bounds-check, so callers pass valid tile ids."""
        return _hop_table(self.width, self.height)

    def neighbors(self, tile: int) -> List[int]:
        """Tiles at Manhattan distance 1 (2 to 4 of them)."""
        x, y = self.coord_of(tile)
        candidates = ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
        return [self.tile_at(c) for c in candidates if self.contains(c)]

    def tiles_within(self, tile: int, radius: int) -> List[int]:
        """All tiles within ``radius`` hops of ``tile`` (excluding itself)."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return [
            other
            for other in self.tiles()
            if other != tile and self.manhattan(tile, other) <= radius
        ]

    def _check_tile(self, tile: int) -> None:
        if not 0 <= tile < self.tile_count:
            raise ValueError(
                f"tile id {tile} outside [0, {self.tile_count}) for "
                f"{self.width}x{self.height} mesh"
            )


@functools.lru_cache(maxsize=None)
def _hop_table(width: int, height: int) -> HopTable:
    coords = [(t % width, t // width) for t in range(width * height)]
    return tuple(
        tuple(abs(ax - bx) + abs(ay - by) for bx, by in coords)
        for ax, ay in coords
    )
