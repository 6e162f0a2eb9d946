"""Power-supply domains: 2x2 tile blocks with independent VRMs.

Section 3.3 of the paper: a domain is a group of four tiles with its own
voltage regulator module; domains are physically separated so there is no
PDN interference *between* domains; all tiles of a domain share the same
Vdd; tasks of different applications are never mapped into one domain
(guaranteed by restricting application DoP to multiples of four).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.chip.mesh import MeshGeometry

#: Number of tiles in one power-supply domain.
DOMAIN_SIZE = 4


class DomainMap:
    """Partition of a mesh into 2x2 power-supply domains.

    The mesh dimensions must both be even so that the chip tiles exactly
    into 2x2 blocks.  Domains are indexed row-major over the domain grid
    (which is ``width // 2`` by ``height // 2``).
    """

    def __init__(self, mesh: MeshGeometry):
        if mesh.width % 2 or mesh.height % 2:
            raise ValueError(
                f"mesh dimensions must be even to form 2x2 domains, "
                f"got {mesh.width}x{mesh.height}"
            )
        self._mesh = mesh
        self._grid_w = mesh.width // 2
        self._grid_h = mesh.height // 2
        self._domain_of: Dict[int, int] = {}
        self._tiles_of: Dict[int, List[int]] = {}
        for tile in mesh.tiles():
            x, y = mesh.coord_of(tile)
            domain = (y // 2) * self._grid_w + (x // 2)
            self._domain_of[tile] = domain
            self._tiles_of.setdefault(domain, []).append(tile)
        coords = [self.domain_coord(d) for d in range(self.domain_count)]
        self._distances: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(abs(ax - bx) + abs(ay - by) for bx, by in coords)
            for ax, ay in coords
        )

    @property
    def mesh(self) -> MeshGeometry:
        """The underlying tile mesh."""
        return self._mesh

    @property
    def domain_count(self) -> int:
        """Number of power-supply domains on the chip."""
        return self._grid_w * self._grid_h

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """Shape ``(width, height)`` of the domain grid."""
        return self._grid_w, self._grid_h

    def domain_of(self, tile: int) -> int:
        """Domain id that a tile belongs to."""
        try:
            return self._domain_of[tile]
        except KeyError:
            raise ValueError(f"tile id {tile} not in mesh")

    def tiles_of(self, domain: int) -> List[int]:
        """The four tile ids of a domain (row-major order)."""
        try:
            return list(self._tiles_of[domain])
        except KeyError:
            raise ValueError(f"domain id {domain} outside [0, {self.domain_count})")

    def domain_coord(self, domain: int) -> Tuple[int, int]:
        """Coordinate of a domain in the domain grid."""
        if not 0 <= domain < self.domain_count:
            raise ValueError(f"domain id {domain} outside [0, {self.domain_count})")
        return domain % self._grid_w, domain // self._grid_w

    def domain_at(self, coord: Tuple[int, int]) -> int:
        """Domain id at a domain-grid coordinate."""
        x, y = coord
        if not (0 <= x < self._grid_w and 0 <= y < self._grid_h):
            raise ValueError(f"domain coordinate {coord} outside grid {self.grid_shape}")
        return y * self._grid_w + x

    @property
    def distances(self) -> Tuple[Tuple[int, ...], ...]:
        """All-pairs domain distances, built once per map:
        ``distances[a][b] == domain_distance(a, b)``.  Mapping reads the
        rows in its inner loops, without bounds checks."""
        return self._distances

    def domain_distance(self, a: int, b: int) -> int:
        """Manhattan distance between two domains in the domain grid."""
        self.domain_coord(a)  # raises ValueError out of range
        self.domain_coord(b)
        return self._distances[a][b]

    def neighbor_domains(self, domain: int) -> List[int]:
        """Domains adjacent (distance 1) to ``domain`` in the domain grid."""
        x, y = self.domain_coord(domain)
        candidates = ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
        return [
            self.domain_at(c)
            for c in candidates
            if 0 <= c[0] < self._grid_w and 0 <= c[1] < self._grid_h
        ]
