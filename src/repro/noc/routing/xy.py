"""Dimension-ordered XY routing (deterministic baseline)."""

from __future__ import annotations

from typing import List

from repro.noc.routing.base import RoutingAlgorithm
from repro.noc.topology import Direction, MeshTopology


class XYRouting(RoutingAlgorithm):
    """Route fully in X first, then in Y.  Deadlock-free, deterministic,
    oblivious to congestion and PSN - the paper's weakest baseline."""

    name = "XY"

    def permissible(
        self, topo: MeshTopology, cur: int, dst: int
    ) -> List[Direction]:
        if cur == dst:
            return []
        (cx, cy) = topo.mesh.coord_of(cur)
        (dx, dy) = topo.mesh.coord_of(dst)
        if dx > cx:
            return [Direction.EAST]
        if dx < cx:
            return [Direction.WEST]
        if dy > cy:
            return [Direction.SOUTH]
        return [Direction.NORTH]
