"""West-first turn-model routing (Glass & Ni [32]).

All westward hops must be taken first; once a packet no longer needs to
go west, it may route adaptively among the remaining productive
directions (east / north / south).  Prohibiting the two turns into WEST
makes the scheme deadlock-free on a mesh with a single virtual channel.
"""

from __future__ import annotations

from typing import List

from repro.noc.routing.base import RoutingAlgorithm
from repro.noc.topology import Direction, MeshTopology


class WestFirstRouting(RoutingAlgorithm):
    """Adaptive, minimal, deadlock-free; uniform among permitted turns."""

    name = "WestFirst"

    def permissible(
        self, topo: MeshTopology, cur: int, dst: int
    ) -> List[Direction]:
        if cur == dst:
            return []
        productive = topo.direction_towards(cur, dst)
        if Direction.WEST in productive:
            # West hops cannot be deferred: go west only.
            return [Direction.WEST]
        return productive
