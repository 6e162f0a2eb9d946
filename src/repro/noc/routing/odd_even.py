"""Odd-even turn-model routing (Chiu, 2000) - an extension baseline.

Not part of the paper's evaluation; included because it is the other
classic deadlock-free adaptive turn model, and comparing PANR's
selection policy on top of a different permissible-turn set is a
natural extension experiment.

Rules (columns counted from 0):

* east-to-north and east-to-south turns are forbidden at nodes in
  *even* columns;
* north-to-west and south-to-west turns are forbidden at nodes in
  *odd* columns.

The minimal-adaptive route function below follows the standard
formulation; without knowledge of the packet's source column it uses
the conservative variant (the ``cur == src`` allowance is dropped),
which is a subset of the permitted turns and therefore still
deadlock-free.
"""

from __future__ import annotations

from typing import List

from repro.noc.routing.base import RoutingAlgorithm
from repro.noc.topology import Direction, MeshTopology


class OddEvenRouting(RoutingAlgorithm):
    """Minimal adaptive odd-even routing (conservative variant)."""

    name = "OddEven"

    def permissible(
        self, topo: MeshTopology, cur: int, dst: int
    ) -> List[Direction]:
        if cur == dst:
            return []
        cx, cy = topo.mesh.coord_of(cur)
        dx_, dy_ = topo.mesh.coord_of(dst)
        dx = dx_ - cx
        dy = dy_ - cy
        vertical = (
            Direction.SOUTH if dy > 0 else Direction.NORTH
        )  # y grows south

        if dx == 0:
            return [vertical] if dy != 0 else []
        dirs: List[Direction] = []
        if dx > 0:  # travelling east
            if dy == 0:
                return [Direction.EAST]
            # Turning off the east direction (EN/ES) is only allowed in
            # odd columns; the cur==src exception needs the source
            # column, which the conservative variant forgoes.
            if cx % 2 == 1:
                dirs.append(vertical)
            # Keep going east unless the destination column is even and
            # exactly one hop away (we must be able to turn there).
            if dx != 1 or dx_ % 2 == 1:
                dirs.append(Direction.EAST)
            if not dirs:
                # Destination column is even and adjacent, and we are in
                # an even column: go vertical here (the NW/SW turns that
                # follow are legal from even columns).
                dirs.append(vertical)
        else:  # travelling west
            dirs.append(Direction.WEST)
            # NW/SW turns are forbidden in odd columns, so vertical
            # progress while heading west is only offered in even ones.
            if dy != 0 and cx % 2 == 0:
                dirs.append(vertical)
        return dirs
