"""Input-buffered wormhole router with credit-based flow control.

Five ports (LOCAL + four mesh directions), one virtual channel.  Each
input port holds a FIFO of flits; once a head flit is assigned an output
direction, the remaining flits of the packet follow it (wormhole
switching).  One flit per output port moves per cycle; inputs compete via
a round-robin arbiter.  A flit only advances when the downstream input
buffer has a free slot (credit).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from cycle_oracle.packets import Flit
from repro.noc.topology import Direction

#: All router ports.
PORTS = (
    Direction.LOCAL,
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)


@dataclass
class InputPort:
    """One input channel: FIFO buffer plus wormhole route state."""

    depth: int
    buffer: Deque[Flit] = field(default_factory=deque)
    assigned_output: Optional[Direction] = None

    @property
    def occupancy(self) -> float:
        """Buffer occupancy fraction in [0, 1] (PANR's decision input)."""
        return len(self.buffer) / self.depth

    @property
    def free_slots(self) -> int:
        return self.depth - len(self.buffer)

    def can_accept(self) -> bool:
        return self.free_slots > 0

    def push(self, flit: Flit) -> None:
        if not self.can_accept():
            raise OverflowError("input buffer overflow (credit violation)")
        self.buffer.append(flit)

    def head(self) -> Optional[Flit]:
        return self.buffer[0] if self.buffer else None

    def pop(self) -> Flit:
        return self.buffer.popleft()


class Router:
    """One mesh router.

    Args:
        tile: Tile id the router belongs to.
        buffer_depth: Flit capacity of each input FIFO.
    """

    def __init__(self, tile: int, buffer_depth: int = 8):
        if buffer_depth < 1:
            raise ValueError("buffer_depth must be at least 1")
        self.tile = tile
        self.inputs: Dict[Direction, InputPort] = {
            p: InputPort(buffer_depth) for p in PORTS
        }
        # Wormhole output reservation: while a multi-flit packet crosses
        # an output port, only its input port may use that output; this
        # keeps packets contiguous on every link.
        self.output_owner: Dict[Direction, Optional[Direction]] = {
            p: None for p in PORTS
        }
        # Round-robin arbiter state per output port.
        self._rr: Dict[Direction, int] = {p: 0 for p in PORTS}
        #: Flits forwarded by this router (all ports), for activity stats.
        self.flits_forwarded: int = 0
        #: Flits received this measurement window (incoming data rate).
        self.window_flits_in: int = 0

    def occupancy(self, port: Direction) -> float:
        return self.inputs[port].occupancy

    def arbitrate(
        self, output: Direction, requesting: List[Direction]
    ) -> Optional[Direction]:
        """Round-robin winner among inputs requesting ``output``."""
        if not requesting:
            return None
        start = self._rr[output]
        ordered = sorted(requesting, key=lambda p: (PORTS.index(p) - start) % len(PORTS))
        winner = ordered[0]
        self._rr[output] = (PORTS.index(winner) + 1) % len(PORTS)
        return winner
