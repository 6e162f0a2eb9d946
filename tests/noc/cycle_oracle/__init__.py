"""Object-per-flit reference simulator of the mesh NoC (test oracle).

Input-buffered wormhole routers with credit flow control and pluggable
routing, written one object per flit, packet and router for
readability rather than speed.  It is the reference implementation the
NoC equivalence suites pin :class:`repro.noc.batch.BatchedNocEngine`
against, lane by lane and flit for flit.
"""

from cycle_oracle.packets import Flit, Packet
from cycle_oracle.router import Router
from cycle_oracle.simulator import CycleNocSimulator, NocSimStats, TrafficFlow

__all__ = [
    "Flit",
    "Packet",
    "Router",
    "CycleNocSimulator",
    "NocSimStats",
    "TrafficFlow",
]
