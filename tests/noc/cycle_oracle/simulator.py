"""Cycle-based simulation loop for the mesh NoC.

Per cycle:

1. **Injection** - each traffic flow accumulates fractional flits at its
   offered rate; whole packets are queued and fed into the source
   router's LOCAL input port as space permits.
2. **Route computation** - head flits at the front of an input FIFO
   without an assigned output consult the routing algorithm (with the
   live :class:`RoutingContext`: this input's occupancy, neighbouring
   routers' measured incoming data rates, neighbouring tiles' PSN).
3. **Switch traversal** - one flit per output port per cycle; inputs
   compete round-robin; a flit moves only when the downstream buffer has
   a credit.  Tail flits release the wormhole reservation.
4. **Ejection** - flits routed to LOCAL at their destination leave the
   network; packet latency is recorded when the tail ejects.

Data rates are measured over a sliding window (the registers PANR's
hardware keeps per neighbour).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from cycle_oracle.packets import Flit, Packet
from cycle_oracle.router import PORTS, Router
from repro.chip.mesh import MeshGeometry
from repro.noc.batch import NocSimStats, TrafficFlow
from repro.noc.routing.base import RoutingAlgorithm, RoutingContext
from repro.noc.topology import Direction, MeshTopology


class CycleNocSimulator:
    """Flit-level mesh NoC simulator with a pluggable routing policy.

    Args:
        mesh: Tile mesh.
        routing: Routing algorithm.
        buffer_depth: Input FIFO depth in flits.
        psn_pct: Optional per-tile PSN sensor readings for PSN-aware
            policies (zeros if omitted).
        rate_window: Cycles per data-rate measurement window.
        seed: Injection-process RNG seed.
    """

    def __init__(
        self,
        mesh: MeshGeometry,
        routing: RoutingAlgorithm,
        buffer_depth: int = 8,
        psn_pct: Optional[np.ndarray] = None,
        rate_window: int = 64,
        seed: int = 0,
    ):
        self._topo = MeshTopology(mesh)
        self._routing = routing
        self._routers = [Router(t, buffer_depth) for t in mesh.tiles()]
        self._psn = (
            np.zeros(mesh.tile_count) if psn_pct is None else np.asarray(psn_pct)
        )
        if self._psn.shape != (mesh.tile_count,):
            raise ValueError("psn_pct must have one entry per tile")
        self._rate_window = rate_window
        self._rates = np.zeros(mesh.tile_count)
        self._rng = np.random.default_rng(seed)
        self._cycle = 0
        self._next_packet_id = 0

    @property
    def topology(self) -> MeshTopology:
        return self._topo

    def set_psn(self, psn_pct: np.ndarray) -> None:
        """Replace the per-tile PSN sensor readings mid-run.

        PSN-aware policies see the new readings from the next routing
        decision on, mirroring a sensor-network refresh between control
        epochs.
        """
        psn = np.asarray(psn_pct)
        if psn.shape != (self._topo.mesh.tile_count,):
            raise ValueError("psn_pct must have one entry per tile")
        self._psn = psn

    def run(self, flows: Sequence[TrafficFlow], cycles: int) -> NocSimStats:
        """Simulate ``cycles`` cycles of the given offered traffic."""
        if cycles < 1:
            raise ValueError("cycles must be at least 1")
        for f in flows:
            self._topo.mesh._check_tile(f.src)
            self._topo.mesh._check_tile(f.dst)
            if f.src == f.dst:
                raise ValueError("flows must cross the network (src != dst)")

        acc = [0.0] * len(flows)
        # Per source tile: FIFO of packets awaiting injection, plus the
        # number of flits of the head packet already pushed.  Streaming
        # whole packets in order keeps the LOCAL port free of interleaving
        # and supports packets larger than the input buffer.
        backlog: Dict[int, List[Packet]] = {}
        pushed: Dict[int, int] = {}
        stats = NocSimStats(
            cycles=cycles,
            packets_injected=0,
            packets_delivered=0,
            flits_delivered=0,
        )
        window_in = np.zeros(len(self._routers))

        for _ in range(cycles):
            self._cycle += 1
            # --- injection --------------------------------------------
            for i, flow in enumerate(flows):
                acc[i] += flow.rate
                while acc[i] >= flow.packet_size:
                    acc[i] -= flow.packet_size
                    backlog.setdefault(flow.src, []).append(
                        Packet(
                            packet_id=self._next_packet_id,
                            src=flow.src,
                            dst=flow.dst,
                            size_flits=flow.packet_size,
                            injected_cycle=self._cycle,
                        )
                    )
                    self._next_packet_id += 1
                    stats.packets_injected += 1
            for src, queue in backlog.items():
                port = self._routers[src].inputs[Direction.LOCAL]
                while queue and port.can_accept():
                    packet = queue[0]
                    k = pushed.get(src, 0)
                    port.push(Flit(packet, k))
                    if k + 1 == packet.size_flits:
                        queue.pop(0)
                        pushed[src] = 0
                    else:
                        pushed[src] = k + 1

            # --- route computation + switch traversal ------------------
            moves: List[Tuple[int, Direction, Direction]] = []
            for router in self._routers:
                requests: Dict[Direction, List[Direction]] = {}
                for in_port in PORTS:
                    port = router.inputs[in_port]
                    flit = port.head()
                    if flit is None:
                        continue
                    if port.assigned_output is None:
                        if not flit.is_head:
                            raise RuntimeError("body flit without wormhole route")
                        out = self._route(router, in_port, flit)
                        port.assigned_output = out
                    requests.setdefault(port.assigned_output, []).append(in_port)
                for out, reqs in requests.items():
                    if not self._can_move(router, out):
                        continue
                    owner = router.output_owner[out]
                    if owner is not None:
                        # A packet is mid-flight on this output: only its
                        # input port may continue (wormhole contiguity).
                        movable = [p for p in reqs if p is owner]
                    else:
                        # A new packet may claim the output; only head
                        # flits can start a wormhole.
                        movable = [
                            p for p in reqs if router.inputs[p].head().is_head
                        ]
                    winner = router.arbitrate(out, movable)
                    if winner is not None:
                        moves.append((router.tile, winner, out))

            # Apply all moves simultaneously (credits checked above; a
            # downstream buffer can momentarily receive from only one
            # upstream router per direction, so no double-booking).
            for tile, in_port, out in moves:
                router = self._routers[tile]
                port = router.inputs[in_port]
                if out is not Direction.LOCAL:
                    # Re-check credit (another move this cycle may have
                    # consumed the last slot of the same downstream port).
                    nxt = self._topo.neighbor(tile, out)
                    down = self._routers[nxt].inputs[out.opposite]
                    if not down.can_accept():
                        continue
                flit = port.pop()
                router.flits_forwarded += 1
                if flit.is_tail:
                    port.assigned_output = None
                    router.output_owner[out] = None
                elif flit.is_head:
                    router.output_owner[out] = in_port
                if out is Direction.LOCAL:
                    stats.flits_delivered += 1
                    if flit.is_tail:
                        stats.packets_delivered += 1
                        stats.packet_latencies.append(
                            self._cycle - flit.packet.injected_cycle
                        )
                else:
                    nxt = self._topo.neighbor(tile, out)
                    self._routers[nxt].inputs[out.opposite].push(flit)
                    window_in[nxt] += 1

            # --- data-rate measurement window ---------------------------
            if self._cycle % self._rate_window == 0:
                self._rates = window_in / self._rate_window
                window_in = np.zeros(len(self._routers))

        stats.router_flits_per_cycle = np.array(
            [r.flits_forwarded / self._cycle for r in self._routers]
        )
        return stats

    # ------------------------------------------------------------------

    def _route(self, router: Router, in_port: Direction, flit: Flit) -> Direction:
        if flit.dst == router.tile:
            return Direction.LOCAL
        out_dirs = self._topo.out_directions(router.tile)
        ctx = RoutingContext(
            buffer_occupancy=router.inputs[in_port].occupancy,
            neighbor_data_rate={
                d: float(self._rates[self._topo.neighbor(router.tile, d)])
                for d in out_dirs
            },
            neighbor_psn_pct={
                d: float(self._psn[self._topo.neighbor(router.tile, d)])
                for d in out_dirs
            },
            out_link_rho={
                d: self._routers[
                    self._topo.neighbor(router.tile, d)
                ].inputs[d.opposite].occupancy
                for d in out_dirs
            },
        )
        return self._routing.select(self._topo, router.tile, flit.dst, ctx)

    def _can_move(self, router: Router, out: Direction) -> bool:
        if out is Direction.LOCAL:
            return True
        nxt = self._topo.neighbor(router.tile, out)
        if nxt is None:
            raise RuntimeError(f"route off mesh edge at tile {router.tile}")
        return self._routers[nxt].inputs[out.opposite].can_accept()
