"""Flit-level cycle engine for the mesh NoC: S meshes in lock-step.

:class:`BatchedNocEngine` models input-buffered wormhole routers with
one virtual channel, credit flow control, round-robin arbitration and
pluggable routing.  Each cycle injects offered traffic into the LOCAL
ports, routes head flits, moves at most one flit per output port when
the downstream buffer has a credit, and ejects flits at their
destination; a packet's latency is recorded when its tail ejects.
Data rates are measured over a window of :data:`RATE_WINDOW` cycles
(the registers PANR's hardware keeps per neighbour).  The engine runs
the routing sweep, the buffer-threshold ablation and the validation
suite's flit-level latency estimand; the long Fig. 6-8 sweeps use
:mod:`repro.noc.analytical`.

The engine advances ``S`` *independent* mesh simulations at once; a
scalar run is a one-lane batch.  The key observation is that a batch
of S independent ``n``-tile meshes is exactly one *disconnected* mesh
of ``S * n`` tiles: lane ``k`` owns the tile block ``[k*n, (k+1)*n)``,
the downstream-lookup tables are the block-diagonal tiling of the
single-mesh tables (``neighbor + k*n``), and no array operation ever
couples tiles of different blocks.  ``np.nonzero`` scans the flat
state lane-major, then tile-ascending, which within each lane is
exactly the router order of a one-mesh simulation.

The whole network state lives in preallocated numpy int arrays and
each cycle phase runs as a handful of vectorised operations:

* **input FIFOs** are circular buffers ``(tiles, ports, depth)`` of
  packet ids and flit indices, with per-port head-slot and occupancy
  arrays (credits are ``depth - occupancy``);
* **wormhole state** (assigned output, output owner, round-robin
  pointer) is one ``(tiles, ports)`` int array each;
* **injection** is planned before the first cycle: emission does not
  depend on network state, so the flows' accumulator recurrence runs
  up front, allocates every packet id in emission order and lays each
  source's packets out as one contiguous stream.  A cycle only advances
  the sources' write cursors by that cycle's emitted flits and pushes
  flits from the read cursors into the LOCAL ports;
* **route computation and switch traversal** run over the occupied
  input ports alone (``np.flatnonzero`` of the occupancy, once per
  cycle).  Head-flit decisions gather from one ``(n, n)`` route table
  shared by every lane, built in ``__init__`` from
  ``routing.forced_hops``.  For context-free policies (XY, west-first,
  odd-even - ``RoutingAlgorithm.context_free``) one
  ``routing.select_columns`` call over the free hops fills the rest of
  the table, so every decision is a gather.  For adaptive policies
  (PANR, ICON) hops where the policy has one direction come from the
  table, and a cycle's free decisions, across all lanes, are one
  ``routing.select_columns`` call over arrays gathered from the flat
  state (one ``weight_columns`` call and an arg-max);
* **arbitration** is one ``np.minimum.at`` over the valid requests,
  and the winning moves commit with vectorised scatter/gather.

The commit can be vectorised *exactly* because a sequential move loop
is order-independent: an input port wins at most one output per cycle
(so pops never collide), a downstream input port has exactly one
upstream ``(tile, output)`` (so pushes never collide and a credit
re-check can never fail), and a circular FIFO's append slot ``head +
occupancy`` is invariant under its own pop.  Routing decisions are
pure, so the order of one cycle's route decisions across lanes cannot
change any of them.  The test suite keeps an object-per-flit reference
simulator (the oracle the comments below refer to) and pins every lane
of every policy against it.

What batching buys (measured in ``python -m repro bench``,
``noc_engine_batch_speedup``): the per-cycle python overhead - a few
dozen numpy call dispatches - is paid *once per batch cycle* instead
of once per lane cycle, and the route-table build is paid once instead
of S times.  Adaptive lanes share one array selection per cycle;
forced hops, about three in four of the decisions on the routing
sweep, are table gathers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.chip.mesh import MeshGeometry
from repro.noc.routing.base import (
    FREE_HOP,
    FreePairs,
    RouterContexts,
    RoutingAlgorithm,
    reject_hop,
)
from repro.noc.topology import (
    Direction,
    MeshTopology,
    OPPOSITE_CODES,
    PORT_CODES,
    PORT_DIRECTIONS,
)

#: Input FIFO depth in flits.
BUFFER_DEPTH = 8

#: Cycles per data-rate measurement window.
RATE_WINDOW = 64

#: Port code of the LOCAL (injection/ejection) port.
_LOCAL = PORT_CODES[Direction.LOCAL]

_N_PORTS = len(PORT_DIRECTIONS)

# Arbitration packs (round-robin key, input port) into key * 8 + port so
# a single scatter-min selects both at once; 63 exceeds any real packed
# value (max 4 * 8 + 4).
_PACKED_NONE = 63


@dataclass(frozen=True)
class TrafficFlow:
    """Offered traffic: packets of ``packet_size`` flits from src to dst
    at ``rate`` flits/cycle."""

    src: int
    dst: int
    rate: float
    packet_size: int = 8

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate < 0:
            raise ValueError("rate must be finite and non-negative")
        if self.packet_size < 1:
            raise ValueError("packet_size must be at least 1")


@dataclass
class NocSimStats:
    """Aggregate results of a cycle-level simulation."""

    cycles: int
    packets_injected: int
    packets_delivered: int
    flits_delivered: int
    packet_latencies: List[int] = field(default_factory=list)
    #: Per-router forwarded-flit rate; ``None`` until a run fills it in.
    router_flits_per_cycle: Optional[np.ndarray] = None

    @property
    def avg_packet_latency(self) -> float:
        if not self.packet_latencies:
            return 0.0
        return float(np.mean(self.packet_latencies))

    @property
    def p95_packet_latency(self) -> float:
        if not self.packet_latencies:
            return 0.0
        return float(np.percentile(self.packet_latencies, 95))

    @property
    def throughput_flits_per_cycle(self) -> float:
        return self.flits_delivered / self.cycles if self.cycles else 0.0




class _Injection(NamedTuple):
    """One run's emissions, planned before its first cycle.

    Every source's packets form one stream of flits: source ``s`` owns
    the flit offsets ``[base[s], base[s + 1])``, and its packets sit
    there in emission order.
    """

    #: Cycle ``c``'s emissions are entries ``bounds[c]:bounds[c + 1]``.
    bounds: List[int]
    #: Flat source tile of each emission.
    src: np.ndarray
    #: Flits of each emission.
    flits: np.ndarray
    #: ``(tiles,)`` flit offset where each source's stream starts.
    base: np.ndarray
    #: Packet id of each stream packet.
    pkt: np.ndarray
    #: Flit offset of each stream packet's head.
    start: np.ndarray
    #: ``(lanes,)`` packets emitted per lane.
    injected: np.ndarray


class BatchedNocEngine:
    """S independent mesh simulations as one flat lock-step engine.

    Each lane is a full, isolated copy of the mesh: its own traffic
    flows, injection accumulators, FIFOs, wormhole state, PSN field,
    data-rate window and stats.  :meth:`run` advances every lane the
    same number of cycles and returns one :class:`NocSimStats` per
    lane, each byte-identical to a one-lane run of that lane's traffic
    and PSN field.  Input FIFOs hold :data:`BUFFER_DEPTH` flits and
    data rates are measured over :data:`RATE_WINDOW` cycles.

    Args:
        mesh: Tile mesh (shared by every lane).
        routing: Routing policy (context-free or adaptive).
        n_lanes: Number of independent simulations ``S``.
        psn_pct: Optional ``(n,)`` PSN sensor readings for PSN-aware
            policies, the same field for every lane (zeros if omitted).
    """

    #: Lookup tables shared by every lane and read-only once built.
    #: parmlint's shared-readonly rule flags any write outside __init__
    #: (see docs/lint.md).  Flat tile ids are ``lane * n + tile`` and flat
    #: port ids ``flat tile * 5 + port code``: _tile_lane/_tile_local
    #: decompose a flat tile, _down_flat/_nb_tile/_edge_ok are indexed
    #: by flat (tile, output) and _psn by flat tile.
    __shared_readonly__ = (
        "_down_flat",
        "_edge_ok",
        "_free_hops",
        "_nb_tile",
        "_packed_rr",
        "_psn",
        "_route_table",
        "_tile_lane",
        "_tile_local",
    )
    def __init__(
        self,
        mesh: MeshGeometry,
        routing: RoutingAlgorithm,
        n_lanes: int = 1,
        psn_pct: Optional[np.ndarray] = None,
    ):
        if n_lanes < 1:
            raise ValueError("n_lanes must be at least 1")
        self._topo = MeshTopology(mesh)
        self._routing = routing
        n = mesh.tile_count
        s = n_lanes
        flat = s * n
        self._n_local = n
        self._n_lanes = s
        self._n_tiles = flat
        psn = np.zeros(n) if psn_pct is None else np.array(psn_pct, float)
        if psn.shape != (n,):
            raise ValueError(f"psn_pct must have shape ({n},)")
        # Per flat tile, with one trailing 0.0 entry (also in _rates):
        # what an adaptive decision reads for a column that leads to no
        # neighbour, as the oracle's context dicts default to 0.0.
        self._psn = np.append(np.tile(psn, s), 0.0)
        #: Per-flat-tile incoming data rate of the last complete window.
        self._rates = np.zeros(flat + 1)
        self._cycle = 0
        self._next_packet_id = 0

        # --- structure-of-arrays network state -------------------------
        # Lane k owns rows [k*n, (k+1)*n).
        self._buf_pkt_id = np.full(
            (flat, _N_PORTS, BUFFER_DEPTH), -1, np.int64
        )
        self._buf_flit_idx = np.zeros(
            (flat, _N_PORTS, BUFFER_DEPTH), np.int64
        )
        self._head_slot = np.zeros((flat, _N_PORTS), np.int64)
        # Occupancy per flat port, plus one always-empty entry that
        # stands for the port behind LOCAL or beyond a mesh edge.
        self._occ = np.zeros(flat * _N_PORTS + 1, np.int64)
        self._assigned_out = np.full((flat, _N_PORTS), -1, np.int64)
        self._wormhole_owner = np.full((flat, _N_PORTS), -1, np.int64)
        self._rr_next = np.zeros((flat, _N_PORTS), np.int64)
        #: Flits forwarded per router (all ports), for activity stats.
        self._fwd_flits = np.zeros(flat, np.int64)

        # Block-diagonal downstream lookups, per flat (tile, output):
        # the single-mesh table with each lane's tile offset added, so
        # forwards stay inside their lane.  LOCAL and off-mesh outputs
        # lead to the always-empty port (_down_flat) and the trailing
        # 0.0 tile entry (_nb_tile); off-mesh routes are rejected at
        # route time via _edge_ok, so no forward ever leaves the mesh.
        neigh = self._topo.neighbor_codes()
        edge_ok_local = neigh >= 0
        lane_off = np.repeat(np.arange(s, dtype=np.int64) * n, n)
        self._edge_ok = np.tile(edge_ok_local, (s, 1)).ravel()
        leads = np.tile(edge_ok_local, (s, 1))
        leads[:, _LOCAL] = False
        down_tile = np.tile(neigh, (s, 1)) + lane_off[:, None]
        self._nb_tile = np.where(leads, down_tile, flat).ravel()
        self._down_flat = np.where(
            leads,
            down_tile * _N_PORTS + np.asarray(OPPOSITE_CODES, np.int64),
            flat * _N_PORTS,
        ).ravel()
        # Packed round-robin priority lookup: entry i * 5 + r holds the
        # packed arbitration value of input port i under rotation
        # pointer r, i.e. ((i - r) % 5) * 8 + i.
        ii = np.repeat(np.arange(_N_PORTS, dtype=np.int64), _N_PORTS)
        rr = np.tile(np.arange(_N_PORTS, dtype=np.int64), _N_PORTS)
        self._packed_rr = ((ii - rr) % _N_PORTS) * 8 + ii
        # Flat tile -> (lane, in-mesh tile) decompositions, for
        # per-lane stats splits and local route-table gathers.
        self._tile_lane = np.repeat(np.arange(s, dtype=np.int64), n)
        self._tile_local = np.tile(np.arange(n, dtype=np.int64), s)

        # Per-packet metadata, extended once per run.  Destinations are
        # stored as *in-mesh* tile ids (packets never change lanes, so
        # the lane is implied by the packet's position).
        self._pkt_dst = np.zeros(0, np.int64)
        self._pkt_size_flits = np.zeros(0, np.int64)
        self._pkt_inject_cycle = np.zeros(0, np.int64)

        # Route table: one (n, n) local table shared by every lane,
        # from the policy's forced hops.  A context-free policy chooses
        # its free hops here, once; an adaptive one chooses among the
        # two free_hops columns per cycle where the table holds FREE_HOP.
        table = routing.forced_hops(self._topo)
        self._free_hops = routing.free_hops(self._topo)
        if routing.context_free:
            cur, dst = np.nonzero(table == FREE_HOP)
            codes = self._free_hops[cur, dst]
            chosen = routing.select_columns(
                self._topo,
                FreePairs(
                    cur=cur,
                    dst=dst,
                    codes=codes,
                    tiles=neigh[cur[:, None], codes],
                    links=cur[:, None] * _N_PORTS + codes,
                    inputs=cur,
                ),
                None,
            )
            # Reject off-mesh routes at build time so the cycle loop
            # never needs an edge guard.
            bad = neigh[cur, chosen] < 0
            if bad.any():
                tile = int(cur[np.flatnonzero(bad)[0]])
                raise RuntimeError(f"route off mesh edge at tile {tile}")
            table = table.copy()
            table[cur, dst] = chosen
        self._route_table = table

    # ------------------------------------------------------------------

    def run(
        self,
        flows: Sequence[Sequence[TrafficFlow]],
        cycles: int,
    ) -> List[NocSimStats]:
        """Advance every lane ``cycles`` cycles; one stats per lane.

        ``flows[k]`` is lane ``k``'s offered traffic.  In-flight flits,
        wormhole state, data rates, packet ids and the cycle count carry
        over to the next call; the injection backlog and the open
        data-rate window's flit count are per call.
        """
        if cycles < 1:
            raise ValueError("cycles must be at least 1")
        if len(flows) != self._n_lanes:
            raise ValueError("flows must have one sequence per lane")
        n = self._n_local
        s = self._n_lanes
        flow_rate_l: List[float] = []
        flow_size_l: List[int] = []
        flow_src_l: List[int] = []  # flat (lane-offset) source tiles
        flow_dst_l: List[int] = []  # in-mesh destination tiles
        flow_lane_l: List[int] = []
        for lane, lane_flows in enumerate(flows):
            off = lane * n
            for f in lane_flows:
                self._topo.mesh._check_tile(f.src)
                self._topo.mesh._check_tile(f.dst)
                if f.src == f.dst:
                    raise ValueError(
                        "flows must cross the network (src != dst)"
                    )
                flow_rate_l.append(f.rate)
                flow_size_l.append(f.packet_size)
                flow_src_l.append(f.src + off)
                flow_dst_l.append(f.dst)
                flow_lane_l.append(lane)

        plan = self._plan_injection(
            np.array(flow_rate_l, float),
            np.array(flow_size_l, np.int64),
            np.array(flow_src_l, np.int64),
            np.array(flow_dst_l, np.int64),
            np.array(flow_lane_l, np.int64),
            cycles,
        )
        # Per-source read/write cursors into the planned streams: flits
        # between them are emitted but not yet buffered.  Functionally
        # the oracle's per-source deque + `pushed` partial-packet
        # counter.  Like the oracle's, the backlog is run-local: flits
        # still queued when the run ends are dropped.
        rd = plan.base.copy()
        wr = plan.base.copy()
        flits_del = np.zeros(s, np.int64)
        pk_del = np.zeros(s, np.int64)
        lat_lanes: List[np.ndarray] = []
        lat_vals: List[np.ndarray] = []
        depth = BUFFER_DEPTH
        flat = self._n_tiles
        window_in = np.zeros(flat + 1)
        occ = self._occ
        # Flat views: index = flat port id (buffers: * depth + slot).
        head = self._head_slot.reshape(-1)
        assigned = self._assigned_out.reshape(-1)
        owner = self._wormhole_owner.reshape(-1)
        rr_next = self._rr_next.reshape(-1)
        buf_pkt = self._buf_pkt_id.reshape(-1)
        buf_fidx = self._buf_flit_idx.reshape(-1)
        down = self._down_flat
        # Scatter-min grid over flat (tile, output), reset after use.
        best = np.full(flat * _N_PORTS, _PACKED_NONE, np.int64)
        bounds = plan.bounds

        for c in range(cycles):
            self._cycle += 1
            # --- injection ----------------------------------------------
            a, b = bounds[c], bounds[c + 1]
            if b > a:
                np.add.at(wr, plan.src[a:b], plan.flits[a:b])
            # Stream backlog flits into the LOCAL ports as space
            # permits, in strict per-source FIFO order (a packet may
            # straddle cycles).  One repeat/cumsum expansion plans every
            # push in the batch; one scatter commits them.
            act = (wr != rd).nonzero()[0]
            if len(act):
                port = act * _N_PORTS + _LOCAL
                occ_l = occ[port]
                cnt = np.minimum(depth - occ_l, wr[act] - rd[act])
                pushable = cnt > 0
                if not pushable.all():
                    act = act[pushable]
                    port = port[pushable]
                    occ_l = occ_l[pushable]
                    cnt = cnt[pushable]
                if len(act):
                    total = int(cnt.sum())
                    off = np.arange(total) - np.repeat(
                        np.cumsum(cnt) - cnt, cnt
                    )
                    pos = np.repeat(rd[act], cnt) + off
                    pk = plan.start.searchsorted(pos, "right") - 1
                    at = np.repeat(port, cnt) * depth + (
                        np.repeat(head[port] + occ_l, cnt) + off
                    ) % depth
                    buf_pkt[at] = plan.pkt[pk]
                    buf_fidx[at] = pos - plan.start[pk]
                    occ[port] += cnt
                    rd[act] += cnt

            # --- route computation over the occupied ports --------------
            ports = occ.nonzero()[0]
            if len(ports):
                slot = head.take(ports)
                at = ports * depth + slot
                head_pkt = buf_pkt.take(at)
                head_idx = buf_fidx.take(at)
                out_code = assigned.take(ports)
                tile = ports // _N_PORTS
                unrouted = (out_code < 0).nonzero()[0]
                if len(unrouted):
                    if head_idx.take(unrouted).any():
                        raise RuntimeError(
                            "body flit without wormhole route"
                        )
                    u_tile = tile.take(unrouted)
                    dsts = self._pkt_dst.take(head_pkt.take(unrouted))
                    # One (n, n) table serves every lane: row = the
                    # tile's in-mesh id, column = destination.
                    codes = self._route_table[
                        self._tile_local.take(u_tile), dsts
                    ]
                    free = (codes < 0).nonzero()[0]
                    if len(free):
                        codes[free] = self._route_adaptive(
                            u_tile.take(free),
                            ports.take(unrouted.take(free)),
                            dsts.take(free),
                        )
                    out_code[unrouted] = codes
                    assigned[ports.take(unrouted)] = codes

                # --- arbitration and switch traversal -------------------
                # Every occupied input port requests one output (its
                # wormhole assignment).  Wormhole gating: an owned
                # output only admits its owner; a free output only
                # admits head flits.  LOCAL always has a credit (its
                # "downstream" is the always-empty port).
                in_port = ports - tile * _N_PORTS
                out = tile * _N_PORTS + out_code
                own = owner.take(out)
                gate = np.where(own >= 0, own == in_port, head_idx == 0)
                valid = (
                    gate & (occ.take(down.take(out)) < depth)
                ).nonzero()[0]
                if len(valid):
                    # Each request scatter-minimises its *packed* (rr
                    # key, in port) value into its (tile, out) cell -
                    # the minimum of key * 8 + port selects the winning
                    # key and port together.  Keys (i - ptr) % 5 are
                    # distinct per input port, so exactly one request
                    # per requested output matches the minimum.
                    v_out = out.take(valid)
                    packed = self._packed_rr.take(
                        in_port.take(valid) * _N_PORTS + rr_next.take(v_out)
                    )
                    np.minimum.at(best, v_out, packed)
                    won = valid[packed == best.take(v_out)]
                    best.put(v_out, _PACKED_NONE)
                    # Winners come out in flat input-port order, hence
                    # flat-tile ascending.
                    mp = ports.take(won)
                    mt = tile.take(won)
                    mi = in_port.take(won)
                    mvs = out.take(won)
                    rr_next.put(mvs, (mi + 1) % _N_PORTS)
                    # Gather per-move data before mutating anything; an
                    # input port wins at most one output per cycle, so
                    # the pre-move head entries stay valid.
                    pkts = head_pkt.take(won)
                    fidx = head_idx.take(won)
                    is_tail = fidx == self._pkt_size_flits.take(pkts) - 1
                    # Pops (input ports are unique).
                    head.put(mp, (slot.take(won) + 1) % depth)
                    occ[mp] -= 1
                    self._fwd_flits += np.bincount(mt, minlength=flat)
                    # Wormhole bookkeeping: tails release the output,
                    # heads of multi-flit packets claim it.
                    assigned.put(mp[is_tail], -1)
                    owner.put(mvs[is_tail], -1)
                    claim = (fidx == 0) & ~is_tail
                    owner.put(mvs[claim], mi[claim])
                    # Ejections: one LOCAL output per tile, and tiles
                    # ascend lane-major, so each lane's latencies
                    # append in its own oracle order.
                    local = out_code.take(won) == _LOCAL
                    done = local & is_tail
                    if local.any():
                        flits_del += np.bincount(
                            self._tile_lane.take(mt[local]), minlength=s
                        )
                    if done.any():
                        done_lanes = self._tile_lane.take(mt[done])
                        pk_del += np.bincount(done_lanes, minlength=s)
                        lat_lanes.append(done_lanes)
                        lat_vals.append(
                            self._cycle
                            - self._pkt_inject_cycle.take(pkts[done])
                        )
                    # Forwards: push into the downstream FIFO.  Each
                    # downstream port has exactly one upstream (tile,
                    # output), so pushes never collide, and the append
                    # slot head+occupancy is invariant under the
                    # port's own pop this cycle.
                    fwd = ~local
                    ds = down.take(mvs[fwd])
                    at = ds * depth + (
                        head.take(ds) + occ.take(ds)
                    ) % depth
                    buf_pkt.put(at, pkts[fwd])
                    buf_fidx.put(at, fidx[fwd])
                    occ[ds] += 1
                    window_in += np.bincount(
                        ds // _N_PORTS, minlength=flat + 1
                    )

            # --- data-rate measurement window --------------------------
            if self._cycle % RATE_WINDOW == 0:
                self._rates = window_in / RATE_WINDOW
                window_in = np.zeros(flat + 1)

        # --- per-lane stats splits ------------------------------------
        if lat_lanes:
            lanes_all = np.concatenate(lat_lanes)
            lats_all = np.concatenate(lat_vals)
        else:
            lanes_all = np.zeros(0, np.int64)
            lats_all = np.zeros(0, np.int64)
        results: List[NocSimStats] = []
        for lane in range(s):
            stats = NocSimStats(
                cycles=cycles,
                packets_injected=int(plan.injected[lane]),
                packets_delivered=int(pk_del[lane]),
                flits_delivered=int(flits_del[lane]),
            )
            # Boolean masking is order-preserving, so this is the
            # lane's chronological (oracle-order) latency list.
            stats.packet_latencies.extend(
                lats_all[lanes_all == lane].tolist()
            )
            stats.router_flits_per_cycle = (
                self._fwd_flits[lane * n:(lane + 1) * n] / self._cycle
            )
            results.append(stats)
        return results

    # ------------------------------------------------------------------

    def _plan_injection(
        self,
        flow_rate: np.ndarray,
        flow_size: np.ndarray,
        flow_src: np.ndarray,
        flow_dst: np.ndarray,
        flow_lane: np.ndarray,
        cycles: int,
    ) -> _Injection:
        """Emit every packet of the next ``cycles`` cycles at once.

        Allocates the packet ids in the oracle's emission order (by
        cycle, then flow, a flow's packets of one cycle in a row) and
        records their metadata.
        """
        # One vector add per cycle covers every lane's accumulators.
        # The oracle emits packets per triggered flow with a
        # repeated-subtraction loop (`while acc >= size: acc -= size`);
        # every one of those subtractions is *exact* in float64 (the
        # subtrahend is a small integer and the result's ulp can only
        # shrink), so the loop's packet count is the true floor(acc /
        # size) and its final accumulator is acc - count * size.
        # Computing both directly - with a +-1 correction for the
        # division's last-ulp rounding - reproduces the oracle's
        # emission bit-for-bit without the python loop.
        acc = np.zeros(len(flow_rate))
        ev_cycles: List[int] = []
        ev_flows: List[np.ndarray] = [np.zeros(0, np.int64)]
        ev_counts: List[np.ndarray] = [np.zeros(0, np.int64)]
        for c in range(cycles if len(flow_rate) else 0):
            np.add(acc, flow_rate, out=acc)
            trig = (acc >= flow_size).nonzero()[0]
            if len(trig):
                tr_size = flow_size[trig]
                tr_acc = acc[trig]
                k = np.floor_divide(tr_acc, tr_size).astype(np.int64)
                rem = tr_acc - k * tr_size
                under = rem < 0
                if under.any():
                    k[under] -= 1
                    rem[under] += tr_size[under]
                over = rem >= tr_size
                if over.any():
                    k[over] += 1
                    rem[over] -= tr_size[over]
                acc[trig] = rem
                ev_cycles.extend([c] * len(trig))
                ev_flows.append(trig)
                ev_counts.append(k)
        ev_flow = np.concatenate(ev_flows)
        ev_k = np.concatenate(ev_counts)
        ev_cycle = np.array(ev_cycles, np.int64)
        p_flow = np.repeat(ev_flow, ev_k)
        p_size = flow_size[p_flow]
        p_src = flow_src[p_flow]
        first = self._next_packet_id
        self._next_packet_id += len(p_flow)
        self._pkt_dst = np.concatenate([self._pkt_dst, flow_dst[p_flow]])
        self._pkt_size_flits = np.concatenate([self._pkt_size_flits, p_size])
        self._pkt_inject_cycle = np.concatenate(
            [
                self._pkt_inject_cycle,
                self._cycle + 1 + np.repeat(ev_cycle, ev_k),
            ]
        )
        # Group the packets by source, keeping emission order inside.
        order = np.argsort(p_src, kind="stable")
        sizes = p_size[order]
        start = np.cumsum(sizes) - sizes
        first_pkt = np.searchsorted(p_src[order], np.arange(self._n_tiles))
        return _Injection(
            bounds=np.searchsorted(ev_cycle, np.arange(cycles + 1)).tolist(),
            src=flow_src[ev_flow],
            flits=ev_k * flow_size[ev_flow],
            base=np.append(start, sizes.sum())[first_pkt],
            pkt=first + order,
            start=start,
            injected=np.bincount(
                flow_lane[p_flow], minlength=self._n_lanes
            ),
        )

    def _route_adaptive(
        self, tiles: np.ndarray, ports: np.ndarray, dsts: np.ndarray
    ) -> np.ndarray:
        """One ``routing.select_columns`` call over a cycle's free
        head-flit decisions, all lanes at once.

        ``tiles`` are flat tiles, ``ports`` the deciding flat input
        ports and ``dsts`` in-mesh destinations (never the tile itself:
        ejection is a forced hop).  The context is the oracle's: the
        deciding input port's occupancy, each column's downstream
        input-port occupancy, the neighbour PSN (one field for every
        lane) and the lane's neighbour data rates, 0.0 each for a column
        that leads to no neighbour.
        """
        depth = BUFFER_DEPTH
        cur = self._tile_local.take(tiles)
        codes = self._free_hops[cur, dsts]
        links = tiles[:, None] * _N_PORTS + codes
        rows = np.arange(len(tiles))
        pairs = FreePairs(
            cur=cur,
            dst=dsts,
            codes=codes,
            tiles=self._nb_tile.take(links),
            links=np.arange(2 * len(rows)).reshape(-1, 2),
            inputs=rows,
        )
        contexts = RouterContexts(
            occupancy=self._occ.take(ports) / depth,
            data_rate=self._rates,
            psn_pct=self._psn,
            psn_valid=None,
            out_rho=self._occ.take(self._down_flat.take(links)).ravel()
            / depth,
        )
        chosen = self._routing.select_columns(self._topo, pairs, contexts)
        named = (chosen == codes[:, 0]) | (chosen == codes[:, 1])
        if not named.all():
            row = np.flatnonzero(~named)[0]
            reject_hop(
                self._routing,
                int(cur[row]),
                int(dsts[row]),
                PORT_DIRECTIONS[chosen[row]],
            )
        bad = ~self._edge_ok.take(tiles * _N_PORTS + chosen)
        if bad.any():
            tile = int(cur[np.flatnonzero(bad)[0]])
            raise RuntimeError(f"route off mesh edge at tile {tile}")
        return chosen
