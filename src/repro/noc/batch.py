"""Flit-level cycle engine for the mesh NoC: S meshes in lock-step.

:class:`BatchedNocEngine` models input-buffered wormhole routers with
one virtual channel, credit flow control, round-robin arbitration and
pluggable routing.  Each cycle injects offered traffic into the LOCAL
ports, routes head flits, moves at most one flit per output port when
the downstream buffer has a credit, and ejects flits at their
destination; a packet's latency is recorded when its tail ejects.
Data rates are measured over a window of :data:`RATE_WINDOW` cycles
(the registers PANR's hardware keeps per neighbour).  The engine runs
the routing sweep, the fault NoC sweep and the buffer-threshold
ablation; the long Fig. 6-8 sweeps use :mod:`repro.noc.analytical`.

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
* **injection** accumulates fractional flits for all traffic flows of
  all lanes with one vector add per cycle;
* **route computation** gathers every head-flit decision from one
  ``(n, n)`` route table shared by every lane.  For context-free
  policies (XY, west-first, odd-even -
  ``RoutingAlgorithm.context_free``) ``routing.select`` fills each
  destination column the first time a run needs it.  For adaptive
  policies (PANR, ICON) the table is ``routing.forced_hops``: hops
  where west-first leaves one direction come from it, and only the
  free decisions call ``routing.select``, with a
  :class:`RoutingContext` assembled from the flat arrays and cached
  per-tile neighbour PSN / data-rate dicts;
* **switch traversal** - arbitration and the credit check run over at
  most five request edges per tile, and the winning moves commit with
  vectorised scatter/gather.

The commit can be vectorised *exactly* because a sequential move loop
is order-independent: an input port wins at most one output per cycle
(so pops never collide), a downstream input port has exactly one
upstream ``(tile, output)`` (so pushes never collide and a credit
re-check can never fail), and a circular FIFO's append slot ``head +
occupancy`` is invariant under its own pop.  ``routing.select`` is
pure, so the order of one cycle's route decisions across lanes cannot
change any of them.  The test suite keeps an object-per-flit reference
simulator (the oracle the comments below refer to) and pins every lane
of every policy against it.

What batching buys (measured in ``python -m repro bench``,
``noc_engine_batch_speedup``): the per-cycle python overhead - ~20
numpy call dispatches plus the injection bookkeeping - is paid *once
per batch cycle* instead of once per lane cycle, and the route-table
build is paid once instead of S times.  Adaptive lanes keep one
``select`` call per free decision; forced hops, about three in four
of them on the routing sweep, are table gathers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chip.mesh import MeshGeometry
from repro.noc.routing.base import (
    FREE_HOP,
    RoutingAlgorithm,
    RoutingContext,
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

#: Arbitration key for non-candidates; larger than any round-robin
#: distance ``(port - pointer) % 5``.
_NO_CANDIDATE = _N_PORTS + 1
# Arbitration packs (round-robin key, input port) into key * 8 + port so
# a single scatter-min selects both at once; 63 exceeds any real packed
# value (max 4 * 8 + 4) and its low bits are harmless if ever masked.
_PACKED_NONE = 63

#: Initial capacity of the per-packet metadata arrays.
_MIN_PACKET_CAPACITY = 1024


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

    #: Topology-derived lookup tables, shared by every lane and
    #: read-only once built.  parmlint's shared-readonly rule flags any
    #: write outside __init__ and the lazy route-table builder declared
    #: below (see docs/lint.md).
    #: _tile_lane/_tile_local are the flat-index decompositions (flat
    #: tile -> lane, flat tile -> in-mesh tile).
    __shared_readonly__ = (
        "_down_tile",
        "_down_port",
        "_down_flat",
        "_edge_ok",
        "_flat_slot_base",
        "_is_local_row",
        "_packed_rr",
        "_route_table",
        "_table_built",
        "_tile_lane",
        "_tile_local",
    )
    #: For context-free policies, _route_table/_table_built columns are
    #: filled lazily, one destination at a time, by this builder; for
    #: adaptive ones _route_table is the policy's forced-hop table,
    #: built once in __init__.
    __shared_readonly_init__ = ("_build_route_columns",)

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
        if psn_pct is None:
            self._psn = np.zeros(n)
        else:
            self._psn = np.array(psn_pct, float)
            if self._psn.shape != (n,):
                raise ValueError(f"psn_pct must have shape ({n},)")
        #: Per-flat-tile incoming data rate of the last complete window.
        self._rates = np.zeros(flat)
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
        self._occ_flits = np.zeros((flat, _N_PORTS), np.int64)
        self._assigned_out = np.full((flat, _N_PORTS), -1, np.int64)
        self._wormhole_owner = np.full((flat, _N_PORTS), -1, np.int64)
        self._rr_next = np.zeros((flat, _N_PORTS), np.int64)
        #: Flits forwarded per router (all ports), for activity stats.
        self._fwd_flits = np.zeros(flat, np.int64)

        # Block-diagonal downstream lookup: the single-mesh table with
        # each lane's tile offset added, so forwards stay inside their
        # lane.  Off-mesh entries are clamped to the lane's tile 0 and
        # rejected at route time via _edge_ok, so no gather ever
        # couples lanes or leaves the mesh.
        neigh = self._topo.neighbor_codes()
        edge_ok_local = neigh >= 0
        lane_off = np.repeat(np.arange(s, dtype=np.int64) * n, n)
        self._edge_ok = np.tile(edge_ok_local, (s, 1))
        self._down_tile = (
            np.tile(np.where(edge_ok_local, neigh, 0), (s, 1))
            + lane_off[:, None]
        )
        self._down_port = np.broadcast_to(
            np.asarray(OPPOSITE_CODES, np.int64), (flat, _N_PORTS)
        ).copy()
        self._is_local_row = np.tile(
            np.arange(_N_PORTS) == _LOCAL, flat
        )
        self._down_flat = (
            self._down_tile * _N_PORTS + self._down_port
        ).ravel()
        # Packed round-robin priority lookup: entry i * 5 + r holds the
        # packed arbitration value of input port i under rotation
        # pointer r, i.e. ((i - r) % 5) * 8 + i.
        ii = np.repeat(np.arange(_N_PORTS, dtype=np.int64), _N_PORTS)
        rr = np.tile(np.arange(_N_PORTS, dtype=np.int64), _N_PORTS)
        self._packed_rr = ((ii - rr) % _N_PORTS) * 8 + ii
        self._flat_slot_base = np.arange(
            flat * _N_PORTS, dtype=np.int64
        ) * BUFFER_DEPTH
        # Flat tile -> (lane, in-mesh tile) decompositions, for
        # per-lane stats splits and local route-table gathers.
        self._tile_lane = np.repeat(np.arange(s, dtype=np.int64), n)
        self._tile_local = np.tile(np.arange(n, dtype=np.int64), s)

        # Per-packet metadata, grown by doubling.  Destinations are
        # stored as *in-mesh* tile ids (packets never change lanes, so
        # the lane is implied by the packet's position).
        self._pkt_dst = np.zeros(_MIN_PACKET_CAPACITY, np.int64)
        self._pkt_size_flits = np.zeros(_MIN_PACKET_CAPACITY, np.int64)
        self._pkt_inject_cycle = np.zeros(_MIN_PACKET_CAPACITY, np.int64)

        # Route table: one (n, n) local table shared by every lane.
        # Context-free policies fill its columns lazily with select;
        # adaptive ones start from the policy's forced-hop table and
        # call select where it holds FREE_HOP.
        self._table_built: Optional[np.ndarray] = None
        if routing.context_free:
            self._route_table = np.full((n, n), FREE_HOP, np.int8)
            self._table_built = np.zeros(n, bool)
        else:
            self._route_table = routing.forced_hops(self._topo)
        # Adaptive-policy context caches: per in-mesh tile, its static
        # adjacency (Direction, neighbour tile, output port code), and
        # per flat tile the neighbour PSN / data-rate dicts, built on
        # first use and dropped when their source changes.
        self._adjacency: List[Tuple[Tuple[Direction, int, int], ...]] = [
            tuple(
                (d, self._topo.neighbor(t, d), PORT_CODES[d])
                for d in self._topo.out_directions(t)
            )
            for t in range(n)
        ]
        self._psn_dicts: List[Optional[Dict[Direction, float]]] = [None] * n
        self._rate_dicts: List[Optional[Dict[Direction, float]]] = (
            [None] * flat
        )
        self._empty_ctx = RoutingContext()

    # ------------------------------------------------------------------

    def run(
        self,
        flows: Sequence[Sequence[TrafficFlow]],
        cycles: int,
    ) -> List[NocSimStats]:
        """Advance every lane ``cycles`` cycles; one stats per lane.

        ``flows[k]`` is lane ``k``'s offered traffic.  In-flight flits,
        wormhole state, data rates and the cycle count carry over to
        the next call; the injection backlog and the open data-rate
        window's flit count are per call.
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

        n_flows = len(flow_src_l)
        acc = np.zeros(n_flows)
        flow_rate = np.array(flow_rate_l, float)
        flow_size = np.array(flow_size_l, np.int64)
        flow_src = np.array(flow_src_l, np.int64)
        flow_dst = np.array(flow_dst_l, np.int64)
        flow_lane = np.array(flow_lane_l, np.int64)
        if self._table_built is not None and flow_dst_l:
            # Pre-build the route-table columns this run can need, so
            # the per-cycle fast path is a single gather.
            self._build_route_columns(np.unique(flow_dst))
        # Per-source backlog of injected-but-not-yet-buffered flits, as
        # ring buffers over flat sources: (pkt id, flit index) per
        # queued flit, with absolute read/write cursors (slot =
        # cursor % capacity).  Functionally the oracle's
        # per-source deque + `pushed` partial-packet counter, but
        # drained with repeat/cumsum index arithmetic instead of a
        # per-flit python loop.  Like the oracle's, the backlog
        # is run-local: flits still queued when the run ends are
        # dropped.
        bl_cap = 64
        bl_pkt = np.zeros((self._n_tiles, bl_cap), np.int64)
        bl_fidx = np.zeros((self._n_tiles, bl_cap), np.int64)
        bl_rd = np.zeros(self._n_tiles, np.int64)
        bl_wr = np.zeros(self._n_tiles, np.int64)
        injected = np.zeros(s, np.int64)
        flits_del = np.zeros(s, np.int64)
        pk_del = np.zeros(s, np.int64)
        lat_lanes: List[np.ndarray] = []
        lat_vals: List[np.ndarray] = []
        window_in = np.zeros(self._n_tiles)
        depth = BUFFER_DEPTH
        flat = self._n_tiles
        occ = self._occ_flits
        head_slot = self._head_slot
        assigned = self._assigned_out
        owner = self._wormhole_owner
        rows5 = np.arange(flat) * _N_PORTS
        in_col = np.arange(_N_PORTS, dtype=np.int64)[:, None]
        in_col5 = in_col * _N_PORTS

        for _ in range(cycles):
            self._cycle += 1
            # --- injection (vectorised flow accumulators) --------------
            # One vector add covers every lane's accumulators.  The
            # oracle emits packets per triggered flow with a
            # repeated-subtraction loop (`while acc >= size: acc -=
            # size`); every one of those subtractions is *exact* in
            # float64 (the subtrahend is a small integer and the
            # result's ulp can only shrink), so the loop's packet count
            # is the true floor(acc / size) and its final accumulator
            # is acc - count * size.  Computing both directly - with a
            # +-1 correction for the division's last-ulp rounding -
            # reproduces the oracle's emission bit-for-bit without the
            # python loop.
            if n_flows:
                np.add(acc, flow_rate, out=acc)
                trig = np.nonzero(acc >= flow_size)[0]
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
                    np.add.at(injected, flow_lane[trig], k)
                    # Packet ids are allocated in ascending flow order
                    # (np.nonzero order == the oracle's flow order),
                    # then expanded to one backlog entry per flit.
                    pkt_src = np.repeat(flow_src[trig], k)
                    pkt_sizes = np.repeat(tr_size, k)
                    pids = self._new_packets(
                        np.repeat(flow_dst[trig], k), pkt_sizes
                    )
                    n_new = int(pkt_sizes.sum())
                    fstart = np.cumsum(pkt_sizes) - pkt_sizes
                    fidx_new = np.arange(n_new) - np.repeat(
                        fstart, pkt_sizes
                    )
                    f_src = np.repeat(pkt_src, pkt_sizes)
                    f_pkt = np.repeat(pids, pkt_sizes)
                    # Ring-append in emission order: each flit lands at
                    # its source's write cursor plus the number of
                    # earlier same-source flits this cycle (stable sort
                    # keeps the in-cycle order; sources are usually
                    # unique per cycle, making this a no-op shuffle).
                    order = np.argsort(f_src, kind="stable")
                    inv = np.empty_like(order)
                    inv[order] = np.arange(n_new)
                    sorted_src = f_src[order]
                    grp_start = np.empty(n_new, bool)
                    grp_start[0] = True
                    np.not_equal(
                        sorted_src[1:], sorted_src[:-1],
                        out=grp_start[1:],
                    )
                    pos_sorted = np.arange(n_new)
                    cumoff = (
                        pos_sorted
                        - np.maximum.accumulate(
                            np.where(grp_start, pos_sorted, 0)
                        )
                    )[inv]
                    counts = np.bincount(f_src, minlength=flat)
                    needed = int((bl_wr + counts - bl_rd).max())
                    while needed > bl_cap:
                        bl_cap, bl_pkt, bl_fidx = self._grow_backlog(
                            bl_cap, bl_pkt, bl_fidx, bl_rd, bl_wr
                        )
                    wpos = (bl_wr[f_src] + cumoff) % bl_cap
                    bl_pkt[f_src, wpos] = f_pkt
                    bl_fidx[f_src, wpos] = fidx_new
                    bl_wr += counts
            # Stream backlog flits into the LOCAL ports as space
            # permits, in strict per-source FIFO order (a packet may
            # straddle cycles; the ring's flit indices carry the
            # partial-packet position the oracle tracks in
            # `pushed`).  One repeat/cumsum expansion plans every push
            # in the batch; one scatter commits them.
            pend = bl_wr - bl_rd
            if pend.any():
                act = np.nonzero(pend)[0]
                occ_l = occ[act, _LOCAL]
                cnt = np.minimum(depth - occ_l, pend[act])
                pushable = cnt > 0
                if pushable.any():
                    act = act[pushable]
                    cnt = cnt[pushable]
                    occ_l = occ_l[pushable]
                    total = int(cnt.sum())
                    rep = np.repeat(act, cnt)
                    off = np.arange(total) - np.repeat(
                        np.cumsum(cnt) - cnt, cnt
                    )
                    rpos = (bl_rd[rep] + off) % bl_cap
                    slot = (
                        np.repeat(head_slot[act, _LOCAL] + occ_l, cnt)
                        + off
                    ) % depth
                    self._buf_pkt_id[rep, _LOCAL, slot] = bl_pkt[
                        rep, rpos
                    ]
                    self._buf_flit_idx[rep, _LOCAL, slot] = bl_fidx[
                        rep, rpos
                    ]
                    occ[act, _LOCAL] += cnt
                    bl_rd[act] += cnt

            # --- route computation + switch traversal ------------------
            nonempty = occ > 0
            if nonempty.any():
                flat_heads = self._flat_slot_base + head_slot.ravel()
                head_pkt = self._buf_pkt_id.take(flat_heads).reshape(
                    flat, _N_PORTS
                )
                head_idx = self._buf_flit_idx.take(flat_heads).reshape(
                    flat, _N_PORTS
                )
                need = nonempty & (assigned < 0)
                t_idx, p_idx = np.nonzero(need)
                if len(t_idx):
                    if (head_idx[t_idx, p_idx] != 0).any():
                        raise RuntimeError(
                            "body flit without wormhole route"
                        )
                    dsts = self._pkt_dst[head_pkt[t_idx, p_idx]]
                    # One (n, n) table serves every lane: row = the
                    # tile's in-mesh id, column = destination.
                    codes = self._route_table[
                        self._tile_local.take(t_idx), dsts
                    ]
                    free = np.nonzero(codes < 0)[0]
                    if len(free):
                        codes[free] = self._route_adaptive(
                            t_idx[free], p_idx[free], dsts[free]
                        )
                    assigned[t_idx, p_idx] = codes

                # Arbitration without the (tiles, out, in) tensor: an
                # input port requests exactly one output (its wormhole
                # assignment), so each tile has at most 5 request
                # edges.  The per-edge gate/key computations run as
                # single (ports, tiles) transposed ops, then each in-
                # port scatter-minimises a *packed* (rr key, in port)
                # value into a flat (tile, out) grid - the minimum of
                # key * 8 + port selects the winning key and port
                # together.  Keys (i - ptr) % 5 are distinct per input
                # port, so there are never ties, and min reproduces
                # argmin's first-index tie-break regardless.
                down_free = occ.take(self._down_flat) < depth
                can_move = down_free | self._is_local_row
                head_ready = nonempty & (head_idx == 0)
                # Flat (tile, out) index of each (in-port, tile)
                # request; unrouted ports are clamped to out 0 and
                # masked by valid.
                gidx = rows5[None, :] + np.maximum(assigned.T, 0)
                own = owner.take(gidx)
                # Wormhole gating: an owned output only admits its
                # owner; a free output only admits head flits.
                gate = np.where(own >= 0, own == in_col, head_ready.T)
                valid = nonempty.T & gate & can_move.take(gidx)
                packed = np.where(
                    valid,
                    self._packed_rr.take(
                        in_col5 + self._rr_next.take(gidx)
                    ),
                    _PACKED_NONE,
                )
                best = np.full(flat * _N_PORTS, _PACKED_NONE, np.int64)
                for i in range(_N_PORTS):
                    gi = gidx[i]
                    best.put(gi, np.minimum(best.take(gi), packed[i]))
                mvs = np.nonzero(best < _PACKED_NONE)[0]
                if len(mvs):
                    # mvs is the winners' flat (tile, out) index, in
                    # flat-tile-ascending order.
                    mt = mvs // _N_PORTS
                    mo = mvs % _N_PORTS
                    mi = best.take(mvs) & 7
                    idx_mv = mt * _N_PORTS + mi
                    self._rr_next.put(mvs, (mi + 1) % _N_PORTS)
                    # Gather per-move data before mutating anything; an
                    # input port wins at most one output per cycle, so
                    # the pre-move head entries stay valid.
                    slots = head_slot.take(idx_mv)
                    pkts = head_pkt.take(idx_mv)
                    fidx = head_idx.take(idx_mv)
                    is_tail = fidx == self._pkt_size_flits[pkts] - 1
                    # Pops ((tile, in port) pairs are unique).
                    head_slot.put(idx_mv, (slots + 1) % depth)
                    occ.put(idx_mv, occ.take(idx_mv) - 1)
                    self._fwd_flits += np.bincount(mt, minlength=flat)
                    # Wormhole bookkeeping: tails release the output,
                    # heads of multi-flit packets claim it.
                    assigned.put(idx_mv[is_tail], -1)
                    owner.put(mvs[is_tail], -1)
                    claim = (fidx == 0) & ~is_tail
                    owner.put(mvs[claim], mi[claim])
                    # Ejections: winners come out flat-tile ascending =
                    # lane-major, so each lane's latencies append in
                    # its own oracle order.
                    local = mo == _LOCAL
                    done = local & is_tail
                    if local.any():
                        flits_del += np.bincount(
                            self._tile_lane[mt[local]], minlength=s
                        )
                    if done.any():
                        done_lanes = self._tile_lane[mt[done]]
                        pk_del += np.bincount(done_lanes, minlength=s)
                        lat_lanes.append(done_lanes)
                        lat_vals.append(
                            self._cycle
                            - self._pkt_inject_cycle[pkts[done]]
                        )
                    # Forwards: push into the downstream FIFO.  Each
                    # downstream port has exactly one upstream (tile,
                    # output), so pushes never collide, and the append
                    # slot head+occupancy is invariant under the
                    # port's own pop this cycle.
                    fwd = ~local
                    ds_idx = self._down_flat.take(mvs[fwd])
                    push = (
                        head_slot.take(ds_idx) + occ.take(ds_idx)
                    ) % depth
                    buf_idx = ds_idx * depth + push
                    self._buf_pkt_id.put(buf_idx, pkts[fwd])
                    self._buf_flit_idx.put(buf_idx, fidx[fwd])
                    occ.put(ds_idx, occ.take(ds_idx) + 1)
                    window_in += np.bincount(
                        ds_idx // _N_PORTS, minlength=flat
                    )

            # --- data-rate measurement window --------------------------
            if self._cycle % RATE_WINDOW == 0:
                self._rates = window_in / RATE_WINDOW
                window_in = np.zeros(flat)
                self._rate_dicts = [None] * flat

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
                packets_injected=int(injected[lane]),
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

    def _new_packets(
        self, dsts: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Allocate packet ids for a whole emission burst at once."""
        start = self._next_packet_id
        end = start + len(dsts)
        while end > len(self._pkt_dst):
            grow = len(self._pkt_dst)
            self._pkt_dst = np.concatenate(
                [self._pkt_dst, np.zeros(grow, np.int64)]
            )
            self._pkt_size_flits = np.concatenate(
                [self._pkt_size_flits, np.zeros(grow, np.int64)]
            )
            self._pkt_inject_cycle = np.concatenate(
                [self._pkt_inject_cycle, np.zeros(grow, np.int64)]
            )
        self._pkt_dst[start:end] = dsts
        self._pkt_size_flits[start:end] = sizes
        self._pkt_inject_cycle[start:end] = self._cycle
        self._next_packet_id = end
        return np.arange(start, end, dtype=np.int64)

    @staticmethod
    def _grow_backlog(
        cap: int,
        bl_pkt: np.ndarray,
        bl_fidx: np.ndarray,
        bl_rd: np.ndarray,
        bl_wr: np.ndarray,
    ) -> Tuple[int, np.ndarray, np.ndarray]:
        """Double the backlog rings, re-slotting pending flits.

        Cursors are absolute, so only the modulus changes: every
        pending entry moves from ``pos % cap`` to ``pos % (2 * cap)``.
        """
        new_cap = cap * 2
        new_pkt = np.zeros((len(bl_rd), new_cap), np.int64)
        new_fidx = np.zeros((len(bl_rd), new_cap), np.int64)
        pend = bl_wr - bl_rd
        act = np.nonzero(pend)[0]
        if len(act):
            total = int(pend[act].sum())
            rep = np.repeat(act, pend[act])
            off = np.arange(total) - np.repeat(
                np.cumsum(pend[act]) - pend[act], pend[act]
            )
            pos = bl_rd[rep] + off
            new_pkt[rep, pos % new_cap] = bl_pkt[rep, pos % cap]
            new_fidx[rep, pos % new_cap] = bl_fidx[rep, pos % cap]
        return new_cap, new_pkt, new_fidx

    def _build_route_columns(self, dsts: np.ndarray) -> None:
        """Fill route-table columns for the given in-mesh destinations."""
        n = self._n_local
        rows = np.arange(n)
        edge_ok_local = self._edge_ok[:n]
        for dst in dsts.tolist():
            if self._table_built[dst]:
                continue
            col = np.array(
                [
                    PORT_CODES[
                        self._routing.select(
                            self._topo, cur, dst, self._empty_ctx
                        )
                    ]
                    for cur in range(n)
                ],
                np.int8,
            )
            # Reject off-mesh routes at build time so the cycle loop
            # never needs an edge guard.
            bad = ~edge_ok_local[rows, col]
            if bad.any():
                tile = int(np.nonzero(bad)[0][0])
                raise RuntimeError(f"route off mesh edge at tile {tile}")
            self._route_table[:, dst] = col
            self._table_built[dst] = True

    def _route_adaptive(
        self, t_idx: np.ndarray, p_idx: np.ndarray, dsts: np.ndarray
    ) -> np.ndarray:
        """One ``routing.select`` per free head-flit decision, all lanes.

        ``t_idx`` are flat tiles, ``dsts`` in-mesh destinations (never
        the tile itself: ejection is a forced hop).  The context is the
        oracle's: the deciding input port's occupancy, each output's
        downstream input-port occupancy, the neighbour PSN (one field
        for every lane) and the lane's neighbour data rates.
        """
        depth = BUFFER_DEPTH
        occ = self._occ_flits
        local = self._tile_local.take(t_idx).tolist()
        own_occ = occ[t_idx, p_idx].tolist()
        # Downstream input-port occupancy of every output of each
        # deciding tile (off-mesh columns are never read).
        down_occ = occ.take(
            self._down_flat.reshape(self._n_tiles, _N_PORTS)[t_idx]
        ).tolist()
        out = np.empty(len(t_idx), np.int64)
        decisions = zip(t_idx.tolist(), local, dsts.tolist())
        for k, (tile, cur, dst) in enumerate(decisions):
            adj = self._adjacency[cur]
            psn = self._psn_dicts[cur]
            if psn is None:
                psn = self._psn_dicts[cur] = {
                    d: float(self._psn[nb]) for d, nb, _ in adj
                }
            rates = self._rate_dicts[tile]
            if rates is None:
                base = tile - cur
                rates = self._rate_dicts[tile] = {
                    d: float(self._rates[base + nb]) for d, nb, _ in adj
                }
            ctx = RoutingContext(
                buffer_occupancy=own_occ[k] / depth,
                neighbor_data_rate=rates,
                neighbor_psn_pct=psn,
                out_link_rho={
                    d: down_occ[k][code] / depth for d, _, code in adj
                },
            )
            code = PORT_CODES[self._routing.select(self._topo, cur, dst, ctx)]
            if not self._edge_ok[tile, code]:
                raise RuntimeError(f"route off mesh edge at tile {cur}")
            out[k] = code
        return out
