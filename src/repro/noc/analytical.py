"""Flow-based analytical NoC model for runtime simulations.

Cycle-accurate simulation of seconds of NoC traffic is far too slow for
the Fig. 6-8 sweeps, so the runtime uses this model: every APG edge of a
mapped application becomes a *flow* (source tile, destination tile, flit
rate), flows are propagated through the mesh splitting fractionally at
each router according to the routing policy's weights, and per-link
utilisation / per-router activity / expected latency fall out.

Adaptive policies (PANR, ICON) react to congestion and PSN, which in turn
depend on the routing - so the model iterates to a fixed point: routing
weights are computed against the previous iteration's link loads, router
activities and PSN sensor values.  Context-free policies (XY, west-first,
odd-even) would route identically on every iteration, so they propagate
once.

Latency uses an M/D/1-style queueing term per link: a link with
utilisation ``rho`` delays a flit ``rho / (2 (1 - rho))`` service slots on
average, on top of the router pipeline latency.  Utilisation is clamped
just below 1; a clamped link marks the report as saturated.

The same :class:`~repro.noc.routing.base.RoutingAlgorithm` weights drive
the flit-level engine (:mod:`repro.noc.batch`), so the two models express
one policy; ``tests/noc/test_cross_validation.py`` checks their rank
agreement.  Hops where the policy has one permissible direction come
from its forced-hop table, without asking the policy.

The model works on arrays.  Each (source, destination) pair has a
*plan*: the minimal DAG that ``permissible`` allows, node by node in
distance levels, each node with at most two exit *columns*.  One
propagation pushes every flow through its plan a level at a time; the
policy weighs all free (router, destination) pairs the plans reach in
one :meth:`~repro.noc.routing.base.RoutingAlgorithm.weight_columns`
call.  The results are bit-identical to walking each flow's DAG as
dicts (``tests/noc/analytical_oracle.py``), for these reasons:

* a node has at most two parents and two exits, and a sum of at most
  two terms is the same in either order;
* the per-tile and per-link totals add the flows in input order
  (``np.bincount`` adds its entries in order);
* ``link_rho`` keeps the order in which the dict walk first touches
  each link: flow, level, node, column, where a level's nodes go in
  the order their first incoming share arrived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.chip.mesh import MeshGeometry
from repro.noc.routing.base import (
    FREE_HOP,
    FreePairs,
    RouterContexts,
    RoutingAlgorithm,
    permissible_owner,
    reject_hop,
)
from repro.noc.topology import (
    MESH_DIRECTIONS,
    OPPOSITE_CODES,
    PORT_CODES,
    PORT_DIRECTIONS,
    Direction,
    MeshTopology,
)

#: Utilisation clamp: loads above this mark the network saturated.
RHO_MAX = 0.95


@dataclass(frozen=True)
class Flow:
    """One traffic flow (an APG edge mapped onto tiles).

    Attributes:
        src: Source tile id.
        dst: Destination tile id.
        rate: Offered load in flits per cycle.
    """

    src: int
    dst: int
    rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate < 0:
            raise ValueError("rate must be finite and non-negative")


@dataclass
class FlowStats:
    """Per-flow results of an analytical evaluation.

    ``unroutable`` marks a flow that cannot reach its destination under
    the active fault set (dead endpoint router, or every permissible
    direction dead somewhere along the minimal-path DAG); its other
    statistics then describe only the reachable prefix.
    """

    avg_hops: float
    header_latency_cycles: float
    max_rho: float
    unroutable: bool = False

    @property
    def latency_scale(self) -> float:
        """Congestion multiplier for the flow's serialisation time
        (>= 1; grows as the bottleneck link approaches saturation)."""
        return 1.0 / (1.0 - min(self.max_rho, RHO_MAX))


@dataclass
class NocLoadReport:
    """Chip-wide results of one analytical evaluation.

    Attributes:
        router_flits_per_cycle: Flits traversing each router per cycle
            (including injection and ejection), indexed by tile id.
        link_rho: Utilisation per unidirectional link.
        flows: Per-flow statistics, in input order.
        saturated: True when any link hit the utilisation clamp.
    """

    router_flits_per_cycle: np.ndarray
    link_rho: Dict[Tuple[int, Direction], float]
    flows: List[FlowStats]
    saturated: bool

    @property
    def unroutable_flow_indices(self) -> List[int]:
        """Input-order indices of flows the fault set made unroutable."""
        return [i for i, f in enumerate(self.flows) if f.unroutable]

    @property
    def avg_latency_cycles(self) -> float:
        """Unweighted mean header latency over all flows: every flow
        counts once, whatever its rate."""
        if not self.flows:
            return 0.0
        return float(np.mean([f.header_latency_cycles for f in self.flows]))


#: Link id of the port with code ``c`` at tile ``t``: ``t * _PORTS + c``.
_PORTS = len(PORT_DIRECTIONS)

# Columns of a plan row (one row per DAG node): the node's tile and
# distance level from the source, then two slots each for the exit
# port codes (in permissible order), the child rows they lead to, and
# the incoming edges (``2 * parent row + column``); -1 marks an empty
# slot.
_TILE, _LEVEL, _CODE, _CHILD, _IN = 0, 1, 2, 4, 6
_PLAN_WIDTH = 8

#: Plans keyed by (class defining ``permissible``, mesh), then by
#: (src, dst); filled lazily and shared like the forced-hop tables.
_PLANS: Dict[Tuple[type, MeshGeometry], Dict[Tuple[int, int], np.ndarray]] = {}


class _Layout(NamedTuple):
    """The plans of one evaluation's routable flows, concatenated.

    Entries (DAG nodes) are in *level order*: by distance level, then
    flow, then the node's place in its plan, so that each level is one
    slice and the flows' sources come first.  ``rank`` maps the *flow
    order* (by flow, then plan row) to level order.
    """

    #: Per level: (start, stop) of its slice.
    bounds: List[Tuple[int, int]]
    #: Per entry: flat incoming-edge indices into the share array
    #: (``2 * entry + column``; ``2 * size`` reads a 0.0).
    in0: np.ndarray
    in1: np.ndarray
    #: ``(size, 2)`` child entry of each column (``size`` when empty).
    children: np.ndarray
    #: ``(size, 2)`` link id of each column, in level order.
    links: np.ndarray
    #: Per entry: its (router, destination) pair's row.
    pair: np.ndarray
    #: Per entry: it is its flow's destination.
    is_dst: np.ndarray
    #: Flow order -> level order.
    rank: np.ndarray
    #: Flow order: each entry's position in ``active`` and tile, and
    #: its columns' link ids (flattened).
    flow_f: np.ndarray
    tiles_f: np.ndarray
    links_f: np.ndarray
    #: Flow order: where each flow's plan starts, and the plans.
    starts: List[int]
    plans: List[np.ndarray]
    #: Per pair: ``(p, 2)`` link ids and next tiles of its columns, and
    #: the weights of a forced pair (1.0 on its one column).
    pair_links: np.ndarray
    pair_tiles: np.ndarray
    forced_weights: np.ndarray
    #: Rows of the free pairs, and those pairs for the policy.
    free_rows: np.ndarray
    free_pairs: FreePairs


class _Propagation(NamedTuple):
    """Result of pushing every flow through the mesh once."""

    #: ``(size, 2)`` per entry (level order) and column: the rate sent
    #: on; and the
    #: same in flow order, flattened.
    shares: np.ndarray
    shares_f: np.ndarray
    #: Per entry: reached, short of its destination, with no live exit.
    blocked: np.ndarray
    #: Per tile / per link id (plus a trailing empty slot): total rate.
    router_load: np.ndarray
    link_load: np.ndarray


class AnalyticalNocModel:
    """Fixed-point flow model over one routing policy.

    Args:
        topo: The mesh topology.
        routing: Routing policy (weights drive the flow splits).
        iterations: Fixed-point iterations for context-dependent
            policies (PANR, ICON); the default is 4.  A context-free
            policy (``routing.context_free``) reads no context, so every
            iteration would route identically: it propagates once.
        link_bandwidth: Flits per cycle a link can carry (1.0 for a
            single-flit-wide link).
        router_noise_pct_per_flit: PSN a flit/cycle of router activity
            adds to the tile's sensor reading, fed back into PSN-aware
            routing decisions within the fixed point.
        burstiness: Ratio of instantaneous to average offered load used
            for link-utilisation (congestion) estimates.  Wormhole
            traffic arrives in packet bursts, so links saturate well
            below an average utilisation of 1; router *power* still uses
            the raw average activity.

    Raises:
        RuntimeError: A forced hop of ``routing`` leaves the mesh.
    """

    #: Per-model lookup tables built once in __init__ from the topology
    #: and read-only afterwards (see MeshTopology); _forced is the
    #: policy's forced-hop table.
    __shared_readonly__ = ("_in_links", "_forced")

    def __init__(
        self,
        topo: MeshTopology,
        routing: RoutingAlgorithm,
        iterations: int = 4,
        link_bandwidth: float = 1.0,
        router_noise_pct_per_flit: float = 1.5,
        burstiness: float = 1.6,
    ):
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        if link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        if router_noise_pct_per_flit < 0:
            raise ValueError("router_noise_pct_per_flit must be non-negative")
        if burstiness < 1.0:
            raise ValueError("burstiness must be >= 1")
        self._topo = topo
        self._routing = routing
        self._iterations = iterations
        self._bw = link_bandwidth
        self._router_noise = router_noise_pct_per_flit
        self._burstiness = burstiness
        n = topo.mesh.tile_count
        #: Link ids run to n * _PORTS; one more slot stays 0.0 and
        #: stands for "no link".
        self._no_link = n * _PORTS
        self._link_keys = [(t, d) for t in range(n) for d in PORT_DIRECTIONS]
        # Per tile: the ids of its incoming links, padded with no-link.
        nbr = topo.neighbor_codes()
        in_links = np.full((n, len(MESH_DIRECTIONS)), self._no_link)
        for tile in range(n):
            for i, d in enumerate(topo.out_directions(tile)):
                other = int(nbr[tile, PORT_CODES[d]])
                in_links[tile, i] = other * _PORTS + OPPOSITE_CODES[
                    PORT_CODES[d]
                ]
        self._in_links = in_links
        # Hops with one permissible direction take {D: 1.0} from here
        # instead of asking the policy (see RoutingAlgorithm).
        self._forced = routing.forced_hops(topo)
        self._plans = _PLANS.setdefault(
            (permissible_owner(routing), topo.mesh), {}
        )

    @property
    def routing(self) -> RoutingAlgorithm:
        return self._routing

    def evaluate(
        self,
        flows: Sequence[Flow],
        psn_pct: Optional[np.ndarray] = None,
        per_hop_cycles: float = 3.0,
        psn_valid: Optional[np.ndarray] = None,
        dead_links: Optional[Set[Tuple[int, Direction]]] = None,
        dead_routers: Optional[Set[int]] = None,
    ) -> NocLoadReport:
        """Evaluate the network under a set of flows.

        Args:
            flows: Offered traffic.
            psn_pct: Per-tile PSN sensor readings consumed by PSN-aware
                policies (zeros if omitted).
            per_hop_cycles: Router pipeline latency per hop.
            psn_valid: Per-tile boolean mask; False marks a sensor
                reading as untrustworthy (detected fault or stale), so
                PSN-aware policies fall back to deterministic routing at
                the affected hops.  ``None`` means all readings valid.
            dead_links: Failed unidirectional links - no flow traverses
                them; adaptive policies route around them where the
                minimal-path DAG allows.
            dead_routers: Failed routers - no flow traverses, originates
                at or terminates at them.

        A flow that cannot reach its destination under the fault set is
        flagged :attr:`FlowStats.unroutable` instead of raising, so the
        runtime can re-map the owning application.

        Returns:
            The :class:`NocLoadReport`.

        Raises:
            ValueError: Bad array shapes or tile ids, or the policy
                names a hop outside its ``permissible`` set.
        """
        n_tiles = self._topo.mesh.tile_count
        if psn_pct is None:
            psn_pct = np.zeros(n_tiles)
        psn_pct = np.asarray(psn_pct, dtype=float)
        if psn_pct.shape != (n_tiles,):
            raise ValueError(f"psn_pct must have shape ({n_tiles},)")
        if psn_valid is not None:
            psn_valid = np.asarray(psn_valid, dtype=bool)
            if psn_valid.shape != (n_tiles,):
                raise ValueError(f"psn_valid must have shape ({n_tiles},)")
        dead_routers = dead_routers or set()
        check = self._topo.mesh._check_tile
        active = []
        cut = set()
        for i, f in enumerate(flows):
            src, dst = f.src, f.dst
            if not (0 <= src < n_tiles and 0 <= dst < n_tiles):
                check(src)
                check(dst)
            if f.rate <= 0.0 or src == dst:
                continue
            if src in dead_routers or dst in dead_routers:
                cut.add(i)
            else:
                active.append(i)
        stats: List[Optional[FlowStats]] = [None] * len(flows)
        if not active:
            return NocLoadReport(
                router_flits_per_cycle=np.zeros(n_tiles),
                link_rho={},
                flows=self._idle_stats(stats, cut),
                saturated=False,
            )
        lay = self._layout(flows, active)
        alive = self._alive_columns(lay, dead_links, dead_routers)
        rates = np.array([flows[i].rate for i in active])
        if self._routing.context_free:
            # Weights that read no context route identically on every
            # fixed-point iteration, so the first propagation is final.
            prop = self._propagate(lay, rates, self._weights(lay, None, alive))
        else:
            prop = self._fixed_point(lay, rates, psn_pct, psn_valid, alive)

        scaled = prop.link_load * self._burstiness / self._bw
        rho = np.minimum(scaled, RHO_MAX)
        order = self._touch_order(lay, prop)
        keys = self._link_keys
        link_rho = {
            keys[link]: r
            for link, r in zip(order.tolist(), rho[order].tolist())
        }
        hops, latency, worst = self._latency(lay, prop, rho, per_hop_cycles)[
            : len(active)
        ].T
        unroutable = np.bincount(
            lay.flow_f[prop.blocked[lay.rank]], minlength=len(active)
        ).tolist()
        for i, h, l, w, u in zip(
            active, hops.tolist(), latency.tolist(), worst.tolist(), unroutable
        ):
            stats[i] = FlowStats(h, l, w, unroutable=u > 0)
        return NocLoadReport(
            router_flits_per_cycle=prop.router_load,
            link_rho=link_rho,
            flows=self._idle_stats(stats, cut),
            saturated=bool((scaled > RHO_MAX).any()),
        )

    @staticmethod
    def _idle_stats(
        stats: List[Optional[FlowStats]], cut: Set[int]
    ) -> List[FlowStats]:
        """Fill in the flows that carry nothing: zero-rate and self
        flows, and (unroutable) flows with a dead endpoint."""
        return [
            FlowStats(0.0, 0.0, 0.0, unroutable=i in cut) if s is None else s
            for i, s in enumerate(stats)
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _plan(self, src: int, dst: int) -> np.ndarray:
        """The (src, dst) plan: minimal-DAG rows in level order, a
        level's nodes in the order a share first reaches them when every
        edge carries one."""
        topo = self._topo
        routing = self._routing
        forced = self._forced
        nbr = topo.neighbor_codes()
        rows = [[src, 0] + [-1] * (_PLAN_WIDTH - 2)]
        index = {src: 0}
        level = [src]
        depth = 0
        while level:
            depth += 1
            reached = []
            for node in level:
                if node == dst:
                    continue
                code = forced.item(node, dst)
                if code >= 0:
                    dirs = [PORT_DIRECTIONS[code]]
                else:
                    dirs = routing.permissible(topo, node, dst)
                productive = topo.direction_towards(node, dst)
                for d in dirs:
                    if d not in productive or dirs.count(d) > 1:
                        reject_hop(routing, node, dst, d)
                codes = [PORT_CODES[d] for d in dirs]
                row = rows[index[node]]
                for col, code in enumerate(codes):
                    child = int(nbr[node, code])
                    at = index.get(child)
                    if at is None:
                        at = index[child] = len(rows)
                        rows.append([child, depth] + [-1] * (_PLAN_WIDTH - 2))
                        reached.append(child)
                    row[_CODE + col] = code
                    row[_CHILD + col] = at
                    child_row = rows[at]
                    slot = _IN if child_row[_IN] < 0 else _IN + 1
                    child_row[slot] = 2 * index[node] + col
            level = reached
        # int32 halves the cache; _layout widens the rows it reads.
        plan = np.array(rows, dtype=np.int32)
        plan.setflags(write=False)
        self._plans[(src, dst)] = plan
        return plan

    def _layout(self, flows: Sequence[Flow], active: List[int]) -> _Layout:
        """Concatenate the plans of the routable flows ``active``."""
        plans = self._plans
        chosen = []
        for i in active:
            f = flows[i]
            plan = plans.get((f.src, f.dst))
            if plan is None:
                plan = self._plan(f.src, f.dst)
            chosen.append(plan)
        sizes = [len(plan) for plan in chosen]
        size = sum(sizes)
        starts = np.cumsum([0] + sizes[:-1])
        table = np.concatenate(chosen).astype(np.int64)
        offset = np.repeat(starts, sizes)
        flow_f = np.repeat(np.arange(len(active)), sizes)
        dst_f = np.repeat([flows[i].dst for i in active], sizes)
        tiles_f = table[:, _TILE]
        # Level order -> flow order, and back (plus the empty slot).
        order = np.argsort(table[:, _LEVEL], kind="stable")
        rank = np.empty(size + 1, dtype=np.int64)
        rank[order] = np.arange(size)
        rank[size] = size
        shift = offset[order, None]
        local = table[order, _CHILD : _CHILD + 2]
        children = np.where(local >= 0, rank[local + shift], size)
        local = table[order, _IN : _IN + 2]
        edges = np.where(
            local >= 0, 2 * rank[local // 2 + shift] + local % 2, 2 * size
        )
        ends = np.cumsum(np.bincount(table[order, _LEVEL])).tolist()
        bounds = list(zip([0] + ends[:-1], ends))

        # One row per (router, destination) pair the plans reach.
        _, first, pair_f = np.unique(
            tiles_f * self._topo.mesh.tile_count + dst_f,
            return_index=True,
            return_inverse=True,
        )
        cur = tiles_f[first]
        dst = dst_f[first]
        codes = table[first, _CODE : _CODE + 2]
        used = codes >= 0
        pair_tiles = np.where(
            used, self._topo.neighbor_codes()[cur[:, None], codes], -1
        )
        pair_links = np.where(
            used, cur[:, None] * _PORTS + codes, self._no_link
        )
        forced = self._forced[cur, dst]
        free = forced == FREE_HOP
        forced_weights = np.zeros(codes.shape)
        forced_weights[(forced >= 0) & (cur != dst), 0] = 1.0
        pair = pair_f[order]
        return _Layout(
            bounds=bounds,
            in0=edges[:, 0].copy(),
            in1=edges[:, 1].copy(),
            children=children,
            links=pair_links[pair],
            pair=pair,
            is_dst=(cur == dst)[pair],
            flow_f=flow_f,
            rank=rank[:size],
            tiles_f=tiles_f,
            links_f=pair_links[pair_f].ravel(),
            starts=starts.tolist(),
            plans=chosen,
            pair_links=pair_links,
            pair_tiles=pair_tiles,
            forced_weights=forced_weights,
            free_rows=np.flatnonzero(free),
            free_pairs=FreePairs(
                cur[free], dst[free], codes[free], pair_tiles[free],
                pair_links[free],
            ),
        )

    def _alive_columns(
        self,
        lay: _Layout,
        dead_links: Optional[Set[Tuple[int, Direction]]],
        dead_routers: Set[int],
    ) -> Optional[np.ndarray]:
        """Per pair column: False over a failed link or into a failed
        router; None without faults."""
        if not dead_links and not dead_routers:
            return None
        dead = [t * _PORTS + PORT_CODES[d] for t, d in dead_links or ()]
        return ~np.isin(lay.pair_links, dead) & ~np.isin(
            lay.pair_tiles, sorted(dead_routers)
        )

    def _weights(
        self,
        lay: _Layout,
        contexts: Optional[RouterContexts],
        alive: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per entry: its columns' weights, their total, and whether it
        has no live exit (the weights of such an entry are all 0.0 and
        its total 1.0, so it sends nothing on)."""
        weights = lay.forced_weights
        if len(lay.free_rows):
            weights = weights.copy()
            weights[lay.free_rows] = self._routing.weight_columns(
                self._topo, lay.free_pairs, contexts
            )
        if alive is not None:
            # Route around dead components: their columns drop out.
            # When every column is dead the flow's remaining rate dies
            # there and the flow is unroutable (the runtime re-maps it).
            weights = np.where(alive, weights, 0.0)
        total = weights[:, 0] + weights[:, 1]
        live = total > 0
        weights = np.where(live[:, None], np.maximum(weights, 0.0), 0.0)
        total = np.where(live, total, 1.0)
        return weights[lay.pair], total[lay.pair], ~live[lay.pair]

    def _contexts(
        self,
        link_load: np.ndarray,
        router_load: np.ndarray,
        psn_pct: np.ndarray,
        psn_valid: Optional[np.ndarray],
    ) -> RouterContexts:
        """Every router's context from the previous iteration's loads."""
        incoming = link_load[self._in_links].max(axis=1)
        return RouterContexts(
            occupancy=np.minimum(1.0, incoming * self._burstiness / self._bw),
            data_rate=router_load,
            # The sensors a real PANR consults see the *current* noise,
            # which includes the router activity the routing itself
            # creates; feeding the running load estimate back here lets
            # the fixed point co-converge instead of funnelling all
            # traffic through one "quiet" corridor.
            psn_pct=psn_pct + self._router_noise * router_load,
            psn_valid=psn_valid,
            out_rho=np.minimum(link_load * self._burstiness / self._bw, 1.0),
        )

    def _fixed_point(
        self,
        lay: _Layout,
        rates: np.ndarray,
        psn_pct: np.ndarray,
        psn_valid: Optional[np.ndarray],
        alive: Optional[np.ndarray],
    ) -> _Propagation:
        """Iterate context-dependent routing against its own loads."""
        # Relaxed copies fed to the routing contexts: adaptive policies
        # with sharp argmin selection can oscillate between iterations
        # (all flow flips to the quiet side, which then becomes the loud
        # side); under-relaxation damps the fixed point.
        link_load = np.zeros(self._no_link + 1)
        router_load = np.zeros(self._topo.mesh.tile_count)
        for it in range(self._iterations):
            contexts = self._contexts(
                link_load, router_load, psn_pct, psn_valid
            )
            weighted = self._weights(lay, contexts, alive)
            prop = self._propagate(lay, rates, weighted)
            blend = 0.5 if it else 1.0
            link_load = (1 - blend) * link_load + blend * prop.link_load
            router_load = (1 - blend) * router_load + blend * prop.router_load
        return prop

    def _propagate(
        self,
        lay: _Layout,
        rates: np.ndarray,
        weighted: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> _Propagation:
        """Push every flow through its plan, one level at a time."""
        weights, total, dead_end = weighted
        size = len(lay.pair)
        inflow = np.zeros(size)
        inflow[: len(rates)] = rates
        flat = np.zeros(2 * size + 1)
        shares = flat[:-1].reshape(size, 2)
        in0, in1 = lay.in0, lay.in1
        for start, stop in lay.bounds:
            if start:
                # At most two parents: the same sum in either order.
                inflow[start:stop] = (
                    flat[in0[start:stop]] + flat[in1[start:stop]]
                )
            shares[start:stop] = (
                inflow[start:stop, None] * weights[start:stop]
            ) / total[start:stop, None]
        # Totals add the flows in input order, as entries in flow order.
        shares_f = shares[lay.rank].ravel()
        return _Propagation(
            shares=shares,
            shares_f=shares_f,
            blocked=dead_end & (inflow > 0) & ~lay.is_dst,
            router_load=np.bincount(
                lay.tiles_f,
                weights=inflow[lay.rank],
                minlength=self._topo.mesh.tile_count,
            ),
            link_load=np.bincount(
                lay.links_f, weights=shares_f, minlength=self._no_link + 1
            ),
        )

    def _touch_order(self, lay: _Layout, prop: _Propagation) -> np.ndarray:
        """Link ids in the order the dict walk first touches them."""
        touched = prop.shares_f > 0
        idle = touched < (lay.links_f < self._no_link)
        if not idle.any():
            # Every edge carries a share: each plan's own order holds.
            seq = lay.links_f[touched]
        else:
            # Where an edge carries nothing, a node can lose the incoming
            # edge that placed it in its level: walk those flows again.
            walked = set(lay.flow_f[np.flatnonzero(idle) // 2].tolist())
            parts = []
            done = 0
            for j in sorted(walked):
                start = 2 * lay.starts[j]
                stop = start + 2 * len(lay.plans[j])
                parts.append(lay.links_f[done:start][touched[done:start]])
                parts.append(self._walk(lay, prop, j, start, stop))
                done = stop
            parts.append(lay.links_f[done:][touched[done:]])
            seq = np.concatenate(parts)
        _, first = np.unique(seq, return_index=True)
        return seq[np.sort(first)]

    @staticmethod
    def _walk(
        lay: _Layout, prop: _Propagation, j: int, start: int, stop: int
    ) -> np.ndarray:
        """Flow ``j``'s touched links in dict-walk order: a level's nodes
        in the order their first share arrived."""
        children = lay.plans[j][:, _CHILD : _CHILD + 2].tolist()
        share = prop.shares_f[start:stop].tolist()
        links = lay.links_f[start:stop].tolist()
        out = []
        level = [0]
        while level:
            reached: Dict[int, None] = {}
            for node in level:
                for col in (0, 1):
                    if share[2 * node + col] > 0:
                        out.append(links[2 * node + col])
                        reached[children[node][col]] = None
            level = list(reached)
        return np.array(out, dtype=np.int64)

    def _latency(
        self,
        lay: _Layout,
        prop: _Propagation,
        rho: np.ndarray,
        per_hop_cycles: float,
    ) -> np.ndarray:
        """Per entry (a flow's source first): mean hops, header latency
        and worst link utilisation onwards, as ``(size + 1, 3)`` rows, by
        dynamic programming from each destination back over the split
        DAG, a level at a time."""
        # Shares are never negative: a column that sends nothing holds
        # 0.0 and adds nothing to a sum.
        shares = prop.shares
        sent = shares > 0
        total = shares[:, 0] + shares[:, 1]
        frac = shares / np.where(total > 0, total, 1.0)[:, None]
        link_rho = np.where(sent, rho[lay.links], 0.0)
        # Per column: the hop and the latency it adds before the child's
        # own (the pipeline plus the link's M/D/1 queueing delay).
        step = np.empty(sent.shape + (2,))
        step[:, :, 0] = 1.0
        step[:, :, 1] = per_hop_cycles + link_rho / (
            2.0 * (1.0 - np.minimum(link_rho, RHO_MAX))
        )
        frac = frac[:, :, None]
        # Per entry: hops, latency, worst rho; one more row of zeros
        # stands for "no child".
        size = len(lay.pair)
        values = np.zeros((size + 1, 3))
        for start, stop in reversed(lay.bounds):
            ahead = values[lay.children[start:stop]]
            terms = frac[start:stop] * (step[start:stop] + ahead[:, :, :2])
            values[start:stop, :2] = terms[:, 0] + terms[:, 1]
            values[start:stop, 2] = np.maximum(
                link_rho[start:stop], ahead[:, :, 2] * sent[start:stop]
            ).max(axis=1)
        return values
