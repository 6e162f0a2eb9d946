"""The dict-walk analytical NoC model, kept as the test oracle.

This is the flow model as it was before the array propagation in
:mod:`repro.noc.analytical`: per-tile :class:`RoutingContext` objects,
one scalar ``weights`` call (``routing_oracle.py``) per (router,
destination) pair and propagation, and per-flow dicts walked level by
level.  It is plain enough to read against the model's docstring, and
``test_analytical_oracle.py`` checks that the array model reproduces
its report bytes, ``link_rho`` order included.  Only tests under ``tests/noc`` can import it (pytest puts
that directory on ``sys.path``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.noc.analytical import RHO_MAX, Flow, FlowStats, NocLoadReport
from repro.noc.routing.base import RoutingAlgorithm
from repro.noc.topology import Direction, MeshTopology, PORT_DIRECTIONS
from routing_oracle import RoutingContext, weights as weights_of

#: One hop out of a router: ``(outgoing link key, next tile)``.
_Hop = Tuple[Tuple[int, Direction], int]

#: One router's expansion towards one destination: the policy's weights
#: (fault-filtered) and their total.
_Expansion = Tuple[Dict[Direction, float], float]

#: Weights of a forced hop by port code, ``{D: 1.0}``: one shared dict
#: per direction, never mutated (the fault filter builds a new one).
_FORCED_WEIGHTS = tuple({d: 1.0} for d in PORT_DIRECTIONS)


class _Propagation(NamedTuple):
    """Result of pushing every flow through the mesh once."""

    link_load: Dict[Tuple[int, Direction], float]
    router_load: np.ndarray
    #: Per flow: inflow rate of each router that split it onwards.
    inflows: List[Dict[int, float]]
    unroutable: List[bool]
    #: Destination -> router -> expansion, shared by every flow.
    expansions: Dict[int, Dict[int, _Expansion]]


class OracleNocModel:
    """Fixed-point flow model over one routing policy, walked as dicts.

    Same arguments and results as
    :class:`~repro.noc.analytical.AnalyticalNocModel`.

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
    """

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
        # Per tile: (direction, neighbour, incoming link key, outgoing
        # link key) for every mesh direction with a neighbour.
        self._context_links: List[List[tuple]] = []
        # Per tile: direction -> (outgoing link key, next tile).
        self._hops_from: List[Dict[Direction, _Hop]] = []
        for tile in topo.mesh.tiles():
            links = []
            for d in topo.out_directions(tile):
                n = topo.neighbor(tile, d)
                links.append((d, n, (n, d.opposite), (tile, d)))
            self._context_links.append(links)
            self._hops_from.append({d: (out, n) for d, n, _, out in links})
        # Context-free policies never read a context: one shared empty
        # one stands in for every router.
        self._free_contexts = [RoutingContext()] * topo.mesh.tile_count
        # Hops with one permissible direction take {D: 1.0} from here
        # instead of asking the policy (see RoutingAlgorithm).
        self._forced = routing.forced_hops(topo)

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
        dead_links = dead_links or set()
        dead_routers = dead_routers or set()
        for f in flows:
            self._topo.mesh._check_tile(f.src)
            self._topo.mesh._check_tile(f.dst)

        if self._routing.context_free:
            # Weights that read no context route identically on every
            # fixed-point iteration, so the first propagation is final.
            prop = self._propagate(
                flows, self._free_contexts, dead_links, dead_routers
            )
        else:
            prop = self._fixed_point(
                flows, psn_pct, psn_valid, dead_links, dead_routers
            )

        link_rho = {
            link: min(load * self._burstiness / self._bw, RHO_MAX)
            for link, load in prop.link_load.items()
        }
        saturated = any(
            load * self._burstiness / self._bw > RHO_MAX
            for load in prop.link_load.values()
        )
        flow_stats = [
            self._flow_latency(
                f,
                inflow,
                prop.expansions.get(f.dst),
                link_rho,
                per_hop_cycles,
                blocked,
            )
            for f, inflow, blocked in zip(
                flows, prop.inflows, prop.unroutable
            )
        ]
        return NocLoadReport(
            router_flits_per_cycle=prop.router_load,
            link_rho=link_rho,
            flows=flow_stats,
            saturated=saturated,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fixed_point(
        self,
        flows: Sequence[Flow],
        psn_pct: np.ndarray,
        psn_valid: Optional[np.ndarray],
        dead_links: Set[Tuple[int, Direction]],
        dead_routers: Set[int],
    ) -> _Propagation:
        """Iterate context-dependent routing against its own loads."""
        # Relaxed copies fed to the routing contexts: adaptive policies
        # with sharp argmin selection can oscillate between iterations
        # (all flow flips to the quiet side, which then becomes the loud
        # side); under-relaxation damps the fixed point.
        ctx_link: Dict[Tuple[int, Direction], float] = {}
        ctx_router = np.zeros(self._topo.mesh.tile_count)
        for it in range(self._iterations):
            contexts = self._build_contexts(
                ctx_link, ctx_router, psn_pct, psn_valid
            )
            prop = self._propagate(flows, contexts, dead_links, dead_routers)
            blend = 0.5 if it else 1.0
            ctx_link = {
                k: (1 - blend) * ctx_link.get(k, 0.0)
                + blend * prop.link_load.get(k, 0.0)
                for k in {**ctx_link, **prop.link_load}
            }
            ctx_router = (1 - blend) * ctx_router + blend * prop.router_load
        return prop

    def _build_contexts(
        self,
        link_load: Dict[Tuple[int, Direction], float],
        router_load: np.ndarray,
        psn_pct: np.ndarray,
        psn_valid: Optional[np.ndarray] = None,
    ) -> List[RoutingContext]:
        """Per-router routing contexts from the previous iteration."""
        router_rate = router_load.tolist()
        psn = psn_pct.tolist()
        valid = None if psn_valid is None else psn_valid.tolist()
        contexts = []
        for tile, links in enumerate(self._context_links):
            incoming = [link_load.get(key, 0.0) for _, _, key, _ in links]
            occupancy = (
                min(1.0, max(incoming) * self._burstiness / self._bw)
                if incoming
                else 0.0
            )
            rates = {}
            noise = {}
            trusted = {}
            out_rho = {}
            for d, n, _, out_key in links:
                rates[d] = router_rate[n]
                if valid is not None:
                    trusted[d] = valid[n]
                # The sensors a real PANR consults see the *current*
                # noise, which includes the router activity the routing
                # itself creates; feeding the running load estimate back
                # here lets the fixed point co-converge instead of
                # funnelling all traffic through one "quiet" corridor.
                noise[d] = psn[n] + self._router_noise * router_rate[n]
                out_rho[d] = min(
                    link_load.get(out_key, 0.0) * self._burstiness / self._bw,
                    1.0,
                )
            contexts.append(
                RoutingContext(
                    buffer_occupancy=occupancy,
                    neighbor_data_rate=rates,
                    neighbor_psn_pct=noise,
                    neighbor_psn_valid=trusted,
                    out_link_rho=out_rho,
                )
            )
        return contexts

    def _propagate(
        self,
        flows: Sequence[Flow],
        contexts: List[RoutingContext],
        dead_links: Set[Tuple[int, Direction]],
        dead_routers: Set[int],
    ) -> _Propagation:
        topo = self._topo
        routing = self._routing
        forced = self._forced
        hops_from = self._hops_from
        faulty = bool(dead_links or dead_routers)
        link_load: Dict[Tuple[int, Direction], float] = {}
        router_load = [0.0] * topo.mesh.tile_count
        inflows: List[Dict[int, float]] = []
        unroutable: List[bool] = []
        # The contexts are fixed for this propagation, so one router's
        # weights towards one destination are too: expand each
        # (router, destination) pair once.
        expansions: Dict[int, Dict[int, _Expansion]] = {}

        for flow in flows:
            inflow: Dict[int, float] = {}
            blocked = False
            dst = flow.dst
            if flow.rate <= 0.0 or flow.src == dst:
                inflows.append(inflow)
                unroutable.append(False)
                continue
            if faulty and (flow.src in dead_routers or dst in dead_routers):
                inflows.append(inflow)
                unroutable.append(True)
                continue
            # Expand nodes a distance level at a time, farthest from dst
            # first: each minimal hop reduces the distance by one, so
            # every node's inflow is complete once the level above it
            # is done.  Within a level, nodes go in first-arrival order.
            expanded = expansions.setdefault(dst, {})
            level: Dict[int, float] = {flow.src: flow.rate}
            while level:
                pending: Dict[int, float] = {}
                for node, rate in level.items():
                    router_load[node] += rate
                    if node == dst:
                        continue
                    exits = hops_from[node]
                    expansion = expanded.get(node)
                    if expansion is None:
                        code = forced.item(node, dst)
                        if code >= 0:
                            weights = _FORCED_WEIGHTS[code]
                        else:
                            weights = weights_of(
                                routing, topo, node, dst, contexts[node]
                            )
                        if faulty:
                            # Route around dead components: drop
                            # directions over a failed link or into a
                            # failed router.  When every permissible
                            # direction is dead the flow's remaining rate
                            # dies here and the flow is declared
                            # unroutable (the runtime re-maps the owning
                            # application).
                            weights = {
                                d: w
                                for d, w in weights.items()
                                if (node, d) not in dead_links
                                and exits[d][1] not in dead_routers
                            }
                        expansion = (weights, sum(weights.values()))
                        expanded[node] = expansion
                    weights, total = expansion
                    if total <= 0:
                        blocked = True
                        continue
                    for d, w in weights.items():
                        link, nxt = exits[d]
                        share = rate * w / total
                        if share <= 0:
                            continue
                        link_load[link] = link_load.get(link, 0.0) + share
                        pending[nxt] = pending.get(nxt, 0.0) + share
                    inflow[node] = rate
                level = pending
            inflows.append(inflow)
            unroutable.append(blocked)
        return _Propagation(
            link_load, np.array(router_load), inflows, unroutable, expansions
        )

    def _flow_latency(
        self,
        flow: Flow,
        inflow: Dict[int, float],
        expanded: Optional[Dict[int, _Expansion]],
        link_rho: Dict[Tuple[int, Direction], float],
        per_hop_cycles: float,
        unroutable: bool = False,
    ) -> FlowStats:
        if flow.src == flow.dst or flow.rate <= 0.0 or not inflow:
            return FlowStats(
                avg_hops=0.0,
                header_latency_cycles=0.0,
                max_rho=0.0,
                unroutable=unroutable,
            )
        # Dynamic programming from dst outward over the split DAG.
        # _propagate recorded nodes farthest-first, level by level, and a
        # node reads only nodes one hop nearer dst, so the reverse order
        # has every input ready.
        hops: Dict[int, float] = {flow.dst: 0.0}
        lat: Dict[int, float] = {flow.dst: 0.0}
        worst: Dict[int, float] = {flow.dst: 0.0}
        for node in reversed(inflow):
            # Re-derive the node's split exactly as _propagate made it.
            rate = inflow[node]
            weights, weight_total = expanded[node]
            exits = self._hops_from[node]
            shares = []
            for d, w in weights.items():
                link, nxt = exits[d]
                share = rate * w / weight_total
                if share <= 0:
                    continue
                shares.append((share, link, nxt))
            total = sum(share for share, _, _ in shares)
            if total <= 0:
                continue
            h = l = 0.0
            w_max = 0.0
            for share, link, nxt in shares:
                rho = link_rho.get(link, 0.0)
                queue = rho / (2.0 * (1.0 - min(rho, RHO_MAX)))
                frac = share / total
                h += frac * (1.0 + hops.get(nxt, 0.0))
                l += frac * (per_hop_cycles + queue + lat.get(nxt, 0.0))
                w_max = max(w_max, rho, worst.get(nxt, 0.0))
            hops[node] = h
            lat[node] = l
            worst[node] = w_max
        return FlowStats(
            avg_hops=hops.get(flow.src, 0.0),
            header_latency_cycles=lat.get(flow.src, 0.0),
            max_rho=worst.get(flow.src, 0.0),
            unroutable=unroutable,
        )
