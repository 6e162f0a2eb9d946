"""The scalar routing policies, kept as the test oracle.

``src`` states each routing policy once, as array columns
(:meth:`RoutingAlgorithm.weight_columns` and ``select_columns``).  This
module keeps the per-decision form those replaced: a dict-based
:class:`RoutingContext` per router and one ``weights`` call per
(router, destination) pair, with PANR's and ICON's weights as they were
written against Algorithm 3.  The dict-walk analytical oracle
(``analytical_oracle.py``) and the object-per-flit cycle oracle
(``cycle_oracle``) route through it, so they stay references
independent of the array code; ``test_weight_columns.py`` and
``test_select_columns.py`` compare the two forms bit for bit.

:func:`one_pair` goes the other way: it turns one hand-built
:class:`RoutingContext` into the one-row arrays the product interface
takes, and :func:`array_select` / :func:`array_weights` ask a policy's
own ``select_columns`` / ``weight_columns`` through it, for tests that
check a policy's behaviour on that interface.

Only tests under ``tests/noc`` can import this module (pytest puts that
directory on ``sys.path``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.noc.routing import IconRouting, PanrRouting, XYRouting
from repro.noc.routing.base import FreePairs, RouterContexts, RoutingAlgorithm
from repro.noc.topology import (
    PORT_CODES,
    PORT_DIRECTIONS,
    Direction,
    MeshTopology,
)

#: Deterministic fallback PANR uses when sensor input cannot be trusted.
_XY_FALLBACK = XYRouting()


@dataclass
class RoutingContext:
    """Local state a router consults when selecting among directions.

    Attributes:
        buffer_occupancy: Occupancy of the input channel making the
            decision, as a fraction of buffer depth in [0, 1].
        neighbor_data_rate: Incoming data rate (flits/cycle) observed at
            the adjacent router in each direction.
        neighbor_psn_pct: PSN sensor reading (percent of Vdd) of the
            adjacent tile in each direction.
        neighbor_psn_valid: Whether the adjacent tile's PSN reading can
            be trusted (False for a detected sensor fault or a stale
            reading).  Directions absent from the map are treated as
            valid, so fault-free callers need not populate it.
        out_link_rho: Utilisation of this router's outgoing link per
            direction.  Credit-based flow control stalls flits towards a
            backed-up neighbour no matter which direction the policy
            prefers, so adaptive weights are gated by it.
    """

    buffer_occupancy: float = 0.0
    neighbor_data_rate: Dict[Direction, float] = field(default_factory=dict)
    neighbor_psn_pct: Dict[Direction, float] = field(default_factory=dict)
    neighbor_psn_valid: Dict[Direction, bool] = field(default_factory=dict)
    out_link_rho: Dict[Direction, float] = field(default_factory=dict)

    def psn_trusted(self, direction: Direction) -> bool:
        """Whether the PSN reading toward ``direction`` is trustworthy."""
        return self.neighbor_psn_valid.get(direction, True)


def uniform_weights(
    routing: RoutingAlgorithm,
    topo: MeshTopology,
    cur: int,
    dst: int,
    ctx: RoutingContext,
) -> Dict[Direction, float]:
    """A context-free policy's weights: uniform over ``permissible``."""
    dirs = routing.permissible(topo, cur, dst)
    return {d: 1.0 for d in dirs}


def panr_weights(
    panr: PanrRouting,
    topo: MeshTopology,
    cur: int,
    dst: int,
    ctx: RoutingContext,
) -> Dict[Direction, float]:
    """PANR's weights at one decision (Algorithm 3)."""
    dirs = panr.permissible(topo, cur, dst)
    if not dirs:
        return {}
    if any(not ctx.psn_trusted(d) for d in dirs):
        # Fail-safe: unreliable sensor input reverts this hop to
        # deterministic XY (see the PANR module docstring).
        return {d: 1.0 for d in _XY_FALLBACK.permissible(topo, cur, dst)}
    if len(dirs) == 1:
        return {dirs[0]: 1.0}
    if ctx.buffer_occupancy > panr.buffer_threshold:
        metric = {d: ctx.neighbor_data_rate.get(d, 0.0) for d in dirs}
    else:
        metric = {d: ctx.neighbor_psn_pct.get(d, 0.0) for d in dirs}
    # The hardware picks the minimum (Algorithm 3 lines 5-6); for the
    # analytical flow model the argmin is expressed as a sharply
    # peaked soft-min so nearly all flow follows the winning direction
    # while near-ties still split.
    best = min(metric.values())
    weights = {d: 1.0 / (metric[d] - best + 0.4) ** 2 for d in dirs}
    # Credit-based flow control: a backed-up output stalls flits no
    # matter what the selector prefers, so the achievable split is
    # gated by the outgoing link's remaining capacity.
    return {
        d: w * max(0.05, 1.0 - ctx.out_link_rho.get(d, 0.0))
        for d, w in weights.items()
    }


def icon_weights(
    icon: IconRouting,
    topo: MeshTopology,
    cur: int,
    dst: int,
    ctx: RoutingContext,
) -> Dict[Direction, float]:
    """ICON's weights at one decision: least neighbour data rate."""
    dirs = icon.permissible(topo, cur, dst)
    if not dirs:
        return {}
    if len(dirs) == 1:
        return {dirs[0]: 1.0}
    rate = {d: ctx.neighbor_data_rate.get(d, 0.0) for d in dirs}
    # Soft argmin, mirroring PANR's hardware minimum selection.
    best = min(rate.values())
    weights = {d: 1.0 / (rate[d] - best + 0.4) ** 2 for d in dirs}
    # Same credit-stall gating as PANR (shared wormhole hardware).
    return {
        d: w * max(0.05, 1.0 - ctx.out_link_rho.get(d, 0.0))
        for d, w in weights.items()
    }


#: The scalar form of each shipped ``weight_columns``.
_SCALAR_WEIGHTS = {
    RoutingAlgorithm.weight_columns: uniform_weights,
    PanrRouting.weight_columns: panr_weights,
    IconRouting.weight_columns: icon_weights,
}


def weights(
    routing: RoutingAlgorithm,
    topo: MeshTopology,
    cur: int,
    dst: int,
    ctx: RoutingContext,
) -> Dict[Direction, float]:
    """Traffic-split weights over the permissible directions at one
    decision, by the scalar form of the policy's ``weight_columns``.

    Raises:
        TypeError: The policy's ``weight_columns`` has no scalar form.
    """
    form = _SCALAR_WEIGHTS.get(type(routing).weight_columns)
    if form is None:
        raise TypeError(f"no scalar weights for {type(routing).__name__}")
    return form(routing, topo, cur, dst, ctx)


def select(
    routing: RoutingAlgorithm,
    topo: MeshTopology,
    cur: int,
    dst: int,
    ctx: RoutingContext,
) -> Direction:
    """Single-direction choice: highest weight wins, the lower port
    code breaking a tie for determinism."""
    if type(routing).select_columns is not RoutingAlgorithm.select_columns:
        # A test policy that makes its own array choice has no scalar
        # form: ask it for this one decision.
        return array_select(routing, topo, cur, dst, ctx)
    w = weights(routing, topo, cur, dst, ctx)
    if not w:
        return Direction.LOCAL
    return max(w, key=lambda d: (w[d], -PORT_CODES[d]))


def pair_context(
    contexts: RouterContexts, pairs: FreePairs, row: int
) -> RoutingContext:
    """Pair ``row``'s :class:`RoutingContext`, over its columns."""
    rates = {}
    noise = {}
    trusted = {}
    out_rho = {}
    for code, tile, link in zip(
        pairs.codes[row].tolist(),
        pairs.tiles[row].tolist(),
        pairs.links[row].tolist(),
    ):
        if code < 0:
            continue
        d = PORT_DIRECTIONS[code]
        rates[d] = contexts.data_rate.item(tile)
        noise[d] = contexts.psn_pct.item(tile)
        if contexts.psn_valid is not None:
            trusted[d] = bool(contexts.psn_valid[tile])
        out_rho[d] = contexts.out_rho.item(link)
    return RoutingContext(
        buffer_occupancy=contexts.occupancy.item(pairs.inputs.item(row)),
        neighbor_data_rate=rates,
        neighbor_psn_pct=noise,
        neighbor_psn_valid=trusted,
        out_link_rho=out_rho,
    )


def weight_columns(
    routing: RoutingAlgorithm,
    topo: MeshTopology,
    pairs: FreePairs,
    contexts: Optional[RouterContexts],
) -> np.ndarray:
    """``routing.weight_columns`` as one :func:`weights` call per pair,
    with the pair's context built from ``contexts`` (an empty one when
    ``contexts`` is None)."""
    out = np.zeros(pairs.codes.shape)
    for row, (cur, dst, codes) in enumerate(
        zip(pairs.cur.tolist(), pairs.dst.tolist(), pairs.codes.tolist())
    ):
        ctx = RoutingContext()
        if contexts is not None:
            ctx = pair_context(contexts, pairs, row)
        for d, w in weights(routing, topo, cur, dst, ctx).items():
            out[row, codes.index(PORT_CODES[d])] = w
    return out


def one_pair(
    topo: MeshTopology,
    routing: RoutingAlgorithm,
    cur: int,
    dst: int,
    ctx: RoutingContext,
) -> Tuple[FreePairs, RouterContexts]:
    """The decision at ``cur`` towards ``dst`` as the array interface
    takes it: a one-row :class:`FreePairs` over the two directions
    ``permissible`` offers there, and the :class:`RouterContexts` that
    ``ctx`` gives them (absent entries read 0.0, and trust is None when
    ``ctx`` flags no reading)."""
    dirs = routing.permissible(topo, cur, dst)
    if len(dirs) != 2:
        raise ValueError(f"{cur} -> {dst} offers {len(dirs)} directions")
    pairs = FreePairs(
        cur=np.array([cur]),
        dst=np.array([dst]),
        codes=np.array([[PORT_CODES[d] for d in dirs]]),
        tiles=np.array([[0, 1]]),
        links=np.array([[0, 1]]),
        inputs=np.array([0]),
    )
    valid = None
    if ctx.neighbor_psn_valid:
        valid = np.array([ctx.psn_trusted(d) for d in dirs])
    contexts = RouterContexts(
        occupancy=np.array([ctx.buffer_occupancy]),
        data_rate=np.array([ctx.neighbor_data_rate.get(d, 0.0) for d in dirs]),
        psn_pct=np.array([ctx.neighbor_psn_pct.get(d, 0.0) for d in dirs]),
        psn_valid=valid,
        out_rho=np.array([ctx.out_link_rho.get(d, 0.0) for d in dirs]),
    )
    return pairs, contexts


def array_select(
    routing: RoutingAlgorithm,
    topo: MeshTopology,
    cur: int,
    dst: int,
    ctx: RoutingContext,
) -> Direction:
    """``routing.select_columns`` at the one decision :func:`one_pair`
    builds."""
    pairs, contexts = one_pair(topo, routing, cur, dst, ctx)
    return PORT_DIRECTIONS[routing.select_columns(topo, pairs, contexts)[0]]


def array_weights(
    routing: RoutingAlgorithm,
    topo: MeshTopology,
    cur: int,
    dst: int,
    ctx: RoutingContext,
) -> Dict[Direction, float]:
    """``routing.weight_columns`` at the one decision :func:`one_pair`
    builds, keyed by direction."""
    pairs, contexts = one_pair(topo, routing, cur, dst, ctx)
    row = routing.weight_columns(topo, pairs, contexts)[0].tolist()
    return {
        PORT_DIRECTIONS[code]: w
        for code, w in zip(pairs.codes[0].tolist(), row)
    }
