"""Routing algorithm interface shared by the flit-level and analytical
NoC models.

A routing algorithm answers two questions at each router:

* ``permissible(cur, dst)`` - which output directions keep the route
  minimal and deadlock-free;
* ``weights(cur, dst, ctx)`` - how to distribute traffic over those
  directions given the router's local view (buffer occupancy, neighbour
  data rates, neighbour PSN sensor readings).

The analytical model asks the second question for many routers at once
through :meth:`RoutingAlgorithm.weight_columns`, whose default answers
it with one ``weights`` call per router.

The flit-level engine (:mod:`repro.noc.batch`) picks the argmax-weight
direction per packet; the analytical model splits flows fractionally
by the same weights, so both models express one policy.  Where
``permissible`` leaves a single direction there is nothing to choose:
both models route such *forced* hops from
:meth:`RoutingAlgorithm.forced_hops` and ask the policy only where it
has a choice.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, NoReturn, Optional, Tuple

import numpy as np

from repro.chip.mesh import MeshGeometry
from repro.noc.topology import (
    Direction,
    MeshTopology,
    PORT_CODES,
    PORT_DIRECTIONS,
)

#: Tie-break rank of each direction in :meth:`RoutingAlgorithm.select`
#: (the earlier direction wins a weight tie).
_TIE_RANK = {d: i for i, d in enumerate(Direction)}

#: Entry of :meth:`RoutingAlgorithm.forced_hops` where the policy
#: chooses among several directions.
FREE_HOP = -1

#: Forced-hop tables keyed by (class defining ``permissible``, mesh).
_FORCED_TABLES: Dict[Tuple[type, MeshGeometry], np.ndarray] = {}


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


#: The context every router of a context-free policy is handed.
_EMPTY_CONTEXT = RoutingContext()


class FreePairs(NamedTuple):
    """(router, destination) pairs where the policy has a choice, one row
    a pair, with each pair's permissible directions as two *columns* in
    :meth:`RoutingAlgorithm.permissible` order.  A minimal route offers
    at most two directions; unused columns hold -1.

    Link ids are ``tile * len(PORT_DIRECTIONS) + port code`` (see
    :data:`repro.noc.topology.PORT_CODES`).
    """

    cur: np.ndarray
    dst: np.ndarray
    #: ``(p, 2)`` port codes of the columns.
    codes: np.ndarray
    #: ``(p, 2)`` neighbour tile each column leads to.
    tiles: np.ndarray
    #: ``(p, 2)`` outgoing link id of each column.
    links: np.ndarray


class RouterContexts(NamedTuple):
    """The :class:`RoutingContext` of every router at once, as arrays.

    A router's context towards direction ``d`` reads the entry of the
    neighbour tile (``neighbor_data_rate``, ``neighbor_psn_pct``,
    ``neighbor_psn_valid``) or of its outgoing link (``out_link_rho``).
    """

    #: ``(tiles,)`` buffer occupancy of each router.
    occupancy: np.ndarray
    #: ``(tiles,)`` incoming data rate of each router.
    data_rate: np.ndarray
    #: ``(tiles,)`` PSN reading of each tile.
    psn_pct: np.ndarray
    #: ``(tiles,)`` sensor trust per tile, or None when all are valid.
    psn_valid: Optional[np.ndarray]
    #: Utilisation per link id (see :class:`FreePairs`).
    out_rho: np.ndarray

    def context(self, topo: MeshTopology, cur: int) -> RoutingContext:
        """Router ``cur``'s :class:`RoutingContext`, over every mesh
        direction with a neighbour."""
        rates = {}
        noise = {}
        trusted = {}
        out_rho = {}
        ports = len(PORT_DIRECTIONS)
        for d in topo.out_directions(cur):
            n = topo.neighbor(cur, d)
            rates[d] = self.data_rate.item(n)
            noise[d] = self.psn_pct.item(n)
            if self.psn_valid is not None:
                trusted[d] = bool(self.psn_valid[n])
            out_rho[d] = self.out_rho.item(cur * ports + PORT_CODES[d])
        return RoutingContext(
            buffer_occupancy=self.occupancy.item(cur),
            neighbor_data_rate=rates,
            neighbor_psn_pct=noise,
            neighbor_psn_valid=trusted,
            out_link_rho=out_rho,
        )


def soft_argmin_columns(metric: np.ndarray, out_rho: np.ndarray) -> np.ndarray:
    """PANR's and ICON's weights as arrays: ``1 / (m - min m + 0.4) ** 2``
    per column, gated by ``max(0.05, 1 - rho)``.

    The squares are Python ``**`` (C ``pow``), as in ``weights``:
    ``np.power(x, 2.0)`` rounds like ``x * x``, which differs from
    ``pow`` in the last bit for some ``x``.  Every other step rounds the
    same in NumPy as in Python, so each weight is bit-identical.
    """
    best = metric.min(axis=1, keepdims=True)
    base = (metric - best + 0.4).ravel().tolist()
    squares = np.array([x ** 2 for x in base]).reshape(metric.shape)
    return 1.0 / squares * np.maximum(0.05, 1.0 - out_rho)


def reject_hop(
    routing: "RoutingAlgorithm", cur: int, dst: int, direction: object
) -> NoReturn:
    """Reject a hop that is not one of the policy's permissible minimal
    directions (a non-minimal hop would never reach ``dst``)."""
    raise ValueError(
        f"{routing.name} routing at router {cur} towards {dst} names "
        f"{direction!r}, which is not one of its permissible minimal hops"
    )


def permissible_owner(routing: "RoutingAlgorithm") -> type:
    """The class that defines ``routing``'s :meth:`permissible`: tables
    built from ``permissible`` alone are shared per (owner, mesh)."""
    return next(
        cls for cls in type(routing).__mro__ if "permissible" in vars(cls)
    )


class RoutingAlgorithm(abc.ABC):
    """Base class for minimal mesh routing policies.

    Contract for forced hops: wherever :meth:`permissible` names exactly
    one direction ``D``, :meth:`select` must return ``D`` and
    :meth:`weights` must return ``{D: 1.0}``, whatever the context.
    The NoC models route those hops from :meth:`forced_hops` without
    calling the policy, so a policy that broke the contract would
    behave differently in them than its own :meth:`select` says.
    ``tests/noc/test_forced_hops.py`` checks every shipped policy.
    """

    #: Evaluation name (e.g. ``"XY"``), used in experiment tables.
    name: str = "base"

    #: Whether :meth:`select` ignores the :class:`RoutingContext`, i.e.
    #: the chosen direction is a pure function of ``(cur, dst)``.  The
    #: flit-level engine then fills its per-(tile, destination) route
    #: table with :meth:`select` once instead of calling it per packet.
    #: Defaults to False (safe); a subclass may only set it True when
    #: neither :meth:`weights` nor :meth:`select` reads the context -
    #: and must set it back to False when overriding either with a
    #: context-dependent version.
    context_free: bool = False

    @abc.abstractmethod
    def permissible(
        self, topo: MeshTopology, cur: int, dst: int
    ) -> List[Direction]:
        """Permitted output directions at ``cur`` for a packet to ``dst``.

        Returns an empty list when ``cur == dst`` (eject locally).
        """

    def weights(
        self,
        topo: MeshTopology,
        cur: int,
        dst: int,
        ctx: RoutingContext,
    ) -> Dict[Direction, float]:
        """Traffic-split weights over the permissible directions.

        The default policy is uniform; adaptive schemes override this.
        Weights are positive and need not be normalised.
        """
        dirs = self.permissible(topo, cur, dst)
        return {d: 1.0 for d in dirs}

    def select(
        self,
        topo: MeshTopology,
        cur: int,
        dst: int,
        ctx: RoutingContext,
    ) -> Direction:
        """Single-direction choice (flit-level engine): highest weight
        wins, ties broken by direction order for determinism."""
        weights = self.weights(topo, cur, dst, ctx)
        if not weights:
            return Direction.LOCAL
        return max(weights, key=lambda d: (weights[d], -_TIE_RANK[d]))

    def weight_columns(
        self,
        topo: MeshTopology,
        pairs: FreePairs,
        contexts: Optional[RouterContexts],
    ) -> np.ndarray:
        """:meth:`weights` of many free pairs at once, as a ``(p, 2)``
        array over each pair's columns (0.0 where a column is unused or
        the policy names no weight).

        ``contexts`` is None for a context-free policy.  The default
        calls :meth:`weights` once per pair, with the shared empty
        context or the router's context built from ``contexts``; an
        adaptive policy may override this with array arithmetic that
        gives the same floats.

        Raises:
            ValueError: The weights name a direction outside
                :meth:`permissible` at a pair.
        """
        out = np.zeros(pairs.codes.shape)
        built: Dict[int, RoutingContext] = {}
        for row, (cur, dst, codes) in enumerate(
            zip(pairs.cur.tolist(), pairs.dst.tolist(), pairs.codes.tolist())
        ):
            if contexts is None:
                ctx = _EMPTY_CONTEXT
            else:
                ctx = built.get(cur)
                if ctx is None:
                    ctx = built[cur] = contexts.context(topo, cur)
            for d, w in self.weights(topo, cur, dst, ctx).items():
                code = PORT_CODES.get(d, -1)
                if code < 0 or code not in codes:
                    reject_hop(self, cur, dst, d)
                out[row, codes.index(code)] = w
        return out

    def forced_hops(self, topo: MeshTopology) -> np.ndarray:
        """Read-only ``(n, n)`` int8 table of forced port codes.

        Entry ``[cur, dst]`` is the LOCAL port code where ``cur ==
        dst``, the code of the sole permissible direction where
        :meth:`permissible` names exactly one, and :data:`FREE_HOP`
        where the policy has a choice.  Built from :meth:`permissible`
        alone, once per process for each (class that defines
        :meth:`permissible`, mesh): every policy instance of that class
        shares it, so :meth:`permissible` must read nothing but its
        arguments' mesh and tiles.

        Raises:
            RuntimeError: A forced hop leaves the mesh.
        """
        key = (permissible_owner(self), topo.mesh)
        table = _FORCED_TABLES.get(key)
        if table is None:
            table = self._build_forced_hops(topo)
            _FORCED_TABLES[key] = table
        return table

    def _build_forced_hops(self, topo: MeshTopology) -> np.ndarray:
        mesh = topo.mesh
        local = PORT_CODES[Direction.LOCAL]
        on_mesh = topo.neighbor_codes() >= 0
        rows: List[List[int]] = []
        for cur in mesh.tiles():
            row = []
            for dst in mesh.tiles():
                if cur == dst:
                    row.append(local)
                    continue
                dirs = self.permissible(topo, cur, dst)
                if len(dirs) != 1:
                    row.append(FREE_HOP)
                    continue
                code = PORT_CODES[dirs[0]]
                if not on_mesh[cur, code]:
                    raise RuntimeError(f"route off mesh edge at tile {cur}")
                row.append(code)
            rows.append(row)
        table = np.array(rows, np.int8)
        table.setflags(write=False)
        return table
