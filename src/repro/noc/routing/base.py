"""Routing algorithm interface shared by the flit-level and analytical
NoC models.

A routing algorithm answers two questions at each router:

* ``permissible(cur, dst)`` - which output directions keep the route
  minimal and deadlock-free;
* :meth:`RoutingAlgorithm.weight_columns` - how to distribute traffic
  over those directions given each router's local view (buffer
  occupancy, neighbour data rates, neighbour PSN sensor readings), for
  many (router, destination) pairs at once.  The default is uniform; an
  adaptive policy overrides it.

The analytical model (:mod:`repro.noc.analytical`) splits flows
fractionally by the weights; the flit-level engine
(:mod:`repro.noc.batch`) picks the argmax-weight direction per packet,
a cycle's decisions at once through
:meth:`RoutingAlgorithm.select_columns`, so both models express one
policy.  Where ``permissible`` leaves a single direction there is
nothing to choose: both models route such *forced* hops from
:meth:`RoutingAlgorithm.forced_hops` and ask the policy only where it
has a choice.
"""

from __future__ import annotations

import abc
from typing import Dict, List, NamedTuple, NoReturn, Optional, Tuple

import numpy as np

from repro.chip.mesh import MeshGeometry
from repro.noc.topology import Direction, MeshTopology, PORT_CODES

#: Entry of :meth:`RoutingAlgorithm.forced_hops` where the policy
#: chooses among several directions.
FREE_HOP = -1

#: Forced-hop and free-hop tables keyed by (class defining
#: ``permissible``, mesh).
_FORCED_TABLES: Dict[Tuple[type, MeshGeometry], np.ndarray] = {}
_FREE_TABLES: Dict[Tuple[type, MeshGeometry], np.ndarray] = {}


class FreePairs(NamedTuple):
    """(router, destination) pairs where the policy has a choice, one row
    a pair, with each pair's permissible directions as two *columns* in
    :meth:`RoutingAlgorithm.permissible` order.  A minimal route offers
    at most two directions; unused columns hold -1.

    ``tiles``, ``links`` and ``inputs`` say which entry of each
    :class:`RouterContexts` array a pair reads.  The analytical model
    passes tile ids, link ids (``tile * len(PORT_DIRECTIONS) + port
    code``, see :data:`repro.noc.topology.PORT_CODES`) and the router
    itself; the flit-level engine passes its own per-call layout.
    """

    cur: np.ndarray
    dst: np.ndarray
    #: ``(p, 2)`` port codes of the columns.
    codes: np.ndarray
    #: ``(p, 2)`` entry of the neighbour each column leads to, in
    #: ``data_rate``, ``psn_pct`` and ``psn_valid``.
    tiles: np.ndarray
    #: ``(p, 2)`` entry of each column's outgoing link in ``out_rho``.
    links: np.ndarray
    #: ``(p,)`` entry of the input channel deciding the pair in
    #: ``occupancy``.
    inputs: np.ndarray


class RouterContexts(NamedTuple):
    """The local view of many routing decisions at once, as arrays.

    A pair's view towards a column's direction reads the column's
    ``tiles`` entry (``data_rate``, ``psn_pct``, ``psn_valid``) or its
    ``links`` entry (``out_rho``); its buffer occupancy reads its
    ``inputs`` entry (see :class:`FreePairs`).
    """

    #: Buffer occupancy of each input channel.
    occupancy: np.ndarray
    #: Incoming data rate of each neighbour entry.
    data_rate: np.ndarray
    #: PSN reading of each neighbour entry.
    psn_pct: np.ndarray
    #: Sensor trust of each neighbour entry, or None when all are valid.
    psn_valid: Optional[np.ndarray]
    #: Utilisation of each link entry.
    out_rho: np.ndarray


def soft_argmin_columns(metric: np.ndarray, out_rho: np.ndarray) -> np.ndarray:
    """PANR's and ICON's weights: ``1 / (m - min m + 0.4) ** 2`` per
    column, gated by ``max(0.05, 1 - rho)``.

    The squares are Python ``**`` (C ``pow``), as in the scalar
    reference model the test suite keeps: ``np.power(x, 2.0)`` rounds
    like ``x * x``, which differs from ``pow`` in the last bit for some
    ``x``.  Every other step rounds the same in NumPy as in Python, so
    each weight is bit-identical to the reference.
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

    A policy states :meth:`permissible` and, only if it is adaptive,
    overrides :meth:`weight_columns`.  Where :meth:`permissible` names
    exactly one direction, the NoC models route from :meth:`forced_hops`
    and never ask the policy.
    """

    #: Evaluation name (e.g. ``"XY"``), used in experiment tables.
    name: str = "base"

    @property
    def context_free(self) -> bool:
        """Whether the policy's choices ignore the router contexts: true
        exactly when it overrides neither :meth:`weight_columns` nor
        :meth:`select_columns`.  Its uniform weights then make every
        choice a pure function of ``(cur, dst)``, so the flit-level
        engine fills its route table once and the analytical model
        propagates once."""
        cls = type(self)
        return (
            cls.weight_columns is RoutingAlgorithm.weight_columns
            and cls.select_columns is RoutingAlgorithm.select_columns
        )

    @abc.abstractmethod
    def permissible(
        self, topo: MeshTopology, cur: int, dst: int
    ) -> List[Direction]:
        """Permitted output directions at ``cur`` for a packet to ``dst``.

        Returns an empty list when ``cur == dst`` (eject locally).
        """

    def weight_columns(
        self,
        topo: MeshTopology,
        pairs: FreePairs,
        contexts: Optional[RouterContexts],
    ) -> np.ndarray:
        """Traffic-split weights of many free pairs at once, as a
        ``(p, 2)`` array over each pair's columns (0.0 where a column is
        unused).  Weights are non-negative and need not be normalised.

        ``contexts`` is None exactly for a :attr:`context_free` policy.
        The default is uniform; adaptive schemes override this.
        """
        return np.where(pairs.codes >= 0, 1.0, 0.0)

    def select_columns(
        self,
        topo: MeshTopology,
        pairs: FreePairs,
        contexts: Optional[RouterContexts],
    ) -> np.ndarray:
        """Single-direction choices of many free pairs at once: the
        ``(p,)`` port code chosen at each pair, every pair offering two
        columns.

        The larger :meth:`weight_columns` weight wins and the lower port
        code breaks a tie, for determinism.
        """
        w = self.weight_columns(topo, pairs, contexts)
        codes = pairs.codes
        second = (w[:, 1] > w[:, 0]) | (
            (w[:, 1] == w[:, 0]) & (codes[:, 1] < codes[:, 0])
        )
        return np.where(second, codes[:, 1], codes[:, 0])

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

    def free_hops(self, topo: MeshTopology) -> np.ndarray:
        """Read-only ``(n, n, 2)`` int8 table of free hops' port codes.

        Entry ``[cur, dst]`` holds the two directions
        :meth:`permissible` names, in its order, where
        :meth:`forced_hops` holds :data:`FREE_HOP`, and -1 elsewhere.
        Built and shared like :meth:`forced_hops`.

        Raises:
            ValueError: ``permissible`` names other than two directions
                where it leaves a choice.
        """
        key = (permissible_owner(self), topo.mesh)
        table = _FREE_TABLES.get(key)
        if table is None:
            forced = self.forced_hops(topo)
            n = topo.mesh.tile_count
            table = np.full((n, n, 2), -1, np.int8)
            for cur, dst in np.argwhere(forced == FREE_HOP).tolist():
                dirs = self.permissible(topo, cur, dst)
                if len(dirs) != 2:
                    raise ValueError(
                        f"{self.name} routing at router {cur} towards "
                        f"{dst} offers {len(dirs)} hops; a choice is "
                        "between two"
                    )
                table[cur, dst] = [PORT_CODES[d] for d in dirs]
            table.setflags(write=False)
            _FREE_TABLES[key] = table
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
