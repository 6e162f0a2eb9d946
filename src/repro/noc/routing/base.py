"""Routing algorithm interface shared by the flit-level and analytical
NoC models.

A routing algorithm answers two questions at each router:

* ``permissible(cur, dst)`` - which output directions keep the route
  minimal and deadlock-free;
* ``weights(cur, dst, ctx)`` - how to distribute traffic over those
  directions given the router's local view (buffer occupancy, neighbour
  data rates, neighbour PSN sensor readings).

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
from typing import Dict, List, Tuple

import numpy as np

from repro.chip.mesh import MeshGeometry
from repro.noc.topology import Direction, MeshTopology, PORT_CODES

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
        owner = next(
            cls for cls in type(self).__mro__ if "permissible" in vars(cls)
        )
        key = (owner, topo.mesh)
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
