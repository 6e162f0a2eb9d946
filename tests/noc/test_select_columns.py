"""PANR's and ICON's array selection equals their scalar ``select``, row
by row.

The flit-level engine makes all of a cycle's free head-flit decisions
with one :meth:`RoutingAlgorithm.select_columns` call: one
``weight_columns`` call and an arg-max in which the lower port code
wins a tie.  These tests compare it with ``routing_oracle.select`` on
the :class:`RoutingContext` ``routing_oracle.pair_context`` builds for
every decision, over every free pair of three meshes and seeded
contexts built to sit on every decision edge: exact weight ties,
adjacent floats (``np.nextafter``), occupancy exactly at PANR's
threshold, and outgoing utilisation on both sides of the
``max(0.05, 1 - rho)`` gate.
"""

import numpy as np
import pytest

from repro.chip.mesh import MeshGeometry
from repro.noc.routing import IconRouting, PanrRouting
from repro.noc.routing.base import FreePairs, RouterContexts
from repro.noc.topology import PORT_CODES, MeshTopology
from routing_oracle import pair_context, select, weights

POLICIES = {
    "panr-b0": lambda: PanrRouting(buffer_threshold=0.0),
    "panr-b0.5": lambda: PanrRouting(buffer_threshold=0.5),
    "panr-b1": lambda: PanrRouting(buffer_threshold=1.0),
    "icon": IconRouting,
}

MESHES = [(4, 4), (8, 8), (10, 6)]


def free_pairs(topo, routing, reps):
    """Every free pair of the mesh, ``reps`` times, laid out as the
    engine lays out one cycle: each row its own input channel, each
    column its own link entry."""
    table = routing.free_hops(topo)
    cur, dst = np.nonzero(table[:, :, 0] >= 0)
    cur = np.tile(cur, reps)
    dst = np.tile(dst, reps)
    codes = table[cur, dst]
    nbr = topo.neighbor_codes()
    rows = len(cur)
    return FreePairs(
        cur=cur,
        dst=dst,
        codes=codes,
        tiles=nbr[cur[:, None], codes],
        links=np.arange(2 * rows).reshape(rows, 2),
        inputs=np.arange(rows),
    )


def edge_contexts(pairs, n_tiles, seed, threshold):
    """Per-tile rates and PSN drawn from a small pool and its float
    neighbours, so that the two columns of a pair tie exactly or differ
    by one ulp; per-row occupancy at and around ``threshold``; per-link
    utilisation at, above and just below the 0.95 gate knee."""
    rng = np.random.default_rng(seed)
    pool = rng.uniform(0.0, 12.0, 5)
    pool = np.concatenate(
        [pool, np.nextafter(pool, np.inf), np.nextafter(pool, -np.inf), [0.0]]
    )
    knee = 0.95
    rho_pool = np.array(
        [0.0, 0.3, 0.9, np.nextafter(knee, 0.0), knee,
         np.nextafter(knee, 1.0), 0.97, 1.0]
    )
    occupancy_pool = np.array(
        [0.0, 0.125, 0.5, 0.875, 1.0, threshold,
         np.nextafter(threshold, -1.0), np.nextafter(threshold, 2.0)]
    )
    rows = len(pairs.cur)
    return RouterContexts(
        occupancy=rng.choice(occupancy_pool, rows),
        data_rate=rng.choice(pool, n_tiles),
        psn_pct=rng.choice(pool, n_tiles),
        psn_valid=None,
        out_rho=rng.choice(rho_pool, 2 * rows),
    )


@pytest.mark.parametrize("shape", MESHES)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_select_columns_equals_select(policy, shape):
    topo = MeshTopology(MeshGeometry(*shape))
    routing = POLICIES[policy]()
    threshold = getattr(routing, "buffer_threshold", 0.5)
    pairs = free_pairs(topo, routing, reps=3)
    ties = at_threshold = gated = 0
    for seed in range(6):
        contexts = edge_contexts(
            pairs, topo.mesh.tile_count, seed, threshold
        )
        got = routing.select_columns(topo, pairs, contexts)
        for row in range(len(pairs.cur)):
            cur, dst = int(pairs.cur[row]), int(pairs.dst[row])
            ctx = pair_context(contexts, pairs, row)
            want = select(routing, topo, cur, dst, ctx)
            assert got[row] == PORT_CODES[want], (seed, row)
            w = list(weights(routing, topo, cur, dst, ctx).values())
            ties += w[0] == w[1]
            at_threshold += ctx.buffer_occupancy == threshold
            gated += min(ctx.out_link_rho.values()) >= 0.95
    # The seeded contexts reach every decision edge.
    assert ties > 0 and at_threshold > 0 and gated > 0


class FlippedIcon(IconRouting):
    """ICON that lists its two choices in reverse at odd tiles."""

    def permissible(self, topo, cur, dst):
        dirs = super().permissible(topo, cur, dst)
        return dirs[::-1] if cur % 2 else dirs


def test_tie_goes_to_the_lower_port_code():
    # Equal weights pick the lower port code whichever column holds
    # it, as select's rule does.
    topo = MeshTopology(MeshGeometry(4, 4))
    routing = FlippedIcon()
    pairs = free_pairs(topo, routing, reps=1)
    order = pairs.codes[:, 0] < pairs.codes[:, 1]
    assert order.any() and not order.all()
    rows = len(pairs.cur)
    contexts = RouterContexts(
        occupancy=np.zeros(rows),
        data_rate=np.full(topo.mesh.tile_count, 0.25),
        psn_pct=np.zeros(topo.mesh.tile_count),
        psn_valid=None,
        out_rho=np.zeros(2 * rows),
    )
    got = routing.select_columns(topo, pairs, contexts)
    assert np.array_equal(got, pairs.codes.min(axis=1))
    for row in range(rows):
        ctx = pair_context(contexts, pairs, row)
        want = select(routing, topo, pairs.cur[row], pairs.dst[row], ctx)
        assert got[row] == PORT_CODES[want]

