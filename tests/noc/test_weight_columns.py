"""PANR's and ICON's array weights equal their ``weights()``, bit for bit.

The analytical model asks :meth:`RoutingAlgorithm.weight_columns` for
every free (router, destination) pair of a propagation at once.  PANR
and ICON override it with array arithmetic; the base default calls
``weights()`` once per pair.  These tests compare the two on seeded
contexts built to sit on every decision edge: exact metric ties,
adjacent floats (``np.nextafter``), occupancy equal to PANR's
threshold, outgoing utilisation at and above 0.95, and untrusted
sensors.
"""

import numpy as np
import pytest

from repro.chip.mesh import MeshGeometry
from repro.noc.routing import IconRouting, PanrRouting
from repro.noc.routing.base import (
    FREE_HOP,
    FreePairs,
    RouterContexts,
    RoutingAlgorithm,
)
from repro.noc.topology import PORT_CODES, PORT_DIRECTIONS, MeshTopology

POLICIES = {
    "panr": PanrRouting,
    "panr-b0": lambda: PanrRouting(buffer_threshold=0.0),
    "panr-b1": lambda: PanrRouting(buffer_threshold=1.0),
    "icon": IconRouting,
}


def free_pairs(topo, routing):
    """Every free pair of the mesh, as the analytical model lays it out."""
    forced = routing.forced_hops(topo)
    nbr = topo.neighbor_codes()
    rows = [
        (cur, dst)
        for cur in topo.mesh.tiles()
        for dst in topo.mesh.tiles()
        if forced[cur, dst] == FREE_HOP
    ]
    codes = np.array(
        [
            [PORT_CODES[d] for d in routing.permissible(topo, cur, dst)]
            for cur, dst in rows
        ]
    )
    cur = np.array([c for c, _ in rows])
    return FreePairs(
        cur=cur,
        dst=np.array([d for _, d in rows]),
        codes=codes,
        tiles=nbr[cur[:, None], codes],
        links=cur[:, None] * len(PORT_DIRECTIONS) + codes,
    )


def edge_contexts(n_tiles, seed, trust):
    """Per-tile values drawn from a small pool and its float neighbours,
    so that neighbouring tiles tie exactly or differ by one ulp."""
    rng = np.random.default_rng(seed)
    pool = rng.uniform(0.0, 12.0, 6)
    pool = np.concatenate(
        [pool, np.nextafter(pool, np.inf), np.nextafter(pool, -np.inf), [0.0]]
    )
    rho_pool = np.array([0.0, 0.3, 0.9, 0.95, np.nextafter(0.95, 1.0), 1.0])
    occupancy = rng.choice(
        [0.0, 0.5, np.nextafter(0.5, 1.0), 0.9, 1.0], n_tiles
    )
    valid = None
    if trust == "untrusted":
        valid = rng.random(n_tiles) > 0.3
    elif trust == "all-valid":
        valid = np.ones(n_tiles, bool)
    return RouterContexts(
        occupancy=occupancy,
        data_rate=rng.choice(pool, n_tiles),
        psn_pct=rng.choice(pool, n_tiles),
        psn_valid=valid,
        out_rho=rng.choice(rho_pool, n_tiles * len(PORT_DIRECTIONS) + 1),
    )


@pytest.mark.parametrize("trust", ["missing", "all-valid", "untrusted"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("shape", [(4, 4), (10, 6)])
def test_array_weights_equal_weights_calls(policy, shape, trust):
    topo = MeshTopology(MeshGeometry(*shape))
    routing = POLICIES[policy]()
    pairs = free_pairs(topo, routing)
    for seed in range(8):
        contexts = edge_contexts(topo.mesh.tile_count, seed, trust)
        got = routing.weight_columns(topo, pairs, contexts)
        want = RoutingAlgorithm.weight_columns(routing, topo, pairs, contexts)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes(), seed


def test_contexts_hit_the_decision_edges():
    """The seeded contexts produce ties, threshold hits and fallbacks."""
    topo = MeshTopology(MeshGeometry(10, 6))
    pairs = free_pairs(topo, PanrRouting())
    ties = threshold = 0
    for seed in range(8):
        ctx = edge_contexts(topo.mesh.tile_count, seed, "untrusted")
        rate = ctx.data_rate[pairs.tiles]
        ties += int(np.sum(rate[:, 0] == rate[:, 1]))
        threshold += int(np.sum(ctx.occupancy[pairs.cur] == 0.5))
        got = PanrRouting().weight_columns(topo, pairs, ctx)
        # XY fallback rows carry one weight of exactly 1.0.
        assert np.any(np.sort(got, axis=1) == [0.0, 1.0])
    assert ties > 0 and threshold > 0


def test_subclass_weights_are_not_bypassed():
    """A PANR subclass with its own weights() gets the per-pair default."""

    class Uniform(PanrRouting):
        def weights(self, topo, cur, dst, ctx):
            return {d: 2.0 for d in self.permissible(topo, cur, dst)}

    topo = MeshTopology(MeshGeometry(4, 4))
    pairs = free_pairs(topo, Uniform())
    ctx = edge_contexts(topo.mesh.tile_count, 0, "missing")
    assert np.all(Uniform().weight_columns(topo, pairs, ctx) == 2.0)
