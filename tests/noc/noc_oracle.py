"""Shared helpers of the NoC engine equivalence suites.

``test_noc_engine.py`` (one-lane runs) and ``test_batch_engine.py``
(multi-lane batches) both pin :class:`BatchedNocEngine` against the
:class:`cycle_oracle.CycleNocSimulator` reference with these helpers;
``test_flit_golden.py`` reuses the traffic and PSN helpers.
"""

import numpy as np

from repro.noc import NocSimStats, TrafficFlow

#: Every routing policy the engine must reproduce.
POLICIES = ("xy", "west-first", "odd-even", "icon", "panr")


def uniform_flows(mesh, rate, seed, packet_size=4):
    rng = np.random.default_rng(seed)
    n = mesh.tile_count
    flows = []
    for src in range(n):
        dst = int(rng.integers(0, n - 1))
        if dst >= src:
            dst += 1
        flows.append(TrafficFlow(src, dst, rate, packet_size=packet_size))
    return flows


def band_psn(mesh, hot=12.0, quiet=4.0):
    psn = np.full(mesh.tile_count, quiet)
    for t in range(mesh.tile_count):
        _, y = mesh.coord_of(t)
        if y in (mesh.height // 2 - 1, mesh.height // 2):
            psn[t] = hot
    return psn


def assert_stats_equal(a: NocSimStats, b: NocSimStats):
    assert a.cycles == b.cycles
    assert a.packets_injected == b.packets_injected
    assert type(a.packets_injected) is int
    assert type(b.packets_injected) is int
    assert a.packets_delivered == b.packets_delivered
    assert a.flits_delivered == b.flits_delivered
    assert a.packet_latencies == b.packet_latencies
    assert np.array_equal(a.router_flits_per_cycle, b.router_flits_per_cycle)
