"""The array analytical model against the dict-walk oracle, bit for bit.

:class:`analytical_oracle.OracleNocModel` is the flow model as plain
per-flow dict walks.  Every case here compares the canonical report
bytes of both models (router loads, ``link_rho`` values *and* insertion
order, per-flow statistics, the saturation flag) over seeded flow sets:
five policies on two meshes, fault-free, with dead links and routers,
with dead flow endpoints, with untrusted PSN sensors, and with zero-rate
and self flows.  One hand-built case drops the edge that placed a node
first in its level, so the walk order of ``link_rho`` differs from the
plan's.
"""

import numpy as np
import pytest

from analytical_oracle import OracleNocModel
from repro.chip.mesh import MeshGeometry
from repro.noc.analytical import AnalyticalNocModel, Flow
from repro.noc.routing import WestFirstRouting, make_routing
from repro.noc.topology import MESH_DIRECTIONS, Direction, MeshTopology
from test_analytical_golden import canonical_bytes

POLICIES = ("xy", "westfirst", "oddeven", "panr", "icon")
MESHES = {"chip": (10, 6), "mesh6": (6, 6)}
SETTINGS = ("clean", "dead_parts", "dead_endpoints", "untrusted", "degenerate")
SEEDS = (0, 1, 2)


def seeded_case(topo, setting, seed):
    """(flows, evaluate kwargs) of one seeded case."""
    rng = np.random.default_rng([seed, SETTINGS.index(setting)])
    n = topo.mesh.tile_count
    flows = [
        Flow(int(s), int(d), float(r))
        for s, d, r in zip(
            rng.integers(0, n, 48),
            rng.integers(0, n, 48),
            rng.uniform(0.005, 0.12, 48),
        )
    ]
    # A heavy flow saturates the links on its path.
    flows.append(Flow(0, n - 1, 0.7))
    kwargs = {"psn_pct": rng.uniform(0.0, 8.0, n)}
    if setting == "dead_parts":
        links = topo.links()
        picks = rng.choice(len(links), 6, replace=False)
        kwargs["dead_links"] = {links[i] for i in picks}
        dead = rng.choice(n, 2, replace=False)
        kwargs["dead_routers"] = {int(t) for t in dead}
    elif setting == "dead_endpoints":
        dead = {flows[0].src, flows[1].dst, flows[2].src}
        kwargs["dead_routers"] = dead
    elif setting == "untrusted":
        kwargs["psn_valid"] = rng.random(n) > 0.3
    elif setting == "degenerate":
        flows += [Flow(3, 3, 0.2), Flow(1, n - 2, 0.0), Flow(n - 1, 0, 0.0)]
        flows = [flows[-3]] + flows + [flows[-2]]
    return flows, kwargs


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("policy", POLICIES)
def test_report_bytes_match_oracle(policy, mesh_name, setting):
    topo = MeshTopology(MeshGeometry(*MESHES[mesh_name]))
    model = AnalyticalNocModel(topo, make_routing(policy))
    oracle = OracleNocModel(topo, make_routing(policy))
    for seed in SEEDS:
        flows, kwargs = seeded_case(topo, setting, seed)
        got = model.evaluate(flows, **kwargs)
        want = oracle.evaluate(flows, **kwargs)
        assert canonical_bytes(got) == canonical_bytes(want), seed


def test_cases_reach_every_branch():
    """The seeded cases block flows, saturate links and fall back to XY."""
    topo = MeshTopology(MeshGeometry(*MESHES["chip"]))
    model = AnalyticalNocModel(topo, make_routing("panr"))
    reports = {}
    for setting in SETTINGS:
        flows, kwargs = seeded_case(topo, setting, 0)
        reports[setting] = model.evaluate(flows, **kwargs)
    assert reports["dead_parts"].unroutable_flow_indices
    assert reports["dead_endpoints"].unroutable_flow_indices
    assert not reports["clean"].unroutable_flow_indices
    assert all(r.saturated for r in reports.values())
    flows, kwargs = seeded_case(topo, "untrusted", 0)
    trusted = model.evaluate(flows, psn_pct=kwargs["psn_pct"])
    assert reports["untrusted"].link_rho != trusted.link_rho


class FlippedWestFirst(WestFirstRouting):
    """West-first that lists its two choices in reverse at odd tiles."""

    def permissible(self, topo, cur, dst):
        dirs = super().permissible(topo, cur, dst)
        return dirs[::-1] if cur % 2 else dirs


def test_dropped_first_edge_reorders_its_level():
    """Flow 0 -> 6 on a 4x4 mesh: level 2 is [5, 2] when tile 1 sends
    south first, but with link (1, SOUTH) dead tile 2 arrives first, so
    link (2, SOUTH) is touched before (5, EAST)."""
    topo = MeshTopology(MeshGeometry(4, 4))
    flows = [Flow(0, 6, 0.1), Flow(0, 6, 0.05)]
    dead = {(1, Direction.SOUTH)}
    model = AnalyticalNocModel(topo, FlippedWestFirst())
    oracle = OracleNocModel(topo, FlippedWestFirst())
    clean = list(oracle.evaluate(flows).link_rho)
    faulty = oracle.evaluate(flows, dead_links=dead)
    kept = [link for link in clean if link in faulty.link_rho]
    assert kept != list(faulty.link_rho)
    assert list(faulty.link_rho).index((2, Direction.SOUTH)) < list(
        faulty.link_rho
    ).index((5, Direction.EAST))
    got = model.evaluate(flows, dead_links=dead)
    assert canonical_bytes(got) == canonical_bytes(faulty)
    assert canonical_bytes(model.evaluate(flows)) == canonical_bytes(
        oracle.evaluate(flows)
    )


def test_every_link_of_a_full_load():
    """One flow between every ordered pair of a 4x4 mesh, under PANR
    with a sensor mask: all directions carry traffic."""
    topo = MeshTopology(MeshGeometry(4, 4))
    n = topo.mesh.tile_count
    rng = np.random.default_rng(5)
    flows = [
        Flow(s, d, float(r))
        for (s, d), r in zip(
            [(s, d) for s in range(n) for d in range(n)],
            rng.uniform(0.0, 0.01, n * n),
        )
    ]
    kwargs = dict(psn_pct=rng.uniform(0, 8, n), psn_valid=rng.random(n) > 0.2)
    model = AnalyticalNocModel(topo, make_routing("panr"))
    got = model.evaluate(flows, **kwargs)
    want = OracleNocModel(topo, make_routing("panr")).evaluate(flows, **kwargs)
    assert canonical_bytes(got) == canonical_bytes(want)
    assert len(got.link_rho) == len(topo.links())
    assert {d for _, d in got.link_rho} == set(MESH_DIRECTIONS)
