"""Golden digests of analytical NoC reports.

Each case evaluates seeded flow sets under one routing policy on one
mesh, in three settings: fault-free, one dead link plus one dead
router, and a ``psn_valid`` mask with untrusted readings.  The SHA-256
of the canonical report bytes is pinned, so any change to the model's
floating-point operations, their order or the ``link_rho`` insertion
order fails here.  The digests are those of the plain fixed point (all
iterations for every policy, weights asked per flow and hop); a speed-up
must reproduce them, never re-pin them.
"""

import hashlib

import numpy as np
import pytest

from repro.chip.mesh import MeshGeometry
from repro.noc.analytical import AnalyticalNocModel, Flow, NocLoadReport
from repro.noc.routing import (
    IconRouting,
    OddEvenRouting,
    PanrRouting,
    WestFirstRouting,
    XYRouting,
)
from repro.noc.topology import Direction, MeshTopology

POLICIES = {
    "xy": XYRouting,
    "westfirst": WestFirstRouting,
    "oddeven": OddEvenRouting,
    "panr": PanrRouting,
    "icon": IconRouting,
}

#: Mesh name -> (width, height); "chip" is the paper's 10x6 platform.
MESHES = {"chip": (10, 6), "mesh6": (6, 6)}

FLOW_SEEDS = (0, 1)

GOLDEN = {
    ("chip", "xy"): "008634e267308764de3c64f9a956aa5dba64af4bacd2fcae280fd7f77c7fda21",
    ("chip", "westfirst"): "a7dd31a2a046cfcc2ad3aa1612374e0c91343d2fd6704f7f433a2d13379e5de7",
    ("chip", "oddeven"): "26ab325135a15464b12480a65b246e9cf8aae4541fe6622be994595ccc0e17f7",
    ("chip", "panr"): "b6aae5ab0c237b0e3d3984bfe1a2b0ffe3c98c6d854b42539384ae21399aa2a7",
    ("chip", "icon"): "a475816da0436fa01432ba78a603ea7cb8abccd8547892ad6b04e987580ec69c",
    ("mesh6", "xy"): "e0cf7b1a9063fa00fcc62e7d9a192059d0e7b4daded4763f0dcca34325ebf9d1",
    ("mesh6", "westfirst"): "8496a0f805758fa1fe9ae1ae493c28d3dd77c651f54595dc4b0470d513fa6d26",
    ("mesh6", "oddeven"): "d84912805c2c6c0eb85f89db6b9be81ac3ba7a11924485fcd959b6977b3c6cde",
    ("mesh6", "panr"): "238e6aff61409a824e6745d30c6d1d5a62bd040e4d7287be6d62c307f63d6cb1",
    ("mesh6", "icon"): "633dd44796b916d5ef8003d059499c0adb5fd6dba64e4af8ec2c84003c6eb121",
}


def canonical_bytes(report: NocLoadReport) -> bytes:
    """Exact, order-preserving serialisation of one report."""
    parts = ["routers:" + report.router_flits_per_cycle.tobytes().hex()]
    parts.extend(
        f"link:{tile}:{d.name}:{rho.hex()}"
        for (tile, d), rho in report.link_rho.items()
    )
    parts.extend(
        f"flow:{f.avg_hops.hex()}:{f.header_latency_cycles.hex()}:"
        f"{f.max_rho.hex()}:{f.unroutable}"
        for f in report.flows
    )
    parts.append(f"saturated:{report.saturated}")
    return "\n".join(parts).encode()


def seeded_flows(n_tiles: int, seed: int):
    rng = np.random.default_rng(seed)
    flows = [
        Flow(int(s), int(d), float(r))
        for s, d, r in zip(
            rng.integers(0, n_tiles, 40),
            rng.integers(0, n_tiles, 40),
            rng.uniform(0.005, 0.09, 40),
        )
    ]
    # One heavy flow saturates links on its path; the degenerate flows
    # take the early-exit paths.
    flows.append(Flow(1, n_tiles - 2, 0.65))
    flows.append(Flow(3, 3, 0.05))
    flows.append(Flow(0, n_tiles - 1, 0.0))
    psn = rng.uniform(0.0, 8.0, n_tiles)
    valid = rng.random(n_tiles) > 0.25
    return flows, psn, valid


def case_reports(mesh_name: str, policy: str):
    width, height = MESHES[mesh_name]
    topo = MeshTopology(MeshGeometry(width, height))
    model = AnalyticalNocModel(topo, POLICIES[policy]())
    n = topo.mesh.tile_count
    mid = topo.mesh.tile_at((width // 2, height // 2))
    dead_links = {(mid, Direction.EAST)}
    dead_routers = {topo.mesh.tile_at((width // 2 - 2, height // 2 - 1))}
    for seed in FLOW_SEEDS:
        flows, psn, valid = seeded_flows(n, seed)
        yield model.evaluate(flows, psn_pct=psn)
        yield model.evaluate(
            flows, psn_pct=psn, dead_links=dead_links, dead_routers=dead_routers
        )
        yield model.evaluate(flows, psn_pct=psn, psn_valid=valid)


def case_digest(mesh_name: str, policy: str) -> str:
    h = hashlib.sha256()
    for report in case_reports(mesh_name, policy):
        h.update(canonical_bytes(report))
        h.update(b"\x00")
    return h.hexdigest()


@pytest.mark.parametrize("mesh_name,policy", sorted(GOLDEN))
def test_report_bytes_match_golden(mesh_name, policy):
    assert case_digest(mesh_name, policy) == GOLDEN[(mesh_name, policy)]


def test_golden_covers_every_policy_and_mesh():
    assert set(GOLDEN) == {(m, p) for m in MESHES for p in POLICIES}


def test_cases_exercise_faults_and_untrusted_sensors():
    reports = list(case_reports("chip", "panr"))
    assert any(r.unroutable_flow_indices for r in reports)
    assert any(r.saturated for r in reports)
    assert any(len(r.link_rho) > 40 for r in reports)
