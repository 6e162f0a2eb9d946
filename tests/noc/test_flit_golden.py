"""Golden digests of flit-level NoC runs.

Each case is one :class:`BatchedNocEngine` batch: one routing policy on
one mesh under one PSN setting, with six lanes that cross three
injection rates (below, near and past XY saturation on that mesh) with
two traffic seeds.  The SHA-256 of every lane's canonical
:class:`NocSimStats` bytes is pinned, so any change to the engine's
arbitration, injection arithmetic, route decisions or data-rate window
fails here.  The live equivalence suites compare the engine against the
``cycle_oracle`` reference; these digests also catch a change that
moves both together (a ``routing.select`` edit, say).  When the digests
were generated, every lane was asserted equal to the oracle's run of
the same traffic and PSN field; a speed-up must reproduce them, never
re-pin them.

The engine takes one PSN field for all its lanes, so the "lanes"
setting, which gives every lane its own field, runs each lane as a
one-lane engine.  Batch lanes are identical to one-lane runs
(``test_batch_engine.py``), so these are the digests of the per-lane
batch they were generated from.
"""

import hashlib
import json

import numpy as np
import pytest

from noc_oracle import POLICIES, band_psn, uniform_flows
from repro.chip.mesh import MeshGeometry
from repro.noc.batch import BatchedNocEngine
from repro.noc.routing import make_routing

#: Mesh name -> ((width, height), (below, near, past) XY saturation
#: injection rates in flits/cycle per tile); "chip" is the paper's
#: 10x6 platform.  Under XY, uniform traffic saturates at about 0.45
#: flits/cycle per tile on 4x4 and about 0.27 on 8x8 and 10x6.
MESHES = {
    "mesh4": ((4, 4), (0.1, 0.45, 0.8)),
    "mesh8": ((8, 8), (0.1, 0.27, 0.5)),
    "chip": ((10, 6), (0.1, 0.27, 0.5)),
}

SEEDS = (1, 2)

CYCLES = 300

PSN_SETTINGS = ("zero", "band", "lanes")

GOLDEN = {
    ("xy", "chip", "zero"): "256afaae87d3f49612b2f602eef25015bbbfb66ffb867b62a9a8375c366d38ba",
    ("xy", "chip", "band"): "256afaae87d3f49612b2f602eef25015bbbfb66ffb867b62a9a8375c366d38ba",
    ("xy", "chip", "lanes"): "256afaae87d3f49612b2f602eef25015bbbfb66ffb867b62a9a8375c366d38ba",
    ("xy", "mesh4", "zero"): "f8f308466f866a3d818c2bda7e3b941e4074efa26ddff18788bba17f8e55f12a",
    ("xy", "mesh4", "band"): "f8f308466f866a3d818c2bda7e3b941e4074efa26ddff18788bba17f8e55f12a",
    ("xy", "mesh4", "lanes"): "f8f308466f866a3d818c2bda7e3b941e4074efa26ddff18788bba17f8e55f12a",
    ("xy", "mesh8", "zero"): "9a8674c84d2a927540d5b94244c5ae996b3485ce5c804c3a3af975ac230f3c62",
    ("xy", "mesh8", "band"): "9a8674c84d2a927540d5b94244c5ae996b3485ce5c804c3a3af975ac230f3c62",
    ("xy", "mesh8", "lanes"): "9a8674c84d2a927540d5b94244c5ae996b3485ce5c804c3a3af975ac230f3c62",
    ("west-first", "chip", "zero"): "256afaae87d3f49612b2f602eef25015bbbfb66ffb867b62a9a8375c366d38ba",
    ("west-first", "chip", "band"): "256afaae87d3f49612b2f602eef25015bbbfb66ffb867b62a9a8375c366d38ba",
    ("west-first", "chip", "lanes"): "256afaae87d3f49612b2f602eef25015bbbfb66ffb867b62a9a8375c366d38ba",
    ("west-first", "mesh4", "zero"): "f8f308466f866a3d818c2bda7e3b941e4074efa26ddff18788bba17f8e55f12a",
    ("west-first", "mesh4", "band"): "f8f308466f866a3d818c2bda7e3b941e4074efa26ddff18788bba17f8e55f12a",
    ("west-first", "mesh4", "lanes"): "f8f308466f866a3d818c2bda7e3b941e4074efa26ddff18788bba17f8e55f12a",
    ("west-first", "mesh8", "zero"): "9a8674c84d2a927540d5b94244c5ae996b3485ce5c804c3a3af975ac230f3c62",
    ("west-first", "mesh8", "band"): "9a8674c84d2a927540d5b94244c5ae996b3485ce5c804c3a3af975ac230f3c62",
    ("west-first", "mesh8", "lanes"): "9a8674c84d2a927540d5b94244c5ae996b3485ce5c804c3a3af975ac230f3c62",
    ("odd-even", "chip", "zero"): "6e6076898896baf91f35c011453ca0328f31bf7761573368553176f346f34cd9",
    ("odd-even", "chip", "band"): "6e6076898896baf91f35c011453ca0328f31bf7761573368553176f346f34cd9",
    ("odd-even", "chip", "lanes"): "6e6076898896baf91f35c011453ca0328f31bf7761573368553176f346f34cd9",
    ("odd-even", "mesh4", "zero"): "d7d75d982a79ef5b54ef2300cf0a38913383cfce67ccafcfcc1521d4969a4f5e",
    ("odd-even", "mesh4", "band"): "d7d75d982a79ef5b54ef2300cf0a38913383cfce67ccafcfcc1521d4969a4f5e",
    ("odd-even", "mesh4", "lanes"): "d7d75d982a79ef5b54ef2300cf0a38913383cfce67ccafcfcc1521d4969a4f5e",
    ("odd-even", "mesh8", "zero"): "75db7c4f3f3e151f0609c7bd18b70a6ff3cf235084729159d22613d652962268",
    ("odd-even", "mesh8", "band"): "75db7c4f3f3e151f0609c7bd18b70a6ff3cf235084729159d22613d652962268",
    ("odd-even", "mesh8", "lanes"): "75db7c4f3f3e151f0609c7bd18b70a6ff3cf235084729159d22613d652962268",
    ("icon", "chip", "zero"): "71b7261a3f8a091507a073b549d00173a5f824e9b37d9a3c57d529285b55180c",
    ("icon", "chip", "band"): "71b7261a3f8a091507a073b549d00173a5f824e9b37d9a3c57d529285b55180c",
    ("icon", "chip", "lanes"): "71b7261a3f8a091507a073b549d00173a5f824e9b37d9a3c57d529285b55180c",
    ("icon", "mesh4", "zero"): "c3ffc668e7fcefedaa5a643bece32e8cbeb2a0bbb0ed9c432ff1dede0c0e3858",
    ("icon", "mesh4", "band"): "c3ffc668e7fcefedaa5a643bece32e8cbeb2a0bbb0ed9c432ff1dede0c0e3858",
    ("icon", "mesh4", "lanes"): "c3ffc668e7fcefedaa5a643bece32e8cbeb2a0bbb0ed9c432ff1dede0c0e3858",
    ("icon", "mesh8", "zero"): "0ec445a801e26a37ef41088507461fe8d444383c16ee7d876121627a5ba0ff36",
    ("icon", "mesh8", "band"): "0ec445a801e26a37ef41088507461fe8d444383c16ee7d876121627a5ba0ff36",
    ("icon", "mesh8", "lanes"): "0ec445a801e26a37ef41088507461fe8d444383c16ee7d876121627a5ba0ff36",
    ("panr", "chip", "zero"): "c48612ff85a1c82e43490fe333e7f1b24af420f1e9982e8ece0a6223431cc707",
    ("panr", "chip", "band"): "91e20baed24f1fa03298daf6701bbd16caead37a5ed9b71e6bfb5d1d0c11a148",
    ("panr", "chip", "lanes"): "8e037c6fbdcd760179b1d9a9ebcfabce36452932c8a6940f84947e0547dbc151",
    ("panr", "mesh4", "zero"): "74b9453681b8f520f484a0b091cc6fa155d9711b13834a27060401ee2fd31231",
    ("panr", "mesh4", "band"): "1a921967305ea91a85f13949806f5ccf53642ea6a94e5139cf29789f56fcdd8b",
    ("panr", "mesh4", "lanes"): "75bc61cd29e2c6db88c4288b3ef3cd1d429e94e4ff0075a4724a88baf320030e",
    ("panr", "mesh8", "zero"): "5ce867de84ef7bf5816470ab3fa237a48607d5a25b02bd436014b35b868b539f",
    ("panr", "mesh8", "band"): "0e34241bf8999c888467bef8e02c84455854cd4f10cb55ff0d3a321564937815",
    ("panr", "mesh8", "lanes"): "e592d27bba24d33436064223bc7073d001d5cc302ecdeaa4024c84285dc3d5d6",
}


def psn_field(setting, mesh, n_lanes):
    """``psn_pct`` of a case: none, one shared field or one per lane."""
    if setting == "zero":
        return None
    if setting == "band":
        return band_psn(mesh)
    return np.stack([
        np.roll(band_psn(mesh), lane * mesh.width) + 0.5 * lane
        for lane in range(n_lanes)
    ])


def lane_flows(mesh, rates):
    """Rate-major x seed lane traffic."""
    return [
        uniform_flows(mesh, rate, seed=seed)
        for rate in rates
        for seed in SEEDS
    ]


def canonical_bytes(stats) -> bytes:
    """Exact serialisation of one lane's stats."""
    head = json.dumps(
        [
            stats.cycles,
            stats.packets_injected,
            stats.packets_delivered,
            stats.flits_delivered,
            stats.packet_latencies,
        ],
        separators=(",", ":"),
    )
    return head.encode() + b"|" + stats.router_flits_per_cycle.tobytes()


def run_case(policy, mesh_name, setting):
    """The lane stats of one golden case."""
    (width, height), rates = MESHES[mesh_name]
    mesh = MeshGeometry(width, height)
    flows = lane_flows(mesh, rates)
    psn = psn_field(setting, mesh, len(flows))
    if setting == "lanes":
        return [
            BatchedNocEngine(mesh, make_routing(policy), psn_pct=field).run(
                [lane], CYCLES
            )[0]
            for lane, field in zip(flows, psn)
        ]
    engine = BatchedNocEngine(
        mesh, make_routing(policy), n_lanes=len(flows), psn_pct=psn
    )
    return engine.run(flows, CYCLES)


def case_digest(lanes) -> str:
    h = hashlib.sha256()
    for stats in lanes:
        h.update(hashlib.sha256(canonical_bytes(stats)).digest())
    return h.hexdigest()


@pytest.mark.parametrize("setting", PSN_SETTINGS)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("policy", POLICIES)
def test_flit_digest(policy, mesh_name, setting):
    lanes = run_case(policy, mesh_name, setting)
    assert case_digest(lanes) == GOLDEN[(policy, mesh_name, setting)]

