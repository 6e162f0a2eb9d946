#!/usr/bin/env python
"""Bring your own application: profile it, map it, and watch its flits.

Shows the full user-facing pipeline on a custom benchmark spec:

1. define a :class:`BenchmarkSpec` for an imaginary streaming workload;
2. run "offline profiling" (:func:`build_profile`) to get WCET/power at
   every (Vdd, DoP) operating point;
3. let PARM choose an operating point and placement;
4. replay the mapped application's traffic on the flit-level
   cycle-accurate NoC simulator under XY and PANR routing, and compare
   packet latencies and the traffic that crosses the noisy tiles.

Run:  python examples/custom_benchmark.py
"""

import numpy as np

from repro.apps.profiles import AppKind, BenchmarkSpec, build_profile
from repro.chip import default_chip
from repro.core import ParmManager
from repro.noc import BatchedNocEngine, TrafficFlow
from repro.noc.routing import make_routing
from repro.pdn.fast import FastPsnModel
from repro.pdn.waveforms import TileLoad
from repro.runtime.state import ChipState

SPEC = BenchmarkSpec(
    name="videostream",
    kind=AppKind.COMMUNICATION,
    work_gcycles=0.5,
    serial_fraction=0.04,
    high_fraction=0.5,
    total_comm_mb=1600.0,
    seed=7,
)


def main():
    chip = default_chip()
    print(f"Custom benchmark: {SPEC.name} ({SPEC.kind.value}), "
          f"{SPEC.work_gcycles} Gcycles, {SPEC.total_comm_mb:.0f} MB of traffic")

    profile = build_profile(SPEC, tech=chip.tech)
    print("\nOffline profile (WCET ms / power W):")
    print("         " + "  ".join(f"DoP={d:<3d}" for d in (8, 16, 32)))
    for vdd in (0.4, 0.6, 0.8):
        cells = "  ".join(
            f"{profile.wcet_s(vdd, d) * 1e3:4.0f}/{profile.power_w(vdd, d):4.1f}"
            for d in (8, 16, 32)
        )
        print(f"  {vdd:.1f} V  {cells}")

    decision = ParmManager().try_map(profile, deadline_s=0.6, state=ChipState(chip))
    assert decision is not None, "mapping failed"
    print(f"\nPARM decision: Vdd={decision.vdd:.1f} V, DoP={decision.dop}, "
          f"power={decision.power_w:.1f} W")

    # Per-tile PSN of the mapped region (what PANR's sensors will see).
    graph = profile.graph(decision.dop)
    psn = np.zeros(chip.tile_count)
    model = FastPsnModel()
    power_model = chip.power_model
    tile_task = {tile: task for task, tile in decision.task_to_tile.items()}
    for domain in {chip.domains.domain_of(t) for t in decision.tiles}:
        loads = []
        for tile in chip.domains.tiles_of(domain):
            task_id = tile_task.get(tile)
            if task_id is None:
                loads.append(TileLoad.idle())
                continue
            task = graph.task(task_id)
            core = power_model.core_dynamic(
                task.activity_factor, decision.vdd
            ) + power_model.core_leakage(decision.vdd)
            loads.append(TileLoad(core, 0.05, task.activity_bin))
        peak, _ = model.domain_psn(decision.vdd, loads)
        for i, tile in enumerate(chip.domains.tiles_of(domain)):
            psn[tile] = peak[i]
    noisy = [t for t in np.argsort(psn)[-4:] if psn[t] > 0]
    print(f"noisiest tiles: {[int(t) for t in noisy]} "
          f"({', '.join(f'{psn[t]:.1f}%' for t in noisy)})")

    # Replay the APG's flows on the cycle-accurate NoC.
    freq = power_model.frequency(decision.vdd)
    cycles_total = profile.wcet_s(decision.vdd, decision.dop) * freq
    flows = []
    for src, dst, volume in graph.edges():
        a, b = decision.task_to_tile[src], decision.task_to_tile[dst]
        if a == b:
            continue
        flows.append(TrafficFlow(a, b, rate=(volume / 4.0) / cycles_total))
    print(f"\nReplaying {len(flows)} flows on the cycle-accurate NoC "
          f"(10000 cycles):")
    for routing_name in ("xy", "panr"):
        sim = BatchedNocEngine(
            chip.mesh, make_routing(routing_name), psn_pct=psn
        )
        (stats,) = sim.run([flows], 10000)
        crossing = sum(stats.router_flits_per_cycle[t] for t in noisy)
        print(
            f"  {routing_name.upper():>4s}: avg latency "
            f"{stats.avg_packet_latency:6.1f} cycles, p95 "
            f"{stats.p95_packet_latency:6.1f}, traffic through noisy tiles "
            f"{crossing:.2f} flits/cycle"
        )


if __name__ == "__main__":
    main()
