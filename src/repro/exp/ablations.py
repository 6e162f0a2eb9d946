"""Ablation studies for the design choices DESIGN.md calls out.

* **Buffer threshold B** (Section 5.1): the paper set PANR's congestion
  threshold to 50 % "after analyzing the effects of different occupancy
  levels on router throughput, with a cycle-accurate NoC simulator" -
  :func:`buffer_threshold_sweep` is that analysis.
* **DoP cap at 32** (Section 5.1): "beyond which most of the
  applications were observed to have lower performance due to
  communication (synchronization) overheads" - :func:`dop_sweep`.
* **PARM components**: what each ingredient of Algorithm 1+2 buys -
  activity-aware clustering, Vdd adaptation - measured as peak PSN and
  completions on a mixed workload (:func:`parm_component_ablation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.apps.profiles import ApplicationProfile, build_profile
from repro.apps.suite import ProfileLibrary, benchmark
from repro.apps.workload import WorkloadType, generate_workload
from repro.chip.cmp import ChipDescription, default_chip
from repro.chip.mesh import MeshGeometry
from repro.core.base import MappingDecision, ResourceManager
from repro.core.clustering import cluster_tasks
from repro.core.placement import place_clusters
from repro.core.selection import ParmManager
from repro.noc.batch import BatchedNocEngine, TrafficFlow
from repro.noc.routing import PanrRouting, make_routing
from repro.runtime.simulator import RuntimeSimulator
from repro.runtime.state import ChipState


# ----------------------------------------------------------------------
# Buffer-occupancy threshold B
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BufferThresholdRow:
    threshold: float
    avg_latency_cycles: float
    throughput_flits_per_cycle: float
    noisy_traffic_flits_per_cycle: float


def buffer_threshold_sweep(
    thresholds: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    cycles: int = 5000,
) -> List[BufferThresholdRow]:
    """PANR router throughput/latency vs the congestion threshold B.

    Diagonal flows (adaptive direction choice at every hop) cross a
    noisy band under heavy load.  A low B almost always routes by
    congestion and ploughs through the noisy tiles; a high B sticks to
    noisy-tile avoidance even when buffers back up.  The paper picked
    B = 50 % from exactly this throughput analysis.
    """
    mesh = MeshGeometry(8, 8)
    psn = np.zeros(mesh.tile_count)
    # A noisy band across rows 3-4.
    for tile in mesh.tiles():
        x, y = mesh.coord_of(tile)
        if y in (3, 4) and 1 <= x <= 6:
            psn[tile] = 8.0
    flows = [
        TrafficFlow(0, 63, 0.45),
        TrafficFlow(1, 62, 0.45),
        TrafficFlow(2, 61, 0.40),
        TrafficFlow(8, 55, 0.40),
        TrafficFlow(16, 47, 0.35),
    ]
    rows = []
    for threshold in thresholds:
        sim = BatchedNocEngine(
            mesh, PanrRouting(buffer_threshold=threshold), psn_pct=psn
        )
        (stats,) = sim.run([flows], cycles)
        noisy = float(
            sum(
                stats.router_flits_per_cycle[t]
                for t in mesh.tiles()
                if psn[t] > 0
            )
        )
        rows.append(
            BufferThresholdRow(
                threshold=threshold,
                avg_latency_cycles=stats.avg_packet_latency,
                throughput_flits_per_cycle=stats.throughput_flits_per_cycle,
                noisy_traffic_flits_per_cycle=noisy,
            )
        )
    return rows


def print_buffer_threshold(rows: Optional[List[BufferThresholdRow]] = None) -> None:
    rows = rows if rows is not None else buffer_threshold_sweep()
    print("Ablation: PANR buffer-occupancy threshold B (cycle-level NoC)")
    print(
        f"{'B':>5s} {'avg latency':>12s} {'throughput':>11s} "
        f"{'noisy-tile traffic':>19s}"
    )
    for r in rows:
        print(
            f"{r.threshold:>5.1f} {r.avg_latency_cycles:>11.1f}c "
            f"{r.throughput_flits_per_cycle:>10.3f} "
            f"{r.noisy_traffic_flits_per_cycle:>18.2f}"
        )


# ----------------------------------------------------------------------
# DoP cap
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DopRow:
    dop: int
    wcet_s: float


def dop_sweep(
    benchmark_name: str = "fluidanimate",
    vdd: float = 0.6,
    dops: Sequence[int] = (4, 8, 16, 24, 32, 40, 48, 64),
) -> List[DopRow]:
    """WCET vs DoP, extending past the paper's cap of 32.

    Synchronisation overhead grows with thread count, so the curve
    flattens around 32 and turns upward beyond - the basis for limiting
    DoP to 32.
    """
    profile = build_profile(benchmark(benchmark_name), dops=tuple(dops), vdds=(vdd,))
    return [DopRow(dop, profile.wcet_s(vdd, dop)) for dop in dops]


def print_dop_sweep(rows: Optional[List[DopRow]] = None) -> None:
    rows = rows if rows is not None else dop_sweep()
    print("Ablation: WCET vs DoP (sync overhead caps useful parallelism)")
    print(f"{'DoP':>5s} {'WCET':>9s}")
    for r in rows:
        print(f"{r.dop:>5d} {r.wcet_s * 1000:>8.1f}ms")


# ----------------------------------------------------------------------
# PARM component ablation
# ----------------------------------------------------------------------

class ActivityBlindParm(ParmManager):
    """PARM with activity-blind clustering (communication order only)."""

    name = "PARM-noact"

    def try_map(self, profile, deadline_s, state):
        return _variant_map(profile, deadline_s, state, activity_aware=False)


class FixedVddParm(ParmManager):
    """PARM forced to the nominal Vdd (no DVS adaptation)."""

    name = "PARM-novdd"

    def try_map(self, profile, deadline_s, state):
        vdd = state.chip.vdd_ladder.highest
        for dop in sorted(profile.supported_dops, reverse=True):
            if profile.wcet_s(vdd, dop) >= deadline_s:
                break
            from repro.core.mapping import psn_aware_mapping

            decision = psn_aware_mapping(profile, vdd, dop, state)
            if decision is not None:
                return decision
        return None


def _variant_map(
    profile: ApplicationProfile,
    deadline_s: float,
    state: ChipState,
    activity_aware: bool,
) -> Optional[MappingDecision]:
    ladder = state.chip.vdd_ladder
    for vdd in ladder:
        for dop in sorted(profile.supported_dops, reverse=True):
            if profile.wcet_s(vdd, dop) >= deadline_s:
                break
            power = profile.power_w(vdd, dop)
            if power > state.available_power_w():
                continue
            graph = profile.graph(dop)
            clusters = cluster_tasks(graph, activity_aware=activity_aware)
            free = state.free_domains()
            mapping = place_clusters(graph, clusters, free, state.chip.domains)
            if mapping is None:
                continue
            return MappingDecision(
                vdd=vdd, dop=dop, task_to_tile=mapping, power_w=power
            )
    return None


@dataclass(frozen=True)
class ParmAblationRow:
    variant: str
    completed: float
    peak_psn_pct: float
    avg_psn_pct: float
    ve_count: float


def parm_component_ablation(
    n_apps: int = 20,
    seeds: Sequence[int] = (1, 2),
    arrival_interval_s: float = 0.1,
    workload_type: WorkloadType = WorkloadType.MIXED,
    chip: Optional[ChipDescription] = None,
    library: Optional[ProfileLibrary] = None,
) -> List[ParmAblationRow]:
    """Peak PSN / completions for PARM variants with pieces disabled.

    Deadlines are loose so every variant maps every application at its
    preferred operating point - the comparison isolates the mapping
    policy's effect on PSN rather than queueing luck.  ``chip`` /
    ``library`` default to fresh instances; pass shared ones to reuse
    profile and topology caches across report sections.
    """
    chip = chip or default_chip()
    library = library or ProfileLibrary()
    variants: Sequence[ResourceManager] = (
        ParmManager(),
        ActivityBlindParm(),
        FixedVddParm(),
    )
    rows = []
    for manager in variants:
        completed, peak, avg, ves = [], [], [], []
        for seed in seeds:
            workload = generate_workload(
                workload_type,
                arrival_interval_s,
                n_apps=n_apps,
                seed=seed,
                library=library,
                deadline_slack_range=(30.0, 30.0),
            )
            sim = RuntimeSimulator(
                chip, manager, make_routing("panr"), seed=seed + 500
            )
            metrics = sim.run(workload)
            completed.append(metrics.completed_count)
            peak.append(metrics.peak_psn_pct)
            avg.append(metrics.avg_psn_pct)
            ves.append(metrics.total_ve_count)
        rows.append(
            ParmAblationRow(
                variant=manager.name,
                completed=float(np.mean(completed)),
                peak_psn_pct=float(np.mean(peak)),
                avg_psn_pct=float(np.mean(avg)),
                ve_count=float(np.mean(ves)),
            )
        )
    return rows


def print_parm_ablation(rows: Optional[List[ParmAblationRow]] = None) -> None:
    rows = rows if rows is not None else parm_component_ablation()
    print("Ablation: PARM components (mixed workload, PANR routing)")
    print(
        f"{'variant':>12s} {'completed':>10s} {'peak PSN %':>11s} "
        f"{'avg PSN %':>10s} {'VEs':>8s}"
    )
    for r in rows:
        print(
            f"{r.variant:>12s} {r.completed:>10.1f} {r.peak_psn_pct:>11.2f} "
            f"{r.avg_psn_pct:>10.2f} {r.ve_count:>8.0f}"
        )


# ----------------------------------------------------------------------
# Dark-silicon power budget sensitivity (extension)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DspbRow:
    budget_w: float
    parm_completed: float
    hm_completed: float
    thermally_safe: bool


def dspb_sensitivity_sweep(
    budgets_w: Sequence[float] = (40.0, 55.0, 65.0, 80.0, 100.0),
    n_apps: int = 12,
    seeds: Sequence[int] = (1,),
    arrival_interval_s: float = 0.1,
    library: Optional[ProfileLibrary] = None,
) -> List[DspbRow]:
    """Completions vs. the DsPB, for PARM+PANR and HM+XY.

    The paper fixes the budget at 65 W; this sweep shows how the Fig. 8
    advantage depends on that choice, and uses the thermal model to mark
    which budgets a mobile-class cooling solution actually supports
    (the 65 W default sits right at the junction limit).
    """
    from repro.chip.cmp import ChipDescription
    from repro.chip.dvfs import VddLadder
    from repro.chip.mesh import MeshGeometry
    from repro.chip.technology import technology
    from repro.chip.thermal import ThermalModel
    from repro.core import HarmonicManager

    # The chip is rebuilt per budget (the budget is a chip field), but
    # the profile library is budget-independent and can be shared.
    library = library or ProfileLibrary()
    rows = []
    for budget in budgets_w:
        chip = ChipDescription(
            mesh=MeshGeometry(10, 6),
            tech=technology("7nm"),
            vdd_ladder=VddLadder.paper_default(),
            dark_silicon_budget_w=budget,
        )
        thermal = ThermalModel(chip.mesh)
        safe = thermal.is_thermally_safe([budget / chip.tile_count] * chip.tile_count)
        completed = {}
        for name, manager, routing in (
            ("parm", ParmManager(), "panr"),
            ("hm", HarmonicManager(), "xy"),
        ):
            counts = []
            for seed in seeds:
                workload = generate_workload(
                    workload_type=WorkloadType.MIXED,
                    arrival_interval_s=arrival_interval_s,
                    n_apps=n_apps,
                    seed=seed,
                    library=library,
                )
                sim = RuntimeSimulator(
                    chip, manager, make_routing(routing), seed=seed + 99
                )
                counts.append(sim.run(workload).completed_count)
            completed[name] = float(np.mean(counts))
        rows.append(
            DspbRow(
                budget_w=budget,
                parm_completed=completed["parm"],
                hm_completed=completed["hm"],
                thermally_safe=safe,
            )
        )
    return rows


def print_dspb_sweep(rows: Optional[List[DspbRow]] = None) -> None:
    rows = rows if rows is not None else dspb_sensitivity_sweep()
    print("Extension: sensitivity to the dark-silicon power budget")
    print(
        f"{'DsPB':>6s} {'PARM+PANR done':>15s} {'HM+XY done':>11s} "
        f"{'cooling OK':>11s}"
    )
    for r in rows:
        print(
            f"{r.budget_w:>5.0f}W {r.parm_completed:>15.1f} "
            f"{r.hm_completed:>11.1f} {str(r.thermally_safe):>11s}"
        )


# ----------------------------------------------------------------------
# Checkpoint-period ablation (extension, Section 4.5 / 5.1 parameters)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointRow:
    period_s: float
    steady_overhead_pct: float
    loss_per_ve_ms: float
    combined_cost_pct: float


def checkpoint_period_sweep(
    periods_s: Sequence[float] = (0.1e-3, 0.5e-3, 1e-3, 5e-3, 20e-3),
    frequency_hz: float = 0.74e9,
    ve_rate_hz: float = 1.0,
) -> List[CheckpointRow]:
    """Trade-off behind the paper's 1 ms checkpoint period.

    Short periods pay steady checkpointing overhead (256 cycles each);
    long periods lose more re-executed work per rollback (half a period
    plus 10000 restore cycles).  At the residual voltage-emergency rate
    of a PARM-managed chip (~1 VE/s per affected tile) the combined cost
    is minimised almost exactly at the paper's 1 ms; higher VE rates
    (unmanaged noise) would favour shorter periods.
    """
    from repro.runtime.checkpoint import CheckpointPolicy

    rows = []
    for period in periods_s:
        policy = CheckpointPolicy(period_s=period)
        steady = (policy.execution_dilation(frequency_hz) - 1.0) * 100.0
        per_ve = policy.rollback_penalty_s(frequency_hz)
        combined = steady + 100.0 * ve_rate_hz * per_ve
        rows.append(
            CheckpointRow(
                period_s=period,
                steady_overhead_pct=steady,
                loss_per_ve_ms=per_ve * 1e3,
                combined_cost_pct=combined,
            )
        )
    return rows


def print_checkpoint_sweep(rows: Optional[List[CheckpointRow]] = None) -> None:
    rows = rows if rows is not None else checkpoint_period_sweep()
    print("Extension: checkpoint-period trade-off (VE rate 1/s, 0.74 GHz)")
    print(
        f"{'period':>8s} {'steady %':>9s} {'loss/VE':>9s} {'combined %':>11s}"
    )
    for r in rows:
        print(
            f"{r.period_s * 1e3:>6.1f}ms {r.steady_overhead_pct:>9.3f} "
            f"{r.loss_per_ve_ms:>7.2f}ms {r.combined_cost_pct:>11.2f}"
        )
