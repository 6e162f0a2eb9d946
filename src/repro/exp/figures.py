"""Reproduction entry points for every figure in the paper.

Each ``figN`` function returns structured rows and has a ``print_figN``
companion that prints the same series the paper plots.  All entry points
take size/seed knobs so benchmarks can trade accuracy for speed; the
defaults match the paper's setup (20-application sequences, 10x6 mesh at
7 nm, DsPB 65 W).

Fig. 6 and Fig. 7 come from the same runs: 20 applications arriving
every 0.1 s with loose deadlines, so that *every* framework executes all
20 applications and the makespans stay comparable ("total time taken to
execute 20 applications").  Fig. 8 uses deadline-constrained sequences
at the paper's three arrival intervals, where over-subscription forces
drops ("total number of applications successfully completed").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.workload import WorkloadType
from repro.chip.power import PowerModel
from repro.chip.technology import TECHNOLOGY_ORDER, technology
from repro.exp.frameworks import FRAMEWORKS, Framework
from repro.exp.runner import FrameworkResult, run_framework
from repro.apps.suite import ProfileLibrary
from repro.chip.cmp import ChipDescription, default_chip
from repro.pdn.transient import PsnTransientAnalysis, pair_loads
from repro.pdn.waveforms import ActivityBin, TileLoad

#: Deadline slack used by the Fig. 6/7 runs: loose enough that no
#: framework drops an application.
_LOOSE_SLACK = (30.0, 30.0)

#: Fig. 8's framework subset (the paper compares these four).
FIG8_FRAMEWORKS = ("HM+XY", "PARM+XY", "PARM+ICON", "PARM+PANR")


def _fig_load(
    power: PowerModel,
    vdd: float,
    activity: float,
    bin_: ActivityBin,
    flits: float,
) -> TileLoad:
    core = power.core_dynamic(activity, vdd) + power.core_leakage(vdd)
    router = power.router_dynamic(flits, vdd) + power.router_leakage(vdd)
    return TileLoad(core, router, bin_)


# ----------------------------------------------------------------------
# Fig. 1: peak PSN vs technology node
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fig1Row:
    node: str
    vdd_ntc: float
    peak_psn_pct: float
    avg_psn_pct: float


def fig1(window_s: float = 300e-9, dt_s: float = 50e-12) -> List[Fig1Row]:
    """Peak supply noise at NTC across process nodes (transient model).

    The workload is a fully occupied mixed-activity domain with NoC
    traffic - the inter-core interference scenario of the paper's
    motivation figure.
    """
    rows = []
    for name in TECHNOLOGY_ORDER:
        tech = technology(name)
        power = PowerModel(tech)
        analysis = PsnTransientAnalysis(tech, window_s=window_s, dt_s=dt_s)
        vdd = tech.vdd_ntc
        loads = [
            _fig_load(power, vdd, 0.75, ActivityBin.HIGH, 2.0),
            _fig_load(power, vdd, 0.70, ActivityBin.HIGH, 2.0),
            _fig_load(power, vdd, 0.25, ActivityBin.LOW, 2.0),
            _fig_load(power, vdd, 0.30, ActivityBin.LOW, 2.0),
        ]
        report = analysis.analyze(vdd, loads)
        rows.append(
            Fig1Row(name, vdd, report.domain_peak_pct, report.domain_avg_pct)
        )
    return rows


def print_fig1(rows: Optional[List[Fig1Row]] = None) -> None:
    rows = rows or fig1()
    print("Fig. 1: peak PSN (% of NTC Vdd) across technology nodes")
    print(f"{'node':>6s} {'Vdd_NTC':>8s} {'peak PSN %':>11s} {'avg PSN %':>10s}")
    for r in rows:
        print(
            f"{r.node:>6s} {r.vdd_ntc:>7.2f}V {r.peak_psn_pct:>10.2f} "
            f"{r.avg_psn_pct:>10.2f}"
        )


# ----------------------------------------------------------------------
# Fig. 3a: peak PSN vs Vdd for both workload kinds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fig3aRow:
    kind: str
    vdd: float
    peak_psn_pct: float
    avg_psn_pct: float


def fig3a(
    vdds: Sequence[float] = (0.4, 0.5, 0.6, 0.7, 0.8),
    window_s: float = 300e-9,
    dt_s: float = 50e-12,
) -> List[Fig3aRow]:
    """Peak PSN in a fully occupied domain vs supply voltage."""
    tech = technology("7nm")
    analysis = PsnTransientAnalysis(tech, window_s=window_s, dt_s=dt_s)
    kinds, requests = fig3a_requests(PowerModel(tech), vdds)
    reports = analysis.analyze_many(requests)
    return [
        Fig3aRow(kind, vdd, report.domain_peak_pct, report.domain_avg_pct)
        for kind, (vdd, _), report in zip(kinds, requests, reports)
    ]


def fig3a_requests(
    power: PowerModel, vdds: Sequence[float]
) -> Tuple[List[str], List[Tuple[float, List[TileLoad]]]]:
    """Fig. 3a's workload kind and ``(vdd, loads)`` request per row."""
    kinds: List[str] = []
    requests: List[Tuple[float, List[TileLoad]]] = []
    for kind, flits in (("compute", 0.3), ("communication", 2.5)):
        for vdd in vdds:
            kinds.append(kind)
            requests.append((vdd, [
                _fig_load(power, vdd, 0.70, ActivityBin.HIGH, flits),
                _fig_load(power, vdd, 0.65, ActivityBin.HIGH, flits),
                _fig_load(power, vdd, 0.20, ActivityBin.LOW, flits),
                _fig_load(power, vdd, 0.25, ActivityBin.LOW, flits),
            ]))
    return kinds, requests


def print_fig3a(rows: Optional[List[Fig3aRow]] = None) -> None:
    rows = rows or fig3a()
    print("Fig. 3a: peak PSN (% of Vdd) in a domain vs supply voltage")
    print(f"{'workload':>14s} {'Vdd':>5s} {'peak PSN %':>11s} {'avg PSN %':>10s}")
    for r in rows:
        print(
            f"{r.kind:>14s} {r.vdd:>4.1f}V {r.peak_psn_pct:>10.2f} "
            f"{r.avg_psn_pct:>10.2f}"
        )


# ----------------------------------------------------------------------
# Fig. 3b: normalised pairwise interference
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fig3bRow:
    pair: str
    hops: int
    interference_pct: float
    normalised: float


def fig3b(
    vdd: float = 0.8,
    window_s: float = 300e-9,
    dt_s: float = 50e-12,
) -> List[Fig3bRow]:
    """Interference PSN between task pairs by activity mix and distance.

    The metric is the *interference component*: the worst increase of
    either tile's peak PSN over running the same task alone, normalised
    to the High-Low 1-hop pair.  This reproduces the paper's two claims:
    High-Low pairs interfere up to ~35 % more than High-High/Low-Low, and
    2-hop separation interferes ~10 % less than 1-hop.
    """
    tech = technology("7nm")
    power = PowerModel(tech)
    analysis = PsnTransientAnalysis(tech, window_s=window_s, dt_s=dt_s)

    high_a = _fig_load(power, vdd, 0.70, ActivityBin.HIGH, 0.5)
    high_b = _fig_load(power, vdd, 0.65, ActivityBin.HIGH, 0.5)
    low_a = _fig_load(power, vdd, 0.25, ActivityBin.LOW, 0.5)
    low_b = _fig_load(power, vdd, 0.20, ActivityBin.LOW, 0.5)

    def solo(load: TileLoad, position: int) -> List[TileLoad]:
        loads = [TileLoad.idle()] * 4
        loads[position] = load
        return loads

    pairs = {
        "H-H": (high_a, high_b),
        "H-L": (high_a, low_a),
        "L-L": (low_a, low_b),
    }
    # Per (pair, hops): the pair, then each task alone at its position.
    keys: List[Tuple[str, int, int]] = []
    requests: List[Tuple[float, List[TileLoad]]] = []
    for name, (a, b) in pairs.items():
        for hops in (1, 2):
            pos_b = 1 if hops == 1 else 3
            keys.append((name, hops, pos_b))
            requests += [
                (vdd, pair_loads(a, b, hops)),
                (vdd, solo(a, 0)),
                (vdd, solo(b, pos_b)),
            ]
    reports = analysis.analyze_many(requests)
    # The interference is the worse of the two tiles' peak increase
    # over the task running alone.
    raw: Dict[Tuple[str, int], float] = {}
    for k, (name, hops, pos_b) in enumerate(keys):
        pair, solo_a, solo_b = reports[3 * k:3 * k + 3]
        raw[(name, hops)] = max(
            float(pair.peak_psn_pct[0]) - float(solo_a.peak_psn_pct[0]),
            float(pair.peak_psn_pct[pos_b]) - float(solo_b.peak_psn_pct[pos_b]),
        )
    norm = raw[("H-L", 1)]
    return [
        Fig3bRow(name, hops, value, value / norm if norm else 0.0)
        for (name, hops), value in raw.items()
    ]


def print_fig3b(rows: Optional[List[Fig3bRow]] = None) -> None:
    rows = rows or fig3b()
    print("Fig. 3b: normalised interference PSN between task pairs")
    print(f"{'pair':>5s} {'hops':>5s} {'interference %':>15s} {'normalised':>11s}")
    for r in rows:
        print(
            f"{r.pair:>5s} {r.hops:>5d} {r.interference_pct:>14.3f} "
            f"{r.normalised:>11.3f}"
        )


# ----------------------------------------------------------------------
# Fig. 6 and Fig. 7: execution time and PSN across the six frameworks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fig67Row:
    workload: str
    framework: str
    total_time_s: float
    peak_psn_pct: float
    avg_psn_pct: float
    improvement_vs_hm_xy_pct: float
    psn_reduction_vs_hm_xy: float


def run_fig67(
    workloads: Sequence[WorkloadType] = (
        WorkloadType.COMPUTE,
        WorkloadType.COMMUNICATION,
        WorkloadType.MIXED,
    ),
    frameworks: Sequence[Framework] = FRAMEWORKS,
    n_apps: int = 20,
    seeds: Sequence[int] = (1, 2, 3),
    arrival_interval_s: float = 0.1,
    chip: Optional[ChipDescription] = None,
    library: Optional[ProfileLibrary] = None,
) -> List[Fig67Row]:
    """The shared runs behind Fig. 6 (execution time) and Fig. 7 (PSN).

    ``chip`` / ``library`` default to fresh instances; pass shared ones
    (as the report generator does) to reuse profile and topology caches
    across figures.
    """
    chip = chip or default_chip()
    library = library or ProfileLibrary()
    rows: List[Fig67Row] = []
    for workload in workloads:
        results: Dict[str, FrameworkResult] = {}
        for fw in frameworks:
            results[fw.name] = run_framework(
                fw,
                workload,
                arrival_interval_s,
                n_apps=n_apps,
                seeds=seeds,
                chip=chip,
                library=library,
                deadline_slack_range=_LOOSE_SLACK,
            )
        base = results.get("HM+XY")
        for fw in frameworks:
            r = results[fw.name]
            improvement = (
                100.0 * (base.total_time_s - r.total_time_s) / base.total_time_s
                if base and base.total_time_s
                else 0.0
            )
            reduction = (
                base.peak_psn_pct / r.peak_psn_pct
                if base and r.peak_psn_pct
                else 0.0
            )
            rows.append(
                Fig67Row(
                    workload=workload.value,
                    framework=fw.name,
                    total_time_s=r.total_time_s,
                    peak_psn_pct=r.peak_psn_pct,
                    avg_psn_pct=r.avg_psn_pct,
                    improvement_vs_hm_xy_pct=improvement,
                    psn_reduction_vs_hm_xy=reduction,
                )
            )
    return rows


def print_fig6(rows: List[Fig67Row]) -> None:
    print("Fig. 6: total time to execute the application sequence (s)")
    print(
        f"{'workload':>14s} {'framework':>10s} {'total time':>11s} "
        f"{'vs HM+XY':>9s}"
    )
    for r in rows:
        print(
            f"{r.workload:>14s} {r.framework:>10s} {r.total_time_s:>10.2f}s "
            f"{r.improvement_vs_hm_xy_pct:>+8.1f}%"
        )


def print_fig7(rows: List[Fig67Row]) -> None:
    print("Fig. 7: peak and average PSN (% of Vdd) per framework")
    print(
        f"{'workload':>14s} {'framework':>10s} {'peak %':>7s} {'avg %':>7s} "
        f"{'peak reduction':>15s}"
    )
    for r in rows:
        print(
            f"{r.workload:>14s} {r.framework:>10s} {r.peak_psn_pct:>7.2f} "
            f"{r.avg_psn_pct:>7.2f} {r.psn_reduction_vs_hm_xy:>13.2f}x"
        )


# ----------------------------------------------------------------------
# Fig. 8: applications completed vs arrival rate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fig8Row:
    workload: str
    arrival_interval_s: float
    framework: str
    completed: float
    dropped: float
    more_than_hm_xy_pct: float


def fig8(
    workloads: Sequence[WorkloadType] = (
        WorkloadType.COMPUTE,
        WorkloadType.COMMUNICATION,
    ),
    arrival_intervals_s: Sequence[float] = (0.2, 0.1, 0.05),
    framework_names: Sequence[str] = FIG8_FRAMEWORKS,
    n_apps: int = 20,
    seeds: Sequence[int] = (1, 2, 3),
    chip: Optional[ChipDescription] = None,
    library: Optional[ProfileLibrary] = None,
) -> List[Fig8Row]:
    """Applications successfully completed under over-subscription.

    ``chip`` / ``library`` default to fresh instances; pass shared ones
    to reuse profile and topology caches across figures.
    """
    from repro.exp.frameworks import framework as fw_lookup

    chip = chip or default_chip()
    library = library or ProfileLibrary()
    rows: List[Fig8Row] = []
    for workload in workloads:
        for interval in arrival_intervals_s:
            results: Dict[str, FrameworkResult] = {}
            for name in framework_names:
                results[name] = run_framework(
                    fw_lookup(name),
                    workload,
                    interval,
                    n_apps=n_apps,
                    seeds=seeds,
                    chip=chip,
                    library=library,
                )
            base = results.get("HM+XY")
            for name in framework_names:
                r = results[name]
                more = (
                    100.0 * (r.completed - base.completed) / base.completed
                    if base and base.completed
                    else 0.0
                )
                rows.append(
                    Fig8Row(
                        workload=workload.value,
                        arrival_interval_s=interval,
                        framework=name,
                        completed=r.completed,
                        dropped=r.dropped,
                        more_than_hm_xy_pct=more,
                    )
                )
    return rows


def print_fig8(rows: Optional[List[Fig8Row]] = None) -> None:
    rows = rows if rows is not None else fig8()
    print("Fig. 8: applications successfully completed (of the sequence)")
    print(
        f"{'workload':>14s} {'arrival':>8s} {'framework':>10s} "
        f"{'completed':>10s} {'dropped':>8s} {'vs HM+XY':>9s}"
    )
    for r in rows:
        print(
            f"{r.workload:>14s} {r.arrival_interval_s:>7.2f}s "
            f"{r.framework:>10s} {r.completed:>10.1f} {r.dropped:>8.1f} "
            f"{r.more_than_hm_xy_pct:>+8.1f}%"
        )
