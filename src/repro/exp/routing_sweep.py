"""Routing-policy sweep: latency and throughput vs injection rate.

Extension experiment comparing the paper's PANR against XY, odd-even
and ICON on the flit-level mesh model, across offered load.  Sweep
points run on the :class:`~repro.noc.batch.BatchedNocEngine` (every
lane pinned flit-for-flit against the test suite's reference
simulator) on an 8x8 mesh with a synthetic PSN hotspot band across the middle rows -
the setting where PSN-aware adaptivity should pay off - under
uniform-random traffic.

Each policy's (rate, seed) grid becomes the lanes of one
:func:`run_batch` task, which advances every lane in one vectorised
lock-step pass.  Tasks are pure functions of their
:class:`SweepPoint` specs, so the sweep fans across
:func:`repro.perf.parallel.map_tasks` workers and the resulting table
is byte-identical to a serial run for any worker count
(``tests/exp/test_routing_sweep.py`` pins this).  Per-point seeds are
deterministic: seed ``s`` always produces the same traffic pattern, and
every policy sees the identical pattern for a fair comparison.

``python -m repro routing`` drives this module from the command line;
the ``routing`` report section embeds the same table.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chip.mesh import MeshGeometry
from repro.noc.batch import TrafficFlow
from repro.noc.routing import make_routing

#: Policies compared by default (evaluation names of ``make_routing``).
DEFAULT_POLICIES: Tuple[str, ...] = ("xy", "odd-even", "icon", "panr")

#: Offered injection rates (flits/cycle/tile) of the default sweep.
DEFAULT_RATES: Tuple[float, ...] = (0.05, 0.15, 0.25, 0.35)

#: PSN of quiet tiles / of the hotspot band (percent of Vdd).
PSN_QUIET_PCT = 4.0
PSN_HOT_PCT = 12.0


@dataclass(frozen=True)
class SweepPoint:
    """One (policy, rate, seed) cell of the sweep - a pure-function spec."""

    policy: str
    injection_rate_flits: float
    seed: int
    mesh_width: int = 8
    mesh_height: int = 8
    cycles: int = 2000
    packet_size_flits: int = 4


@dataclass(frozen=True)
class PointResult:
    """Raw metrics of one simulated sweep point."""

    point: SweepPoint
    avg_latency_cycles: float
    p95_latency_cycles: float
    throughput_flits_per_cycle: float
    delivered_pct: float


@dataclass(frozen=True)
class SweepRow:
    """Seed-averaged metrics for one (policy, injection rate) pair."""

    policy: str
    injection_rate_flits: float
    avg_latency_cycles: float
    p95_latency_cycles: float
    throughput_flits_per_cycle: float
    delivered_pct: float


def hotspot_psn(mesh: MeshGeometry) -> np.ndarray:
    """Quiet mesh with a hot band across the two middle rows.

    Mirrors the buffer-threshold ablation's noise field: the band makes
    PSN-aware policies route around the middle of the chip while
    PSN-blind ones cut straight through it.
    """
    psn = np.full(mesh.tile_count, PSN_QUIET_PCT)
    band = (mesh.height // 2 - 1, mesh.height // 2)
    for tile in range(mesh.tile_count):
        _, y = mesh.coord_of(tile)
        if y in band:
            psn[tile] = PSN_HOT_PCT
    return psn


def uniform_random_flows(
    mesh: MeshGeometry,
    rate_flits: float,
    seed: int,
    packet_size_flits: int,
) -> List[TrafficFlow]:
    """One flow per tile to a uniformly random other tile."""
    rng = np.random.default_rng(seed)
    n = mesh.tile_count
    flows = []
    for src in range(n):
        dst = int(rng.integers(0, n - 1))
        if dst >= src:  # skip self, keep the draw uniform over others
            dst += 1
        flows.append(
            TrafficFlow(
                src=src,
                dst=dst,
                rate=rate_flits,
                packet_size=packet_size_flits,
            )
        )
    return flows


def _point_result(point: SweepPoint, stats) -> PointResult:
    """Fold one engine run's stats into the point's result row."""
    delivered_pct = (
        100.0 * stats.packets_delivered / stats.packets_injected
        if stats.packets_injected
        else 0.0
    )
    return PointResult(
        point=point,
        avg_latency_cycles=stats.avg_packet_latency,
        p95_latency_cycles=stats.p95_packet_latency,
        throughput_flits_per_cycle=stats.throughput_flits_per_cycle,
        delivered_pct=delivered_pct,
    )


def run_batch(points: Sequence[SweepPoint]) -> List[PointResult]:
    """Simulate one policy's grid points as a single batch.

    Module-level ``map_tasks`` task: every point becomes one lane of a
    :class:`~repro.noc.batch.BatchedNocEngine`, so the whole group
    advances through shared vectorised phases.  Each lane is
    byte-identical to a one-point batch.  Points must agree on
    everything except rate and seed - :func:`routing_sweep` groups them
    that way.
    """
    from repro.harness.errors import ConfigError
    from repro.noc.batch import BatchedNocEngine

    points = list(points)
    if not points:
        return []
    first = points[0]
    if any(
        (p.policy, p.mesh_width, p.mesh_height, p.cycles)
        != (first.policy, first.mesh_width, first.mesh_height, first.cycles)
        for p in points
    ):
        raise ConfigError(
            "batched sweep points must share policy, mesh and cycles",
            points=[repr(p) for p in points[:4]],
        )
    mesh = MeshGeometry(first.mesh_width, first.mesh_height)
    flows = [
        uniform_random_flows(
            mesh, p.injection_rate_flits, p.seed, p.packet_size_flits
        )
        for p in points
    ]
    engine = BatchedNocEngine(
        mesh,
        make_routing(first.policy),
        n_lanes=len(points),
        psn_pct=hotspot_psn(mesh),
    )
    stats_list = engine.run(flows, first.cycles)
    return [
        _point_result(point, stats)
        for point, stats in zip(points, stats_list)
    ]


def routing_sweep(
    rates: Sequence[float] = DEFAULT_RATES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    seeds: Sequence[int] = (1, 2),
    mesh_width: int = 8,
    mesh_height: int = 8,
    cycles: int = 2000,
    packet_size_flits: int = 4,
    workers: int = 1,
) -> List[SweepRow]:
    """Latency/throughput vs injection rate for each routing policy.

    Every policy packs its whole (rate, seed) grid into one
    :func:`run_batch` lock-step task, fanned through
    :func:`repro.perf.parallel.map_tasks`.  Every task is a pure
    function of its spec, so the returned rows are identical for any
    worker count.

    Returns:
        One seed-averaged :class:`SweepRow` per (policy, rate), in
        policy-major, rate-ascending order.
    """
    from repro.perf.parallel import map_tasks

    points = [
        SweepPoint(
            policy=policy,
            injection_rate_flits=rate,
            seed=seed,
            mesh_width=mesh_width,
            mesh_height=mesh_height,
            cycles=cycles,
            packet_size_flits=packet_size_flits,
        )
        for policy in policies
        for rate in rates
        for seed in seeds
    ]
    groups = [
        tuple(p for p in points if p.policy == policy)
        for policy in dict.fromkeys(policies)
    ]
    by_point: Dict[SweepPoint, PointResult] = {}
    for group_results in map_tasks(run_batch, groups, workers):
        for result in group_results:
            by_point[result.point] = result
    results = [by_point[point] for point in points]

    grouped: Dict[Tuple[str, float], List[PointResult]] = {}
    for result in results:
        key = (result.point.policy, result.point.injection_rate_flits)
        grouped.setdefault(key, []).append(result)
    rows = []
    for policy in policies:
        for rate in rates:
            cell = grouped[(policy, rate)]
            rows.append(
                SweepRow(
                    policy=policy,
                    injection_rate_flits=rate,
                    avg_latency_cycles=float(
                        np.mean([r.avg_latency_cycles for r in cell])
                    ),
                    p95_latency_cycles=float(
                        np.mean([r.p95_latency_cycles for r in cell])
                    ),
                    throughput_flits_per_cycle=float(
                        np.mean([r.throughput_flits_per_cycle for r in cell])
                    ),
                    delivered_pct=float(
                        np.mean([r.delivered_pct for r in cell])
                    ),
                )
            )
    return rows


def print_routing_sweep(rows: Sequence[SweepRow]) -> None:
    """Print the sweep as a fixed-width table (report embedding)."""
    print(
        "Routing sweep: latency/throughput vs injection rate "
        "(hotspot PSN band, seed-averaged)"
    )
    print(
        f"{'policy':>9s} {'rate[f/c]':>10s} {'avg_lat[cyc]':>12s} "
        f"{'p95_lat[cyc]':>12s} {'thr[f/c]':>9s} {'delivered[%]':>12s}"
    )
    for row in rows:
        print(
            f"{row.policy:>9s} {row.injection_rate_flits:>10.3f} "
            f"{row.avg_latency_cycles:>12.2f} "
            f"{row.p95_latency_cycles:>12.2f} "
            f"{row.throughput_flits_per_cycle:>9.3f} "
            f"{row.delivered_pct:>12.1f}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro routing [--workers N] [...]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro routing",
        description=(
            "Routing-policy latency/throughput sweep on the batched "
            "NoC engine (XY / odd-even / ICON / PANR)."
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="sweep-point worker processes (results identical for any "
        "count; default 1)",
    )
    parser.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=list(DEFAULT_RATES),
        metavar="R",
        help="offered injection rates in flits/cycle/tile",
    )
    parser.add_argument(
        "--policies",
        nargs="+",
        default=list(DEFAULT_POLICIES),
        metavar="P",
        help="routing policies to compare (make_routing names)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[1, 2],
        metavar="S",
        help="traffic-pattern seeds to average over",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        default=2000,
        help="simulated cycles per point (default 2000)",
    )
    parser.add_argument(
        "--mesh",
        type=int,
        nargs=2,
        default=[8, 8],
        metavar=("W", "H"),
        help="mesh width and height (default 8 8)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    rows = routing_sweep(
        rates=args.rates,
        policies=args.policies,
        seeds=args.seeds,
        mesh_width=args.mesh[0],
        mesh_height=args.mesh[1],
        cycles=args.cycles,
        workers=args.workers,
    )
    print_routing_sweep(rows)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
