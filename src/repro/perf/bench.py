# parmlint: ok-file[wall-clock] - this module exists to measure wall time
"""``python -m repro bench`` - the pinned microbenchmark suite.

Times the hot paths this performance layer optimises and writes the
results as ``BENCH_<rev>.json`` so regressions are caught by diffing
against a committed baseline (see ``docs/performance.md``):

* ``kernel_eval_scalar`` / ``kernel_eval_batch`` - the per-domain fast
  PSN kernel, scalar loop vs the vectorised batch path;
* ``transient_solve_cold`` / ``transient_solve_warm`` - one MNA
  transient solve with a fresh factorisation vs the cached plan;
* ``transient_lanes_loop`` / ``transient_lanes_batched`` - Fig. 3a's
  ten analyses on a warm plan, as ten one-lane solves vs one
  ``analyze_many`` batch of lanes (every report is asserted
  bit-identical before timing);
* ``pool_warmup`` / ``pool_reuse`` - first lease of the persistent
  worker pool (spawn + worker imports) vs a later lease of the
  already-warm pool (``repro.perf.pool``);
* ``campaign_cell`` - one supervised campaign cell end to end;
* ``e2e_sweep_serial`` / ``e2e_sweep_parallel`` - a small campaign
  sweep run serially and with worker processes (plus the derived
  speedup); the parallel leg runs against a pre-warmed pool so it
  times steady-state task throughput, not spawn cost;
* ``noc_engine_array`` / ``noc_engine_array_adaptive`` - the
  flit-level cycle model at 8x8 saturation: a one-lane
  :class:`~repro.noc.batch.BatchedNocEngine` run under XY and under
  PANR (the context-assembly path);
* ``noc_engine_batch_loop`` / ``noc_engine_batched`` - a context-free
  sweep as a loop of one-lane engines vs one S-lane lock-step batch;
* ``noc_analytical_evaluate`` - one flow-based analytical NoC
  evaluation of a seeded flow set on the 10x6 chip mesh, once under XY
  and once under PANR (per-policy milliseconds in the meta);
* ``lint_deep`` - one cold-cache interprocedural parmlint run over
  ``src/repro`` (call-graph build plus every rule);
* ``routing_sweep_serial`` / ``routing_sweep_parallel`` - the
  routing-policy sweep run in-process and fanned across pre-warmed
  workers (the results are asserted identical before timings are
  recorded);
* ``verify_sequential`` / ``verify_splitting`` - the stop-when-confident
  sequential estimator and the rare-event importance-splitting run on
  the PDN emergency estimand (see ``docs/verification.md``);
* ``service_stream`` - one overload epoch of the streaming service
  engine (~100k arrivals quick, >= 1M full); before the time is
  recorded the run must hold the O(1)-state guarantee - same stats
  scalar count as a light epoch and a bounded serialised state.

Benchmark workloads are pinned (fixed seeds, sizes and cell specs), so
two runs on the same machine measure the same work; only the wall time
varies.  The regression gate compares per-benchmark times against a
baseline JSON and fails on more than ``--gate-pct`` percent slowdown.
In full (non ``--quick``) mode on a multi-core machine the derived
``e2e_parallel_speedup`` and ``routing_sweep_parallel_speedup`` must
additionally exceed 1.0x - ``--workers N`` has to actually beat
serial; quick runs and single-core machines log the values instead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

#: Schema name / version of the benchmark result payload.
BENCH_SCHEMA = "parm-bench"
BENCH_VERSION = 1

#: Regression gate: fail when a benchmark is this much slower than the
#: baseline (percent).  Generous because CI machines are noisy.
DEFAULT_GATE_PCT = 25.0


def _rev() -> str:
    """Short git revision for the output file name, or ``local``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "local"
    except Exception:  # parmlint: ok[broad-except] - any git failure means "local"
        return "local"


def _time_best(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _domain_batch(n_domains: int, seed: int = 7):
    """Pinned random inputs for the kernel benchmarks."""
    rng = np.random.default_rng(seed)
    vdds = rng.choice([0.4, 0.5, 0.6, 0.7, 0.8], size=n_domains)
    i_core = rng.uniform(0.0, 2.0, size=(n_domains, 4))
    i_router = rng.uniform(0.0, 0.5, size=(n_domains, 4))
    bins = rng.integers(0, 2, size=(n_domains, 4))
    return vdds, i_core, i_router, bins


def bench_kernel(quick: bool) -> Dict[str, Dict[str, Any]]:
    from repro.pdn.fast import _BIN_ORDER, FastPsnModel
    from repro.pdn.waveforms import TileLoad

    model = FastPsnModel()
    n_domains = 64 if quick else 256
    repeats = 3 if quick else 10
    vdds, i_core, i_router, bins = _domain_batch(n_domains)
    load_rows = [
        [
            TileLoad(
                float(i_core[m, k] * vdds[m]),
                float(i_router[m, k] * vdds[m]),
                _BIN_ORDER[bins[m, k]],
            )
            for k in range(4)
        ]
        for m in range(n_domains)
    ]

    def scalar() -> None:
        for m in range(n_domains):
            model.domain_psn(float(vdds[m]), load_rows[m])

    def batch() -> None:
        model.chip_psn(vdds, i_core, i_router, bins)

    return {
        "kernel_eval_scalar": {
            "seconds": _time_best(scalar, repeats),
            "meta": {"domains": n_domains},
        },
        "kernel_eval_batch": {
            "seconds": _time_best(batch, repeats),
            "meta": {"domains": n_domains},
        },
    }


def bench_transient(quick: bool) -> Dict[str, Dict[str, Any]]:
    from repro.chip.power import PowerModel
    from repro.chip.technology import technology
    from repro.pdn.transient import PsnTransientAnalysis
    from repro.pdn.waveforms import ActivityBin, TileLoad

    tech = technology("7nm")
    power = PowerModel(tech)
    # Short windows keep the one-off factorisation (what cold pays and
    # warm amortises) a visible fraction of each solve; long windows
    # are step-dominated and would measure the same loop twice.
    window_s = 10e-9 if quick else 20e-9
    repeats = 3 if quick else 5
    vdd = 0.6
    core = power.core_dynamic(0.7, vdd) + power.core_leakage(vdd)
    router = power.router_dynamic(1.5, vdd) + power.router_leakage(vdd)
    loads = [TileLoad(core, router, ActivityBin.HIGH) for _ in range(4)]

    def cold() -> None:
        PsnTransientAnalysis(tech, window_s=window_s).analyze(vdd, loads)

    warm_analysis = PsnTransientAnalysis(tech, window_s=window_s)
    warm_analysis.analyze(vdd, loads)  # prime the factorisation plan

    def warm() -> None:
        warm_analysis.analyze(vdd, loads)

    meta = {"window_s": window_s}
    return {
        "transient_solve_cold": {
            "seconds": _time_best(cold, repeats),
            "meta": meta,
        },
        "transient_solve_warm": {
            "seconds": _time_best(warm, repeats),
            "meta": meta,
        },
        **_bench_transient_lanes(quick),
    }


def _bench_transient_lanes(quick: bool) -> Dict[str, Dict[str, Any]]:
    """Fig. 3a's ten analyses as ten one-lane solves vs one batch."""
    from repro.chip.power import PowerModel
    from repro.chip.technology import technology
    from repro.exp.figures import fig3a_requests
    from repro.pdn.transient import PsnTransientAnalysis

    tech = technology("7nm")
    vdds = (0.4, 0.5, 0.6, 0.7, 0.8)
    _, requests = fig3a_requests(PowerModel(tech), vdds)
    window_s = 50e-9 if quick else 300e-9
    repeats = 3 if quick else 5
    analysis = PsnTransientAnalysis(tech, window_s=window_s)
    analysis.analyze(*requests[0])  # prime the factorisation plan

    def loop() -> List[Any]:
        return [analysis.analyze(vdd, loads) for vdd, loads in requests]

    def batched() -> List[Any]:
        return analysis.analyze_many(requests)

    # Identity before timing: every lane's report must carry the same
    # bits as its one-lane solve.
    for lane, (single, report) in enumerate(zip(loop(), batched())):
        if (
            single.peak_psn_pct.tobytes() != report.peak_psn_pct.tobytes()
            or single.avg_psn_pct.tobytes() != report.avg_psn_pct.tobytes()
            or (single.solver_method, single.solver_dt_s)
            != (report.solver_method, report.solver_dt_s)
        ):
            raise RuntimeError(
                f"lane-batched transient diverged from its one-lane "
                f"solve on fig3a request {lane}"
            )

    meta = {"window_s": window_s, "lanes": len(requests), "vdds": list(vdds)}
    return {
        "transient_lanes_loop": {
            "seconds": _time_best(loop, repeats),
            "meta": {**meta, "note": "one analyze call per request"},
        },
        "transient_lanes_batched": {
            "seconds": _time_best(batched, repeats),
            "meta": {**meta, "note": "one analyze_many batch"},
        },
    }


def _probe_pool(lease: Any, workers: int) -> None:
    """Run probe rounds until every worker has answered (bounded).

    A fast worker can win every probe of a round, so rounds repeat
    until ``workers`` distinct pids answered or the probe budget runs
    out (best effort - a straggler still pays its imports before its
    first real task).
    """
    from repro.perf.parallel import _probe_worker

    pids = set()
    token = 0
    while len(pids) < workers and token < workers * 8:
        futures = [
            lease.pool.submit(_probe_worker, token + i)
            for i in range(workers)
        ]
        token += workers
        pids.update(future.result() for future in futures)


def _prewarm_pool(workers: int) -> None:
    """Spawn the pool for ``workers`` and import the task modules.

    Called before the timed parallel regions so they measure
    steady-state task throughput against serial, not process spawn and
    worker imports (the costs ``pool_warmup`` times explicitly).
    """
    from repro.perf import pool

    lease = pool.lease_pool(workers)
    try:
        _probe_pool(lease, workers)
    finally:
        lease.release()


def bench_pool(quick: bool, workers: int) -> Dict[str, Dict[str, Any]]:
    from repro.perf import pool
    from repro.perf.parallel import _probe_worker

    # Cold start: drop any pool earlier suites (or a previous bench run
    # in-process) left warm.
    pool.shutdown_pool()

    start = time.perf_counter()
    lease = pool.lease_pool(workers)
    _probe_pool(lease, workers)
    warmup_s = time.perf_counter() - start
    lease.release()

    start = time.perf_counter()
    lease = pool.lease_pool(workers)
    for future in [
        lease.pool.submit(_probe_worker, 10_000 + i) for i in range(workers)
    ]:
        future.result()
    reuse_s = time.perf_counter() - start
    lease.release()

    meta = {"workers": workers}
    return {
        "pool_warmup": {
            "seconds": warmup_s,
            "meta": {**meta, "note": "first lease: spawn + imports + probes"},
        },
        "pool_reuse": {
            "seconds": reuse_s,
            "meta": {**meta, "note": "later lease of the warm pool"},
        },
    }


def _bench_cells(quick: bool) -> List[Any]:
    from repro.harness.supervisor import CampaignCell

    # Sized so the full sweep carries enough per-cell work (~1 s) for
    # worker parallelism to beat the spawn overhead on CI hardware.
    n_apps = 2 if quick else 16
    seeds = (1,) if quick else (1, 2)
    intervals = (0.2, 0.1) if quick else (0.2, 0.15, 0.1, 0.05)
    return [
        CampaignCell(
            framework=fw,
            workload="mixed",
            arrival_interval_s=interval,
            n_apps=n_apps,
            seeds=seeds,
        )
        for fw in ("HM+XY", "PARM+PANR")
        for interval in intervals
    ]


def bench_campaign_cell(quick: bool) -> Dict[str, Dict[str, Any]]:
    from repro.harness.supervisor import CellExecutor, SupervisorPolicy

    cell = _bench_cells(quick)[0]
    executor = CellExecutor(SupervisorPolicy())

    def run() -> None:
        outcome = executor.run_cell(cell)
        if not outcome.completed:
            raise RuntimeError(f"benchmark cell failed: {outcome.attempts}")

    return {
        "campaign_cell": {
            "seconds": _time_best(run, 1 if quick else 2),
            "meta": {"cell": cell.label, "n_apps": cell.n_apps},
        }
    }


def bench_e2e_sweep(quick: bool, workers: int, tmp_dir: str) -> Dict[str, Dict[str, Any]]:
    from repro.harness.supervisor import CampaignSupervisor

    cells = _bench_cells(quick)
    times: Dict[str, float] = {}
    for tag, n_workers in (("serial", 1), ("parallel", workers)):
        if n_workers > 1:
            # The pool the supervisor's run_cells leases, so the timed
            # run reuses these already-started workers.
            _prewarm_pool(n_workers)
        checkpoint = os.path.join(tmp_dir, f"bench_{tag}.json")
        supervisor = CampaignSupervisor(
            cells, checkpoint, workers=n_workers
        )
        start = time.perf_counter()
        outcome = supervisor.run()
        times[tag] = time.perf_counter() - start
        if outcome.failed_cells:
            raise RuntimeError(
                f"benchmark sweep had failed cells: "
                f"{[o.cell.label for o in outcome.failed_cells]}"
            )
    return {
        "e2e_sweep_serial": {
            "seconds": times["serial"],
            "meta": {"cells": len(cells), "workers": 1},
        },
        "e2e_sweep_parallel": {
            "seconds": times["parallel"],
            "meta": {"cells": len(cells), "workers": workers},
        },
    }


def bench_noc_engine(quick: bool) -> Dict[str, Dict[str, Any]]:
    from repro.chip.mesh import MeshGeometry
    from repro.exp.routing_sweep import hotspot_psn, uniform_random_flows
    from repro.noc.batch import BatchedNocEngine
    from repro.noc.routing import make_routing

    mesh = MeshGeometry(8, 8)
    rate = 0.35  # past XY saturation on 8x8 uniform-random traffic
    flows = uniform_random_flows(mesh, rate, seed=7, packet_size_flits=4)
    psn = hotspot_psn(mesh)
    cycles = 1000 if quick else 2000
    repeats = 3 if quick else 5

    def one_lane(policy: str, lane_flows: Any, run_cycles: int) -> Any:
        (stats,) = BatchedNocEngine(
            mesh, make_routing(policy), psn_pct=psn
        ).run([lane_flows], run_cycles)
        return stats

    def array() -> None:
        one_lane("xy", flows, cycles)

    def adaptive() -> None:
        one_lane("panr", flows, cycles)

    # The batched pair: a context-free sweep (rates x seeds) run as a
    # loop of fresh one-lane engines - what a serial sweep does without
    # batching - vs one BatchedNocEngine advancing every lane in
    # lock-step.  Full mode is the acceptance workload: 32 lanes on the
    # 8x8 mesh.
    batch_rates = (0.05, 0.15, 0.25, 0.35)
    batch_seeds = tuple(range(101, 103 if quick else 109))
    batch_cycles = 500 if quick else 1000
    batch_lanes = [
        uniform_random_flows(mesh, r, seed=s, packet_size_flits=4)
        for r in batch_rates
        for s in batch_seeds
    ]

    def batch_loop(policy: str = "xy", lanes: Any = batch_lanes) -> List[Any]:
        return [
            one_lane(policy, lane_flows, batch_cycles) for lane_flows in lanes
        ]

    def batched(policy: str = "xy", lanes: Any = batch_lanes) -> List[Any]:
        return BatchedNocEngine(
            mesh, make_routing(policy), n_lanes=len(lanes), psn_pct=psn
        ).run(lanes, batch_cycles)

    # Identity before timing: every batch lane must be flit-for-flit
    # identical to its one-lane run (stats equality covers injected /
    # delivered counts, every latency sample and per-router activity) -
    # for the timed xy batch and for an adaptive PANR batch, one lane
    # per rate.
    panr_lanes = batch_lanes[:: len(batch_seeds)]
    for policy, lanes in (("xy", batch_lanes), ("panr", panr_lanes)):
        for lane, (single, lane_stats) in enumerate(
            zip(batch_loop(policy, lanes), batched(policy, lanes))
        ):
            if (
                single.packets_injected != lane_stats.packets_injected
                or single.packets_delivered != lane_stats.packets_delivered
                or single.flits_delivered != lane_stats.flits_delivered
                or single.packet_latencies != lane_stats.packet_latencies
                or not np.array_equal(
                    single.router_flits_per_cycle,
                    lane_stats.router_flits_per_cycle,
                )
            ):
                raise RuntimeError(
                    f"batched NoC engine diverged from one-lane runs on "
                    f"{policy} lane {lane}"
                )

    meta = {
        "mesh": "8x8",
        "rate_flits_per_cycle": rate,
        "cycles": cycles,
        "engine": "BatchedNocEngine, one lane",
    }
    batch_meta = {
        "mesh": "8x8",
        "routing": "xy",
        "lanes": len(batch_lanes),
        "rates": list(batch_rates),
        "cycles": batch_cycles,
    }
    return {
        "noc_engine_array": {
            "seconds": _time_best(array, repeats),
            "meta": {**meta, "routing": "xy"},
        },
        "noc_engine_array_adaptive": {
            "seconds": _time_best(adaptive, repeats),
            "meta": {**meta, "routing": "panr"},
        },
        "noc_engine_batch_loop": {
            "seconds": _time_best(batch_loop, repeats),
            "meta": {**batch_meta, "note": "fresh one-lane engine per lane"},
        },
        "noc_engine_batched": {
            "seconds": _time_best(batched, repeats),
            "meta": {**batch_meta, "note": "one lock-step batched engine"},
        },
    }


def _analytical_flows(n_tiles: int, seed: int = 11):
    """Pinned flow set and PSN map for the analytical NoC benchmark:
    about the traffic of one campaign refresh on the 10x6 chip."""
    from repro.noc.analytical import Flow

    rng = np.random.default_rng(seed)
    flows = [
        Flow(int(src), int(dst), float(rate))
        for src, dst, rate in zip(
            rng.integers(0, n_tiles, 64),
            rng.integers(0, n_tiles, 64),
            rng.uniform(0.005, 0.05, 64),
        )
    ]
    return flows, rng.uniform(0.0, 8.0, n_tiles)


def bench_noc_analytical(quick: bool) -> Dict[str, Dict[str, Any]]:
    from repro.chip.mesh import MeshGeometry
    from repro.noc.analytical import AnalyticalNocModel
    from repro.noc.routing import make_routing
    from repro.noc.topology import MeshTopology

    topo = MeshTopology(MeshGeometry(10, 6))
    flows, psn = _analytical_flows(topo.mesh.tile_count)
    repeats = 5 if quick else 20
    seconds = {}
    for policy in ("xy", "panr"):
        model = AnalyticalNocModel(topo, make_routing(policy))
        seconds[policy] = _time_best(
            lambda model=model: model.evaluate(flows, psn_pct=psn), repeats
        )
    return {
        "noc_analytical_evaluate": {
            "seconds": sum(seconds.values()),
            "meta": {
                "mesh": "10x6",
                "flows": len(flows),
                "routing": list(seconds),
                **{f"{p}_ms": s * 1e3 for p, s in seconds.items()},
            },
        }
    }


def bench_routing_sweep(quick: bool, workers: int) -> Dict[str, Dict[str, Any]]:
    from repro.exp.routing_sweep import (
        SweepPoint,
        routing_sweep,
        run_batch,
    )

    kwargs: Dict[str, Any] = dict(
        rates=(0.15, 0.35) if quick else (0.05, 0.15, 0.25, 0.35),
        policies=("xy", "panr")
        if quick
        else ("xy", "odd-even", "icon", "panr"),
        seeds=(1,) if quick else (1, 2),
        cycles=800 if quick else 2000,
    )
    # Batched-lane identity: each policy's grid runs as the lanes of
    # one BatchedNocEngine, so pin the whole xy group against one-lane
    # groups of the same points before anything is timed.
    xy_points = [
        SweepPoint(
            policy="xy",
            injection_rate_flits=rate,
            seed=seed,
            cycles=kwargs["cycles"],
        )
        for rate in kwargs["rates"]
        for seed in kwargs["seeds"]
    ]
    if run_batch(xy_points) != [
        result for p in xy_points for result in run_batch([p])
    ]:
        raise RuntimeError(
            "batched routing-sweep lanes diverged from one-lane groups"
        )
    start = time.perf_counter()
    serial_rows = routing_sweep(workers=1, **kwargs)
    serial_s = time.perf_counter() - start
    _prewarm_pool(workers)
    start = time.perf_counter()
    parallel_rows = routing_sweep(workers=workers, **kwargs)
    parallel_s = time.perf_counter() - start
    if serial_rows != parallel_rows:
        raise RuntimeError(
            "routing sweep produced different rows serial vs parallel"
        )
    points = len(kwargs["rates"]) * len(kwargs["policies"]) * len(
        kwargs["seeds"]
    )
    return {
        "routing_sweep_serial": {
            "seconds": serial_s,
            "meta": {"points": points, "workers": 1},
        },
        "routing_sweep_parallel": {
            "seconds": parallel_s,
            "meta": {"points": points, "workers": workers},
        },
    }


def bench_verify(quick: bool) -> Dict[str, Dict[str, Any]]:
    from repro.exp.verify.estimands import PdnEmergencyEstimand
    from repro.exp.verify.sequential import SequentialEstimator, StopRule
    from repro.exp.verify.splitting import SplittingConfig, run_splitting

    estimand = PdnEmergencyEstimand()
    budget = 512 if quick else 2048
    half_width = 0.04 if quick else 0.02
    rule = StopRule(
        confidence=0.95,
        half_width=half_width,
        budget=budget,
        batch_size=64,
    )
    repeats = 2 if quick else 3

    def sequential() -> None:
        result = SequentialEstimator(estimand, rule=rule, root_seed=0).run()
        if result.n_replicas < rule.min_replicas:
            raise RuntimeError("sequential benchmark underran its floor")

    rare = PdnEmergencyEstimand(threshold_pct=19.5)
    config = SplittingConfig(
        n_per_level=400 if quick else 1000, mcmc_moves=3
    )

    def splitting() -> None:
        result = run_splitting(rare, config=config, root_seed=0)
        if result.probability <= 0.0:
            raise RuntimeError("splitting benchmark lost all mass")

    return {
        "verify_sequential": {
            "seconds": _time_best(sequential, repeats),
            "meta": {"budget": budget, "half_width": half_width},
        },
        "verify_splitting": {
            "seconds": _time_best(splitting, repeats),
            "meta": {
                "threshold_pct": rare.threshold_pct,
                "n_per_level": config.n_per_level,
            },
        },
    }


def bench_lint(quick: bool) -> Dict[str, Dict[str, Any]]:
    from pathlib import Path

    import repro
    from repro.analysis.engine import LintEngine
    from repro.analysis.rules import default_rules

    package_root = Path(repro.__file__).resolve().parent

    def deep() -> None:
        # cache_dir=None forces a cold call-graph build every pass, so
        # this times the full interprocedural run (the CI cold-start
        # cost; warm runs only re-run the rules).
        LintEngine(default_rules()).run(package_root, cache_dir=None)

    return {
        "lint_deep": {
            "seconds": _time_best(deep, 1 if quick else 2),
            "meta": {"root": "src/repro", "cache": "cold"},
        }
    }


def bench_service(quick: bool) -> Dict[str, Dict[str, Any]]:
    from repro.apps.suite import ProfileLibrary
    from repro.chip import default_chip
    from repro.runtime.service.arrivals import PoissonProcess
    from repro.runtime.service.config import ServiceConfig
    from repro.runtime.service.engine import ServiceEngine, ServiceState
    from repro.runtime.simulator import SimulatorContext

    chip = default_chip()
    library = ProfileLibrary()
    context = SimulatorContext.for_chip(chip)
    epoch_s = 0.25
    rate_hz = 420_000.0 if quick else 4_200_000.0
    arrival_floor = 100_000 if quick else 1_000_000

    def epoch_state(rate: float) -> ServiceState:
        config = ServiceConfig(
            arrival=PoissonProcess(rate_hz=rate),
            epochs=1,
            epoch_duration_s=epoch_s,
            root_seed=7,
        )
        engine = ServiceEngine(
            config, chip=chip, library=library, context=context
        )
        state = ServiceState(config)
        engine.run_epoch(state)
        return state

    # A light epoch first: warms the profile/WCET caches out of the
    # timed region and pins the scalar-count yardstick the overload run
    # is checked against.
    light = epoch_state(2_000.0)

    captured: Dict[str, ServiceState] = {}

    def stream() -> None:
        captured["state"] = epoch_state(rate_hz)

    seconds = _time_best(stream, 2 if quick else 1)

    heavy = captured["state"]
    arrivals = heavy.stats.total("arrived")
    if arrivals < arrival_floor:
        raise RuntimeError(
            f"service benchmark underran its arrival floor: "
            f"{arrivals} < {arrival_floor}"
        )
    if heavy.stats.scalar_count() != light.stats.scalar_count():
        raise RuntimeError("service stats state grew with arrival count")
    state_b = len(json.dumps(heavy.to_json(), sort_keys=True))
    if state_b > 150_000:
        raise RuntimeError(
            f"service state is not O(1) under overload: {state_b} bytes"
        )
    return {
        "service_stream": {
            "seconds": seconds,
            "meta": {
                "arrivals": int(arrivals),
                "epoch_s": epoch_s,
                "rate_hz": rate_hz,
                "state_b": state_b,
            },
        }
    }


def run_suite(
    quick: bool = False,
    workers: int = 4,
    skip: Sequence[str] = (),
) -> Dict[str, Any]:
    """Run every benchmark and assemble the result payload."""
    import tempfile

    benchmarks: Dict[str, Dict[str, Any]] = {}
    benchmarks.update(bench_kernel(quick))
    benchmarks.update(bench_transient(quick))
    benchmarks.update(bench_noc_engine(quick))
    benchmarks.update(bench_noc_analytical(quick))
    benchmarks.update(bench_lint(quick))
    if "pool" not in skip:
        # Before the e2e/routing suites: those pre-warm the pool, and
        # pool_warmup must observe a cold one.
        benchmarks.update(bench_pool(quick, workers))
    if "campaign" not in skip:
        benchmarks.update(bench_campaign_cell(quick))
    if "e2e" not in skip:
        with tempfile.TemporaryDirectory() as tmp_dir:
            benchmarks.update(bench_e2e_sweep(quick, workers, tmp_dir))
    if "routing" not in skip:
        benchmarks.update(bench_routing_sweep(quick, workers))
    if "verify" not in skip:
        benchmarks.update(bench_verify(quick))
    if "service" not in skip:
        benchmarks.update(bench_service(quick))

    derived: Dict[str, float] = {}
    pairs = (
        ("kernel_batch_speedup", "kernel_eval_scalar", "kernel_eval_batch"),
        ("transient_warm_speedup", "transient_solve_cold", "transient_solve_warm"),
        (
            "transient_lanes_speedup",
            "transient_lanes_loop",
            "transient_lanes_batched",
        ),
        ("e2e_parallel_speedup", "e2e_sweep_serial", "e2e_sweep_parallel"),
        ("pool_reuse_speedup", "pool_warmup", "pool_reuse"),
        (
            "noc_engine_batch_speedup",
            "noc_engine_batch_loop",
            "noc_engine_batched",
        ),
        (
            "routing_sweep_parallel_speedup",
            "routing_sweep_serial",
            "routing_sweep_parallel",
        ),
    )
    for name, slow, fast in pairs:
        if slow in benchmarks and fast in benchmarks:
            denom = benchmarks[fast]["seconds"]
            if denom > 0:
                derived[name] = benchmarks[slow]["seconds"] / denom
    return {
        "schema": BENCH_SCHEMA,
        "version": BENCH_VERSION,
        "rev": _rev(),
        "quick": quick,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "benchmarks": benchmarks,
        "derived": derived,
    }


#: Derived speedups that must exceed 1.0x in full mode (``--workers N``
#: has to actually beat serial once the pool is warm).
PARALLEL_SPEEDUP_GATES = (
    "e2e_parallel_speedup",
    "routing_sweep_parallel_speedup",
)

#: Derived speedups that must exceed 1.0x in full mode regardless of
#: core count: batching wins by cutting python dispatch overhead inside
#: one process, so a single-core host has no excuse.
BATCH_SPEEDUP_GATES = ("noc_engine_batch_speedup", "transient_lanes_speedup")


def parallel_speedup_failures(result: Dict[str, Any]) -> List[str]:
    """Full-mode gate: warm-pool parallel runs must beat serial.

    Quick runs log the speedups without gating (their workloads are too
    small to amortise anything), and a single-core machine cannot beat
    serial throughput no matter how warm the pool is, so the
    multi-process gates only apply when ``os.cpu_count() >= 2`` and the
    missing check is reported as a skip instead.  The batched-engine
    gates (:data:`BATCH_SPEEDUP_GATES`) are in-process vectorisation
    wins and are enforced on any core count.
    """
    if result.get("quick"):
        return []
    failures = []
    for name in BATCH_SPEEDUP_GATES:
        value = result.get("derived", {}).get(name)
        if value is not None and value <= 1.0:
            failures.append(
                f"{name}: {value:.2f}x <= 1.00x "
                "(a batch must beat a loop of one-lane runs)"
            )
    if (os.cpu_count() or 1) < 2:
        return failures
    for name in PARALLEL_SPEEDUP_GATES:
        value = result.get("derived", {}).get(name)
        if value is not None and value <= 1.0:
            failures.append(
                f"{name}: {value:.2f}x <= 1.00x "
                "(parallel must beat serial on a warm pool)"
            )
    return failures


def gate_against_baseline(
    result: Dict[str, Any],
    baseline: Dict[str, Any],
    gate_pct: float = DEFAULT_GATE_PCT,
) -> List[str]:
    """Names of benchmarks more than ``gate_pct`` % slower than baseline.

    Benchmarks absent from either side are skipped (adding a benchmark
    must not fail the gate), as are baselines recorded at a different
    ``quick`` setting - the workloads would not be comparable.
    """
    if bool(baseline.get("quick")) != bool(result.get("quick")):
        return []
    failures = []
    factor = 1.0 + gate_pct / 100.0
    for name, entry in sorted(result["benchmarks"].items()):
        base = baseline.get("benchmarks", {}).get(name)
        if base is None or base.get("seconds", 0) <= 0:
            continue
        if entry["seconds"] > base["seconds"] * factor:
            failures.append(
                f"{name}: {entry['seconds']:.4f}s vs baseline "
                f"{base['seconds']:.4f}s (> {gate_pct:.0f}% slower)"
            )
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=(
            "Run the pinned microbenchmark suite "
            "(see docs/performance.md)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller pinned workloads (CI smoke; ~1 min)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=min(4, os.cpu_count() or 1),
        metavar="N",
        help=(
            "worker processes for the parallel sweeps "
            "(default: 4, or the host's CPU count if smaller)"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="result file (default: BENCH_<rev>.json in the cwd)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="baseline BENCH_*.json to gate against (exit 1 on regression)",
    )
    parser.add_argument(
        "--gate-pct",
        type=float,
        default=DEFAULT_GATE_PCT,
        metavar="PCT",
        help="regression threshold in percent (default: %(default)s)",
    )
    parser.add_argument(
        "--skip",
        nargs="+",
        default=[],
        choices=["campaign", "e2e", "pool", "routing", "verify", "service"],
        metavar="SUITE",
        help=(
            "skip the slow suites "
            "(campaign, e2e, pool, routing, verify, service)"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print("bench error: --workers must be >= 1", file=sys.stderr)
        return 2
    result = run_suite(
        quick=args.quick, workers=args.workers, skip=tuple(args.skip)
    )
    output = args.output or f"BENCH_{result['rev']}.json"
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    for name, entry in sorted(result["benchmarks"].items()):
        print(f"  {name:<24} {entry['seconds']:.4f} s")
    for name, value in sorted(result["derived"].items()):
        print(f"  {name:<24} {value:.2f}x")

    speedup_failures = parallel_speedup_failures(result)
    if speedup_failures:
        print("parallel speedup gate failed:", file=sys.stderr)
        for failure in speedup_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    gated = not result["quick"] and (os.cpu_count() or 1) >= 2
    for name in PARALLEL_SPEEDUP_GATES:
        value = result["derived"].get(name)
        if value is not None:
            state = "gated > 1.0x" if gated else "logged, gate skipped"
            reason = "" if gated else (
                " (quick run)" if result["quick"] else " (single-core host)"
            )
            print(f"  {name}: {value:.2f}x [{state}{reason}]")
    for name in BATCH_SPEEDUP_GATES:
        value = result["derived"].get(name)
        if value is not None:
            state = (
                "logged, gate skipped (quick run)"
                if result["quick"]
                else "gated > 1.0x on any core count"
            )
            print(f"  {name}: {value:.2f}x [{state}]")

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = gate_against_baseline(
            result, baseline, gate_pct=args.gate_pct
        )
        if failures:
            print("benchmark regressions:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"gate passed vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
