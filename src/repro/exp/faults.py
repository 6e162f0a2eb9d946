"""Fault-intensity sweep: robustness of the compared frameworks.

An extension of the Fig. 8 protocol: the same over-subscribed workload
is replayed while a seeded :class:`~repro.faults.campaign.FaultCampaign`
injects sensor faults, link/router failures, VRM droop episodes and
permanent tile failures, with the campaign's *intensity* swept from 0
(fault-free) to 1 (the full sampled schedule).  Campaigns are sampled
with coupled thinning, so the event set at a lower intensity is a subset
of the event set at a higher one - the sweep measures pure fault-load
response, not sampling noise.

Reported per (framework, intensity): applications completed, failed
(recovery retries exhausted), dropped (deadline), execution-time
degradation versus the same framework's fault-free run, and the
fault/re-map counters.  The headline comparison is PARM+PANR versus the
HM+XY baseline: the PSN-aware stack degrades gracefully (PANR falls back
toward XY under sensor faults; PARM re-maps around dead tiles) and
should complete at least as many applications at every intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.suite import ProfileLibrary
from repro.apps.workload import WorkloadType, generate_workload
from repro.chip.cmp import ChipDescription, default_chip
from repro.exp.frameworks import framework as fw_lookup
from repro.faults import (
    DEFAULT_FAULT_RATES,
    FaultCampaign,
    FaultRates,
)
from repro.harness.errors import ConfigError
from repro.harness.seeding import derive_seeds
from repro.runtime.metrics import RunMetrics
from repro.runtime.simulator import RuntimeSimulator

#: Frameworks compared in the sweep (headline pair of the robustness
#: story; any evaluation framework name is accepted).
FAULT_SWEEP_FRAMEWORKS = ("HM+XY", "PARM+PANR")

#: Default intensity grid (0 = fault-free reference point).  A coarse
#: grid keeps the per-step fault-load delta large relative to the
#: run-to-run timing jitter benign faults introduce, so the completion
#: curve is reliably monotone at the default seed count.
DEFAULT_INTENSITIES = (0.0, 0.5, 1.0)

#: Default campaign rates for the sweep: the module-level defaults
#: scaled so that permanent damage (dead tiles/routers), not timing
#: jitter, dominates each intensity step.
SWEEP_FAULT_RATES = DEFAULT_FAULT_RATES.scaled(3.0)

#: Historical seed offsets.  The sweep's committed outputs predate
#: :func:`repro.harness.seeding.derive_seeds`, so the legacy additive
#: streams (``7000 + seed`` for campaign sampling, ``seed + 1000`` for
#: the simulator) are preserved byte-identically via ``pinned=`` - the
#: pin is explicit at the call site instead of a bare offset.
_CAMPAIGN_SEED_OFFSET = 7000
_SIM_SEED_OFFSET = 1000


@dataclass(frozen=True)
class FaultSweepRow:
    """Seed-averaged outcome of one framework at one fault intensity."""

    framework: str
    intensity: float
    completed: float
    dropped: float
    failed: float
    total_time_s: float
    fault_count: float
    remap_count: float
    #: Execution-time degradation versus the same framework at
    #: intensity 0 (percent; 0 when the sweep omits intensity 0).
    degradation_pct: float


def fault_sweep(
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    framework_names: Sequence[str] = FAULT_SWEEP_FRAMEWORKS,
    workload_type: WorkloadType = WorkloadType.MIXED,
    arrival_interval_s: float = 0.1,
    n_apps: int = 12,
    seeds: Sequence[int] = (1, 2, 3),
    rates: FaultRates = SWEEP_FAULT_RATES,
    chip: Optional[ChipDescription] = None,
    library: Optional[ProfileLibrary] = None,
) -> List[FaultSweepRow]:
    """Sweep fault-campaign intensity over the compared frameworks.

    Campaigns are sampled once per seed at the full rate and thinned per
    intensity (one RNG stream per seed, shared across intensities and
    frameworks), so every framework faces the identical fault schedule
    and higher intensities strictly add events.

    Args:
        intensities: Thinning factors in ``[0, 1]``; include 0.0 to get
            the fault-free reference the degradation column needs.
        framework_names: Evaluation framework names to compare.
        workload_type: Benchmark group of the sequences.
        arrival_interval_s: Inter-application arrival interval.
        n_apps: Applications per sequence.
        seeds: One workload + campaign per seed; results are averaged.
        rates: Full-intensity Poisson rates of the campaign.
        chip: Platform (default: the paper's 60-tile 7 nm CMP).
        library: Shared profile library.

    Returns:
        One row per (framework, intensity), frameworks grouped together
        in the order given.

    Raises:
        ConfigError: on empty seed/intensity lists, out-of-range
            intensities, or non-positive ``n_apps`` /
            ``arrival_interval_s``.
    """
    seeds = tuple(seeds)
    intensities = tuple(intensities)
    if not seeds:
        raise ConfigError("seeds must not be empty")
    if not intensities:
        raise ConfigError("intensities must not be empty")
    out_of_range = [i for i in intensities if not 0.0 <= i <= 1.0]
    if out_of_range:
        raise ConfigError(
            "intensities must lie in [0, 1]", intensities=tuple(out_of_range)
        )
    if n_apps <= 0:
        raise ConfigError("n_apps must be positive", n_apps=n_apps)
    if not np.isfinite(arrival_interval_s) or arrival_interval_s <= 0:
        raise ConfigError(
            "arrival_interval_s must be positive and finite",
            arrival_interval_s=arrival_interval_s,
        )
    chip = chip or default_chip()
    library = library or ProfileLibrary()
    frameworks = [fw_lookup(name) for name in framework_names]
    # The campaign horizon must cover arrivals plus the execution tail.
    horizon_s = n_apps * arrival_interval_s + 5.0

    campaign_seeds = derive_seeds(
        seeds[0],
        "exp/faults/campaign",
        len(seeds),
        pinned=tuple(_CAMPAIGN_SEED_OFFSET + seed for seed in seeds),
    )
    sim_seeds = derive_seeds(
        seeds[0],
        "exp/faults/sim",
        len(seeds),
        pinned=tuple(seed + _SIM_SEED_OFFSET for seed in seeds),
    )

    per_point: Dict[Tuple[str, float], List[RunMetrics]] = {
        (fw.name, i): [] for fw in frameworks for i in intensities
    }
    for seed, campaign_seed, sim_seed in zip(
        seeds, campaign_seeds, sim_seeds
    ):
        workload = generate_workload(
            workload_type,
            arrival_interval_s,
            n_apps=n_apps,
            seed=seed,
            library=library,
        )
        campaigns = {
            intensity: FaultCampaign.sample(
                chip,
                horizon_s,
                np.random.default_rng(campaign_seed),
                rates=rates,
                intensity=intensity,
            )
            for intensity in intensities
        }
        for fw in frameworks:
            for intensity in intensities:
                sim = RuntimeSimulator(
                    chip,
                    fw.make_manager(),
                    fw.make_routing(),
                    faults=campaigns[intensity],
                    seed=sim_seed,
                )
                per_point[(fw.name, intensity)].append(sim.run(workload))

    rows: List[FaultSweepRow] = []
    for fw in frameworks:
        base_runs = per_point.get((fw.name, 0.0))
        base_time = (
            float(np.mean([r.total_time_s for r in base_runs]))
            if base_runs
            else 0.0
        )
        for intensity in intensities:
            runs = per_point[(fw.name, intensity)]
            total_time = float(np.mean([r.total_time_s for r in runs]))
            degradation = (
                100.0 * (total_time - base_time) / base_time
                if base_time > 0
                else 0.0
            )
            rows.append(
                FaultSweepRow(
                    framework=fw.name,
                    intensity=float(intensity),
                    completed=float(np.mean([r.completed_count for r in runs])),
                    dropped=float(np.mean([r.dropped_count for r in runs])),
                    failed=float(np.mean([r.failed_count for r in runs])),
                    total_time_s=total_time,
                    fault_count=float(np.mean([r.fault_count for r in runs])),
                    remap_count=float(np.mean([r.remap_count for r in runs])),
                    degradation_pct=degradation,
                )
            )
    return rows


def print_fault_sweep(rows: Optional[List[FaultSweepRow]] = None) -> None:
    """Print the sweep as the report's fixed-width table."""
    rows = rows if rows is not None else fault_sweep()
    print("Fault sweep: applications completed vs campaign intensity")
    print(
        f"{'framework':>10s} {'intensity':>9s} {'completed':>9s} "
        f"{'dropped':>7s} {'failed':>6s} {'faults':>6s} {'remaps':>6s} "
        f"{'time[s]':>8s} {'degr[%]':>8s}"
    )
    for r in rows:
        print(
            f"{r.framework:>10s} {r.intensity:>9.2f} {r.completed:>9.1f} "
            f"{r.dropped:>7.1f} {r.failed:>6.1f} {r.fault_count:>6.1f} "
            f"{r.remap_count:>6.1f} {r.total_time_s:>8.3f} "
            f"{r.degradation_pct:>+8.1f}"
        )
