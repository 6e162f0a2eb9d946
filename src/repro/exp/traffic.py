"""Traffic comparison: PARM vs HM under open-ended service load.

The paper's Fig. 6-8 replay a fixed 20-app sequence; this experiment
instead drives the :mod:`repro.runtime.service` runtime at three load
levels (light, saturation, overload - Poisson rates scaled off the
same base) and compares the frameworks where an overloaded service
actually differs: drop rate, SLA miss rate, shed fraction, and the
steady-state wait/sojourn percentiles from the streaming P-square
summaries.

The load ladder is expressed as multipliers of ``base_rate_hz`` so one
knob moves the whole experiment between regimes; the defaults put the
middle rung near the chip's service capacity for the mixed workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.runtime.service.arrivals import PoissonProcess
from repro.runtime.service.config import ServiceConfig
from repro.runtime.service.engine import ServiceEngine, ServiceState

#: (label, multiplier of the base rate) - light load, saturation knee,
#: sustained overload.
LOAD_LEVELS: Tuple[Tuple[str, float], ...] = (
    ("light", 0.5),
    ("saturation", 1.5),
    ("overload", 3.0),
)

#: The two headline frameworks of the paper's comparison.
TRAFFIC_FRAMEWORKS: Tuple[str, ...] = ("HM+XY", "PARM+PANR")


@dataclass(frozen=True)
class TrafficRow:
    """One (framework, load level) service outcome."""

    framework: str
    load: str
    rate_hz: float
    arrived: int
    completed: int
    drop_fraction: float
    sla_miss_fraction: float
    shed_fraction: float
    utilization_fraction: float
    wait_p95_s: float
    sojourn_p99_s: float
    peak_psn_pct: float


def traffic_sweep(
    base_rate_hz: float = 4.0,
    epochs: int = 4,
    epoch_duration_s: float = 2.0,
    seed: int = 0,
    frameworks: Sequence[str] = TRAFFIC_FRAMEWORKS,
    load_levels: Sequence[Tuple[str, float]] = LOAD_LEVELS,
    chip=None,
    library=None,
) -> List[TrafficRow]:
    """Run the frameworks x load-levels service grid.

    Engines are rebuilt per config (they are cheap next to the run);
    the profile library inside each engine is the expensive part, so
    pass the report's shared ``chip``/``library`` to skip re-warming.
    """
    from repro.apps.suite import ProfileLibrary
    from repro.chip.cmp import default_chip
    from repro.runtime.simulator import SimulatorContext

    chip = chip or default_chip()
    library = library or ProfileLibrary()
    context = SimulatorContext.for_chip(chip)

    rows: List[TrafficRow] = []
    for framework in frameworks:
        for label, multiplier in load_levels:
            rate = base_rate_hz * multiplier
            config = ServiceConfig(
                framework=framework,
                arrival=PoissonProcess(rate_hz=rate),
                epochs=epochs,
                epoch_duration_s=epoch_duration_s,
                root_seed=seed,
            )
            engine = ServiceEngine(
                config, chip=chip, library=library, context=context
            )
            state = ServiceState(config)
            for _ in range(config.epochs):
                engine.run_epoch(state)
            rows.append(_row(framework, label, rate, state))
    return rows


def _row(
    framework: str, load: str, rate_hz: float, state: ServiceState
) -> TrafficRow:
    stats = state.stats
    met = stats.total("sla_met")
    missed = stats.total("sla_missed")
    wait_p95 = max(
        stats.cls(name).wait.quantile_s(0.95) for name in stats.classes
    )
    sojourn_p99 = max(
        stats.cls(name).sojourn.quantile_s(0.99) for name in stats.classes
    )
    return TrafficRow(
        framework=framework,
        load=load,
        rate_hz=rate_hz,
        arrived=stats.total("arrived"),
        completed=stats.total("completed"),
        drop_fraction=stats.rate_fraction("rejected")
        + stats.rate_fraction("dropped"),
        sla_miss_fraction=missed / (met + missed) if met + missed else 0.0,
        shed_fraction=stats.rate_fraction("shed"),
        utilization_fraction=stats.utilization_fraction,
        wait_p95_s=wait_p95,
        sojourn_p99_s=sojourn_p99,
        peak_psn_pct=stats.peak_psn_pct,
    )


def print_traffic(rows: Sequence[TrafficRow]) -> None:
    """Print the traffic comparison table."""
    print("Service traffic under light / saturation / overload")
    print(
        f"{'framework':>10s} {'load':>10s} {'rate[Hz]':>8s} {'arr':>5s} "
        f"{'compl':>5s} {'drop':>6s} {'miss':>6s} {'shed':>6s} "
        f"{'util':>5s} {'waitP95':>8s} {'sojP99':>7s} {'peak[%]':>7s}"
    )
    for r in rows:
        print(
            f"{r.framework:>10s} {r.load:>10s} {r.rate_hz:>8.1f} "
            f"{r.arrived:>5d} {r.completed:>5d} {r.drop_fraction:>6.3f} "
            f"{r.sla_miss_fraction:>6.3f} {r.shed_fraction:>6.3f} "
            f"{r.utilization_fraction:>5.2f} {r.wait_p95_s:>8.3f} "
            f"{r.sojourn_p99_s:>7.3f} {r.peak_psn_pct:>7.2f}"
        )
