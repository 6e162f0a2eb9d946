"""Workload sequence generation for the paper's experiments.

Section 5.1: three sequences of up to 20 applications, picked randomly
from the communication-intensive group, the compute-intensive group, or
both (mixed), at inter-application arrival intervals of 0.2 s, 0.1 s and
0.05 s.  Each application carries a performance deadline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.apps.profiles import ApplicationProfile
from repro.apps.suite import (
    COMMUNICATION_BENCHMARKS,
    COMPUTE_BENCHMARKS,
    ProfileLibrary,
)


class WorkloadType(enum.Enum):
    """Which benchmark group a sequence draws from."""

    COMPUTE = "compute"
    COMMUNICATION = "communication"
    MIXED = "mixed"

    def pool(self) -> Tuple[str, ...]:
        if self is WorkloadType.COMPUTE:
            return COMPUTE_BENCHMARKS
        if self is WorkloadType.COMMUNICATION:
            return COMMUNICATION_BENCHMARKS
        return tuple(dict.fromkeys(COMPUTE_BENCHMARKS + COMMUNICATION_BENCHMARKS))


@dataclass(frozen=True)
class ApplicationArrival:
    """One application instance arriving at the CMP.

    Attributes:
        app_id: Unique index within the sequence.
        profile: The application's offline profile.
        arrival_s: Arrival time in seconds.
        deadline_s: Absolute completion deadline in seconds (relative
            deadline = ``deadline_s - arrival_s``).
    """

    app_id: int
    profile: ApplicationProfile
    arrival_s: float
    deadline_s: float

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if self.deadline_s <= self.arrival_s:
            raise ValueError("deadline must be after arrival")

    @property
    def relative_deadline_s(self) -> float:
        return self.deadline_s - self.arrival_s


def generate_workload(
    workload_type: WorkloadType,
    arrival_interval_s: float,
    n_apps: int = 20,
    seed: int = 0,
    library: Optional[ProfileLibrary] = None,
    deadline_slack_range: Tuple[float, float] = (3.0, 6.0),
    arrival_process: str = "periodic",
) -> List[ApplicationArrival]:
    """Generate one application sequence.

    Applications arrive at fixed intervals (the paper's "arrival rates" of
    0.2 s / 0.1 s / 0.05 s are inter-arrival intervals).  Each deadline is
    the fastest achievable WCET (highest Vdd, best DoP) times a slack
    factor drawn uniformly from ``deadline_slack_range`` - tight enough
    that the lowest Vdd cannot always be used, loose enough that PARM can
    usually trade Vdd for DoP.

    Args:
        workload_type: Benchmark group to draw from.
        arrival_interval_s: Mean time between consecutive arrivals.
        n_apps: Number of applications in the sequence.
        seed: RNG seed (sequences are fully deterministic).
        library: Shared profile library; built on demand if omitted.
        deadline_slack_range: Uniform range of the deadline slack factor.
        arrival_process: ``"periodic"`` (the paper's fixed intervals) or
            ``"poisson"`` (exponential inter-arrival times with the same
            mean - an extension for burstier arrival patterns).

    Returns:
        Arrivals sorted by arrival time.
    """
    if arrival_interval_s <= 0:
        raise ValueError("arrival_interval_s must be positive")
    if n_apps < 1:
        raise ValueError("n_apps must be at least 1")
    if arrival_process not in ("periodic", "poisson"):
        raise ValueError(
            f"unknown arrival process {arrival_process!r}; "
            "use 'periodic' or 'poisson'"
        )
    lo, hi = deadline_slack_range
    if not 1.0 <= lo <= hi:
        raise ValueError("deadline slack factors must be >= 1 and ordered")

    library = library or ProfileLibrary()
    rng = np.random.default_rng(seed)
    pool = workload_type.pool()
    arrivals: List[ApplicationArrival] = []
    next_arrival = 0.0
    for i in range(n_apps):
        name = str(rng.choice(pool))
        profile = library.get(name)
        if arrival_process == "periodic":
            arrival = i * arrival_interval_s
        else:
            arrival = next_arrival
            next_arrival += float(rng.exponential(arrival_interval_s))
        slack = float(rng.uniform(lo, hi))
        arrivals.append(
            ApplicationArrival(
                app_id=i,
                profile=profile,
                arrival_s=arrival,
                deadline_s=arrival + slack * profile.best_wcet_s,
            )
        )
    return arrivals
