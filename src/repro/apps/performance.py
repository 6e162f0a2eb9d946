"""Execution-time (WCET) estimation across (Vdd, DoP) operating points.

The paper's ``EstimateExecutionTime(Vi, Dk, Aj)`` (Algorithm 1, line 5)
reads offline profile data.  This module is the model behind that data:

* core cycle time follows the alpha-power frequency law of the chip;
* per-thread work shrinks with DoP, but synchronisation overhead grows
  with thread count, so speed-up saturates - the paper observed most
  applications slowing down beyond DoP 32 (Section 5.1), which the
  :class:`SyncOverheadModel` reproduces;
* communication time is the NoC transfer latency of the APG edges; before
  mapping, an average hop estimate is used (the runtime refines it with
  the mapped NoC model);
* the end-to-end WCET is the makespan of the EDF schedule of the DoP-sized
  application graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.graph import ApplicationGraph
from repro.chip.power import PowerModel
from repro.sched.edf import edf_schedule


@dataclass(frozen=True)
class SyncOverheadModel:
    """Synchronisation/communication overhead growth with DoP.

    The per-thread work of a ``dop``-thread run is::

        work(dop) = total_work * (serial + (1 - serial) / dop) * s(dop)
        s(dop)    = 1 + coeff * (dop - 4) / 4

    ``s`` models barrier/lock dilation: each doubling of the thread count
    adds a fixed fraction of overhead.  With the default coefficient, the
    marginal speed-up turns negative in the mid-30s thread range,
    matching the paper's observation that DoP beyond 32 hurts.
    """

    coeff: float = 0.06

    def __post_init__(self) -> None:
        if self.coeff < 0:
            raise ValueError("coeff must be non-negative")

    def factor(self, dop: int) -> float:
        if dop < 1:
            raise ValueError("dop must be at least 1")
        return 1.0 + self.coeff * max(0, dop - 4) / 4.0


@dataclass(frozen=True)
class PerformanceModel:
    """WCET estimator for an application graph at an operating point.

    Attributes:
        power_model: Chip power model (provides the frequency law).
        sync: Synchronisation-overhead model.
        noc_bytes_per_cycle: Effective NoC payload bandwidth per link.
        default_hops: Average hop distance assumed for WCET estimation
            before the mapping is known.
        per_hop_cycles: Router pipeline latency per hop.
    """

    power_model: PowerModel
    sync: SyncOverheadModel = SyncOverheadModel()
    noc_bytes_per_cycle: float = 4.0
    default_hops: float = 2.0
    per_hop_cycles: float = 3.0

    def cycle_time_s(self, vdd: float) -> float:
        """Core clock period at ``vdd``."""
        return 1.0 / self.power_model.frequency(vdd)

    def task_time_s(self, graph: ApplicationGraph, task_id: int, vdd: float) -> float:
        """Execution time of one task, including sync dilation."""
        task = graph.task(task_id)
        factor = self.sync.factor(graph.task_count)
        return task.work_cycles * factor * self.cycle_time_s(vdd)

    def comm_delay_s(
        self,
        graph: ApplicationGraph,
        src: int,
        dst: int,
        vdd: float,
        avg_hops: float = None,
        latency_scale: float = 1.0,
    ) -> float:
        """NoC transfer delay of one APG edge.

        Args:
            graph: The application graph.
            src, dst: Edge endpoints.
            vdd: Supply voltage (NoC routers share the domain clock).
            avg_hops: Average hop count of the mapping; defaults to the
                model's pre-mapping estimate.
            latency_scale: Multiplier for congestion (>= 1), supplied by
                the NoC model at runtime.
        """
        if latency_scale < 1.0:
            raise ValueError("latency_scale must be >= 1")
        hops = self.default_hops if avg_hops is None else avg_hops
        volume = graph.volume(src, dst)
        serialisation = volume / self.noc_bytes_per_cycle
        cycles = (serialisation + hops * self.per_hop_cycles) * latency_scale
        return cycles * self.cycle_time_s(vdd)

    def estimate_wcet_s(
        self,
        graph: ApplicationGraph,
        vdd: float,
        avg_hops: float = None,
        latency_scale: float = 1.0,
    ) -> float:
        """End-to-end execution-time estimate: EDF-schedule makespan with
        one dedicated core per thread.

        Equals scheduling with :meth:`task_time_s` and
        :meth:`comm_delay_s` bit for bit: the cycle time, sync factor and
        hop term are computed once and every task and edge time once,
        with the same expressions.
        """
        if latency_scale < 1.0:
            raise ValueError("latency_scale must be >= 1")
        cycle_time = self.cycle_time_s(vdd)
        factor = self.sync.factor(graph.task_count)
        times = {
            t.task_id: t.work_cycles * factor * cycle_time for t in graph.tasks()
        }
        hop_cycles = (
            self.default_hops if avg_hops is None else avg_hops
        ) * self.per_hop_cycles
        delays = {
            (s, d): (v / self.noc_bytes_per_cycle + hop_cycles)
            * latency_scale
            * cycle_time
            for s, d, v in graph.edges()
        }
        schedule = edf_schedule(
            graph,
            core_count=max(1, graph.task_count),
            task_time=times.__getitem__,
            comm_delay=lambda s, d: delays[s, d],
        )
        return schedule.makespan
