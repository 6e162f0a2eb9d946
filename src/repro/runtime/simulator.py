"""Discrete-event runtime simulator: the paper's experiment loop.

Drives one workload sequence through one (mapper, router) framework
combination and produces the Fig. 6/7/8 metrics:

* applications arrive into a FCFS service queue; the resource manager
  assigns Vdd, DoP and a task-to-tile mapping (PARM Algorithm 1+2, or
  the HM baseline);
* mapped applications execute for an estimated time that accounts for
  parallelism, frequency at the chosen Vdd, NoC contention under the
  chosen routing scheme (flow-based analytical model) and periodic
  checkpointing overhead;
* power-supply noise is evaluated per power domain with the calibrated
  fast PSN model whenever the chip's occupancy or traffic changes; tiles
  whose peak PSN exceeds the 5 % margin suffer voltage emergencies at a
  rate growing with the exceedance, each costing a rollback penalty;
* an application whose deadline can no longer be met by any operating
  point is dropped (the paper's stagnation-avoidance rule);
* optionally, a seeded :class:`~repro.faults.campaign.FaultCampaign`
  injects component faults: sensors lie or die (PANR degrades toward
  deterministic XY), links and routers fail (flows are re-routed or the
  application re-mapped), VRM droop raises a domain's PSN floor, and a
  permanent tile failure triggers checkpoint rollback plus bounded-retry
  re-mapping with exponential backoff - exhausting the retries fails the
  application cleanly instead of raising.

All randomness (VE sampling) comes from one seeded generator, so runs
are reproducible; fault campaigns carry their own pre-sampled schedule,
so a run without faults is bit-identical to the fault-free simulator.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.apps.graph import ApplicationGraph
from repro.apps.performance import PerformanceModel
from repro.apps.profiles import FLIT_PAYLOAD_BYTES
from repro.apps.workload import ApplicationArrival
from repro.chip.cmp import ChipDescription
from repro.faults.campaign import FaultCampaign
from repro.faults.events import FaultKind
from repro.faults.recovery import RecoveryPolicy
from repro.faults.state import FaultState
from repro.noc.analytical import AnalyticalNocModel, Flow
from repro.noc.routing.base import RoutingAlgorithm
from repro.noc.topology import MeshTopology
from repro.pdn.emergencies import VoltageEmergencyPolicy
from repro.pdn.fast import BIN_INDEX, FastPsnModel
from repro.pdn.sensors import SensorNetwork
from repro.pdn.waveforms import ActivityBin
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.metrics import AppRecord, RunMetrics
from repro.runtime.migration import ReactiveMigrationPolicy, pick_migration_target
from repro.runtime.state import ChipState

if TYPE_CHECKING:  # avoid a circular import with repro.core
    from repro.core.base import MappingDecision, ResourceManager

_ARRIVAL = 0
_EXIT = 1
_FAULT = 2
_FAULT_END = 3
_RETRY = 4

#: Physical switching bound of a 5-port router, flits per cycle: router
#: loads are clamped here before conversion to power.
MAX_ROUTER_RATE = 4.0


@dataclass
class _RunningApp:
    arrival: ApplicationArrival
    decision: MappingDecision
    record: AppRecord
    exec_time_s: float
    remaining_s: float
    exit_version: int = 0
    #: Work fraction still owed when (re-)entering execution: 1.0 for a
    #: fresh mapping, the checkpointed progress for a fault recovery.
    resume_fraction: float = 1.0
    #: One-off penalty (rollback + restart transfer) folded into the
    #: next execution estimate.
    pending_penalty_s: float = 0.0


@dataclass(frozen=True)
class SimulatorContext:
    """Chip-derived immutables shared across simulators.

    Building a :class:`RuntimeSimulator` touches several structures that
    depend only on the chip description - the mesh topology (and its
    hop-distance tables), the fitted PSN kernel ladders, the performance
    model and the domain->tiles map.  A sweep that runs many seeds (or
    many framework combinations) over the same chip used to rebuild all
    of them per simulator; constructing the context once and passing it
    to every simulator hoists that warm-up out of the per-seed loop.
    Both runtime loops (this simulator and the service engine) take
    their PSN evaluation and execution estimate from it.

    The context is immutable and holds no per-run state, so sharing one
    instance across sequential or concurrent simulations of the same
    chip is safe.
    """

    chip: ChipDescription
    topology: MeshTopology
    psn_model: FastPsnModel
    performance: PerformanceModel
    #: Per power domain, the tuple of member tile ids (row-major).
    domain_tiles: Tuple[Tuple[int, ...], ...]
    #: Checkpoint/rollback cost model both runtime loops charge.
    checkpoints: ClassVar[CheckpointPolicy] = CheckpointPolicy()

    @classmethod
    def for_chip(cls, chip: ChipDescription) -> "SimulatorContext":
        """Build the shared immutables for one chip description."""
        return cls(
            chip=chip,
            topology=MeshTopology(chip.mesh),
            psn_model=FastPsnModel(),
            performance=PerformanceModel(chip.power_model),
            domain_tiles=tuple(
                tuple(chip.domains.tiles_of(d))
                for d in range(chip.domain_count)
            ),
        )

    def execution_s(
        self,
        graph: ApplicationGraph,
        vdd: float,
        avg_hops: float,
        latency_scale: float,
    ) -> float:
        """Execution estimate of both runtime loops: the WCET under the
        given NoC distance and contention, dilated by checkpointing."""
        frequency = self.chip.power_model.frequency(vdd)
        return self.performance.estimate_wcet_s(
            graph, vdd, avg_hops=avg_hops, latency_scale=latency_scale
        ) * self.checkpoints.execution_dilation(frequency)

    def evaluate_psn(
        self,
        state: ChipState,
        router_rate: Sequence[float],
        graphs: Mapping[int, ApplicationGraph],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-tile peak/avg PSN of one chip snapshot.

        The one PSN evaluation of both runtime loops, which differ only
        in how they derive router load.  Tile loads are gathered per
        domain into flat arrays and the kernel ladders are evaluated for
        *all* active domains with one batched matvec
        (:meth:`FastPsnModel.chip_psn`).

        Args:
            state: Occupancy and per-domain supply voltages; each
                occupant's Vdd is its core's supply.
            router_rate: Per-tile router load in flits/cycle; clamped at
                :data:`MAX_ROUTER_RATE` before conversion to power.
            graphs: Per running app id, its APG at its DoP (the source
                of each task's activity factor and bin).
        """
        chip = self.chip
        power_model = chip.power_model
        n = chip.tile_count
        peak = np.zeros(n)
        avg = np.zeros(n)
        low_bin = BIN_INDEX[ActivityBin.LOW]
        dom_vdds: List[float] = []
        dom_tiles: List[Tuple[int, ...]] = []
        core_w: List[List[float]] = []
        router_w: List[List[float]] = []
        bin_rows: List[List[int]] = []
        for domain, tiles in enumerate(self.domain_tiles):
            vdd = state.domain_vdd(domain)
            rates = [
                min(float(router_rate[t]), MAX_ROUTER_RATE) for t in tiles
            ]
            if vdd is None:
                if all(r <= 0.0 for r in rates):
                    continue  # fully dark and quiet
                # Idle domain carrying through-traffic: the NoC keeps its
                # routers powered at the lowest DVS step.
                vdd = chip.vdd_ladder.lowest
            cores = [0.0] * len(tiles)
            routers = [0.0] * len(tiles)
            bins = [low_bin] * len(tiles)
            for i, (tile, r_rate) in enumerate(zip(tiles, rates)):
                occ = state.occupant(tile)
                router_power = (
                    power_model.router_dynamic(r_rate, vdd)
                    + power_model.router_leakage(vdd)
                )
                if occ is None:
                    if r_rate > 0:
                        routers[i] = router_power
                    continue
                task = graphs[occ.app_id].task(occ.task_id)
                bins[i] = BIN_INDEX[task.activity_bin]
                cores[i] = power_model.core_dynamic(
                    task.activity_factor, occ.vdd
                ) + power_model.core_leakage(occ.vdd)
                routers[i] = router_power
            dom_vdds.append(vdd)
            dom_tiles.append(tiles)
            core_w.append(cores)
            router_w.append(routers)
            bin_rows.append(bins)
        if not dom_vdds:
            return peak, avg
        vdd_arr = np.array(dom_vdds)
        # Kernel inputs are mean currents: power / Vdd (what the scalar
        # path computes inside PsnKernel.evaluate from each TileLoad).
        i_core = np.array(core_w) / vdd_arr[:, None]
        i_router = np.array(router_w) / vdd_arr[:, None]
        d_peak, d_avg = self.psn_model.chip_psn(
            vdd_arr, i_core, i_router, np.array(bin_rows)
        )
        tiles_arr = np.array(dom_tiles)
        peak[tiles_arr] = d_peak
        avg[tiles_arr] = d_avg
        return peak, avg


@dataclass
class _RecoveringApp:
    """An application evicted by a fault, awaiting re-mapping."""

    arrival: ApplicationArrival
    record: AppRecord
    resume_fraction: float
    pending_penalty_s: float
    exit_version: int
    #: Re-map attempts made during this recovery episode (resets on
    #: every eviction; the retry budget is per episode).
    attempts: int = 0


class RuntimeSimulator:
    """Simulates one framework combination over one workload sequence.

    Args:
        chip: Platform description.
        manager: Resource manager (PARM or HM).
        routing: NoC routing algorithm (XY, ICON or PANR).
        ve_policy: Voltage-emergency rate model.
        reactive_migration: When set, a sensor reading over the trigger
            threshold migrates the offending thread to a quieter tile
            (the Orchestrator-style baseline's back end).
        faults: Optional pre-sampled fault campaign to replay during the
            run.  ``None`` or an empty campaign leaves every code path
            bit-identical to the fault-free simulator.
        recovery: Retry/backoff policy for fault recovery; defaults to
            :class:`~repro.faults.recovery.RecoveryPolicy`.
        record_trace: When true, the returned metrics carry a
            ``(time, chip peak PSN, occupied tiles)`` snapshot per
            scheduling event (for time-series analysis and plotting).
        seed: RNG seed for VE sampling.
        max_sim_time_s: Safety horizon; the run aborts past it.
        context: Pre-built chip-derived immutables
            (:class:`SimulatorContext`); pass one context to many
            simulators of the same chip to skip per-instance warm-up.
            Built on the fly when omitted.
    """

    def __init__(
        self,
        chip: ChipDescription,
        manager: ResourceManager,
        routing: RoutingAlgorithm,
        ve_policy: Optional[VoltageEmergencyPolicy] = None,
        reactive_migration: Optional[ReactiveMigrationPolicy] = None,
        faults: Optional[FaultCampaign] = None,
        recovery: Optional[RecoveryPolicy] = None,
        seed: int = 0,
        max_sim_time_s: float = 600.0,
        record_trace: bool = False,
        context: Optional[SimulatorContext] = None,
    ):
        self._chip = chip
        self._manager = manager
        self._routing = routing
        self._ve_policy = ve_policy or VoltageEmergencyPolicy()
        # Routing and the reactive back end see quantised sensor
        # readings; VE sampling uses the true noise.
        self._sensors = SensorNetwork()
        self._reactive = reactive_migration
        # An empty campaign is exactly "no faults": keep every fault hook
        # disabled so fault-free runs stay bit-identical to the seed.
        self._faults = faults if faults is not None and faults.events else None
        self._recovery = recovery or RecoveryPolicy()
        self._record_trace = record_trace
        self._rng = np.random.default_rng(seed)
        self._max_time = max_sim_time_s
        if context is None:
            context = SimulatorContext.for_chip(chip)
        elif context.chip is not chip:
            raise ValueError(
                "SimulatorContext was built for a different chip description"
            )
        self._context = context
        self._noc = AnalyticalNocModel(context.topology, routing)

    # ------------------------------------------------------------------

    def run(self, arrivals: Sequence[ApplicationArrival]) -> RunMetrics:
        """Execute one workload sequence to completion."""
        state = ChipState(self._chip)
        metrics = RunMetrics()
        running: Dict[int, _RunningApp] = {}
        queue: List[ApplicationArrival] = []

        heap: List[Tuple[float, int, int, int, int]] = []
        counter = itertools.count()
        for a in arrivals:
            metrics.apps[a.app_id] = AppRecord(
                app_id=a.app_id,
                name=a.profile.name,
                arrival_s=a.arrival_s,
                deadline_s=a.deadline_s,
            )
            heapq.heappush(
                heap, (a.arrival_s, next(counter), _ARRIVAL, a.app_id, 0)
            )
        arrivals_by_id = {a.app_id: a for a in arrivals}

        # ---- fault-campaign replay state (inert when no faults) --------
        fstate = FaultState(self._chip) if self._faults is not None else None
        recovering: Dict[int, _RecoveringApp] = {}
        if fstate is not None:
            for idx, ev in enumerate(self._faults.events):
                heapq.heappush(
                    heap, (ev.time_s, next(counter), _FAULT, idx, 0)
                )
                if not ev.permanent:
                    heapq.heappush(
                        heap, (ev.end_s, next(counter), _FAULT_END, idx, 0)
                    )

        # Current chip-wide PSN view (true and sensor-quantised).
        peak_psn = np.zeros(self._chip.tile_count)
        avg_psn = np.zeros(self._chip.tile_count)
        sensor_psn = np.zeros(self._chip.tile_count)
        sensor_valid: Optional[np.ndarray] = None
        move_cooldown: Dict[int, float] = {}
        now = 0.0

        # ---- fault-recovery helpers (closures over the run state) ------
        def evict_app(aid: int) -> None:
            """Checkpoint-rollback eviction: release tiles, remember
            progress, charge the rollback penalty to the restart."""
            app = running.pop(aid, None)
            if app is None:
                return
            frac = (
                app.remaining_s / app.exec_time_s
                if app.exec_time_s > 0
                else 1.0
            )
            freq = self._chip.power_model.frequency(app.decision.vdd)
            state.release(aid)
            recovering[aid] = _RecoveringApp(
                arrival=app.arrival,
                record=app.record,
                resume_fraction=min(1.0, max(0.0, frac)),
                pending_penalty_s=app.pending_penalty_s
                + self._context.checkpoints.rollback_penalty_s(freq),
                exit_version=app.exit_version,
            )

        def attempt_remap(aid: int) -> bool:
            """One re-mapping attempt; schedules a backoff retry on
            failure and fails the app cleanly when retries run out."""
            rec = recovering.get(aid)
            if rec is None:
                return False
            arrival = rec.arrival
            if arrival.profile.best_wcet_s >= arrival.deadline_s - now:
                rec.record.dropped_s = now
                del recovering[aid]
                return False
            if rec.record.remap_count >= self._recovery.max_total_remaps:
                # Lifetime re-map budget spent (the app keeps landing in
                # fault-broken spots): terminal failure, not churn.
                rec.record.failed_s = now
                del recovering[aid]
                return False
            rec.attempts += 1
            decision = self._manager.try_remap(
                rec.arrival.profile, rec.arrival.deadline_s - now, state
            )
            if decision is not None:
                state.occupy(
                    aid, decision.task_to_tile, decision.vdd, decision.power_w
                )
                rec.record.vdd = decision.vdd
                rec.record.dop = decision.dop
                rec.record.remap_count += 1
                metrics.remap_count += 1
                restart = self._recovery.per_task_restart_cost_s * decision.dop
                running[aid] = _RunningApp(
                    arrival=rec.arrival,
                    decision=decision,
                    record=rec.record,
                    exec_time_s=0.0,  # set by the next refresh
                    remaining_s=0.0,
                    exit_version=rec.exit_version,
                    resume_fraction=rec.resume_fraction,
                    pending_penalty_s=rec.pending_penalty_s + restart,
                )
                del recovering[aid]
                return True
            delay = self._recovery.retry_delay_s(rec.attempts)
            if delay is None:
                # This episode's retry budget is exhausted: abandon the
                # application as a clean outcome, not an exception.
                rec.record.failed_s = now
                del recovering[aid]
                return False
            heapq.heappush(
                heap, (now + delay, next(counter), _RETRY, aid, rec.attempts)
            )
            metrics.remap_retry_count += 1
            return False

        while heap:
            t, _, kind, app_id, version = heapq.heappop(heap)
            if t > self._max_time:
                break
            dt = t - now

            # ---- account the elapsed interval -------------------------
            occupied = state.occupied_tiles()
            metrics.record_psn_interval(
                dt,
                [float(avg_psn[tile]) for tile in occupied],
                float(np.max(peak_psn)) if occupied else 0.0,
            )
            if self._record_trace:
                metrics.trace.append(
                    (now, float(np.max(peak_psn)), len(occupied))
                )
            ve_hit = self._sample_emergencies(
                dt, state, running, peak_psn, metrics
            )
            for app in running.values():
                app.remaining_s = max(0.0, app.remaining_s - dt)
            now = t

            # ---- handle the event --------------------------------------
            occupancy_changed = False
            if kind == _ARRIVAL:
                queue.append(arrivals_by_id[app_id])
            elif kind == _EXIT:
                app = running.get(app_id)
                if app is None or app.exit_version != version:
                    pass  # stale exit
                elif app.remaining_s <= 1e-9:
                    state.release(app_id)
                    app.record.finished_s = now
                    metrics.total_time_s = max(metrics.total_time_s, now)
                    del running[app_id]
                    occupancy_changed = True
                # Otherwise a VE pushed the finish out; rescheduled below.
            elif kind == _FAULT:
                ev = self._faults.events[app_id]
                fstate.apply(ev, self._sensors)
                metrics.fault_count += 1
                if ev.kind in (FaultKind.TILE_FAIL, FaultKind.ROUTER_FAIL):
                    tile = int(ev.target)
                    occ = state.occupant(tile)
                    evicted = occ.app_id if occ is not None else None
                    if evicted is not None:
                        evict_app(evicted)
                    # Mark the tile dead *before* re-mapping so the
                    # recovery placement cannot land on it again.
                    if not state.is_failed(tile):
                        state.fail_tile(tile)
                    if evicted is not None:
                        attempt_remap(evicted)
                occupancy_changed = True
            elif kind == _FAULT_END:
                ev = self._faults.events[app_id]
                fstate.expire(ev, self._sensors)
                occupancy_changed = True
            elif kind == _RETRY:
                # Stale when the app already re-mapped, failed, dropped,
                # or entered a newer recovery episode (version carries
                # the episode attempt count that scheduled the retry).
                rec = recovering.get(app_id)
                if rec is not None and rec.attempts == version:
                    if attempt_remap(app_id):
                        occupancy_changed = True

            # ---- serve the FCFS queue ----------------------------------
            while queue:
                head = queue[0]
                record = metrics.apps[head.app_id]
                if head.profile.best_wcet_s >= head.deadline_s - now:
                    record.dropped_s = now
                    queue.pop(0)
                    continue
                decision = self._manager.try_map(
                    head.profile, head.deadline_s - now, state
                )
                if decision is None:
                    break  # FCFS: the head blocks until resources free up
                state.occupy(
                    head.app_id,
                    decision.task_to_tile,
                    decision.vdd,
                    decision.power_w,
                )
                record.mapped_s = now
                record.vdd = decision.vdd
                record.dop = decision.dop
                running[head.app_id] = _RunningApp(
                    arrival=head,
                    decision=decision,
                    record=record,
                    exec_time_s=0.0,  # set by the refresh below
                    remaining_s=0.0,
                )
                queue.pop(0)
                occupancy_changed = True

            # ---- refresh NoC + PSN + execution estimates ----------------
            if occupancy_changed:
                peak_psn, avg_psn, sensor_psn, sensor_valid, unroutable = (
                    self._refresh(
                        state, running, sensor_psn, sensor_valid, fstate, now
                    )
                )
                # Dead links/routers can leave a placed app's flows
                # unroutable: recover those apps (eviction first so the
                # re-maps see every freed tile).  Each pass either
                # re-places or retires an app, so the loop is bounded;
                # the guard caps pathological churn.
                guard = 0
                while unroutable and guard < 8:
                    for aid in sorted(unroutable):
                        evict_app(aid)
                    for aid in sorted(unroutable):
                        attempt_remap(aid)
                    (
                        peak_psn,
                        avg_psn,
                        sensor_psn,
                        sensor_valid,
                        unroutable,
                    ) = self._refresh(
                        state, running, sensor_psn, sensor_valid, fstate, now
                    )
                    guard += 1
                reschedule = set(running)
            else:
                reschedule = ve_hit

            # ---- reactive hotspot migration (extension) ----------------
            if self._reactive is not None and running:
                moved = self._reactive_move(
                    state, running, sensor_psn, now, metrics, move_cooldown
                )
                if moved:
                    peak_psn, avg_psn, sensor_psn, sensor_valid, _ = (
                        self._refresh(
                            state, running, sensor_psn, sensor_valid,
                            fstate, now,
                        )
                    )
                    reschedule = set(running)

            for aid in reschedule:
                app = running.get(aid)
                if app is None:
                    continue
                app.exit_version += 1
                heapq.heappush(
                    heap,
                    (
                        now + app.remaining_s,
                        next(counter),
                        _EXIT,
                        aid,
                        app.exit_version,
                    ),
                )

        return metrics

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reactive_move(
        self,
        state: ChipState,
        running: Dict[int, _RunningApp],
        sensor_psn: np.ndarray,
        now: float,
        metrics: RunMetrics,
        cooldown: Dict[int, float],
    ) -> bool:
        """Move the thread on the noisiest over-threshold tile.

        Returns True when a migration happened.
        """
        policy = self._reactive
        if metrics.reactive_move_count >= policy.max_moves:
            return False
        # Noisiest occupied tile above the trigger whose app is off
        # cooldown.
        best_tile, best_level = None, policy.trigger_pct
        for tile in state.occupied_tiles():
            occ = state.occupant(tile)
            level = float(sensor_psn[tile])
            if level <= best_level:
                continue
            last = cooldown.get(occ.app_id)
            if last is not None and now - last < policy.cooldown_s:
                continue
            best_tile, best_level = tile, level
        if best_tile is None:
            return False
        occ = state.occupant(best_tile)
        app = running.get(occ.app_id)
        if app is None:
            return False
        target = pick_migration_target(state, best_tile, occ.vdd)
        if target is None:
            return False
        state.move_task(occ.app_id, occ.task_id, target)
        new_map = dict(app.decision.task_to_tile)
        new_map[occ.task_id] = target
        app.decision = replace(app.decision, task_to_tile=new_map)
        app.remaining_s += policy.per_task_cost_s
        app.record.migrated_tasks += 1
        metrics.reactive_move_count += 1
        cooldown[occ.app_id] = now
        return True

    def _sample_emergencies(
        self,
        dt: float,
        state: ChipState,
        running: Dict[int, _RunningApp],
        peak_psn: np.ndarray,
        metrics: RunMetrics,
    ) -> set:
        """Poisson-sample VEs over the elapsed interval; charge rollbacks."""
        hit = set()
        if dt <= 0:
            return hit
        penalties: Dict[int, float] = {}
        for tile in state.occupied_tiles():
            occ = state.occupant(tile)
            count = self._ve_policy.sample_emergencies(
                float(peak_psn[tile]), dt, self._rng
            )
            if count == 0:
                continue
            app = running.get(occ.app_id)
            if app is None:
                continue
            freq = self._chip.power_model.frequency(app.decision.vdd)
            penalties[occ.app_id] = penalties.get(occ.app_id, 0.0) + (
                count * self._context.checkpoints.rollback_penalty_s(freq)
            )
            app.record.ve_count += count
            metrics.total_ve_count += count
            hit.add(occ.app_id)
        for aid, penalty in penalties.items():
            # Rollbacks cannot erase more than the elapsed interval:
            # checkpointing guarantees some forward progress, so at worst
            # 90 % of the interval is lost to re-execution.
            running[aid].remaining_s += min(penalty, 0.9 * dt)
        return hit

    def _refresh(
        self,
        state: ChipState,
        running: Dict[int, _RunningApp],
        prev_sensor_psn: np.ndarray,
        prev_sensor_valid: Optional[np.ndarray] = None,
        fstate: Optional[FaultState] = None,
        now: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], Set[int]]:
        """Recompute NoC load, PSN and per-app execution estimates.

        Returns ``(peak, avg, sensor, sensor_valid, unroutable_app_ids)``;
        the last two stay ``None`` / empty on fault-free runs.
        """
        # --- flows from every running application ----------------------
        graphs = {
            aid: app.arrival.profile.graph(app.decision.dop)
            for aid, app in running.items()
        }
        flows: List[Flow] = []
        flow_app: List[Tuple[int, float]] = []  # (app_id, volume)
        for aid, app in running.items():
            d = app.decision
            graph = graphs[aid]
            freq = self._chip.power_model.frequency(d.vdd)
            base_cycles = app.arrival.profile.wcet_s(d.vdd, d.dop) * freq
            for src, dst, volume in graph.edges():
                rate = (volume / FLIT_PAYLOAD_BYTES) / base_cycles
                flows.append(
                    Flow(d.task_to_tile[src], d.task_to_tile[dst], rate)
                )
                flow_app.append((aid, volume))
        noc_faulty = fstate is not None and fstate.any_noc_faults
        report = self._noc.evaluate(
            flows,
            psn_pct=prev_sensor_psn,
            psn_valid=prev_sensor_valid,
            dead_links=fstate.dead_links if noc_faulty else None,
            dead_routers=fstate.dead_routers if noc_faulty else None,
        )
        unroutable: Set[int] = set()
        if noc_faulty:
            unroutable = {
                flow_app[i][0] for i in report.unroutable_flow_indices
            }

        # --- per-app NoC aggregates -> execution estimates --------------
        hop_acc: Dict[int, float] = {}
        scale_max: Dict[int, float] = {}
        vol_acc: Dict[int, float] = {}
        for (aid, volume), stats in zip(flow_app, report.flows):
            hop_acc[aid] = hop_acc.get(aid, 0.0) + volume * stats.avg_hops
            # The application's makespan follows its *bottleneck* edge:
            # congestion on any critical-path link stalls the whole
            # pipeline, so the worst per-flow scale applies.
            scale_max[aid] = max(scale_max.get(aid, 1.0), stats.latency_scale)
            vol_acc[aid] = vol_acc.get(aid, 0.0) + volume

        for aid, app in running.items():
            d = app.decision
            vol = vol_acc.get(aid, 0.0)
            if vol > 0:
                avg_hops = max(1.0, hop_acc[aid] / vol)
                latency_scale = scale_max.get(aid, 1.0)
            else:
                avg_hops, latency_scale = 1.0, 1.0
            exec_time = self._context.execution_s(
                graphs[aid], d.vdd, avg_hops, latency_scale
            )
            if app.exec_time_s <= 0.0:
                # Freshly (re-)mapped: owe the resume fraction of the new
                # estimate plus any rollback/restart penalty.  For a fresh
                # mapping this is exactly ``exec_time * 1.0 + 0.0``.
                app.remaining_s = (
                    exec_time * app.resume_fraction + app.pending_penalty_s
                )
                app.pending_penalty_s = 0.0
            else:
                # Rescale to the new estimate; the ratio is exactly 1.0
                # when the estimate is unchanged, so this is a no-op then.
                app.remaining_s *= exec_time / app.exec_time_s
            app.exec_time_s = exec_time

        # --- PSN per power domain ----------------------------------------
        peak, avg = self._context.evaluate_psn(
            state, report.router_flits_per_cycle, graphs
        )
        if fstate is not None:
            if fstate.droop_pct.any():
                # VRM droop raises the domain's noise floor for true PSN
                # (VE sampling) and for what the sensors observe.
                peak = peak + fstate.droop_pct
                avg = avg + fstate.droop_pct
            sensor, valid = self._sensors.read_tiles(peak, now)
            return peak, avg, sensor, valid, unroutable
        sensor = self._sensors.read_array(peak)
        return peak, avg, sensor, None, unroutable
