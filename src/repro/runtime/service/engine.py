"""The service event loop: one epoch at a time, O(1) state.

:class:`ServiceEngine` serves an open-ended arrival stream through the
paper's resource managers (PARM or HM) on the real
:class:`~repro.runtime.state.ChipState`, with the robustness control
plane of :mod:`repro.runtime.service.config`: admission control, load
shedding under backlog pressure and PSN emergencies, preemption of
best-effort work, and bounded-backoff re-admission.

Shared with :class:`~repro.runtime.simulator.RuntimeSimulator`, each
from one owner:

* deadline feasibility,
  :attr:`~repro.apps.profiles.ApplicationProfile.best_wcet_s`;
* the PSN evaluation on every occupancy change,
  :meth:`~repro.runtime.simulator.SimulatorContext.evaluate_psn`;
* the execution estimate,
  :meth:`~repro.runtime.simulator.SimulatorContext.execution_s`;
* the occupancy scan,
  :meth:`~repro.runtime.state.ChipState.occupied_tiles`;
* the re-admission retry budget,
  :meth:`~repro.faults.recovery.RecoveryPolicy.retry_delay_s` (the
  first try after an eviction waits the initial backoff instead of
  running at once).

Model notes (where the service loop differs on purpose):

* **NoC contention proxy.**  The fixed-sequence simulator re-runs the
  flow-based analytical NoC model on every occupancy change.  In a
  traced seed-1 perfbench ``campaign`` run on a 2-core host that
  refresh took 67-70 % of the in-process time (10.3-11.6 of
  15.1-17.3 s) with the plain fixed point, and 47-49 % (4.1-5.0 of
  8.4-10.3 s) once context-free policies propagated once and weights
  were memoised per iteration: still the largest layer, and it would
  grow with every one of millions of arrivals.  The service loop
  instead scales execution estimates by ``1 + contention_scale *
  occupied_fraction`` and uses the placement's true mean hop
  distance - a calibrated occupancy proxy that keeps mapper effects
  (PARM's placement and Vdd/DoP choices) while staying O(tiles) per
  refresh.  Router load for the PSN evaluation is likewise a proxy:
  each task injects its profiled flit rate at its own router.
* **Deferred VE sampling.**  Instead of Poisson-sampling every tile on
  every event, each running app accrues *expected* VE exposure
  (``expected_rate_hz`` at its noisiest tile, integrated over time) and
  one Poisson draw at its exit converts the exposure into emergencies
  and a rollback penalty.  Same distribution, one draw per app.
* **Metrics.**  O(1) streaming :class:`TrafficStats` (a time-weighted
  mean of the cached per-refresh PSN) instead of one record per app.
* **Eviction.**  An evicted app resumes from the fraction of the work
  charged at its start (``work_s``) still left, not of a re-scaled
  estimate.
* **Head blocking.**  A class whose head failed to map joins
  ``blocked`` until occupancy changes (an exit, a fault, a preemption
  or a PSN shed clears it); arrivals into a blocked class enqueue
  without another ``try_map``.  Dropping a blocked class's infeasible
  head does not unblock it, so the next head waits for the next
  occupancy change even when it would map now.  The simulator instead
  tries its FCFS head at every event.

Determinism: every draw comes from two per-epoch streams derived with
:func:`~repro.harness.seeding.derive_seed` (``service/arrivals`` and
``service/ve``), consumed in event order; the event heap is keyed by
``(time, kind, app_id)`` with no wall clock anywhere.  An epoch is a
pure function of ``(config, entry state)`` - the property the
epoch-chunked campaign checkpointing rides on.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.profiles import FLIT_PAYLOAD_BYTES
from repro.apps.suite import ProfileLibrary
from repro.apps.workload import WorkloadType
from repro.chip.cmp import ChipDescription, default_chip
from repro.harness.errors import ConfigError
from repro.harness.seeding import derive_seed
from repro.pdn.emergencies import MAX_POISSON_MEAN, VoltageEmergencyPolicy
from repro.pdn.sensors import SensorFault, SensorNetwork
from repro.runtime.service.arrivals import UniformStream
from repro.runtime.service.config import ServiceConfig
from repro.runtime.service.stats import TrafficStats
from repro.runtime.simulator import SimulatorContext
from repro.runtime.state import ChipState

# Event kinds, in same-instant processing order: faults reshape the
# chip first, exits free capacity, retries re-admit, arrivals join last.
_FAULT = 0
_EXIT = 1
_RETRY = 2
_ARRIVAL = 3

class ServiceState:
    """Mutable, JSON-serialisable state of the service between epochs.

    Everything the next epoch needs and nothing that grows with the
    arrival count: the bounded queues, the running set (at most one app
    per tile), the re-admission list, the arrival process phase, and
    the streaming :class:`~repro.runtime.service.stats.TrafficStats`.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.epoch = 0
        self.now_s = 0.0
        self.next_app_id = 0
        self.next_arrival_s = 0.0
        self.arrival_state: Dict[str, Any] = {}
        #: Per class name, FIFO of queued app entries.
        self.queues: Dict[str, List[Dict[str, Any]]] = {
            name: [] for name in config.class_names
        }
        #: Running app entries keyed by app id.
        self.running: Dict[int, Dict[str, Any]] = {}
        #: Re-admission entries keyed by app id.
        self.readmit: Dict[int, Dict[str, Any]] = {}
        self.failed_tiles: List[int] = []
        self.applied_faults = 0
        self.stats = TrafficStats(config.class_names)

    # ------------------------------------------------------------------

    def backlog(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def to_json(self) -> Dict[str, Any]:
        return {
            "applied_faults": int(self.applied_faults),
            "arrival_state": self.arrival_state,
            "epoch": int(self.epoch),
            "failed_tiles": sorted(int(t) for t in self.failed_tiles),
            "next_app_id": int(self.next_app_id),
            "next_arrival_s": float(self.next_arrival_s),
            "now_s": float(self.now_s),
            "queues": {
                name: list(entries) for name, entries in self.queues.items()
            },
            "readmit": [
                self.readmit[aid] for aid in sorted(self.readmit)
            ],
            "running": [
                self.running[aid] for aid in sorted(self.running)
            ],
            "stats": self.stats.to_json(),
        }

    @classmethod
    def from_json(
        cls, data: Dict[str, Any], config: ServiceConfig
    ) -> "ServiceState":
        state = cls(config)
        state.epoch = int(data["epoch"])
        state.now_s = float(data["now_s"])
        state.next_app_id = int(data["next_app_id"])
        state.next_arrival_s = float(data["next_arrival_s"])
        state.arrival_state = dict(data["arrival_state"])
        state.queues = {
            name: [dict(e) for e in data["queues"].get(name, [])]
            for name in config.class_names
        }
        state.running = {
            int(e["app_id"]): dict(e) for e in data["running"]
        }
        state.readmit = {
            int(e["app_id"]): dict(e) for e in data["readmit"]
        }
        state.failed_tiles = [int(t) for t in data["failed_tiles"]]
        state.applied_faults = int(data["applied_faults"])
        state.stats = TrafficStats.from_json(data["stats"])
        return state


class ServiceEngine:
    """Runs service epochs for one :class:`ServiceConfig`.

    Args:
        config: The service description (framework, traffic, policies).
        chip: Platform; defaults to the paper's 60-tile 7 nm CMP.
        library: Shared profile library.
        context: Pre-built chip immutables (shared across engines).
    """

    def __init__(
        self,
        config: ServiceConfig,
        chip: Optional[ChipDescription] = None,
        library: Optional[ProfileLibrary] = None,
        context: Optional[SimulatorContext] = None,
    ) -> None:
        from repro.exp.frameworks import framework as lookup_framework

        self._config = config
        self._chip = chip or default_chip()
        self._library = library or ProfileLibrary()
        self._context = context or SimulatorContext.for_chip(self._chip)
        self._sensors = SensorNetwork()
        self._ve_policy = VoltageEmergencyPolicy()
        self._manager = lookup_framework(config.framework).make_manager()
        self._pool = WorkloadType(config.workload).pool()
        self._topology = self._context.topology
        #: Per-(profile, vdd, dop) mean task injection rate in flits per
        #: cycle (router-activity proxy); bounded by the operating-point
        #: grid.
        self._inject_rate: Dict[Tuple[str, float, int], float] = {}
        # Cached inter-refresh scalars for O(1) interval accounting.
        self._occupied_tiles = 0
        self._mean_occ_psn_pct = 0.0
        self._chip_peak_psn_pct = 0.0

    @property
    def config(self) -> ServiceConfig:
        return self._config

    # ------------------------------------------------------------------
    # Profile helpers (memoised; keys bounded by the benchmark suite)
    # ------------------------------------------------------------------

    def _task_inject_rate(
        self, profile_name: str, vdd: float, dop: int
    ) -> float:
        """Mean flits/cycle one task of the app pushes at its router.

        Total communication volume spread over the execution, divided
        evenly over the app's tasks - the same volume/WCET rate the
        analytical NoC derives per flow, collapsed to a per-router
        activity proxy.
        """
        key = (profile_name, vdd, dop)
        rate = self._inject_rate.get(key)
        if rate is None:
            profile = self._library.get(profile_name)
            graph = profile.graph(dop)
            volume = sum(v for _, _, v in graph.edges())
            freq = self._chip.power_model.frequency(vdd)
            base_cycles = profile.wcet_s(vdd, dop) * freq
            rate = (
                (volume / FLIT_PAYLOAD_BYTES) / base_cycles / max(1, dop)
                if base_cycles > 0
                else 0.0
            )
            self._inject_rate[key] = rate
        return rate

    # ------------------------------------------------------------------

    def run_epoch(self, state: ServiceState) -> ServiceState:
        """Advance ``state`` by one epoch (mutates and returns it).

        The epoch is a pure function of ``(config, entry state)``: all
        randomness comes from per-epoch derived streams consumed in
        event order.
        """
        cfg = self._config
        epoch = state.epoch
        t_end = (epoch + 1) * cfg.epoch_duration_s
        if state.now_s > t_end:
            raise ConfigError(
                "state is ahead of the epoch boundary",
                now_s=state.now_s,
                epoch=epoch,
            )
        stream = UniformStream(
            np.random.default_rng(
                derive_seed(cfg.root_seed, "service/arrivals", epoch)
            )
        )
        rng_ve = np.random.default_rng(
            derive_seed(cfg.root_seed, "service/ve", epoch)
        )
        arrival = cfg.arrival
        arrival.load_state(state.arrival_state)

        chip_state = ChipState(
            self._chip, failed_tiles=set(state.failed_tiles)
        )
        for aid in sorted(state.running):
            entry = state.running[aid]
            chip_state.occupy(
                aid,
                {int(t): tile for t, tile in entry["task_to_tile"].items()},
                entry["vdd"],
                entry["power_w"],
            )

        heap: List[Tuple[float, int, int, int]] = []
        for aid in sorted(state.running):
            entry = state.running[aid]
            heapq.heappush(
                heap, (entry["exit_s"], _EXIT, aid, entry["exit_version"])
            )
        for aid in sorted(state.readmit):
            entry = state.readmit[aid]
            heapq.heappush(
                heap, (entry["retry_at_s"], _RETRY, aid, entry["attempts"])
            )
        heapq.heappush(
            heap, (state.next_arrival_s, _ARRIVAL, state.next_app_id, 0)
        )
        for idx in range(state.applied_faults, len(cfg.faults)):
            fault = cfg.faults[idx]
            if fault.time_s < t_end:
                heapq.heappush(heap, (fault.time_s, _FAULT, idx, 0))

        now = state.now_s
        #: Classes whose head failed to map since the last occupancy
        #: change; arrivals into them enqueue without another try_map.
        blocked: set = set()
        self._refresh(state, chip_state, now)

        def settle_interval(t: float) -> None:
            nonlocal now
            if t > now:
                state.stats.record_interval(
                    t - now,
                    self._chip.tile_count,
                    self._occupied_tiles,
                    self._mean_occ_psn_pct,
                    self._chip_peak_psn_pct,
                )
                now = t

        while heap and heap[0][0] < t_end:
            t, kind, ident, version = heapq.heappop(heap)
            settle_interval(t)
            occupancy_changed = False

            if kind == _ARRIVAL:
                self._handle_arrival(state, chip_state, stream, now, heap, t_end)
                # An arrival only changes occupancy via the serve step
                # below; admission itself never touches the chip.
            elif kind == _EXIT:
                occupancy_changed = self._handle_exit(
                    state, chip_state, ident, version, rng_ve, now, heap
                )
            elif kind == _RETRY:
                occupancy_changed = self._handle_retry(
                    state, chip_state, ident, version, now, heap
                )
            elif kind == _FAULT:
                occupancy_changed = self._handle_fault(
                    state, chip_state, ident, now, heap
                )

            if occupancy_changed:
                blocked.clear()
            served = self._serve_queues(
                state, chip_state, now, heap, blocked
            )
            if occupancy_changed or served:
                self._refresh_and_shed(state, chip_state, now, heap, blocked)

        settle_interval(t_end)
        self._settle_ve_exposure(state, t_end)
        state.now_s = t_end
        state.epoch = epoch + 1
        state.arrival_state = arrival.state_json()
        state.failed_tiles = sorted(chip_state.failed_tiles())
        return state

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _handle_arrival(
        self,
        state: ServiceState,
        chip_state: ChipState,
        stream: UniformStream,
        now: float,
        heap: List,
        t_end: float,
    ) -> None:
        cfg = self._config
        app_id = state.next_app_id
        # Class, profile and deadline slack: three uniforms, always
        # consumed in this order so the stream stays aligned whatever
        # admission decides.
        u_cls = stream.next()
        u_profile = stream.next()
        u_slack = stream.next()
        acc = 0.0
        service_cls = cfg.classes[-1]
        for c in cfg.classes:
            acc += c.share_fraction
            if u_cls < acc:
                service_cls = c
                break
        profile_name = self._pool[
            min(int(u_profile * len(self._pool)), len(self._pool) - 1)
        ]
        best_wcet = self._library.get(profile_name).best_wcet_s
        slack = service_cls.slack_scale * (0.75 + 0.5 * u_slack)
        deadline_s = now + slack * best_wcet
        stats = state.stats.cls(service_cls.name)
        stats.bump("arrived")

        rejected = False
        if cfg.admission.reject_infeasible and best_wcet >= deadline_s - now:
            rejected = True
        elif len(state.queues[service_cls.name]) >= service_cls.queue_cap:
            rejected = True
        elif state.backlog() >= cfg.admission.max_total_queue:
            rejected = True
        if rejected:
            stats.bump("rejected")
        else:
            stats.bump("admitted")
            state.queues[service_cls.name].append(
                {
                    "app_id": app_id,
                    "arrival_s": now,
                    "cls": service_cls.name,
                    "deadline_s": deadline_s,
                    "profile": profile_name,
                }
            )
            self._shed_backlog(state, now)

        # Schedule the next arrival (draws ride the same stream).
        state.next_app_id = app_id + 1
        gap = cfg.arrival.next_gap_s(now, stream)
        state.next_arrival_s = now + gap
        if state.next_arrival_s < t_end:
            heapq.heappush(
                heap, (state.next_arrival_s, _ARRIVAL, state.next_app_id, 0)
            )

    def _shed_backlog(self, state: ServiceState, now: float) -> None:
        """Queue-pressure shedding: drop queued best-effort work."""
        cfg = self._config
        limit = cfg.shedding.backlog_fraction * cfg.admission.max_total_queue
        if state.backlog() <= limit:
            return
        for c in reversed(cfg.classes):
            if not c.best_effort:
                continue
            queue = state.queues[c.name]
            while queue and state.backlog() > limit:
                queue.pop()  # newest best-effort work goes first
                state.stats.cls(c.name).bump("shed")
                state.stats.shed_events += 1

    def _handle_exit(
        self,
        state: ServiceState,
        chip_state: ChipState,
        app_id: int,
        version: int,
        rng_ve: np.random.Generator,
        now: float,
        heap: List,
    ) -> bool:
        entry = state.running.get(app_id)
        if entry is None or entry["exit_version"] != version:
            return False  # stale exit (app shed/preempted/penalised)
        self._settle_app_ve(entry, now)
        if not entry["penalized"]:
            entry["penalized"] = True
            count = self._sample_ve_count(entry, rng_ve)
            if count > 0:
                stats = state.stats.cls(entry["cls"])
                stats.bump("ve_count", count)
                state.stats.ve_count += count
                freq = self._chip.power_model.frequency(entry["vdd"])
                checkpoints = self._context.checkpoints
                penalty = count * checkpoints.rollback_penalty_s(freq)
                entry["exit_s"] = now + penalty
                entry["exit_version"] = version + 1
                heapq.heappush(
                    heap, (entry["exit_s"], _EXIT, app_id, version + 1)
                )
                return False
        # Completion.
        chip_state.release(app_id)
        stats = state.stats.cls(entry["cls"])
        stats.bump("completed")
        stats.busy_tile_s += len(entry["task_to_tile"]) * (
            now - entry["mapped_s"]
        )
        sojourn = now - entry["arrival_s"]
        stats.sojourn.add(sojourn)
        if now <= entry["deadline_s"] + 1e-9:
            stats.bump("sla_met")
        else:
            stats.bump("sla_missed")
        del state.running[app_id]
        return True

    def _sample_ve_count(
        self, entry: Dict[str, Any], rng_ve: np.random.Generator
    ) -> int:
        mean = entry["ve_mean"]
        if mean <= 0:
            return 0
        return int(rng_ve.poisson(min(mean, MAX_POISSON_MEAN)))

    def _handle_retry(
        self,
        state: ServiceState,
        chip_state: ChipState,
        app_id: int,
        version: int,
        now: float,
        heap: List,
    ) -> bool:
        cfg = self._config
        entry = state.readmit.get(app_id)
        if entry is None or entry["attempts"] != version:
            return False  # stale retry
        stats = state.stats.cls(entry["cls"])
        profile = self._library.get(entry["profile"])
        if profile.best_wcet_s >= entry["deadline_s"] - now:
            stats.bump("dropped")
            del state.readmit[app_id]
            return False
        decision = self._manager.try_map(
            profile, entry["deadline_s"] - now, chip_state
        )
        if decision is not None:
            del state.readmit[app_id]
            stats.bump("readmitted")
            self._start_app(
                state,
                chip_state,
                entry,
                decision,
                now,
                heap,
                resume_fraction=entry["resume_fraction"],
                penalty_s=entry["penalty_s"]
                + cfg.recovery.per_task_restart_cost_s * decision.dop,
            )
            return True
        entry["attempts"] += 1
        delay = cfg.recovery.retry_delay_s(entry["attempts"])
        if delay is None:
            stats.bump("failed")
            del state.readmit[app_id]
            return False
        entry["retry_at_s"] = now + delay
        heapq.heappush(
            heap, (entry["retry_at_s"], _RETRY, app_id, entry["attempts"])
        )
        return False

    def _handle_fault(
        self,
        state: ServiceState,
        chip_state: ChipState,
        index: int,
        now: float,
        heap: List,
    ) -> bool:
        fault = self._config.faults[index]
        state.applied_faults = max(state.applied_faults, index + 1)
        state.stats.fault_count += 1
        if fault.kind in ("tile_fail", "router_fail"):
            tile = fault.target
            occ = chip_state.occupant(tile)
            if occ is not None:
                self._evict(
                    state, chip_state, occ.app_id, now, heap,
                    counter="preempted",
                )
            if not chip_state.is_failed(tile):
                chip_state.fail_tile(tile)
            return True
        if fault.kind == "sensor_dead":
            self._sensors.set_fault(
                fault.target, SensorFault(kind="dead", since_s=fault.time_s)
            )
        else:  # sensor_stuck
            self._sensors.set_fault(
                fault.target,
                SensorFault(
                    kind="stuck",
                    value_pct=fault.value_pct,
                    since_s=fault.time_s,
                ),
            )
        return False

    # ------------------------------------------------------------------
    # Serving, preemption, eviction
    # ------------------------------------------------------------------

    def _serve_queues(
        self,
        state: ServiceState,
        chip_state: ChipState,
        now: float,
        heap: List,
        blocked: set,
    ) -> bool:
        """Map queue heads in class-priority order; True when any mapped."""
        cfg = self._config
        served = False
        for c in cfg.classes:
            queue = state.queues[c.name]
            stats = state.stats.cls(c.name)
            while queue:
                head = queue[0]
                profile = self._library.get(head["profile"])
                if profile.best_wcet_s >= head["deadline_s"] - now:
                    stats.bump("dropped")
                    queue.pop(0)
                    continue
                if c.name in blocked:
                    break
                decision = self._manager.try_map(
                    profile, head["deadline_s"] - now, chip_state
                )
                if decision is None and not c.best_effort:
                    if self._preempt_best_effort(state, chip_state, now, heap):
                        blocked.clear()
                        decision = self._manager.try_map(
                            profile, head["deadline_s"] - now, chip_state
                        )
                if decision is None:
                    blocked.add(c.name)
                    break
                queue.pop(0)
                stats.wait.add(now - head["arrival_s"])
                self._start_app(state, chip_state, head, decision, now, heap)
                served = True
        return served

    def _preempt_best_effort(
        self, state: ServiceState, chip_state: ChipState, now: float, heap: List
    ) -> bool:
        """Evict one running best-effort app to free capacity.

        The victim is the best-effort app holding the most tiles (ties
        to the lowest app id), so one preemption frees the most room.
        """
        best_effort = {c.name for c in self._config.classes if c.best_effort}
        victim = None
        victim_tiles = 0
        for aid in sorted(state.running):
            entry = state.running[aid]
            if entry["cls"] not in best_effort:
                continue
            tiles = len(entry["task_to_tile"])
            if tiles > victim_tiles:
                victim, victim_tiles = aid, tiles
        if victim is None:
            return False
        self._evict(state, chip_state, victim, now, heap, counter="preempted")
        return True

    def _evict(
        self,
        state: ServiceState,
        chip_state: ChipState,
        app_id: int,
        now: float,
        heap: List,
        counter: str,
    ) -> None:
        """Checkpoint-rollback eviction into the re-admission queue."""
        entry = state.running.pop(app_id)
        self._settle_app_ve(entry, now)
        chip_state.release(app_id)
        stats = state.stats.cls(entry["cls"])
        stats.bump(counter)
        stats.busy_tile_s += len(entry["task_to_tile"]) * (
            now - entry["mapped_s"]
        )
        # The first re-admission try is deferred, not made at once.
        retry_at = now + self._config.recovery.retry_delay_s(0)
        profile = self._library.get(entry["profile"])
        if profile.best_wcet_s >= entry["deadline_s"] - retry_at:
            # Hopeless by the earliest possible retry: drop now instead
            # of parking a doomed entry in the re-admission set.
            stats.bump("dropped")
            return
        if len(state.readmit) >= self._config.admission.max_readmit:
            # Bounded re-admission: overflow is an immediate terminal
            # failure, keeping the service state O(1) under overload.
            stats.bump("failed")
            return
        work = entry["work_s"]
        remaining = max(0.0, entry["exit_s"] - now)
        fraction = min(1.0, remaining / work) if work > 0 else 1.0
        freq = self._chip.power_model.frequency(entry["vdd"])
        state.readmit[app_id] = {
            "app_id": app_id,
            "arrival_s": entry["arrival_s"],
            "attempts": 0,
            "cls": entry["cls"],
            "deadline_s": entry["deadline_s"],
            "penalty_s": self._context.checkpoints.rollback_penalty_s(freq),
            "profile": entry["profile"],
            "resume_fraction": fraction,
            "retry_at_s": retry_at,
        }
        heapq.heappush(heap, (retry_at, _RETRY, app_id, 0))

    def _start_app(
        self,
        state: ServiceState,
        chip_state: ChipState,
        entry: Dict[str, Any],
        decision,
        now: float,
        heap: List,
        resume_fraction: float = 1.0,
        penalty_s: float = 0.0,
    ) -> None:
        """Occupy tiles and schedule the exit of one mapped app."""
        app_id = entry["app_id"]
        chip_state.occupy(
            app_id, decision.task_to_tile, decision.vdd, decision.power_w
        )
        exec_s = self._estimate_exec_s(
            entry["profile"], decision, chip_state
        )
        work = exec_s * resume_fraction + penalty_s
        state.running[app_id] = {
            "app_id": app_id,
            "arrival_s": entry["arrival_s"],
            "cls": entry["cls"],
            "deadline_s": entry["deadline_s"],
            "dop": int(decision.dop),
            "exit_s": now + work,
            "exit_version": 0,
            "mapped_s": now,
            "penalized": False,
            "power_w": float(decision.power_w),
            "profile": entry["profile"],
            "settled_s": now,
            "task_to_tile": {
                str(t): int(tile)
                for t, tile in sorted(decision.task_to_tile.items())
            },
            "vdd": float(decision.vdd),
            "ve_mean": 0.0,
            "ve_rate_hz": 0.0,
            "work_s": work,
        }
        heapq.heappush(heap, (now + work, _EXIT, app_id, 0))

    def _estimate_exec_s(
        self, profile_name: str, decision, chip_state: ChipState
    ) -> float:
        """Execution estimate: WCET x contention proxy x checkpointing."""
        profile = self._library.get(profile_name)
        tiles = list(decision.task_to_tile.values())
        if len(tiles) > 1:
            pairs = len(tiles) * (len(tiles) - 1) // 2
            avg_hops = max(1.0, self._topology.mesh.pair_hop_sum(tiles) / pairs)
        else:
            avg_hops = 1.0
        occupied_fraction = (
            1.0 - len(chip_state.free_tiles()) / self._chip.tile_count
        )
        latency_scale = 1.0 + self._config.contention_scale * occupied_fraction
        return self._context.execution_s(
            profile.graph(decision.dop), decision.vdd, avg_hops, latency_scale
        )

    # ------------------------------------------------------------------
    # PSN refresh, VE exposure, PSN shedding
    # ------------------------------------------------------------------

    def _settle_app_ve(self, entry: Dict[str, Any], now: float) -> None:
        dt = now - entry["settled_s"]
        if dt > 0:
            entry["ve_mean"] += entry["ve_rate_hz"] * dt
            entry["settled_s"] = now

    def _settle_ve_exposure(self, state: ServiceState, now: float) -> None:
        for entry in state.running.values():
            self._settle_app_ve(entry, now)

    def _refresh_and_shed(
        self,
        state: ServiceState,
        chip_state: ChipState,
        now: float,
        heap: List,
        blocked: set,
    ) -> None:
        """Refresh PSN, then shed running best-effort work while the
        worst trusted sensor reading stays above the PSN threshold."""
        cfg = self._config
        best_effort = {c.name for c in cfg.classes if c.best_effort}
        shed_budget = cfg.shedding.max_shed_per_event
        guard = 0
        while True:
            sensor_worst = self._refresh(state, chip_state, now)
            guard += 1
            if (
                shed_budget <= 0
                or guard > 4
                or sensor_worst <= cfg.shedding.psn_threshold_pct
            ):
                return
            # Shed the best-effort app with the highest VE exposure
            # rate (it sits on the noisiest tiles); ties to lowest id.
            victim = None
            victim_rate = -1.0
            for aid in sorted(state.running):
                entry = state.running[aid]
                if entry["cls"] not in best_effort:
                    continue
                if entry["ve_rate_hz"] > victim_rate:
                    victim, victim_rate = aid, entry["ve_rate_hz"]
            if victim is None:
                return
            self._evict(state, chip_state, victim, now, heap, counter="shed")
            state.stats.shed_events += 1
            shed_budget -= 1
            blocked.clear()

    def _refresh(
        self, state: ServiceState, chip_state: ChipState, now: float
    ) -> float:
        """Re-evaluate per-tile PSN; update cached interval scalars.

        Returns the worst *trusted* sensor reading (tiles with detected
        sensor faults or stale readings fall back to the true level, so
        the shedding trigger degrades conservatively rather than going
        blind).
        """
        peak, avg = self._evaluate_psn(state, chip_state)
        occupied = chip_state.occupied_tiles()
        self._occupied_tiles = len(occupied)
        self._chip_peak_psn_pct = float(np.max(peak)) if occupied else 0.0
        self._mean_occ_psn_pct = (
            float(np.mean([avg[t] for t in occupied])) if occupied else 0.0
        )
        readings, valid = self._sensors.read_tiles(peak, now)
        trusted = np.where(valid, readings, peak)
        sensor_worst = float(np.max(trusted)) if trusted.size else 0.0

        # Per-app VE exposure rates from the new noise field.
        self._settle_ve_exposure(state, now)
        for entry in state.running.values():
            worst = max(
                float(peak[tile]) for tile in entry["task_to_tile"].values()
            )
            entry["ve_rate_hz"] = self._ve_policy.expected_rate_hz(worst)
        return sensor_worst

    def _evaluate_psn(
        self, state: ServiceState, chip_state: ChipState
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-tile peak/avg PSN (the simulator's evaluation, with the
        router-activity proxy instead of the analytical NoC report)."""
        # Router-activity proxy: each mapped task injects its profiled
        # flit rate at its own router.
        router_rate = np.zeros(self._chip.tile_count)
        graphs = {}
        for aid, entry in state.running.items():
            rate = self._task_inject_rate(
                entry["profile"], entry["vdd"], entry["dop"]
            )
            graphs[aid] = self._library.get(entry["profile"]).graph(
                entry["dop"]
            )
            for tile in entry["task_to_tile"].values():
                router_rate[tile] += rate
        return self._context.evaluate_psn(chip_state, router_rate, graphs)
