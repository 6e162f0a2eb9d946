"""Estimand adapters: one seeded model run -> one i.i.d. sample.

An *estimand* is the quantity a verification run is about.  Each
adapter owns (a) the model configuration that defines the quantity, (b)
a ``sample(seed)`` method drawing one independent replicate, and (c) a
canonical JSON ``spec()`` so a replica cell can reconstruct the
estimand inside a spawned worker or after a resume.  Three ship
built-in:

* :class:`PdnEmergencyEstimand` - P(voltage emergency in one scheduling
  epoch) of a 2x2 power domain under random occupancy/activity, via the
  fitted :mod:`repro.pdn.fast` peak-PSN kernels.  Also exposes the
  state/level/perturb surface the importance splitter needs, plus a
  vectorised ``direct_levels`` path for exhaustive reference runs.
* :class:`FaultSurvivalEstimand` - per-run app-failure fraction of one
  framework under a seeded fault campaign at a given intensity (a
  bounded mean in [0, 1]; pairs with the Hoeffding interval).
* :class:`PacketLatencyEstimand` - one uniformly chosen delivered-packet
  latency from a seeded :class:`~repro.noc.batch.BatchedNocEngine` run
  (i.i.d. by construction, so the DKW quantile band applies cleanly).
  ``sample_batch`` advances a whole batch of replicas as lanes of one
  engine pass with values byte-identical to one-lane ``sample`` runs.

Sub-streams inside one replica (workload vs campaign vs simulator, or
traffic vs pick) are split with :func:`repro.harness.seeding.derive_seed`
so no two purposes ever share randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.harness.errors import ConfigError, SolverError
from repro.harness.seeding import derive_seed
from repro.pdn.emergencies import VE_THRESHOLD_PCT

#: Estimand kinds and the interval family each one pairs with.
KIND_PROBABILITY = "probability"  # Bernoulli -> Wilson / Clopper-Pearson
KIND_MEAN = "mean"  # bounded mean  -> Hoeffding
KIND_QUANTILE = "quantile"  # sample values -> DKW band


def _require_unit(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1]", **{name: value})
    return float(value)


@dataclass(frozen=True)
class PdnEmergencyEstimand:
    """P(voltage emergency per epoch) of one random 2x2 domain epoch.

    One replicate models one scheduling epoch of one power domain: each
    of the four tiles is independently occupied with probability
    ``occupancy``; an occupied tile draws a core activity factor and a
    router flit rate uniformly from their ranges, a dark tile is power
    gated (zero current, LOW bin).  Peak PSN is evaluated with the
    fitted kernel ladder at ``vdd`` and the epoch counts as an
    emergency when the worst tile exceeds ``threshold_pct``.

    The per-``vdd`` power coefficients are linear in activity and flit
    rate (see :class:`repro.chip.power.PowerModel`), so they are
    extracted once from the model and the whole evaluation vectorises -
    ``direct_levels`` sweeps millions of epochs for exhaustive
    reference estimates, and the importance splitter reuses the same
    path one state at a time.

    Attributes:
        vdd: Domain supply voltage (the ladder's top level by default -
            relative PSN grows with Vdd, Fig. 3a).
        threshold_pct: Emergency threshold in percent of Vdd.  Raising
            it above :data:`~repro.pdn.emergencies.VE_THRESHOLD_PCT`
            turns the event rare - the importance-splitting regime.
        occupancy: Per-tile probability of being active.
        activity_range: Uniform range of the core activity factor.
        high_bin_activity: Activity at or above this maps the tile to
            the HIGH interference bin.
        flit_range: Uniform range of the router flit rate (flits/cycle).
    """

    vdd: float = 0.8
    threshold_pct: float = VE_THRESHOLD_PCT
    occupancy: float = 0.35
    activity_range: Tuple[float, float] = (0.3, 1.0)
    high_bin_activity: float = 0.6
    flit_range: Tuple[float, float] = (0.0, 0.5)

    def __post_init__(self) -> None:
        _require_unit(self.occupancy, "occupancy")
        _require_unit(self.high_bin_activity, "high_bin_activity")
        if not 0.0 < self.vdd:
            raise ConfigError("vdd must be positive", vdd=self.vdd)
        if self.threshold_pct <= 0:
            raise ConfigError(
                "threshold_pct must be positive",
                threshold_pct=self.threshold_pct,
            )
        for name, (lo, hi) in (
            ("activity_range", self.activity_range),
            ("flit_range", self.flit_range),
        ):
            if not 0.0 <= lo <= hi:
                raise ConfigError(
                    f"{name} must satisfy 0 <= lo <= hi", lo=lo, hi=hi
                )

    # -- identity -------------------------------------------------------

    @property
    def name(self) -> str:
        return "ve"

    @property
    def kind(self) -> str:
        return KIND_PROBABILITY

    def spec(self) -> Dict[str, Any]:
        return {
            "estimand": self.name,
            "vdd": float(self.vdd),
            "threshold_pct": float(self.threshold_pct),
            "occupancy": float(self.occupancy),
            "activity_range": [float(v) for v in self.activity_range],
            "high_bin_activity": float(self.high_bin_activity),
            "flit_range": [float(v) for v in self.flit_range],
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "PdnEmergencyEstimand":
        return cls(
            vdd=float(spec["vdd"]),
            threshold_pct=float(spec["threshold_pct"]),
            occupancy=float(spec["occupancy"]),
            activity_range=tuple(
                float(v) for v in spec["activity_range"]
            ),
            high_bin_activity=float(spec["high_bin_activity"]),
            flit_range=tuple(float(v) for v in spec["flit_range"]),
        )

    # -- model plumbing -------------------------------------------------

    def _power_coeffs(self) -> Tuple[float, float, float, float, float]:
        """Linear power coefficients at ``vdd``, extracted once.

        ``PowerModel`` is linear in activity (dynamic core power) and in
        flit rate (dynamic router power), so five scalars reproduce it
        exactly: unit-activity core dynamic power, core leakage, idle
        router dynamic power, per-flit router slope, router leakage.
        """
        cached = self.__dict__.get("_coeffs")
        if cached is None:
            from repro.chip.cmp import default_chip

            power = default_chip().power_model
            core_dyn_unit = power.core_dynamic(1.0, self.vdd)
            core_leak = power.core_leakage(self.vdd)
            router_idle = power.router_dynamic(0.0, self.vdd)
            router_slope = power.router_dynamic(1.0, self.vdd) - router_idle
            router_leak = power.router_leakage(self.vdd)
            cached = (
                core_dyn_unit,
                core_leak,
                router_idle,
                router_slope,
                router_leak,
            )
            object.__setattr__(self, "_coeffs", cached)
        return cached

    def _kernel(self):
        cached = self.__dict__.get("_peak_kernel")
        if cached is None:
            from repro.pdn.fast import FastPsnModel

            cached = FastPsnModel().peak_kernels.kernel_for(self.vdd)
            object.__setattr__(self, "_peak_kernel", cached)
        return cached

    def _levels_of(
        self,
        occupied: np.ndarray,
        activity: np.ndarray,
        flits: np.ndarray,
    ) -> np.ndarray:
        """Peak domain PSN (percent of Vdd) per epoch row.

        Args:
            occupied: Shape (m, 4) booleans.
            activity: Shape (m, 4) activity factors (ignored when dark).
            flits: Shape (m, 4) router flit rates (ignored when dark).

        Returns:
            Shape (m,): worst-tile peak PSN of each epoch.
        """
        from repro.pdn.fast import BIN_INDEX
        from repro.pdn.waveforms import ActivityBin

        core_unit, core_leak, r_idle, r_slope, r_leak = self._power_coeffs()
        occ = occupied.astype(float)
        core_w = occ * (activity * core_unit + core_leak)
        router_w = occ * (r_idle + flits * r_slope + r_leak)
        bins = np.where(
            occupied & (activity >= self.high_bin_activity),
            BIN_INDEX[ActivityBin.HIGH],
            BIN_INDEX[ActivityBin.LOW],
        )
        m = occupied.shape[0]
        psn = self._kernel().evaluate_batch(
            np.full(m, self.vdd),
            core_w / self.vdd,
            router_w / self.vdd,
            bins,
        )
        return psn.max(axis=1)

    # -- sampling surface -----------------------------------------------

    def sample_state(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Draw one epoch state (the splitter's prior sample)."""
        a_lo, a_hi = self.activity_range
        f_lo, f_hi = self.flit_range
        return {
            "occupied": rng.random(4) < self.occupancy,
            "activity": rng.uniform(a_lo, a_hi, 4),
            "flits": rng.uniform(f_lo, f_hi, 4),
        }

    def level(self, state: Dict[str, np.ndarray]) -> float:
        """Importance level of a state: its peak PSN in percent."""
        return float(
            self._levels_of(
                state["occupied"][None, :],
                state["activity"][None, :],
                state["flits"][None, :],
            )[0]
        )

    def perturb(
        self, state: Dict[str, np.ndarray], rng: np.random.Generator
    ) -> Dict[str, np.ndarray]:
        """Propose an MCMC move: re-draw one tile from the prior.

        Resampling a single tile's (occupied, activity, flits) block
        from the prior is an independence proposal on that block, so
        the splitter's accept-iff-above-level rule is a valid
        Metropolis kernel for the level-conditioned distribution.
        """
        a_lo, a_hi = self.activity_range
        f_lo, f_hi = self.flit_range
        tile = int(rng.integers(4))
        out = {k: v.copy() for k, v in state.items()}
        out["occupied"][tile] = rng.random() < self.occupancy
        out["activity"][tile] = rng.uniform(a_lo, a_hi)
        out["flits"][tile] = rng.uniform(f_lo, f_hi)
        return out

    def direct_levels(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` i.i.d. epoch levels, fully vectorised (reference path)."""
        if n < 1:
            raise ConfigError("n must be at least 1", n=n)
        a_lo, a_hi = self.activity_range
        f_lo, f_hi = self.flit_range
        return self._levels_of(
            rng.random((n, 4)) < self.occupancy,
            rng.uniform(a_lo, a_hi, (n, 4)),
            rng.uniform(f_lo, f_hi, (n, 4)),
        )

    def sample(self, seed: int) -> float:
        """One Bernoulli replicate: 1.0 iff the epoch is an emergency."""
        rng = np.random.default_rng(seed)
        return float(self.level(self.sample_state(rng)) > self.threshold_pct)


@dataclass(frozen=True)
class FaultSurvivalEstimand:
    """Per-run app-failure fraction under a seeded fault campaign.

    One replicate runs one framework over one generated workload with
    one sampled :class:`~repro.faults.FaultCampaign` at ``intensity``
    and returns the fraction of applications that did *not* complete
    (dropped or failed) - a bounded mean in [0, 1], estimated with the
    Hoeffding interval.  Mirrors one (framework, intensity, seed) cell
    of :func:`repro.exp.faults.fault_sweep`, with replica sub-streams
    split via :func:`~repro.harness.seeding.derive_seed`.
    """

    framework: str = "PARM+PANR"
    intensity: float = 1.0
    workload: str = "mixed"
    arrival_interval_s: float = 0.1
    n_apps: int = 6

    def __post_init__(self) -> None:
        _require_unit(self.intensity, "intensity")
        if self.n_apps <= 0:
            raise ConfigError("n_apps must be positive", n_apps=self.n_apps)
        if self.arrival_interval_s <= 0:
            raise ConfigError(
                "arrival_interval_s must be positive",
                arrival_interval_s=self.arrival_interval_s,
            )

    @property
    def name(self) -> str:
        return "fault"

    @property
    def kind(self) -> str:
        return KIND_MEAN

    def spec(self) -> Dict[str, Any]:
        return {
            "estimand": self.name,
            "framework": self.framework,
            "intensity": float(self.intensity),
            "workload": self.workload,
            "arrival_interval_s": float(self.arrival_interval_s),
            "n_apps": int(self.n_apps),
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FaultSurvivalEstimand":
        return cls(
            framework=str(spec["framework"]),
            intensity=float(spec["intensity"]),
            workload=str(spec["workload"]),
            arrival_interval_s=float(spec["arrival_interval_s"]),
            n_apps=int(spec["n_apps"]),
        )

    def _environment(self):
        """Chip / profile library / framework, built once per process."""
        cached = self.__dict__.get("_env")
        if cached is None:
            from repro.apps.suite import ProfileLibrary
            from repro.chip.cmp import default_chip
            from repro.exp.frameworks import framework as fw_lookup

            cached = (default_chip(), ProfileLibrary(), fw_lookup(self.framework))
            object.__setattr__(self, "_env", cached)
        return cached

    def sample(self, seed: int) -> float:
        """One replicate: the run's app-failure fraction in [0, 1]."""
        from repro.apps.workload import WorkloadType, generate_workload
        from repro.exp.faults import SWEEP_FAULT_RATES
        from repro.faults import FaultCampaign
        from repro.runtime.simulator import RuntimeSimulator

        chip, library, fw = self._environment()
        workload = generate_workload(
            WorkloadType(self.workload),
            self.arrival_interval_s,
            n_apps=self.n_apps,
            seed=derive_seed(seed, "verify/fault/workload", 0),
            library=library,
        )
        horizon_s = self.n_apps * self.arrival_interval_s + 5.0
        campaign = FaultCampaign.sample(
            chip,
            horizon_s,
            np.random.default_rng(
                derive_seed(seed, "verify/fault/campaign", 0)
            ),
            rates=SWEEP_FAULT_RATES,
            intensity=self.intensity,
        )
        sim = RuntimeSimulator(
            chip,
            fw.make_manager(),
            fw.make_routing(),
            faults=campaign,
            seed=derive_seed(seed, "verify/fault/sim", 0),
        )
        metrics = sim.run(workload)
        return 1.0 - metrics.completed_count / self.n_apps


@dataclass(frozen=True)
class PacketLatencyEstimand:
    """One delivered-packet latency from a seeded NoC engine run.

    Each replicate simulates the routing-sweep setting (hotspot PSN
    band, uniform-random traffic) with its own traffic/engine seed and
    returns the latency of ONE uniformly chosen delivered packet.
    Latencies within a run are dependent (shared congestion), so taking
    a single packet per run is what makes the sample i.i.d. and the DKW
    quantile band honest - at the cost of one engine run per sample,
    which is why tail quantiles are expensive (see
    :func:`repro.exp.verify.intervals.dkw_quantile`).
    """

    policy: str = "panr"
    injection_rate_flits: float = 0.25
    quantile: float = 0.99
    mesh_width: int = 8
    mesh_height: int = 8
    cycles: int = 2000
    packet_size_flits: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ConfigError(
                "quantile must lie strictly inside (0, 1)",
                quantile=self.quantile,
            )
        if self.injection_rate_flits <= 0:
            raise ConfigError(
                "injection_rate_flits must be positive",
                injection_rate_flits=self.injection_rate_flits,
            )
        if self.cycles <= 0:
            raise ConfigError("cycles must be positive", cycles=self.cycles)

    @property
    def name(self) -> str:
        return "latency"

    @property
    def kind(self) -> str:
        return KIND_QUANTILE

    def spec(self) -> Dict[str, Any]:
        return {
            "estimand": self.name,
            "policy": self.policy,
            "injection_rate_flits": float(self.injection_rate_flits),
            "quantile": float(self.quantile),
            "mesh_width": int(self.mesh_width),
            "mesh_height": int(self.mesh_height),
            "cycles": int(self.cycles),
            "packet_size_flits": int(self.packet_size_flits),
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "PacketLatencyEstimand":
        return cls(
            policy=str(spec["policy"]),
            injection_rate_flits=float(spec["injection_rate_flits"]),
            quantile=float(spec["quantile"]),
            mesh_width=int(spec["mesh_width"]),
            mesh_height=int(spec["mesh_height"]),
            cycles=int(spec["cycles"]),
            packet_size_flits=int(spec["packet_size_flits"]),
        )

    def _pick_latency(self, seed: int, stats: Any) -> float:
        """Uniformly pick one delivered-packet latency of one run."""
        if not stats.packet_latencies:
            raise SolverError(
                "NoC run delivered no packets; cannot sample a latency",
                policy=self.policy,
                injection_rate_flits=self.injection_rate_flits,
                cycles=self.cycles,
            )
        pick = np.random.default_rng(
            derive_seed(seed, "verify/latency/pick", 0)
        )
        return float(
            stats.packet_latencies[int(pick.integers(len(stats.packet_latencies)))]
        )

    def sample(self, seed: int) -> float:
        """One replicate: one uniformly chosen delivered-packet latency."""
        return self.sample_batch([seed])[0]

    def sample_batch(self, seeds: Sequence[int]) -> List[float]:
        """Replicates for many seeds in one batched engine pass.

        Every replica keeps its own derived traffic/pick sub-streams and
        advances as one lane of a
        :class:`~repro.noc.batch.BatchedNocEngine` (each lane
        byte-identical to a one-lane run), so the values do not
        depend on how seeds are grouped into batches.
        """
        from repro.chip.mesh import MeshGeometry
        from repro.exp.routing_sweep import hotspot_psn, uniform_random_flows
        from repro.noc.batch import BatchedNocEngine
        from repro.noc.routing import make_routing

        seeds = list(seeds)
        if not seeds:
            return []
        mesh = MeshGeometry(self.mesh_width, self.mesh_height)
        flows = [
            uniform_random_flows(
                mesh,
                self.injection_rate_flits,
                derive_seed(seed, "verify/latency/traffic", 0),
                self.packet_size_flits,
            )
            for seed in seeds
        ]
        engine = BatchedNocEngine(
            mesh,
            make_routing(self.policy),
            n_lanes=len(seeds),
            psn_pct=hotspot_psn(mesh),
        )
        stats_list = engine.run(flows, self.cycles)
        return [
            self._pick_latency(seed, stats)
            for seed, stats in zip(seeds, stats_list)
        ]


#: Registered estimand factories, keyed by spec ``"estimand"`` value.
_REGISTRY: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "ve": PdnEmergencyEstimand.from_spec,
    "fault": FaultSurvivalEstimand.from_spec,
    "latency": PacketLatencyEstimand.from_spec,
}


def register_estimand(
    name: str, factory: Callable[[Dict[str, Any]], Any]
) -> None:
    """Register a custom estimand factory (tests, extensions).

    Registration is per-process: spawned pool workers import modules
    fresh, so custom estimands either register at import time of a
    module the worker loads, or run with ``workers=1``.
    """
    _REGISTRY[name] = factory


def estimand_from_spec(spec: Dict[str, Any]) -> Any:
    """Reconstruct an estimand from its canonical JSON spec."""
    kind = spec.get("estimand")
    factory = _REGISTRY.get(str(kind))
    if factory is None:
        raise ConfigError(
            "unknown estimand", estimand=kind, known=tuple(sorted(_REGISTRY))
        )
    return factory(spec)
