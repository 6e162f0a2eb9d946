"""Transient ("SPICE-level") PSN analysis of one power-supply domain.

Runs the MNA solver on the Fig. 2 domain PDN with workload current
waveforms and extracts the paper's Eq. (1) noise metric per tile:

    PSN_i(t) = (Vbump - V_tile_i(t)) / Vbump

reported as peak and average percentages over the analysis window.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chip.technology import TechnologyNode
from repro.harness.errors import SolverError, SolverInputError
from repro.pdn.builder import TILE_NODES, DomainPdnBuilder
from repro.pdn.circuit import Circuit, TransientResult
from repro.pdn.waveforms import ActivityBin, CurrentWaveform, TileLoad

#: Adaptive-timestep floor of :func:`guarded_transient`: the timestep is
#: halved on failure down to this fraction of the requested ``dt``.
MIN_DT_SCALE = 0.125

#: Phase jitter between same-bin threads of one application, seconds.
#: Same-bin threads run barrier-synchronised code, so their current bursts
#: are *nearly* aligned: the k-th thread of a bin group lags by k times
#: this jitter.  Nearly-aligned neighbours sag together and exchange only
#: a fraction of their noise through the on-chip grid, whereas cross-bin
#: neighbours burst at different frequencies (120 vs 75 MHz) and therefore
#: sweep through worst-case edge alignment within one analysis window -
#: the mechanism behind the paper's Fig. 3b observation that High-Low
#: neighbours interfere the most.
SAME_BIN_JITTER_S = 0.6e-9

#: How strongly task burst rates track the clock frequency.  Program
#: phases (loops, cache-miss bursts, barrier cadence) slow down with the
#: core clock, but not fully - memory-bound cadence does not scale - so
#: the burst frequency follows (f(Vdd) / f(Vnominal)) ** 0.5.  This is
#: the paper's own explanation of Fig. 3a: the supply voltage "decides
#: the maximum operating frequency Fmax of cores and routers", which in
#: turn drives di/dt and hence peak PSN.
CLOCK_TRACKING_EXPONENT = 0.5


def clock_burst_scale(vdd: float, tech: TechnologyNode) -> float:
    """Burst-frequency multiplier for a domain running at ``vdd``."""
    from repro.chip.dvfs import alpha_power_frequency

    ratio = alpha_power_frequency(vdd, tech) / tech.freq_at_nominal_hz
    return ratio ** CLOCK_TRACKING_EXPONENT


def apply_phase_convention(
    loads: Sequence[TileLoad], burst_scale: float = 1.0
) -> List[TileLoad]:
    """Assign canonical burst phases to the tasks of one domain.

    Within each activity-bin group, the k-th task (in position order)
    gets a phase lag of ``k * SAME_BIN_JITTER_S``; all tasks burst at
    their bin's nominal frequency times ``burst_scale`` (the domain's
    clock-tracking factor).  Idle tiles are returned unchanged.
    """
    if burst_scale <= 0:
        raise ValueError("burst_scale must be positive")
    counters = {bin_: 0 for bin_ in ActivityBin}
    out: List[TileLoad] = []
    for load in loads:
        if load.total_power_w <= 0.0:
            out.append(load)
            continue
        k = counters[load.activity_bin]
        counters[load.activity_bin] += 1
        out.append(
            dataclasses.replace(
                load, phase_s=k * SAME_BIN_JITTER_S, freq_scale=burst_scale
            )
        )
    return out


def guarded_transient(
    circuit: Circuit,
    duration_s: float,
    dt_s: float,
    min_dt_scale: float = MIN_DT_SCALE,
    isource_waveforms: Optional[Sequence] = None,
    vsource_values: Optional[Sequence[float]] = None,
) -> Tuple[TransientResult, str, float]:
    """Transient solve with automatic integration-method fallback.

    The escalation ladder on a :class:`SolverError` (ringing,
    divergence, an ill-conditioned factorisation...):

    1. trapezoidal at the requested ``dt_s`` (the accurate default for
       the lightly damped RLC tanks of a PDN);
    2. backward Euler at ``dt_s`` - L-stable, so spurious trapezoidal
       ringing of stiff modes is damped out;
    3. backward Euler with the timestep halved repeatedly, down to a
       floor of ``dt_s * min_dt_scale``.

    Input-data failures (:class:`SolverInputError` - a non-finite
    source waveform or supply voltage) short-circuit the ladder: no
    method or timestep change can fix them, so they re-raise from the
    first rung instead of wasting four more full solves.

    Args:
        circuit: The netlist to solve.
        duration_s: Analysis window in seconds.
        dt_s: Requested timestep in seconds.
        min_dt_scale: Adaptive-halving floor as a fraction of ``dt_s``.
        isource_waveforms: Optional per-call current-waveform overrides
            passed through to :meth:`Circuit.transient`; lets one
            factorised circuit serve many workloads.
        vsource_values: Optional per-call voltage-source overrides (one
            per source); lets one factorised circuit serve many supply
            voltages.

    Returns:
        ``(result, method, dt_s)`` - the first successful solve plus the
        method and timestep that produced it.

    Raises:
        SolverInputError: immediately, on a failure no fallback can fix
            (bad input data); the first rung's error propagates as-is.
        SolverError: when every rung of the ladder fails; the error
            lists each attempt and keeps the last failure's node/step
            context.
    """
    if not 0.0 < min_dt_scale <= 1.0:
        raise ValueError("min_dt_scale must be in (0, 1]")
    plan: List[Tuple[str, float]] = [
        ("trapezoidal", dt_s),
        ("backward-euler", dt_s),
    ]
    half_dt = dt_s / 2.0
    floor_dt = dt_s * min_dt_scale
    while half_dt >= floor_dt:
        plan.append(("backward-euler", half_dt))
        half_dt /= 2.0

    attempts: List[str] = []
    last: SolverError = SolverError("no attempt ran")
    # Forward the overrides only when set, so simple Circuit stand-ins
    # (test doubles) need not grow the override parameters.
    overrides = {}
    if isource_waveforms is not None:
        overrides["isource_waveforms"] = isource_waveforms
    if vsource_values is not None:
        overrides["vsource_values"] = vsource_values
    for method, dt_k in plan:
        try:
            result = circuit.transient(
                duration_s, dt_k, method=method, **overrides
            )
            return result, method, dt_k
        except SolverInputError:
            raise
        except SolverError as exc:
            attempts.append(f"{method}@{dt_k:.3e}s: {exc.message}")
            last = exc
    context = {
        key: last.context[key]
        for key in ("node", "step", "time_s")
        if key in last.context
    }
    raise SolverError(
        "transient analysis failed after method fallback and timestep "
        "halving",
        attempts=tuple(attempts),
        **context,
    ) from last


@dataclass(frozen=True)
class DomainPsnReport:
    """Per-tile PSN extracted from one domain transient analysis.

    Attributes:
        vdd: Domain supply voltage in volts.
        peak_psn_pct: Peak PSN per tile, percent of Vdd, shape (4,).
        avg_psn_pct: Time-average PSN per tile, percent of Vdd, shape (4,).
        solver_method: Integration method that produced the result
            (``"trapezoidal"`` unless the guarded solve fell back).
        solver_dt_s: Timestep that produced the result (the requested
            ``dt_s`` unless adaptive halving kicked in).
    """

    vdd: float
    peak_psn_pct: np.ndarray
    avg_psn_pct: np.ndarray
    solver_method: str = "trapezoidal"
    solver_dt_s: float = 0.0

    @property
    def domain_peak_pct(self) -> float:
        """Worst peak PSN across the four tiles."""
        return float(np.max(self.peak_psn_pct))

    @property
    def domain_avg_pct(self) -> float:
        """Mean of the per-tile average PSN."""
        return float(np.mean(self.avg_psn_pct))


class PsnTransientAnalysis:
    """Transient PSN analyser for 2x2 power domains.

    Args:
        tech: Technology node (PDN parasitics).
        window_s: Analysis window; must cover several beat periods of the
            High/Low burst frequencies (default 300 ns).
        dt_s: Integration timestep (default 50 ps, ~7 points per burst
            edge at the High bin's sharpness).
    """

    def __init__(
        self,
        tech: TechnologyNode,
        window_s: float = 300e-9,
        dt_s: float = 50e-12,
    ):
        if window_s <= 0 or dt_s <= 0 or dt_s >= window_s:
            raise ValueError("require 0 < dt_s < window_s")
        self._tech = tech
        self._builder = DomainPdnBuilder(tech)
        self._window_s = window_s
        self._dt_s = dt_s
        # The domain PDN topology is fixed per technology node - only
        # the supply voltage and the tile current waveforms vary between
        # analyses, and both enter the MNA system through the right-hand
        # side.  Build the circuit once (unit supply, zero loads) and
        # override sources per solve, so the sparse factorisation is
        # shared across every (vdd, workload) this analyser sees.
        self._circuit: Optional[Circuit] = None

    @property
    def tech(self) -> TechnologyNode:
        return self._tech

    def prime(self) -> None:
        """Build the domain circuit and factorise its transient plan.

        Everything :meth:`analyze` reuses across calls - the netlist and
        the sparse-LU plan of the default (trapezoidal, requested dt)
        rung - is built eagerly, so a caller can pay the factorisation
        up front instead of inside its first analysis.
        Priming is idempotent and changes no analysis result: the same
        cached plan would have been built lazily by the first solve.
        """
        if self._circuit is None:
            self._circuit = self._builder.build(1.0, [0.0] * len(TILE_NODES))
        self._circuit.prime_transient(self._dt_s)

    def analyze(
        self,
        vdd: float,
        loads: Sequence[TileLoad],
        apply_convention: bool = True,
    ) -> DomainPsnReport:
        """Simulate one domain and report per-tile PSN.

        Args:
            vdd: Domain supply voltage.
            loads: Exactly four tile workloads (use
                :meth:`TileLoad.idle` for dark tiles).
            apply_convention: When true (default), task phases follow the
                canonical :func:`apply_phase_convention` (same-bin threads
                nearly aligned, cross-bin threads free-running).  Pass
                false to control phases explicitly through the loads.
        """
        if len(loads) != len(TILE_NODES):
            raise ValueError(f"expected {len(TILE_NODES)} tile loads")
        if apply_convention:
            loads = apply_phase_convention(
                loads, burst_scale=clock_burst_scale(vdd, self._tech)
            )
        if vdd <= 0:
            raise ValueError(f"vdd must be positive, got {vdd}")
        currents = [CurrentWaveform(load, vdd) for load in loads]
        if self._circuit is None:
            self._circuit = self._builder.build(1.0, [0.0] * len(TILE_NODES))
        result, method, dt_s = guarded_transient(
            self._circuit,
            self._window_s,
            self._dt_s,
            isource_waveforms=currents,
            vsource_values=(vdd,),
        )

        peaks = np.empty(len(TILE_NODES))
        avgs = np.empty(len(TILE_NODES))
        for i, node in enumerate(TILE_NODES):
            v = result.voltage(node)
            psn_pct = (vdd - v) / vdd * 100.0
            # Droop (undershoot) is the reliability hazard; overshoot is
            # clipped as in the paper's percent-noise plots.
            psn_pct = np.clip(psn_pct, 0.0, None)
            peaks[i] = float(np.max(psn_pct))
            avgs[i] = float(np.mean(psn_pct))
        return DomainPsnReport(
            vdd=vdd,
            peak_psn_pct=peaks,
            avg_psn_pct=avgs,
            solver_method=method,
            solver_dt_s=dt_s,
        )

    def pair_analysis(
        self,
        vdd: float,
        load_a: TileLoad,
        load_b: TileLoad,
        hops: int,
    ) -> DomainPsnReport:
        """Analyse a two-task placement at 1 or 2 hops (Fig. 3b setup).

        Tiles 0 and 1 of the 2x2 block are one hop apart (direct grid
        segment); tiles 0 and 3 are diagonal, i.e. two hops.
        """
        if hops == 1:
            positions = (0, 1)
        elif hops == 2:
            positions = (0, 3)
        else:
            raise ValueError("hops must be 1 or 2 within a 2x2 domain")
        loads = [TileLoad.idle() for _ in TILE_NODES]
        loads[positions[0]] = load_a
        loads[positions[1]] = load_b
        return self.analyze(vdd, loads)
