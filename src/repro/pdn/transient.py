"""Transient ("SPICE-level") PSN analysis of one power-supply domain.

Runs the MNA solver on the Fig. 2 domain PDN with workload current
waveforms and extracts the paper's Eq. (1) noise metric per tile:

    PSN_i(t) = (Vbump - V_tile_i(t)) / Vbump

reported as peak and average percentages over the analysis window.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.chip.technology import TechnologyNode
from repro.harness.errors import SolverError, SolverInputError
from repro.pdn.builder import TILE_NODES, DomainPdnBuilder
from repro.pdn.circuit import Circuit, TransientResult, union_node
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


@dataclass(eq=False)
class _Lane:
    """One analysis of a :class:`PsnTransientAnalysis` batch.

    ``outcome`` is ``None`` until the lane is solved, then the lane's
    report or the error its first rung raised.  ``group`` is the
    :func:`analyze_nodes` group the lane belongs to, if any.
    """

    vdd: float
    loads: Sequence[TileLoad]
    currents: List[CurrentWaveform]
    outcome: Union[None, DomainPsnReport, SolverError] = None
    group: Optional["_NodeGroup"] = None


class _NodeGroup:
    """Lanes of several analysers, solved as blocks of one netlist.

    :meth:`solve` runs once: it builds the disjoint union of the
    analysers' domain circuits and, when the union factorises as the
    blocks do (:meth:`Circuit.solves_as_blocks`), solves every lane as
    one lane of the union and splits the kept tile voltages per block
    into each lane's report.  A failed check or any error of the union
    solve leaves every outcome unset, so each lane is solved by its own
    analyser's batch and fallback ladder instead.
    """

    def __init__(self, members: Sequence[Tuple["PsnTransientAnalysis", _Lane]]):
        self._members = list(members)
        self._tried = False

    def solve(self) -> None:
        if self._tried:
            return
        self._tried = True
        first = self._members[0][0]
        window_s, dt_s = first._window_s, first._dt_s
        blocks = [analysis._domain_circuit() for analysis, _ in self._members]
        union = Circuit.union(blocks)
        if not union.solves_as_blocks(blocks, "trapezoidal", dt_s):
            return
        (outcome,) = union.transient_lanes(
            window_s,
            dt_s,
            [(
                [w for _, lane in self._members for w in lane.currents],
                [lane.vdd for _, lane in self._members],
            )],
            nodes=[
                union_node(k, node)
                for k in range(len(blocks))
                for node in TILE_NODES
            ],
        )
        if isinstance(outcome, SolverError):
            return
        width = len(TILE_NODES)
        for k, (_, lane) in enumerate(self._members):
            block = TransientResult(
                time=outcome.time,
                voltages=outcome.voltages[:, k * width:(k + 1) * width],
                node_order=TILE_NODES,
            )
            lane.outcome = _report(lane.vdd, block, "trapezoidal", dt_s)


def pair_loads(load_a: TileLoad, load_b: TileLoad, hops: int) -> List[TileLoad]:
    """Domain loads of a two-task placement at 1 or 2 hops (Fig. 3b).

    Tiles 0 and 1 of the 2x2 block are one hop apart (direct grid
    segment); tiles 0 and 3 are diagonal, i.e. two hops.  The other
    tiles are idle.
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
    return loads


class PsnTransientAnalysis:
    """Transient PSN analyser for 2x2 power domains.

    Every analysis of one analyser shares its domain circuit and so its
    factorisation plan.  The analyses of one :meth:`analyze_many` call
    are solved as lanes of one batched recurrence
    (:meth:`Circuit.transient_lanes`) the first time :meth:`analyze`
    needs one of them; each report is bit-identical to the one a lone
    :meth:`analyze` call returns.  A batch holds about one window of
    four source-current traces per lane, plus one lane's assembled
    tile voltages while that lane is reduced into its report.
    Analyses of different analysers (technology nodes) with the same
    window and timestep run as blocks of one netlist through
    :func:`analyze_nodes`, with the same bit-identity.

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
        # Announced lanes not yet claimed by an analyze call, in order.
        self._announced: List[_Lane] = []

    @property
    def tech(self) -> TechnologyNode:
        return self._tech

    def analyze_many(
        self, requests: Sequence[Tuple[float, Sequence[TileLoad]]]
    ) -> List[DomainPsnReport]:
        """Analyse several domains as lanes of one batch.

        Equivalent to ``[self.analyze(vdd, loads) for vdd, loads in
        requests]``, which is what it runs after announcing every
        request: the first call solves all of them at once.  Duplicate
        requests stay separate lanes.  If a lane fails, its own call
        raises and the lanes still announced are withdrawn.
        """
        requests = list(requests)
        lanes = self._announce(requests)
        try:
            return [self.analyze(vdd, loads) for vdd, loads in requests]
        finally:
            self._withdraw(lanes)

    def analyze(
        self,
        vdd: float,
        loads: Sequence[TileLoad],
        apply_convention: bool = True,
    ) -> DomainPsnReport:
        """Simulate one domain and report per-tile PSN.

        A call that :meth:`analyze_many` announced takes its lane's
        result, solving the announced batch if it is not solved yet;
        any other call is a batch of one.  Either way this call is
        where the analysis's report is returned or its error raised.

        Args:
            vdd: Domain supply voltage.
            loads: Exactly four tile workloads (use
                :meth:`TileLoad.idle` for dark tiles).
            apply_convention: When true (default), task phases follow the
                canonical :func:`apply_phase_convention` (same-bin threads
                nearly aligned, cross-bin threads free-running).  Pass
                false to control phases explicitly through the loads.

        Raises:
            SolverInputError: on a non-finite tile current.
            SolverError: when every rung of :func:`guarded_transient`'s
                ladder fails.
        """
        lane = self._claim(vdd, loads) if apply_convention else None
        if lane is None:
            lane = self._lane(vdd, loads, apply_convention)
        if lane.outcome is None and lane.group is not None:
            lane.group.solve()
        if lane.outcome is None:
            self._solve(
                [lane] + [other for other in self._announced if other.outcome is None]
            )
        outcome = lane.outcome
        if isinstance(outcome, DomainPsnReport):
            return outcome
        if isinstance(outcome, SolverInputError):
            raise outcome
        # The first rung failed in the batch: run the fallback ladder
        # for this lane alone.
        result, method, dt_s = guarded_transient(
            self._domain_circuit(),
            self._window_s,
            self._dt_s,
            isource_waveforms=lane.currents,
            vsource_values=(lane.vdd,),
        )
        return _report(lane.vdd, result, method, dt_s)

    def _announce(
        self, requests: Sequence[Tuple[float, Sequence[TileLoad]]]
    ) -> List[_Lane]:
        """Queue ``(vdd, loads)`` analyses for the next batch.

        A later :meth:`analyze` call with the same argument objects (and
        the default phase convention) claims its lane; the first claim
        of an unsolved lane solves every unsolved announced lane at once.
        Requests are validated here, so an invalid one raises before
        anything is solved.
        """
        lanes = [self._lane(vdd, loads, True) for vdd, loads in requests]
        self._announced.extend(lanes)
        return lanes

    def _withdraw(self, lanes: Sequence[_Lane]) -> None:
        """Drop ``lanes`` from the announced lanes (claimed or not)."""
        mine = {id(lane) for lane in lanes}
        self._announced = [
            lane for lane in self._announced if id(lane) not in mine
        ]

    def _lane(
        self, vdd: float, loads: Sequence[TileLoad], apply_convention: bool
    ) -> _Lane:
        """Validate one request and build its tile current waveforms."""
        if len(loads) != len(TILE_NODES):
            raise ValueError(f"expected {len(TILE_NODES)} tile loads")
        phased = loads
        if apply_convention:
            phased = apply_phase_convention(
                loads, burst_scale=clock_burst_scale(vdd, self._tech)
            )
        if vdd <= 0:
            raise ValueError(f"vdd must be positive, got {vdd}")
        return _Lane(vdd, loads, [CurrentWaveform(load, vdd) for load in phased])

    def _claim(self, vdd: float, loads: Sequence[TileLoad]) -> Optional[_Lane]:
        """Take the first announced lane of these very arguments, if any
        (:meth:`analyze_many` passes each request's own objects)."""
        for index, lane in enumerate(self._announced):
            if lane.vdd is vdd and lane.loads is loads:
                return self._announced.pop(index)
        return None

    def _domain_circuit(self) -> Circuit:
        if self._circuit is None:
            self._circuit = self._builder.build(1.0, [0.0] * len(TILE_NODES))
        return self._circuit

    def _solve(self, lanes: Sequence[_Lane]) -> None:
        """Run the first rung for ``lanes`` as one batch and reduce each
        solved lane straight into its report."""
        outcomes = self._domain_circuit().transient_lanes(
            self._window_s,
            self._dt_s,
            [(lane.currents, (lane.vdd,)) for lane in lanes],
            nodes=TILE_NODES,
            reduce=lambda j, result: _report(
                lanes[j].vdd, result, "trapezoidal", self._dt_s
            ),
        )
        for lane, outcome in zip(lanes, outcomes):
            lane.outcome = outcome


def analyze_nodes(
    requests: Sequence[Tuple[PsnTransientAnalysis, float, Sequence[TileLoad]]],
) -> List[DomainPsnReport]:
    """Analyse domains of different analysers as blocks of one netlist.

    Equivalent to ``[analysis.analyze(vdd, loads) for analysis, vdd,
    loads in requests]``, which is what it runs after announcing every
    request to its analyser.  When every analyser has the same window
    and timestep, the first call solves all requests at once as one
    lane of the disjoint union of their domain circuits (one block per
    request, e.g. one per technology node), provided the union
    factorises as the blocks do; each report is then bit-identical to
    its lone :meth:`~PsnTransientAnalysis.analyze` call.  Otherwise, or
    if the union solve fails, each request is solved by its own
    analyser (its announced batch, then its fallback ladder), so an
    error names that analyser's own node and step.  A failing request
    raises from its own call and the requests still announced are
    withdrawn.
    """
    requests = list(requests)
    # Validate every request before announcing any.
    lanes = [
        analysis._lane(vdd, loads, True) for analysis, vdd, loads in requests
    ]
    for (analysis, _, _), lane in zip(requests, lanes):
        analysis._announced.append(lane)
    if len(requests) > 1 and len(
        {(analysis._window_s, analysis._dt_s) for analysis, _, _ in requests}
    ) == 1:
        group = _NodeGroup(
            [(analysis, lane) for (analysis, _, _), lane in zip(requests, lanes)]
        )
        for lane in lanes:
            lane.group = group
    try:
        return [
            analysis.analyze(vdd, loads) for analysis, vdd, loads in requests
        ]
    finally:
        for (analysis, _, _), lane in zip(requests, lanes):
            analysis._withdraw([lane])


def _report(
    vdd: float, result: TransientResult, method: str, dt_s: float
) -> DomainPsnReport:
    """Per-tile peak and average PSN of one solved domain."""
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
