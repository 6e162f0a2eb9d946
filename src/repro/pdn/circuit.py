"""A small SPICE-like transient circuit solver (modified nodal analysis).

Supports resistors, capacitors, inductors, independent voltage sources and
independent (optionally time-varying) current sources.  Transient analysis
integrates with the trapezoidal rule (default, accurate for the lightly
damped RLC tanks of a power-delivery network) or backward Euler, starting
from the DC operating point so that start-up transients do not pollute
peak-noise measurements.

The implementation is standard MNA: one unknown per non-ground node voltage
plus one branch-current unknown per voltage source and per inductor.  The
system matrix is constant for a fixed timestep, so it is factorised once
(sparse LU) and only the right-hand side is rebuilt each step.  Analyses
that differ only in their sources run as lanes of one batch
(:meth:`Circuit.transient_lanes`): the state is an ``(unknowns, lanes)``
array and each step makes one multi-RHS solve; a single analysis is the
one-lane case of the same step loop.

Example:
    >>> c = Circuit()
    >>> c.vsource("vin", "gnd", 1.0)
    >>> c.resistor("vin", "out", 100.0)
    >>> c.capacitor("out", "gnd", 1e-6)
    >>> result = c.transient(duration=1e-3, dt=1e-6)
    >>> bool(abs(result.voltage("out")[-1] - 1.0) < 1e-3)
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.harness.errors import SolverError, SolverInputError

#: The ground node name.  Node "0" is accepted as an alias.
GROUND = "gnd"

#: Condition-number estimates above this mark the MNA system as
#: numerically untrustworthy (double precision keeps ~15-16 digits, so
#: 1e13 leaves ~3 digits of headroom in the solution).
DEFAULT_MAX_CONDITION = 1e13

#: Node-voltage magnitudes above this mark a diverging (ringing /
#: non-convergent) integration.  PDN rails sit around 1 V, so the
#: default is generous enough for any sane linear circuit while still
#: catching blow-ups long before they overflow to inf.
DEFAULT_MAX_ABS_V = 1e6


def _condition_estimate(matrix: sp.csc_matrix, lu) -> float:
    """Cheap 1-norm condition estimate of a factorised sparse matrix.

    Uses Higham's ``onenormest`` on the inverse operator (a handful of
    extra triangular solves) against the explicit 1-norm of the matrix;
    tiny systems fall back to a dense exact computation because the
    estimator needs more columns than they have.
    """
    size = matrix.shape[0]
    if size <= 4:
        return float(np.linalg.cond(matrix.toarray(), 1))
    inv_op = spla.LinearOperator(
        (size, size), matvec=lu.solve, rmatvec=lambda b: lu.solve(b, "T")
    )
    inv_norm = spla.onenormest(inv_op)
    return float(spla.norm(matrix, 1) * inv_norm)


Waveform = Union[float, Callable[[np.ndarray], np.ndarray]]


def union_node(block: int, node: str) -> str:
    """Name in a :meth:`Circuit.union` of node ``node`` of block ``block``."""
    return f"{block}/{node}"


#: One lane of :meth:`Circuit.transient_lanes`: the current-source
#: waveforms and the voltage-source values of one analysis (``None``
#: keeps the netlist's own).
Lane = Tuple[Optional[Sequence[Waveform]], Optional[Sequence[float]]]

#: Steps per block of the lane step loop.  The loop holds the
#: right-hand sides and states of one block, ``(block, size, lanes)``
#: each, and trades each block's source currents for its kept node
#: voltages once the block is solved.
LANE_BLOCK_STEPS = 64

#: Bump this whenever the numerics of the transient solver change
#: (integration stamps, guard behaviour, companion models...), so that
#: anything derived from solver output can tell a stale copy apart.
#: v3: the per-step scatter/gather loops became precomputed sparse
#: operators (summation order changed at double precision).
SOLVER_VERSION = 3


@dataclass
class _TransientPlan:
    """Reusable state of one transient configuration of a netlist.

    Everything here depends only on the element topology/values and the
    ``(method, dt)`` pair - *not* on source waveforms or voltage-source
    values, which enter the MNA system through the right-hand side only.
    Caching the plan therefore lets one factorisation serve arbitrarily
    many waveforms and supply voltages.
    """

    n: int
    n_l: int
    size: int
    lu: object
    condition_ratio: float
    cap_g: np.ndarray
    ind_r: np.ndarray
    # Precomputed step operators (see _transient_plan): source scatter
    # (size, n_src, sparse - applied once per solve over the whole
    # window), capacitor history scatter (size, n_cap) and the
    # capacitor / inductor terminal-difference gathers.  The three
    # per-step operators are dense ndarrays for ordinary circuit sizes
    # (scipy's sparse matvec dispatch costs more than the product
    # itself there) and stay sparse only for very large systems.
    src_mat: object = None
    cap_mat: object = None
    cap_diff: object = None
    ind_diff: object = None
    # True when every row of the four operators has at most two
    # nonzeros (all of them +-1): each product then rounds the same in
    # any summation order, so a multi-lane matmul equals one-lane
    # matvecs bit for bit.  A node with three or more capacitors or
    # current sources makes it False.
    lane_exact: bool = True

    #: Plan arrays are cached and shared read-only by every solve that
    #: reuses the plan; parmlint's shared-readonly rule bans writes
    #: after construction.  (Unannotated class attr: not a dataclass field.)
    __shared_readonly__ = (
        "cap_g",
        "ind_r",
        "src_mat",
        "cap_mat",
        "cap_diff",
        "ind_diff",
    )


@dataclass
class _Resistor:
    a: str
    b: str
    ohms: float


@dataclass
class _Capacitor:
    a: str
    b: str
    farads: float


@dataclass
class _Inductor:
    a: str
    b: str
    henries: float


@dataclass
class _VSource:
    pos: str
    neg: str
    volts: float


@dataclass
class _ISource:
    frm: str
    to: str
    waveform: Waveform


@dataclass(frozen=True)
class TransientResult:
    """Node voltages over time from a transient analysis.

    Attributes:
        time: Sample instants, shape ``(n_steps + 1,)``; ``time[0] == 0``.
        voltages: Node voltage samples, shape ``(n_steps + 1, n_nodes)``.
        node_order: Node name per column of ``voltages``.
    """

    time: np.ndarray
    voltages: np.ndarray
    node_order: Sequence[str]
    _index: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index", {name: i for i, name in enumerate(self.node_order)}
        )

    def voltage(self, node: str) -> np.ndarray:
        """Voltage trace of one node (ground returns zeros)."""
        if node in (GROUND, "0"):
            return np.zeros_like(self.time)
        try:
            return self.voltages[:, self._index[node]]
        except KeyError:
            raise KeyError(f"unknown node {node!r}")


class Circuit:
    """A netlist of linear elements with MNA-based DC and transient solves."""

    def __init__(self) -> None:
        self._resistors: List[_Resistor] = []
        self._capacitors: List[_Capacitor] = []
        self._inductors: List[_Inductor] = []
        self._vsources: List[_VSource] = []
        self._isources: List[_ISource] = []
        self._nodes: Dict[str, int] = {}
        # Netlist revision counter: bumped by every element addition so
        # cached factorisation plans know when they are stale.
        self._rev = 0
        self._plan_rev = -1
        self._plans: Dict[tuple, _TransientPlan] = {}
        self._dc_rev = -1
        self._dc_lu: Optional[object] = None

    # ------------------------------------------------------------------
    # Netlist construction
    # ------------------------------------------------------------------

    def resistor(self, a: str, b: str, ohms: float) -> None:
        """Add a resistor between nodes ``a`` and ``b``."""
        if ohms <= 0:
            raise ValueError(f"resistance must be positive, got {ohms}")
        self._touch(a), self._touch(b)
        self._resistors.append(_Resistor(a, b, ohms))
        self._rev += 1

    def capacitor(self, a: str, b: str, farads: float) -> None:
        """Add a capacitor between nodes ``a`` and ``b``."""
        if farads <= 0:
            raise ValueError(f"capacitance must be positive, got {farads}")
        self._touch(a), self._touch(b)
        self._capacitors.append(_Capacitor(a, b, farads))
        self._rev += 1

    def inductor(self, a: str, b: str, henries: float) -> None:
        """Add an inductor between nodes ``a`` and ``b``."""
        if henries <= 0:
            raise ValueError(f"inductance must be positive, got {henries}")
        self._touch(a), self._touch(b)
        self._inductors.append(_Inductor(a, b, henries))
        self._rev += 1

    def vsource(self, pos: str, neg: str, volts: float) -> None:
        """Add an ideal DC voltage source; ``pos`` is ``volts`` above ``neg``."""
        self._touch(pos), self._touch(neg)
        self._vsources.append(_VSource(pos, neg, volts))
        self._rev += 1

    def isource(self, frm: str, to: str, waveform: Waveform) -> None:
        """Add a current source driving current from node ``frm`` to ``to``.

        A chip workload drawing supply current is ``isource(tile, GROUND, i)``.

        Args:
            frm: Node the current is pulled out of.
            to: Node the current is pushed into.
            waveform: Either a constant (amperes) or a vectorised callable
                mapping a time array (seconds) to a current array.
        """
        self._touch(frm), self._touch(to)
        self._isources.append(_ISource(frm, to, waveform))
        self._rev += 1

    @property
    def node_names(self) -> List[str]:
        """Non-ground node names in insertion order."""
        return list(self._nodes)

    @classmethod
    def union(cls, blocks: Sequence["Circuit"]) -> "Circuit":
        """The disjoint union of ``blocks`` as one netlist.

        Block k's node ``name`` becomes :func:`union_node` ``(k, name)``
        and ground is shared.  Nodes keep their insertion order and each
        element kind its order, block after block, so block k's
        voltage and current sources follow those of blocks ``0..k-1``
        (one voltage source per block for a domain PDN).
        """
        union = cls()
        for k, block in enumerate(blocks):

            def name(node: str) -> str:
                return node if node in (GROUND, "0") else union_node(k, node)

            for node in block._nodes:
                union._touch(name(node))
            for r in block._resistors:
                union.resistor(name(r.a), name(r.b), r.ohms)
            for c in block._capacitors:
                union.capacitor(name(c.a), name(c.b), c.farads)
            for ind in block._inductors:
                union.inductor(name(ind.a), name(ind.b), ind.henries)
            for v in block._vsources:
                union.vsource(name(v.pos), name(v.neg), v.volts)
            for s in block._isources:
                union.isource(name(s.frm), name(s.to), s.waveform)
        return union

    def solves_as_blocks(
        self, blocks: Sequence["Circuit"], method: str, dt: float
    ) -> bool:
        """Whether lanes of this :meth:`union` of ``blocks`` give each
        block's own transient bit for bit.

        True when the ``(method, dt)`` transient and the DC
        factorisations of this netlist are the blocks' own placed side
        by side - each block's row and column permutations shifted by
        its offset, and L and U equal to the block-diagonal of the
        blocks' factors, entry for entry - and every block's own plan
        passes the default condition guard (:data:`DEFAULT_MAX_CONDITION`)
        that its own first solve applies.  Each solve of
        the union then does each block's arithmetic exactly as the
        block's own solve does.
        """
        try:
            plans = [b._transient_plan(method, dt) for b in blocks]
            pairs = [
                (self._transient_plan(method, dt).lu, [p.lu for p in plans]),
                (self._dc_factor(), [b._dc_factor() for b in blocks]),
            ]
        except SolverError:
            return False
        if not all(
            np.isfinite(p.condition_ratio)
            and p.condition_ratio <= DEFAULT_MAX_CONDITION
            for p in plans
        ):
            return False
        unknowns = self._block_unknowns(blocks)
        offsets = np.cumsum([0] + [len(u) for u in unknowns])
        size = len(self._nodes) + len(self._inductors) + len(self._vsources)
        if offsets[-1] != size:
            return False
        for whole, parts in pairs:
            perm_r = np.empty(size, dtype=int)
            perm_c = np.empty(size, dtype=int)
            for idx, offset, part in zip(unknowns, offsets, parts):
                perm_r[idx] = part.perm_r + offset
                perm_c[idx] = part.perm_c + offset
            if not (
                np.array_equal(whole.perm_r, perm_r)
                and np.array_equal(whole.perm_c, perm_c)
            ):
                return False
            for factor in ("L", "U"):
                side_by_side = sp.block_diag(
                    [getattr(part, factor) for part in parts], format="csc"
                )
                if (getattr(whole, factor) != side_by_side).nnz:
                    return False
        return True

    def _block_unknowns(self, blocks: Sequence["Circuit"]) -> List[np.ndarray]:
        """Per block of this :meth:`union`, the union's MNA unknown of
        each of the block's own unknowns (nodes, inductor currents, then
        voltage-source currents)."""
        n, n_l = len(self._nodes), len(self._inductors)
        ind_at, vsrc_at = n, n + n_l
        out = []
        for k, block in enumerate(blocks):
            b_l, b_v = len(block._inductors), len(block._vsources)
            out.append(np.concatenate([
                np.array(
                    [self._nodes[union_node(k, node)] for node in block._nodes],
                    dtype=int,
                ),
                np.arange(ind_at, ind_at + b_l),
                np.arange(vsrc_at, vsrc_at + b_v),
            ]))
            ind_at += b_l
            vsrc_at += b_v
        return out

    def _touch(self, node: str) -> None:
        if node in (GROUND, "0"):
            return
        if node not in self._nodes:
            self._nodes[node] = len(self._nodes)

    def _idx(self, node: str) -> Optional[int]:
        if node in (GROUND, "0"):
            return None
        return self._nodes[node]

    # ------------------------------------------------------------------
    # Solvers
    # ------------------------------------------------------------------

    def operating_point(self, at_time: float = 0.0) -> Dict[str, float]:
        """DC operating point: capacitors open, inductors shorted.

        Time-varying current sources are evaluated at ``at_time``.

        Returns:
            Mapping of node name to DC voltage.
        """
        x = self._solve_dc(at_time)
        n = len(self._nodes)
        return {name: float(x[i]) for name, i in self._nodes.items() if i < n}

    def transient(
        self,
        duration: float,
        dt: float,
        method: str = "trapezoidal",
        max_condition: float = DEFAULT_MAX_CONDITION,
        max_abs_v: float = DEFAULT_MAX_ABS_V,
        isource_waveforms: Optional[Sequence[Waveform]] = None,
        vsource_values: Optional[Sequence[float]] = None,
    ) -> TransientResult:
        """Run a fixed-step transient analysis from the DC operating point.

        This is the one-lane case of :meth:`transient_lanes`, which holds
        the only step loop: the result is bit-identical to that lane in
        any batch.

        The solve is numerically guarded: a singular or ill-conditioned
        MNA system, a NaN/inf source current, and a non-finite or
        diverging node voltage all raise
        :class:`~repro.harness.errors.SolverError` carrying the
        offending node and step, instead of propagating a raw
        ``LinAlgError`` or silently returning garbage.

        The constant MNA matrix and its sparse-LU factorisation are
        cached per ``(method, dt)`` on the circuit (invalidated by any
        netlist change), so repeated solves of the same topology - e.g.
        sweeping waveforms or supply voltages via the override
        parameters - factorise once and only rebuild the right-hand
        side.

        Args:
            duration: Total simulated time in seconds.
            dt: Timestep in seconds.
            method: ``"trapezoidal"`` (default) or ``"backward-euler"``.
            max_condition: Reject factorisations whose 1-norm condition
                estimate exceeds this (``inf`` disables the check).
            max_abs_v: Node-voltage magnitude treated as divergence
                (``inf`` disables the check).
            isource_waveforms: When given, use these waveforms (one per
                current source, in insertion order) instead of the
                netlist's own - sources enter through the right-hand
                side only, so this reuses the cached factorisation.
            vsource_values: When given, override the voltage-source
                values (one per source, in insertion order); same
                factorisation-reuse property as the waveform override.

        Returns:
            A :class:`TransientResult` with all node voltages.

        Raises:
            SolverError: on a singular/ill-conditioned system, non-finite
                source currents, or non-finite/diverging node voltages.
        """
        (outcome,) = self.transient_lanes(
            duration,
            dt,
            [(isource_waveforms, vsource_values)],
            method=method,
            max_condition=max_condition,
            max_abs_v=max_abs_v,
        )
        if isinstance(outcome, SolverError):
            raise outcome
        return outcome

    def transient_lanes(
        self,
        duration: float,
        dt: float,
        lanes: Sequence[Lane],
        method: str = "trapezoidal",
        max_condition: float = DEFAULT_MAX_CONDITION,
        max_abs_v: float = DEFAULT_MAX_ABS_V,
        nodes: Optional[Sequence[str]] = None,
        reduce: Optional[Callable[[int, TransientResult], Any]] = None,
    ) -> List[Any]:
        """Run one transient analysis per lane, all lanes in lock-step.

        Every lane shares this netlist's factorisation plan for
        ``(method, dt)`` and has its own source waveforms and
        voltage-source values.  For m lanes the state is a ``(size, m)``
        array and each step makes one multi-RHS ``lu.solve``.  Each
        lane's result is bit-identical to a one-lane solve: the solve
        treats the right-hand-side columns independently, the per-lane
        arithmetic is elementwise, and each row of the source and
        history operators sums at most two +-1 terms, which rounds the
        same in any order.  A netlist that breaks the last condition (a
        node with three or more capacitors or current sources) solves
        its lanes one at a time instead.

        The window runs in blocks of :data:`LANE_BLOCK_STEPS` steps, so
        the right-hand sides and states of only one block are held.
        Each block's kept node voltages take the place of its source
        currents, and the lanes' whole-window results are assembled one
        at a time, so with ``reduce`` the memory held is about one
        window of source currents for all lanes plus one lane's result.

        Analyses of different netlists (say, one domain PDN per
        technology node) can share the loop too: solve one lane of their
        :meth:`union`, which gives each block's own result bit for bit
        when :meth:`solves_as_blocks` holds.

        A failure belongs to its lane.  The outcome of a failing lane is
        the :class:`~repro.harness.errors.SolverError` (or
        :class:`~repro.harness.errors.SolverInputError`) that a one-lane
        solve would raise, with the same node, step and time; the other
        lanes run on.

        Args:
            duration, dt, method, max_condition, max_abs_v: As for
                :meth:`transient`.
            lanes: One ``(isource_waveforms, vsource_values)`` pair per
                lane; ``None`` in either place keeps the netlist's own
                sources.
            nodes: Node names whose voltages each result keeps (default:
                every node, in insertion order).
            reduce: Called as ``reduce(lane_index, result)`` on each
                solved lane as soon as its result is assembled; its
                return value replaces the result in the outcomes.

        Returns:
            Per lane, in order, a :class:`TransientResult` over ``nodes``
            (or its ``reduce`` value) or the error of that lane.
        """
        if duration <= 0 or dt <= 0:
            raise ValueError("duration and dt must be positive")
        if method not in ("trapezoidal", "backward-euler"):
            raise ValueError(f"unknown integration method {method!r}")
        if not self._nodes:
            raise ValueError("circuit has no nodes")
        sources = [self._lane_sources(*lane) for lane in lanes]
        node_order = list(self._nodes) if nodes is None else list(nodes)
        node_idx = np.array([self._nodes[name] for name in node_order], dtype=int)

        try:
            plan = self._transient_plan(method, dt)
        except SolverError as exc:
            return [exc] * len(sources)
        if not np.isfinite(plan.condition_ratio) or (
            plan.condition_ratio > max_condition
        ):
            exc = SolverError(
                "ill-conditioned MNA system matrix",
                condition_estimate=float(plan.condition_ratio),
                max_condition=max_condition,
                method=method,
                dt_s=dt,
            )
            return [exc] * len(sources)
        n_steps = int(round(duration / dt))
        times = np.arange(n_steps + 1) * dt
        outcomes: List[Any] = [None] * len(sources)
        lane_ids = list(range(len(sources)))
        groups = [lane_ids] if plan.lane_exact else [[j] for j in lane_ids]
        for group in groups:
            self._run_lanes(
                plan, method, max_abs_v, times, sources, group,
                node_idx, node_order, outcomes, reduce,
            )
        return outcomes

    def _run_lanes(
        self,
        plan: _TransientPlan,
        method: str,
        max_abs_v: float,
        times: np.ndarray,
        sources: Sequence[Tuple[Sequence[Waveform], np.ndarray]],
        group: Sequence[int],
        node_idx: np.ndarray,
        node_order: List[str],
        outcomes: List[Any],
        reduce: Optional[Callable[[int, TransientResult], Any]],
    ) -> None:
        """The step loop of :meth:`transient_lanes` over the lanes in
        ``group``; writes each lane's outcome into ``outcomes``."""
        n, n_l, size = plan.n, plan.n_l, plan.size
        n_steps = len(times) - 1
        trap = method == "trapezoidal"
        # The window in blocks of steps: [start, stop) per block.
        block = max(1, min(LANE_BLOCK_STEPS, n_steps))
        spans = [
            (first, min(first + block, n_steps + 1))
            for first in range(1, n_steps + 1, block)
        ]
        cols, i_now, wave_chunks = self._lane_currents(
            sources, group, times, spans, method, outcomes
        )
        if not cols:
            return

        # --- initial condition: DC operating point at t=0 --------------
        try:
            x = self._dc_state(
                i_now[:, cols],
                np.stack([sources[group[c]][1] for c in cols], axis=1),
            )
        except SolverError as exc:
            for c in cols:
                outcomes[group[c]] = exc
            return
        keep = []
        for k, c in enumerate(cols):
            error = self._dc_error(x[:, k], n)
            if error is None:
                keep.append(k)
            else:
                outcomes[group[c]] = error
        if not keep:
            return
        x = x[:, keep]
        cols = [cols[k] for k in keep]
        live = [group[c] for c in cols]
        m = len(live)
        first_volts = x[node_idx]
        failed = np.zeros(m, dtype=bool)

        # ``-ind_r * x`` negates before it multiplies: negate once.
        cap_g, neg_ind_r = plan.cap_g[:, None], -plan.ind_r[:, None]
        cap_mat, cap_diff = plan.cap_mat, plan.cap_diff
        ind_diff, src_mat = plan.ind_diff, plan.src_mat
        lu = plan.lu
        n_cap = len(self._capacitors)
        vsrc_vals = np.stack([sources[j][1] for j in live], axis=1)

        # Capacitor branch current at t=0 (zero at DC steady state).
        cap_i = np.zeros((n_cap, m))
        cap_v = cap_diff @ x
        # History buffers the step loop rewrites in place.
        cap_hist = np.empty((n_cap, m))
        cap_dv = np.empty((n_cap, m))

        rhs_block = np.empty((block, size, m))
        states = np.empty((block, size, m))
        volt_chunks: List[np.ndarray] = []
        for b, (start, stop) in enumerate(spans):
            count = stop - start
            # State-independent right-hand sides of the block: the
            # current-source scatter per lane, and the constant
            # voltage-source rows.  Only the capacitor/inductor history
            # terms remain in the step loop.
            chunk, wave_chunks[b] = wave_chunks[b], None
            for col, c in enumerate(cols):
                rhs_block[:count, :, col] = (src_mat @ chunk[c]).T
            del chunk
            rhs_block[:count, n + n_l:] = vsrc_vals
            # A diverging lane may overflow to inf/nan mid-window; the
            # guard below names its first offending step, so arithmetic
            # on its later poisoned steps must not warn.  Its column
            # stays in the batch: every other lane's column is solved
            # independently of it.
            with np.errstate(over="ignore", invalid="ignore"):
                for row in range(count):
                    rhs = rhs_block[row]
                    # Capacitor history currents (Norton companion).
                    if n_cap:
                        if trap:
                            hist = np.multiply(cap_g, cap_v, out=cap_hist)
                            hist += cap_i
                        else:
                            # ``+ 0.0`` turns a -0.0 history into +0.0.
                            hist = cap_g * cap_v + 0.0
                        rhs += cap_mat @ hist
                    # Inductor history voltages (backward Euler has no
                    # ``ind_diff`` term; ``x - 0.0`` is ``x`` bit for bit).
                    if n_l:
                        ind_rows = rhs[n:n + n_l]
                        np.multiply(neg_ind_r, x[n:n + n_l], out=ind_rows)
                        if trap:
                            ind_rows -= ind_diff @ x
                    x = lu.solve(rhs)
                    states[row] = x
                    if n_cap:
                        new_cap_v = cap_diff @ x
                        if trap:
                            np.subtract(new_cap_v, cap_v, out=cap_dv)
                            cap_dv *= cap_g
                            np.subtract(cap_dv, cap_i, out=cap_i)
                        cap_v = new_cap_v
                bad = ~np.isfinite(states[:count]).all(axis=1)
                if n:
                    # NaN compares False here; the non-finite flag wins.
                    bad |= (np.abs(states[:count, :n]) > max_abs_v).any(axis=1)
            for col in np.flatnonzero(bad.any(axis=0) & ~failed):
                row = int(np.argmax(bad[:, col]))
                step = start + row
                outcomes[live[col]] = self._state_error(
                    states[row, :, col], n, step, float(times[step]),
                    method, max_abs_v,
                )
                failed[col] = True
            # The kept voltages of the block take the memory its source
            # currents just released.
            volt_chunks.append(states[:count, node_idx])

        # One lane's whole trace at a time, reduced before the next.
        for col, j in enumerate(live):
            if failed[col]:
                continue
            volts = np.empty((n_steps + 1, len(node_idx)))
            volts[0] = first_volts[:, col]
            for (start, stop), chunk in zip(spans, volt_chunks):
                volts[start:stop] = chunk[:, :, col]
            result = TransientResult(
                time=times, voltages=volts, node_order=node_order
            )
            outcomes[j] = result if reduce is None else reduce(j, result)

    def _lane_currents(
        self,
        sources: Sequence[Tuple[Sequence[Waveform], np.ndarray]],
        group: Sequence[int],
        times: np.ndarray,
        spans: Sequence[Tuple[int, int]],
        method: str,
        outcomes: List[Any],
    ) -> Tuple[List[int], np.ndarray, List[Optional[np.ndarray]]]:
        """Evaluate the source currents of the lanes in ``group`` over
        the whole window.

        A lane with a non-finite current gets its input error in
        ``outcomes``.  Returns the positions in ``group`` of the other
        lanes, the currents at t=0, shape ``(n_isources, len(group))``,
        and the currents of each block of ``spans``, shape
        ``(len(group), n_isources, block steps)``: the step loop frees
        each block's chunk once it has used it.
        """
        n_src = len(self._isources)
        i_now = np.empty((n_src, len(group)))
        chunks: List[Optional[np.ndarray]] = [
            np.empty((len(group), n_src, stop - start)) for start, stop in spans
        ]
        cols: List[int] = []
        for col, j in enumerate(group):
            i_wave = np.empty((n_src, len(times)))
            for k, w in enumerate(sources[j][0]):
                if callable(w):
                    i_wave[k] = np.asarray(w(times), dtype=float)
                else:
                    i_wave[k] = float(w)
            bad_wave = ~np.isfinite(i_wave)
            if bad_wave.any():
                k, step = (int(v) for v in np.argwhere(bad_wave)[0])
                # Input data, not numerics: no method/timestep change can
                # fix a poisoned waveform, so fallback ladders re-raise.
                outcomes[j] = SolverInputError(
                    "non-finite source current waveform",
                    node=self._isources[k].frm,
                    step=step,
                    time_s=float(times[step]),
                    method=method,
                )
                continue
            cols.append(col)
            i_now[:, col] = i_wave[:, 0]
            for chunk, (start, stop) in zip(chunks, spans):
                chunk[col] = i_wave[:, start:stop]
        return cols, i_now, chunks

    def _lane_sources(
        self,
        isource_waveforms: Optional[Sequence[Waveform]],
        vsource_values: Optional[Sequence[float]],
    ) -> Tuple[Sequence[Waveform], np.ndarray]:
        """One lane's current waveforms and voltage-source values."""
        if isource_waveforms is None:
            waveforms: Sequence[Waveform] = [s.waveform for s in self._isources]
        else:
            if len(isource_waveforms) != len(self._isources):
                raise ValueError(
                    f"expected {len(self._isources)} waveform overrides, "
                    f"got {len(isource_waveforms)}"
                )
            waveforms = list(isource_waveforms)
        if vsource_values is None:
            vsrc_vals = np.array([v.volts for v in self._vsources], dtype=float)
        else:
            if len(vsource_values) != len(self._vsources):
                raise ValueError(
                    f"expected {len(self._vsources)} vsource overrides, "
                    f"got {len(vsource_values)}"
                )
            vsrc_vals = np.asarray(vsource_values, dtype=float)
        return waveforms, vsrc_vals

    def _transient_plan(self, method: str, dt: float) -> _TransientPlan:
        """Build (or fetch the cached) factorisation plan for (method, dt)."""
        if self._plan_rev != self._rev:
            self._plans.clear()
            self._plan_rev = self._rev
        plan = self._plans.get((method, dt))
        if plan is not None:
            return plan
        trap = method == "trapezoidal"

        n = len(self._nodes)
        n_l = len(self._inductors)
        n_v = len(self._vsources)
        size = n + n_l + n_v

        # --- constant system matrix -----------------------------------
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []

        def stamp(i: Optional[int], j: Optional[int], v: float) -> None:
            if i is not None and j is not None:
                rows.append(i)
                cols.append(j)
                vals.append(v)

        for r in self._resistors:
            g = 1.0 / r.ohms
            a, b = self._idx(r.a), self._idx(r.b)
            stamp(a, a, g), stamp(b, b, g)
            stamp(a, b, -g), stamp(b, a, -g)

        # Capacitor companion conductance: C/dt (BE) or 2C/dt (trapezoidal).
        cap_scale = 2.0 / dt if trap else 1.0 / dt
        cap_g = np.array([c.farads * cap_scale for c in self._capacitors])
        for c, g in zip(self._capacitors, cap_g):
            a, b = self._idx(c.a), self._idx(c.b)
            stamp(a, a, g), stamp(b, b, g)
            stamp(a, b, -g), stamp(b, a, -g)

        # Inductor branch rows: v_a - v_b - R_L * i = rhs_hist, where
        # R_L = 2L/dt (trapezoidal) or L/dt (BE).
        ind_scale = 2.0 / dt if trap else 1.0 / dt
        ind_r = np.array([l.henries * ind_scale for l in self._inductors])
        for k, (l, r_l) in enumerate(zip(self._inductors, ind_r)):
            row = n + k
            a, b = self._idx(l.a), self._idx(l.b)
            # KCL: branch current leaves a, enters b.
            stamp(a, row, 1.0), stamp(b, row, -1.0)
            # Branch equation.
            stamp(row, a, 1.0), stamp(row, b, -1.0)
            stamp(row, row, -r_l)

        for k, v in enumerate(self._vsources):
            row = n + n_l + k
            p, q = self._idx(v.pos), self._idx(v.neg)
            stamp(p, row, 1.0), stamp(q, row, -1.0)
            stamp(row, p, 1.0), stamp(row, q, -1.0)

        matrix = sp.csc_matrix(
            (vals, (rows, cols)), shape=(size, size), dtype=float
        )
        try:
            lu = spla.splu(matrix)
        except RuntimeError as exc:
            raise SolverError(
                "singular MNA system matrix - check for floating nodes, "
                "voltage-source loops, or degenerate element values",
                method=method,
                dt_s=dt,
                size=size,
            ) from exc
        cond = _condition_estimate(matrix, lu)

        def incidence(idx_pairs, shape, transpose=False):
            """Signed incidence operator from (index array, sign) pairs.

            Entry ``(idx[k], k)`` (or ``(k, idx[k])`` when transposed)
            holds ``sign``; ``-1`` indices (ground terminals) are
            dropped, matching the masked ``np.add.at`` scatters and the
            zero-filled ``node_v`` gathers this replaces.
            """
            r: List[int] = []
            c: List[int] = []
            v: List[float] = []
            for idx, sign in idx_pairs:
                for k, i in enumerate(idx):
                    if i >= 0:
                        r.append(k if transpose else i)
                        c.append(i if transpose else k)
                        v.append(sign)
            mat = sp.csr_matrix((v, (r, c)), shape=shape, dtype=float)
            # Dense below ~2 MB: the step loop applies these operators
            # thousands of times and numpy's dense matvec has far lower
            # fixed dispatch cost than scipy's sparse one.
            if shape[0] * shape[1] <= 262_144:
                return mat.toarray()
            return mat

        cap_a = np.array(
            [self._idx(c.a) if self._idx(c.a) is not None else -1
             for c in self._capacitors], dtype=int)
        cap_b = np.array(
            [self._idx(c.b) if self._idx(c.b) is not None else -1
             for c in self._capacitors], dtype=int)
        ind_a = np.array(
            [self._idx(l.a) if self._idx(l.a) is not None else -1
             for l in self._inductors], dtype=int)
        ind_b = np.array(
            [self._idx(l.b) if self._idx(l.b) is not None else -1
             for l in self._inductors], dtype=int)
        isrc_f = np.array(
            [self._idx(s.frm) if self._idx(s.frm) is not None else -1
             for s in self._isources], dtype=int)
        isrc_t = np.array(
            [self._idx(s.to) if self._idx(s.to) is not None else -1
             for s in self._isources], dtype=int)
        n_cap = len(self._capacitors)
        n_src = len(self._isources)
        operators = {
            "src_mat": incidence(
                ((isrc_f, -1.0), (isrc_t, 1.0)), (size, n_src)
            ),
            "cap_mat": incidence(
                ((cap_a, 1.0), (cap_b, -1.0)), (size, n_cap)
            ),
            "cap_diff": incidence(
                ((cap_a, 1.0), (cap_b, -1.0)), (n_cap, size), transpose=True
            ),
            "ind_diff": incidence(
                ((ind_a, 1.0), (ind_b, -1.0)), (n_l, size), transpose=True
            ),
        }
        lane_exact = all(
            (np.diff(sp.csr_matrix(op).indptr) <= 2).all()
            for op in operators.values()
        )

        plan = _TransientPlan(
            n=n,
            n_l=n_l,
            size=size,
            lu=lu,
            condition_ratio=float(cond),
            cap_g=cap_g,
            ind_r=ind_r,
            lane_exact=bool(lane_exact),
            **operators,
        )
        self._plans[(method, dt)] = plan
        return plan

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _unknown_name(self, idx: int, n: int) -> str:
        """Human-readable name of MNA unknown ``idx`` (node or branch)."""
        if idx < n:
            return list(self._nodes)[idx]
        return f"branch[{idx - n}]"

    def _state_error(
        self,
        x: np.ndarray,
        n: int,
        step: int,
        time_s: float,
        method: str,
        max_abs_v: float,
    ) -> Optional[SolverError]:
        """The guard's error for one solved state vector, or ``None``.

        A non-finite unknown wins over a diverged node voltage; either
        error names the offending unknown, the step and its time.
        """
        finite = np.isfinite(x)
        if not finite.all():
            idx = int(np.argmin(finite))
            return SolverError(
                "non-finite solution in transient solve",
                node=self._unknown_name(idx, n),
                step=step,
                time_s=time_s,
                method=method,
            )
        volts = np.abs(x[:n])
        if n and float(np.max(volts)) > max_abs_v:
            idx = int(np.argmax(volts))
            return SolverError(
                "node voltage diverged (ringing or non-convergent "
                "integration)",
                node=self._unknown_name(idx, n),
                voltage_v=float(x[idx]),
                max_abs_v=max_abs_v,
                step=step,
                time_s=time_s,
                method=method,
            )
        return None

    def _dc_error(self, x: np.ndarray, n: int) -> Optional[SolverError]:
        """The error of a non-finite DC state vector, or ``None``."""
        finite = np.isfinite(x)
        if finite.all():
            return None
        return SolverError(
            "non-finite DC operating point",
            node=self._unknown_name(int(np.argmin(finite)), n),
            stage="dc",
        )

    def _solve_dc(self, at_time: float) -> np.ndarray:
        i_now = np.array(
            [
                float(s.waveform(np.array([at_time]))[0])
                if callable(s.waveform)
                else float(s.waveform)
                for s in self._isources
            ]
        )
        vsrc_vals = np.array([v.volts for v in self._vsources], dtype=float)
        x = self._dc_state(i_now[:, None], vsrc_vals[:, None])[:, 0]
        error = self._dc_error(x, len(self._nodes))
        if error is not None:
            raise error
        return x

    def _dc_factor(self):
        """Sparse LU of the DC network (caps open, inductors shorted).

        The DC matrix depends only on the netlist, so the factorisation
        is cached across calls (invalidated by any netlist change).
        """
        if self._dc_rev == self._rev and self._dc_lu is not None:
            return self._dc_lu
        n = len(self._nodes)
        n_l = len(self._inductors)
        size = n + n_l + len(self._vsources)
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []

        def stamp(i: Optional[int], j: Optional[int], v: float) -> None:
            if i is not None and j is not None:
                rows.append(i)
                cols.append(j)
                vals.append(v)

        for r in self._resistors:
            g = 1.0 / r.ohms
            a, b = self._idx(r.a), self._idx(r.b)
            stamp(a, a, g), stamp(b, b, g)
            stamp(a, b, -g), stamp(b, a, -g)
        for k, l in enumerate(self._inductors):
            row = n + k
            a, b = self._idx(l.a), self._idx(l.b)
            stamp(a, row, 1.0), stamp(b, row, -1.0)
            stamp(row, a, 1.0), stamp(row, b, -1.0)  # v_a - v_b = 0 (short)
        for k, v in enumerate(self._vsources):
            row = n + n_l + k
            p, q = self._idx(v.pos), self._idx(v.neg)
            stamp(p, row, 1.0), stamp(q, row, -1.0)
            stamp(row, p, 1.0), stamp(row, q, -1.0)

        matrix = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
        try:
            self._dc_lu = spla.splu(matrix)
        except RuntimeError as exc:
            raise SolverError(
                "singular DC network - check for floating nodes or "
                "current sources into open circuits",
                stage="dc",
                size=size,
            ) from exc
        self._dc_rev = self._rev
        return self._dc_lu

    def _dc_state(self, i_now: np.ndarray, vsrc_vals: np.ndarray) -> np.ndarray:
        """Solve the DC network for each column of sources at once.

        Args:
            i_now: Current-source values, shape ``(n_isources, m)``.
            vsrc_vals: Voltage-source values, shape ``(n_vsources, m)``.

        Returns the full MNA state per column, shape ``(size, m)`` (node
        voltages then inductor currents then voltage-source currents),
        used to seed the transient; callers check it with
        :meth:`_dc_error`.
        """
        lu = self._dc_factor()
        n = len(self._nodes)
        n_l = len(self._inductors)
        size = n + n_l + len(self._vsources)
        rhs = np.zeros((size, i_now.shape[1]))
        for k, s in enumerate(self._isources):
            f, t = self._idx(s.frm), self._idx(s.to)
            if f is not None:
                rhs[f] -= i_now[k]
            if t is not None:
                rhs[t] += i_now[k]
        rhs[n + n_l:] = vsrc_vals
        return lu.solve(rhs)
