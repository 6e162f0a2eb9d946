"""Fast interference-kernel PSN model for use inside runtime simulations.

The transient MNA analysis (:mod:`repro.pdn.transient`) is the ground
truth, but it is far too slow to call on every scheduling epoch of a long
multi-application simulation.  Because the PDN is a linear network and the
workload waveform *shapes* are fixed per (activity bin, Vdd) - burst rates
track the clock frequency of the domain - the peak and average droop at a
tile are, to good accuracy, linear in the tile currents at a given supply
voltage:

    PSN_i [%] = (100 / Vdd) * ( z_own(bin_i) * Ic_i
                                + z_own_router * Ir_i
                                + sum_j  kappa(d_ij) * z_cross(bin_i, bin_j) * Ic_j
                                + sum_j  kappa(d_ij) * z_cross_router * Ir_j )

where ``Ic``/``Ir`` are core/router mean currents (power / Vdd), ``z`` are
effective impedances in ohms, and ``kappa(d)`` discounts 2-hop (diagonal)
coupling relative to 1-hop coupling inside the 2x2 domain.

The chip's DVS ladder is discrete (0.4-0.8 V in 0.1 V steps), so one
``z`` set is **fitted against the transient solver per ladder level**
(:mod:`repro.pdn.calibrate`); :class:`KernelLadder` dispatches to the
nearest fitted level.  The fitted constants encode the paper's
observations directly:

* ``z_cross(LOW, HIGH)`` dominates the cross terms - a Low-activity
  victim next to a High-activity aggressor suffers the most (Fig. 3b);
* ``kappa(2) <= kappa(1)`` - diagonal (2-hop) neighbours interfere less;
* the effective impedances grow with Vdd (burst di/dt tracks the clock),
  which is why relative PSN rises with supply voltage (Fig. 3a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.harness.errors import SolverError, SolverInputError
from repro.pdn.waveforms import ActivityBin, TileLoad

#: Manhattan distance between tile positions of a 2x2 domain
#: (row-major order: 0=TL, 1=TR, 2=BL, 3=BR).
DOMAIN_DISTANCES = np.array(
    [
        [0, 1, 1, 2],
        [1, 0, 2, 1],
        [1, 2, 0, 1],
        [2, 1, 1, 0],
    ]
)

#: Integer encoding of :class:`ActivityBin` used by the batched kernel
#: path (`evaluate_batch`): index into the per-kernel lookup tables.
BIN_INDEX: Dict[ActivityBin, int] = {ActivityBin.HIGH: 0, ActivityBin.LOW: 1}
_BIN_ORDER = (ActivityBin.HIGH, ActivityBin.LOW)


@dataclass(frozen=True)
class _KernelTables:
    """Array form of one :class:`PsnKernel` for batched evaluation."""

    z_own: np.ndarray  # (2,) indexed by BIN_INDEX
    z_cross: np.ndarray  # (2, 2) indexed by (BIN_INDEX[i], BIN_INDEX[j])
    kappa: np.ndarray  # (4, 4) coupling discount, zero diagonal

    #: Kernel matrices are cached once per kernel and shared read-only
    #: by every evaluation; parmlint's shared-readonly rule bans writes
    #: after construction.  (Unannotated class attr: not a dataclass field.)
    __shared_readonly__ = ("z_own", "z_cross", "kappa")


def _check_batch_inputs(
    vdd: np.ndarray, i_core: np.ndarray, i_router: np.ndarray
) -> None:
    """Row-order input guards shared by the batched evaluation paths.

    Raises the same exceptions as the scalar :meth:`PsnKernel.evaluate`
    guards, attributed to the first offending row in batch order.
    """
    finite_vdd = np.isfinite(vdd)
    if not finite_vdd.all():
        d = int(np.argmin(finite_vdd))
        raise SolverInputError(
            "non-finite supply voltage in PSN kernel",
            vdd=float(vdd[d]),
            domain_row=d,
        )
    if (vdd <= 0).any():
        raise ValueError("vdd must be positive")
    bad = ~(np.isfinite(i_core) & np.isfinite(i_router))
    if bad.any():
        d, k = divmod(int(np.argmax(bad)), bad.shape[1])
        raise SolverInputError(
            "non-finite tile current in PSN kernel",
            tile=int(k),
            core_current_a=float(i_core[d, k]),
            router_current_a=float(i_router[d, k]),
            vdd=float(vdd[d]),
        )


@dataclass(frozen=True)
class PsnKernel:
    """Effective-impedance kernel for one supply voltage.

    All ``z`` values are in ohms.  ``kappa2`` is the dimensionless 2-hop
    coupling discount (1-hop coupling is 1.0 by definition).
    """

    z_own: Dict[ActivityBin, float]
    z_cross: Dict[Tuple[ActivityBin, ActivityBin], float]
    z_own_router: float
    z_cross_router: float
    kappa2: float

    def __post_init__(self) -> None:
        if set(self.z_own) != set(ActivityBin):
            raise ValueError("z_own must cover both activity bins")
        pairs = {(a, b) for a in ActivityBin for b in ActivityBin}
        if set(self.z_cross) != pairs:
            raise ValueError("z_cross must cover all bin pairs")
        if not 0.0 <= self.kappa2 <= 1.5:
            raise ValueError("kappa2 out of plausible range")

    def kappa(self, distance: int) -> float:
        """Coupling discount for a given intra-domain hop distance."""
        if distance == 0:
            return 0.0
        if distance == 1:
            return 1.0
        if distance == 2:
            return self.kappa2
        raise ValueError("intra-domain distances are 0, 1 or 2")

    def evaluate(
        self, vdd: float, loads: Sequence[Optional[TileLoad]]
    ) -> np.ndarray:
        """PSN percent per tile of one domain.

        Args:
            vdd: Domain supply voltage in volts.
            loads: Four entries; ``None`` or :meth:`TileLoad.idle` marks a
                dark tile.

        Returns:
            Array of shape (4,): PSN as percent of Vdd per tile position.
        """
        if not np.isfinite(vdd):
            raise SolverInputError(
                "non-finite supply voltage in PSN kernel", vdd=float(vdd)
            )
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        if len(loads) != 4:
            raise ValueError("a domain has exactly 4 tiles")
        i_core = np.zeros(4)
        i_router = np.zeros(4)
        bins: list = [ActivityBin.LOW] * 4
        for k, load in enumerate(loads):
            if load is None:
                continue
            i_core[k] = load.core_power_w / vdd
            i_router[k] = load.router_power_w / vdd
            bins[k] = load.activity_bin

        # Mirror the transient solver's NaN/inf guards (SolverError with
        # the offending tile) so the fast and circuit paths fail alike.
        bad = ~(np.isfinite(i_core) & np.isfinite(i_router))
        if bad.any():
            k = int(np.argmax(bad))
            raise SolverInputError(
                "non-finite tile current in PSN kernel",
                tile=k,
                core_current_a=float(i_core[k]),
                router_current_a=float(i_router[k]),
                vdd=float(vdd),
            )

        psn = np.zeros(4)
        for i in range(4):
            acc = self.z_own[bins[i]] * i_core[i] + self.z_own_router * i_router[i]
            for j in range(4):
                if j == i:
                    continue
                k = self.kappa(int(DOMAIN_DISTANCES[i, j]))
                acc += k * self.z_cross[(bins[i], bins[j])] * i_core[j]
                acc += k * self.z_cross_router * i_router[j]
            psn[i] = 100.0 * acc / vdd
        finite = np.isfinite(psn)
        if not finite.all():
            raise SolverError(
                "non-finite PSN from kernel evaluation",
                tile=int(np.argmin(finite)),
                vdd=float(vdd),
            )
        return psn

    def tables(self) -> _KernelTables:
        """Array form of this kernel, built once and cached."""
        cached = self.__dict__.get("_tables")
        if cached is None:
            cached = _KernelTables(
                z_own=np.array([self.z_own[b] for b in _BIN_ORDER]),
                z_cross=np.array(
                    [
                        [self.z_cross[(a, b)] for b in _BIN_ORDER]
                        for a in _BIN_ORDER
                    ]
                ),
                kappa=np.array(
                    [
                        [self.kappa(int(d)) for d in row]
                        for row in DOMAIN_DISTANCES
                    ]
                ),
            )
            object.__setattr__(self, "_tables", cached)
        return cached

    def evaluate_batch(
        self,
        vdd: np.ndarray,
        i_core: np.ndarray,
        i_router: np.ndarray,
        bins: np.ndarray,
    ) -> np.ndarray:
        """PSN percent for many domains at once (one matvec, no loops).

        Args:
            vdd: Shape (m,) - supply voltage per domain, volts.
            i_core: Shape (m, 4) - core mean currents, amps.
            i_router: Shape (m, 4) - router mean currents, amps.
            bins: Shape (m, 4) - activity bins encoded via
                :data:`BIN_INDEX`.

        Returns:
            Array of shape (m, 4): PSN as percent of Vdd per tile.
            Matches :meth:`evaluate` row by row (same guard exceptions,
            same values up to floating-point summation order).
        """
        vdd = np.asarray(vdd, dtype=float)
        if i_core.shape != bins.shape or i_router.shape != bins.shape:
            raise ValueError("current/bin arrays must share shape (m, 4)")
        _check_batch_inputs(vdd, i_core, i_router)
        t = self.tables()
        own = t.z_own[bins] * i_core + self.z_own_router * i_router
        # Victim/aggressor coupling: z_cross looked up per (bin_i, bin_j)
        # pair, discounted by the hop-distance kappa (zero diagonal).
        z_pair = t.z_cross[bins[:, :, None], bins[:, None, :]]
        cross_core = np.einsum("mij,mj->mi", z_pair * t.kappa[None, :, :], i_core)
        cross_router = self.z_cross_router * (i_router @ t.kappa)
        psn = 100.0 * (own + cross_core + cross_router) / vdd[:, None]
        finite = np.isfinite(psn)
        if not finite.all():
            d, k = divmod(int(np.argmin(finite.ravel())), psn.shape[1])
            raise SolverError(
                "non-finite PSN from kernel evaluation",
                tile=int(k),
                vdd=float(vdd[d]),
            )
        return psn


@dataclass(frozen=True)
class KernelLadder:
    """Per-Vdd-level kernels with nearest-level dispatch."""

    kernels: Dict[float, PsnKernel]

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ValueError("ladder needs at least one kernel")
        if any(v <= 0 for v in self.kernels):
            raise ValueError("Vdd levels must be positive")

    def kernel_for(self, vdd: float) -> PsnKernel:
        """The kernel fitted at the nearest ladder voltage."""
        level = min(self.kernels, key=lambda v: abs(v - vdd))
        return self.kernels[level]

    def evaluate(
        self, vdd: float, loads: Sequence[Optional[TileLoad]]
    ) -> np.ndarray:
        return self.kernel_for(vdd).evaluate(vdd, loads)

    def evaluate_batch(
        self,
        vdds: np.ndarray,
        i_core: np.ndarray,
        i_router: np.ndarray,
        bins: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`evaluate` over many domains at once.

        Rows are grouped by nearest fitted ladder level (same
        tie-breaking as :meth:`kernel_for`: first level in ladder order
        wins) and each group is evaluated with one matvec.
        """
        vdds = np.asarray(vdds, dtype=float)
        levels = list(self.kernels)
        out = np.empty((vdds.shape[0], 4))
        if len(levels) == 1:
            return self.kernels[levels[0]].evaluate_batch(
                vdds, i_core, i_router, bins
            )
        # Guard the full batch in row order *before* grouping by level so
        # a poisoned row is attributed exactly as the scalar path would.
        _check_batch_inputs(vdds, i_core, i_router)
        dist = np.abs(vdds[:, None] - np.array(levels)[None, :])
        nearest = np.argmin(dist, axis=1)
        for level_i in np.unique(nearest):
            sel = nearest == level_i
            out[sel] = self.kernels[levels[int(level_i)]].evaluate_batch(
                vdds[sel], i_core[sel], i_router[sel], bins[sel]
            )
        return out


def _kernel(
    z_h: float,
    z_l: float,
    z_hh: float,
    z_hl: float,
    z_lh: float,
    z_ll: float,
    z_r: float,
    z_xr: float,
    kappa2: float,
) -> PsnKernel:
    return PsnKernel(
        z_own={ActivityBin.HIGH: z_h * 1e-3, ActivityBin.LOW: z_l * 1e-3},
        z_cross={
            (ActivityBin.HIGH, ActivityBin.HIGH): z_hh * 1e-3,
            (ActivityBin.HIGH, ActivityBin.LOW): z_hl * 1e-3,
            (ActivityBin.LOW, ActivityBin.HIGH): z_lh * 1e-3,
            (ActivityBin.LOW, ActivityBin.LOW): z_ll * 1e-3,
        },
        z_own_router=z_r * 1e-3,
        z_cross_router=z_xr * 1e-3,
        kappa2=kappa2,
    )


# --- fitted at 7nm by repro.pdn.calibrate (do not edit by hand) ----------
# Regenerate with `python -m repro.pdn.calibrate` after changing PDN or
# waveform parameters; the run is recorded in EXPERIMENTS.md.
_DEFAULT_PEAK = KernelLadder(
    kernels={
        0.4: _kernel(14.860, 10.240, 0.000, 0.000, 2.922, 0.000, 10.908, 7.085, 1.0),
        0.5: _kernel(10.605, 10.297, 2.785, 8.416, 4.754, 1.250, 12.572, 0.657, 0.8),
        0.6: _kernel(14.496, 14.785, 1.009, 3.351, 1.660, 0.000, 10.879, 4.491, 0.75),
        0.7: _kernel(16.927, 14.138, 0.000, 0.000, 4.262, 0.000, 9.077, 7.158, 1.0),
        0.8: _kernel(22.330, 20.012, 0.000, 0.000, 6.517, 0.000, 7.525, 11.350, 0.5),
    }
)

_DEFAULT_AVG = KernelLadder(
    kernels={
        0.4: _kernel(4.495, 4.422, 0.534, 0.145, 0.823, 0.243, 4.033, 1.394, 0.6),
        0.5: _kernel(4.289, 4.431, 0.789, 1.084, 0.931, 0.721, 4.284, 0.757, 0.5),
        0.6: _kernel(4.429, 4.942, 0.712, 0.812, 0.724, 0.298, 4.042, 1.100, 0.5),
        0.7: _kernel(4.644, 4.601, 0.493, 0.157, 0.876, 0.064, 4.185, 1.331, 0.7),
        0.8: _kernel(5.396, 5.076, 0.152, 0.000, 1.062, 0.000, 3.828, 2.015, 0.5),
    }
)


@dataclass
class FastPsnModel:
    """Runtime PSN estimator for whole-chip simulations.

    Evaluates the fitted peak/average kernel ladders per power domain.
    Domains are electrically independent (Section 3.3), so the chip-level
    result is the per-domain results side by side.
    """

    peak_kernels: KernelLadder = field(default_factory=lambda: _DEFAULT_PEAK)
    avg_kernels: KernelLadder = field(default_factory=lambda: _DEFAULT_AVG)

    def domain_psn(
        self, vdd: float, loads: Sequence[Optional[TileLoad]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Peak and average PSN percent for the four tiles of a domain."""
        return (
            self.peak_kernels.evaluate(vdd, loads),
            self.avg_kernels.evaluate(vdd, loads),
        )

    def chip_psn(
        self,
        vdds: np.ndarray,
        i_core: np.ndarray,
        i_router: np.ndarray,
        bins: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`domain_psn` over all active domains at once.

        Args:
            vdds: Shape (m,) - supply voltage per domain.
            i_core: Shape (m, 4) - core mean currents, amps.
            i_router: Shape (m, 4) - router mean currents, amps.
            bins: Shape (m, 4) - activity bins via
                :data:`BIN_INDEX`.

        Returns:
            ``(peak, avg)`` arrays of shape (m, 4), matching m calls to
            :meth:`domain_psn` row by row.
        """
        return (
            self.peak_kernels.evaluate_batch(vdds, i_core, i_router, bins),
            self.avg_kernels.evaluate_batch(vdds, i_core, i_router, bins),
        )
