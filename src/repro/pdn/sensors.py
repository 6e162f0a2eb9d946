"""On-die digital PSN sensor network (after Sadi et al. [16]).

The paper assumes a network of digital sensor macros that measure the
runtime PSN level at every core and NoC router; PARM's mapping feedback
and the PANR routing scheme consume *sensor readings*, not ground truth.
This module models the non-idealities that matter at the system level:

* quantisation (digital sensors report in LSB steps);
* saturation (a finite full-scale range);
* **faults** - a sensor macro can latch one code forever (stuck-at),
  stop responding (dead), or silently drift away from the true value;
* **staleness** - a reading that has not been refreshed within the
  staleness limit can no longer be trusted by adaptive consumers.

Detected faults (stuck, dead - both visible to the macro's self-test /
heartbeat) and stale readings are reported as *invalid* so consumers
such as PANR can fall back to deterministic behaviour; drift is a
silent fault and stays "valid" - consumers cannot tell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

#: Recognised sensor fault kinds (hardware-level view; the campaign
#: model maps :class:`repro.faults.events.FaultKind` onto these).
SENSOR_FAULT_KINDS = ("stuck", "dead", "drift")


@dataclass(frozen=True)
class SensorFault:
    """Fault state of one sensor macro.

    Attributes:
        kind: ``"stuck"`` (latches ``value_pct`` forever, detected),
            ``"dead"`` (stops responding, detected) or ``"drift"``
            (reading moves away from truth at ``value_pct`` percent of
            Vdd per second, silent).
        value_pct: Stuck reading, or drift rate in percent/s.
        since_s: Fault onset time (drives the drift offset).
    """

    kind: str
    value_pct: float = 0.0
    since_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SENSOR_FAULT_KINDS:
            raise ValueError(
                f"unknown sensor fault kind {self.kind!r}; "
                f"known: {SENSOR_FAULT_KINDS}"
            )
        if not math.isfinite(self.value_pct):
            raise ValueError("value_pct must be finite")
        if not math.isfinite(self.since_s) or self.since_s < 0:
            raise ValueError("since_s must be finite and non-negative")

    @property
    def detected(self) -> bool:
        """Whether the macro's self-test flags this fault (drift is
        silent)."""
        return self.kind in ("stuck", "dead")


@dataclass
class SensorNetwork:
    """Quantised per-tile PSN readings with fault and staleness tracking.

    Attributes:
        lsb_pct: Quantisation step in percent of Vdd (default 0.25 %,
            i.e. ~1 mV resolution at 0.4 V NTC supply).
        full_scale_pct: Saturation level in percent of Vdd.
        staleness_limit_s: Readings older than this are reported invalid
            by :meth:`read_tiles` (``None`` disables the check).
    """

    lsb_pct: float = 0.25
    full_scale_pct: float = 25.0
    staleness_limit_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lsb_pct <= 0:
            raise ValueError("lsb_pct must be positive")
        if self.full_scale_pct <= self.lsb_pct:
            raise ValueError("full_scale_pct must exceed lsb_pct")
        if self.staleness_limit_s is not None and self.staleness_limit_s <= 0:
            raise ValueError("staleness_limit_s must be positive")
        self._readings: Dict[int, float] = {}
        self._faults: Dict[int, SensorFault] = {}
        self._updated_s: Dict[int, float] = {}

    def read(self, true_psn_pct: float) -> float:
        """Quantise and clamp one true PSN value (percent of Vdd).

        Raises:
            ValueError: on a NaN/inf input - a non-finite PSN level is
                always an upstream modelling bug, and ``round(nan)``
                would silently poison every PANR cost term downstream.
        """
        if not math.isfinite(true_psn_pct):
            raise ValueError(
                f"true PSN must be finite, got {true_psn_pct!r}"
            )
        clamped = min(max(true_psn_pct, 0.0), self.full_scale_pct)
        return round(clamped / self.lsb_pct) * self.lsb_pct

    def read_array(self, true_psn_pct: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`read` (raises on non-finite inputs)."""
        values = np.asarray(true_psn_pct, dtype=float)
        if not np.all(np.isfinite(values)):
            bad = np.flatnonzero(~np.isfinite(values))
            raise ValueError(
                f"true PSN must be finite; non-finite at tiles {bad.tolist()}"
            )
        clamped = np.clip(values, 0.0, self.full_scale_pct)
        return np.round(clamped / self.lsb_pct) * self.lsb_pct

    def update(self, tile: int, true_psn_pct: float, now_s: float = 0.0) -> float:
        """Store and return the quantised reading for a tile."""
        value = self.read(true_psn_pct)
        self._readings[tile] = value
        self._updated_s[tile] = now_s
        return value

    def snapshot(self) -> Dict[int, float]:
        """Copy of all current readings."""
        return dict(self._readings)

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------

    def set_fault(self, tile: int, fault: SensorFault) -> None:
        """Mark one tile's sensor macro as faulted (last fault wins)."""
        self._faults[tile] = fault

    def clear_fault(self, tile: int, since_s: Optional[float] = None) -> None:
        """Clear a tile's fault.

        Args:
            tile: The tile whose fault expires.
            since_s: When given, clear only if the active fault started
                at that time - so an expiring transient fault does not
                clear a different fault injected later on the same tile.
        """
        fault = self._faults.get(tile)
        if fault is None:
            return
        # Identity check, not arithmetic: both timestamps come from the
        # same assignment, so exact inequality is the correct test (a
        # tolerance could clear a *different* fault injected nearby).
        if since_s is not None and fault.since_s != since_s:  # parmlint: ok[float-eq]
            return
        del self._faults[tile]

    def fault(self, tile: int) -> Optional[SensorFault]:
        """Active fault of a tile's sensor, if any."""
        return self._faults.get(tile)

    def is_stale(self, tile: int, now_s: float) -> bool:
        """Whether a tile's reading is older than the staleness limit."""
        if self.staleness_limit_s is None:
            return False
        updated = self._updated_s.get(tile)
        if updated is None:
            return True
        return now_s - updated > self.staleness_limit_s

    # ------------------------------------------------------------------
    # Fault-aware bulk sampling (the runtime's per-refresh entry point)
    # ------------------------------------------------------------------

    def read_tiles(
        self, true_psn_pct: np.ndarray, now_s: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample every tile's sensor, applying faults and staleness.

        Healthy sensors quantise the true value and refresh their
        staleness stamp.  Stuck sensors report their latched code, dead
        sensors report their last healthy reading, drifting sensors
        report a silently skewed value.

        Args:
            true_psn_pct: Per-tile true PSN levels (percent of Vdd).
            now_s: Current simulation time.

        Returns:
            ``(readings, valid)``: the per-tile readings and a boolean
            mask that is False where the reading must not be trusted
            (detected fault, or stale).
        """
        true_psn_pct = np.asarray(true_psn_pct, dtype=float)
        values = self.read_array(true_psn_pct)
        n = values.shape[0]
        valid = np.ones(n, dtype=bool)
        for tile, fault in self._faults.items():
            if tile >= n:
                continue
            if fault.kind == "stuck":
                values[tile] = self.read(
                    min(max(fault.value_pct, 0.0), self.full_scale_pct)
                )
                valid[tile] = False
            elif fault.kind == "dead":
                values[tile] = self._readings.get(tile, 0.0)
                valid[tile] = False
            else:  # drift: silent, stays "valid"
                drifted = true_psn_pct[tile] + fault.value_pct * max(
                    0.0, now_s - fault.since_s
                )
                values[tile] = self.read(
                    min(max(drifted, 0.0), self.full_scale_pct)
                )
        for tile in range(n):
            fault = self._faults.get(tile)
            if fault is not None and fault.kind == "dead":
                # A dead sensor never refreshes; its reading goes stale.
                if self.is_stale(tile, now_s):
                    valid[tile] = False
                continue
            self._readings[tile] = float(values[tile])
            self._updated_s[tile] = now_s
        return values, valid
