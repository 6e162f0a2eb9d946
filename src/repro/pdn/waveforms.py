"""Workload-to-current waveform models for PDN transient analysis.

The paper models the workload on a tile as a current source whose value is
derived from the power consumption of the core and the NoC router in the
tile (Section 3.4), and bins tasks into "High" and "Low" switching activity
(Section 3.5).  This module turns an operating point (core power, router
power, Vdd, activity bin) into a time-domain supply-current waveform:

* the mean current is ``P / Vdd`` (so the resistive IR component of PSN
  tracks power consumption);
* on top of the mean, the core current swings in bursts at a
  bin-dependent burst frequency with bin-dependent swing and edge
  sharpness - High-activity tasks switch larger currents with faster
  edges (larger di/dt), which drives the inductive-droop component;
* the router contributes a finer-grained (per-flit-burst) component.

Two conventions encode the paper's proximity observations (see
:data:`repro.pdn.transient.SAME_BIN_JITTER_S`):

* threads with the *same* activity bin run barrier-synchronised code, so
  their bursts are nearly phase-aligned (a small fixed jitter apart) -
  their supply rings mostly cancel through the shared on-chip grid;
* tasks in *different* bins burst at different frequencies, so their
  current edges sweep through worst-case coincidence within any analysis
  window, ringing the bump-inductance/decap tank of both tiles at once.
  This is what makes High-Low neighbours interfere more than
  High-High/Low-Low pairs (Fig. 3b).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ActivityBin(enum.Enum):
    """Switching-activity class of a task (Section 3.5)."""

    HIGH = "high"
    LOW = "low"

    @property
    def is_high(self) -> bool:
        return self is ActivityBin.HIGH


@dataclass(frozen=True)
class BinWaveParams:
    """Burst-waveform parameters of one activity bin.

    Attributes:
        burst_hz: Burst repetition frequency of the core current.
        swing: Peak current swing as a fraction of the mean (0..1).
        sharpness: Edge sharpness of the burst waveform; higher values
            mean faster edges and therefore larger di/dt.
    """

    burst_hz: float
    swing: float
    sharpness: float

    def __post_init__(self) -> None:
        if self.burst_hz <= 0:
            raise ValueError("burst_hz must be positive")
        if not 0.0 <= self.swing < 1.0:
            raise ValueError("swing must be in [0, 1)")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")


#: Calibrated burst parameters per activity bin.  The two bins use
#: *different* burst frequencies so that cross-bin neighbours sweep
#: through worst-case edge alignment within one analysis window.
BIN_WAVE_PARAMS = {
    ActivityBin.HIGH: BinWaveParams(burst_hz=120e6, swing=0.30, sharpness=4.5),
    ActivityBin.LOW: BinWaveParams(burst_hz=75e6, swing=0.27, sharpness=4.5),
}

#: Router (NoC) current component: per-flit bursts are much finer grained
#: than core compute bursts.
ROUTER_WAVE_PARAMS = BinWaveParams(burst_hz=500e6, swing=0.27, sharpness=4.0)


@dataclass(frozen=True)
class TileLoad:
    """Electrical workload of one tile at an operating point.

    Attributes:
        core_power_w: Core power draw in watts (0 for an idle tile).
        router_power_w: Router power draw in watts.
        activity_bin: Switching-activity bin of the task on the core.
        phase_s: Burst phase offset in seconds.
        freq_scale: Multiplier on the bin's burst frequency.  Task bursts
            are not phase-locked across cores, so analyses detune each
            tile position slightly (see
            :func:`repro.pdn.transient.position_variation`); this makes
            same-bin neighbours sweep through all relative alignments
            within one analysis window instead of sitting at an arbitrary
            fixed phase.
    """

    core_power_w: float
    router_power_w: float
    activity_bin: ActivityBin
    phase_s: float = 0.0
    freq_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.core_power_w < 0 or self.router_power_w < 0:
            raise ValueError("power must be non-negative")
        if self.freq_scale <= 0:
            raise ValueError("freq_scale must be positive")

    @classmethod
    def idle(cls) -> "TileLoad":
        """A dark (power-gated) tile."""
        return cls(0.0, 0.0, ActivityBin.LOW)

    @property
    def total_power_w(self) -> float:
        return self.core_power_w + self.router_power_w


class CurrentWaveform:
    """Vectorised supply-current waveform of one tile.

    Callable mapping a time array (seconds) to a current array (amperes),
    suitable as a :class:`~repro.pdn.circuit.Circuit` current source.

    Args:
        load: The tile workload.
        vdd: Supply voltage in volts; sets the mean current ``P / Vdd``.
    """

    def __init__(self, load: TileLoad, vdd: float):
        if vdd <= 0:
            raise ValueError(f"vdd must be positive, got {vdd}")
        self._load = load
        self._vdd = vdd
        self._core_mean = load.core_power_w / vdd
        self._router_mean = load.router_power_w / vdd
        self._params = BIN_WAVE_PARAMS[load.activity_bin]

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        load = self._load
        # Only the core component tracks the clock: router current bursts
        # are per-flit events whose electrical timescale is set by link
        # serialisation, and letting them sweep through the bump/decap
        # tank resonance with Vdd would be an artefact.
        return self._component(
            t, self._core_mean, self._params, load.phase_s, load.freq_scale
        ) + self._component(
            t, self._router_mean, ROUTER_WAVE_PARAMS, load.phase_s, 1.0
        )

    @staticmethod
    def _component(
        t: np.ndarray,
        mean: float,
        params: BinWaveParams,
        phase_s: float,
        freq_scale: float,
    ) -> np.ndarray:
        if mean <= 0.0:
            return np.zeros_like(t)
        # tanh(k * sin(...)) is a smooth square wave with zero mean and
        # unit amplitude (up to tanh(k)); its edge di/dt scales with both
        # the burst frequency and the sharpness k.
        angle = 2.0 * math.pi * params.burst_hz * freq_scale * (t - phase_s)
        burst = np.tanh(params.sharpness * np.sin(angle)) / math.tanh(
            params.sharpness
        )
        return mean * (1.0 + params.swing * burst)
