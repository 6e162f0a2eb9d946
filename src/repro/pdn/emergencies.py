"""Voltage-emergency (VE) detection and occurrence model.

The paper treats PSN above 5 % of the supply voltage as a voltage
emergency (following Reddi et al. [12]): a timing violation that corrupts
the thread running on the affected tile, forcing a rollback to the last
checkpoint (Section 4.5).

At the system level a VE is not a single event but a *rate*: while a
tile's peak noise exceeds the margin, each noise excursion beyond the
margin is a chance of a timing error.  We model the expected VE rate as
growing with the exceedance (excursions above the threshold become both
more frequent and deeper as peak PSN rises), and let the runtime sample
actual occurrences from a Poisson process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: PSN threshold for a voltage emergency, percent of Vdd (paper Section 5.1).
VE_THRESHOLD_PCT = 5.0

#: Clamp on the Poisson mean of one sampling interval.  numpy's
#: ``Generator.poisson`` raises (and ``int()`` of its float path can
#: overflow) for pathological rate x duration products; a tile that
#: would see a billion emergencies in one interval is saturated for
#: every practical purpose anyway.
MAX_POISSON_MEAN = 1e9


@dataclass(frozen=True)
class VoltageEmergencyPolicy:
    """Expected-rate model for voltage emergencies.

    Attributes:
        threshold_pct: VE threshold in percent of Vdd.
        rate_per_pct_s: Expected VEs per second per percent of exceedance.
            The default is calibrated so that a tile sitting a few
            percent above the margin loses a noticeable fraction of its
            throughput to rollbacks (the paper's Fig. 6 effect) without
            livelocking the application.
    """

    threshold_pct: float = VE_THRESHOLD_PCT
    rate_per_pct_s: float = 0.8

    def __post_init__(self) -> None:
        if self.threshold_pct <= 0:
            raise ValueError("threshold_pct must be positive")
        if self.rate_per_pct_s < 0:
            raise ValueError("rate_per_pct_s must be non-negative")

    def expected_rate_hz(self, peak_psn_pct: float) -> float:
        """Expected VE occurrences per second at a sustained noise level.

        Zero at or below the threshold; grows quadratically with the
        exceedance (excursions get more frequent *and* deeper).

        Raises:
            ValueError: for a NaN/inf noise level - always an upstream
                modelling bug, and letting it through would poison the
                Poisson sampling downstream.
        """
        if not math.isfinite(peak_psn_pct):
            raise ValueError(
                f"peak_psn_pct must be finite, got {peak_psn_pct!r}"
            )
        exceed = max(0.0, peak_psn_pct - self.threshold_pct)
        return self.rate_per_pct_s * exceed * (1.0 + exceed)

    def sample_emergencies(
        self,
        peak_psn_pct: float,
        duration_s: float,
        rng: np.random.Generator,
    ) -> int:
        """Number of VEs on a tile over ``duration_s`` at a noise level."""
        if duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        rate = self.expected_rate_hz(peak_psn_pct)
        if rate <= 0.0 or duration_s <= 0.0:
            return 0
        mean = min(rate * duration_s, MAX_POISSON_MEAN)
        return int(rng.poisson(mean))
