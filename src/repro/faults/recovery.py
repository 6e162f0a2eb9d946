"""Recovery policy: bounded-retry re-mapping with exponential backoff.

When a permanent fault evicts a running application (its tile or router
died) or makes its NoC flows unroutable, the runtime rolls the
application back to its last checkpoint and asks the resource manager to
re-map it.  Re-mapping may fail while the chip is busy, so attempts are
retried with exponential backoff; once the retry budget is exhausted the
application is *failed* cleanly (a terminal
:class:`~repro.runtime.metrics.AppRecord` outcome) instead of raising or
livelocking the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class RecoveryPolicy:
    """Limits and costs of fault-triggered application recovery.

    Attributes:
        max_remap_retries: Retry attempts after one recovery's immediate
            re-map attempt fails (total attempts per recovery = 1 +
            this; each new eviction gets a fresh retry budget).
        max_total_remaps: Lifetime budget of *successful* re-mappings
            per application.  Under a pathological fault pattern an
            application can be re-placed into an unroutable spot over
            and over; once this budget is spent the application is
            failed cleanly rather than allowed to churn forever.
        backoff_initial_s: Delay before the first retry.
        backoff_factor: Multiplier between consecutive retry delays.
        per_task_restart_cost_s: Wall-clock penalty per task of the
            re-mapped application (checkpoint restore and state transfer
            to the new tiles over the NoC) - the same physical cost as a
            migration move.
    """

    max_remap_retries: int = 4
    max_total_remaps: int = 20
    backoff_initial_s: float = 0.05
    backoff_factor: float = 2.0
    per_task_restart_cost_s: float = 100e-6

    def __post_init__(self) -> None:
        if self.max_remap_retries < 0:
            raise ValueError("max_remap_retries must be non-negative")
        if self.max_total_remaps < 1:
            raise ValueError("max_total_remaps must be at least 1")
        if self.backoff_initial_s <= 0:
            raise ValueError("backoff_initial_s must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.per_task_restart_cost_s < 0:
            raise ValueError("per_task_restart_cost_s must be non-negative")

    @property
    def max_attempts(self) -> int:
        """Tries per recovery episode: the first plus the retries."""
        return 1 + self.max_remap_retries

    def retry_delay_s(self, failed_tries: int) -> Optional[float]:
        """Wait before the next try after ``failed_tries`` failed ones.

        Returns ``None`` once the episode's :attr:`max_attempts` tries
        have all failed: the caller gives up.  After ``k >= 1`` failed
        tries the wait is :meth:`backoff_s` ``(k - 1)``; with none yet
        (a first try deferred rather than made at once) it is the
        initial backoff.
        """
        if failed_tries >= self.max_attempts:
            return None
        return self.backoff_s(max(0, failed_tries - 1))

    def backoff_s(self, retry_index: int) -> float:
        """Delay before retry ``retry_index`` (0-based)."""
        if retry_index < 0:
            raise ValueError("retry_index must be non-negative")
        return self.backoff_initial_s * self.backoff_factor ** retry_index

    def jittered_backoff_s(
        self,
        retry_index: int,
        rng: np.random.Generator,
        jitter_fraction: float = 0.1,
    ) -> float:
        """Backoff delay with seeded multiplicative jitter.

        The base :meth:`backoff_s` delay is scaled by a factor drawn
        uniformly from ``[1 - jitter_fraction, 1 + jitter_fraction]``,
        desynchronising retry storms across concurrently failing units.
        The jitter comes from the caller's explicit ``rng`` - never the
        wall clock or process-global RNG state - so a replay with the
        same seed reproduces the same schedule bit for bit (the campaign
        supervisor seeds the generator from the cell's content hash).
        """
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        scale = 1.0 + jitter_fraction * (2.0 * float(rng.random()) - 1.0)
        return self.backoff_s(retry_index) * scale
