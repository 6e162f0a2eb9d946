"""Bounded-memory streaming statistics for the service runtime.

The fixed-sequence simulator keeps one :class:`~repro.runtime.metrics.
AppRecord` per application, which is exactly right for 20-app paper
figures and exactly wrong for an open-ended service: a campaign that
absorbs millions of arrivals must not grow state with the arrival
count.  This module provides the replacement:

* :class:`P2Quantile` - the P-square (P^2) streaming quantile estimator
  of Jain & Chlamtac (CACM 1985).  Five markers, O(1) state, fully
  deterministic (no sampling), and JSON-serialisable so a checkpointed
  epoch resumes to byte-identical estimates.
* :class:`ClassStats` - per-priority-class lifecycle counters plus
  streaming wait/sojourn summaries (mean and p50/p95/p99).
* :class:`TrafficStats` - the service-wide aggregate: per-class stats,
  time-weighted utilization and PSN accumulators, shed/VE counters.

Every structure serialises with sorted keys and a fixed leaf count:
:meth:`TrafficStats.scalar_count` is pinned by the O(1)-state test,
which asserts the count is independent of how many arrivals were
folded in.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: Quantiles tracked per latency metric (wait and sojourn).
TRACKED_QUANTILES = (0.5, 0.95, 0.99)

#: Lifecycle counters every class tracks, in serialisation order.
CLASS_COUNTERS = (
    "arrived",
    "admitted",
    "rejected",
    "dropped",
    "shed",
    "preempted",
    "readmitted",
    "failed",
    "completed",
    "sla_met",
    "sla_missed",
    "ve_count",
)


class P2Quantile:
    """P-square streaming estimate of one quantile.

    The estimator keeps five markers (heights and integer positions)
    that track the q-quantile of everything ever :meth:`add`-ed, using
    piecewise-parabolic interpolation to nudge the middle markers as
    counts grow.  Until five observations arrive it stores them
    verbatim, so small streams are exact.

    State is O(1) and a pure function of the observation sequence - no
    randomness, no clock - which is what makes checkpointed epochs
    resumable to identical bytes.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must lie strictly inside (0, 1)")
        self.q = float(q)
        #: Marker heights (sorted observations until warm).
        self._heights: List[float] = []
        #: 1-based marker positions; empty until 5 observations.
        self._positions: List[float] = []
        #: Desired (real-valued) marker positions.
        self._desired: List[float] = []
        self.count = 0

    # ------------------------------------------------------------------

    def add(self, x: float) -> None:
        """Fold one observation into the estimate."""
        x = float(x)
        self.count += 1
        if self.count <= 5:
            self._heights.append(x)
            self._heights.sort()
            if self.count == 5:
                q = self.q
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0,
                    1.0 + 2.0 * q,
                    1.0 + 4.0 * q,
                    3.0 + 2.0 * q,
                    5.0,
                ]
            return
        h, n, d = self._heights, self._positions, self._desired
        # Find the marker cell containing x and clamp the extremes.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        q = self.q
        d[1] += q / 2.0
        d[2] += q
        d[3] += (1.0 + q) / 2.0
        d[4] += 1.0
        # Nudge the three middle markers toward their desired positions.
        for i in (1, 2, 3):
            delta = d[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                delta <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step)
            * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step)
            * (h[i] - h[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    # ------------------------------------------------------------------

    @property
    def value(self) -> float:
        """Current quantile estimate (0.0 before any observation)."""
        if self.count == 0:
            return 0.0
        if self.count <= 5:
            # Exact small-sample quantile (nearest-rank interpolation).
            idx = self.q * (self.count - 1)
            lo = int(idx)
            hi = min(lo + 1, self.count - 1)
            frac = idx - lo
            return self._heights[lo] * (1.0 - frac) + self._heights[hi] * frac
        return self._heights[2]

    def to_json(self) -> Dict[str, Any]:
        """Serialise; leaf count is fixed once five observations exist."""
        heights = list(self._heights)
        # Pad the warm-up buffer so the serialised leaf count never
        # depends on how many observations were folded in.
        while len(heights) < 5:
            heights.append(0.0)
        positions = self._positions or [0.0] * 5
        desired = self._desired or [0.0] * 5
        return {
            "count": int(self.count),
            "desired": [float(v) for v in desired],
            "heights": [float(v) for v in heights],
            "positions": [float(v) for v in positions],
            "q": float(self.q),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "P2Quantile":
        est = cls(float(data["q"]))
        est.count = int(data["count"])
        warm = est.count >= 5
        est._heights = [float(v) for v in data["heights"]]
        if not warm:
            est._heights = est._heights[: est.count]
            est._positions = []
            est._desired = []
        else:
            est._positions = [float(v) for v in data["positions"]]
            est._desired = [float(v) for v in data["desired"]]
        return est


class StreamingMoments:
    """Count/mean/max accumulator for one latency metric."""

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.total_s += float(x)
        self.max_s = max(self.max_s, float(x))

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "count": int(self.count),
            "max_s": float(self.max_s),
            "total_s": float(self.total_s),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "StreamingMoments":
        m = cls()
        m.count = int(data["count"])
        m.total_s = float(data["total_s"])
        m.max_s = float(data["max_s"])
        return m


class LatencySummary:
    """Streaming mean + tracked percentiles of one latency metric."""

    def __init__(self) -> None:
        self.moments = StreamingMoments()
        self.quantiles: Tuple[P2Quantile, ...] = tuple(
            P2Quantile(q) for q in TRACKED_QUANTILES
        )

    def add(self, x: float) -> None:
        self.moments.add(x)
        for est in self.quantiles:
            est.add(x)

    def quantile_s(self, q: float) -> float:
        for est in self.quantiles:
            # Tracked quantiles are fixed constants, so identity-style
            # exact comparison is safe here.
            if est.q == q:  # parmlint: ok[float-eq] - fixed grid lookup
                return est.value
        raise KeyError(f"quantile {q} is not tracked")

    def to_json(self) -> Dict[str, Any]:
        return {
            "moments": self.moments.to_json(),
            "quantiles": [est.to_json() for est in self.quantiles],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "LatencySummary":
        summary = cls()
        summary.moments = StreamingMoments.from_json(data["moments"])
        summary.quantiles = tuple(
            P2Quantile.from_json(q) for q in data["quantiles"]
        )
        return summary


class ClassStats:
    """Lifecycle counters + latency summaries of one priority class."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {name: 0 for name in CLASS_COUNTERS}
        self.wait = LatencySummary()
        self.sojourn = LatencySummary()
        #: Tile-seconds of busy capacity consumed by this class.
        self.busy_tile_s = 0.0

    def bump(self, counter: str, by: int = 1) -> None:
        if counter not in self.counters:
            raise KeyError(f"unknown counter {counter!r}")
        self.counters[counter] += by

    def to_json(self) -> Dict[str, Any]:
        return {
            "busy_tile_s": float(self.busy_tile_s),
            "counters": {k: int(v) for k, v in sorted(self.counters.items())},
            "sojourn": self.sojourn.to_json(),
            "wait": self.wait.to_json(),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ClassStats":
        stats = cls()
        stats.busy_tile_s = float(data["busy_tile_s"])
        for name in CLASS_COUNTERS:
            stats.counters[name] = int(data["counters"][name])
        stats.wait = LatencySummary.from_json(data["wait"])
        stats.sojourn = LatencySummary.from_json(data["sojourn"])
        return stats


class TrafficStats:
    """Service-wide streaming aggregate: O(1) in the arrival count.

    Args:
        class_names: Priority classes, in configuration order.  The
            per-class map is created eagerly so the serialised leaf
            count is fixed from the first byte.
    """

    def __init__(self, class_names: Tuple[str, ...]) -> None:
        if not class_names:
            raise ValueError("at least one priority class is required")
        self.classes: Dict[str, ClassStats] = {
            name: ClassStats() for name in class_names
        }
        self.peak_psn_pct = 0.0
        #: Time-weighted accumulators for average PSN over occupied tiles.
        self.psn_weight_tile_s = 0.0
        self.psn_accum_pct_tile_s = 0.0
        #: Tile-seconds observed (occupied or not) for utilization.
        self.capacity_tile_s = 0.0
        self.busy_tile_s = 0.0
        self.shed_events = 0
        self.ve_count = 0
        self.fault_count = 0

    # ------------------------------------------------------------------

    def cls(self, name: str) -> ClassStats:
        return self.classes[name]

    def record_interval(
        self,
        duration_s: float,
        tile_count: int,
        occupied_tiles: int,
        mean_occupied_psn_pct: float,
        peak_psn_pct: float,
    ) -> None:
        """Fold one inter-event interval into utilization/PSN stats."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        self.peak_psn_pct = max(self.peak_psn_pct, peak_psn_pct)
        self.capacity_tile_s += duration_s * tile_count
        self.busy_tile_s += duration_s * occupied_tiles
        if occupied_tiles > 0 and duration_s > 0:
            weight = duration_s * occupied_tiles
            self.psn_weight_tile_s += weight
            self.psn_accum_pct_tile_s += weight * mean_occupied_psn_pct

    # ------------------------------------------------------------------

    @property
    def utilization_fraction(self) -> float:
        if self.capacity_tile_s <= 0:
            return 0.0
        return self.busy_tile_s / self.capacity_tile_s

    @property
    def avg_psn_pct(self) -> float:
        if self.psn_weight_tile_s <= 0:
            return 0.0
        return self.psn_accum_pct_tile_s / self.psn_weight_tile_s

    def total(self, counter: str) -> int:
        return sum(c.counters[counter] for c in self.classes.values())

    def rate_fraction(self, counter: str, base: str = "arrived") -> float:
        """Counter total as a fraction of the ``base`` total."""
        denom = self.total(base)
        return self.total(counter) / denom if denom else 0.0

    # ------------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "busy_tile_s": float(self.busy_tile_s),
            "capacity_tile_s": float(self.capacity_tile_s),
            "classes": {
                name: stats.to_json()
                for name, stats in sorted(self.classes.items())
            },
            "fault_count": int(self.fault_count),
            "peak_psn_pct": float(self.peak_psn_pct),
            "psn_accum_pct_tile_s": float(self.psn_accum_pct_tile_s),
            "psn_weight_tile_s": float(self.psn_weight_tile_s),
            "shed_events": int(self.shed_events),
            "ve_count": int(self.ve_count),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "TrafficStats":
        names = tuple(data["classes"])
        stats = cls(names)
        stats.classes = {
            name: ClassStats.from_json(payload)
            for name, payload in data["classes"].items()
        }
        stats.peak_psn_pct = float(data["peak_psn_pct"])
        stats.psn_weight_tile_s = float(data["psn_weight_tile_s"])
        stats.psn_accum_pct_tile_s = float(data["psn_accum_pct_tile_s"])
        stats.capacity_tile_s = float(data["capacity_tile_s"])
        stats.busy_tile_s = float(data["busy_tile_s"])
        stats.shed_events = int(data["shed_events"])
        stats.ve_count = int(data["ve_count"])
        stats.fault_count = int(data["fault_count"])
        return stats

    def scalar_count(self) -> int:
        """Number of scalar leaves in :meth:`to_json`.

        The O(1)-state test pins this value against runs folding vastly
        different arrival counts: it must depend only on the class list,
        never on the traffic.
        """
        return _count_leaves(self.to_json())


def _count_leaves(node: Any) -> int:
    if isinstance(node, dict):
        return sum(_count_leaves(v) for v in node.values())
    if isinstance(node, (list, tuple)):
        return sum(_count_leaves(v) for v in node)
    return 1
