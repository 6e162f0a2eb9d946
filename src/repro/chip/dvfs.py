"""Dynamic voltage scaling: the Vdd ladder and the frequency-voltage law.

The paper's CMP supports per-domain supply voltages from 0.4 V (near
threshold) to 0.8 V in 0.1 V steps.  Clock frequency follows the classic
alpha-power law for velocity-saturated devices:

    f(V) = k * (V - Vth)^alpha / V

normalised so that ``f(vdd_nominal) == freq_at_nominal_hz`` for the
technology node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.chip.technology import TechnologyNode


def alpha_power_frequency(vdd: float, tech: TechnologyNode) -> float:
    """Core/router clock frequency in Hz at supply voltage ``vdd``.

    Uses the alpha-power law normalised to the node's nominal operating
    point.  ``vdd`` must be strictly above the threshold voltage.
    """
    if vdd <= tech.vth:
        raise ValueError(
            f"vdd={vdd} V is not above threshold vth={tech.vth} V for {tech.name}"
        )
    def shape(v: float) -> float:
        return (v - tech.vth) ** tech.alpha / v

    return tech.freq_at_nominal_hz * shape(vdd) / shape(tech.vdd_nominal)


@dataclass(frozen=True)
class VddLadder:
    """The discrete set of supply voltages a domain may run at.

    Voltages are stored sorted in increasing order, as consumed by the
    Vdd/DoP selection algorithm (Algorithm 1 iterates from the lowest Vdd
    upward).
    """

    levels: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("Vdd ladder must have at least one level")
        if any(v <= 0 for v in self.levels):
            raise ValueError("Vdd levels must be positive")
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError("Vdd levels must be strictly increasing and unique")

    @classmethod
    def from_range(cls, low: float, high: float, step: float) -> "VddLadder":
        """Build a ladder ``low, low+step, ..., high`` (inclusive)."""
        if step <= 0:
            raise ValueError("step must be positive")
        if high < low:
            raise ValueError("high must be >= low")
        levels = []
        v = low
        # Tolerate floating-point drift when stepping.
        while v <= high + step * 1e-6:
            levels.append(round(v, 9))
            v += step
        return cls(tuple(levels))

    @classmethod
    def paper_default(cls) -> "VddLadder":
        """The paper's ladder: 0.4 V to 0.8 V in 0.1 V steps."""
        return cls.from_range(0.4, 0.8, 0.1)

    @property
    def lowest(self) -> float:
        return self.levels[0]

    @property
    def highest(self) -> float:
        return self.levels[-1]

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    def __contains__(self, vdd: float) -> bool:
        return any(abs(v - vdd) < 1e-9 for v in self.levels)

    def nearest(self, vdd: float) -> float:
        """The ladder level closest to ``vdd``."""
        return min(self.levels, key=lambda v: abs(v - vdd))
