"""McPAT-style power model for cores and NoC routers.

The paper estimates per-benchmark power at each (Vdd, frequency, DoP)
operating point with McPAT + ITRS data.  This module provides the same
interface from first principles:

* core dynamic power  ``P_dyn = a * C_core * V^2 * f``  where ``a`` is the
  benchmark's switching-activity factor (0..1),
* core leakage power scales with voltage and an exponential DIBL-like term,
* router power scales with the router's flit activity (flits per cycle
  through the crossbar), reproducing the paper's observation that the NoC
  consumes roughly 18-20 % of chip power for communication-intensive
  workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.chip.dvfs import alpha_power_frequency
from repro.chip.technology import TechnologyNode


@dataclass(frozen=True)
class TilePower:
    """Power breakdown of one tile in watts."""

    core_dynamic: float
    core_leakage: float
    router_dynamic: float
    router_leakage: float

    @property
    def core(self) -> float:
        return self.core_dynamic + self.core_leakage

    @property
    def router(self) -> float:
        return self.router_dynamic + self.router_leakage

    @property
    def total(self) -> float:
        return self.core + self.router


class PowerModel:
    """Computes core and router power at an operating point.

    Args:
        tech: Technology node supplying capacitances and leakage constants.
    """

    #: Fraction of router switched capacitance that toggles per flit
    #: traversal (buffer write + crossbar + link driver).
    _ROUTER_ACTIVITY_PER_FLIT = 0.6
    #: Router static (clock tree + idle buffer) activity floor.
    _ROUTER_IDLE_ACTIVITY = 0.08
    #: Leakage voltage sensitivity (per volt, exponential).
    _LEAK_SENSITIVITY = 2.2
    #: Router leakage as a fraction of core leakage.
    _ROUTER_LEAK_FRACTION = 0.08

    def __init__(self, tech: TechnologyNode):
        self._tech = tech
        #: Per-Vdd memos of the two pure functions of ``(vdd, tech)``;
        #: only successful calls are kept, so an invalid ``vdd`` raises
        #: on every call.
        self._frequency: Dict[float, float] = {}
        self._core_leakage: Dict[float, float] = {}

    @property
    def tech(self) -> TechnologyNode:
        return self._tech

    def frequency(self, vdd: float) -> float:
        """Clock frequency in Hz at ``vdd`` (alpha-power law)."""
        f = self._frequency.get(vdd)
        if f is None:
            f = self._frequency[vdd] = alpha_power_frequency(vdd, self._tech)
        return f

    def core_dynamic(self, activity: float, vdd: float) -> float:
        """Core dynamic power in watts.

        Args:
            activity: Switching-activity factor in [0, 1].
            vdd: Supply voltage in volts.
        """
        self._check_activity(activity)
        f = self.frequency(vdd)
        return activity * self._tech.switched_cap_core_f * vdd * vdd * f

    def core_leakage(self, vdd: float) -> float:
        """Core leakage power in watts at ``vdd``."""
        leak = self._core_leakage.get(vdd)
        if leak is None:
            tech = self._tech
            scale = (vdd / tech.vdd_nominal) * math.exp(
                self._LEAK_SENSITIVITY * (vdd - tech.vdd_nominal)
            )
            leak = self._core_leakage[vdd] = tech.leakage_power_core_w * scale
        return leak

    def router_dynamic(self, flits_per_cycle: float, vdd: float) -> float:
        """Router dynamic power in watts.

        Args:
            flits_per_cycle: Average flits traversing the router per cycle
                (0 for an idle router; a 5-port router saturates near 5).
            vdd: Supply voltage in volts.
        """
        if flits_per_cycle < 0:
            raise ValueError("flits_per_cycle must be non-negative")
        f = self.frequency(vdd)
        activity = self._ROUTER_IDLE_ACTIVITY + (
            self._ROUTER_ACTIVITY_PER_FLIT * flits_per_cycle
        )
        return activity * self._tech.switched_cap_router_f * vdd * vdd * f

    def router_leakage(self, vdd: float) -> float:
        """Router leakage power in watts at ``vdd``."""
        return self.core_leakage(vdd) * self._ROUTER_LEAK_FRACTION

    def tile_power(
        self, core_activity: float, flits_per_cycle: float, vdd: float
    ) -> TilePower:
        """Full power breakdown for one occupied tile."""
        return TilePower(
            core_dynamic=self.core_dynamic(core_activity, vdd),
            core_leakage=self.core_leakage(vdd),
            router_dynamic=self.router_dynamic(flits_per_cycle, vdd),
            router_leakage=self.router_leakage(vdd),
        )

    @staticmethod
    def _check_activity(activity: float) -> None:
        if not 0.0 <= activity <= 1.0:
            raise ValueError(f"activity factor must be in [0, 1], got {activity}")
