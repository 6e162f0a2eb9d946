"""Power delivery network modelling and power-supply-noise estimation.

The paper models its PDN in SPICE (Section 3.4, Fig. 2): every tile is fed
from a per-tile voltage-regulator branch (bump resistance Rb and inductance
Lb), tiles inside a 2x2 power domain are coupled by on-chip grid wires (Rc)
and decoupling capacitance (Cdecap), and the workload on a tile is modelled
as a current source derived from the core + router power consumption.  PSN
at tile *i* is ``(Vbump - V_Ti) / Vbump`` (Eq. 1); noise above 5 % of the
supply is a voltage emergency.

This package rebuilds that stack from scratch:

* :mod:`repro.pdn.circuit`     - a small modified-nodal-analysis transient
  solver (R, L, C, current/voltage sources; trapezoidal or backward Euler);
* :mod:`repro.pdn.builder`     - nets up the Fig. 2 domain PDN;
* :mod:`repro.pdn.waveforms`   - tile current waveforms from workload
  activity (switching-activity bins, burst frequencies, phases);
* :mod:`repro.pdn.transient`   - runs the "SPICE" analysis and extracts
  per-tile peak/average PSN;
* :mod:`repro.pdn.fast`        - a fast interference-kernel PSN model whose
  constants are calibrated against the transient solver;
* :mod:`repro.pdn.calibrate`   - the calibration fit;
* :mod:`repro.pdn.sensors`     - quantised on-die PSN sensor readings;
* :mod:`repro.pdn.emergencies` - voltage-emergency detection and rates;
* :mod:`repro.pdn.audit`       - whole-mapping transient audits.

Only the models that mapping and the runtime loops read are re-exported
here.  The transient stack (``circuit``, ``builder``, ``transient``,
``calibrate``, ``audit``) solves with scipy, so a process that never runs
it does not load it: import those modules directly.
"""

from repro.pdn.waveforms import ActivityBin, TileLoad, CurrentWaveform
from repro.pdn.fast import FastPsnModel, KernelLadder, PsnKernel
from repro.pdn.sensors import SensorNetwork
from repro.pdn.emergencies import VoltageEmergencyPolicy, VE_THRESHOLD_PCT

__all__ = [
    "ActivityBin",
    "TileLoad",
    "CurrentWaveform",
    "FastPsnModel",
    "KernelLadder",
    "PsnKernel",
    "SensorNetwork",
    "VoltageEmergencyPolicy",
    "VE_THRESHOLD_PCT",
]
