"""Experiment harness: regenerates every figure of the paper's evaluation.

* :mod:`repro.exp.frameworks` - the six compared (mapper, router)
  combinations: HM+XY, HM+ICON, HM+PANR, PARM+XY, PARM+ICON, PARM+PANR;
* :mod:`repro.exp.runner`     - one runtime simulation per framework and
  workload, with seed averaging;
* :mod:`repro.exp.figures`    - Fig. 1, 3a, 3b, 6, 7 and 8;
* :mod:`repro.exp.ablations`  - the buffer-threshold (B), DoP-cap,
  PARM-component, DsPB and checkpoint-period studies;
* :mod:`repro.exp.guardband`  - guardband/decap savings analysis;
* :mod:`repro.exp.faults`     - fault-intensity sweep (robustness of
  the frameworks under injected component faults);
* :mod:`repro.exp.report`     - the ``python -m repro`` one-shot report;
* :mod:`repro.exp.viz`        - ASCII chip/PSN renderers.

Only the framework table and the runner, which every campaign cell runs,
are imported here.  The figure and report modules load the transient
solver's scipy stack; import them directly (``from repro.exp import
figures`` works as before).
"""

from repro.exp.frameworks import FRAMEWORKS, Framework, framework
from repro.exp.runner import FrameworkResult, run_framework

__all__ = [
    "FRAMEWORKS",
    "Framework",
    "framework",
    "FrameworkResult",
    "run_framework",
]
