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

The package imports none of them, so a process loads only the modules
it names: a routing-sweep worker never loads the runtime simulator, and
the figure and report modules, which load the transient solver's scipy
stack, stay out of every campaign cell.  Import each module directly
(``from repro.exp import figures``).
"""
