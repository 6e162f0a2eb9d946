"""Long-running service runtime: open-ended arrivals at O(1) state.

The package grows :mod:`repro.runtime` from a fixed-sequence replay
(the paper's 20-app Fig. 6-8 traces) into a long-running discrete-event
*service*:

* :mod:`repro.runtime.service.arrivals` - seeded open-ended arrival
  processes (Poisson, bursty MMPP, diurnal load curves);
* :mod:`repro.runtime.service.stats` - bounded-memory incremental
  statistics (P-square streaming percentiles, per-class counters) so a
  campaign can absorb millions of arrivals at constant state;
* :mod:`repro.runtime.service.config` - priority classes with SLA
  deadlines plus the robustness control plane (admission control, load
  shedding, preemption, bounded-backoff re-admission);
* :mod:`repro.runtime.service.engine` - the event loop serving one
  epoch from an explicit, JSON-serialisable :class:`ServiceState`;
* :mod:`repro.runtime.service.campaign` - epoch-chunked execution on
  one :class:`~repro.harness.supervisor.CellExecutor` and one in-memory
  :class:`~repro.runtime.checkpoint.CellCheckpoint` (each epoch's
  commit encodes only that epoch) so SIGKILL + ``--resume`` is
  byte-identical, surfaced as ``python -m repro service``
  (:mod:`repro.runtime.service.cli`).

See docs/robustness.md ("Service mode") for the model and its
determinism contract.
"""

from repro.runtime.service.arrivals import (
    ArrivalProcess,
    arrival_process_from_spec,
)
from repro.runtime.service.config import (
    AdmissionPolicy,
    ServiceClass,
    ServiceConfig,
    SheddingPolicy,
)
from repro.runtime.service.engine import ServiceEngine, ServiceState
from repro.runtime.service.campaign import (
    ServiceCampaign,
    ServiceEpochCell,
    run_service_epoch,
    traffic_json,
)
from repro.runtime.service.stats import ClassStats, P2Quantile, TrafficStats

__all__ = [
    "AdmissionPolicy",
    "ArrivalProcess",
    "ClassStats",
    "P2Quantile",
    "ServiceCampaign",
    "ServiceClass",
    "ServiceConfig",
    "ServiceEngine",
    "ServiceEpochCell",
    "ServiceState",
    "SheddingPolicy",
    "TrafficStats",
    "arrival_process_from_spec",
    "run_service_epoch",
    "traffic_json",
]
