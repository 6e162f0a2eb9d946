"""Golden digests of both runtime loops.

``RuntimeSimulator`` (the paper's Fig. 6-8 loop) and ``ServiceEngine``
(service mode) share their Vdd/DoP/mapping decisions, PSN evaluation,
execution estimate and retry budget, and differ by design in their
contention model, VE sampling and metrics sink.  These digests pin the
full output of each loop on runs that together take every path:

* the six evaluation frameworks on one mixed 20-app sequence;
* PARM+PANR under a sampled fault campaign that exhausts re-map
  retries (``remap_retry_count > 0``, at least one failed app);
* ORCH+XY with reactive hotspot migration;
* one run recording the per-event trace;
* an overloaded service (preemption, shedding, re-admission and
  retry-exhausted failures all non-zero), without and with a fault
  script.

A simulator digest hashes every ``AppRecord`` and ``RunMetrics``
field, trace included, floats as ``repr``; a service digest hashes the
campaign's traffic JSON.  The digests were generated before the loops'
shared decisions moved to single owners; a refactor must reproduce
them, never re-pin them.  The simulator digests were regenerated once,
without a ``compaction_count`` field, when migration compaction was
deleted.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.apps.suite import ProfileLibrary
from repro.apps.workload import WorkloadType, generate_workload
from repro.chip import default_chip
from repro.core import ParmManager
from repro.core.orchestrator import OrchestratorManager
from repro.exp.frameworks import FRAMEWORKS
from repro.faults.campaign import DEFAULT_FAULT_RATES, FaultCampaign
from repro.noc.routing import make_routing
from repro.runtime.migration import ReactiveMigrationPolicy
from repro.runtime.service.arrivals import PoissonProcess
from repro.runtime.service.campaign import ServiceCampaign, traffic_json
from repro.runtime.service.config import ServiceConfig, ServiceFault
from repro.runtime.simulator import RuntimeSimulator, SimulatorContext

GOLDEN = {
    ("sim", "HM+XY"): "15eb04da0dd63fcc60103ad970d01a371f2ecd549bd1fbe34d8934317743c1bd",
    ("sim", "HM+ICON"): "4bfbb85a0eaee928269b4ba0483e92392346f4a38ecf825790730c1dae186da2",
    ("sim", "HM+PANR"): "a69e1bebae8b5ec20346797fca57c5cc514f5b7ce91cd74c59b2613f7dc4c652",
    ("sim", "PARM+XY"): "b5da0d7599ec9aa82e4cc69c3a9c280827ec842f7fcc9842431cfbe6e43597dc",
    ("sim", "PARM+ICON"): "c25efe73e076ecacd63dbb8d7a70250d6546dab46cf0b8f445ef19a19ee169fa",
    ("sim", "PARM+PANR"): "1b4026f65a10a850a3d5022b7c6bedb0b32c65ef1899457e65352b43b5f41278",
    ("sim", "faults"): "d34ad0c8d05f4b726f3c1bbb831b2044f5f50f46123238150d75453864e52abe",
    ("sim", "reactive"): "d7fd5f2ecfeaf5a673d73b72a5f73d844d78dd37283bcd61cb94d2f24de33f9e",
    ("sim", "trace"): "c708bd5243885355f13025d4da60f8d1e0573080ad90ce316b33336166d51a5b",
    ("service", "clean"): "14789bd604568156192a15a21fd635a550291a413295daf86fccfd1deacdacb7",
    ("service", "faults"): "0ca519a98557c1722e82e58da011ce5cc5cd8a2c937ea4f90cab89ac0ce94cca",
}


@pytest.fixture(scope="module")
def chip():
    return default_chip()


@pytest.fixture(scope="module")
def context(chip):
    return SimulatorContext.for_chip(chip)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadType.MIXED, 0.05, n_apps=20, seed=3, library=ProfileLibrary()
    )


def _canon(value):
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def metrics_digest(metrics):
    data = {
        f.name: _canon(getattr(metrics, f.name))
        for f in dataclasses.fields(metrics)
        if f.name != "apps"
    }
    data["apps"] = [
        {
            f.name: _canon(getattr(record, f.name))
            for f in dataclasses.fields(record)
        }
        for _, record in sorted(metrics.apps.items())
    ]
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def simulate(chip, context, workload, manager, router, **kw):
    kw.setdefault("seed", 7)
    sim = RuntimeSimulator(
        chip, manager, make_routing(router), context=context, **kw
    )
    return sim.run(workload)


def _check(key, digest):
    assert digest == GOLDEN[key], key


class TestSimulatorGolden:
    @pytest.mark.parametrize("fw", FRAMEWORKS, ids=lambda fw: fw.name)
    def test_frameworks(self, chip, context, workload, fw):
        metrics = simulate(
            chip, context, workload, fw.make_manager(), fw.router
        )
        assert metrics.completed_count > 0
        _check(("sim", fw.name), metrics_digest(metrics))

    def test_fault_campaign(self, chip, context, workload):
        campaign = FaultCampaign.sample(
            chip, 1.5, 5, DEFAULT_FAULT_RATES.scaled(10.0)
        )
        metrics = simulate(
            chip, context, workload, ParmManager(), "panr", faults=campaign
        )
        assert metrics.remap_count > 0
        assert metrics.remap_retry_count > 0
        assert metrics.failed_count > 0
        _check(("sim", "faults"), metrics_digest(metrics))

    def test_reactive_migration(self, chip, context, workload):
        metrics = simulate(
            chip, context, workload, OrchestratorManager(), "xy",
            reactive_migration=ReactiveMigrationPolicy(),
        )
        assert metrics.reactive_move_count > 0
        _check(("sim", "reactive"), metrics_digest(metrics))

    def test_trace(self, chip, context, workload):
        metrics = simulate(
            chip, context, workload, ParmManager(), "panr",
            seed=11, record_trace=True,
        )
        assert len(metrics.trace) > len(workload)
        _check(("sim", "trace"), metrics_digest(metrics))


SERVICE_FAULTS = (
    ServiceFault(time_s=0.3, kind="tile_fail", target=21),
    ServiceFault(time_s=0.5, kind="sensor_dead", target=5),
    ServiceFault(time_s=0.7, kind="sensor_stuck", target=34, value_pct=9.0),
    ServiceFault(time_s=1.2, kind="tile_fail", target=44),
)


def service_config(faults=()):
    return ServiceConfig(
        framework="PARM+PANR",
        arrival=PoissonProcess(rate_hz=30.0),
        epochs=2,
        epoch_duration_s=1.0,
        root_seed=2,
        faults=faults,
    )


def service_totals(payload):
    totals = {}
    for row in payload["classes"].values():
        for name, count in row["counters"].items():
            totals[name] = totals.get(name, 0) + count
    return totals


class TestServiceGolden:
    @pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
    def test_traffic_json(self, tmp_path, faulty):
        config = service_config(SERVICE_FAULTS if faulty else ())
        payload = ServiceCampaign(config, str(tmp_path / "ckpt.json")).run()
        totals = service_totals(payload)
        if faulty:
            assert payload["totals"]["fault_count"] == len(SERVICE_FAULTS)
            assert totals["preempted"] > 0
        else:
            for counter in ("preempted", "shed", "readmitted", "failed"):
                assert totals[counter] > 0, counter
        digest = hashlib.sha256(traffic_json(payload).encode()).hexdigest()
        _check(("service", "faults" if faulty else "clean"), digest)
