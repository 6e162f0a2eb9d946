"""Golden digests of both runtime loops.

``RuntimeSimulator`` (the paper's Fig. 6-8 loop) and ``ServiceEngine``
(service mode) share their Vdd/DoP/mapping decisions, PSN evaluation,
execution estimate and retry budget, and differ by design in their
contention model, VE sampling and metrics sink.  These digests pin the
full output of each loop on runs that together take every path:

* the six evaluation frameworks on one mixed 20-app sequence;
* PARM+PANR under a sampled fault campaign that exhausts re-map
  retries (``remap_retry_count > 0``, at least one failed app);
* PARM+PANR with migration-based compaction enabled, and a
  whole-domain HM variant under which compaction actually fires (no
  shipped manager can be unblocked by compaction: PARM needs as many
  free domains as clusters and re-placement keeps that count, while HM
  and ORCH run every app at the top Vdd and need only free tiles);
* ORCH+XY with reactive hotspot migration;
* one run recording the per-event trace;
* an overloaded service (preemption, shedding, re-admission and
  retry-exhausted failures all non-zero), without and with a fault
  script.

A simulator digest hashes every ``AppRecord`` and ``RunMetrics``
field, trace included, floats as ``repr``; a service digest hashes the
campaign's traffic JSON.  The digests were generated before the loops'
shared decisions moved to single owners; a refactor must reproduce
them, never re-pin them.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.apps.suite import ProfileLibrary
from repro.apps.workload import WorkloadType, generate_workload
from repro.chip import default_chip
from repro.core import HarmonicManager, ParmManager
from repro.core.base import MappingDecision
from repro.core.orchestrator import OrchestratorManager
from repro.exp.frameworks import FRAMEWORKS
from repro.faults.campaign import DEFAULT_FAULT_RATES, FaultCampaign
from repro.noc.routing import make_routing
from repro.runtime.migration import MigrationPolicy, ReactiveMigrationPolicy
from repro.runtime.service.arrivals import PoissonProcess
from repro.runtime.service.campaign import ServiceCampaign, traffic_json
from repro.runtime.service.config import ServiceConfig, ServiceFault
from repro.runtime.simulator import RuntimeSimulator, SimulatorContext

GOLDEN = {
    ("sim", "HM+XY"): "d88c00d2a0d664c6dbf5c9a5dfb8b09b6d2b322a3ef9dcf8cea98d594997993b",
    ("sim", "HM+ICON"): "2a5bf65f911772aa5ad4affa1d161ea3a96b37a54ac93e7cabc128064c62f1be",
    ("sim", "HM+PANR"): "c5cfea1128b8ba8eb8355e2e217ea83ca3136939c7d029c72a0932d8710c42d3",
    ("sim", "PARM+XY"): "8af843d08700e299701e2f7988864ff06a312a4bb71078224c8116b327a05e75",
    ("sim", "PARM+ICON"): "2fe1746c3497520b1fdf21e40eb2b8ac0563b4c011368e0605c93692a9f7432a",
    ("sim", "PARM+PANR"): "0f255e64e9c4535b3dfb10578c36f38f927a72819cce72f1b33d3c3cb226834c",
    ("sim", "faults"): "b2d55dafd7d4b7741b82308605cf20f25aa4a32bc2394d6ac1b76ad49b141f76",
    # Compaction never fires under PARM, so this equals plain PARM+PANR.
    ("sim", "parm-compaction"): "0f255e64e9c4535b3dfb10578c36f38f927a72819cce72f1b33d3c3cb226834c",
    ("sim", "compaction"): "fe687e52d1443a9f03a07864986f9f76fde19839991e1006b419e05d371fe46c",
    ("sim", "reactive"): "3fc0d6ea3c286fb44c37df6702c5ace14e7a6e46c08b12e9dcb1582130c543a0",
    ("sim", "trace"): "be2039f1c161688639311a042bcda46bf5e47e692e0bb6c04c0089627b1aec1a",
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


class _WholeDomainHM(HarmonicManager):
    """HM scatter at 0.6 V that also asks for ``default_dop / 4`` whole
    free domains: below the top Vdd several apps fit the power budget,
    their scattered tiles fragment the domains, and compaction (which
    re-places every app into whole domains) unblocks the queue head."""

    vdd = 0.6

    def try_map(self, profile, deadline_s, state):
        dop = self.default_dop
        if profile.wcet_s(self.vdd, dop) >= deadline_s:
            return None
        power = profile.power_w(self.vdd, dop)
        if power > state.available_power_w():
            return None
        if len(state.free_domains()) < dop // 4:
            return None
        task_to_tile = self._scatter(profile.graph(dop), state, self.vdd)
        if task_to_tile is None:
            return None
        return MappingDecision(
            vdd=self.vdd, dop=dop, task_to_tile=task_to_tile, power_w=power
        )


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

    def test_parm_compaction_policy(self, chip, context, workload):
        metrics = simulate(
            chip, context, workload, ParmManager(), "panr",
            migration=MigrationPolicy(),
        )
        assert metrics.compaction_count == 0
        _check(("sim", "parm-compaction"), metrics_digest(metrics))

    def test_compaction_fires(self, chip, context, workload):
        metrics = simulate(
            chip, context, workload, _WholeDomainHM(), "panr",
            migration=MigrationPolicy(),
        )
        assert metrics.compaction_count > 0
        assert metrics.total_migrated_tasks > 0
        _check(("sim", "compaction"), metrics_digest(metrics))

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
