"""Mapping reads chip facts that are computed once, not per attempt.

Over a service run, ``psn_aware_mapping`` is asked again and again on
an unchanged chip state; the free-domain scan runs at most once per
state change (once per built state, plus once per mutation), and
``place_clusters`` reads the domain distance table instead of calling
``DomainMap.domain_distance``.
"""

from collections import Counter

from repro.chip.domains import DomainMap
from repro.core import mapping, selection
from repro.runtime.service import campaign
from repro.runtime.service.arrivals import PoissonProcess
from repro.runtime.service.campaign import ServiceCampaign
from repro.runtime.service.config import ServiceConfig
from repro.runtime.state import ChipState

MUTATORS = ("occupy", "move_task", "fail_tile", "release")


def test_service_run_scans_free_domains_once_per_state_change(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(campaign, "_ENGINE_CACHE", {})
    states = []  # keeps every state alive, so the ids stay distinct
    scans = Counter()
    mutations = Counter()
    counts = Counter()

    real_init = ChipState.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        states.append(self)

    monkeypatch.setattr(ChipState, "__init__", init)

    real_scan = ChipState._scan_free_domains

    def scan(self):
        scans[id(self)] += 1
        return real_scan(self)

    monkeypatch.setattr(ChipState, "_scan_free_domains", scan)

    for name in MUTATORS:
        real = getattr(ChipState, name)

        def mutator(self, *args, _real=real, **kwargs):
            mutations[id(self)] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(ChipState, name, mutator)

    real_map = mapping.psn_aware_mapping

    def counting_map(*args, **kwargs):
        counts["psn_aware_mapping"] += 1
        return real_map(*args, **kwargs)

    monkeypatch.setattr(selection, "psn_aware_mapping", counting_map)

    real_distance = DomainMap.domain_distance

    def counting_distance(self, a, b):
        counts["domain_distance"] += 1
        return real_distance(self, a, b)

    monkeypatch.setattr(DomainMap, "domain_distance", counting_distance)

    config = ServiceConfig(
        framework="PARM+PANR",
        arrival=PoissonProcess(rate_hz=30.0),
        epochs=2,
        epoch_duration_s=1.0,
        root_seed=5,
    )
    ServiceCampaign(config, str(tmp_path / "ckpt.json")).run()

    assert states and sum(scans.values()) > 0
    for state in states:
        key = id(state)
        assert scans[key] <= mutations[key] + 1, (scans[key], mutations[key])
    # Mapping asked far more often than the state changed.
    assert counts["psn_aware_mapping"] > 2 * sum(scans.values())
    assert counts["domain_distance"] == 0
