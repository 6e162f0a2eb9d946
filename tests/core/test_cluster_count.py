"""Algorithm 2's clustering runs once per (profile, DoP) per process.

PARM's mapping reads the clusters from ``ApplicationProfile.clusters``;
only the activity-blind ablation still calls ``cluster_tasks`` itself,
because its clusters differ from the profile's.
"""

from collections import Counter

import pytest

from repro.apps.profiles import ApplicationProfile
from repro.apps.suite import ProfileLibrary
from repro.chip import default_chip
from repro.core import clustering
from repro.exp import ablations
from repro.runtime.service import campaign
from repro.runtime.service.arrivals import PoissonProcess
from repro.runtime.service.campaign import ServiceCampaign
from repro.runtime.service.config import ServiceConfig
from repro.runtime.state import ChipState


@pytest.fixture
def counted(monkeypatch):
    """Count ``cluster_tasks`` runs per graph; keeps the graphs alive so
    their ids stay distinct."""
    runs = Counter()
    graphs = {}
    real = clustering.cluster_tasks

    def counting(graph, activity_aware=True):
        runs[id(graph), activity_aware] += 1
        graphs[id(graph)] = graph
        return real(graph, activity_aware)

    monkeypatch.setattr(clustering, "cluster_tasks", counting)
    monkeypatch.setattr(ablations, "cluster_tasks", counting)
    return runs


def test_service_run_clusters_each_profile_dop_once(tmp_path, monkeypatch, counted):
    # A fresh engine (and so a fresh profile library) for this process.
    monkeypatch.setattr(campaign, "_ENGINE_CACHE", {})
    reads = Counter()
    real_clusters = ApplicationProfile.clusters

    def counting_clusters(self, dop):
        reads[self.name, dop] += 1
        return real_clusters(self, dop)

    monkeypatch.setattr(ApplicationProfile, "clusters", counting_clusters)
    config = ServiceConfig(
        framework="PARM+PANR",
        arrival=PoissonProcess(rate_hz=30.0),
        epochs=2,
        epoch_duration_s=1.0,
        root_seed=5,
    )
    ServiceCampaign(config, str(tmp_path / "ckpt.json")).run()

    assert counted, "the service run never mapped"
    assert all(aware for _, aware in counted)
    # Once per distinct (profile, DoP): one run per graph, and exactly
    # as many runs as (profile, DoP) pairs the mapping asked for.
    assert set(counted.values()) == {1}
    assert len(counted) == len(reads)
    # The mapping asked again and again; only the first ask clustered.
    assert sum(reads.values()) > 5 * len(reads)


def test_profile_clusters_are_computed_once(counted):
    profile = ProfileLibrary().get("fft")
    first = profile.clusters(16)
    assert isinstance(first, tuple)
    assert profile.clusters(16) is first
    assert first == tuple(clustering.cluster_tasks(profile.graph(16)))
    # One run for the profile's cache, one for the comparison above.
    assert sorted(counted.values()) == [2]


def test_activity_blind_ablation_clusters_directly(counted):
    profile = ProfileLibrary().get("fft")
    state = ChipState(default_chip())
    manager = ablations.ActivityBlindParm()
    for _ in range(2):
        assert manager.try_map(profile, 100.0, state) is not None
    assert list(counted.values()) == [2]
    ((_, aware),) = counted
    assert aware is False
