"""Tests for the chip-level transient PSN audit."""

import numpy as np
import pytest

from repro.apps.suite import ProfileLibrary
from repro.chip import default_chip
from repro.core import HarmonicManager, ParmManager
from repro.pdn.audit import audit_mappings
from repro.runtime.state import ChipState


def audit_mapping(chip, decision, graph, router_flits_per_cycle=None, **window):
    """Audit one mapping as a batch of its own."""
    (audit,) = audit_mappings(
        chip, [(decision, graph, router_flits_per_cycle)], **window
    )
    return audit


@pytest.fixture(scope="module")
def chip():
    return default_chip()


@pytest.fixture(scope="module")
def parm_audit(chip):
    profile = ProfileLibrary().get("blackscholes")
    decision = ParmManager().try_map(profile, 100.0, ChipState(chip))
    graph = profile.graph(decision.dop)
    audit = audit_mapping(
        chip, decision, graph, window_s=200e-9, dt_s=100e-12
    )
    return decision, audit


class TestAudit:
    def test_only_occupied_domains_have_noise(self, chip, parm_audit):
        decision, audit = parm_audit
        occupied_domains = {chip.domains.domain_of(t) for t in decision.tiles}
        for tile in chip.mesh.tiles():
            if chip.domains.domain_of(tile) in occupied_domains:
                continue
            assert audit.peak_psn_pct[tile] == 0.0
            assert audit.avg_psn_pct[tile] == 0.0

    def test_occupied_tiles_have_noise(self, parm_audit):
        decision, audit = parm_audit
        for tile in decision.tiles:
            assert audit.peak_psn_pct[tile] > 0.5
            assert audit.avg_psn_pct[tile] > 0.0
            assert audit.avg_psn_pct[tile] <= audit.peak_psn_pct[tile]

    def test_fast_model_tracks_transient_on_real_mapping(self, parm_audit):
        """The runtime's fast kernel must stay within ~2.5 PSN points of
        the ground truth on mappings PARM actually produces."""
        _, audit = parm_audit
        assert audit.fast_model_peak_error_pct < 2.5

    def test_hm_mapping_noisier_than_parm(self, chip, parm_audit):
        _, parm = parm_audit
        profile = ProfileLibrary().get("blackscholes")
        decision = HarmonicManager().try_map(profile, 100.0, ChipState(chip))
        graph = profile.graph(decision.dop)
        hm = audit_mapping(chip, decision, graph, window_s=200e-9, dt_s=100e-12)
        assert hm.chip_peak_pct > 1.5 * parm.chip_peak_pct

    def test_router_rate_shape_validated(self, chip):
        profile = ProfileLibrary().get("blackscholes")
        decision = ParmManager().try_map(profile, 100.0, ChipState(chip))
        graph = profile.graph(decision.dop)
        with pytest.raises(ValueError, match="router rates"):
            audit_mapping(chip, decision, graph, router_flits_per_cycle=[1.0])

    def test_router_traffic_raises_noise(self, chip):
        profile = ProfileLibrary().get("blackscholes")
        decision = ParmManager().try_map(profile, 100.0, ChipState(chip))
        graph = profile.graph(decision.dop)
        quiet = audit_mapping(
            chip, decision, graph, window_s=200e-9, dt_s=100e-12
        )
        rates = np.zeros(chip.tile_count)
        for tile in decision.tiles:
            rates[tile] = 2.0
        loud = audit_mapping(
            chip,
            decision,
            graph,
            router_flits_per_cycle=rates,
            window_s=200e-9,
            dt_s=100e-12,
        )
        assert loud.chip_peak_pct > quiet.chip_peak_pct


class TestIdleDomainTraffic:
    def test_traffic_through_idle_domains_is_audited(self, chip):
        import numpy as np

        profile = ProfileLibrary().get("blackscholes")
        decision = ParmManager().try_map(profile, 100.0, ChipState(chip))
        graph = profile.graph(decision.dop)
        occupied = {chip.domains.domain_of(t) for t in decision.tiles}
        idle_domain = next(
            d for d in range(chip.domain_count) if d not in occupied
        )
        rates = np.zeros(chip.tile_count)
        for t in chip.domains.tiles_of(idle_domain):
            rates[t] = 2.0
        audit = audit_mapping(
            chip,
            decision,
            graph,
            router_flits_per_cycle=rates,
            window_s=200e-9,
            dt_s=100e-12,
        )
        for t in chip.domains.tiles_of(idle_domain):
            assert audit.peak_psn_pct[t] > 0.0


class TestBatchedAudits:
    def test_one_batch_matches_one_batch_per_mapping(self, chip):
        profile = ProfileLibrary().get("blackscholes")
        graphs = []
        for manager in (ParmManager(), HarmonicManager()):
            decision = manager.try_map(profile, 100.0, ChipState(chip))
            graphs.append((decision, profile.graph(decision.dop)))
        rates = np.zeros(chip.tile_count)
        rates[graphs[0][0].tiles[0]] = 2.0
        mappings = [
            (graphs[0][0], graphs[0][1], rates),
            (graphs[1][0], graphs[1][1], None),
            (graphs[0][0], graphs[0][1], None),
        ]
        window = dict(window_s=50e-9, dt_s=100e-12)
        batched = audit_mappings(chip, mappings, **window)
        for mapping, audit in zip(mappings, batched):
            alone = audit_mapping(chip, *mapping, **window)
            for field in ("peak_psn_pct", "avg_psn_pct", "fast_peak_psn_pct"):
                assert getattr(audit, field).tobytes() == getattr(alone, field).tobytes()
