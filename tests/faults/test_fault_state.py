"""Tests for FaultState: applying and expiring faults."""

import pytest

from repro.chip import default_chip
from repro.faults import FaultEvent, FaultKind, FaultState, RecoveryPolicy
from repro.noc.topology import Direction
from repro.pdn.sensors import SensorNetwork


@pytest.fixture(scope="module")
def chip():
    return default_chip()


class TestFaultState:
    def test_link_fail_applies_and_expires(self, chip):
        fs = FaultState(chip)
        ev = FaultEvent(
            FaultKind.LINK_FAIL, 1.0, (4, Direction.EAST), duration_s=1.0
        )
        assert not fs.any_noc_faults
        fs.apply(ev)
        assert (4, Direction.EAST) in fs.dead_links
        assert fs.any_noc_faults
        fs.expire(ev)
        assert not fs.dead_links
        assert not fs.any_noc_faults

    def test_router_fail_kills_tile_too(self, chip):
        fs = FaultState(chip)
        ev = FaultEvent(FaultKind.ROUTER_FAIL, 0.5, 9)
        fs.apply(ev)
        assert 9 in fs.dead_routers
        assert 9 in fs.failed_tiles
        # Permanent: expire is a no-op.
        fs.expire(ev)
        assert 9 in fs.dead_routers

    def test_droop_accumulates_per_domain(self, chip):
        fs = FaultState(chip)
        ev = FaultEvent(
            FaultKind.VRM_DROOP, 0.0, 0, duration_s=1.0, magnitude=2.0
        )
        fs.apply(ev)
        fs.apply(ev)
        domain_tiles = chip.domains.tiles_of(0)
        for tile in domain_tiles:
            assert fs.droop_pct[tile] == pytest.approx(4.0)
        other = next(
            t for t in chip.mesh.tiles() if t not in set(domain_tiles)
        )
        assert fs.droop_pct[other] == 0.0
        fs.expire(ev)
        for tile in domain_tiles:
            assert fs.droop_pct[tile] == pytest.approx(2.0)
        fs.expire(ev)
        for tile in domain_tiles:
            assert fs.droop_pct[tile] == 0.0

    def test_sensor_fault_round_trip(self, chip):
        fs = FaultState(chip)
        net = SensorNetwork()
        ev = FaultEvent(FaultKind.SENSOR_STUCK, 2.0, 5, duration_s=1.0,
                        magnitude=7.0)
        fs.apply(ev, net)
        fault = net.fault(5)
        assert fault is not None
        assert fault.kind == "stuck"
        assert fault.value_pct == 7.0
        assert fault.since_s == 2.0
        fs.expire(ev, net)
        assert net.fault(5) is None

    def test_expiry_does_not_clear_newer_fault(self, chip):
        """A transient fault expiring must not clear a fault injected
        later on the same tile (last fault wins)."""
        fs = FaultState(chip)
        net = SensorNetwork()
        old = FaultEvent(FaultKind.SENSOR_STUCK, 1.0, 5, duration_s=2.0)
        new = FaultEvent(FaultKind.SENSOR_DEAD, 2.0, 5, duration_s=2.0)
        fs.apply(old, net)
        fs.apply(new, net)
        fs.expire(old, net)  # fires at t=3, after `new` replaced it
        fault = net.fault(5)
        assert fault is not None and fault.kind == "dead"

    def test_counts_applied_faults(self, chip):
        fs = FaultState(chip)
        fs.apply(FaultEvent(FaultKind.TILE_FAIL, 0.0, 1))
        fs.apply(FaultEvent(FaultKind.TILE_FAIL, 0.0, 2))
        assert fs.faults_applied == 2
        assert fs.failed_tiles == {1, 2}


class TestRecoveryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RecoveryPolicy(backoff_initial_s=0.1, backoff_factor=2.0)
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.8)
        with pytest.raises(ValueError):
            policy.backoff_s(-1)

    def test_retry_delay_budget(self):
        policy = RecoveryPolicy(
            max_remap_retries=2, backoff_initial_s=0.1, backoff_factor=2.0
        )
        assert policy.max_attempts == 3
        # No failed try yet: a deferred first try waits the initial
        # backoff; after k failed tries the wait is backoff_s(k - 1).
        assert policy.retry_delay_s(0) == policy.backoff_s(0)
        assert policy.retry_delay_s(1) == policy.backoff_s(0)
        assert policy.retry_delay_s(2) == policy.backoff_s(1)
        assert policy.retry_delay_s(3) is None
        assert policy.retry_delay_s(4) is None
        no_retries = RecoveryPolicy(max_remap_retries=0)
        assert no_retries.retry_delay_s(0) == no_retries.backoff_s(0)
        assert no_retries.retry_delay_s(1) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_remap_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(max_total_remaps=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_initial_s=0.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)
