"""Tests for the chip occupancy state."""

import pytest

from repro.chip import default_chip
from repro.runtime.state import ChipState


@pytest.fixture
def state():
    return ChipState(default_chip())


class TestQueries:
    def test_initially_all_free(self, state):
        assert len(state.free_tiles()) == 60
        assert len(state.free_domains()) == 15
        assert state.used_power_w() == 0.0
        assert state.available_power_w() == pytest.approx(65.0)
        assert state.occupant(0) is None
        assert state.domain_vdd(0) is None


class TestOccupy:
    def test_basic_occupy_release(self, state):
        state.occupy(1, {0: 0, 1: 1, 2: 2, 3: 3}, 0.4, 5.0)
        assert state.occupant(0).app_id == 1
        assert state.occupant(0).task_id == 0
        assert state.occupant(0).vdd == 0.4
        assert 0 not in state.free_tiles()
        assert state.used_power_w() == pytest.approx(5.0)
        assert state.domain_vdd(0) == pytest.approx(0.4)
        assert state.tiles_of_app(1) == {0: 0, 1: 1, 2: 2, 3: 3}
        state.release(1)
        assert len(state.free_tiles()) == 60
        assert state.domain_vdd(0) is None
        assert state.used_power_w() == 0.0

    def test_occupied_tiles_ascending(self, state):
        assert state.occupied_tiles() == []
        state.occupy(1, {0: 33, 1: 2, 2: 12}, 0.6, 3.0)
        state.occupy(2, {0: 50, 1: 0}, 0.6, 2.0)
        assert state.occupied_tiles() == [0, 2, 12, 33, 50]
        state.move_task(1, 0, 40)
        assert state.occupied_tiles() == [0, 2, 12, 40, 50]
        state.release(2)
        assert state.occupied_tiles() == [2, 12, 40]

    def test_free_domains_requires_all_four_tiles(self, state):
        state.occupy(1, {0: 0}, 0.4, 1.0)
        assert 0 not in state.free_domains()
        assert len(state.free_domains()) == 14

    def test_double_occupy_tile_rejected(self, state):
        state.occupy(1, {0: 5}, 0.4, 1.0)
        with pytest.raises(ValueError, match="occupied"):
            state.occupy(2, {0: 5}, 0.4, 1.0)

    def test_duplicate_app_rejected(self, state):
        state.occupy(1, {0: 5}, 0.4, 1.0)
        with pytest.raises(ValueError, match="already placed"):
            state.occupy(1, {0: 6}, 0.4, 1.0)

    def test_two_tasks_one_tile_rejected(self, state):
        with pytest.raises(ValueError, match="one tile"):
            state.occupy(1, {0: 5, 1: 5}, 0.4, 1.0)

    def test_domain_voltage_conflict_rejected(self, state):
        state.occupy(1, {0: 0}, 0.4, 1.0)
        # Tile 1 is in domain 0, which now runs at 0.4 V.
        with pytest.raises(ValueError, match="domain"):
            state.occupy(2, {0: 1}, 0.8, 1.0)
        # Same voltage is fine (HM shares domains at nominal Vdd).
        state.occupy(3, {0: 1}, 0.4, 1.0)

    def test_power_budget_enforced(self, state):
        with pytest.raises(ValueError, match="budget"):
            state.occupy(1, {0: 0}, 0.4, 66.0)
        state.occupy(1, {0: 0}, 0.4, 60.0)
        with pytest.raises(ValueError, match="budget"):
            state.occupy(2, {0: 1}, 0.4, 6.0)

    def test_release_unknown_app_rejected(self, state):
        with pytest.raises(ValueError, match="not placed"):
            state.release(42)

    def test_release_frees_domain_only_when_empty(self, state):
        state.occupy(1, {0: 0}, 0.4, 1.0)
        state.occupy(2, {0: 1}, 0.4, 1.0)
        state.release(1)
        assert state.domain_vdd(0) == pytest.approx(0.4)  # app 2 remains
        state.release(2)
        assert state.domain_vdd(0) is None
