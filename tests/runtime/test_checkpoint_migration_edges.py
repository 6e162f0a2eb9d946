"""Edge-case tests for checkpointing, migration and failed-tile state.

Covers the corners the fault-recovery path leans on: zero/invalid
checkpoint periods, migration when no feasible destination exists, and
the ChipState invariants around permanently failed tiles.
"""

import pytest

from repro.chip import default_chip
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.migration import ReactiveMigrationPolicy, pick_migration_target
from repro.runtime.state import ChipState


@pytest.fixture(scope="module")
def chip():
    return default_chip()


class TestCheckpointEdges:
    def test_zero_period_rejected(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(period_s=0.0)
        with pytest.raises(ValueError):
            CheckpointPolicy(period_s=-1e-3)

    def test_negative_overheads_rejected(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(checkpoint_cycles=-1.0)
        with pytest.raises(ValueError):
            CheckpointPolicy(rollback_cycles=-1.0)

    def test_dilation_formula_and_validation(self):
        policy = CheckpointPolicy(
            period_s=1e-3, checkpoint_cycles=256.0, rollback_cycles=10000.0
        )
        f = 1e9
        assert policy.execution_dilation(f) == pytest.approx(
            1.0 + (256.0 / f) / 1e-3
        )
        assert policy.rollback_penalty_s(f) == pytest.approx(
            10000.0 / f + 0.5e-3
        )
        with pytest.raises(ValueError):
            policy.execution_dilation(0.0)
        with pytest.raises(ValueError):
            policy.rollback_penalty_s(-1.0)

    def test_zero_overhead_checkpointing_is_free(self):
        policy = CheckpointPolicy(checkpoint_cycles=0.0, rollback_cycles=0.0)
        assert policy.execution_dilation(1e9) == 1.0
        # Only the half-period re-execution remains.
        assert policy.rollback_penalty_s(1e9) == pytest.approx(
            0.5 * policy.period_s
        )


class TestMigrationEdges:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ReactiveMigrationPolicy(trigger_pct=0.0)
        with pytest.raises(ValueError):
            ReactiveMigrationPolicy(max_moves=0)

    def test_target_on_idle_chip(self, chip):
        state = ChipState(chip)
        target = pick_migration_target(state, 0, 0.4)
        assert target is not None and target != 0
        # Prefers distance from the hotspot on an otherwise equal chip.
        assert chip.mesh.manhattan(target, 0) > 1

    def test_no_target_when_chip_full(self, chip):
        state = ChipState(chip)
        state.occupy(
            0,
            {i: t for i, t in enumerate(chip.mesh.tiles())},
            0.4,
            0.0,
        )
        assert pick_migration_target(state, 5, 0.4) is None

    def test_no_target_when_all_domains_vdd_incompatible(self, chip):
        """Free tiles exist but every partially occupied domain runs at
        another voltage, so a 0.4 V thread has nowhere to go."""
        state = ChipState(chip)
        state.occupy(
            0,
            {
                d: chip.domains.tiles_of(d)[0]
                for d in range(chip.domains.domain_count)
            },
            0.7,
            0.0,
        )
        assert pick_migration_target(state, 3, 0.4) is None

    def test_no_target_when_only_candidate_is_hot_tile(self, chip):
        """The hotspot itself is never a destination even when it is the
        only voltage-compatible free tile."""
        hot = 0
        hot_domain = chip.domains.domain_of(hot)
        state = ChipState(chip)
        # Fill the rest of the hot domain at the thread's Vdd and poison
        # every other domain with an incompatible voltage.
        others = [t for t in chip.domains.tiles_of(hot_domain) if t != hot]
        state.occupy(0, {i: t for i, t in enumerate(others)}, 0.4, 0.0)
        state.occupy(
            1,
            {
                d: chip.domains.tiles_of(d)[0]
                for d in range(chip.domains.domain_count)
                if d != hot_domain
            },
            0.7,
            0.0,
        )
        assert pick_migration_target(state, hot, 0.4) is None


class TestFailedTileState:
    def test_failed_tiles_excluded_from_queries(self, chip):
        dead = list(chip.domains.tiles_of(0))
        state = ChipState(chip, failed_tiles=dead)
        assert state.failed_tiles() == set(dead)
        assert all(t not in state.free_tiles() for t in dead)
        assert 0 not in state.free_domains()
        assert state.is_failed(dead[0])

    def test_cannot_occupy_or_move_to_failed_tile(self, chip):
        state = ChipState(chip, failed_tiles=[0])
        with pytest.raises(ValueError):
            state.occupy(0, {0: 0}, 0.4, 0.0)
        state.occupy(1, {0: 1}, 0.4, 0.0)
        with pytest.raises(ValueError):
            state.move_task(1, 0, 0)

    def test_fail_tile_requires_vacancy(self, chip):
        state = ChipState(chip)
        state.occupy(0, {0: 7}, 0.4, 0.0)
        with pytest.raises(ValueError):
            state.fail_tile(7)
        state.release(0)
        state.fail_tile(7)
        assert state.is_failed(7)

    def test_invalid_failed_tile_rejected(self, chip):
        with pytest.raises(Exception):
            ChipState(chip, failed_tiles=[chip.mesh.tile_count])
