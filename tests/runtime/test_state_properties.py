"""Property-based tests: ChipState invariants under random workloads."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chip import default_chip
from repro.runtime.state import ChipState


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 40))
def test_state_invariants_under_random_operations(seed, steps):
    """Random occupy/release sequences must preserve:

    * every tile has at most one occupant and free+occupied == all tiles;
    * used power equals the sum of the placed apps' powers and never
      exceeds the budget;
    * each occupied domain carries exactly one voltage;
    * releasing everything restores the pristine state.
    """
    chip = default_chip()
    state = ChipState(chip)
    rng = np.random.default_rng(seed)
    placed = {}  # app_id -> (tiles, power)
    next_app = 0

    for _ in range(steps):
        if placed and rng.uniform() < 0.4:
            app_id = int(rng.choice(sorted(placed)))
            state.release(app_id)
            del placed[app_id]
            continue
        free = state.free_tiles()
        if not free:
            continue
        n = int(rng.integers(1, min(8, len(free)) + 1))
        tiles = list(rng.choice(free, size=n, replace=False))
        vdd = float(rng.choice([0.4, 0.6, 0.8]))
        # Respect the one-Vdd-per-domain rule up front.
        domains = chip.domains
        if any(
            state.domain_vdd(domains.domain_of(t)) not in (None, vdd)
            for t in tiles
        ):
            continue
        power = float(rng.uniform(0.1, 4.0))
        if power > state.available_power_w():
            continue
        task_to_tile = {i: int(t) for i, t in enumerate(tiles)}
        state.occupy(next_app, task_to_tile, vdd, power)
        placed[next_app] = (set(task_to_tile.values()), power)
        next_app += 1

        # --- invariants ------------------------------------------------
        occupied = {
            t for tiles_, _ in placed.values() for t in tiles_
        }
        assert set(state.free_tiles()) == (
            set(chip.mesh.tiles()) - occupied
        )
        assert state.used_power_w() == pytest.approx(
            sum(p for _, p in placed.values())
        )
        assert state.used_power_w() <= chip.dark_silicon_budget_w + 1e-9
        for d in range(chip.domain_count):
            vdds = {
                state.occupant(t).vdd
                for t in chip.domains.tiles_of(d)
                if state.occupant(t) is not None
            }
            assert len(vdds) <= 1
            if vdds:
                assert state.domain_vdd(d) == vdds.pop()

    for app_id in sorted(placed):
        state.release(app_id)
    assert len(state.free_tiles()) == chip.tile_count
    assert state.used_power_w() == 0.0
    assert state.occupied_tiles() == []
