"""Migration-based compaction cannot unblock a PARM queue head.

The paper's conclusion claims PARM avoids the software overhead of thread
migration.  Compaction - re-placing every running application on an
empty chip image so a blocked head can map - is the migration scheme in
question, and this property shows why PARM never needs it: PARM fills
whole free domains, so a re-placement keeps the free-domain count and
the power in use, and those two facts alone decide whether the head
maps.  ``plan_compaction`` below is the compaction planner, kept here as
the oracle.
"""

import numpy as np
import pytest

from repro.apps.suite import COMMUNICATION_BENCHMARKS, COMPUTE_BENCHMARKS, ProfileLibrary
from repro.chip import default_chip
from repro.core import ParmManager
from repro.core.mapping import psn_aware_mapping
from repro.runtime.state import ChipState

SEEDS = range(60)
_NAMES = tuple(dict.fromkeys(COMPUTE_BENCHMARKS + COMMUNICATION_BENCHMARKS))


@pytest.fixture(scope="module")
def chip():
    return default_chip()


@pytest.fixture(scope="module")
def library():
    return ProfileLibrary()


def plan_compaction(state, running):
    """Re-place ``{app_id: (profile, decision)}`` largest-first on an
    empty image of ``state``'s chip; ``None`` when some app does not fit."""
    trial = ChipState(state.chip, failed_tiles=state.failed_tiles())
    for aid in sorted(running, key=lambda a: (-running[a][1].dop, a)):
        profile, old = running[aid]
        new = psn_aware_mapping(profile, old.vdd, old.dop, trial)
        if new is None:
            return None
        trial.occupy(aid, new.task_to_tile, new.vdd, new.power_w)
    return trial


def seeded_state(chip, library, rng):
    """A chip whose apps, placed by PARM's mapping at seeded operating
    points, arrived and left in a seeded order, so their domains are
    scattered; plus the head that arrives next and its deadline."""
    state, running = ChipState(chip), {}
    for aid in range(int(rng.integers(6, 30))):
        if running and rng.random() < 0.3:
            gone = int(rng.choice(sorted(running)))
            state.release(gone)
            del running[gone]
            continue
        profile = library.get(str(rng.choice(_NAMES)))
        vdd = float(rng.choice(chip.vdd_ladder.levels))
        dop = int(rng.choice(profile.supported_dops[:4]))
        decision = psn_aware_mapping(profile, vdd, dop, state)
        if decision is not None:
            state.occupy(aid, decision.task_to_tile, decision.vdd, decision.power_w)
            running[aid] = (profile, decision)
    head = library.get(str(rng.choice(_NAMES)))
    return state, running, head, head.best_wcet_s * float(rng.uniform(1.0, 8.0))


def test_compaction_never_changes_whether_the_head_maps(chip, library):
    blocked = 0
    for seed in SEEDS:
        state, running, head, deadline_s = seeded_state(
            chip, library, np.random.default_rng(seed)
        )
        trial = plan_compaction(state, running)
        assert trial is not None, seed
        assert len(trial.free_domains()) == len(state.free_domains()), seed
        # Equal up to the order the powers were summed in.
        assert trial.used_power_w() == pytest.approx(state.used_power_w()), seed
        before = ParmManager().try_map(head, deadline_s, state) is None
        after = ParmManager().try_map(head, deadline_s, trial) is None
        assert before == after, seed
        blocked += before
    # The property is only worth stating if heads do block.
    assert blocked > 0
