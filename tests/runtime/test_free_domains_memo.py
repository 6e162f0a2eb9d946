"""``ChipState.free_domains`` is memoised between mutations.

Every mutator (``occupy``, ``move_task``, ``fail_tile``, ``release``)
clears the memo, so after any of them the answer equals a fresh scan
of the tiles; and each call hands out its own list.
"""

import pytest

from repro.chip import default_chip
from repro.runtime.state import ChipState


def fresh_scan(state):
    """The free domains, derived from the public tile queries alone."""
    domains = state.chip.domains
    free = set(state.free_tiles())
    return [
        d
        for d in range(domains.domain_count)
        if all(t in free for t in domains.tiles_of(d))
    ]


@pytest.fixture
def state():
    return ChipState(default_chip())


def _tiles(state, domain):
    return state.chip.domains.tiles_of(domain)


def test_initial_answer_is_a_fresh_scan(state):
    assert state.free_domains() == fresh_scan(state) == list(range(15))


def test_state_built_with_failed_tiles():
    chip = default_chip()
    state = ChipState(chip, failed_tiles=[chip.domains.tiles_of(3)[2], 59])
    assert state.free_domains() == fresh_scan(state)
    assert 3 not in state.free_domains()
    assert chip.domains.domain_of(59) not in state.free_domains()


def test_occupy_clears_the_memo(state):
    state.free_domains()
    tiles = _tiles(state, 4)
    state.occupy(1, {0: tiles[0], 1: tiles[1]}, 0.5, 2.0)
    assert state.free_domains() == fresh_scan(state)
    assert 4 not in state.free_domains()


def test_move_task_clears_the_memo(state):
    src, dst = _tiles(state, 0), _tiles(state, 7)
    state.occupy(1, {0: src[0]}, 0.5, 2.0)
    assert 0 not in state.free_domains()
    state.move_task(1, 0, dst[0])
    assert state.free_domains() == fresh_scan(state)
    assert 0 in state.free_domains()
    assert 7 not in state.free_domains()


def test_fail_tile_clears_the_memo(state):
    state.free_domains()
    state.fail_tile(_tiles(state, 9)[3])
    assert state.free_domains() == fresh_scan(state)
    assert 9 not in state.free_domains()


def test_release_clears_the_memo(state):
    state.occupy(1, {t: tile for t, tile in enumerate(_tiles(state, 2))},
                 0.5, 2.0)
    assert 2 not in state.free_domains()
    state.release(1)
    assert state.free_domains() == fresh_scan(state)
    assert 2 in state.free_domains()


def test_rejected_mutations_keep_the_answer(state):
    state.occupy(1, {0: _tiles(state, 0)[0]}, 0.5, 2.0)
    before = state.free_domains()
    with pytest.raises(ValueError):
        state.occupy(2, {0: _tiles(state, 0)[0]}, 0.5, 2.0)
    with pytest.raises(ValueError):
        state.fail_tile(_tiles(state, 0)[0])
    with pytest.raises(ValueError):
        state.release(7)
    assert state.free_domains() == before == fresh_scan(state)


def test_mutating_the_returned_list_does_not_leak(state):
    first = state.free_domains()
    first.clear()
    second = state.free_domains()
    assert second == list(range(15))
    second.append(99)
    assert state.free_domains() == list(range(15))
    assert state.free_domains() is not state.free_domains()


def test_scans_once_between_mutations(state, monkeypatch):
    scans = []
    real = ChipState._scan_free_domains

    def counting(self):
        scans.append(1)
        return real(self)

    monkeypatch.setattr(ChipState, "_scan_free_domains", counting)
    for _ in range(5):
        state.free_domains()
    assert len(scans) == 1
    state.occupy(1, {0: _tiles(state, 1)[0]}, 0.5, 2.0)
    for _ in range(5):
        state.free_domains()
    assert len(scans) == 2
