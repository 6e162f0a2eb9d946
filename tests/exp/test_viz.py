"""Tests for the ASCII renderers."""

import pytest

from repro.apps.suite import ProfileLibrary
from repro.chip import default_chip
from repro.core import ParmManager
from repro.exp.viz import render_placement
from repro.runtime.state import ChipState


@pytest.fixture(scope="module")
def chip():
    return default_chip()


@pytest.fixture(scope="module")
def decision(chip):
    profile = ProfileLibrary().get("fft")
    return profile, ParmManager().try_map(profile, 100.0, ChipState(chip))


class TestPlacement:
    def test_grid_shape(self, chip, decision):
        profile, d = decision
        art = render_placement(chip, d, profile.graph(d.dop))
        lines = art.splitlines()
        assert len(lines) == chip.mesh.height
        assert all(len(l.split()) == chip.mesh.width for l in lines)

    def test_symbol_counts_match_bins(self, chip, decision):
        profile, d = decision
        graph = profile.graph(d.dop)
        art = render_placement(chip, d, graph)
        assert art.count("H") == len(graph.high_tasks())
        assert art.count("L") == graph.task_count - len(graph.high_tasks())
        assert art.count(".") == chip.tile_count - d.dop


class TestTimeline:
    def test_empty_trace(self):
        from repro.exp.viz import render_psn_timeline

        assert render_psn_timeline([]) == "(empty trace)"

    def test_timeline_shape_and_markers(self):
        from repro.exp.viz import render_psn_timeline

        trace = [(t / 10, 2.0 + 6.0 * (t == 5), 4) for t in range(11)]
        art = render_psn_timeline(trace, width=20)
        lines = art.splitlines()
        assert len(lines) == 9  # 8 levels + time axis
        assert "!" in art  # the 8% spike crosses the margin
        assert "#" in art
        assert lines[-1].strip().startswith("0s")

    def test_no_threshold(self):
        from repro.exp.viz import render_psn_timeline

        trace = [(0.0, 8.0, 1), (1.0, 8.0, 1)]
        art = render_psn_timeline(trace, threshold_pct=None)
        assert "!" not in art
