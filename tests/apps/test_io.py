"""Tests for profile JSON persistence."""

import json

import pytest

from repro.apps.io import (
    FORMAT_VERSION,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)
from repro.apps.profiles import build_profile
from repro.apps.suite import benchmark


@pytest.fixture(scope="module")
def profile():
    return build_profile(benchmark("fft"), dops=(4, 8), vdds=(0.4, 0.8))


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self, profile):
        data = profile_to_dict(profile, "7nm")
        loaded = profile_from_dict(data)
        assert loaded.name == profile.name
        assert loaded.kind == profile.kind
        assert loaded.supported_dops == profile.supported_dops
        assert loaded.supported_vdds == profile.supported_vdds
        for vdd in profile.supported_vdds:
            for dop in profile.supported_dops:
                assert loaded.wcet_s(vdd, dop) == profile.wcet_s(vdd, dop)
                assert loaded.power_w(vdd, dop) == profile.power_w(vdd, dop)

    def test_graphs_round_trip(self, profile):
        loaded = profile_from_dict(profile_to_dict(profile, "7nm"))
        for dop in profile.supported_dops:
            original = profile.graph(dop)
            restored = loaded.graph(dop)
            assert restored.task_count == original.task_count
            assert restored.edges() == original.edges()
            for t in original.tasks():
                r = restored.task(t.task_id)
                assert r.activity_bin == t.activity_bin
                assert r.work_cycles == t.work_cycles
                assert r.activity_factor == t.activity_factor

    def test_file_round_trip(self, profile, tmp_path):
        path = tmp_path / "fft.json"
        save_profile(profile, str(path))
        loaded = load_profile(str(path))
        assert loaded.wcet_s(0.8, 8) == profile.wcet_s(0.8, 8)
        # The file is plain JSON.
        assert json.loads(path.read_text())["spec"]["name"] == "fft"

    def test_loaded_profile_drives_the_manager(self, profile, tmp_path):
        from repro.chip import default_chip
        from repro.core import ParmManager
        from repro.runtime.state import ChipState

        path = tmp_path / "fft.json"
        save_profile(profile, str(path))
        loaded = load_profile(str(path))
        decision = ParmManager().try_map(
            loaded, 100.0, ChipState(default_chip())
        )
        assert decision is not None
        assert decision.dop in (4, 8)


class TestValidation:
    def test_bad_version_rejected(self, profile):
        data = profile_to_dict(profile, "7nm")
        data["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format version"):
            profile_from_dict(data)

    def test_unknown_tech_rejected_on_save(self, profile):
        with pytest.raises(KeyError):
            profile_to_dict(profile, "3nm")
