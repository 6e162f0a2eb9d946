"""Byte identity of the spliced cell-map checkpoint.

:class:`~repro.runtime.checkpoint.CellCheckpoint` encodes each record
once and splices the cached fragments; after every commit the file
must equal ``dump_payload({"cells": cells})`` exactly, for the service
epochs and for supervised campaigns at any worker count.
"""

import math

import pytest

import repro.runtime.checkpoint as checkpoint_module
from repro.harness.supervisor import (
    CAMPAIGN_SCHEMA,
    CAMPAIGN_VERSION,
    CampaignCell,
    CampaignSupervisor,
)
from repro.runtime.checkpoint import CellCheckpoint, dump_payload
from repro.runtime.service.arrivals import PoissonProcess
from repro.runtime.service.campaign import ServiceCampaign, traffic_json
from repro.runtime.service.config import ServiceConfig

EPOCHS = 4


def toy_runner(cell):
    """Module-level (picklable) campaign cell runner."""
    return {
        "key": cell.key,
        "label": cell.label,
        "total_time_s": 1.0 + cell.arrival_interval_s,
    }


def toy_cells():
    return [
        CampaignCell(
            framework=fw,
            workload="mixed",
            arrival_interval_s=interval,
            n_apps=2,
            seeds=(1,),
        )
        for fw in ("HM+XY", "PARM+PANR")
        for interval in (0.2, 0.1, 0.05)
    ]


def service_config():
    return ServiceConfig(
        framework="PARM+PANR",
        workload="mixed",
        arrival=PoissonProcess(rate_hz=20.0),
        epoch_duration_s=0.5,
        epochs=EPOCHS,
        root_seed=3,
    )


def expected_text(checkpoint):
    return dump_payload(
        {"cells": dict(checkpoint.records)}, CAMPAIGN_SCHEMA, CAMPAIGN_VERSION
    )


def read_text(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture
def checked_commits(monkeypatch):
    """Patch ``CellCheckpoint.commit`` to compare the file with
    ``dump_payload`` after every commit; returns the commit log."""
    original = CellCheckpoint.commit
    commits = []

    def checked(checkpoint, key, record):
        original(checkpoint, key, record)
        assert read_text(checkpoint.path) == expected_text(checkpoint)
        commits.append(key)

    monkeypatch.setattr(CellCheckpoint, "commit", checked)
    return commits


def count_calls(monkeypatch, **names):
    """Count calls of checkpoint-module functions: ``counter=name``."""
    counts = dict.fromkeys(names, 0)
    for counter, name in names.items():
        original = getattr(checkpoint_module, name)

        def wrapper(*args, _original=original, _counter=counter, **kwargs):
            counts[_counter] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(checkpoint_module, name, wrapper)
    return counts


class TestServiceIdentity:
    def test_every_epoch_matches_dump_payload(self, tmp_path, checked_commits):
        ServiceCampaign(service_config(), str(tmp_path / "cp.json")).run()
        assert len(checked_commits) == EPOCHS

    def test_fresh_run_encodes_each_record_once(self, tmp_path, monkeypatch):
        counts = count_calls(
            monkeypatch,
            encode="_encode_record",
            load="load_payload",
            save="save_payload",
        )
        ServiceCampaign(service_config(), str(tmp_path / "cp.json")).run()
        assert counts == {"encode": EPOCHS, "load": 0, "save": EPOCHS}

    def test_resume_loads_once_and_matches_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        config = service_config()
        ref_path = str(tmp_path / "ref.json")
        reference = traffic_json(ServiceCampaign(config, ref_path).run())

        path = str(tmp_path / "cp.json")
        original = CellCheckpoint.commit

        def crashing_commit(checkpoint, key, record):
            if len(checkpoint.records) >= 2:
                raise RuntimeError("injected crash")
            original(checkpoint, key, record)

        monkeypatch.setattr(CellCheckpoint, "commit", crashing_commit)
        with pytest.raises(RuntimeError, match="injected"):
            ServiceCampaign(config, path).run()
        monkeypatch.undo()

        counts = count_calls(
            monkeypatch, encode="_encode_record", load="load_payload"
        )
        resumed = traffic_json(
            ServiceCampaign(config, path).run(resume=True)
        )
        assert counts == {"encode": EPOCHS, "load": 1}
        assert resumed == reference
        assert read_text(path) == read_text(ref_path)


class TestCampaignIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_cell_matches_dump_payload(
        self, tmp_path, checked_commits, workers
    ):
        CampaignSupervisor(
            toy_cells(),
            str(tmp_path / "cp.json"),
            cell_runner=toy_runner,
            workers=workers,
        ).run()
        assert sorted(checked_commits) == sorted(c.key for c in toy_cells())


#: Records that stress the splice: nested empties, non-ASCII text,
#: escaped newlines, and keys committed out of sorted order.
ODD_RECORDS = {
    "zz": {"b": [], "a": {}, "c": [{}, [], [[]]], "d": {"y": {}, "x": []}},
    "aé中": {"text": "café   \U0001f600", "n": None},
    "mm": {"lines": "one\ntwo\r\n", "quote": '"\\', "t": True, "f": 1e-300},
    "b": {},
    "aa": [],
    "0": {"z": 1, "A": 2, "_": [3, {"k": "v"}], "neg": -0.0, "big": 10**20},
}


class TestSplice:
    def test_empty_map_matches_dump_payload(self, tmp_path):
        checkpoint = CellCheckpoint(
            str(tmp_path / "cp.json"), CAMPAIGN_SCHEMA, CAMPAIGN_VERSION
        )
        assert checkpoint.text() == expected_text(checkpoint)

    def test_odd_records_match_dump_payload(self, tmp_path):
        path = str(tmp_path / "cp.json")
        checkpoint = CellCheckpoint(path, CAMPAIGN_SCHEMA, CAMPAIGN_VERSION)
        for key, record in ODD_RECORDS.items():
            checkpoint.commit(key, record)
            assert read_text(path) == expected_text(checkpoint)
        # Overwriting a record re-encodes only that record.
        checkpoint.commit("b", {"now": ["filled"]})
        assert read_text(path) == expected_text(checkpoint)

    def test_loaded_map_splices_identically(self, tmp_path):
        path = str(tmp_path / "cp.json")
        writer = CellCheckpoint(path, CAMPAIGN_SCHEMA, CAMPAIGN_VERSION)
        for key, record in ODD_RECORDS.items():
            writer.commit(key, record)
        reader = CellCheckpoint(path, CAMPAIGN_SCHEMA, CAMPAIGN_VERSION)
        reader.load()
        assert dict(reader.records) == dict(writer.records)
        reader.commit("new", {"x": 1})
        assert read_text(path) == expected_text(reader)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_record_raises_before_writing(self, tmp_path, bad):
        path = str(tmp_path / "cp.json")
        checkpoint = CellCheckpoint(path, CAMPAIGN_SCHEMA, CAMPAIGN_VERSION)
        checkpoint.commit("good", {"x": 1.5})
        before = read_text(path)
        with pytest.raises(ValueError):
            checkpoint.commit("bad", {"nested": [{"x": bad}]})
        assert read_text(path) == before
        assert "bad" not in checkpoint.records
        with pytest.raises(ValueError):
            checkpoint.commit("good", {"x": bad})
        assert checkpoint.records["good"] == {"x": 1.5}
        checkpoint.commit("next", {"y": 2})
        assert read_text(path) == expected_text(checkpoint)
