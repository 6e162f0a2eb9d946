"""Tests for the versioned, checksummed checkpoint payload envelope."""

import json
import os

import pytest

from repro.harness.errors import CheckpointCorrupt
from repro.runtime.checkpoint import (
    dump_payload,
    load_payload,
    payload_digest,
    save_payload,
)

SCHEMA = "test-schema"
VERSION = 3


def save(path, payload, schema=SCHEMA, version=VERSION):
    save_payload(path, dump_payload(payload, schema, version))


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "cp.json")


class TestDigest:
    def test_insertion_order_independent(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )

    def test_content_sensitive(self):
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})


class TestRoundTrip:
    def test_save_load(self, path):
        payload = {"cells": {"abc": {"status": "completed"}}, "n": 4}
        save(path, payload)
        assert load_payload(path, schema=SCHEMA, version=VERSION) == payload

    def test_no_tmp_file_left_behind(self, path):
        save(path, {"x": 1})
        assert not os.path.exists(path + ".tmp")

    def test_envelope_carries_all_keys(self, path):
        save(path, {"x": 1})
        with open(path) as handle:
            envelope = json.load(handle)
        assert set(envelope) == {"digest", "payload", "schema", "version"}
        assert envelope["schema"] == SCHEMA
        assert envelope["version"] == VERSION

    def test_dump_is_deterministic(self):
        a = dump_payload({"b": 2, "a": 1}, SCHEMA, VERSION)
        b = dump_payload({"a": 1, "b": 2}, SCHEMA, VERSION)
        assert a == b


class TestCorruption:
    def _expect_corrupt(self, path, match):
        with pytest.raises(CheckpointCorrupt, match=match):
            load_payload(path, schema=SCHEMA, version=VERSION)

    def test_missing_file(self, path):
        self._expect_corrupt(path, "unreadable")

    def test_not_json(self, path):
        with open(path, "w") as handle:
            handle.write("not json {")
        self._expect_corrupt(path, "not valid JSON")

    def test_zero_byte_file(self, path):
        with open(path, "w"):
            pass
        with pytest.raises(CheckpointCorrupt, match="file is empty") as exc:
            load_payload(path, schema=SCHEMA, version=VERSION)
        assert exc.value.context["size_b"] == 0

    @pytest.mark.parametrize("keep_fraction", [0.25, 0.5, 0.9])
    def test_truncated_envelope(self, path, keep_fraction):
        # A torn write: the file ends mid-envelope.  The error must name
        # the truncation and carry the decode offset for forensics.
        save(path, {"x": 1})
        with open(path) as handle:
            text = handle.read()
        kept = text[: max(1, int(len(text) * keep_fraction))]
        with open(path, "w") as handle:
            handle.write(kept)
        with pytest.raises(
            CheckpointCorrupt, match="envelope truncated"
        ) as exc:
            load_payload(path, schema=SCHEMA, version=VERSION)
        context = exc.value.context
        assert context["size_b"] == len(kept.encode("utf-8"))
        assert 0 <= context["offset"] <= len(kept)
        assert context["line"] >= 1 and context["column"] >= 1

    def test_mid_file_garbage_is_not_truncation(self, path):
        # Corruption in the middle of the file is reported as invalid
        # JSON, not as a torn write.
        save(path, {"x": 1})
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text.replace('"payload"', "@payload@", 1))
        with pytest.raises(
            CheckpointCorrupt, match="not valid JSON"
        ) as exc:
            load_payload(path, schema=SCHEMA, version=VERSION)
        assert exc.value.context["offset"] < len(text)

    def test_non_object_envelope(self, path):
        with open(path, "w") as handle:
            json.dump([1, 2, 3], handle)
        self._expect_corrupt(path, "not an object")

    def test_missing_envelope_keys(self, path):
        with open(path, "w") as handle:
            json.dump({"payload": {}, "schema": SCHEMA}, handle)
        self._expect_corrupt(path, "keys missing")

    def test_schema_mismatch(self, path):
        save(path, {"x": 1}, schema="other-schema")
        self._expect_corrupt(path, "schema mismatch")

    def test_version_mismatch(self, path):
        save(path, {"x": 1}, version=VERSION + 1)
        self._expect_corrupt(path, "version mismatch")

    def test_tampered_payload_fails_digest(self, path):
        save(path, {"x": 1})
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["payload"]["x"] = 999
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        self._expect_corrupt(path, "digest mismatch")

    def test_error_context_names_path(self, path):
        with pytest.raises(CheckpointCorrupt) as excinfo:
            load_payload(path, schema=SCHEMA, version=VERSION)
        assert excinfo.value.context["path"] == path
