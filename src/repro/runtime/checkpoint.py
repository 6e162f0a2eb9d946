"""Checkpointing: the in-model cost model and on-disk campaign payloads.

Two related concerns live here:

* :class:`CheckpointPolicy` - the paper's checkpoint/rollback *cost
  model* (Sections 4.5, 5.1).  Applications are checkpointed
  periodically so that a voltage emergency (VE) can be corrected by
  rolling back to the last checkpoint.  The paper assumes a 1 ms
  checkpoint period with ~256 cycles of checkpointing overhead, and
  ~10000 cycles to restore state after an error.  A rollback
  additionally re-executes the work done since the last checkpoint -
  half a period in expectation.

* :func:`save_payload` / :func:`load_payload` - versioned, checksummed
  JSON envelopes for *our own* crash-safe state (campaign progress in
  :mod:`repro.harness.supervisor`).  Every payload is wrapped in an
  envelope carrying a schema name, an integer schema version, and a
  SHA-256 digest of the canonical payload encoding; loading a file that
  is unreadable, truncated, tampered with, or written by a different
  schema/version raises
  :class:`~repro.harness.errors.CheckpointCorrupt` instead of returning
  garbage.  Writes are atomic (temp file + ``os.replace``) so a SIGKILL
  mid-write never leaves a half-written checkpoint behind.

* :class:`CellCheckpoint` - the in-memory ``{key: record}`` cell map
  of a campaign checkpoint.  Each commit encodes only the new record
  and splices the cached per-record fragments into exactly the text
  :func:`dump_payload` would produce for the whole map, so a campaign
  of N cells encodes N records instead of N^2/2.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Mapping, Tuple

from repro.harness.errors import CheckpointCorrupt


@dataclass(frozen=True)
class CheckpointPolicy:
    """Costs of periodic checkpointing and VE-triggered rollbacks.

    Attributes:
        period_s: Checkpoint interval in seconds.
        checkpoint_cycles: Overhead of taking one checkpoint.
        rollback_cycles: Overhead of restoring state after an error.
    """

    period_s: float = 1e-3
    checkpoint_cycles: float = 256.0
    rollback_cycles: float = 10000.0

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.checkpoint_cycles < 0 or self.rollback_cycles < 0:
            raise ValueError("overheads must be non-negative")

    def execution_dilation(self, frequency_hz: float) -> float:
        """Multiplier on execution time from periodic checkpointing.

        One checkpoint of ``checkpoint_cycles`` is taken every period.
        """
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        overhead_s = self.checkpoint_cycles / frequency_hz
        return 1.0 + overhead_s / self.period_s

    def rollback_penalty_s(self, frequency_hz: float) -> float:
        """Wall-clock time lost to one voltage emergency.

        Restore overhead plus the expected half checkpoint period of
        re-executed work.
        """
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.rollback_cycles / frequency_hz + 0.5 * self.period_s


# ----------------------------------------------------------------------
# Versioned on-disk payloads
# ----------------------------------------------------------------------

#: Keys every checkpoint envelope must carry.
_ENVELOPE_KEYS = ("digest", "payload", "schema", "version")


def payload_digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload``.

    Canonical means sorted keys and minimal separators, so the digest is
    independent of formatting and insertion order.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dump_payload(payload: Any, schema: str, version: int) -> str:
    """Serialise ``payload`` into its versioned, checksummed envelope."""
    envelope = {
        "digest": payload_digest(payload),
        "payload": payload,
        "schema": schema,
        "version": int(version),
    }
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def save_payload(path: str, text: str) -> None:
    """Atomically write an encoded envelope (see :func:`dump_payload`).

    The text is written to ``<path>.tmp``, fsynced, and moved into place
    with ``os.replace``, so readers only ever see a complete file.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_payload(path: str, schema: str, version: int) -> Any:
    """Load and validate a payload written by :func:`save_payload`.

    Raises:
        CheckpointCorrupt: when the file is missing or unreadable, is
            not a JSON envelope, was written by a different schema or
            version, or its content digest does not match the payload.
    """

    def corrupt(reason: str, **context: Any) -> CheckpointCorrupt:
        return CheckpointCorrupt(
            f"checkpoint rejected: {reason}", path=path, **context
        )

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise corrupt("file unreadable", error=str(exc)) from exc
    if not text:
        raise corrupt("file is empty", size_b=0)
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        # A decode error at the end of the buffer is the signature of a
        # torn write (truncated envelope); one mid-file is tampering or
        # an overwrite.  An unterminated string also means the parser
        # consumed to EOF hunting for the closing quote - the reported
        # position is the string's *start*, so check the message too.
        truncated = exc.pos >= len(text.rstrip()) or exc.msg.startswith(
            "Unterminated string"
        )
        reason = "envelope truncated" if truncated else "not valid JSON"
        raise corrupt(
            reason,
            error=exc.msg,
            offset=exc.pos,
            line=exc.lineno,
            column=exc.colno,
            size_b=len(text.encode("utf-8")),
        ) from exc
    if not isinstance(envelope, dict):
        raise corrupt("envelope is not an object")
    missing = [key for key in _ENVELOPE_KEYS if key not in envelope]
    if missing:
        raise corrupt("envelope keys missing", missing=tuple(missing))
    if envelope["schema"] != schema:
        raise corrupt(
            "schema mismatch", expected=schema, found=envelope["schema"]
        )
    if envelope["version"] != int(version):
        raise corrupt(
            "version mismatch", expected=int(version),
            found=envelope["version"],
        )
    payload = envelope["payload"]
    digest = payload_digest(payload)
    if digest != envelope["digest"]:
        raise corrupt(
            "content digest mismatch", expected=envelope["digest"],
            computed=digest,
        )
    return payload


# ----------------------------------------------------------------------
# Campaign cell maps
# ----------------------------------------------------------------------

#: Depth of a cell record inside the envelope (envelope, payload,
#: cell map) and so the indentation of its lines in the file.
_CELL_PAD = "\n" + " " * 6


def _encode_record(record: Any) -> Tuple[str, str]:
    """``(compact, indented)`` encodings of one cell record.

    The compact one is the record's slice of :func:`payload_digest`'s
    canonical text, and raises ``ValueError`` on NaN or infinity.  The
    indented one is the record's slice of :func:`dump_payload`'s text:
    the stdlib encoder indents a nested value by its depth on every
    line, so padding each newline of the top-level encoding by the
    record's depth gives the same text.
    """
    compact = json.dumps(
        record, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    indented = json.dumps(record, sort_keys=True, indent=2)
    return compact, indented.replace("\n", _CELL_PAD)


class CellCheckpoint:
    """The ``{"cells": {key: record}}`` payload of one checkpoint file.

    The map lives in memory; :meth:`load` reads the file once, and
    :meth:`commit` encodes only the committed record.  The file it
    writes is byte-identical to ``dump_payload({"cells": cells})``: the
    cached per-record fragments are spliced in key order between the
    fixed envelope lines, and the digest is taken over the spliced
    compact text.

    Args:
        path: Checkpoint file.
        schema: Envelope schema name.
        version: Envelope schema version.
    """

    def __init__(self, path: str, schema: str, version: int) -> None:
        self._path = path
        self._schema = schema
        self._version = int(version)
        self._records: Dict[str, Any] = {}
        #: Cached ``(compact, indented)`` fragments; loaded records are
        #: encoded on their first splice.
        self._fragments: Dict[str, Tuple[str, str]] = {}

    @property
    def path(self) -> str:
        return self._path

    @property
    def records(self) -> Mapping[str, Any]:
        """Read-only view of the ``{key: record}`` map."""
        return MappingProxyType(self._records)

    def load(self) -> None:
        """Replace the map with the file's (validated) cell map.

        Raises:
            CheckpointCorrupt: when the file fails
                :func:`load_payload` or its payload has no cell map.
        """
        payload = load_payload(self._path, self._schema, self._version)
        if not isinstance(payload, dict) or not isinstance(
            payload.get("cells"), dict
        ):
            raise CheckpointCorrupt(
                "checkpoint rejected: campaign payload has no cell map",
                path=self._path,
            )
        self._records = dict(payload["cells"])
        self._fragments = {}

    def commit(self, key: str, record: Any) -> None:
        """Record ``record`` under ``key`` and rewrite the file.

        Raises:
            ValueError: when the record holds NaN or infinity; the map
                and the file are left as they were.
        """
        self._fragments[key] = _encode_record(record)
        self._records[key] = record
        save_payload(self._path, self.text())

    def text(self) -> str:
        """The envelope text of the current map, as :func:`dump_payload`
        would encode ``{"cells": map}``."""
        compact = []
        indented = []
        for key in sorted(self._records):
            fragments = self._fragments.get(key)
            if fragments is None:
                fragments = _encode_record(self._records[key])
                self._fragments[key] = fragments
            name = json.dumps(key)
            compact.append(f"{name}:{fragments[0]}")
            indented.append(f"{_CELL_PAD}{name}: {fragments[1]}")
        canonical = '{"cells":{' + ",".join(compact) + "}}"
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        cells = (
            "{" + ",".join(indented) + "\n    }" if indented else "{}"
        )
        return (
            "{\n"
            f'  "digest": "{digest}",\n'
            '  "payload": {\n'
            f'    "cells": {cells}\n'
            "  },\n"
            f"  \"schema\": {json.dumps(self._schema)},\n"
            f'  "version": {self._version}\n'
            "}\n"
        )
