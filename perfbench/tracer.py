"""Span tracer that wraps named public functions of each layer.

The benchmark never edits the program: :class:`Tracer` resolves every
target by dotted path, replaces it with a timing wrapper for the
duration of one traced call, and restores the original afterwards.  A
target that no longer exists (a later change deleted the module, class
or function) is recorded as absent and the pass runs without it.

Every wrapper call records one span ``(id, parent, name, start, end)``.
A layer's self time is its span duration minus the time covered by its
direct child spans, so nested layers are never counted twice.  Spans
stay in memory and are written as JSONL when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A hook ``(counters, args, kwargs, result) -> None`` that adds the
#: layer's work counters (flows, lanes, bytes) for one call.
Observer = Callable[[Dict[str, float], tuple, dict, Any], None]


def _count_none(counters, args, kwargs, result) -> None:
    if result is None:
        counters["none"] = counters.get("none", 0) + 1


def _count_flows(counters, args, kwargs, result) -> None:
    flows = args[1] if len(args) > 1 else kwargs.get("flows", ())
    counters["flows"] = counters.get("flows", 0) + len(flows)


def _scalar_engine_work(counters, args, kwargs, result) -> None:
    cycles = args[2] if len(args) > 2 else kwargs["cycles"]
    counters["lane_cycles"] = counters.get("lane_cycles", 0) + int(cycles)
    counters["flits"] = counters.get("flits", 0) + int(result.flits_delivered)


def _batch_engine_work(counters, args, kwargs, result) -> None:
    cycles = args[2] if len(args) > 2 else kwargs["cycles"]
    counters["lane_cycles"] = counters.get("lane_cycles", 0) + int(
        cycles
    ) * len(result)
    counters["flits"] = counters.get("flits", 0) + sum(
        int(stats.flits_delivered) for stats in result
    )


def _file_bytes(counters, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    counters["bytes"] = counters.get("bytes", 0) + os.path.getsize(path)


#: (layer, dotted target, observer).  Two targets may feed one layer
#: (both resource managers are the core layer's ``try_map``).
TARGETS: Tuple[Tuple[str, str, Optional[Observer]], ...] = (
    ("core.try_map", "repro.core.selection.ParmManager.try_map", _count_none),
    ("core.try_map", "repro.core.hm.HarmonicManager.try_map", _count_none),
    (
        "noc.analytical.evaluate",
        "repro.noc.analytical.AnalyticalNocModel.evaluate",
        _count_flows,
    ),
    ("pdn.fast.chip_psn", "repro.pdn.fast.FastPsnModel.chip_psn", None),
    (
        "runtime.simulator.run",
        "repro.runtime.simulator.RuntimeSimulator.run",
        None,
    ),
    (
        "runtime.service.run_epoch",
        "repro.runtime.service.engine.ServiceEngine.run_epoch",
        None,
    ),
    (
        "runtime.checkpoint.save",
        "repro.runtime.checkpoint.save_payload",
        _file_bytes,
    ),
    (
        "runtime.checkpoint.load",
        "repro.runtime.checkpoint.load_payload",
        _file_bytes,
    ),
    ("noc.batch.run", "repro.noc.batch.BatchedNocEngine.run", _batch_engine_work),
    ("noc.engine.run", "repro.noc.engine.ArrayNocEngine.run", _scalar_engine_work),
    (
        "pdn.transient.analyze",
        "repro.pdn.transient.PsnTransientAnalysis.analyze",
        None,
    ),
    ("perf.pool.lease_pool", "repro.perf.pool.lease_pool", None),
    ("perf.parallel.run_cells", "repro.perf.parallel.run_cells", None),
    ("perf.parallel.map_tasks", "repro.perf.parallel.map_tasks", None),
)


def resolve(dotted: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, object)`` for a dotted path, or ``None``.

    The longest importable module prefix is imported; the rest is an
    attribute chain.  Anything missing resolves to ``None``.
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """Installs wrappers on :data:`TARGETS` and aggregates their spans."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, int, int, int]] = []
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.counters: Dict[str, Dict[str, float]] = {}
        self.absent: List[str] = []
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------

    def _stack(self) -> List[List[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             observer: Optional[Observer] = None) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1][0] if stack else 0
        frame = [span_id, 0]  # [id, ns covered by direct children]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            own = duration - frame[1]
            with self._lock:
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + own
                self.spans.append((span_id, parent, name, start, end, own))
        if observer is not None:
            observer(self.counters.setdefault(name, {}), args, kwargs, result)
        return result

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable target; record the rest as absent."""
        for layer, dotted, observer in TARGETS:
            found = resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attr, original = found
            wrapper = self._wrap(layer, original, observer)
            self._patch(owner, attr, original, wrapper)
            if not isinstance(owner, type):
                # Modules that imported the function by name hold their
                # own reference; rebind those too.
                for module in list(sys.modules.values()):
                    if module is owner:
                        continue
                    namespace = getattr(module, "__dict__", {})
                    for name, value in list(namespace.items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)

    def _wrap(self, layer: str, original: Callable,
              observer: Optional[Observer]) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.span(layer, original, args, kwargs, observer)

        return traced

    def _patch(self, owner: Any, attr: str, original: Any,
               replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path: str, trace_id: str) -> None:
        """Append this tracer's spans to ``path``, one JSON object a line."""
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, own in self.spans:
                handle.write(json.dumps({
                    "trace": trace_id,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "self_ns": own,
                }, separators=(",", ":")) + "\n")
