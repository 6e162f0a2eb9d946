"""The WORKER_ROOTS registry must stay importable and complete.

Every entry is a dotted path to a callable that can legitimately run
inside a spawn worker; parmlint's worker-safety rule treats the tuple
as the root set for its reachability analysis, so a stale entry would
silently shrink the analyzed surface.
"""

import importlib

import pytest

from repro.perf.parallel import WORKER_ROOTS


def resolve(dotted):
    """Import the longest importable module prefix, then getattr down."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


class TestWorkerRoots:
    def test_registry_is_sorted_and_unique(self):
        assert list(WORKER_ROOTS) == sorted(set(WORKER_ROOTS))

    @pytest.mark.parametrize("dotted", WORKER_ROOTS)
    def test_every_entry_resolves_to_a_callable(self, dotted):
        assert callable(resolve(dotted))

    def test_pool_targets_are_registered(self):
        # The callables the perf layer actually ships to spawn workers.
        for required in (
            "repro.exp.routing_sweep.run_batch",
            "repro.exp.verify.sequential.run_replica_cell",
            "repro.perf.parallel._pool_run_cell",
        ):
            assert required in WORKER_ROOTS
