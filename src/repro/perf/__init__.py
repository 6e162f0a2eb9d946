"""Performance layer: parallel execution and benchmarks.

Three pillars, all built so that *faster never changes the answer*:

* :mod:`repro.perf.parallel` - a deterministic spawn-context process
  pool that fans :class:`~repro.harness.supervisor.CampaignCell` runs
  across workers.  Cell outcomes depend only on the cell spec and
  policy, so results merged in campaign order are byte-identical to a
  serial run.
* :mod:`repro.perf.pool` - the warm worker pool behind ``parallel``,
  kept per worker count for the life of the process.
* :mod:`repro.perf.bench` - the pinned microbenchmark suite behind
  ``python -m repro bench`` (see ``docs/performance.md``).

Everything in this package is opt-in: the default serial code paths do
not import it, and it imports the rest of the code base one-way.
"""

__all__ = ["bench", "parallel", "pool"]
