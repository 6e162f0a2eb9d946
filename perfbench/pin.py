"""Regenerate ``pins.json``: the output digests and exact counts that
every benchmark run is checked against.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py

For every workload and for seeds 0 to :data:`HELD_OUT_SEED` it records
the SHA-256 of the canonical result bytes and the result's exact
counts.  For :data:`TRACE_SEEDS` it also records the traced run's
counts of simulated behaviour (:func:`run.simulated_counts`), after
checking that the parallel and in-process calls produce the same
digest.  Re-pin
only on a commit whose outputs are known to be right: a change that
keeps results byte-identical never needs to.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run

#: Seed the benchmark defaults to, and the held-out seed that tuning
#: the benchmark never used.
DEFAULT_SEED = 1
HELD_OUT_SEED = 12
SEEDS = range(0, HELD_OUT_SEED + 1)
TRACE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)


def main() -> int:
    run._become_subreaper()
    pins = {}
    tmp = os.path.join(run.TMP_ROOT, f"pin-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    workers = run.workers_for_host()
    try:
        for workload in run.WORKLOADS:
            entry = pins.setdefault(workload, {})
            for seed in SEEDS:
                sample = run.spawn("run", workload, seed, workers, tmp, 600.0)
                problems, _ = run.check_sample(sample, None, None)
                if problems:
                    print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                pin = {"digest": sample["digest"], "counts": sample["counts"]}
                if seed in TRACE_SEEDS:
                    calls = run.trace_calls(workload, seed, tmp,
                                            time.monotonic())
                    _, _, problems = run.score(list(calls.values()), pin)
                    if problems:
                        print(f"{workload} seed {seed}: {problems}",
                              file=sys.stderr)
                        return 1
                    pin["trace_counts"] = run.simulated_counts(
                        run.layer_metrics(calls),
                        calls["inprocess"]["absent"])
                entry[str(seed)] = pin
                print(f"{workload} seed {seed}: {pin['digest'][:16]} "
                      f"{pin['counts']}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
