"""One benchmark process: set up a workload, run it, report one JSON line.

``run.py`` starts this file in a fresh interpreter for every sample, so
import time, lazy caches, pool spawn and peak memory of one sample never
leak into the next.  Modes:

``setup``     import the entry point and build the inputs, nothing more;
``run``       set up, then make one timed call to the entry point;
``trace``     the same call with every layer target wrapped in spans;
``accuracy``  the fast-PSN validation at its defaults (untimed).

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback
from typing import Any, Dict, Optional

import numpy

from tracer import Tracer, resolve
from workloads import WORKLOADS, digest, fast_psn_err_pct


def _shutdown_pool() -> None:
    """Stop the warm worker pool if the program still has one.

    Worker CPU time and peak RSS are only visible to ``getrusage`` once
    the workers have been reaped.
    """
    found = resolve("repro.perf.pool.shutdown_pool")
    if found is not None:
        found[2]()


def _pool_stats() -> Dict[str, int]:
    found = resolve("repro.perf.pool.pool_stats")
    return dict(found[2]()) if found is not None else {}


def _leftover_segments() -> int:
    """Shared-memory segments this process published and did not unlink."""
    try:
        return len(glob.glob(f"/dev/shm/parm-{os.getpid()}-*"))
    except OSError:
        return 0


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (MiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def _timed_call(workload, inputs, workers, tmp_dir) -> Dict[str, Any]:
    """One call of the entry point with its result summary."""
    pool0 = _pool_stats()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    error: Optional[str] = None
    result = None
    try:
        result = workload.call(inputs, workers, tmp_dir)
    except Exception:  # a failing program is a measured outcome
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    _shutdown_pool()
    out: Dict[str, Any] = {
        "wall_s": wall,
        "cpu_s": _cpu_s() - cpu0,
        "error": error,
        "leftover_segments": _leftover_segments(),
        "pool_delta": {
            k: v - pool0.get(k, 0) for k, v in _pool_stats().items()
        },
    }
    if error is None:
        attempted, failed = workload.units(result)
        out.update(
            digest=digest(workload.canonical(result)),
            attempted=attempted,
            failed=failed,
            counts=workload.counts(result),
        )
    out["result"] = result
    return out


def _traced_call(workload, inputs, workers, tmp_dir, label, spans_path):
    """A traced call: per-layer calls, self time and counters."""
    tracer = Tracer()
    tracer.install()
    try:
        box = _timed_call(workload, inputs, workers, tmp_dir)
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.write_jsonl(spans_path, label)
    box.pop("result")
    box.update(
        calls=tracer.calls,
        self_s={k: v / 1e9 for k, v in tracer.self_ns.items()},
        counters=tracer.counters,
        absent=tracer.absent,
        spans=len(tracer.spans),
    )
    return box


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "accuracy", "trace"))
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--t0-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC at the parent's spawn")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }

    if args.mode == "run":
        out.update(_timed_call(workload, inputs, args.workers, args.tmp))
        result = out.pop("result")
        out["peak_rss_mb"] = _peak_rss_mb()
        if workload.name == "psn" and out["error"] is None:
            out["fast_psn_err_pct"] = fast_psn_err_pct(result)
    elif args.mode == "accuracy":
        out["fast_psn_err_pct"] = fast_psn_err_pct()
    elif args.mode == "trace":
        out.update(_traced_call(
            workload, inputs, args.workers, args.tmp,
            f"{workload.name}/seed{args.seed}/workers{args.workers}",
            args.spans,
        ))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
