"""Benchmark entry point for the PARM reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: it starts one fresh
interpreter per sample (``child.py --mode run``), each of which builds
the workload's inputs from ``--seed`` and makes one timed call to the
workload's public entry point, until ``--seconds`` have passed (at
least :data:`MIN_SAMPLES` samples).  It reports medians.

``--trace 1`` makes an untraced and a traced call, each in a fresh
interpreter (see :func:`trace_calls`), and reports the per-layer
breakdown, the unattributed remainder and the tracing overhead.  Spans
are written as JSONL under ``.perfbench_out/``.

Every run checks the outputs: the canonical result bytes must hash to
the digest pinned in ``pins.json`` for that seed (when one is pinned),
must repeat across samples, and, in a traced run, must agree between
the parallel and the in-process call.  The traced run's counts of
simulated behaviour must match the pinned ones, and all of its exact
counts must match those an earlier traced run of the same program
source, seed and worker count recorded under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from tracer import TARGETS
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")

#: Fewest timed samples a run takes, however short ``--seconds`` is.
MIN_SAMPLES = 2
#: Set-up samples per run (timed samples and the accuracy check count
#: towards it).
SETUP_SAMPLES = 5
#: Whole-run budget in seconds; a run must end within 180 s.
DEADLINE_S = 165.0

#: Layers whose calls and self time are reported, in table order.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
#: Layers read from the parallel call (the pool's parent side).
POOL_LAYERS = tuple(layer for layer in LAYERS if layer.startswith("perf."))
#: Layers whose flits make up ``noc.flits``.
ENGINE_LAYERS = ("noc.batch.run", "noc.engine.run")
SERVICE_COUNTERS = ("arrived", "admitted", "shed", "preempted")


class BenchError(Exception):
    """The benchmark itself could not run (not a program failure)."""


def workers_for_host() -> int:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return min(2, nproc)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _become_subreaper() -> None:
    """Adopt orphaned descendants (pool workers, resource tracker), so
    that :func:`_reap_descendants` can wait for every one of them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_descendants(pgid: int) -> None:
    """Stop whatever the child left behind and wait until it has ended."""
    deadline = time.monotonic() + 10.0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # nothing left to wait for
        if pid:
            continue
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + 10.0
        time.sleep(0.02)


def spawn(mode: str, workload: str, seed: int, workers: int, tmp: str,
          timeout_s: float, spans: Optional[str] = None) -> Dict[str, Any]:
    """Run ``child.py`` in a fresh interpreter and parse its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmp
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--workers", str(workers), "--tmp", tmp,
    ]
    if spans:
        cmd += ["--spans", spans]
    t0_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        cmd + ["--t0-ns", str(t0_ns)],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} sample of {workload} timed out")
    finally:
        _reap_descendants(proc.pid)
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} sample of {workload} exited with {proc.returncode}"
        )
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_sample(sample: Dict[str, Any], pin: Optional[Dict[str, Any]],
                 first: Optional[Dict[str, Any]]):
    """``(problems, mismatch)`` for one call's outputs.

    ``mismatch`` is true when the call raised, its digest or counts
    differ from the pinned ones or from the run's first good call, or
    its traced exact counts drifted (``sample["drift"]``).
    """
    if sample["error"] is not None:
        return ["entry point raised:\n" + sample["error"]], True
    problems = []
    if sample["failed"]:
        problems.append(f"{sample['failed']} unit(s) failed")
    if sample["leftover_segments"]:
        problems.append(
            f"{sample['leftover_segments']} shared-memory segment(s) leaked"
        )
    mismatch = bool(sample.get("drift"))
    problems += sample.get("drift", [])
    for ref, what in ((pin, "pinned"), (first, "first sample's")):
        if ref is None:
            continue
        for key in ("digest", "counts"):
            if sample[key] != ref[key]:
                mismatch = True
                problems.append(f"{key} {sample[key]} != {what} {ref[key]}")
    return problems, mismatch


def score(samples: List[Dict[str, Any]], pin: Optional[Dict[str, Any]]):
    """``(attempted, failed, problems)`` over a run's calls.

    A call that raised counts as one failed unit; a call whose digest,
    counts or traced exact counts mismatch counts every unit it
    attempted as failed.
    """
    attempted = failed = 0
    problems: List[str] = []
    first = next((s for s in samples if s["error"] is None), None)
    for sample in samples:
        found, mismatch = check_sample(sample, pin, first)
        units = sample.get("attempted", 1)
        attempted += units
        failed += units if mismatch else sample["failed"]
        problems += found
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, tmp: str,
            started: float) -> Dict[str, Any]:
    workers = workers_for_host()
    pin = load_pins().get(workload, {}).get(str(seed))
    samples: List[Dict[str, Any]] = []
    begin = time.monotonic()
    while len(samples) < MIN_SAMPLES or time.monotonic() - begin < seconds:
        left = DEADLINE_S - (time.monotonic() - started)
        if samples and left < 2.0 * max(s["wall_s"] for s in samples) + 5.0:
            break
        sample = spawn("run", workload, seed, workers, tmp, left)
        samples.append(sample)
        print(
            f"sample {len(samples)}: setup {sample['setup_s']:.3f} s  "
            f"wall {sample['wall_s']:.3f} s  cpu {sample['cpu_s']:.3f} s  "
            f"rss {sample['peak_rss_mb']:.1f} MiB  "
            f"digest {str(sample.get('digest'))[:16]}",
            flush=True,
        )
    setup = [s["setup_s"] for s in samples]
    if workload == "psn":
        errs = {s.get("fast_psn_err_pct") for s in samples}
    else:
        # The other workloads do not validate fast PSN themselves; one
        # untimed validation at its defaults gives them the figure.
        left = DEADLINE_S - (time.monotonic() - started)
        check = spawn("accuracy", workload, seed, workers, tmp, left)
        setup.append(check["setup_s"])
        errs = {check["fast_psn_err_pct"]}
    while len(setup) < SETUP_SAMPLES:
        left = DEADLINE_S - (time.monotonic() - started)
        setup.append(spawn("setup", workload, seed, workers, tmp, left)["setup_s"])
    attempted, failed, problems = score(samples, pin)
    if len(errs) != 1 or None in errs:
        problems.append(f"fast-PSN error is not deterministic: {errs}")
        errs = {float("nan")}
    for problem in problems:
        print(f"CHECK FAILED: {problem}", flush=True)

    def median(key):
        return statistics.median(s[key] for s in samples)

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (median("wall_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "fast_psn_err_pct": (errs.pop(), "pp"),
    }
    print(
        f"{workload}: {len(samples)} samples, {len(setup)} set-ups, "
        f"seed {seed}, pinned {pin is not None}"
    )
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "host": samples[0]["host"],
    }


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------


def layer_metrics(calls: Dict[str, Dict[str, Any]]) -> Dict[str, tuple]:
    """Per-layer metrics from the calls of :func:`trace_calls`.

    Model layers come from the traced in-process call, where every call
    is visible; the pool layers come from the traced parallel call when
    there is one.
    """
    inproc = calls["inprocess"]
    pool = calls.get("parallel", inproc)
    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        src = pool if layer in POOL_LAYERS else inproc
        metrics[f"{layer}.calls"] = (src["calls"].get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (src["self_s"].get(layer, 0.0), "s")
    counters = inproc["counters"]

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    try_map = counters.get("core.try_map", {})
    metrics["core.try_map.none_frac"] = (ratio(
        try_map.get("none", 0), metrics["core.try_map.calls"][0]), "frac")
    flows = counters.get("noc.analytical.evaluate", {}).get("flows", 0)
    metrics["noc.analytical.evaluate.us_per_flow"] = (ratio(
        metrics["noc.analytical.evaluate.self_s"][0], flows, 1e6), "us")
    for layer in ("noc.batch.run", "noc.engine.run"):
        work = counters.get(layer, {})
        metrics[f"{layer}.ns_per_lane_cycle"] = (ratio(
            metrics[f"{layer}.self_s"][0], work.get("lane_cycles", 0), 1e9),
            "ns")
        metrics[f"{layer}.flits"] = (work.get("flits", 0), "count")
    metrics["noc.flits"] = (sum(
        metrics[f"{layer}.flits"][0] for layer in ENGINE_LAYERS), "count")
    for op in ("save", "load"):
        layer = f"runtime.checkpoint.{op}"
        metrics[f"{layer}.bytes"] = (
            counters.get(layer, {}).get("bytes", 0), "B")
    service = inproc.get("counts", {})
    for key in SERVICE_COUNTERS:
        metrics[f"runtime.service.{key}"] = (service.get(key, 0), "count")
    metrics["perf.pool.spawned"] = (
        pool["pool_delta"].get("created", 0), "count")
    metrics["perf.pool.rebuilds"] = (
        pool["pool_delta"].get("broken_rebuilds", 0), "count")

    untraced = calls["untraced"]["wall_s"]
    metrics["trace.wall_s"] = (inproc["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (inproc["wall_s"] - untraced, "s")
    metrics["trace.unattributed_s"] = (
        inproc["wall_s"] - sum(inproc["self_s"].values()), "s")
    metrics["trace.spans"] = (inproc["spans"], "count")
    metrics["trace.parallel_wall_s"] = (
        calls["parallel"]["wall_s"] if "parallel" in calls else 0.0, "s")
    metrics["units.completed"] = (
        inproc.get("attempted", 0) - inproc.get("failed", 0), "count")
    return metrics


def simulated_counts(metrics: Dict[str, tuple],
                     absent: List[str]) -> Dict[str, int]:
    """The exact counts of simulated behaviour: service counters,
    completed units, flits delivered by the NoC engines together, and
    transient solves.  They are pinned across program versions, so a
    change in one means the simulation changed.  A count whose targets
    are all absent is left out, so deleting a layer is not a drift.
    """
    present = {layer for layer, dotted, _ in TARGETS if dotted not in absent}
    names = ["units.completed"]
    names += [f"runtime.service.{key}" for key in SERVICE_COUNTERS]
    if present & set(ENGINE_LAYERS):
        names.append("noc.flits")
    if "pdn.transient.analyze" in present:
        names.append("pdn.transient.analyze.calls")
    return {name: metrics[name][0] for name in sorted(names)}


def all_counts(metrics: Dict[str, tuple]) -> Dict[str, int]:
    """Every exact count of a traced run, call counts, checkpoint bytes
    and pool counts included.  These repeat on every run of one program
    version, seed and worker count, but a change that keeps the outputs
    identical may move them."""
    return {
        name: value for name, (value, unit) in sorted(metrics.items())
        if unit in ("count", "B") and name != "trace.spans"
    }


def source_digest() -> str:
    """SHA-256 over the program's Python sources (paths and bytes)."""
    sha = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                sha.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()


def count_drift(workload: str, seed: int, metrics: Dict[str, tuple],
                absent: List[str], pin: Optional[Dict[str, Any]]) -> List[str]:
    """Problems with the traced run's exact counts.

    The simulated counts are compared with the pinned ones.  All counts
    are compared with those the first traced run of this program source,
    seed and worker count recorded under ``.perfbench_out/``.
    """
    problems = []
    counts = simulated_counts(metrics, absent)
    pinned = (pin or {}).get("trace_counts", {})
    drift = sorted(k for k in counts if k in pinned and counts[k] != pinned[k])
    if drift:
        problems.append("simulated counts drifted from the pins: " + ", ".join(
            f"{k} {counts[k]} != {pinned[k]}" for k in drift))
    counts = all_counts(metrics)
    record = os.path.join(OUT_DIR, f"counts-{source_digest()[:16]}-{workload}"
                          f"-seed{seed}-w{workers_for_host()}.json")
    if not os.path.exists(record):
        with open(record, "w", encoding="utf-8") as handle:
            json.dump(counts, handle, sort_keys=True, indent=1)
        return problems
    with open(record, encoding="utf-8") as handle:
        recorded = json.load(handle)
    drift = sorted(k for k in set(counts) | set(recorded)
                   if counts.get(k) != recorded.get(k))
    if drift:
        problems.append("exact counts differ from an earlier run of this "
                        f"source: {drift}")
    return problems


def print_table(workload: str, metrics: Dict[str, tuple],
                absent: List[str]) -> None:
    wall = metrics["trace.wall_s"][0]
    print(f"per-layer breakdown of {workload} "
          f"(traced in-process call, {wall:.3f} s)")
    print(f"{'layer':32s} {'calls':>9s} {'self s':>9s} {'share':>7s}")
    parallel_wall = metrics["trace.parallel_wall_s"][0]
    for layer in LAYERS:
        calls = metrics[f"{layer}.calls"][0]
        own = metrics[f"{layer}.self_s"][0]
        if not calls:
            continue
        share, where = own / wall, ""
        if layer in POOL_LAYERS and parallel_wall:
            share = own / parallel_wall
            where = f" of the parallel call ({parallel_wall:.3f} s)"
        print(f"{layer:32s} {calls:9d} {own:9.3f} {100 * share:6.1f}%{where}")
    rest = metrics["trace.unattributed_s"][0]
    print(f"{'unattributed':32s} {'':9s} {rest:9.3f} {100 * rest / wall:6.1f}%")
    print(f"tracing overhead: {metrics['trace.overhead_s'][0]:+.3f} s "
          f"(traced {wall:.3f} s - untraced "
          f"{metrics['trace.untraced_wall_s'][0]:.3f} s, in-process)")
    for dotted in absent:
        print(f"absent target: {dotted}")


def trace_calls(workload: str, seed: int, tmp: str, started: float,
                spans: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
    """The calls of a traced run, each in its own fresh interpreter.

    ``untraced`` and ``inprocess`` (traced) run at ``workers=1``, so
    their difference is the tracing overhead and every layer call is
    visible to the wrappers.  A workload that uses workers is traced a
    second time at ``min(2, nproc)`` workers (``parallel``): that call
    shows the pool's parent side, and its digest must equal the
    in-process one.
    """
    def left():
        return DEADLINE_S - (time.monotonic() - started)

    calls = {
        "untraced": spawn("run", workload, seed, 1, tmp, left()),
        "inprocess": spawn("trace", workload, seed, 1, tmp, left(), spans),
    }
    workers = workers_for_host()
    if WORKLOADS[workload].uses_workers and workers > 1:
        calls["parallel"] = spawn(
            "trace", workload, seed, workers, tmp, left(), spans)
    return calls


def trace(workload: str, seed: int, tmp: str, started: float) -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.jsonl")
    if os.path.exists(spans):
        os.remove(spans)
    calls = trace_calls(workload, seed, tmp, started, spans)
    pin = load_pins().get(workload, {}).get(str(seed))
    metrics = layer_metrics(calls)
    absent = calls["inprocess"]["absent"]
    calls["inprocess"]["drift"] = count_drift(
        workload, seed, metrics, absent, pin)
    attempted, failed, problems = score(list(calls.values()), pin)
    print_table(workload, metrics, absent)
    print(f"spans written to {os.path.relpath(spans, ROOT)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", flush=True)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "host": calls["inprocess"]["host"],
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(
        description="PARM reproduction benchmark (see perfbench/README.md)"
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    _become_subreaper()
    tmp = os.path.join(TMP_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.trace:
            report = trace(args.workload, args.seed, tmp, started)
        else:
            report = measure(args.workload, args.seed, args.seconds, tmp,
                             started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    host = dict(report.pop("host"), workers=workers_for_host())
    print("host: " + ", ".join(f"{k} {v}" for k, v in sorted(host.items())))
    report["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in report["metrics"].items()
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump(dict(report, host=host), handle, sort_keys=True, indent=1)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
