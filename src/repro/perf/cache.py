"""Content-hashed on-disk cache for calibration artifacts.

Fitting the fast-PSN :class:`~repro.pdn.fast.KernelLadder` pair against
the MNA transient solver (:func:`repro.pdn.calibrate.fit_kernels`) runs
hundreds of transient solves and dominates any workflow that
recalibrates - sweeps over technology nodes, solver comparisons, CI
validation.  This module memoises the *fit result* on disk, keyed by a
SHA-256 over everything that can change it:

* the full technology-node parameter set (every electrical field);
* :data:`repro.pdn.circuit.SOLVER_VERSION` - bumped whenever the MNA
  solver's numerics change, so stale fits can never survive a solver
  change;
* the sampling configuration (``vdds``, ``n_random``, ``seed``,
  ``window_s``, ``dt_s``) and the ``kappa2`` grid;
* this cache's own schema version.

A hit deserialises the fitted ladders and skips the transient solves
entirely; the restored :class:`~repro.pdn.calibrate.CalibrationResult`
carries ``samples=()`` (the corpus is deliberately not persisted - it
is large and only the fit is reused).  Cache files are written through
:func:`repro.runtime.checkpoint.save_payload` (checksummed, atomically
replaced), and an unreadable or corrupt entry is treated as a miss and
refitted, never trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional, Sequence

from repro.chip.technology import TechnologyNode, technology
from repro.harness.errors import CheckpointCorrupt
from repro.pdn.circuit import SOLVER_VERSION
from repro.pdn.fast import KernelLadder, PsnKernel
from repro.pdn.waveforms import ActivityBin
from repro.runtime.checkpoint import (
    dump_payload,
    load_payload,
    save_payload,
)

#: Schema name / version of one cached calibration entry.
CACHE_SCHEMA = "parm-calibration-cache"
CACHE_VERSION = 1

#: Default cache directory (override per call or with REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = os.path.join(".parm-cache", "calibration")

#: ``generate_samples`` defaults, frozen into the key so that calling
#: with explicit defaults and calling with no overrides hash the same.
_SAMPLE_DEFAULTS: Dict[str, Any] = {
    "vdds": (0.4, 0.6, 0.8),
    "n_random": 8,
    "seed": 2018,
    "window_s": 200e-9,
    "dt_s": 50e-12,
}

_BIN_TAG = {ActivityBin.HIGH: "high", ActivityBin.LOW: "low"}
_TAG_BIN = {tag: bin_ for bin_, tag in _BIN_TAG.items()}


def calibration_key(
    tech: TechnologyNode,
    kappa2_grid: Sequence[float],
    sample_kwargs: Optional[Dict[str, Any]] = None,
) -> str:
    """Content hash identifying one calibration configuration."""
    resolved = dict(_SAMPLE_DEFAULTS)
    resolved.update(sample_kwargs or {})
    unknown = set(resolved) - set(_SAMPLE_DEFAULTS)
    if unknown:
        raise ValueError(
            f"unknown sample kwargs for calibration key: {sorted(unknown)}"
        )
    spec = {
        "schema": CACHE_SCHEMA,
        "cache_version": CACHE_VERSION,
        "solver_version": SOLVER_VERSION,
        "tech": {
            k: (v if isinstance(v, str) else float(v))
            for k, v in dataclasses.asdict(tech).items()
        },
        "kappa2_grid": [float(k) for k in kappa2_grid],
        "samples": {
            "vdds": [float(v) for v in resolved["vdds"]],
            "n_random": int(resolved["n_random"]),
            "seed": int(resolved["seed"]),
            "window_s": float(resolved["window_s"]),
            "dt_s": float(resolved["dt_s"]),
        },
    }
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


def _kernel_to_json(kernel: PsnKernel) -> Dict[str, Any]:
    return {
        "z_own": {_BIN_TAG[b]: float(z) for b, z in kernel.z_own.items()},
        "z_cross": {
            f"{_BIN_TAG[a]}-{_BIN_TAG[b]}": float(z)
            for (a, b), z in kernel.z_cross.items()
        },
        "z_own_router": float(kernel.z_own_router),
        "z_cross_router": float(kernel.z_cross_router),
        "kappa2": float(kernel.kappa2),
    }


def _kernel_from_json(record: Dict[str, Any]) -> PsnKernel:
    z_cross = {}
    for pair, z in record["z_cross"].items():
        a, b = pair.split("-")
        z_cross[(_TAG_BIN[a], _TAG_BIN[b])] = float(z)
    return PsnKernel(
        z_own={_TAG_BIN[t]: float(z) for t, z in record["z_own"].items()},
        z_cross=z_cross,
        z_own_router=float(record["z_own_router"]),
        z_cross_router=float(record["z_cross_router"]),
        kappa2=float(record["kappa2"]),
    )


def _ladder_to_json(ladder: KernelLadder) -> Dict[str, Any]:
    # JSON keys must be strings; repr() round-trips floats exactly.
    return {
        repr(float(vdd)): _kernel_to_json(kernel)
        for vdd, kernel in ladder.kernels.items()
    }


def _ladder_from_json(record: Dict[str, Any]) -> Dict[float, PsnKernel]:
    return {
        float(vdd): _kernel_from_json(kernel)
        for vdd, kernel in record.items()
    }


def cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"fit_{key}.json")


def cached_fit_kernels(
    tech: Optional[TechnologyNode] = None,
    cache_dir: Optional[str] = None,
    kappa2_grid: Sequence[float] = (0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0),
    **sample_kwargs: Any,
):
    """:func:`~repro.pdn.calibrate.fit_kernels`, memoised on disk.

    Args:
        tech: Technology node (defaults to 7 nm, like ``fit_kernels``).
        cache_dir: Cache directory; defaults to ``$REPRO_CACHE_DIR`` or
            :data:`DEFAULT_CACHE_DIR`.
        kappa2_grid: 2-hop coupling grid, part of the cache key.
        **sample_kwargs: Forwarded to
            :func:`~repro.pdn.calibrate.generate_samples`; part of the
            cache key.

    Returns:
        A :class:`~repro.pdn.calibrate.CalibrationResult`.  On a hit
        ``result.samples`` is empty (the corpus is not persisted); the
        fitted ladders and RMS diagnostics are bit-identical to the
        stored fit.
    """
    from repro.pdn.calibrate import CalibrationResult, fit_kernels

    tech = tech or technology("7nm")
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    key = calibration_key(tech, kappa2_grid, sample_kwargs)
    path = cache_path(cache_dir, key)

    if os.path.exists(path):
        try:
            payload = load_payload(
                path, schema=CACHE_SCHEMA, version=CACHE_VERSION
            )
            ladders = KernelLadder(
                _ladder_from_json(payload["peak_kernels"])
            ), KernelLadder(_ladder_from_json(payload["avg_kernels"]))
            return CalibrationResult(
                peak_kernels=ladders[0],
                avg_kernels=ladders[1],
                peak_rms_error_pct=float(payload["peak_rms_error_pct"]),
                avg_rms_error_pct=float(payload["avg_rms_error_pct"]),
                samples=(),
            )
        except (  # parmlint: ok[silent-except] - corrupt entry == miss
            CheckpointCorrupt, KeyError, TypeError, ValueError,
        ):
            # A damaged or stale entry is a miss, never an error: fall
            # through to a fresh fit which overwrites it atomically.
            pass

    result = fit_kernels(
        tech=tech, kappa2_grid=kappa2_grid, **sample_kwargs
    )
    os.makedirs(cache_dir, exist_ok=True)
    payload = {
        "key": key,
        "solver_version": SOLVER_VERSION,
        "tech": tech.name,
        "peak_kernels": _ladder_to_json(result.peak_kernels),
        "avg_kernels": _ladder_to_json(result.avg_kernels),
        "peak_rms_error_pct": float(result.peak_rms_error_pct),
        "avg_rms_error_pct": float(result.avg_rms_error_pct),
    }
    save_payload(
        path,
        dump_payload(payload, schema=CACHE_SCHEMA, version=CACHE_VERSION),
    )
    return result
