"""Fit the fast PSN kernel against the MNA transient solver.

The fast model (:mod:`repro.pdn.fast`) is linear in the per-tile mean
currents with bin-dependent effective impedances.  This module generates a
corpus of domain configurations (single tiles, 1-hop and 2-hop pairs of
every bin combination, and random full domains), runs the transient
analysis on each, and solves the resulting least-squares problem for the
impedance constants - once for peak PSN and once for average PSN.  The
2-hop coupling discount ``kappa2`` is chosen by a small grid search.

Run ``python -m repro.pdn.calibrate`` to regenerate the constants frozen
into :mod:`repro.pdn.fast`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chip.dvfs import alpha_power_frequency
from repro.chip.power import PowerModel
from repro.chip.technology import TechnologyNode, technology
from repro.pdn.fast import DOMAIN_DISTANCES, KernelLadder, PsnKernel
from repro.pdn.transient import PsnTransientAnalysis
from repro.pdn.waveforms import ActivityBin, TileLoad

#: Order of the unknown impedances in the least-squares system.
_UNKNOWNS = (
    "z_own_high",
    "z_own_low",
    "z_hh",
    "z_hl",
    "z_lh",
    "z_ll",
    "z_own_router",
    "z_cross_router",
)

_CROSS_INDEX = {
    (ActivityBin.HIGH, ActivityBin.HIGH): 2,
    (ActivityBin.HIGH, ActivityBin.LOW): 3,
    (ActivityBin.LOW, ActivityBin.HIGH): 4,
    (ActivityBin.LOW, ActivityBin.LOW): 5,
}


@dataclass(frozen=True)
class CalibrationSample:
    """One simulated domain configuration and its transient PSN result."""

    vdd: float
    freq_ratio: float
    loads: Tuple[Optional[TileLoad], ...]
    peak_psn_pct: np.ndarray
    avg_psn_pct: np.ndarray


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted kernel ladders plus fit diagnostics (worst per-Vdd RMS)."""

    peak_kernels: KernelLadder
    avg_kernels: KernelLadder
    peak_rms_error_pct: float
    avg_rms_error_pct: float
    samples: Tuple[CalibrationSample, ...]


def _activity_for(bin_: ActivityBin, rng: np.random.Generator) -> float:
    """Representative core activity factor for a bin."""
    if bin_ is ActivityBin.HIGH:
        return float(rng.uniform(0.55, 0.9))
    return float(rng.uniform(0.12, 0.35))


def _load(
    power_model: PowerModel,
    vdd: float,
    bin_: ActivityBin,
    rng: np.random.Generator,
    router_share: float,
) -> TileLoad:
    activity = _activity_for(bin_, rng)
    core = power_model.core_dynamic(activity, vdd) + power_model.core_leakage(vdd)
    flits = router_share * float(rng.uniform(1.0, 3.0))
    router = power_model.router_dynamic(flits, vdd) + power_model.router_leakage(vdd)
    return TileLoad(core, router, bin_)


def generate_samples(
    tech: TechnologyNode,
    vdds: Sequence[float] = (0.4, 0.6, 0.8),
    n_random: int = 8,
    seed: int = 2018,
    window_s: float = 200e-9,
    dt_s: float = 50e-12,
) -> List[CalibrationSample]:
    """Simulate the calibration corpus with the transient solver."""
    rng = np.random.default_rng(seed)
    power_model = PowerModel(tech)
    analysis = PsnTransientAnalysis(tech, window_s=window_s, dt_s=dt_s)
    # The corpus is drawn first (the rng order is the corpus), then
    # solved as one batch of lanes.
    corpus: List[Tuple[float, Tuple[Optional[TileLoad], ...]]] = []
    for vdd in vdds:
        # Single occupied tile, each bin, with and without router traffic.
        for bin_ in ActivityBin:
            for share in (0.0, 1.0):
                loads: List[Optional[TileLoad]] = [None] * 4
                loads[0] = _load(power_model, vdd, bin_, rng, share)
                corpus.append((vdd, tuple(loads)))
        # Full same-bin domains - the configurations PARM's clustering
        # actually produces (underrepresenting them biases the fit).
        for bin_ in ActivityBin:
            for _rep in range(2):
                corpus.append((vdd, tuple(
                    _load(power_model, vdd, bin_, rng, 0.3) for _ in range(4)
                )))
        # Pairs at 1 hop (positions 0,1) and 2 hops (positions 0,3),
        # all bin combinations.
        for bin_a, bin_b in itertools.product(ActivityBin, repeat=2):
            for positions in ((0, 1), (0, 3)):
                loads = [None] * 4
                loads[positions[0]] = _load(power_model, vdd, bin_a, rng, 0.4)
                loads[positions[1]] = _load(power_model, vdd, bin_b, rng, 0.4)
                corpus.append((vdd, tuple(loads)))
        # Random full/partial domains.
        for _ in range(n_random):
            loads = []
            for _pos in range(4):
                if rng.uniform() < 0.25:
                    loads.append(None)
                else:
                    bin_ = ActivityBin.HIGH if rng.uniform() < 0.5 else ActivityBin.LOW
                    loads.append(_load(power_model, vdd, bin_, rng, rng.uniform(0, 1)))
            corpus.append((vdd, tuple(loads)))

    reports = analysis.analyze_many([
        (vdd, [l if l is not None else TileLoad.idle() for l in loads])
        for vdd, loads in corpus
    ])
    return [
        CalibrationSample(
            vdd=vdd,
            freq_ratio=alpha_power_frequency(vdd, tech) / tech.freq_at_nominal_hz,
            loads=loads,
            peak_psn_pct=report.peak_psn_pct,
            avg_psn_pct=report.avg_psn_pct,
        )
        for (vdd, loads), report in zip(corpus, reports)
    ]


def _design_row(
    vdd: float,
    loads: Sequence[Optional[TileLoad]],
    tile: int,
    kappa2: float,
) -> Optional[np.ndarray]:
    """Feature vector so that psn_pct = 100/vdd * row . z."""
    me = loads[tile]
    if me is None or me.total_power_w <= 0.0:
        return None
    row = np.zeros(len(_UNKNOWNS))
    i_core = me.core_power_w / vdd
    i_router = me.router_power_w / vdd
    row[0 if me.activity_bin is ActivityBin.HIGH else 1] = i_core
    row[6] = i_router
    for j, other in enumerate(loads):
        if j == tile or other is None or other.total_power_w <= 0.0:
            continue
        dist = int(DOMAIN_DISTANCES[tile, j])
        kappa = 1.0 if dist == 1 else kappa2
        row[_CROSS_INDEX[(me.activity_bin, other.activity_bin)]] += (
            kappa * other.core_power_w / vdd
        )
        row[7] += kappa * other.router_power_w / vdd
    return row


def _fit_one_vdd(
    samples: Sequence[CalibrationSample],
    vdd: float,
    target: str,
    kappa2_grid: Sequence[float],
) -> Tuple[PsnKernel, float]:
    """Fit the impedance set for one ladder voltage."""
    best: Optional[Tuple[float, np.ndarray, float]] = None
    subset = [s for s in samples if abs(s.vdd - vdd) < 1e-9]
    if not subset:
        raise ValueError(f"no calibration samples at Vdd={vdd}")
    for kappa2 in kappa2_grid:
        rows, ys = [], []
        for s in subset:
            values = s.peak_psn_pct if target == "peak" else s.avg_psn_pct
            for tile in range(4):
                row = _design_row(s.vdd, s.loads, tile, kappa2)
                if row is None:
                    continue
                rows.append(row * 100.0 / s.vdd)
                ys.append(values[tile])
        a = np.asarray(rows)
        y = np.asarray(ys)
        z, *_ = np.linalg.lstsq(a, y, rcond=None)
        z = np.clip(z, 0.0, None)  # impedances are physical
        rms = float(np.sqrt(np.mean((a @ z - y) ** 2)))
        if best is None or rms < best[0]:
            best = (rms, z, kappa2)
    rms, z, kappa2 = best
    kernel = PsnKernel(
        z_own={ActivityBin.HIGH: float(z[0]), ActivityBin.LOW: float(z[1])},
        z_cross={
            (ActivityBin.HIGH, ActivityBin.HIGH): float(z[2]),
            (ActivityBin.HIGH, ActivityBin.LOW): float(z[3]),
            (ActivityBin.LOW, ActivityBin.HIGH): float(z[4]),
            (ActivityBin.LOW, ActivityBin.LOW): float(z[5]),
        },
        z_own_router=float(z[6]),
        z_cross_router=float(z[7]),
        kappa2=kappa2,
    )
    return kernel, rms


def fit_kernels(
    tech: Optional[TechnologyNode] = None,
    samples: Optional[Sequence[CalibrationSample]] = None,
    kappa2_grid: Sequence[float] = (0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0),
    **sample_kwargs,
) -> CalibrationResult:
    """Fit the per-Vdd kernel ladders for a technology node.

    Either pass pre-generated ``samples`` or let the function simulate a
    corpus for ``tech`` (defaults to 7 nm).
    """
    if samples is None:
        tech = tech or technology("7nm")
        samples = generate_samples(tech, **sample_kwargs)
    vdds = sorted({s.vdd for s in samples})
    peak, avg = {}, {}
    peak_rms, avg_rms = [], []
    for vdd in vdds:
        kernel, rms = _fit_one_vdd(samples, vdd, "peak", kappa2_grid)
        peak[vdd] = kernel
        peak_rms.append(rms)
        kernel, rms = _fit_one_vdd(samples, vdd, "avg", kappa2_grid)
        avg[vdd] = kernel
        avg_rms.append(rms)
    return CalibrationResult(
        peak_kernels=KernelLadder(peak),
        avg_kernels=KernelLadder(avg),
        peak_rms_error_pct=float(np.max(peak_rms)),
        avg_rms_error_pct=float(np.max(avg_rms)),
        samples=tuple(samples),
    )


def _format_ladder(ladder: KernelLadder, name: str) -> str:
    """Paste-able `_kernel(...)` table for repro.pdn.fast."""
    from repro.pdn.waveforms import ActivityBin as AB

    lines = [f"{name} = KernelLadder(", "    kernels={"]
    for vdd in sorted(ladder.kernels):
        k = ladder.kernels[vdd]
        z = k.z_cross
        vals = ", ".join(
            f"{v * 1e3:.3f}"
            for v in (
                k.z_own[AB.HIGH],
                k.z_own[AB.LOW],
                z[(AB.HIGH, AB.HIGH)],
                z[(AB.HIGH, AB.LOW)],
                z[(AB.LOW, AB.HIGH)],
                z[(AB.LOW, AB.LOW)],
                k.z_own_router,
                k.z_cross_router,
            )
        )
        lines.append(f"        {vdd}: _kernel({vals}, {k.kappa2}),")
    lines.append("    }")
    lines.append(")")
    return "\n".join(lines)


def main() -> None:
    """Regenerate and print the frozen kernel constants."""
    result = fit_kernels(vdds=(0.4, 0.5, 0.6, 0.7, 0.8))
    print(f"peak worst per-Vdd RMS: {result.peak_rms_error_pct:.3f} % of Vdd")
    print(f"avg  worst per-Vdd RMS: {result.avg_rms_error_pct:.3f} % of Vdd")
    print(_format_ladder(result.peak_kernels, "_DEFAULT_PEAK"))
    print(_format_ladder(result.avg_kernels, "_DEFAULT_AVG"))


if __name__ == "__main__":
    main()
