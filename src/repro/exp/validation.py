"""Systematic validation of the fast PSN model against the transient
solver, on exactly the configurations the managers produce.

The fast kernels are fitted on a synthetic corpus; this experiment
checks them where it matters: take mapping decisions from PARM and HM
across the benchmark suite, audit every occupied domain with the MNA
transient solver (`repro.pdn.audit`), and report the per-tile error
distribution.  DESIGN.md (decision #1) commits to this cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.apps.suite import ProfileLibrary
from repro.chip.cmp import ChipDescription, default_chip
from repro.core import HarmonicManager, ParmManager
from repro.pdn.audit import audit_mappings
from repro.runtime.state import ChipState


@dataclass(frozen=True)
class ValidationRow:
    """Fast-vs-transient comparison for one mapping decision."""

    benchmark: str
    manager: str
    vdd: float
    dop: int
    transient_peak_pct: float
    fast_peak_pct: float
    worst_tile_error_pct: float


@dataclass(frozen=True)
class ValidationSummary:
    """Aggregate error statistics over all audited mappings."""

    rows: Sequence[ValidationRow]

    @property
    def mean_abs_peak_error_pct(self) -> float:
        return float(
            np.mean(
                [abs(r.transient_peak_pct - r.fast_peak_pct) for r in self.rows]
            )
        )

    @property
    def worst_tile_error_pct(self) -> float:
        return float(max(r.worst_tile_error_pct for r in self.rows))

    @property
    def rank_agreement(self) -> bool:
        """Does the fast model order the audited mappings like the
        transient solver (Spearman-style: identical sort order)?"""
        by_true = sorted(
            range(len(self.rows)),
            key=lambda i: self.rows[i].transient_peak_pct,
        )
        by_fast = sorted(
            range(len(self.rows)), key=lambda i: self.rows[i].fast_peak_pct
        )
        # Allow local swaps among near-ties (< 0.5 pp apart).
        for a, b in zip(by_true, by_fast):
            if a == b:
                continue
            if abs(
                self.rows[a].transient_peak_pct
                - self.rows[b].transient_peak_pct
            ) > 0.5:
                return False
        return True


def validate_on_manager_decisions(
    benchmarks: Sequence[str] = ("fft", "blackscholes", "canneal", "swaptions"),
    chip: Optional[ChipDescription] = None,
    window_s: float = 200e-9,
    dt_s: float = 100e-12,
    library: Optional[ProfileLibrary] = None,
) -> ValidationSummary:
    """Audit PARM and HM decisions for several benchmarks.

    Returns the error summary; rows carry per-decision detail.
    ``chip`` / ``library`` default to fresh instances; pass shared ones
    to reuse profile caches across report sections.
    """
    chip = chip or default_chip()
    library = library or ProfileLibrary()
    decided = []
    for name in benchmarks:
        profile = library.get(name)
        for manager in (ParmManager(), HarmonicManager()):
            decision = manager.try_map(profile, 100.0, ChipState(chip))
            if decision is not None:
                graph = profile.graph(decision.dop)
                decided.append((name, manager.name, decision, graph))
    # Every decision's domains are lanes of one transient batch.
    audits = audit_mappings(
        chip,
        [(decision, graph, None) for _, _, decision, graph in decided],
        window_s=window_s,
        dt_s=dt_s,
    )
    rows = tuple(
        ValidationRow(
            benchmark=name,
            manager=manager,
            vdd=decision.vdd,
            dop=decision.dop,
            transient_peak_pct=audit.chip_peak_pct,
            fast_peak_pct=float(np.max(audit.fast_peak_psn_pct)),
            worst_tile_error_pct=audit.fast_model_peak_error_pct,
        )
        for (name, manager, decision, _), audit in zip(decided, audits)
    )
    return ValidationSummary(rows=rows)


def print_validation(summary: Optional[ValidationSummary] = None) -> None:
    summary = summary or validate_on_manager_decisions()
    print("Validation: fast PSN kernel vs transient solver on real mappings")
    print(
        f"{'benchmark':>13s} {'manager':>8s} {'Vdd':>5s} {'DoP':>4s} "
        f"{'transient %':>12s} {'fast %':>7s} {'worst err':>10s}"
    )
    for r in summary.rows:
        print(
            f"{r.benchmark:>13s} {r.manager:>8s} {r.vdd:>4.1f}V {r.dop:>4d} "
            f"{r.transient_peak_pct:>12.2f} {r.fast_peak_pct:>7.2f} "
            f"{r.worst_tile_error_pct:>9.2f}pp"
        )
    print(
        f"mean |peak error| = {summary.mean_abs_peak_error_pct:.2f} pp, "
        f"worst tile error = {summary.worst_tile_error_pct:.2f} pp, "
        f"rank agreement = {summary.rank_agreement}"
    )
