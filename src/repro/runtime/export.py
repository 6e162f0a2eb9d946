"""Tabular export of runtime results (CSV) for downstream analysis.

The experiment harness prints paper-style tables; this module gives
users machine-readable output: one row per application with its full
lifecycle.
"""

from __future__ import annotations

import csv
import io
from typing import List

from repro.runtime.metrics import RunMetrics

#: Columns of the per-application table, in order.
APP_COLUMNS = (
    "app_id",
    "benchmark",
    "arrival_s",
    "deadline_s",
    "mapped_s",
    "vdd",
    "dop",
    "ve_count",
    "remap_count",
    "finished_s",
    "dropped_s",
    "failed_s",
    "status",
)


def app_records_rows(metrics: RunMetrics) -> List[List]:
    """Per-application rows (header excluded), ordered by app id."""
    rows: List[List] = []
    for app_id in sorted(metrics.apps):
        rec = metrics.apps[app_id]
        if rec.completed:
            status = "completed" if rec.met_deadline else "late"
        elif rec.dropped:
            status = "dropped"
        elif rec.failed:
            status = "failed"
        else:
            status = "unfinished"
        rows.append(
            [
                rec.app_id,
                rec.name,
                rec.arrival_s,
                rec.deadline_s,
                rec.mapped_s,
                rec.vdd,
                rec.dop,
                rec.ve_count,
                rec.remap_count,
                rec.finished_s,
                rec.dropped_s,
                rec.failed_s,
                status,
            ]
        )
    return rows


def app_records_csv(metrics: RunMetrics) -> str:
    """The per-application table as a CSV string (with header)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(APP_COLUMNS)
    writer.writerows(app_records_rows(metrics))
    return buffer.getvalue()
