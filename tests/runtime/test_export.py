"""Tests for the CSV export helpers."""

import csv
import io

import pytest

from repro.apps.suite import ProfileLibrary
from repro.apps.workload import WorkloadType, generate_workload
from repro.chip import default_chip
from repro.core import ParmManager
from repro.noc.routing import make_routing
from repro.runtime import RuntimeSimulator
from repro.runtime.export import APP_COLUMNS, app_records_csv


@pytest.fixture(scope="module")
def metrics():
    library = ProfileLibrary()
    workload = generate_workload(
        WorkloadType.MIXED, 0.1, n_apps=6, seed=3, library=library
    )
    sim = RuntimeSimulator(
        default_chip(), ParmManager(), make_routing("panr"), seed=1
    )
    return sim.run(workload)


class TestAppRecordsCsv:
    def test_header_and_row_count(self, metrics):
        rows = list(csv.reader(io.StringIO(app_records_csv(metrics))))
        assert rows[0] == list(APP_COLUMNS)
        assert len(rows) == 1 + len(metrics.apps)

    def test_status_values(self, metrics):
        rows = list(csv.DictReader(io.StringIO(app_records_csv(metrics))))
        statuses = {r["status"] for r in rows}
        assert statuses <= {"completed", "late", "dropped", "unfinished"}
        completed_rows = [r for r in rows if r["status"] in ("completed", "late")]
        assert len(completed_rows) == metrics.completed_count

    def test_rows_sorted_by_app_id(self, metrics):
        rows = list(csv.DictReader(io.StringIO(app_records_csv(metrics))))
        ids = [int(r["app_id"]) for r in rows]
        assert ids == sorted(ids)
