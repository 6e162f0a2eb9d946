"""The benchmark's workloads, each driven through a public entry point.

A workload turns the benchmark seed into the program's inputs
(:meth:`Workload.setup`), makes one timed call to the entry point a user
calls (:meth:`Workload.call`), and reduces the result to canonical
bytes for the output digest, to units attempted and failed, and to the
exact simulated counts that must repeat on every run.

Why each workload is in the benchmark is recorded in ``BENCHMARK.json``;
the module docstrings of the entry points say what they compute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
from typing import Any, Dict, Tuple


def canonical_json(data: Any) -> bytes:
    """Byte-stable JSON (sorted keys; floats keep every digit)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(rows) -> list:
    return [dataclasses.asdict(row) for row in rows]


def _with_workers(fn, workers: int) -> Dict[str, int]:
    """``{"workers": n}`` when the entry point still takes a worker count."""
    if "workers" in inspect.signature(fn).parameters:
        return {"workers": workers}
    return {}


class Workload:
    """One named workload; subclasses fill in the four hooks."""

    name = ""
    #: True when the entry point fans work out to worker processes.
    uses_workers = False

    def setup(self, seed: int) -> Any:
        """Import the entry point and build its inputs from ``seed``."""
        raise NotImplementedError

    def call(self, inputs: Any, workers: int, tmp_dir: str) -> Any:
        """The timed call to the entry point."""
        raise NotImplementedError

    def canonical(self, result: Any) -> bytes:
        """The result's canonical bytes (what the digest pins)."""
        raise NotImplementedError

    def units(self, result: Any) -> Tuple[int, int]:
        """``(attempted, failed)`` units of one call."""
        raise NotImplementedError

    def counts(self, result: Any) -> Dict[str, int]:
        """Exact simulated counts read from the result."""
        raise NotImplementedError


class Campaign(Workload):
    """The paper's experiment loop (Fig. 6-8): 6 frameworks x 3 arrival
    intervals over 20-application mixed sequences, two sequences a cell,
    under the crash-safe supervisor with a checkpoint."""

    name = "campaign"
    uses_workers = True
    intervals_s = (0.2, 0.1, 0.05)
    n_apps = 20

    def setup(self, seed):
        from repro.exp.frameworks import FRAMEWORKS
        from repro.harness.supervisor import CampaignCell

        return [
            CampaignCell(
                framework=fw.name,
                workload="mixed",
                arrival_interval_s=interval,
                n_apps=self.n_apps,
                seeds=(seed, seed + 1),
            )
            for fw in FRAMEWORKS
            for interval in self.intervals_s
        ]

    def call(self, cells, workers, tmp_dir):
        from repro.harness.supervisor import CampaignSupervisor

        path = os.path.join(tmp_dir, "campaign-checkpoint.json")
        if os.path.exists(path):
            os.remove(path)
        supervisor = CampaignSupervisor(
            cells, path, **_with_workers(CampaignSupervisor, workers)
        )
        return supervisor.run()

    def canonical(self, outcome):
        return outcome.table_json().encode()

    def units(self, outcome):
        return len(outcome.outcomes), len(outcome.failed_cells)

    def counts(self, outcome):
        return {"cells_completed": len(outcome.completed_cells)}


class Routing(Workload):
    """The routing sweep at its defaults (xy/odd-even/icon/panr x 4
    injection rates x 2 seeds x 2000 cycles on an 8x8 mesh)."""

    name = "routing"
    uses_workers = True

    def setup(self, seed):
        from repro.exp.routing_sweep import routing_sweep  # noqa: F401

        return {"seeds": (seed, seed + 1)}

    def call(self, params, workers, tmp_dir):
        from repro.exp.routing_sweep import routing_sweep

        return routing_sweep(
            seeds=params["seeds"], **_with_workers(routing_sweep, workers)
        )

    def canonical(self, rows):
        return canonical_json(_rows(rows))

    def units(self, rows):
        return len(rows), 0

    def counts(self, rows):
        return {"rows": len(rows)}


class Service(Workload):
    """An overloaded streaming service: PARM+PANR on the mixed pool,
    Poisson arrivals at 20 Hz, 2 s epochs checkpointed every epoch."""

    name = "service"
    epochs = 24
    rate_hz = 20.0

    def setup(self, seed):
        from repro.runtime.service.arrivals import PoissonProcess
        from repro.runtime.service.campaign import ServiceCampaign  # noqa: F401
        from repro.runtime.service.config import ServiceConfig

        return ServiceConfig(
            framework="PARM+PANR",
            workload="mixed",
            arrival=PoissonProcess(rate_hz=self.rate_hz),
            epoch_duration_s=2.0,
            epochs=self.epochs,
            root_seed=seed,
        )

    def call(self, config, workers, tmp_dir):
        from repro.runtime.service.campaign import ServiceCampaign

        path = os.path.join(tmp_dir, "service-checkpoint.json")
        if os.path.exists(path):
            os.remove(path)
        return ServiceCampaign(config, path).run()

    def canonical(self, payload):
        from repro.runtime.service.campaign import traffic_json

        return traffic_json(payload).encode()

    def units(self, payload):
        return int(payload["config"]["epochs"]), 0

    def counts(self, payload):
        totals: Dict[str, int] = {}
        for row in payload["classes"].values():
            for key in ("arrived", "admitted", "shed", "preempted"):
                totals[key] = totals.get(key, 0) + int(row["counters"][key])
        return totals


class Psn(Workload):
    """The PSN figures (Fig. 1, 3a, 3b) and the fast-PSN validation
    against the MNA transient solver on the managers' decisions.  The
    paper fixes these inputs; the seed does not change them."""

    name = "psn"

    def setup(self, seed):
        from repro.apps.suite import ProfileLibrary
        from repro.chip.cmp import default_chip
        from repro.exp.figures import fig1  # noqa: F401
        from repro.exp.validation import validate_on_manager_decisions  # noqa: F401

        return {"chip": default_chip(), "library": ProfileLibrary()}

    def call(self, inputs, workers, tmp_dir):
        from repro.exp.figures import fig1, fig3a, fig3b
        from repro.exp.validation import validate_on_manager_decisions

        return {
            "fig1": fig1(),
            "fig3a": fig3a(),
            "fig3b": fig3b(),
            "validation": validate_on_manager_decisions(
                chip=inputs["chip"], library=inputs["library"]
            ),
        }

    def canonical(self, result):
        return canonical_json({
            "fig1": _rows(result["fig1"]),
            "fig3a": _rows(result["fig3a"]),
            "fig3b": _rows(result["fig3b"]),
            "validation": _rows(result["validation"].rows),
        })

    def units(self, result):
        return (
            len(result["fig1"])
            + len(result["fig3a"])
            + len(result["fig3b"])
            + len(result["validation"].rows),
            0,
        )

    def counts(self, result):
        return {"validation_rows": len(result["validation"].rows)}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Campaign(), Routing(), Service(), Psn())
}


def fast_psn_err_pct(result: Any = None) -> float:
    """Worst-tile error (pp) of fast-PSN against the MNA solver.

    Read from the psn workload's own validation when given, otherwise
    computed with the validation's defaults.
    """
    if result is None:
        from repro.exp.validation import validate_on_manager_decisions

        return validate_on_manager_decisions().worst_tile_error_pct
    return result["validation"].worst_tile_error_pct
