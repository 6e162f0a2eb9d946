"""Import budget of a fresh process: a campaign cell, a routing batch and
a service epoch load neither scipy nor networkx, and a routing batch
loads none of the runtime stack.

Every spawned pool worker and every ``python -m repro <subcommand>``
process pays its imports before its first unit of work.  scipy (with
the ``numpy.f2py`` it loads) belongs to the MNA transient solver, the
thermal model and the verification intervals, and networkx to the
graph tests' oracle; none of these paths runs them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: What a campaign-cell worker unpickles and runs, then the routing
#: sweep's and the service's entry modules, then the CLI module.
MODULES = (
    "repro.perf.parallel",
    "repro.harness.supervisor",
    "repro.exp.frameworks",
    "repro.exp.runner",
    "repro.apps.suite",
    "repro.apps.workload",
    "repro.exp.routing_sweep",
    "repro.runtime.service.campaign",
    "repro.__main__",
)

PROBE = f"""
import importlib, json, sys
for name in {MODULES!r}:
    importlib.import_module(name)
from repro.harness.supervisor import CampaignCell, default_cell_runner
default_cell_runner()(
    CampaignCell("PARM+PANR", "mixed", 0.1, n_apps=2, seeds=(1,))
)
print(json.dumps(sorted(
    name for name in ("scipy", "networkx", "repro.exp.report")
    if name in sys.modules
)))
"""


#: What a routing-sweep task imports and runs, on its own.
ROUTING_PROBE = """
import json, sys
from repro.exp.routing_sweep import SweepPoint, run_batch
run_batch([SweepPoint("panr", 0.1, 1, mesh_width=4, mesh_height=4,
                      cycles=50)])
print(json.dumps(sorted(
    name for name in (
        "repro.core", "repro.apps", "repro.exp.frameworks",
        "repro.exp.runner", "scipy", "networkx",
    )
    if name in sys.modules
)))
"""


def loaded(probe):
    """The watched modules a fresh interpreter has loaded after ``probe``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_cell_routing_and_service_paths_skip_scipy_and_networkx():
    assert loaded(PROBE) == []


def test_routing_batch_skips_the_runtime_stack():
    # The package ``repro.exp`` imports none of its modules, so a
    # routing worker never builds the mapping or application layers.
    assert loaded(ROUTING_PROBE) == []
