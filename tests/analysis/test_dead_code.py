"""Every ``src`` definition is reached from a product file, or says why not.

A top-level function or class, or a non-dunder method of a top-level
class, counts as used when its name appears in any product file (``src``,
``perfbench``, ``examples``, ``benchmarks``) other than on its own
``def``/``class`` line.  A name match over-approximates use (it never
flags a definition that is called, read as a property or passed by
attribute), so whatever it flags is reached by tests alone.  Such a
definition is deleted with its tests, or listed below with the reason it
stays; an entry that is used again, or gone, must leave the list.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PRODUCT_DIRS = ("src", "perfbench", "examples", "benchmarks")

ALLOWLIST = {
    "repro.apps.graph.ApplicationGraph.high_tasks":
        "manager, profile and render_placement tests pick high-activity tasks with it",
    "repro.pdn.circuit.Circuit.node_names":
        "PDN builder tests and the transient LU oracle index node voltages by name",
    "repro.pdn.circuit.Circuit.operating_point":
        "the DC check that PDN builder and circuit tests run on assembled networks",
}


def _definitions(path, tree):
    module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub.lineno


def unreferenced_definitions():
    uses = defaultdict(set)
    sources = {}
    for directory in PRODUCT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            sources[path] = text = path.read_text()
            for lineno, line in enumerate(text.splitlines(), 1):
                for name in re.findall(r"[A-Za-z_]\w*", line):
                    uses[name].add((path, lineno))
    unused = set()
    for path, text in sources.items():
        if path.is_relative_to(ROOT / "src"):
            for qualname, name, lineno in _definitions(path, ast.parse(text)):
                if not uses[name] - {(path, lineno)}:
                    unused.add(qualname)
    return unused


def test_every_src_definition_is_reached_or_allowlisted():
    unused = unreferenced_definitions()
    assert sorted(unused - ALLOWLIST.keys()) == [], "delete them or allowlist them"
    assert sorted(ALLOWLIST.keys() - unused) == [], "stale allowlist entries"
