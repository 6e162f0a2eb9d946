"""Rule ``worker-safety``: the worker-reachable closure must be pure.

The warm-worker-pool roadmap item moves cell execution into long-lived
``spawn`` processes.  Anything a worker-shipped callable *transitively*
calls must therefore avoid the three classic byte-identity killers:

* **module-global mutation** — ``global X`` stores, ``mod.X = v``
  rebinds, ``CACHE[k] = v`` subscript stores on module-level
  containers, and mutating method calls (``append``/``update``/...)
  on module-level names.  Each worker has its own copy of module
  state, so such writes silently diverge between serial and parallel
  runs (and between workers).
* **wall-clock / environment reads** — ``time.time()``,
  ``datetime.now()``, ``os.getenv``/``os.environ``, ``os.urandom``:
  values that differ per host, per run, or per worker.
* **unpicklable shipments** — lambdas and closures cannot cross a
  ``spawn`` boundary at all.

Roots come from two places: every ``WORKER_ROOTS`` registry assignment
(a module-level tuple of dotted-name strings; ``repro.perf.parallel``
owns the canonical one) and every call site that ships a callable into
the pool layer (``map_tasks``/``run_cells``/``CampaignSupervisor``).
A shipment whose target resolves but is *not* registered is itself a
finding — the registry is what keeps the analyzer honest as new
fan-outs appear.

Findings land at the *violation site* (mutation line, clock-read line),
never the root, so a ``# parmlint: ok[worker-safety]`` pragma there
suppresses the finding even when the reachability path runs through
three modules — and the baseline fingerprint (rule, path, line) stays
stable across runs because the BFS and all message paths are
deterministic.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.astwalk import own_nodes
from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import ModuleInfo, ProjectContext, ProjectRule
from repro.analysis.findings import Finding
from repro.analysis.rules._util import attr_chain, module_aliases

#: Name of the root-registry constant the analyzer consumes.
REGISTRY_NAME = "WORKER_ROOTS"

#: Container methods that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "add", "append", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "reverse", "setdefault", "sort", "update",
    }
)

#: ``time`` module functions that read the wall clock (or block on it).
_TIME_FUNCS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns", "sleep",
    }
)

#: ``datetime``/``date`` constructors that read the wall clock.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: ``os`` functions that read per-host environment or OS entropy.
_OS_FUNCS = frozenset({"getenv", "putenv", "urandom"})


def parse_worker_roots(mod: ModuleInfo) -> List[Tuple[str, int]]:
    """``(dotted_name, lineno)`` for each WORKER_ROOTS entry in a module.

    The registry must be a module-level assignment of a tuple/list of
    string literals so the analyzer can read it without importing
    anything.
    """
    out: List[Tuple[str, int]] = []
    for node in mod.tree.body:
        targets: List[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == REGISTRY_NAME
            for t in targets
        ):
            continue
        if isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    out.append((element.value, element.lineno))
    return out


class _BodyScan:
    """Scans one callable's own body (nested defs excluded) for hazards.

    Nested defs/lambdas are separate call-graph nodes reached through
    their parent edge, so they get their own scan.
    """

    def __init__(self, mod: ModuleInfo, fn: ast.AST):
        self.mod = mod
        self.fn = fn
        self.hazards: List[Tuple[int, str]] = []
        self._module_names = self._collect_module_names()
        self._import_aliases = self._collect_import_aliases()
        self._time_aliases = module_aliases(mod.tree, "time")
        self._datetime_aliases = module_aliases(mod.tree, "datetime") | (
            module_aliases(mod.tree, "datetime.datetime")
        )
        self._os_aliases = module_aliases(mod.tree, "os")
        self._globals: Set[str] = set()
        self._locals = self._collect_locals()

    def _collect_module_names(self) -> Set[str]:
        names: Set[str] = set()
        for node in self.mod.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
        return names

    def _collect_import_aliases(self) -> Set[str]:
        aliases: Set[str] = set()
        for node in ast.walk(self.mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    aliases.add(alias.asname or alias.name.split(".")[0])
        return aliases

    def _collect_locals(self) -> Set[str]:
        names: Set[str] = set()
        args = getattr(self.fn, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                names.add(arg.arg)
        for node in own_nodes(self.fn):
            if isinstance(node, ast.Global):
                self._globals.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    names.update(_bound_names(target))
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                names.update(_bound_names(node.target))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                names.update(_bound_names(node.target))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        names.update(_bound_names(item.optional_vars))
            elif isinstance(node, ast.comprehension):
                names.update(_bound_names(node.target))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                names.add(node.name)
        return names - self._globals

    def _is_module_global(self, name: str) -> bool:
        return (
            name in self._module_names
            and name not in self._locals
        ) or name in self._globals

    def _store_hazard(self, target: ast.AST, verb: str) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._globals:
                self.hazards.append(
                    (
                        target.lineno,
                        f"{verb} to module global `{target.id}` "
                        "(declared `global`)",
                    )
                )
        elif isinstance(target, ast.Subscript):
            chain = attr_chain(target.value)
            if chain is not None and self._is_module_global(chain[0]):
                self.hazards.append(
                    (
                        target.lineno,
                        f"{verb} into module-level container "
                        f"`{'.'.join(chain)}`",
                    )
                )
        elif isinstance(target, ast.Attribute):
            chain = attr_chain(target)
            if chain is not None and chain[0] in self._import_aliases:
                self.hazards.append(
                    (
                        target.lineno,
                        f"{verb} to module attribute `{'.'.join(chain)}`",
                    )
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store_hazard(element, verb)

    def _call_hazard(self, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        if chain is None:
            return
        head = chain[0]
        if len(chain) == 2 and chain[1] in _MUTATORS and self._is_module_global(
            head
        ):
            self.hazards.append(
                (
                    node.lineno,
                    f"mutating call `{'.'.join(chain)}(...)` on "
                    "module-level container",
                )
            )
        if head in self._time_aliases and chain[-1] in _TIME_FUNCS:
            self.hazards.append(
                (node.lineno, f"wall-clock read `{'.'.join(chain)}()`")
            )
        elif head in self._datetime_aliases and chain[-1] in _DATETIME_FUNCS:
            self.hazards.append(
                (node.lineno, f"wall-clock read `{'.'.join(chain)}()`")
            )
        elif head in self._os_aliases and chain[-1] in _OS_FUNCS:
            self.hazards.append(
                (node.lineno, f"environment read `{'.'.join(chain)}()`")
            )

    def scan(self) -> List[Tuple[int, str]]:
        for node in own_nodes(self.fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._store_hazard(target, "assignment")
            elif isinstance(node, ast.AugAssign):
                self._store_hazard(node.target, "augmented assignment")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._store_hazard(target, "delete")
            elif isinstance(node, ast.Call):
                self._call_hazard(node)
            elif isinstance(node, ast.Attribute):
                chain = attr_chain(node)
                if (
                    chain is not None
                    and len(chain) >= 2
                    and chain[0] in self._os_aliases
                    and chain[1] == "environ"
                ):
                    self.hazards.append(
                        (node.lineno, "environment read `os.environ`")
                    )
        return sorted(set(self.hazards))


def _bound_names(target: ast.AST) -> Set[str]:
    names: Set[str] = set()
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names.update(_bound_names(element))
    elif isinstance(target, ast.Starred):
        names.update(_bound_names(target.value))
    return names


class WorkerSafetyRule(ProjectRule):
    id = "worker-safety"
    description = (
        "callables reachable from worker-pool roots must not mutate "
        "module globals, read the wall clock/environment, or ship "
        "unpicklable closures"
    )

    def _roots(
        self, ctx: ProjectContext
    ) -> Tuple[Set[str], List[Finding]]:
        """Resolve WORKER_ROOTS registries + shipments into root qnames."""
        findings: List[Finding] = []
        registered: Set[str] = set()
        roots: Set[str] = set()
        graph: CallGraph = ctx.graph
        for mod in ctx.modules:
            for dotted, lineno in parse_worker_roots(mod):
                node_qname = graph.resolve_callable(dotted)
                if node_qname is None:
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=mod.rel,
                            line=lineno,
                            message=(
                                f"WORKER_ROOTS entry `{dotted}` does not "
                                "resolve to a known project callable"
                            ),
                        )
                    )
                    continue
                registered.add(node_qname)
                roots.add(node_qname)
        for shipment in graph.shipments:
            if shipment.unpicklable:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=shipment.path,
                        line=shipment.line,
                        message=(
                            f"`{shipment.arg}` shipped to {shipment.sink} "
                            "is a lambda/closure and cannot cross a spawn "
                            "boundary; use a module-level function"
                        ),
                    )
                )
                continue
            if shipment.target is None:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=shipment.path,
                        line=shipment.line,
                        message=(
                            f"cannot statically resolve `{shipment.arg}` "
                            f"shipped to {shipment.sink}; register its "
                            "target in WORKER_ROOTS and pragma this site"
                        ),
                    )
                )
                continue
            node_qname = graph.resolve_callable(shipment.target)
            if node_qname is None:
                continue
            roots.add(node_qname)
            if node_qname not in registered:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=shipment.path,
                        line=shipment.line,
                        message=(
                            f"`{shipment.arg}` is shipped to "
                            f"{shipment.sink} but `{shipment.target}` is "
                            "not registered in WORKER_ROOTS"
                        ),
                    )
                )
        return roots, findings

    def check_graph(self, ctx: ProjectContext) -> Iterable[Finding]:
        roots, findings = self._roots(ctx)
        paths = ctx.graph.reachable(roots)
        for qname in sorted(paths):
            entry = ctx.functions.get(qname)
            if entry is None:
                continue
            mod, fn = entry
            via = " -> ".join(paths[qname])
            for lineno, detail in _BodyScan(mod, fn).scan():
                findings.append(
                    Finding(
                        rule=self.id,
                        path=mod.rel,
                        line=lineno,
                        message=(
                            f"{detail} in worker-reachable `{qname}` "
                            f"(via {via})"
                        ),
                    )
                )
        # One finding per (path, line, rule): when several roots reach
        # the same hazard, keep the lexicographically smallest message
        # so fingerprints and reports are stable across runs.
        best: Dict[Tuple[str, int], Finding] = {}
        for finding in findings:
            key = (finding.path, finding.line)
            held = best.get(key)
            if held is None or finding.message < held.message:
                best[key] = finding
        return [best[key] for key in sorted(best)]
