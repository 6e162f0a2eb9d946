"""Project-wide call graph for interprocedural parmlint rules.

Per-file rules (PR 2) cannot answer the question the warm-worker-pool
roadmap item depends on: *"is this function reachable from a worker and
does anything it transitively calls mutate shared state?"*  This module
grows parmlint a whole-program view:

* **Indexing** — every module-level function, class method, nested
  ``def`` and ``lambda`` becomes a :class:`CallGraphNode` with a stable
  qualified name (``repro.exp.routing_sweep.run_batch``,
  ``repro.harness.supervisor.CellExecutor.run_cell``,
  ``pkg.mod.outer.<locals>.inner``).
* **Alias-aware call resolution** — call edges are resolved through
  ``import``/``from``/``as`` aliases (absolute and relative), module
  attribute chains (``parallel.map_tasks``), ``self`` method calls
  (including project base classes and ``super()``), locally inferred
  variable types (``engine = BatchedNocEngine(...); engine.run(...)``),
  instance-attribute types assigned in any method of a class, and
  module-level function aliases (``g = f``).
* **Conservative unknown-call handling** — calls that cannot be
  resolved (dynamic dispatch, external libraries, callable parameters)
  are *recorded* on the node in ``unresolved`` rather than dropped, so
  rules can choose how pessimistic to be.  Defining a nested function
  adds a parent edge: a reachable function makes its closures reachable
  (the typical escape route into worker processes).
* **Shipment tracking** — call sites that hand a callable to the
  process-pool layer (``map_tasks``/``run_cells``/
  ``CampaignSupervisor(cell_runner=...)``) are recorded as
  :class:`Shipment` entries with the resolved target (or the fact that
  it could not be resolved, or that it is an unpicklable
  lambda/closure).  The worker-reachability rule turns these into its
  root set.
* **On-disk caching** — the graph serialises to a deterministic JSON
  artifact keyed by the SHA-256 of every source file, so repeated lint
  runs skip the resolution pass.  A corrupt or stale artifact is a
  cache miss, never an error, and a cold rebuild is byte-identical to
  the cached artifact (pinned in ``tests/analysis/test_callgraph.py``).
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.astwalk import attr_chain
from repro.analysis.engine import ModuleInfo

#: Schema name / version of the cached call-graph artifact.  Bump the
#: version whenever node structure or resolution semantics change: the
#: key changes with it, so stale artifacts simply miss.
CALLGRAPH_SCHEMA = "parmlint-callgraph"
CALLGRAPH_VERSION = 1

#: Builtin callables that never resolve to project code; calls to them
#: are not worth recording as unresolved (pure noise for every rule).
_BUILTINS = frozenset(
    {
        "abs", "all", "any", "bool", "bytearray", "bytes", "callable",
        "chr", "classmethod", "complex", "delattr", "dict", "divmod",
        "enumerate", "filter", "float", "format", "frozenset", "getattr",
        "hasattr", "hash", "id", "int", "isinstance", "issubclass",
        "iter", "len", "list", "map", "max", "memoryview", "min", "next",
        "object", "open", "ord", "pow", "print", "property", "range",
        "repr", "reversed", "round", "set", "setattr", "slice", "sorted",
        "staticmethod", "str", "sum", "super", "tuple", "type", "vars",
        "zip",
        # Exception constructors show up constantly in raise statements.
        "ArithmeticError", "AssertionError", "AttributeError",
        "BaseException", "Exception", "IndexError", "KeyError",
        "KeyboardInterrupt", "LookupError", "NotImplementedError",
        "OSError", "OverflowError", "RuntimeError", "StopIteration",
        "SystemExit", "TypeError", "ValueError", "ZeroDivisionError",
    }
)

#: Pool-shipment sinks: callee name -> how to find the shipped callable
#: in the call's arguments (positional index, keyword name).
_SHIPMENT_SINKS: Dict[str, Tuple[int, str]] = {
    "map_tasks": (0, "fn"),
    "run_cells": (3, "cell_runner"),
    "CampaignSupervisor": (3, "cell_runner"),
}


@dataclass(frozen=True)
class CallGraphNode:
    """One callable in the project, with its resolved call edges.

    Attributes:
        qname: Qualified name (``pkg.mod.fn``, ``pkg.mod.Cls.m``,
            ``pkg.mod.fn.<locals>.inner``, ``...<locals>.<lambda@12>``).
        module: Dotted module name the callable lives in.
        path: Module path, POSIX-style and relative to the lint root.
        line: 1-based line of the ``def``/``lambda``.
        kind: ``"function"``, ``"method"``, ``"nested"`` or ``"lambda"``.
        calls: Resolved project-internal callee qnames, sorted unique.
            Includes an implicit edge to every nested def/lambda the
            body defines (definition makes the closure escape-able).
        unresolved: Calls that could not be resolved, sorted unique —
            either a dotted external name (``numpy.sqrt``) or a leading
            ``.`` plus method name (``.run``) for unknown receivers.
    """

    qname: str
    module: str
    path: str
    line: int
    kind: str
    calls: Tuple[str, ...]
    unresolved: Tuple[str, ...]

    def to_json(self) -> Dict[str, object]:
        return {
            "qname": self.qname,
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "kind": self.kind,
            "calls": list(self.calls),
            "unresolved": list(self.unresolved),
        }

    @classmethod
    def from_json(cls, record: Dict[str, object]) -> "CallGraphNode":
        return cls(
            qname=str(record["qname"]),
            module=str(record["module"]),
            path=str(record["path"]),
            line=int(record["line"]),  # type: ignore[arg-type]
            kind=str(record["kind"]),
            calls=tuple(str(c) for c in record["calls"]),  # type: ignore[union-attr]
            unresolved=tuple(str(u) for u in record["unresolved"]),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class Shipment:
    """One call site that hands a callable to the worker-pool layer.

    Attributes:
        path: Call-site module path (relative, POSIX).
        line: Call-site line.
        sink: The pool entry point (``map_tasks``, ``run_cells`` or
            ``CampaignSupervisor``).
        target: Resolved qname of the shipped callable, or ``None``
            when it cannot be resolved statically (a variable, an
            attribute of unknown type, ...).
        arg: Compact source form of the callable expression, for
            messages.
        unpicklable: True when the expression is a lambda or a nested
            (closure) function — unshippable to ``spawn`` workers.
    """

    path: str
    line: int
    sink: str
    target: Optional[str]
    arg: str
    unpicklable: bool

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "sink": self.sink,
            "target": self.target,
            "arg": self.arg,
            "unpicklable": self.unpicklable,
        }

    @classmethod
    def from_json(cls, record: Dict[str, object]) -> "Shipment":
        target = record["target"]
        return cls(
            path=str(record["path"]),
            line=int(record["line"]),  # type: ignore[arg-type]
            sink=str(record["sink"]),
            target=None if target is None else str(target),
            arg=str(record["arg"]),
            unpicklable=bool(record["unpicklable"]),
        )


class CallGraph:
    """The project call graph: nodes, shipment sites, reachability."""

    def __init__(
        self,
        nodes: Iterable[CallGraphNode],
        shipments: Iterable[Shipment] = (),
    ) -> None:
        self._nodes: Dict[str, CallGraphNode] = {
            node.qname: node
            for node in sorted(nodes, key=lambda n: n.qname)
        }
        self._shipments: Tuple[Shipment, ...] = tuple(
            sorted(
                shipments,
                key=lambda s: (s.path, s.line, s.sink, s.arg),
            )
        )

    @property
    def nodes(self) -> Dict[str, CallGraphNode]:
        return dict(self._nodes)

    @property
    def shipments(self) -> Tuple[Shipment, ...]:
        return self._shipments

    def node(self, qname: str) -> Optional[CallGraphNode]:
        return self._nodes.get(qname)

    def resolve_callable(self, dotted: str) -> Optional[str]:
        """Map a dotted name to a node qname (a class to its __init__)."""
        if dotted in self._nodes:
            return dotted
        init = f"{dotted}.__init__"
        if init in self._nodes:
            return init
        return None

    def reachable(
        self, roots: Iterable[str]
    ) -> Dict[str, Tuple[str, ...]]:
        """BFS closure from ``roots``: qname -> path from its root.

        The returned path (``(root, ..., qname)``) is the first one
        found by a deterministic BFS over sorted roots and sorted call
        edges, so messages built from it are stable across runs.
        """
        paths: Dict[str, Tuple[str, ...]] = {}
        frontier: List[str] = []
        for root in sorted(set(roots)):
            if root in self._nodes and root not in paths:
                paths[root] = (root,)
                frontier.append(root)
        while frontier:
            nxt: List[str] = []
            for qname in frontier:
                for callee in self._nodes[qname].calls:
                    if callee in self._nodes and callee not in paths:
                        paths[callee] = paths[qname] + (callee,)
                        nxt.append(callee)
            frontier = sorted(nxt)
        return paths

    def to_json(self, key: str) -> Dict[str, object]:
        return {
            "schema": CALLGRAPH_SCHEMA,
            "version": CALLGRAPH_VERSION,
            "key": key,
            "nodes": [
                self._nodes[q].to_json() for q in sorted(self._nodes)
            ],
            "shipments": [s.to_json() for s in self._shipments],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "CallGraph":
        if payload.get("schema") != CALLGRAPH_SCHEMA:
            raise ValueError("not a call-graph artifact")
        if payload.get("version") != CALLGRAPH_VERSION:
            raise ValueError("call-graph artifact version mismatch")
        return cls(
            nodes=[
                CallGraphNode.from_json(r)
                for r in payload["nodes"]  # type: ignore[union-attr]
            ],
            shipments=[
                Shipment.from_json(r)
                for r in payload.get("shipments", [])  # type: ignore[union-attr]
            ],
        )


# ----------------------------------------------------------------------
# Indexing (pass A)
# ----------------------------------------------------------------------


@dataclass
class _ClassIndex:
    qname: str
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qname
    bases: List[str] = field(default_factory=list)  # local base names
    #: Instance-attribute types: attr -> class qname (from `self.x = Cls()`).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class _ModuleIndex:
    info: ModuleInfo
    package: str  # package the module lives in (itself for __init__)
    defs: Dict[str, str] = field(default_factory=dict)  # name -> qname
    classes: Dict[str, _ClassIndex] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)  # local -> dotted
    aliases: Dict[str, str] = field(default_factory=dict)  # g = f


def _module_package(info: ModuleInfo) -> str:
    if info.path.name == "__init__.py":
        return info.module
    head, _, _ = info.module.rpartition(".")
    return head


def _relative_base(package: str, level: int) -> str:
    """Package that a ``from ...x import y`` (level dots) resolves in."""
    parts = package.split(".") if package else []
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    return ".".join(parts)


def _index_module(info: ModuleInfo) -> _ModuleIndex:
    idx = _ModuleIndex(info=info, package=_module_package(info))
    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            idx.defs[node.name] = f"{info.module}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            cls = _ClassIndex(qname=f"{info.module}.{node.name}")
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = f"{cls.qname}.{item.name}"
            for base in node.bases:
                if isinstance(base, ast.Name):
                    cls.bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    cls.bases.append(base.attr)
            idx.classes[node.name] = cls
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                idx.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.names and node.names[0].name == "*":
                continue
            if node.level == 0:
                base = node.module or ""
            else:
                rel = _relative_base(idx.package, node.level)
                base = f"{rel}.{node.module}" if node.module else rel
            for alias in node.names:
                local = alias.asname or alias.name
                idx.imports[local] = f"{base}.{alias.name}" if base else alias.name
    # Module-level `g = f` aliases of local defs (second sweep so the
    # alias works regardless of statement order).
    for node in info.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Name)
            and node.value.id in idx.defs
        ):
            idx.aliases[node.targets[0].id] = idx.defs[node.value.id]
    return idx


# ----------------------------------------------------------------------
# Resolution (pass B)
# ----------------------------------------------------------------------


class _Resolver:
    """Resolves dotted names and call expressions across the project."""

    def __init__(self, indexes: Dict[str, _ModuleIndex]):
        self._by_module = indexes
        #: Every known symbol qname -> kind ("func" | "class" | "method").
        self._symbols: Dict[str, str] = {}
        for mod_idx in indexes.values():
            for qname in mod_idx.defs.values():
                self._symbols[qname] = "func"
            for cls in mod_idx.classes.values():
                self._symbols[cls.qname] = "class"
                for m_qname in cls.methods.values():
                    self._symbols[m_qname] = "method"
        #: Project root packages, to tell unresolved-internal from external.
        self._roots = {m.split(".")[0] for m in indexes}

    def class_index(self, class_qname: str) -> Optional[_ClassIndex]:
        module, _, name = class_qname.rpartition(".")
        mod_idx = self._by_module.get(module)
        if mod_idx is None:
            return None
        return mod_idx.classes.get(name)

    def resolve_dotted(self, dotted: str) -> Optional[str]:
        """Symbol qname for a dotted project name, else None.

        A class resolves to itself (callers map it to ``__init__`` when
        they need an executable node).  Handles symbols re-exported at
        most one attribute deep (``pkg.mod.Cls.method``).
        """
        if dotted in self._symbols:
            return dotted
        # `from pkg import mod` then `mod.Cls.method`: the chain walks
        # through a class: pkg.mod.Cls resolved + trailing method.
        head, _, tail = dotted.rpartition(".")
        if head in self._symbols and self._symbols[head] == "class":
            cls = self.class_index(head)
            if cls is not None and tail in cls.methods:
                return cls.methods[tail]
        return None

    def is_external(self, dotted: str) -> bool:
        return dotted.split(".")[0] not in self._roots

    def method_on(self, class_qname: str, name: str) -> Optional[str]:
        """Look up ``name`` on a class or (project) base classes."""
        seen: Set[str] = set()
        stack = [class_qname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.class_index(current)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            module, _, _ = current.rpartition(".")
            mod_idx = self._by_module.get(module)
            for base in cls.bases:
                base_qname = None
                if mod_idx is not None:
                    if base in mod_idx.classes:
                        base_qname = mod_idx.classes[base].qname
                    elif base in mod_idx.imports:
                        resolved = self.resolve_dotted(mod_idx.imports[base])
                        if resolved and self._symbols.get(resolved) == "class":
                            base_qname = resolved
                if base_qname is not None:
                    stack.append(base_qname)
        return None


class _FunctionVisitor:
    """Resolves the calls of one function body (not nested defs)."""

    def __init__(
        self,
        resolver: _Resolver,
        mod_idx: _ModuleIndex,
        class_qname: Optional[str],
        fn: ast.AST,
    ) -> None:
        self._resolver = resolver
        self._mod = mod_idx
        self._class = class_qname
        self._fn = fn
        self.calls: Set[str] = set()
        self.unresolved: Set[str] = set()
        self.shipments: List[Shipment] = []
        self._nested_names: Set[str] = set()
        self._var_types: Dict[str, str] = {}
        self._var_types.update(self._infer_locals())

    # -- local type inference ------------------------------------------

    def _class_of_call(self, call: ast.Call) -> Optional[str]:
        """Class qname when ``call`` is a direct project-class construction."""
        target = self._resolve_callee_symbol(call.func)
        if target is not None and self._resolver.class_index(target):
            return target
        return None

    def _infer_locals(self) -> Dict[str, str]:
        """Map local names to class qnames from ``x = Cls(...)`` binds."""
        out: Dict[str, str] = {}
        for node in self._own_nodes():
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                cls = self._class_of_call(node.value)
                if cls is not None:
                    out[node.targets[0].id] = cls
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._nested_names.add(node.name)
        return out

    def _own_nodes(self) -> Iterable[ast.AST]:
        """Walk the body without descending into nested defs/lambdas."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(self._fn))
        while stack:
            node = stack.pop(0)
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    # -- symbol resolution ---------------------------------------------

    def _resolve_name(self, name: str) -> Optional[str]:
        """Resolve a bare name in this function's scope to a symbol."""
        if name in self._nested_names and not isinstance(
            self._fn, ast.Module
        ):
            qname_base = _node_qname_base(self._fn, self._class, self._mod)
            return f"{qname_base}.<locals>.{name}"
        if name in self._mod.defs:
            return self._mod.defs[name]
        if name in self._mod.classes:
            return self._mod.classes[name].qname
        if name in self._mod.aliases:
            return self._mod.aliases[name]
        if name in self._mod.imports:
            return self._resolver.resolve_dotted(self._mod.imports[name])
        return None

    def _resolve_callee_symbol(self, func: ast.AST) -> Optional[str]:
        """Resolve a call's func expression to a symbol qname."""
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id)
        chain = attr_chain(func)
        if chain is None:
            # super().m(...): dispatch into the first project base.
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and self._class is not None
            ):
                cls = self._resolver.class_index(self._class)
                if cls is not None:
                    module, _, _ = self._class.rpartition(".")
                    mod_idx = self._resolver._by_module.get(module)
                    for base in cls.bases:
                        base_q = None
                        if mod_idx is not None and base in mod_idx.classes:
                            base_q = mod_idx.classes[base].qname
                        elif mod_idx is not None and base in mod_idx.imports:
                            base_q = self._resolver.resolve_dotted(
                                mod_idx.imports[base]
                            )
                        if base_q is not None:
                            found = self._resolver.method_on(base_q, func.attr)
                            if found is not None:
                                return found
            return None
        head = chain[0]
        if head == "self" and self._class is not None:
            if len(chain) == 2:
                return self._resolver.method_on(self._class, chain[1])
            if len(chain) == 3:
                cls = self._resolver.class_index(self._class)
                if cls is not None and chain[1] in cls.attr_types:
                    return self._resolver.method_on(
                        cls.attr_types[chain[1]], chain[2]
                    )
            return None
        if head in self._var_types and len(chain) == 2:
            return self._resolver.method_on(self._var_types[head], chain[1])
        if head in self._mod.imports:
            dotted = self._mod.imports[head] + "." + ".".join(chain[1:])
            if self._resolver.is_external(dotted):
                return None
            return self._resolver.resolve_dotted(dotted)
        if head in self._mod.classes and len(chain) == 2:
            # ClassName.method(instance, ...) — rare but cheap to cover.
            return self._resolver.method_on(
                self._mod.classes[head].qname, chain[1]
            )
        return None

    # -- call recording ------------------------------------------------

    def _record_unresolved(self, func: ast.AST) -> None:
        if isinstance(func, ast.Name):
            if func.id not in _BUILTINS:
                self.unresolved.add(func.id)
            return
        chain = attr_chain(func)
        if chain is None:
            if isinstance(func, ast.Attribute):
                self.unresolved.add(f".{func.attr}")
            return
        head = chain[0]
        if head in self._mod.imports:
            dotted = self._mod.imports[head] + "." + ".".join(chain[1:])
            self.unresolved.add(dotted)
        else:
            self.unresolved.add(f".{chain[-1]}")

    def _sink_of(self, func: ast.AST, symbol: Optional[str]) -> Optional[str]:
        """Shipment-sink name when this call targets the pool layer."""
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        else:
            chain = attr_chain(func)
            if chain is not None:
                name = chain[-1]
            elif isinstance(func, ast.Attribute):
                name = func.attr
        if symbol is not None:
            tail = symbol.rsplit(".", 1)[-1]
            if tail in _SHIPMENT_SINKS:
                return tail
        if name in _SHIPMENT_SINKS:
            return name
        return None

    def _record_shipment(self, call: ast.Call, sink: str) -> None:
        pos, kw = _SHIPMENT_SINKS[sink]
        arg: Optional[ast.AST] = None
        for keyword in call.keywords:
            if keyword.arg == kw:
                arg = keyword.value
                break
        if arg is None and len(call.args) > pos:
            arg = call.args[pos]
        if arg is None or (
            isinstance(arg, ast.Constant) and arg.value is None
        ):
            return
        unpicklable = isinstance(arg, ast.Lambda) or (
            isinstance(arg, ast.Name) and arg.id in self._nested_names
        )
        target: Optional[str] = None
        if not unpicklable:
            target = self._resolve_callee_symbol(arg)
            if target is not None:
                resolved_node = self._resolver.resolve_dotted(target)
                if resolved_node is None:
                    target = None
        arg_src = ast.unparse(arg)
        self.shipments.append(
            Shipment(
                path=self._mod.info.rel,
                line=call.lineno,
                sink=sink,
                target=target,
                arg=arg_src,
                unpicklable=unpicklable,
            )
        )

    def visit(self) -> None:
        for node in self._own_nodes():
            if not isinstance(node, ast.Call):
                continue
            symbol = self._resolve_callee_symbol(node.func)
            sink = self._sink_of(node.func, symbol)
            if sink is not None:
                self._record_shipment(node, sink)
            if symbol is None:
                self._record_unresolved(node.func)
                continue
            kind = self._resolver._symbols.get(symbol)
            if kind == "class":
                cls = self._resolver.class_index(symbol)
                init = cls.methods.get("__init__") if cls else None
                if init is not None:
                    self.calls.add(init)
                continue
            if kind is None:
                # Nested-def qname (not in the symbol table): keep it.
                if ".<locals>." not in symbol:
                    continue
            self.calls.add(symbol)


def _node_qname_base(
    fn: ast.AST, class_qname: Optional[str], mod_idx: _ModuleIndex
) -> str:
    name = getattr(fn, "name", None) or f"<lambda@{fn.lineno}>"
    if class_qname is not None:
        return f"{class_qname}.{name}"
    return f"{mod_idx.info.module}.{name}"


def _collect_attr_types(
    resolver: _Resolver, indexes: Dict[str, _ModuleIndex]
) -> None:
    """Fill each class's ``attr_types`` from ``self.x = Cls(...)`` binds."""
    for module in sorted(indexes):
        mod_idx = indexes[module]
        for node in mod_idx.info.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = mod_idx.classes[node.name]
            helper = _FunctionVisitor(resolver, mod_idx, cls.qname, node)
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Assign):
                    continue
                if len(stmt.targets) != 1 or not isinstance(
                    stmt.value, ast.Call
                ):
                    continue
                chain = attr_chain(stmt.targets[0])
                if chain is None or len(chain) != 2 or chain[0] != "self":
                    continue
                typed = helper._class_of_call(stmt.value)
                if typed is not None:
                    cls.attr_types[chain[1]] = typed


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------


def _walk_callables(
    mod_idx: _ModuleIndex,
) -> Iterable[Tuple[str, Optional[str], str, ast.AST]]:
    """Yield ``(qname, class_qname, kind, node)`` for every callable.

    Nested defs and lambdas get ``<locals>``-style qnames under their
    enclosing callable, matching CPython's ``__qualname__`` shape.
    """

    def walk(
        node: ast.AST, prefix: str, class_qname: Optional[str], top: bool
    ) -> Iterable[Tuple[str, Optional[str], str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{child.name}"
                kind = (
                    "method"
                    if class_qname is not None and top
                    else ("function" if top else "nested")
                )
                yield (qname, class_qname, kind, child)
                yield from walk(child, f"{qname}.<locals>", class_qname, False)
            elif isinstance(child, ast.Lambda):
                qname = f"{prefix}.<lambda@{child.lineno}>"
                yield (qname, class_qname, "lambda", child)
                yield from walk(child, f"{qname}.<locals>", class_qname, False)
            elif isinstance(child, ast.ClassDef) and top:
                cls_qname = f"{prefix}.{child.name}"
                yield from walk(child, cls_qname, cls_qname, True)
            else:
                yield from walk(child, prefix, class_qname, top)

    yield from walk(mod_idx.info.tree, mod_idx.info.module, None, True)


def build_graph(modules: Sequence[ModuleInfo]) -> CallGraph:
    """Build the project call graph from parsed modules (two passes)."""
    indexes: Dict[str, _ModuleIndex] = {}
    for info in modules:
        indexes[info.module] = _index_module(info)
    resolver = _Resolver(indexes)
    _collect_attr_types(resolver, indexes)

    nodes: List[CallGraphNode] = []
    shipments: List[Shipment] = []
    for module in sorted(indexes):
        mod_idx = indexes[module]
        for qname, class_qname, kind, fn in _walk_callables(mod_idx):
            visitor = _FunctionVisitor(resolver, mod_idx, class_qname, fn)
            visitor.visit()
            calls = set(visitor.calls)
            # Defining a nested callable is an edge: if this function is
            # reachable, its closures can escape into worker processes.
            for child in ast.iter_child_nodes(fn):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    calls.add(f"{qname}.<locals>.{child.name}")
                elif isinstance(child, ast.Lambda):
                    calls.add(f"{qname}.<lambda@{child.lineno}>")
            for child in ast.walk(fn):
                if isinstance(child, ast.Lambda) and child is not fn:
                    calls.add(f"{qname}.<lambda@{child.lineno}>")
            nodes.append(
                CallGraphNode(
                    qname=qname,
                    module=module,
                    path=mod_idx.info.rel,
                    line=fn.lineno,
                    kind=kind,
                    calls=tuple(sorted(calls)),
                    unresolved=tuple(sorted(visitor.unresolved)),
                )
            )
            shipments.extend(visitor.shipments)
        # Module top level also ships callables (rare, but cheap).
        top = _FunctionVisitor(resolver, mod_idx, None, mod_idx.info.tree)
        top.visit()
        shipments.extend(top.shipments)
    return CallGraph(nodes=nodes, shipments=shipments)


# ----------------------------------------------------------------------
# Cache artifact
# ----------------------------------------------------------------------


def source_key(modules: Sequence[ModuleInfo]) -> str:
    """Content hash over every module source: the cache artifact key."""
    digest = hashlib.sha256()
    digest.update(f"{CALLGRAPH_SCHEMA}:{CALLGRAPH_VERSION}".encode("utf-8"))
    for info in sorted(modules, key=lambda m: m.rel):
        body = hashlib.sha256(info.source.encode("utf-8")).hexdigest()
        digest.update(f"\n{info.rel}\n{body}".encode("utf-8"))
    return digest.hexdigest()


def graph_to_bytes(graph: CallGraph, key: str) -> bytes:
    """Canonical serialized form — deterministic byte-for-byte."""
    return (
        json.dumps(
            graph.to_json(key), indent=2, sort_keys=True, ensure_ascii=True
        )
        + "\n"
    ).encode("utf-8")


def project_graph(
    modules: Sequence[ModuleInfo], cache_dir: Optional[Path] = None
) -> CallGraph:
    """Return the call graph, via the on-disk cache when one is given.

    The artifact is keyed by the content hash of every source file, so
    any edit misses and triggers a cold rebuild.  A corrupt, truncated,
    or stale-schema artifact is also a miss, never an error; the fresh
    build overwrites it atomically.  Cold and warm runs yield the same
    graph (byte-identical serializations — pinned in tests).
    """
    key = source_key(modules)
    artifact: Optional[Path] = None
    if cache_dir is not None:
        artifact = Path(cache_dir) / f"callgraph-{key[:16]}.json"
        try:
            payload = json.loads(artifact.read_text(encoding="utf-8"))
            if payload.get("key") == key:
                return CallGraph.from_json(payload)
        except (  # parmlint: ok[silent-except] - corrupt cache == miss
            FileNotFoundError,
            KeyError,
            TypeError,
            ValueError,
            UnicodeDecodeError,
        ):
            # A damaged or stale artifact is a miss, never an error:
            # fall through to a cold rebuild which overwrites it.
            pass
    graph = build_graph(modules)
    if artifact is not None:
        artifact.parent.mkdir(parents=True, exist_ok=True)
        tmp = artifact.with_suffix(".tmp")
        tmp.write_bytes(graph_to_bytes(graph, key))
        tmp.replace(artifact)
    return graph


def index_functions(
    modules: Sequence[ModuleInfo],
) -> Dict[str, Tuple[ModuleInfo, ast.AST]]:
    """Map every callable qname to its ``(ModuleInfo, ast node)``.

    Rebuilt fresh each run (never cached): rules need live AST nodes,
    which do not survive serialization.
    """
    out: Dict[str, Tuple[ModuleInfo, ast.AST]] = {}
    for info in sorted(modules, key=lambda m: m.rel):
        mod_idx = _index_module(info)
        for qname, _class_qname, _kind, fn in _walk_callables(mod_idx):
            out[qname] = (info, fn)
    return out
