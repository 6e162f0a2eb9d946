"""Rule registry and visitor engine for parmlint.

The engine separates three concerns:

* **Discovery** — enumerate ``.py`` files under a root in sorted order
  (deterministic output is itself one of parmlint's rules, so the
  linter holds itself to it).
* **Parsing** — each file becomes a :class:`ModuleInfo` carrying its
  AST, dotted module name, and suppression-pragma index.  Files that do
  not parse yield a synthetic ``parse-error`` finding instead of
  crashing the run.
* **Checking** — every registered :class:`Rule` gets a per-module hook
  (:meth:`Rule.check_module`) and a whole-project hook
  (:meth:`Rule.check_project`, used by e.g. the import-cycle rule).
  :class:`ProjectRule` subclasses additionally receive a
  :class:`ProjectContext` carrying the interprocedural call graph
  (:mod:`repro.analysis.callgraph`), built once per run and shared by
  every such rule.

Findings suppressed by a pragma are counted but not reported; baseline
filtering happens in the CLI layer so library callers always see the
full picture.
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.pragmas import PragmaIndex, parse_pragmas

PARSE_ERROR_RULE = "parse-error"


@dataclass
class ModuleInfo:
    """One parsed source file, as seen by the rules."""

    path: Path
    rel: str
    module: str
    source: str
    tree: ast.Module
    pragmas: PragmaIndex

    @property
    def package_parts(self) -> Sequence[str]:
        """Dotted-name components, e.g. ``("repro", "pdn", "fast")``."""
        return tuple(self.module.split("."))


class Rule:
    """Base class for parmlint rules.

    Subclasses set :attr:`id`/:attr:`description` and override one (or
    both) of the check hooks.  Hooks yield raw findings; the engine
    applies pragma suppression afterwards, so rules never need to look
    at comments themselves.
    """

    id: str = "abstract"
    description: str = ""

    def check_module(self, mod: ModuleInfo) -> Iterable[Finding]:
        return ()

    def check_project(self, mods: Sequence[ModuleInfo]) -> Iterable[Finding]:
        return ()

    def finding(self, mod: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=mod.rel,
            line=getattr(node, "lineno", 0),
            message=message,
        )


@dataclass
class ProjectContext:
    """Everything an interprocedural rule can see in one run.

    Attributes:
        modules: All parsed modules, in discovery (sorted-path) order.
        graph: The project :class:`repro.analysis.callgraph.CallGraph`
            (possibly loaded from cache).  Typed ``Any`` here because
            callgraph builds on this module; the engine loads it at run
            time (importlib) to keep the static import graph acyclic.
        functions: qname -> ``(ModuleInfo, ast node)`` for every
            callable in the project; always built fresh because cached
            graphs do not carry live AST nodes.
    """

    modules: Sequence[ModuleInfo]
    graph: Any
    functions: Dict[str, Tuple[ModuleInfo, ast.AST]]



class ProjectRule(Rule):
    """A rule that consumes the interprocedural call graph.

    Registering at least one ProjectRule makes the engine build (or
    load from cache) the call graph once per run and hand it to every
    such rule via :meth:`check_graph`.  Findings flow through the same
    pragma-suppression and baseline machinery as any other rule: a
    ``# parmlint: ok[rule]`` pragma at the finding's (path, line) — by
    convention the *mutation/violation site*, not the root — suppresses
    it even when the reachability path spans several modules.
    """

    def check_graph(self, ctx: ProjectContext) -> Iterable[Finding]:
        return ()


@dataclass
class LintResult:
    """Outcome of one engine run (before baseline filtering)."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0


def _module_name(rel_posix: str) -> str:
    parts = rel_posix[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "__init__"


def discover_files(root: Path) -> List[Path]:
    """All ``.py`` files under ``root``, sorted for stable output."""
    return sorted(p for p in root.rglob("*.py") if p.is_file())


def load_module(path: Path, root: Path) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo`.

    Raises:
        SyntaxError: when the file does not parse; the engine converts
            this into a ``parse-error`` finding.
    """
    source = path.read_text()
    rel = path.relative_to(root.parent).as_posix()
    return ModuleInfo(
        path=path,
        rel=rel,
        module=_module_name(path.relative_to(root.parent).as_posix()),
        source=source,
        tree=ast.parse(source, filename=str(path)),
        pragmas=parse_pragmas(source),
    )


class LintEngine:
    """Applies a rule set to every Python file under a root directory.

    Args:
        rules: Rule instances to apply.  Rule ids must be unique.
    """

    def __init__(self, rules: Sequence[Rule]):
        seen = set()
        for rule in rules:
            if rule.id in seen:
                raise ValueError(f"duplicate rule id: {rule.id!r}")
            seen.add(rule.id)
        self._rules = list(rules)

    @property
    def rules(self) -> Sequence[Rule]:
        return tuple(self._rules)

    def run(self, root: Path, cache_dir: Optional[Path] = None) -> LintResult:
        """Lint every ``.py`` file under ``root`` (a package directory).

        Args:
            root: Package directory to lint.
            cache_dir: Optional directory for the call-graph artifact.
                Only consulted when a :class:`ProjectRule` is
                registered; ``None`` always builds the graph in memory.
        """
        result = LintResult()
        modules: List[ModuleInfo] = []
        for path in discover_files(root):
            result.files_checked += 1
            try:
                modules.append(load_module(path, root))
            except SyntaxError as exc:
                result.findings.append(
                    Finding(
                        rule=PARSE_ERROR_RULE,
                        path=path.relative_to(root.parent).as_posix(),
                        line=exc.lineno or 0,
                        message=f"file does not parse: {exc.msg}",
                    )
                )

        for mod in modules:
            for rule in self._rules:
                for finding in rule.check_module(mod):
                    if mod.pragmas.suppresses(finding.rule, finding.line):
                        result.suppressed += 1
                    else:
                        result.findings.append(finding)

        by_rel = {mod.rel: mod for mod in modules}

        def emit(finding: Finding) -> None:
            mod = by_rel.get(finding.path)
            if mod is not None and mod.pragmas.suppresses(
                finding.rule, finding.line
            ):
                result.suppressed += 1
            else:
                result.findings.append(finding)

        for rule in self._rules:
            for finding in rule.check_project(modules):
                emit(finding)

        project_rules = [r for r in self._rules if isinstance(r, ProjectRule)]
        if project_rules:
            # callgraph imports ModuleInfo from this module, so the
            # engine loads it at run time (importlib, as supervisor does
            # for the pool): the dependency is one-way per call and the
            # static import graph stays acyclic.
            callgraph = importlib.import_module("repro.analysis.callgraph")
            ctx = ProjectContext(
                modules=modules,
                graph=callgraph.project_graph(modules, cache_dir=cache_dir),
                functions=callgraph.index_functions(modules),
            )
            for rule in project_rules:
                for finding in rule.check_graph(ctx):
                    emit(finding)

        result.findings.sort(key=lambda f: f.sort_key)
        return result
