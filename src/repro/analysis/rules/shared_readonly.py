"""Rule ``shared-readonly``: declared shared lookup arrays are write-once.

Large numpy lookup state — route tables, topology tables, PSN kernel
matrices, PDN transient plans — is built once per process, cached, and
shared by every lane, engine and solve that reads it.  A write to such
an array after its owning constructor finishes silently changes the
results of every other reader of the cache.

Classes opt in by declaring the contract as a plain class attribute::

    class MeshTopology:
        __shared_readonly__ = ("_towards", "_neighbor_codes")
        __shared_readonly_init__ = ("neighbor_codes",)  # optional

``__shared_readonly__`` names instance attributes (numpy arrays) that
are read-only once constructed; ``__shared_readonly_init__`` names
additional builder methods (lazy constructors) allowed to write them,
on top of the always-allowed ``__init__``/``__post_init__``.

Enforcement is project-wide and deliberately name-conservative: *any*
``x.attr[...] = v``, ``x.attr += v``, ``x.attr = v``,
``np.copyto(x.attr, ...)``, or in-place ndarray method call
(``fill``/``sort``/``put``/``partition``/``resize``/``setflags``) on a
registered attribute name is flagged unless it happens inside an
allowed writer of a class registering that name.  Matching by name
(not by proven receiver type) trades a small false-positive risk —
pragma those — for catching every real escape, including writes
through aliases the type inference cannot see.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.astwalk import own_nodes
from repro.analysis.engine import ModuleInfo, ProjectContext, ProjectRule
from repro.analysis.findings import Finding
from repro.analysis.rules._util import attr_chain

DECL_NAME = "__shared_readonly__"
DECL_INIT_NAME = "__shared_readonly_init__"

#: Always-allowed writer methods of a declaring class.
_CTOR_METHODS = ("__init__", "__post_init__")

#: ndarray methods that mutate the array in place.
_ARRAY_MUTATORS = frozenset(
    {"fill", "partition", "put", "resize", "setflags", "sort", "byteswap"}
)


def _string_tuple(value: ast.AST) -> Optional[Tuple[str, ...]]:
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    out: List[str] = []
    for element in value.elts:
        if isinstance(element, ast.Constant) and isinstance(
            element.value, str
        ):
            out.append(element.value)
        else:
            return None
    return tuple(out)


def collect_declarations(
    modules: Sequence[ModuleInfo],
) -> Dict[str, Set[str]]:
    """Map registered attr name -> allowed writer qnames, project-wide.

    Writers are ``{class_qname}.{method}`` strings for every declaring
    class's constructors and ``__shared_readonly_init__`` entries.
    """
    writers: Dict[str, Set[str]] = {}
    for mod in modules:
        for node in mod.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            attrs: Tuple[str, ...] = ()
            extra: Tuple[str, ...] = ()
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name):
                        parsed = _string_tuple(stmt.value)
                        if parsed is None:
                            continue
                        if target.id == DECL_NAME:
                            attrs = parsed
                        elif target.id == DECL_INIT_NAME:
                            extra = parsed
            if not attrs:
                continue
            class_qname = f"{mod.module}.{node.name}"
            allowed = {
                f"{class_qname}.{method}"
                for method in tuple(_CTOR_METHODS) + extra
            }
            for attr in attrs:
                writers.setdefault(attr, set()).update(allowed)
    return writers


class SharedReadonlyRule(ProjectRule):
    id = "shared-readonly"
    description = (
        "attributes declared __shared_readonly__ (worker-shared numpy "
        "state) must not be written outside their owning constructor"
    )

    def check_graph(self, ctx: ProjectContext) -> Iterable[Finding]:
        writers = collect_declarations(ctx.modules)
        if not writers:
            return []
        findings: List[Finding] = []
        for qname in sorted(ctx.functions):
            mod, fn = ctx.functions[qname]
            findings.extend(self._scan(mod, fn, qname, writers))
        for mod in ctx.modules:
            findings.extend(self._scan(mod, mod.tree, mod.module, writers))
        unique = {(f.path, f.line, f.message): f for f in findings}
        return [unique[key] for key in sorted(unique)]

    def _registered_attr(
        self, expr: ast.AST, writers: Dict[str, Set[str]]
    ) -> Optional[str]:
        """The registered attribute name when ``expr`` reads one."""
        if isinstance(expr, ast.Attribute) and expr.attr in writers:
            return expr.attr
        return None

    def _scan(
        self,
        mod: ModuleInfo,
        fn: ast.AST,
        qname: str,
        writers: Dict[str, Set[str]],
    ) -> Iterable[Finding]:
        def allowed(attr: str) -> bool:
            return qname in writers[attr]

        def flag(node: ast.AST, attr: str, how: str) -> None:
            out.append(
                Finding(
                    rule=self.id,
                    path=mod.rel,
                    line=node.lineno,
                    message=(
                        f"{how} `{attr}` (declared __shared_readonly__) "
                        f"outside an owning constructor, in `{qname}`"
                    ),
                )
            )

        out: List[Finding] = []
        for node in own_nodes(fn):
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call):
                self._scan_call(node, writers, allowed, flag)
                continue
            else:
                continue
            for target in targets:
                self._scan_target(node, target, writers, allowed, flag)
        return out

    def _scan_target(self, node, target, writers, allowed, flag) -> None:
        verb = (
            "augmented write to"
            if isinstance(node, ast.AugAssign)
            else "write to"
        )
        if isinstance(target, ast.Attribute):
            attr = self._registered_attr(target, writers)
            if attr is not None and not allowed(attr):
                flag(node, attr, f"{verb} attribute")
        elif isinstance(target, ast.Subscript):
            attr = self._registered_attr(target.value, writers)
            if attr is not None and not allowed(attr):
                flag(node, attr, f"{verb} element of")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_target(node, element, writers, allowed, flag)

    def _scan_call(self, node: ast.Call, writers, allowed, flag) -> None:
        # np.copyto(x.attr, ...) — any alias of numpy still ends .copyto.
        chain = attr_chain(node.func)
        if chain is not None and chain[-1] == "copyto" and node.args:
            attr = self._registered_attr(node.args[0], writers)
            if attr is not None and not allowed(attr):
                flag(node, attr, "np.copyto into")
            return
        # x.attr.fill(...) and friends: func is Attribute(mutator) whose
        # value reads a registered attribute.
        if isinstance(node.func, ast.Attribute) and (
            node.func.attr in _ARRAY_MUTATORS
        ):
            attr = self._registered_attr(node.func.value, writers)
            if attr is not None and not allowed(attr):
                flag(node, attr, f"in-place `{node.func.attr}` on")
