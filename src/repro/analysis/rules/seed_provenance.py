"""Rule ``seed-provenance``: every RNG seed must trace to a blessed origin.

PR 6 replaced additive seed offsets (``base + 1000 * i`` — collision
prone across campaigns) with hash-derived streams from
``repro.harness.seeding.derive_seed(s)``.  This rule keeps ad-hoc
integer arithmetic from creeping back in: the argument of every RNG
constructor (``default_rng(x)``, ``random.Random(x)``,
``SeedSequence(x)``, bit generators) must *trace*, through assignments,
tuple unpacking, attribute/subscript reads and project-call summaries,
back to one of:

* a call to ``derive_seed``/``derive_seeds`` (including via a helper
  whose returns all trace there — call summaries are computed to a
  fixpoint over the project);
* an explicit function parameter (the caller owns provenance — e.g.
  ``def run_batch(points): rng = default_rng(points[0].seed)``);
* a whitelisted pure converter of the above (``int``, ``abs``,
  ``zip``/``enumerate``/``sorted``/``tuple``/``list``/``min``/``max``).

Literals and arithmetic (``BinOp``/``UnaryOp``) are *not* acceptable:
``default_rng(seed * 1000 + i)`` is exactly the collision class the
derive_seed migration removed.  Legacy pinned streams keep their bytes
via ``derive_seeds(..., pinned=...)`` or a
``# parmlint: ok[seed-provenance]`` pragma at the constructor site with
a justification comment.

Zero-argument constructors (OS entropy) are the seeded-rng rule's job;
this rule only fires on constructors given at least one argument.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.astwalk import own_nodes
from repro.analysis.engine import ModuleInfo, ProjectContext, ProjectRule
from repro.analysis.findings import Finding
from repro.analysis.rules._util import attr_chain, from_imports, module_aliases

#: The blessed seed-derivation functions (repro.harness.seeding).
DERIVE_FUNCS = frozenset({"derive_seed", "derive_seeds"})

#: RNG constructors whose seed argument this rule checks.
SEEDED_CTORS = frozenset(
    {
        "default_rng", "Generator", "SeedSequence", "RandomState",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "Random",
    }
)

#: Pure converters/combinators that preserve provenance when at least
#: one argument is traced (and the rest are traced or constant).
_CONVERTERS = frozenset(
    {
        "abs", "enumerate", "int", "list", "max", "min", "range",
        "reversed", "sorted", "sum", "tuple", "zip",
    }
)


def _derive_aliases(mod: ModuleInfo) -> Set[str]:
    """Local names bound to derive_seed/derive_seeds in this module."""
    aliases: Set[str] = set()
    for name, local, _lineno in from_imports(mod.tree, "repro.harness.seeding"):
        if name in DERIVE_FUNCS:
            aliases.add(local)
    return aliases


def _seeding_module_aliases(mod: ModuleInfo) -> Set[str]:
    return module_aliases(mod.tree, "repro.harness.seeding") | module_aliases(
        mod.tree, "seeding"
    )


class _ModuleAliases(NamedTuple):
    """One module's import aliases, each a walk of the whole module AST.

    Built once per module per check, not once per traced function.
    """

    derive: Set[str]
    seeding_mods: Set[str]
    rng_modules: Set[str]
    ctor_locals: Dict[str, str]


def _module_aliases(mod: ModuleInfo) -> _ModuleAliases:
    rng_modules, ctor_locals = _ctor_aliases(mod)
    return _ModuleAliases(
        _derive_aliases(mod),
        _seeding_module_aliases(mod),
        rng_modules,
        ctor_locals,
    )


class _Tracer:
    """Intra-procedural seed-provenance tracking for one callable."""

    def __init__(
        self,
        mod: ModuleInfo,
        fn: ast.AST,
        summaries: Dict[str, bool],
        resolve_call: "_CallResolver",
        aliases: _ModuleAliases,
    ) -> None:
        self._mod = mod
        self._fn = fn
        self._summaries = summaries
        self._resolve = resolve_call
        self._derive_aliases = aliases.derive
        self._seeding_mods = aliases.seeding_mods
        self.ok: Set[str] = set()
        args = getattr(fn, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                self.ok.add(arg.arg)
        self.returns_ok = True
        self.saw_return = False

    # -- provenance predicate ------------------------------------------

    def _is_derive_call(self, func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id in self._derive_aliases
        chain = attr_chain(func)
        if chain is None:
            return False
        return chain[-1] in DERIVE_FUNCS and (
            chain[0] in self._seeding_mods or len(chain) >= 2
        )

    def is_ok(self, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.ok
        if isinstance(expr, ast.Attribute):
            return self.is_ok(expr.value)
        if isinstance(expr, ast.Subscript):
            return self.is_ok(expr.value)
        if isinstance(expr, ast.Starred):
            return self.is_ok(expr.value)
        if isinstance(expr, ast.IfExp):
            return self.is_ok(expr.body) and self.is_ok(expr.orelse)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return all(self.is_ok(e) for e in expr.elts)
        if isinstance(expr, ast.Call):
            if self._is_derive_call(expr.func):
                return True
            if isinstance(expr.func, ast.Name) and expr.func.id in _CONVERTERS:
                traced = [a for a in expr.args if self.is_ok(a)]
                rest_const = all(
                    isinstance(a, ast.Constant) or self.is_ok(a)
                    for a in expr.args
                )
                return bool(traced) and rest_const
            target = self._resolve(self._mod, self._fn, expr.func)
            if target is not None and self._summaries.get(target, False):
                return True
            return False
        return False

    # -- statement walk -------------------------------------------------

    def _handle_assign(self, targets: Sequence[ast.AST], value: ast.AST) -> None:
        value_ok = self.is_ok(value)
        for target in targets:
            self._bind(target, value_ok)

    def _bind(self, target: ast.AST, value_ok: bool) -> None:
        if isinstance(target, ast.Name):
            if value_ok:
                self.ok.add(target.id)
            else:
                self.ok.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, value_ok)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value_ok)

    def walk(self) -> None:
        if isinstance(self._fn, ast.Lambda):
            return  # expression body: nothing binds, params are ok
        self._walk_body(getattr(self._fn, "body", []))

    def _walk_body(self, body: Sequence[ast.AST]) -> None:
        for node in body:
            self._walk_stmt(node)

    def _walk_stmt(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are their own call-graph nodes
        if isinstance(node, ast.Assign):
            self._handle_assign(node.targets, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._handle_assign([node.target], node.value)
        elif isinstance(node, ast.AugAssign):
            # Arithmetic kills provenance: seed += i is the collision
            # class this rule exists to keep out.
            self._bind(node.target, False)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._bind(node.target, self.is_ok(node.iter))
            self._walk_body(node.body)
            self._walk_body(node.orelse)
        elif isinstance(node, (ast.While, ast.If)):
            self._walk_body(node.body)
            self._walk_body(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, self.is_ok(item.context_expr))
            self._walk_body(node.body)
        elif isinstance(node, ast.Try):
            self._walk_body(node.body)
            for handler in node.handlers:
                self._walk_body(handler.body)
            self._walk_body(node.orelse)
            self._walk_body(node.finalbody)
        elif isinstance(node, ast.Return):
            self.saw_return = True
            if node.value is None or not self.is_ok(node.value):
                self.returns_ok = False


class _CallResolver:
    """Maps a call expression to a project-function qname (best effort)."""

    def __init__(self, ctx: ProjectContext):
        self._defs: Dict[Tuple[str, str], str] = {}
        self._imports: Dict[Tuple[str, str], str] = {}
        for mod in ctx.modules:
            for node in mod.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._defs[(mod.module, node.name)] = (
                        f"{mod.module}.{node.name}"
                    )
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    base = node.module or ""
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        local = alias.asname or alias.name
                        self._imports[(mod.module, local)] = (
                            f"{base}.{alias.name}" if base else alias.name
                        )
        self._known = set(self._defs.values())

    def __call__(
        self, mod: ModuleInfo, fn: ast.AST, func: ast.AST
    ) -> Optional[str]:
        if isinstance(func, ast.Name):
            local = self._defs.get((mod.module, func.id))
            if local is not None:
                return local
            imported = self._imports.get((mod.module, func.id))
            if imported is not None and imported in self._known:
                return imported
            return None
        chain = attr_chain(func)
        if chain is not None and len(chain) == 2:
            # mod_alias.helper(...) — try every module whose tail matches.
            dotted = self._imports.get((mod.module, chain[0]))
            if dotted is not None:
                candidate = f"{dotted}.{chain[1]}"
                if candidate in self._known:
                    return candidate
        return None


def _ctor_aliases(mod: ModuleInfo) -> Tuple[Set[str], Dict[str, str]]:
    """RNG-module aliases + from-imported constructor local names."""
    rng_modules = (
        module_aliases(mod.tree, "random")
        | module_aliases(mod.tree, "numpy")
        | module_aliases(mod.tree, "numpy.random")
    )
    ctor_locals: Dict[str, str] = {}
    for source in ("random", "numpy.random"):
        for name, local, _lineno in from_imports(mod.tree, source):
            if name in SEEDED_CTORS:
                ctor_locals[local] = name
    return rng_modules, ctor_locals


def _seed_argument(call: ast.Call) -> Optional[ast.AST]:
    """The seed expression of an RNG constructor call, if any."""
    for keyword in call.keywords:
        if keyword.arg in ("seed", "entropy"):
            return keyword.value
    if call.args:
        return call.args[0]
    return None


class SeedProvenanceRule(ProjectRule):
    id = "seed-provenance"
    description = (
        "RNG constructor seeds must trace to derive_seed(s), a pinned "
        "stream, or an explicit function parameter - no literals or "
        "seed arithmetic"
    )

    def _compute_summaries(
        self,
        ctx: ProjectContext,
        resolve: _CallResolver,
        aliases: Dict[str, _ModuleAliases],
    ) -> Dict[str, bool]:
        """Fixpoint: does a function's every return trace to a seed origin?"""
        summaries: Dict[str, bool] = {}
        items = sorted(ctx.functions)
        for _round in range(3):
            changed = False
            for qname in items:
                mod, fn = ctx.functions[qname]
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                tracer = _Tracer(
                    mod, fn, summaries, resolve, aliases[mod.rel]
                )
                tracer.walk()
                verdict = tracer.saw_return and tracer.returns_ok
                if summaries.get(qname) != verdict:
                    summaries[qname] = verdict
                    changed = True
            if not changed:
                break
        return summaries

    def check_graph(self, ctx: ProjectContext) -> Iterable[Finding]:
        resolve = _CallResolver(ctx)
        # Keyed by path: ModuleInfo itself is unhashable.
        aliases = {mod.rel: _module_aliases(mod) for mod in ctx.modules}
        summaries = self._compute_summaries(ctx, resolve, aliases)
        findings: List[Finding] = []
        callables = [ctx.functions[qname] for qname in sorted(ctx.functions)]
        # Module top level: constructors outside any def.
        callables.extend((mod, mod.tree) for mod in ctx.modules)
        for mod, fn in callables:
            mod_aliases = aliases[mod.rel]
            if not mod_aliases.rng_modules and not mod_aliases.ctor_locals:
                continue
            tracer = _Tracer(mod, fn, summaries, resolve, mod_aliases)
            findings.extend(
                self._check_callable(
                    mod,
                    fn,
                    tracer,
                    mod_aliases.rng_modules,
                    mod_aliases.ctor_locals,
                )
            )
        unique = {(f.path, f.line, f.message): f for f in findings}
        return [unique[key] for key in sorted(unique)]

    def _check_callable(
        self,
        mod: ModuleInfo,
        fn: ast.AST,
        tracer: _Tracer,
        rng_modules: Set[str],
        ctor_locals: Dict[str, str],
    ) -> Iterable[Finding]:
        # Two passes: establish final ok-set via the ordered walk, then
        # judge constructor sites.  (Single forward pass would be more
        # precise around rebinding, but rebinding a seed name to a
        # non-traced value later in the function is vanishingly rare and
        # the two-pass form keeps the walker simple.)
        tracer.walk()
        out: List[Finding] = []
        for node in own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            ctor = self._ctor_name(node.func, rng_modules, ctor_locals)
            if ctor is None:
                continue
            seed = _seed_argument(node)
            if seed is None:
                continue  # zero-arg constructors: seeded-rng's gap rule
            if isinstance(seed, ast.Constant) and seed.value is None:
                continue  # explicit None == documented OS entropy opt-out
            if tracer.is_ok(seed):
                continue
            out.append(
                Finding(
                    rule=self.id,
                    path=mod.rel,
                    line=node.lineno,
                    message=(
                        f"seed `{ast.unparse(seed)}` of {ctor}(...) does "
                        "not trace to derive_seed(s)/a parameter; use "
                        "repro.harness.seeding (pinned= for legacy "
                        "streams) or pragma with justification"
                    ),
                )
            )
        return out

    def _ctor_name(
        self,
        func: ast.AST,
        rng_modules: Set[str],
        ctor_locals: Dict[str, str],
    ) -> Optional[str]:
        if isinstance(func, ast.Name):
            return ctor_locals.get(func.id)
        chain = attr_chain(func)
        if chain is None or len(chain) < 2:
            return None
        if chain[0] in rng_modules and chain[-1] in SEEDED_CTORS:
            return chain[-1]
        return None
