"""Shared AST helpers for parmlint rules."""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from repro.analysis.astwalk import attr_chain  # noqa: F401 - rules import it here


def module_aliases(tree: ast.Module, target: str) -> Set[str]:
    """Local names bound to module ``target`` via ``import``/``as``.

    Covers ``import target``, ``import target as x``, and — for dotted
    targets like ``numpy.random`` — ``from numpy import random [as x]``.
    """
    aliases: Set[str] = set()
    head, _, tail = target.rpartition(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == target:
                    aliases.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if head and node.module == head:
                for alias in node.names:
                    if alias.name == tail:
                        aliases.add(alias.asname or alias.name)
    return aliases


def from_imports(tree: ast.Module, module: str) -> List[Tuple[str, str, int]]:
    """``(imported_name, local_name, lineno)`` from ``from module import``.

    Sorted, so rules that turn these into findings emit them in a
    stable order (the linter holds itself to its own nondet-set-iter
    rule).
    """
    out: Set[Tuple[str, str, int]] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module == module
        ):
            for alias in node.names:
                out.add((alias.name, alias.asname or alias.name, node.lineno))
    return sorted(out)


def is_dataclass_def(node: ast.ClassDef) -> bool:
    """True when ``node`` carries a ``@dataclass`` decorator."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        chain = attr_chain(target)
        if chain and chain[-1] == "dataclass":
            return True
    return False
