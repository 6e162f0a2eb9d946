"""AST walks shared by the call graph and the parmlint rules.

A leaf module (it imports nothing from the project), so
:mod:`repro.analysis.callgraph` and every rule can import it without an
import cycle.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

_CALLABLES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Flatten ``a.b.c`` into ``("a", "b", "c")``.

    Returns None when the expression root is not a plain name (e.g.
    ``get_rng().random`` or subscripts), which no name-based rule can
    resolve statically.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def own_nodes(fn: ast.AST) -> Iterable[ast.AST]:
    """Breadth-first walk of one callable's own body.

    Nested defs and lambdas are yielded but not entered.  For a module,
    the walk covers the top-level statements other than function and
    class definitions.
    """
    if isinstance(fn, ast.Module):
        stack: List[ast.AST] = [
            n
            for n in fn.body
            if not isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
    else:
        stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(node, _CALLABLES):
            continue
        stack.extend(ast.iter_child_nodes(node))
