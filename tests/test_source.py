"""Source hygiene: no private module-level name is left without a user.

A consolidation that routes every caller through one helper can leave the
helpers it replaced behind, still defined and never called.  This walks
the package source with the standard ast module and fails on such orphans.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "equiframes"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, node) of each private name bound at module level; node is the
    def or class whose own body does not count as a use, else None."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and _private(leaf.id):
                        yield leaf.id, None


def _uses(tree: ast.AST, skip: ast.AST | None = None):
    """Every name read, attribute read or name imported in ``tree``, except
    inside ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def test_every_private_module_level_name_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    orphans = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            used = any(name in set(_uses(other, skip=node)) for other in trees.values())
            if not used:
                orphans.append(f"{module}: {name}")
    assert not orphans
