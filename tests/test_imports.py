"""No module of the package imports a name it never uses.

A stdlib ``ast`` pass in place of a linter, so the check needs no extra
dependency.  A module-level import counts as used when its bound name is
read anywhere in the module or is listed in ``__all__`` (the package's
re-exports).
"""

import ast
from pathlib import Path

import pytest

import sdmcap

MODULES = sorted(Path(sdmcap.__file__).parent.glob("*.py"))


def _module_imports(tree):
    """(bound name, line) of every import made at module level, including
    those inside a top-level ``try`` or ``if``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Try, ast.If)):
            pending.extend(node.body + node.orelse
                           + [s for h in getattr(node, "handlers", []) for s in h.body])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used = read | _exported(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _module_imports(tree)
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"
