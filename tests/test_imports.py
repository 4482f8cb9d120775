"""No module of the package or of its tests imports a name it never uses,
no private module-level function, class or assigned name of the package
goes unused, no test module keeps a private module-level helper that it
never uses itself, and no public function, class, method or property of
the package is read by tests alone, and no field of a dataclass of the
package goes unread by it.

A stdlib ``ast`` pass in place of a linter, so the check needs no extra
dependency.  A module-level import counts as used when its bound name is
read anywhere in the module or is listed in ``__all__`` (the package's
re-exports).  A private definition of the package counts as used when the
package reads its name (bare, as an attribute or in an import) outside its
own body; one of a test module, when that module reads it so.  A public
definition counts as used by the same rule; a name that ``__init__``
re-exports is read by that import.  A dataclass field counts as read when
the package reads an attribute of its name anywhere but inside a keyword
argument of that name, which only rebuilds the same field
(``replace(stats, n=stats.n * N)``).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import sdmcap

MODULES = sorted(Path(sdmcap.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used = read | _exported(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _module_imports(tree)
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def _references(node) -> Counter:
    """How often each name is read under ``node``: bare, as an attribute or
    in a ``from`` import."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def _private_definitions(tree):
    """(name, node) of each private function, class or assigned name at
    module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [sub.id for target in targets for sub in ast.walk(target)
                     if isinstance(sub, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _unread_definitions(paths, definitions=_private_definitions):
    """Each definition that ``definitions`` yields for the modules at
    ``paths`` that none of them reads outside its own body."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    return [f"{module}: {name} (line {node.lineno})"
            for module, tree in trees.items() for name, node in definitions(tree)
            if refs[name] <= _references(node)[name]]


def test_no_unused_private_definitions():
    unused = sorted(_unread_definitions(MODULES)
                    + [entry for path in TESTS for entry in _unread_definitions([path])])
    assert not unused, f"private definitions never used: {', '.join(unused)}"


# public names the package itself never reads, each kept for the bench
# harness that reads it
BENCH_READS = {
    "cached_coefficients": "bench/worker.py:122",
    "effective_freq_bins": "bench/tracing.py:126",
}


def _public_definitions(tree):
    """(name, node) of each public function or class at module level, and
    of each public method or property of those classes, less the names
    the bench reads."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        members = node.body if isinstance(node, ast.ClassDef) else []
        for sub in [node] + [m for m in members if isinstance(m, ast.FunctionDef)]:
            if not sub.name.startswith("_") and sub.name not in BENCH_READS:
                yield sub.name, sub


def test_no_public_definition_only_tests_read():
    unread = sorted(_unread_definitions(MODULES, _public_definitions))
    assert not unread, f"public definitions the package never reads: {', '.join(unread)}"


@pytest.mark.parametrize("name", sorted(BENCH_READS))
def test_bench_reads_its_allowed_names(name):
    path, line = BENCH_READS[name].split(":")
    text = (Path(__file__).parent.parent / path).read_text().splitlines()[int(line) - 1]
    assert name in text, f"{BENCH_READS[name]} no longer reads {name}"


def _dataclass_fields(tree):
    """(class name, field name) of each field of each dataclass at module
    level."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield node.name, sub.target.id


def _attribute_reads(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _field_reads(tree) -> Counter:
    """``_attribute_reads`` less those inside a keyword argument of the
    attribute's own name."""
    reads = _attribute_reads(tree)
    for sub in ast.walk(tree):
        if isinstance(sub, ast.keyword) and sub.arg:
            reads[sub.arg] -= _attribute_reads(sub.value)[sub.arg]
    return reads


def test_every_dataclass_field_is_read():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    reads = sum((_field_reads(tree) for tree in trees), Counter())
    unread = sorted(f"{cls}.{name}" for tree in trees for cls, name in _dataclass_fields(tree)
                    if reads[name] <= 0 and name not in BENCH_READS)
    assert not unread, f"dataclass fields the package never reads: {', '.join(unread)}"
