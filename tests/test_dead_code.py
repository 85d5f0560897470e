"""Dead-code guard: every function, class and method the package defines
is used by the package or by the benchmark harness, and every name a
package module imports is used in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ordinalproto"
USERS = (PACKAGE, ROOT / "perfbench")


def _references():
    """(bare names, attribute names): the (file, line) of every AST name
    and of every attribute access, by identifier, over the package and the
    benchmark harness."""
    names, attributes = {}, {}
    for root in USERS:
        for path in sorted(root.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    attributes.setdefault(node.attr, []).append((path, node.lineno))
    return names, attributes


def _definitions(tree):
    """(definition, whether it is a method) for every function and class
    in a module; a method, or a property, is a function defined directly
    in a class body."""
    methods = {
        id(child)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for child in node.body if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, id(node) in methods


def test_every_definition_is_referenced_outside_itself():
    """A definition counts as used when its name is referenced anywhere
    outside its own lines: a method or property only as an attribute
    (`x.name`), since a bare name of the same spelling is some other
    variable; a function or class as a name or an attribute. Dunders are
    exempt. A test is not a user: code only a test reaches is dead."""
    names, attributes = _references()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, is_method in _definitions(ast.parse(path.read_text(), str(path))):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            refs = attributes.get(name, []) + ([] if is_method else names.get(name, []))
            if not any(
                where != path or not node.lineno <= line <= node.end_lineno
                for where, line in refs
            ):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _imported_names(tree):
    """(name bound, line) of every import in a module, except the
    `from __future__` ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _exported(tree):
    """The names a module lists in its __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_referenced_in_its_module():
    """A module of the package references every name it imports, unless
    it re-exports the name in __all__."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = _exported(tree)
        for name, line in _imported_names(tree):
            if name not in used and name not in exported:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []
