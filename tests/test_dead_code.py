"""Dead-code guard: every function, class and method the package defines
is used by the package or by the benchmark harness, every attribute a
package method stores on `self` is read by either outside that method,
every name a package module assigns at top level is read by either
outside that assignment, every name a package module imports is used in
that module (a re-export does not count as a use), and every exception
class the package defines is caught by name somewhere in either."""

import ast
import builtins
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


def _reads():
    """(bare names, attribute names): the (file, line) of every read
    (load) of a bare name and of an attribute, by identifier, over the
    package and the benchmark harness."""
    names, attributes = {}, {}
    for root in USERS:
        for path in sorted(root.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.setdefault(node.attr, []).append((path, node.lineno))
    return names, attributes


def test_every_attribute_stored_on_self_is_read_outside_its_method():
    """A package method that stores `self.name` stores something another
    method, a caller or the benchmark harness reads; a value only the
    storing method reads could stay a local. A test is not a reader."""
    _, reads = _reads()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for method, is_method in _definitions(ast.parse(path.read_text(), str(path))):
            if not is_method:
                continue
            stored = {
                node.attr for node in ast.walk(method)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            }
            for name in sorted(stored):
                if not any(
                    where != path or not method.lineno <= line <= method.end_lineno
                    for where, line in reads.get(name, [])
                ):
                    unread.append(f"{path.name}:{method.lineno} {method.name} self.{name}")
    assert unread == []


def _module_assignments(tree):
    """(name, assignment statement) for every name a module binds by a
    top-level assignment, tuple targets included."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    yield name.id, node


def test_every_module_level_name_is_read_outside_its_assignment():
    """A name a package module assigns at top level is read, as a bare
    name or as a module attribute (`cli.CONFIG_SCHEMA`), by the package or
    the benchmark harness outside its own assignment. Dunders are exempt.
    A test is not a reader: a constant only a test reads is dead."""
    names, attributes = _reads()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _module_assignments(ast.parse(path.read_text(), str(path))):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(
                where != path or not node.lineno <= line <= node.end_lineno
                for where, line in names.get(name, []) + attributes.get(name, [])
            ):
                unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []


def _imported_names(tree):
    """(name bound, line) of every import in a module, except the
    `from __future__` ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_every_import_is_referenced_in_its_module():
    """A module of the package references every name it imports. There
    is no re-export exemption: an import kept only so that callers can
    reach a name through this module fails, since every name has one
    import path, the module that defines it."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in _imported_names(tree):
            if name not in used:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []


def _exception_classes():
    """(module file, line, name) of every class the package defines that
    derives from a built-in exception, directly or through another such
    package class."""
    classes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
                classes[node.name] = (path.name, node.lineno, bases)
    builtin = {name for name, value in vars(builtins).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    found, grown = set(), True
    while grown:
        more = {name for name, (_, _, bases) in classes.items() if bases & (builtin | found)}
        grown, found = more != found, more
    return sorted((classes[name][0], classes[name][1], name) for name in found)


def _caught_names():
    """Every name, bare or as an attribute, that an `except` clause of the
    package or the benchmark harness catches."""
    caught = set()
    for root in USERS:
        for path in sorted(root.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    caught.update(t.id if isinstance(t, ast.Name) else t.attr
                                  for t in types if isinstance(t, (ast.Name, ast.Attribute)))
    return caught


def test_every_exception_class_is_caught_somewhere():
    """An exception class that no `except` clause names is a distinction
    no caller makes: its raisers could raise its base instead. A test is
    not a caller."""
    caught = _caught_names()
    uncaught = [f"{module}:{line} {name}" for module, line, name in _exception_classes()
                if name not in caught]
    assert uncaught == []
