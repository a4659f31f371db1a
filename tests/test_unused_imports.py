"""No engine module imports a name it does not use (no linter is
installed, so the check is written here with the standard library)."""

import ast
import os

import flowforge

PACKAGE = os.path.dirname(os.path.abspath(flowforge.__file__))

# (module path within the package, name) -> why the unused import stays
ALLOWED = {
    ("executors/__init__.py", "file_digest"):
        "perfbench's tracer wraps executors.file_digest",
    ("cli.py", "flatten"):
        "perfbench's tracer wraps cli.flatten; validate does the flattening",
}


def imported_names(tree):
    """name -> line for every name a module-level import binds."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def used_names(tree):
    """Names the module reads, plus the strings it lists in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return used


def unused_imports():
    found = []
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, PACKAGE).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            used = used_names(tree)
            for imported, line in imported_names(tree).items():
                if imported not in used and (rel, imported) not in ALLOWED:
                    found.append("%s:%d %s" % (rel, line, imported))
    return found


def test_no_module_imports_a_name_it_does_not_use():
    assert unused_imports() == []


def test_every_allowed_import_is_still_unused_and_present():
    for rel, name in ALLOWED:
        with open(os.path.join(PACKAGE, rel), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        assert name in imported_names(tree), (rel, name)
        assert name not in used_names(tree), (rel, name)
