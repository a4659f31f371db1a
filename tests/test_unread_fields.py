"""Every dataclass field in the engine is read somewhere in it, and one
module starts processes (no linter is installed, so the checks are
written here with the standard library)."""

import ast
import os

import flowforge

PACKAGE = os.path.dirname(os.path.abspath(flowforge.__file__))


def engine_modules():
    """(path within the package, parsed module) for every engine module."""
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
                yield os.path.relpath(path, PACKAGE).replace(os.sep, "/"), tree


def is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def dataclass_fields(tree):
    """(class name, field name) for every field a @dataclass declares."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def test_every_dataclass_field_is_read():
    modules = list(engine_modules())
    read = {node.attr for _, tree in modules for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = ["%s %s.%s" % (rel, cls, name) for rel, tree in modules
              for cls, name in dataclass_fields(tree) if name not in read]
    assert unread == []


def test_one_module_imports_subprocess():
    importers = []
    for rel, tree in engine_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "subprocess" in names:
                importers.append(rel)
    assert importers == ["executors/__init__.py"]
