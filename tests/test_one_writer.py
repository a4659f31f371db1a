"""Every small file the engine keeps is replaced through one writer,
cache.replace_file, and CacheStore.put_blob alone installs blobs; each
kind of JSON record has one parser; outputs reach the workspace by one
path, the store's materialize_* calls, which alone link files and, in
a directory output, remove what its manifest lacks; and a placed
directory is read one way, by cache.scan_tree; and the names in a
task's sandbox are spelled in model.py alone. No linter is
installed, so the checks are written here with the standard library,
as in test_unused_imports.py."""

import ast
import os

import flowforge

PACKAGE = os.path.dirname(os.path.abspath(flowforge.__file__))

# (module path within the package, qualified function) that may rename
# a file into place
RENAMERS = {("cache.py", "replace_file"), ("cache.py", "CacheStore.put_blob")}

# (module path within the package, qualified function) that may make a
# hard link: placing a blob, and adopting a task's output as one
LINKERS = {("cache.py", "link_file"), ("cache.py", "CacheStore._adopt")}

# (module path within the package, qualified function) that may remove
# a tree: pruning a placed directory output, emptying a remote job
# directory, and removing a succeeded task's sandbox
TREE_REMOVERS = {("cache.py", "_prune"),
                 ("executors/remote.py", "LoopbackTransport.clear"),
                 ("scheduler.py", "close_sandbox")}

# (module path within the package, qualified function) that may list a
# directory: the one reading of a placed directory output, which the
# stamp check and placing share
SCANNERS = {("cache.py", "scan_tree")}

# (module path within the package, qualified function) that may parse
# JSON: one per kind of record
JSON_READERS = {
    ("cache.py", "read_entry"),  # cache entries and workspace stamps
    ("provenance.py", "load_doc"),  # provenance documents
    ("provenance.py", "_read_index"),  # the run index
    ("runstate.py", "read_events"),  # journal lines
    ("executors/__init__.py", "collect_outcome"),  # a task's value manifest
    ("envprov.py", "ProviderRegistry.from_file"),  # environment providers
    ("model.py", "_load_document"),  # workflow documents
    ("cli.py", "_parse_param_value"),  # a param value on the command line
}


def modules():
    """(module path within the package, syntax tree) of each module."""
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    yield (os.path.relpath(path, PACKAGE).replace(os.sep, "/"),
                           ast.parse(fh.read(), filename=path))


def use_sites(tree, module: str, names) -> list[str]:
    """The qualified name of the function around each use of
    `module`.<name>, or of an import of it, for each of `names` ("" at
    module level)."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr in names
                    and isinstance(child.value, ast.Name) and child.value.id == module):
                sites.append(".".join(scope))
            if isinstance(child, ast.ImportFrom) and child.module == module and any(
                    alias.name in names for alias in child.names):
                sites.append(".".join(scope))
            visit(child, scope)
    visit(tree, [])
    return sites


def imports_tempfile(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "tempfile" for name in names):
            return True
    return False


def test_only_replace_file_and_put_blob_rename_files_into_place():
    renames = ("replace", "rename")
    assert use_sites(ast.parse(
        "class A:\n    def f(self):\n        g(os.replace)\n"), "os", renames) == ["A.f"]
    found = {(rel, site) for rel, tree in modules()
             for site in use_sites(tree, "os", renames)}
    assert found == RENAMERS


def test_no_module_imports_tempfile():
    assert imports_tempfile(ast.parse("def f():\n    from tempfile import mkstemp\n"))
    assert [rel for rel, tree in modules() if imports_tempfile(tree)] == []


def test_each_kind_of_json_record_has_one_parser():
    assert use_sites(ast.parse(
        "class A:\n    def f(self):\n        from json import loads\n"),
        "json", ("load", "loads")) == ["A.f"]
    found = {(rel, site) for rel, tree in modules()
             for site in use_sites(tree, "json", ("load", "loads"))}
    assert found == JSON_READERS


def test_only_the_store_places_files():
    """No module but cache.py reaches link_file, so outputs are placed
    through CacheStore.materialize_*, and only link_file and _adopt call
    os.link."""
    assert use_sites(ast.parse("def f():\n    from .cache import link_file\n"),
                     "cache", ("link_file",)) == ["f"]
    assert {rel for rel, tree in modules()
            if use_sites(tree, "cache", ("link_file",))} == set()
    found = {(rel, site) for rel, tree in modules()
             for site in use_sites(tree, "os", ("link",))}
    assert found == LINKERS


def test_only_the_store_removes_trees():
    """A placed directory output loses what its manifest lacks in one
    place, cache._prune; no other path of the engine rmtrees, so none
    removes and places a directory output whole."""
    assert use_sites(ast.parse(
        "class A:\n    def f(self):\n        shutil.rmtree(p)\n"),
        "shutil", ("rmtree",)) == ["A.f"]
    found = {(rel, site) for rel, tree in modules()
             for site in use_sites(tree, "shutil", ("rmtree",))}
    assert found == TREE_REMOVERS


def test_only_scan_tree_reads_a_placed_directory():
    """os.scandir appears in cache.scan_tree alone, so the stamp check
    and placing cannot read a placed directory output two ways."""
    assert use_sites(ast.parse("def f():\n    return os.scandir(p)\n"),
                     "os", ("scandir",)) == ["f"]
    found = {(rel, site) for rel, tree in modules()
             for site in use_sites(tree, "os", ("scandir",))}
    assert found == SCANNERS


# the names model.py gives a task's sandbox, and the prefix of a staged
# input's relpath, which no other module spells
SANDBOX_NAMES = {"stdout.txt", "stderr.txt", "transfer.json"}
SANDBOX_PREFIX = "inputs/"


def sandbox_literals(tree) -> list[str]:
    """Each string constant in `tree` that spells a sandbox name."""
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value in SANDBOX_NAMES or node.value.startswith(SANDBOX_PREFIX))]


def test_only_the_model_spells_the_sandbox_names():
    """model.INPUTS_DIR, STDOUT_NAME, STDERR_NAME and TRANSFER_LOG are the
    one spelling of a sandbox's names, so the paths the parser refuses
    (model.RESERVED_PATHS) are the names the executors write."""
    assert sorted(sandbox_literals(ast.parse(
        "def f():\n    return 'inputs/%s' % p, 'stdout.txt', 'x/inputs/'\n"))) \
        == ["inputs/%s", "stdout.txt"]
    found = {rel: sandbox_literals(tree) for rel, tree in modules()}
    assert {rel for rel, names in found.items() if names} == {"model.py"}
    assert sorted(found["model.py"]) == sorted(SANDBOX_NAMES)
