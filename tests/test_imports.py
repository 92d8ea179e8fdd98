"""Every src/cychom module uses each name it imports; the package's
__init__ may instead list the name in __all__, as a re-export.  Every
private helper is read somewhere in src/cychom outside its own body."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cychom")


def unused_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    found = {os.path.basename(path): unused_imports(path) for path in glob.glob(SRC + "/*.py")}
    assert {file: names for file, names in found.items() if names} == {}


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree):
    """The module-level `_name` functions and classes, and the `_name`
    methods (dunders excepted) of the module-level classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and is_private(node.name):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, kinds) and is_private(m.name))


def test_every_private_helper_is_read_outside_its_definition():
    trees = {}
    for path in glob.glob(SRC + "/*.py"):
        with open(path) as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(id(node))
    unread = []
    for file, tree in sorted(trees.items()):
        for d in private_definitions(tree):
            inside = {id(node) for node in ast.walk(d)}
            if all(read in inside for read in reads.get(d.name, [])):
                unread.append(f"{file}:{d.lineno} {d.name}")
    assert unread == []
