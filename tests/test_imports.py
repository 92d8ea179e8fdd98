"""Every src/cychom module uses each name it imports; the package's
__init__ may instead list the name in __all__, as a re-export."""

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
