"""The README's library tour runs as written and prints the groups its
comments name, every name the package exports resolves, and every public
function and class of src/cychom has a consumer outside the tests."""

import ast
import glob
import os
import re

import cychom

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(ROOT, "README.md")
SRC = os.path.join(ROOT, "src", "cychom")
BENCH = os.path.join(ROOT, "bench")


def tour_lines():
    with open(README) as fh:
        text = fh.read()
    block = re.search(r"## Library tour\s*```python\n(.*?)```", text, re.S)
    assert block, "README has no library tour block"
    return block.group(1)


def test_library_tour_groups():
    code = tour_lines()
    namespace = {}
    exec(compile(code, README, "exec"), namespace)
    checked = []
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        # a comment that is a group, possibly followed by a remark
        want = re.fullmatch(r"\s*(Z/\d+)(,.*)?\s*", comment)
        if want:
            assert str(eval(expr, namespace)) == want.group(1), line
            checked.append(want.group(1))
    assert checked == ["Z/9", "Z/729", "Z/9", "Z/42"]


def test_every_exported_name_resolves():
    assert [name for name in cychom.__all__ if not hasattr(cychom, name)] == []


def imported_modules(tree, modules):
    """The names tree binds to cychom modules (`from . import m` or `from
    cychom import m`)."""
    return {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in (None, "cychom")
        for a in node.names
        if a.name in modules
    }


def module_reads(node, bound):
    """The names `m.name` reads within node, for m in bound."""
    return {
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in bound
    }


def test_every_exported_name_has_a_program_consumer():
    # every public module-level function and class of src/cychom (which
    # covers __all__) is read by a CLI command or another src function (a
    # name, or `module.name`, read outside __init__ and outside the name's
    # own top-level definition), a benchmark file (`module.name` on a
    # cychom module, or the name as a string literal, which is how the
    # tracer rebinds), or the library tour
    trees = {}
    for path in glob.glob(SRC + "/*.py"):
        with open(path) as fh:
            trees[os.path.basename(path)[:-3]] = ast.parse(fh.read())
    consumers = set(re.findall(r"\w+", tour_lines()))
    for path in glob.glob(BENCH + "/*.py"):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
        consumers |= module_reads(tree, imported_modules(tree, trees)) | strings
    public = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        bound = imported_modules(tree, trees)
        for top in tree.body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                public.append(f"{module}.{own}")
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            consumers |= (names | module_reads(top, bound)) - {own}
    assert sorted(name for name in public if name.split(".")[1] not in consumers) == []
