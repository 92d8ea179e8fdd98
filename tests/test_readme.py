"""The README's library tour runs as written and prints the groups its
comments name, and every name the package exports resolves and has a
consumer outside the tests."""

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


def test_every_exported_name_has_a_program_consumer():
    # a CLI command or another src function (a name or attribute read
    # outside __init__ and outside the name's own top-level definition), a
    # benchmark file (a word match), or the library tour
    consumers = set(re.findall(r"\w+", tour_lines()))
    for path in glob.glob(BENCH + "/*.py"):
        with open(path) as fh:
            consumers.update(re.findall(r"\w+", fh.read()))
    for path in glob.glob(SRC + "/*.py"):
        if path.endswith("__init__.py"):
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != getattr(top, "name", None):
                    consumers.add(name)
    assert [name for name in cychom.__all__ if name not in consumers] == []
