"""The README's library tour runs as written and prints the groups its
comments name, and every name the package exports for it resolves."""

import os
import re

import cychom

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


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
