"""The public surface: every name gcstar exports is used by the library.

A name that only tests reach is either wired into a battery the CLI
runs or deleted.  The allow-list holds the exceptions, each with its
reason.
"""

import ast
import pathlib

import gcstar

ALLOWED_UNUSED = {
    # a preset of non-cyclic isotropy is planned on top of it
    "transitive_groupoid",
    # writes the groupoid JSON the CLI reads; the benchmark calls it
    "groupoid_to_dict",
    # the benchmark builds its etale unions with it; no preset names it
    "disjoint_union",
}


def test_every_export_is_used_in_the_library():
    src = pathlib.Path(gcstar.__file__).parent
    exported = [alias.name
                for node in ast.parse((src / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    used = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [n for n in exported if n not in used]
    assert sorted(unused) == sorted(ALLOWED_UNUSED)
