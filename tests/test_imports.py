"""Every name a gkzkit module imports is used in that module.

The package ``__init__`` is exempt: its imports are the public API it
re-exports.
"""

import ast
from pathlib import Path

import gkzkit

SOURCES = sorted(Path(gkzkit.__file__).parent.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_guard_sees_unused_names():
    source = "from math import gcd, lcm\nimport os.path\nimport sys as system\nprint(lcm(2, 3))\n"
    assert unused_imports(source) == [(1, "gcd"), (2, "os"), (3, "system")]


def test_modules_use_every_import():
    assert len(SOURCES) > 10
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in SOURCES
        if path.name != "__init__.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
