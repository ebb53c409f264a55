"""Every imported name is used. The project declares no linter, so
this walks each module's syntax tree: a name that an import binds must
be read somewhere in the same module. perfbench/ is left out; it changes
only with the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "scripts", "tests")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_finder_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport os.path\nimport re\n"
              "from math import inf, pi as tau\nprint(os.sep, inf)\n")
    assert unused_imports(source) == [(3, "re"), (4, "tau")]


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
             for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}
