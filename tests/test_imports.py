"""Every imported name is used, and every top-level name of the package
is read by the program. The project declares no linter, so this walks
each module's syntax tree: a name that an import binds must be read
somewhere in the same module, and a name that a module of src/h2grid
defines at its top level must be read somewhere in src/ or scripts/, so
a helper only tests use lives in tests/. perfbench/ is left out; it
changes only with the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "scripts", "tests")
                 for path in (ROOT / folder).rglob("*.py"))
PROGRAM = [path for path in MODULES if path.parts[len(ROOT.parts)] in ("src", "scripts")]
# read by packaging tools and people, not by the program
UNREAD_ALLOWED = {"__version__"}


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


def top_level_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each function, class and variable that a module
    defines at its top level."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(name.lineno, name.id) for target in targets
                        for name in ast.walk(target) if isinstance(name, ast.Name)]
    return defined


def read_names(source: str) -> set[str]:
    """The names a module reads."""
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_finder_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport os.path\nimport re\n"
              "from math import inf, pi as tau\nprint(os.sep, inf)\n")
    assert unused_imports(source) == [(3, "re"), (4, "tau")]


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
             for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}


def test_name_finders_tell_definitions_from_reads():
    source = ("import os\nA, (B, C) = 1, (2, 3)\nD: int = A\n"
              "def f():\n    x = os.sep\n    return g(x)\nclass K: pass\n")
    assert top_level_names(source) == [(2, "A"), (2, "B"), (2, "C"), (3, "D"),
                                       (4, "f"), (7, "K")]
    assert read_names(source) == {"A", "int", "os", "g", "x"}


def test_every_package_name_is_read_by_the_program():
    read = set().union(*(read_names(path.read_text(encoding="utf-8")) for path in PROGRAM))
    unread = {f"{path.relative_to(ROOT)}:{line}": name
              for path in PROGRAM if path.parts[len(ROOT.parts)] == "src"
              for line, name in top_level_names(path.read_text(encoding="utf-8"))
              if name not in read and name not in UNREAD_ALLOWED}
    assert unread == {}
