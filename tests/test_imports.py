"""Import hygiene: no unused names, and no import cycles between smartps modules."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "smartps"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from typing import Optional, Sequence as Seq\n"
              "def f(x: Seq[int]) -> float:\n"
              "    return math.pi\n")
    assert unused_imports(source) == ["line 2: os", "line 3: Optional"]


def package_imports(source: str, package: str = "smartps") -> set[str]:
    """Modules of the package that a module imports, inside functions too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith(package + "."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:   # relative imports stay inside the package
                module = package + ("." + module if module else "")
            if module == package:
                found.update(a.name for a in node.names)
            elif module.startswith(package + "."):
                found.add(module.split(".")[1])
    return found


def modules_in_cycles(graph: dict[str, set[str]]) -> list[str]:
    """Modules that import themselves through a chain of imports."""
    def reachable(start: str) -> set[str]:
        seen, todo = set(), list(graph.get(start, ()))
        while todo:
            module = todo.pop()
            if module not in seen:
                seen.add(module)
                todo.extend(graph.get(module, ()))
        return seen

    return sorted(m for m in graph if m in reachable(m))


def test_no_import_cycles():
    graph = {path.stem: package_imports(path.read_text()) for path in SRC.glob("*.py")}
    assert modules_in_cycles(graph) == []


def test_cycle_checker_counts_imports_inside_functions():
    sources = {
        "a": "from . import b\nfrom .c import X\n",
        "b": "import smartps.c\n",
        "c": "def f():\n    from smartps import a\n    return a\n",
        "d": "from smartps.c import X\nimport numpy\n",
    }
    graph = {name: package_imports(text) for name, text in sources.items()}
    assert graph == {"a": {"b", "c"}, "b": {"c"}, "c": {"a"}, "d": {"c"}}
    assert modules_in_cycles(graph) == ["a", "b", "c"]
    graph["c"] = set()
    assert modules_in_cycles(graph) == []
