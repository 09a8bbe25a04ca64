"""Import and I/O hygiene: no unused names, no import cycles, no public name only tests
call, no file text read or written in the locale's encoding, no file written outside
`cli._write_output`, no decision asked outside `netsim._Sim.advance`, no channel table
read outside `traceio.channel_map_arrays`, and a package docstring that names every module."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "smartps"
BENCHMARK = TESTS.parent / "benchmark"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
                         + sorted(BENCHMARK.glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from typing import Optional, Sequence as Seq\n"
              "def f(x: Seq[int]) -> float:\n"
              "    return math.pi\n")
    assert unused_imports(source) == ["line 2: os", "line 3: Optional"]


FILE_TEXT_CALLS = {"read_text", "write_text", "open"}


def calls_without_encoding(source: str) -> list[str]:
    """`read_text`, `write_text` and `open` calls that leave the encoding to the locale."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in FILE_TEXT_CALLS and not any(k.arg == "encoding" for k in node.keywords):
                found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_file_text_names_its_encoding(path):
    assert calls_without_encoding(path.read_text()) == []


def test_encoding_checker():
    source = ("from pathlib import Path\n"
              "a = Path('x').read_text()\n"
              "Path('y').write_text(a, encoding='utf-8')\n"
              "with open('z') as f:\n"
              "    pass\n"
              "Path('x').open(encoding='utf-8')\n")
    assert calls_without_encoding(source) == ["line 2: read_text", "line 4: open"]


def writes_a_file(call: ast.Call) -> bool:
    """A `write_text` or `write_bytes` call, or an `open` whose mode may write: the mode
    is `open(file, mode)`'s second argument, `path.open(mode)`'s first, or `mode=`."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    position = 1 if isinstance(func, ast.Name) else 0
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[position] if len(call.args) > position else None)
    if mode is None:   # the default mode reads
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def owners(source: str, match) -> list[tuple[str, int]]:
    """(function, line) of each node that `match` accepts; the function is dotted
    through its classes and enclosing functions, `<module>` at the top level."""
    found = []

    def visit(node: ast.AST, owner: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if match(child):
                found.append((owner or "<module>", child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


def calls_a_writer(node: ast.AST) -> bool:
    """A call that writes a file."""
    return isinstance(node, ast.Call) and writes_a_file(node)


def test_file_write_checker():
    source = ("from pathlib import Path\n"
              "Path('a').write_bytes(b'')\n"
              "def f(p):\n"
              "    p.read_text(encoding='utf-8')\n"
              "    with open(p, encoding='utf-8') as fh:\n"
              "        fh.write(p.open('r').read())\n"
              "    open(p, 'rb').close()\n"
              "    p.open('a', encoding='utf-8')\n"
              "class C:\n"
              "    def g(self, p, mode):\n"
              "        def inner():\n"
              "            p.write_text('', encoding='utf-8')\n"
              "        return open(p, mode=mode)\n"
              "open('x', 'w+b')\n")
    assert owners(source, calls_a_writer) == [("<module>", 2), ("f", 8), ("C.g.inner", 12),
                                              ("C.g", 13), ("<module>", 14)]


def reads_decide(node: ast.AST) -> bool:
    """A read of an attribute named `decide`, such as `selmod.decide`."""
    return (isinstance(node, ast.Attribute) and node.attr == "decide"
            and isinstance(node.ctx, ast.Load))


def test_decide_reader_checker():
    source = ("from smartps import selector\n"
              "def f(chooser):\n"
              "    return chooser.decide\n"
              "class C:\n"
              "    def decide(self, state):\n"
              "        self.decide = None\n"
              "        return decide(state)\n"
              "selector.decide(1, 2)\n")
    # A store and a bare name are not attribute reads, nor is a method's definition.
    assert owners(source, reads_decide) == [("f", 3), ("<module>", 8)]


def loads_default_channels(node: ast.AST) -> bool:
    """A read of a name or an attribute called `DEFAULT_CHANNELS`."""
    return (isinstance(node, ast.Name) and node.id == "DEFAULT_CHANNELS"
            or isinstance(node, ast.Attribute) and node.attr == "DEFAULT_CHANNELS"
            ) and isinstance(node.ctx, ast.Load)


# Each rule has one `src` function that may do it: (matcher, that function).
OWNED = [
    (calls_a_writer, "cli._write_output"),
    (reads_decide, "netsim._Sim.advance"),
    # The tests' channels() patch of DEFAULT_CHANNELS reaches a run only through it.
    (loads_default_channels, "traceio.channel_map_arrays"),
]


@pytest.mark.parametrize("match,owner", OWNED, ids=[owner for _, owner in OWNED])
def test_one_owner(match, owner):
    found = {f"{path.stem}.{name}" for path in SRC.glob("*.py")
             for name, _ in owners(path.read_text(), match)}
    assert found == {owner}


def test_channel_reader_checker():
    source = ("from smartps import traceio\n"
              "from smartps.traceio import DEFAULT_CHANNELS\n"
              "DEFAULT_CHANNELS = {}\n"
              "def f(interface):\n"
              "    return DEFAULT_CHANNELS[interface]\n"
              "class C:\n"
              "    def g(self):\n"
              "        self.DEFAULT_CHANNELS = traceio.DEFAULT_CHANNELS\n"
              "print(DEFAULT_CHANNELS)\n")
    # An import and a store are not reads.
    assert owners(source, loads_default_channels) == [("f", 5), ("C.g", 8), ("<module>", 9)]


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


def test_package_docstring_names_every_module():
    docstring = ast.get_docstring(ast.parse((SRC / "__init__.py").read_text()))
    named = set(re.findall(r"\((\w+)\)", docstring))   # "... (treelearn), ..."
    assert sorted({path.stem for path in SRC.glob("*.py")} - {"__init__", *named}) == []


def test_netsim_imports_only_what_the_simulator_needs():
    assert package_imports((SRC / "netsim.py").read_text()) == {"featstats", "selector", "traceio"}


def references(node: ast.AST, strings: bool = False) -> set[str]:
    """Names and attributes a node reads; with strings, each dotted part of a str constant."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.update(n.value.split("."))
    return found


def unreferenced(modules: dict[str, str], callers: list[str]) -> list[str]:
    """`module.name` of each public top-level def or class that nothing refers to.

    A reference counts from any module, its own included, outside the name's
    own definition, and from a caller's code or string constants (a caller
    may name a function as a string, as the benchmark's tracer does).
    """
    used = set().union(*(references(ast.parse(text), strings=True) for text in callers))
    defined = []
    for module, text in modules.items():
        for node in ast.parse(text).body:
            names = references(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined.append((module, node.name))
            used |= names
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


# Public names that no src module or benchmark calls, each kept for a reason.
UNREFERENCED_KEPT = {
    "traceio.write_scenario": "the user's one way to write a scenario file for simulate",
    "traceio.constant": "the constructor of the scenario format's constant kind",
    "featstats.entropy": "criterion 1 checks it against hand values",
}


def test_every_public_name_has_a_caller_outside_tests():
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    callers = [path.read_text() for path in BENCHMARK.glob("*.py")]
    assert unreferenced(modules, callers) == sorted(UNREFERENCED_KEPT)


def test_reference_checker():
    modules = {
        "a": "def f(n):\n    return f(n - 1)\nclass C:\n    pass\ndef _p():\n    pass\n",
        "b": "from .a import C\ndef g():\n    return C\ndef h():\n    return g()\n",
        "c": "def timed():\n    pass\n",
    }
    # f calls only itself, h has no caller, timed is named in a caller's string.
    assert unreferenced(modules, ["tr.span(c, 'timed', 'c.timed')"]) == ["a.f", "b.h"]
