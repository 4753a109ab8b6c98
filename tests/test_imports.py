"""Every import in the library is used by the module that makes it, and
every public function and class by the library itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symdimer"


def unused_imports(source: str):
    """Names bound by import statements that the module never reads.

    Imports from __future__ and names listed in __all__ are exempt; a name
    read only inside a string annotation counts as unused."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(
        (line, name) for name, line in bound.items() if name not in used | exported
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import List, Tuple\n"
        "__all__ = ['Tuple']\n"
        "x: List[int] = []\n"
    )
    assert unused_imports(source) == [(2, "os")]


def unreferenced_definitions(sources):
    """(module, name) of the public top-level functions and classes that no
    top-level statement other than their own definition reads, as a name
    or as an attribute; sources maps module names to their text.  An
    import alone is no reference."""
    defined = []
    reads = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = (module, stmt.name)
                if not stmt.name.startswith("_"):
                    defined.append(own)
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            reads.append((own, names))
    return sorted(
        d for d in defined if not any(d[1] in names for own, names in reads if own != d)
    )


def test_every_public_definition_is_used_by_the_library():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(sources) == []


def test_the_check_sees_an_unreferenced_definition():
    sources = {
        "a.py": (
            "def called():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Read:\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
        ),
        "b.py": (
            "from a import called, recursive\n"
            "import a\n"
            "def unused():\n"
            "    return called() + a.Read\n"
        ),
    }
    assert unreferenced_definitions(sources) == [
        ("a.py", "recursive"),
        ("b.py", "unused"),
    ]
