"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import efq

SOURCES = sorted(p for p in Path(efq.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order. A name read
    only in a quoted annotation counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nfrom pathlib import Path\n\n"
    source += 'def f(x: "Path") -> int:\n    return tau\n'
    assert unused_imports(source) == ["line 1: os", "line 2: system", "line 3: pi"]


def test_public_names_resolve_once_in_order():
    """Every name in efq.__all__ is an attribute of efq, listed once, in
    sorted order, so a deleted name cannot stay behind."""
    names = efq.__all__
    assert [name for name in names if not hasattr(efq, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
