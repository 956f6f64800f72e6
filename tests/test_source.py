"""Static checks on the package source."""

import ast
import re
from pathlib import Path

import pytest

import efq

PACKAGE = sorted(Path(efq.__file__).parent.glob("*.py"))
TESTS = sorted(p for p in Path(__file__).parent.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
# How an AmplitudeResponse stores its band edge; only efq.spectral reads it.
EDGE_FIELDS = ("cutoff", "edge_below", "edge_above")


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


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nfrom pathlib import Path\n\n"
    source += 'def f(x: "Path") -> int:\n    return tau\n'
    assert unused_imports(source) == ["line 1: os", "line 2: system", "line 3: pi"]


def edge_reads(source: str) -> list[str]:
    """Reads of the band-edge fields ``.cutoff``, ``.edge_below`` and
    ``.edge_above`` of any object, in source order; assignments are not reads."""
    reads = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in EDGE_FIELDS and isinstance(node.ctx, ast.Load)
    ]
    return [f"line {n.lineno}: .{n.attr}" for n in sorted(reads, key=lambda n: (n.lineno, n.col_offset))]


def test_band_edge_is_read_only_in_spectral():
    """design, fitting and the rest reach the band edge through
    ``AmplitudeResponse.edges``, ``with_values`` and ``filtered``."""
    reads = [f"{p.name} {read}" for p in PACKAGE if p.name != "spectral.py" for read in edge_reads(p.read_text())]
    assert reads == []


def test_scan_finds_an_edge_read():
    source = "def f(p, q, cutoff):\n    q.cutoff = cutoff\n    return p.edge_above + p.edge_below, p.edges, p.cutoff\n"
    assert edge_reads(source) == ["line 3: .edge_above", "line 3: .edge_below", "line 3: .cutoff"]


def test_oversampling_factor_is_checked_in_one_place():
    """Every function that takes an oversampling factor reads it through
    ``spectral.oversampling_factor``."""
    message = "oversampling factor must be a positive integer"
    assert {p.name: p.read_text().count(message) for p in PACKAGE if message in p.read_text()} == {"spectral.py": 1}


@pytest.mark.parametrize("message", ["gamma must be positive", "nu must exceed 1"])
def test_noise_ratio_is_checked_in_one_place(message):
    """Every function that takes a noise ratio gamma checks it through
    ``design._nu``."""
    assert {p.name: p.read_text().count(message) for p in PACKAGE if message in p.read_text()} == {"design.py": 1}


def repr_names(source: str) -> list[str]:
    """Each place a module names the builtin ``repr``, in source order."""
    names = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name) and node.id == "repr"]
    return [f"line {n.lineno}" for n in sorted(names, key=lambda n: (n.lineno, n.col_offset))]


def test_csv_cells_become_text_in_one_place():
    """``efq.csvtext`` formats every CSV cell, as ``repr`` and ``str`` do;
    no other module names ``repr``, so no second formatting path grows back."""
    assert [f"{p.name} {name}" for p in PACKAGE if p.name != "csvtext.py" for name in repr_names(p.read_text())] == []


def test_scan_finds_a_repr_name():
    source = 'def f(x):\n    g = repr\n    return f"{x!r}", repr(x), g(x)\n'
    assert repr_names(source) == ["line 2", "line 3"]


def test_public_names_resolve_once_in_order():
    """Every name in efq.__all__ is an attribute of efq, listed once, in
    sorted order, so a deleted name cannot stay behind."""
    names = efq.__all__
    assert [name for name in names if not hasattr(efq, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_each_public_name_is_listed_once_under_its_defining_module():
    """efq's export table names each public name once, under the module that
    defines it, not one that only imports it."""
    listed = [(module, name) for module, names in efq._EXPORTS.items() for name in names.split()]
    assert len(listed) == len(efq.__all__)
    misplaced = [
        f"{module}.{name}" for module, name in listed if getattr(getattr(efq, module), name).__module__ != f"efq.{module}"
    ]
    assert misplaced == []


def environment_reads(source: str) -> list[str]:
    """Each place a module names ``environ`` or ``getenv``, as an attribute,
    a name or an import, in source order."""
    names = ("environ", "getenv")
    nodes = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.alias) and node.name in names
    ]
    return [f"line {n.lineno}" for n in sorted(nodes, key=lambda n: (n.lineno, n.col_offset))]


def test_no_package_module_reads_the_environment():
    """The config file and the CPU set are the only sources of efq's
    settings, so no environment variable grows back as a second one."""
    assert [f"{p.name} {read}" for p in PACKAGE for read in environment_reads(p.read_text())] == []


def test_scan_finds_an_environment_read():
    source = "import os\nfrom os import getenv\n\ndef f():\n    return os.environ.get('X'), os.getenv('Y'), getenv('Z')\n"
    assert environment_reads(source) == ["line 2", "line 5", "line 5", "line 5"]


def test_no_test_sets_an_efq_environment_variable():
    """A test that set a worker count through the environment passed on a
    machine with that many CPUs only; tests fake ``cli._max_workers``."""
    named = [f"{p.name}: {m}" for p in TESTS for m in re.findall(r"EFQ_[A-Z]\w*", p.read_text(errors="replace"))]
    assert named == []
