"""Static checks on the package source."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import efq
from efq.simulate import MidRiseQuantizer, _scalar_loop, run_feedback_loop
from efq.transfer import RationalDiscreteTF

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


def design_cell_terms(source: str) -> list[str]:
    """Each place a design cell's feasibility margin or shaper log-mean is
    formed, in source order, with the innermost ``def`` around it (or
    ``<module>``): every call of ``log_geometric_mean``, by name or as a
    method, and every subtraction of a ``norm_r_sq`` field or key."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and getattr(func, "attr", getattr(func, "id", None)) == "log_geometric_mean":
                found.append((child.lineno, child.col_offset, f"{where}: log-mean"))
            elif isinstance(child, ast.BinOp) and isinstance(child.op, ast.Sub):
                right = child.right.slice if isinstance(child.right, ast.Subscript) else child.right
                if getattr(right, "attr", getattr(right, "value", None)) == "norm_r_sq":
                    found.append((child.lineno, child.col_offset, f"{where}: margin"))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(source), "<module>")
    return [f"line {line}: {what}" for line, _, what in sorted(found)]


def test_design_cell_margin_and_log_mean_are_formed_in_one_place():
    """``cli._design_cell`` forms each design cell's feasibility margin
    nu - ||r||^2 and its shaper's log-mean once; ``design`` writes them and
    ``verify`` reads them from its entry."""
    found = [f"{p.name} {term.split(': ', 1)[1]}" for p in PACKAGE for term in design_cell_terms(p.read_text())]
    assert found == ["cli.py _design_cell: margin", "cli.py _design_cell: log-mean"]


def test_scan_finds_a_second_margin_and_log_mean():
    source = "from efq import spectral\nfrom efq.spectral import log_geometric_mean\n\n"
    source += "def check(sol, nu, cell, shaper):\n    margin = nu - sol.norm_r_sq\n"
    source += "    return margin, cell['nu'] - cell['norm_r_sq'], abs(spectral.log_geometric_mean(shaper))\n\n"
    source += "g = log_geometric_mean\nlogmean = g(None), log_geometric_mean(None), 1.0 - norm_sq\n"
    assert design_cell_terms(source) == [
        "line 5: check: margin",
        "line 6: check: margin",
        "line 6: check: log-mean",
        "line 9: <module>: log-mean",
    ]


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


def chunk_bytes_callers(source: str) -> list[str]:
    """The function around each call of ``chunk_bytes``, by name or as a
    method, in source order: the innermost ``def``, or ``<module>``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "attr", getattr(child.func, "id", None)) == "chunk_bytes":
                found.append((child.lineno, child.col_offset, where))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(source), "<module>")
    return [f"line {line}: {where}" for line, _, where in sorted(found)]


def test_one_caller_of_the_digit_kernel():
    """Only ``cli._format_chunk`` calls ``csvtext.chunk_bytes``, which
    formats a chunk in one pass: the chunks ``_csv_file`` hands it, one loop
    block at most, bound its memory, and it counts the formatting time."""
    callers = [f"{p.name} {caller.split(': ')[1]}" for p in PACKAGE for caller in chunk_bytes_callers(p.read_text())]
    assert callers == ["cli.py _format_chunk"]


def test_scan_finds_a_chunk_bytes_call():
    source = "from efq import csvtext\nfrom efq.csvtext import chunk_bytes\n\n"
    source += "def _format_chunk(columns):\n    return csvtext.chunk_bytes(columns)\n\n"
    source += "class Writer:\n    def write(self, columns):\n        fmt = lambda c: chunk_bytes(c)\n"
    source += "        return fmt(columns), csvtext.chunk_bytes\n\n"
    source += "text = chunk_bytes([range(3)])\n"
    assert chunk_bytes_callers(source) == ["line 5: _format_chunk", "line 9: write", "line 12: <module>"]


def file_writes(source: str) -> list[str]:
    """Each call that may open a file for writing, in source order, with the
    innermost ``def`` around it (or ``<module>``): every ``write_text`` or
    ``write_bytes`` call, and every ``open``, by name or as a method, whose
    mode is given and is not a string constant free of ``w``, ``a``, ``x``
    and ``+`` (so ``os.open``'s flags count as writing). A method ``open``
    other than ``os.open`` and ``io.open`` takes its mode first, as
    ``Path.open`` does."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            name = getattr(func, "attr", getattr(func, "id", None))
            if isinstance(child, ast.Call) and name in ("write_text", "write_bytes"):
                found.append((child.lineno, child.col_offset, f"{where}: {ast.unparse(func)}"))
            elif isinstance(child, ast.Call) and name == "open":
                method = isinstance(func, ast.Attribute) and ast.unparse(func.value) not in ("os", "io")
                at = 0 if method else 1  # the mode's place: Path.open(mode), open(file, mode)
                mode = next((k.value for k in child.keywords if k.arg in ("mode", "flags")), child.args[at] if len(child.args) > at else None)
                if mode is not None and not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+")):
                    opened = "" if method or not child.args else f"({ast.unparse(child.args[0])})"
                    found.append((child.lineno, child.col_offset, f"{where}: {ast.unparse(func)}{opened}"))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(source), "<module>")
    return [f"line {line}: {what}" for line, _, what in sorted(found)]


def test_every_artifact_is_written_through_one_opener():
    """``cli._artifact`` is the one place efq opens a file path for writing,
    so every artifact is written and removed on failure by one rule; the
    other opens for writing are of a worker's pipe ends, from ``os.pipe``,
    and no module calls ``write_text`` or ``write_bytes``."""
    found = [f"{p.name} {write.split(': ', 1)[1]}" for p in PACKAGE for write in file_writes(p.read_text())]
    assert found == ["cli.py __init__: open(outbox)", "cli.py __init__: open(requests)", "cli.py _artifact: open(path)"]


def test_scan_finds_a_file_write():
    source = "import os\nfrom pathlib import Path\n\n"
    source += "def f(path, mode):\n    Path(path).write_text('x')\n    path.write_bytes(b'x')\n"
    source += "    with open(path) as a, open(path, 'rb') as b, path.open(mode='r+') as c:\n        pass\n"
    source += "    return open(path, mode), os.open(path, os.O_RDONLY), path.open('a'), open(path, encoding='utf-8')\n\n"
    source += "log = open('log.txt', 'w')\n"
    assert file_writes(source) == [
        "line 5: f: Path(path).write_text",
        "line 6: f: path.write_bytes",
        "line 7: f: path.open",
        "line 9: f: open(path)",
        "line 9: f: os.open(path)",
        "line 9: f: path.open",
        "line 11: <module>: open('log.txt')",
    ]


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


def dynamic_code_calls(source: str) -> list[str]:
    """Each call of the builtin ``exec``, ``eval`` or ``compile`` by name,
    in source order; a method of that name (``tf.eval``) is not one."""
    names = ("exec", "eval", "compile")
    calls = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names
    ]
    return [f"line {n.lineno}: {n.func.id}" for n in sorted(calls, key=lambda n: (n.lineno, n.col_offset))]


def test_only_the_scalar_loop_builds_code():
    """``simulate._scalar_loop`` compiles the scalar loop for each order
    from one template; no other module builds code at run time."""
    assert [f"{p.name} {call}" for p in PACKAGE if p.name != "simulate.py" for call in dynamic_code_calls(p.read_text())] == []


def test_scan_finds_a_dynamic_code_call():
    source = "import re\n\ndef f(tf, s):\n    exec(compile(s, 'x', 'exec'))\n    return eval(s), tf.eval(1), re.compile(s)\n"
    assert dynamic_code_calls(source) == ["line 4: exec", "line 4: compile", "line 5: eval"]


def test_shapers_of_one_order_share_one_compiled_loop():
    """The loop is compiled once per order, not per shaper or per call."""
    quant = MidRiseQuantizer(step=0.25, saturation=1.875)
    x = np.linspace(-2.0, 2.0, 100)
    first, second = RationalDiscreteTF((1.0, -0.5, 0.25)), RationalDiscreteTF((1.0, 0.3), (1.0, 0.2, 0.1))
    assert first.order == second.order == 2
    run_feedback_loop(x, first, quant)
    loop = _scalar_loop(2)
    misses = _scalar_loop.cache_info().misses
    run_feedback_loop(x, second, quant)
    assert _scalar_loop(2) is loop
    assert _scalar_loop.cache_info().misses == misses


def overload_excesses(source: str) -> list[str]:
    """Each subtraction of a ``clip`` call, by name or as a method, from
    another value, as w - clip(w, -d/2, d/2) forms the overload excess, in
    source order, with the dotted names of the classes and ``def``s around
    it (or ``<module>``)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Sub) and isinstance(child.right, ast.Call):
                if getattr(child.right.func, "attr", getattr(child.right.func, "id", None)) == "clip":
                    found.append((child.lineno, child.col_offset, ".".join(where) or "<module>"))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, (*where, child.name) if named else where)

    visit(ast.parse(source), ())
    return [f"line {line}: {where}" for line, _, where in sorted(found)]


def test_overload_excess_is_formed_in_one_place():
    """Only ``simulate.RunStats`` forms the overload excess w_o of a run, so
    its granular reading has one definition."""
    found = [f"{p.name} {site.split(': ')[1]}" for p in PACKAGE for site in overload_excesses(p.read_text())]
    assert [site.rsplit(".", 1)[0] for site in found] == ["simulate.py RunStats"]


def test_scan_finds_a_second_overload_excess():
    source = "import numpy as np\n\n\nclass RunStats:\n    def add(self, w, h):\n        return w - np.clip(w, -h, h)\n\n\n"
    source += "def granular(w, d, level, sat):\n    level = np.clip(level, -sat, sat)\n    return w - w.clip(-d / 2, d / 2)\n\n\n"
    source += "excess = w - clip(w, -1, 1), w + np.clip(w, -1, 1)\n"
    assert overload_excesses(source) == ["line 6: RunStats.add", "line 11: granular", "line 14: <module>"]


WORKER_MODULES = ("multiprocessing", "concurrent", "threading")


def worker_machinery(source: str) -> list[str]:
    """Each import of ``multiprocessing``, ``concurrent`` or ``threading``,
    or of a module under them, and each name, attribute or imported name
    ``fork``, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node, alias.name) for alias in node.names if alias.name.split(".")[0] in WORKER_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in WORKER_MODULES:
            found.append((node, node.module))
        elif "fork" in (getattr(node, "attr", None), getattr(node, "id", None)) or isinstance(node, ast.alias) and node.name == "fork":
            found.append((node, "fork"))
    return [f"line {n.lineno}: {name}" for n, name in sorted(found, key=lambda item: (item[0].lineno, item[0].col_offset))]


def test_only_cli_forks_and_no_module_imports_pools_or_threads():
    """``cli._fork_workers`` is the one place a process forks, on plain
    pipes: no executor, no manager or feeder thread."""
    found = [f"{p.name} {item}" for p in PACKAGE for item in worker_machinery(p.read_text())]
    assert [item for item in found if not (item.startswith("cli.py ") and item.endswith(": fork"))] == []
    assert any(item.startswith("cli.py ") for item in found)


def test_scan_finds_worker_machinery():
    source = "import os, threading\nimport concurrent.futures as cf\nfrom multiprocessing import Pool\nfrom os import fork\n\n"
    source += "def f():\n    return os.fork(), fork(), os.forkpty()\n"
    assert worker_machinery(source) == [
        "line 1: threading",
        "line 2: concurrent.futures",
        "line 3: multiprocessing",
        "line 4: fork",
        "line 7: fork",
        "line 7: fork",
    ]


def worker_bodies(source: str) -> list[str]:
    """The body given to each ``_fork_workers`` call, by name or as a
    method, in source order: the function called to build it, or the
    source of any other body."""
    calls = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_fork_workers"
    ]
    found = []
    for call in sorted(calls, key=lambda n: (n.lineno, n.col_offset)):
        body = call.args[1] if len(call.args) > 1 else next(k.value for k in call.keywords if k.arg == "body")
        found.append(f"line {call.lineno}: {ast.unparse(body.func if isinstance(body, ast.Call) else body)}")
    return found


def test_every_worker_set_runs_the_one_child_body():
    """Every ``_fork_workers`` call is given a ``_serve`` body, so maps and
    CSV tables speak one protocol: one reply of a result and its counts, or
    an exception, per item, read back in item order."""
    bodies = [f"{p.name} {body}" for p in PACKAGE for body in worker_bodies(p.read_text())]
    assert bodies and [body for body in bodies if not body.endswith(": _serve")] == []


def test_scan_finds_a_worker_set_with_another_body():
    source = "def f(fn, items, body):\n    with cli._fork_workers(2, _serve(fn, items, 2)):\n        pass\n"
    source += "    with _fork_workers(2, body), _fork_workers(count=3, body=functools.partial(_serve, fn)):\n"
    source += "        return _fork_workers(2, lambda i, r, w: None)\n"
    assert worker_bodies(source) == [
        "line 2: _serve",
        "line 4: body",
        "line 4: functools.partial",
        "line 5: lambda i, r, w: None",
    ]


def random_draws(source: str) -> list[str]:
    """Each call of ``default_rng`` or ``standard_normal``, by name or as a
    method, outside the class ``_InputDraw``, in source order."""
    tree = ast.parse(source)
    inside = {id(n) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "_InputDraw" for n in ast.walk(cls)}
    calls = [
        (node, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside
        and (name := getattr(node.func, "attr", getattr(node.func, "id", None))) in ("default_rng", "standard_normal")
    ]
    return [f"line {n.lineno}: {name}" for n, name in sorted(calls, key=lambda item: (item[0].lineno, item[0].col_offset))]


def test_a_lane_groups_random_streams_live_in_its_draw():
    """In efq.simulate only ``_InputDraw`` seeds an rng or draws from one, so
    the streams of a lane group have one home and no code reads another
    object's rng."""
    assert random_draws((Path(efq.__file__).parent / "simulate.py").read_text()) == []


def test_scan_finds_a_random_draw_outside_the_group_draw():
    source = "import numpy as np\nfrom numpy.random import default_rng\n\n\nclass _InputDraw:\n"
    source += "    def __init__(self, seed):\n        self.rng = np.random.default_rng(seed)\n\n"
    source += "    def __call__(self, n):\n        return self.rng.standard_normal(n)\n\n\n"
    source += "def f(draw, n):\n    x = draw.rng.standard_normal(n)\n    return x, default_rng(1)\n"
    assert random_draws(source) == ["line 14: standard_normal", "line 15: default_rng"]
