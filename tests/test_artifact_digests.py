"""Every artifact of the benchmark workloads keeps its bytes.

Runs each workload of ``perfbench/workloads.py`` at seed 0 in this process,
stage by stage through ``efq.cli.main`` with the workload's config and
flags, and compares the sha256 of every artifact with
``tests/artifact_digests.json``, keyed by the config's sha256. The stages'
``*.timings.json`` sidecars hold times that differ from run to run, so they
are not hashed; their design solves and quadratures by phase, and the CSV
rows and bytes written, summed over the stages, are compared with the
counts recorded beside the digests. A change that means to alter an
artifact, the solve cost or the tables' size records them again and says
why::

    PYTHONPATH=src python tests/test_artifact_digests.py

which prints, per workload, each recorded entry it changes as old -> new,
or "unchanged".
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from efq.cli import main
from efq.config import config_hash, load_config

REPO = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("artifact_digests.json")
SEED = 0
COUNTS = ("solves", "newton", "bisection", "polish")
CSV_COUNTS = ("csv_rows", "csv_bytes")


def load_workloads() -> dict:
    """``perfbench/workloads.py``, loaded by path. The module is registered in
    sys.modules before it runs, or its dataclasses fail to build."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_workload(workload, work: Path) -> tuple[str, dict[str, str], dict[str, int], dict[str, int]]:
    """The config's sha256, each artifact's, by file name, and the solve
    counts and CSV counts summed over the timings sidecars, of one workload
    at SEED; each file is removed once read (``trace.csv`` is 89 MB)."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config(SEED), indent=2) + "\n")
    out = work / "out"
    for stage in workload.stages:
        assert main([*stage.argv(str(config_path), str(out)), "--quiet"]) == 0, stage.command
    digests, counts, csv_counts = {}, dict.fromkeys(COUNTS, 0), dict.fromkeys(CSV_COUNTS, 0)
    for path in sorted(out.iterdir()):
        if path.name.endswith(".timings.json"):
            timings = json.loads(path.read_text())
            counts = {name: counts[name] + timings[name] for name in COUNTS}
            csv_counts = {name: csv_counts[name] + timings[name] for name in CSV_COUNTS}
        else:
            digests[path.name] = sha256(path)
        path.unlink()
    return config_hash(load_config(config_path)), digests, counts, csv_counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_artifacts_keep_their_digests(name, tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    sha, digests, counts, csv_counts = run_workload(WORKLOADS[name], tmp_path)
    expected = recorded["artifacts"].get(sha, {})
    changed = sorted(f for f in digests.keys() | expected.keys() if digests.get(f) != expected.get(f))
    if counts != recorded["solve_counts"].get(sha):
        changed.append("the solve counts")
    if csv_counts != recorded["csv_counts"].get(sha):
        changed.append("the CSV rows and bytes")
    message = f"{name}: {', '.join(changed)} differ from {DIGESTS.name}."
    if np.__version__ != recorded["numpy"]:
        message += (
            f" The digests were recorded with numpy {recorded['numpy']}, and this is numpy {np.__version__}:"
            " the test still compares, but numpy's FFT and pairwise sums may move the last bit of a value,"
            " so a difference here need not come from efq."
        )
    message += f" A change that alters an artifact, the solve cost or the CSV counts on purpose runs {Path(__file__).name}"
    message += " to record them again."
    assert not changed, message


def changes(old: dict, new: dict) -> list[str]:
    """Each entry of the record that differs between `old` and `new`, one
    ``section/key: old -> new`` line apiece (None where it is absent)."""
    return [
        f"{section}/{key}: {old.get(section, {}).get(key)} -> {new[section].get(key)}"
        for section in sorted(new)
        for key in sorted(old.get(section, {}).keys() | new[section].keys())
        if old.get(section, {}).get(key) != new[section].get(key)
    ]


if __name__ == "__main__":
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    artifacts, solve_counts, csv_counts = {}, {}, {}
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as work:
            sha, artifacts[sha], solve_counts[sha], csv_counts[sha] = run_workload(workload, Path(work))
        new = {"artifacts": artifacts[sha], "solve_counts": solve_counts[sha], "csv_counts": csv_counts[sha]}
        old = {section: recorded.get(section, {}).get(sha, {}) for section in new}
        print(f"{name}:", *(changes(old, new) or ["unchanged"]), sep="\n  ")
    if recorded.get("numpy") != np.__version__:
        print(f"numpy: {recorded.get('numpy')} -> {np.__version__}")
    record = {"numpy": np.__version__, "artifacts": artifacts, "solve_counts": solve_counts, "csv_counts": csv_counts}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
