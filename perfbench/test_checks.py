"""The benchmark's output check: intact artifacts pass, and a corrupted copy
of any artifact makes its stage run count as failed.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import efq  # noqa: E402
from efq.cli import main  # noqa: E402

from checks import Expected, check_stage  # noqa: E402
from workloads import WORKLOADS, default_config  # noqa: E402

STAGES = {s.command: s for w in WORKLOADS.values() for s in w.stages}
TRACED_SIMULATE = WORKLOADS["single-lane"].stages[-1]


def small_config() -> dict:
    cfg = default_config(0)
    cfg.update(bits_list=[2, 3], lambda_list=[1, 2], n_points=2048)
    cfg["sim"].update(length=5000, seeds=[0, 1])
    return cfg


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One output directory holding every stage's artifacts, and what they
    must agree on."""
    root = tmp_path_factory.mktemp("artifacts")
    cfg = small_config()
    config_path = root / "config.json"
    config_path.write_text(json.dumps(cfg))
    out = root / "out"
    for stage in (*(STAGES[c] for c in ("design", "rd-curve", "fit")), TRACED_SIMULATE, STAGES["verify"]):
        assert main([*stage.argv(str(config_path), str(out)), "--quiet"]) == 0
    return out, Expected.from_config(cfg, efq.config_hash(efq.load_config(config_path)))


def _check(stage, out, exp, returncode=0):
    return check_stage(stage.command, stage.flags, returncode, out, exp)


@pytest.mark.parametrize("command", ["design", "rd-curve", "fit", "simulate", "verify"])
def test_intact_artifacts_pass(artifacts, command):
    out, exp = artifacts
    stage = TRACED_SIMULATE if command == "simulate" else STAGES[command]
    assert _check(stage, out, exp) == ([], [])


def _edit_json(name, edit):
    def mutate(out: Path):
        data = json.loads((out / name).read_text())
        edit(data)
        (out / name).write_text(json.dumps(data))

    return mutate


def _edit_text(name, edit):
    def mutate(out: Path):
        (out / name).write_text(edit((out / name).read_text()))

    return mutate


def _set_first_cell(key, value):
    def edit(data):
        data["cells"][0][key] = value

    return edit


def _replace_last_field(text: str, value: str) -> str:
    lines = text.splitlines()
    lines[-1] = ",".join(lines[-1].split(",")[:-1] + [value])
    return "\n".join(lines) + "\n"


CORRUPTIONS = {
    "design.json truncated": ("design", _edit_text("design.json", lambda t: t[: len(t) // 2])),
    "design.json negative margin": ("design", _edit_json("design.json", _set_first_cell("feasibility_margin", -1e-3))),
    "design.json distortion off alpha": ("design", _edit_json("design.json", _set_first_cell("distortion", 1.0))),
    "design_r_opt.csv row dropped": ("design", _edit_text("design_r_opt.csv", lambda t: t[: t.rstrip("\n").rfind("\n") + 1])),
    "rd_curve.csv identity broken": ("rd-curve", _edit_text("rd_curve.csv", lambda t: _replace_last_field(t, "0.001"))),
    "rd_curve.csv missing": ("rd-curve", lambda out: (out / "rd_curve.csv").unlink()),
    "fit.json infeasible": ("fit", _edit_json("fit.json", _set_first_cell("feasible", False))),
    "fit.json beats ideal": ("fit", _edit_json("fit.json", _set_first_cell("achieved_mse", 0.0))),
    "simulate.json wrong hash": ("simulate", _edit_json("simulate.json", lambda d: d.update(config_sha256="0" * 64))),
    "simulate.json non-finite": ("simulate", _edit_json("simulate.json", lambda d: d["cells"][0]["runs"][0].update(empirical_mse=None))),
    "simulate.json seed missing": ("simulate", _edit_json("simulate.json", lambda d: d["cells"][0]["runs"].pop())),
    "trace.csv truncated": ("simulate", _edit_text("trace.csv", lambda t: t[: len(t) // 2])),
    "verify.json known check fails": ("verify", _edit_json("verify.json", lambda d: d["checks"][0].update({"pass": False}))),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_artifact_fails(artifacts, tmp_path, case):
    out, exp = artifacts
    command, corrupt = CORRUPTIONS[case]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    corrupt(copy)
    stage = TRACED_SIMULATE if command == "simulate" else STAGES[command]
    problems, _ = _check(stage, copy, exp)
    assert problems, case


@pytest.mark.parametrize("returncode", [None, -9, 1, 2])
def test_bad_exit_fails_even_with_intact_artifacts(artifacts, returncode):
    out, exp = artifacts
    problems, _ = _check(STAGES["fit"], out, exp, returncode)
    assert problems


def test_simulate_exit_3_is_a_finding(artifacts):
    out, exp = artifacts
    problems, findings = _check(TRACED_SIMULATE, out, exp, returncode=3)
    assert problems == [] and findings == ["simulate exited 3"]


def test_new_failing_verify_check_is_a_finding(artifacts, tmp_path):
    out, exp = artifacts
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    new_check = {"name": "collapse_detected", "measured": 1.0, "tolerance": 0.0, "pass": False}
    _edit_json("verify.json", lambda d: d["checks"].append(new_check))(copy)
    problems, findings = _check(STAGES["verify"], copy, exp, returncode=3)
    assert problems == []
    assert findings == ["verify exited 3", "new verify check failed: collapse_detected"]
