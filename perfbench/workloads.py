"""Workload definitions: the efq config each workload feeds the CLI, built
from the workload seed, and the CLI stages it runs in order.

Every workload uses the built-in plant and loading factor 4. The program only
sees the JSON config files written from these dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

BUILTIN_SIM_LENGTH = 1_000_000
DEFAULT_SIM_LENGTH = 60_000


@dataclass(frozen=True)
class Stage:
    """One CLI invocation. ``flags`` may name files in the output directory
    as ``{out}``."""

    command: str
    flags: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.command.replace("-", "_")

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        extra = [flag.format(out=out_dir) for flag in self.flags]
        return [self.command, "--config", config_path, "--out", out_dir, *extra]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[int], dict]
    stages: tuple[Stage, ...]


def _base_config() -> dict:
    """The built-in benchmark config, spelled out as an efq config file."""
    return {
        "schema_version": 1,
        "plant": {
            "num": [1.029, 4.589, 7.146, 3.882],
            "den": [1.0, 5.088, 9.789, 8.296, 2.548],
            "sample_period": 0.1,
        },
        "bits_list": list(range(1, 9)),
        "lambda_list": [1, 2, 3, 4],
        "loading_factor": 4.0,
        "n_points": 8192,
        "fit": {"method": "qcqp", "order": 4},
        "sim": {"length": BUILTIN_SIM_LENGTH, "seeds": [0, 1, 2, 3, 4], "input_kind": "colored", "ct_pole": 2.62},
    }


def default_config(seed: int) -> dict:
    """The built-in 32 cells with the loop shortened to 60k samples. Seed s
    runs simulation seeds 5s .. 5s+4, so seed 0 gives the built-in 0-4."""
    cfg = _base_config()
    cfg["sim"]["length"] = DEFAULT_SIM_LENGTH
    cfg["sim"]["seeds"] = list(range(5 * seed, 5 * seed + 5))
    return cfg


def fine_grid_config(seed: int) -> dict:
    """The 32 cells on a 65536-point grid. The loop runs only verify's
    20k-sample lane, so this config does not depend on the seed."""
    cfg = _base_config()
    cfg["n_points"] = 65536
    return cfg


def single_lane_config(seed: int) -> dict:
    """One stable cell (bits 8, lambda 1) with an order-4 IIR fit and one
    1M-sample lane on simulation seed ``seed``."""
    cfg = _base_config()
    cfg["bits_list"] = [8]
    cfg["lambda_list"] = [1]
    cfg["fit"] = {"method": "yw", "order": 4}
    cfg["sim"]["seeds"] = [seed]
    return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default",
            "what users run: every stage on 32 cells; CSV formatting and the 160-lane loop dominate",
            default_config,
            (
                Stage("design"),
                Stage("rd-curve"),
                Stage("fit", ("--design", "{out}/design.json")),
                Stage("simulate", ("--fit", "{out}/fit.json")),
                Stage("verify"),
            ),
        ),
        Workload(
            "fine-grid",
            "65536-point grid: quadrature and root solves dominate; no large artifact, one short loop lane",
            fine_grid_config,
            (Stage("rd-curve"), Stage("fit"), Stage("verify")),
        ),
        Workload(
            "single-lane",
            "one 1M-sample lane on the scalar loop with an IIR shaper and an 89 MB trace.csv",
            single_lane_config,
            (Stage("fit"), Stage("simulate", ("--fit", "{out}/fit.json", "--trace"))),
        ),
    )
}
