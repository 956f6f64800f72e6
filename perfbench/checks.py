"""Output checks: when a CLI stage run counts as failed.

A stage run fails when it crashes, times out, exits 1 or 2, leaves a missing
or malformed artifact, or writes an artifact that breaks a library invariant.
Exit 3 from ``simulate``, and failing ``verify`` checks that did not exist
when this benchmark was written, are findings: they are reported but do not
fail the run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# The invariant checks ``efq verify`` ran when this benchmark was written.
KNOWN_VERIFY_CHECKS = (
    "optimality_root_residual",
    "oversampling_collapse_identity",
    "distortion_upper_bound_slack",
    "feasibility_margin_positive",
    "shaper_logmean_zero",
    "grid_convergence_alpha",
    "fir_kkt_stationarity",
    "fir_kkt_complementary_slackness",
    "loop_identity_residual",
    "overload_rate",
)
REL_TOL = 1e-9  # round-off allowance for equalities and bounds
LOGMEAN_TOL = 1e-8
IDENTITY_TOL = 1e-6


class Malformed(Exception):
    """An artifact is missing, unreadable or breaks an invariant."""


@dataclass(frozen=True)
class Expected:
    """What every artifact of one config must agree on."""

    config_sha256: str
    cells: tuple[tuple[int, int], ...]
    n_points: int
    seeds: tuple[int, ...]
    length: int

    @classmethod
    def from_config(cls, cfg: dict, config_sha256: str) -> "Expected":
        cells = tuple((b, lam) for b in sorted(set(cfg["bits_list"])) for lam in sorted(set(cfg["lambda_list"])))
        sim = cfg["sim"]
        return cls(config_sha256, cells, cfg["n_points"], tuple(sim["seeds"]), sim["length"])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Malformed(message)


def _load_json(path: Path, exp: Expected) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise Malformed(f"{path.name}: unreadable ({exc})") from exc
    _require(isinstance(data, dict), f"{path.name}: not a JSON object")
    _require(data.get("config_sha256") == exp.config_sha256, f"{path.name}: config hash does not match")
    return data


def _cells_by_key(path: Path, cells: list, exp: Expected) -> dict:
    by_key = {(c["bits"], c["lambda"]): c for c in cells}
    _require(sorted(by_key) == sorted(exp.cells) and len(cells) == len(exp.cells), f"{path.name}: wrong cell set")
    return by_key


def _csv_rows(path: Path, exp: Expected, columns: list[str]):
    """Yield the data rows of an efq CSV as lists of strings, after checking
    the hash and column header lines."""
    try:
        handle = path.open()
    except OSError as exc:
        raise Malformed(f"{path.name}: unreadable ({exc})") from exc
    with handle:
        _require(handle.readline().rstrip("\n") == f"# config_sha256={exp.config_sha256}", f"{path.name}: bad hash line")
        _require(handle.readline().rstrip("\n") == ",".join(columns), f"{path.name}: bad column header")
        for line in handle:
            row = line.rstrip("\n").split(",")
            _require(len(row) == len(columns), f"{path.name}: row with {len(row)} fields")
            yield row


def _count_rows(path: Path, exp: Expected, columns: list[str]) -> tuple[int, list[str] | None]:
    """Stream a large CSV: its number of data rows and its last row."""
    count, last = 0, None
    for last in _csv_rows(path, exp, columns):
        count += 1
    return count, last


def _floats(path: Path, row: list[str]) -> list[float]:
    try:
        values = [float(v) for v in row]
    except ValueError as exc:
        raise Malformed(f"{path.name}: non-numeric field ({exc})") from exc
    _require(all(math.isfinite(v) for v in values), f"{path.name}: non-finite value")
    return values


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return math.isfinite(value)
    return isinstance(value, (str, bool))  # None marks a non-finite float


def _check_design(out: Path, exp: Expected) -> None:
    path = out / "design.json"
    cells = _cells_by_key(path, _load_json(path, exp)["cells"], exp)
    for (bits, lam), c in cells.items():
        where = f"design.json bits={bits} lambda={lam}"
        _require(abs(c["distortion"] - c["alpha_opt"]) <= REL_TOL * c["alpha_opt"], f"{where}: distortion != alpha_opt")
        _require(c["feasibility_margin"] > 0, f"{where}: feasibility margin not positive")
        _require(abs(c["logmean_check"]) <= LOGMEAN_TOL, f"{where}: shaper log-mean not zero")
    path = out / "design_r_opt.csv"
    rows, last = _count_rows(path, exp, ["bits", "lambda", "omega", "r_opt"])
    _require(rows == len(exp.cells) * exp.n_points, f"{path.name}: {rows} rows")
    _floats(path, last)


def _check_rd_curve(out: Path, exp: Expected) -> None:
    path = out / "rd_curve.csv"
    columns = ["bits", "lambda", "gamma", "D", "D_uniform", "bound", "D_db", "D_uniform_db", "bound_db", "identity_residual"]
    rows = [dict(zip(columns, _floats(path, row))) for row in _csv_rows(path, exp, columns)]
    _require(sorted((int(r["bits"]), int(r["lambda"])) for r in rows) == sorted(exp.cells), f"{path.name}: wrong cell set")
    for r in rows:
        where = f"{path.name} bits={int(r['bits'])} lambda={int(r['lambda'])}"
        _require(r["identity_residual"] <= IDENTITY_TOL, f"{where}: collapse identity residual {r['identity_residual']:.3g}")
        _require(r["D"] <= r["bound"] * (1 + REL_TOL), f"{where}: D above the upper bound")


def _check_fit(out: Path, exp: Expected) -> None:
    path = out / "fit.json"
    cells = _cells_by_key(path, _load_json(path, exp)["cells"], exp)
    for (bits, lam), c in cells.items():
        where = f"fit.json bits={bits} lambda={lam}"
        _require(c["feasible"] is True, f"{where}: infeasible fit")
        _require(c["achieved_mse"] >= c["ideal_mse"] * (1 - REL_TOL), f"{where}: fit beats the ideal MSE")


def _check_simulate(out: Path, exp: Expected, traced: bool) -> None:
    path = out / "simulate.json"
    cells = _cells_by_key(path, _load_json(path, exp)["cells"], exp)
    for (bits, lam), c in cells.items():
        where = f"simulate.json bits={bits} lambda={lam}"
        _require(tuple(r["seed"] for r in c["runs"]) == exp.seeds, f"{where}: runs do not match the seeds")
        _require(_all_finite(c), f"{where}: non-finite value")
    path = out / "simulate_runs.csv"
    columns = ["bits", "lambda", "seed", "empirical_mse", "predicted_mse", "overload_rate", "w_variance", "sigma_u_sq"]
    rows = [_floats(path, row) for row in _csv_rows(path, exp, columns)]
    _require(len(rows) == len(exp.cells) * len(exp.seeds), f"{path.name}: {len(rows)} rows")
    if traced:
        path = out / "trace.csv"
        rows, last = _count_rows(path, exp, ["k", "x", "u", "v", "w", "overload"])
        _require(rows == exp.length, f"{path.name}: {rows} rows")
        _require(_floats(path, last)[0] == exp.length - 1, f"{path.name}: last row is not sample {exp.length - 1}")


def _check_verify(out: Path, exp: Expected) -> list[str]:
    """Return the names of failing checks that are new since this benchmark."""
    path = out / "verify.json"
    checks = _load_json(path, exp)["checks"]
    verdict = {c["name"]: c["pass"] for c in checks}
    _require(all(name in verdict for name in KNOWN_VERIFY_CHECKS), f"{path.name}: a known check is missing")
    failed = [name for name in KNOWN_VERIFY_CHECKS if verdict[name] is not True]
    _require(not failed, f"{path.name}: failing checks {failed}")
    return [name for name, ok in verdict.items() if ok is not True]


def check_stage(command: str, flags: tuple[str, ...], returncode: int | None, out: Path, exp: Expected):
    """Judge one stage run. Returns (problems, findings): the run failed iff
    ``problems`` is nonempty."""
    findings: list[str] = []
    if returncode is None:
        return ["timed out"], findings
    if returncode < 0:
        return [f"killed by signal {-returncode}"], findings
    if returncode == 3 and command in ("simulate", "verify"):
        findings.append(f"{command} exited 3")
    elif returncode != 0:
        return [f"exited {returncode}"], findings
    try:
        if command == "design":
            _check_design(out, exp)
        elif command == "rd-curve":
            _check_rd_curve(out, exp)
        elif command == "fit":
            _check_fit(out, exp)
        elif command == "simulate":
            _check_simulate(out, exp, "--trace" in flags)
        elif command == "verify":
            findings.extend(f"new verify check failed: {name}" for name in _check_verify(out, exp))
        else:
            raise Malformed(f"no check for stage {command!r}")
    except Malformed as exc:
        return [str(exc)], findings
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"artifact lacks an expected field ({exc!r})"], findings
    return [], findings


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every file a stage directory holds, by file name."""
    digests = {}
    for path in sorted(out.iterdir()):
        h = hashlib.sha256()
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
        digests[path.name] = h.hexdigest()
    return digests
