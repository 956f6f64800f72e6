"""Command-line front end.

Subcommands:

* ``design``    — solve the optimal shaping design per (bits, oversampling) cell
* ``rd-curve``  — rate-distortion sweep table (optimal vs uniform vs bound)
* ``fit``       — synthesize realizable filters and score them against the ideal
* ``simulate``  — run the time-domain loop and compare against predictions
* ``verify``    — run the invariant suite; nonzero exit on any failure

All commands are deterministic given the configuration and seeds; every
output file carries the configuration hash. Exit codes: 0 success,
1 validation error, 2 numerical failure, 3 invariant failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import design as design_mod
from . import fitting, simulate, spectral
from .config import (
    ExperimentConfig,
    SCHEMA_VERSION,
    config_hash,
    default_config,
    load_config,
    validate_config,
)
from .errors import ConfigError, NumericalError, VerificationFailure
from .transfer import RationalDiscreteTF

THREADS_ENV = "EFQ_THREADS"
# _write_csv formats CSV_CHUNK_ROWS rows at a time (a few MB of strings), and
# formats a column chunk once per distinct bit pattern when it has at most
# one per CSV_FEW_DISTINCT rows.
CSV_CHUNK_ROWS = 1 << 14
CSV_FEW_DISTINCT = 2
TRACE_COLUMNS = ("k", "x", "u", "v", "w", "overload")


# ----------------------------------------------------------------------
# Infrastructure


def _max_workers() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    if raw:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ConfigError(f"{THREADS_ENV} must be at least 1, got {n}")
        return n
    return min(8, os.cpu_count() or 1)


def _pool_map(fn, items):
    items = list(items)
    workers = min(_max_workers(), len(items)) or 1
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _json_safe(value):
    """Recursively replace non-finite floats by None for strict-JSON output."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n")


@dataclasses.dataclass(frozen=True)
class CsvTable:
    """A CSV table as named columns of equal length: 1-D arrays, or a range
    for a row index. ``len()`` is the row count."""

    columns: dict[str, np.ndarray | range]

    @classmethod
    def from_records(cls, names: str, records) -> "CsvTable":
        """The table of row records, each column typed as np.rec.fromrecords
        types it: ``np.array`` of the column's values."""
        return cls({name: np.array(col) for name, col in zip(names.split(","), zip(*records), strict=True)})

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


def _csv_cells(col) -> list[str]:
    """Cell strings of one column chunk: bool as 1/0, int as str, float as
    repr. A chunk with at most one distinct bit pattern per CSV_FEW_DISTINCT
    rows formats each pattern once and looks the cells up."""
    if isinstance(col, range):
        return list(map(repr, col))
    if col.dtype.kind == "b":
        col = col.astype(np.int8)
    # tolist() yields Python ints and floats, whose repr is str(int) and the
    # shortest round-tripping float text.
    bits = col.view(f"i{col.itemsize}")  # -0.0 and 0.0 are two patterns
    patterns = np.sort(bits)
    patterns = patterns[np.concatenate(([True], patterns[1:] != patterns[:-1]))]
    if len(patterns) * CSV_FEW_DISTINCT > len(col):
        return list(map(repr, col.tolist()))
    texts = np.array(list(map(repr, patterns.view(col.dtype).tolist())), dtype=object)
    return texts[np.searchsorted(patterns, bits)].tolist()


@contextlib.contextmanager
def _csv_file(path: Path, cfg_sha: str, names) -> Iterator[Callable[[CsvTable], None]]:
    """Open a CSV file under a config-hash comment line and a header of the
    column names; yields a function that appends a table's rows. An
    exception inside the block removes the file, so no truncated table is
    left behind.

    Rows are formatted and written CSV_CHUNK_ROWS at a time from the columns
    themselves, so memory stays bounded for long traces.
    """
    try:
        with open(path, "w") as fh:
            fh.write(f"# config_sha256={cfg_sha}\n{','.join(names)}\n")

            def append(rows: CsvTable) -> None:
                for start in range(0, len(rows), CSV_CHUNK_ROWS):
                    cells = [_csv_cells(col[start : start + CSV_CHUNK_ROWS]) for col in rows.columns.values()]
                    fh.write("\n".join(map(",".join, zip(*cells))) + "\n")

            yield append
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, cfg_sha: str, rows: CsvTable) -> None:
    """Write a table as CSV (see ``_csv_file``)."""
    with _csv_file(path, cfg_sha, rows.columns) as append:
        append(rows)


def _load_setup(args) -> tuple[ExperimentConfig, str]:
    cfg = load_config(args.config) if args.config else default_config()
    if args.grid is not None:
        cfg = dataclasses.replace(cfg, n_points=args.grid)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seeds=(args.seed,)))
    validate_config(cfg)
    return cfg, config_hash(cfg)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _cells(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    return [(b, lam) for b in sorted(set(cfg.bits_list)) for lam in sorted(set(cfg.lambda_list))]


def _base_response(cfg: ExperimentConfig) -> spectral.AmplitudeResponse:
    return spectral.ct_frequency_map(cfg.plant_tf(), 1, cfg.grid())


def _positive(value) -> float:
    if type(value) not in (int, float) or not 0 < value < math.inf:
        raise ValueError(f"expected a finite positive number, got {value!r}")
    return value


def _shaper(value) -> RationalDiscreteTF:
    return fitting.normalize_head(RationalDiscreteTF(value["num"], value["den"]))


def _read_cells(path: str, kind: str, sha: str, cells, fields: dict) -> dict:
    """Parsed fields of each of ``cells`` in an upstream JSON artifact,
    keyed by (bits, lambda); ``fields`` maps each field name to its parser.

    An unreadable file, another configuration's hash, a missing cell or a
    field its parser rejects raises ConfigError naming the file and field.
    """
    try:
        artifact = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} artifact {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{kind} artifact {path} is not valid JSON: {exc}") from exc
    if not isinstance(artifact, dict) or not isinstance(artifact.get("cells"), list):
        raise ConfigError(f"{kind} artifact {path} is not a JSON object with a 'cells' list")
    if artifact.get("config_sha256") != sha:
        raise ConfigError(f"{kind} artifact {path} was produced with a different configuration")
    rows = [c for c in artifact["cells"] if isinstance(c, dict)]
    parsed = {}
    for bits, lam in cells:
        cell = next((c for c in rows if (c.get("bits"), c.get("lambda")) == (bits, lam)), None)
        if cell is None:
            raise ConfigError(f"{kind} artifact {path} has no cell for bits={bits} lambda={lam}")
        parsed[bits, lam] = {}
        for name, parse in fields.items():
            try:
                parsed[bits, lam][name] = parse(cell.get(name))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"{kind} artifact {path}: bits={bits} lambda={lam} has an invalid {name!r}: {exc}"
                ) from exc
    return parsed


# ----------------------------------------------------------------------
# design


def cmd_design(args) -> int:
    cfg, sha = _load_setup(args)
    out = _out_dir(args)
    p_base = _base_response(cfg)

    def solve(cell):
        bits, lam = cell
        gamma = design_mod.gamma_from_bits(bits, cfg.loading_factor)
        return gamma, design_mod.design_for_nu(p_base, gamma + 1.0, lam)

    cells = _cells(cfg)
    solved = _pool_map(solve, cells)

    cell_payload = []
    for (bits, lam), (gamma, sol) in zip(cells, solved):
        nu = gamma + 1.0
        logmean = spectral.log_geometric_mean(sol.r_opt)
        cell_payload.append(
            {
                "bits": bits,
                "lambda": lam,
                "gamma": gamma,
                "nu": nu,
                "alpha_opt": sol.alpha_opt,
                "theta_opt": sol.theta_opt,
                "distortion": sol.distortion,
                "distortion_db": design_mod.db(sol.distortion),
                "norm_r_sq": sol.norm_r_sq,
                "n_of_alpha": sol.n_of_alpha,
                "feasibility_margin": nu - sol.norm_r_sq,
                "logmean_check": logmean,
            }
        )
        _say(args, f"design bits={bits} lambda={lam}: distortion {design_mod.db(sol.distortion):.4f} dB")

    _write_json(out / "design.json", {"schema_version": SCHEMA_VERSION, "config_sha256": sha, "cells": cell_payload})
    omegas = p_base.grid.omegas
    r_opt = CsvTable(
        {
            "bits": np.repeat([bits for bits, _ in cells], len(omegas)),
            "lambda": np.repeat([lam for _, lam in cells], len(omegas)),
            "omega": np.tile(omegas, len(cells)),
            "r_opt": np.concatenate([sol.r_opt.values for _, sol in solved]),
        }
    )
    _write_csv(out / "design_r_opt.csv", sha, r_opt)
    _say(args, f"wrote {out / 'design.json'} and {out / 'design_r_opt.csv'}")
    return 0


# ----------------------------------------------------------------------
# rd-curve


def cmd_rd_curve(args) -> int:
    cfg, sha = _load_setup(args)
    out = _out_dir(args)
    p_base = _base_response(cfg)
    lams = sorted(set(cfg.lambda_list))

    def sweep_bits(bits):
        return design_mod.rd_curve(p_base, [bits], lams, cfg.loading_factor)

    rows_nested = _pool_map(sweep_bits, sorted(set(cfg.bits_list)))
    rows = [row for group in rows_nested for row in group]

    csv_rows = [
        [
            row.bits,
            row.oversampling,
            row.gamma,
            row.distortion,
            row.d_uniform,
            row.bound,
            row.distortion_db,
            row.d_uniform_db,
            row.bound_db,
            row.identity_residual,
        ]
        for row in rows
    ]
    names = "bits,lambda,gamma,D,D_uniform,bound,D_db,D_uniform_db,bound_db,identity_residual"
    _write_csv(out / "rd_curve.csv", sha, CsvTable.from_records(names, csv_rows))
    for row in rows:
        _say(
            args,
            f"rd bits={row.bits} lambda={row.oversampling}: D {row.distortion_db:.4f} dB, "
            f"uniform {row.d_uniform_db:.4f} dB, gain {row.gain_db:.4f} dB",
        )
    _say(args, f"wrote {out / 'rd_curve.csv'}")
    return 0


# ----------------------------------------------------------------------
# fit


def _fit_cells(cfg, p_base, designed: dict | None = None) -> list:
    """(gamma, fit report) per cell in ``_cells`` order, fitted to the
    ``designed`` artifact cells, or to designs solved here when it is None."""

    def run(cell):
        bits, lam = cell
        gamma = design_mod.gamma_from_bits(bits, cfg.loading_factor)
        if designed is None:
            sol = design_mod.design_for_nu(p_base, gamma + 1.0, lam)
            alpha, budget = sol.alpha_opt, sol.norm_r_sq
        else:
            alpha, budget = designed[cell]["alpha_opt"], designed[cell]["norm_r_sq"]
        p_lam = spectral.oversample_response(p_base, lam)
        return gamma, fitting.fit_cell(cfg.fit.method, cfg.fit.order, p_lam, gamma, alpha, budget)

    return _pool_map(run, _cells(cfg))


def _report_payload(bits, lam, gamma, report) -> dict:
    tf = fitting.as_discrete_tf(report.fitted)
    return {
        "bits": bits,
        "lambda": lam,
        "gamma": gamma,
        "filter": {"num": list(tf.num), "den": list(tf.den)},
        "norm_sq": report.norm_sq,
        "feasible": report.feasible,
        "kkt_multiplier": report.kkt_multiplier,
        "achieved_mse": report.achieved_mse,
        "achieved_mse_db": design_mod.db(report.achieved_mse) if math.isfinite(report.achieved_mse) else math.inf,
        "ideal_mse": report.ideal_mse,
        "ideal_mse_db": design_mod.db(report.ideal_mse),
        "loss_db": report.loss_db,
    }


def cmd_fit(args) -> int:
    cfg, sha = _load_setup(args)
    out = _out_dir(args)
    cells = _cells(cfg)
    designed = None
    if args.design:
        designed = _read_cells(args.design, "design", sha, cells, {"alpha_opt": _positive, "norm_r_sq": _positive})
    results = _fit_cells(cfg, _base_response(cfg), designed)

    payload_cells = []
    for (bits, lam), (gamma, report) in zip(cells, results):
        cell = _report_payload(bits, lam, gamma, report)
        payload_cells.append(cell)
        _say(
            args,
            f"fit[{cfg.fit.method}] bits={bits} lambda={lam}: achieved {cell['achieved_mse_db']:.4f} dB, "
            f"ideal {cell['ideal_mse_db']:.4f} dB, loss {cell['loss_db']:.4f} dB",
        )

    _write_json(
        out / "fit.json",
        {
            "schema_version": SCHEMA_VERSION,
            "config_sha256": sha,
            "method": cfg.fit.method,
            "order": cfg.fit.order,
            "cells": payload_cells,
        },
    )
    _say(args, f"wrote {out / 'fit.json'}")
    return 0


# ----------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cfg, sha = _load_setup(args)
    out = _out_dir(args)
    plant = cfg.plant_tf()
    grid = cfg.grid()
    cell_list = _cells(cfg)
    fitted = _read_cells(args.fit, "fit", sha, cell_list, {"filter": _shaper}) if args.fit else None
    # One plant fit per oversampling factor, shared by that factor's cells;
    # each must leave samples past its burn-in before any loop runs.
    sim_plants = {}
    for lam in sorted(set(cfg.lambda_list)):
        plant_d = simulate.discretize_plant(plant, lam)
        simulate.plant_burn_in(plant_d, cfg.sim.length)
        sim_plants[lam] = (plant_d, spectral.amplitude_of_tf(plant_d, grid))

    if fitted is not None:
        shapers = [fitted[cell]["filter"] for cell in cell_list]
    else:
        shapers = [fitting.as_discrete_tf(report.fitted) for _, report in _fit_cells(cfg, _base_response(cfg))]

    cells = []  # (predicted MSE, payload without runs)
    lanes = []  # one per (cell, seed), in that order
    for (bits, lam), shaper in zip(cell_list, shapers):
        gamma = design_mod.gamma_from_bits(bits, cfg.loading_factor)
        plant_d, p_sim = sim_plants[lam]
        score, sigma_u_sq, sigma_w_sq, quantizer = simulate.loop_quantizer(shaper, p_sim, bits, cfg.loading_factor)
        cell = {
            "bits": bits,
            "lambda": lam,
            "gamma": gamma,
            "filter": {"num": list(shaper.num), "den": list(shaper.den)},
            "quantizer": {"step": quantizer.step, "saturation": quantizer.saturation},
            "sigma_u_sq_pred": sigma_u_sq,
            "sigma_w_sq_pred": sigma_w_sq,
            "predicted_mse": score.achieved_mse,
        }
        cells.append((score.achieved_mse, cell))
        for seed in cfg.sim.seeds:
            model = simulate.SignalModel(
                kind=cfg.sim.input_kind, seed=seed, length=cfg.sim.length, ct_pole=cfg.sim.ct_pole
            )
            lanes.append(
                simulate.Lane(model, plant.sample_period / lam, shaper, quantizer, plant_d, score.achieved_mse)
            )

    cell_runs = []  # per cell: (seed, SimulationResult) per seed
    trace_file = _csv_file(out / "trace.csv", sha, TRACE_COLUMNS) if args.trace else contextlib.nullcontext()
    with trace_file as append_trace:

        def trace(start, traces):  # each chunk of the first lane
            columns = {name: getattr(traces, name) for name in TRACE_COLUMNS[1:]}
            append_trace(CsvTable({"k": range(start, start + len(traces.x)), **columns}))

        results = simulate.run_lanes(lanes, trace if args.trace else None)
        for _, cell in cells:
            bits, lam = cell["bits"], cell["lambda"]
            runs = []
            for seed in cfg.sim.seeds:
                result = next(results)
                runs.append((seed, result))
                _say(
                    args,
                    f"simulate bits={bits} lambda={lam} seed={seed}: empirical {result.empirical_mse:.6g} "
                    f"vs predicted {result.predicted_mse:.6g}, overload rate {result.overload_rate:.3g}",
                )
            cell_runs.append(runs)

    csv_rows = []
    for (predicted, cell), runs in zip(cells, cell_runs):
        bits, lam = cell["bits"], cell["lambda"]
        empiricals = np.array([r.empirical_mse for _, r in runs])
        mean = float(np.mean(empiricals))
        std = float(np.std(empiricals, ddof=1)) if len(empiricals) > 1 else 0.0
        ci95 = 1.96 * std / math.sqrt(len(empiricals)) if len(empiricals) > 1 else 0.0
        cell["runs"] = [
            {
                "seed": seed,
                "empirical_mse": r.empirical_mse,
                "overload_count": r.overload_count,
                "overload_rate": r.overload_rate,
                "w_variance": r.w_variance,
                "sigma_u_sq": r.sigma_u_sq,
                "max_abs_w_autocorr": max(abs(c) for c in r.w_autocorr),
            }
            for seed, r in runs
        ]
        cell["aggregate"] = {
            "mean_empirical_mse": mean,
            "std_empirical_mse": std,
            "ci95_halfwidth": ci95,
            "mean_over_predicted": mean / predicted if predicted > 0 else math.inf,
        }
        for seed, r in runs:
            csv_rows.append(
                [bits, lam, seed, r.empirical_mse, r.predicted_mse, r.overload_rate, r.w_variance, r.sigma_u_sq]
            )

    _write_json(
        out / "simulate.json",
        {"schema_version": SCHEMA_VERSION, "config_sha256": sha, "cells": [cell for _, cell in cells]},
    )
    names = "bits,lambda,seed,empirical_mse,predicted_mse,overload_rate,w_variance,sigma_u_sq"
    _write_csv(out / "simulate_runs.csv", sha, CsvTable.from_records(names, csv_rows))
    _say(args, f"wrote {out / 'simulate.json'} and {out / 'simulate_runs.csv'}")
    return 0


# ----------------------------------------------------------------------
# verify


def _verify_checks(cfg: ExperimentConfig) -> list[dict]:
    checks: list[dict] = []

    def record(name: str, measured: float, tolerance: float, ok: bool) -> None:
        checks.append({"name": name, "measured": measured, "tolerance": tolerance, "pass": bool(ok)})

    p_base = _base_response(cfg)
    bits_sorted = sorted(set(cfg.bits_list))
    lams = sorted(set(cfg.lambda_list))
    lane_bits = max(bits_sorted)
    lane_design = None  # the loop lane's cell: (lane_bits, 1)

    worst_root = 0.0
    worst_identity = 0.0
    worst_bound = -math.inf
    worst_margin = math.inf
    worst_logmean = 0.0
    worst_grid = 0.0
    fine = spectral.FrequencyGrid(2 * cfg.n_points)
    p_fine = spectral.ct_frequency_map(cfg.plant_tf(), 1, fine)
    for bits in bits_sorted:
        gamma = design_mod.gamma_from_bits(bits, cfg.loading_factor)
        nu = gamma + 1.0
        for lam in lams:
            sol = design_mod.design_for_nu(p_base, nu, lam)
            if (bits, lam) == (lane_bits, 1):
                lane_design = sol
            ratio = sol.theta_opt**2 / sol.alpha_opt
            worst_root = max(worst_root, abs(ratio - nu) / nu)
            worst_identity = max(worst_identity, design_mod.collapse_residual(p_base, nu, lam, sol.distortion))
            bound = design_mod.upper_bound(nu, lam, p_base)
            worst_bound = max(worst_bound, sol.distortion / bound - 1.0)
            worst_margin = min(worst_margin, nu - sol.norm_r_sq)
            worst_logmean = max(worst_logmean, abs(spectral.log_geometric_mean(sol.r_opt)))
            alpha_fine = design_mod.design_for_nu(p_fine, nu, lam).alpha_opt
            worst_grid = max(worst_grid, abs(alpha_fine - sol.alpha_opt) / sol.alpha_opt)

    record("optimality_root_residual", worst_root, 1e-10, worst_root <= 1e-10)
    record("oversampling_collapse_identity", worst_identity, 1e-6, worst_identity <= 1e-6)
    record("distortion_upper_bound_slack", worst_bound, 1e-9, worst_bound <= 1e-9)
    record("feasibility_margin_positive", worst_margin, 0.0, worst_margin > 0.0)
    record("shaper_logmean_zero", worst_logmean, 1e-8, worst_logmean <= 1e-8)
    record("grid_convergence_alpha", worst_grid, 1e-6, worst_grid <= 1e-6)

    rng = np.random.default_rng(20240801)
    worst_stat = 0.0
    worst_slack = 0.0
    for _ in range(5):
        taps = rng.standard_normal(4)
        taps[0] = 1.0 + abs(taps[0])
        plant_r = fitting.FIRFilter(taps).as_tf()
        order = int(rng.integers(1, 6))
        budget = 1.0 + float(rng.uniform(0.01, 2.0))
        report = fitting.norm_constrained_fir(plant_r, order, budget)
        stat, slack = fitting.fir_kkt_residuals(plant_r, report, budget)
        worst_stat = max(worst_stat, stat)
        worst_slack = max(worst_slack, slack)
    record("fir_kkt_stationarity", worst_stat, 1e-8, worst_stat <= 1e-8)
    record("fir_kkt_complementary_slackness", worst_slack, 1e-8, worst_slack <= 1e-8)

    gamma = design_mod.gamma_from_bits(lane_bits, cfg.loading_factor)
    if lane_design is None:
        lane_design = design_mod.design_for_nu(p_base, gamma + 1.0, 1)
    report = fitting.fit_cell(
        cfg.fit.method, cfg.fit.order, p_base, gamma, lane_design.alpha_opt, lane_design.norm_r_sq
    )
    shaper = fitting.as_discrete_tf(report.fitted)
    # The quantizer is sized from ||R||^2, which reads only the grid, so the
    # design plant sizes it as the simulation plant would.
    *_, quantizer = simulate.loop_quantizer(shaper, p_base, lane_bits, cfg.loading_factor)
    model = simulate.SignalModel(
        kind=cfg.sim.input_kind, seed=cfg.sim.seeds[0], length=min(cfg.sim.length, 20000), ct_pole=cfg.sim.ct_pole
    )
    traces = simulate.run_feedback_loop(simulate.gen_input(model, cfg.plant.sample_period), shaper, quantizer)
    residual = simulate.loop_identity_residual(traces, shaper)
    record("loop_identity_residual", residual, 1e-10, residual <= 1e-10)
    ov_rate = float(np.count_nonzero(traces.overload)) / len(traces.x)
    record("overload_rate", ov_rate, 0.05, ov_rate < 0.05)

    return checks


def cmd_verify(args) -> int:
    cfg, sha = _load_setup(args)
    checks = _verify_checks(cfg)
    failures = [c for c in checks if not c["pass"]]
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        _say(args, f"{status} {c['name']}: measured={c['measured']:.6g} tolerance={c['tolerance']:.6g}")
    if args.out:
        out = _out_dir(args)
        _write_json(
            out / "verify.json",
            {
                "schema_version": SCHEMA_VERSION,
                "config_sha256": sha,
                "checks": checks,
                "all_pass": not failures,
            },
        )
        _say(args, f"wrote {out / 'verify.json'}")
    if failures:
        details = "; ".join(
            f"{c['name']} measured={c['measured']:.6g} tolerance={c['tolerance']:.6g}" for c in failures
        )
        raise VerificationFailure(f"{len(failures)} invariant check(s) failed: {details}")
    return 0


# ----------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efq",
        description="Design, analyze, fit, and simulate error-feedback quantizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_default: str | None = "efq-out") -> None:
        p.add_argument("--config", help="JSON configuration file (defaults to the built-in benchmark setup)")
        out_help = f"output directory (default: {out_default})" if out_default else "optional output directory"
        p.add_argument("--out", default=out_default, help=out_help)
        p.add_argument("--seed", type=int, help="override the simulation seed list with a single seed")
        p.add_argument("--grid", type=int, help="override the frequency-grid resolution")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_design = sub.add_parser("design", help="solve the optimal shaping design per cell")
    common(p_design)
    p_design.set_defaults(func=cmd_design)

    p_rd = sub.add_parser("rd-curve", help="rate-distortion sweep table")
    common(p_rd)
    p_rd.set_defaults(func=cmd_rd_curve)

    p_fit = sub.add_parser("fit", help="synthesize realizable shaping filters")
    common(p_fit)
    p_fit.add_argument("--design", help="design.json artifact to reuse (otherwise solved in memory)")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run the time-domain loop")
    common(p_sim)
    p_sim.add_argument("--fit", help="fit.json artifact to reuse (otherwise fitted in memory)")
    p_sim.add_argument("--trace", action="store_true", help="export per-sample traces of the first run")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    common(p_verify, out_default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
