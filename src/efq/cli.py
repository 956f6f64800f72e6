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
import dataclasses
import json
import math
import os
import sys
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
CSV_CHUNK_ROWS = 1 << 16


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


def _csv_column(col: np.ndarray):
    """Cell strings of one column: bool as 1/0, int as str, float as repr."""
    if col.dtype.kind == "b":
        col = col.astype(np.int8)
    # tolist() yields Python ints and floats, whose repr is str(int) and the
    # shortest round-tripping float text.
    return map(repr, col.tolist())


def _write_csv(path: Path, cfg_sha: str, rows: np.ndarray) -> None:
    """Write a structured array as CSV under a config-hash comment line.

    The header is the field names. Rows are formatted and written
    CSV_CHUNK_ROWS at a time, so memory stays bounded for long traces.
    """
    names = rows.dtype.names
    with open(path, "w") as fh:
        fh.write(f"# config_sha256={cfg_sha}\n{','.join(names)}\n")
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            chunk = rows[start : start + CSV_CHUNK_ROWS]
            lines = map(",".join, zip(*(_csv_column(chunk[name]) for name in names)))
            fh.write("\n".join(lines) + "\n")


def _load_setup(args) -> tuple[ExperimentConfig, str]:
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "grid", None):
        cfg = dataclasses.replace(cfg, n_points=args.grid)
    if getattr(args, "seed", None) is not None:
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


def _solve_cell(p_base, bits, lam, loading_factor):
    gamma = design_mod.gamma_from_bits(bits, loading_factor)
    p_lam = spectral.oversample_response(p_base, lam)
    prob = design_mod.DesignProblem(p=p_lam, gamma=gamma)
    return prob, design_mod.solve_min_mse(prob)


# ----------------------------------------------------------------------
# design


def cmd_design(args) -> int:
    cfg, sha = _load_setup(args)
    out = _out_dir(args)
    p_base = _base_response(cfg)

    def solve(cell):
        bits, lam = cell
        prob, sol = _solve_cell(p_base, bits, lam, cfg.loading_factor)
        return prob, sol

    cells = _cells(cfg)
    solved = _pool_map(solve, cells)

    cell_payload = []
    for (bits, lam), (prob, sol) in zip(cells, solved):
        logmean = spectral.log_geometric_mean(sol.r_opt)
        cell_payload.append(
            {
                "bits": bits,
                "lambda": lam,
                "gamma": prob.gamma,
                "nu": prob.nu,
                "alpha_opt": sol.alpha_opt,
                "theta_opt": sol.theta_opt,
                "distortion": sol.distortion,
                "distortion_db": design_mod.db(sol.distortion),
                "norm_r_sq": sol.norm_r_sq,
                "n_of_alpha": sol.n_of_alpha,
                "feasibility_margin": prob.nu - sol.norm_r_sq,
                "logmean_check": logmean,
            }
        )
        _say(args, f"design bits={bits} lambda={lam}: distortion {design_mod.db(sol.distortion):.4f} dB")

    _write_json(out / "design.json", {"schema_version": SCHEMA_VERSION, "config_sha256": sha, "cells": cell_payload})
    omegas = p_base.grid.omegas
    r_opt = np.rec.fromarrays(
        [
            np.repeat([bits for bits, _ in cells], len(omegas)),
            np.repeat([lam for _, lam in cells], len(omegas)),
            np.tile(omegas, len(cells)),
            np.concatenate([sol.r_opt.values for _, sol in solved]),
        ],
        names="bits,lambda,omega,r_opt",
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
    _write_csv(out / "rd_curve.csv", sha, np.rec.fromrecords(csv_rows, names=names))
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


def _design_lookup(cfg, sha, design_path) -> dict | None:
    if not design_path:
        return None
    try:
        artifact = json.loads(Path(design_path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read design artifact {design_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"design artifact {design_path} is not valid JSON: {exc}") from exc
    if artifact.get("config_sha256") != sha:
        raise ConfigError("design artifact was produced with a different configuration")
    return {(c["bits"], c["lambda"]): c for c in artifact["cells"]}


def _fit_cell(cfg, p_base, bits, lam, designed: dict | None):
    gamma = design_mod.gamma_from_bits(bits, cfg.loading_factor)
    p_lam = spectral.oversample_response(p_base, lam)
    if designed is None:
        prob, sol = _solve_cell(p_base, bits, lam, cfg.loading_factor)
        alpha, budget = sol.alpha_opt, sol.norm_r_sq
    else:
        alpha, budget = designed["alpha_opt"], designed["norm_r_sq"]
    if cfg.fit.method == "qcqp":
        pre = fitting.norm_constrained_fir(p_lam, cfg.fit.order, budget)
        report = fitting.complete_report(pre, p_lam, gamma, ideal_mse=alpha)
    else:
        target = design_mod.optimal_shaper(alpha, p_lam)
        fitted = fitting.yule_walker_fit(target, cfg.fit.order)
        report = fitting.evaluate_fit(fitted, p_lam, gamma, ideal_mse=alpha)
    return gamma, report


def _report_payload(bits, lam, gamma, report) -> dict:
    tf = fitting.as_discrete_tf(report.fitted)
    loss_db = (
        design_mod.db(report.achieved_mse / report.ideal_mse)
        if math.isfinite(report.achieved_mse) and report.ideal_mse > 0
        else math.inf
    )
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
        "loss_db": loss_db,
    }


def cmd_fit(args) -> int:
    cfg, sha = _load_setup(args)
    out = _out_dir(args)
    p_base = _base_response(cfg)
    lookup = _design_lookup(cfg, sha, args.design)

    def run(cell):
        bits, lam = cell
        designed = lookup.get((bits, lam)) if lookup else None
        if lookup is not None and designed is None:
            raise ConfigError(f"design artifact has no cell for bits={bits} lambda={lam}")
        return _fit_cell(cfg, p_base, bits, lam, designed)

    cells = _cells(cfg)
    results = _pool_map(run, cells)

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


def _filters_from_artifact(path: str, sha: str) -> dict:
    try:
        artifact = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read fit artifact {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"fit artifact {path} is not valid JSON: {exc}") from exc
    if artifact.get("config_sha256") != sha:
        raise ConfigError("fit artifact was produced with a different configuration")
    out = {}
    for cell in artifact["cells"]:
        flt = cell["filter"]
        out[(cell["bits"], cell["lambda"])] = fitting.normalize_head(RationalDiscreteTF(flt["num"], flt["den"]))
    return out


def cmd_simulate(args) -> int:
    cfg, sha = _load_setup(args)
    out = _out_dir(args)
    p_base = _base_response(cfg)
    plant = cfg.plant_tf()
    grid = cfg.grid()
    filters = _filters_from_artifact(args.fit, sha) if args.fit else None
    # One plant fit per oversampling factor, shared by that factor's cells;
    # each must leave samples past its burn-in before any loop runs.
    sim_plants = {}
    for lam in sorted(set(cfg.lambda_list)):
        plant_d = simulate.discretize_plant(plant, lam)
        simulate.plant_burn_in(plant_d, cfg.sim.length)
        sim_plants[lam] = (plant_d, spectral.amplitude_of_tf(plant_d, grid))

    cells = []  # (plant_d, predicted MSE, payload without runs)
    lanes = []  # one per (cell, seed), in that order
    for bits, lam in _cells(cfg):
        gamma = design_mod.gamma_from_bits(bits, cfg.loading_factor)
        if filters is not None:
            shaper = filters.get((bits, lam))
            if shaper is None:
                raise ConfigError(f"fit artifact has no cell for bits={bits} lambda={lam}")
        else:
            _, report = _fit_cell(cfg, p_base, bits, lam, None)
            shaper = fitting.as_discrete_tf(report.fitted)

        plant_d, p_sim = sim_plants[lam]
        score = fitting.evaluate_fit(shaper, p_sim, gamma)
        if not score.feasible:
            raise NumericalError(
                f"fitted shaper infeasible at bits={bits} lambda={lam}: ||R||^2 = {score.norm_sq:.6g}"
            )
        sigma_u_sq, sigma_w_sq = simulate.predicted_loop_variances(score.norm_sq, gamma)
        qspec = design_mod.QuantizerSpec.for_sigma_u(bits, cfg.loading_factor, math.sqrt(sigma_u_sq))
        quantizer = simulate.MidRiseQuantizer.from_spec(qspec)
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
        cells.append((plant_d, score.achieved_mse, cell))
        for seed in cfg.sim.seeds:
            model = simulate.SignalModel(
                kind=cfg.sim.input_kind, seed=seed, length=cfg.sim.length, ct_pole=cfg.sim.ct_pole
            )
            lanes.append(simulate.Lane(model, plant.sample_period / lam, shaper, quantizer))

    lane_traces = simulate.run_lanes(lanes)
    csv_rows = []
    for plant_d, predicted, cell in cells:
        bits, lam = cell["bits"], cell["lambda"]
        runs = []
        for seed in cfg.sim.seeds:
            traces = next(lane_traces)
            result = simulate.summarize_run(traces, plant_d, predicted)
            if args.trace and not csv_rows and not runs:  # the first lane only
                trace = np.rec.fromarrays(
                    [np.arange(len(traces.x)), traces.x, traces.u, traces.v, traces.w, traces.overload],
                    names="k,x,u,v,w,overload",
                )
                _write_csv(out / "trace.csv", sha, trace)
            runs.append((seed, result))
            _say(
                args,
                f"simulate bits={bits} lambda={lam} seed={seed}: empirical {result.empirical_mse:.6g} "
                f"vs predicted {result.predicted_mse:.6g}, overload rate {result.overload_rate:.3g}",
            )

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
        {"schema_version": SCHEMA_VERSION, "config_sha256": sha, "cells": [cell for _, _, cell in cells]},
    )
    names = "bits,lambda,seed,empirical_mse,predicted_mse,overload_rate,w_variance,sigma_u_sq"
    _write_csv(out / "simulate_runs.csv", sha, np.rec.fromrecords(csv_rows, names=names))
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
            prob, sol = _solve_cell(p_base, bits, lam, cfg.loading_factor)
            ratio = sol.theta_opt**2 / sol.alpha_opt
            worst_root = max(worst_root, abs(ratio - nu) / nu)
            collapsed = design_mod.design_for_nu(p_base, nu**lam, 1).distortion
            worst_identity = max(worst_identity, abs(sol.distortion - collapsed) / sol.distortion)
            bound = design_mod.upper_bound(nu, lam, p_base)
            worst_bound = max(worst_bound, sol.distortion / bound - 1.0)
            worst_margin = min(worst_margin, prob.nu - sol.norm_r_sq)
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
        rho = fitting.gram_autocorrelations(plant_r, order)
        idx = np.abs(np.subtract.outer(np.arange(order), np.arange(order)))
        a_mat, b_vec = rho[idx], rho[1 : order + 1]
        x = np.array(report.fitted.taps[1:])
        mu = report.kkt_multiplier
        stat = float(np.linalg.norm(a_mat @ x + mu * x + b_vec)) / max(float(np.linalg.norm(b_vec)), 1e-300)
        slack = abs(mu * (float(np.dot(x, x)) - (budget - 1.0)))
        worst_stat = max(worst_stat, stat)
        worst_slack = max(worst_slack, slack)
    record("fir_kkt_stationarity", worst_stat, 1e-8, worst_stat <= 1e-8)
    record("fir_kkt_complementary_slackness", worst_slack, 1e-8, worst_slack <= 1e-8)

    bits = max(bits_sorted)
    gamma = design_mod.gamma_from_bits(bits, cfg.loading_factor)
    _, report = _fit_cell(cfg, p_base, bits, 1, None)
    shaper = fitting.as_discrete_tf(report.fitted)
    plant_d = simulate.discretize_plant(cfg.plant_tf(), 1)
    p_sim = spectral.amplitude_of_tf(plant_d, cfg.grid())
    score = fitting.evaluate_fit(shaper, p_sim, gamma)
    sigma_u_sq, _ = simulate.predicted_loop_variances(score.norm_sq, gamma)
    qspec = design_mod.QuantizerSpec.for_sigma_u(bits, cfg.loading_factor, math.sqrt(sigma_u_sq))
    model = simulate.SignalModel(
        kind=cfg.sim.input_kind, seed=cfg.sim.seeds[0], length=min(cfg.sim.length, 20000), ct_pole=cfg.sim.ct_pole
    )
    x = simulate.gen_input(model, cfg.plant.sample_period)
    traces = simulate.run_feedback_loop(x, shaper, simulate.MidRiseQuantizer.from_spec(qspec))
    residual = simulate.loop_identity_residual(traces, shaper)
    record("loop_identity_residual", residual, 1e-10, residual <= 1e-10)
    ov_rate = float(np.count_nonzero(traces.overload)) / len(x)
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

    def common(p: argparse.ArgumentParser, out_required: bool = True) -> None:
        p.add_argument("--config", help="JSON configuration file (defaults to the built-in benchmark setup)")
        if out_required:
            p.add_argument("--out", default="efq-out", help="output directory (default: efq-out)")
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
    p_verify.add_argument("--config", help="JSON configuration file (defaults to the built-in benchmark setup)")
    p_verify.add_argument("--out", help="optional output directory for verify.json")
    p_verify.add_argument("--seed", type=int, help="override the simulation seed list with a single seed")
    p_verify.add_argument("--grid", type=int, help="override the frequency-grid resolution")
    p_verify.add_argument("--quiet", action="store_true", help="suppress per-check output")
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
