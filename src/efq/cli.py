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
A stage that succeeds, or fails an invariant (exit 3), with an output
directory also writes its wall and CPU time, ``design.SOLVE_COUNTS`` and
the CSV rows, bytes and formatting CPU time of ``CSV_COUNTS`` to
``<command>.timings.json`` there.

Every CSV table is written through ``_csv_file``, whose cells
``csvtext.chunk_bytes`` formats in numpy, a chunk at a time, byte for byte
as ``repr`` and ``str`` write them.

The parallel work runs on forked worker processes, at most
``_max_workers()`` of them, the CPUs this process may run on up to
``MAX_WORKERS`` (one CPU, as under ``taskset -c 0``, keeps everything in
process): each stage's cells, ``verify``'s design checks, the CSV chunks of
a large table and the parts of ``simulate``'s lane pass, which
``simulate.run_lanes`` keeps in process under ``--trace``. The results do
not depend on how the work splits, so every artifact is the same bytes
whatever the worker count.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import json
import math
import os
import sys
import time
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from . import design as design_mod
from . import fitting, simulate, spectral
from .config import ExperimentConfig, SCHEMA_VERSION, config_hash, default_config, load_config, read_json
from .errors import ConfigError, NumericalError, VerificationFailure
from .transfer import RationalDiscreteTF

MAX_WORKERS = 8  # a pool starts all its workers at once, so their count is bounded
# _csv_file formats CSV_CHUNK_ROWS rows at a time (a few MB of text), and
# counts what it writes in CSV_COUNTS, which main clears for each stage.
CSV_CHUNK_ROWS = 1 << 14
CSV_COUNTS: collections.Counter = collections.Counter()
TRACE_COLUMNS = ("k", "x", "u", "v", "w", "overload")


# ----------------------------------------------------------------------
# Infrastructure


def _max_workers() -> int:
    """The CPUs in this process's CPU set (``taskset``, a cpuset; not a CPU quota), up to MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(MAX_WORKERS, cpus)


@contextlib.contextmanager
def _fork_pool(workers: int):
    """A pool of `workers` forked processes; on exit the pending items are
    cancelled and every worker is joined.

    The workers fork at the first submit and inherit the loaded modules and
    module state as they are then, so only items and results are pickled.
    No other thread may run at that fork: no other pool may be open.
    """
    import multiprocessing  # only parallel work pays the import
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


_mapped = None  # the function _pool_map's workers apply, inherited at the fork


def _apply_mapped(item):
    design_mod.SOLVE_COUNTS.clear()  # the worker returns the solves of this item alone
    return _mapped(item), design_mod.SOLVE_COUNTS.copy()


def _pool_map(fn, items) -> list:
    """``[fn(item) for item in items]``, on up to ``_max_workers()`` forked
    processes for two items or more. The workers inherit `fn`, so a closure
    maps as is; the first exception in item order comes out with its type
    and message. The workers' ``SOLVE_COUNTS`` are added to this process's."""
    global _mapped
    items = list(items)
    workers = min(_max_workers(), len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    _mapped = fn
    try:
        with _fork_pool(workers) as pool:
            pairs = list(pool.map(_apply_mapped, items))
        design_mod.SOLVE_COUNTS.update(sum((counts for _, counts in pairs), collections.Counter()))
        return [result for result, _ in pairs]
    finally:
        _mapped = None


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


def _format_chunk(columns) -> tuple[bytes, float]:
    """The CSV bytes of a chunk of columns, and the CPU seconds the process
    that formats them spent on it."""
    from . import csvtext  # only a stage that writes a table pays the import

    start = time.process_time()
    text = csvtext.chunk_bytes(columns)
    return text, time.process_time() - start


@contextlib.contextmanager
def _csv_file(path: Path, cfg_sha: str, names) -> Iterator[Callable[[dict], None]]:
    """Open a CSV file under a config-hash comment line and a header of the
    column names; yields a function that appends the rows of a dict of named
    columns of equal length (1-D arrays, or a range for a row index). Every
    table is written through it, each stage appending rows as it reaches
    them. An exception inside the block removes the file, so no truncated
    table is left behind.

    An append formats and writes CSV_CHUNK_ROWS rows at a time from the
    columns, with ``csvtext.chunk_bytes``. A chunk that starts in the
    file's first CSV_CHUNK_ROWS rows formats in process; each later chunk
    on a ``_fork_pool`` of ``_max_workers()`` processes, so that a long
    table formats on the other cores while the stage goes on, at most two
    chunks a worker ahead of the file, written in row order. An exception
    in the block or in a worker cancels the pending chunks and joins every
    worker before the file is removed. The rows, the bytes and the
    formatting CPU time, a worker's included, add to CSV_COUNTS.
    """
    workers = _max_workers()
    try:
        with open(path, "wb") as fh, contextlib.ExitStack() as stack:

            def write(text: bytes, cpu_s: float) -> None:
                fh.write(text)
                CSV_COUNTS.update(csv_bytes=len(text), csv_format_s=cpu_s)

            write(f"# config_sha256={cfg_sha}\n{','.join(names)}\n".encode(), 0.0)
            pending = collections.deque()  # chunks being formatted, in row order
            pool = None
            rows = 0

            def append(columns: dict) -> None:
                nonlocal pool, rows
                for start in range(0, len(next(iter(columns.values()))), CSV_CHUNK_ROWS):
                    chunk = [col[start : start + CSV_CHUNK_ROWS] for col in columns.values()]
                    if rows < CSV_CHUNK_ROWS or workers == 1:
                        write(*_format_chunk(chunk))
                    else:
                        if pool is None:
                            fh.flush()  # no worker may inherit unwritten bytes
                            pool = stack.enter_context(_fork_pool(workers))
                        pending.append(pool.submit(_format_chunk, chunk))
                        if len(pending) > 2 * workers:
                            write(*pending.popleft().result())
                    rows += len(chunk[0])
                    CSV_COUNTS["csv_rows"] += len(chunk[0])

            yield append
            for future in pending:
                write(*future.result())
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _load_setup(args) -> tuple[ExperimentConfig, str, spectral.AmplitudeResponse]:
    cfg = load_config(args.config) if args.config else default_config()
    args.config_sha256 = config_hash(cfg)  # for the stage's timings
    return cfg, args.config_sha256, _base_response(cfg)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _cells(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    return [(b, lam) for b in sorted(set(cfg.bits_list)) for lam in sorted(set(cfg.lambda_list))]


def _in_cell(cell, fn):
    """fn(cell), a NumericalError's message opened by the (bits, lambda) cell."""
    try:
        return fn(cell)
    except NumericalError as exc:
        bits, lam = cell
        raise NumericalError(f"bits={bits} lambda={lam}: {exc}") from None


def _map_cells(fn, cells) -> list:
    """``_pool_map`` of fn over (bits, lambda) cells, each failure named by
    its cell."""
    return _pool_map(lambda cell: _in_cell(cell, fn), cells)


def _base_response(cfg: ExperimentConfig) -> spectral.AmplitudeResponse:
    """The plant's response on the config's grid, after refusing each cell whose optimal alpha no
    solve reaches; the dilations and band means it forms stay on it for the solves (and workers)."""
    p_base = spectral.ct_frequency_map(cfg.plant_tf(), 1, cfg.grid())
    problems = []
    for j, lam in enumerate(cfg.lambda_list):
        p_lam = spectral.oversample_response(p_base, lam)
        problems += [
            f"bits_list[{i}], lambda_list[{j}]: the optimal alpha lies below the smallest normal float"
            f" at {bits} bits and lambda {lam}, where no solve reaches it"
            for i, bits in enumerate(cfg.bits_list)
            if design_mod.alpha_below_normal(p_lam, design_mod.gamma_from_bits(bits, cfg.loading_factor))
        ]
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    return p_base


def _positive(value) -> float:
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        raise ValueError("expected a finite positive number, got an integer too large for a float") from None
    if not 0 < number < math.inf:
        raise ValueError(f"expected a finite positive number, got {value!r}")
    return number


def _norm_sq(value) -> float:
    """||R||^2 of a unity-head shaper, which is at least 1."""
    number = _positive(value)
    if number < 1:
        raise ValueError(f"a unity-head shaper has ||R||^2 >= 1, got {value!r}")
    return number


def _shaper(value) -> RationalDiscreteTF:
    return fitting.normalize_head(RationalDiscreteTF(value["num"], value["den"]))


def _read_cells(path: str, kind: str, sha: str, cells, fields: dict) -> dict:
    """Parsed fields of each of ``cells`` in an upstream JSON artifact,
    keyed by (bits, lambda); ``fields`` maps each field name to its parser.

    An unreadable file, another configuration's hash, a missing cell or a
    field its parser rejects raises ConfigError naming the file and field.
    """
    artifact = read_json(path, f"{kind} artifact")
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
    cfg, sha, p_base = _load_setup(args)
    out = _out_dir(args)

    def solve(cell):
        bits, lam = cell
        gamma = design_mod.gamma_from_bits(bits, cfg.loading_factor)
        p_lam = spectral.oversample_response(p_base, lam)
        sol = design_mod.solve_min_mse(p_lam, gamma)
        return gamma, sol, design_mod.optimal_shaper(sol.alpha_opt, p_lam)

    cells = _cells(cfg)
    solved = _map_cells(solve, cells)

    cell_payload = []
    for (bits, lam), (gamma, sol, shaper) in zip(cells, solved):
        nu = gamma + 1.0
        cell_payload.append(
            {
                "bits": bits,
                "lambda": lam,
                "gamma": gamma,
                "nu": nu,
                **dataclasses.asdict(sol),
                "distortion_db": design_mod.db(sol.distortion),
                "feasibility_margin": nu - sol.norm_r_sq,
                "logmean_check": spectral.log_geometric_mean(shaper),
            }
        )
        _say(args, f"design bits={bits} lambda={lam}: distortion {design_mod.db(sol.distortion):.4f} dB")

    _write_json(out / "design.json", {"schema_version": SCHEMA_VERSION, "config_sha256": sha, "cells": cell_payload})
    omegas = p_base.grid.omegas
    per_append = max(1, CSV_CHUNK_ROWS // len(omegas))  # whole cells to a chunk, so its repeated omegas format once
    with _csv_file(out / "design_r_opt.csv", sha, ("bits", "lambda", "omega", "r_opt")) as append:
        for start in range(0, len(cells), per_append):
            part = cells[start : start + per_append]
            bits, lams = np.repeat(np.array(part).T, len(omegas), axis=1)
            r_opt = np.concatenate([shaper.values for *_, shaper in solved[start : start + per_append]])
            append({"bits": bits, "lambda": lams, "omega": np.tile(omegas, len(part)), "r_opt": r_opt})
    _say(args, f"wrote {out / 'design.json'} and {out / 'design_r_opt.csv'}")
    return 0


# ----------------------------------------------------------------------
# rd-curve


def cmd_rd_curve(args) -> int:
    cfg, sha, p_base = _load_setup(args)
    out = _out_dir(args)

    rows = _map_cells(lambda cell: design_mod.rd_row(p_base, *cell, cfg.loading_factor), _cells(cfg))

    names = "bits,lambda,gamma,D,D_uniform,bound,D_db,D_uniform_db,bound_db,identity_residual".split(",")
    table = []
    for row in rows:
        values = (row.bits, row.oversampling, row.gamma, row.distortion, row.d_uniform, row.bound)
        table.append(values + (row.distortion_db, row.d_uniform_db, row.bound_db, row.identity_residual))
        _say(
            args,
            f"rd bits={row.bits} lambda={row.oversampling}: D {row.distortion_db:.4f} dB, "
            f"uniform {row.d_uniform_db:.4f} dB, gain {row.gain_db:.4f} dB",
        )
    with _csv_file(out / "rd_curve.csv", sha, names) as append:
        append({name: np.array(column) for name, column in zip(names, zip(*table))})
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
        p_lam = spectral.oversample_response(p_base, lam)
        if designed is None:
            sol = design_mod.solve_min_mse(p_lam, gamma)
            alpha, budget = sol.alpha_opt, sol.norm_r_sq
        else:
            alpha, budget = designed[cell]["alpha_opt"], designed[cell]["norm_r_sq"]
        return gamma, fitting.fit_cell(cfg.fit.method, cfg.fit.order, p_lam, gamma, alpha, budget)

    return _map_cells(run, _cells(cfg))


def _report_payload(bits, lam, gamma, report) -> dict:
    return {
        "bits": bits,
        "lambda": lam,
        "gamma": gamma,
        "filter": {"num": list(report.fitted.num), "den": list(report.fitted.den)},
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
    cfg, sha, p_base = _load_setup(args)
    out = _out_dir(args)
    cells = _cells(cfg)
    designed = None
    if args.design:
        designed = _read_cells(args.design, "design", sha, cells, {"alpha_opt": _positive, "norm_r_sq": _norm_sq})
    results = _fit_cells(cfg, p_base, designed)

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
    cfg, sha, p_base = _load_setup(args)
    simulate.welch_segments(cfg.sim.length)  # a run too short to score exits 1 before any loop
    out = _out_dir(args)
    plant = cfg.plant_tf()
    cell_list = _cells(cfg)
    if args.fit:
        fitted = _read_cells(args.fit, "fit", sha, cell_list, {"filter": _shaper})
        shapers = [fitted[cell]["filter"] for cell in cell_list]
    else:
        shapers = [report.fitted for _, report in _fit_cells(cfg, p_base)]
    # a lane is scored on the map its cell was designed on, on the Welch bins
    plant_maps = {lam: spectral.ct_frequency_map(plant, lam, simulate.WELCH_GRID) for lam in set(cfg.lambda_list)}

    cells = []  # payloads without runs
    lanes = []  # one per (cell, seed), in that order
    for (bits, lam), shaper in zip(cell_list, shapers):
        gamma = design_mod.gamma_from_bits(bits, cfg.loading_factor)
        p_lam = spectral.oversample_response(p_base, lam)
        score, sigma_u_sq, sigma_w_sq, quantizer = simulate.loop_quantizer(shaper, p_lam, bits, cfg.loading_factor)
        cells.append(
            {
                "bits": bits,
                "lambda": lam,
                "gamma": gamma,
                "filter": {"num": list(shaper.num), "den": list(shaper.den)},
                "quantizer": {"step": quantizer.step, "saturation": quantizer.saturation},
                "sigma_u_sq_pred": sigma_u_sq,
                "sigma_w_sq_pred": sigma_w_sq,
                "predicted_mse": score.achieved_mse,
            }
        )
        period = plant.sample_period / lam
        for seed in cfg.sim.seeds:
            model = simulate.SignalModel(cfg.sim.input_kind, seed, cfg.sim.length, cfg.sim.ct_pole)
            name = f"bits={bits} lambda={lam} seed={seed}"
            lanes.append(simulate.Lane(model, period, shaper, quantizer, plant_maps[lam], score.achieved_mse, name))

    trace_file = _csv_file(out / "trace.csv", sha, TRACE_COLUMNS) if args.trace else contextlib.nullcontext()
    with trace_file as append_trace:

        def trace(start, traces):  # each chunk of the first lane
            columns = {name: getattr(traces, name) for name in TRACE_COLUMNS[1:]}
            append_trace({"k": range(start, start + len(traces.x)), **columns})

        # lane 0's chunks feed the trace writer in this process, whose pool
        # forks while the pass runs: run_lanes keeps a traced pass here
        results = simulate.run_lanes(lanes, trace if args.trace else None, _max_workers(), _pool_map)

    seeds = np.array(cfg.sim.seeds)
    n = len(seeds)
    names = ("bits", "lambda", "seed", "empirical_mse", "predicted_mse", "overload_rate", "w_variance", "sigma_u_sq")
    for cell, start in zip(cells, range(0, len(lanes), n)):
        runs = results[start : start + n]
        for lane, r in zip(lanes[start:], runs):
            _say(
                args,
                f"simulate {lane.name}: empirical {r.empirical_mse:.6g} "
                f"vs predicted {r.predicted_mse:.6g}, overload rate {r.overload_rate:.3g}",
            )
        mean = float(np.mean([r.empirical_mse for r in runs]))
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
            for seed, r in zip(seeds, runs)
        ]
        cell["aggregate"] = {
            "mean_empirical_mse": mean,
            "mean_over_predicted": mean / cell["predicted_mse"] if cell["predicted_mse"] > 0 else math.inf,
        }
        if n > 1:  # one seed has no spread, so it gets no interval
            std = float(np.std([r.empirical_mse for r in runs], ddof=1))
            cell["aggregate"]["std_empirical_mse"] = std
            cell["aggregate"]["ci95_halfwidth"] = simulate.t_quantile_975(n - 1) * std / math.sqrt(n)
    with _csv_file(out / "simulate_runs.csv", sha, names) as append:
        columns = {name: np.repeat([cell[name] for cell in cells], n) for name in names[:2]}
        columns["seed"] = np.tile(seeds, len(cells))
        append({**columns, **{name: np.array([getattr(r, name) for r in results]) for name in names[3:]}})

    _write_json(out / "simulate.json", {"schema_version": SCHEMA_VERSION, "config_sha256": sha, "cells": cells})
    _say(args, f"wrote {out / 'simulate.json'} and {out / 'simulate_runs.csv'}")
    return 0


# ----------------------------------------------------------------------
# verify


def _verify_checks(cfg: ExperimentConfig, p_base: spectral.AmplitudeResponse) -> list[dict]:
    checks: list[dict] = []

    def record(name: str, measured: float, tolerance: float, ok: bool) -> None:
        checks.append({"name": name, "measured": measured, "tolerance": tolerance, "pass": bool(ok)})

    p_fine = spectral.ct_frequency_map(cfg.plant_tf(), 1, spectral.FrequencyGrid(2 * cfg.n_points))
    lane_bits = max(cfg.bits_list)

    def check_cell(cell):
        """The six design residuals of a cell (its ``rd_row``'s collapse and
        bound among them), and its design if it is the loop lane's cell."""
        bits, lam = cell
        row = design_mod.rd_row(p_base, bits, lam, cfg.loading_factor)
        sol, nu = row.design, row.gamma + 1.0
        p_lam = spectral.oversample_response(p_base, lam)
        shaper = design_mod.optimal_shaper(sol.alpha_opt, p_lam)
        p_fine_lam = spectral.oversample_response(p_fine, lam)
        alpha_fine = design_mod.solve_min_mse(p_fine_lam, row.gamma, start=sol.alpha_opt).alpha_opt
        residuals = (
            abs(sol.theta_opt**2 / sol.alpha_opt - nu) / nu,
            row.identity_residual,
            row.distortion / row.bound - 1.0,
            nu - sol.norm_r_sq,
            abs(spectral.log_geometric_mean(shaper)),
            abs(alpha_fine - sol.alpha_opt) / sol.alpha_opt,
        )
        return residuals, sol if cell == (lane_bits, 1) else None

    outcomes = _map_cells(check_cell, _cells(cfg))
    root, identity, bound, margin, logmean, grid = zip(*(residuals for residuals, _ in outcomes))
    # reduced in cell order
    worst_root = max(0.0, *root)
    worst_identity = max(0.0, *identity)
    worst_bound = max(-math.inf, *bound)
    worst_margin = min(math.inf, *margin)
    worst_logmean = max(0.0, *logmean)
    worst_grid = max(0.0, *grid)
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
        plant_r = RationalDiscreteTF(taps)
        order = int(rng.integers(1, 6))
        budget = 1.0 + float(rng.uniform(0.01, 2.0))
        fitted, mu = fitting.norm_constrained_fir(plant_r, order, budget)
        stat, slack = fitting.fir_kkt_residuals(plant_r, fitted, mu, budget)
        worst_stat = max(worst_stat, stat)
        worst_slack = max(worst_slack, slack)
    record("fir_kkt_stationarity", worst_stat, 1e-8, worst_stat <= 1e-8)
    record("fir_kkt_complementary_slackness", worst_slack, 1e-8, worst_slack <= 1e-8)

    gamma = design_mod.gamma_from_bits(lane_bits, cfg.loading_factor)
    lane_design = next((sol for _, sol in outcomes if sol is not None), None)
    if lane_design is None:  # no cell at lambda 1
        lane_design = _in_cell((lane_bits, 1), lambda _: design_mod.solve_min_mse(p_base, gamma))
    shaper = fitting.fit_cell(
        cfg.fit.method, cfg.fit.order, p_base, gamma, lane_design.alpha_opt, lane_design.norm_r_sq
    ).fitted
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
    cfg, sha, p_base = _load_setup(args)
    out = _out_dir(args) if args.out else None
    checks = _verify_checks(cfg, p_base)
    failures = [c for c in checks if not c["pass"]]
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        _say(args, f"{status} {c['name']}: measured={c['measured']:.6g} tolerance={c['tolerance']:.6g}")
    if out is not None:
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
    wall, cpu = time.perf_counter(), sum(os.times()[:4])  # CPU: user and system, reaped workers included
    design_mod.SOLVE_COUNTS.clear()
    CSV_COUNTS.clear()
    CSV_COUNTS.update(csv_rows=0, csv_bytes=0, csv_format_s=0.0)
    try:
        try:
            code = args.func(args)
        except VerificationFailure as exc:  # the stage wrote its artifacts, so it writes its timings too
            print(f"verification failure: {exc}", file=sys.stderr)
            code = 3
        if args.out:
            counts = {name: design_mod.SOLVE_COUNTS[name] for name in ("solves", "newton", "bisection", "polish")}
            timings = {"wall_s": time.perf_counter() - wall, "cpu_s": sum(os.times()[:4]) - cpu, **counts, **CSV_COUNTS}
            header = {"schema_version": SCHEMA_VERSION, "config_sha256": args.config_sha256}
            _write_json(Path(args.out) / f"{args.command}.timings.json", {**header, **timings})
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
