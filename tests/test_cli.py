"""End-to-end command-line behavior on a small configuration."""

import csv
import inspect
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import efq
from efq import cli, csvtext, design, fitting, simulate, spectral
from efq.cli import CSV_CHUNK_ROWS, _csv_file, main
from efq.config import config_to_dict, default_config
from efq.transfer import ContinuousTF, RationalDiscreteTF

SMALL_CONFIG = {
    "schema_version": 1,
    "plant": {
        "num": [1.029, 4.589, 7.146, 3.882],
        "den": [1.0, 5.088, 9.789, 8.296, 2.548],
        "sample_period": 0.1,
    },
    "bits_list": [2, 3],
    "lambda_list": [1, 2],
    "loading_factor": 4.0,
    "n_points": 2048,
    "fit": {"method": "qcqp", "order": 4},
    "sim": {"length": 20000, "seeds": [0, 1], "input_kind": "colored", "ct_pole": 2.62},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture()
def set_workers(monkeypatch):
    """``set_workers(n)`` fakes the worker count ``cli._max_workers()`` reads
    from the CPU set, so a test forks 2 or 3 workers on a 1-CPU machine too,
    and returns the sizes of the pools cli opens from then on, in order."""
    pools = []
    fork_pool = cli._fork_pool

    def recorded(workers):
        pools.append(workers)
        return fork_pool(workers)

    monkeypatch.setattr(cli, "_fork_pool", recorded)

    def set_count(n):
        monkeypatch.setattr(cli, "_max_workers", lambda: n)
        pools.clear()
        return pools

    return set_count


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    rows = list(csv.DictReader(lines[1:]))
    return lines[0].split("=", 1)[1], rows


def reference_csv(sha, columns, rows):
    """Row-by-row oracle for _csv_file: bool as 1/0, int as str, float as repr."""

    def fmt(value):
        if isinstance(value, (bool, np.bool_)):
            return str(int(value))
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    lines = [f"# config_sha256={sha}", ",".join(columns)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    def test_edge_values_match_row_oracle(self, tmp_path):
        floats = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-05, 1e16, 0.1 + 0.2]
        rows = [
            (i, np.int64(-(10**15) * i), i % 2 == 1, np.bool_(i % 3 == 0), f, np.float64(-f))
            for i, f in enumerate(floats)
        ]
        columns = ["py_int", "np_int", "py_bool", "np_bool", "py_float", "np_float"]
        path = tmp_path / "edge.csv"
        with _csv_file(path, "abc", columns) as append:
            append({name: np.array(col) for name, col in zip(columns, zip(*rows))})
        assert path.read_text() == reference_csv("abc", columns, rows)

    @pytest.mark.parametrize(
        "n",
        [
            *(0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, *(4 * CSV_CHUNK_ROWS + d for d in (-1, 0, 1))),
            # the kernel's blocks of rows within the first chunk and within a later one
            *(csvtext.BLOCK_ROWS + d for d in (-1, 0, 1)),
            *(CSV_CHUNK_ROWS + csvtext.BLOCK_ROWS + d for d in (-1, 0, 1)),
        ],
    )
    def test_chunk_boundaries_match_row_oracle(self, tmp_path, n):
        rng = np.random.default_rng(n)
        columns = [np.arange(n), rng.standard_normal(n), rng.random(n) < 0.5]
        path = tmp_path / "chunks.csv"
        with _csv_file(path, "abc", ["k", "x", "flag"]) as append:
            append(dict(zip(["k", "x", "flag"], columns)))
        expected = reference_csv("abc", ["k", "x", "flag"], zip(*columns))
        # Compared as lines, so a mismatch reports its first index, not a full text diff.
        assert path.read_text().split("\n") == expected.split("\n")

    def test_row_index_range_matches_row_oracle(self, tmp_path):
        n = CSV_CHUNK_ROWS + 2
        path = tmp_path / "range.csv"
        with _csv_file(path, "abc", ["k"]) as append:
            append({"k": range(n)})
        assert path.read_text() == reference_csv("abc", ["k"], ((k,) for k in range(n)))

    def test_repeated_special_floats_across_a_chunk_boundary(self, tmp_path):
        specials = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.25])
        n = 2 * CSV_CHUNK_ROWS + 3
        rng = np.random.default_rng(5)
        col = specials[rng.integers(0, len(specials), n)]
        col[CSV_CHUNK_ROWS - 1 : CSV_CHUNK_ROWS + 1] = [-0.0, 0.0]  # the two zeros straddle the boundary
        levels = rng.integers(-3, 4, n) + 0.5
        flags = rng.random(n) < 0.5
        path = tmp_path / "special.csv"
        with _csv_file(path, "abc", ["f", "level", "flag"]) as append:
            append({"f": col, "level": levels, "flag": flags})
        expected = reference_csv("abc", ["f", "level", "flag"], zip(col, levels, flags))
        assert path.read_text().split("\n") == expected.split("\n")
        assert "-0.0" in path.read_text().split("\n")[CSV_CHUNK_ROWS + 1]

    @pytest.mark.parametrize(
        ("distinct", "formatted"),
        [(CSV_CHUNK_ROWS // csvtext.FEW_DISTINCT, "distinct"), (CSV_CHUNK_ROWS // csvtext.FEW_DISTINCT + 1, "rows")],
    )
    def test_distinct_value_rule(self, tmp_path, monkeypatch, distinct, formatted):
        # One chunk of floats with `distinct` bit patterns: at most one per
        # FEW_DISTINCT rows hands each pattern to the digit kernel once, one
        # more hands it every row.
        rng = np.random.default_rng(distinct)
        values = rng.standard_normal(distinct)
        col = np.concatenate([values, values[rng.integers(0, distinct, CSV_CHUNK_ROWS - distinct)]])
        calls = []
        float_words = csvtext._float_words

        def counting_float_words(floats):
            calls.append(len(floats))
            return float_words(floats)

        monkeypatch.setattr(csvtext, "_float_words", counting_float_words)
        path = tmp_path / "rule.csv"
        with _csv_file(path, "abc", ["x"]) as append:
            append({"x": col})
        assert path.read_text() == reference_csv("abc", ["x"], ((v,) for v in col))
        assert sum(calls) == (distinct if formatted == "distinct" else CSV_CHUNK_ROWS)

    @pytest.mark.parametrize("where", ["block", "worker"])
    def test_failure_after_the_workers_started_joins_them_and_removes_the_file(self, tmp_path, monkeypatch, set_workers, where):
        # An exception in the block, or in a worker formatting a later chunk,
        # comes out unchanged, with every worker joined and no partial file.
        pools = set_workers(2)
        chunk_bytes = csvtext.chunk_bytes

        def chunk_bytes_failing_past_the_first_chunk(columns):
            if where == "worker" and columns[0][0] >= CSV_CHUNK_ROWS:
                raise ArithmeticError("worker failed")
            return chunk_bytes(columns)

        monkeypatch.setattr(csvtext, "chunk_bytes", chunk_bytes_failing_past_the_first_chunk)
        path = tmp_path / "failed.csv"
        with pytest.raises(ArithmeticError, match=f"{where} failed"):
            with cli._csv_file(path, "abc", ["x"]) as append:
                append({"x": np.arange(4 * CSV_CHUNK_ROWS, dtype=float)})
                assert multiprocessing.active_children()  # the workers are running
                append({"x": np.arange(4 * CSV_CHUNK_ROWS, dtype=float) + 0.5})
                raise ArithmeticError("block failed")
        assert not path.exists()
        assert multiprocessing.active_children() == []
        assert pools == [2]


class TestDesignCommand:
    def test_writes_artifacts(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["design", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        payload = json.loads((out / "design.json").read_text())
        assert payload["schema_version"] == 1
        assert len(payload["cells"]) == 4
        for cell in payload["cells"]:
            assert abs(cell["logmean_check"]) <= 1e-8
            assert cell["feasibility_margin"] > 0.0
            assert cell["distortion"] == pytest.approx(cell["alpha_opt"], rel=1e-10)
        sha, rows = read_csv(out / "design_r_opt.csv")
        assert sha == payload["config_sha256"]
        assert len(rows) == 4 * SMALL_CONFIG["n_points"]

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["design", "--config", config_path, "--out", str(out1), "--quiet"]) == 0
        assert main(["design", "--config", config_path, "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "design.json").read_bytes() == (out2 / "design.json").read_bytes()
        assert (out1 / "design_r_opt.csv").read_bytes() == (out2 / "design_r_opt.csv").read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path, set_workers):
        # Every command that maps its cells over the worker pool, and both
        # tables that format on worker processes: design_r_opt.csv (2 CSV
        # chunks) and trace.csv (3 chunks and a row). The worker count is
        # faked, so 2 and 3 workers fork on a 1-core machine too.
        sim = dict(SMALL_CONFIG["sim"], length=3 * CSV_CHUNK_ROWS + 1, seeds=[0])
        config = dict(SMALL_CONFIG, n_points=8192, sim=sim)
        assert 4 * config["n_points"] > CSV_CHUNK_ROWS  # 4 cells
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        outputs = {
            "design": ("design.json", "design_r_opt.csv"),
            "rd-curve": ("rd_curve.csv",),
            "fit": ("fit.json",),
            "simulate": ("simulate.json", "simulate_runs.csv", "trace.csv"),
        }
        artifacts = []
        for workers in (1, 2, 3):
            pools = set_workers(workers)
            out = tmp_path / f"workers{workers}"
            for command in outputs:
                flags = ["--trace"] if command == "simulate" else []
                assert main([command, "--config", str(path), "--out", str(out), "--quiet", *flags]) == 0
            artifacts.append({name: (out / name).read_bytes() for names in outputs.values() for name in names})
            assert multiprocessing.active_children() == []
            assert max(pools, default=1) == workers
        assert artifacts[0] == artifacts[1] == artifacts[2]

    def test_table_on_a_grid_that_does_not_divide_a_chunk(self, tmp_path, set_workers):
        # 16 cells of 3,000 rows, appended 5 cells at a time: appends
        # straddle every 2^14-row chunk boundary, and the two that start past
        # the first chunk format on the workers.
        pools = set_workers(2)
        config = dict(SMALL_CONFIG, bits_list=list(range(1, 9)), n_points=3000)
        assert CSV_CHUNK_ROWS % config["n_points"] and 2 * 5 * config["n_points"] > CSV_CHUNK_ROWS
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["design", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        assert pools == [2, 2]  # the cells' pool, then the table's
        cfg = efq.load_config(str(path))
        p_base = efq.ct_frequency_map(cfg.plant_tf(), 1, cfg.grid())
        rows = []
        for bits in config["bits_list"]:
            for lam in config["lambda_list"]:
                p_lam = spectral.oversample_response(p_base, lam)
                sol = design.solve_min_mse(p_lam, design.gamma_from_bits(bits, cfg.loading_factor))
                shaper = design.optimal_shaper(sol.alpha_opt, p_lam)
                rows += [(bits, lam, w, r) for w, r in zip(p_base.grid.omegas, shaper.values)]
        sha = json.loads((out / "design.json").read_text())["config_sha256"]
        expected = reference_csv(sha, ["bits", "lambda", "omega", "r_opt"], rows)
        assert (out / "design_r_opt.csv").read_text().split("\n") == expected.split("\n")

    def test_peak_memory_stays_below_four_times_the_responses(self, tmp_path, set_workers):
        # The built-in config's 32 responses of 8,192 points take 2 MiB; the
        # table is written one cell at a time, with no copy of the whole.
        # One worker keeps the work in this process, where tracemalloc sees it.
        pools = set_workers(1)
        cfg = efq.default_config()
        response_bytes = len(set(cfg.bits_list)) * len(set(cfg.lambda_list)) * cfg.n_points * 8
        tracemalloc.start()
        try:
            assert main(["design", "--out", str(tmp_path), "--quiet"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * response_bytes, peak
        assert pools == []


class TestRDCurveCommand:
    def test_table_contents(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["rd-curve", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        _, rows = read_csv(out / "rd_curve.csv")
        assert [r["bits"] for r in rows] == ["2", "2", "3", "3"]
        assert [r["lambda"] for r in rows] == ["1", "2", "1", "2"]
        for row in rows:
            d = float(row["D"])
            assert d <= float(row["D_uniform"]) * (1 + 1e-12)
            assert d <= float(row["bound"]) * (1 + 1e-12)
            assert float(row["identity_residual"]) <= 1e-6
            assert float(row["D_db"]) == pytest.approx(10.0 * math.log10(d), rel=1e-12)

    def test_matches_design_distortion(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["design", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        assert main(["rd-curve", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        design = json.loads((out / "design.json").read_text())
        by_cell = {(c["bits"], c["lambda"]): c["distortion"] for c in design["cells"]}
        _, rows = read_csv(out / "rd_curve.csv")
        for row in rows:
            # CSV floats are written with repr and parse back losslessly.
            assert float(row["D"]) == by_cell[(int(row["bits"]), int(row["lambda"]))]


class TestFitCommand:
    def test_reuses_design_artifact(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["design", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        assert (
            main(
                [
                    "fit",
                    "--config",
                    config_path,
                    "--out",
                    str(out),
                    "--design",
                    str(out / "design.json"),
                    "--quiet",
                ]
            )
            == 0
        )
        payload = json.loads((out / "fit.json").read_text())
        assert payload["method"] == "qcqp"
        for cell in payload["cells"]:
            assert cell["filter"]["num"][0] == 1.0
            assert cell["feasible"] is True
            assert cell["loss_db"] >= -1e-6
            assert cell["norm_sq"] >= 1.0

    def test_mismatched_design_artifact_rejected(self, config_path, tmp_path, capsys):
        # A design solved on another grid hashes another configuration.
        out = tmp_path / "out"
        assert main(["design", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(dict(SMALL_CONFIG, n_points=1024)))
        rc = main(["fit", "--config", str(other), "--out", str(out), "--design", str(out / "design.json"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == f"configuration error: design artifact {out / 'design.json'} was produced with a different configuration\n"

    def test_yule_walker_method(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["fit"] = {"method": "yw", "order": 4}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["method"] == "yw"
        for cell in payload["cells"]:
            assert len(cell["filter"]["den"]) == 5
            assert cell["feasible"] is True

    def test_flat_plant_designs_and_fits_the_shaper_one(self, tmp_path):
        # A constant plant: at lambda 1 the design's shaper is exactly 1, and
        # the yw fit of that shaper loses nothing.
        plant = dict(SMALL_CONFIG["plant"], num=[2.0], den=[1.0])
        cfg = dict(SMALL_CONFIG, plant=plant, fit={"method": "yw", "order": 4})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["design", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        fit_args = ["fit", "--config", str(path), "--out", str(out), "--design", str(out / "design.json"), "--quiet"]
        assert main(fit_args) == 0
        _, rows = read_csv(out / "design_r_opt.csv")
        flat_rows = [row for row in rows if row["lambda"] == "1"]
        assert len(flat_rows) == 2 * cfg["n_points"]
        assert all(row["r_opt"] == "1.0" for row in flat_rows)
        for cell in json.loads((out / "design.json").read_text())["cells"]:
            if cell["lambda"] == 1:
                assert cell["logmean_check"] == 0.0 and cell["norm_r_sq"] == 1.0
        for cell in json.loads((out / "fit.json").read_text())["cells"]:
            assert cell["feasible"] is True
            if cell["lambda"] == 1:
                assert cell["loss_db"] == 0.0


    @pytest.mark.parametrize("method", ["qcqp", "yw"])
    def test_filter_is_the_fitted_transfer_function(self, tmp_path, method):
        # Every fit is a RationalDiscreteTF; qcqp's is FIR, den == (1.0,).
        cfg_dict = dict(SMALL_CONFIG, fit={"method": method, "order": 4})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg_dict))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        cfg = efq.load_config(path)
        reports = [report for _, report in cli._fit_cells(cfg, cli._base_response(cfg))]
        for cell, report in zip(json.loads((out / "fit.json").read_text())["cells"], reports, strict=True):
            assert type(report.fitted) is RationalDiscreteTF
            assert (report.fitted.den == (1.0,)) == (method == "qcqp")
            assert cell["filter"] == {"num": list(report.fitted.num), "den": list(report.fitted.den)}


class TestSimulateCommand:
    def test_runs_and_aggregates(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        payload = json.loads((out / "simulate.json").read_text())
        assert len(payload["cells"]) == 4
        for cell in payload["cells"]:
            assert len(cell["runs"]) == 2
            agg = cell["aggregate"]
            assert agg["mean_empirical_mse"] > 0.0
            assert 0.3 < agg["mean_over_predicted"] < 3.0
            assert agg["ci95_halfwidth"] == simulate.t_quantile_975(1) * agg["std_empirical_mse"] / math.sqrt(2)
            for run in cell["runs"]:
                assert run["overload_rate"] < 0.05
        _, rows = read_csv(out / "simulate_runs.csv")
        assert len(rows) == 8

    def test_seed_override_and_determinism(self, tmp_path):
        # A config of one seed, run twice.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, sim=dict(SMALL_CONFIG["sim"], seeds=[3]))))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--config", str(path), "--quiet"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "simulate.json").read_bytes() == (out2 / "simulate.json").read_bytes()
        payload = json.loads((out1 / "simulate.json").read_text())
        assert all(len(c["runs"]) == 1 and c["runs"][0]["seed"] == 3 for c in payload["cells"])
        # one seed has no spread, so no interval is printed
        assert all(set(c["aggregate"]) == {"mean_empirical_mse", "mean_over_predicted"} for c in payload["cells"])

    def test_trace_export(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert (
            main(["simulate", "--config", config_path, "--out", str(out), "--trace", "--quiet"]) == 0
        )
        _, rows = read_csv(out / "trace.csv")
        assert set(rows[0]) == {"k", "x", "u", "v", "w", "overload"}
        assert [row["k"] for row in rows] == [str(k) for k in range(SMALL_CONFIG["sim"]["length"])]
        assert {row["overload"] for row in rows} <= {"0", "1"}
        # The trace is the first run of the first cell; its columns must be
        # aligned and exact for the loop identity v - x = R[z] w to hold.
        flt = json.loads((out / "simulate.json").read_text())["cells"][0]["filter"]
        traces = simulate.LoopTraces(
            **{name: np.array([float(row[name]) for row in rows]) for name in ("x", "u", "v", "w")},
            overload=np.array([row["overload"] == "1" for row in rows]),
        )
        residual = simulate.loop_identity_residual(traces, RationalDiscreteTF(flt["num"], flt["den"]))
        assert residual <= 1e-10

    def test_batched_lanes_match_scalar_oracle(self, tmp_path):
        config = dict(SMALL_CONFIG, sim=dict(SMALL_CONFIG["sim"], seeds=[0, 1, 2, 3, 4]))
        length = config["sim"]["length"]
        assert len(simulate.lane_parts(4 * 5)[0]) >= simulate.MIN_BATCH_LANES  # 4 cells x 5 seeds take the batched path
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--trace", "--quiet"]) == 0

        plant = ContinuousTF(config["plant"]["num"], config["plant"]["den"], config["plant"]["sample_period"])
        payload = json.loads((out / "simulate.json").read_text())
        oracle_traces = []
        for cell in payload["cells"]:
            lam = cell["lambda"]
            shaper = RationalDiscreteTF(cell["filter"]["num"], cell["filter"]["den"])
            quant = simulate.MidRiseQuantizer(**cell["quantizer"])
            plant_map = spectral.ct_frequency_map(plant, lam, simulate.WELCH_GRID)
            assert [run["seed"] for run in cell["runs"]] == config["sim"]["seeds"]
            for run in cell["runs"]:
                model = simulate.SignalModel(kind="colored", seed=run["seed"], length=length)
                traces = simulate.run_feedback_loop(
                    simulate.gen_input(model, plant.sample_period / lam), shaper, quant
                )
                oracle_traces.append(traces)
                result = simulate.summarize_run(traces, plant_map, cell["predicted_mse"])
                assert run == {
                    "seed": run["seed"],
                    "empirical_mse": result.empirical_mse,
                    "overload_count": result.overload_count,
                    "overload_rate": result.overload_rate,
                    "w_variance": result.w_variance,
                    "sigma_u_sq": result.sigma_u_sq,
                    "max_abs_w_autocorr": max(abs(c) for c in result.w_autocorr),
                }
        _, rows = read_csv(out / "trace.csv")
        first = oracle_traces[0]
        for name in ("x", "u", "v", "w"):
            assert np.array_equal(np.array([float(row[name]) for row in rows]), getattr(first, name)), name
        assert np.array_equal(np.array([row["overload"] == "1" for row in rows]), first.overload)

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # The run statistics use no BLAS, so OpenBLAS's thread count, which
        # splits long dot products differently, cannot change a bit.
        config = dict(SMALL_CONFIG, sim=dict(SMALL_CONFIG["sim"], seeds=[0, 1, 2, 3, 4]))
        assert len(simulate.lane_parts(4 * 5)[0]) >= simulate.MIN_BATCH_LANES
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            code = f"import os, sys; os.environ['OPENBLAS_NUM_THREADS'] = {threads!r}; from efq.cli import main; sys.exit(main())"
            proc = run_python(["-c", code, "simulate", "--config", str(path), "--out", str(out), "--quiet"])
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in ("simulate.json", "simulate_runs.csv")])
        assert outputs[0] == outputs[1]

    @staticmethod
    def diverging_setup(tmp_path, seeds):
        """(config, fit.json) paths of one 8-bit, lambda 1 cell at 60,000
        samples whose fitted filter is replaced by 1 + 10 z^-1."""
        sim = dict(SMALL_CONFIG["sim"], length=60000, seeds=seeds)
        config = dict(SMALL_CONFIG, bits_list=[8], lambda_list=[1], n_points=1024, sim=sim)
        path = tmp_path / f"config{len(seeds)}.json"
        path.write_text(json.dumps(config))
        fit_path = tmp_path / f"fit{len(seeds)}" / "fit.json"
        assert main(["fit", "--config", str(path), "--out", str(fit_path.parent), "--quiet"]) == 0
        fit = json.loads(fit_path.read_text())
        fit["cells"][0]["filter"] = {"num": [1.0, 10.0], "den": [1.0]}
        fit_path.write_text(json.dumps(fit))
        return path, fit_path

    def test_non_finite_lane_fails_before_any_artifact(self, tmp_path):
        # A fit.json whose 8-bit filter is 1 + 10 z^-1: the loop diverges
        # once a lane saturates, on the scalar loop (4 seeds) and the lane
        # kernel (16). simulate exits 2 with one message naming the lane and
        # leaves no artifact, though the first lane's trace.csv was being
        # written.
        message = (
            r"numerical failure: bits=8 lambda=1 seed=\d+: "
            r"u/step is not finite at sample \d+ of the chunk from sample \d+"
        )
        for seeds in (range(1, 5), range(16)):  # seed 4 fails in its chunk from sample 8192
            assert (len(simulate.lane_parts(len(seeds))[0]) >= simulate.MIN_BATCH_LANES) == (len(seeds) == 16)
            path, fit_path = self.diverging_setup(tmp_path, list(seeds))
            out = tmp_path / f"out{len(seeds)}"
            args = ["simulate", "--config", str(path), "--out", str(out), "--fit", str(fit_path), "--trace", "--quiet"]
            proc = run_python(["-c", "import sys; from efq.cli import main; sys.exit(main())", *args])
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr
            assert re.fullmatch(message, proc.stderr.splitlines()[-1]), proc.stderr
            assert list(out.iterdir()) == []  # not even the first lane's trace.csv

    def test_diverging_scalar_lane_prints_its_failure_alone(self, tmp_path):
        # Seed 4 of the set-up above grows huge but finite in its first chunk
        # and fails in the next, so RunStats has seen squares that overflow:
        # stderr holds the failure line and no numpy warning.
        path, fit_path = self.diverging_setup(tmp_path, [4])
        args = ["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--fit", str(fit_path), "--quiet"]
        proc = run_python(["-c", "import sys; from efq.cli import main; sys.exit(main())", *args])
        assert proc.returncode == 2
        assert proc.stderr == (
            "numerical failure: bits=8 lambda=1 seed=4: u/step is not finite at sample 9 of the chunk from sample 8192\n"
        )

    def test_diverging_lane_joins_the_trace_workers(self, tmp_path, set_workers, capsys):
        # Seed 6 of the diverging set-up above fails in its chunk from sample
        # 32768, after trace.csv has sent chunks to worker processes: simulate
        # still exits 2, joins every worker and leaves no artifact.
        pools = set_workers(2)
        path, fit_path = self.diverging_setup(tmp_path, [6])
        out = tmp_path / "out"
        capsys.readouterr()
        args = ["simulate", "--config", str(path), "--out", str(out), "--fit", str(fit_path), "--trace", "--quiet"]
        assert main(args) == 2
        failed_at = int(re.search(r"of the chunk from sample (\d+)", capsys.readouterr().err).group(1))
        assert failed_at > CSV_CHUNK_ROWS  # a trace chunk went to the workers
        assert pools == [2]
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", ["qcqp", "yw"])
    def test_predicted_mse_is_the_fit_score(self, tmp_path, method):
        # simulate scores each shaper on the plant map its cell was designed
        # on, so its prediction is fit.json's achieved_mse to the bit.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, fit={"method": method, "order": 4})))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out), "--fit", str(out / "fit.json"), "--quiet"]) == 0
        fit = {(c["bits"], c["lambda"]): c for c in json.loads((out / "fit.json").read_text())["cells"]}
        cells = json.loads((out / "simulate.json").read_text())["cells"]
        assert len(cells) == len(fit) == 4
        for cell in cells:
            assert cell["predicted_mse"] == fit[cell["bits"], cell["lambda"]]["achieved_mse"], (cell["bits"], cell["lambda"])
        _, rows = read_csv(out / "simulate_runs.csv")
        for row in rows:
            assert float(row["predicted_mse"]) == fit[int(row["bits"]), int(row["lambda"])]["achieved_mse"]

    def test_short_length_fails_before_any_loop(self, tmp_path, monkeypatch, capsys):
        config = dict(SMALL_CONFIG, sim=dict(SMALL_CONFIG["sim"], length=1500))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))

        def no_loop(*args, **kwargs):
            raise AssertionError("a loop ran before the length check")

        monkeypatch.setattr(simulate, "run_feedback_loop", no_loop)
        monkeypatch.setattr(simulate, "run_feedback_lanes", no_loop)
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 1
        assert "need at least 16384 samples for one 16384-sample Welch segment, got 1500" in capsys.readouterr().err
        assert not (tmp_path / "out" / "simulate.json").exists()

    def test_reuses_fit_artifact(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["fit", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        rc = main(
            [
                "simulate",
                "--config",
                config_path,
                "--out",
                str(out),
                "--fit",
                str(out / "fit.json"),
                "--quiet",
            ]
        )
        assert rc == 0


# A stage in a fresh process at a faked worker count, printing the sizes of
# the pools it opened before it exits with the stage's code.
STAGE_AT_WORKERS = """
import sys
from efq import cli

fork_pool, pools = cli._fork_pool, []
cli._fork_pool = lambda workers: pools.append(workers) or fork_pool(workers)
cli._max_workers = lambda: int(sys.argv[1])
code = cli.main(sys.argv[2:])
print(pools)
sys.exit(code)
"""


class TestWorkerProcesses:
    def test_max_workers_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 17}, raising=False)  # pinned to 2 of 64
        assert cli._max_workers() == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert cli._max_workers() == cli.MAX_WORKERS == 8
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without it
        assert cli._max_workers() == 8

    def test_worker_count_does_not_change_verify_or_split_lanes(self, tmp_path, set_workers):
        # verify's cells, and simulate's 48 lanes without --trace, which run
        # as 1, 2 and 3 parts; no worker is left behind.
        config = dict(SMALL_CONFIG, sim=dict(SMALL_CONFIG["sim"], seeds=list(range(12))))
        assert [len(simulate.lane_parts(4 * 12, workers)) for workers in (1, 2, 3)] == [1, 2, 3]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        names = ("verify.json", "simulate.json", "simulate_runs.csv")
        artifacts = []
        for workers in (1, 2, 3):
            pools = set_workers(workers)
            out = tmp_path / f"workers{workers}"
            for command in ("verify", "simulate"):
                assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 0
                assert multiprocessing.active_children() == []
            artifacts.append({name: (out / name).read_bytes() for name in names})
            # verify's cells, then simulate's fits and its lane parts
            assert pools == ([workers] * 3 if workers > 1 else [])
        assert artifacts[0] == artifacts[1] == artifacts[2]

    def test_lane_failure_reads_as_in_the_serial_pass(self, tmp_path):
        # Two lanes of the diverging set-up fail: seed 6 in the first part
        # (lanes 0-15), in its chunk from sample 32768, and seed 23 in the
        # second, in its chunk from sample 8192. The pass names the lane of the
        # earliest failing chunk, so every worker count names seed 23.
        seeds = [0, 1, 2, 3, 6, 7, 9, 10, 11, 13, 14, 15, 16, 17, 18, 19]
        seeds += [20, 21, 22, 23, 24, 25, 26, 29, 30, 31, 32, 33, 36, 37, 38, 39]
        assert simulate.lane_parts(len(seeds), 2) == simulate.lane_parts(len(seeds), 3) == [range(0, 16), range(16, 32)]
        path, fit_path = TestSimulateCommand.diverging_setup(tmp_path, seeds)
        stderr = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"out{workers}"
            args = ["simulate", "--config", str(path), "--out", str(out), "--fit", str(fit_path), "--quiet"]
            proc = run_python(["-c", STAGE_AT_WORKERS, str(workers), *args])
            assert proc.returncode == 2, proc.stderr
            assert proc.stdout == ("[]\n" if workers == 1 else "[2]\n")  # one pool, for the two parts
            assert list(out.iterdir()) == []
            stderr[workers] = proc.stderr
        assert re.fullmatch(
            r"numerical failure: bits=8 lambda=1 seed=23: u/step is not finite at sample \d+ of the chunk from sample 8192\n",
            stderr[1],
        )
        assert stderr[2] == stderr[3] == stderr[1]


class TestVerifyCommand:
    def test_passes_on_small_config(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--config", config_path, "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured
        assert "FAIL" not in captured
        payload = json.loads((out / "verify.json").read_text())
        assert payload["all_pass"] is True
        assert all(c["pass"] for c in payload["checks"])


class TestStagesAgree:
    def test_shapers_are_built_only_where_read(self, config_path, tmp_path, monkeypatch, set_workers):
        # design and verify read one shaper per cell, and the yw fit fits one;
        # rd-curve and the qcqp fit read only the design's scalars. One worker
        # keeps every cell in this process, where the count sees it.
        pools = set_workers(1)
        yw_path = tmp_path / "yw.json"
        yw_path.write_text(json.dumps(dict(SMALL_CONFIG, fit={"method": "yw", "order": 4})))
        built = []
        shaper = design.optimal_shaper

        def counted(alpha, p):
            built.append(alpha)
            return shaper(alpha, p)

        monkeypatch.setattr(design, "optimal_shaper", counted)
        monkeypatch.setattr(fitting, "optimal_shaper", counted)
        counts = {}
        for name, command, path in (
            ("design", "design", config_path),
            ("verify", "verify", config_path),
            ("rd-curve", "rd-curve", config_path),
            ("fit qcqp", "fit", config_path),
            ("fit yw", "fit", str(yw_path)),
        ):
            built.clear()
            assert main([command, "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0
            counts[name] = len(built)
        assert counts == {"design": 4, "verify": 4, "rd-curve": 0, "fit qcqp": 0, "fit yw": 4}
        assert pools == []

    def test_cli_matches_library_and_stages_match_each_other(self, config_path, tmp_path):
        out = tmp_path / "out"
        for command in ("design", "rd-curve", "verify"):
            assert main([command, "--config", config_path, "--out", str(out), "--quiet"]) == 0

        cfg = efq.load_config(config_path)
        p_base = efq.ct_frequency_map(cfg.plant_tf(), 1, cfg.grid())
        cells = json.loads((out / "design.json").read_text())["cells"]
        assert len(cells) == 4
        for cell in cells:
            gamma = design.gamma_from_bits(cell["bits"], cfg.loading_factor)
            expected = design.solve_min_mse(spectral.oversample_response(p_base, cell["lambda"]), gamma)
            for name in ("alpha_opt", "theta_opt", "distortion", "norm_r_sq", "n_of_alpha"):
                assert cell[name] == getattr(expected, name), (cell["bits"], cell["lambda"], name)

        # verify and rd-curve must define the collapse residual and the bound alike.
        measured = {c["name"]: c["measured"] for c in json.loads((out / "verify.json").read_text())["checks"]}
        _, rows = read_csv(out / "rd_curve.csv")
        assert measured["oversampling_collapse_identity"] == max(float(r["identity_residual"]) for r in rows)
        assert measured["distortion_upper_bound_slack"] == max(float(r["D"]) / float(r["bound"]) - 1.0 for r in rows)


REPO = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("design", "rd-curve", "fit", "simulate", "verify")


def run_python(args, timeout=300):
    """Run python in a fresh process with this checkout's src on the path."""
    src = str(Path(efq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


# The report of scripts/simulation_check.py on one short lane, scored on the
# design's plant map as efq simulate scores it.
SIMULATION_CHECK_STDOUT = """\
cell: bits=8 lambda=1 order=4 loading=4.0
shaper taps: [1.0, -1.116942, 0.230829, -0.087225, 0.029458]
predicted MSE 6.111198e-07 (-62.139 dB), ideal 6.108487e-07 (-62.141 dB)
quantizer: step 3.137423e-02, saturation 4.000215e+00

 seed overloads  ovl_rate    empirical   ratio  identity     granular gran_ratio
--------------------------------------------------------------------------------
    0         2  1.00e-04 7.919518e-07  1.2959  4.44e-16 6.123117e-07     1.0020

empirical/predicted ratio: mean 1.2959, 95% CI half-width nan, range [1.2959, 1.2959]
granular/predicted ratio: mean 1.0020, 95% CI half-width nan, range [1.0020, 1.0020]
"""


class TestEntryPoints:
    def test_readme_example_runs(self):
        readme = (REPO / "README.md").read_text()
        block = readme.split("```python\n", 1)[1].split("```", 1)[0]
        proc = run_python(["-c", block])
        assert proc.returncode == 0, proc.stderr

    def test_simulation_check_output_is_unchanged(self):
        """The script sets up its lane with ``loop_quantizer``, runs each seed
        once and scores the whole traces with ``summarize_run`` and
        ``granular_mse``; its report is the one recorded above."""
        command = "--bits 8 --length 20000 --seeds 0 --grid 1024"
        proc = run_python([str(REPO / "scripts/simulation_check.py"), *command.split()])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == SIMULATION_CHECK_STDOUT

    def test_timings_count_every_solve_by_phase(self, config_path, tmp_path, set_workers):
        """Each stage's timings sidecar counts its solves and their quadratures
        by phase; the counts do not depend on the worker count."""
        phases = ("newton", "bisection", "polish")
        totals = {}
        for workers in (1, 2):
            pools = set_workers(workers)
            out = tmp_path / f"workers{workers}"
            sidecars = {}
            for command in ("rd-curve", "fit", "verify"):
                assert main([command, "--config", config_path, "--out", str(out), "--quiet"]) == 0
                sidecars[command] = json.loads((out / f"{command}.timings.json").read_text())
            sha = json.loads((out / "fit.json").read_text())["config_sha256"]
            for timings in sidecars.values():
                assert timings["schema_version"] == 1 and timings["config_sha256"] == sha
                assert timings["cpu_s"] >= 0.0 and timings["wall_s"] > 0.0
            totals[workers] = {name: sum(t[name] for t in sidecars.values()) for name in ("solves", *phases)}
            assert pools == ([workers] * 3 if workers > 1 else [])  # each stage's cells
        # 4 cells: rd-curve 4 + 2 collapse solves, fit 4, verify 4 + 4 on the doubled grid + 2
        assert totals[1]["solves"] == 20
        quadratures = sum(totals[1][phase] for phase in phases)
        assert 0 < quadratures <= 24 * 20
        assert totals[2] == totals[1]

    def test_verify_failure_writes_its_timings(self, tmp_path, capsys):
        """A verify that fails an invariant (exit 3) has written verify.json,
        and writes its timings sidecar beside it. A zero at DC (the built-in
        numerator times s) at 2,048 points misses grid_convergence_alpha at
        16 bits."""
        data = config_to_dict(default_config())
        data["plant"]["num"] = [*data["plant"]["num"], 0.0]
        data.update(n_points=2048, bits_list=[8, 16], lambda_list=[1])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out), "--quiet"]) == 3
        assert "grid_convergence_alpha" in capsys.readouterr().err
        assert not json.loads((out / "verify.json").read_text())["all_pass"]
        timings = json.loads((out / "verify.timings.json").read_text())
        assert timings["config_sha256"] == json.loads((out / "verify.json").read_text())["config_sha256"]
        assert timings["solves"] > 0 and timings["wall_s"] > 0.0

    def test_timings_count_csv_rows_bytes_and_format_time(self, tmp_path, set_workers):
        """The sidecar counts the rows and bytes of the tables a stage wrote
        and their formatting CPU time, a worker's included; the counts do not
        depend on the worker count. 4 cells of 8,192 points make 2 chunks of
        design_r_opt.csv, the second formatted on a worker at 2 workers."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, n_points=8192)))
        counts = {}
        for workers in (1, 2):
            pools = set_workers(workers)
            out = tmp_path / f"workers{workers}"
            assert main(["design", "--config", str(path), "--out", str(out), "--quiet"]) == 0
            assert pools == ([workers] * 2 if workers > 1 else [])  # the cells' pool, then the table's
            timings = json.loads((out / "design.timings.json").read_text())
            assert timings["csv_format_s"] > 0.0
            counts[workers] = (timings["csv_rows"], timings["csv_bytes"])
        assert counts[1] == counts[2] == (4 * 8192, (out / "design_r_opt.csv").stat().st_size)
        assert main(["verify", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        timings = json.loads((out / "verify.timings.json").read_text())
        assert (timings["csv_rows"], timings["csv_bytes"], timings["csv_format_s"]) == (0, 0, 0.0)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_lists_common_flags(self, command, capsys):
        # The config file is the one source of every experiment value, so no
        # flag sets one.
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        own = {"fit": {"--design"}, "simulate": {"--fit", "--trace"}}.get(command, set())
        assert set(re.findall(r"(?<![\w-])--[a-z]+", usage)) == {"--help", "--config", "--out", "--quiet", *own}

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    @pytest.mark.parametrize("flag", ["--grid 64", "--seed 0"])
    def test_grid_and_seed_flags_are_refused(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag.split()])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag}\n")


# Runs design, rd-curve, fit, simulate (with --trace, and at one worker, so
# its fits and lane pass run in this process) and, with both fit methods, fit
# and verify, then prints the scipy modules loaded.
SCIPY_FREE_STAGES = """
import json, sys
from efq import cli

qcqp, yw, out = sys.argv[1:]
fork_pool, pools = cli._fork_pool, []
cli._fork_pool = lambda workers: pools.append(workers) or fork_pool(workers)
max_workers = cli._max_workers
for in_process, argv in (
    (False, ["design", "--config", qcqp]),
    (False, ["rd-curve", "--config", qcqp]),
    (False, ["fit", "--config", qcqp, "--design", out + "/design.json"]),
    (False, ["simulate", "--config", qcqp, "--fit", out + "/fit.json", "--trace"]),
    (True, ["simulate", "--config", qcqp]),
    (False, ["fit", "--config", yw]),
    (False, ["verify", "--config", qcqp]),
    (False, ["verify", "--config", yw]),
):
    cli._max_workers = (lambda: 1) if in_process else max_workers
    pools.clear()
    if cli.main([*argv, "--out", out, "--quiet"]) != 0:
        sys.exit(f"efq {argv[0]} failed")
    if in_process and pools:
        sys.exit(f"efq {argv[0]} opened a pool of {pools[0]} workers at one worker")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


# What a fresh process loads as it reads efq's names, and how the names it
# has not defined resolve.
LAZY_SURFACE = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules if name == "efq" or name.startswith("efq."))

import efq
steps = [loaded()]
efq.load_config
steps.append(loaded())
fitting = efq.fitting
steps.append(loaded())
import efq.cli
steps.append(loaded())
try:
    efq.no_such_name
except AttributeError as exc:
    missing = str(exc)
star = {}
exec("from efq import *", star)
del star["__builtins__"]
print(json.dumps({
    "steps": steps,
    "fitting_is_submodule": fitting is sys.modules["efq.fitting"],
    "missing": missing,
    "star": sorted(star) == efq.__all__ and all(star[name] is getattr(efq, name) for name in star),
}))
"""
DESIGN_MODULES = ["efq", "efq.config", "efq.design", "efq.errors", "efq.spectral", "efq.transfer"]


class TestPublicSurface:
    def test_all_lists_every_public_name_but_modules(self):
        public = {name for name in dir(efq) if not name.startswith("_") and not inspect.ismodule(getattr(efq, name))}
        assert len(efq.__all__) == len(set(efq.__all__))
        assert set(efq.__all__) == public

    def test_import_loads_a_module_when_one_of_its_names_is_first_read(self):
        proc = run_python(["-c", LAZY_SURFACE])
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["steps"] == [
            ["efq"],
            DESIGN_MODULES,
            sorted([*DESIGN_MODULES, "efq.fitting"]),
            sorted([*DESIGN_MODULES, "efq.cli", "efq.fitting", "efq.simulate"]),  # efq.csvtext waits for a table
        ]
        assert report["fitting_is_submodule"]
        assert "'no_such_name'" in report["missing"]
        assert report["star"]


# A meta-path finder, first on sys.meta_path, under which scipy cannot be
# imported, as where it is not installed.
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


class TestStartup:
    def run_stages(self, config_path, tmp_path, prelude=""):
        # A fresh process: this test session has imported scipy already.
        yw_path = tmp_path / "yw.json"
        yw_path.write_text(json.dumps(dict(SMALL_CONFIG, fit={"method": "yw", "order": 4})))
        proc = run_python(["-c", prelude + SCIPY_FREE_STAGES, config_path, str(yw_path), str(tmp_path / "out")])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_design_rd_curve_fit_and_verify_never_load_scipy(self, config_path, tmp_path):
        self.run_stages(config_path, tmp_path)

    def test_every_stage_runs_with_scipy_unimportable(self, config_path, tmp_path):
        proc = run_python(["-c", BLOCK_SCIPY + "import scipy"])
        assert proc.returncode == 1 and proc.stderr.splitlines()[-1] == "ImportError: scipy is blocked"
        self.run_stages(config_path, tmp_path, BLOCK_SCIPY)


def drop_field(name):
    return lambda artifact: dict(artifact, cells=[{k: v for k, v in c.items() if k != name} for c in artifact["cells"]])


def set_field(name, value):
    return lambda artifact: dict(artifact, cells=[dict(c, **{name: value}) for c in artifact["cells"]])


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path):
        rc = main(["design", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 1

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["design", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_unknown_field_rejected(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["typo_field"] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["design", "--config", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("sim", "lenght", 5000, "sim.lenght: unknown field"),
            ("plant", "sample_period", True, "plant.sample_period: must be a number, got True"),
            pytest.param(
                "sim", "ct_pole", 10**400, "sim.ct_pole: must be a finite number, got an integer too large for a float", id="huge_ct_pole"
            ),
        ],
    )
    def test_nested_config_error_names_its_path(self, tmp_path, capsys, section, key, value, message):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg[section][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["design", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_fit_order_above_the_grid_limit_exits_one(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["fit"]["order"] = cfg["n_points"] // 4 + 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["fit", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "fit.order: must be an integer from 1 to n_points // 4 = 512, got 513" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds, named", [([2**64], "sim.seeds[0]"), ([0, 2**63], "sim.seeds[1]")])
    def test_seed_beyond_int64_exits_before_any_lane(self, tmp_path, capsys, monkeypatch, seeds, named):
        def no_lanes(*args, **kwargs):
            raise AssertionError("a lane ran")

        monkeypatch.setattr(simulate, "run_lanes", no_lanes)
        monkeypatch.setattr(simulate, "run_feedback_loop", no_lanes)
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["sim"]["seeds"] = seeds
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert f"{named}: must be an integer from 0 to 2**63 - 1, got {seeds[-1]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["design", "rd-curve", "fit", "simulate", "verify"])
    def test_repeated_seed_exits_one(self, tmp_path, capsys, stage):
        # With seeds [3, 3], simulate ran the same lane twice and printed a
        # 95 % interval of half-width 0.0 on two identical runs.
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["sim"]["seeds"] = [3, 3]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([stage, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == "configuration error: invalid configuration:\n  sim.seeds[1]: repeats sim.seeds[0] (3)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["design", "rd-curve", "fit", "simulate", "verify"])
    @pytest.mark.parametrize("bits", [600, 1100])
    def test_bit_count_beyond_a_finite_gamma_exits_one(self, tmp_path, capsys, stage, bits):
        # 1100 bits raised an OverflowError traceback, and 600 made gamma inf
        # and failed later on a NaN alpha.
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["bits_list"] = [2, bits]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([stage, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "bits_list[1]: " in err and "beyond the float range" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["design", "rd-curve", "fit", "simulate", "verify"])
    def test_loading_factor_that_rounds_nu_to_one_exits_one(self, tmp_path, capsys, stage):
        # At loading factor 1e10, gamma is below 2^-53, so gamma + 1 rounds
        # to 1: each stage exited 1 with "validation error: math domain error".
        cfg = dict(json.loads(json.dumps(SMALL_CONFIG)), loading_factor=1e10)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([stage, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "bits_list[0]: nu must exceed 1, got 1.0" in err, err
        assert "math domain error" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["design", "rd-curve", "fit", "simulate", "verify"])
    def test_cell_beyond_a_finite_nu_power_exits_one(self, tmp_path, capsys, stage):
        # With the plant's numerator scaled by 1e100 the (8, 80) design
        # solves: design and fit exited 0, and rd-curve and verify raised an
        # OverflowError traceback from nu^lambda.
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["plant"]["num"] = [1e100 * c for c in cfg["plant"]["num"]]
        cfg["bits_list"], cfg["lambda_list"], cfg["n_points"] = [2, 8], [1, 80], 256
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([stage, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "bits_list[1], lambda_list[1]: nu^lambda is beyond the float range" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["design", "rd-curve", "fit", "simulate", "verify"])
    @pytest.mark.parametrize("bits, lam", [(255, 2), (256, 2), (257, 2), (171, 3), (509, 1), (510, 1), (511, 1)])
    def test_cell_whose_alpha_is_below_the_normal_floats_exits_one(self, tmp_path, capsys, stage, bits, lam):
        # nu^lambda is finite, but the optimal alpha lies below the smallest
        # normal float: these cells exited 2 after validation, failing to
        # bracket alpha from below.
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["bits_list"], cfg["lambda_list"], cfg["n_points"] = [2, bits], [1, lam] if lam > 1 else [1], 256
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([stage, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        named = f"bits_list[1], lambda_list[{1 if lam > 1 else 0}]: the optimal alpha lies below the smallest normal float"
        assert err.startswith("configuration error: ") and named in err and f" at {bits} bits and lambda {lam}," in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["design", "rd-curve"])
    @pytest.mark.parametrize("bits, lam", [(254, 2), (170, 3), (508, 1)])
    def test_cell_whose_alpha_is_just_normal_solves(self, tmp_path, stage, bits, lam):
        # one step below the cells refused above; rd-curve also solves the
        # collapsed problem at nu^lambda
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["bits_list"], cfg["lambda_list"], cfg["n_points"] = [bits], [lam], 256
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([stage, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0

    @pytest.mark.parametrize("stage", ["design", "rd-curve", "fit", "simulate", "verify"])
    def test_failed_design_solve_names_its_cell(self, tmp_path, capsys, stage):
        # With a zero at DC, p^2 has an in-band zero, so only the upper end
        # of the closed-form bracket can refuse a cell, and at 511 bits it
        # lies above the smallest normal float. alpha does not: the solve
        # fails, and the message names the cell, from a worker too.
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["plant"]["num"] = [0.5145, 2.2945, 3.573, 1.941, 0.0]  # s/2 times the built-in numerator
        cfg["bits_list"], cfg["lambda_list"], cfg["n_points"] = [2, 511], [1], 256
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([stage, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: bits=511 lambda=1: failed to bracket the optimal alpha from below\n"

    def test_invalid_bits_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["bits_list"] = [0]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["design", "--config", str(path), "--out", str(tmp_path)]) == 1

    def test_unstable_plant_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["plant"]["den"] = [1.0, -1.0]
        cfg["plant"]["num"] = [1.0]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["design", "--config", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["design", "verify"])
    @pytest.mark.parametrize("grid", ["0", "63"])
    def test_grid_below_minimum_rejected(self, tmp_path, capsys, command, grid):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, n_points=int(grid))))
        assert main([command, "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 1
        assert f"n_points: must be an integer >= 64, got {grid}" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", SUBCOMMANDS)
    def test_output_directory_that_cannot_be_made_exits_one(self, config_path, tmp_path, capsys, stage):
        # Under a regular file: a NotADirectoryError traceback, and verify
        # ran every check before it tried.
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert main([stage, "--config", config_path, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot create output directory {out}: ") and err.count("\n") == 1, err
        assert design.SOLVE_COUNTS["solves"] == 0

    @pytest.mark.parametrize("stage, flag", [("design", "--config"), ("fit", "--design"), ("simulate", "--fit")])
    def test_undecodable_json_file_is_named(self, config_path, tmp_path, capsys, stage, flag):
        # 200 random bytes printed "validation error: 'utf-8' codec can't
        # decode byte ...", which names no file.
        path = tmp_path / "bytes.json"
        path.write_bytes(np.random.default_rng(0).bytes(200))
        args = [stage, "--out", str(tmp_path / "out"), "--quiet", flag, str(path)]
        assert main(args if flag == "--config" else [*args, "--config", config_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and f"{path} is not valid JSON: 'utf-8' codec can't decode" in err, err

    @pytest.mark.parametrize(
        "stage, damage, named",
        [
            ("fit", set_field("alpha_opt", None), "'alpha_opt'"),
            ("fit", set_field("norm_r_sq", 0.5), "'norm_r_sq'"),
            ("fit", drop_field("alpha_opt"), "'alpha_opt'"),
            ("fit", lambda artifact: artifact["cells"], "not a JSON object"),
            ("simulate", drop_field("filter"), "'filter'"),
            # json.loads reads 1 followed by 400 zeros as an exact int, beyond the float range
            ("fit", set_field("alpha_opt", 10**400), "'alpha_opt': expected a finite positive number, got an integer too large"),
            ("fit", set_field("norm_r_sq", 10**400), "'norm_r_sq': expected a finite positive number, got an integer too large"),
            ("simulate", set_field("filter", {"num": [1.0, 10**400], "den": [1.0]}), "'filter': coefficient list contains non-finite"),
        ],
        ids=["null_alpha", "norm_below_one", "missing_alpha", "json_array", "missing_filter", "huge_alpha", "huge_norm", "huge_tap"],
    )
    def test_malformed_upstream_artifact_rejected(self, config_path, tmp_path, capsys, stage, damage, named):
        upstream, flag = {"fit": ("design", "--design"), "simulate": ("fit", "--fit")}[stage]
        out = tmp_path / "out"
        assert main([upstream, "--config", config_path, "--out", str(out), "--quiet"]) == 0
        path = out / f"{upstream}.json"
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        capsys.readouterr()
        assert main([stage, "--config", config_path, "--out", str(out), flag, str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert str(path) in err and named in err, err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
