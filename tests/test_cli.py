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
from pathlib import Path

import numpy as np
import pytest

import efq
from efq import cli, design, simulate
from efq.cli import CSV_CHUNK_ROWS, CSV_FEW_DISTINCT, _columns, _write_csv, main
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


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    rows = list(csv.DictReader(lines[1:]))
    return lines[0].split("=", 1)[1], rows


def reference_csv(sha, columns, rows):
    """Row-by-row oracle for _write_csv: bool as 1/0, int as str, float as repr."""

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
        _write_csv(path, "abc", _columns(",".join(columns), rows))
        assert path.read_text() == reference_csv("abc", columns, rows)

    @pytest.mark.parametrize(
        "n", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, *(4 * CSV_CHUNK_ROWS + d for d in (-1, 0, 1))]
    )
    def test_chunk_boundaries_match_row_oracle(self, tmp_path, n):
        rng = np.random.default_rng(n)
        columns = [np.arange(n), rng.standard_normal(n), rng.random(n) < 0.5]
        path = tmp_path / "chunks.csv"
        _write_csv(path, "abc", dict(zip(["k", "x", "flag"], columns)))
        expected = reference_csv("abc", ["k", "x", "flag"], zip(*columns))
        # Compared as lines, so a mismatch reports its first index, not a full text diff.
        assert path.read_text().split("\n") == expected.split("\n")

    def test_row_index_range_matches_row_oracle(self, tmp_path):
        n = CSV_CHUNK_ROWS + 2
        path = tmp_path / "range.csv"
        _write_csv(path, "abc", {"k": range(n)})
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
        _write_csv(path, "abc", {"f": col, "level": levels, "flag": flags})
        expected = reference_csv("abc", ["f", "level", "flag"], zip(col, levels, flags))
        assert path.read_text().split("\n") == expected.split("\n")
        assert "-0.0" in path.read_text().split("\n")[CSV_CHUNK_ROWS + 1]

    @pytest.mark.parametrize(
        ("distinct", "formatted"),
        [(CSV_CHUNK_ROWS // CSV_FEW_DISTINCT, "distinct"), (CSV_CHUNK_ROWS // CSV_FEW_DISTINCT + 1, "rows")],
    )
    def test_distinct_value_rule(self, tmp_path, monkeypatch, distinct, formatted):
        # One chunk of floats with `distinct` bit patterns: at most one per
        # CSV_FEW_DISTINCT rows formats each pattern once, one more formats every row.
        rng = np.random.default_rng(distinct)
        values = rng.standard_normal(distinct)
        col = np.concatenate([values, values[rng.integers(0, distinct, CSV_CHUNK_ROWS - distinct)]])
        calls = []

        def counting_repr(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
        path = tmp_path / "rule.csv"
        _write_csv(path, "abc", {"x": col})
        assert path.read_text() == reference_csv("abc", ["x"], ((v,) for v in col))
        assert len(calls) == (distinct if formatted == "distinct" else CSV_CHUNK_ROWS)

    @pytest.mark.parametrize("where", ["block", "worker"])
    def test_failure_after_the_workers_started_joins_them_and_removes_the_file(self, tmp_path, monkeypatch, where):
        # An exception in the block, or in a worker formatting a later chunk,
        # comes out unchanged, with every worker joined and no partial file.
        monkeypatch.setenv("EFQ_THREADS", "2")
        cells = cli._csv_cells

        def cells_failing_past_the_first_chunk(col):
            if where == "worker" and col[0] >= CSV_CHUNK_ROWS:
                raise ArithmeticError("worker failed")
            return cells(col)

        monkeypatch.setattr(cli, "_csv_cells", cells_failing_past_the_first_chunk)
        path = tmp_path / "failed.csv"
        with pytest.raises(ArithmeticError, match=f"{where} failed"):
            with cli._csv_file(path, "abc", ["x"]) as append:
                append({"x": np.arange(4 * CSV_CHUNK_ROWS, dtype=float)})
                assert multiprocessing.active_children()  # the workers are running
                append({"x": np.arange(4 * CSV_CHUNK_ROWS, dtype=float) + 0.5})
                raise ArithmeticError("block failed")
        assert not path.exists()
        assert multiprocessing.active_children() == []


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

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        # Every command that maps its cells over the thread pool, and both
        # tables that format on worker processes: design_r_opt.csv (2 CSV
        # chunks) and trace.csv (3 chunks and a row). EFQ_THREADS is set
        # explicitly, so the worker processes run on a 1-core machine too.
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
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("EFQ_THREADS", threads)
            out = tmp_path / f"threads{threads}"
            for command in outputs:
                flags = ["--trace"] if command == "simulate" else []
                assert main([command, "--config", str(path), "--out", str(out), "--quiet", *flags]) == 0
            artifacts.append({name: (out / name).read_bytes() for names in outputs.values() for name in names})
            assert multiprocessing.active_children() == []
        assert artifacts[0] == artifacts[1] == artifacts[2]

    def test_grid_override_changes_hash(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["design", "--config", config_path, "--out", str(out1), "--quiet"]) == 0
        assert (
            main(["design", "--config", config_path, "--out", str(out2), "--grid", "1024", "--quiet"])
            == 0
        )
        h1 = json.loads((out1 / "design.json").read_text())["config_sha256"]
        h2 = json.loads((out2 / "design.json").read_text())["config_sha256"]
        assert h1 != h2


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

    def test_mismatched_design_artifact_rejected(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["design", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        rc = main(
            [
                "fit",
                "--config",
                config_path,
                "--out",
                str(out),
                "--design",
                str(out / "design.json"),
                "--grid",
                "1024",
                "--quiet",
            ]
        )
        assert rc == 1

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
            for run in cell["runs"]:
                assert run["overload_rate"] < 0.05
        _, rows = read_csv(out / "simulate_runs.csv")
        assert len(rows) == 8

    def test_seed_override_and_determinism(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--config", config_path, "--seed", "3", "--quiet"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "simulate.json").read_bytes() == (out2 / "simulate.json").read_bytes()
        payload = json.loads((out1 / "simulate.json").read_text())
        assert all(len(c["runs"]) == 1 and c["runs"][0]["seed"] == 3 for c in payload["cells"])

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
        assert simulate.lane_group_size(4 * 5) >= simulate.MIN_BATCH_LANES  # 4 cells x 5 seeds take the batched path
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
            plant_d = simulate.discretize_plant(plant, lam)
            assert [run["seed"] for run in cell["runs"]] == config["sim"]["seeds"]
            for run in cell["runs"]:
                model = simulate.SignalModel(kind="colored", seed=run["seed"], length=length)
                traces = simulate.run_feedback_loop(
                    simulate.gen_input(model, plant.sample_period / lam), shaper, quant
                )
                oracle_traces.append(traces)
                result = simulate.summarize_run(traces, plant_d, cell["predicted_mse"])
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
        assert simulate.lane_group_size(4 * 5) >= simulate.MIN_BATCH_LANES
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
        for seeds in (4, 16):
            assert (simulate.lane_group_size(seeds) >= simulate.MIN_BATCH_LANES) == (seeds == 16)
            path, fit_path = self.diverging_setup(tmp_path, list(range(seeds)))
            out = tmp_path / f"out{seeds}"
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

    def test_diverging_lane_joins_the_trace_workers(self, tmp_path, monkeypatch, capsys):
        # Seed 6 of the diverging set-up above fails in its chunk from sample
        # 32768, after trace.csv has sent chunks to worker processes: simulate
        # still exits 2, joins every worker and leaves no artifact.
        monkeypatch.setenv("EFQ_THREADS", "2")
        path, fit_path = self.diverging_setup(tmp_path, [6])
        out = tmp_path / "out"
        capsys.readouterr()
        args = ["simulate", "--config", str(path), "--out", str(out), "--fit", str(fit_path), "--trace", "--quiet"]
        assert main(args) == 2
        failed_at = int(re.search(r"of the chunk from sample (\d+)", capsys.readouterr().err).group(1))
        assert failed_at > CSV_CHUNK_ROWS  # a trace chunk went to the workers
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []

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
        assert "need more than 2000 samples to discard a 1000-sample burn-in" in capsys.readouterr().err
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
    def test_cli_matches_library_and_stages_match_each_other(self, config_path, tmp_path):
        out = tmp_path / "out"
        for command in ("design", "rd-curve", "verify"):
            assert main([command, "--config", config_path, "--out", str(out), "--quiet"]) == 0

        cfg = efq.load_config(config_path)
        p_base = efq.ct_frequency_map(cfg.plant_tf(), 1, cfg.grid())
        cells = json.loads((out / "design.json").read_text())["cells"]
        assert len(cells) == 4
        for cell in cells:
            nu = design.gamma_from_bits(cell["bits"], cfg.loading_factor) + 1.0
            expected = design.design_for_nu(p_base, nu, cell["lambda"])
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


# The report of scripts/simulation_check.py on one short lane, as its own
# hand-written quantizer set-up and loop printed it.
SIMULATION_CHECK_STDOUT = """\
cell: bits=8 lambda=1 order=4 loading=4.0
shaper taps: [1.0, -1.116942, 0.230829, -0.087225, 0.029458]
predicted MSE 6.111487e-07 (-62.139 dB), ideal 6.108487e-07 (-62.141 dB)
quantizer: step 3.137423e-02, saturation 4.000215e+00

 seed overloads  ovl_rate    empirical   ratio  identity      excised exc_ratio exc_frac
----------------------------------------------------------------------------------------
    0         2  1.00e-04 6.662605e-07  1.0902  3.89e-16 6.079637e-07    0.9948 6.89e-03

empirical/predicted ratio: mean 1.0902, 95% CI half-width nan, range [1.0902, 1.0902]
(excision window: 130 samples after each overload)
"""


class TestEntryPoints:
    def test_readme_example_runs(self):
        readme = (REPO / "README.md").read_text()
        block = readme.split("```python\n", 1)[1].split("```", 1)[0]
        proc = run_python(["-c", block])
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "command",
        [
            "scripts/fit_study.py --bits 2 --lambdas 1,2 --grid 1024",
            "scripts/simulation_check.py --bits 8 --length 20000 --seeds 0 --grid 1024 --excise",
        ],
        ids=["fit_study", "simulation_check"],
    )
    def test_script_runs(self, command):
        script, *args = command.split()
        proc = run_python([str(REPO / script), *args])
        assert proc.returncode == 0, proc.stderr

    def test_fit_study_losses_equal_efq_fit(self, tmp_path):
        """fit_study.py and ``efq fit`` score both methods alike, to the bit."""
        csv_path = tmp_path / "fit_study.csv"
        args = ["--bits", "2,3", "--lambdas", "1,2", "--grid", "1024", "--csv", str(csv_path)]
        proc = run_python([str(REPO / "scripts/fit_study.py"), *args])
        assert proc.returncode == 0, proc.stderr
        study = {(int(r["bits"]), int(r["lambda"])): r for r in csv.DictReader(csv_path.open())}
        assert len(study) == 4
        for method in ("qcqp", "yw"):
            config = tmp_path / f"{method}.json"
            config.write_text(json.dumps(dict(SMALL_CONFIG, n_points=1024, fit={"method": method, "order": 4})))
            out = tmp_path / method
            assert main(["fit", "--config", str(config), "--out", str(out), "--quiet"]) == 0
            for cell in json.loads((out / "fit.json").read_text())["cells"]:
                row = study[cell["bits"], cell["lambda"]]
                assert float(row[f"{method}_loss_db"]) == cell["loss_db"], (method, cell["bits"], cell["lambda"])

    def test_simulation_check_output_is_unchanged(self):
        """The script's lane set-up and loop run through ``loop_quantizer`` and
        ``run_lanes``; its report stays the one its hand-written loop printed."""
        command = "--bits 8 --length 20000 --seeds 0 --grid 1024 --excise"
        proc = run_python([str(REPO / "scripts/simulation_check.py"), *command.split()])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == SIMULATION_CHECK_STDOUT

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_lists_common_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        for flag in ("--config", "--out", "--seed", "--grid", "--quiet"):
            assert flag in usage, (command, flag)


# Runs design, rd-curve, and fit and verify with both fit methods, then prints
# the scipy modules loaded.
SCIPY_FREE_STAGES = """
import json, sys
import efq
from efq.cli import main

qcqp, yw, out = sys.argv[1:]
for argv in (
    ["design", "--config", qcqp],
    ["rd-curve", "--config", qcqp],
    ["fit", "--config", qcqp, "--design", out + "/design.json"],
    ["fit", "--config", yw],
    ["verify", "--config", qcqp],
    ["verify", "--config", yw],
):
    if main([*argv, "--out", out, "--quiet"]) != 0:
        sys.exit(f"efq {argv[0]} failed")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


class TestPublicSurface:
    def test_all_lists_every_public_name_but_modules(self):
        public = {name for name, value in vars(efq).items() if not name.startswith("_") and not inspect.ismodule(value)}
        assert len(efq.__all__) == len(set(efq.__all__))
        assert set(efq.__all__) == public


class TestStartup:
    def test_design_rd_curve_fit_and_verify_never_load_scipy(self, config_path, tmp_path):
        # A fresh process: this test session has imported scipy already.
        yw_path = tmp_path / "yw.json"
        yw_path.write_text(json.dumps(dict(SMALL_CONFIG, fit={"method": "yw", "order": 4})))
        proc = run_python(["-c", SCIPY_FREE_STAGES, config_path, str(yw_path), str(tmp_path / "out")])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []


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
        ],
    )
    def test_nested_config_error_names_its_path(self, tmp_path, capsys, section, key, value, message):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg[section][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["design", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

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
    def test_grid_below_minimum_rejected(self, config_path, tmp_path, capsys, command, grid):
        assert main([command, "--config", config_path, "--out", str(tmp_path), "--grid", grid, "--quiet"]) == 1
        assert f"n_points: must be an integer >= 64, got {grid}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, damage, named",
        [
            ("fit", set_field("alpha_opt", None), "'alpha_opt'"),
            ("fit", set_field("norm_r_sq", 0.5), "'norm_r_sq'"),
            ("fit", drop_field("alpha_opt"), "'alpha_opt'"),
            ("fit", lambda artifact: artifact["cells"], "not a JSON object"),
            ("simulate", drop_field("filter"), "'filter'"),
        ],
        ids=["null_alpha", "norm_below_one", "missing_alpha", "json_array", "missing_filter"],
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
