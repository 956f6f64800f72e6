"""efq benchmark: wall time of each CLI stage on one workload.

Run from the root of an efq source checkout::

    python3 perfbench/run.py --workload default --seed 0 --seconds 10 --trace 0

Each stage runs as a fresh ``efq`` process (import included, tracing off,
``EFQ_THREADS`` unset), one at a time, and its artifacts are checked. Passes
over the workload's stages repeat until ``--seconds`` have elapsed, at least
once; stage times are medians over passes. ``--trace 1`` adds one traced pass
(see tracer.py) and reports per-layer metrics instead of end-to-end ones.

Working files go to ``.perfbench/<workload>/`` in the checkout. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from checks import Expected, artifact_digests, check_stage
from tracer import layer_metrics, scipy_signal_import_s
from workloads import BUILTIN_SIM_LENGTH, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_FILE = BENCH_DIR / "digests.json"
TIME_LIMIT_S = 170.0  # every stage must end by then; the run must end within 180 s
SETUP_REPEATS = 3
# The end-to-end metrics every workload has; the per-stage times are printed
# and kept in report.json.
RESULT_METRICS = ("setup_s", "pipeline_s", "peak_rss_mb")
SETUP_SNIPPET = """
import json, sys
import efq, numpy, scipy
cfg = efq.load_config(sys.argv[1])
efq.validate_config(cfg)
print(json.dumps({"config_sha256": efq.config_hash(cfg), "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""
CLI_SNIPPET = "import sys; from efq.cli import main; sys.exit(main())"


class Runner:
    """Runs child processes one at a time under a shared deadline."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("EFQ_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

    def run(self, cmd: list[str], log_name: str) -> dict:
        """Wall time, peak RSS and exit code of one process; the exit code is
        None when it was killed at the deadline or never started."""
        stdout, stderr = self.work / f"{log_name}.out", self.work / f"{log_name}.err"
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            return {"returncode": None, "wall_s": 0.0, "peak_rss_mb": 0.0, "stdout": stdout, "stderr": stderr}
        with stdout.open("w") as out, stderr.open("w") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *cmd], cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = perf_counter() >= self.deadline and proc.returncode < 0
        return {
            "returncode": None if timed_out else proc.returncode,
            "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
            "stdout": stdout,
            "stderr": stderr,
        }


def run_pass(runner: Runner, workload, config_path: Path, exp: Expected, label: str, traced: bool) -> list[dict]:
    out = runner.work / label
    out.mkdir()
    results = []
    for stage in workload.stages:
        argv = stage.argv(str(config_path), str(out))
        if traced:
            spans = out / f"{stage.name}.spans.json"
            cmd = ["-X", "importtime", str(BENCH_DIR / "tracer.py"), str(spans), *argv]
        else:
            cmd = ["-c", CLI_SNIPPET, *argv]
        res = runner.run(cmd, f"{label}.{stage.name}")
        res["stage"] = stage.name
        res["problems"], res["findings"] = check_stage(stage.command, stage.flags, res["returncode"], out, exp)
        if traced and spans.is_file():
            res["trace"] = json.loads(spans.read_text())
            res["trace"]["import_scipy_signal_s"] = scipy_signal_import_s(res["stderr"].read_text())
        results.append(res)
    return results


def digest_report(digests: dict[str, str], config_sha256: str) -> dict[str, str]:
    """Per artifact: "match", "differs" or "no reference" against the digests
    recorded for this config when the benchmark was written."""
    recorded = json.loads(DIGESTS_FILE.read_text()).get(config_sha256, {}) if DIGESTS_FILE.is_file() else {}
    return {
        name: "no reference" if name not in recorded else "match" if recorded[name] == digest else "differs"
        for name, digest in digests.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "efq" / "__init__.py").is_file():
        print(f"error: {root} is not an efq source checkout (no src/efq)", file=sys.stderr)
        return 2
    start = perf_counter()
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = workload.config(args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2) + "\n")
    runner = Runner(root, work, start + TIME_LIMIT_S)

    # Warm-up: compiles .pyc files, fills the page cache and records provenance.
    setup_cmd = ["-c", SETUP_SNIPPET, str(config_path)]
    warm = runner.run(setup_cmd, "warmup")
    if warm["returncode"] != 0:
        print(f"error: loading the workload config failed:\n{warm['stderr'].read_text()}", file=sys.stderr)
        return 1
    provenance = json.loads(warm["stdout"].read_text())
    provenance.update(nproc=os.cpu_count(), python=sys.version.split()[0])
    exp = Expected.from_config(cfg, provenance["config_sha256"])

    setup = [runner.run(setup_cmd, f"setup{i}") for i in range(SETUP_REPEATS)] if not args.trace else []
    if any(r["returncode"] != 0 for r in setup):
        print("error: a timed set-up run failed", file=sys.stderr)
        return 1
    passes = []
    measure_start = perf_counter()
    while not passes or perf_counter() - measure_start < args.seconds:
        passes.append(run_pass(runner, workload, config_path, exp, f"pass{len(passes)}", traced=False))
    traced = run_pass(runner, workload, config_path, exp, "traced", traced=True) if args.trace else []

    runs = [r for p in passes for r in p] + traced
    failed = [r for r in runs if r["problems"]]
    stage_s = {s.name: statistics.median(p[i]["wall_s"] for p in passes) for i, s in enumerate(workload.stages)}
    pipeline_s = statistics.median(sum(r["wall_s"] for r in p) for p in passes)
    end_to_end = {f"{name}_s": (value, "s") for name, value in stage_s.items()}
    end_to_end["pipeline_s"] = (pipeline_s, "s")
    end_to_end["peak_rss_mb"] = (max(r["peak_rss_mb"] for p in passes for r in p), "MB")
    if setup:
        end_to_end["setup_s"] = (statistics.median(r["wall_s"] for r in setup), "s")
    end_to_end["error_rate"] = (len(failed) / len(runs), "ratio")

    length = cfg["sim"]["length"]
    print(f"efq benchmark: workload {workload.name}, seed {args.seed}, sim seeds {cfg['sim']['seeds']}")
    if length != BUILTIN_SIM_LENGTH and any(s.command == "simulate" for s in workload.stages):
        print(f"note: sim.length shortened from {BUILTIN_SIM_LENGTH} to {length}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in sorted(provenance.items())))
    print(f"passes: {len(passes)}; setup runs: {len(setup)}; stage runs attempted {len(runs)}, failed {len(failed)}")
    for r in runs:
        for problem in r["problems"]:
            print(f"FAILED {r['stage']}: {problem}")
        for finding in r["findings"]:
            print(f"finding {r['stage']}: {finding}")
    digests = artifact_digests(runner.work / "pass0")
    digest_match = digest_report(digests, exp.config_sha256)
    print("artifact digests vs recorded: " + ", ".join(f"{k} {v}" for k, v in digest_match.items()))
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<24} {value:.6g} {unit}")

    if args.trace:
        spans = [r["trace"] for r in traced if "trace" in r]
        overhead = sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in passes[0])
        metrics = layer_metrics(spans, overhead) if len(spans) == len(traced) else {}
        unwrapped = sorted({n for s in spans for n in s["unwrapped"]})
        if unwrapped:
            print("note: layers not found, reported as zero: " + ", ".join(unwrapped))
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:.6g} {unit}")
    else:
        metrics = {k: end_to_end[k] for k in RESULT_METRICS}

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "provenance": provenance,
        "digests": digests,
        "digest_match": digest_match,
        "end_to_end": end_to_end,
        "per_layer": metrics if args.trace else {},
        "runs": [
            {k: (str(v) if isinstance(v, Path) else v) for k, v in r.items() if k != "trace"} for r in runs
        ],
    }
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
