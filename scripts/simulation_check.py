#!/usr/bin/env python3
"""A lane's granular ratio and loop-identity residual, which no stage prints yet.

``efq simulate`` writes each run's raw empirical MSE. The granular reading
(``efq.granular_mse``) and the residual of the loop identity v - x = R*w are
printed only here. ROADMAP.md item 1 puts the granular reading into
``simulate.json``; this script goes then.

Designs a norm-constrained FIR shaping filter for one (bits, oversampling)
cell, runs the quantized feedback loop on long Gaussian inputs, and
compares the measured output MSE against the closed-form prediction.

Each run is scored as ``efq simulate`` scores it: ``RunStats``' Welch
spectrum of v - x weighted by the design's plant map |P(j lambda omega/T)|^2
on the Welch bins, zero above pi/lambda, against ``loop_quantizer``'s score
of the shaper on that map, which is the MSE ``efq fit`` reports.

The prediction assumes the quantizer never overloads. At the default
loading factor of 4 a Gaussian loop signal clips 56-88 times per million
samples; each clip injects a burst whose filtered energy is far above the
granular noise floor, so long runs drift above the prediction by a
seed-dependent amount. So each run also reports its granular MSE,
``efq.granular_mse``: the same score of the error with each overload
error's excess over half a step taken out through the shaper, on the same
plant map, at every lambda.

Each seed runs once, whole: its traces give the loop identity residual and
the granular MSE, and ``summarize_run`` scores them with the same bits as the
chunked pass of ``efq simulate``.

Usage:
    python3 scripts/simulation_check.py [--bits 8] [--lam 1] [--order 4]
        [--length 1000000] [--seeds 0,1,2,3,4] [--loading 4.0]
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from efq import (
    FrequencyGrid,
    SignalModel,
    ct_frequency_map,
    db,
    default_config,
    fit_cell,
    gamma_from_bits,
    gen_input,
    granular_mse,
    loop_identity_residual,
    loop_quantizer,
    oversample_response,
    run_feedback_loop,
    solve_min_mse,
    summarize_run,
)
from efq.simulate import WELCH_GRID, t_quantile_975


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bits", type=int, default=8)
    ap.add_argument("--lam", type=int, default=1, help="oversampling factor")
    ap.add_argument("--order", type=int, default=4, help="FIR shaper order")
    ap.add_argument("--length", type=int, default=1_000_000)
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--loading", type=float, default=4.0)
    ap.add_argument("--grid", type=int, default=8192)
    args = ap.parse_args()

    cfg = default_config()
    grid = FrequencyGrid(args.grid)
    plant = cfg.plant_tf()
    p_base = ct_frequency_map(plant, 1, grid)
    p_lam = oversample_response(p_base, args.lam)

    gamma = gamma_from_bits(args.bits, args.loading)
    design = solve_min_mse(p_lam, gamma)
    shaper = fit_cell("qcqp", args.order, p_lam, gamma, design.alpha_opt, design.norm_r_sq).fitted

    score, _, _, quant = loop_quantizer(shaper, p_lam, args.bits, args.loading)
    plant_map = ct_frequency_map(plant, args.lam, WELCH_GRID)
    period = plant.sample_period / args.lam

    print(f"cell: bits={args.bits} lambda={args.lam} order={args.order} loading={args.loading}")
    print(f"shaper taps: {[round(c, 6) for c in shaper.num]}")
    print(f"predicted MSE {score.achieved_mse:.6e} ({db(score.achieved_mse):.3f} dB), "
          f"ideal {design.distortion:.6e} ({db(design.distortion):.3f} dB)")
    print(f"quantizer: step {quant.step:.6e}, saturation {quant.saturation:.6e}\n")

    cols = (f"{'seed':>5} {'overloads':>9} {'ovl_rate':>9} {'empirical':>12} {'ratio':>7} {'identity':>9} "
            f"{'granular':>12} {'gran_ratio':>10}")
    print(cols)
    print("-" * len(cols))

    ratios = {"empirical": [], "granular": []}
    for seed in (int(s) for s in args.seeds.split(",")):
        model = SignalModel(kind="colored", seed=seed, length=args.length)
        traces = run_feedback_loop(gen_input(model, period), shaper, quant)
        result = summarize_run(traces, plant_map, score.achieved_mse)
        granular = granular_mse(traces, shaper, quant, plant_map)
        resid = loop_identity_residual(traces, shaper)
        ratio, gran_ratio = result.empirical_mse / result.predicted_mse, granular / result.predicted_mse
        ratios["empirical"].append(ratio)
        ratios["granular"].append(gran_ratio)
        print(f"{seed:>5} {result.overload_count:>9} {result.overload_rate:>9.2e} "
              f"{result.empirical_mse:>12.6e} {ratio:>7.4f} {resid:>9.2e} {granular:>12.6e} {gran_ratio:>10.4f}")

    print()
    for name, values in ratios.items():
        arr = np.array(values)
        half = t_quantile_975(len(arr) - 1) * arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else float("nan")
        print(f"{name}/predicted ratio: mean {arr.mean():.4f}, "
              f"95% CI half-width {half:.4f}, range [{arr.min():.4f}, {arr.max():.4f}]")


if __name__ == "__main__":
    main()
