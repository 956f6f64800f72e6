#!/usr/bin/env python3
"""Time-domain validation of the analytic output-MSE prediction.

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
seed-dependent amount. Pass --excise to also report the granular MSE from
``efq.simulate.excised_mse``, with a window of 10 filter memories removed
after each overload, and the fraction of samples removed. Excision filters
the error through ``discretize_plant``'s rational plant, which passes the
band above pi/lambda, so its ratio compares with the prediction at lambda 1
only, and --excise with --lam 2 or more is a usage error.

Each seed runs once, whole: its traces give the loop identity residual and
the excised MSE, and ``summarize_run`` scores them with the same bits as the
chunked pass of ``efq simulate``.

Usage:
    python3 scripts/simulation_check.py [--bits 8] [--lam 1] [--order 4]
        [--length 1000000] [--seeds 0,1,2,3,4] [--loading 4.0] [--excise]
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from efq import (
    FrequencyGrid,
    SignalModel,
    as_discrete_tf,
    ct_frequency_map,
    db,
    default_config,
    design_for_nu,
    discretize_plant,
    fit_cell,
    gamma_from_bits,
    gen_input,
    loop_identity_residual,
    loop_quantizer,
    oversample_response,
    run_feedback_loop,
    summarize_run,
)
from efq.simulate import WELCH_GRID, excised_mse, filter_memory_estimate, t_quantile_975


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bits", type=int, default=8)
    ap.add_argument("--lam", type=int, default=1, help="oversampling factor")
    ap.add_argument("--order", type=int, default=4, help="FIR shaper order")
    ap.add_argument("--length", type=int, default=1_000_000)
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--loading", type=float, default=4.0)
    ap.add_argument("--grid", type=int, default=8192)
    ap.add_argument("--excise", action="store_true", help="also report MSE with post-overload windows removed")
    args = ap.parse_args()
    if args.excise and args.lam >= 2:
        ap.error("--excise compares a full-band MSE with the in-band prediction at --lam 2 or more; use --lam 1")

    cfg = default_config()
    grid = FrequencyGrid(args.grid)
    plant = cfg.plant_tf()
    p_base = ct_frequency_map(plant, 1, grid)
    p_lam = oversample_response(p_base, args.lam)

    gamma = gamma_from_bits(args.bits, args.loading)
    design = design_for_nu(p_base, gamma + 1.0, args.lam)
    fit = fit_cell("qcqp", args.order, p_lam, gamma, design.alpha_opt, design.norm_r_sq)
    shaper = as_discrete_tf(fit.fitted)

    score, _, _, quant = loop_quantizer(shaper, p_lam, args.bits, args.loading)
    plant_map = ct_frequency_map(plant, args.lam, WELCH_GRID)
    period = plant.sample_period / args.lam
    if args.excise:
        plant_d = discretize_plant(plant, args.lam)
        window = 10 * filter_memory_estimate(plant_d)

    print(f"cell: bits={args.bits} lambda={args.lam} order={args.order} loading={args.loading}")
    print(f"shaper taps: {[round(c, 6) for c in shaper.num]}")
    print(f"predicted MSE {score.achieved_mse:.6e} ({db(score.achieved_mse):.3f} dB), "
          f"ideal {design.distortion:.6e} ({db(design.distortion):.3f} dB)")
    print(f"quantizer: step {quant.step:.6e}, saturation {quant.saturation:.6e}\n")

    cols = f"{'seed':>5} {'overloads':>9} {'ovl_rate':>9} {'empirical':>12} {'ratio':>7} {'identity':>9}"
    if args.excise:
        cols += f" {'excised':>12} {'exc_ratio':>9} {'exc_frac':>8}"
    print(cols)
    print("-" * len(cols))

    ratios = []
    for seed in (int(s) for s in args.seeds.split(",")):
        model = SignalModel(kind="colored", seed=seed, length=args.length)
        traces = run_feedback_loop(gen_input(model, period), shaper, quant)
        result = summarize_run(traces, plant_map, score.achieved_mse)
        resid = loop_identity_residual(traces, shaper)
        ratio = result.empirical_mse / result.predicted_mse
        ratios.append(ratio)
        line = (f"{seed:>5} {result.overload_count:>9} {result.overload_rate:>9.2e} "
                f"{result.empirical_mse:>12.6e} {ratio:>7.4f} {resid:>9.2e}")
        if args.excise:
            exc, frac = excised_mse(traces, plant_d, window)
            line += f" {exc:>12.6e} {exc / result.predicted_mse:>9.4f} {frac:>8.2e}"
        print(line)

    arr = np.array(ratios)
    half = t_quantile_975(len(arr) - 1) * arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else float("nan")
    print(f"\nempirical/predicted ratio: mean {arr.mean():.4f}, "
          f"95% CI half-width {half:.4f}, range [{arr.min():.4f}, {arr.max():.4f}]")
    if args.excise:
        print(f"(excision window: {window} samples after each overload)")


if __name__ == "__main__":
    main()
