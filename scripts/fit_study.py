#!/usr/bin/env python3
"""Realizability loss of finite-order shaping filters across the design grid.

For every (bits, oversampling) cell the ideal shaping filter has an
irrational magnitude response; this study measures how much output MSE a
finite-order approximation gives up, in dB over the ideal, for both
synthesis routes:

  qcqp  order-n FIR solved as a norm-constrained least-squares problem
        (exact minimizer of the true MSE objective within the FIR class)
  yw    order-(n,n) IIR fitted to the ideal magnitude by autocorrelation
        matching (Yule-Walker), then scored on the same objective

Both routes run through ``efq.fit_cell``, the function ``efq fit`` calls,
and are scored against the design's optimal MSE alpha, so the CSV losses
equal ``fit.json``'s ``loss_db``. Cells where the loss exceeds a
method-specific budget (0.5 dB for qcqp, 2 dB for yw by default) are
flagged in the rightmost column.

Usage:
    python3 scripts/fit_study.py [--order 4] [--bits 1..8] [--lambdas 1,2,3,4]
                                 [--grid 8192] [--csv out.csv]
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

from efq import (
    FrequencyGrid,
    ct_frequency_map,
    default_config,
    fit_cell,
    gamma_from_bits,
    oversample_response,
    solve_min_mse,
)


def _expand(text: str) -> list[int]:
    """Parse '1..4' ranges and comma lists like '1,2,4..6'."""
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if ".." in tok:
            lo, hi = tok.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif tok:
            out.append(int(tok))
    return out


def loss_pair(p_base, bits: int, lam: int, order: int, loading: float) -> tuple[float, float]:
    """(qcqp_loss_db, yw_loss_db) for one cell."""
    gamma = gamma_from_bits(bits, loading)
    p_lam = oversample_response(p_base, lam)
    design = solve_min_mse(p_lam, gamma)
    qcqp, yw = (fit_cell(m, order, p_lam, gamma, design.alpha_opt, design.norm_r_sq) for m in ("qcqp", "yw"))
    return qcqp.loss_db, yw.loss_db


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--order", type=int, default=4, help="approximation order")
    ap.add_argument("--bits", default="1..8", help="comma list or a..b range of bit widths")
    ap.add_argument("--lambdas", default="1,2,3,4", help="comma list of oversampling factors")
    ap.add_argument("--loading", type=float, default=4.0, help="quantizer loading factor")
    ap.add_argument("--grid", type=int, default=8192, help="frequency grid points on [0, pi]")
    ap.add_argument("--qcqp-budget", type=float, default=0.5, help="flag qcqp losses above this (dB)")
    ap.add_argument("--yw-budget", type=float, default=2.0, help="flag yw losses above this (dB)")
    ap.add_argument("--csv", type=Path, default=None, help="optional CSV output path")
    args = ap.parse_args()

    cfg = default_config()
    grid = FrequencyGrid(args.grid)
    p_base = ct_frequency_map(cfg.plant_tf(), 1, grid)

    rows = []
    header = f"{'bits':>4} {'lam':>3} {'qcqp_loss_dB':>13} {'yw_loss_dB':>11}  flags"
    print(header)
    print("-" * len(header))
    n_flagged = 0
    for bits in _expand(args.bits):
        for lam in _expand(args.lambdas):
            q_loss, y_loss = loss_pair(p_base, bits, lam, args.order, args.loading)
            flags = []
            if q_loss > args.qcqp_budget:
                flags.append("qcqp>budget")
            if y_loss > args.yw_budget:
                flags.append("yw>budget")
            n_flagged += bool(flags)
            rows.append((bits, lam, q_loss, y_loss, ";".join(flags)))
            print(f"{bits:>4} {lam:>3} {q_loss:>13.4f} {y_loss:>11.4f}  {';'.join(flags)}")

    total = len(rows)
    print(f"\n{n_flagged}/{total} cells exceed at least one loss budget "
          f"(qcqp > {args.qcqp_budget} dB or yw > {args.yw_budget} dB) at order {args.order}.")
    worst_q = max(rows, key=lambda r: r[2])
    worst_y = max(rows, key=lambda r: r[3])
    print(f"worst qcqp cell: bits={worst_q[0]} lambda={worst_q[1]} loss {worst_q[2]:.3f} dB")
    print(f"worst yw   cell: bits={worst_y[0]} lambda={worst_y[1]} loss {worst_y[3]:.3f} dB")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["bits", "lambda", "qcqp_loss_db", "yw_loss_db", "flags"])
            for bits, lam, q_loss, y_loss, flags in rows:
                w.writerow([bits, lam, repr(q_loss), repr(y_loss), flags])
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
