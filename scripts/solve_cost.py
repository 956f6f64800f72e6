#!/usr/bin/env python3
"""Integrals per design solve, by phase, which no stage prints yet.

No stage counts its own ``band_integral`` calls. ROADMAP.md item 3 gives the
stages counters of their own; this script goes then.

Runs ``efq rd-curve``, ``efq fit`` and ``efq verify`` on CONFIG in this
process with ``EFQ_THREADS=1`` (so no solve runs in a forked worker, where
an outside tracer cannot see it), counts the ``band_integral`` calls made
inside ``solve_min_mse`` and splits them by phase:

* flatness: ``is_almost_constant``, computed once per response and shared
  by every solve on it, and a flat plant's norm;
* newton: the Newton pass and the probes that find the sign certificates;
* bisection: the bracket expansion and the bisection replay;
* polish: the Newton polish and the final pass at the solved alpha.

Each row of a fused pass is one ``band_integral`` call, so it counts as one
integral. The last line also gives the process CPU time of the three stages.

Usage:
    PYTHONPATH=src python3 scripts/solve_cost.py CONFIG
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

PHASES = ("flatness", "newton", "bisection", "polish")
STAGES = ("rd-curve", "fit", "verify")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="efq JSON configuration file")
    args = parser.parse_args()
    os.environ["EFQ_THREADS"] = "1"

    from efq import design, spectral
    from efq.cli import main as efq_main

    counts = dict.fromkeys(PHASES, 0)
    state = {"phase": None, "solves": 0}

    def counting(inner):
        def band_integral(*a, **kw):
            if state["phase"] is not None:
                counts[state["phase"]] += 1
            return inner(*a, **kw)

        return band_integral

    def in_phase(inner, during, then):
        """``inner``, its integrals counted as `during` when it runs inside a
        solve, and the solve's later ones as `then`."""

        def wrapped(*a, **kw):
            inside = state["phase"] is not None
            if inside:
                state["phase"] = during
            try:
                return inner(*a, **kw)
            finally:
                if inside:
                    state["phase"] = then

        return wrapped

    def solving(inner):
        def solve_min_mse(p, gamma):
            state["solves"] += 1
            state["phase"] = "flatness"
            try:
                return inner(p, gamma)
            finally:
                state["phase"] = None

        return solve_min_mse

    spectral.band_integral = counting(spectral.band_integral)
    design._certificates = in_phase(design._certificates, "newton", "bisection")
    design._bisect = in_phase(design._bisect, "bisection", "polish")
    design.solve_min_mse = solving(design.solve_min_mse)

    cpu = time.process_time()
    with tempfile.TemporaryDirectory() as out:
        for stage in STAGES:
            code = efq_main([stage, "--config", args.config, "--out", out, "--quiet"])
            if code != 0:
                return code
    cpu = time.process_time() - cpu

    solves = state["solves"]
    print(f"{solves} solves in {', '.join(STAGES)} at EFQ_THREADS=1")
    print(f"{'phase':<10} {'integrals':>9} {'per solve':>9}")
    for phase in PHASES:
        print(f"{phase:<10} {counts[phase]:>9} {counts[phase] / solves:>9.2f}")
    total = sum(counts.values())
    print(f"{'total':<10} {total:>9} {total / solves:>9.2f}")
    print(f"cpu_s {cpu:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
