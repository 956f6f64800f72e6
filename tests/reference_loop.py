"""Reference loop: the plain form of efq's scalar error-feedback loop.

The whole input becomes one list of Python floats and u is collected in a
second list of the same length, which costs about 64 bytes a sample. efq
steps the lane in fixed-size chunks and writes u into a float64 array;
tests require it to reproduce this module bit for bit, failures included.
"""

from __future__ import annotations

import math

import numpy as np

from efq.simulate import LoopTraces, MidRiseQuantizer, _feedback_coefficients, loop_traces


def run_feedback_loop(x: np.ndarray, r, q: MidRiseQuantizer) -> LoopTraces:
    """The error-feedback loop, sample by sample, with R[z] - 1 in
    transposed direct form II."""
    f, den = _feedback_coefficients(r)
    m = len(f) - 1

    x_arr = np.ascontiguousarray(np.asarray(x, dtype=float))
    xs = x_arr.tolist()
    n = len(xs)
    u_out = [0.0] * n

    d = q.step
    sat = q.saturation
    floor = math.floor
    state = [0.0] * (m + 2)  # state[1..m] live, state[m+1] stays zero

    for k in range(n):
        y = state[1]
        u = xs[k] + y
        level = (floor(u / d) + 0.5) * d
        if level > sat:
            level = sat
        elif level < -sat:
            level = -sat
        w = level - u
        for i in range(1, m):
            state[i] = f[i] * w - den[i] * y + state[i + 1]
        if m >= 1:
            state[m] = f[m] * w - den[m] * y
        u_out[k] = u

    return loop_traces(x_arr, np.array(u_out), q)
