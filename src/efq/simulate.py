"""Time-domain validation of the shaped quantizer loop.

The loop under test: a mid-rise quantizer whose input is the signal plus
its own past quantization errors filtered through R[z] - 1 (strictly
causal because R has unity head). Per sample,

    u_k = x_k + (R[z]-1) w | past,   v_k = Q(u_k),   w_k = v_k - u_k,

so the quantized output satisfies v = x + R[z] w identically, and the final
output error after the plant is P[z](v - x) = P[z] R[z] w. This module
generates test inputs with prescribed second-order statistics, runs the
loop sample by sample (one lane at a time, or many independent lanes
stepped together), and compares measured error power against the analytic
prediction.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
# scipy is imported inside the functions that call it: loading scipy.signal
# and scipy.optimize takes longer than all of design, rd-curve, fit or verify,
# which never call them. The lane pass (``_InputDraw.__call__``, ``RunStats``)
# and ``excised_mse`` keep scipy.signal.lfilter, whose batched C loop a long
# run needs; ``gen_input`` and ``loop_identity_residual`` take its
# scipy-free equal, ``linear_filter``.

from .design import QuantizerSpec, gamma_from_bits
from .errors import NumericalError
from .fitting import FIRFilter, FitReport, as_discrete_tf, evaluate_fit, yule_walker_fit
from .spectral import AmplitudeResponse, FrequencyGrid, ct_frequency_map
from .transfer import ContinuousTF, RationalDiscreteTF, linear_filter

HEAD_TOL = 1e-12

# discretize_plant: grid of the Yule-Walker start, and the log-spaced
# frequencies of the log-magnitude polish.
START_GRID_POINTS = 1024
FIT_POINTS = 400
FIT_LOW = 1e-3
# Plant zeros with |real part| below this (relative) count as on the j*omega
# axis, where the log-magnitude is unbounded.
AXIS_TOL = 1e-9

# Run statistics are defined over BLOCK-sample blocks aligned to the start of
# a run and merged in block order; run_lanes advances its lanes one block at a
# time, and run_feedback_loop steps through x one block at a time. A run's
# w_autocorr holds the autocorrelation of w at lags 1..MAX_LAG.
BLOCK = 1 << 13
MAX_LAG = 20
# run_lanes: a lane group's chunk buffer holds at most LANE_BUFFER_SAMPLES
# lane-samples (16 MiB), so a group has at most LANE_BUFFER_SAMPLES // BLOCK
# lanes; with fewer than MIN_BATCH_LANES lanes the per-step numpy overhead
# outweighs the batching and the scalar loop runs.
LANE_BUFFER_SAMPLES = 1 << 21
MIN_BATCH_LANES = 16


@dataclass(frozen=True)
class MidRiseQuantizer:
    """Uniform mid-rise quantizer: outputs odd multiples of step/2, saturating
    at +-saturation; inputs beyond saturation + step/2 count as overloads."""

    step: float
    saturation: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.saturation <= 0:
            raise ValueError("saturation must be positive")
        # The clip value must itself be an output level (odd multiple of
        # step/2), otherwise saturated samples fall off the lattice.
        ratio = self.saturation / (self.step / 2.0)
        nearest_odd = 2.0 * round((ratio - 1.0) / 2.0) + 1.0
        if not math.isclose(ratio, nearest_odd, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(
                f"saturation must be an odd multiple of step/2, got ratio {ratio!r}"
            )

    @classmethod
    def from_spec(cls, spec: QuantizerSpec) -> "MidRiseQuantizer":
        return cls(step=spec.step, saturation=spec.saturation)


def quantize_midrise(xi: float, q: MidRiseQuantizer) -> tuple[float, bool]:
    """Quantize one sample; returns (level, overloaded)."""
    d = q.step
    level = (math.floor(xi / d) + 0.5) * d
    if level > q.saturation:
        return q.saturation, xi > q.saturation + 0.5 * d
    if level < -q.saturation:
        return -q.saturation, xi < -(q.saturation + 0.5 * d)
    return level, False


def quantize_array(u: np.ndarray, q: MidRiseQuantizer) -> tuple[np.ndarray, np.ndarray]:
    """``quantize_midrise`` of every sample of u: (levels, overload flags),
    bit for bit."""
    d, sat = q.step, q.saturation
    level = (np.floor(u / d) + 0.5) * d
    overload = ((level > sat) & (u > sat + 0.5 * d)) | ((level < -sat) & (u < -(sat + 0.5 * d)))
    return np.clip(level, -sat, sat), overload


@dataclass(frozen=True)
class SignalModel:
    """Test-input description: colored (first-order analog spectrum sampled
    at the loop rate) or white, unit variance, seeded."""

    kind: str
    seed: int
    length: int
    ct_pole: float = 2.62

    def __post_init__(self):
        if self.kind not in ("colored", "white"):
            raise ValueError(f"kind must be 'colored' or 'white', got {self.kind!r}")
        if self.length < 1:
            raise ValueError("length must be positive")
        if self.ct_pole <= 0:
            raise ValueError("ct_pole must be positive")


@dataclass(frozen=True)
class LoopTraces:
    """Raw per-sample records of one feedback-loop run."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    overload: np.ndarray


def loop_traces(x: np.ndarray, u: np.ndarray, q: MidRiseQuantizer) -> LoopTraces:
    """Traces of a loop run from its input x and quantizer inputs u: v, w
    and the overload flags are elementwise functions of u."""
    v, overload = quantize_array(u, q)
    return LoopTraces(x=x, u=u, v=v, w=v - u, overload=overload)


@dataclass(frozen=True)
class Lane:
    """One loop run: a seeded input at a sample period, a shaper and a
    quantizer, scored through a discrete plant against a predicted MSE.
    `name` opens the message of a failure."""

    model: SignalModel
    sample_period: float
    shaper: RationalDiscreteTF | FIRFilter
    quantizer: MidRiseQuantizer
    plant: RationalDiscreteTF
    predicted_mse: float
    name: str = "lane"


@dataclass(frozen=True)
class SimulationResult:
    """Summary statistics of one loop run against its analytic prediction."""

    empirical_mse: float
    predicted_mse: float
    overload_count: int
    overload_rate: float
    w_variance: float
    w_autocorr: tuple[float, ...]
    sigma_u_sq: float


class _InputDraw:
    """Draws of a model's input before rescaling: each call returns the next
    `count` samples. One rng stream and, for colored input, one lfilter
    state carry across calls, so the samples do not depend on how the draws
    are split."""

    def __init__(self, model: SignalModel, sample_period: float):
        self.rng = np.random.default_rng(model.seed)
        self.colored = model.kind == "colored"
        if self.colored:
            if sample_period <= 0:
                raise ValueError("sample_period must be positive")
            self.pole = math.exp(-model.ct_pole * sample_period)
            self.zi = np.array([self.pole * self.rng.standard_normal()])
            self.scale = math.sqrt(1.0 - self.pole * self.pole)

    def __call__(self, count: int) -> np.ndarray:
        x = self.rng.standard_normal(count)
        if self.colored:
            from scipy import signal

            x, self.zi = signal.lfilter([self.scale], [1.0, -self.pole], x, zi=self.zi)
        return x


def _unit_scale(x: np.ndarray) -> float:
    """1/std of an input sequence."""
    sd = float(np.std(x))
    if sd == 0.0:
        raise ValueError("degenerate input sequence (zero variance)")
    return 1.0 / sd


def gen_input(model: SignalModel, sample_period: float) -> np.ndarray:
    """The model's seeded Gaussian input, rescaled to exact unit sample
    variance: white, or first-order autoregressive with pole
    exp(-ct_pole*T) started at stationarity: ``_InputDraw``'s draw, filtered
    by ``linear_filter``."""
    draw = _InputDraw(model, sample_period)
    x = draw.rng.standard_normal(model.length)
    if draw.colored:
        x, _ = linear_filter([draw.scale], [1.0, -draw.pole], x, zi=draw.zi)
    return x * _unit_scale(x)


def _reflect_inside(coeffs: np.ndarray) -> np.ndarray:
    """Polynomial in z^-1 (ascending delay) with every root outside the unit
    circle moved to its conjugate reciprocal. The magnitude response keeps
    its shape; only its scale changes."""
    roots = np.roots(coeffs)
    outside = np.abs(roots) > 1.0
    if not np.any(outside):
        return coeffs
    roots[outside] = 1.0 / np.conj(roots[outside])
    return coeffs[0] * np.real(np.poly(roots))


def discretize_plant(plant: ContinuousTF, oversampling: int = 1) -> RationalDiscreteTF:
    """Magnitude-matched discretization at period sample_period/oversampling.

    Returns a stable rational filter of the plant's order whose magnitude
    follows the exact frequency map |P(j*omega/T_s)|, T_s = T/oversampling,
    over the whole digital band [0, pi]: the map the design scores filters
    on. The start is ``yule_walker_fit`` of that magnitude; a
    Levenberg-Marquardt fit of log-magnitude over FIT_POINTS log-spaced
    frequencies in [FIT_LOW, pi] then polishes it, any root outside the unit
    circle is reflected inside, and the numerator is rescaled so the DC gain
    equals P(0) exactly. On the benchmark plant the magnitude error is below
    0.1 % up to pi/2 and below 1.3 % over the full band for oversampling 1-4.
    The band limit at pi/oversampling that ``ct_frequency_map`` applies to
    design spectra has no rational counterpart and is not imitated.
    """
    from scipy import optimize

    if oversampling < 1 or int(oversampling) != oversampling:
        raise ValueError("oversampling factor must be a positive integer")
    zeros = np.roots(plant.num)
    if np.any(np.abs(zeros.real) <= AXIS_TOL * np.maximum(np.abs(zeros), 1.0)):
        raise ValueError("cannot match the log-magnitude of a plant with a zero on the imaginary axis")
    t = plant.sample_period / oversampling
    fast = ContinuousTF(plant.num, plant.den, t)
    dc = float(np.real(plant.eval(0.0)))
    n = len(plant.den) - 1
    if n == 0:
        return RationalDiscreteTF([dc])

    start = yule_walker_fit(ct_frequency_map(fast, 1, FrequencyGrid(START_GRID_POINTS)), n)
    omegas = np.geomspace(FIT_LOW, math.pi, FIT_POINTS)
    target = np.log(np.abs(fast.eval(1j * omegas / t)))
    basis = np.exp(-1j * np.outer(omegas, np.arange(n + 1)))  # z^-k on the fit grid

    def split(params):  # free numerator b0..bn, monic denominator
        return params[: n + 1], np.concatenate([[1.0], params[n + 1 :]])

    def residual(params):
        b, a = split(params)
        return np.log(np.abs(basis @ b)) - np.log(np.abs(basis @ a)) - target

    def jacobian(params):
        # d ln|B| / d b_k = Re(z^-k / B), likewise for A with the sign flipped.
        b, a = split(params)
        return np.hstack([(basis / (basis @ b)[:, None]).real, -(basis[:, 1:] / (basis @ a)[:, None]).real])

    num0 = np.zeros(n + 1)
    num0[: len(start.num)] = start.num
    den0 = np.zeros(n + 1)
    den0[: len(start.den)] = start.den
    fit = optimize.least_squares(residual, np.concatenate([num0, den0[1:]]), jac=jacobian, method="lm")
    num, den = (_reflect_inside(c) for c in split(fit.x))
    return RationalDiscreteTF(num * (dc * den.sum() / num.sum()), den)


def _feedback_coefficients(r: RationalDiscreteTF | FIRFilter) -> tuple[list[float], list[float]]:
    """(R - 1, denominator) of a unity-head shaper, ascending delay, both
    padded to order + 1 taps; the first tap of R - 1 is zero."""
    tf = as_discrete_tf(r)
    m = tf.order
    num = list(tf.num) + [0.0] * (m + 1 - len(tf.num))
    den = list(tf.den) + [0.0] * (m + 1 - len(tf.den))
    if abs(num[0] - 1.0) > HEAD_TOL:
        raise ValueError(f"feedback filter must have unity head, got {num[0]!r}")
    return [num[i] - den[i] for i in range(m + 1)], den


def run_feedback_loop(
    x: np.ndarray, r: RationalDiscreteTF | FIRFilter, q: MidRiseQuantizer, state: np.ndarray | None = None
) -> LoopTraces:
    """Run the error-feedback loop sample by sample.

    The feedback filter R[z] - 1 is realized in transposed direct form II;
    its state update consumes only past errors (R's unity head makes the
    difference strictly causal), enforced structurally: the current output
    depends only on stored state. The lane steps through x in BLOCK-sample
    chunks: each chunk becomes a list of Python floats and its u values are
    copied into one float64 array, so Python objects are held for one chunk,
    not for the whole lane. Only u is recorded; ``loop_traces`` rebuilds the
    rest. The loop stops with NumericalError at the first sample whose u/step
    is not finite.

    The loop starts at rest, or from `state`: a float array whose first
    `order` entries hold the TDF-II registers, which on return hold the
    registers after the last sample. Running a lane in consecutive pieces
    and passing one state through them gives the whole lane's u bit for bit.
    """
    f, den = _feedback_coefficients(r)
    m = len(f) - 1
    taps = range(1, m)

    x_arr = np.ascontiguousarray(np.asarray(x, dtype=float))
    u_arr = np.empty(len(x_arr))

    d = q.step
    sat = q.saturation
    neg_sat = -sat
    floor = math.floor
    # reg[1..m] live, reg[m+1] stays zero; at order 0, y reads that zero
    # and the last update writes the unused reg[0]
    reg = [0.0] * (m + 2)
    if state is not None:
        reg[1 : m + 1] = state[:m].tolist()

    try:
        for start in range(0, len(x_arr), BLOCK):
            us = []
            append = us.append
            for xk in x_arr[start : start + BLOCK].tolist():
                y = reg[1]
                u = xk + y
                level = (floor(u / d) + 0.5) * d
                if level > sat:
                    level = sat
                elif level < neg_sat:
                    level = neg_sat
                w = level - u
                for i in taps:
                    reg[i] = f[i] * w - den[i] * y + reg[i + 1]
                reg[m] = f[m] * w - den[m] * y
                append(u)
            u_arr[start : start + len(us)] = us
    except (OverflowError, ValueError):  # floor of an infinite or NaN u/step
        raise _not_finite(start + len(us)) from None

    if state is not None:
        state[:m] = reg[1 : m + 1]
    return loop_traces(x_arr, u_arr, q)


def run_feedback_lanes(
    x: np.ndarray,
    shapers: Sequence[RationalDiscreteTF | FIRFilter],
    quantizers: Sequence[MidRiseQuantizer],
    state: np.ndarray | None = None,
) -> np.ndarray:
    """``run_feedback_loop`` on many lanes at once: column j of x (shape
    samples x lanes) runs through shapers[j] and quantizers[j].

    Each time step advances every lane with a few numpy operations on
    per-lane steps, saturations and TDF-II coefficients zero-padded to the
    highest order, in the scalar loop's operation order, so each lane's u
    equals ``run_feedback_loop``'s bit for bit (up to the sign of an exactly
    zero u where x holds -0.0). x is overwritten with u and returned;
    ``loop_traces`` rebuilds v, w and the overload flags. The lanes start at
    rest, or from `state` (registers x lanes, at least the highest order
    rows, as ``run_feedback_loop`` takes them per lane), which on return
    holds the registers after the last sample.
    """
    n, lanes = x.shape
    if len(shapers) != lanes or len(quantizers) != lanes:
        raise ValueError("need one shaper and one quantizer per lane")
    coeffs = [_feedback_coefficients(r) for r in shapers]
    m = max(1, max(len(f) for f, _ in coeffs) - 1)
    if state is not None and (state.ndim != 2 or state.shape[0] < m or state.shape[1] != lanes):
        raise ValueError(f"state must have at least {m} rows and one column per lane")
    fd = np.zeros((2, m + 1, lanes))  # R - 1 and the denominator, zero-padded
    for j, (f, den) in enumerate(coeffs):
        fd[0, : len(f), j] = f
        fd[1, : len(den), j] = den
    fd = fd[:, 1:]  # taps 1..m, aligned with state[1..m]
    d = np.array([q.step for q in quantizers])
    sat = np.array([q.saturation for q in quantizers])
    neg_sat = -sat

    # Two blocks swap roles each step. Row 0 of a block holds w and rows
    # 1..m hold state[1..m], so rows 0-1 of the current block are (w, y)
    # and one multiply forms f[i] w and den[i] y for every row i.
    blocks = np.zeros((2, m + 1, lanes))
    if state is not None:
        blocks[0, 1:] = state[:m]
    roles = [
        (cur[1], cur[0], cur[:2, None], nxt[1:], nxt[1:-1], cur[2:])
        for cur, nxt in ((blocks[0], blocks[1]), (blocks[1], blocks[0]))
    ]
    level = np.empty(lanes)
    products = np.empty((2, m, lanes))
    f_w, den_y = products
    add, subtract, multiply = np.add, np.subtract, np.multiply
    for k in range(n):
        y, w, w_y, nxt_state, nxt_low, cur_high = roles[k & 1]
        u = x[k]
        add(u, y, out=u)
        np.divide(u, d, out=level)
        np.floor(level, out=level)
        add(level, 0.5, out=level)
        multiply(level, d, out=level)
        np.minimum(level, sat, out=level)
        np.maximum(level, neg_sat, out=level)
        subtract(level, u, out=w)
        # state[i] = f[i] w - den[i] y + state[i + 1], with state[m + 1] = 0
        multiply(fd, w_y, out=products)
        subtract(f_w, den_y, out=nxt_state)
        add(nxt_low, cur_high, out=nxt_low)
    if state is not None:
        state[:m] = blocks[n & 1, 1:]
    return x


def _not_finite(sample: int) -> NumericalError:
    """The failure of a loop whose u/step is not finite at `sample`."""
    return NumericalError(f"u/step is not finite at sample {sample}")


def lane_group_size(lanes: int) -> int:
    """Lanes per group in ``run_lanes`` (at least one lane): as equal as
    groups of at most LANE_BUFFER_SAMPLES // BLOCK lanes allow."""
    groups = -(-lanes // (LANE_BUFFER_SAMPLES // BLOCK))
    return -(-lanes // groups)


def run_lanes(
    lanes: Sequence[Lane], trace: Callable[[int, LoopTraces], object] | None = None
) -> Iterator[SimulationResult]:
    """``summarize_run`` of every lane, in order: of ``run_feedback_loop`` on
    ``gen_input`` of the lane, through the lane's plant against its
    predicted MSE.

    Lanes of one length advance together in BLOCK-sample chunks, in groups
    of ``lane_group_size``: through ``run_feedback_lanes``, or on the scalar
    loop in a group of fewer than MIN_BATCH_LANES lanes. Each lane carries
    its input draw, filter state and ``RunStats``, so a group holds a few
    BLOCK x lanes arrays and no whole lane. ``trace(start, traces)``
    receives each chunk of the first lane. The pass stops at the first chunk
    in which a lane's u/step is not finite, with a NumericalError naming
    the first such lane (by `name`) and sample.
    """
    if not lanes:
        return
    n = lanes[0].model.length
    if any(lane.model.length != n for lane in lanes):
        raise ValueError("lanes must share one input length")
    size = lane_group_size(len(lanes))
    for start in range(0, len(lanes), size):
        yield from _run_group(lanes[start : start + size], trace if start == 0 else None)


def _run_group(group: Sequence[Lane], trace) -> Iterator[SimulationResult]:
    n = group[0].model.length
    stats = [RunStats(lane.plant, n) for lane in group]
    shapers = [lane.shaper for lane in group]
    quantizers = [lane.quantizer for lane in group]
    steps = np.array([q.step for q in quantizers])
    # gen_input chunk by chunk: the scale comes from a transient whole-lane
    # draw, then a second draw is made and scaled one chunk at a time
    scales = [_unit_scale(_InputDraw(lane.model, lane.sample_period)(n)) for lane in group]
    draws = [_InputDraw(lane.model, lane.sample_period) for lane in group]
    batched = len(group) >= MIN_BATCH_LANES
    state = np.zeros((max(1, max(as_discrete_tf(r).order for r in shapers)), len(group)))
    buf = np.empty((BLOCK, len(group))) if batched else None  # time-major, for the lane kernel
    xs = [None] * len(group)
    for start in range(0, n, BLOCK):
        rows = min(BLOCK, n - start)
        for j, (draw, scale) in enumerate(zip(draws, scales)):
            xs[j] = draw(rows) * scale  # replaces the lane's previous chunk
        if batched:
            u = np.stack(xs, axis=1, out=buf[:rows])
            with np.errstate(over="ignore", invalid="ignore"):  # a diverging lane fails below
                run_feedback_lanes(u, shapers, quantizers, state)
                # |u|/step rounds monotonically in |u|, so a lane's u/step is
                # finite where its largest |u| over step is (NaN propagates)
                finite = np.isfinite(np.maximum(u.max(axis=0), -u.min(axis=0)) / steps)
                if not finite.all():  # stop at the lane and sample where the scalar loop would
                    j = int(np.argmin(finite))
                    raise _lane_failure(group[j], start, _not_finite(int(np.argmin(np.isfinite(u[:, j] / steps[j])))))
        for j, (x, lane) in enumerate(zip(xs, group)):
            if batched:
                traces = loop_traces(x, u[:, j].copy(), lane.quantizer)
            else:
                try:
                    traces = run_feedback_loop(x, lane.shaper, lane.quantizer, state[:, j])
                except NumericalError as exc:
                    raise _lane_failure(lane, start, exc) from None
            stats[j].add(traces)
            if j == 0 and trace is not None:
                trace(start, traces)
    for lane, lane_stats in zip(group, stats):
        yield lane_stats.result(lane.predicted_mse)


def _lane_failure(lane: Lane, start: int, exc: NumericalError) -> NumericalError:
    """A lane's loop failure in the chunk from sample `start`, under its name."""
    return NumericalError(f"{lane.name}: {exc} of the chunk from sample {start}")


def filter_memory_estimate(tf: RationalDiscreteTF) -> int:
    """Rough impulse-response duration: max of the tap count and the slowest
    pole's e-folding time in samples."""
    memory = max(len(tf.num), len(tf.den))
    if len(tf.den) > 1:
        poles = np.abs(np.roots(tf.den))
        rho = float(np.max(poles)) if poles.size else 0.0
        if 0.0 < rho < 1.0:
            memory = max(memory, int(math.ceil(-1.0 / math.log(rho))))
    return memory


def plant_burn_in(plant_d: RationalDiscreteTF, length: int) -> int:
    """Transient burn-in of max(1000, 20x filter memory) samples discarded
    from a plant-filtered error of `length` samples; raises ValueError
    unless `length` exceeds twice the burn-in."""
    burn = max(1000, 20 * filter_memory_estimate(plant_d))
    if length <= 2 * burn:
        raise ValueError(f"need more than {2 * burn} samples to discard a {burn}-sample burn-in")
    return burn


class _Moments:
    """Count, mean and sum of squared deviations (M2) of the samples added so
    far: two passes over each block, and blocks merged in the order added
    (Chan, Golub & LeVeque)."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, block: np.ndarray) -> None:
        n = len(block)
        if n == 0:
            return
        mean = float(np.add.reduce(block)) / n
        dev = block - mean
        m2 = float(np.add.reduce(dev * dev))
        if self.count == 0:
            self.count, self.mean, self.m2 = n, mean, m2
            return
        total = self.count + n
        delta = mean - self.mean
        self.mean += delta * n / total
        self.m2 += m2 + delta * delta * self.count * n / total
        self.count = total

    @property
    def variance(self) -> float:
        return self.m2 / self.count


class _LagProducts:
    """Sums of w[i - k] w[i] over the samples added so far, k = 0..max_lag,
    with w zero before its first sample. Each block forms one product row
    per lag from the block and the max_lag samples before it, reduces each
    row by numpy's pairwise sum and adds the sums in block order."""

    def __init__(self, max_lag: int):
        if max_lag < 1:
            raise ValueError("max_lag must be at least 1")
        self.count = 0
        self.tail = np.zeros(max_lag)
        self.sums = np.zeros(max_lag + 1)

    def add(self, block: np.ndarray) -> None:
        n = len(block)
        if n == 0:
            return
        max_lag = len(self.tail)
        ext = np.concatenate((self.tail, block))
        # row k of this view of ext is ext[max_lag - k : max_lag - k + n], i.e. w[i - k]
        rows = np.ndarray((max_lag + 1, n), dtype=float, buffer=ext, offset=8 * max_lag, strides=(-8, 8))
        self.sums += np.add.reduce(rows * block, axis=-1)
        self.tail = ext[n:].copy()
        self.count += n

    def autocorrelations(self) -> np.ndarray:
        """Normalized autocorrelation at lags 1..max_lag."""
        max_lag = len(self.tail)
        if self.count <= max_lag + 1:
            raise ValueError("sequence too short for the requested number of lags")
        if self.sums[0] == 0.0:
            return np.zeros(max_lag)
        return self.sums[1:] / self.sums[0]


class RunStats:
    """Summary statistics of one loop run, accumulated from its traces.

    Feed the run's traces in order with ``add``, in chunks whose lengths are
    multiples of BLOCK except for the last. Every statistic is defined over
    BLOCK-sample blocks aligned to the run's first sample, so any such
    chunking gives the same bits as feeding the whole run:

    * the overload count, exact;
    * the variances of u, w and the plant-filtered error P[z](v - x) past
      the burn-in (``plant_burn_in``): per block a two-pass count, mean and
      M2, merged in block order;
    * the lag products of w at lags 0..MAX_LAG.

    The plant filter carries its state across chunks, so the error is
    ``lfilter`` of the whole run. A statistic that overflows is inf or NaN,
    without a warning.
    """

    def __init__(self, plant_d: RationalDiscreteTF, length: int):
        self.plant = plant_d
        self.length = length
        self.burn = plant_burn_in(plant_d, length)
        self.zi = np.zeros(max(len(plant_d.num), len(plant_d.den)) - 1)
        self.seen = 0
        self.overloads = 0
        self.u, self.w, self.err = _Moments(), _Moments(), _Moments()
        self.lags = _LagProducts(MAX_LAG)

    @np.errstate(over="ignore", invalid="ignore")
    def add(self, traces: LoopTraces) -> None:
        from scipy import signal

        if self.seen % BLOCK:
            raise ValueError("only the last chunk of a run may end inside a block")
        n = len(traces.x)
        if self.seen + n > self.length:
            raise ValueError("more samples than the run's length")
        for i in range(0, n, BLOCK):
            start = self.seen
            x, u, v, w, overload = (a[i : i + BLOCK] for a in (traces.x, traces.u, traces.v, traces.w, traces.overload))
            self.overloads += int(np.count_nonzero(overload))
            self.u.add(u)
            self.w.add(w)
            self.lags.add(w)
            err, self.zi = signal.lfilter(self.plant.num, self.plant.den, v - x, zi=self.zi)
            self.err.add(err[max(self.burn - start, 0) :])
            self.seen += len(x)

    @np.errstate(invalid="ignore")
    def result(self, predicted_mse: float) -> SimulationResult:
        if self.seen != self.length:
            raise ValueError(f"fed {self.seen} of the run's {self.length} samples")
        return SimulationResult(
            empirical_mse=self.err.variance,
            predicted_mse=float(predicted_mse),
            overload_count=self.overloads,
            overload_rate=self.overloads / self.length,
            w_variance=self.w.variance,
            w_autocorr=tuple(self.lags.autocorrelations().tolist()),
            sigma_u_sq=self.u.variance,
        )


def excised_mse(traces: LoopTraces, plant_d: RationalDiscreteTF, window: int) -> tuple[float, float]:
    """Granular output MSE: the variance of the plant-filtered error
    P[z](v - x) past the burn-in (``plant_burn_in``), with the `window`
    samples that start at each overload also removed; per BLOCK-aligned
    block as ``RunStats`` defines its variances.

    The MSE prediction assumes the quantizer never overloads; each clip
    injects an error burst that the plant spreads over its memory, so a
    window of several filter memories after each overload isolates the part
    of the error the model covers. Returns (MSE, fraction of the samples
    past the burn-in that the windows removed).
    """
    from scipy import signal

    if window < 1:
        raise ValueError("window must be at least 1")
    n = len(traces.x)
    burn = plant_burn_in(plant_d, n)
    err = signal.lfilter(plant_d.num, plant_d.den, traces.v - traces.x)
    starts = np.flatnonzero(traces.overload)
    edges = np.zeros(n + 1, dtype=np.int64)
    np.add.at(edges, starts, 1)
    np.add.at(edges, np.minimum(starts + window, n), -1)
    keep = np.cumsum(edges[:n]) == 0
    keep[:burn] = False
    kept = int(np.count_nonzero(keep))
    if kept < 1000:
        raise ValueError("excision removed nearly all samples")
    moments = _Moments()
    for start in range(0, n, BLOCK):
        moments.add(err[start : start + BLOCK][keep[start : start + BLOCK]])
    return moments.variance, 1.0 - kept / (n - burn)


def loop_identity_residual(traces: LoopTraces, r: RationalDiscreteTF | FIRFilter) -> float:
    """Max per-sample deviation of v - x from R[z] applied to the recorded
    errors; zero up to round-off by construction of the loop."""
    tf = as_discrete_tf(r)
    shaped = linear_filter(tf.num, tf.den, traces.w)
    return float(np.max(np.abs(traces.v - traces.x - shaped)))


def predicted_loop_variances(norm_r_sq: float, gamma: float) -> tuple[float, float]:
    """(sigma_u^2, sigma_w^2) per unit input variance implied by the variance
    balance at a unity-head shaper of squared norm ||R||^2:
    sigma_w^2 = 1/(nu - ||R||^2) and sigma_u^2 = 1 + (||R||^2 - 1) sigma_w^2,
    using ||R-1||^2 = ||R||^2 - 1 for unity-head filters."""
    nu = gamma + 1.0
    if norm_r_sq >= nu:
        raise ValueError(f"infeasible shaper: ||R||^2 = {norm_r_sq:.6g} >= nu = {nu:.6g}")
    sigma_w_sq = 1.0 / (nu - norm_r_sq)
    sigma_u_sq = 1.0 + (norm_r_sq - 1.0) * sigma_w_sq
    return sigma_u_sq, sigma_w_sq


def loop_quantizer(
    shaper: RationalDiscreteTF | FIRFilter, p_sim: AmplitudeResponse, bits: int, loading_factor: float
) -> tuple[FitReport, float, float, MidRiseQuantizer]:
    """Set up a loop lane's quantizer: score the shaper on the simulation
    plant p_sim and size a bits-bit quantizer for the sigma_u the variance
    balance predicts. Returns (score, sigma_u^2, sigma_w^2, quantizer); an
    infeasible shaper raises NumericalError. The quantizer and feasibility
    depend on ||R||^2 alone, which reads only p_sim's grid."""
    gamma = gamma_from_bits(bits, loading_factor)
    score = evaluate_fit(shaper, p_sim, gamma)
    if not score.feasible:
        raise NumericalError(f"shaper infeasible at {bits} bits on the simulation plant: ||R||^2 = {score.norm_sq:.6g}")
    sigma_u_sq, sigma_w_sq = predicted_loop_variances(score.norm_sq, gamma)
    qspec = QuantizerSpec.for_sigma_u(bits, loading_factor, math.sqrt(sigma_u_sq))
    return score, sigma_u_sq, sigma_w_sq, MidRiseQuantizer.from_spec(qspec)


def summarize_run(traces: LoopTraces, plant_d: RationalDiscreteTF, predicted_mse: float) -> SimulationResult:
    """Reduce loop traces to the comparison statistics: ``RunStats`` fed the
    whole run."""
    stats = RunStats(plant_d, len(traces.x))
    stats.add(traces)
    return stats.result(predicted_mse)
