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

import functools
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .design import _levels, balanced_mse, gamma_from_bits
from .errors import NumericalError
from .fitting import FitReport, evaluate_fit
from .spectral import AmplitudeResponse, FrequencyGrid
from .transfer import RationalDiscreteTF, linear_filter

HEAD_TOL = 1e-12

# Run statistics are defined over BLOCK-sample blocks aligned to the start of
# a run and merged in block order; run_lanes advances its lanes one block at a
# time, and run_feedback_loop steps through x one block at a time. w_autocorr
# spans lags 1..MAX_LAG; the output MSE is a Welch estimate over SEGMENT-sample
# periodic Hann segments (two blocks) on the bins of WELCH_GRID.
BLOCK = 1 << 13
MAX_LAG = 20
SEGMENT = 2 * BLOCK
WELCH_GRID = FrequencyGrid(SEGMENT // 2 + 1)
# run_lanes: a lane part's chunk buffer holds at most LANE_BUFFER_SAMPLES
# lane-samples (16 MiB), so a part has at most LANE_BUFFER_SAMPLES // BLOCK
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
    def for_sigma_u(cls, bits: int, loading_factor: float, sigma_u: float) -> "MidRiseQuantizer":
        """A bits-bit quantizer saturating at loading_factor * sigma_u, whose
        2^bits - 1 steps span twice the saturation."""
        if not sigma_u > 0:
            raise ValueError("sigma_u must be positive")
        saturation = loading_factor * sigma_u
        return cls(step=2.0 * saturation / _levels(bits), saturation=saturation)


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
    quantizer, scored by ``RunStats`` on a plant map on WELCH_GRID against a
    predicted MSE; `name` opens its failures."""

    model: SignalModel
    sample_period: float
    shaper: RationalDiscreteTF
    quantizer: MidRiseQuantizer
    plant_map: AmplitudeResponse
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
    """A model's seeded Gaussian input, `count` samples a call: white, or
    the stationary autoregression x_k = pole x_(k-1) + sqrt(1 - pole^2) e_k,
    pole = exp(-ct_pole*T), from x_(-1) ~ N(0, 1), so every sample has unit
    variance. The rng stream and the register zi = pole x_(k-1) carry across
    calls, so the samples do not depend on how the draws are split."""

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
            x, self.zi = linear_filter([self.scale], [1.0, -self.pole], x, zi=self.zi)
        return x


def _draw_columns(draws: Sequence[_InputDraw], out: np.ndarray) -> np.ndarray:
    """``draw(len(out))`` of each draw as the columns of out, bit for bit:
    the colored draws' recursion runs in place one row at a time across
    them, in ``linear_filter``'s order (y = zi + scale e, zi = pole y)."""
    for j, draw in enumerate(draws):
        out[:, j] = draw.rng.standard_normal(len(out))
    colored = [draw.colored for draw in draws]
    if any(colored):
        mask = True if all(colored) else np.array(colored)  # a mask costs half a microsecond a row
        pole, scale, zi = np.array([(d.pole, d.scale, d.zi[0]) if d.colored else (0, 0, 0) for d in draws]).T.copy()
        np.multiply(out, scale, out=out, where=mask)
        for row in out:
            np.add(row, zi, out=row, where=mask)
            np.multiply(row, pole, out=zi)
        for draw, z in zip(draws, zi.tolist()):
            if draw.colored:
                draw.zi[0] = z
    return out


def gen_input(model: SignalModel, sample_period: float) -> np.ndarray:
    """The model's seeded Gaussian input, ``_InputDraw``'s whole length."""
    return _InputDraw(model, sample_period)(model.length)


def _feedback_coefficients(r: RationalDiscreteTF) -> tuple[list[float], list[float]]:
    """(R - 1, denominator) of a unity-head shaper, ascending delay, both
    padded to order + 1 taps; the first tap of R - 1 is zero."""
    m = r.order
    num = list(r.num) + [0.0] * (m + 1 - len(r.num))
    den = list(r.den) + [0.0] * (m + 1 - len(r.den))
    if abs(num[0] - 1.0) > HEAD_TOL:
        raise ValueError(f"feedback filter must have unity head, got {num[0]!r}")
    return [num[i] - den[i] for i in range(m + 1)], den


def run_feedback_loop(
    x: np.ndarray, r: RationalDiscreteTF, q: MidRiseQuantizer, state: np.ndarray | None = None
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
    if state is not None and (state.ndim != 1 or len(state) < m):
        raise ValueError(f"state must be one-dimensional with at least {m} entries")
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
    shapers: Sequence[RationalDiscreteTF],
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


def lane_parts(lanes: int, workers: int = 1) -> list[range]:
    """The parts of a ``run_lanes`` pass over `lanes` lanes: contiguous
    ranges, as equal as may be, as many as `workers` while each keeps
    MIN_BATCH_LANES lanes or more, and more when needed to keep each to at
    most LANE_BUFFER_SAMPLES // BLOCK lanes; at least one."""
    count = max(-(-lanes // (LANE_BUFFER_SAMPLES // BLOCK)), min(workers, lanes // MIN_BATCH_LANES), 1)
    return [range(lanes * i // count, lanes * (i + 1) // count) for i in range(count)]


def run_lanes(
    lanes: Sequence[Lane],
    trace: Callable[[int, LoopTraces], object] | None = None,
    workers: int = 1,
    map_parts: Callable[[Callable, list], Iterable] = map,
) -> list[SimulationResult]:
    """``summarize_run`` of every lane, in order: of ``run_feedback_loop`` on
    ``gen_input`` of the lane, on its plant map against its predicted MSE.

    ``map_parts(fn, parts)`` runs the ``lane_parts`` of `workers` (``map``,
    or a map over worker processes). A part's lanes advance together in
    BLOCK-sample chunks: through ``run_feedback_lanes`` and ``_draw_columns``,
    or, under MIN_BATCH_LANES lanes, on the scalar loop and each lane's
    ``_InputDraw``. Each lane carries its input draw, filter state and
    ``RunStats``, so a part holds a few BLOCK x lanes arrays and no whole
    lane. ``trace(start, traces)`` receives each chunk of the first lane in
    this process: a traced pass splits as for one worker and runs here.

    Each part stops at the first chunk in which a lane's u/step is not
    finite; the pass raises the ``LaneFailure`` of the earliest such chunk,
    naming the lowest lane failing in it and its sample, whatever the split.
    """
    if not lanes:
        return []
    n = lanes[0].model.length
    if any(lane.model.length != n for lane in lanes):
        raise ValueError("lanes must share one input length")
    if trace is not None:
        workers, map_parts = 1, map

    def run_part(part):
        try:
            return _run_group(lanes[part.start : part.stop], trace if part.start == 0 else None)
        except LaneFailure as exc:
            return exc

    outcomes = list(map_parts(run_part, lane_parts(len(lanes), workers)))
    failures = [out for out in outcomes if isinstance(out, LaneFailure)]
    if failures:
        raise min(failures, key=lambda exc: exc.start)  # the first of them: the lowest lane
    return [result for part in outcomes for result in part]


def _run_group(group: Sequence[Lane], trace) -> list[SimulationResult]:
    n = group[0].model.length
    stats = [RunStats(lane.plant_map, n) for lane in group]
    shapers = [lane.shaper for lane in group]
    quantizers = [lane.quantizer for lane in group]
    steps = np.array([q.step for q in quantizers])
    draws = [_InputDraw(lane.model, lane.sample_period) for lane in group]
    batched = len(group) >= MIN_BATCH_LANES
    state = np.zeros((max(1, max(r.order for r in shapers)), len(group)))
    if batched:  # time-major, for the lane kernel
        x_buf, u_buf = np.empty((BLOCK, len(group))), np.empty((BLOCK, len(group)))
    for start in range(0, n, BLOCK):
        rows = min(BLOCK, n - start)
        if batched:
            x = _draw_columns(draws, x_buf[:rows])
            u = u_buf[:rows]
            np.copyto(u, x)
            with np.errstate(over="ignore", invalid="ignore"):  # a diverging lane fails below
                run_feedback_lanes(u, shapers, quantizers, state)
                # |u|/step rounds monotonically in |u|, so a lane's u/step is
                # finite where its largest |u| over step is (NaN propagates)
                finite = np.isfinite(np.maximum(u.max(axis=0), -u.min(axis=0)) / steps)
                if not finite.all():  # stop at the lane and sample where the scalar loop would
                    j = int(np.argmin(finite))
                    raise _lane_failure(group[j], start, _not_finite(int(np.argmin(np.isfinite(u[:, j] / steps[j])))))
        for j, lane in enumerate(group):
            if batched:  # fresh arrays: a trace may hold them past this chunk
                traces = loop_traces(x[:, j].copy(), u[:, j].copy(), lane.quantizer)
            else:
                try:
                    traces = run_feedback_loop(draws[j](rows), lane.shaper, lane.quantizer, state[:, j])
                except NumericalError as exc:
                    raise _lane_failure(lane, start, exc) from None
            stats[j].add(traces)
            if j == 0 and trace is not None:
                trace(start, traces)
    return [lane_stats.result(lane.predicted_mse) for lane, lane_stats in zip(group, stats)]


class LaneFailure(NumericalError):
    """A lane's loop failure in ``run_lanes``; `start` is the first sample of
    the chunk it failed in."""

    def __init__(self, message: str, start: int):
        super().__init__(message)
        self.start = start

    def __reduce__(self):
        return LaneFailure, (str(self), self.start)


def _lane_failure(lane: Lane, start: int, exc: NumericalError) -> LaneFailure:
    """A lane's loop failure in the chunk from sample `start`, under its name."""
    return LaneFailure(f"{lane.name}: {exc} of the chunk from sample {start}", start)


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
        self.tail = np.zeros(max_lag)
        self.sums = np.zeros(max_lag + 1)

    def add(self, block: np.ndarray) -> None:
        n = len(block)
        max_lag = len(self.tail)
        ext = np.concatenate((self.tail, block))
        # row k of this view of ext is ext[max_lag - k : max_lag - k + n], i.e. w[i - k]
        rows = np.ndarray((max_lag + 1, n), dtype=float, buffer=ext, offset=8 * max_lag, strides=(-8, 8))
        self.sums += [float(np.add.reduce(row * block)) for row in rows]  # one row's products at a time
        self.tail = ext[n:].copy()

    def autocorrelations(self) -> np.ndarray:
        """Normalized autocorrelation at lags 1..max_lag."""
        if self.sums[0] == 0.0:
            return np.zeros(len(self.tail))
        return self.sums[1:] / self.sums[0]


def welch_segments(length: int) -> int:
    """Welch segments of a run, two full blocks each; ValueError if none."""
    if length < SEGMENT:
        raise ValueError(f"need at least {SEGMENT} samples for one {SEGMENT}-sample Welch segment, got {length}")
    return length // BLOCK - 1


@functools.lru_cache(maxsize=8)
def _welch_of(magnitude: bytes) -> tuple[np.ndarray, np.ndarray]:
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(SEGMENT) / SEGMENT)
    weight = np.frombuffer(magnitude) ** 2 * (2.0 / (SEGMENT * float(np.add.reduce(window * window))))
    weight[[0, -1]] /= 2.0
    window.setflags(write=False)
    weight.setflags(write=False)
    return window, weight


class _WelchPower:
    """The Welch estimate of a series' power through a plant map on
    WELCH_GRID, fed the series' whole BLOCK-sample blocks in order: over
    ``welch_segments`` periodic Hann segments of two blocks, one block
    carried, each segment's |rfft|^2 weighted by |P|^2 times the bin's share
    of the circle (1 at 0 and pi, 2 between) over SEGMENT times the window
    energy, and summed in segment order. The window and weights are shared
    by every estimate on the same map."""

    def __init__(self, plant_map: AmplitudeResponse, length: int):
        self.segments = welch_segments(length)
        if plant_map.grid != WELCH_GRID:
            raise ValueError(f"a plant map must be on the {WELCH_GRID.n_points}-point Welch grid")
        self.window, self.weight = _welch_of(plant_map.values.tobytes())
        self.carry = None  # the last block
        self.power = 0.0

    def add(self, block: np.ndarray) -> None:
        if self.carry is not None:
            spectrum = np.fft.rfft(np.concatenate((self.carry, block)) * self.window)
            self.power += float(np.add.reduce(self.weight * (spectrum.real**2 + spectrum.imag**2)))
        self.carry = block

    def mse(self) -> float:
        return self.power / self.segments


class RunStats:
    """Summary statistics of one loop run, fed its traces in order by
    ``add`` in chunks of whole blocks but the last. Every statistic is
    defined over BLOCK-sample blocks aligned to the run's first sample, so
    any such chunking gives the same bits as feeding the whole run:

    * the overload count, exact;
    * the variances of u and w: per block a two-pass count, mean and M2,
      merged in block order;
    * the lag products of w at lags 0..MAX_LAG;
    * the output MSE, the power of P(v - x): ``_WelchPower`` of v - x on
      the plant map. A design's plant map is zero above pi/lambda: this
      measures its ||p R||^2 sigma_w^2.

    A statistic that overflows is inf or NaN, without a warning.
    """

    def __init__(self, plant_map: AmplitudeResponse, length: int):
        self.welch = _WelchPower(plant_map, length)
        self.length = length
        self.seen = 0
        self.overloads = 0
        self.u, self.w = _Moments(), _Moments()
        self.lags = _LagProducts(MAX_LAG)

    @np.errstate(over="ignore", invalid="ignore")
    def add(self, traces: LoopTraces) -> None:
        if self.seen % BLOCK:
            raise ValueError("only the last chunk of a run may end inside a block")
        n = len(traces.x)
        if self.seen + n > self.length:
            raise ValueError("more samples than the run's length")
        for i in range(0, n, BLOCK):
            x, u, v, w, overload = (a[i : i + BLOCK] for a in (traces.x, traces.u, traces.v, traces.w, traces.overload))
            self.overloads += int(np.count_nonzero(overload))
            self.u.add(u)
            self.w.add(w)
            self.lags.add(w)
            self.seen += len(x)
            if len(x) == BLOCK:
                self.welch.add(v - x)

    @np.errstate(invalid="ignore")
    def result(self, predicted_mse: float) -> SimulationResult:
        if self.seen != self.length:
            raise ValueError(f"fed {self.seen} of the run's {self.length} samples")
        return SimulationResult(
            empirical_mse=self.welch.mse(),
            predicted_mse=float(predicted_mse),
            overload_count=self.overloads,
            overload_rate=self.overloads / self.length,
            w_variance=self.w.variance,
            w_autocorr=tuple(self.lags.autocorrelations().tolist()),
            sigma_u_sq=self.u.variance,
        )


@np.errstate(over="ignore", invalid="ignore")
def granular_mse(
    traces: LoopTraces, shaper: RationalDiscreteTF, quantizer: MidRiseQuantizer, plant_map: AmplitudeResponse
) -> float:
    """The output MSE of a run with its overload error taken out: the
    ``_WelchPower`` estimate on `plant_map`, as ``RunStats`` scores v - x, of
    (v - x) - R w_o, where w_o = w - clip(w, -d/2, d/2) is each error's excess
    over half a step. A granular error has |w| <= d/2, so w_o is nonzero
    exactly at the overloads, and as the loop gives v - x = R w, this is the
    error R clip(w) the loop would show had every overload error been
    granular, with no sample removed, at every lambda."""
    welch = _WelchPower(plant_map, len(traces.x))
    half = 0.5 * quantizer.step
    err = (traces.v - traces.x) - linear_filter(shaper.num, shaper.den, traces.w - np.clip(traces.w, -half, half))
    for start in range(0, len(err) - BLOCK + 1, BLOCK):
        welch.add(err[start : start + BLOCK])
    return welch.mse()


def loop_identity_residual(traces: LoopTraces, r: RationalDiscreteTF) -> float:
    """Max per-sample deviation of v - x from R[z] applied to the recorded
    errors; zero up to round-off by construction of the loop."""
    shaped = linear_filter(r.num, r.den, traces.w)
    return float(np.max(np.abs(traces.v - traces.x - shaped)))


def predicted_loop_variances(norm_r_sq: float, gamma: float) -> tuple[float, float]:
    """(sigma_u^2, sigma_w^2) per unit input variance implied by the variance
    balance at a unity-head shaper of squared norm ||R||^2:
    sigma_w^2 = 1/(nu - ||R||^2) and sigma_u^2 = 1 + (||R||^2 - 1) sigma_w^2,
    using ||R-1||^2 = ||R||^2 - 1 for unity-head filters."""
    sigma_w_sq = balanced_mse(1.0, norm_r_sq, gamma)
    if sigma_w_sq == math.inf:
        raise ValueError(f"infeasible shaper: ||R||^2 = {norm_r_sq:.6g} >= nu = {gamma + 1.0:.6g}")
    sigma_u_sq = 1.0 + (norm_r_sq - 1.0) * sigma_w_sq
    return sigma_u_sq, sigma_w_sq


def loop_quantizer(
    shaper: RationalDiscreteTF, p_lam: AmplitudeResponse, bits: int, loading_factor: float
) -> tuple[FitReport, float, float, MidRiseQuantizer]:
    """Set up a loop lane's quantizer: score the shaper on its cell's plant
    map p_lam as ``efq fit`` does and size a bits-bit quantizer for the
    sigma_u the variance balance predicts. Returns (score, sigma_u^2,
    sigma_w^2, quantizer); an infeasible shaper raises NumericalError."""
    gamma = gamma_from_bits(bits, loading_factor)
    score = evaluate_fit(shaper, p_lam, gamma)
    if not score.feasible:
        raise NumericalError(f"shaper infeasible at {bits} bits on the plant map: ||R||^2 = {score.norm_sq:.6g}")
    sigma_u_sq, sigma_w_sq = predicted_loop_variances(score.norm_sq, gamma)
    return score, sigma_u_sq, sigma_w_sq, MidRiseQuantizer.for_sigma_u(bits, loading_factor, math.sqrt(sigma_u_sq))


def summarize_run(traces: LoopTraces, plant_map: AmplitudeResponse, predicted_mse: float) -> SimulationResult:
    """``RunStats`` of the whole run on a plant map."""
    stats = RunStats(plant_map, len(traces.x))
    stats.add(traces)
    return stats.result(predicted_mse)


# Student's t quantile at 0.975 for 1-30 degrees of freedom, as
# scipy.stats.t.ppf gives it, so an interval over a few seeds needs no
# scipy.stats.
T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934, 2.5705818356363146,
    2.4469118511449786, 2.364624251592784, 2.306004135204166, 2.262157162798205, 2.228138851986274,
    2.200985160091639, 2.1788128296672284, 2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245, 2.0595385527532972,
    2.0555294386428735, 2.0518305164802846, 2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)
Z975 = 1.959963984540054  # the normal quantile, t's limit as df grows


def t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` degrees of freedom, the
    factor of a 95 % interval on the mean of df + 1 values: from the table
    up to 30, and above it from the Cornish-Fisher expansion in 1/df
    (Abramowitz & Stegun 26.7.5), within 2e-8 relative."""
    if df < 1:
        raise ValueError(f"need at least 1 degree of freedom, got {df}")
    if df <= len(T975):
        return T975[df - 1]
    z = Z975
    terms = (
        (z**3 + z) / 4,
        (5 * z**5 + 16 * z**3 + 3 * z) / 96,
        (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384,
        (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160,
    )
    return z + sum(term / df**k for k, term in enumerate(terms, 1))
