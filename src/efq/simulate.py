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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
# scipy is imported inside the functions that call it: loading scipy.signal
# and scipy.optimize takes longer than all of design, rd-curve or fit, which
# never call them.

from .design import QuantizerSpec, gamma_from_bits
from .errors import NumericalError
from .fitting import FIRFilter, FitReport, as_discrete_tf, evaluate_fit, yule_walker_fit
from .spectral import AmplitudeResponse, FrequencyGrid, ct_frequency_map
from .transfer import ContinuousTF, RationalDiscreteTF

HEAD_TOL = 1e-12

# discretize_plant: grid of the Yule-Walker start, and the log-spaced
# frequencies of the log-magnitude polish.
START_GRID_POINTS = 1024
FIT_POINTS = 400
FIT_LOW = 1e-3
# Plant zeros with |real part| below this (relative) count as on the j*omega
# axis, where the log-magnitude is unbounded.
AXIS_TOL = 1e-9

# run_lanes: the u buffer of one lane group holds at most this many
# lane-samples (16 MiB); with fewer than MIN_BATCH_LANES lanes per group the
# per-step numpy overhead outweighs the batching and the scalar loop runs.
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
    quantizer."""

    model: SignalModel
    sample_period: float
    shaper: RationalDiscreteTF | FIRFilter
    quantizer: MidRiseQuantizer


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


def gen_input(model: SignalModel, sample_period: float) -> np.ndarray:
    """The model's seeded Gaussian input, rescaled to exact unit sample
    variance: white, or first-order autoregressive with pole
    exp(-ct_pole*T) started at stationarity."""
    rng = np.random.default_rng(model.seed)
    if model.kind == "colored":
        from scipy import signal

        if sample_period <= 0:
            raise ValueError("sample_period must be positive")
        pole = math.exp(-model.ct_pole * sample_period)
        x_prev = rng.standard_normal()
        innov = rng.standard_normal(model.length)
        scale = math.sqrt(1.0 - pole * pole)
        x, _ = signal.lfilter([scale], [1.0, -pole], innov, zi=np.array([pole * x_prev]))
    else:
        x = rng.standard_normal(model.length)
    sd = float(np.std(x))
    if sd == 0.0:
        raise ValueError("degenerate input sequence (zero variance)")
    return x * (1.0 / sd)


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
    x: np.ndarray, r: RationalDiscreteTF | FIRFilter, q: MidRiseQuantizer
) -> LoopTraces:
    """Run the error-feedback loop sample by sample.

    The feedback filter R[z] - 1 is realized in transposed direct form II;
    its state update consumes only past errors (R's unity head makes the
    difference strictly causal), enforced structurally: the current output
    depends only on stored state. Only u is recorded; ``loop_traces``
    rebuilds the rest.
    """
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


def run_feedback_lanes(
    x: np.ndarray, shapers: Sequence[RationalDiscreteTF | FIRFilter], quantizers: Sequence[MidRiseQuantizer]
) -> np.ndarray:
    """``run_feedback_loop`` on many lanes at once: column j of x (shape
    samples x lanes) runs through shapers[j] and quantizers[j].

    Each time step advances every lane with a few numpy operations on
    per-lane steps, saturations and TDF-II coefficients zero-padded to the
    highest order, in the scalar loop's operation order, so each lane's u
    equals ``run_feedback_loop``'s bit for bit (up to the sign of an exactly
    zero u where x holds -0.0). x is overwritten with u and returned;
    ``loop_traces`` rebuilds v, w and the overload flags.
    """
    n, lanes = x.shape
    if len(shapers) != lanes or len(quantizers) != lanes:
        raise ValueError("need one shaper and one quantizer per lane")
    coeffs = [_feedback_coefficients(r) for r in shapers]
    m = max(1, max(len(f) for f, _ in coeffs) - 1)
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
    return x


def lane_group_size(lanes: int, length: int) -> int:
    """Lanes per group in ``run_lanes``: as even and as equal as the
    LANE_BUFFER_SAMPLES budget allows, or 0 where fewer than
    MIN_BATCH_LANES would be stepped together and the scalar loop is used."""
    fit = LANE_BUFFER_SAMPLES // length // 2 * 2
    if min(fit, lanes) < MIN_BATCH_LANES:
        return 0
    groups = -(-lanes // fit)
    size = -(-lanes // groups)
    return size + size % 2


def run_lanes(lanes: Sequence[Lane]) -> Iterator[LoopTraces]:
    """Traces of every lane, in order, each equal to ``run_feedback_loop``
    on ``gen_input`` of the lane.

    Lanes of one length run in groups of ``lane_group_size`` through
    ``run_feedback_lanes``, so only one group's u buffer is held; each lane's
    input is generated again for its traces. Too few lanes per group run on
    the scalar loop.
    """
    if not lanes:
        return
    n = lanes[0].model.length
    if any(lane.model.length != n for lane in lanes):
        raise ValueError("lanes must share one input length")
    size = lane_group_size(len(lanes), n)
    if size == 0:
        for lane in lanes:
            yield run_feedback_loop(gen_input(lane.model, lane.sample_period), lane.shaper, lane.quantizer)
        return
    for start in range(0, len(lanes), size):
        group = lanes[start : start + size]
        buf = np.empty((n, len(group)))
        for j, lane in enumerate(group):
            buf[:, j] = gen_input(lane.model, lane.sample_period)
        run_feedback_lanes(buf, [lane.shaper for lane in group], [lane.quantizer for lane in group])
        for j, lane in enumerate(group):
            x = gen_input(lane.model, lane.sample_period)
            u = buf[:, j].copy()
            if np.isfinite(u / lane.quantizer.step).all():
                yield loop_traces(x, u, lane.quantizer)
            else:  # the scalar loop's floor raises on a non-finite u/step; numpy carries on
                yield run_feedback_loop(x, lane.shaper, lane.quantizer)
        del buf  # release before the next group is allocated


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


def _plant_error(v: np.ndarray, x: np.ndarray, plant_d: RationalDiscreteTF) -> tuple[np.ndarray, int]:
    """Plant-filtered reconstruction error P[z](v-x) and the transient
    burn-in of max(1000, 20x filter memory) samples to discard from it."""
    from scipy import signal

    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    if v.shape != x.shape:
        raise ValueError("v and x must have equal length")
    burn = plant_burn_in(plant_d, len(v))
    return signal.lfilter(plant_d.num, plant_d.den, v - x), burn


def plant_burn_in(plant_d: RationalDiscreteTF, length: int) -> int:
    """Transient burn-in of max(1000, 20x filter memory) samples discarded
    from a plant-filtered error of `length` samples; raises ValueError
    unless `length` exceeds twice the burn-in."""
    burn = max(1000, 20 * filter_memory_estimate(plant_d))
    if length <= 2 * burn:
        raise ValueError(f"need more than {2 * burn} samples to discard a {burn}-sample burn-in")
    return burn


def empirical_mse(v: np.ndarray, x: np.ndarray, plant_d: RationalDiscreteTF) -> float:
    """Sample variance of the plant-filtered reconstruction error P[z](v-x),
    after discarding a transient burn-in of max(1000, 20x filter memory)."""
    err, burn = _plant_error(v, x, plant_d)
    return float(np.var(err[burn:]))


def excised_mse(traces: LoopTraces, plant_d: RationalDiscreteTF, window: int) -> tuple[float, float]:
    """Granular output MSE: ``empirical_mse`` with the `window` samples that
    start at each overload also removed.

    The MSE prediction assumes the quantizer never overloads; each clip
    injects an error burst that the plant spreads over its memory, so a
    window of several filter memories after each overload isolates the part
    of the error the model covers. Returns (MSE, fraction of the samples
    past the burn-in that the windows removed).
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    err, burn = _plant_error(traces.v, traces.x, plant_d)
    n = len(err)
    starts = np.flatnonzero(traces.overload)
    edges = np.zeros(n + 1, dtype=np.int64)
    np.add.at(edges, starts, 1)
    np.add.at(edges, np.minimum(starts + window, n), -1)
    keep = np.cumsum(edges[:n]) == 0
    keep[:burn] = False
    kept = int(np.count_nonzero(keep))
    if kept < 1000:
        raise ValueError("excision removed nearly all samples")
    return float(np.var(err[keep])), 1.0 - kept / (n - burn)


def autocorrelations(w: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized sample autocorrelation at lags 1..max_lag."""
    w = np.asarray(w, dtype=float)
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    if len(w) <= max_lag + 1:
        raise ValueError("sequence too short for the requested number of lags")
    c0 = float(np.dot(w, w))
    if c0 == 0.0:
        return np.zeros(max_lag)
    return np.array([float(np.dot(w[:-k], w[k:])) / c0 for k in range(1, max_lag + 1)])


def whiteness_stat(w: np.ndarray, max_lag: int) -> float:
    """Largest absolute normalized autocorrelation over lags 1..max_lag;
    near 4/sqrt(len(w)) or below for a white sequence."""
    return float(np.max(np.abs(autocorrelations(w, max_lag))))


def loop_identity_residual(traces: LoopTraces, r: RationalDiscreteTF | FIRFilter) -> float:
    """Max per-sample deviation of v - x from R[z] applied to the recorded
    errors; zero up to round-off by construction of the loop."""
    from scipy import signal

    tf = as_discrete_tf(r)
    shaped = signal.lfilter(tf.num, tf.den, traces.w)
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
    infeasible shaper raises NumericalError."""
    gamma = gamma_from_bits(bits, loading_factor)
    score = evaluate_fit(shaper, p_sim, gamma)
    if not score.feasible:
        raise NumericalError(f"shaper infeasible at {bits} bits on the simulation plant: ||R||^2 = {score.norm_sq:.6g}")
    sigma_u_sq, sigma_w_sq = predicted_loop_variances(score.norm_sq, gamma)
    qspec = QuantizerSpec.for_sigma_u(bits, loading_factor, math.sqrt(sigma_u_sq))
    return score, sigma_u_sq, sigma_w_sq, MidRiseQuantizer.from_spec(qspec)


def summarize_run(
    traces: LoopTraces,
    plant_d: RationalDiscreteTF,
    predicted_mse: float,
    max_lag: int = 20,
) -> SimulationResult:
    """Reduce loop traces to the comparison statistics."""
    count = int(np.count_nonzero(traces.overload))
    return SimulationResult(
        empirical_mse=empirical_mse(traces.v, traces.x, plant_d),
        predicted_mse=float(predicted_mse),
        overload_count=count,
        overload_rate=count / len(traces.x),
        w_variance=float(np.var(traces.w)),
        w_autocorr=tuple(autocorrelations(traces.w, max_lag)),
        sigma_u_sq=float(np.var(traces.u)),
    )
