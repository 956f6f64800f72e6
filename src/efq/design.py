"""Optimal noise-shaping design and rate-distortion analysis.

Setting: a quantizer with error feedback reshapes its (input-proportional)
quantization noise through a shaping response r(omega) before it reaches
the plant p(omega). With gamma the quantizer's signal-to-error variance
ratio and nu = gamma + 1, the output MSE per unit input variance is

    mse(r) = ||p*r||^2 / (nu - ||r||^2),

minimized over responses with zero log-mean (realizable, unity-head
filters) and ||r||^2 < nu. The minimizer is the regularized inverse

    r_alpha(omega) = theta(alpha) / sqrt(p^2(omega) + alpha),

where theta normalizes the log-mean to zero, and the optimal alpha solves
theta^2(alpha)/alpha = nu; the quantity theta^2/alpha is strictly
decreasing, so a bracketing bisection (polished by Newton in log-space)
finds it reliably. At the optimum the achieved MSE equals alpha itself.

Each step of that root solve is one quadrature over the grid, so the solve
is made cheap without changing a bit of its result. p is squared once per
solve, and every mean integrated at an alpha is kept for the rest of the
solve, so the polish and the final design reuse the alphas they revisit.
The bisection keeps its loops and its decisions, but most of its signs come
from certificates: in x = ln(alpha), ln(theta^2/alpha) - ln(nu) is
decreasing, so a short Newton pass, started inside a closed-form bracket of
the root (next to it where the bracket's lower end is close, or at an alpha
the caller holds), finds the root, and two probes beside it give alphas
where the computed value clears a rounding bound sized to the grid and to
the logarithms met (see ROUNDING_TERMS). Every alpha the replay queries left of
a certificate whose margin exceeds the bound at that alpha has a positive
computed value, and likewise negative on the right. The replay takes those
signs as known and evaluates only the others, near the root: the same signs,
so the same bracket, the same polish and the same design. The polish, in
turn, evaluates a slope only where the bounds on its computed value leave
the rounded Newton step undecided.

Oversampling by an integer factor bandlimits the plant response to
[0, pi/lambda]; the resulting distortion obeys the collapse identity
D(nu, lambda) = D(nu^lambda, 1) and the bound D <= ||p||^2/(nu^lambda - 1),
both of which are exercised by the verification suite.
"""

from __future__ import annotations

import collections
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .spectral import (
    AmplitudeResponse,
    band_inverse_power_mean,
    band_mean,
    band_power_means,
    constant_response,
    is_almost_constant,
    l2_norm_sq,
    oversample_response,
    oversampling_factor,
)

# The design integrates p^2: below 2^511, p^2, the sum of two neighbouring
# samples of it and its integral over [0, pi] all stay below the float max.
MAX_PLANT_AMPLITUDE = 2.0**511
# The largest alpha at which p^2 + alpha stays finite for every plant below
# MAX_PLANT_AMPLITUDE (1.5 * 2^1023 less one unit in the last place): the
# last upper bracket solve_min_mse tries. The float max itself would make
# p^2 + alpha overflow.
ALPHA_MAX = sys.float_info.max - MAX_PLANT_AMPLITUDE**2

ROOT_REL_TOL = 1e-12
MAX_BISECTION_STEPS = 200

# Sign certificates for the bisection replay in solve_min_mse. In x = ln(alpha),
# log_ratio is, in exact arithmetic on the computed samples p_i^2,
#     (1/pi) sum_i w_i ln(p_i^2 + e^x) - x - ln(nu),
# where the quadrature weights w_i are fixed, nonnegative and sum to the float
# pi (every grid step, and either part of the step split at a cutoff, is an
# exact float difference). So it is nonincreasing in x. Let M(alpha) be the
# largest of 1, ln(nu), |ln(alpha)| and |ln(peak + alpha)|, with peak the
# largest p^2: every ln(p_i^2 + alpha) lies between ln(alpha) and
# ln(peak + alpha), so M bounds every logarithm the evaluation meets, and the
# computed value differs from the exact one by at most
#     E(alpha) = (ceil(log2 n) + ROUNDING_TERMS) u M(alpha),  u = 2^-53.
# In units of u M, a sample costs 5 (the add, and np.log within 2 ulp), a
# trapezoid term 2 (its sum and product; halving is exact), numpy's pairwise
# sum ceil(log2 n) + 17 (a leaf of up to 128 terms takes at most 24
# additions: 8 accumulators of 16 terms, a 3-level tree and 7 leftovers;
# ceil(log2 n) - 7 halvings lie above it), joining the parts split at a
# cutoff 3, the division by pi 1, theta = exp(mean/2) and 2 ln(theta) 4,
# ln(alpha) and ln(nu) 4, and the two subtractions 4: 40 in all.
#
# So where the computed value r at a point a exceeds E(a), the exact value at
# a, and at every alpha <= a, exceeds r - E(a); the computed sign at such an
# alpha is positive wherever E(alpha) < r - E(a). Likewise r < -E(a)
# certifies negative signs at alpha >= a wherever E(alpha) < -r - E(a).
ROUNDING_TERMS = 40
MAX_NEWTON_STEPS = 16
# Newton stops once |log_ratio| is this small; the probes aim from there on
# the last slope at log_ratio = +-PROBE_TARGET E, and re-aim, at most
# MAX_PROBES times a side, until a margin |r| - E of at least E certifies
# their side near the root.
NEWTON_RESIDUAL = 1e-6
PROBE_TARGET = 3.0
MAX_PROBES = 3
# The Newton pass stays between the smallest normal float and the largest
# power of two, where p^2 + alpha is finite with room to spare for exp's
# rounding; no sign above 2^1023 is certified.
X_MIN = math.log(sys.float_info.min)
X_MAX = (sys.float_info.max_exp - 1) * math.log(2.0)

# The "solves" of this process, and their quadratures (new _Means entries) by
# phase: "newton" (Newton pass and probes), "bisection" (bracket and replay)
# and "polish" (polish and final design). The flatness verdict, kept per
# response, is not counted: its cost depends on how cells split across workers.
SOLVE_COUNTS = collections.Counter()


def db(ratio: float) -> float:
    """Power quantity in decibels: 10*log10(ratio)."""
    return 10.0 * math.log10(ratio)


@dataclass(frozen=True)
class OptimalDesign:
    """The scalars of the optimal design; its shaper is built from them, as
    ``optimal_shaper(alpha_opt, p)``, where it is read."""

    alpha_opt: float
    theta_opt: float  # theta(alpha_opt), the shaper's scale
    distortion: float  # output MSE per unit input variance
    norm_r_sq: float  # ||r||^2 of the optimal shaper r
    n_of_alpha: float  # ||p * r||^2


def _levels(bits: int) -> int:
    """2^bits - 1: the steps between a b-bit mid-rise quantizer's extreme
    levels, which span 2 * saturation; ValueError beyond 1023 bits, where it
    is no float."""
    if bits < 1 or int(bits) != bits:
        raise ValueError("bits must be a positive integer")
    if bits > 1023:
        raise ValueError(f"2^bits - 1 is beyond the float range at {bits} bits")
    return (1 << int(bits)) - 1


def _nu(gamma: float) -> float:
    """nu = gamma + 1, after the checks that gamma is positive and that nu
    exceeds 1, which it does not below gamma = 2^-53: the one noise-ratio
    rule."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    nu = gamma + 1.0
    if not nu > 1.0:  # gamma below 2^-53, or NaN
        raise ValueError(f"nu must exceed 1, got {nu}")
    return nu


def gamma_from_bits(bits: int, loading_factor: float) -> float:
    """Noise-ratio gamma = sigma_u^2/sigma_w^2 for a b-bit mid-rise quantizer
    under the white uniform-error model (sigma_w^2 = d^2/12) with saturation
    at loading_factor standard deviations of the input; ValueError where
    gamma is beyond the float range or nu = gamma + 1 rounds to 1."""
    levels = _levels(bits)
    if loading_factor <= 0:
        raise ValueError("loading_factor must be positive")
    square = loading_factor * loading_factor
    gamma = 3.0 * levels * levels / square if square > 0 else math.inf
    if gamma == math.inf:
        raise ValueError(f"gamma is beyond the float range at {bits} bits and loading factor {loading_factor!r}")
    _nu(gamma)
    return gamma


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return alpha


def _check_problem(p: AmplitudeResponse, gamma: float) -> float:
    """nu = gamma + 1, after the checks of a design's plant response and
    noise ratio gamma."""
    nu = _nu(gamma)
    if not np.any(p.values > 0) and not (p.edges and p.edges[0] > 0):  # samples, or the limit below the cutoff
        raise ValueError("plant response must not be identically zero")
    peak = max([float(np.max(p.values)), *p.edges])
    if not peak < MAX_PLANT_AMPLITUDE:
        raise ValueError(
            f"plant response peak {peak:.6g} is too large: the design integrates p^2,"
            f" which needs p below {MAX_PLANT_AMPLITUDE:.6g}"
        )
    return nu


def balanced_mse(shaped: float, norm_sq: float, gamma: float) -> float:
    """The variance balance shaped / (nu - norm_sq), nu = gamma + 1: the output
    MSE per unit input variance of a unity-head shaper r with ||r||^2 =
    norm_sq and ||p*r||^2 = shaped; inf where the shaper is infeasible
    (norm_sq >= nu) or the quotient overflows."""
    nu = gamma + 1.0
    return shaped / (nu - norm_sq) if norm_sq < nu else math.inf


def _power(p: AmplitudeResponse) -> AmplitudeResponse:
    """p^2 with squared edge limits, on p's grid: squared once per solve, it
    is what every design integrand reads."""
    return p.with_values(p.values * p.values, *(edge * edge for edge in p.edges))


# The design integrands as functions of p^2 and s = p^2 + alpha, each one
# ufunc call (into `out` when given): "log" has mean ln(theta^2), "fraction"
# (in [0, 1]) the negative log-log slope of theta^2(alpha)/alpha, and
# "inverse" the mean ||r_alpha||^2 / theta^2.
_INTEGRANDS = {
    "log": lambda v2, s, out=None: np.log(s, out=out),
    "fraction": lambda v2, s, out=None: np.divide(v2, s, out=out),
    "inverse": lambda v2, s, out=None: np.divide(1.0, s, out=out),
}


class _Means:
    """The design means on one plant, kept by (alpha, integrand), so a
    revisited alpha costs no quadrature.

    A mean fills one buffer the size of the grid with p^2 + alpha and maps
    it in place through the integrand. The samples in p^2's trailing run of
    exact zeros (the stopband of an oversampled plant) all take the
    integrand's value at p^2 = 0, evaluated on one element.
    """

    def __init__(self, p2: AmplitudeResponse):
        nonzero = p2.values != 0.0
        self.p2 = p2
        self.live = len(nonzero) - int(np.argmax(nonzero[::-1])) if nonzero.any() else 0
        self.samples = np.empty_like(p2.values)
        self.kept = {}

    def __call__(self, alpha: float, kind: str) -> float:
        key = (alpha, kind)
        if key not in self.kept:
            integrand, live, v2, y = _INTEGRANDS[kind], self.live, self.p2.values[: self.live], self.samples
            integrand(v2, np.add(v2, alpha, out=y[:live]), out=y[:live])
            if live < len(y):
                y[live:] = integrand(np.zeros(1), np.full(1, alpha))
            self.kept[key] = band_mean(self.p2, lambda om, v2: integrand(v2, v2 + alpha), y)
        return self.kept[key]

    def theta(self, alpha: float) -> float:
        """theta(alpha) = exp(mean ln(p^2 + alpha) / 2)."""
        return math.exp(0.5 * self(alpha, "log"))

    def fraction_range(self, alpha: float) -> tuple[float, ...]:
        """Floats bracketing the computed "fraction" mean at alpha, from the
        nearest alpha where it is kept, or () if none is. Each computed mean
        lies within rounding_bound(n, 1) of its exact value (the samples lie
        in [0, 1]), and the exact mean moves by at most |d ln alpha| / 4,
        since p^2 alpha / (p^2 + alpha)^2 <= 1/4."""
        if (alpha, "fraction") in self.kept:
            return (self.kept[alpha, "fraction"],)
        known = [(a, mean) for (a, kind), mean in self.kept.items() if kind == "fraction"]
        if not known:
            return ()
        a, mean = min(known, key=lambda item: abs(math.log(item[0]) - math.log(alpha)))
        # |ln a - ln alpha| <= |a - alpha| / min(a, alpha), widened for its rounding
        spread = 2.0 * rounding_bound(len(self.samples), 1.0) + 0.25 * abs(a - alpha) / min(a, alpha) * (1.0 + 2.0**-40)
        return math.nextafter(mean - spread, -math.inf), math.nextafter(mean + spread, math.inf)


def _design_at(means: _Means, alpha: float, gamma: float) -> OptimalDesign:
    """The design's scalars with the shaper r_alpha, from the means on its plant."""
    theta = means.theta(alpha)
    norm_sq = theta**2 * means(alpha, "inverse")
    shaped = theta**2 * means(alpha, "fraction")
    return OptimalDesign(
        alpha_opt=alpha,
        theta_opt=theta,
        distortion=balanced_mse(shaped, norm_sq, gamma),
        norm_r_sq=norm_sq,
        n_of_alpha=shaped,
    )


def design_at(alpha: float, p: AmplitudeResponse, gamma: float) -> OptimalDesign:
    """The design at alpha on plant p at noise ratio gamma: theta(alpha), the
    scale that gives r_alpha = theta/sqrt(p^2 + alpha) zero log-mean,
    ||r_alpha||^2, ||p * r_alpha||^2 and their balanced_mse, which is inf
    where r_alpha is infeasible. At alpha_opt it is the solve's result."""
    _check_problem(p, gamma)
    return _design_at(_Means(_power(p)), _check_alpha(alpha), gamma)


def optimal_shaper(alpha: float, p: AmplitudeResponse) -> AmplitudeResponse:
    """theta(alpha)/sqrt(p^2 + alpha) on p's grid, the optimal shaper at
    alpha_opt; exactly 1 where p counts as constant (is_almost_constant)."""
    alpha = _check_alpha(alpha)
    if is_almost_constant(p):
        return constant_response(p.grid, 1.0)
    p2 = _power(p)
    theta = _Means(p2).theta(alpha)
    # Edges square with **, the samples and _power with *: pow and a product
    # can differ in the last bit, and each keeps the bits it always had. The
    # samples are theta / sqrt(p^2 + alpha), formed in one buffer.
    values = np.add(p2.values, alpha)
    np.divide(theta, np.sqrt(values, out=values), out=values)
    return p.with_values(values, *(theta / math.sqrt(edge**2 + alpha) for edge in p.edges))


def _bisect(signed, lo: float, hi: float) -> tuple[float, float]:
    """Log-space bisection of [lo, hi], where signed(lo) > 0 >= signed(hi),
    down to a relative width ROOT_REL_TOL or MAX_BISECTION_STEPS steps.

    The midpoint is sqrt(lo * hi) while lo * hi is a normal float, and
    sqrt(lo) * sqrt(hi) where it is subnormal, zero or infinite: a
    subnormal product keeps too few bits to split the bracket.
    """
    for _ in range(MAX_BISECTION_STEPS):
        if hi / lo - 1.0 <= ROOT_REL_TOL:
            break
        prod = lo * hi
        mid = math.sqrt(prod) if sys.float_info.min <= prod < math.inf else math.sqrt(lo) * math.sqrt(hi)
        if signed(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def rounding_bound(n_points: int, log_bound: float) -> float:
    """E on an n-point grid: the bound on the rounding error of a computed
    log_ratio whose logarithms are at most `log_bound` in magnitude (see
    ROUNDING_TERMS)."""
    return ((n_points - 1).bit_length() + ROUNDING_TERMS) * 2.0**-53 * max(log_bound, 1.0)


def _log_bracket(p: AmplitudeResponse, gamma: float) -> tuple[float, float]:
    """The logarithms of the ends of the closed-form bracket

        exp(G) / nu^(1/beta) <= alpha_opt <= m / (nu^(1/beta) - 1),

    with m and G the in-band mean and log-mean of p^2 and beta the in-band
    fraction of [0, pi]. At the root, mean ln(1 + p^2/alpha) over the band
    is ln(nu)/beta; Jensen's inequality bounds that mean by ln(1 + m/alpha)
    from above, and its part G - ln(alpha) bounds it from below, short of it
    by about the band mean of alpha/p^2. The lower end is -inf where G is.
    """
    beta, m, g = band_power_means(p)
    log_k = math.log(_nu(gamma)) / beta  # ln(nu^(1/beta))
    upper = math.log(m) - log_k - math.log(-math.expm1(-log_k)) if m > 0.0 else math.nan
    return g - log_k, upper


def _newton_start(p: AmplitudeResponse, gamma: float) -> float:
    """x = ln(alpha) where the Newton pass starts: min(lower + z, upper) for the ends of
    ``_log_bracket`` and z = e^lower * H, H the in-band mean of 1/p^2, where z is at most 1/2;
    elsewhere the bracket's log-midpoint (its upper end where G = -inf, 0 where it is not finite).

    As 0 <= ln(1 + alpha/p^2) <= alpha/p^2, ln(alpha_opt) lies in [lower, lower + alpha_opt * H],
    so where z is small the start is within about z^2 of the root. Only the Newton pass starts
    here: the replay's result does not depend on it."""
    lower, upper = _log_bracket(p, gamma)
    z = math.exp(lower) * band_inverse_power_mean(p)  # inf or nan where p^2 has a zero or 1/p^2 overflows
    if z <= 0.5:
        x = min(lower + z, upper)
    else:
        x = upper if lower == -math.inf else 0.5 * (lower + upper)
    return min(max(x, X_MIN), X_MAX) if math.isfinite(x) else 0.0


def alpha_below_normal(p: AmplitudeResponse, gamma: float) -> bool:
    """True where ``_log_bracket`` puts alpha_opt below the smallest normal float, which no solve
    brackets: its lower end, tight where p^2 is far above alpha, or its upper end where G = -inf."""
    lower, upper = _log_bracket(p, gamma)
    return (upper if lower == -math.inf else lower) < X_MIN


def _certificates(log_ratio, slope, bound, x: float) -> dict[float, list[tuple[float, float]]]:
    """Sign certificates by side: for +1, the points a where the computed
    log_ratio r exceeds bound(a), with their margins r - bound(a); for -1,
    those where -r exceeds it, with margins -r - bound(a).

    A bounded Newton pass in x = ln(alpha) from `x` finds the root, then one
    probe on each side aims at log_ratio = +-PROBE_TARGET * bound, re-aiming
    from a miss. Every point evaluated on the way that clears the bound is a
    certificate. Without any the replay evaluates every sign.
    """
    held = {1.0: [], -1.0: []}

    def probe(x: float) -> tuple[float, float]:
        # log_ratio at e^x, and its margin over the bound (negative if none)
        alpha = math.exp(x)
        r = log_ratio(alpha)
        side = 1.0 if r > 0.0 else -1.0
        err = bound(alpha)
        if side * r > err:
            held[side].append((alpha, side * r - err))
        return r, side * r - 2.0 * err

    def step(x: float, r: float, target: float = 0.0) -> float:
        # Newton step from (x, r) towards log_ratio = target, on the last slope s
        return min(max(x - (r - target) / s, X_MIN), X_MAX)

    s = 0.0
    for _ in range(MAX_NEWTON_STEPS):
        r, _ = probe(x)
        if s < 0.0 and abs(r) <= NEWTON_RESIDUAL:
            break
        s = slope(math.exp(x))
        if s == 0.0:
            return held
        x_next = step(x, r)
        if x_next == x:
            break
        x = x_next
    else:
        return held
    for side in (1.0, -1.0):
        x_side, r_side = x, r
        for _ in range(MAX_PROBES):
            x_side = step(x_side, r_side, side * PROBE_TARGET * bound(math.exp(x_side)))
            r_side, spare = probe(x_side)
            if side * r_side > 0.0 and spare >= 0.0:
                break
    return held


def solve_min_mse(p: AmplitudeResponse, gamma: float, *, start: float | None = None) -> OptimalDesign:
    """Minimize the shaped-noise MSE over feasible shaping responses of the
    (oversampled) plant response p at noise ratio gamma: the design entry
    point, with gamma = gamma_from_bits(bits, loading_factor).

    Finds the root of theta^2(alpha)/alpha = nu by bracket expansion and
    log-space bisection (the quantity is strictly decreasing), then Newton
    polish; returns the design's scalars at that alpha.

    The bisection is replayed, not shortened: its loops run as written and
    end on the same bracket, but a sign certified by ``_certificates`` is
    taken without evaluating the integral. A certified sign is the sign the
    evaluation would return (see ROUNDING_TERMS), so every decision, the
    final bracket, the Newton polish from it and every field of the result
    are the same bits as with every sign evaluated; only signs within about
    PROBE_TARGET * E/|slope| of the root cost an integral. Every mean is kept
    per alpha for the rest of the solve. Each solve counts in SOLVE_COUNTS.

    ``start``, a positive finite alpha near the root that the caller already
    holds, replaces ``_newton_start`` as the Newton pass's start. Like that
    start, it moves only the cost of the solve, never its result.
    """
    nu = _check_problem(p, gamma)
    if start is not None and not 0.0 < start < math.inf:
        raise ValueError(f"start must be a positive finite alpha, got {start}")
    SOLVE_COUNTS["solves"] += 1

    if is_almost_constant(p):
        # Feedback cannot improve on a flat plant: the optimal shaper is 1.
        c_sq = l2_norm_sq(p)
        alpha = balanced_mse(c_sq, 1.0, gamma)
        return OptimalDesign(
            alpha_opt=alpha,
            theta_opt=math.sqrt(c_sq + alpha),
            distortion=alpha,
            norm_r_sq=1.0,
            n_of_alpha=c_sq,
        )

    p2 = _power(p)
    means = _Means(p2)
    log_nu = math.log(nu)
    peak = max([float(np.max(p2.values)), *p2.edges])

    def log_ratio(alpha: float) -> float:
        # ln(theta^2/alpha) - ln(nu); strictly decreasing in alpha
        return 2.0 * math.log(means.theta(_check_alpha(alpha))) - math.log(alpha) - log_nu

    def slope(alpha: float) -> float:
        # d log_ratio / d ln(alpha)
        return -means(alpha, "fraction")

    def bound(alpha: float) -> float:
        # E(alpha), see ROUNDING_TERMS
        return rounding_bound(p.grid.n_points, max(log_nu, abs(math.log(alpha)), abs(math.log(peak + alpha))))

    x_start = _newton_start(p, gamma) if start is None else min(max(math.log(start), X_MIN), X_MAX)
    held = _certificates(log_ratio, slope, bound, x_start)
    newton = len(means.kept)

    def signed(alpha: float) -> float:
        # a number with the sign of log_ratio(alpha), evaluated only where no
        # certificate covers alpha; alpha is checked as log_ratio would, so an
        # underflowed midpoint fails alike
        alpha = _check_alpha(alpha)
        err = bound(alpha)
        for side, certs in held.items():
            if any(side * (a - alpha) >= 0.0 and margin > err for a, margin in certs):
                return side
        return log_ratio(alpha)

    # alpha_opt grows with the plant's scale and falls with nu and with the
    # band limit: about 4e-74 at 16 bits and oversampling 8. Double up to the
    # largest power of two, then try ALPHA_MAX; halve down to the smallest
    # normal float.
    lo, hi = 1e-12, 1.0
    while not signed(hi) < 0:
        if hi == ALPHA_MAX:
            raise NumericalError("failed to bracket the optimal alpha from above")
        hi = min(2.0 * hi, ALPHA_MAX)
    while not signed(lo) > 0:
        lo /= 2.0
        if lo < sys.float_info.min:
            raise NumericalError("failed to bracket the optimal alpha from below")

    lo, hi = _bisect(signed, lo, hi)
    bisection = len(means.kept)

    # Newton polish. A step x - r/s rounds monotonically in s, so where both
    # ends of a range holding the computed slope give the same step, that is
    # the step, and the slope is not evaluated.
    x = 0.5 * (math.log(lo) + math.log(hi))
    for _ in range(4):
        alpha = math.exp(x)
        fractions = means.fraction_range(alpha)
        if fractions and fractions[0] > 0.0:
            r = log_ratio(alpha)
            steps = {min(max(x + r / f, math.log(lo) - 1.0), math.log(hi) + 1.0) for f in fractions}
            if len(steps) == 1:
                x = steps.pop()
                continue
        s = slope(alpha)
        if s == 0.0:
            break
        x -= log_ratio(alpha) / s
        x = min(max(x, math.log(lo) - 1.0), math.log(hi) + 1.0)

    design = _design_at(means, math.exp(x), gamma)
    SOLVE_COUNTS.update(newton=newton, bisection=bisection - newton, polish=len(means.kept) - bisection)
    if design.distortion == math.inf:
        raise NumericalError(
            f"solved design is infeasible: shaper norm^2 {design.norm_r_sq:.12g} >= nu {nu:.12g}"
        )
    return design


def collapse_residual(p_base: AmplitudeResponse, gamma: float, oversampling: int, distortion: float) -> float:
    """|D(nu, lam) - D(nu^lam, 1)| / D(nu, lam), given D(nu, lam) at nu =
    gamma + 1; at lam = 1 both sides are one problem, so it is 0 without a
    solve. The collapsed solve starts at D(nu, lam), which is its alpha_opt
    to within the residual."""
    if oversampling == 1:
        return 0.0
    collapsed = solve_min_mse(p_base, (gamma + 1.0) ** oversampling - 1.0, start=distortion).distortion
    return abs(distortion - collapsed) / distortion


def upper_bound(gamma: float, oversampling: int, p_base: AmplitudeResponse) -> float:
    """Closed-form distortion bound ||p||^2/(nu^lambda - 1), nu = gamma + 1;
    ||p||^2 is the norm of the non-oversampled base response."""
    return l2_norm_sq(p_base) / (_nu(gamma) ** oversampling_factor(oversampling) - 1.0)


@dataclass(frozen=True)
class RDRow:
    """One operating point of a rate-distortion sweep (MSEs per unit sigma_x^2)."""

    bits: int
    oversampling: int
    gamma: float
    design: OptimalDesign  # optimal error feedback on the bandlimited plant
    d_uniform: float  # no feedback (r = 1) on the same bandlimited plant
    bound: float  # closed-form upper bound
    identity_residual: float  # |D(nu,lam) - D(nu^lam,1)| / D(nu,lam)

    @property
    def distortion(self) -> float:
        return self.design.distortion

    @property
    def distortion_db(self) -> float:
        return db(self.distortion)

    @property
    def d_uniform_db(self) -> float:
        return db(self.d_uniform)

    @property
    def bound_db(self) -> float:
        return db(self.bound)

    @property
    def gain_db(self) -> float:
        """Advantage of optimal feedback over the uniform quantizer."""
        return db(self.d_uniform / self.distortion)


def rd_row(p_base: AmplitudeResponse, bits: int, oversampling: int, loading_factor: float) -> RDRow:
    """The rate-distortion row of one (bits, oversampling) cell. It also
    carries the relative residual of the oversampling collapse identity
    D(nu, lam) = D(nu^lam, 1), a cheap full-pipeline self-check."""
    gamma = gamma_from_bits(bits, loading_factor)
    p_lam = oversample_response(p_base, oversampling)
    design = solve_min_mse(p_lam, gamma)
    return RDRow(
        bits=bits,
        oversampling=oversampling,
        gamma=gamma,
        design=design,
        d_uniform=l2_norm_sq(p_lam) / gamma,
        bound=upper_bound(gamma, oversampling, p_base),
        identity_residual=collapse_residual(p_base, gamma, oversampling, design.distortion),
    )
