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
solve and theta is computed once at the optimum. The bisection keeps its
loops and its decisions, but most of its signs come from a certificate: in
x = ln(alpha), ln(theta^2/alpha) - ln(nu) is convex and decreasing, so a
short Newton pass finds the root and two probes beside it give alphas where
the computed value clears +-SIGN_TOL. SIGN_TOL exceeds twice the rounding
error of the computed value (see its comment), so every alpha left of the
left probe has a positive computed value and every alpha right of the right
probe a negative one. The replay takes those signs as known and evaluates
only the ones between the probes: the same signs, so the same bracket, the
same polish and the same design.

Oversampling by an integer factor bandlimits the plant response to
[0, pi/lambda]; the resulting distortion obeys the collapse identity
D(nu, lambda) = D(nu^lambda, 1) and the bound D <= ||p||^2/(nu^lambda - 1),
both of which are exercised by the verification suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericalError
from .spectral import (
    AmplitudeResponse,
    band_mean,
    constant_response,
    is_almost_constant,
    l2_norm_sq,
    log_geometric_mean,
    oversample_response,
)

# Tolerance below which a plant response counts as constant, triggering the
# degenerate branch where feedback cannot help and r = 1 is returned directly.
ALMOST_CONSTANT_TOL = 1e-9

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
# log_ratio is, in exact arithmetic on the computed samples,
#     (1/pi) sum_i w_i ln(p_i^2 + e^x) - x - ln(nu),
# where the quadrature weights w_i are fixed, nonnegative and sum to the float
# pi (every grid step is an exact float difference). So it is convex and
# nonincreasing in x. Its computed value differs from that by at most
#     E = (log2(n) + 24) u max|ln(p^2 + alpha)|,  u = 2^-53:
# a few u per sample for the add, log and products, log2(n) + 16 for numpy's
# pairwise sum, and a few for the exp, logs and subtractions after it. The
# replay evaluates normal floats only, where max|ln| <= 709.8, so E is
# about 3e-12 at n = 2^17 and below 7e-12 for any n below 2^60. Once the
# computed value at alpha_left exceeds SIGN_TOL >= 2E, the exact value
# exceeds E there and at every smaller alpha, so the computed sign is
# positive at all of them; likewise below -SIGN_TOL at alpha_right.
SIGN_TOL = 1e-9
MAX_NEWTON_STEPS = 16
# Newton stops once |log_ratio| is this small; the probes aim from there on
# the last slope and re-aim from a miss, at most MAX_PROBES times a side.
NEWTON_RESIDUAL = 1e-6
MAX_PROBES = 3
# The Newton pass stays between the smallest normal float and the largest
# power of two, where p^2 + alpha is finite with room to spare for exp's
# rounding; no sign above 2^1023 is certified.
X_MIN = math.log(sys.float_info.min)
X_MAX = (sys.float_info.max_exp - 1) * math.log(2.0)


def db(ratio: float) -> float:
    """Power quantity in decibels: 10*log10(ratio)."""
    return 10.0 * math.log10(ratio)


@dataclass(frozen=True)
class DesignProblem:
    """Plant amplitude response plus the quantizer noise-ratio gamma."""

    p: AmplitudeResponse
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not np.any(self.p.values > 0) and not (self.p.cutoff is not None and self.p.edge_below > 0):
            raise ValueError("plant response must not be identically zero")
        edges = () if self.p.cutoff is None else (self.p.edge_below, self.p.edge_above)
        peak = max([float(np.max(self.p.values)), *edges])
        if not peak < MAX_PLANT_AMPLITUDE:
            raise ValueError(
                f"plant response peak {peak:.6g} is too large: the design integrates p^2,"
                f" which needs p below {MAX_PLANT_AMPLITUDE:.6g}"
            )

    @property
    def nu(self) -> float:
        return self.gamma + 1.0


@dataclass(frozen=True)
class OptimalDesign:
    """Solution of the shaping optimization at the optimal regularization."""

    alpha_opt: float
    theta_opt: float
    r_opt: AmplitudeResponse
    distortion: float  # output MSE per unit input variance
    norm_r_sq: float  # ||r_opt||^2
    n_of_alpha: float  # ||p * r_opt||^2


@dataclass(frozen=True)
class QuantizerSpec:
    """Mid-rise quantizer geometry and its noise-ratio model.

    The saturation level and step obey 2L = (2^bits - 1)*d, and gamma is
    the white-noise model value 3*(2^bits - 1)^2 / loading_factor^2.
    """

    bits: int
    loading_factor: float
    step: float
    saturation: float
    gamma: float

    @classmethod
    def for_sigma_u(cls, bits: int, loading_factor: float, sigma_u: float = 1.0) -> "QuantizerSpec":
        """Size the quantizer so saturation = loading_factor * sigma_u."""
        gamma = gamma_from_bits(bits, loading_factor)
        if sigma_u <= 0:
            raise ValueError("sigma_u must be positive")
        saturation = loading_factor * sigma_u
        return cls(
            bits=int(bits),
            loading_factor=float(loading_factor),
            step=2.0 * saturation / _levels(bits),
            saturation=saturation,
            gamma=gamma,
        )


def _levels(bits: int) -> int:
    """2^bits - 1: the steps between a b-bit mid-rise quantizer's extreme
    levels, which span 2 * saturation."""
    if bits < 1 or int(bits) != bits:
        raise ValueError("bits must be a positive integer")
    return (1 << int(bits)) - 1


def gamma_from_bits(bits: int, loading_factor: float) -> float:
    """Noise-ratio gamma = sigma_u^2/sigma_w^2 for a b-bit mid-rise quantizer
    under the white uniform-error model (sigma_w^2 = d^2/12) with saturation
    at loading_factor standard deviations of the input."""
    levels = _levels(bits)
    if loading_factor <= 0:
        raise ValueError("loading_factor must be positive")
    return 3.0 * levels * levels / (loading_factor * loading_factor)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return alpha


def _power(p: AmplitudeResponse) -> AmplitudeResponse:
    """p^2 with squared edge limits, on p's grid: squared once per solve, it
    is what every design integrand reads."""
    if p.cutoff is None:
        return p.with_values(p.values * p.values)
    return p.with_values(p.values * p.values, p.edge_below * p.edge_below, p.edge_above * p.edge_above)


def _theta(alpha: float, p2: AmplitudeResponse) -> float:
    alpha = _check_alpha(alpha)
    return math.exp(0.5 * band_mean(p2, lambda om, v2: np.log(v2 + alpha)))


def _noise_fraction(alpha: float, p2: AmplitudeResponse) -> float:
    """Mean of p^2/(p^2+alpha) in (0, 1); also the negative log-log slope of
    theta^2(alpha)/alpha, used by the Newton steps."""
    return band_mean(p2, lambda om, v2: v2 / (v2 + alpha))


def _inverse_mean(alpha: float, p2: AmplitudeResponse) -> float:
    """Mean of 1/(p^2+alpha): ||r_alpha||^2 / theta^2."""
    return band_mean(p2, lambda om, v2: 1.0 / (v2 + alpha))


def _shaper(theta: float, alpha: float, p: AmplitudeResponse) -> AmplitudeResponse:
    # Edges square with **, the samples and _power with *: pow and a product
    # can differ in the last bit, and each keeps the bits it always had.
    values = theta / np.sqrt(p.values * p.values + alpha)
    if p.cutoff is None:
        return p.with_values(values)
    return p.with_values(values, theta / math.sqrt(p.edge_below**2 + alpha), theta / math.sqrt(p.edge_above**2 + alpha))


def geomean_amplitude(alpha: float, p: AmplitudeResponse) -> float:
    """theta(alpha): geometric-mean amplitude of sqrt(p^2 + alpha).

    This is the unique scale making the shaped response
    theta/sqrt(p^2+alpha) have zero log-mean.
    """
    return _theta(alpha, _power(p))


def shaped_noise_gain(alpha: float, p: AmplitudeResponse) -> float:
    """||p * r_alpha||^2: shaped-noise power per unit quantizer-error variance."""
    alpha = _check_alpha(alpha)
    p2 = _power(p)
    return _theta(alpha, p2) ** 2 * _noise_fraction(alpha, p2)


def shaper_norm_sq(alpha: float, p: AmplitudeResponse) -> float:
    """||r_alpha||^2: squared norm of the optimal shaping response."""
    alpha = _check_alpha(alpha)
    p2 = _power(p)
    return _theta(alpha, p2) ** 2 * _inverse_mean(alpha, p2)


def design_mse(alpha: float, prob: DesignProblem) -> float:
    """Output MSE per unit input variance using the shaper r_alpha."""
    alpha = _check_alpha(alpha)
    p2 = _power(prob.p)
    theta2 = _theta(alpha, p2) ** 2
    n_val = theta2 * _noise_fraction(alpha, p2)
    c_val = theta2 * _inverse_mean(alpha, p2)
    if c_val >= prob.nu:
        raise InfeasibleError(
            f"shaper norm^2 {c_val:.6g} is not below nu = {prob.nu:.6g} at alpha = {alpha:.6g}"
        )
    return n_val / (prob.nu - c_val)


def optimal_shaper(alpha: float, p: AmplitudeResponse) -> AmplitudeResponse:
    """The shaping response theta(alpha)/sqrt(p^2 + alpha) on p's grid."""
    alpha = _check_alpha(alpha)
    return _shaper(_theta(alpha, _power(p)), alpha, p)


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


def _certified_window(log_ratio, slope) -> tuple[float, float]:
    """(a_left, a_right) with log_ratio(alpha) certified positive for every
    alpha <= a_left and negative for every alpha >= a_right.

    A bounded Newton pass in x = ln(alpha) finds the root, then one probe on
    each side aims at log_ratio = +-2*SIGN_TOL, re-aiming from a miss. Every
    point evaluated on the way certifies its side when its computed
    log_ratio clears +-SIGN_TOL. Without any certificate the window is
    (0, inf) and every sign gets evaluated.
    """
    a_left, a_right = 0.0, math.inf

    def probe(x: float) -> float:
        nonlocal a_left, a_right
        alpha = math.exp(x)
        r = log_ratio(alpha)
        if r > SIGN_TOL:
            a_left = max(a_left, alpha)
        elif r < -SIGN_TOL:
            a_right = min(a_right, alpha)
        return r

    def step(x: float, r: float, target: float = 0.0) -> float:
        # Newton step from (x, r) towards log_ratio = target, on the last slope s
        return min(max(x - (r - target) / s, X_MIN), X_MAX)

    x, s = 0.0, 0.0
    for _ in range(MAX_NEWTON_STEPS):
        r = probe(x)
        if s < 0.0 and abs(r) <= NEWTON_RESIDUAL:
            break
        s = slope(math.exp(x))
        if s == 0.0:
            return a_left, a_right
        x_next = step(x, r)
        if x_next == x:
            break
        x = x_next
    else:
        return a_left, a_right
    for side in (1.0, -1.0):
        x_side, r_side = x, r
        for _ in range(MAX_PROBES):
            x_side = step(x_side, r_side, 2.0 * side * SIGN_TOL)
            r_side = probe(x_side)
            if side * r_side > SIGN_TOL:
                break
    return a_left, a_right


def solve_min_mse(prob: DesignProblem) -> OptimalDesign:
    """Minimize the shaped-noise MSE over feasible shaping responses.

    Finds the root of theta^2(alpha)/alpha = nu by bracket expansion and
    log-space bisection (the quantity is strictly decreasing), then Newton
    polish; returns the full design at that alpha.

    The bisection is replayed, not shortened: its loops run as written and
    end on the same bracket, but a sign certified by ``_certified_window``
    is taken without evaluating the integral. A certified sign is the sign
    the evaluation would return (see SIGN_TOL), so every decision, the final
    bracket, the Newton polish from it and every field of the result are
    the same bits as with every sign evaluated; only signs inside the
    window, a relative width of about 4*SIGN_TOL/|slope| around the root,
    cost an integral.
    """
    p, nu = prob.p, prob.nu

    if is_almost_constant(p, ALMOST_CONSTANT_TOL):
        # Feedback cannot improve on a flat plant: the optimal shaper is 1.
        c_sq = l2_norm_sq(p)
        alpha = c_sq / (nu - 1.0)
        return OptimalDesign(
            alpha_opt=alpha,
            theta_opt=math.sqrt(c_sq + alpha),
            r_opt=constant_response(p.grid, 1.0),
            distortion=alpha,
            norm_r_sq=1.0,
            n_of_alpha=c_sq,
        )

    p2 = _power(p)

    def log_ratio(alpha: float) -> float:
        # ln(theta^2/alpha) - ln(nu); strictly decreasing in alpha
        return 2.0 * math.log(_theta(alpha, p2)) - math.log(alpha) - math.log(nu)

    def slope(alpha: float) -> float:
        # d log_ratio / d ln(alpha)
        return -_noise_fraction(alpha, p2)

    a_left, a_right = _certified_window(log_ratio, slope)

    def signed(alpha: float) -> float:
        # a number with the sign of log_ratio(alpha), evaluated only inside the
        # window; alpha is checked as log_ratio would, so an underflowed
        # midpoint fails alike
        alpha = _check_alpha(alpha)
        if alpha <= a_left:
            return 1.0
        if alpha >= a_right:
            return -1.0
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

    x = 0.5 * (math.log(lo) + math.log(hi))
    for _ in range(4):
        alpha = math.exp(x)
        s = slope(alpha)
        if s == 0.0:
            break
        x -= log_ratio(alpha) / s
        x = min(max(x, math.log(lo) - 1.0), math.log(hi) + 1.0)
    alpha = math.exp(x)

    theta = _theta(alpha, p2)
    c_val = theta**2 * _inverse_mean(alpha, p2)
    n_val = theta**2 * _noise_fraction(alpha, p2)
    if c_val >= nu:
        raise NumericalError(
            f"solved design is infeasible: shaper norm^2 {c_val:.12g} >= nu {nu:.12g}"
        )
    return OptimalDesign(
        alpha_opt=alpha,
        theta_opt=theta,
        r_opt=_shaper(theta, alpha, p),
        distortion=n_val / (nu - c_val),
        norm_r_sq=c_val,
        n_of_alpha=n_val,
    )


def design_for_nu(p_base: AmplitudeResponse, nu: float, oversampling: int = 1) -> OptimalDesign:
    """Solve the design at a given nu on the oversampled plant response: the
    design entry point, with nu = gamma_from_bits(bits, loading_factor) + 1."""
    if nu <= 1:
        raise ValueError(f"nu must exceed 1, got {nu}")
    p_lam = oversample_response(p_base, oversampling)
    return solve_min_mse(DesignProblem(p=p_lam, gamma=nu - 1.0))


def collapse_residual(p_base: AmplitudeResponse, nu: float, oversampling: int, distortion: float) -> float:
    """|D(nu, lam) - D(nu^lam, 1)| / D(nu, lam), given D(nu, lam); at lam = 1
    both sides are one problem, so it is 0 without a solve."""
    if oversampling == 1:
        return 0.0
    collapsed = design_for_nu(p_base, nu**oversampling, 1).distortion
    return abs(distortion - collapsed) / distortion


def upper_bound(nu: float, oversampling: int, p_base: AmplitudeResponse) -> float:
    """Closed-form distortion bound ||p||^2/(nu^lambda - 1); ||p||^2 is the
    norm of the non-oversampled base response."""
    if nu <= 1:
        raise ValueError(f"nu must exceed 1, got {nu}")
    if oversampling < 1 or int(oversampling) != oversampling:
        raise ValueError("oversampling factor must be a positive integer")
    return l2_norm_sq(p_base) / (nu ** int(oversampling) - 1.0)


@dataclass(frozen=True)
class RDRow:
    """One operating point of a rate-distortion sweep (MSEs per unit sigma_x^2)."""

    bits: int
    oversampling: int
    gamma: float
    distortion: float  # optimal error feedback
    d_uniform: float  # no feedback (r = 1) on the same bandlimited plant
    bound: float  # closed-form upper bound
    identity_residual: float  # |D(nu,lam) - D(nu^lam,1)| / D(nu,lam)

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


def rd_curve(
    p_base: AmplitudeResponse,
    bits_list: list[int],
    lambda_list: list[int],
    loading_factor: float,
) -> list[RDRow]:
    """Rate-distortion table over the (bits, oversampling) product grid.

    Rows are ordered by bits, then oversampling factor. Each row also
    carries the relative residual of the oversampling collapse identity
    D(nu, lam) = D(nu^lam, 1), a cheap full-pipeline self-check.
    """
    if not bits_list or not lambda_list:
        raise ValueError("bits_list and lambda_list must be nonempty")
    rows = []
    for bits in sorted(set(int(b) for b in bits_list)):
        gamma = gamma_from_bits(bits, loading_factor)
        nu = gamma + 1.0
        for lam in sorted(set(int(v) for v in lambda_list)):
            design = design_for_nu(p_base, nu, lam)
            p_lam = oversample_response(p_base, lam)
            rows.append(
                RDRow(
                    bits=bits,
                    oversampling=lam,
                    gamma=gamma,
                    distortion=design.distortion,
                    d_uniform=l2_norm_sq(p_lam) / gamma,
                    bound=upper_bound(nu, lam, p_base),
                    identity_residual=collapse_residual(p_base, nu, lam, design.distortion),
                )
            )
    return rows
