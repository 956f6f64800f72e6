"""Reference solver: the plain forms of efq's quadrature and root solve.

Nodes are built by ``np.linspace`` and integrated by ``np.trapezoid`` on
every call, p is squared inside every integrand, each helper computes theta
again, and the bisection evaluates every sign. efq caches the nodes,
squares p once per solve and replays the bisection with certified signs;
tests require it to reproduce this module bit for bit, failures included.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from efq.design import OptimalDesign
from efq.errors import NumericalError
from efq.spectral import AmplitudeResponse, constant_response

ALMOST_CONSTANT_TOL = 1e-9
ROOT_REL_TOL = 1e-12
MAX_BRACKET_STEPS = 200


class InfeasibleError(ValueError):
    """The shaper r_alpha is infeasible: its norm^2 is not below nu."""


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return alpha


def band_integral(resp: AmplitudeResponse, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    om = np.linspace(0.0, np.pi, resp.grid.n_points)
    y = np.asarray(fn(om, resp.values), dtype=float)
    if resp.cutoff is None:
        return float(np.trapezoid(y, om))
    wc = resp.cutoff
    k = int(np.searchsorted(om, wc, side="right")) - 1  # last node with omega <= cutoff
    y_below = float(fn(np.asarray(wc), np.asarray(resp.edge_below)))
    y_above = float(fn(np.asarray(wc), np.asarray(resp.edge_above)))
    total = float(np.trapezoid(y[: k + 1], om[: k + 1])) if k >= 1 else 0.0
    total += (wc - om[k]) * 0.5 * (y[k] + y_below)
    if k + 1 < len(om):
        total += (om[k + 1] - wc) * 0.5 * (y_above + y[k + 1])
        total += float(np.trapezoid(y[k + 1 :], om[k + 1 :]))
    return total


def band_mean(resp: AmplitudeResponse, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    return band_integral(resp, fn) / np.pi


def l2_norm_sq(resp: AmplitudeResponse) -> float:
    return band_mean(resp, lambda om, p: p * p)


def is_almost_constant(resp: AmplitudeResponse, tol: float = 1e-9) -> bool:
    if tol <= 0:
        raise ValueError("tol must be positive")
    denom = band_integral(resp, lambda om, p: p * p)
    if denom == 0.0:
        return True
    mean = band_integral(resp, lambda om, p: p) / np.pi
    dev = band_integral(resp, lambda om, p: np.abs(p - mean) * p)
    return dev / denom < tol


def geomean_amplitude(alpha: float, p: AmplitudeResponse) -> float:
    alpha = _check_alpha(alpha)
    return math.exp(0.5 * band_mean(p, lambda om, v: np.log(v * v + alpha)))


def shaped_noise_gain(alpha: float, p: AmplitudeResponse) -> float:
    alpha = _check_alpha(alpha)
    theta2 = geomean_amplitude(alpha, p) ** 2
    return theta2 * band_mean(p, lambda om, v: v * v / (v * v + alpha))


def shaper_norm_sq(alpha: float, p: AmplitudeResponse) -> float:
    alpha = _check_alpha(alpha)
    theta2 = geomean_amplitude(alpha, p) ** 2
    return theta2 * band_mean(p, lambda om, v: 1.0 / (v * v + alpha))


def _noise_fraction(alpha: float, p: AmplitudeResponse) -> float:
    return band_mean(p, lambda om, v: v * v / (v * v + alpha))


def design_mse(alpha: float, p: AmplitudeResponse, gamma: float) -> float:
    alpha = _check_alpha(alpha)
    nu = gamma + 1.0
    n_val = shaped_noise_gain(alpha, p)
    c_val = shaper_norm_sq(alpha, p)
    if c_val >= nu:
        raise InfeasibleError(
            f"shaper norm^2 {c_val:.6g} is not below nu = {nu:.6g} at alpha = {alpha:.6g}"
        )
    return n_val / (nu - c_val)


def optimal_shaper(alpha: float, p: AmplitudeResponse) -> AmplitudeResponse:
    alpha = _check_alpha(alpha)
    if is_almost_constant(p, ALMOST_CONSTANT_TOL):
        return constant_response(p.grid, 1.0)
    theta = geomean_amplitude(alpha, p)
    values = theta / np.sqrt(p.values * p.values + alpha)
    if p.cutoff is None:
        return AmplitudeResponse(p.grid, values)
    return AmplitudeResponse(
        p.grid,
        values,
        cutoff=p.cutoff,
        edge_below=theta / math.sqrt(p.edge_below**2 + alpha),
        edge_above=theta / math.sqrt(p.edge_above**2 + alpha),
    )


def solve_min_mse(p: AmplitudeResponse, gamma: float, *, start: float | None = None) -> OptimalDesign:
    # `start` only moves where efq's Newton pass begins, never its result: ignored here
    nu = gamma + 1.0

    if is_almost_constant(p, ALMOST_CONSTANT_TOL):
        c_sq = l2_norm_sq(p)
        alpha = c_sq / (nu - 1.0)
        return OptimalDesign(
            alpha_opt=alpha,
            theta_opt=math.sqrt(c_sq + alpha),
            distortion=alpha,
            norm_r_sq=1.0,
            n_of_alpha=c_sq,
        )

    def log_ratio(alpha: float) -> float:
        return 2.0 * math.log(geomean_amplitude(alpha, p)) - math.log(alpha) - math.log(nu)

    lo, hi = 1e-12, 1.0
    for _ in range(MAX_BRACKET_STEPS):
        if log_ratio(hi) < 0:
            break
        hi *= 2.0
    else:
        raise NumericalError("failed to bracket the optimal alpha from above")
    while not log_ratio(lo) > 0:
        lo /= 2.0
        if lo < sys.float_info.min:
            raise NumericalError("failed to bracket the optimal alpha from below")

    for _ in range(MAX_BRACKET_STEPS):
        if hi / lo - 1.0 <= ROOT_REL_TOL:
            break
        mid = math.sqrt(lo * hi)
        if log_ratio(mid) > 0:
            lo = mid
        else:
            hi = mid

    x = 0.5 * (math.log(lo) + math.log(hi))
    for _ in range(4):
        alpha = math.exp(x)
        slope = -_noise_fraction(alpha, p)
        if slope == 0.0:
            break
        x -= log_ratio(alpha) / slope
        x = min(max(x, math.log(lo) - 1.0), math.log(hi) + 1.0)
    alpha = math.exp(x)

    theta = geomean_amplitude(alpha, p)
    c_val = shaper_norm_sq(alpha, p)
    n_val = shaped_noise_gain(alpha, p)
    if c_val >= nu:
        raise NumericalError(
            f"solved design is infeasible: shaper norm^2 {c_val:.12g} >= nu {nu:.12g}"
        )
    return OptimalDesign(
        alpha_opt=alpha,
        theta_opt=theta,
        distortion=n_val / (nu - c_val),
        norm_r_sq=c_val,
        n_of_alpha=n_val,
    )
