"""Realizable shaping-filter synthesis.

Two routes from an ideal shaping response to an implementable filter:

* ``yule_walker_fit`` — classic autocorrelation-domain magnitude fit: fit an
  all-pole model by Levinson-Durbin, then fit a moving-average numerator to
  the residual spectrum and spectral-factor it to minimum phase. Produces a
  stable IIR filter of the requested order, head-normalized.

* ``norm_constrained_fir`` — exact solution of the constrained problem
  "minimize ||P*R||^2 over FIR R with unity head and ||R||^2 <= budget".
  With free taps x the objective is a convex quadratic built from the
  autocorrelation of the plant, and the norm cap is a sphere: a
  trust-region-style subproblem solved exactly through an eigendecomposition
  and a secular equation in the Lagrange multiplier.

``evaluate_fit`` scores any candidate filter against a plant response and
noise ratio, producing the same MSE functional the designer minimizes;
``fit_cell`` runs either route on one design cell and scores it, and
``fir_kkt_residuals`` certifies a ``norm_constrained_fir`` result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import _nu, balanced_mse, db, optimal_shaper
from .errors import NumericalError
from .spectral import AmplitudeResponse, filtered, l2_norm_sq, power_cosine_moment
from .transfer import RationalDiscreteTF, frequency_response

# Spectral-factorization roots this close to the unit circle are snapped
# inside to radius 1 - SNAP_TOL to avoid marginally unstable numerators.
SNAP_TOL = 1e-8


@dataclass(frozen=True)
class FitReport:
    """A shaping filter scored by ``evaluate_fit``, the one place it is built.

    ``achieved_mse``/``ideal_mse`` are per unit input variance (``ideal_mse``
    NaN where none was given). ``feasible`` means the variance balance is
    finite: the filter norm is strictly inside the feasibility region of the
    evaluated noise ratio. ``kkt_multiplier`` is only set on the
    norm-constrained FIR path (0 when the cap is slack).
    """

    fitted: RationalDiscreteTF
    achieved_mse: float
    ideal_mse: float
    norm_sq: float
    feasible: bool
    kkt_multiplier: float | None = None

    @property
    def loss_db(self) -> float:
        """Realizability loss achieved/ideal in dB; inf for an infeasible fit
        or an ideal MSE that is not positive."""
        if math.isfinite(self.achieved_mse) and self.ideal_mse > 0:
            return db(self.achieved_mse / self.ideal_mse)
        return math.inf


def normalize_head(filt: RationalDiscreteTF) -> RationalDiscreteTF:
    """Scale the numerator so the impulse response starts with exactly 1."""
    head = filt.num[0] / filt.den[0]
    if head == 0:
        raise ValueError("cannot normalize a filter whose impulse response starts at zero")
    return RationalDiscreteTF(tuple(c / head for c in filt.num), filt.den)


def levinson(autocorr: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    """Solve the Toeplitz normal equations by Levinson-Durbin.

    Returns the monic prediction polynomial a[0..order] (ascending delay)
    and the final prediction-error power. Reflection coefficients stay in
    (-1, 1) for a valid autocorrelation, which keeps all roots strictly
    inside the unit circle.
    """
    autocorr = np.asarray(autocorr, dtype=float)
    if len(autocorr) < order + 1:
        raise ValueError("need order+1 autocorrelation lags")
    err = autocorr[0]
    if err <= 0:
        raise NumericalError(f"autocorrelation lag 0 must be positive, got {err}")
    a = np.zeros(order + 1)
    a[0] = 1.0
    for i in range(1, order + 1):
        acc = autocorr[i]
        for j in range(1, i):
            acc += a[j] * autocorr[i - j]
        k = -acc / err
        new = a.copy()
        for j in range(1, i):
            new[j] = a[j] + k * a[i - j]
        new[i] = k
        a = new
        err *= 1.0 - k * k
        if err <= 0:
            raise NumericalError(f"prediction error became nonpositive at stage {i}")
    return a, float(err)


def _minimum_phase_from_autocorr(q: np.ndarray) -> np.ndarray:
    """Monic minimum-phase coefficients whose autocorrelation matches q up to
    scale, by root selection of the symmetric lag polynomial."""
    q = np.asarray(q, dtype=float)
    m = len(q) - 1
    tol = 1e-13 * abs(q[0])
    while m > 0 and abs(q[m]) < tol:
        m -= 1
    if m == 0:
        return np.array([1.0])
    # Truncating an autocorrelation can leave a trig polynomial that dips
    # below zero, which has no exact factorization (odd-order roots land on
    # the unit circle and break conjugate selection). Load lag 0 just enough
    # to keep the spectrum strictly positive; the bias is a flat noise floor
    # of the same (tiny) size.
    omegas = np.linspace(0.0, np.pi, max(1024, 64 * m))
    spectrum = q[0] + 2.0 * sum(q[k] * np.cos(k * omegas) for k in range(1, m + 1))
    floor = 1e-10 * q[0]
    spec_min = float(spectrum.min())
    if spec_min < floor:
        q = q.copy()
        q[0] += 1.05 * (floor - spec_min)
    qq = q[: m + 1] / q[0]  # scale out to keep the companion matrix tame
    # Symmetric Laurent polynomial q_m z^m + ... + q_0 + ... + q_m z^-m,
    # multiplied by z^m: coefficients [q_m ... q_0 ... q_m], descending.
    coeffs = np.concatenate([qq[::-1], qq[1:]])
    roots = np.roots(coeffs)
    # Roots pair as (r, 1/conj(r)); keeping the m of smallest magnitude picks
    # the in-circle member of each pair (equivalently reflects the other in).
    order_idx = np.lexsort((np.angle(roots), np.abs(roots)))
    selected = roots[order_idx][:m]
    mags = np.abs(selected)
    snap = mags > 1.0 - SNAP_TOL
    if np.any(snap):
        selected = selected.copy()
        selected[snap] *= (1.0 - SNAP_TOL) / mags[snap]
    c = np.poly(selected)
    imag_resid = float(np.max(np.abs(c.imag))) if np.iscomplexobj(c) else 0.0
    real_scale = float(np.max(np.abs(c.real)))
    if imag_resid > 1e-6 * real_scale:
        raise NumericalError(
            f"spectral factorization produced complex coefficients (residual {imag_resid:.3g})"
        )
    return np.real(c)


def yule_walker_fit(target: AmplitudeResponse, order: int) -> RationalDiscreteTF:
    """Stable IIR magnitude fit of a strictly positive target response.

    Autocorrelation lags of the target power spectrum feed Levinson-Durbin
    for the denominator; the residual spectrum (target power times |A|^2)
    is fitted as a moving-average part and spectral-factored for the
    numerator; the result is head-normalized.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > target.grid.n_points / 4:
        raise ValueError(
            f"order {order} too high for a {target.grid.n_points}-point grid (limit n/4)"
        )
    if np.min(target.values) <= 0 or any(edge <= 0 for edge in target.edges):
        raise ValueError("target response must be strictly positive")

    rho = np.array([power_cosine_moment(target, k) for k in range(order + 1)])
    a, _ = levinson(rho, order)

    # Residual spectrum: target power times |A|^2, as an amplitude response.
    residual = filtered(target, RationalDiscreteTF(a))
    q = np.array([power_cosine_moment(residual, k) for k in range(order + 1)])
    c = _minimum_phase_from_autocorr(q)
    energy = float(np.dot(c, c))
    if energy <= 0:
        raise NumericalError("degenerate numerator in magnitude fit")
    num = c * math.sqrt(max(q[0], 0.0) / energy)
    fitted = RationalDiscreteTF(num, a)
    return normalize_head(fitted)


def gram_autocorrelations(
    plant: RationalDiscreteTF | AmplitudeResponse, max_lag: int
) -> np.ndarray:
    """Autocorrelation lags 0..max_lag of the plant impulse response.

    These are the inner products <z^-i P, z^-j P> at lag |i-j| that build
    the quadratic form of the norm-constrained fit. A FIR plant uses its
    taps directly; amplitude responses use cosine moments of the power
    spectrum, which is the same quantity by Parseval and the only exact
    route for bandlimited responses. An IIR plant is refused: pass its
    amplitude response instead.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if isinstance(plant, AmplitudeResponse):
        return np.array([power_cosine_moment(plant, k) for k in range(max_lag + 1)])
    if not plant.is_fir:
        raise ValueError("an IIR plant has no finite taps: fit its amplitude response (amplitude_of_tf) instead")
    g = np.asarray(plant.num, dtype=float)
    if len(g) < max_lag + 1:
        g = np.concatenate([g, np.zeros(max_lag + 1 - len(g))])
    return np.array([float(np.dot(g[: len(g) - k], g[k:])) for k in range(max_lag + 1)])


def _fir_quadratic_form(plant: RationalDiscreteTF | AmplitudeResponse, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) with ||P*R||^2 = rho(0) + 2b'x + x'Ax over the free taps x of
    R = 1 + x1 z^-1 + ... + x_order z^-order."""
    rho = gram_autocorrelations(plant, order)
    # A[i,j] = rho(|i-j|) for shifts 1..order; b[i] = rho(i) couples tap i to
    # the fixed unity head.
    idx = np.abs(np.subtract.outer(np.arange(order), np.arange(order)))
    return rho[idx], rho[1 : order + 1].copy()


def _norm(v: np.ndarray) -> float:
    """The 2-norm of v without overflow: np.linalg.norm(v) wherever that is
    finite, and the norm of v scaled by its largest magnitude where the sum
    of squares overflows (autocorrelations of a plant above about 1e77)."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm < math.inf:
        return norm
    scale = float(np.max(np.abs(v)))
    return scale * float(np.linalg.norm(v / scale))


def _solve_sphere_constrained_quadratic(
    a_mat: np.ndarray, b_vec: np.ndarray, radius_sq: float
) -> tuple[np.ndarray, float]:
    """Minimize x'Ax + 2b'x subject to ||x||^2 <= radius_sq for PSD A.

    Returns (x, multiplier). If the unconstrained minimizer fits inside the
    sphere the multiplier is 0; otherwise the multiplier solves the secular
    equation sum beta_i^2/(lam_i+mu)^2 = radius_sq by bisection plus Newton
    polish, and x sits exactly on the sphere.
    """
    eigvals, eigvecs = np.linalg.eigh(a_mat)
    scale = float(eigvals[-1]) if eigvals.size else 0.0
    if scale <= 0 and not np.allclose(b_vec, 0):
        raise NumericalError("quadratic form is degenerate but the linear term is not")
    if eigvals.size and eigvals[0] < -1e-10 * max(scale, 1.0):
        raise NumericalError(
            "autocorrelation matrix is not positive semidefinite "
            f"(eigenvalue span [{eigvals[0]:.3g}, {eigvals[-1]:.3g}])"
        )
    beta = eigvecs.T @ b_vec
    b_norm = _norm(b_vec)

    null = eigvals <= 1e-13 * max(scale, 1.0)
    if not np.any(null & (np.abs(beta) > 1e-13 * max(b_norm, 1.0))):
        # Unconstrained minimum-norm solution exists; take it if it fits.
        x_coeff = np.where(null, 0.0, -beta / np.where(null, 1.0, eigvals))
        if float(np.dot(x_coeff, x_coeff)) <= radius_sq * (1.0 + 1e-12):
            return eigvecs @ x_coeff, 0.0

    if radius_sq == 0.0:
        return np.zeros_like(b_vec), math.inf

    def norm_sq_at(mu: float) -> float:
        return float(np.sum((beta / (eigvals + mu)) ** 2))

    lo = 0.0
    hi = max(1.0, b_norm / math.sqrt(radius_sq))
    for _ in range(200):
        if norm_sq_at(hi) < radius_sq:
            break
        hi *= 2.0
    else:
        raise NumericalError("failed to bracket the constraint multiplier")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if norm_sq_at(mid) > radius_sq:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    for _ in range(3):
        f = norm_sq_at(mu) - radius_sq
        with np.errstate(over="ignore", invalid="ignore"):
            fp = -2.0 * float(np.sum(beta**2 / (eigvals + mu) ** 3))
        if not math.isfinite(fp):  # beta^2 overflowed: the same sum, each term formed in range
            q = beta / (eigvals + mu)
            fp = -2.0 * float(np.sum(q * q / (eigvals + mu)))
        if fp == 0:
            break
        candidate = mu - f / fp
        if not lo < candidate < hi:
            break
        mu = candidate
    x_coeff = -beta / (eigvals + mu)
    return eigvecs @ x_coeff, float(mu)


def norm_constrained_fir(
    plant: RationalDiscreteTF | AmplitudeResponse, order: int, norm_budget: float
) -> tuple[RationalDiscreteTF, float]:
    """Exact FIR minimizer of the shaped-noise power under a norm cap.

    Minimizes ||P*R||^2 over R = 1 + h1 z^-1 + ... + hM z^-M subject to
    ||R||^2 <= norm_budget, and returns R with the cap's multiplier (0 where
    the cap is slack).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if norm_budget < 1.0:
        raise ValueError("norm_budget below 1 admits no unity-head filter")
    a_mat, b_vec = _fir_quadratic_form(plant, order)
    x, mu = _solve_sphere_constrained_quadratic(a_mat, b_vec, norm_budget - 1.0)
    return RationalDiscreteTF(np.concatenate([[1.0], x])), mu


def fir_kkt_residuals(
    plant: RationalDiscreteTF | AmplitudeResponse, fitted: RationalDiscreteTF, mu: float, norm_budget: float
) -> tuple[float, float]:
    """KKT residuals of a ``norm_constrained_fir`` fit and multiplier mu
    against its plant and budget: stationarity |(A + mu I) x + b| / |b| and
    complementary slackness |mu (||x||^2 - (budget - 1))| / |b|, both free of
    the plant's scale. Both vanish at the exact minimizer under the norm cap."""
    x = np.array(fitted.num[1:])
    a_mat, b_vec = _fir_quadratic_form(plant, len(x))
    scale = max(_norm(b_vec), 1e-300)
    stationarity = _norm(a_mat @ x + mu * x + b_vec) / scale
    return stationarity, abs(mu * (float(np.dot(x, x)) - (norm_budget - 1.0))) / scale


def shaped_noise_norm_sq(tf: RationalDiscreteTF, p: AmplitudeResponse) -> tuple[float, float]:
    """(||p*R||^2, ||R||^2) for a candidate filter against a plant response."""
    r_vals = np.abs(frequency_response(tf, p.grid.omegas))  # |R| at the nodes, evaluated once
    return l2_norm_sq(filtered(p, tf, r_vals)), l2_norm_sq(AmplitudeResponse(p.grid, r_vals))


def evaluate_fit(
    fit: RationalDiscreteTF,
    p: AmplitudeResponse,
    gamma: float,
    *,
    ideal_mse: float = math.nan,
    kkt_multiplier: float | None = None,
) -> FitReport:
    """Score a filter: MSE per unit input variance against plant p at the
    given noise ratio. Infeasible norms (||R||^2 >= gamma+1) are reported
    with feasible=False and infinite MSE rather than raised."""
    _nu(gamma)
    shaped_sq, norm_sq = shaped_noise_norm_sq(fit, p)
    achieved = balanced_mse(shaped_sq, norm_sq, gamma)
    return FitReport(
        fitted=fit,
        achieved_mse=achieved,
        ideal_mse=ideal_mse,
        norm_sq=norm_sq,
        feasible=achieved < math.inf,
        kkt_multiplier=kkt_multiplier,
    )


def fit_cell(
    method: str, order: int, p: AmplitudeResponse, gamma: float, alpha: float, norm_budget: float
) -> FitReport:
    """Fit one design cell's shaper on its (oversampled) plant p and score it
    against the design's MSE alpha: "qcqp" is ``norm_constrained_fir`` under
    the design's shaper norm ``norm_budget``, "yw" the ``yule_walker_fit`` of
    ``optimal_shaper(alpha, p)``."""
    if method == "qcqp":
        fir, mu = norm_constrained_fir(p, order, norm_budget)
        return evaluate_fit(fir, p, gamma, ideal_mse=alpha, kkt_multiplier=mu)
    if method == "yw":
        return evaluate_fit(yule_walker_fit(optimal_shaper(alpha, p), order), p, gamma, ideal_mse=alpha)
    raise ValueError(f"unknown fit method {method!r}")
