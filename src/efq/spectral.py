"""Frequency grids, amplitude responses, and band-aware quadrature.

Everything downstream (optimal design, filter fitting, reporting) consumes
``AmplitudeResponse`` objects: nonnegative magnitude samples on a uniform
grid over [0, pi]. Responses of real-coefficient filters are even in omega,
so integrals over the full circle are twice the half-band integral and only
[0, pi] is stored.

Oversampled (bandlimited) responses jump discontinuously to a constant at
the band edge omega_c = pi/lambda. A plain trapezoid rule across that jump
loses ~4 digits at the default grid, so ``AmplitudeResponse`` optionally
carries the jump location together with both one-sided limits, and
``band_integral`` splits the quadrature there: trapezoid up to the last
in-band node, an exact partial cell on each side of the jump, then
trapezoid over the remaining nodes. For the integrands used here the
stopband section is constant, making that part of the rule exact.

The nodes ``linspace(0, pi, n)`` and their steps ``diff(nodes)`` are built
once per grid size and shared read-only by every ``FrequencyGrid`` of that
size, as are the tables cos(k*omega) of ``power_cosine_moment``;
``band_integral`` evaluates numpy's trapezoid expression on the cached
steps in a single temporary, so each quadrature returns the same bits as
``np.trapezoid`` on freshly built nodes. A caller that has already
evaluated the integrand on the grid (into a buffer it reuses) passes the
samples in, and only the two one-sided limits are evaluated here.

A response is immutable, so what depends on it alone is kept on it: its
band-limited dilation per oversampling factor, its flatness verdict and its
in-band power means are each computed once, however many bit depths solve
on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .transfer import ContinuousTF, RationalDiscreteTF, frequency_response

MIN_N_POINTS = 64
# Flatness below which a response counts as constant: feedback cannot help, so
# the design solve takes its closed form and the optimal shaper is r = 1.
ALMOST_CONSTANT_TOL = 1e-9


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid over [0, pi], endpoints included."""

    n_points: int

    def __post_init__(self):
        if self.n_points < MIN_N_POINTS:
            raise ValueError(f"n_points must be at least {MIN_N_POINTS}, got {self.n_points}")

    @property
    def omegas(self) -> np.ndarray:
        """``np.linspace(0, pi, n_points)``, shared and read-only."""
        return _nodes(self.n_points)[0]


# A run uses a few grid sizes (the design grid and the verification grid at
# twice its size), so a small cache holds them all.
@functools.lru_cache(maxsize=4)
def _nodes(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only grid nodes and their steps ``diff(nodes)`` for one grid size."""
    nodes = np.linspace(0.0, np.pi, n_points)
    steps = np.diff(nodes)
    nodes.setflags(write=False)
    steps.setflags(write=False)
    return nodes, steps


_cosines_asked: set[tuple[int, int]] = set()


def _cosines(n_points: int, lag: int) -> np.ndarray:
    """``np.cos(lag * omegas)`` for one grid size, kept read-only from its
    second use on: a fit reads the same few lags on every cell, while a
    single fit would only hold the memory."""
    if (n_points, lag) in _cosines_asked:
        return _cosine_table(n_points, lag)
    _cosines_asked.add((n_points, lag))
    return np.cos(lag * _nodes(n_points)[0])


@functools.lru_cache(maxsize=8)
def _cosine_table(n_points: int, lag: int) -> np.ndarray:
    table = np.cos(lag * _nodes(n_points)[0])
    table.setflags(write=False)
    return table


def _trapezoid(y: np.ndarray, steps: np.ndarray) -> float:
    """``np.trapezoid(y, x)`` for ``steps = diff(x)``, bit for bit.

    It evaluates numpy's expression ``(diff(x) * (y[1:] + y[:-1]) / 2.0).sum()``
    in the same order, in one temporary instead of four plus the fresh
    ``diff``. Halving is exact, so multiplying by 0.5 rounds as dividing by
    2.0 does, at a fraction of the cost.
    """
    terms = np.add(y[1:], y[:-1])
    np.multiply(steps, terms, out=terms)
    np.multiply(terms, 0.5, out=terms)
    return float(terms.sum())


@dataclass(frozen=True)
class AmplitudeResponse:
    """Nonnegative magnitude samples on a grid, with optional band-edge jump.

    ``values[i]`` is the response magnitude at ``grid.omegas[i]``. When the
    response has a jump discontinuity (bandlimited spectra), ``cutoff`` is
    its location and ``edge_below``/``edge_above`` are the one-sided limits;
    quadrature then splits at the cutoff instead of integrating across it.
    """

    grid: FrequencyGrid
    values: np.ndarray
    cutoff: float | None = None
    edge_below: float | None = None
    edge_above: float | None = None

    def __init__(self, grid: FrequencyGrid, values, cutoff=None, edge_below=None, edge_above=None):
        vals = np.array(values, dtype=float)  # copy: instances are immutable
        if vals.shape != (grid.n_points,):
            raise ValueError(f"values must have shape ({grid.n_points},), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("amplitude values must be finite")
        if np.any(vals < 0):
            idx = int(np.argmin(vals))
            raise ValueError(f"amplitude values must be nonnegative; values[{idx}] = {vals[idx]}")
        vals.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)
        if cutoff is not None:
            cutoff = float(cutoff)
            if not 0.0 < cutoff < np.pi:
                raise ValueError("cutoff must lie strictly inside (0, pi)")
            if edge_below is None or edge_above is None:
                raise ValueError("a cutoff requires both one-sided edge values")
            edge_below = float(edge_below)
            edge_above = float(edge_above)
            if not (math.isfinite(edge_below) and math.isfinite(edge_above)):
                raise ValueError("edge values must be finite")
            if edge_below < 0 or edge_above < 0:
                raise ValueError("edge values must be nonnegative")
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "edge_below", edge_below)
        object.__setattr__(self, "edge_above", edge_above)
        object.__setattr__(self, "_memo", {})

    def __reduce__(self):
        # Rebuilt through __init__, so a copy that crossed a process boundary
        # has read-only values and an empty memo.
        return AmplitudeResponse, (self.grid, self.values, self.cutoff, self.edge_below, self.edge_above)

    @property
    def edges(self) -> tuple[float, ...]:
        """The one-sided limits (edge_below, edge_above) at the cutoff; ()
        without one. A function of the response maps them as it maps the
        samples and passes them on as ``with_values(values, *edges)``."""
        return () if self.cutoff is None else (self.edge_below, self.edge_above)

    def with_values(self, values, *edges: float) -> "AmplitudeResponse":
        """Same grid and cutoff, new sample values (and matching edge limits)."""
        return AmplitudeResponse(self.grid, values, self.cutoff, *edges)


def _memoized(resp: AmplitudeResponse, key, compute: Callable[[], object]):
    """resp's memo entry `key`, from ``compute()`` on first use.

    An entry is a deterministic function of the immutable response, so a
    copy of the response in a forked worker computes the same bits as the
    parent; within a process the first value stored is the one every caller
    gets.
    """
    memo = resp._memo
    try:
        return memo[key]
    except KeyError:
        return memo.setdefault(key, compute())


def constant_response(grid: FrequencyGrid, value: float) -> AmplitudeResponse:
    return AmplitudeResponse(grid, np.full(grid.n_points, float(value)))


def band_integral(
    resp: AmplitudeResponse, fn: Callable[[np.ndarray, np.ndarray], np.ndarray], samples: np.ndarray | None = None
) -> float:
    """Integral over [0, pi] of fn(omega, p(omega)), split at the band edge.

    ``fn`` must be vectorized over numpy arrays and well defined at both
    one-sided limits of the cutoff. Without a cutoff this is a plain
    composite trapezoid rule. ``samples``, when given, must hold the bits of
    ``fn(omegas, resp.values)``; fn is then evaluated at the limits alone.
    """
    om, steps = _nodes(resp.grid.n_points)
    y = np.asarray(fn(om, resp.values), dtype=float) if samples is None else samples
    if resp.cutoff is None:
        return _trapezoid(y, steps)
    wc = resp.cutoff
    k = int(np.searchsorted(om, wc, side="right")) - 1  # last node with omega <= cutoff
    y_below = float(fn(np.asarray(wc), np.asarray(resp.edge_below)))
    y_above = float(fn(np.asarray(wc), np.asarray(resp.edge_above)))
    total = _trapezoid(y[: k + 1], steps[:k]) if k >= 1 else 0.0
    total += (wc - om[k]) * 0.5 * (y[k] + y_below)
    if k + 1 < len(om):
        total += (om[k + 1] - wc) * 0.5 * (y_above + y[k + 1])
        total += _trapezoid(y[k + 1 :], steps[k + 1 :])
    return float(total)


def band_mean(
    resp: AmplitudeResponse, fn: Callable[[np.ndarray, np.ndarray], np.ndarray], samples: np.ndarray | None = None
) -> float:
    """Mean over the full circle of the even integrand fn: band_integral/pi."""
    return band_integral(resp, fn, samples) / np.pi


def l2_norm_sq(resp: AmplitudeResponse) -> float:
    """Squared L2 norm (1/2pi) * integral over [-pi, pi] of p^2."""
    return band_mean(resp, lambda om, p: p * p)


def log_geometric_mean(resp: AmplitudeResponse) -> float:
    """(1/2pi) * integral over [-pi, pi] of ln p(omega).

    Requires strictly positive samples; callers regularize responses with
    zeros (by adding a positive offset under the square) before calling.
    """
    bad = np.flatnonzero(resp.values <= 0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"log_geometric_mean requires positive samples; values[{i}] = {resp.values[i]}")
    if any(edge <= 0 for edge in resp.edges):
        raise ValueError("log_geometric_mean requires positive one-sided edge values")
    return band_mean(resp, lambda om, p: np.log(p))


def power_cosine_moment(resp: AmplitudeResponse, lag: int) -> float:
    """Autocorrelation of the filter whose magnitude is `resp`:
    (1/2pi) * integral over [-pi, pi] of p^2(omega) cos(lag*omega)."""
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    v = resp.values
    return band_mean(resp, lambda om, p: p * p * np.cos(lag * om), v * v * _cosines(resp.grid.n_points, lag))


def amplitude_of_tf(tf: RationalDiscreteTF, grid: FrequencyGrid) -> AmplitudeResponse:
    """Magnitude response |H(e^{j*omega})| sampled on the grid."""
    return AmplitudeResponse(grid, np.abs(frequency_response(tf, grid.omegas)))


def filtered(resp: AmplitudeResponse, tf: RationalDiscreteTF, gain: np.ndarray | None = None) -> AmplitudeResponse:
    """resp times |tf(e^{j*omega})|: each sample times tf's gain at its node
    and each edge limit times its gain at the cutoff (a numpy scalar's abs,
    which can differ from np.abs in the last bit). ``gain``, when given,
    must hold the bits of |tf| at the nodes."""
    if gain is None:
        gain = np.abs(frequency_response(tf, resp.grid.omegas))
    edge_gain = abs(tf.eval(np.exp(-1j * resp.cutoff))) if resp.edges else None
    return resp.with_values(resp.values * gain, *(edge * edge_gain for edge in resp.edges))


def oversample_response(resp: AmplitudeResponse, oversampling: int) -> AmplitudeResponse:
    """Bandlimit-and-dilate: p(lambda*omega) below pi/lambda, zero above.

    Linear interpolation resamples p onto the compressed band; the returned
    response keeps the same grid and records the band-edge jump so that
    downstream quadrature stays accurate. It is built once per response and
    factor.
    """
    lam = oversampling_factor(oversampling)
    if lam == 1:
        return resp
    if resp.cutoff is not None:
        raise ValueError("response is already bandlimited; oversample the base response instead")
    return _memoized(resp, ("oversample", lam), lambda: _dilate(resp, lam))


def _dilate(resp: AmplitudeResponse, lam: int) -> AmplitudeResponse:
    return _band_limited(resp.grid, lam, lambda w: np.interp(w, resp.grid.omegas, resp.values))


def oversampling_factor(oversampling) -> int:
    """The oversampling factor as an int (2.0 is 2); ValueError unless a positive integer."""
    if oversampling < 1 or int(oversampling) != oversampling:
        raise ValueError("oversampling factor must be a positive integer")
    return int(oversampling)


def _band_limited(grid: FrequencyGrid, lam: int, amplitude: Callable[[np.ndarray], np.ndarray]) -> AmplitudeResponse:
    """amplitude(lam*omega) below the cutoff pi/lam and 0 above it, with
    amplitude(pi) as the limit below the cutoff: a band-limited response."""
    om = grid.omegas
    wc = np.pi / lam
    values = np.zeros_like(om)
    in_band = om <= wc
    values[in_band] = amplitude(lam * om[in_band])
    return AmplitudeResponse(grid, values, cutoff=wc, edge_below=float(amplitude(np.pi)), edge_above=0.0)


def ct_frequency_map(
    plant: ContinuousTF, oversampling: int, grid: FrequencyGrid
) -> AmplitudeResponse:
    """Amplitude response |P(j*lambda*omega/T)| below pi/lambda, zero above.

    This is the exact frequency-axis map of the analog plant onto the
    oversampled digital band; the oversampled sampling period is
    T/lambda, so digital omega corresponds to analog lambda*omega/T.
    """
    lam = oversampling_factor(oversampling)

    def amplitude(w):
        return np.abs(plant.eval(1j * w / plant.sample_period))

    return AmplitudeResponse(grid, amplitude(grid.omegas)) if lam == 1 else _band_limited(grid, lam, amplitude)


def band_power_means(resp: AmplitudeResponse) -> tuple[float, float, float]:
    """(beta, m, G) over the nodes at or below the cutoff (every node without
    one): beta = cutoff/pi (1 without one), m the plain mean of p^2 and G
    that of ln p^2 (-inf where p^2 has a zero there). Kept per response."""
    return _memoized(resp, "band_power_means", lambda: _band_power_means(resp))[:3]


def band_inverse_power_mean(resp: AmplitudeResponse) -> float:
    """H, the plain mean of 1/p^2 over the nodes of ``band_power_means``: inf
    where p^2 has a zero there or the mean overflows. Kept beside (beta, m, G)."""
    return _memoized(resp, "band_power_means", lambda: _band_power_means(resp))[3]


def _band_power_means(resp: AmplitudeResponse) -> tuple[float, float, float, float]:
    if resp.cutoff is None:
        beta, v = 1.0, resp.values
    else:
        beta, v = resp.cutoff / np.pi, resp.values[resp.grid.omegas <= resp.cutoff]
    v2 = v * v
    peak = float(np.max(v2))
    mean = peak * float(np.mean(v2 / peak)) if peak > 0.0 else 0.0  # a sum of p^2 near 2^1022 would overflow
    if not np.all(v2 > 0.0):
        return beta, mean, -math.inf, math.inf
    log_mean = float(np.mean(np.log(v2)))
    with np.errstate(over="ignore"):  # 1/p^2 of a subnormal p^2, or their sum, may overflow to inf
        inverse_mean = float(np.mean(np.divide(1.0, v2, out=v2)))
    return beta, mean, log_mean, inverse_mean


def is_almost_constant(resp: AmplitudeResponse) -> bool:
    """True when the normalized self-weighted absolute deviation from the
    mean, integral of |p - mean(p)|*p over integral of p^2, is below
    ALMOST_CONSTANT_TOL. The verdict is kept per response."""
    return _memoized(resp, "almost_constant", lambda: _flatness_below(resp))


def _flatness_below(resp: AmplitudeResponse) -> bool:
    denom = band_integral(resp, lambda om, p: p * p)
    if denom == 0.0:
        return True
    mean = band_integral(resp, lambda om, p: p) / np.pi
    dev = band_integral(resp, lambda om, p: np.abs(p - mean) * p)
    return dev / denom < ALMOST_CONSTANT_TOL
