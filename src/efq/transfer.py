"""Transfer-function containers, frequency responses and filtering.

Two immutable rational-filter types live here: ``ContinuousTF`` for the
analog plant model (polynomials in s, plus the sampling period of the
loop that drives it) and ``RationalDiscreteTF`` for discrete-time filters
(polynomials in z^-1, ascending delay). Helpers evaluate complex frequency
responses and run a filter over a signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Poles are accepted as stable only strictly inside the unit circle, with a
# guard band against root-finding round-off on marginally stable fits.
STABILITY_MARGIN = 1e-9


def _as_float_tuple(coeffs) -> tuple[float, ...]:
    try:
        arr = np.asarray(coeffs, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError("coefficient list contains non-finite values") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficient list must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficient list contains non-finite values")
    return tuple(float(c) for c in arr)


@dataclass(frozen=True)
class ContinuousTF:
    """Proper, stable rational function of s with an associated sampling period.

    Coefficients are in descending powers of s, matching the usual
    polynomial convention.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]
    sample_period: float

    def __init__(self, num, den, sample_period: float):
        object.__setattr__(self, "num", _as_float_tuple(num))
        object.__setattr__(self, "den", _as_float_tuple(den))
        object.__setattr__(self, "sample_period", float(sample_period))
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if len(self.num) > len(self.den):
            raise ValueError("transfer function must be proper (deg num <= deg den)")
        if self.den[0] == 0:
            raise ValueError("leading denominator coefficient must be nonzero")
        poles = np.roots(self.den)
        if poles.size and np.max(poles.real) >= 0:
            raise ValueError("continuous-time model must be stable (poles in the open left half-plane)")

    def eval(self, s: complex | np.ndarray) -> complex | np.ndarray:
        """Evaluate the rational function at (arrays of) complex s."""
        return np.polyval(self.num, s) / np.polyval(self.den, s)


@dataclass(frozen=True)
class RationalDiscreteTF:
    """Stable rational function of z^-1; coefficients ascending in delay.

    The representation is canonical: numerator and denominator are jointly
    scaled so den[0] == 1. FIR filters are the den == (1,) special case.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __init__(self, num, den=(1.0,)):
        num_t = _as_float_tuple(num)
        den_t = _as_float_tuple(den)
        if den_t[0] == 0:
            raise ValueError("leading denominator coefficient must be nonzero")
        if den_t[0] != 1.0:
            scale = den_t[0]
            num_t = tuple(c / scale for c in num_t)
            den_t = tuple(c / scale for c in den_t)
        object.__setattr__(self, "num", num_t)
        object.__setattr__(self, "den", den_t)
        if len(den_t) > 1:
            poles = np.roots(den_t)
            if poles.size and np.max(np.abs(poles)) >= 1.0 - STABILITY_MARGIN:
                raise ValueError(
                    "discrete-time filter must be stable "
                    f"(pole magnitude {np.max(np.abs(poles)):.12g} exceeds {1.0 - STABILITY_MARGIN})"
                )

    @property
    def order(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    @property
    def is_fir(self) -> bool:
        return len(self.den) == 1

    def eval(self, z_inv: complex | np.ndarray) -> complex | np.ndarray:
        """Evaluate at (arrays of) z^-1 values, e.g. z_inv = exp(-1j*omega)."""
        num = np.polyval(self.num[::-1], z_inv)
        den = np.polyval(self.den[::-1], z_inv)
        return num / den


def frequency_response(tf: RationalDiscreteTF, omegas: np.ndarray) -> np.ndarray:
    """Complex response H(e^{j*omega}) at the given radian frequencies."""
    z_inv = np.exp(-1j * np.asarray(omegas, dtype=float))
    return tf.eval(z_inv)


def linear_filter(num, den, x, zi=None):
    """``scipy.signal.lfilter(num, den, x, zi=zi)`` for den[0] == 1, bit for
    bit, without loading scipy: y, or (y, final state) when `zi` is given.

    It takes lfilter's two branches. A FIR filter (one denominator tap) is
    ``np.convolve(num, x)`` cut to len(x), with `zi` added to its head. An
    IIR filter runs transposed direct form II over x as Python floats, in
    lfilter's operation order, at a few hundred ns a sample: with num and
    den zero-padded to n taps and registers z (zero, or `zi`),

        y = z[0] + num[0] x,
        z[k-1] = z[k] + num[k] x - den[k] y   (k = 1..n-2),
        z[n-2] = num[n-1] x - den[n-1] y.
    """
    num = [float(c) for c in num]
    den = [float(c) for c in den]
    if den[0] != 1.0:
        raise ValueError(f"leading denominator coefficient must be 1, got {den[0]!r}")
    x = np.asarray(x, dtype=float)
    n = max(len(num), len(den))
    if zi is not None:
        zi = np.asarray(zi, dtype=float)
        if zi.shape != (len(num) - 1 if len(den) == 1 else n - 1,):
            raise ValueError(f"zi must hold one register per delay, got shape {zi.shape}")
    if len(den) == 1:
        full = np.convolve(num, x)
        if zi is not None:
            full[: len(zi)] += zi
        return full[: len(x)] if zi is None else (full[: len(x)], full[len(x) :])
    b = num + [0.0] * (n - len(num))
    a = den + [0.0] * (n - len(den))
    b0, b_last, a_last = b[0], b[-1], a[-1]
    mid = range(1, n - 1)
    z = [0.0] * (n - 1) if zi is None else zi.tolist()
    ys = []
    append = ys.append
    for xk in x.tolist():
        y = z[0] + b0 * xk
        for k in mid:
            z[k - 1] = z[k] + b[k] * xk - a[k] * y
        z[-1] = b_last * xk - a_last * y
        append(y)
    y = np.array(ys, dtype=float)
    return y if zi is None else (y, np.array(z))
