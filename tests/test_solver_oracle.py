"""The fast quadrature and root solve keep every bit of the reference solver.

``reference_solver`` integrates on fresh ``np.linspace`` nodes with
``np.trapezoid`` and evaluates every bisection sign; efq caches the nodes,
integrates over p^2 and replays the bisection with certified signs. Every
comparison here is ``==``.
"""

import json
import math

import numpy as np
import pytest

import reference_solver as ref
from efq import design, spectral
from efq.cli import main
from efq.config import default_config
from efq.design import gamma_from_bits, solve_min_mse
from efq.spectral import AmplitudeResponse, FrequencyGrid, _nodes, _trapezoid, oversample_response
from test_cli import SMALL_CONFIG

GRIDS = (64, 65, 257, 4097, 8192)
PLANTS = ("builtin", "smooth", "zeros", "near_constant", "wide_range")
BITS = range(1, 17)
LAMBDAS = (1, 2, 3, 8)


def make_plant(kind: str, n: int, seed: int) -> AmplitudeResponse:
    """A seeded plant response of one kind on an n-point grid."""
    grid = FrequencyGrid(n)
    om = grid.omegas
    rng = np.random.default_rng(seed)
    if kind == "builtin":
        return spectral.ct_frequency_map(default_config().plant_tf(), 1, grid)
    if kind == "smooth":
        coeffs = rng.uniform(-1.0, 1.0, 4)
        log_p = sum(c * np.cos(k * om) for k, c in enumerate(coeffs, start=1))
        values = rng.uniform(0.1, 10.0) * np.exp(log_p)
    elif kind == "zeros":
        # a zero at omega = 0 and an exact stopband above a seeded cut
        values = np.abs(np.sin(om * rng.integers(1, 4) / 2.0)) * (1.0 + 0.5 * np.cos(om))
        values[om > rng.uniform(0.4, 0.9) * np.pi] = 0.0
    elif kind == "near_constant":
        # 1e-12 takes the flat-plant branch; 1e-6 solves
        eps = (1e-12, 1e-6)[seed % 2]
        values = rng.uniform(0.5, 2.0) * (1.0 + eps * np.cos(om))
    elif kind == "wide_range":
        values = np.exp(rng.uniform(15.0, 30.0) * np.cos(om + rng.uniform(0.0, 0.5)))
    elif seed % 2 == 0:
        # alpha beyond the largest float at 1 bit: a nearly flat plant just
        # under the amplitude cap, where alpha is about 5.3 mean(p^2)
        values = 0.95 * design.MAX_PLANT_AMPLITUDE * (1.0 + 0.05 * np.cos(om))
    else:
        # alpha below the smallest normal float at 16 bits and lambda 8
        values = 1e-152 * np.exp(0.5 * np.cos(om))
    return AmplitudeResponse(grid, values)


def outcome(module, p: AmplitudeResponse, gamma: float):
    """A solve's fields and its shaper's bits, by `module` (efq.design or
    the reference)."""
    try:
        sol = module.solve_min_mse(p, gamma)
    except Exception as exc:  # the reference and efq must fail alike
        return {"error": (type(exc), str(exc))}
    r = module.optimal_shaper(sol.alpha_opt, p)
    return {
        "alpha_opt": sol.alpha_opt,
        "theta_opt": sol.theta_opt,
        "distortion": sol.distortion,
        "norm_r_sq": sol.norm_r_sq,
        "n_of_alpha": sol.n_of_alpha,
        "shaper.values": r.values.tobytes(),
        "shaper.edges": (r.cutoff, r.edge_below, r.edge_above),
    }


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("kind", PLANTS)
def test_solve_matches_reference_bit_for_bit(kind, n):
    seed = GRIDS.index(n)  # the two variants of a kind alternate over the grids
    p_base = make_plant(kind, n, seed)
    for lam in LAMBDAS:
        p_lam = oversample_response(p_base, lam)
        for bits in BITS:
            prob = (p_lam, gamma_from_bits(bits, 4.0))
            got, want = outcome(design, *prob), outcome(ref, *prob)
            for field in want:
                assert got.get(field) == want[field], (kind, n, seed, bits, lam, field)


# (seed, lambda, bits) of the out_of_range plants whose alpha has no float
OUT_OF_RANGE_CELLS = ((0, 1, 1), (1, 8, 16))


@pytest.mark.parametrize("n", [64, 65])
def test_bracket_failures_match_reference(n):
    """A plant whose alpha lies beyond the float range fails as the reference does."""
    for seed, lam, bits in OUT_OF_RANGE_CELLS:
        p_base = make_plant("out_of_range", n, seed)
        prob = (oversample_response(p_base, lam), gamma_from_bits(bits, 4.0))
        got = outcome(design, *prob)
        assert "error" in got
        assert got == outcome(ref, *prob), (seed, bits, lam)


def root_residual(sol, gamma: float) -> float:
    """|theta^2/alpha - nu| / nu at nu = gamma + 1, without forming theta^2
    or nu * alpha."""
    nu = gamma + 1.0
    return abs((sol.theta_opt / math.sqrt(sol.alpha_opt)) ** 2 - nu) / nu


def scaled_problem(shape: np.ndarray, scale: float, bits: int) -> tuple[AmplitudeResponse, float]:
    """(p, gamma) of `shape` scaled by `scale` at `bits` bits."""
    return AmplitudeResponse(FrequencyGrid(len(shape)), scale * shape), gamma_from_bits(bits, 4.0)


@pytest.mark.parametrize("n", [64, 65])
def test_plants_beyond_the_old_brackets_solve(n):
    """exp(0.5 cos) scaled by 1e45 (alpha above 2^200) and by 1e-152 (alpha
    below 1e-162, where sqrt(lo * hi) underflows) failed in the reference;
    alpha scales with the square of the plant, so each now matches the
    reference's solve of the unscaled plant."""
    shape = np.exp(0.5 * np.cos(FrequencyGrid(n).omegas))
    for scale, bits in ((1e45, 1), (1e45, 8), (1e-152, 1)):
        p, gamma = scaled_problem(shape, scale, bits)
        assert "error" in outcome(ref, p, gamma)
        sol = solve_min_mse(p, gamma)
        unit = ref.solve_min_mse(*scaled_problem(shape, 1.0, bits))
        assert sol.alpha_opt / scale**2 == pytest.approx(unit.alpha_opt, rel=1e-12), (scale, bits)
        assert root_residual(sol, gamma) <= 1e-12, (scale, bits)


def float_range_problems(bits: int):
    """(unit, scale, p, gamma) for two shapes scaled so alpha runs from
    1e-306 to 1e306, or to the amplitude cap; unit is the unscaled shape's
    alpha."""
    om = FrequencyGrid(256).omegas
    for shape in (np.sqrt(2.0 + 2.0 * np.cos(om)) + 0.1, np.exp(0.5 * np.cos(om))):
        unit = solve_min_mse(*scaled_problem(shape, 1.0, bits)).alpha_opt
        for target in (10.0**k for k in range(-306, 307, 9)):
            scale = math.sqrt(target) / math.sqrt(unit)
            if scale * shape.max() < design.MAX_PLANT_AMPLITUDE:
                yield (unit, scale, *scaled_problem(shape, scale, bits))


@pytest.mark.parametrize("bits", [1, 4, 8])
def test_root_residual_across_the_float_range(bits):
    """Plants scaled so alpha runs from 1e-306 to 1e306, or to the amplitude
    cap, solve with a root residual far below verify's 1e-10."""
    alphas = {}
    for unit, scale, p, gamma in float_range_problems(bits):
        sol = solve_min_mse(p, gamma)
        assert root_residual(sol, gamma) <= 1e-12, (bits, scale)
        assert sol.alpha_opt / scale**2 == pytest.approx(unit, rel=1e-12), (bits, scale)
        alphas.setdefault(unit, []).append(sol.alpha_opt)
    assert len(alphas) == 2, bits
    for unit_alphas in alphas.values():
        assert min(unit_alphas) < 1e-300 and max(unit_alphas) > 1e295, bits


# log2(ln 4 / ROOT_REL_TOL) is about 40.3: the steps a bisection of a bracket
# [root / 2, 2 root] takes, give or take the rounding of its midpoints.
BISECTION_STEPS_FROM_FACTOR_FOUR = 42


def test_bisection_splits_brackets_across_the_float_range():
    """Brackets [root / 2, 2 root] from the smallest normal float to
    ALPHA_MAX, where lo * hi underflows or overflows, shrink to ROOT_REL_TOL
    in the usual number of steps."""
    for root in [10.0**k for k in range(-307, 308, 3)] + [2.0**-1022, 2.0**1023, design.ALPHA_MAX]:
        lo, hi = max(root / 2.0, 2.0**-1022), min(2.0 * root, design.ALPHA_MAX)
        steps = []

        def signed(alpha):
            steps.append(alpha)
            return 1.0 if alpha < root else -1.0

        lo, hi = design._bisect(signed, lo, hi)
        assert hi / lo - 1.0 <= design.ROOT_REL_TOL, root
        assert lo < root <= hi or lo == root, root
        assert len(steps) <= BISECTION_STEPS_FROM_FACTOR_FOUR, (root, len(steps))


def test_subnormal_midpoints_do_not_stall_the_solve(monkeypatch):
    """exp(0.5 cos) * 1e-80 at 1 bit (alpha about 6.5e-160, so lo * hi is
    subnormal) took all 200 bisection steps while sqrt(lo * hi) was the
    midpoint; it takes about as many as the same plant at 1e-78."""
    bisect = design._bisect
    steps = []

    def counted(signed, lo, hi):
        def counting(alpha):
            steps.append(alpha)
            return signed(alpha)

        return bisect(counting, lo, hi)

    monkeypatch.setattr(design, "_bisect", counted)
    shape = np.exp(0.5 * np.cos(FrequencyGrid(256).omegas))
    counts = {}
    for scale in (1e-78, 1e-80, 1e-81):
        steps.clear()
        p, gamma = scaled_problem(shape, scale, 1)
        sol = solve_min_mse(p, gamma)
        assert root_residual(sol, gamma) <= 1e-12, scale
        counts[scale] = len(steps)
    assert max(counts.values()) <= 60, counts


def test_top_of_the_float_range_solves():
    """(sqrt(2 + 2 cos) + 0.1) * 3e153 at 1 bit has alpha about 1.05e308,
    above 2^1023, where the reference failed to bracket it; ALPHA_MAX
    brackets it, and the solve matches the unscaled plant's alpha times the
    square of the scale. ALPHA_MAX keeps p^2 + alpha finite up to the
    amplitude cap."""
    assert math.isfinite(np.nextafter(design.MAX_PLANT_AMPLITUDE, 0.0) ** 2 + design.ALPHA_MAX)
    om = FrequencyGrid(256).omegas
    shape = np.sqrt(2.0 + 2.0 * np.cos(om)) + 0.1
    scale = 3e153
    p, gamma = scaled_problem(shape, scale, 1)
    assert outcome(ref, p, gamma)["error"][1] == "failed to bracket the optimal alpha from above"
    sol = solve_min_mse(p, gamma)
    assert 2.0**1023 < sol.alpha_opt < design.ALPHA_MAX
    assert root_residual(sol, gamma) <= 1e-12
    unit = ref.solve_min_mse(*scaled_problem(shape, 1.0, 1))
    assert sol.alpha_opt / scale**2 == pytest.approx(unit.alpha_opt, rel=1e-12)


def test_matrix_covers_every_branch():
    """The plants above reach the flat branch, tiny alpha and both bracket failures."""
    alphas, errors, flat = [], set(), 0
    for kind in PLANTS + ("out_of_range",):
        for seed in range(2):
            p_base = make_plant(kind, 64, seed)
            for lam, bits in ((1, 1), (8, 16)):
                got = outcome(design, oversample_response(p_base, lam), gamma_from_bits(bits, 4.0))
                if "error" in got:
                    errors.add(got["error"][1])
                else:
                    alphas.append(got["alpha_opt"])
                    flat += got["norm_r_sq"] == 1.0
    assert flat > 0
    assert min(alphas) < 1e-70
    assert errors >= {
        "failed to bracket the optimal alpha from above",
        "failed to bracket the optimal alpha from below",
    }


def test_replay_skips_most_bisection_integrals(monkeypatch, p_base):
    """The certified replay evaluates far fewer integrals than the reference."""
    calls = {"n": 0}
    inner = spectral.band_integral

    def counted(resp, fn, *samples):
        calls["n"] += 1
        return inner(resp, fn, *samples)

    monkeypatch.setattr(spectral, "band_integral", counted)
    monkeypatch.setattr(ref, "band_integral", counted)
    for bits in (1, 4, 8, 16):
        for lam in (1, 4):
            prob = (oversample_response(p_base, lam), gamma_from_bits(bits, 4.0))
            calls["n"] = 0
            solve_min_mse(*prob)
            ours = calls["n"]
            calls["n"] = 0
            ref.solve_min_mse(*prob)
            assert ours <= 29 < calls["n"], (bits, lam, ours, calls["n"])


@pytest.mark.parametrize(
    "crippled",
    [
        {"_certificates": lambda log_ratio, slope, bound, x: {1.0: [], -1.0: []}},  # no certificate
        {"MAX_NEWTON_STEPS": 1},  # Newton stops far from the root
        {"MAX_PROBES": 0},  # only the Newton iterates certify
        {"_newton_start": lambda p, nu: 0.0},  # Newton starts at alpha = 1
        {"_newton_start": lambda p, nu: design.X_MIN},  # ... at the smallest normal float
        {"_newton_start": lambda p, nu: design.X_MAX},  # ... at the largest power of two
    ],
)
def test_weak_certificates_keep_every_bit(monkeypatch, crippled):
    """Correctness never rests on the Newton pass: a missing or loose
    certificate only costs integrals."""
    for name, value in crippled.items():
        monkeypatch.setattr(design, name, value)
    for kind in ("builtin", "zeros", "wide_range"):
        p_base = make_plant(kind, 257, 0)
        for bits, lam in ((1, 1), (3, 2), (8, 8), (16, 8)):
            prob = (oversample_response(p_base, lam), gamma_from_bits(bits, 4.0))
            assert outcome(design, *prob) == outcome(ref, *prob), (kind, bits, lam)


def test_workload_grid_matches_reference():
    """The 32 cells of the benchmark's fine grid: the built-in plant on
    65,536 points, bits 1-8 and lambda 1-4."""
    p_base = make_plant("builtin", 65536, 0)
    for lam in (1, 2, 3, 4):
        p_lam = oversample_response(p_base, lam)
        for bits in range(1, 9):
            prob = (p_lam, gamma_from_bits(bits, 4.0))
            got, want = outcome(design, *prob), outcome(ref, *prob)
            for field in want:
                assert got.get(field) == want[field], (bits, lam, field)


def test_rounding_bound_covers_the_certificate_tolerance():
    """2E at M = 709.8, the bound over all normal floats, is at least
    2 (log2 n + 24) u 709.8 for every grid from 64 to 2^40 points."""
    u = 2.0**-53
    for k in range(6, 41):
        for n in (2**k - 1, 2**k, 2**k + 1):
            if n >= spectral.MIN_N_POINTS:
                assert 2.0 * design.rounding_bound(n, 709.8) >= 2.0 * (math.log2(n) + 24.0) * u * 709.8, n


def long_double_log_ratio(p2: AmplitudeResponse, alpha: float, nu: float) -> float:
    """log_ratio in 64-bit-mantissa arithmetic on the same samples, weights and pi."""
    ld = np.longdouble
    om, steps = (a.astype(ld) for a in _nodes(p2.grid.n_points))
    y = np.log(p2.values.astype(ld) + ld(alpha))

    def trapezoid(ys, hs):
        return np.sum(hs * (ys[1:] + ys[:-1]) / 2) if len(ys) > 1 else ld(0)

    if p2.cutoff is None:
        total = trapezoid(y, steps)
    else:
        wc = ld(p2.cutoff)
        k = int(np.searchsorted(om, wc, side="right")) - 1
        below, above = np.log(ld(p2.edge_below) + ld(alpha)), np.log(ld(p2.edge_above) + ld(alpha))
        total = trapezoid(y[: k + 1], steps[:k]) + (wc - om[k]) * (y[k] + below) / 2
        total += (om[k + 1] - wc) * (above + y[k + 1]) / 2 + trapezoid(y[k + 1 :], steps[k + 1 :])
    return float(total / ld(np.pi) - np.log(ld(alpha)) - np.log(ld(nu)))


@pytest.mark.parametrize("kind", ["builtin", "zeros", "wide_range"])
def test_rounding_bound_holds_against_long_double(kind):
    """The computed log_ratio lies within E(alpha) of a long-double
    evaluation (11 more bits), from alpha = 1e-300 to 1e300."""
    p_base = make_plant(kind, 4097, 0)
    nu = gamma_from_bits(8, 4.0) + 1.0
    for lam in (1, 3):
        p2 = design._power(oversample_response(p_base, lam))
        peak = max([float(np.max(p2.values)), *(() if p2.cutoff is None else (p2.edge_below, p2.edge_above))])
        for alpha in 10.0 ** np.arange(-300.0, 301.0, 15.0):
            computed = 2.0 * math.log(design._Means(p2).theta(alpha)) - math.log(alpha) - math.log(nu)
            bound = design.rounding_bound(4097, max(math.log(nu), abs(math.log(alpha)), abs(math.log(peak + alpha))))
            assert abs(computed - long_double_log_ratio(p2, alpha, nu)) <= bound * (1.0 - 2.0**-9), (lam, alpha)


@pytest.mark.parametrize("lam", [1, 3])
def test_kept_means_equal_fresh_quadratures(lam):
    """_Means fills p^2's trailing exact zeros from one element, and keeps
    each mean: every value is the bits of a quadrature of the whole grid."""
    p2 = design._power(oversample_response(make_plant("builtin", 4097, 0), lam))
    means = design._Means(p2)
    assert means.live == (len(p2.values) if lam == 1 else int(np.flatnonzero(p2.values)[-1]) + 1)
    for alpha in (1e-300, 1e-9, 0.25, 3.0, 1e300):
        for kind in design._INTEGRANDS:
            integrand = design._INTEGRANDS[kind]
            fresh = spectral.band_mean(p2, lambda om, v2: integrand(v2, v2 + alpha))
            assert means(alpha, kind) == fresh, (alpha, kind)
            assert means(alpha, kind) == means.kept[alpha, kind]


def test_one_element_evaluations_match_the_array_bits():
    """np.log and np.divide give one element the bits they give each element
    of a longer array, in its vector body and its tail."""
    alphas = np.exp(np.random.default_rng(5).uniform(-708.0, 709.0, 3000))
    for integrand in design._INTEGRANDS.values():
        for alpha in alphas:
            one = integrand(np.zeros(1), np.full(1, alpha))
            many = integrand(np.zeros(37), np.full(37, alpha))
            assert many.tobytes() == np.repeat(one, 37).tobytes(), alpha


def test_fraction_range_holds_the_computed_mean():
    """The polish takes a step without the slope only where both ends of
    fraction_range give it; the computed mean must lie in that range."""
    for kind, lam in (("builtin", 1), ("zeros", 3), ("wide_range", 1)):
        p2 = design._power(oversample_response(make_plant(kind, 4097, 0), lam))
        for alpha in (1e-12, 1e-4, 0.3, 50.0):
            means = design._Means(p2)
            assert means.fraction_range(alpha) == ()
            means(alpha, "fraction")
            for step in (0.0, 1e-15, -3e-13, 1e-9, -1e-6, 1e-3, -0.5):
                near = alpha * math.exp(step)
                fractions = means.fraction_range(near)
                fresh = design._Means(p2)(near, "fraction")
                assert fractions[0] <= fresh <= fractions[-1], (kind, lam, alpha, step)


def test_newton_start_lies_in_its_bracket(p_base):
    """The start lies in exp(G)/nu^(1/beta) <= alpha <= m/(nu^(1/beta) - 1),
    whose plain means stand in for the quadrature: at min(lower + z, upper)
    where z = e^lower H, H the in-band mean of 1/p^2, is at most 1/2, and at
    the log-midpoint elsewhere. The solved alpha lies in that bracket to
    within 0.01 in ln(alpha)."""
    starts = set()
    for lam in (1, 2, 4):
        p_lam = oversample_response(p_base, lam)
        beta, m, g = spectral.band_power_means(p_lam)
        v2 = p_lam.values[p_lam.grid.omegas <= (p_lam.cutoff or math.pi)] ** 2
        for bits in (1, 4, 8, 16):
            gamma = gamma_from_bits(bits, 4.0)
            nu = gamma + 1.0
            lower, upper = g - math.log(nu) / beta, math.log(m / (nu ** (1.0 / beta) - 1.0))
            z = math.exp(lower) * float(np.mean(1.0 / v2))
            x = design._newton_start(p_lam, gamma)
            assert lower - 1e-12 <= x <= upper + 1e-12, (lam, bits)
            want = min(lower + z, upper) if z <= 0.5 else 0.5 * (lower + upper)
            assert x == pytest.approx(want, abs=1e-12), (lam, bits)
            starts.add(z <= 0.5)
            alpha = solve_min_mse(p_lam, gamma).alpha_opt
            assert lower - 0.01 <= math.log(alpha) <= upper + 0.01, (lam, bits)
    assert starts == {True, False}  # both rules are met


def test_newton_start_needs_a_finite_correction():
    """A zero of p^2 in the band (H = inf, G = -inf) or a subnormal one (1/p^2
    overflows) keeps the midpoint rule, without a warning."""
    om = FrequencyGrid(256).omegas
    subnormal = np.exp(0.5 * np.cos(om))
    subnormal[0] = 1e-160
    for values in (np.abs(np.sin(om)), subnormal):
        p = AmplitudeResponse(FrequencyGrid(256), values)
        assert spectral.band_inverse_power_mean(p) == math.inf
        lower, upper = design._log_bracket(p, gamma_from_bits(8, 4.0))
        want = upper if lower == -math.inf else 0.5 * (lower + upper)
        assert design._newton_start(p, gamma_from_bits(8, 4.0)) == min(max(want, design.X_MIN), design.X_MAX)


def start_plants():
    """(p, gamma) of the plants of test_root_residual_across_the_float_range,
    and of the built-in plant at lambda 1-4."""
    for bits in (1, 4, 8):
        for *_, p, gamma in float_range_problems(bits):
            yield p, gamma
    p_base = make_plant("builtin", 4097, 0)
    for lam in (1, 2, 3, 4):
        for bits in (1, 4, 8, 16):
            yield oversample_response(p_base, lam), gamma_from_bits(bits, 4.0)


def test_solve_does_not_depend_on_its_start():
    """A start hint moves only where the Newton pass begins: from the root,
    e^10 away on either side (within the normal floats up to ALPHA_MAX), the
    smallest normal float or ALPHA_MAX, every field is the cold solve's."""
    for p, gamma in start_plants():
        cold = solve_min_mse(p, gamma)
        a = cold.alpha_opt
        far = (min(max(a * math.exp(e), 2.0**-1022), design.ALPHA_MAX) for e in (10.0, -10.0))
        for start in (a, *far, 2.0**-1022, design.ALPHA_MAX):
            assert solve_min_mse(p, gamma, start=start) == cold, (gamma, a, start)


@pytest.mark.parametrize("start", [0.0, -1.0, math.nan, math.inf])
def test_start_must_be_a_positive_finite_alpha(p_base, start):
    with pytest.raises(ValueError, match="start must be a positive finite alpha"):
        solve_min_mse(p_base, gamma_from_bits(8, 4.0), start=start)


@pytest.mark.parametrize("lam", [1, 3])
def test_public_helpers_match_reference(p_base, lam):
    p = oversample_response(p_base, lam)
    gamma = gamma_from_bits(1, 4.0)  # infeasible below alpha ~ 0.01
    for alpha in (1e-9, 1e-3, 0.25, 4.0):
        got = design.design_at(alpha, p, gamma)
        assert got.alpha_opt == alpha
        assert got.theta_opt == ref.geomean_amplitude(alpha, p), alpha
        assert got.n_of_alpha == ref.shaped_noise_gain(alpha, p), alpha
        assert got.norm_r_sq == ref.shaper_norm_sq(alpha, p), alpha
        assert got.distortion == reference_mse(alpha, p, gamma), alpha
        shaper, ref_shaper = design.optimal_shaper(alpha, p), ref.optimal_shaper(alpha, p)
        assert shaper.values.tobytes() == ref_shaper.values.tobytes()
        assert (shaper.edge_below, shaper.edge_above) == (ref_shaper.edge_below, ref_shaper.edge_above)


def reference_mse(alpha, p, gamma):
    """The reference design MSE, inf where it refuses an infeasible shaper."""
    try:
        return ref.design_mse(alpha, p, gamma)
    except ref.InfeasibleError:
        return math.inf


class TestTrapezoid:
    @pytest.mark.parametrize("length", [1, 2, 3, 8193, 131072])
    def test_equals_numpy_trapezoid(self, length):
        rng = np.random.default_rng(length)
        y = rng.standard_normal(length) * np.exp(rng.uniform(-5, 5, length))
        x = np.cumsum(rng.uniform(0.5, 1.5, length))
        got = _trapezoid(y, np.diff(x))
        want = np.trapezoid(y, x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("n, lam", [(8193, 3), (65, 2), (131072, 8)])
    def test_equals_numpy_on_the_cutoff_slices(self, n, lam):
        om, steps = _nodes(n)
        y = np.log(1.0 + np.cos(om) ** 2 + 1e-3 * np.arange(n))
        k = int(np.searchsorted(om, np.pi / lam, side="right")) - 1
        assert _trapezoid(y[: k + 1], steps[:k]) == np.trapezoid(y[: k + 1], om[: k + 1])
        assert _trapezoid(y[k + 1 :], steps[k + 1 :]) == np.trapezoid(y[k + 1 :], om[k + 1 :])

    @pytest.mark.parametrize("n", [64, 257, 131072])
    def test_band_integral_matches_reference(self, n):
        p = spectral.ct_frequency_map(default_config().plant_tf(), 1, FrequencyGrid(n))
        for lam in (1, 3):
            resp = oversample_response(p, lam)
            for fn in (lambda om, v: v * v, lambda om, v: np.log(v * v + 1e-3), lambda om, v: v * np.cos(3 * om)):
                assert spectral.band_integral(resp, fn) == ref.band_integral(resp, fn)


class TestGridNodes:
    @pytest.mark.parametrize("n", [64, 65, 8192, 131072])
    def test_omegas_are_linspace_bit_for_bit(self, n):
        assert FrequencyGrid(n).omegas.tobytes() == np.linspace(0.0, np.pi, n).tobytes()

    def test_omegas_are_shared_and_read_only(self):
        om = FrequencyGrid(256).omegas
        assert om is FrequencyGrid(256).omegas
        with pytest.raises(ValueError):
            om[3] = 1.0
        with pytest.raises(ValueError):
            _nodes(256)[1][0] = 1.0


@pytest.fixture()
def reference_patched(monkeypatch):
    """Route efq's quadrature, solve and shaper through the reference solver."""
    monkeypatch.setattr(FrequencyGrid, "omegas", property(lambda self: np.linspace(0.0, np.pi, self.n_points)))
    monkeypatch.setattr(spectral, "band_integral", lambda resp, fn, samples=None: ref.band_integral(resp, fn))
    monkeypatch.setattr(design, "solve_min_mse", ref.solve_min_mse)
    monkeypatch.setattr(design, "optimal_shaper", ref.optimal_shaper)


ARTIFACTS = ("design.json", "design_r_opt.csv", "rd_curve.csv", "fit.json", "verify.json")


def run_stages(out, config_path):
    for stage in ("design", "rd-curve", "fit", "verify"):
        assert main([stage, "--config", config_path, "--out", str(out), "--quiet"]) == 0
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def test_cli_artifacts_match_reference(tmp_path, request):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SMALL_CONFIG))
    ours = run_stages(tmp_path / "ours", str(config_path))
    request.getfixturevalue("reference_patched")
    theirs = run_stages(tmp_path / "reference", str(config_path))
    for name in ARTIFACTS:
        assert ours[name] == theirs[name], name
