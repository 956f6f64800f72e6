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
from efq.design import DesignProblem, gamma_from_bits, solve_min_mse
from efq.errors import InfeasibleError
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


def outcome(solve, prob: DesignProblem):
    try:
        sol = solve(prob)
    except Exception as exc:  # the reference and efq must fail alike
        return {"error": (type(exc), str(exc))}
    r = sol.r_opt
    return {
        "alpha_opt": sol.alpha_opt,
        "theta_opt": sol.theta_opt,
        "distortion": sol.distortion,
        "norm_r_sq": sol.norm_r_sq,
        "n_of_alpha": sol.n_of_alpha,
        "r_opt.values": r.values.tobytes(),
        "r_opt.edges": (r.cutoff, r.edge_below, r.edge_above),
    }


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("kind", PLANTS)
def test_solve_matches_reference_bit_for_bit(kind, n):
    seed = GRIDS.index(n)  # the two variants of a kind alternate over the grids
    p_base = make_plant(kind, n, seed)
    for lam in LAMBDAS:
        p_lam = oversample_response(p_base, lam)
        for bits in BITS:
            prob = DesignProblem(p=p_lam, gamma=gamma_from_bits(bits, 4.0))
            got, want = outcome(solve_min_mse, prob), outcome(ref.solve_min_mse, prob)
            for field in want:
                assert got.get(field) == want[field], (kind, n, seed, bits, lam, field)


# (seed, lambda, bits) of the out_of_range plants whose alpha has no float
OUT_OF_RANGE_CELLS = ((0, 1, 1), (1, 8, 16))


@pytest.mark.parametrize("n", [64, 65])
def test_bracket_failures_match_reference(n):
    """A plant whose alpha lies beyond the float range fails as the reference does."""
    for seed, lam, bits in OUT_OF_RANGE_CELLS:
        p_base = make_plant("out_of_range", n, seed)
        prob = DesignProblem(p=oversample_response(p_base, lam), gamma=gamma_from_bits(bits, 4.0))
        got = outcome(solve_min_mse, prob)
        assert "error" in got
        assert got == outcome(ref.solve_min_mse, prob), (seed, bits, lam)


def root_residual(sol, nu: float) -> float:
    """|theta^2/alpha - nu| / nu, without forming theta^2 or nu * alpha."""
    return abs((sol.theta_opt / math.sqrt(sol.alpha_opt)) ** 2 - nu) / nu


def scaled_problem(shape: np.ndarray, scale: float, bits: int) -> DesignProblem:
    p = AmplitudeResponse(FrequencyGrid(len(shape)), scale * shape)
    return DesignProblem(p=p, gamma=gamma_from_bits(bits, 4.0))


@pytest.mark.parametrize("n", [64, 65])
def test_plants_beyond_the_old_brackets_solve(n):
    """exp(0.5 cos) scaled by 1e45 (alpha above 2^200) and by 1e-152 (alpha
    below 1e-162, where sqrt(lo * hi) underflows) failed in the reference;
    alpha scales with the square of the plant, so each now matches the
    reference's solve of the unscaled plant."""
    shape = np.exp(0.5 * np.cos(FrequencyGrid(n).omegas))
    for scale, bits in ((1e45, 1), (1e45, 8), (1e-152, 1)):
        prob = scaled_problem(shape, scale, bits)
        assert "error" in outcome(ref.solve_min_mse, prob)
        sol = solve_min_mse(prob)
        unit = ref.solve_min_mse(scaled_problem(shape, 1.0, bits))
        assert sol.alpha_opt / scale**2 == pytest.approx(unit.alpha_opt, rel=1e-12), (scale, bits)
        assert root_residual(sol, prob.nu) <= 1e-12, (scale, bits)


@pytest.mark.parametrize("bits", [1, 4, 8])
def test_root_residual_across_the_float_range(bits):
    """Plants scaled so alpha runs from 1e-306 to 1e306, or to the amplitude
    cap, solve with a root residual far below verify's 1e-10."""
    om = FrequencyGrid(256).omegas
    for shape in (np.sqrt(2.0 + 2.0 * np.cos(om)) + 0.1, np.exp(0.5 * np.cos(om))):
        unit = solve_min_mse(scaled_problem(shape, 1.0, bits)).alpha_opt
        alphas = []
        for target in (10.0**k for k in range(-306, 307, 9)):
            scale = math.sqrt(target) / math.sqrt(unit)
            if not scale * shape.max() < design.MAX_PLANT_AMPLITUDE:
                continue
            prob = scaled_problem(shape, scale, bits)
            sol = solve_min_mse(prob)
            assert root_residual(sol, prob.nu) <= 1e-12, (bits, scale)
            assert sol.alpha_opt / scale**2 == pytest.approx(unit, rel=1e-12), (bits, scale)
            alphas.append(sol.alpha_opt)
        assert min(alphas) < 1e-300 and max(alphas) > 1e295, bits


def test_matrix_covers_every_branch():
    """The plants above reach the flat branch, tiny alpha and both bracket failures."""
    alphas, errors, flat = [], set(), 0
    for kind in PLANTS + ("out_of_range",):
        for seed in range(2):
            p_base = make_plant(kind, 64, seed)
            for lam, bits in ((1, 1), (8, 16)):
                prob = DesignProblem(p=oversample_response(p_base, lam), gamma=gamma_from_bits(bits, 4.0))
                got = outcome(solve_min_mse, prob)
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

    def counted(resp, fn):
        calls["n"] += 1
        return inner(resp, fn)

    monkeypatch.setattr(spectral, "band_integral", counted)
    monkeypatch.setattr(ref, "band_integral", counted)
    for bits in (1, 4, 8, 16):
        for lam in (1, 4):
            prob = DesignProblem(p=oversample_response(p_base, lam), gamma=gamma_from_bits(bits, 4.0))
            calls["n"] = 0
            solve_min_mse(prob)
            ours = calls["n"]
            calls["n"] = 0
            ref.solve_min_mse(prob)
            assert ours <= 48 < calls["n"], (bits, lam, ours, calls["n"])


@pytest.mark.parametrize(
    "crippled",
    [
        {"_certified_window": lambda log_ratio, slope: (0.0, math.inf)},  # no certificate
        {"MAX_NEWTON_STEPS": 1},  # Newton stops far from the root
        {"MAX_PROBES": 0},  # only the Newton iterates certify
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
            prob = DesignProblem(p=oversample_response(p_base, lam), gamma=gamma_from_bits(bits, 4.0))
            assert outcome(solve_min_mse, prob) == outcome(ref.solve_min_mse, prob), (kind, bits, lam)


@pytest.mark.parametrize("lam", [1, 3])
def test_public_helpers_match_reference(p_base, lam):
    p = oversample_response(p_base, lam)
    prob = DesignProblem(p=p, gamma=gamma_from_bits(1, 4.0))  # infeasible below alpha ~ 0.01
    for alpha in (1e-9, 1e-3, 0.25, 4.0):
        for name in ("geomean_amplitude", "shaped_noise_gain", "shaper_norm_sq"):
            assert getattr(design, name)(alpha, p) == getattr(ref, name)(alpha, p), (name, alpha)
        shaper, ref_shaper = design.optimal_shaper(alpha, p), ref.optimal_shaper(alpha, p)
        assert shaper.values.tobytes() == ref_shaper.values.tobytes()
        assert (shaper.edge_below, shaper.edge_above) == (ref_shaper.edge_below, ref_shaper.edge_above)
        assert mse_or_error(design, alpha, prob) == mse_or_error(ref, alpha, prob), alpha


def mse_or_error(module, alpha, prob):
    try:
        return module.design_mse(alpha, prob)
    except InfeasibleError as exc:
        return str(exc)


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
    monkeypatch.setattr(spectral, "band_integral", ref.band_integral)
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
