"""Realizable filter synthesis: norm-constrained FIR and Yule-Walker IIR."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efq.design import db, gamma_from_bits, optimal_shaper, solve_min_mse
from efq.errors import NumericalError
from efq.fitting import (
    evaluate_fit,
    fir_kkt_residuals,
    fit_cell,
    gram_autocorrelations,
    levinson,
    norm_constrained_fir,
    normalize_head,
    shaped_noise_norm_sq,
    yule_walker_fit,
)
from efq.spectral import FrequencyGrid, amplitude_of_tf, constant_response, ct_frequency_map, oversample_response
from efq.transfer import ContinuousTF, RationalDiscreteTF, linear_filter


@pytest.fixture(scope="module")
def two_tap_plant():
    return RationalDiscreteTF([1.0, 1.0])


class TestNormConstrainedFIR:
    """Scalar instances with hand-computable optima: plant taps (1, 1)."""

    def test_inactive_constraint(self, two_tap_plant):
        fitted, mu = norm_constrained_fir(two_tap_plant, 1, 1.25)
        np.testing.assert_allclose(fitted.num, [1.0, -0.5], atol=1e-12)
        assert mu == pytest.approx(0.0, abs=1e-12)
        assert float(np.dot(fitted.num, fitted.num)) == pytest.approx(1.25, rel=1e-12)

    def test_active_constraint(self, two_tap_plant):
        fitted, mu = norm_constrained_fir(two_tap_plant, 1, 1.04)
        np.testing.assert_allclose(fitted.num, [1.0, -0.2], atol=1e-10)
        assert mu == pytest.approx(3.0, rel=1e-8)
        assert float(np.dot(fitted.num, fitted.num)) == pytest.approx(1.04, rel=1e-10)

    def test_unit_budget_forces_passthrough(self, two_tap_plant):
        fitted, mu = norm_constrained_fir(two_tap_plant, 1, 1.0)
        np.testing.assert_allclose(fitted.num, [1.0, 0.0], atol=0)
        assert mu == math.inf

    def test_budget_below_one_rejected(self, two_tap_plant):
        with pytest.raises(ValueError):
            norm_constrained_fir(two_tap_plant, 1, 0.99)

    def test_flat_plant_keeps_passthrough(self, grid):
        fitted, _ = norm_constrained_fir(constant_response(grid, 1.0), 3, 2.0)
        np.testing.assert_allclose(fitted.num, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_shaped_energy_nonincreasing_in_budget(self, p_base):
        budgets = [1.0, 1.05, 1.2, 1.5, 2.0]
        energies = []
        for budget in budgets:
            fitted, _ = norm_constrained_fir(p_base, 4, budget)
            shaped, _ = shaped_noise_norm_sq(fitted, p_base)
            energies.append(shaped)
        assert all(later <= earlier * (1 + 1e-12) for earlier, later in zip(energies, energies[1:]))

    def test_unity_head_exact(self, p_base):
        fitted, _ = norm_constrained_fir(p_base, 4, 1.5)
        assert fitted.num[0] == 1.0


class TestGram:
    def test_amplitude_and_impulse_paths_agree(self, grid):
        tf = RationalDiscreteTF([1.0, 0.3, -0.45, 0.125])
        from_impulse = gram_autocorrelations(tf, 6)
        from_amplitude = gram_autocorrelations(amplitude_of_tf(tf, grid), 6)
        np.testing.assert_allclose(from_impulse, from_amplitude, rtol=1e-8, atol=1e-10)

    def test_iir_plant_refused(self):
        with pytest.raises(ValueError, match="amplitude response"):
            gram_autocorrelations(RationalDiscreteTF([1.0, 0.3], [1.0, -0.5]), 6)

    def test_white_filter_gram_is_identityish(self, grid):
        rho = gram_autocorrelations(constant_response(grid, 1.0), 4)
        np.testing.assert_allclose(rho, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)


class TestLevinson:
    def test_first_order_recovery(self):
        a = 0.5
        autocorr = np.array([1.0, a, a**2, a**3])
        coeffs, err = levinson(autocorr, 1)
        np.testing.assert_allclose(coeffs, [1.0, -a], atol=1e-14)
        assert err == pytest.approx(1.0 - a * a, rel=1e-14)

    def test_nonpositive_prediction_error_rejected(self):
        with pytest.raises(NumericalError):
            levinson(np.array([1.0, 1.0, 1.0]), 2)


class TestYuleWalker:
    def test_flat_target_yields_allpass_magnitude(self, grid):
        fitted = yule_walker_fit(constant_response(grid, 1.0), 2)
        resp = amplitude_of_tf(fitted, grid)
        np.testing.assert_allclose(resp.values, 1.0, atol=1e-6)

    def test_single_pole_recovery(self, grid):
        tf = RationalDiscreteTF([1.0], [1.0, -0.5])
        fitted = yule_walker_fit(amplitude_of_tf(tf, grid), 1)
        assert fitted.den[1] == pytest.approx(-0.5, abs=1e-3)
        got = amplitude_of_tf(fitted, grid).values
        want = amplitude_of_tf(tf, grid).values
        np.testing.assert_allclose(got, want, rtol=5e-3)

    def test_fit_on_own_shape_is_close(self, p_base):
        gamma = gamma_from_bits(4, 4.0)
        sol = solve_min_mse(p_base, gamma)
        shaper = optimal_shaper(sol.alpha_opt, p_base)
        fitted = yule_walker_fit(shaper, 4)
        got = amplitude_of_tf(fitted, p_base.grid).values
        rms = math.sqrt(float(np.mean((got - shaper.values) ** 2)))
        assert rms < 0.2 * math.sqrt(float(np.mean(shaper.values**2)))
        report = evaluate_fit(fitted, p_base, gamma, ideal_mse=sol.alpha_opt)
        assert db(report.achieved_mse / report.ideal_mse) < 1.0

    def test_result_is_stable_and_unity_head(self, p_base):
        sol = solve_min_mse(p_base, gamma_from_bits(6, 4.0))
        fitted = yule_walker_fit(optimal_shaper(sol.alpha_opt, p_base), 4)
        assert fitted.num[0] == 1.0
        assert fitted.den[0] == 1.0
        assert max((abs(r) for r in np.roots(fitted.den)), default=0.0) < 1.0
        assert max((abs(r) for r in np.roots(fitted.num)), default=0.0) <= 1.0

    def test_order_too_large_for_grid_rejected(self, grid):
        with pytest.raises(ValueError):
            yule_walker_fit(constant_response(grid, 1.0), grid.n_points // 2)

    def test_zero_target_rejected(self, p_base):
        lowered = oversample_response(p_base, 2)
        with pytest.raises(ValueError):
            yule_walker_fit(lowered, 4)

    def test_oversampled_cell_regression(self, p_base):
        # Pinned loss from the frozen reference run: order-4 fit of the
        # (4 bits, lambda=2) ideal shape costs about 8.14 dB over ideal.
        gamma = gamma_from_bits(4, 4.0)
        p2 = oversample_response(p_base, 2)
        sol = solve_min_mse(p2, gamma)
        fitted = yule_walker_fit(optimal_shaper(sol.alpha_opt, p2), 4)
        report = evaluate_fit(fitted, p2, gamma, ideal_mse=sol.alpha_opt)
        loss = db(report.achieved_mse / report.ideal_mse)
        assert loss == pytest.approx(8.135, abs=0.1)


class TestNormalizeHead:
    def test_scales_fir_taps(self):
        filt = normalize_head(RationalDiscreteTF([2.0, 4.0, -1.0]))
        np.testing.assert_allclose(filt.num, [1.0, 2.0, -0.5], atol=1e-15)

    def test_scales_rational_numerator(self):
        tf = normalize_head(RationalDiscreteTF([2.0, 1.0], [1.0, -0.5]))
        np.testing.assert_allclose(tf.num, [1.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(tf.den, [1.0, -0.5], atol=1e-15)

    def test_idempotent(self):
        once = normalize_head(RationalDiscreteTF([4.0, 2.0]))
        twice = normalize_head(once)
        assert once.num == twice.num

    def test_zero_head_rejected(self):
        with pytest.raises(ValueError):
            normalize_head(RationalDiscreteTF([0.0, 1.0]))


class TestReports:
    def test_feasibility_matches_norm(self, p_base):
        gamma = gamma_from_bits(3, 4.0)
        fitted, mu = norm_constrained_fir(p_base, 4, 1.5)
        final = evaluate_fit(fitted, p_base, gamma, ideal_mse=1e-3, kkt_multiplier=mu)
        assert final.feasible == (final.norm_sq < gamma + 1.0)
        assert math.isfinite(final.achieved_mse)

    def test_achieved_never_beats_ideal(self, p_base):
        gamma = gamma_from_bits(5, 4.0)
        sol = solve_min_mse(p_base, gamma)
        fitted, mu = norm_constrained_fir(p_base, 6, sol.norm_r_sq)
        final = evaluate_fit(fitted, p_base, gamma, ideal_mse=sol.alpha_opt, kkt_multiplier=mu)
        assert final.achieved_mse >= final.ideal_mse * (1 - 1e-6)

    def test_infeasible_fit_reports_infinite_mse(self, grid):
        gamma = 0.2
        fitted, _ = norm_constrained_fir(constant_response(grid, 1.0), 2, 4.0)
        taps = list(fitted.num)
        taps[1] = 1.5
        doctored = RationalDiscreteTF(taps)
        final = evaluate_fit(doctored, constant_response(grid, 1.0), gamma)
        assert not final.feasible
        assert final.achieved_mse == math.inf


class TestImpulseResponses:
    def test_single_pole_impulse(self):
        tf = RationalDiscreteTF([1.0], [1.0, -0.5])
        np.testing.assert_allclose(linear_filter(tf.num, tf.den, [1.0, 0.0, 0.0]), [1.0, 0.5, 0.25], atol=1e-14)

    def test_differencer_impulse(self):
        tf = RationalDiscreteTF([1.0, -1.0], [1.0])
        np.testing.assert_allclose(linear_filter(tf.num, tf.den, [1.0, 0.0, 0.0, 0.0]), [1.0, -1.0, 0.0, 0.0], atol=0)


@settings(max_examples=40, deadline=None)
@given(
    budget=st.floats(min_value=1.001, max_value=3.0),
    order=st.integers(min_value=1, max_value=6),
    seed=st.integers(0, 2**31 - 1),
)
def test_kkt_certificate_property(budget, order, seed):
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal(4)
    taps[0] = 1.0 + abs(taps[0])
    plant = RationalDiscreteTF(list(taps))
    fitted, mu = norm_constrained_fir(plant, order, budget)
    x = np.array(fitted.num[1:])
    assert mu >= 0.0
    rho = gram_autocorrelations(plant, order)
    idx = np.abs(np.subtract.outer(np.arange(order), np.arange(order)))
    grad = rho[idx] @ x + mu * x + rho[1 : order + 1]
    scale = max(float(np.linalg.norm(rho[1 : order + 1])), 1e-12)
    assert float(np.linalg.norm(grad)) <= 1e-8 * scale
    slack = mu * (float(np.dot(x, x)) - (budget - 1.0))
    assert abs(slack) <= 1e-8


def random_fir_plant(seed: int):
    """A seeded 4-tap FIR plant with a dominant head, as ``efq verify`` draws them."""
    taps = np.random.default_rng(seed).standard_normal(4)
    taps[0] = 1.0 + abs(taps[0])
    return RationalDiscreteTF(taps)


class TestKKTCertificate:
    """``fir_kkt_residuals`` vanishes on exact fits and flags broken ones."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("budget", [1.01, 1.5, 3.0])
    def test_small_on_fir_plant_fits(self, seed, budget):
        plant = random_fir_plant(seed)
        fitted, mu = norm_constrained_fir(plant, 1 + seed % 5, budget)
        assert max(fir_kkt_residuals(plant, fitted, mu, budget)) <= 1e-8

    @pytest.mark.parametrize("lam", [1, 3])
    def test_small_on_amplitude_plant_fits(self, p_base, lam):
        p_lam = oversample_response(p_base, lam)
        design = solve_min_mse(p_lam, gamma_from_bits(4, 4.0))
        for budget in (1.05, design.norm_r_sq):
            fitted, mu = norm_constrained_fir(p_lam, 4, budget)
            assert max(fir_kkt_residuals(p_lam, fitted, mu, budget)) <= 1e-8, budget

    @pytest.mark.parametrize("tap", [1, 2, 3])
    def test_perturbed_tap_fails(self, tap):
        plant = random_fir_plant(tap)
        fitted, mu = norm_constrained_fir(plant, 3, 1.5)
        taps = list(fitted.num)
        taps[tap] += 1e-3
        stationarity, _ = fir_kkt_residuals(plant, RationalDiscreteTF(taps), mu, 1.5)
        assert stationarity > 1e-5

    def test_dropped_multiplier_fails_on_active_cap(self):
        plant = random_fir_plant(0)
        fitted, mu = norm_constrained_fir(plant, 3, 1.01)
        assert mu > 1e-3  # the cap is active
        stationarity, _ = fir_kkt_residuals(plant, fitted, 0.0, 1.01)
        assert stationarity > 1e-5

    def test_slackness_flags_a_multiplier_on_a_slack_cap(self):
        plant = random_fir_plant(0)
        fitted, mu = norm_constrained_fir(plant, 3, 100.0)
        assert mu == 0.0
        _, slackness = fir_kkt_residuals(plant, fitted, 1e-3, 100.0)
        assert slackness > 1e-5


class TestLargePlant:
    """The built-in plant with its numerator scaled by 1e100: the sums of
    squares of its autocorrelations overflow a float, but the fit does not
    depend on the plant's scale."""

    @pytest.mark.parametrize(("bits", "lam"), [(1, 1), (1, 4), (8, 1), (8, 4)])
    def test_fit_matches_the_unscaled_fit(self, plant, bits, lam):
        big = ContinuousTF([1e100 * c for c in plant.num], plant.den, plant.sample_period)
        gamma = gamma_from_bits(bits, 4.0)
        fits = []
        for tf in (plant, big):
            p_lam = oversample_response(ct_frequency_map(tf, 1, FrequencyGrid(256)), lam)
            design = solve_min_mse(p_lam, gamma)
            fits.append(fit_cell("qcqp", 4, p_lam, gamma, design.alpha_opt, design.norm_r_sq))
        unit, scaled = fits
        np.testing.assert_allclose(scaled.fitted.num, unit.fitted.num, rtol=1e-9, atol=0)
        assert math.isfinite(scaled.kkt_multiplier)

    def test_kkt_residuals_are_free_of_the_scale(self, plant):
        # Complementary slackness mu * (||x||^2 - r^2) grows with the plant's
        # square, as mu does; over |b| it reads as on the unscaled plant.
        big = ContinuousTF([1e100 * c for c in plant.num], plant.den, plant.sample_period)
        p = ct_frequency_map(big, 1, FrequencyGrid(256))
        design = solve_min_mse(p, gamma_from_bits(1, 4.0))
        fitted, mu = norm_constrained_fir(p, 4, design.norm_r_sq)
        assert max(fir_kkt_residuals(p, fitted, mu, design.norm_r_sq)) <= 1e-8


class TestFitCell:
    @pytest.mark.parametrize("lam", [1, 2])
    def test_is_the_two_routes(self, p_base, lam):
        p_lam = oversample_response(p_base, lam)
        gamma = gamma_from_bits(3, 4.0)
        design = solve_min_mse(p_lam, gamma)
        qcqp = fit_cell("qcqp", 4, p_lam, gamma, design.alpha_opt, design.norm_r_sq)
        pre, mu = norm_constrained_fir(p_lam, 4, design.norm_r_sq)
        assert qcqp == evaluate_fit(pre, p_lam, gamma, ideal_mse=design.alpha_opt, kkt_multiplier=mu)
        yw = fit_cell("yw", 4, p_lam, gamma, design.alpha_opt, design.norm_r_sq)
        fitted = yule_walker_fit(optimal_shaper(design.alpha_opt, p_lam), 4)
        assert yw == evaluate_fit(fitted, p_lam, gamma, ideal_mse=design.alpha_opt)
        for report in (qcqp, yw):
            assert report.loss_db == db(report.achieved_mse / design.alpha_opt)

    def test_unknown_method_rejected(self, p_base):
        with pytest.raises(ValueError, match="unknown fit method"):
            fit_cell("lms", 4, p_base, 1.0, 0.1, 1.5)

    def test_loss_of_infeasible_or_unscored_fit_is_infinite(self, grid):
        p = constant_response(grid, 1.0)
        infeasible = evaluate_fit(RationalDiscreteTF([1.0, 2.0]), p, 1.0, ideal_mse=0.5)
        assert not infeasible.feasible and infeasible.loss_db == math.inf
        fitted, _ = norm_constrained_fir(p, 2, 1.5)
        assert evaluate_fit(fitted, p, 1.0).loss_db == math.inf  # unscored: ideal_mse is NaN
