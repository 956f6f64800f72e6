"""Optimal shaping design: normalizers, the scalar root solve, and the sweep."""

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efq import design as design_mod
from efq.design import (
    alpha_below_normal,
    balanced_mse,
    collapse_residual,
    db,
    design_at,
    gamma_from_bits,
    optimal_shaper,
    rd_row,
    solve_min_mse,
    upper_bound,
)
from efq.errors import NumericalError
from efq.fitting import evaluate_fit
from efq.simulate import predicted_loop_variances
from efq.spectral import (
    AmplitudeResponse,
    FrequencyGrid,
    constant_response,
    ct_frequency_map,
    l2_norm_sq,
    log_geometric_mean,
    oversample_response,
)
from efq.transfer import RationalDiscreteTF

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def cosine_theta_sq(alpha: float) -> float:
    """Closed form of exp(mean ln((2+alpha) + 2 cos w)) over [0, pi]."""
    b = 2.0 + alpha
    return (b + math.sqrt(b * b - 4.0)) / 2.0


class TestGamma:
    def test_one_bit_loading_four(self):
        assert gamma_from_bits(1, 4.0) == pytest.approx(0.1875, abs=0)

    def test_eight_bits_loading_four(self):
        assert gamma_from_bits(8, 4.0) == pytest.approx(12192.1875, abs=0)

    def test_one_bit_loading_sqrt3_is_unity(self):
        assert gamma_from_bits(1, math.sqrt(3.0)) == pytest.approx(1.0, rel=1e-15)

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            gamma_from_bits(0, 4.0)

    @pytest.mark.parametrize(
        ("bits", "loading"),
        [(600, 4.0), (1023, 4.0), (1024, 4.0), (1100, 4.0), (10**400, 4.0), (1, 1e-200)],
        ids=["600", "1023", "1024", "1100", "10**400", "loading_1e-200"],
    )
    def test_gamma_beyond_the_float_range_rejected(self, bits, loading):
        # neither an OverflowError nor inf
        with pytest.raises(ValueError, match="beyond the float range"):
            gamma_from_bits(bits, loading)

    def test_largest_gamma_at_loading_four(self):
        assert gamma_from_bits(511, 4.0) == 3.0 * (2**511 - 1) ** 2 / 16.0 < math.inf

    def test_gamma_whose_nu_rounds_to_one_rejected(self):
        # 3/1e20 is below 2^-53, so gamma + 1 is 1
        with pytest.raises(ValueError, match=r"^nu must exceed 1, got 1\.0$"):
            gamma_from_bits(1, 1e10)


NOISE_RATIO_USERS = {
    "solve_min_mse": solve_min_mse,
    "design_at": lambda p, gamma: design_at(1.0, p, gamma),
    "upper_bound": lambda p, gamma: upper_bound(gamma, 2, p),
    "alpha_below_normal": alpha_below_normal,
    "evaluate_fit": lambda p, gamma: evaluate_fit(RationalDiscreteTF([1.0, 0.5]), p, gamma),
}


@pytest.mark.parametrize("name", NOISE_RATIO_USERS)
@pytest.mark.parametrize("gamma, message", [(0.0, r"^gamma must be positive$"), (3e-20, r"^nu must exceed 1, got 1\.0$")])
def test_one_noise_ratio_rule(cosine_response, name, gamma, message):
    with pytest.raises(ValueError, match=message):
        NOISE_RATIO_USERS[name](cosine_response, gamma)


class TestNormalizers:
    def test_theta_at_unit_shift_is_golden_ratio(self, cosine_response):
        assert design_at(1.0, cosine_response, 1.0).theta_opt == pytest.approx(GOLDEN, abs=1e-12)

    def test_theta_matches_closed_form(self, cosine_response):
        for alpha in (0.25, 1.0, 3.0):
            assert design_at(alpha, cosine_response, 1.0).theta_opt == pytest.approx(
                math.sqrt(cosine_theta_sq(alpha)), abs=1e-8
            )

    def test_norm_at_unit_shift(self, cosine_response):
        # mean of 1/((2 + 2cos) + 1) = 1/sqrt(5); theta^2 = golden^2 = (3+sqrt5)/2.
        expected = (3.0 + math.sqrt(5.0)) / (2.0 * math.sqrt(5.0))
        assert design_at(1.0, cosine_response, 1.0).norm_r_sq == pytest.approx(expected, abs=1e-10)

    def test_shaped_gain_is_norm_of_product(self, cosine_response):
        alpha = 0.7
        shaper = optimal_shaper(alpha, cosine_response)
        product = cosine_response.with_values(cosine_response.values * shaper.values)
        assert design_at(alpha, cosine_response, 1.0).n_of_alpha == pytest.approx(
            l2_norm_sq(product), rel=1e-10
        )

    def test_shaper_has_zero_log_mean(self, cosine_response):
        from efq.spectral import log_geometric_mean

        shaper = optimal_shaper(0.3, cosine_response)
        assert abs(log_geometric_mean(shaper)) <= 1e-12


class TestDesignMSE:
    def test_infeasible_alpha_is_inf(self, cosine_response):
        design = design_at(1e-9, cosine_response, 0.01)
        assert design.norm_r_sq >= 1.01 and design.distortion == math.inf

    def test_objective_equals_alpha_at_optimum(self, cosine_response):
        sol = solve_min_mse(cosine_response, 1.0)
        assert design_at(sol.alpha_opt, cosine_response, 1.0).distortion == pytest.approx(sol.alpha_opt, rel=1e-12)

    def test_local_optimality(self, cosine_response):
        sol = solve_min_mse(cosine_response, 1.0)
        for factor in (0.9, 0.99, 1.01, 1.1):
            assert design_at(factor * sol.alpha_opt, cosine_response, 1.0).distortion >= sol.distortion * (1 - 1e-12)

    def test_solve_ends_on_the_design_at_its_alpha(self, cfg, p_base):
        # every cell of the default config (p_base is on its grid), field for field, as exact floats
        for lam in cfg.lambda_list:
            p_lam = oversample_response(p_base, lam)
            for bits in cfg.bits_list:
                gamma = gamma_from_bits(bits, cfg.loading_factor)
                sol = solve_min_mse(p_lam, gamma)
                assert sol == design_at(sol.alpha_opt, p_lam, gamma), (bits, lam)


class TestBalancedMSE:
    def test_is_the_balance_at_nu_gamma_plus_one(self):
        assert balanced_mse(3.0, 1.5, 1.0) == 3.0 / (2.0 - 1.5)
        assert balanced_mse(0.49, 1.0, 1.5) == 0.49 / 1.5

    @pytest.mark.parametrize("norm_sq", [2.0, 2.5, math.inf, math.nan])
    def test_infeasible_shaper_is_inf(self, norm_sq):
        assert balanced_mse(3.0, norm_sq, 1.0) == math.inf


class TestSolve:
    def test_cosine_plant_at_nu_two(self, cosine_response):
        sol = solve_min_mse(cosine_response, 1.0)
        assert sol.alpha_opt == pytest.approx((2.0 + math.sqrt(2.0)) / 2.0, rel=1e-10)
        assert sol.distortion == pytest.approx(sol.alpha_opt, rel=1e-12)

    def test_root_residual_on_benchmark(self, p_base):
        for gamma in (0.1875, 1.6875, 12192.1875):
            sol = solve_min_mse(p_base, gamma)
            nu = gamma + 1.0
            assert abs(sol.theta_opt**2 / sol.alpha_opt - nu) <= 1e-10 * nu

    def test_constant_plant_closed_form(self, grid):
        resp = constant_response(grid, 0.7)
        sol = solve_min_mse(resp, 1.5)
        assert sol.alpha_opt == pytest.approx(0.49 / 1.5, rel=1e-12)
        assert sol.distortion == pytest.approx(0.49 / 1.5, rel=1e-12)
        np.testing.assert_array_equal(optimal_shaper(sol.alpha_opt, resp).values, 1.0)
        assert sol.norm_r_sq == pytest.approx(1.0, rel=1e-12)

    def test_constant_plant_unit_noise_variance(self, grid):
        resp = constant_response(grid, 1.0)
        sol = solve_min_mse(resp, 1.0)
        _, sigma_w_sq = predicted_loop_variances(sol.norm_r_sq, 1.0)
        assert sigma_w_sq == pytest.approx(1.0, rel=1e-12)

    def test_identically_zero_plant_rejected(self, grid):
        with pytest.raises(ValueError):
            solve_min_mse(constant_response(grid, 0.0), 1.0)

    @pytest.mark.parametrize("peak", [2.0**511, 1.3e154, 1e200])
    @pytest.mark.parametrize("at_edge", [False, True])
    def test_plant_whose_square_overflows_rejected(self, grid, peak, at_edge):
        """p^2 must stay finite: the solve fails up front, not after its bracket loop."""
        vals = np.ones(grid.n_points)
        if at_edge:
            resp = AmplitudeResponse(grid, vals, cutoff=1.0, edge_below=peak, edge_above=0.0)
        else:
            vals[5] = peak
            resp = AmplitudeResponse(grid, vals)
        with pytest.raises(ValueError, match="too large"):
            solve_min_mse(resp, 1.0)
        with pytest.raises(ValueError, match="too large"):
            design_at(1.0, resp, 1.0)

    def test_largest_admissible_plant_integrates_finitely(self, grid):
        big = constant_response(grid, np.nextafter(2.0**511, 0.0))
        sol = solve_min_mse(big, 1.0)
        assert math.isfinite(l2_norm_sq(big)) and math.isfinite(sol.distortion)

    def test_nonpositive_gamma_rejected(self, cosine_response):
        with pytest.raises(ValueError):
            solve_min_mse(cosine_response, 0.0)

    def test_predicted_mse_equals_distortion(self, p_base):
        gamma = gamma_from_bits(4, 4.0)
        sol = solve_min_mse(p_base, gamma)
        _, sigma_w_sq = predicted_loop_variances(sol.norm_r_sq, gamma)
        assert sol.n_of_alpha * sigma_w_sq == pytest.approx(sol.distortion, rel=1e-10)

    def test_norm_feasible(self, p_base):
        gamma = gamma_from_bits(2, 4.0)
        sol = solve_min_mse(p_base, gamma)
        assert sol.norm_r_sq < gamma + 1.0

    def test_lower_bracket_reaches_tiny_alpha(self, p_base):
        # alpha_opt is about 4.2e-74 here, below what 200 halvings of 1e-12 reach.
        p_lam, gamma = oversample_response(p_base, 8), gamma_from_bits(16, 4.0)
        sol = solve_min_mse(p_lam, gamma)
        nu = gamma + 1.0
        assert sol.alpha_opt < 1e-70
        assert abs(sol.theta_opt**2 / sol.alpha_opt - nu) <= 1e-10 * nu
        assert nu - sol.norm_r_sq > 0.0
        assert abs(log_geometric_mean(optimal_shaper(sol.alpha_opt, p_lam))) <= 1e-8

    @pytest.mark.parametrize("n_points", [256, 8192])
    def test_alpha_below_normal_is_where_the_solve_fails(self, plant, n_points):
        """On the built-in plant, from a few bits below the edge up to where
        nu^lambda overflows, the predicate holds exactly where the solve fails
        to bracket alpha from below."""
        p_base = ct_frequency_map(plant, 1, FrequencyGrid(n_points))
        for lam, top in ((1, 511), (2, 257), (3, 171), (4, 128)):
            p_lam = oversample_response(p_base, lam)
            for bits in range(top - 4, top + 1):
                gamma = gamma_from_bits(bits, 4.0)
                try:
                    solve_min_mse(p_lam, gamma)
                    failed = False
                except NumericalError as exc:
                    assert str(exc) == "failed to bracket the optimal alpha from below"
                    failed = True
                assert alpha_below_normal(p_lam, gamma) == failed, (lam, bits)


class TestSolveCounts:
    def test_every_quadrature_of_a_solve_is_counted_once_by_phase(self, cosine_response, monkeypatch):
        quadratures = []
        inner = design_mod.band_mean
        monkeypatch.setattr(design_mod, "band_mean", lambda *args: quadratures.append(1) or inner(*args))
        monkeypatch.setattr(design_mod, "SOLVE_COUNTS", collections.Counter())
        solve_min_mse(cosine_response, 1.0)
        counts = design_mod.SOLVE_COUNTS
        assert counts["solves"] == 1 and counts["newton"] > 0 and counts["polish"] > 0
        assert counts["newton"] + counts["bisection"] + counts["polish"] == len(quadratures)
        solve_min_mse(cosine_response, 3.0)
        assert counts["solves"] == 2
        assert counts["newton"] + counts["bisection"] + counts["polish"] == len(quadratures)

    def test_flat_plant_counts_a_solve_and_no_phase(self, grid, monkeypatch):
        monkeypatch.setattr(design_mod, "SOLVE_COUNTS", collections.Counter())
        solve_min_mse(constant_response(grid, 0.7), 1.5)
        assert design_mod.SOLVE_COUNTS == {"solves": 1}


class TestMonotonicity:
    def test_nu_map_strictly_decreasing(self, cosine_response):
        alphas = np.geomspace(1e-4, 10.0, 25)
        ratios = [
            design_at(a, cosine_response, 1.0).theta_opt ** 2 / a for a in alphas
        ]
        assert all(hi > lo for hi, lo in zip(ratios, ratios[1:]))

    def test_shaped_gain_increases_with_alpha(self, cosine_response):
        g = [design_at(a, cosine_response, 1.0).n_of_alpha for a in (0.1, 0.3, 1.0, 3.0)]
        assert all(b > a for a, b in zip(g, g[1:]))

    def test_shaper_norm_decreases_with_alpha(self, cosine_response):
        c = [design_at(a, cosine_response, 1.0).norm_r_sq for a in (0.1, 0.3, 1.0, 3.0)]
        assert all(b < a for a, b in zip(c, c[1:]))


class TestOversampledDesign:
    def test_collapse_identity(self, p_base):
        for gamma, lam in ((4.0, 3), (0.2, 2), (16.0, 4)):
            direct = solve_min_mse(oversample_response(p_base, lam), gamma).distortion
            collapsed = solve_min_mse(p_base, (gamma + 1.0) ** lam - 1.0).distortion
            assert abs(direct - collapsed) / direct <= 1e-6
            assert collapse_residual(p_base, gamma, lam, direct) == abs(direct - collapsed) / direct
        assert collapse_residual(p_base, 4.0, 1, 0.3) == 0.0

    def test_cell_solve_keeps_the_bits_of_the_nu_round_trip(self, p_base):
        # A cell's design at (4 bits, lambda 2): its distortion is its alpha,
        # and it is bit for bit the solve at the gamma of the old nu round
        # trip, (gamma + 1) - 1.
        gamma = gamma_from_bits(4, 4.0)
        p_lam = oversample_response(p_base, 2)
        design = solve_min_mse(p_lam, gamma)
        assert design.distortion == pytest.approx(design.alpha_opt, rel=1e-12)
        direct = solve_min_mse(p_lam, (gamma + 1.0) - 1.0)
        for name in ("alpha_opt", "theta_opt", "distortion", "norm_r_sq", "n_of_alpha"):
            assert getattr(design, name) == getattr(direct, name), name

    @pytest.mark.parametrize("lam", [2, 3, 4])
    def test_design_fields_are_python_floats(self, p_base, lam):
        # a numpy scalar field would warn, not give inf, where a division overflows
        design = solve_min_mse(oversample_response(p_base, lam), gamma_from_bits(4, 4.0))
        for field in dataclasses.fields(design):
            assert type(getattr(design, field.name)) is float, field.name


class TestUpperBound:
    def test_constant_plant_formula(self, grid):
        resp = constant_response(grid, 0.7)
        assert upper_bound(1.0, 3, resp) == pytest.approx(0.49 / 7.0, rel=1e-12)

    def test_constant_plant_equality_at_base_rate(self, grid):
        resp = constant_response(grid, 1.3)
        sol = solve_min_mse(resp, 2.0)
        assert sol.distortion == pytest.approx(upper_bound(2.0, 1, resp), rel=1e-9)

    def test_decreasing_in_oversampling(self, p_base):
        bounds = [upper_bound(1.0, lam, p_base) for lam in (1, 2, 3, 4)]
        assert all(later < earlier for earlier, later in zip(bounds, bounds[1:]))

    def test_dominates_distortion(self, p_base):
        for lam in (1, 2, 3):
            sol = solve_min_mse(oversample_response(p_base, lam), 1.0)
            assert sol.distortion <= upper_bound(1.0, lam, p_base) * (1 + 1e-12)


@pytest.fixture(scope="module")
def rows(p_base):
    return [rd_row(p_base, bits, lam, 4.0) for bits in (2, 3, 4) for lam in (1, 2)]


class TestRDCurve:

    def test_canonical_ordering(self, rows):
        keys = [(r.bits, r.oversampling) for r in rows]
        assert keys == sorted(keys)

    def test_distortion_below_baseline_and_bound(self, rows):
        for r in rows:
            assert r.distortion <= r.d_uniform * (1 + 1e-12)
            assert r.distortion <= r.bound * (1 + 1e-12)
            assert r.identity_residual <= 1e-6

    def test_row_keeps_the_cell_design(self, p_base):
        row = rd_row(p_base, 3, 2, 4.0)
        assert row.design == solve_min_mse(oversample_response(p_base, 2), gamma_from_bits(3, 4.0))
        assert row.distortion == row.design.distortion

    def test_distortion_decreases_with_bits(self, rows):
        by_lam = {}
        for r in rows:
            by_lam.setdefault(r.oversampling, []).append(r.distortion)
        for drops in by_lam.values():
            assert all(b < a for a, b in zip(drops, drops[1:]))

    def test_gain_regression_at_base_rate(self, p_base):
        # Pinned values from the frozen reference run of this design flow.
        expected = [3.3693, 8.0005, 9.7221, 10.1553, 10.2564, 10.2800, 10.2857, 10.2871]
        rows = [rd_row(p_base, bits, 1, 4.0) for bits in range(1, 9)]
        got = [r.gain_db for r in rows]
        np.testing.assert_allclose(got, expected, atol=2e-3)


class TestDb:
    def test_db_of_ten(self):
        assert db(10.0) == pytest.approx(10.0, abs=1e-12)

    def test_db_of_one_hundredth(self):
        assert db(0.01) == pytest.approx(-20.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(gamma=st.floats(min_value=0.05, max_value=1e5))
def test_solution_invariants_across_gamma(gamma):
    grid = FrequencyGrid(512)
    resp = AmplitudeResponse(grid, np.sqrt(2.0 + 2.0 * np.cos(grid.omegas)))
    sol = solve_min_mse(resp, gamma)
    nu = gamma + 1.0
    assert abs(sol.theta_opt**2 / sol.alpha_opt - nu) <= 1e-10 * nu
    assert sol.norm_r_sq < nu
    assert sol.distortion <= upper_bound(gamma, 1, resp) * (1 + 1e-9)
    assert design_at(sol.alpha_opt, resp, gamma).distortion == pytest.approx(sol.alpha_opt, rel=1e-10)
