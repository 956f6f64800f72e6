"""Frequency-grid containers and band-aware quadrature."""

import math
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efq import spectral
from efq.design import upper_bound
from efq.spectral import (
    AmplitudeResponse,
    FrequencyGrid,
    amplitude_of_tf,
    band_integral,
    band_mean,
    constant_response,
    ct_frequency_map,
    filtered,
    is_almost_constant,
    l2_norm_sq,
    log_geometric_mean,
    oversample_response,
    power_cosine_moment,
)
from efq.transfer import ContinuousTF, RationalDiscreteTF, frequency_response


class TestFrequencyGrid:
    def test_spans_zero_to_pi(self):
        g = FrequencyGrid(256)
        assert g.omegas[0] == 0.0
        assert g.omegas[-1] == pytest.approx(math.pi, abs=0)
        np.testing.assert_allclose(np.diff(g.omegas), math.pi / 255, rtol=1e-6)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            FrequencyGrid(16)


class TestAmplitudeResponse:
    def test_negative_values_rejected(self, grid):
        vals = np.ones(grid.n_points)
        vals[10] = -1e-3
        with pytest.raises(ValueError):
            AmplitudeResponse(grid, vals)

    def test_nonfinite_values_rejected(self, grid):
        vals = np.ones(grid.n_points)
        vals[0] = math.inf
        with pytest.raises(ValueError):
            AmplitudeResponse(grid, vals)

    @pytest.mark.parametrize("edge", [math.nan, math.inf])
    @pytest.mark.parametrize("side", ["edge_below", "edge_above"])
    def test_nonfinite_edges_rejected(self, grid, side, edge):
        edges = {"edge_below": 1.0, "edge_above": 0.0, side: edge}
        with pytest.raises(ValueError, match="edge values must be finite"):
            AmplitudeResponse(grid, np.ones(grid.n_points), cutoff=1.0, **edges)

    def test_cutoff_requires_both_edges(self, grid):
        vals = np.ones(grid.n_points)
        with pytest.raises(ValueError):
            AmplitudeResponse(grid, vals, cutoff=1.0, edge_below=1.0)

    def test_values_are_copied_and_frozen(self, grid):
        vals = np.ones(grid.n_points)
        resp = AmplitudeResponse(grid, vals)
        vals[0] = 7.0
        assert resp.values[0] == 1.0
        with pytest.raises(ValueError):
            resp.values[0] = 2.0

    @pytest.mark.parametrize("lam", [1, 3])
    def test_pickle_round_trip_is_frozen_with_an_empty_memo(self, p_base, lam):
        # Designs cross process boundaries: a copy rebuilds through
        # __init__, so its values stay read-only and its memo starts empty.
        resp = oversample_response(p_base, lam)
        is_almost_constant(resp)
        assert resp._memo
        copy = pickle.loads(pickle.dumps(resp))
        assert not copy.values.flags.writeable
        assert copy.values.tobytes() == resp.values.tobytes()
        assert (copy.grid, copy.cutoff, copy.edge_below, copy.edge_above) == (
            resp.grid,
            resp.cutoff,
            resp.edge_below,
            resp.edge_above,
        )
        assert copy._memo == {}
        assert is_almost_constant(copy) == is_almost_constant(resp)


class TestNorms:
    def test_constant_two_has_norm_four(self, grid):
        assert l2_norm_sq(constant_response(grid, 2.0)) == pytest.approx(4.0, abs=1e-12)

    def test_zero_response_has_zero_norm(self, grid):
        assert l2_norm_sq(constant_response(grid, 0.0)) == 0.0

    def test_cosine_shape_has_norm_two(self, cosine_response):
        # (1/pi) * integral of (2 + 2 cos w) over [0, pi] = 2, and the
        # trapezoid rule is exact for low-order cosine polynomials.
        assert l2_norm_sq(cosine_response) == pytest.approx(2.0, abs=1e-12)

    def test_norm_scales_quadratically(self, p_base):
        scaled = p_base.with_values(3.0 * p_base.values)
        assert l2_norm_sq(scaled) == pytest.approx(9.0 * l2_norm_sq(p_base), rel=1e-12)


class TestLogGeometricMean:
    def test_constant_e_gives_one(self, grid):
        resp = constant_response(grid, math.e)
        assert log_geometric_mean(resp) == pytest.approx(1.0, abs=1e-12)

    def test_constant_one_gives_zero(self, grid):
        assert log_geometric_mean(constant_response(grid, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_sample_rejected_with_location(self, grid):
        vals = np.ones(grid.n_points)
        vals[37] = 0.0
        with pytest.raises(ValueError, match="37"):
            log_geometric_mean(AmplitudeResponse(grid, vals))

    def test_shifted_cosine_closed_form(self, grid):
        # mean over [0, pi] of ln(b + a cos w) = ln((b + sqrt(b^2 - a^2)) / 2)
        for shift in (0.5, 1.0, 3.0):
            b = 2.0 + shift
            resp = AmplitudeResponse(grid, b + 2.0 * np.cos(grid.omegas))
            expected = math.log((b + math.sqrt(b * b - 4.0)) / 2.0)
            assert log_geometric_mean(resp) == pytest.approx(expected, abs=1e-8)


class TestBandIntegral:
    def test_full_band_matches_trapezoid(self, cosine_response):
        vals = cosine_response.values**2
        expected = np.trapezoid(vals, cosine_response.grid.omegas)
        got = band_integral(cosine_response, lambda om, v: v**2)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_piecewise_linear_with_jump_is_exact(self, grid):
        # Linear ramp in-band, constant beyond an off-node cutoff: the
        # split rule integrates both pieces exactly.
        wc = 1.0
        om = grid.omegas
        vals = np.where(om <= wc, 1.0 + 0.5 * om, 0.2)
        resp = AmplitudeResponse(grid, vals, cutoff=wc, edge_below=1.5, edge_above=0.2)
        expected = (wc + 0.25 * wc**2) + 0.2 * (math.pi - wc)
        assert band_integral(resp, lambda om_, v: v) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("lam", [1, 3])
    def test_returns_a_python_float(self, p_base, lam):
        # with a cutoff too, where the partial cells add numpy scalars
        assert type(band_integral(oversample_response(p_base, lam), lambda om, v: v)) is float

    def test_band_mean_is_integral_over_pi(self, p_base):
        assert band_mean(p_base, lambda om, v: v) == pytest.approx(
            band_integral(p_base, lambda om, v: v) / math.pi, rel=1e-15
        )


class TestCosineMoments:
    def test_cosine_shape_moments(self, cosine_response):
        # p^2 = 2 + 2 cos w has power moments [2, 1, 0, 0, ...].
        assert power_cosine_moment(cosine_response, 0) == pytest.approx(2.0, abs=1e-12)
        assert power_cosine_moment(cosine_response, 1) == pytest.approx(1.0, abs=1e-12)
        for lag in (2, 3, 5):
            assert power_cosine_moment(cosine_response, lag) == pytest.approx(0.0, abs=1e-12)


    def test_cosine_tables_keep_the_bits_and_are_held_from_the_second_use(self):
        # a grid size no other test uses, so the first call is the first use
        n, lag = 777, 3
        fresh = np.cos(lag * np.linspace(0.0, np.pi, n))
        first, second, third = (spectral._cosines(n, lag) for _ in range(3))
        for table in (first, second, third):
            assert table.tobytes() == fresh.tobytes()
        assert first is not second and second is third
        assert not third.flags.writeable

    def test_moments_match_fresh_cosines(self, p_base):
        for lag in range(4):
            fresh = band_mean(p_base, lambda w, p: p * p * np.cos(lag * w))
            assert [power_cosine_moment(p_base, lag) for _ in range(3)] == [fresh] * 3


class TestAmplitudeOfTF:
    def test_identity_filter_is_flat(self, grid):
        resp = amplitude_of_tf(RationalDiscreteTF([1.0], [1.0]), grid)
        np.testing.assert_allclose(resp.values, 1.0, atol=1e-15)

    def test_differencer_magnitude(self, grid):
        resp = amplitude_of_tf(RationalDiscreteTF([1.0, -1.0], [1.0]), grid)
        expected = 2.0 * np.abs(np.sin(grid.omegas / 2.0))
        np.testing.assert_allclose(resp.values, expected, atol=1e-12)

    def test_cascade_is_pointwise_product(self, grid):
        a = RationalDiscreteTF([1.0, 0.4], [1.0, -0.3])
        b = RationalDiscreteTF([1.0, -0.8], [1.0, 0.25])
        cascade = RationalDiscreteTF(
            np.polymul(a.num, b.num).tolist(), np.polymul(a.den, b.den).tolist()
        )
        prod = amplitude_of_tf(a, grid).values * amplitude_of_tf(b, grid).values
        np.testing.assert_allclose(amplitude_of_tf(cascade, grid).values, prod, atol=1e-10)


class TestFiltered:
    """``filtered`` is the product resp * |tf| formed by hand, bit for bit."""

    @pytest.mark.parametrize("lam", [1, 3])
    @pytest.mark.parametrize(
        "tf", [RationalDiscreteTF([1.0, -0.6, 0.25]), RationalDiscreteTF([1.0, 0.4], [1.0, -0.3])], ids=["fir", "iir"]
    )
    @pytest.mark.parametrize("given_gain", [False, True])
    def test_is_the_hand_formed_product(self, p_base, lam, tf, given_gain):
        p = oversample_response(p_base, lam)
        p = p.with_values(p.values + 0.25, *(edge + 0.25 for edge in p.edges))  # no zero limit
        gain = np.abs(frequency_response(tf, p.grid.omegas))
        got = filtered(p, tf, gain.copy() if given_gain else None)
        assert got.values.tobytes() == (p.values * gain).tobytes()
        assert got.cutoff == p.cutoff
        if lam == 1:
            assert got.edges == ()
        else:
            edge_gain = abs(tf.eval(np.exp(-1j * p.cutoff)))
            assert got.edges == (p.edge_below * edge_gain, p.edge_above * edge_gain)


class TestOversampling:
    def test_factor_one_is_identity(self, p_base):
        assert oversample_response(p_base, 1) is p_base

    def test_cutoff_and_stopband(self, p_base):
        p2 = oversample_response(p_base, 2)
        assert p2.cutoff == pytest.approx(math.pi / 2)
        om = p2.grid.omegas
        assert np.all(p2.values[om > p2.cutoff] == 0.0)
        assert p2.edge_above == 0.0
        assert p2.edge_below == pytest.approx(p_base.values[-1])

    def test_norm_scales_inversely(self, p_base):
        base = l2_norm_sq(p_base)
        for lam in (2, 3, 4):
            assert l2_norm_sq(oversample_response(p_base, lam)) == pytest.approx(
                base / lam, rel=1e-6
            )

    def test_edges_are_the_limits_at_the_cutoff(self, p_base):
        assert p_base.edges == ()
        p3 = oversample_response(p_base, 3)
        assert p3.edges == (p3.edge_below, p3.edge_above) == (p_base.values[-1], 0.0)
        assert p3.with_values(2.0 * p3.values, *p3.edges).edges == p3.edges
        assert p_base.with_values(2.0 * p_base.values).edges == ()

    def test_already_bandlimited_rejected(self, p_base):
        p2 = oversample_response(p_base, 2)
        with pytest.raises(ValueError):
            oversample_response(p2, 2)

    @pytest.mark.parametrize("value", [2.0, 0, -1, 1.5])
    @pytest.mark.parametrize("name", ["oversample_response", "ct_frequency_map", "upper_bound"])
    def test_factor_is_one_rule(self, p_base, plant, name, value):
        """Each function that takes an oversampling factor reads 2.0 as 2 and
        refuses 0, -1 and 1.5 with the one message."""
        call = {
            "oversample_response": lambda lam: oversample_response(p_base, lam),
            "ct_frequency_map": lambda lam: ct_frequency_map(plant, lam, p_base.grid),
            "upper_bound": lambda lam: upper_bound(1.0, lam, p_base),
        }[name]
        if value == 2.0:
            got, whole = call(value), call(2)
            if name == "upper_bound":
                assert got == whole
            else:
                assert (got.values.tobytes(), got.edges, got.cutoff) == (whole.values.tobytes(), whole.edges, whole.cutoff)
        else:
            with pytest.raises(ValueError, match="^oversampling factor must be a positive integer$"):
                call(value)

    def test_built_once_per_response_and_factor(self, p_base):
        fresh = AmplitudeResponse(p_base.grid, p_base.values)
        for lam in (2, 3, 4):
            first = oversample_response(fresh, lam)
            assert oversample_response(fresh, lam) is first
            assert first.values.tobytes() == spectral._dilate(fresh, lam).values.tobytes()

    def test_racing_threads_get_one_response(self, p_base):
        # Threads that miss the memo together may each build the response;
        # the builds are equal bit for bit and every caller gets the one kept.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                fresh = AmplitudeResponse(p_base.grid, p_base.values)
                start = threading.Barrier(8)

                def racer():
                    start.wait(timeout=60)
                    return oversample_response(fresh, 3)

                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(racer) for _ in range(8)]
                    got = [f.result(timeout=60) for f in futures]
                assert all(r is got[0] for r in got)
                assert oversample_response(fresh, 3) is got[0]
                assert got[0].values.tobytes() == spectral._dilate(fresh, 3).values.tobytes()
        finally:
            sys.setswitchinterval(interval)


class TestCTFrequencyMap:
    def test_first_order_pole_at_unit_frequency(self, grid):
        plant = ContinuousTF([1.0], [1.0, 1.0], sample_period=1.0)
        resp = ct_frequency_map(plant, 1, grid)
        idx = int(np.searchsorted(grid.omegas, 1.0))
        got = np.interp(1.0, grid.omegas, resp.values)
        assert got == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)
        assert resp.values[idx] <= resp.values[0]

    def test_oversampled_map_is_zero_beyond_band_edge(self, plant, grid):
        resp = ct_frequency_map(plant, 2, grid)
        om = grid.omegas
        assert np.all(resp.values[om > math.pi / 2] == 0.0)
        in_band = om[om < math.pi / 2]
        expected = np.abs([plant.eval(1j * 2.0 * w / plant.sample_period) for w in in_band])
        np.testing.assert_allclose(resp.values[: len(in_band)], expected, rtol=1e-12)


class TestAlmostConstant:
    def test_constant_is_almost_constant(self, grid):
        assert is_almost_constant(constant_response(grid, 3.0))

    def test_cosine_shape_is_not(self, cosine_response):
        assert not is_almost_constant(cosine_response)

    def test_tiny_ripple_passes(self, grid):
        vals = 1.0 + 1e-12 * np.cos(grid.omegas)
        assert is_almost_constant(AmplitudeResponse(grid, vals))

    def test_verdict_is_kept_per_response(self, grid, monkeypatch):
        calls = []
        inner = spectral.band_integral
        monkeypatch.setattr(spectral, "band_integral", lambda resp, fn: calls.append(1) or inner(resp, fn))
        vals = 1.0 + 1e-6 * np.cos(grid.omegas)
        resp = AmplitudeResponse(grid, vals)
        assert not is_almost_constant(resp)
        assert len(calls) == 3
        assert not is_almost_constant(resp)
        assert len(calls) == 3
        assert not is_almost_constant(AmplitudeResponse(grid, vals))
        assert len(calls) == 6


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2**31 - 1))
def test_norm_scaling_property(scale, seed):
    grid = FrequencyGrid(128)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.1, 2.0, grid.n_points)
    resp = AmplitudeResponse(grid, vals)
    scaled = resp.with_values(scale * vals)
    assert l2_norm_sq(scaled) == pytest.approx(scale**2 * l2_norm_sq(resp), rel=1e-10)


@settings(max_examples=50, deadline=None)
@given(cut_frac=st.floats(min_value=0.05, max_value=0.95), seed=st.integers(0, 2**31 - 1))
def test_band_integral_additive_in_segments(cut_frac, seed):
    # Integral of an in-band indicator plus its complement equals the
    # full-band integral, regardless of where the cutoff falls.
    grid = FrequencyGrid(256)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 1.5, grid.n_points)
    wc = cut_frac * math.pi
    full = band_integral(AmplitudeResponse(grid, vals), lambda om, v: v)
    lowered = np.where(grid.omegas <= wc, vals, 0.0)
    edge_below = float(np.interp(wc, grid.omegas, vals))
    low = band_integral(
        AmplitudeResponse(grid, lowered, cutoff=wc, edge_below=edge_below, edge_above=0.0),
        lambda om, v: v,
    )
    raised = np.where(grid.omegas <= wc, 0.0, vals)
    high = band_integral(
        AmplitudeResponse(grid, raised, cutoff=wc, edge_below=0.0, edge_above=edge_below),
        lambda om, v: v,
    )
    assert low + high == pytest.approx(full, rel=1e-9, abs=1e-12)
