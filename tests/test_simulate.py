"""Time-domain loop: quantizer, signal generators, and loop identities."""

import dataclasses
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

import reference_loop
from efq.design import gamma_from_bits, optimal_shaper, solve_min_mse
from efq.errors import NumericalError
from efq.fitting import (
    evaluate_fit,
    norm_constrained_fir,
    shaped_noise_norm_sq,
    yule_walker_fit,
)
from efq.simulate import (
    BLOCK,
    LANE_BUFFER_SAMPLES,
    MAX_LAG,
    MIN_BATCH_LANES,
    SEGMENT,
    WELCH_GRID,
    Lane,
    LaneFailure,
    LoopTraces,
    MidRiseQuantizer,
    RunStats,
    SignalModel,
    gen_input,
    granular_mse,
    lane_parts,
    loop_identity_residual,
    loop_quantizer,
    loop_traces,
    predicted_loop_variances,
    quantize_array,
    quantize_midrise,
    run_feedback_lanes,
    run_feedback_loop,
    run_lanes,
    summarize_run,
    t_quantile_975,
)
from efq.simulate import _draw_columns, _InputDraw
from efq.spectral import FrequencyGrid, amplitude_of_tf, band_mean, ct_frequency_map, oversample_response
from efq.transfer import RationalDiscreteTF, frequency_response, linear_filter


@pytest.fixture(scope="module")
def q_coarse():
    return MidRiseQuantizer(step=0.5, saturation=1.75)


class TestQuantizer:
    def test_rounds_to_half_step(self, q_coarse):
        assert quantize_midrise(0.3, q_coarse) == (0.25, False)

    def test_negative_input(self, q_coarse):
        assert quantize_midrise(-0.1, q_coarse) == (-0.25, False)

    def test_clips_and_flags_overload(self, q_coarse):
        level, overloaded = quantize_midrise(q_coarse.saturation + q_coarse.step, q_coarse)
        assert level == q_coarse.saturation
        assert overloaded

    def test_error_at_exact_boundary_not_overloaded(self, q_coarse):
        xi = q_coarse.saturation + q_coarse.step / 2.0
        level, overloaded = quantize_midrise(xi, q_coarse)
        assert level == q_coarse.saturation
        assert not overloaded

    def test_never_outputs_zero(self, q_coarse):
        for xi in (-0.2, -1e-9, 0.0, 1e-9, 0.2):
            level, _ = quantize_midrise(xi, q_coarse)
            assert abs(level) >= q_coarse.step / 2.0

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            MidRiseQuantizer(step=0.0, saturation=1.0)


class TestQuantizerForSigmaU:
    def test_eight_bit_geometry(self):
        quant = MidRiseQuantizer.for_sigma_u(8, 4.0, sigma_u=1.0)
        assert quant.saturation == pytest.approx(4.0)
        assert quant.step == pytest.approx(8.0 / 255.0)
        assert 2.0 * quant.saturation == pytest.approx((2**8 - 1) * quant.step, rel=1e-15)

    def test_step_scales_with_sigma_u(self):
        narrow = MidRiseQuantizer.for_sigma_u(4, 4.0, sigma_u=0.5)
        wide = MidRiseQuantizer.for_sigma_u(4, 4.0, sigma_u=2.0)
        assert wide.step == pytest.approx(4.0 * narrow.step, rel=1e-15)

    @pytest.mark.parametrize("sigma_u", [0.0, -1.0, math.nan])
    def test_sigma_u_not_positive_rejected(self, sigma_u):
        with pytest.raises(ValueError, match="sigma_u must be positive"):
            MidRiseQuantizer.for_sigma_u(8, 4.0, sigma_u)


@settings(max_examples=200, deadline=None)
@given(xi=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_quantizer_properties(xi):
    q = MidRiseQuantizer(step=0.25, saturation=2.125)
    level, overloaded = quantize_midrise(xi, q)
    assert abs(level) <= q.saturation
    # Output sits on the mid-rise lattice: odd multiples of step/2.
    ratio = level / (q.step / 2.0)
    assert round(ratio) % 2 != 0
    assert ratio == pytest.approx(round(ratio), abs=1e-9)
    if not overloaded:
        assert abs(level - xi) <= q.step / 2.0 + 1e-12
    else:
        assert abs(xi) > q.saturation + q.step / 2.0


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([MidRiseQuantizer(step=0.25, saturation=2.125), MidRiseQuantizer(step=0.1, saturation=0.35)]),
    half_steps=st.lists(st.integers(min_value=-60, max_value=60), max_size=20),
    others=st.lists(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), max_size=20),
)
def test_quantize_array_matches_quantize_midrise(q, half_steps, others):
    # Exact half-steps, +-saturation and +-(saturation + step/2) with their
    # float neighbours are where the level, clip and overload rules switch.
    edges = np.array([q.saturation, q.saturation + q.step / 2.0])
    edges = np.concatenate([edges, -edges])
    u = np.concatenate(
        [
            np.array(half_steps, dtype=float) * (q.step / 2.0),
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            others,
        ]
    )
    levels, overload = quantize_array(u, q)
    expected = [quantize_midrise(float(xi), q) for xi in u]
    assert levels.tolist() == [level for level, _ in expected]
    assert overload.tolist() == [flag for _, flag in expected]


class TestSignalGenerators:
    def test_colored_is_deterministic(self):
        model = SignalModel(kind="colored", seed=7, length=5000)
        a = gen_input(model, 0.1)
        b = gen_input(model, 0.1)
        np.testing.assert_array_equal(a, b)

    def test_colored_matches_target_variance_exactly(self):
        # The stationary first-order autoregression itself, with no rescale:
        # x_(-1) ~ N(0, 1) and x_k = pole x_(k-1) + sqrt(1 - pole^2) e_k, so
        # every sample, the first included, has variance 1.
        model = SignalModel(kind="colored", seed=3, length=100_000)
        x = gen_input(model, 0.1)
        rng = np.random.default_rng(3)
        pole = math.exp(-2.62 * 0.1)
        scale = math.sqrt(1.0 - pole * pole)
        prev = rng.standard_normal()
        expected = []
        for e in rng.standard_normal(model.length).tolist():
            prev = pole * prev + scale * e
            expected.append(prev)
        assert x.tobytes() == np.array(expected).tobytes()
        # sd of the sample variance: sqrt(2 (1 + pole^2) / ((1 - pole^2) n)) = 0.009
        assert float(np.var(x)) == pytest.approx(1.0, abs=0.05)
        first = [gen_input(SignalModel(kind="colored", seed=seed, length=1), 0.1)[0] for seed in range(4000)]
        assert float(np.mean(np.square(first))) == pytest.approx(1.0, abs=0.12)  # sd 0.022

    def test_colored_lag_one_autocorrelation(self):
        model = SignalModel(kind="colored", seed=11, length=200_000)
        x = gen_input(model, 0.1)
        rho1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert rho1 == pytest.approx(math.exp(-2.62 * 0.1), abs=0.01)

    def test_white_is_uncorrelated(self):
        model = SignalModel(kind="white", seed=5, length=200_000)
        x = gen_input(model, 0.1)
        assert x.tobytes() == np.random.default_rng(5).standard_normal(model.length).tobytes()
        assert float(np.var(x)) == pytest.approx(1.0, abs=0.02)  # sd 0.003
        rho1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(rho1) < 0.01

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SignalModel(kind="pink", seed=0, length=100)

    @pytest.mark.parametrize("kind", ["colored", "white"])
    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, 3 * BLOCK + 5])
    def test_chunked_draws_equal_gen_input(self, kind, n):
        # Chunk by chunk, through one lane's draw (the scalar lane pass) and
        # through _draw_columns beside other lanes (the batched pass), the
        # draws are gen_input's samples bit for bit.
        model = SignalModel(kind=kind, seed=n, length=n)
        draw = _InputDraw(model, 0.1)
        chunks = [draw(min(BLOCK, n - start)) for start in range(0, n, BLOCK)]
        assert np.concatenate(chunks).tobytes() == gen_input(model, 0.1).tobytes()
        models = [model, SignalModel(kind="colored", seed=1, length=n), SignalModel(kind="white", seed=2, length=n)]
        draws = [_InputDraw(m, 0.1) for m in models]
        columns = np.concatenate([_draw_columns(draws, np.empty((min(BLOCK, n - start), 3))) for start in range(0, n, BLOCK)])
        for j, m in enumerate(models):
            assert columns[:, j].tobytes() == gen_input(m, 0.1).tobytes(), j


@pytest.fixture(scope="module")
def loop_setup(plant, p_base):
    gamma = gamma_from_bits(8, 4.0)
    shaper, mu = norm_constrained_fir(p_base, 4, 1.5)
    plant_map = ct_frequency_map(plant, 1, WELCH_GRID)
    score = evaluate_fit(shaper, p_base, gamma, ideal_mse=math.nan, kkt_multiplier=mu)
    sigma_u_sq, _ = predicted_loop_variances(score.norm_sq, gamma)
    quant = MidRiseQuantizer.for_sigma_u(8, 4.0, math.sqrt(sigma_u_sq))
    model = SignalModel(kind="colored", seed=0, length=100_000)
    x = gen_input(model, plant.sample_period)
    traces = run_feedback_loop(x, shaper, quant)
    return shaper, plant_map, quant, score, traces


class TestLoopQuantizer:
    def test_is_the_hand_set_up(self, loop_setup, p_base):
        shaper, _, quant, score, _ = loop_setup
        got_score, sigma_u_sq, sigma_w_sq, got_quant = loop_quantizer(shaper, p_base, 8, 4.0)
        assert got_quant == quant
        assert (got_score.achieved_mse, got_score.norm_sq) == (score.achieved_mse, score.norm_sq)
        assert (sigma_u_sq, sigma_w_sq) == predicted_loop_variances(score.norm_sq, gamma_from_bits(8, 4.0))

    def test_infeasible_shaper_rejected(self, p_base):
        with pytest.raises(NumericalError, match="infeasible"):
            loop_quantizer(RationalDiscreteTF([1.0, 3.0]), p_base, 1, 4.0)


class TestLoop:

    def test_loop_identity_holds(self, loop_setup):
        shaper, _, _, _, traces = loop_setup
        assert loop_identity_residual(traces, shaper) <= 1e-10

    def test_identity_holds_under_overload(self, plant, p_base):
        # A 1-bit quantizer overloads constantly; the loop equation is
        # structural and must survive that.
        shaper, _ = norm_constrained_fir(p_base, 2, 1.1)
        quant = MidRiseQuantizer(step=0.05, saturation=0.025)
        model = SignalModel(kind="colored", seed=1, length=5000)
        x = gen_input(model, plant.sample_period)
        traces = run_feedback_loop(x, shaper, quant)
        assert int(np.count_nonzero(traces.overload)) > 0
        assert loop_identity_residual(traces, shaper) <= 1e-10

    def test_passthrough_filter_leaves_input(self, plant):
        shaper = RationalDiscreteTF([1.0], [1.0])
        quant = MidRiseQuantizer(step=0.01, saturation=4.005)
        model = SignalModel(kind="colored", seed=2, length=2000)
        x = gen_input(model, plant.sample_period)
        traces = run_feedback_loop(x, shaper, quant)
        np.testing.assert_allclose(traces.u, x, atol=0)

    def test_error_variance_near_uniform_model(self, loop_setup):
        _, _, quant, _, traces = loop_setup
        assert float(np.var(traces.w)) == pytest.approx(quant.step**2 / 12.0, rel=0.1)

    def test_quantizer_input_variance_predicted(self, loop_setup):
        shaper, _, quant, score, traces = loop_setup
        gamma = gamma_from_bits(8, 4.0)
        sigma_u_sq, _ = predicted_loop_variances(score.norm_sq, gamma)
        assert float(np.var(traces.u)) == pytest.approx(sigma_u_sq, rel=0.1)

    def test_many_bits_make_error_vanish(self, plant, p_base):
        # Wide loading factor so no sample overloads: the only error left
        # is 24-bit granular noise.
        shaper, _ = norm_constrained_fir(p_base, 2, 1.2)
        quant = MidRiseQuantizer.for_sigma_u(24, 6.0, 1.0)
        model = SignalModel(kind="colored", seed=3, length=20_000)
        x = gen_input(model, plant.sample_period)
        traces = run_feedback_loop(x, shaper, quant)
        assert int(np.count_nonzero(traces.overload)) == 0
        plant_map = ct_frequency_map(plant, 1, WELCH_GRID)
        assert summarize_run(traces, plant_map, 0.0).empirical_mse < 1e-10

    def test_nonunity_head_rejected(self, plant):
        shaper = RationalDiscreteTF([0.9, 0.1], [1.0])
        quant = MidRiseQuantizer(step=0.01, saturation=4.005)
        x = np.zeros(100)
        with pytest.raises(ValueError):
            run_feedback_loop(x, shaper, quant)

    # An order-4 shaper: the loop keeps four TDF-II registers.
    ORDER_4 = RationalDiscreteTF([1.0, -1.1, 0.23, -0.087, 0.029])

    @pytest.mark.parametrize("shape", [(0,), (1,), (2,), (3,), (4, 1)], ids=str)
    def test_short_state_rejected(self, shape):
        quant = MidRiseQuantizer.for_sigma_u(8, 4.0, 1.0)
        with pytest.raises(ValueError, match="state must be one-dimensional with at least 4 entries"):
            run_feedback_loop(np.zeros(100), self.ORDER_4, quant, np.zeros(shape))

    def test_longer_state_runs_and_returns_registers(self):
        quant = MidRiseQuantizer.for_sigma_u(8, 4.0, 1.0)
        x = np.random.default_rng(0).standard_normal(100)
        registers, longer = np.zeros(4), np.zeros(6)
        u = run_feedback_loop(x, self.ORDER_4, quant, registers).u
        assert np.array_equal(run_feedback_loop(x, self.ORDER_4, quant, longer).u, u)
        assert np.all(registers != 0.0)
        assert np.array_equal(longer, np.concatenate([registers, np.zeros(2)]))

    def test_summary_fields(self, loop_setup):
        shaper, plant_map, _, score, traces = loop_setup
        result = summarize_run(traces, plant_map, score.achieved_mse)
        assert result.predicted_mse == score.achieved_mse
        assert 0.0 <= result.overload_rate < 0.05
        assert result.empirical_mse > 0.0
        assert len(result.w_autocorr) == MAX_LAG == 20


@pytest.fixture(scope="module")
def mixed_lanes(plant, p_base):
    """(x, shaper, quantizer) per lane: yw IIR shapers of orders 2-4, qcqp
    FIR shapers of orders 1 and 4, R = 1, a 1-bit lane, a collapsing (8, 4)
    lane and a zero-input lane."""
    n = 20_000

    def design(bits, lam):
        p_lam = oversample_response(p_base, lam)
        gamma = gamma_from_bits(bits, 4.0)
        return p_lam, gamma, solve_min_mse(p_lam, gamma)

    def lane(bits, lam, shaper, seed):
        p_lam, gamma, _ = design(bits, lam)
        sigma_u_sq, _ = predicted_loop_variances(evaluate_fit(shaper, p_lam, gamma).norm_sq, gamma)
        quant = MidRiseQuantizer.for_sigma_u(bits, 4.0, math.sqrt(sigma_u_sq))
        x = gen_input(SignalModel(kind="colored", seed=seed, length=n), plant.sample_period / lam)
        return x, shaper, quant

    def qcqp(bits, lam, order):
        p_lam, _, sol = design(bits, lam)
        return norm_constrained_fir(p_lam, order, sol.norm_r_sq)[0]

    p_8, _, sol_8 = design(8, 1)
    lanes = [lane(8, 1, yule_walker_fit(optimal_shaper(sol_8.alpha_opt, p_8), order), order) for order in (2, 3, 4)]
    lanes += [lane(4, 2, qcqp(4, 2, order), 5 + order) for order in (1, 4)]
    lanes.append(lane(3, 1, RationalDiscreteTF((1.0,)), 10))
    lanes.append(lane(1, 1, qcqp(1, 1, 4), 11))
    lanes.append(lane(8, 4, qcqp(8, 4, 4), 1))
    _, shaper, quant = lane(4, 2, qcqp(4, 2, 4), 12)
    lanes.append((np.zeros(n), shaper, quant))
    return lanes


def _lanes_at_once(lanes):
    x = np.stack([x for x, _, _ in lanes], axis=1)
    return run_feedback_lanes(x, [r for _, r, _ in lanes], [q for _, _, q in lanes])


class TestLaneKernel:
    def test_each_lane_matches_scalar_loop(self, mixed_lanes):
        u = _lanes_at_once(mixed_lanes)
        overloads = []
        for j, (x, shaper, quant) in enumerate(mixed_lanes):
            expected = run_feedback_loop(x, shaper, quant)
            got = loop_traces(x, u[:, j], quant)
            for name in ("u", "v", "w", "overload"):
                assert np.array_equal(getattr(got, name), getattr(expected, name)), (j, name)
            overloads.append(int(np.count_nonzero(expected.overload)))
        # The set covers overload-free lanes and a collapsed one.
        assert min(overloads) == 0
        assert max(overloads) > 1000

    def test_grouping_and_order_leave_lanes_unchanged(self, mixed_lanes):
        whole = _lanes_at_once(mixed_lanes)
        split = np.concatenate([_lanes_at_once(mixed_lanes[i : i + 3]) for i in range(0, len(mixed_lanes), 3)], axis=1)
        assert np.array_equal(split, whole)
        perm = np.random.default_rng(3).permutation(len(mixed_lanes))
        permuted = _lanes_at_once([mixed_lanes[j] for j in perm])
        assert np.array_equal(permuted, whole[:, perm])

    def test_lane_count_mismatch_rejected(self, mixed_lanes):
        x, shaper, quant = mixed_lanes[0]
        with pytest.raises(ValueError):
            run_feedback_lanes(np.stack([x, x], axis=1), [shaper], [quant, quant])

    @pytest.mark.parametrize(
        ("lanes", "size"),
        [(160, 160), (17, 17), (40, 40), (8, 8), (5, 5), (15, 15), (16, 16), (256, 256), (257, 129), (600, 200)],
    )
    def test_group_size(self, lanes, size):
        assert LANE_BUFFER_SAMPLES // BLOCK == 256
        assert max(map(len, lane_parts(lanes))) == size

    @pytest.mark.parametrize("cuts", [(1,), (7, 8000), (BLOCK, BLOCK + 1, 15_000)])
    def test_state_carries_across_pieces(self, mixed_lanes, cuts):
        whole = _lanes_at_once(mixed_lanes)
        x = np.stack([x for x, _, _ in mixed_lanes], axis=1)
        shapers = [r for _, r, _ in mixed_lanes]
        quantizers = [q for _, _, q in mixed_lanes]
        state = np.zeros((4, len(mixed_lanes)))
        pieces = [run_feedback_lanes(x[a:b], shapers, quantizers, state) for a, b in zip((0, *cuts), (*cuts, len(x)))]
        assert np.array_equal(np.concatenate(pieces), whole)
        for j, (xj, shaper, quant) in enumerate(mixed_lanes):  # and the scalar loop takes the same state
            lane_state = np.zeros(4)
            u = [run_feedback_loop(xj[a:b], shaper, quant, lane_state).u for a, b in zip((0, *cuts), (*cuts, len(xj)))]
            assert np.array_equal(np.concatenate(u), whole[:, j]), j
            assert np.array_equal(lane_state, state[:, j]), j

    def test_state_shape_checked(self, mixed_lanes):
        x = np.stack([x for x, _, _ in mixed_lanes], axis=1)[:10]
        with pytest.raises(ValueError, match="state"):
            run_feedback_lanes(x, [r for _, r, _ in mixed_lanes], [q for _, _, q in mixed_lanes], np.zeros((3, len(x.T))))


def _lane(seed, length, shaper, quant, plant_d, period=0.1):
    model = SignalModel(kind="colored", seed=seed, length=length)
    return Lane(model, period, shaper, quant, plant_d, 1e-3 * (seed + 1), f"seed={seed}")


def _oracle(lane):
    """The whole-lane definition: summarize_run of the scalar loop on gen_input."""
    traces = run_feedback_loop(gen_input(lane.model, lane.sample_period), lane.shaper, lane.quantizer)
    return summarize_run(traces, lane.plant_map, lane.predicted_mse)


# A quantizer whose u/step overflows once |u| reaches 4: with R = 1 the loop
# input is the colored input itself, which first reaches 4 at a seed-dependent
# sample.
TINY = MidRiseQuantizer(step=2.0**-1022, saturation=1.5 * 2.0**-1022)


def _failing_sample(lane):
    """Sample at which the scalar loop stops on the whole lane."""
    with pytest.raises(NumericalError, match=r"^u/step is not finite at sample \d+$") as whole:
        run_feedback_loop(gen_input(lane.model, lane.sample_period), lane.shaper, lane.quantizer)
    return int(re.search(r"\d+$", str(whole.value))[0])


class TestRunLanes:
    @pytest.fixture(scope="class")
    def shapers(self):
        return [RationalDiscreteTF((1.0, -0.8)), RationalDiscreteTF([1.0, -1.1, 0.4], [1.0, -0.5]), RationalDiscreteTF((1.0,))]

    @pytest.fixture(scope="class")
    def plant_d(self, plant):
        return ct_frequency_map(plant, 1, WELCH_GRID)

    def lanes(self, count, shapers, plant_d, length=2 * BLOCK + 17, quant=MidRiseQuantizer(step=0.125, saturation=1.9375)):
        return [_lane(seed, length, shapers[seed % len(shapers)], quant, plant_d) for seed in range(count)]

    @pytest.mark.parametrize("count", [15, 16, 37])
    def test_matches_scalar_loop_on_either_path(self, shapers, plant_d, count):
        assert (len(lane_parts(count)[0]) >= MIN_BATCH_LANES) == (count >= MIN_BATCH_LANES)  # 15: the scalar path
        lanes = self.lanes(count, shapers, plant_d)
        got = list(run_lanes(lanes))
        assert got == [_oracle(lane) for lane in lanes]

    def test_result_does_not_depend_on_the_group(self, shapers, plant_d, p_base):
        lanes = self.lanes(40, shapers + [norm_constrained_fir(p_base, 4, 1.5)[0]], plant_d)
        lanes[9] = dataclasses.replace(lanes[9], quantizer=MidRiseQuantizer(step=0.5, saturation=0.75))  # overloads
        whole = list(run_lanes(lanes))
        assert whole[9].overload_count > 100
        assert list(run_lanes(lanes[:16])) == whole[:16]
        for j in (0, 9, 39):
            assert list(run_lanes([lanes[j]])) == [whole[j]]  # alone, on the scalar loop
        perm = np.random.default_rng(5).permutation(len(lanes))
        assert list(run_lanes([lanes[j] for j in perm])) == [whole[j] for j in perm]

    @pytest.mark.parametrize(
        ("count", "parts", "split"),
        [
            (160, 2, [range(0, 80), range(80, 160)]),
            (160, 3, [range(0, 53), range(53, 106), range(106, 160)]),
            (160, 1, [range(0, 160)]),
            (32, 8, [range(0, 16), range(16, 32)]),
            (31, 8, [range(0, 31)]),
            (5, 2, [range(0, 5)]),
            (300, 2, [range(0, 150), range(150, 300)]),
        ],
    )
    def test_lane_parts(self, count, parts, split):
        # One part per worker while each keeps MIN_BATCH_LANES lanes or more,
        # and more parts where a part would pass 256 lanes.
        assert lane_parts(count, parts) == split

    @pytest.mark.parametrize("workers", range(1, 9))
    def test_parts_cover_the_lanes_in_order(self, workers):
        for count in range(1, 601):
            parts = lane_parts(count, workers)
            assert [lane for part in parts for lane in part] == list(range(count)), (count, workers)
            sizes = [len(part) for part in parts]
            assert max(sizes) <= LANE_BUFFER_SAMPLES // BLOCK and max(sizes) - min(sizes) <= 1, (count, workers)
            if len(parts) > 1:
                assert min(sizes) >= MIN_BATCH_LANES, (count, workers)

    def test_parts_join_to_the_whole_pass(self, shapers, plant_d):
        lanes = self.lanes(40, shapers, plant_d)
        parts = lane_parts(len(lanes), 2)
        assert len(parts) == 2
        whole = run_lanes(lanes)
        assert [result for part in parts for result in run_lanes(lanes[part.start : part.stop])] == whole
        assert run_lanes(lanes, workers=2) == whole

    def test_lane_failure_survives_pickle(self):
        exc = pickle.loads(pickle.dumps(LaneFailure("seed=4: u/step is not finite", 8192)))
        assert type(exc) is LaneFailure and isinstance(exc, NumericalError)
        assert (str(exc), exc.start) == ("seed=4: u/step is not finite", 8192)

    @pytest.mark.parametrize("length", [BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("count", [1, 16])
    def test_lengths_around_the_block(self, shapers, plant_d, count, length):
        # a run of one segment and then a block boundary's worth more or less
        lanes = self.lanes(count, shapers, plant_d, length=SEGMENT + length)
        assert list(run_lanes(lanes)) == [_oracle(lane) for lane in lanes]

    def test_burn_in_ending_inside_a_later_block(self, shapers):
        # The scorer keeps no burn-in: a slow plant, whose transient of 20
        # memories (10,000 samples) would end inside block 1, still scores the
        # segment of blocks 0-1, as a whole-run Welch estimate does.
        slow = amplitude_of_tf(RationalDiscreteTF([0.002], [1.0, -0.998]), WELCH_GRID)  # memory 500
        n = 3 * BLOCK
        lanes = self.lanes(16, shapers, slow, length=n)
        got = list(run_lanes(lanes))
        assert got == [_oracle(lane) for lane in lanes]
        traces = run_feedback_loop(gen_input(lanes[0].model, 0.1), lanes[0].shaper, lanes[0].quantizer)
        assert got[0].empirical_mse == summarize_run(traces, slow, 0.0).empirical_mse
        assert got[0].empirical_mse == pytest.approx(_welch_oracle(traces.v - traces.x, slow), rel=1e-12)

    def test_trace_receives_the_first_lane_chunk_by_chunk(self, shapers, plant_d):
        lanes = self.lanes(16, shapers, plant_d)
        chunks = []
        list(run_lanes(lanes, lambda start, traces: chunks.append((start, traces))))
        assert [start for start, _ in chunks] == [0, BLOCK, 2 * BLOCK]
        expected = run_feedback_loop(gen_input(lanes[0].model, 0.1), lanes[0].shaper, lanes[0].quantizer)
        for name in ("x", "u", "v", "w", "overload"):
            got = np.concatenate([getattr(traces, name) for _, traces in chunks])
            assert np.array_equal(got, getattr(expected, name)), name

    def test_batched_lane_raises_as_scalar_loop(self, shapers, plant_d):
        # u / step overflows: the scalar loop stops with NumericalError, and so
        # must the batched path rather than return what numpy made of it.
        tiny = MidRiseQuantizer(step=2.0**-1030, saturation=3 * 2.0**-1031)
        lanes = self.lanes(16, shapers, plant_d)
        lanes[5] = dataclasses.replace(lanes[5], quantizer=tiny)
        assert len(lane_parts(len(lanes))[0]) >= MIN_BATCH_LANES
        at = _failing_sample(lanes[5])
        start = at - at % BLOCK
        expected = f"seed=5: u/step is not finite at sample {at - start} of the chunk from sample {start}"
        with pytest.raises(NumericalError) as got:
            list(run_lanes(lanes))
        assert str(got.value) == expected

    @pytest.mark.parametrize("count", [8, 16, 40])
    def test_late_failures_raise_in_lane_order(self, shapers, plant_d, count):
        # The pass stops at the first chunk in which a lane fails and names
        # the first lane, in lane order, that fails in it: lane 3 fails in the
        # third chunk, lanes 5 and 7 in the second, lane 7 at an earlier
        # sample, so lane 5 is named. R = 1, so u is x, and u/step overflows
        # once |x| reaches 4.
        lanes = self.lanes(count, shapers, plant_d, length=3 * BLOCK)
        for j in (3, 5, 7):
            lanes[j] = dataclasses.replace(lanes[j], shaper=RationalDiscreteTF((1.0,)), quantizer=TINY)
        at3, at5, at7 = (_failing_sample(lanes[j]) for j in (3, 5, 7))
        assert 2 * BLOCK <= at3 < 3 * BLOCK and BLOCK <= at7 < at5 < 2 * BLOCK
        x5 = gen_input(lanes[5].model, lanes[5].sample_period)
        assert at5 == np.flatnonzero(np.abs(x5) >= 4.0)[0]
        assert (len(lane_parts(count)[0]) >= MIN_BATCH_LANES) == (count >= MIN_BATCH_LANES)
        expected = f"seed=5: u/step is not finite at sample {at5 - BLOCK} of the chunk from sample {BLOCK}"
        with pytest.raises(LaneFailure) as got:
            list(run_lanes(lanes))
        assert (str(got.value), got.value.start) == (expected, BLOCK)

    def test_earliest_chunk_fails_across_parts(self, shapers, plant_d):
        # 300 lanes run as two parts of 150. Lane 3, in the first, fails in
        # the third chunk; lane 165, in the second, fails in the second
        # chunk. The pass names lane 165, as it would in a single part.
        lanes = self.lanes(300, shapers, plant_d, length=3 * BLOCK)
        for j in (3, 165):
            lanes[j] = dataclasses.replace(lanes[j], shaper=RationalDiscreteTF((1.0,)), quantizer=TINY)
        assert lane_parts(len(lanes)) == [range(0, 150), range(150, 300)]
        at3, at165 = (_failing_sample(lanes[j]) for j in (3, 165))
        assert 2 * BLOCK <= at3 < 3 * BLOCK and BLOCK <= at165 < 2 * BLOCK
        expected = f"seed=165: u/step is not finite at sample {at165 - BLOCK} of the chunk from sample {BLOCK}"
        with pytest.raises(LaneFailure) as got:
            run_lanes(lanes)
        assert (str(got.value), got.value.start) == (expected, BLOCK)

    def test_traced_pass_runs_in_process_in_any_part_count(self, shapers, plant_d):
        # 257 lanes are two parts; a trace keeps both in this process, so no
        # map over workers is asked for, and lane 0's chunks arrive in order.
        lanes = self.lanes(257, shapers, plant_d)

        def no_worker_map(fn, parts):
            raise AssertionError("a traced pass mapped its parts over workers")

        chunks = []
        traced = run_lanes(lanes, lambda start, traces: chunks.append((start, traces)), 2, no_worker_map)
        assert [start for start, _ in chunks] == [0, BLOCK, 2 * BLOCK]
        expected = run_feedback_loop(gen_input(lanes[0].model, 0.1), lanes[0].shaper, lanes[0].quantizer)
        assert np.array_equal(np.concatenate([traces.u for _, traces in chunks]), expected.u)
        assert traced == run_lanes(lanes, workers=2)

    @pytest.mark.parametrize("count", [8, 16, 40])
    def test_diverging_lane_raises_alike_on_every_path(self, shapers, plant_d, count):
        # u grows tenfold a step once it saturates, to inf and then NaN; the
        # pass stops where the scalar loop on the whole lane stops.
        lanes = self.lanes(count, shapers, plant_d, length=3 * BLOCK)
        lanes[3] = dataclasses.replace(lanes[3], shaper=RationalDiscreteTF((1.0, 10.0)))
        at = _failing_sample(lanes[3])
        assert (len(lane_parts(count)[0]) >= MIN_BATCH_LANES) == (count >= MIN_BATCH_LANES)
        start = at - at % BLOCK
        expected = f"seed=3: u/step is not finite at sample {at - start} of the chunk from sample {start}"
        with pytest.raises(NumericalError) as got:
            list(run_lanes(lanes))
        assert str(got.value) == expected

    def test_divergence_does_not_depend_on_the_length(self, plant):
        # The 8-bit 1 + 10 z^-1 set-up of the CLI's diverging-lane tests: a
        # lane diverges once it overloads. The input is not rescaled by the
        # whole lane, so a lane's first 20,000 samples of x and u, and whether
        # it fails in them, are the same bits at 20,000 and 60,000 samples.
        # Seed 4 fails at sample 8201 at either length; seed 1 runs clean.
        shaper = RationalDiscreteTF((1.0, 10.0))
        *_, quant = loop_quantizer(shaper, ct_frequency_map(plant, 1, FrequencyGrid(1024)), 8, 4.0)
        plant_map = ct_frequency_map(plant, 1, WELCH_GRID)
        failures = {}
        for seed in range(5):
            runs = {}
            for n in (20_000, 60_000):
                lane = _lane(seed, n, shaper, quant, plant_map)
                chunks = []
                try:
                    list(run_lanes([lane], lambda start, traces: chunks.append(traces)))
                    failure = None
                except LaneFailure as exc:
                    failure = str(exc)
                x, u = (np.concatenate([getattr(t, name) for t in chunks])[:20_000] for name in ("x", "u"))
                runs[n] = gen_input(lane.model, 0.1)[:20_000], x, u, failure
            (x20, x_lane20, u20, fail20), (x60, x_lane60, u60, fail60) = runs[20_000], runs[60_000]
            assert x20.tobytes() == x60.tobytes()
            k = min(len(u20), len(u60))  # a failing chunk sends no trace
            assert x_lane20[:k].tobytes() == x_lane60[:k].tobytes() == x20[:k].tobytes()
            assert u20[:k].tobytes() == u60[:k].tobytes()
            if fail20 is not None or k < 20_000 - 20_000 % BLOCK:
                assert fail20 == fail60
            failures[seed] = fail60
        assert failures[4] == "seed=4: u/step is not finite at sample 9 of the chunk from sample 8192"
        assert failures[1] is None

    def test_unequal_lengths_rejected(self, shapers, plant_d):
        lanes = self.lanes(2, shapers, plant_d)
        lanes[1] = dataclasses.replace(lanes[1], model=dataclasses.replace(lanes[1].model, length=10))
        with pytest.raises(ValueError):
            list(run_lanes(lanes))


# tracemalloc peak of a run_lanes pass over 32 lanes of 2^16 samples, in
# chunk buffers (BLOCK x lanes float64): the pass holds three of them (the
# inputs, u and each lane's block of Welch carry) plus per-lane temporaries,
# about 3.4 in all at any length; a whole-lane buffer of the same lanes would
# be 8 of them.
PASS_PEAK_BUFFERS = 4


def test_lane_pass_memory_is_bounded_by_the_chunk(plant):
    lanes_n, n = 32, 1 << 16
    plant_d = ct_frequency_map(plant, 1, WELCH_GRID)
    quant = MidRiseQuantizer(step=0.125, saturation=1.9375)
    lanes = [_lane(seed, n, RationalDiscreteTF((1.0, -0.5)), quant, plant_d) for seed in range(lanes_n)]
    list(run_lanes(lanes[:1]))  # imports and first-call set-up outside the measurement
    tracemalloc.start()
    try:
        results = list(run_lanes(lanes))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == lanes_n
    assert peak <= PASS_PEAK_BUFFERS * 8 * BLOCK * lanes_n <= 8 * n * lanes_n / 2


def _welch_oracle(err, plant_map):
    """scipy's Welch density of err (periodic Hann, SEGMENT samples, 50 %
    overlap, no detrend), weighted by the plant map squared on its bins and
    integrated over [0, 1/2]."""
    freqs, density = signal.welch(err, window="hann", nperseg=SEGMENT, noverlap=SEGMENT // 2, detrend=False)
    assert np.allclose(2 * np.pi * freqs, plant_map.grid.omegas, rtol=0, atol=1e-14)
    return float(np.sum(plant_map.values**2 * density)) / SEGMENT


def _piece(traces, a, b):
    return LoopTraces(*(arr[a:b] for arr in (traces.x, traces.u, traces.v, traces.w, traces.overload)))


class TestRunStats:
    @pytest.fixture(scope="class")
    def run(self, plant):
        plant_d = ct_frequency_map(plant, 2, WELCH_GRID)
        quant = MidRiseQuantizer(step=0.25, saturation=1.875)
        x = gen_input(SignalModel(kind="colored", seed=4, length=5 * BLOCK + 123), 0.05)
        return run_feedback_loop(x, RationalDiscreteTF((1.0, -0.7, 0.2)), quant), plant_d

    def test_chunked_feed_equals_whole(self, run):
        traces, plant_d = run
        whole = summarize_run(traces, plant_d, 0.5)
        for cuts in ((BLOCK,), (2 * BLOCK, 4 * BLOCK), (5 * BLOCK,)):
            stats = RunStats(plant_d, len(traces.x))
            for a, b in zip((0, *cuts), (*cuts, len(traces.x))):
                stats.add(_piece(traces, a, b))
            assert stats.result(0.5) == whole

    def test_statistics_against_whole_array_formulas(self, run):
        traces, plant_d = run
        got = summarize_run(traces, plant_d, 0.5)
        assert got.overload_count == int(np.count_nonzero(traces.overload))
        assert got.sigma_u_sq == pytest.approx(float(np.var(traces.u)), rel=1e-13)
        assert got.w_variance == pytest.approx(float(np.var(traces.w)), rel=1e-13)
        assert got.empirical_mse == pytest.approx(_welch_oracle(traces.v - traces.x, plant_d), rel=1e-12)
        w = traces.w
        dots = [float(np.sum(w[:-k] * w[k:])) / float(np.sum(w * w)) for k in range(1, 21)]
        np.testing.assert_allclose(got.w_autocorr, dots, rtol=1e-12, atol=1e-15)

    def test_misaligned_and_incomplete_feeds_rejected(self, run):
        traces, plant_d = run
        pieces = [_piece(traces, a, b) for a, b in ((0, 100), (100, 200))]
        stats = RunStats(plant_d, len(traces.x))
        stats.add(pieces[0])
        with pytest.raises(ValueError, match="inside a block"):
            stats.add(pieces[1])
        with pytest.raises(ValueError, match="fed 100"):
            stats.result(0.5)
        with pytest.raises(ValueError, match="more samples"):
            RunStats(plant_d, SEGMENT).add(traces)
        with pytest.raises(ValueError, match=f"need at least {SEGMENT} samples"):
            RunStats(plant_d, SEGMENT - 1)

    def test_overflow_gives_non_finite_statistics_without_a_warning(self, plant):
        # u and w near 1e200 are finite, but their squares overflow.
        plant_d = ct_frequency_map(plant, 1, WELCH_GRID)
        u = 1e200 * np.random.default_rng(0).standard_normal(3 * BLOCK)
        traces = loop_traces(np.zeros_like(u), u, MidRiseQuantizer(step=0.25, saturation=1.875))
        stats = RunStats(plant_d, len(u))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats.add(traces)
            got = stats.result(0.5)
        assert got.sigma_u_sq == got.w_variance == math.inf
        assert not np.isfinite(got.w_autocorr).any()
        assert math.isfinite(got.empirical_mse)
        assert got.overload_count == len(u)


class TestWelchScorer:
    """The output MSE against the design's functional: a white w of unit
    variance through R = (1 - z^-1)^2 puts almost all its power above
    pi/lambda, where the plant map of lambda = 4 is zero."""

    SEGMENTS = 60

    @pytest.fixture(scope="class")
    def run(self, plant):
        n = (self.SEGMENTS + 1) * BLOCK
        shaper = RationalDiscreteTF((1.0, -2.0, 1.0))
        w = np.random.default_rng(2).standard_normal(n)
        traces = LoopTraces(x=np.zeros(n), u=np.zeros(n), v=linear_filter(shaper.num, [1.0], w), w=w, overload=np.zeros(n, dtype=bool))
        return traces, shaper, ct_frequency_map(plant, 4, WELCH_GRID)

    def test_in_band_mse_matches_the_exact_integral(self, run, plant):
        traces, shaper, plant_map = run
        fine = ct_frequency_map(plant, 4, FrequencyGrid(1 << 16))
        exact = shaped_noise_norm_sq(shaper, fine)[0]  # ||p R||^2 sigma_w^2, the design's MSE of this error
        om = fine.grid.omegas
        r_sq = np.abs(frequency_response(shaper, om)) ** 2
        out_of_band = np.trapezoid(np.where(om > math.pi / 4, r_sq, 0.0), om) / math.pi
        assert out_of_band >= 1e4 * exact  # 1.9e5
        got = summarize_run(traces, plant_map, exact).empirical_mse
        # Each segment's estimate sums the weighted bins q_k |Y_k|^2, |Y_k|^2
        # about exponential, so its relative variance is 1 / n_eff with
        # n_eff = (sum q)^2 / sum q^2 (1,164 here); the Hann window's
        # correlation of neighbouring bins and of overlapping segments
        # inflates that by under 2. Five standard errors over the segments:
        q = np.abs(plant_map.values * frequency_response(shaper, WELCH_GRID.omegas)) ** 2
        n_eff = q.sum() ** 2 / np.sum(q * q)
        tolerance = 5.0 * math.sqrt(2.0 / (self.SEGMENTS * n_eff))  # 0.027
        assert abs(got / exact - 1.0) <= tolerance, (got / exact, tolerance)

    def test_chunking_gives_the_same_bits(self, run):
        traces, _, plant_map = run
        whole = summarize_run(traces, plant_map, 1.0)
        n = len(traces.x)
        for blocks in (1, 3, 7):
            stats = RunStats(plant_map, n)
            for start in range(0, n, blocks * BLOCK):
                stats.add(_piece(traces, start, start + blocks * BLOCK))
            assert stats.result(1.0) == whole, blocks

    def test_plant_map_off_the_welch_grid_rejected(self, plant):
        with pytest.raises(ValueError, match="Welch grid"):
            RunStats(ct_frequency_map(plant, 4, FrequencyGrid(8192)), SEGMENT)


# run_feedback_loop steps in BLOCK-sample chunks; lengths and failure
# positions below sit at and around multiples of CHUNK, each a chunk boundary.
CHUNK = 8 * BLOCK


def _same_bits(a, b):
    # compared as bit patterns, so that -0.0 and 0.0 differ
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestScalarLoopOracle:
    """The chunked scalar loop against the whole-lane reference loop: every
    u bit for bit, and a failing lane fails alike."""

    @pytest.fixture(scope="class")
    def shapers(self, p_base):
        gamma = gamma_from_bits(8, 4.0)
        sol = solve_min_mse(p_base, gamma)
        return {
            "order0": RationalDiscreteTF((1.0,)),
            "order1": RationalDiscreteTF((1.0, -0.9)),
            "order2": RationalDiscreteTF([1.0, -1.1, 0.4], [1.0, -0.5]),
            "order3": RationalDiscreteTF((1.0, -1.5, 0.8, -0.2)),
            "order4": norm_constrained_fir(p_base, 4, sol.norm_r_sq)[0],
            "fir16": norm_constrained_fir(p_base, 15, sol.norm_r_sq)[0],
            "yw4": yule_walker_fit(optimal_shaper(sol.alpha_opt, p_base), 4),
        }

    def lane(self, shapers, name, n, seed=0):
        x = gen_input(SignalModel(kind="colored", seed=seed, length=n), 0.1)
        x[::97] = -0.0  # exact zeros of either sign in x
        x[1::97] = 0.0
        return x, shapers[name], MidRiseQuantizer.for_sigma_u(8, 4.0, 1.3)

    def assert_matches_reference(self, x, shaper, quant):
        expected = reference_loop.run_feedback_loop(x, shaper, quant)
        got = run_feedback_loop(x, shaper, quant)
        for name in ("x", "u", "v", "w"):
            assert _same_bits(getattr(got, name), getattr(expected, name)), name
        assert np.array_equal(got.overload, expected.overload)
        return got

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("name", ["yw4", "fir16"])
    def test_lengths_around_the_chunk(self, shapers, name, n):
        self.assert_matches_reference(*self.lane(shapers, name, n))

    @pytest.mark.parametrize("name", ["order0", "order1", "order2", "order3", "order4"])
    def test_every_order_across_chunks(self, shapers, name):
        self.assert_matches_reference(*self.lane(shapers, name, 2 * CHUNK + 1, seed=1))

    def test_short_and_empty_lanes(self, shapers):
        quant = MidRiseQuantizer(step=0.25, saturation=1.875)
        for n in (0, 1, 5):
            self.assert_matches_reference(np.linspace(-3.0, 3.0, n), shapers["yw4"], quant)

    def test_collapsing_lane(self, p_base, plant):
        p_lam = oversample_response(p_base, 4)
        gamma = gamma_from_bits(8, 4.0)
        sol = solve_min_mse(p_lam, gamma)
        shaper, _ = norm_constrained_fir(p_lam, 4, sol.norm_r_sq)
        sigma_u_sq, _ = predicted_loop_variances(evaluate_fit(shaper, p_lam, gamma).norm_sq, gamma)
        quant = MidRiseQuantizer.for_sigma_u(8, 4.0, math.sqrt(sigma_u_sq))
        x = gen_input(SignalModel(kind="colored", seed=1, length=2 * CHUNK + 1), plant.sample_period / 4)
        got = self.assert_matches_reference(x, shaper, quant)
        assert np.count_nonzero(got.overload[CHUNK:]) > CHUNK // 2  # collapsed well before the second chunk

    @pytest.mark.parametrize(
        ("at", "value", "shaper"),
        [
            (CHUNK + 3, math.inf, "order4"),
            (CHUNK + 3, -math.inf, "order2"),
            (CHUNK, math.nan, "yw4"),
            (2 * CHUNK, 1e308, "order3"),  # u/step overflows to inf
            (CHUNK + 7, 4.0, "diverging"),  # a spike the feedback amplifies to inf
        ],
    )
    def test_non_finite_lane_fails_as_reference(self, shapers, at, value, shaper):
        # The loop stops with NumericalError at the sample where the
        # reference loop's floor raises: the reference runs the samples
        # before it and fails on the prefix that ends with it.
        quant = MidRiseQuantizer(step=0.25, saturation=1.875)
        r = RationalDiscreteTF((1.0, 3.0)) if shaper == "diverging" else shapers[shaper]
        x = np.zeros(2 * CHUNK + 1) if shaper == "diverging" else self.lane(shapers, "order0", 2 * CHUNK + 1)[0]
        x[at] = value
        with pytest.raises(NumericalError, match=r"^u/step is not finite at sample \d+$") as got:
            run_feedback_loop(x, r, quant)
        k = int(re.search(r"\d+$", str(got.value))[0])
        assert k == at if shaper != "diverging" else k > at
        reference_loop.run_feedback_loop(x[:k], r, quant)
        with pytest.raises((OverflowError, ValueError)):
            reference_loop.run_feedback_loop(x[: k + 1], r, quant)


# tracemalloc peak of run_feedback_loop per sample at 2^18 samples: the
# whole-lane reference loop peaks at about 89 B (two lists of Python floats),
# the chunked loop at about 26 B (u, v, w, overload and one chunk's lists).
LOOP_PEAK_BYTES_PER_SAMPLE = 48


def test_scalar_loop_memory_is_bounded_per_sample():
    n = 1 << 18
    x = gen_input(SignalModel(kind="white", seed=0, length=n), 0.1)
    shaper = RationalDiscreteTF((1.0,))
    quant = MidRiseQuantizer(step=0.25, saturation=1.875)
    tracemalloc.start()
    try:
        run_feedback_loop(x, shaper, quant)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n <= LOOP_PEAK_BYTES_PER_SAMPLE


def _output_error(x, v):
    """Traces of a run whose loop output is v for the input x, and no overload."""
    return LoopTraces(x=x, u=x, v=v, w=v - x, overload=np.zeros(len(x), dtype=bool))


class TestEmpiricalMSE:
    def test_zero_error_gives_zero(self, plant):
        plant_d = ct_frequency_map(plant, 1, WELCH_GRID)
        x = np.random.default_rng(0).standard_normal(50_000)
        assert summarize_run(_output_error(x, x), plant_d, 0.0).empirical_mse == 0.0

    def test_white_noise_through_plant_matches_parseval(self, plant):
        plant_d = ct_frequency_map(plant, 1, WELCH_GRID)
        rng = np.random.default_rng(42)
        n = 400_000
        x = np.zeros(n)
        noise = rng.uniform(-0.5, 0.5, n)
        got = summarize_run(_output_error(x, x + noise), plant_d, 0.0).empirical_mse
        expected = (1.0 / 12.0) * band_mean(plant_d, lambda om, v: v * v)
        assert got == pytest.approx(expected, rel=0.1)

    def test_short_series_rejected(self, plant):
        plant_d = ct_frequency_map(plant, 1, WELCH_GRID)
        x = np.zeros(100)
        with pytest.raises(ValueError):
            summarize_run(_output_error(x, x), plant_d, 0.0)


class TestGranularMSE:
    """``granular_mse`` against its definition: the Welch score of R clip(w),
    the error the run would show had every overload error been granular."""

    QUANT = MidRiseQuantizer(step=1.0, saturation=7.5)
    SEGMENTS = 60

    def planted(self, shaper, n):
        """Traces of a loop with zero input whose errors are granular,
        uniform on [-d/2, d/2], but at five planted overloads."""
        rng = np.random.default_rng(7)
        w = rng.uniform(-0.5, 0.5, n)
        w[[5, BLOCK - 1, BLOCK, 20_000, n - 1]] = [30.0, -9.0, 4.0, -120.0, 25.0]
        v = linear_filter(shaper.num, shaper.den, w)
        return LoopTraces(x=np.zeros(n), u=v - w, v=v, w=w, overload=np.abs(w) > 0.5)

    @pytest.mark.parametrize("lam", [1, 2])
    @pytest.mark.parametrize(
        "shaper", [RationalDiscreteTF((1.0, -1.2, 0.5)), RationalDiscreteTF([1.0, -1.1, 0.4], [1.0, -0.5])], ids=["fir", "iir"]
    )
    def test_equals_the_score_of_the_clipped_error(self, plant, shaper, lam):
        traces = self.planted(shaper, 5 * BLOCK + 123)
        plant_map = ct_frequency_map(plant, lam, WELCH_GRID)
        expected = _welch_oracle(linear_filter(shaper.num, shaper.den, np.clip(traces.w, -0.5, 0.5)), plant_map)
        got = granular_mse(traces, shaper, self.QUANT, plant_map)
        assert got == pytest.approx(expected, rel=1e-12)
        assert summarize_run(traces, plant_map, 0.0).empirical_mse > 2 * got  # the overloads' bursts

    def test_no_overload_equals_empirical(self, plant, p_base):
        shaper, _ = norm_constrained_fir(p_base, 4, 1.5)
        quant = MidRiseQuantizer.for_sigma_u(8, 6.0, 1.5)
        x = gen_input(SignalModel(kind="colored", seed=0, length=100_000), plant.sample_period)
        traces = run_feedback_loop(x, shaper, quant)
        assert not traces.overload.any() and np.abs(traces.w).max() <= quant.step / 2
        for lam in (1, 2):
            plant_map = ct_frequency_map(plant, lam, WELCH_GRID)
            assert granular_mse(traces, shaper, quant, plant_map) == summarize_run(traces, plant_map, 0.0).empirical_mse

    def test_ignores_power_above_the_band(self, plant):
        # As in TestWelchScorer: R = (1 - z^-1)^2 puts almost all of the
        # granular error's power above pi/2, where the lambda = 2 map is zero;
        # the reading is the design's in-band ||p R||^2 sigma_w^2, d^2/12 for
        # sigma_w^2, with the planted overloads taken out.
        shaper = RationalDiscreteTF((1.0, -2.0, 1.0))
        traces = self.planted(shaper, (self.SEGMENTS + 1) * BLOCK)
        plant_map = ct_frequency_map(plant, 2, WELCH_GRID)
        fine = ct_frequency_map(plant, 2, FrequencyGrid(1 << 16))
        exact = shaped_noise_norm_sq(shaper, fine)[0] / 12.0
        om = fine.grid.omegas
        r_sq = np.abs(frequency_response(shaper, om)) ** 2
        out_of_band = np.trapezoid(np.where(om > math.pi / 2, r_sq, 0.0), om) / math.pi / 12.0
        assert out_of_band >= 100 * exact
        got = granular_mse(traces, shaper, self.QUANT, plant_map)
        q = np.abs(plant_map.values * frequency_response(shaper, WELCH_GRID.omegas)) ** 2
        n_eff = q.sum() ** 2 / np.sum(q * q)
        tolerance = 5.0 * math.sqrt(2.0 / (self.SEGMENTS * n_eff))
        assert abs(got / exact - 1.0) <= tolerance, (got / exact, tolerance)
        assert summarize_run(traces, plant_map, exact).empirical_mse / exact - 1.0 > 2 * tolerance  # the overloads' bursts


class TestStudentT:
    def test_quantile_matches_scipy(self):
        # The table holds scipy's values to the bit; the expansion above it
        # is within 2e-8 relative, and tends to the normal quantile.
        from scipy import stats

        for df in range(1, 31):
            assert t_quantile_975(df) == stats.t.ppf(0.975, df), df
        for df in (*range(31, 201), 1000, 10**4, 10**6):
            assert t_quantile_975(df) == pytest.approx(stats.t.ppf(0.975, df), rel=2e-8, abs=0), df
        with pytest.raises(ValueError, match="at least 1 degree of freedom"):
            t_quantile_975(0)
