"""Time-domain loop: quantizer, signal generators, and loop identities."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

import reference_loop
from efq.design import DesignProblem, QuantizerSpec, gamma_from_bits, optimal_shaper, solve_min_mse
from efq.errors import NumericalError
from efq.fitting import (
    FIRFilter,
    as_discrete_tf,
    complete_report,
    evaluate_fit,
    norm_constrained_fir,
    yule_walker_fit,
)
from efq.simulate import (
    BLOCK,
    LANE_BUFFER_SAMPLES,
    MAX_LAG,
    MIN_BATCH_LANES,
    Lane,
    LoopTraces,
    MidRiseQuantizer,
    RunStats,
    SignalModel,
    discretize_plant,
    excised_mse,
    filter_memory_estimate,
    gen_input,
    lane_group_size,
    loop_identity_residual,
    loop_quantizer,
    loop_traces,
    plant_burn_in,
    predicted_loop_variances,
    quantize_array,
    quantize_midrise,
    run_feedback_lanes,
    run_feedback_loop,
    run_lanes,
    summarize_run,
)
from efq.simulate import _InputDraw, _unit_scale
from efq.spectral import amplitude_of_tf, band_mean, oversample_response
from efq.transfer import ContinuousTF, RationalDiscreteTF, frequency_response


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
        model = SignalModel(kind="colored", seed=3, length=100_000)
        x = gen_input(model, 0.1)
        assert float(np.var(x)) == pytest.approx(1.0, rel=1e-12)

    def test_colored_lag_one_autocorrelation(self):
        model = SignalModel(kind="colored", seed=11, length=200_000)
        x = gen_input(model, 0.1)
        rho1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert rho1 == pytest.approx(math.exp(-2.62 * 0.1), abs=0.01)

    def test_white_is_uncorrelated(self):
        model = SignalModel(kind="white", seed=5, length=200_000)
        x = gen_input(model, 0.1)
        assert float(np.var(x)) == pytest.approx(1.0, rel=1e-12)
        rho1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(rho1) < 0.01

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SignalModel(kind="pink", seed=0, length=100)

    @pytest.mark.parametrize("kind", ["colored", "white"])
    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, 3 * BLOCK + 5])
    def test_chunked_draws_equal_gen_input(self, kind, n):
        # The lane pass draws with scipy's lfilter, gen_input with
        # linear_filter: chunk by chunk, scaled as the pass scales them, the
        # draws are gen_input's samples bit for bit.
        model = SignalModel(kind=kind, seed=n, length=n)
        scale = _unit_scale(_InputDraw(model, 0.1)(n))
        draw = _InputDraw(model, 0.1)
        chunks = [draw(min(BLOCK, n - start)) * scale for start in range(0, n, BLOCK)]
        assert np.concatenate(chunks).tobytes() == gen_input(model, 0.1).tobytes()


@pytest.fixture(scope="module")
def loop_setup(plant, p_base, grid):
    gamma = gamma_from_bits(8, 4.0)
    report = norm_constrained_fir(p_base, 4, 1.5)
    shaper = as_discrete_tf(report.fitted)
    plant_d = discretize_plant(plant, 1)
    score = complete_report(report, amplitude_of_tf(plant_d, grid), gamma, ideal_mse=math.nan)
    sigma_u_sq, _ = predicted_loop_variances(score.norm_sq, gamma)
    quant = MidRiseQuantizer.from_spec(
        QuantizerSpec.for_sigma_u(8, 4.0, math.sqrt(sigma_u_sq))
    )
    model = SignalModel(kind="colored", seed=0, length=100_000)
    x = gen_input(model, plant.sample_period)
    traces = run_feedback_loop(x, shaper, quant)
    return shaper, plant_d, quant, score, traces


class TestLoopQuantizer:
    def test_is_the_hand_set_up(self, loop_setup, grid):
        shaper, plant_d, quant, score, _ = loop_setup
        got_score, sigma_u_sq, sigma_w_sq, got_quant = loop_quantizer(shaper, amplitude_of_tf(plant_d, grid), 8, 4.0)
        assert got_quant == quant
        assert (got_score.achieved_mse, got_score.norm_sq) == (score.achieved_mse, score.norm_sq)
        assert (sigma_u_sq, sigma_w_sq) == predicted_loop_variances(score.norm_sq, gamma_from_bits(8, 4.0))

    def test_infeasible_shaper_rejected(self, p_base):
        with pytest.raises(NumericalError, match="infeasible"):
            loop_quantizer(FIRFilter([1.0, 3.0]), p_base, 1, 4.0)


class TestLoop:

    def test_loop_identity_holds(self, loop_setup):
        shaper, _, _, _, traces = loop_setup
        assert loop_identity_residual(traces, shaper) <= 1e-10

    def test_identity_holds_under_overload(self, plant, p_base):
        # A 1-bit quantizer overloads constantly; the loop equation is
        # structural and must survive that.
        report = norm_constrained_fir(p_base, 2, 1.1)
        shaper = as_discrete_tf(report.fitted)
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
        report = norm_constrained_fir(p_base, 2, 1.2)
        shaper = as_discrete_tf(report.fitted)
        quant = MidRiseQuantizer.from_spec(QuantizerSpec.for_sigma_u(24, 6.0, 1.0))
        model = SignalModel(kind="colored", seed=3, length=20_000)
        x = gen_input(model, plant.sample_period)
        traces = run_feedback_loop(x, shaper, quant)
        assert int(np.count_nonzero(traces.overload)) == 0
        plant_d = discretize_plant(plant, 1)
        assert summarize_run(traces, plant_d, 0.0).empirical_mse < 1e-10

    def test_nonunity_head_rejected(self, plant):
        shaper = RationalDiscreteTF([0.9, 0.1], [1.0])
        quant = MidRiseQuantizer(step=0.01, saturation=4.005)
        x = np.zeros(100)
        with pytest.raises(ValueError):
            run_feedback_loop(x, shaper, quant)

    def test_summary_fields(self, loop_setup):
        shaper, plant_d, _, score, traces = loop_setup
        result = summarize_run(traces, plant_d, score.achieved_mse)
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
        return p_lam, gamma, solve_min_mse(DesignProblem(p=p_lam, gamma=gamma))

    def lane(bits, lam, shaper, seed):
        p_lam, gamma, _ = design(bits, lam)
        sigma_u_sq, _ = predicted_loop_variances(evaluate_fit(shaper, p_lam, gamma).norm_sq, gamma)
        quant = MidRiseQuantizer.from_spec(QuantizerSpec.for_sigma_u(bits, 4.0, math.sqrt(sigma_u_sq)))
        x = gen_input(SignalModel(kind="colored", seed=seed, length=n), plant.sample_period / lam)
        return x, shaper, quant

    def qcqp(bits, lam, order):
        p_lam, _, sol = design(bits, lam)
        return norm_constrained_fir(p_lam, order, sol.norm_r_sq).fitted

    p_8, _, sol_8 = design(8, 1)
    lanes = [lane(8, 1, yule_walker_fit(optimal_shaper(sol_8.alpha_opt, p_8), order), order) for order in (2, 3, 4)]
    lanes += [lane(4, 2, qcqp(4, 2, order), 5 + order) for order in (1, 4)]
    lanes.append(lane(3, 1, FIRFilter((1.0,)), 10))
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
        assert lane_group_size(lanes) == size

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
    return summarize_run(traces, lane.plant, lane.predicted_mse)


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
        return [FIRFilter((1.0, -0.8)), RationalDiscreteTF([1.0, -1.1, 0.4], [1.0, -0.5]), FIRFilter((1.0,))]

    @pytest.fixture(scope="class")
    def plant_d(self, plant):
        return discretize_plant(plant, 1)

    def lanes(self, count, shapers, plant_d, length=2 * BLOCK + 17, quant=MidRiseQuantizer(step=0.125, saturation=1.9375)):
        return [_lane(seed, length, shapers[seed % len(shapers)], quant, plant_d) for seed in range(count)]

    @pytest.mark.parametrize("count", [15, 16, 37])
    def test_matches_scalar_loop_on_either_path(self, shapers, plant_d, count):
        assert (lane_group_size(count) >= MIN_BATCH_LANES) == (count >= MIN_BATCH_LANES)  # 15: the scalar path
        lanes = self.lanes(count, shapers, plant_d)
        got = list(run_lanes(lanes))
        assert got == [_oracle(lane) for lane in lanes]

    def test_result_does_not_depend_on_the_group(self, shapers, plant_d, p_base):
        lanes = self.lanes(40, shapers + [norm_constrained_fir(p_base, 4, 1.5).fitted], plant_d)
        lanes[9] = dataclasses.replace(lanes[9], quantizer=MidRiseQuantizer(step=0.5, saturation=0.75))  # overloads
        whole = list(run_lanes(lanes))
        assert whole[9].overload_count > 100
        assert list(run_lanes(lanes[:16])) == whole[:16]
        for j in (0, 9, 39):
            assert list(run_lanes([lanes[j]])) == [whole[j]]  # alone, on the scalar loop
        perm = np.random.default_rng(5).permutation(len(lanes))
        assert list(run_lanes([lanes[j] for j in perm])) == [whole[j] for j in perm]

    @pytest.mark.parametrize("length", [BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("count", [1, 16])
    def test_lengths_around_the_block(self, shapers, plant_d, count, length):
        lanes = self.lanes(count, shapers, plant_d, length=length)
        assert list(run_lanes(lanes)) == [_oracle(lane) for lane in lanes]

    def test_burn_in_ending_inside_a_later_block(self, shapers):
        slow = RationalDiscreteTF([0.002], [1.0, -0.998])  # memory 500: a 10,000-sample burn-in
        n = 3 * BLOCK
        assert BLOCK < plant_burn_in(slow, n) < 2 * BLOCK
        lanes = self.lanes(16, shapers, slow, length=n)
        got = list(run_lanes(lanes))
        assert got == [_oracle(lane) for lane in lanes]
        traces = run_feedback_loop(gen_input(lanes[0].model, 0.1), lanes[0].shaper, lanes[0].quantizer)
        assert got[0].empirical_mse == summarize_run(traces, slow, 0.0).empirical_mse
        err = signal.lfilter(slow.num, slow.den, traces.v - traces.x)
        assert got[0].empirical_mse == pytest.approx(float(np.var(err[plant_burn_in(slow, n) :])), rel=1e-12)

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
        assert lane_group_size(len(lanes)) >= MIN_BATCH_LANES
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
            lanes[j] = dataclasses.replace(lanes[j], shaper=FIRFilter((1.0,)), quantizer=TINY)
        at3, at5, at7 = (_failing_sample(lanes[j]) for j in (3, 5, 7))
        assert 2 * BLOCK <= at3 < 3 * BLOCK and BLOCK <= at7 < at5 < 2 * BLOCK
        x5 = gen_input(lanes[5].model, lanes[5].sample_period)
        assert at5 == np.flatnonzero(np.abs(x5) >= 4.0)[0]
        assert (lane_group_size(count) >= MIN_BATCH_LANES) == (count >= MIN_BATCH_LANES)
        expected = f"seed=5: u/step is not finite at sample {at5 - BLOCK} of the chunk from sample {BLOCK}"
        with pytest.raises(NumericalError) as got:
            list(run_lanes(lanes))
        assert str(got.value) == expected

    @pytest.mark.parametrize("count", [8, 16, 40])
    def test_diverging_lane_raises_alike_on_every_path(self, shapers, plant_d, count):
        # u grows tenfold a step once it saturates, to inf and then NaN; the
        # pass stops where the scalar loop on the whole lane stops.
        lanes = self.lanes(count, shapers, plant_d, length=3 * BLOCK)
        lanes[3] = dataclasses.replace(lanes[3], shaper=FIRFilter((1.0, 10.0)))
        at = _failing_sample(lanes[3])
        assert (lane_group_size(count) >= MIN_BATCH_LANES) == (count >= MIN_BATCH_LANES)
        start = at - at % BLOCK
        expected = f"seed=3: u/step is not finite at sample {at - start} of the chunk from sample {start}"
        with pytest.raises(NumericalError) as got:
            list(run_lanes(lanes))
        assert str(got.value) == expected

    def test_unequal_lengths_rejected(self, shapers, plant_d):
        lanes = self.lanes(2, shapers, plant_d)
        lanes[1] = dataclasses.replace(lanes[1], model=dataclasses.replace(lanes[1].model, length=10))
        with pytest.raises(ValueError):
            list(run_lanes(lanes))


# tracemalloc peak of a run_lanes pass over 32 lanes of 2^16 samples, in
# chunk buffers (BLOCK x lanes float64): the pass holds two of them plus
# per-lane temporaries, about 2.9 in all at any length; a whole-lane buffer of
# the same lanes would be 8 of them.
PASS_PEAK_BUFFERS = 4


def test_lane_pass_memory_is_bounded_by_the_chunk(plant):
    lanes_n, n = 32, 1 << 16
    plant_d = discretize_plant(plant, 1)
    quant = MidRiseQuantizer(step=0.125, saturation=1.9375)
    lanes = [_lane(seed, n, FIRFilter((1.0, -0.5)), quant, plant_d) for seed in range(lanes_n)]
    list(run_lanes(lanes[:1]))  # imports and first-call set-up outside the measurement
    tracemalloc.start()
    try:
        results = list(run_lanes(lanes))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == lanes_n
    assert peak <= PASS_PEAK_BUFFERS * 8 * BLOCK * lanes_n <= 8 * n * lanes_n / 2


def _piece(traces, a, b):
    return LoopTraces(*(arr[a:b] for arr in (traces.x, traces.u, traces.v, traces.w, traces.overload)))


class TestRunStats:
    @pytest.fixture(scope="class")
    def run(self, plant):
        plant_d = discretize_plant(plant, 2)
        quant = MidRiseQuantizer(step=0.25, saturation=1.875)
        x = gen_input(SignalModel(kind="colored", seed=4, length=5 * BLOCK + 123), 0.05)
        return run_feedback_loop(x, FIRFilter((1.0, -0.7, 0.2)), quant), plant_d

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
        err = signal.lfilter(plant_d.num, plant_d.den, traces.v - traces.x)
        assert got.empirical_mse == pytest.approx(float(np.var(err[plant_burn_in(plant_d, len(err)) :])), rel=1e-13)
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
            RunStats(plant_d, 3000).add(traces)

    def test_overflow_gives_non_finite_statistics_without_a_warning(self, plant):
        # u and w near 1e200 are finite, but their squares overflow.
        plant_d = discretize_plant(plant, 1)
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
        sol = solve_min_mse(DesignProblem(p=p_base, gamma=gamma))
        return {
            "order0": FIRFilter((1.0,)),
            "order1": FIRFilter((1.0, -0.9)),
            "order2": RationalDiscreteTF([1.0, -1.1, 0.4], [1.0, -0.5]),
            "order3": FIRFilter((1.0, -1.5, 0.8, -0.2)),
            "order4": norm_constrained_fir(p_base, 4, sol.norm_r_sq).fitted,
            "fir16": norm_constrained_fir(p_base, 15, sol.norm_r_sq).fitted,
            "yw4": yule_walker_fit(optimal_shaper(sol.alpha_opt, p_base), 4),
        }

    def lane(self, shapers, name, n, seed=0):
        x = gen_input(SignalModel(kind="colored", seed=seed, length=n), 0.1)
        x[::97] = -0.0  # exact zeros of either sign in x
        x[1::97] = 0.0
        return x, shapers[name], MidRiseQuantizer.from_spec(QuantizerSpec.for_sigma_u(8, 4.0, 1.3))

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
        sol = solve_min_mse(DesignProblem(p=p_lam, gamma=gamma))
        shaper = norm_constrained_fir(p_lam, 4, sol.norm_r_sq).fitted
        sigma_u_sq, _ = predicted_loop_variances(evaluate_fit(shaper, p_lam, gamma).norm_sq, gamma)
        quant = MidRiseQuantizer.from_spec(QuantizerSpec.for_sigma_u(8, 4.0, math.sqrt(sigma_u_sq)))
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
        r = FIRFilter((1.0, 3.0)) if shaper == "diverging" else shapers[shaper]
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
    shaper = FIRFilter((1.0,))
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
        plant_d = discretize_plant(plant, 1)
        x = np.random.default_rng(0).standard_normal(50_000)
        assert summarize_run(_output_error(x, x), plant_d, 0.0).empirical_mse == 0.0

    def test_white_noise_through_plant_matches_parseval(self, plant, grid):
        plant_d = discretize_plant(plant, 1)
        rng = np.random.default_rng(42)
        n = 400_000
        x = np.zeros(n)
        noise = rng.uniform(-0.5, 0.5, n)
        got = summarize_run(_output_error(x, x + noise), plant_d, 0.0).empirical_mse
        p_amp = amplitude_of_tf(plant_d, grid)
        expected = (1.0 / 12.0) * band_mean(p_amp, lambda om, v: v * v)
        assert got == pytest.approx(expected, rel=0.1)

    def test_short_series_rejected(self, plant):
        plant_d = discretize_plant(plant, 1)
        x = np.zeros(100)
        with pytest.raises(ValueError):
            summarize_run(_output_error(x, x), plant_d, 0.0)


class TestExcisedMSE:
    def test_no_overload_equals_empirical(self, loop_setup):
        _, plant_d, _, _, traces = loop_setup
        clean = dataclasses.replace(traces, overload=np.zeros_like(traces.overload))
        mse, removed = excised_mse(clean, plant_d, 50)
        assert mse == summarize_run(traces, plant_d, 0.0).empirical_mse
        assert removed == 0.0

    def test_matches_per_overload_window_oracle(self, plant):
        plant_d = discretize_plant(plant, 1)
        rng = np.random.default_rng(4)
        n, window = 20_000, 40
        x = rng.standard_normal(n)
        v = x + rng.uniform(-0.5, 0.5, n)
        overload = np.zeros(n, dtype=bool)
        overload[[10, 5_000, 5_020, 12_345, n - 3]] = True
        traces = LoopTraces(x=x, u=x, v=v, w=v - x, overload=overload)
        burn = max(1000, 20 * filter_memory_estimate(plant_d))
        keep = np.ones(n, dtype=bool)
        keep[:burn] = False
        for idx in np.flatnonzero(overload):
            keep[idx : idx + window] = False
        err = signal.lfilter(plant_d.num, plant_d.den, v - x)
        mse, removed = excised_mse(traces, plant_d, window)
        assert mse == pytest.approx(float(np.var(err[keep])), rel=1e-12)
        # Past the burn-in: 60 (two overlapping windows) + 40 + 3 samples;
        # the window at sample 10 lies inside the burn-in.
        assert removed == pytest.approx(103 / (n - burn), rel=1e-12)

    def test_rejects_excision_of_nearly_everything(self, plant):
        plant_d = discretize_plant(plant, 1)
        x = np.zeros(5_000)
        traces = LoopTraces(x=x, u=x, v=x, w=x, overload=np.ones(5_000, dtype=bool))
        with pytest.raises(ValueError):
            excised_mse(traces, plant_d, 1)


class TestDiscretization:
    def test_dc_gain_preserved(self, plant):
        plant_d = discretize_plant(plant, 1)
        dc_d = abs(frequency_response(plant_d, np.array([0.0]))[0])
        dc_c = abs(plant.eval(0.0))
        assert dc_d == pytest.approx(dc_c, rel=1e-9)

    def test_poles_stable(self, plant):
        for lam in (1, 2, 4):
            plant_d = discretize_plant(plant, lam)
            assert max(abs(r) for r in np.roots(plant_d.den)) < 1.0

    def test_oversampled_discretization_tracks_lower_band(self, plant):
        # Doubling the rate moves a fixed continuous-time frequency to half
        # the digital frequency, lower in the band, where the magnitude fit
        # is tighter.
        om = np.array([0.3])
        truth = abs(plant.eval(1j * om[0] / plant.sample_period))
        base = abs(frequency_response(discretize_plant(plant, 1), om)[0])
        fine = abs(frequency_response(discretize_plant(plant, 2), om / 2.0)[0])
        assert abs(fine - truth) < abs(base - truth) + 1e-12

    def test_matches_continuous_magnitude_to_two_percent_below_half_band(self, plant):
        # Stated accuracy target on the benchmark plant. The magnitude-matched
        # fit stays below 0.1% over this range; a bilinear map, by its
        # frequency warping, would be 21% off at pi/2.
        plant_d = discretize_plant(plant, 1)
        om = np.linspace(1e-3, math.pi / 2.0, 500)
        got = np.abs(frequency_response(plant_d, om))
        want = np.abs([plant.eval(1j * w / plant.sample_period) for w in om])
        rel = np.max(np.abs(got - want) / want)
        assert rel <= 0.02, f"max relative discretization error {rel:.4f} exceeds 0.02"

    def test_matches_continuous_magnitude_over_full_band_at_every_rate(self, plant):
        # The simulation scores predictions on this plant over the whole
        # digital band, at every oversampling factor the benchmark uses.
        om = np.linspace(1e-3, math.pi, 2000)
        for lam in (1, 2, 3, 4):
            plant_d = discretize_plant(plant, lam)
            got = np.abs(frequency_response(plant_d, om))
            want = np.abs(plant.eval(1j * lam * om / plant.sample_period))
            rel = np.max(np.abs(got - want) / want)
            assert rel <= 0.02, f"lambda={lam}: max relative error {rel:.4f} exceeds 0.02"

    def test_zero_on_imaginary_axis_rejected(self):
        # |P| vanishes at DC (s = 0) and at 2 rad/s (s = +-2j): no finite
        # log-magnitude to match.
        for num in ([1.0, 0.0], [1.0, 0.0, 4.0]):
            with pytest.raises(ValueError, match="imaginary axis"):
                discretize_plant(ContinuousTF(num, [1.0, 2.0, 3.0, 1.0], 0.1))

    def test_memory_estimate_positive(self, plant):
        plant_d = discretize_plant(plant, 1)
        assert filter_memory_estimate(plant_d) >= len(plant_d.den)
