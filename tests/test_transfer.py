"""``linear_filter`` against its oracle, scipy.signal.lfilter, bit for bit."""

import numpy as np
import pytest
from scipy import signal

from efq.transfer import RationalDiscreteTF, linear_filter


def assert_same_bits(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes(), np.max(np.abs(ours - theirs))


def stable_den(rng, order, radius=0.95):
    """Monic real polynomial in z^-1 of the given order, every pole inside
    `radius`: conjugate pairs plus one real pole at odd order."""
    poles = []
    for _ in range(order // 2):
        p = rng.uniform(0.0, radius) * np.exp(1j * rng.uniform(0.0, np.pi))
        poles += [p, np.conj(p)]
    if order % 2:
        poles.append(rng.uniform(-radius, radius))
    return np.real(np.poly(poles))


class TestFirstOrderInput:
    """The AR(1) recursion gen_input runs: y = z + s x, z = pole y."""

    def test_with_zi_matches_lfilter(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pole = rng.uniform(-0.999, 0.999)
            num, den = [np.sqrt(1.0 - pole * pole)], [1.0, -pole]
            x = rng.standard_normal(int(rng.integers(1, 2000)))
            zi = np.array([pole * rng.standard_normal()])
            y, zf = linear_filter(num, den, x, zi=zi)
            y_ref, zf_ref = signal.lfilter(num, den, x, zi=zi)
            assert_same_bits(y, y_ref)
            assert_same_bits(zf, zf_ref)

    @pytest.mark.parametrize("seed", range(5))
    def test_state_carries_across_arbitrary_splits(self, seed):
        rng = np.random.default_rng(seed)
        pole = np.exp(-2.62 * rng.uniform(0.01, 0.5))
        num, den = [np.sqrt(1.0 - pole * pole)], [1.0, -pole]
        x = rng.standard_normal(5000)
        zi = np.array([pole * rng.standard_normal()])
        cuts = np.sort(rng.choice(np.arange(1, len(x)), size=int(rng.integers(1, 12)), replace=False))
        pieces, z = [], zi
        for piece in np.split(x, cuts):
            y, z = linear_filter(num, den, piece, zi=z)
            pieces.append(y)
        y_ref, zf_ref = signal.lfilter(num, den, x, zi=zi)
        assert_same_bits(np.concatenate(pieces), y_ref)
        assert_same_bits(z, zf_ref)


class TestFir:
    def test_convolve_branch_matches_lfilter(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            num = rng.standard_normal(int(rng.integers(1, 9)))
            x = rng.standard_normal(int(rng.integers(1, 40)))  # some shorter than num
            assert_same_bits(linear_filter(num, [1.0], x), signal.lfilter(num, [1.0], x))
            zi = rng.standard_normal(len(num) - 1)
            y, zf = linear_filter(num, [1.0], x, zi=zi)
            y_ref, zf_ref = signal.lfilter(num, [1.0], x, zi=zi)
            assert_same_bits(y, y_ref)
            assert_same_bits(zf, zf_ref)


class TestIir:
    @pytest.mark.parametrize("order", range(1, 7))
    def test_unequal_lengths_match_lfilter(self, order):
        rng = np.random.default_rng(order)
        den = stable_den(rng, order)
        for num_len in {1, order, order + 2, order + 4} - {order + 1}:
            num = rng.standard_normal(num_len)
            x = rng.standard_normal(3000)
            assert_same_bits(linear_filter(num, den, x), signal.lfilter(num, den, x))
            zi = rng.standard_normal(max(num_len, order + 1) - 1)
            y, zf = linear_filter(num, den, x, zi=zi)
            y_ref, zf_ref = signal.lfilter(num, den, x, zi=zi)
            assert_same_bits(y, y_ref)
            assert_same_bits(zf, zf_ref)

    def test_rejects_a_den_head_other_than_one(self):
        with pytest.raises(ValueError, match="leading denominator"):
            linear_filter([1.0], [2.0, 0.5], np.ones(4))

    def test_rejects_a_state_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="zi"):
            linear_filter([1.0, 0.5], [1.0, 0.5, 0.25], np.ones(4), zi=np.zeros(1))


class TestImpulseResponse:
    @pytest.mark.parametrize(
        "tf",
        [
            RationalDiscreteTF([1.0, -0.7, 0.2, 0.05]),
            RationalDiscreteTF([1.0], [1.0, -0.9]),
            RationalDiscreteTF([0.3, 0.1], [1.0, -1.2, 0.6, -0.1]),
            RationalDiscreteTF([1.0, 0.4, -0.3, 0.2, 0.1], [1.0, 0.5, 0.2]),
        ],
        ids=["fir", "one_pole", "iir3", "iir2_long_num"],
    )
    def test_matches_lfilter_of_a_delta(self, tf):
        for length in (1, 3, 500):
            delta = np.zeros(length)
            delta[0] = 1.0
            assert_same_bits(linear_filter(tf.num, tf.den, delta), signal.lfilter(tf.num, tf.den, delta))
