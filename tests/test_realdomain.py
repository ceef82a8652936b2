import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mimodet.detectors import linear_stage, ml_detect
from mimodet.linalg import draw_standard_complex_gaussian
from mimodet.ofdm import square_qam
from mimodet.realdomain import complexify, fitness_columns, realify, realify_vec
from mimodet.rng import RngStream


def _fitness(sys, zeta):
    """Fitness of one candidate per system: a one-column fitness_columns call."""
    return fitness_columns(sys, np.asarray(zeta)[..., None])[..., 0]


class TestRealify:
    def test_identity_channel(self):
        sys = realify(np.eye(3, dtype=complex), np.zeros(3, dtype=complex))
        assert np.array_equal(sys.h, np.eye(6))

    def test_pure_imaginary_channel(self):
        sys = realify(1j * np.eye(2), np.zeros(2, dtype=complex))
        expected = np.block([[np.zeros((2, 2)), -np.eye(2)],
                             [np.eye(2), np.zeros((2, 2))]])
        assert np.array_equal(sys.h, expected)

    def test_homomorphism(self):
        rng = RngStream(1)
        for i in range(50):
            h = draw_standard_complex_gaussian(rng.substream(i, 0), 4, 4)
            x = draw_standard_complex_gaussian(rng.substream(i, 1), 4, 1)[:, 0]
            sys = realify(h, np.zeros(4, dtype=complex))
            lhs = sys.h @ realify_vec(x)
            rhs = realify_vec(h @ x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dims(self):
        sys = realify(np.ones((3, 2), dtype=complex), np.ones(3, dtype=complex))
        assert sys.h.shape == (6, 4)
        assert sys.y.shape == (6,)
        assert sys.dim == 4
        assert sys.n_tx == 2 and sys.n_rx == 3

    def test_complex64_gives_float32(self):
        sys = realify(np.ones((3, 2), dtype=np.complex64), np.ones(3, dtype=np.complex64))
        assert sys.h.dtype == np.float32

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            realify(np.ones((3, 2), dtype=complex), np.ones(2, dtype=complex))


class TestVecConversions:
    def test_stacking_order(self):
        v = realify_vec(np.array([1 + 2j, 3 - 1j]))
        assert np.array_equal(v, [1.0, 3.0, 2.0, -1.0])

    def test_round_trip(self):
        x = np.array([0.5 - 0.25j, -1.5 + 2j, 0j])
        assert np.array_equal(complexify(realify_vec(x)), x)

    def test_zero(self):
        assert np.array_equal(realify_vec(np.zeros(3, dtype=complex)), np.zeros(6))

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            complexify(np.zeros(5))


class TestFitness:
    def _noisy_system(self, seed, sigma=0.1):
        rng = RngStream(seed)
        h = draw_standard_complex_gaussian(rng.substream(0), 4, 4)
        x = square_qam(4).points[rng.substream(1).integers(0, 4, 4)]
        z = sigma * draw_standard_complex_gaussian(rng.substream(2), 4, 1)[:, 0]
        y = h @ x + z
        return h, x, y

    def test_true_solution_noiseless(self):
        h, x, _ = self._noisy_system(3)
        sys = realify(h, h @ x)
        assert _fitness(sys, realify_vec(x)) <= 1e-18

    def test_zero_candidate(self):
        h, _, y = self._noisy_system(4)
        sys = realify(h, y)
        assert _fitness(sys, np.zeros(8)) == pytest.approx(np.sum(np.abs(y) ** 2))

    def test_matches_complex_residual(self):
        rng = RngStream(5)
        for i in range(200):
            h, x, y = self._noisy_system(100 + i)
            sys = realify(h, y)
            cand = rng.standard_normal(8)
            real_val = _fitness(sys, cand)
            complex_val = np.sum(np.abs(y - h @ complexify(cand)) ** 2)
            assert abs(real_val - complex_val) <= 1e-12 * max(1.0, complex_val)

    def test_columns_agree_with_scalar(self):
        h, _, y = self._noisy_system(6)
        sys = realify(h, y)
        cands = RngStream(7).standard_normal((8, 5))
        cols = fitness_columns(sys, cands)
        for k in range(5):
            assert cols[k] == pytest.approx(_fitness(sys, cands[:, k]))

    def test_batched_systems(self):
        rng = RngStream(8)
        h = draw_standard_complex_gaussian(rng.substream(0), 4, 4, count=3)
        y = draw_standard_complex_gaussian(rng.substream(1), 3, 4)
        sys = realify(h, y)
        cand = rng.standard_normal((3, 8))
        vals = _fitness(sys, cand)
        for b in range(3):
            single = realify(h[b], y[b])
            assert vals[b] == pytest.approx(_fitness(single, cand[b]))

    def test_dimension_mismatch(self):
        h, _, y = self._noisy_system(9)
        sys = realify(h, y)
        with pytest.raises(ValueError):
            fitness_columns(sys, np.zeros((6, 1)))

    def test_discrete_minimizer_equals_ml(self):
        const = square_qam(4)
        for i in range(25):
            h, x, y = self._noisy_system(200 + i, sigma=0.5)
            sys = realify(h, y)
            best, best_val = None, np.inf
            for cand in itertools.product(const.points, repeat=4):
                val = _fitness(sys, realify_vec(np.array(cand)))
                if val < best_val:
                    best, best_val = np.array(cand), val
            assert np.allclose(ml_detect(linear_stage({"ml"}, h, y, 0.0), const), best)


def _complex_arrays(shape, bound):
    parts = arrays(np.float64, (2,) + shape, elements=st.floats(-bound, bound))
    return parts.map(lambda p: p[0] + 1j * p[1])


@st.composite
def _systems(draw):
    n_rx, n_tx = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h = draw(_complex_arrays((n_rx, n_tx), bound=3.0))
    x = draw(_complex_arrays((n_tx,), bound=3.0))
    y = draw(_complex_arrays((n_rx,), bound=3.0))
    return h, x, y


def _realify_by_concatenation(h):
    top = np.concatenate([h.real, -h.imag], axis=-1)
    bottom = np.concatenate([h.imag, h.real], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


@st.composite
def _channel_arrays(draw):
    dtype = draw(st.sampled_from([np.complex128, np.complex64]))
    shape = draw(st.one_of(st.just(()), st.tuples(st.integers(1, 3)),
                           st.tuples(st.integers(1, 2), st.integers(1, 3))))
    shape += (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    values = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                       st.floats(width=32))
    parts = draw(arrays(np.float64, (2,) + shape, elements=values))
    h = np.empty(shape, dtype=dtype)
    h.real, h.imag = parts
    return h


class TestProperties:
    @given(_channel_arrays())
    def test_realify_matches_the_concatenated_blocks(self, h):
        got = realify(h, np.zeros(h.shape[:-1], dtype=h.dtype)).h
        want = _realify_by_concatenation(h)
        assert got.dtype == want.dtype == h.real.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(st.integers(0, 6).flatmap(lambda n: _complex_arrays((n,), bound=1e300)))
    def test_complexify_inverts_realify_vec(self, x):
        assert np.array_equal(complexify(realify_vec(x)), x)

    @given(_systems())
    def test_realify_matches_complex_residual(self, system):
        h, x, y = system
        real_val = _fitness(realify(h, y), realify_vec(x))
        complex_val = np.sum(np.abs(y - h @ x) ** 2)
        assert abs(real_val - complex_val) <= 1e-12 * max(1.0, complex_val)
