import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodet.linalg import draw_standard_complex_gaussian
from mimodet.ofdm import (
    demap_symbols,
    map_bits,
    noise_variance,
    square_qam,
    time_domain_roundtrip,
)
from mimodet.rng import RngStream

ROOT2 = np.sqrt(2.0)

# Parts a slicer must handle: near the levels, huge, subnormal, signed
# zeros and non-finite.
AXIS_VALUES = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e8, -1e300, np.inf, -np.inf, np.nan]),
)

# The wire-format labeling for 4-QAM: (b1, b0) -> symbol.
QPSK_TABLE = {
    (0, 0): (1 + 1j) / ROOT2,
    (0, 1): (1 - 1j) / ROOT2,
    (1, 0): (-1 + 1j) / ROOT2,
    (1, 1): (-1 - 1j) / ROOT2,
}


class TestConstellation:
    def test_qpsk_labeling_table(self):
        const = square_qam(4)
        for bits, symbol in QPSK_TABLE.items():
            idx = next(i for i in range(4)
                       if tuple(const.bit_labels[i]) == bits)
            assert const.points[idx] == pytest.approx(symbol)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_energy(self, order):
        const = square_qam(order)
        assert abs(np.mean(np.abs(const.points) ** 2) - 1.0) < 1e-15

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_gray_property(self, order):
        # labels of nearest-neighbor points differ in exactly one bit
        const = square_qam(order)
        pts = const.points
        dists = np.abs(pts[:, None] - pts[None, :])
        dmin = dists[dists > 1e-12].min()
        for i in range(order):
            for j in range(order):
                if i != j and abs(dists[i, j] - dmin) < 1e-9:
                    hamming = int(np.sum(const.bit_labels[i] != const.bit_labels[j]))
                    assert hamming == 1

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_levels_rebuild_the_points(self, order):
        const = square_qam(order)
        size = len(const.levels)
        m = np.arange(order)
        h = size.bit_length() - 1
        rebuilt = const.levels[m >> h] + 1j * const.levels[m & (size - 1)]
        assert size * size == order
        assert rebuilt.tobytes() == const.points.tobytes()

    def test_bad_order(self):
        for order in (12, 2, 8, 32):  # only powers of 4 are square QAM
            with pytest.raises(ValueError):
                square_qam(order)


class TestMapping:
    def test_single_symbol(self):
        const = square_qam(4)
        grid = map_bits([0, 0], 1, const)
        assert grid[0, 0] == pytest.approx((1 + 1j) / ROOT2)

    def test_all_zero_bits_equal_symbols(self):
        const = square_qam(4)
        grid = map_bits(np.zeros(64, dtype=int), 4, const)
        assert np.allclose(grid, grid[0, 0])

    def test_round_trip(self):
        const = square_qam(4)
        bits = RngStream(1).integers(0, 2, 4 * 2 * 16)
        grid = map_bits(bits, 4, const)
        # grid is antenna x subcarrier; bits were consumed subcarrier-major
        back = demap_symbols(grid.T, const)
        assert np.array_equal(back, bits)

    def test_round_trip_16qam(self):
        const = square_qam(16)
        bits = RngStream(2).integers(0, 2, 4 * 4 * 8)
        grid = map_bits(bits, 4, const)
        assert np.array_equal(demap_symbols(grid.T, const), bits)

    def test_malformed_length(self):
        const = square_qam(4)
        with pytest.raises(ValueError):
            map_bits([0, 1, 0], 2, const)
        with pytest.raises(ValueError):
            map_bits([], 2, const)


class TestDemap:
    def test_exact_point(self):
        const = square_qam(4)
        for i in range(4):
            assert np.array_equal(demap_symbols(const.points[i], const),
                                  const.bit_labels[i])

    def test_small_perturbation(self):
        const = square_qam(4)
        for i in range(4):
            noisy = const.points[i] + (1e-6 + 1e-6j)
            assert np.array_equal(demap_symbols(noisy, const), const.bit_labels[i])

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_matches_broadcast_argmin(self, order):
        # Every pairing of a point's level, an exact midpoint between two
        # levels, a zero coordinate and a huge or non-finite value, per
        # axis, plus random estimates; the oracle is the per-axis argmin.
        # Where both distances compare exactly (the points themselves and
        # the random estimates), the all-points argmin agrees with it.
        const = square_qam(order)
        levels = np.unique(const.points.real)
        mids = (levels[1:] + levels[:-1]) / 2
        axis = np.concatenate([levels, mids, [0.0, -0.0, 2.5, -1e300, np.nan, np.inf, -np.inf]])
        re, im = np.meshgrid(axis, axis)
        pairs = np.empty(re.size, dtype=complex)  # re + 1j * im would turn inf into nan
        pairs.real, pairs.imag = re.ravel(), im.ravel()
        rng = np.random.default_rng(order)
        gauss = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        est = np.concatenate([pairs, gauss])
        assert np.array_equal(demap_symbols(est, const), _per_axis_oracle(est, const))
        exact = np.concatenate([const.points, gauss])
        dist = np.abs(exact[:, None] - const.points[None, :])
        assert np.array_equal(demap_symbols(exact, const),
                              const.bit_labels[np.argmin(dist, axis=1)].ravel())

    @settings(max_examples=200, deadline=None)
    @given(order=st.sampled_from([4, 16, 64, 256]), data=st.data())
    def test_matches_per_axis_oracle(self, order, data):
        # huge, subnormal, signed-zero and non-finite parts and exact
        # midpoints between levels, on one axis or both
        const = square_qam(order)
        levels = np.sort(const.levels)
        axis = st.one_of(AXIS_VALUES, st.sampled_from(((levels[1:] + levels[:-1]) / 2).tolist()))
        re = data.draw(st.lists(axis, min_size=1, max_size=32))
        im = data.draw(st.lists(axis, min_size=len(re), max_size=len(re)))
        est = np.empty(len(re), dtype=complex)
        est.real, est.imag = re, im
        assert np.array_equal(demap_symbols(est, const), _per_axis_oracle(est, const))

    @settings(max_examples=200, deadline=None)
    @given(order=st.sampled_from([4, 16, 64]), re=AXIS_VALUES,
           im=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=8))
    def test_real_bits_ignore_the_imaginary_part(self, order, re, im):
        # a finite imaginary part, however large, never moves the real-axis bits
        const = square_qam(order)
        est = np.empty(len(im), dtype=complex)
        est.real, est.imag = re, im
        half = const.bits_per_symbol // 2
        real_bits = demap_symbols(est, const).reshape(len(im), -1)[:, :half]
        assert (real_bits == real_bits[0]).all()

    @pytest.mark.parametrize("est, bits", [
        (1e9 - 0.7071j, [0, 1]),
        # MF's noiseless estimate on a rank-one channel (rho = 1): the real
        # part is a rounding residue on the decision boundary
        (-7.771561172376096e-16 - 3.905488263816383j, [1, 1]),
    ])
    def test_small_part_beside_a_large_one(self, est, bits):
        # a 2-D search's hypot rounds both candidate distances equal here and
        # keeps the first point; each axis has a strictly nearer level
        assert np.array_equal(demap_symbols(est, square_qam(4)), bits)


def _per_axis_oracle(est, const):
    """Bits of the per-axis nearest levels (first index on ties); any
    non-finite part goes to point 0."""
    levels = const.levels
    i, q = (np.argmin(np.abs(part[:, None] - levels), axis=1) for part in (est.real, est.imag))
    idx = np.where(np.isfinite(est), i * len(levels) + q, 0)
    return const.bit_labels[idx].ravel()


class TestNoiseVariance:
    def test_sigma2_convention(self):
        # unit symbol energy, log2(M) bits: sigma2 = 1 / (2 * 10^(EbN0/10))
        assert noise_variance(10.0, 4) == pytest.approx(1.0 / 20.0)

    def test_infinite_ebn0_is_noiseless(self):
        assert noise_variance(float("inf"), 4) == 0.0


class TestTimeDomainRoundtrip:
    def _grid(self, n_tx, n_sc, seed=5):
        const = square_qam(4)
        bits = RngStream(seed).integers(0, 2, n_tx * 2 * n_sc)
        return map_bits(bits, n_tx, const)

    def test_single_unit_tap(self):
        symbols = self._grid(2, 16)
        taps = np.eye(2, dtype=complex)[None]  # one tap, identity coupling
        grid = time_domain_roundtrip(taps, symbols, cp_len=4)
        assert np.max(np.abs(grid - symbols)) < 1e-12

    def test_matches_per_subcarrier_model(self):
        symbols = self._grid(2, 64)
        taps = draw_standard_complex_gaussian(RngStream(6), 2, 2, count=8)
        grid = time_domain_roundtrip(taps, symbols, cp_len=16)
        hf = np.fft.fft(taps, n=64, axis=0)
        direct = np.einsum("nrt,tn->rn", hf, symbols)
        assert np.max(np.abs(grid - direct)) < 1e-10

    @pytest.mark.parametrize("cp_len", [7, 8, 12, 20])
    def test_any_sufficient_prefix_works(self, cp_len):
        symbols = self._grid(2, 32)
        taps = draw_standard_complex_gaussian(RngStream(7), 2, 2, count=8)
        grid = time_domain_roundtrip(taps, symbols, cp_len=cp_len)
        hf = np.fft.fft(taps, n=32, axis=0)
        direct = np.einsum("nrt,tn->rn", hf, symbols)
        assert np.max(np.abs(grid - direct)) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(n_taps=st.integers(1, 12), extra=st.integers(0, 20),
           n_sc=st.sampled_from([16, 32, 64]), seed=st.integers(0, 2**32 - 1))
    def test_equivalence_for_any_sufficient_prefix(self, n_taps, extra, n_sc, seed):
        cp_len = n_taps - 1 + extra
        symbols = self._grid(2, n_sc, seed)
        taps = draw_standard_complex_gaussian(RngStream(seed), 2, 2, count=n_taps)
        grid = time_domain_roundtrip(taps, symbols, cp_len=cp_len)
        hf = np.fft.fft(taps, n=n_sc, axis=0)
        direct = np.einsum("nrt,tn->rn", hf, symbols)
        assert np.max(np.abs(grid - direct)) < 1e-10

    def test_short_prefix_rejected(self):
        symbols = self._grid(2, 32)
        taps = draw_standard_complex_gaussian(RngStream(8), 2, 2, count=8)
        with pytest.raises(ValueError):
            time_domain_roundtrip(taps, symbols, cp_len=6)

    def test_short_prefix_breaks_equivalence(self):
        symbols = self._grid(2, 32)
        taps = draw_standard_complex_gaussian(RngStream(9), 2, 2, count=8)
        grid = time_domain_roundtrip(taps, symbols, cp_len=6, allow_short_cp=True)
        hf = np.fft.fft(taps, n=32, axis=0)
        direct = np.einsum("nrt,tn->rn", hf, symbols)
        assert np.max(np.abs(grid - direct)) > 1e-6

