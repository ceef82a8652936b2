import itertools

import numpy as np
import pytest

from mimodet.complexity import FlopFormulaInput, counting, flops_detector
from mimodet.detectors import apply_equalizer, candidate_matrix, linear_weights, ml_detect
from mimodet.linalg import draw_standard_complex_gaussian
from mimodet.ofdm import demap_symbols, square_qam
from mimodet.rng import RngStream

CONST = square_qam(4)


def _random_instance(seed, n=4, sigma=0.1):
    rng = RngStream(seed)
    h = draw_standard_complex_gaussian(rng.substream(0), n, n)
    x = CONST.points[rng.substream(1).integers(0, 4, n)]
    z = sigma * draw_standard_complex_gaussian(rng.substream(2), n, 1)[:, 0]
    return h, x, h @ x + z


class TestMatchedFilter:
    def test_identity(self):
        assert np.array_equal(linear_weights("mf", np.eye(3, dtype=complex), 0.0)[0], np.eye(3))

    def test_conjugation(self):
        assert linear_weights("mf", np.array([[1j]]), 0.0)[0][0, 0] == -1j

    def test_orthogonal_channel_recovery(self):
        # scaled unitary columns: MF output is a positive-scaled copy of x,
        # so quadrant slicing recovers the symbols exactly
        rng = RngStream(1)
        q, _ = np.linalg.qr(draw_standard_complex_gaussian(rng, 4, 4))
        h = 1.7 * q
        x = CONST.points[rng.integers(0, 4, 4)]
        soft = apply_equalizer(linear_weights("mf", h, 0.0)[0], h @ x)
        assert np.array_equal(demap_symbols(soft, CONST), demap_symbols(x, CONST))


class TestZeroForcing:
    def test_scaled_identity(self):
        assert np.allclose(linear_weights("zf", 2.0 * np.eye(4), 0.0)[0], 0.5 * np.eye(4))

    def test_multiply_back(self):
        for seed in range(20):
            h, _, _ = _random_instance(seed)
            assert np.max(np.abs(linear_weights("zf", h, 0.0)[0] @ h - np.eye(4))) < 1e-9

    def test_noiseless_recovery(self):
        h, x, _ = _random_instance(30, sigma=0.0)
        soft = apply_equalizer(linear_weights("zf", h, 0.0)[0], h @ x)
        assert np.max(np.abs(soft - x)) < 1e-9

    def test_rank_deficient_fails_explicitly(self):
        h = np.ones((4, 4), dtype=complex)
        w, failed = linear_weights("zf", h, 0.0)
        assert failed and not w.any()


class TestMmse:
    def test_identity_channel_unit_noise(self):
        w = linear_weights("mmse", np.eye(4, dtype=complex), 1.0)[0]
        assert np.allclose(w, 0.5 * np.eye(4))

    def test_zero_noise_equals_zf(self):
        for seed in range(10):
            h, _, _ = _random_instance(40 + seed)
            w_mmse, w_zf = (linear_weights(kind, h, 0.0)[0] for kind in ("mmse", "zf"))
            assert np.max(np.abs(w_mmse - w_zf)) < 1e-9

    def test_high_noise_aligns_with_matched_filter(self):
        h, _, _ = _random_instance(60)
        w = linear_weights("mmse", h, 1e9)[0]
        hh = h.conj().T
        assert np.max(np.abs(w / np.linalg.norm(w) - hh / np.linalg.norm(hh))) < 1e-6

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            linear_weights("mmse", np.eye(2, dtype=complex), -0.1)


class TestStack:
    @pytest.mark.parametrize("kind", ["zf", "mmse"])
    def test_only_bad_systems_flagged(self, kind):
        hs = draw_standard_complex_gaussian(RngStream(90), 4, 4, count=64)
        hs[5] = np.ones((4, 4))                      # rank one
        hs[17] = np.diag([1.0, 1.0, 1.0, 1e-7])      # Gram condition number 1e14
        hs[40, 2, 3] = np.inf                        # non-finite
        hs[41] = np.diag([1.0, 1.0, 1.0, 1e-5])      # Gram condition number 1e10: kept
        w, failed = linear_weights(kind, hs, 0.0)
        assert np.flatnonzero(failed).tolist() == [5, 17, 40]
        assert not w[failed].any()
        for n in np.flatnonzero(~failed):
            single, single_failed = linear_weights(kind, hs[n], 0.0)
            assert not single_failed
            assert np.array_equal(w[n], single)

    @pytest.mark.parametrize("kind", ["mf", "zf", "mmse"])
    def test_flops_charged_once_per_system(self, kind):
        hs = draw_standard_complex_gaussian(RngStream(91), 4, 4, count=7)
        ys = draw_standard_complex_gaussian(RngStream(92), 7, 4)
        with counting() as counter:
            apply_equalizer(linear_weights(kind, hs, 0.1)[0], ys)
        per_system = flops_detector(kind, FlopFormulaInput(4, 4))
        assert counter.flops == pytest.approx(7 * per_system)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            linear_weights("ml", np.eye(2, dtype=complex), 0.0)


class TestApplyEqualizer:
    def test_identity_weights(self):
        y = np.array([1 + 1j, 2.0, -1j])
        assert np.array_equal(apply_equalizer(np.eye(3, dtype=complex), y), y)

    def test_dimension_mismatch(self):
        eq = linear_weights("mf", np.eye(3, dtype=complex), 0.0)[0]
        with pytest.raises(ValueError):
            apply_equalizer(eq, np.zeros(4, dtype=complex))

    def test_mmse_beats_zf_in_mse(self):
        # average over noisy trials at moderate SNR
        sigma2 = 0.25
        se_mmse, se_zf = 0.0, 0.0
        for seed in range(10_000):
            h, x, y = _random_instance(1000 + seed, sigma=np.sqrt(sigma2))
            w_mmse, w_zf = (linear_weights(kind, h, sigma2)[0] for kind in ("mmse", "zf"))
            se_mmse += np.sum(np.abs(apply_equalizer(w_mmse, y) - x) ** 2)
            se_zf += np.sum(np.abs(apply_equalizer(w_zf, y) - x) ** 2)
        assert se_mmse < se_zf


class TestMlDetect:
    def test_noiseless_exact(self):
        for seed in range(20):
            h, x, _ = _random_instance(70 + seed, sigma=0.0)
            assert np.allclose(ml_detect(h, h @ x, CONST), x)

    def test_scalar_case_equals_slicing(self):
        rng = RngStream(2)
        for i in range(100):
            h = draw_standard_complex_gaussian(rng.substream(i, 0), 1, 1)
            x = CONST.points[[int(rng.substream(i, 1).integers(0, 4))]]
            z = 0.3 * draw_standard_complex_gaussian(rng.substream(i, 2), 1, 1)[:, 0]
            y = h @ x + z
            got = ml_detect(h, y, CONST)
            sliced_bits = demap_symbols(y[0] / h[0, 0], CONST)
            assert np.array_equal(demap_symbols(got, CONST), sliced_bits)

    def test_matches_brute_force_oracle(self):
        for seed in range(100):
            h, _, y = _random_instance(200 + seed, sigma=0.5)
            best, best_val = None, np.inf
            for cand in itertools.product(CONST.points, repeat=4):
                cand = np.array(cand)
                val = np.sum(np.abs(y - h @ cand) ** 2)
                if val < best_val:
                    best, best_val = cand, val
            assert np.array_equal(ml_detect(h, y, CONST), best)

    def test_tie_breaks_to_first_candidate(self):
        # y = 0 with unitary-column H makes every candidate equidistant
        h = np.eye(2, dtype=complex)
        y = np.zeros(2, dtype=complex)
        got = ml_detect(h, y, CONST)
        assert np.array_equal(got, candidate_matrix(CONST, 2)[:, 0])

    def test_search_space_guard(self):
        h = np.zeros((16, 16), dtype=complex)
        with pytest.raises(ValueError):
            ml_detect(h, np.zeros(16, dtype=complex), square_qam(16))

    def test_candidate_matrix_is_lexicographic(self):
        c = candidate_matrix(CONST, 2)
        assert c.shape == (2, 16)
        assert np.array_equal(c[:, 0], [CONST.points[0], CONST.points[0]])
        assert np.array_equal(c[:, 1], [CONST.points[0], CONST.points[1]])
        assert np.array_equal(c[:, 4], [CONST.points[1], CONST.points[0]])
