import numpy as np
import pytest

from mimodet.linalg import draw_standard_complex_gaussian, invert_hermitian, psd_sqrt
from mimodet.rng import RngStream


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestInvertLu:
    def test_scaled_identity(self):
        assert np.allclose(invert_hermitian(2.0 * np.eye(4))[0], 0.5 * np.eye(4))

    def test_identity(self):
        assert np.allclose(invert_hermitian(np.eye(4))[0], np.eye(4))

    def test_multiply_back(self):
        rng = RngStream(4)
        b = _random_complex(rng, 4, 4)
        a = b + b.conj().T + 8.0 * np.eye(4)  # Hermitian, well conditioned
        inv, failed = invert_hermitian(a)
        assert not failed
        assert np.max(np.abs(a @ inv - np.eye(4))) < 1e-9

    def test_singular_raises(self):
        a = np.ones((3, 3), dtype=complex)
        inv, failed = invert_hermitian(a)
        assert failed and not inv.any()

    def test_ill_conditioned_raises(self):
        a = np.diag([1.0, 1e-14]).astype(complex)
        inv, failed = invert_hermitian(a)
        assert failed and not inv.any()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            invert_hermitian(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        a = np.eye(2, dtype=complex)
        a[0, 0] = np.nan
        inv, failed = invert_hermitian(a)
        assert failed and not inv.any()

    def test_stack_flags_only_bad_matrices(self):
        rng = RngStream(10)
        b = _random_complex(rng, 4, 4)
        stack = np.stack([np.eye(4), np.ones((4, 4)), b @ b.conj().T + np.eye(4),
                          -2.0 * np.eye(4), np.zeros((4, 4))]).astype(complex)
        inv, failed = invert_hermitian(stack)
        assert failed.tolist() == [False, True, False, False, True]
        assert not inv[failed].any()
        for k in np.flatnonzero(~failed):
            assert np.max(np.abs(stack[k] @ inv[k] - np.eye(4))) < 1e-9


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        s = psd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(s, np.diag([2.0, 3.0]))

    def test_multiply_back_on_correlation_matrix(self):
        from mimodet.channel import CorrelationSpec, build_correlation_matrix

        r = build_correlation_matrix(CorrelationSpec(rho=0.5, n_antennas=4))
        s = psd_sqrt(r)
        assert np.max(np.abs(s @ s.conj().T - r)) < 1e-9

    def test_singular_psd_ok(self):
        r = np.ones((4, 4))  # rank one, eigenvalues {4, 0, 0, 0}
        s = psd_sqrt(r)
        assert np.max(np.abs(s @ s.conj().T - r)) < 1e-9

    def test_complex_hermitian(self):
        rng = RngStream(5)
        a = _random_complex(rng, 3, 3)
        r = a @ a.conj().T
        s = psd_sqrt(r)
        assert np.max(np.abs(s @ s.conj().T - r)) < 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestComplexGaussian:
    def test_moments(self):
        g = draw_standard_complex_gaussian(RngStream(6), 1000, 1000)
        assert abs(g.mean()) < 0.01
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.01

    def test_part_variances(self):
        g = draw_standard_complex_gaussian(RngStream(7), 500, 500)
        assert abs(g.real.var() - 0.5) < 0.01
        assert abs(g.imag.var() - 0.5) < 0.01

    def test_deterministic(self):
        a = draw_standard_complex_gaussian(RngStream(8), 4, 4)
        b = draw_standard_complex_gaussian(RngStream(8), 4, 4)
        assert np.array_equal(a, b)

    def test_stacked_draw_shape(self):
        g = draw_standard_complex_gaussian(RngStream(9), 4, 4, count=7)
        assert g.shape == (7, 4, 4)
