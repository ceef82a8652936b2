import numpy as np
import pytest

from mimodet.channel import (
    CorrelationSpec,
    PdpSpec,
    add_awgn,
    build_correlation_matrix,
    correlation_sqrt,
    generate_channel,
    generate_pdp_channel,
)
from mimodet.linalg import draw_standard_complex_gaussian, psd_sqrt
from mimodet.rng import RngStream


class TestCorrelationMatrix:
    def test_zero_correlation_is_identity(self):
        r = build_correlation_matrix(CorrelationSpec(rho=0.0, n_antennas=4))
        assert np.array_equal(r, np.eye(4))

    def test_two_antennas(self):
        r = build_correlation_matrix(CorrelationSpec(rho=0.5, n_antennas=2))
        assert np.allclose(r, [[1.0, 0.5], [0.5, 1.0]])

    def test_corner_entry_exponent(self):
        # entry (0, N-1) carries exponent (N-1)^2 = 9
        r = build_correlation_matrix(CorrelationSpec(rho=0.9, n_antennas=4))
        assert r[0, 3] == pytest.approx(0.387420489, abs=1e-12)

    def test_second_diagonal_exponent(self):
        r = build_correlation_matrix(CorrelationSpec(rho=0.7, n_antennas=4))
        assert r[0, 2] == pytest.approx(0.7 ** 4)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 0.9, 0.99, 1.0])
    def test_symmetric_unit_diagonal_psd(self, rho):
        r = build_correlation_matrix(CorrelationSpec(rho=rho, n_antennas=6))
        assert np.array_equal(r, r.T)
        assert np.allclose(np.diag(r), 1.0)
        assert np.linalg.eigvalsh(r).min() >= -1e-10

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorrelationSpec(rho=1.5, n_antennas=4)
        with pytest.raises(ValueError):
            CorrelationSpec(rho=0.5, n_antennas=0)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_sqrt_is_one_read_only_array_per_spec(self, rho):
        root = correlation_sqrt(CorrelationSpec(rho=rho, n_antennas=4))
        assert correlation_sqrt(CorrelationSpec(rho=rho, n_antennas=4)) is root
        assert not root.flags.writeable
        with pytest.raises(ValueError):
            root[0, 0] = 2.0
        fresh = psd_sqrt(build_correlation_matrix(CorrelationSpec(rho=rho, n_antennas=4))).real
        assert root.tobytes() == fresh.tobytes()


class TestGenerateChannel:
    def test_uncorrelated_is_raw_draw(self):
        spec = CorrelationSpec(rho=0.0, n_antennas=4)
        h = generate_channel([RngStream(3).substream("c")], spec, 16)
        g = draw_standard_complex_gaussian(RngStream(3).substream("c"), 4, 4, count=16)
        assert np.array_equal(h, g)

    @pytest.mark.parametrize("rho", [0.3, 0.9, 1.0])
    def test_correlated_draw_matches_kronecker_oracle(self, rho):
        spec = CorrelationSpec(rho=rho, n_antennas=4)
        h = generate_channel([RngStream(3).substream("c")], spec, 64)
        g = draw_standard_complex_gaussian(RngStream(3).substream("c"), 4, 4, count=64)
        sqrt_r = correlation_sqrt(spec)
        want = np.einsum("ij,njk,kl->nil", sqrt_r, g, sqrt_r)
        assert np.max(np.abs(h - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("rho", [0.3, 0.9, 1.0])
    def test_correlated_draw_is_complex_product_bit_for_bit(self, rho):
        # the real-part product rounds as the complex product with sqrt_r promoted
        spec = CorrelationSpec(rho=rho, n_antennas=4)
        h = generate_channel([RngStream(3).substream("c")], spec, 64)
        g = draw_standard_complex_gaussian(RngStream(3).substream("c"), 4, 4, count=64)
        sqrt_r = correlation_sqrt(spec)
        assert h.tobytes() == (sqrt_r @ (g @ sqrt_r)).tobytes()

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_streams_stack_their_own_draws(self, rho):
        spec = CorrelationSpec(rho=rho, n_antennas=3)
        streams = [RngStream(12).substream(f) for f in range(4)]
        h = generate_channel(streams, spec, 5)
        want = np.concatenate([generate_channel([RngStream(12).substream(f)], spec, 5)
                               for f in range(4)])
        assert h.shape == (20, 3, 3)
        assert h.tobytes() == want.tobytes()

    def test_deterministic(self):
        spec = CorrelationSpec(rho=0.5, n_antennas=4)
        a = generate_channel([RngStream(4)], spec, 8)
        b = generate_channel([RngStream(4)], spec, 8)
        assert np.array_equal(a, b)

    def test_kronecker_covariance(self):
        # sample covariance of vec(H) approaches R_t (x) R_r
        spec = CorrelationSpec(rho=0.5, n_antennas=4)
        rng = RngStream(5)
        samples = 100_000
        sqrt_r = correlation_sqrt(spec)
        g = draw_standard_complex_gaussian(rng, 4, 4, count=samples)
        h = np.einsum("ij,njk,kl->nil", sqrt_r, g, sqrt_r)
        vecs = h.transpose(0, 2, 1).reshape(samples, 16)  # column-major vec
        cov = (vecs[:, :, None] * vecs[:, None, :].conj()).mean(axis=0)
        r = build_correlation_matrix(spec)
        assert np.max(np.abs(cov - np.kron(r, r))) < 0.02

    def test_entry_marginal_stays_unit_variance(self):
        spec = CorrelationSpec(rho=0.9, n_antennas=4)
        h = generate_channel([RngStream(6)], spec, 4000)
        power = np.mean(np.abs(h) ** 2, axis=0)
        assert np.max(np.abs(power - 1.0)) < 0.05
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02


class TestPdpChannel:
    def test_single_tap_is_flat(self):
        spec = CorrelationSpec(rho=0.0, n_antennas=2)
        pdp = PdpSpec(n_taps=1)
        _, h = generate_pdp_channel(RngStream(7), spec, pdp, 16)
        assert np.allclose(h, h[0])

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_taps_are_the_scaled_kronecker_draw(self, rho):
        # the taps are generate_channel's draw times sqrt(tap power), and
        # the subcarrier channels are their DFT
        spec = CorrelationSpec(rho=rho, n_antennas=3)
        pdp = PdpSpec(n_taps=5)
        taps, h = generate_pdp_channel(RngStream(13).substream("t"), spec, pdp, 32)
        draw = generate_channel([RngStream(13).substream("t")], spec, 5)
        assert np.array_equal(taps, draw * np.sqrt(pdp.tap_powers())[:, None, None])
        assert np.array_equal(h, np.fft.fft(taps, n=32, axis=0))

    def test_tap_powers_normalized(self):
        pdp = PdpSpec(bandwidth=20e6, tau_rms=64e-9, n_taps=8)
        p = pdp.tap_powers()
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p) < 0)  # exponential decay

    def test_average_subcarrier_power(self):
        spec = CorrelationSpec(rho=0.0, n_antennas=2)
        pdp = PdpSpec(n_taps=8)
        rng = RngStream(8)
        acc = []
        for i in range(2000):
            _, h = generate_pdp_channel(rng.substream(i), spec, pdp, 16)
            acc.append(np.mean(np.abs(h) ** 2))
        assert abs(np.mean(acc) - 1.0) < 0.05

    def test_coherence_shrinks_with_delay_spread(self):
        # larger tau_rms -> flatter PDP -> lower adjacent-subcarrier correlation
        spec = CorrelationSpec(rho=0.0, n_antennas=1)
        rng = RngStream(9)

        def adjacent_corr(tau_rms):
            pdp = PdpSpec(tau_rms=tau_rms, n_taps=16)
            vals = []
            for i in range(3000):
                _, h = generate_pdp_channel(rng.substream(int(tau_rms * 1e12), i),
                                            spec, pdp, 64)
                h = h[:, 0, 0]
                vals.append(np.mean(h[:-1] * h[1:].conj()))
            return abs(np.mean(vals))

        assert adjacent_corr(400e-9) < adjacent_corr(40e-9)

    def test_too_many_taps_rejected(self):
        spec = CorrelationSpec(rho=0.0, n_antennas=2)
        with pytest.raises(ValueError):
            generate_pdp_channel(RngStream(1), spec, PdpSpec(n_taps=32), 16)

    def test_pdp_validation(self):
        with pytest.raises(ValueError):
            PdpSpec(bandwidth=-1.0)
        with pytest.raises(ValueError):
            PdpSpec(n_taps=0)


class TestAwgn:
    def test_zero_variance_is_identity(self):
        y = np.array([1 + 1j, 2 - 1j])
        out = add_awgn([RngStream(1)], y, 0.0)
        assert np.array_equal(out, y)

    def test_noise_statistics(self):
        y = np.zeros(1_000_000, dtype=complex)
        out = add_awgn([RngStream(2)], y, 0.5)
        assert abs(np.mean(np.abs(out) ** 2) - 0.5) < 0.01
        assert abs(out.mean()) < 0.01

    def test_streams_noise_their_own_blocks(self):
        y = RngStream(4).standard_normal((6, 2)) + 0j
        out = add_awgn([RngStream(5).substream(f) for f in range(3)], y, 0.3)
        want = np.concatenate([add_awgn([RngStream(5).substream(f)], y[2 * f:2 * f + 2], 0.3)
                               for f in range(3)])
        assert out.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            add_awgn([RngStream(5), RngStream(6)], np.zeros(3, dtype=complex), 0.3)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            add_awgn([RngStream(3)], np.zeros(4, dtype=complex), -1.0)

