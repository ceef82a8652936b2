import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodet.channel import CorrelationSpec, generate_channel
from mimodet.detectors import apply_equalizer, linear_stage
from mimodet.linalg import (RCOND_FLOOR, _fro2, draw_standard_complex_gaussian,
                            invert_hermitian, psd_sqrt)
from mimodet.rng import RngStream


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _oracle_invert(a):
    """The erasure rule without certification: eigvalsh on every finite
    system, then one stacked solve with every flagged system replaced by I."""
    a = np.asarray(a, dtype=complex)
    eye = np.eye(a.shape[-1], dtype=complex)
    failed = ~np.isfinite(a).all(axis=(-2, -1))
    safe = np.where(failed[..., None, None], eye, a)
    lam = np.abs(np.linalg.eigvalsh(safe))
    failed |= lam.min(axis=-1) <= RCOND_FLOOR * lam.max(axis=-1)
    inv = np.linalg.solve(np.where(failed[..., None, None], eye, a),
                          np.broadcast_to(eye, a.shape))
    inv[failed] = 0.0
    return inv, failed


def _hermitian(kind, q, rng):
    x = _random_complex(rng, q, q)
    if kind == "gram":
        return x @ x.conj().T + 0.01 * np.eye(q)
    if kind == "indefinite":
        return x + x.conj().T
    if kind == "diagonal_edge":
        # rcond 1e-12 exactly, or 0.1% either side of it
        d = rng.uniform(1.0, 2.0, q) * rng.choice([-1.0, 1.0], q)
        d[rng.integers(q)] = (rng.choice([-1.0, 1.0]) * np.abs(d).max() * RCOND_FLOOR
                              * rng.choice([1.0 - 1e-3, 1.0, 1.0 + 1e-3]))
        return np.diag(d).astype(complex)
    if kind == "zero":
        return np.zeros((q, q), dtype=complex)
    if kind == "rank_one":
        # unit-modulus entries keep v v^H and its elimination exact, so
        # a stacked inverse meets an exactly zero pivot
        v = rng.choice([1.0, -1.0, 1j, -1j], q)
        return np.outer(v, v.conj())
    h = x + x.conj().T  # "non_finite"
    h[rng.integers(q), rng.integers(q)] = rng.choice([np.nan, np.inf, -np.inf])
    return h


@st.composite
def _hermitian_stacks(draw):
    batch = draw(st.one_of(st.just(()), st.tuples(st.integers(1, 6)),
                           st.tuples(st.integers(1, 3), st.integers(1, 3))))
    q = draw(st.integers(1, 6))
    count = int(np.prod(batch, dtype=int))
    kinds = draw(st.lists(st.sampled_from(["gram", "indefinite", "diagonal_edge", "zero",
                                           "rank_one", "non_finite"]),
                          min_size=count, max_size=count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.stack([_hermitian(kind, q, rng) for kind in kinds]).reshape(batch + (q, q))


class TestInvertHermitian:
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

    def test_singular_flagged(self):
        a = np.ones((3, 3), dtype=complex)
        inv, failed = invert_hermitian(a)
        assert failed and not inv.any()

    def test_ill_conditioned_flagged(self):
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

    @settings(max_examples=200, deadline=None)
    @given(_hermitian_stacks())
    def test_matches_oracle_bit_for_bit(self, a):
        inv, failed = invert_hermitian(a)
        want_inv, want_failed = _oracle_invert(a)
        assert inv.shape == want_inv.shape and np.shape(failed) == np.shape(want_failed)
        assert inv.tobytes() == want_inv.tobytes()
        assert np.array_equal(failed, want_failed)

    def test_noiseless_rank_one_zf_matches_oracle(self):
        # rho = 1: every channel is rank one, and the stacked inverse of the
        # Grams hits an exactly singular pivot, so every system gets eigvalsh
        hs = generate_channel([RngStream(3)], CorrelationSpec(rho=1.0, n_antennas=4), 64)
        hh = np.conj(np.swapaxes(hs, -1, -2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(hh @ hs)
        ys = draw_standard_complex_gaussian(RngStream(4), 64, 4)
        soft, failed = apply_equalizer(linear_stage({"zf"}, hs, ys, 0), "zf")
        want_inv, want_failed = _oracle_invert(hh @ hs)
        want_soft = (want_inv @ (hh @ ys[..., None]))[..., 0]
        want_soft[want_failed] = 0.0
        assert failed.all() and np.array_equal(failed, want_failed)
        assert soft.tobytes() == want_soft.tobytes()

    def test_stacked_kinds_with_a_singular_one_match_oracle(self):
        # rho = 1 at N0/Es = 0.005: every ZF Gram is rank one and the
        # stacked inverse meets an exactly singular pivot, while the MMSE
        # Grams are regular; the one fallback still gives each kind's
        # oracle bytes and flags
        n0 = 0.005
        hs = generate_channel([RngStream(3)], CorrelationSpec(rho=1.0, n_antennas=4), 64)
        hh = np.conj(np.swapaxes(hs, -1, -2))
        grams = np.stack([hh @ hs, hh @ hs + n0 * np.eye(4)])
        inv, failed = invert_hermitian(grams)
        ys = draw_standard_complex_gaussian(RngStream(4), 64, 4)
        stage = linear_stage(("zf", "mmse"), hs, ys, n0)
        want_inv, want_failed = _oracle_invert(grams)
        assert inv.tobytes() == want_inv.tobytes()
        assert np.array_equal(failed, want_failed)
        assert failed[0].all() and not failed[1].any()
        b = hh @ ys[..., None]
        for k, kind in enumerate(("zf", "mmse")):
            want_soft = (want_inv[k] @ b)[..., 0]
            want_soft[want_failed[k]] = 0.0
            soft, kind_failed = apply_equalizer(stage, kind)
            assert soft.tobytes() == want_soft.tobytes()
            assert np.array_equal(kind_failed, want_failed[k])

    def test_well_conditioned_stack_skips_eigvalsh(self, monkeypatch):
        def refuse(a):
            raise AssertionError("eigvalsh called on a certified stack")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        stack = np.stack([_hermitian("gram", 4, np.random.default_rng(k)) for k in range(8)])
        inv, failed = invert_hermitian(stack)
        assert not failed.any()
        assert np.max(np.abs(stack @ inv - np.eye(4))) < 1e-9

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e-150, 1e150, 1e160, 1e170])
    @pytest.mark.parametrize("kinds", [("gram", "diagonal_edge"), ("rank_one",)])
    def test_scaled_stacks_match_oracle_and_never_certify_a_non_finite_bound(
            self, monkeypatch, scale, kinds):
        # at 1e+-160 one squared norm overflows and the bound is inf; at
        # 1e+-170 the other also flushes to zero and the Grams' bound is
        # NaN. Either way the system must take the eigenvalue rule.
        rng = np.random.default_rng(17)
        stack = scale * np.stack([_hermitian(kind, 4, rng) for kind in kinds for _ in range(6)])
        sent = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            sent.extend(m.tobytes() for m in a)
            return eigvalsh(a)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        inv, failed = invert_hermitian(stack)
        monkeypatch.undo()
        want_inv, want_failed = _oracle_invert(stack)
        assert inv.tobytes() == want_inv.tobytes()
        assert np.array_equal(failed, want_failed)
        try:
            plain_inv = np.linalg.inv(stack)
        except np.linalg.LinAlgError:  # the fallback: every system is sent
            assert len(sent) == len(stack)
            return
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            bound = _fro2(stack) * _fro2(plain_inv)
        if abs(np.log10(scale)) > 155:
            assert not np.isfinite(bound).any()
        if abs(np.log10(scale)) > 165:
            assert np.isnan(bound).any()
        for k in np.flatnonzero(~np.isfinite(bound)):
            assert stack[k].tobytes() in sent
        gram = np.array([kind == "gram" for kind in kinds for _ in range(6)])
        if abs(np.log10(scale)) < 155:  # far from both limits the Grams are certified
            assert not any(m.tobytes() in sent for m in stack[gram])


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
