import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodet.complexity import FlopFormulaInput, counting, fitness_eval_flops, flops_detector
from mimodet.detectors import (LINEAR_KINDS, ML_BLOCK, ML_SCORES, _block_monomials,
                               _ml_block_best, _ml_coefficients, _monomial_cache, apply_equalizer,
                               candidate_matrix, linear_stage, ml_detect)
from mimodet.linalg import draw_standard_complex_gaussian, invert_hermitian
from mimodet.ofdm import demap_symbols, square_qam
from mimodet.realdomain import realify
from mimodet.rng import RngStream
from mimodet.runtime import _blas_thread_calls

CONST = square_qam(4)


def _random_instance(seed, n=4, sigma=0.1):
    rng = RngStream(seed)
    h = draw_standard_complex_gaussian(rng.substream(0), n, n)
    x = CONST.points[rng.substream(1).integers(0, 4, n)]
    z = sigma * draw_standard_complex_gaussian(rng.substream(2), n, 1)[:, 0]
    return h, x, h @ x + z


class TestMatchedFilter:
    def test_identity(self):
        w = linear_stage({"mf"}, np.eye(3, dtype=complex), 0.0)["mf"][0]
        assert np.array_equal(w, np.eye(3))

    def test_conjugation(self):
        assert linear_stage({"mf"}, np.array([[1j]]), 0.0)["mf"][0][0, 0] == -1j

    def test_orthogonal_channel_recovery(self):
        # scaled unitary columns: MF output is a positive-scaled copy of x,
        # so quadrant slicing recovers the symbols exactly
        rng = RngStream(1)
        q, _ = np.linalg.qr(draw_standard_complex_gaussian(rng, 4, 4))
        h = 1.7 * q
        x = CONST.points[rng.integers(0, 4, 4)]
        soft = apply_equalizer(linear_stage({"mf"}, h, 0.0)["mf"][0], h @ x)
        assert np.array_equal(demap_symbols(soft, CONST), demap_symbols(x, CONST))


class TestZeroForcing:
    def test_scaled_identity(self):
        assert np.allclose(linear_stage({"zf"}, 2.0 * np.eye(4), 0.0)["zf"][0], 0.5 * np.eye(4))

    def test_multiply_back(self):
        for seed in range(20):
            h, _, _ = _random_instance(seed)
            assert np.max(np.abs(linear_stage({"zf"}, h, 0.0)["zf"][0] @ h - np.eye(4))) < 1e-9

    def test_noiseless_recovery(self):
        h, x, _ = _random_instance(30, sigma=0.0)
        soft = apply_equalizer(linear_stage({"zf"}, h, 0.0)["zf"][0], h @ x)
        assert np.max(np.abs(soft - x)) < 1e-9

    def test_rank_deficient_fails_explicitly(self):
        h = np.ones((4, 4), dtype=complex)
        w, failed = linear_stage({"zf"}, h, 0.0)["zf"]
        assert failed and not w.any()


class TestMmse:
    def test_identity_channel_unit_noise(self):
        w = linear_stage({"mmse"}, np.eye(4, dtype=complex), 1.0)["mmse"][0]
        assert np.allclose(w, 0.5 * np.eye(4))

    def test_zero_noise_equals_zf(self):
        for seed in range(10):
            h, _, _ = _random_instance(40 + seed)
            w_mmse, w_zf = (linear_stage({kind}, h, 0.0)[kind][0] for kind in ("mmse", "zf"))
            assert np.max(np.abs(w_mmse - w_zf)) < 1e-9

    def test_high_noise_aligns_with_matched_filter(self):
        h, _, _ = _random_instance(60)
        w = linear_stage({"mmse"}, h, 1e9)["mmse"][0]
        hh = h.conj().T
        assert np.max(np.abs(w / np.linalg.norm(w) - hh / np.linalg.norm(hh))) < 1e-6

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            linear_stage({"mmse"}, np.eye(2, dtype=complex), -0.1)["mmse"]


class TestStack:
    @pytest.mark.parametrize("kind", ["zf", "mmse"])
    def test_only_bad_systems_flagged(self, kind):
        hs = draw_standard_complex_gaussian(RngStream(90), 4, 4, count=64)
        hs[5] = np.ones((4, 4))                      # rank one
        hs[17] = np.diag([1.0, 1.0, 1.0, 1e-7])      # Gram condition number 1e14
        hs[40, 2, 3] = np.inf                        # non-finite
        hs[41] = np.diag([1.0, 1.0, 1.0, 1e-5])      # Gram condition number 1e10: kept
        w, failed = linear_stage({kind}, hs, 0.0)[kind]
        assert np.flatnonzero(failed).tolist() == [5, 17, 40]
        assert not w[failed].any()
        for n in np.flatnonzero(~failed):
            single, single_failed = linear_stage({kind}, hs[n], 0.0)[kind]
            assert not single_failed
            assert np.array_equal(w[n], single)

    @pytest.mark.parametrize("kind", ["mf", "zf", "mmse"])
    def test_flops_charged_once_per_system(self, kind):
        hs = draw_standard_complex_gaussian(RngStream(91), 4, 4, count=7)
        ys = draw_standard_complex_gaussian(RngStream(92), 7, 4)
        with counting() as counter:
            apply_equalizer(linear_stage({kind}, hs, 0.1)[kind][0], ys)
        per_system = flops_detector(kind, FlopFormulaInput(4, 4))
        assert counter.flops == pytest.approx(7 * per_system)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            linear_stage({"ml"}, np.eye(2, dtype=complex), 0.0)["ml"]


def _single_kind_oracle(kind, hs, n0_over_es):
    """One linear kind on its own: H^H, its Gram and its own inverse."""
    hh = np.conj(np.swapaxes(hs, -1, -2))
    if kind == "mf":
        return hh, np.zeros(hs.shape[:-2], dtype=bool)
    with np.errstate(invalid="ignore"):
        gram = hh @ hs
        if kind == "mmse":
            gram = gram + n0_over_es * np.eye(hs.shape[-1])
        inv, failed = invert_hermitian(gram)
        w = inv @ hh
    w[failed] = 0.0
    return w, failed


def _channel(kind, n_rx, n_tx, rng):
    if kind == "gaussian":
        return rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
    if kind == "zero":
        return np.zeros((n_rx, n_tx), dtype=complex)
    if kind == "rank_one":
        # unit-modulus entries keep the Gram n_rx v v^H exact, so its
        # stacked inverse meets an exactly zero pivot when n_tx > 1
        u, v = (rng.choice([1.0, -1.0, 1j, -1j], n) for n in (n_rx, n_tx))
        return np.outer(u, v.conj())
    h = rng.standard_normal((n_rx, n_tx)) + 0j  # "non_finite"
    h[rng.integers(n_rx), rng.integers(n_tx)] = rng.choice([np.nan, np.inf, -np.inf])
    return h


@st.composite
def _channel_stacks(draw):
    batch = draw(st.one_of(st.just(()), st.tuples(st.integers(1, 6)),
                           st.tuples(st.integers(1, 3), st.integers(1, 3))))
    n_rx, n_tx = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    count = int(np.prod(batch, dtype=int))
    kinds = draw(st.lists(st.sampled_from(["gaussian", "zero", "rank_one", "non_finite"]),
                          min_size=count, max_size=count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hs = np.stack([_channel(kind, n_rx, n_tx, rng) for kind in kinds])
    return hs.reshape(batch + (n_rx, n_tx))


class TestLinearStage:
    """linear_stage against each kind computed on its own."""

    @settings(max_examples=150, deadline=None)
    @given(_channel_stacks(), st.sampled_from([0.0, 1e-13, 0.1, 2.0]))
    def test_every_subset_matches_single_kinds(self, hs, n0_over_es):
        for size in (1, 2, 3):
            for kinds in itertools.combinations(LINEAR_KINDS, size):
                with counting() as counter, warnings.catch_warnings():
                    warnings.simplefilter("error")
                    stage = linear_stage(kinds, hs, n0_over_es)
                assert sorted(stage) == sorted(kinds)
                single_flops = 0.0
                for kind in kinds:
                    w, failed = stage[kind]
                    want_w, want_failed = _single_kind_oracle(kind, hs, n0_over_es)
                    assert w.shape == want_w.shape and w.tobytes() == want_w.tobytes()
                    assert np.shape(failed) == np.shape(want_failed)
                    assert np.array_equal(failed, want_failed)
                    with counting() as single:
                        linear_stage({kind}, hs, n0_over_es)[kind]
                    single_flops += single.flops
                assert counter.flops == single_flops

    def test_mf_keeps_the_conjugated_view_layout(self):
        hs = draw_standard_complex_gaussian(RngStream(93), 4, 4, count=8)
        w = linear_stage(LINEAR_KINDS, hs, 0.1)["mf"][0]
        assert w.strides == np.conj(np.swapaxes(hs, -1, -2)).strides

    def test_mmse_alone_returns_no_mf(self):
        hs = draw_standard_complex_gaussian(RngStream(95), 4, 4, count=8)
        assert sorted(linear_stage({"mmse"}, hs, 0.1)) == ["mmse"]

    def test_mf_alone_forms_no_gram(self, monkeypatch):
        import mimodet.detectors as det

        def refuse(a):
            raise AssertionError("a Gram was inverted for MF alone")
        monkeypatch.setattr(det, "invert_hermitian", refuse)
        hs = draw_standard_complex_gaussian(RngStream(96), 4, 4, count=8)
        stage = linear_stage({"mf"}, hs, 0.1)
        assert sorted(stage) == ["mf"]

    def test_non_finite_systems_raise_no_warning(self):
        hs = draw_standard_complex_gaussian(RngStream(94), 4, 4, count=8)
        hs[1, 0, 2] = np.inf
        hs[3, 3, 1] = -np.inf
        hs[5, 2, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stage = linear_stage(LINEAR_KINDS, hs, 0.1)
        for kind in ("zf", "mmse"):
            assert np.flatnonzero(stage[kind][1]).tolist() == [1, 3, 5]



class TestApplyEqualizer:
    def test_identity_weights(self):
        y = np.array([1 + 1j, 2.0, -1j])
        assert np.array_equal(apply_equalizer(np.eye(3, dtype=complex), y), y)

    def test_dimension_mismatch(self):
        eq = linear_stage({"mf"}, np.eye(3, dtype=complex), 0.0)["mf"][0]
        with pytest.raises(ValueError):
            apply_equalizer(eq, np.zeros(4, dtype=complex))

    def test_mmse_beats_zf_in_mse(self):
        # average over noisy trials at moderate SNR
        sigma2 = 0.25
        se_mmse, se_zf = 0.0, 0.0
        for seed in range(10_000):
            h, x, y = _random_instance(1000 + seed, sigma=np.sqrt(sigma2))
            w_mmse, w_zf = (linear_stage({kind}, h, sigma2)[kind][0] for kind in ("mmse", "zf"))
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


def _residual_oracle(h, y, const):
    """argmin ||y - H c||^2 over candidate_matrix, one system at a time."""
    cands = candidate_matrix(const, h.shape[-1])
    flat_h = h.reshape((-1,) + h.shape[-2:])
    flat_y = y.reshape((-1, y.shape[-1]))
    best = [np.argmin(np.sum(np.abs(yy[:, None] - hh @ cands) ** 2, axis=0))
            for hh, yy in zip(flat_h, flat_y)]
    return cands[:, best].T.reshape(y.shape[:-1] + (h.shape[-1],))


def _stack(seed, batch, n, const, sigma):
    rng = RngStream(seed)
    count = int(np.prod(batch, dtype=int))
    h = draw_standard_complex_gaussian(rng.substream(0), n, n, count=count)
    x = const.points[rng.substream(1).integers(0, const.order, (count, n))]
    z = sigma * draw_standard_complex_gaussian(rng.substream(2), count, n)
    y = np.einsum("brt,bt->br", h, x) + z
    return h.reshape(batch + (n, n)), y.reshape(batch + (n,))


class TestMlStack:
    """ml_detect on stacks of systems, against per-system calls and the
    direct residual."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.just(()), st.tuples(st.integers(1, 6)),
                     st.tuples(st.integers(1, 3), st.integers(1, 3))),
           st.integers(1, 3), st.sampled_from([4, 16]), st.sampled_from([0.0, 0.2, 0.6, 1.2]),
           st.integers(0, 2**32 - 1))
    def test_stack_matches_single_calls_and_oracle(self, batch, n, m, sigma, seed):
        const = square_qam(m)
        h, y = _stack(seed, batch, n, const, sigma)
        got = ml_detect(h, y, const)
        assert got.shape == batch + (n,)
        assert np.array_equal(got, _residual_oracle(h, y, const))
        for idx in np.ndindex(*batch):
            assert np.array_equal(got[idx], ml_detect(h[idx], y[idx], const))

    def test_monomials_cached_only_for_one_block_searches(self):
        h, y = _stack(8, (3,), 4, CONST, 0.3)
        ml_detect(h, y, CONST)
        assert (4, CONST.points.tobytes()) in _monomial_cache
        const = square_qam(16)
        assert const.order ** 4 > ML_BLOCK
        h, y = _stack(9, (2,), 4, const, 0.3)
        assert np.array_equal(ml_detect(h, y, const), _residual_oracle(h, y, const))
        assert (4, const.points.tobytes()) not in _monomial_cache

    def test_16qam_4x4_spans_blocks(self):
        # 65 536 candidates; the noiseless system sends the last of them
        const = square_qam(16)
        h, y = _stack(5, (6,), 4, const, 0.6)
        last = candidate_matrix(const, 4)[:, -1]
        y[0] = h[0] @ last
        got = ml_detect(h, y, const)
        assert np.array_equal(got[0], last)
        assert np.array_equal(got, _residual_oracle(h, y, const))

    def test_tie_across_blocks_keeps_the_first(self):
        # y = 0 with H = I ties the 256 candidates of least energy; at
        # 16-QAM 4x4 they lie in four of the 4096-candidate blocks
        const = square_qam(16)
        got = ml_detect(np.eye(4, dtype=complex), np.zeros(4, dtype=complex), const)
        cands = candidate_matrix(const, 4)
        assert np.array_equal(got, cands[:, np.argmin(np.sum(np.abs(cands) ** 2, axis=0))])

    @pytest.mark.parametrize("entry", ["h", "y"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_system_gets_candidate_zero(self, entry, value):
        h, y = _stack(6, (5,), 4, CONST, 0.3)
        clean = ml_detect(h, y, CONST)
        if entry == "h":
            h[2, 1, 3] = value
        else:
            y[2, 1] = value
        with np.errstate(invalid="ignore"):
            got = ml_detect(h, y, CONST)
        assert np.array_equal(got[2], candidate_matrix(CONST, 4)[:, 0])
        keep = [0, 1, 3, 4]
        assert np.array_equal(got[keep], clean[keep])

    @pytest.mark.skipif(_blas_thread_calls() is None,
                        reason="numpy bundles no OpenBLAS with a thread-count call")
    def test_decisions_do_not_depend_on_blas_threads(self):
        # 1024 systems score in two 512-row chunks, a product large enough
        # to thread at the library's default count.
        h, y = _stack(13, (1024,), 4, CONST, 0.5)
        set_threads, get_threads = _blas_thread_calls()
        default = get_threads()
        set_threads(1)
        try:
            single = ml_detect(h, y, CONST)
        finally:
            set_threads(default)
        assert np.array_equal(ml_detect(h, y, CONST), single)

    def test_large_stack_scores_in_bounded_chunks(self):
        # 1024 systems against 65 536 candidates, 16 blocks: unchunked, one
        # block's scores alone would take 1024 x ML_BLOCK x 8 B = 33.5 MB
        const = square_qam(16)
        n_sys = 1024
        h, y = _stack(12, (n_sys,), 4, const, 0.3)
        frames = np.concatenate([ml_detect(h[lo:lo + 64], y[lo:lo + 64], const)
                                 for lo in range(0, n_sys, 64)])
        tracemalloc.start()
        try:
            got = ml_detect(h, y, const)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, frames)
        scores = 8 * ML_SCORES
        monomials = 8 * 44 * ML_BLOCK  # one block's; building it takes about twice that
        assert peak < scores + 3 * monomials + 1024 * n_sys

    def test_one_system_chunk_scores_like_a_larger_one(self):
        # a one-row matrix product rounds differently from a larger one, so
        # a stack's last chunk, when it holds one system, is padded
        h, y = _stack(13, (50,), 4, CONST, 0.6)
        coef = _ml_coefficients(h, y)
        mono = _block_monomials(CONST, 4, 0)
        idx, score = _ml_block_best(coef, mono)
        for k in range(len(coef)):
            one_idx, one_score = _ml_block_best(coef[k:k + 1], mono)
            assert one_idx[0] == idx[k] and one_score.tobytes() == score[k:k + 1].tobytes()

    @pytest.mark.parametrize("batch, n", [((1,), 4), ((7,), 2), ((1024,), 4), ((3, 5), 3)])
    def test_coefficients_match_the_transposed_view_products(self, batch, n):
        # G from a contiguous H_r^T must keep the bytes of the view's product
        h, y = _stack(19, batch, n, CONST, 0.4)
        h, y = h.reshape((-1, n, n)), y.reshape((-1, n))
        real = realify(h, y)
        ht = np.swapaxes(real.h, -1, -2)
        g = ht @ real.h
        b = (ht @ real.y[..., None])[..., 0]
        iu, ju = np.triu_indices(2 * n, 1)
        want = np.concatenate([np.diagonal(g, axis1=-2, axis2=-1), 2 * g[..., iu, ju], -2 * b],
                              axis=-1)
        assert _ml_coefficients(h, y).tobytes() == want.tobytes()

    def test_stack_charges_every_system(self):
        h, y = _stack(7, (7,), 4, CONST, 0.3)
        with counting() as counter:
            ml_detect(h, y, CONST)
        assert counter.fitness_evals == 7 * 256
        assert counter.flops == 7 * 256 * fitness_eval_flops(4, 4) == 7 * 38_656
