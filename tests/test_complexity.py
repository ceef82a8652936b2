import pytest

from mimodet.complexity import (
    DETECTORS,
    FlopFormulaInput,
    complexity_sweep,
    counting,
    fitness_eval_flops,
    flops_detector,
    flops_primitive,
)
from mimodet.detectors import apply_equalizer, linear_stage, ml_detect
from mimodet.heuristics import DeParams, PsoParams, run_heuristic
from mimodet.linalg import draw_standard_complex_gaussian
from mimodet.ofdm import square_qam
from mimodet.realdomain import realify
from mimodet.rng import RngStream


class TestPrimitives:
    def test_reference_values(self):
        assert flops_primitive("sqrt") == 8
        assert flops_primitive("norm2", n=4) == 15
        assert flops_primitive("matvec", m=4, q=4) == 28
        assert flops_primitive("matmat", m=4, p=4, q=4) == 112
        assert flops_primitive("lu_inversion", q=4) == pytest.approx(2 / 3 * 64 + 32)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            flops_primitive("fft", n=4)


class TestDetectorFormulas:
    def test_reference_values(self):
        assert flops_detector("MF", FlopFormulaInput(4, 4)) == 120
        assert flops_detector("PSO", FlopFormulaInput(4, 4, n_pop=40, iters=1)) == 9240
        assert flops_detector("DE", FlopFormulaInput(4, 4, n_pop=40, iters=1)) == 14000
        assert flops_detector("ML", FlopFormulaInput(4, 4, m_order=4)) == 9_895_936

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_mmse_zf_difference(self, n):
        inp = FlopFormulaInput(n, n)
        diff = flops_detector("MMSE", inp) - flops_detector("ZF", inp)
        assert diff == 4 * n * n + 2 * n

    def test_hybrid_additivity(self):
        inp = FlopFormulaInput(4, 4, n_pop=40, iters=15)
        for heuristic in ("PSO", "DE"):
            for linear in ("MF", "MMSE"):
                combined = flops_detector(f"{heuristic}-{linear}", inp)
                assert combined == flops_detector(heuristic, inp) + flops_detector(linear, inp)

    def test_monotone_in_arguments(self):
        base = FlopFormulaInput(4, 4, n_pop=40, iters=10, m_order=4)
        for kind in DETECTORS:
            v0 = flops_detector(kind, base)
            assert flops_detector(kind, FlopFormulaInput(5, 4, 40, 10, 4)) > v0 or kind is None
            assert flops_detector(kind, FlopFormulaInput(4, 5, 40, 10, 4)) > v0
        for kind in ("PSO", "DE"):
            assert flops_detector(kind, FlopFormulaInput(4, 4, 41, 10)) > \
                flops_detector(kind, FlopFormulaInput(4, 4, 40, 10))
            assert flops_detector(kind, FlopFormulaInput(4, 4, 40, 11)) > \
                flops_detector(kind, FlopFormulaInput(4, 4, 40, 10))

    def test_case_insensitive(self):
        assert flops_detector("mf", FlopFormulaInput(4, 4)) == 120

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            flops_detector("SPHERE", FlopFormulaInput(4, 4))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            FlopFormulaInput(0, 4)
        with pytest.raises(ValueError):
            FlopFormulaInput(4, 4, iters=-1)


# The budgets these tests were written for: n_pop = 10 n_t, 50 plain and
# 15 hybrid iterations, 4-QAM.
BUDGETS = dict(pop_factor=5, iters=50, iters_hybrid=15, m_order=4)


class TestSweep:
    def test_every_registered_kind_per_size(self):
        rows = complexity_sweep([2, 4], **BUDGETS)
        assert [(n, k) for n, k, _ in rows] == [(n, k.upper()) for n in (2, 4) for k in DETECTORS]

    def test_de_exceeds_pso_everywhere(self):
        rows = complexity_sweep([2, 4, 8, 16, 32, 64, 128, 256], **BUDGETS)
        by = {(n, k): f for n, k, f in rows}
        for n in (2, 4, 8, 16, 32, 64, 128, 256):
            assert by[(n, "DE")] > by[(n, "PSO")]

    def test_hybrid_cheaper_than_conventional(self):
        rows = complexity_sweep([4, 16, 64, 256], **BUDGETS)
        by = {(n, k): f for n, k, f in rows}
        for n in (4, 16, 64, 256):
            assert by[(n, "PSO-MMSE")] < by[(n, "PSO")]
            assert by[(n, "DE-MF")] < by[(n, "DE")]

    def test_ml_exact_at_large_sizes(self):
        # integer arithmetic: no overflow even when doubles would give inf
        (val,) = [f for _, k, f in complexity_sweep([256], **BUDGETS) if k == "ML"]
        assert isinstance(val, int)
        assert val == 4 ** 512 * (8 * 256 * 256 + 4 * 256 + 7)

    def test_population_scaling(self):
        rows = complexity_sweep([4], **dict(BUDGETS, iters=1))
        # n_pop = 5 * 2 * 4 = 40 at n_t = 4
        assert [f for _, k, f in rows if k == "PSO"] == [40 * 231]


class TestInstrumentedCounts:
    def _system(self, seed=1):
        rng = RngStream(seed)
        h = draw_standard_complex_gaussian(rng.substream(0), 4, 4)
        y = draw_standard_complex_gaussian(rng.substream(1), 4, 1)[:, 0]
        return h, y

    def test_mf_counted_flops(self):
        h, y = self._system()
        with counting() as counter:
            apply_equalizer(linear_stage({"mf"}, h, 0.0)["mf"][0], y)
        assert counter.flops == 120

    def test_zf_counted_flops_match_formula(self):
        h, y = self._system(2)
        with counting() as counter:
            apply_equalizer(linear_stage({"zf"}, h, 0.0)["zf"][0], y)
        assert counter.flops == pytest.approx(flops_detector("ZF", FlopFormulaInput(4, 4)))

    def test_mmse_counted_flops_match_formula(self):
        h, y = self._system(3)
        with counting() as counter:
            apply_equalizer(linear_stage({"mmse"}, h, 0.1)["mmse"][0], y)
        assert counter.flops == pytest.approx(flops_detector("MMSE", FlopFormulaInput(4, 4)))

    def test_fitness_eval_flops_match_bracket(self):
        # per-evaluation cost equals the per-particle bracket minus the
        # 20 n_t update arithmetic
        assert fitness_eval_flops(4, 4) == 151  # 8*16 + 4*4 + 7

    def test_pso_per_iteration_counts(self):
        h, y = self._system(4)
        sys = realify(h, y)
        params = PsoParams(c1=2, c2=2, w0=1, n_pop=40, iters=3)
        with counting() as counter:
            run_heuristic(RngStream(5), sys, params, None)
        # evals: one init sweep + one sweep per iteration
        assert counter.fitness_evals == 40 * 4
        # flops: init evals + 3 iterations of the closed-form bracket
        bracket = flops_detector("PSO", FlopFormulaInput(4, 4, n_pop=40, iters=3))
        assert counter.flops == pytest.approx(bracket + 40 * fitness_eval_flops(4, 4))

    def test_de_per_generation_counts(self):
        h, y = self._system(6)
        sys = realify(h, y)
        params = DeParams(f_mut=0.8, f_cr=0.7, n_pop=40, iters=5)
        with counting() as counter:
            run_heuristic(RngStream(7), sys, params, None)
        assert counter.fitness_evals == 40 + 5 * 2 * 40
        bracket = flops_detector("DE", FlopFormulaInput(4, 4, n_pop=40, iters=5))
        assert counter.flops == pytest.approx(bracket + 40 * fitness_eval_flops(4, 4))

    def test_nothing_counted_outside_a_block(self):
        h, y = self._system(8)
        with counting() as counter:
            pass
        apply_equalizer(linear_stage({"zf"}, h, 0.0)["zf"][0], y)
        assert counter.flops == 0 and counter.fitness_evals == 0

    def test_ml_counts_its_candidates(self):
        # the search scores M^n_t candidates; the closed form counts
        # M^(2 n_t) of them, 9 895 936 flops at 4x4 4-QAM
        h, y = self._system(9)
        with counting() as counter:
            ml_detect(h, y, square_qam(4))
        assert counter.fitness_evals == 4 ** 4
        assert counter.flops == 4 ** 4 * fitness_eval_flops(4, 4) == 38_656
