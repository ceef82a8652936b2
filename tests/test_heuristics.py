import itertools
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodet import heuristics
from mimodet.complexity import counting
from mimodet.detectors import apply_equalizer, linear_stage, ml_detect
from mimodet.heuristics import (
    INERTIA_DECAY,
    DeParams,
    PsoParams,
    _best_member,
    _mutants,
    _mutation_indices,
    de_generation,
    de_selection,
    de_trials,
    init_population,
    init_swarm,
    initial_positions,
    pso_iterate,
    run_heuristic,
)
from mimodet.linalg import draw_standard_complex_gaussian
from mimodet.ofdm import demap_symbols, noise_variance, square_qam
from mimodet.realdomain import complexify, fitness_columns, realify, realify_vec
from mimodet.rng import RngStream
from mimodet.simulate import DetectorConfig, SimulationConfig, run_ber_point

CONST = square_qam(4)

# NaNs with payloads (quiet and signalling), signed zeros and infinities,
# subnormals and plain values: a select must move their bits unchanged.
SPECIAL = np.concatenate([
    np.array([0x7FF8000000000123, 0xFFF0000000000001, 0x7FF0000000000ABC], dtype=np.uint64)
    .view(np.float64),
    [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2e-308, 1.0, -3.5]])


def _fitness(sys, zeta):
    """Fitness of one candidate per system: a one-column fitness_columns call."""
    return fitness_columns(sys, np.asarray(zeta)[..., None])[..., 0]


def _decided(estimate, x):
    """True per vector where the sliced estimate carries x's bits."""
    shape = np.shape(x)[:-1] + (-1,)
    got = demap_symbols(estimate, CONST).reshape(shape)
    return np.all(got == demap_symbols(x, CONST).reshape(shape), axis=-1)


def _instance(seed, n=4, sigma=0.1):
    rng = RngStream(seed)
    h = draw_standard_complex_gaussian(rng.substream(0), n, n)
    x = CONST.points[rng.substream(1).integers(0, 4, n)]
    z = sigma * draw_standard_complex_gaussian(rng.substream(2), n, 1)[:, 0]
    y = h @ x + z
    return h, x, y, realify(h, y)


class TestInitStrategies:
    def test_uniform_within_bounds(self):
        pos = initial_positions(RngStream(1), 8, 40, None, -1.0, 1.0)
        assert pos.shape == (8, 40)
        assert pos.min() >= -1.0 and pos.max() <= 1.0

    def test_seeded_member_planted(self):
        seed = np.linspace(-0.7, 0.7, 8)
        pos = initial_positions(RngStream(2), 8, 10, seed, -1, 1)
        assert np.array_equal(pos[:, 0], seed)

    def test_seeded_member_bounds_best_fitness(self):
        h, x, y, sys = _instance(3)
        seed = realify_vec(x)
        params = PsoParams(c1=2, c2=2, w0=1, n_pop=10, iters=1)
        state = init_swarm(RngStream(4), params, seed, sys)
        assert state.gb_fitness <= state.pb_fitness[0]  # seed is member 0
        assert state.gb_fitness <= _fitness(sys, seed) * (1 + 1e-12)

    def test_gaussian_mean_matches_seed(self):
        seed = np.linspace(-0.7, 0.7, 8)
        pos = initial_positions(RngStream(5), 8, 8, seed, -1, 1, batch_shape=(10_000,))
        mean = pos.mean(axis=(0, 2))
        assert np.max(np.abs(mean - seed)) < 0.05

    def test_gaussian_include_seed_member(self):
        seed = np.zeros(8)
        pos = initial_positions(RngStream(6), 8, 5, seed, -1, 1)
        assert np.array_equal(pos[:, 0], seed)
        assert not np.allclose(pos[:, 1], seed)

    def test_seed_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            initial_positions(RngStream(7), 8, 5, np.zeros(6), -1, 1)


class TestPsoIterate:
    class _Ones:
        """Stream stub whose uniform draws are all 1."""

        def uniform(self, size):
            return np.ones(size)

    def test_pure_inertia(self):
        _, _, _, sys = _instance(7)
        params = PsoParams(c1=0, c2=0, w0=1.0, n_pop=6, iters=1, v_max=np.inf)
        state = init_swarm(RngStream(8), params, None, sys)
        state.velocities = RngStream(9).standard_normal(state.velocities.shape)
        p_before = state.positions.copy()
        v_before = state.velocities.copy()
        pso_iterate(RngStream(10), state, params, sys)
        assert np.array_equal(state.positions, p_before + v_before)
        assert np.array_equal(state.velocities, v_before)

    def test_forced_uniforms_reduction(self):
        # U1 = U2 = 1, c1 = 1, c2 = 0, w = 0 collapses onto personal bests
        _, _, _, sys = _instance(11)
        params = PsoParams(c1=1.0, c2=0.0, w0=0.0, n_pop=5, iters=1, v_max=np.inf)
        state = init_swarm(RngStream(12), params, None, sys)
        state.velocities = RngStream(13).standard_normal(state.velocities.shape)
        state.positions = state.positions + 0.1  # detach P from M_pb
        pb = state.personal_best.copy()
        pull = pb - state.positions
        pso_iterate(self._Ones(), state, params, sys)
        assert np.allclose(state.positions, pb)
        assert np.allclose(state.velocities, pull)

    def test_gb_fitness_never_increases(self):
        _, _, _, sys = _instance(15)
        params = PsoParams(c1=3.5, c2=0.5, w0=2.0, n_pop=12, iters=1)
        state = init_swarm(RngStream(16), params, None, sys)
        rng = RngStream(17)
        prev = state.gb_fitness
        for i in range(40):
            pso_iterate(rng.substream(i), state, params, sys)
            assert state.gb_fitness <= prev
            prev = state.gb_fitness

    def test_velocity_clamp(self):
        _, _, _, sys = _instance(18)
        params = PsoParams(c1=4.0, c2=4.0, w0=3.0, n_pop=10, iters=1, v_max=0.5)
        state = init_swarm(RngStream(19), params, None, sys)
        rng = RngStream(20)
        for i in range(25):
            pso_iterate(rng.substream(i), state, params, sys)
            assert np.abs(state.velocities).max() <= 0.5

    def test_inertia_trajectory_exact(self):
        # with no pulls and no clamp, step t only scales V by its inertia
        _, _, _, sys = _instance(21)
        params = PsoParams(c1=0.0, c2=0.0, w0=3.5, n_pop=6, iters=1, v_max=np.inf)
        state = init_swarm(RngStream(22), params, None, sys)
        state.velocities[...] = RngStream(24).uniform(-1.0, 1.0, state.velocities.shape)
        rng = RngStream(23)
        for t in range(1, 30):
            expected = state.velocities * (3.5 * INERTIA_DECAY ** (t - 1))
            pso_iterate(rng.substream(t), state, params, sys)
            assert np.array_equal(state.velocities, expected)

    def test_personal_best_consistency(self):
        _, _, _, sys = _instance(24)
        params = PsoParams(c1=2.0, c2=2.0, w0=1.0, n_pop=8, iters=1)
        state = init_swarm(RngStream(25), params, None, sys)
        rng = RngStream(26)
        for i in range(10):
            pso_iterate(rng.substream(i), state, params, sys)
        recomputed = np.array([_fitness(sys, state.personal_best[:, k])
                               for k in range(8)])
        assert np.allclose(state.pb_fitness, recomputed)
        assert state.gb_fitness == pytest.approx(state.pb_fitness.min())


class TestPsoDetect:
    def test_seeded_with_exact_solution(self):
        h, x, _, _ = _instance(27, sigma=0.0)
        y = h @ x
        sys = realify(h, y)
        params = PsoParams(c1=2, c2=2, w0=1, n_pop=8, iters=5)
        run = run_heuristic(RngStream(28), sys, params, realify_vec(x))
        assert run.trace[0] <= 1e-18
        assert _decided(run.estimates[None], x)

    def test_final_fitness_at_most_initial(self):
        _, _, _, sys = _instance(29)
        params = PsoParams(c1=3.5, c2=0.5, w0=2.0, n_pop=10, iters=15)
        trace = run_heuristic(RngStream(30), sys, params, None).trace
        assert trace[-1] <= trace[0]
        assert np.all(np.diff(trace) <= 0)

    def test_counted_evals_per_iteration(self):
        _, _, _, sys = _instance(31)
        params = PsoParams(c1=2, c2=2, w0=1, n_pop=13, iters=7)
        with counting() as counter:
            run_heuristic(RngStream(32), sys, params, None)
        # init evaluates the swarm once, then once per iteration
        assert counter.fitness_evals == 13 * (7 + 1)

    def test_noiseless_2x2_recovers_ml(self):
        rng = RngStream(33)
        h = draw_standard_complex_gaussian(rng.substream("h"), 2, 2, count=1000)
        x = CONST.points[rng.substream("x").integers(0, 4, (1000, 2))]
        y = np.einsum("brt,bt->br", h, x)
        sys = realify(h, y)
        params = PsoParams(c1=2, c2=2, w0=1.0, n_pop=40, iters=300)
        run = run_heuristic(rng.substream("pso"), sys, params, None)
        ml = ml_detect(linear_stage({"ml"}, h, y, 0.0), CONST)
        hit = _decided(run.estimates[None], ml).mean()
        assert hit >= 0.99


class TestDeOperators:
    # With f_cr = 1 every trial is its mutant, so de_trials exposes the
    # mutation; with identical mutant and incumbent columns it exposes the
    # crossover mask (1 = mutant entry taken).

    def test_mutation_zero_factor_copies_member(self):
        pop = RngStream(34).standard_normal((6, 8))
        nu = de_trials(RngStream(35), pop, DeParams(0.0, 1.0, n_pop=8))
        for k in range(8):
            others = [r for r in range(8) if r != k]
            assert any(np.array_equal(nu[:, k], pop[:, r]) for r in others)

    def test_mutation_identical_population(self):
        pop = np.tile(np.linspace(0, 1, 6)[:, None], (1, 8))
        nu = de_trials(RngStream(36), pop, DeParams(1.7, 1.0, n_pop=8))
        assert np.allclose(nu, pop)

    def test_mutation_needs_four(self):
        with pytest.raises(ValueError):
            de_trials(RngStream(37), np.zeros((4, 3)), DeParams(1.0, 1.0))

    def test_index_distinctness_bulk(self):
        r = _mutation_indices(RngStream(38), 40, (2500,))  # 1e5 triples
        own = np.arange(40)
        assert not np.any(r[0] == r[1])
        assert not np.any(r[0] == r[2])
        assert not np.any(r[1] == r[2])
        for i in range(3):
            assert not np.any(r[i] == own)

    def test_index_marginals_roughly_uniform(self):
        r = _mutation_indices(RngStream(39), 8, (20_000,))
        counts = np.bincount(r[0][:, 0], minlength=8)
        # index 0 is excluded for individual 0; others near-uniform
        assert counts[0] == 0
        assert counts[1:].min() > 0.8 * counts[1:].mean()

    @staticmethod
    def _crossover_mask(seed, f_cr, batch_shape=()):
        # f_mut = 0 makes mutant k a copy of some partner r1 != k; with
        # column k constant at value k, an entry changes iff it was crossed.
        iota = np.broadcast_to(np.arange(8.0), batch_shape + (8, 8)).copy()
        psi = de_trials(RngStream(seed), iota, DeParams(0.0, f_cr, n_pop=8))
        return psi != iota

    def test_crossover_full_rate(self):
        assert self._crossover_mask(40, 1.0).all()

    def test_crossover_zero_rate_forces_single_index(self):
        take = self._crossover_mask(41, 0.0, (100,))
        assert np.all(take.sum(axis=-2) == 1)

    def test_crossover_take_probability(self):
        # P(mutant dim) = f_cr + (1 - f_cr)/n_dim = 0.5625 for f_cr=.5, dim 8;
        # 12 500 batches of 8 individuals give 100 000 crossovers
        take = self._crossover_mask(42, 0.5, (12_500,))
        assert take.mean() == pytest.approx(0.5625, abs=0.01)

    def test_selection_keeps_incumbent_on_tie(self):
        _, _, _, sys = _instance(43)
        pop = init_population(RngStream(44), DeParams(1.0, 0.5, n_pop=6, iters=1),
                              None, sys)
        before = pop.individuals.copy()
        de_selection(pop, before.copy(), sys)  # trials identical -> ties
        assert np.array_equal(pop.individuals, before)
        assert np.array_equal(pop.fitness_cache, fitness_columns(sys, before))

    def test_selection_takes_zero_fitness_trial(self):
        h, x, _, _ = _instance(45, sigma=0.0)
        y = h @ x
        sys = realify(h, y)
        pop = init_population(RngStream(46), DeParams(1.0, 0.5, n_pop=6, iters=1),
                              None, sys)
        trials = pop.individuals.copy()
        trials[:, 3] = realify_vec(x)
        de_selection(pop, trials, sys)
        assert np.array_equal(pop.individuals[:, 3], realify_vec(x))

    def test_selection_never_increases_fitness(self):
        _, _, _, sys = _instance(47)
        params = DeParams(0.8, 0.7, n_pop=10, iters=1)
        pop = init_population(RngStream(48), params, None, sys)
        rng = RngStream(49)
        for g in range(20):
            before = pop.fitness_cache.copy()
            de_generation(rng.substream(g), pop, params, sys)
            assert np.all(pop.fitness_cache <= before)

    def test_counted_evals_per_generation(self):
        _, _, _, sys = _instance(50)
        params = DeParams(0.6, 0.6, n_pop=9, iters=5)
        with counting() as counter:
            run_heuristic(RngStream(51), sys, params, None)
        # init evaluates once, then individuals + trials per generation
        assert counter.fitness_evals == 9 + 5 * 2 * 9

    def test_de_detect_seeded_exact(self):
        h, x, _, _ = _instance(52, sigma=0.0)
        y = h @ x
        sys = realify(h, y)
        params = DeParams(0.6, 0.6, n_pop=8, iters=4)
        run = run_heuristic(RngStream(53), sys, params, realify_vec(x))
        assert _decided(run.estimates[None], x)
        assert run.trace[0] <= 1e-18
        assert np.all(np.diff(run.trace) <= 0)

    def test_noiseless_2x2_recovers_ml(self):
        rng = RngStream(54)
        h = draw_standard_complex_gaussian(rng.substream("h"), 2, 2, count=1000)
        x = CONST.points[rng.substream("x").integers(0, 4, (1000, 2))]
        y = np.einsum("brt,bt->br", h, x)
        sys = realify(h, y)
        params = DeParams(0.6, 0.6, n_pop=40, iters=300)
        run = run_heuristic(rng.substream("de"), sys, params, None)
        ml = ml_detect(linear_stage({"ml"}, h, y, 0.0), CONST)
        hit = _decided(run.estimates[None], ml).mean()
        assert hit >= 0.99


class TestKernelOracles:
    """The batched kernels against direct transcriptions of their rules."""

    @pytest.mark.parametrize("batch_shape", [(), (3,), (2, 5)])
    def test_de_mutants_match_take_along_axis(self, batch_shape):
        iota = RngStream(70).standard_normal(batch_shape + (6, 9))
        # f_cr = 1 takes every entry from the mutant
        trials = de_trials(RngStream(71), iota, DeParams(1.3, 1.0, n_pop=9))
        r = _mutation_indices(RngStream(71), 9, batch_shape)
        pick = lambda idx: np.take_along_axis(iota, idx[..., None, :], axis=-1)
        assert np.array_equal(trials, pick(r[0]) + 1.3 * (pick(r[1]) - pick(r[2])))

    @staticmethod
    def _where_trials(seed, individuals, params):
        """de_trials as the np.where select it replaced, on the same stream:
        the mutants, then the crossover uniforms, then the forced dimensions."""
        rng = RngStream(seed)
        iota = np.asarray(individuals, dtype=np.float64)
        n_dim, n_pop = iota.shape[-2:]
        mutants = np.swapaxes(heuristics._mutants(rng, iota, params.f_mut), -1, -2)
        take = rng.uniform(size=iota.shape) <= params.f_cr
        forced = rng.integers(0, n_dim, iota.shape[:-2] + (n_pop,))
        take |= np.arange(n_dim)[:, None] == forced[..., None, :]
        return np.where(take, mutants, iota)

    @pytest.mark.parametrize("batch_shape", [(), (3,), (2, 5)])
    @pytest.mark.parametrize("f_cr", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("strided", [False, True])
    def test_de_crossover_matches_where_bit_for_bit(self, batch_shape, f_cr, strided):
        rng = RngStream(81)
        if strided:  # members as every other column of a row-major block
            individuals = np.swapaxes(rng.standard_normal(batch_shape + (9, 12))[..., ::2], -1, -2)
            assert not individuals.flags.c_contiguous
        else:
            individuals = rng.standard_normal(batch_shape + (6, 9))
        before = individuals.copy()
        params = DeParams(0.8, f_cr, n_pop=9)
        trials = de_trials(RngStream(82), individuals, params)
        want = self._where_trials(82, individuals, params)
        assert trials.dtype == np.float64 and trials.flags.c_contiguous
        assert np.array_equal(trials.view(np.int64), want.view(np.int64))
        assert np.array_equal(individuals.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("batch_shape", [(), (3,), (2, 5)])
    def test_de_crossover_moves_special_values_bit_for_bit(self, batch_shape, monkeypatch):
        # incumbents and mutants both hold every special value, in different
        # places; the real mutation still runs first, so the stream matches
        real = heuristics._mutants

        def special_mutants(rng, iota, f_mut):
            out = real(rng, iota, f_mut)
            out[...] = np.resize(SPECIAL[::-1], out.shape)
            return out

        monkeypatch.setattr(heuristics, "_mutants", special_mutants)
        individuals = np.resize(SPECIAL, batch_shape + (7, 11))
        before = individuals.copy()
        params = DeParams(1.0, 0.5, n_pop=11)
        with np.errstate(invalid="ignore", over="ignore"):
            trials = de_trials(RngStream(83), individuals, params)
            want = self._where_trials(83, individuals, params)
        bits = trials.view(np.int64)
        assert np.array_equal(bits, want.view(np.int64))
        assert np.array_equal(individuals.view(np.int64), before.view(np.int64))
        taken = bits != before.view(np.int64)
        assert taken.any() and not taken.all()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(4, 12), st.integers(1, 8), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    def test_de_trial_entries_come_from_incumbent_or_mutant(self, n_pop, n_dim, f_cr, seed):
        iota = RngStream(seed).standard_normal((3, n_dim, n_pop))
        params = DeParams(0.7, f_cr, n_pop=n_pop)
        bits = de_trials(RngStream(seed + 1), iota, params).view(np.int64)
        mutants = np.swapaxes(_mutants(RngStream(seed + 1), iota, 0.7), -1, -2)
        from_mutant = bits == mutants.view(np.int64)
        assert np.all(from_mutant | (bits == iota.view(np.int64)))
        assert np.all(from_mutant.any(axis=-2))  # the forced dimension

    @pytest.mark.parametrize("batch_shape", [(), (4,), (2, 3)])
    def test_best_member_first_index_on_ties(self, batch_shape):
        rng = RngStream(72)
        members = rng.standard_normal(batch_shape + (5, 7))
        fits = rng.integers(0, 3, batch_shape + (7,)).astype(float)  # many ties
        best, best_fit = _best_member(members, fits)
        flat_m, flat_f = members.reshape(-1, 5, 7), fits.reshape(-1, 7)
        want = [flat_f[b].tolist().index(flat_f[b].min()) for b in range(len(flat_f))]
        assert np.array_equal(best.reshape(-1, 5),
                              np.stack([flat_m[b, :, k] for b, k in enumerate(want)]))
        assert np.array_equal(np.reshape(best_fit, -1), flat_f.min(axis=-1))
        assert not np.shares_memory(best, members)
        if batch_shape == ():
            assert type(best_fit) is float

    class _EveryDraw:
        """Stream stub: column k of an (M, n) integers draw holds every x in
        [0, M) once, so one call enumerates all draws for every individual."""

        def __init__(self):
            self.calls = 0

        def integers(self, low, high, size):
            self.calls += 1
            assert low == 0 and size == (high, size[-1])
            return np.repeat(np.arange(high)[:, None], size[-1], axis=1)

    @pytest.mark.parametrize("n_pop", [4, 5, 9])
    def test_mutation_indices_exactly_uniform(self, n_pop):
        # (n-1)(n-2)(n-3) draws must give each ordered triple of distinct
        # partners other than k exactly once: 6, 24 and 336 here
        m = (n_pop - 1) * (n_pop - 2) * (n_pop - 3)
        rng = self._EveryDraw()
        r = _mutation_indices(rng, n_pop, (m,))
        assert rng.calls == 1
        assert r.shape == (3, m, n_pop)
        for k in range(n_pop):
            others = [i for i in range(n_pop) if i != k]
            assert sorted(map(tuple, r[:, :, k].T.tolist())) == \
                list(itertools.permutations(others, 3))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(4, 64),
           st.one_of(st.just(()), st.tuples(st.integers(1, 6)),
                     st.tuples(st.integers(1, 4), st.integers(1, 4))),
           st.integers(0, 2**32 - 1))
    def test_mutation_indices_distinct_and_in_range(self, n_pop, batch_shape, seed):
        r = _mutation_indices(RngStream(seed), n_pop, batch_shape)
        assert r.shape == (3,) + batch_shape + (n_pop,)
        assert r.min() >= 0 and r.max() < n_pop
        own = np.arange(n_pop)
        assert not np.any((r[0] == r[1]) | (r[0] == r[2]) | (r[1] == r[2]))
        assert not np.any(r == own)

    def test_pso_update_bit_equal_to_formula(self):
        _, _, _, sys = _instance(76)
        params = PsoParams(c1=3.5, c2=0.5, w0=2.0, n_pop=10, iters=1, v_max=np.inf)
        state = init_swarm(RngStream(77), params, None, sys)
        state.velocities = RngStream(78).standard_normal(state.velocities.shape)
        state.positions = state.positions + 0.3  # detach P from M_pb
        p, v, pb, gb = (state.positions.copy(), state.velocities.copy(),
                        state.personal_best.copy(), state.p_gb.copy())
        twin = RngStream(80)  # the same U1, U2 draws as the stream handed in
        u1, u2 = twin.uniform(size=p.shape), twin.uniform(size=p.shape)
        pso_iterate(RngStream(80), state, params, sys)
        vel = 2.0 * v + 3.5 * u1 * (pb - p) + 0.5 * u2 * (gb[:, None] - p)
        assert np.array_equal(state.velocities, vel)
        assert np.array_equal(state.positions, p + vel)

    @pytest.mark.parametrize("kind", ["pso", "de"])
    def test_checkpoints_slice_each_recorded_best(self, kind):
        systems = [_instance(74 + b, sigma=0.5) for b in range(6)]
        sys = realify(np.stack([s[0] for s in systems]), np.stack([s[2] for s in systems]))
        steps = 12
        if kind == "pso":
            params = PsoParams(c1=3.5, c2=0.5, w0=2.0, n_pop=10, iters=steps)
            run = run_heuristic(RngStream(75), sys, params, None, range(steps + 1))
            rng = RngStream(75)
            state = init_swarm(rng, params, None, sys)
            bests = [state.p_gb.copy()]
            for _ in range(steps):
                pso_iterate(rng, state, params, sys)
                bests.append(state.p_gb.copy())
        else:
            params = DeParams(1.7, 0.6, n_pop=10, iters=steps)
            run = run_heuristic(RngStream(75), sys, params, None, range(steps + 1))
            rng = RngStream(75)
            pop = init_population(rng, params, None, sys)
            bests = [_best_member(pop.individuals, pop.fitness_cache)[0]]
            for _ in range(steps):
                de_generation(rng, pop, params, sys)
                bests.append(_best_member(pop.individuals, pop.fitness_cache)[0])
        marks = run.estimates
        assert list(marks) == list(range(steps + 1)) + [None]
        for it, best in enumerate(bests):
            assert np.array_equal(marks[it], complexify(best))
        assert np.array_equal(marks[None], complexify(bests[-1]))
        # the estimates move during the run, so an aliased snapshot would show
        assert any(not np.array_equal(marks[0], marks[it]) for it in marks)
        for a in marks:
            for b in marks:
                assert a == b or not np.shares_memory(marks[a], marks[b])


class TestHybrid:
    def _seeded_setup(self, seed, sigma2=0.05):
        h, x, y, sys = _instance(seed, sigma=np.sqrt(sigma2))
        seed_vec = realify_vec(apply_equalizer(linear_stage({"mmse"}, h, y, sigma2), "mmse")[0])
        return h, x, y, sys, seed_vec, sigma2

    @staticmethod
    def _batch(seed, batch=16, sigma2=0.05, linear="mmse"):
        rng = RngStream(seed)
        h = draw_standard_complex_gaussian(rng.substream("h"), 4, 4, count=batch)
        x = CONST.points[rng.substream("x").integers(0, 4, (batch, 4))]
        z = draw_standard_complex_gaussian(rng.substream("z"), batch, 4)
        y = np.einsum("brt,bt->br", h, x) + np.sqrt(sigma2) * z
        seeds = apply_equalizer(linear_stage({linear}, h, y, sigma2), linear)[0]
        return realify(h, y), realify_vec(seeds)

    def test_budget_zero_returns_sliced_seed(self):
        h, x, y, sys, seed_vec, sigma2 = self._seeded_setup(55)
        params = PsoParams(c1=2, c2=2, w0=1, n_pop=8, iters=0)
        run = run_heuristic(RngStream(56), sys, params, seed_vec)
        assert np.array_equal(run.estimates[None], complexify(seed_vec))
        assert run.trace.shape == (1,)

    @pytest.mark.parametrize("params", [PsoParams(c1=2, c2=2, w0=1, n_pop=8, iters=0),
                                        DeParams(0.6, 0.6, n_pop=8, iters=0)])
    @pytest.mark.parametrize("batch", [None, 16])
    def test_budget_zero_trace_is_seed_fitness(self, params, batch):
        # the one trace entry of a zero-budget run scores the seed as a
        # one-column candidate set, with no members drawn
        if batch is None:
            _, _, _, sys, seed_vec, _ = self._seeded_setup(62)
        else:
            sys, seed_vec = self._batch(62, batch)
        with counting() as counter:
            run = run_heuristic(RngStream(63), sys, params, seed_vec)
        assert run.trace.shape == seed_vec.shape[:-1] + (1,)
        assert np.array_equal(run.trace[..., 0], fitness_columns(sys, seed_vec[..., None])[..., 0])
        assert counter.fitness_evals == (batch or 1)

    @pytest.mark.parametrize("linear", ["mf", "mmse"])
    @pytest.mark.parametrize("make", [
        lambda iters: PsoParams(c1=4.0, c2=0.5, w0=2.0, n_pop=10, iters=iters),
        lambda iters: DeParams(2.0, 0.7, n_pop=10, iters=iters)], ids=["pso", "de"])
    @pytest.mark.parametrize("budget", [1, 5])
    def test_seeded_trace_starts_at_seed_fitness(self, make, linear, budget):
        # at any budget a seeded run's step 0 scores the seed, as at budget
        # 0; it reads member 0's initial fitness, so no evaluation is added.
        # At this low SNR some perturbed initial member beats the seed.
        sys, seed_vec = self._batch(64, sigma2=5.0, linear=linear)
        zero = run_heuristic(RngStream(65), sys, make(0), seed_vec).trace[..., 0]
        params = make(budget)
        with counting() as counter:
            run = run_heuristic(RngStream(65), sys, params, seed_vec)
        np.testing.assert_allclose(run.trace[..., 0], zero, rtol=1e-12, atol=0)
        evals_per_step = 2 if isinstance(params, DeParams) else 1
        assert counter.fitness_evals == 16 * params.n_pop * (evals_per_step * budget + 1)

    # A hybrid never ends worse than its seed: member 0 is the seed and
    # neither heuristic ever lets its best fitness rise. One batched run
    # covers 16 random systems per example.

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_seed_membership_dominance(self, seed):
        sys, seed_vec = self._batch(seed)
        params = PsoParams(c1=3.5, c2=0.5, w0=2.0, n_pop=10, iters=15)
        run = run_heuristic(RngStream(seed), sys, params, seed_vec)
        assert np.all(np.diff(run.trace, axis=-1) <= 0)
        assert np.all(run.trace[..., -1] <= _fitness(sys, seed_vec) * (1 + 1e-12))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_de_hybrid_dominance(self, seed):
        sys, seed_vec = self._batch(seed)
        params = DeParams(1.7, 0.6, n_pop=10, iters=15)
        run = run_heuristic(RngStream(seed), sys, params, seed_vec)
        assert np.all(np.diff(run.trace, axis=-1) <= 0)
        assert np.all(run.trace[..., -1] <= _fitness(sys, seed_vec) * (1 + 1e-12))

    def test_checkpoint_zero_is_linear_decision(self):
        h, x, y, sys, seed_vec, sigma2 = self._seeded_setup(57)
        params = PsoParams(c1=3.5, c2=0.5, w0=2.0, n_pop=8, iters=5)
        run = run_heuristic(RngStream(58), sys, params, seed_vec, checkpoints=(0, 5))
        assert np.array_equal(run.estimates[0], complexify(seed_vec))

    def test_fallback_on_singular_seed(self, caplog):
        # rho = 1 makes every channel rank one, so the noiseless MMSE seed
        # is lost on every subcarrier; the engine refines from the zero
        # vector instead and still decides every vector
        config = SimulationConfig(detectors=(DetectorConfig("pso-mmse", iters=3, n_pop=8),),
                                  max_trials=64, master_seed=59)
        with caplog.at_level(logging.WARNING):
            rec = run_ber_point(config, config.detectors[0], float("inf"), 1.0)
        assert "64 subcarriers lost their linear seed" in caplog.text
        assert rec.trials == 64
        assert rec.bit_errors < 64 * config.bits_per_vector  # not counted as erasures

    def test_unknown_kind_rejected(self):
        _, _, _, sys = _instance(60)
        with pytest.raises(TypeError):
            run_heuristic(RngStream(61), sys, object(), np.zeros(8))


class TestWorkingSet:
    @pytest.mark.parametrize("params, seeded", [
        (PsoParams(c1=3.5, c2=0.5, w0=2.0, n_pop=40, iters=25), False),
        (DeParams(1.7, 0.6, n_pop=40, iters=25), False),
        (PsoParams(c1=3.5, c2=0.5, w0=2.0, n_pop=40, iters=25), True),
        (DeParams(1.7, 0.6, n_pop=40, iters=25), True),
    ], ids=["PSO", "DE", "PSO-MMSE", "DE-MMSE"])
    def test_run_peak_within_six_member_arrays(self, params, seeded):
        # A PSO step holds positions, velocities and personal bests plus one
        # difference and one pull array; DE's crossover runs beside one
        # mutant array. Drawing both uniforms up front, or gathering all
        # three partners at once, takes the peak past 7 member arrays. DE
        # peaks at about 4.7 in its mutation, so a crossover select that
        # keeps one more temporary (5.0) fails its tighter bound.
        sys, seeds = TestHybrid._batch(91, batch=64)
        member = sys.y.shape[0] * sys.dim * params.n_pop * 8  # (64, 8, 40) doubles
        tracemalloc.start()
        try:
            run_heuristic(RngStream(92), sys, params, seeds if seeded else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (6 if isinstance(params, PsoParams) else 4.9) * member


class TestOracleParity:
    """Duplicate-implementation BER parity at a matched operating point."""

    EBN0_DB = 12.0
    TRIALS = 10_000

    def _trials(self):
        sigma2 = noise_variance(self.EBN0_DB, 4)
        rng = RngStream(777)
        h = draw_standard_complex_gaussian(rng.substream("h"), 4, 4, count=self.TRIALS)
        xi = rng.substream("x").integers(0, 4, (self.TRIALS, 4))
        x = CONST.points[xi]
        z = draw_standard_complex_gaussian(rng.substream("z"), self.TRIALS, 4)
        y = np.einsum("brt,bt->br", h, x) + np.sqrt(sigma2) * z
        return h, x, y

    @staticmethod
    def _ber(estimates, x):
        got = demap_symbols(estimates, CONST)
        want = demap_symbols(x, CONST)
        return np.mean(got != want), got.size

    @staticmethod
    def _parity_ok(p1, p2, nbits):
        pbar = (p1 + p2) / 2.0
        se = np.sqrt(max(pbar * (1 - pbar), 1e-12) * 2.0 / nbits)
        return abs(p1 - p2) <= 1.96 * se

    def test_pso_matches_independent_oracle(self):
        h, x, y = self._trials()
        sys = realify(h, y)
        params = PsoParams(c1=4.0, c2=1.0, w0=1.5, n_pop=16, iters=10)
        run = run_heuristic(RngStream(800), sys, params, None)
        p_impl, nbits = self._ber(run.estimates[None], x)

        # independent oracle: direct transcription of the update rules
        gen = np.random.default_rng(4242)
        out = np.empty_like(x)
        for t in range(self.TRIALS):
            hr = np.block([[h[t].real, -h[t].imag], [h[t].imag, h[t].real]])
            yr = np.concatenate([y[t].real, y[t].imag])
            pos = gen.uniform(-1, 1, (16, 8))
            vel = np.zeros((16, 8))
            fit = np.sum((yr - pos @ hr.T) ** 2, axis=1)
            pbest = pos.copy()
            pbest_fit = fit.copy()
            g = pbest[np.argmin(pbest_fit)].copy()
            g_fit = pbest_fit.min()
            w = 1.5
            for _ in range(10):
                u1 = gen.uniform(size=(16, 8))
                u2 = gen.uniform(size=(16, 8))
                vel = w * vel + 4.0 * u1 * (pbest - pos) + 1.0 * u2 * (g - pos)
                vel = np.clip(vel, -2.0, 2.0)
                pos = pos + vel
                fit = np.sum((yr - pos @ hr.T) ** 2, axis=1)
                better = fit < pbest_fit
                pbest[better] = pos[better]
                pbest_fit[better] = fit[better]
                if pbest_fit.min() < g_fit:
                    g = pbest[np.argmin(pbest_fit)].copy()
                    g_fit = pbest_fit.min()
                w *= 0.99
            out[t] = g[:4] + 1j * g[4:]
        p_oracle, _ = self._ber(out, x)
        assert self._parity_ok(p_impl, p_oracle, nbits), (p_impl, p_oracle)

    def test_de_matches_independent_oracle(self):
        h, x, y = self._trials()
        sys = realify(h, y)
        params = DeParams(f_mut=0.6, f_cr=0.6, n_pop=12, iters=8)
        run = run_heuristic(RngStream(801), sys, params, None)
        p_impl, nbits = self._ber(run.estimates[None], x)

        gen = np.random.default_rng(2424)
        out = np.empty_like(x)
        n_ind, n_gen = 12, 8
        for t in range(self.TRIALS):
            hr = np.block([[h[t].real, -h[t].imag], [h[t].imag, h[t].real]])
            yr = np.concatenate([y[t].real, y[t].imag])
            pop = gen.uniform(-1, 1, (n_ind, 8))
            for _ in range(n_gen):
                fit = np.sum((yr - pop @ hr.T) ** 2, axis=1)
                new_pop = pop.copy()
                for k in range(n_ind):
                    others = np.delete(np.arange(n_ind), k)
                    r1, r2, r3 = gen.choice(others, 3, replace=False)
                    mutant = pop[r1] + 0.6 * (pop[r2] - pop[r3])
                    cross = gen.uniform(size=8) <= 0.6
                    cross[gen.integers(0, 8)] = True
                    trial = np.where(cross, mutant, pop[k])
                    if np.sum((yr - hr @ trial) ** 2) < fit[k]:
                        new_pop[k] = trial
                pop = new_pop
            fit = np.sum((yr - pop @ hr.T) ** 2, axis=1)
            g = pop[np.argmin(fit)]
            out[t] = g[:4] + 1j * g[4:]
        p_oracle, _ = self._ber(out, x)
        assert self._parity_ok(p_impl, p_oracle, nbits), (p_impl, p_oracle)
