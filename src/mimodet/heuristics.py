"""Swarm and differential-evolution detectors, plus linear-seeded hybrids.

Both heuristics minimize the real-domain residual fitness over a box
search space. The swarm keeps positions/velocities column-stacked in
(dim, n_pop) matrices; velocity updates are

    V <- w V + c1 U1 o (M_pb - P) + c2 U2 o (M_gb - P),    P <- P + V,

with U1, U2 uniform [0, 1] matrices, velocities clamped entrywise to
[-v_max, v_max], and inertia decaying by a factor 0.99 per iteration.
Positions are intentionally not clamped to the box; the fitness penalizes
far excursions on its own.

Differential evolution uses the rand/1/bin strategy: mutants
iota_r1 + F_mut (iota_r2 - iota_r3) with distinct random indices, binomial
crossover with one forced dimension, and greedy selection on strict
fitness improvement. The partners r1, r2, r3 of individual k come from one
integer draw, uniform over the (n_pop-1)(n_pop-2)(n_pop-3) valid ordered
triples: it decodes to three offsets, and each offset is shifted past k
and the partners already chosen. That map is a bijection, so every valid
triple is equally likely and no draw is ever rejected. Both the current
individuals and the trial vectors are evaluated every generation
(2 n_pop evaluations), which is the accounting the complexity model
charges.

Initial members are drawn in one of two ways. Without a seed vector,
every member is uniform over [search_lo, search_hi] per dimension. With
a seed vector, member 0 is the seed itself and every other member adds
N(0, 1) per dimension to it. The hybrid detectors seed with a linear
detector's soft estimate, so they can never end with worse fitness than
that seed. Where the linear stage failed (singular Gram matrix), the
engine passes the zero vector as that subcarrier's seed.

A run returns complex soft estimates, the best member of each step, not
constellation points: `ofdm.demap_symbols` is the only slicer, for these
runs as for the linear detectors, so a hybrid's iteration 0 is exactly its
linear detector's decision, ties included (demap_symbols states the rule).

All state arrays accept an optional leading batch axis; the Monte Carlo
engine batches every subcarrier of an OFDM frame through one state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .complexity import charge
from .realdomain import RealSystem, complexify, fitness_columns
from .rng import RngStream

INERTIA_DECAY = 0.99


def check_integers(obj, names) -> None:
    """Raise ValueError unless each named attribute of obj is an integer
    (bool and integral floats such as 4.0 are not)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, kw_only=True)
class HeuristicParams:
    """What both heuristics share: population size, step budget (PSO
    iterations or DE generations) and the box uniform starts are drawn from.

    Subclasses name their tuned coefficients in TUNED, in calibration order;
    the coefficients must be finite.
    """

    TUNED: ClassVar[tuple] = ()
    MIN_POP: ClassVar[int] = 2

    n_pop: int = 40
    iters: int = 50
    search_lo: float = -1.0
    search_hi: float = 1.0

    def __post_init__(self):
        counts = ("n_pop", "iters")
        check_integers(self, counts)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in counts and (isinstance(value, bool)
                                         or not isinstance(value, numbers.Real)):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
        if self.n_pop < self.MIN_POP:
            raise ValueError(f"n_pop must be >= {self.MIN_POP}")
        if self.iters < 0:
            raise ValueError("iters must be >= 0")
        for name in self.TUNED + ("search_lo", "search_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.search_lo < self.search_hi:
            raise ValueError("search_lo must be below search_hi")


@dataclass(frozen=True)
class PsoParams(HeuristicParams):
    TUNED: ClassVar[tuple] = ("c1", "c2", "w0")

    c1: float
    c2: float
    w0: float
    v_max: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("c1 and c2 must be >= 0")
        if not self.v_max > 0:  # +inf is allowed and turns the clamp off
            raise ValueError("v_max must be positive")


@dataclass(frozen=True)
class DeParams(HeuristicParams):
    TUNED: ClassVar[tuple] = ("f_mut", "f_cr")
    MIN_POP: ClassVar[int] = 4  # mutation draws three distinct partners

    f_mut: float
    f_cr: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.f_mut <= 2.0:
            raise ValueError("f_mut must be in [0, 2]")
        if not 0.0 <= self.f_cr <= 1.0:
            raise ValueError("f_cr must be in [0, 1]")


@dataclass
class SwarmState:
    positions: np.ndarray      # (..., dim, n_pop)
    velocities: np.ndarray     # (..., dim, n_pop)
    personal_best: np.ndarray  # (..., dim, n_pop)
    pb_fitness: np.ndarray     # (..., n_pop)
    p_gb: np.ndarray           # (..., dim)
    gb_fitness: np.ndarray | float
    w: float
    iteration: int = 0


@dataclass
class PopulationState:
    individuals: np.ndarray    # (..., dim, n_pop)
    fitness_cache: np.ndarray  # (..., n_pop)
    p_gb: np.ndarray           # (..., dim) best individual
    gb_fitness: np.ndarray | float


@dataclass
class HeuristicRun:
    """Outcome of one batched heuristic detection."""

    estimate: np.ndarray                    # (..., n_tx) complex soft estimate
    trace: np.ndarray                       # (..., n_steps + 1) best fitness per step
    checkpoint_estimates: dict = field(default_factory=dict)


def initial_positions(rng: RngStream, n_dim: int, n_members: int,
                      seed_vec: np.ndarray | None, lo: float, hi: float,
                      batch_shape: tuple = ()) -> np.ndarray:
    """Column-stacked initial members: uniform in [lo, hi] without a seed,
    else the seed as member 0 and seed + N(0, 1) for the rest."""
    shape = batch_shape + (n_dim, n_members)
    if seed_vec is None:
        return rng.uniform(lo, hi, shape)
    seed = np.asarray(seed_vec, dtype=float)
    if seed.shape[-1] != n_dim:
        raise ValueError(f"seed vector dimension {seed.shape[-1]} != {n_dim}")
    pos = seed[..., None] + rng.standard_normal(shape)
    pos[..., 0] = seed
    return pos


def _best_member(members: np.ndarray, fits: np.ndarray):
    """Lowest-fitness column per batch entry (first index wins ties).

    Returns a fresh (..., dim) array and the fitness, a float when unbatched.
    """
    n_dim, n = members.shape[-2:]
    idx = np.argmin(fits, axis=-1).ravel()
    rows = np.arange(idx.size)
    best = members.reshape(-1, n_dim, n)[rows, :, idx].reshape(members.shape[:-1])
    best_fit = fits.reshape(-1, n)[rows, idx]
    if fits.ndim == 1:
        return best, float(best_fit[0])
    return best, best_fit.reshape(fits.shape[:-1])


def _finish(best, trace, bests: dict) -> HeuristicRun:
    """Complexify the final best vector and every checkpoint's in one call.

    `bests` maps checkpoint -> that step's best vector: a fresh array from
    _best_member, or the seed, which no step writes to.
    """
    estimates = complexify(np.stack(list(bests.values()) + [best]))
    return HeuristicRun(estimates[-1], np.stack(trace, axis=-1), dict(zip(bests, estimates)))


# ---------------------------------------------------------------------------
# PSO
# ---------------------------------------------------------------------------

def init_swarm(rng: RngStream, params: PsoParams, seed_vec: np.ndarray | None,
               sys: RealSystem) -> SwarmState:
    batch_shape = sys.h.shape[:-2]
    pos = initial_positions(rng, sys.dim, params.n_pop, seed_vec,
                            params.search_lo, params.search_hi, batch_shape)
    fit = fitness_columns(sys, pos)
    p_gb, gb_fit = _best_member(pos, fit)
    return SwarmState(
        positions=pos,
        velocities=np.zeros_like(pos),
        personal_best=pos.copy(),
        pb_fitness=fit,
        p_gb=p_gb,
        gb_fitness=gb_fit,
        w=params.w0,
    )


def _attraction(rng: RngStream, coef: float, best: np.ndarray, pos: np.ndarray,
                diff: np.ndarray) -> np.ndarray:
    """(coef U) o (best - pos) for a fresh uniform matrix U, with diff as scratch."""
    pull = rng.uniform(size=pos.shape)
    pull *= coef
    np.subtract(best, pos, out=diff)
    pull *= diff
    return pull


def pso_iterate(rng: RngStream, state: SwarmState, params: PsoParams,
                sys: RealSystem) -> SwarmState:
    """Advance the swarm one iteration in place."""
    pos, vel = state.positions, state.velocities
    # (w V + (c1 U1) o (M_pb - P)) + (c2 U2) o (M_gb - P), in exactly that
    # order, with V updated in place. Each term joins V as soon as its U is
    # drawn (no draw lies between U1 and U2, so the stream is unchanged),
    # so a step holds P, V and M_pb plus one difference and one pull array.
    # A 64-system run of 40 members peaks at about 5.7 member arrays under
    # tracemalloc, against 8.7 with both U drawn first and V in a fresh
    # array; CHANGES.md has the benchmark pairs.
    vel *= state.w
    diff = np.empty_like(pos)
    vel += _attraction(rng, params.c1, state.personal_best, pos, diff)
    vel += _attraction(rng, params.c2, state.p_gb[..., None], pos, diff)
    np.clip(vel, -params.v_max, params.v_max, out=vel)
    pos += vel
    # 9 flops per dimension for the velocity update, 1 for the position.
    charge(10 * vel.size)
    fit = fitness_columns(sys, pos)
    improved = fit < state.pb_fitness
    # Only 7-8% of PSO-MMSE members improve per step (sweep_cli): with this
    # sparse mask the masked copy is cheap, and a bit select was 1.065x slower.
    np.copyto(state.personal_best, pos, where=improved[..., None, :])
    np.copyto(state.pb_fitness, fit, where=improved)
    state.p_gb, state.gb_fitness = _best_member(state.personal_best, state.pb_fitness)
    state.iteration += 1
    state.w = params.w0 * INERTIA_DECAY ** state.iteration
    return state


# ---------------------------------------------------------------------------
# Differential evolution, strategy rand/1/bin
# ---------------------------------------------------------------------------

def _skip_taken(d: np.ndarray, *taken: np.ndarray) -> None:
    """Shift offsets d in place past the taken indices, given in ascending
    order, so that offset d becomes the d-th index not taken."""
    for t in taken:
        d += d >= t


def _mutation_indices(rng: RngStream, n_pop: int, batch_shape: tuple) -> np.ndarray:
    """Three distinct partner indices per individual k, all different from k.

    One integer x, uniform on [0, (n-1)(n-2)(n-3)) with n = n_pop, per
    individual decodes to offsets d0 = x mod (n-1), d1 = (x div (n-1))
    mod (n-2) and d2 = x div ((n-1)(n-2)). Partner j is the d_j-th index
    not yet taken: d_j shifted past k and the earlier partners, in
    ascending order. Each step maps its offset range one-to-one onto the
    indices still free, so x -> (r0, r1, r2) is a bijection onto the ordered
    triples of distinct indices other than k, and the triples stay exactly
    uniform. The returned array is (3,) + batch_shape + (n_pop,).
    """
    n = n_pop
    x = rng.integers(0, (n - 1) * (n - 2) * (n - 3), batch_shape + (n,))
    r = np.empty((3,) + x.shape, dtype=x.dtype)
    x, r[0] = np.divmod(x, n - 1)
    r[2], r[1] = np.divmod(x, n - 2)
    own = np.arange(n)
    _skip_taken(r[0], own)
    lo, hi = np.minimum(own, r[0]), np.maximum(own, r[0])
    _skip_taken(r[1], lo, hi)
    # sorted {k, r0, r1}: r1 differs from both, so it sits below, between or above
    low, high = np.minimum(lo, r[1]), np.maximum(hi, r[1])
    mid = lo + hi + r[1] - low - high
    _skip_taken(r[2], low, mid, high)
    return r


def _mutants(rng: RngStream, iota: np.ndarray, f_mut: float) -> np.ndarray:
    """Mutants iota_r1 + F_mut (iota_r2 - iota_r3) as rows, (..., n_pop, n_dim).

    The partners come from one gather each out of a row-major copy of the
    members, with each batch entry's indices offset to its own block of
    n_pop rows; the copy and the indices are freed on return.
    """
    n_dim, n_pop = iota.shape[-2:]
    batch_shape = iota.shape[:-2]
    r = _mutation_indices(rng, n_pop, batch_shape)
    rows = np.ascontiguousarray(np.swapaxes(iota, -1, -2)).reshape(-1, n_dim)
    r += (np.arange(rows.shape[0] // n_pop) * n_pop).reshape(batch_shape + (1,))
    mutant = np.take(rows, r[1], axis=0)
    mutant -= np.take(rows, r[2], axis=0)
    mutant *= f_mut
    mutant += np.take(rows, r[0], axis=0)
    return mutant


def de_trials(rng: RngStream, individuals: np.ndarray, params: DeParams) -> np.ndarray:
    """rand/1/bin trial vectors for every individual (mutation + crossover).

    Mutant k is iota_r1 + F_mut (iota_r2 - iota_r3) with r1, r2, r3 and k
    distinct; the trial takes the mutant's entry where a uniform draw is
    <= f_cr and at one forced dimension, and keeps iota_k elsewhere.
    """
    iota = np.asarray(individuals, dtype=np.float64)
    n_dim, n_pop = iota.shape[-2], iota.shape[-1]
    if n_pop < 4:
        raise ValueError("need at least 4 individuals for distinct mutation indices")
    batch_shape = iota.shape[:-2]
    # Crossover runs beside one mutant array: a 64-system run of 40 members
    # peaks at about 4.7 member arrays under tracemalloc, against 7.3 with
    # the row copy, the indices and all three gathered partners alive.
    mutants = np.swapaxes(_mutants(rng, iota, params.f_mut), -1, -2)
    take = rng.uniform(size=iota.shape) <= params.f_cr
    forced = rng.integers(0, n_dim, batch_shape + (n_pop,))
    take |= np.arange(n_dim)[:, None] == forced[..., None, :]
    # 3 flops per dimension for mutation, 3 for crossover bookkeeping;
    # matches the complexity model's per-generation convention.
    charge(6 * iota.size)
    # The mask is dense and unpredictable (f_cr 0.6-0.9 plus one forced
    # dimension), so np.where's per-entry branch mispredicts. The bit select
    # own ^ ((mutant ^ own) & mask), on the mask as 0/-1 bytes, has no branch
    # and gives the same bits: DE ops take about 0.9x the np.where time, and
    # an int64 mask or a contiguous mutant copy gained nothing more
    # (CHANGES.md). Built in place, the trial is its only new member array.
    mask = take.view(np.int8)
    np.negative(mask, out=mask)
    own = iota.view(np.int64)
    trial = np.bitwise_xor(mutants.view(np.int64), own, order="C")
    trial &= mask
    trial ^= own
    return trial.view(np.float64)


def de_selection(pop: PopulationState, trials: np.ndarray, sys: RealSystem) -> PopulationState:
    """Greedy selection; evaluates both incumbents and trials (2 n_pop evals)."""
    trials = np.asarray(trials)
    if trials.shape != pop.individuals.shape:
        raise ValueError("trial set must match the population shape")
    f_inc = fitness_columns(sys, pop.individuals)
    f_tri = fitness_columns(sys, trials)
    take = f_tri < f_inc
    # About 5% of trials win (hybrid_convergence), so this sparse mask
    # predicts well: a bit select here gained nothing over the crossover's.
    np.copyto(pop.individuals, trials, where=take[..., None, :])
    pop.fitness_cache = np.where(take, f_tri, f_inc)
    pop.p_gb, pop.gb_fitness = _best_member(pop.individuals, pop.fitness_cache)
    return pop


def init_population(rng: RngStream, params: DeParams, seed_vec: np.ndarray | None,
                    sys: RealSystem) -> PopulationState:
    batch_shape = sys.h.shape[:-2]
    pos = initial_positions(rng, sys.dim, params.n_pop, seed_vec,
                            params.search_lo, params.search_hi, batch_shape)
    fit = fitness_columns(sys, pos)
    return PopulationState(pos, fit, *_best_member(pos, fit))


def de_generation(rng: RngStream, pop: PopulationState, params: DeParams,
                  sys: RealSystem) -> PopulationState:
    """One mutation/crossover/selection cycle over the whole population."""
    return de_selection(pop, de_trials(rng, pop.individuals, params), sys)


# ---------------------------------------------------------------------------
# One run loop for both heuristics
# ---------------------------------------------------------------------------

def run_heuristic(rng: RngStream, sys: RealSystem, params: PsoParams | DeParams,
                  seed_vec: np.ndarray | None = None, checkpoints=()) -> HeuristicRun:
    """Full PSO or DE detection; optionally record estimates at checkpoints.

    PsoParams run the swarm, DeParams the population. Without seed_vec the
    members start uniform in the search box. With it they start around
    seed_vec (see initial_positions): that is the hybrid refinement of a
    linear detector's soft estimate. A system whose linear stage failed
    arrives with the zero vector as its seed and is refined the same way.
    A seeded run's checkpoint 0, and its whole output at a zero budget, is
    the seed itself, so demap_symbols gives exactly the linear decision.
    """
    # Looked up at call time, so a wrapper patched into this module applies.
    if isinstance(params, PsoParams):
        init, step = init_swarm, pso_iterate
    elif isinstance(params, DeParams):
        init, step = init_population, de_generation
    else:
        raise TypeError(f"expected PsoParams or DeParams, got {type(params).__name__}")
    wanted = set(checkpoints)
    if seed_vec is not None:
        seed_vec = np.asarray(seed_vec)
        if params.iters == 0:
            trace = [np.asarray(fitness_columns(sys, seed_vec[..., None])[..., 0])]
            return _finish(seed_vec, trace, {0: seed_vec} if 0 in wanted else {})
    state = init(rng, params, seed_vec, sys)
    trace = [np.asarray(state.gb_fitness)]
    start = state.p_gb if seed_vec is None else seed_vec
    bests = {0: start} if 0 in wanted else {}
    for it in range(1, params.iters + 1):
        step(rng, state, params, sys)
        trace.append(np.asarray(state.gb_fitness))
        if it in wanted:
            bests[it] = state.p_gb
    return _finish(state.p_gb, trace, bests)
