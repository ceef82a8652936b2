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
fitness improvement. Both the current individuals and the trial vectors
are evaluated every generation (2 n_ind evaluations), which is the
accounting the complexity model charges.

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
linear detector's decision. An estimate equidistant from several points
goes to the first of them in `Constellation.points`.

All state arrays accept an optional leading batch axis; the Monte Carlo
engine batches every subcarrier of an OFDM frame through one state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexity import FlopCounter, charge
from .realdomain import RealSystem, complexify, fitness, fitness_columns
from .rng import RngStream

INERTIA_DECAY = 0.99


@dataclass(frozen=True)
class PsoParams:
    c1: float
    c2: float
    w0: float
    n_pop: int = 40
    n_iter: int = 50
    v_max: float = 2.0
    search_lo: float = -1.0
    search_hi: float = 1.0

    def __post_init__(self):
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("c1 and c2 must be >= 0")
        if self.n_pop < 2:
            raise ValueError("n_pop must be >= 2")
        if self.n_iter < 0:
            raise ValueError("n_iter must be >= 0")
        if not self.v_max > 0:
            raise ValueError("v_max must be positive")
        if not self.search_lo < self.search_hi:
            raise ValueError("search_lo must be below search_hi")


@dataclass(frozen=True)
class DeParams:
    f_mut: float
    f_cr: float
    n_ind: int = 40
    n_gen: int = 50
    search_lo: float = -1.0
    search_hi: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.f_mut <= 2.0:
            raise ValueError("f_mut must be in [0, 2]")
        if not 0.0 <= self.f_cr <= 1.0:
            raise ValueError("f_cr must be in [0, 1]")
        if self.n_ind < 4:
            raise ValueError("n_ind must be >= 4 (mutation draws three distinct partners)")
        if self.n_gen < 0:
            raise ValueError("n_gen must be >= 0")


@dataclass
class SwarmState:
    positions: np.ndarray      # (..., dim, n_pop)
    velocities: np.ndarray     # (..., dim, n_pop)
    personal_best: np.ndarray  # (..., dim, n_pop)
    pb_fitness: np.ndarray     # (..., n_pop)
    p_gb: np.ndarray           # (..., dim)
    gb_fitness: np.ndarray | float
    w: float
    w0: float
    iteration: int = 0


@dataclass
class PopulationState:
    individuals: np.ndarray    # (..., dim, n_ind)
    fitness_cache: np.ndarray  # (..., n_ind)
    generation: int = 0


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

    `bests` maps checkpoint -> that step's best vector; each is a fresh
    array from _best_member, so no later step overwrites it.
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
        w0=params.w0,
    )


def pso_iterate(rng: RngStream, state: SwarmState, params: PsoParams,
                sys: RealSystem, uniforms=None) -> SwarmState:
    """Advance the swarm one iteration in place.

    `uniforms` is a test hook overriding the U1, U2 draws; leave it None in
    real runs so both matrices come from the stream.
    """
    shape = state.positions.shape
    if uniforms is None:
        u1 = rng.uniform(size=shape)
        u2 = rng.uniform(size=shape)
    else:
        u1, u2 = (np.broadcast_to(u, shape) for u in uniforms)
    pos = state.positions
    # (w V + (c1 U1) o (M_pb - P)) + (c2 U2) o (M_gb - P), in exactly that
    # order, through two scratch arrays. V gets a fresh array: with every
    # large array updated in place, glibc's malloc handed the temporaries
    # back to the OS after each iteration and page faults tripled.
    pull = np.multiply(params.c1, u1)
    diff = np.subtract(state.personal_best, pos)
    pull *= diff
    vel = np.multiply(state.w, state.velocities)
    vel += pull
    np.multiply(params.c2, u2, out=pull)
    np.subtract(state.p_gb[..., None], pos, out=diff)
    pull *= diff
    vel += pull
    np.clip(vel, -params.v_max, params.v_max, out=vel)
    state.velocities = vel
    pos += vel
    # 9 flops per dimension for the velocity update, 1 for the position.
    charge(FlopCounter.add, 10 * vel.size)
    fit = fitness_columns(sys, pos)
    improved = fit < state.pb_fitness
    np.copyto(state.personal_best, pos, where=improved[..., None, :])
    np.copyto(state.pb_fitness, fit, where=improved)
    state.p_gb, state.gb_fitness = _best_member(state.personal_best, state.pb_fitness)
    state.iteration += 1
    state.w = state.w0 * INERTIA_DECAY ** state.iteration
    return state


def run_swarm(rng: RngStream, sys: RealSystem, params: PsoParams,
              seed_vec: np.ndarray | None, checkpoints=()) -> HeuristicRun:
    """Full PSO detection; optionally record estimates at checkpoints."""
    state = init_swarm(rng, params, seed_vec, sys)
    trace = [np.asarray(state.gb_fitness)]
    wanted = set(checkpoints)
    bests = {0: state.p_gb} if 0 in wanted else {}
    for it in range(1, params.n_iter + 1):
        pso_iterate(rng, state, params, sys)
        trace.append(np.asarray(state.gb_fitness))
        if it in wanted:
            bests[it] = state.p_gb
    return _finish(state.p_gb, trace, bests)


# ---------------------------------------------------------------------------
# Differential evolution, strategy rand/1/bin
# ---------------------------------------------------------------------------

def _mutation_indices(rng: RngStream, n_ind: int, batch_shape: tuple) -> np.ndarray:
    """Three distinct partner indices per individual, all different from it.

    Rejection sampling: every invalid triple is redrawn whole, keeping the
    marginals uniform over the valid set. Each round draws a full-shape
    array (that fixes the stream's draw order) but only the triples being
    redrawn are taken from it and rechecked.
    """
    r = rng.integers(0, n_ind, (3,) + batch_shape + (n_ind,))
    at = np.nonzero(_invalid_triples(r, np.arange(n_ind)))
    while at[0].size:
        sel = (slice(None),) + at
        r[sel] = rng.integers(0, n_ind, r.shape)[sel]
        still = np.nonzero(_invalid_triples(r[sel], at[-1]))
        at = tuple(a[still] for a in at)
    return r


def _invalid_triples(r: np.ndarray, own) -> np.ndarray:
    """True where partners r[0], r[1], r[2] repeat or include the individual."""
    return ((r[0] == r[1]) | (r[0] == r[2]) | (r[1] == r[2])
            | (r[0] == own) | (r[1] == own) | (r[2] == own))


def de_trials(rng: RngStream, individuals: np.ndarray, params: DeParams) -> np.ndarray:
    """rand/1/bin trial vectors for every individual (mutation + crossover).

    Mutant k is iota_r1 + F_mut (iota_r2 - iota_r3) with r1, r2, r3 and k
    distinct; the trial takes the mutant's entry where a uniform draw is
    <= f_cr and at one forced dimension, and keeps iota_k elsewhere.
    """
    iota = individuals
    n_dim, n_ind = iota.shape[-2], iota.shape[-1]
    if n_ind < 4:
        raise ValueError("need at least 4 individuals for distinct mutation indices")
    batch_shape = iota.shape[:-2]
    r = _mutation_indices(rng, n_ind, batch_shape)
    # One gather for all three partners: members as rows, with each batch
    # entry's indices offset to its own block of n_ind rows.
    rows = np.ascontiguousarray(np.swapaxes(iota, -1, -2)).reshape(-1, n_dim)
    offsets = (np.arange(rows.shape[0] // n_ind) * n_ind).reshape(batch_shape + (1,))
    g = np.take(rows, r + offsets, axis=0)                  # (3, ..., n_ind, n_dim)
    # The mutants are built inside g: fresh temporaries here let glibc trim
    # the heap between generations, which costs page faults on every one.
    np.subtract(g[1], g[2], out=g[1])
    g[1] *= params.f_mut
    g[0] += g[1]
    mutants = np.swapaxes(g[0], -1, -2)
    take = rng.uniform(size=iota.shape) <= params.f_cr
    forced = rng.integers(0, n_dim, batch_shape + (n_ind,))
    take |= np.arange(n_dim)[:, None] == forced[..., None, :]
    # 3 flops per dimension for mutation, 3 for crossover bookkeeping;
    # matches the complexity model's per-generation convention.
    charge(FlopCounter.add, 6 * iota.size)
    return np.where(take, mutants, iota)


def de_selection(pop: PopulationState, trials: np.ndarray, sys: RealSystem) -> PopulationState:
    """Greedy selection; evaluates both incumbents and trials (2 n_ind evals)."""
    trials = np.asarray(trials)
    if trials.shape != pop.individuals.shape:
        raise ValueError("trial set must match the population shape")
    f_inc = fitness_columns(sys, pop.individuals)
    f_tri = fitness_columns(sys, trials)
    take = f_tri < f_inc
    np.copyto(pop.individuals, trials, where=take[..., None, :])
    pop.fitness_cache = np.where(take, f_tri, f_inc)
    pop.generation += 1
    return pop


def init_population(rng: RngStream, params: DeParams, seed_vec: np.ndarray | None,
                    sys: RealSystem) -> PopulationState:
    batch_shape = sys.h.shape[:-2]
    pos = initial_positions(rng, sys.dim, params.n_ind, seed_vec,
                            params.search_lo, params.search_hi, batch_shape)
    return PopulationState(pos, fitness_columns(sys, pos))


def de_generation(rng: RngStream, pop: PopulationState, params: DeParams,
                  sys: RealSystem) -> PopulationState:
    """One mutation/crossover/selection cycle over the whole population."""
    return de_selection(pop, de_trials(rng, pop.individuals, params), sys)


def run_population(rng: RngStream, sys: RealSystem, params: DeParams,
                   seed_vec: np.ndarray | None, checkpoints=()) -> HeuristicRun:
    """Full DE detection; optionally record estimates at checkpoints."""
    pop = init_population(rng, params, seed_vec, sys)
    best, best_fit = _best_member(pop.individuals, pop.fitness_cache)
    trace = [np.asarray(best_fit)]
    wanted = set(checkpoints)
    bests = {0: best} if 0 in wanted else {}
    for gen in range(1, params.n_gen + 1):
        de_generation(rng, pop, params, sys)
        best, best_fit = _best_member(pop.individuals, pop.fitness_cache)
        trace.append(np.asarray(best_fit))
        if gen in wanted:
            bests[gen] = best
    return _finish(best, trace, bests)


# ---------------------------------------------------------------------------
# Hybrid linear-heuristic detectors
# ---------------------------------------------------------------------------

def run_hybrid(rng: RngStream, sys: RealSystem, seed_vec: np.ndarray,
               params: PsoParams | DeParams, checkpoints=()) -> HeuristicRun:
    """Heuristic refinement around a linear detector's soft estimate.

    PsoParams run the swarm, DeParams the population, both seeded with
    seed_vec (see initial_positions). A system whose linear stage failed
    arrives with the zero vector as its seed and is refined the same way.
    Checkpoint 0 and the zero-budget output are the seed itself, the linear
    detector's soft estimate, so demap_symbols gives exactly its decision.
    """
    if isinstance(params, PsoParams):
        budget, runner = params.n_iter, run_swarm
    elif isinstance(params, DeParams):
        budget, runner = params.n_gen, run_population
    else:
        raise TypeError(f"expected PsoParams or DeParams, got {type(params).__name__}")
    seed_vec = np.asarray(seed_vec)
    seed_estimate = complexify(seed_vec)
    if budget == 0:
        trace = np.asarray(fitness(sys, seed_vec))[..., None]
        marks = {0: seed_estimate} if 0 in set(checkpoints) else {}
        return HeuristicRun(seed_estimate, trace, marks)
    run = runner(rng, sys, params, seed_vec, checkpoints)
    if 0 in run.checkpoint_estimates:
        run.checkpoint_estimates[0] = seed_estimate
    return run
