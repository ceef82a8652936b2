"""The benchmark's workloads: grid points, one op, and its output check.

Each op is one call into a public entry point of mimodet (``run_paired``,
``convergence_study`` or ``cli_main(["simulate", ...])``) at the paper
point: 4x4 antennas, 64 subcarriers, 4-QAM. An op covers one full
``BATCH_FRAMES`` batch of 16 frames (1024 symbol vectors) per detector and
grid point, with its own master seed. Ops cycle through the workload's
grid points in order.

This module imports only the standard library; the engine modules are
handed in by the caller, so that importing them is part of the measured
set-up and so that the tracer's patches are seen (every engine function
is looked up on its module at call time).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

VECTORS = 1024            # one BATCH_FRAMES batch: 16 frames x 64 subcarriers
BITS_PER_VECTOR = 8       # 4 antennas x 2 bits (4-QAM)
N_POP = 40                # population size the engine resolves by default

# Two-sided z for the bit-error comparison against the reference; with
# about a hundred comparisons per run a false alarm stays below 1e-4.
TOLERANCE_Z = 5.0


def derive_seed(seed: int, *parts) -> int:
    """Master seed of one op, a pure function of the workload seed."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def within_tolerance(errors: int, bits: int, ref_errors: int, ref_bits: int,
                     z: float = TOLERANCE_Z) -> bool:
    """Two-sample binomial test of a bit-error rate against the reference.

    Bits of one symbol vector err together, so the binomial variance is
    inflated by the bits per vector, the largest such design effect. The
    pooled rate carries one pseudo-error so that zero counts keep a width.
    """
    if bits <= 0:
        return False
    p = (errors + ref_errors + 1) / (bits + ref_bits + 2)
    se = math.sqrt(BITS_PER_VECTOR * p * (1 - p) * (1 / bits + 1 / ref_bits))
    return abs(errors / bits - ref_errors / ref_bits) <= z * se


def heuristic_evals(kind: str, iters: int) -> int:
    """Fitness evaluations per vector the closed-form accounting implies.

    PSO evaluates the swarm once at start and once per iteration,
    n_pop (I + 1); DE evaluates the population at start and both
    incumbents and trials per generation, n_ind (2 I + 1).
    """
    kind = kind.upper()
    if kind.startswith("PSO"):
        return N_POP * (iters + 1)
    if kind.startswith("DE"):
        return N_POP * (2 * iters + 1)
    return 0


@dataclass
class OpResult:
    decisions: int = 0                           # symbol vectors x detectors
    counts: dict = field(default_factory=dict)   # key -> [bit errors, bits]
    problem: str | None = None                   # why the op's check failed
    model_flops: float = 0.0
    fitness_evals: int = 0                       # predicted by heuristic_evals
    csv: str | None = None


@dataclass(frozen=True)
class Engine:
    """The engine modules, imported during the measured set-up."""

    sim: object
    cli: object
    cx: object


def _flops(eng: Engine, kind: str, iters: int) -> float:
    inp = eng.cx.FlopFormulaInput(4, 4, n_pop=N_POP, iters=max(iters, 1), m_order=4)
    return float(eng.cx.flops_detector(kind, inp))


def _check_count(res: OpResult, key: str, errors: int, bits: int, want_bits: int) -> None:
    if bits != want_bits or not 0 <= errors <= bits:
        res.problem = res.problem or f"{key}: {errors} errors in {bits} bits, want {want_bits} bits"
    res.counts[key] = [int(errors), int(bits)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    points: tuple
    # Span names predicted to run zero times on this workload.
    zero_calls: tuple = ()

    def prepare(self, eng: Engine, workdir: str):
        """Config construction; returns the op context."""
        return eng.sim.SimulationConfig(detectors=(eng.sim.DetectorConfig("mmse"),))

    def op(self, eng: Engine, ctx, point, master_seed: int, **kw) -> OpResult:
        raise NotImplementedError


@dataclass(frozen=True)
class PairedWorkload(Workload):
    """All detectors over identical trials at one (Eb/N0, rho) point."""

    detectors: tuple = ()     # (kind, iters or None)

    def prepare(self, eng, workdir):
        base = super().prepare(eng, workdir)
        dets = [eng.sim.DetectorConfig(kind, iters=iters) for kind, iters in self.detectors]
        return base, dets

    def op(self, eng, ctx, point, master_seed, **kw):
        base, dets = ctx
        ebn0, rho = point
        config = dataclasses.replace(base, master_seed=master_seed)
        paired = eng.sim.run_paired(config, dets, ebn0, rho, VECTORS)
        res = OpResult(decisions=paired.vectors * len(dets))
        if paired.vectors != VECTORS:
            res.problem = f"{paired.vectors} vectors, want {VECTORS}"
        for kind, iters in self.detectors:
            label = kind.upper()
            key = f"{label}|{ebn0!r}|{rho!r}"
            _check_count(res, key, paired.errors.get(label, -1), paired.nbits,
                         VECTORS * BITS_PER_VECTOR)
            res.model_flops += _flops(eng, label, iters or 0) * paired.vectors
            res.fitness_evals += heuristic_evals(label, iters or 0) * paired.vectors
        return res


@dataclass(frozen=True)
class ConvergenceWorkload(Workload):
    """One hybrid's iteration scan through ``convergence_study``."""

    ebn0: float = 16.0
    max_iters: int = 25

    def op(self, eng, ctx, point, master_seed, **kw):
        kind, rho = point
        config = dataclasses.replace(ctx, master_seed=master_seed)
        study = eng.sim.convergence_study(config, eng.sim.DetectorConfig(kind), [self.ebn0],
                                          self.max_iters, rho=rho, n_vectors=VECTORS)
        label = kind.upper()
        res = OpResult(decisions=VECTORS)
        iterations = [r.iteration for r in study.rows]
        if iterations != list(range(self.max_iters + 1)):
            res.problem = f"checkpoints {iterations}"
        for r in study.rows:
            if r.trials != VECTORS or r.detector != label:
                res.problem = res.problem or f"row {r}"
            _check_count(res, f"{label}|{rho!r}|{r.iteration}", r.bit_errors, study.nbits,
                         VECTORS * BITS_PER_VECTOR)
        res.model_flops = _flops(eng, label, self.max_iters) * VECTORS
        res.fitness_evals = heuristic_evals(label, self.max_iters) * VECTORS
        return res


@dataclass(frozen=True)
class SweepWorkload(Workload):
    """A BER sweep through the command line, config file to CSV."""

    config: dict = field(default_factory=dict)
    hybrid_iters: int = 15    # the engine's default budget for hybrids

    def prepare(self, eng, workdir):
        path = os.path.join(workdir, "sweep.json")
        with open(path, "w") as fh:
            json.dump(self.config, fh)
        return path, os.path.join(workdir, "sweep.csv")

    def op(self, eng, ctx, point, master_seed, workers=1, **kw):
        config_path, out_path = ctx
        rc = eng.cli.cli_main(["simulate", "--config", config_path, "--seed", str(master_seed),
                               "--workers", str(workers), "--out", out_path])
        if rc != 0:
            return OpResult(problem=f"exit code {rc}")
        with open(out_path) as fh:
            text = fh.read()
        return self.check_csv(text)

    def check_csv(self, text: str) -> OpResult:
        cfg = self.config
        res = OpResult(csv=text)
        rows = list(csv.DictReader(io.StringIO(
            "".join(line for line in text.splitlines(True) if not line.startswith("#")))))
        want = [(d["kind"].upper(), e, r) for d in cfg["detectors"]
                for e in cfg["ebn0_db_list"] for r in cfg["rho_list"]]
        got = [(row["detector"], float(row["ebn0_db"]), float(row["rho"])) for row in rows]
        if got != want:
            res.problem = f"records {got}, want {want}"
            return res
        for row, (label, ebn0, rho) in zip(rows, want):
            trials, errors = int(row["trials"]), int(row["bit_errors"])
            stopped_early = trials < cfg["max_trials"]
            if trials % VECTORS or trials > cfg["max_trials"] or trials == 0:
                res.problem = res.problem or f"{label} {ebn0} {rho}: {trials} trials"
            elif stopped_early and errors < cfg["target_bit_errors"]:
                res.problem = res.problem or f"{label} {ebn0} {rho}: stopped at {errors} errors"
            _check_count(res, f"{label}|{ebn0!r}|{rho!r}", errors, trials * BITS_PER_VECTOR,
                         trials * BITS_PER_VECTOR)
            iters = self.hybrid_iters if "-" in label else 0
            res.decisions += trials
            res.model_flops += float(row["flops_per_subcarrier"]) * trials
            res.fitness_evals += heuristic_evals(label, iters) * trials
        return res


LINEAR = PairedWorkload(
    name="linear_ml_sweep",
    why="MF/ZF/MMSE/ML paired over 4 Eb/N0 x 3 rho: the per-subcarrier LU/gecon loop and "
        "the ML search do nearly all the work, the heuristics none",
    points=tuple((e, r) for e in (0.0, 8.0, 16.0, 24.0) for r in (0.0, 0.5, 0.9)),
    zero_calls=("heuristics.init", "heuristics.pso_iterate", "heuristics.de_generation",
                "heuristics.hard_decision", "realdomain.fitness_columns"),
    detectors=(("mf", None), ("zf", None), ("mmse", None), ("ml", None)),
)

HEURISTIC = PairedWorkload(
    name="heuristic_search",
    why="PSO and DE, uniform init, 50 iterations at 16 dB: swarm/population updates, RNG and "
        "fitness dominate, linalg never runs. Stands in for Tier-1, whose 7-10 min can't run 22x",
    points=((16.0, 0.0), (16.0, 0.9)),
    zero_calls=("linalg.invert_lu",),
    detectors=(("pso", 50), ("de", 50)),
)

HYBRID = ConvergenceWorkload(
    name="hybrid_convergence",
    why="PSO/DE-MF/MMSE scans to 25 iterations at 16 dB: linear seed, short heuristic "
        "budgets, 26 hard decisions and demaps per frame; stands in for Tier-1, whose 7-10 min "
        "can't run 22x",
    points=tuple((k, r) for k in ("pso-mf", "pso-mmse", "de-mf", "de-mmse") for r in (0.0, 0.5)),
)

SWEEP = SweepWorkload(
    name="sweep_cli",
    why="mimodet simulate on MMSE and PSO-MMSE, 8/16 dB x rho 0/0.9, early stop: config load, "
        "run_sweep and CSV writing; the traced run adds the process-pool sweep",
    points=(None,),
    config={
        "n_t": 4, "n_r": 4, "n_subcarriers": 64, "m_order": 4,
        "rho_list": [0.0, 0.9], "ebn0_db_list": [8.0, 16.0],
        # rho 0.9 points pass 400 errors in their first batch and stop
        # early; rho 0 points stay far below it and run both batches.
        "max_trials": 2 * VECTORS, "target_bit_errors": 400,
        "master_seed": 1,
        "detectors": [{"kind": "mmse"}, {"kind": "pso-mmse"}],
    },
)

# The workloads BENCHMARK.json lists, in its order.
WORKLOADS = {w.name: w for w in (LINEAR, HYBRID, SWEEP)}

# Runnable and checked like the others, but not in BENCHMARK.json: the
# benchmark's time limit leaves room for three workloads at a steady run
# length, and hybrid_convergence runs the same swarm and population code.
# It keeps PSO and DE from uniform initialisation measurable.
EXTRA_WORKLOADS = {w.name: w for w in (HEURISTIC,)}
ALL_WORKLOADS = {**WORKLOADS, **EXTRA_WORKLOADS}
