"""Monte Carlo BER engine, its entry points and result writers.

One trial is one transmitted symbol vector (one subcarrier). Trials are
grouped into frames: a frame draws a fresh channel realization, maps
random bits onto all subcarriers, pushes them through y = H x + z and
hands the batch to a detector.

Reproducibility contract: every random draw comes from a substream keyed
by value, never by execution order:

    channel/bits/noise: (master_seed, "trial", ebn0_key, rho_key, frame)
    detector internals: (master_seed, "det", label, ebn0_key, rho_key, frame)

The trial stream deliberately excludes the detector, so every detector at
a given operating point sees identical channels, bits and noise. That
makes cross-detector BER comparisons paired, which is how the ordering
and refinement experiments get their statistical power. It also lets all
detectors of a point share one frame loop: a batch of BATCH_FRAMES frames
is cut into one task per worker (_simulate_frames). Every system's result
depends on that system alone, and results are reduced by summation over
frames, so totals do not depend on worker count or scheduling.

The config schema and its checks are in config.py, the process's BLAS and
heap policy in runtime.py.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from . import complexity
from .channel import CorrelationSpec, add_awgn, generate_channel
from .complexity import DETECTORS
from .config import (CalibrationPlan, ConfigError, DetectorConfig, ResolvedDetector,
                     SimulationConfig, _inf_as_text, check_operating_point, resolve_detector)
from .detectors import apply_equalizer, linear_stage, ml_detect
from .heuristics import run_heuristic
from .ofdm import Constellation, demap_symbols, map_bits, noise_variance, square_qam
from .realdomain import realify, realify_vec
from .rng import RngStream
from .runtime import _pin_worker, _runtime_policy

log = logging.getLogger(__name__)

# Frames are always simulated in full batches of this many, and stopping
# rules are applied only on batch boundaries; that keeps outputs identical
# for any worker count.
BATCH_FRAMES = 16

SEQUENTIAL_STOP_NOTE = (
    "points stopped at target_bit_errors use a sequential rule; the BER "
    "estimate carries the standard sequential-test bias caveat"
)


@dataclass(frozen=True)
class BerRecord:
    detector: str
    ebn0_db: float
    rho: float
    trials: int            # symbol vectors simulated
    bit_errors: int
    ber: float
    ci95_halfwidth: float
    mean_iterations: float
    flops_per_subcarrier: float


# BerRecord's fields, with ci95_halfwidth written as ci95.
CSV_COLUMNS = ("detector", "ebn0_db", "rho", "trials", "bit_errors", "ber",
               "ci95", "mean_iterations", "flops_per_subcarrier")


def binomial_ci95_halfwidth(errors: int, n: int) -> float:
    if n == 0:
        return 0.0
    p = errors / n
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _ebkey(ebn0_db: float) -> int:
    ebn0_db = float(ebn0_db)
    if ebn0_db == math.inf:  # noiseless operating point
        return 1 << 62
    return int(round(ebn0_db * 1000.0))


def _rhokey(rho: float) -> int:
    return int(round(float(rho) * 10000.0))


def _draw_task(config: SimulationConfig, const: Constellation,
               ebn0_db: float, rho: float, frames: range):
    """Bits, channel stack, received grid and noise variance of a task's
    frames, stacked on the system axis (detector-neutral).

    Each frame draws on its own trial substream, in the order bits,
    channel normals, noise normals (none at Eb/N0 = +inf); the stack is
    then built once, so it equals the frames' separate draws concatenated.
    """
    n_sc = config.n_subcarriers
    point_key = (_ebkey(ebn0_db), _rhokey(rho))
    trial = [RngStream(config.master_seed).substream("trial", *point_key, frame)
             for frame in frames]
    bits = np.concatenate([rng.integers(0, 2, n_sc * config.bits_per_vector) for rng in trial])
    spec = CorrelationSpec(rho=rho, n_antennas=config.n_t)
    hs = generate_channel(trial, spec, n_sc)  # (n_sys, n_r, n_t)
    clean = np.einsum("nrt,tn->nr", hs, map_bits(bits, config.n_t, const))
    sigma2 = noise_variance(ebn0_db, config.m_order)
    return bits, hs, add_awgn(trial, clean, sigma2), sigma2


def _detect_frame(res: ResolvedDetector, config: SimulationConfig,
                  const: Constellation, hs, ys, det_rng: RngStream | None,
                  checkpoints, soft):
    """Estimates of one detector for a stack of systems: a task's stacked
    frames for the bare linear detectors and ML, one frame for PSO, DE
    and the hybrids.

    Returns (grids dict, trace or None). The grids dict maps checkpoint ->
    (n_sys, n_t) grid, which demap_symbols slices; key None is the final
    output. Only the heuristics have a fitness trace. `soft` is the
    stack's soft estimates of the detector's linear kind, from the task's
    one linear stage, or None for a detector without one; the caller
    erases what that stage lost. `config` is unused, but perfbench's
    tracer tags spans by position, from `res` and `hs`.
    """
    if DETECTORS[res.kind].heuristic is None:
        return {None: ml_detect(hs, ys, const) if soft is None else soft}, None
    # a lost seed is the zero vector, since its W rows are zero, and the
    # heuristic decides every vector, lost seeds included
    seed = realify_vec(soft) if soft is not None else None
    run = run_heuristic(det_rng, realify(hs, ys), res.params, seed, checkpoints)
    return run.estimates, run.trace


def _error_masks(grids, const: Constellation, tx_bits, bits_per_vector: int,
                 erased) -> np.ndarray:
    """Per-bit error masks, one row per estimate grid, from one demap.

    `erased[i]` is grid i's mask of erased vectors (or None); an erasure
    counts every bit of its vector.
    """
    rx_bits = demap_symbols(np.stack(grids), const).reshape(len(grids), -1)
    errors = rx_bits != tx_bits
    for row, failed in zip(errors, erased):
        if failed is not None and failed.any():
            row.reshape(-1, bits_per_vector)[failed] = True
    return errors


@dataclass
class FrameBatchResult:
    """Sums over frames. Detectors are keyed by their position in the
    caller's list, since two entries may share a kind and a label."""

    vectors: Counter = field(default_factory=Counter)  # position -> symbol vectors
    errors: Counter = field(default_factory=Counter)   # (position, checkpoint) -> bit errors
    discordance: dict = field(default_factory=dict)    # (col_a, col_b) -> [a_only, b_only]
    trace: np.ndarray | None = None                    # frame 0's, if run here

    def merge(self, other: "FrameBatchResult") -> None:
        self.vectors.update(other.vectors)
        self.errors.update(other.errors)
        for key, (a_only, b_only) in other.discordance.items():
            acc = self.discordance.setdefault(key, [0, 0])
            acc[0] += a_only
            acc[1] += b_only
        if self.trace is None:
            self.trace = other.trace


def _simulate_frames(config: SimulationConfig, detectors, ebn0_db: float,
                     rho: float, frame_lo: int, frame_hi: int,
                     checkpoints=(), pairs=()) -> FrameBatchResult:
    """Simulate frames [frame_lo, frame_hi) for all detectors at one point.

    `detectors` lists (position, ResolvedDetector) pairs. `pairs` lists
    ((position, checkpoint), (position, checkpoint)) column pairs whose
    bitwise error discordance should be accumulated.

    The task's frames are built as one stack on the system axis
    (_draw_task), bit for bit the frames built one at a time. One linear
    stage (detectors.linear_stage) computes every linear kind the active
    detectors need, MF, ZF and MMSE together; the bare linear detectors,
    ML and one demap of their outputs then run once over the whole stack.
    PSO, DE and the hybrids run frame by frame, each frame on its own
    detector substream and its slice of the linear seed, with one demap
    of that frame's grids. The flop ledger still charges each linear kind
    its own model count. Every system's result depends on that system
    alone, so no count depends on how frames are grouped into calls.
    """
    const = square_qam(config.m_order)
    det_root = RngStream(config.master_seed).substream("det")
    point_key = (_ebkey(ebn0_db), _rhokey(rho))
    n_sc = config.n_subcarriers
    nbits = n_sc * config.bits_per_vector
    frames = range(frame_lo, frame_hi)
    bits, hs, ys, sigma2 = _draw_task(config, const, ebn0_db, rho, frames)
    kinds = {DETECTORS[res.kind].linear for _, res in detectors} - {None}
    linear = {kind: (apply_equalizer(w, ys), failed)
              for kind, (w, failed) in linear_stage(kinds, hs, sigma2).items()}
    out = FrameBatchResult()
    masks = {key: [] for pair in pairs for key in pair}  # column -> error masks, frame order

    def count(columns, tx_bits):
        """Demap (column, grid, erased) triples in one call and add up their errors."""
        if not columns:
            return
        keys, grids, erased = zip(*columns)
        errors = _error_masks(grids, const, tx_bits, config.bits_per_vector, erased)
        for key, row in zip(keys, errors):
            out.errors[key] += int(row.sum())
            if key in masks:
                masks[key].append(row)

    stacked = []
    for i, res in detectors:
        if DETECTORS[res.kind].heuristic is None:
            soft, failed = linear.get(DETECTORS[res.kind].linear, (None, None))
            det_grids, _ = _detect_frame(res, config, const, hs, ys, None, checkpoints, soft)
            stacked += [((i, None), det_grids[None], failed)]
    count(stacked, bits)
    searched = [(i, res) for i, res in detectors if DETECTORS[res.kind].heuristic]
    for f, frame in enumerate(frames):
        rows = slice(f * n_sc, (f + 1) * n_sc)
        frame_columns = []
        for i, res in searched:
            kind = DETECTORS[res.kind].linear
            seed = None
            if kind is not None:
                seed, lost = linear[kind][0][rows], linear[kind][1][rows]
                if lost.any():
                    log.warning("%s: %d subcarriers lost their linear seed "
                                "(Eb/N0 %r dB, rho %r, frame %d)", res.label,
                                int(lost.sum()), ebn0_db, rho, frame)
            det_rng = det_root.substream(res.label, *point_key, frame)
            det_grids, trace = _detect_frame(
                res, config, const, hs[rows], ys[rows], det_rng, checkpoints, seed)
            frame_columns += [((i, cp), grid, None) for cp, grid in det_grids.items()]
            if frame == 0 and out.trace is None:
                out.trace = trace
        count(frame_columns, bits[f * nbits:(f + 1) * nbits])
    for pair in pairs:
        a, b = (np.concatenate(masks[key]) for key in pair)
        out.discordance[pair] = [int(np.sum(a & ~b)), int(np.sum(b & ~a))]
    for i, _ in detectors:
        out.vectors[i] = len(frames) * n_sc
    return out


def __getattr__(name: str):
    """Import ProcessPoolExecutor on first access (PEP 562), so a process
    that never starts a pool never loads concurrent.futures.process and
    multiprocessing. _worker_map reads it through the module, so a class
    set on the module in its place is the one a pool is made from."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@contextlib.contextmanager
def _worker_map(workers: int):
    """Yield a map over one pool of `workers` processes, kept for the whole
    block; one worker maps in this process and starts no pool. Both run
    under the engine's runtime policy (_runtime_policy)."""
    with _runtime_policy():
        if workers == 1:
            yield map
        else:
            pool = getattr(sys.modules[__name__], "ProcessPoolExecutor")
            with pool(max_workers=workers, initializer=_pin_worker) as executor:
                yield executor.map


def _run_batches(config: SimulationConfig, detectors, ebn0_db, rho, n_vectors: int,
                 workers: int, run, checkpoints=(), pairs=(),
                 stop_errors: int | None = None):
    """Run the DetectorConfigs `detectors` at one point over n_vectors symbol
    vectors, rounded up to whole frames; returns (resolved, merged sums).

    The point is checked and each detector bound to it before any frame
    runs; results are keyed by position in `detectors`. Each fixed batch
    is cut into one frame range per worker and handed to `run`, the map
    of a _worker_map block. With `stop_errors`, a detector leaves once its
    final-output errors reach it; the check happens only between complete
    batches, so results are identical for any worker count.
    """
    check_operating_point(ebn0_db, rho, config.m_order)
    resolved = [resolve_detector(d, rho) for d in detectors]
    total_frames = math.ceil(n_vectors / config.n_subcarriers)
    if total_frames < 1:
        raise ConfigError("need at least one symbol vector per point")
    merged = FrameBatchResult()
    active = tuple(enumerate(resolved))
    frame = 0
    while active and frame < total_frames:
        hi = min(frame + BATCH_FRAMES, total_frames)
        step = math.ceil((hi - frame) / workers)
        tasks = [(config, active, ebn0_db, rho, lo, min(lo + step, hi),
                  checkpoints, pairs) for lo in range(frame, hi, step)]
        for chunk in run(_simulate_frames, *zip(*tasks)):
            merged.merge(chunk)
        frame = hi
        if stop_errors is not None:
            active = tuple((i, res) for i, res in active
                           if merged.errors[(i, None)] < stop_errors)
    return resolved, merged


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def _ber_records(config: SimulationConfig, detectors, ebn0_db: float, rho: float,
                 workers: int, run) -> list[BerRecord]:
    """One record per detector at one operating point, all on one frame loop;
    each detector stops on its own at max_trials symbol vectors or
    target_bit_errors bit errors (checked on batch boundaries)."""
    resolved, merged = _run_batches(config, detectors, ebn0_db, rho, config.max_trials,
                                    workers=workers, run=run,
                                    stop_errors=config.target_bit_errors)
    records = []
    for i, res in enumerate(resolved):
        errors = merged.errors[(i, None)]
        nbits = merged.vectors[i] * config.bits_per_vector
        records.append(BerRecord(
            detector=res.label, ebn0_db=float(ebn0_db), rho=float(rho),
            trials=merged.vectors[i], bit_errors=errors, ber=errors / nbits,
            ci95_halfwidth=binomial_ci95_halfwidth(errors, nbits),
            mean_iterations=float(res.iterations),
            flops_per_subcarrier=float(complexity.flops_detector(
                res.label, complexity.FlopFormulaInput(
                    n_t=config.n_t, n_r=config.n_r, n_pop=getattr(res.params, "n_pop", 1),
                    iters=res.iterations, m_order=config.m_order))),
        ))
    return records


def run_ber_point(config: SimulationConfig, detector: DetectorConfig,
                  ebn0_db: float, rho: float, workers: int = 1) -> BerRecord:
    """Measure one (detector, Eb/N0, rho) operating point: a one-point run_sweep.

    Stops after max_trials symbol vectors or target_bit_errors bit errors,
    whichever comes first (checked on batch boundaries).
    """
    point = replace(config, detectors=(detector,), ebn0_db_list=(ebn0_db,), rho_list=(rho,))
    return run_sweep(point, workers)[0]


def run_sweep(config: SimulationConfig, workers: int = 1) -> list[BerRecord]:
    """Cartesian sweep over detectors x Eb/N0 x rho; one record per triple,
    detector-major. All detectors of a point share one frame loop, and one
    worker pool serves the whole sweep."""
    with _worker_map(workers) as run:
        points = [_ber_records(config, config.detectors, ebn0, rho, workers, run)
                  for ebn0 in config.ebn0_db_list for rho in config.rho_list]
    return [records[i] for i in range(len(config.detectors)) for records in points]


@dataclass
class PairedResult:
    """Error totals for several detectors over identical trials."""

    labels: list
    vectors: int
    nbits: int
    errors: dict          # label -> bit errors (final outputs)
    discordance: dict     # (label_a, label_b) -> [a_wrong_b_right, b_wrong_a_right]

    def ber(self, label: str) -> float:
        return self.errors[label] / self.nbits


def run_paired(config: SimulationConfig, detectors, ebn0_db: float, rho: float,
               n_vectors: int, pairs=(), workers: int = 1) -> PairedResult:
    """Run several detectors over the same n_vectors trials (no early stop).

    Trials run in whole frames: n_vectors rounds up to
    ceil(n_vectors / n_subcarriers) frames.
    """
    labels = [d.label for d in detectors]
    if not labels:
        raise ConfigError("paired runs need at least one detector")
    position = {label: i for i, label in enumerate(labels)}
    if len(position) != len(labels):
        raise ConfigError("paired runs need distinct detector labels")
    unknown = sorted({label for pair in pairs for label in pair} - position.keys())
    if unknown:
        raise ConfigError(f"pairs name detectors not in the run: {unknown}")
    col_pairs = tuple(((position[a], None), (position[b], None)) for a, b in pairs)
    with _worker_map(workers) as run:
        _, merged = _run_batches(config, detectors, ebn0_db, rho, n_vectors,
                                 pairs=col_pairs, workers=workers, run=run)
    return PairedResult(
        labels=labels, vectors=merged.vectors[0],
        nbits=merged.vectors[0] * config.bits_per_vector,
        errors={lab: merged.errors[(i, None)] for i, lab in enumerate(labels)},
        discordance={pair: tuple(merged.discordance[cols])
                     for pair, cols in zip(pairs, col_pairs)},
    )


@dataclass
class ConvergenceRecord:
    detector: str
    ebn0_db: float
    rho: float
    iteration: int
    trials: int
    bit_errors: int
    ber: float


@dataclass
class ConvergenceStudy:
    rows: list
    nbits: int
    discordance: dict     # (ebn0, iter_a, iter_b) -> (a_only, b_only)
    trace: np.ndarray     # (n_sc, max_iters + 1) best fitness, first Eb/N0's frame 0


def convergence_study(config: SimulationConfig, detector: DetectorConfig,
                      ebn0_list, max_iters: int, rho: float = 0.0,
                      n_vectors: int | None = None, iteration_pairs=(),
                      workers: int = 1) -> ConvergenceStudy:
    """BER as a function of the iteration budget, one run per Eb/N0.

    A single run with budget max_iters is snapshotted at every iteration;
    snapshots are equivalent to separate runs because the update rules
    never look at the remaining budget. For hybrids, iteration 0 is the
    bare linear detector, except on a lost seed, which the bare detector
    erases and the hybrid decides from the zero vector; iteration 0's
    trace value is the seed's fitness. Only heuristic kinds have
    iterations. n_vectors (default: config.max_trials) rounds up to
    ceil(n_vectors / n_subcarriers) whole frames.
    """
    if DETECTORS[detector.kind].heuristic is None:
        raise ConfigError(f"convergence applies to heuristic detectors, not {detector.kind!r}")
    if not ebn0_list:
        raise ConfigError("convergence needs at least one Eb/N0 point")
    base = replace(detector, iters=max_iters)
    checkpoints = tuple(range(0, max_iters + 1))
    if not set(it for pair in iteration_pairs for it in pair) <= set(checkpoints):
        raise ConfigError(f"iteration pairs must lie in 0..{max_iters}")
    for ebn0 in ebn0_list:  # all points, so a bad later one fails before any frame runs
        check_operating_point(ebn0, rho, config.m_order)
    n_vectors = n_vectors if n_vectors is not None else config.max_trials
    col_pairs = tuple(((0, a), (0, b)) for a, b in iteration_pairs)
    rows = []
    discordance = {}
    trace = None
    with _worker_map(workers) as run:
        for ebn0 in ebn0_list:
            _, merged = _run_batches(config, [base], ebn0, rho, n_vectors,
                                     checkpoints=checkpoints, pairs=col_pairs,
                                     workers=workers, run=run)
            vectors = merged.vectors[0]
            nbits = vectors * config.bits_per_vector
            for it in checkpoints:
                errs = merged.errors[(0, it)]
                rows.append(ConvergenceRecord(base.label, float(ebn0), float(rho), it,
                                              vectors, errs, errs / nbits))
            for (a, b), cols in zip(iteration_pairs, col_pairs):
                discordance[(float(ebn0), a, b)] = tuple(merged.discordance[cols])
            if trace is None:
                trace = merged.trace
    return ConvergenceStudy(rows, nbits, discordance, trace)


@dataclass
class CalibrationEvaluation:
    parameter: str
    candidate: float
    ber: float
    bit_errors: int
    trials: int


@dataclass
class CalibrationResult:
    detector: str
    final_params: dict
    final_ber: float
    start_ber: float
    evaluations: list


def calibrate(plan: CalibrationPlan, config: SimulationConfig,
              detector: DetectorConfig, workers: int = 1) -> CalibrationResult:
    """Greedy coordinate descent over the plan's grids.

    Each step evaluates every grid candidate (plus the incumbent value if
    the grid omits it) with all other parameters held fixed, then adopts
    the BER argmin. BER(params) is a pure function of the parameters here
    because trial substreams are keyed by value, so the final BER can
    never exceed the start BER.
    """
    eval_config = replace(config, max_trials=plan.max_vectors,
                          target_bit_errors=plan.min_error_events)
    cache: dict = {}

    def evaluate(param_sets, run) -> list[BerRecord]:
        """Records of several parameter sets; the uncached ones share one
        frame loop, under one label and so one detector stream."""
        keys = [tuple(sorted(params.items())) for params in param_sets]
        todo = [key for key in keys if key not in cache]
        if todo:
            dets = [replace(detector, **dict(key)) for key in todo]
            cache.update(zip(todo, _ber_records(eval_config, dets, plan.ebn0_db,
                                                plan.rho, workers, run)))
        return [cache[key] for key in keys]

    current = dict(plan.start)
    evaluations = []
    with _worker_map(workers) as run:
        start_ber = evaluate([current], run)[0].ber
        for name in plan.parameter_order:
            candidates = sorted(set(float(c) for c in plan.grids[name]) | {current[name]})
            trials = [{**current, name: cand} for cand in candidates]
            best_value, best_ber = None, math.inf
            for cand, rec in zip(candidates, evaluate(trials, run)):
                evaluations.append(CalibrationEvaluation(name, cand, rec.ber,
                                                         rec.bit_errors, rec.trials))
                if rec.ber < best_ber:  # strict: first (smallest) candidate wins ties
                    best_value, best_ber = cand, rec.ber
            current[name] = best_value
        final_ber = evaluate([current], run)[0].ber
    return CalibrationResult(detector.label, current, final_ber, start_ber,
                             evaluations)


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def write_text_atomic(path, text: str) -> None:
    """Write via a temp file and rename, so outputs are never partial. The
    temp file is created with mode 0o666 less the umask, as open() creates
    a file; the rename keeps that mode."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f"{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows, preamble: str = "") -> str:
    """CSV text: the preamble, then the header row and the data rows."""
    buf = io.StringIO()
    buf.write(preamble)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload, **kwargs) -> str:
    """Standard JSON: +inf goes in as "inf", and any other non-finite float
    raises ValueError rather than writing a token strict parsers reject."""
    return json.dumps(_inf_as_text(payload), allow_nan=False, sort_keys=True, **kwargs)


def records_to_csv(records, config: SimulationConfig) -> str:
    echo = _json_text(config.to_dict())
    return _csv_text(CSV_COLUMNS, map(astuple, records),
                     f"# config {echo}\n# note {SEQUENTIAL_STOP_NOTE}\n")


def records_to_json(records, config: SimulationConfig) -> str:
    payload = {
        "config": config.to_dict(),
        "seed": config.master_seed,
        "note": SEQUENTIAL_STOP_NOTE,
        "records": [asdict(rec) for rec in records],
    }
    return _json_text(payload, indent=2) + "\n"


def convergence_rows_to_csv(rows) -> str:
    return _csv_text([f.name for f in fields(ConvergenceRecord)], map(astuple, rows))


def fitness_traces_to_csv(detector: str, trace: np.ndarray) -> str:
    """Per-iteration best-fitness rows (detector, trial, iteration, fitness)."""
    return _csv_text(("detector", "trial", "iteration", "fitness"),
                     ([detector, trial, it, fitness]
                      for trial, row in enumerate(np.atleast_2d(trace).tolist())
                      for it, fitness in enumerate(row)))


def calibration_to_csv(result: CalibrationResult) -> str:
    """One row per evaluation, then a comment line with the JSON summary."""
    summary = _json_text({"detector": result.detector, "final_params": result.final_params,
                          "start_ber": result.start_ber, "final_ber": result.final_ber})
    rows = ([result.detector, *astuple(ev)] for ev in result.evaluations)
    header = ["detector"] + [f.name for f in fields(CalibrationEvaluation)]
    return _csv_text(header, rows) + f"# {summary}\n"


def complexity_rows_to_csv(rows) -> str:
    return _csv_text(("n_t", "detector", "flops"), rows)
