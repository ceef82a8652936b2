"""Monte Carlo BER engine, parameter calibration and result persistence.

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
and refinement experiments get their statistical power. Results are
reduced by summation over frames, so totals do not depend on worker count
or scheduling.

Config files are JSON:

    {
      "n_t": 4, "n_r": 4, "n_subcarriers": 64, "m_order": 4,
      "rho_list": [0.0, 0.5, 0.9],
      "ebn0_db_list": [0, 4, 8, 12, 16, 20, 24],
      "max_trials": 1000000, "target_bit_errors": 200,
      "master_seed": 1,
      "detectors": [
        {"kind": "mmse"},
        {"kind": "pso-mmse", "iters": 15},
        {"kind": "de", "n_pop": 40, "iters": 50, "f_mut": 0.6, "f_cr": 0.6}
      ]
    }

Detector fields left null pick up the calibrated defaults for the
operating point's correlation index (see CALIBRATED_* tables below).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import complexity
from .channel import CorrelationSpec, add_awgn, correlation_sqrt, generate_channel
from .complexity import DETECTORS
from .detectors import apply_equalizer, linear_weights, ml_detect
from .heuristics import DeParams, PsoParams, run_hybrid, run_population, run_swarm
from .ofdm import Constellation, NoiseSpec, demap_symbols, map_bits, square_qam
from .realdomain import realify, realify_vec
from .rng import RngStream

log = logging.getLogger(__name__)

# Frames are always simulated in full batches of this many, and stopping
# rules are applied only on batch boundaries; that keeps outputs identical
# for any worker count.
BATCH_FRAMES = 16

DEFAULT_HYBRID_ITERS = 15
DEFAULT_RANDOM_ITERS = 100

# Calibrated heuristic parameters per initialization and correlation index
# (coordinate-descent outcome at Eb/N0 = 24 dB). Keyed on the nearest rho
# of {0, 0.5, 0.9}.
CALIBRATED_PSO = {
    "random": {0.0: (4.0, 1.0, 1.5), 0.5: (4.0, 0.5, 1.5), 0.9: (4.0, 1.0, 3.5)},
    "mf":     {0.0: (4.0, 0.5, 1.5), 0.5: (4.0, 0.5, 2.0), 0.9: (4.0, 1.0, 2.5)},
    "mmse":   {0.0: (3.5, 0.5, 2.0), 0.5: (4.0, 0.5, 3.0), 0.9: (4.0, 0.5, 3.0)},
}
PSO_START = (2.0, 2.0, 1.0)  # (c1, c2, w0) calibration start values

CALIBRATED_DE = {
    "random": {0.0: (0.6, 0.6), 0.5: (0.8, 0.6), 0.9: (1.8, 0.8)},
    "mf":     {0.0: (2.0, 0.8), 0.5: (2.0, 0.7), 0.9: (2.0, 0.9)},
    "mmse":   {0.0: (1.7, 0.6), 0.5: (2.0, 0.7), 0.9: (2.0, 0.8)},
}
DE_START = (1.0, 0.5)  # (f_mut, f_cr)

SEQUENTIAL_STOP_NOTE = (
    "points stopped at target_bit_errors use a sequential rule; the BER "
    "estimate carries the standard sequential-test bias caveat"
)


class ConfigError(ValueError):
    """Invalid simulation configuration."""


def check_operating_point(ebn0_db: float, rho: float) -> None:
    """Reject an operating point the model cannot simulate.

    Eb/N0 = +inf is the noiseless point; -inf and NaN make every
    observation non-finite. rho must lie in [0, 1].
    """
    if math.isnan(ebn0_db) or ebn0_db == -math.inf:
        raise ConfigError(f"Eb/N0 {ebn0_db} dB outside the model: it must be finite or +inf")
    if not 0.0 <= rho <= 1.0:  # also rejects NaN
        raise ConfigError(f"rho {rho} outside [0, 1]")


def check_square_qam(m: int) -> None:
    """Only square QAM is simulated: hard decisions slice both axes with one set of levels."""
    if m < 4 or m & (m - 1) or (m.bit_length() - 1) % 2:
        raise ConfigError(f"m_order {m} is not a power of 4: only square QAM is simulated")


def _nearest_rho_key(rho: float) -> float:
    return min((0.0, 0.5, 0.9), key=lambda r: abs(r - rho))


@dataclass(frozen=True)
class DetectorConfig:
    """One detector selection; None fields resolve to calibrated defaults."""

    kind: str
    n_pop: int | None = None
    iters: int | None = None
    c1: float | None = None
    c2: float | None = None
    w0: float | None = None
    f_mut: float | None = None
    f_cr: float | None = None
    v_max: float = 2.0
    search_lo: float = -1.0
    search_hi: float = 1.0

    def __post_init__(self):
        if self.kind not in DETECTORS:
            raise ConfigError(f"unknown detector kind {self.kind!r}")

    @property
    def label(self) -> str:
        return self.kind.upper()

    @classmethod
    def from_dict(cls, d: dict) -> "DetectorConfig":
        d = dict(d)
        kind = str(d.pop("kind", "")).lower()
        allowed = {"n_pop", "iters", "c1", "c2", "w0", "f_mut", "f_cr",
                   "v_max", "search_lo", "search_hi"}
        unknown = set(d) - allowed
        if unknown:
            raise ConfigError(f"unknown detector fields: {sorted(unknown)}")
        return cls(kind=kind, **d)


@dataclass(frozen=True)
class ResolvedDetector:
    """DetectorConfig bound to an operating point."""

    label: str
    kind: str
    params: PsoParams | DeParams | None = None

    @property
    def iterations(self) -> int:
        if isinstance(self.params, PsoParams):
            return self.params.n_iter
        return self.params.n_gen if self.params is not None else 0

    @property
    def population(self) -> int:
        if isinstance(self.params, PsoParams):
            return self.params.n_pop
        return self.params.n_ind if self.params is not None else 0


def resolve_detector(det: DetectorConfig, rho: float) -> ResolvedDetector:
    """Bind calibrated defaults for this correlation index."""
    heuristic, linear = DETECTORS[det.kind]
    if heuristic is None:
        return ResolvedDetector(det.label, det.kind)
    init = linear or "random"
    rho_key = _nearest_rho_key(rho)
    n_pop = det.n_pop if det.n_pop is not None else 40
    default_iters = DEFAULT_HYBRID_ITERS if linear else DEFAULT_RANDOM_ITERS
    iters = det.iters if det.iters is not None else default_iters
    try:
        if heuristic == "pso":
            c1, c2, w0 = CALIBRATED_PSO[init][rho_key]
            params = PsoParams(
                c1=det.c1 if det.c1 is not None else c1,
                c2=det.c2 if det.c2 is not None else c2,
                w0=det.w0 if det.w0 is not None else w0,
                n_pop=n_pop, n_iter=iters, v_max=det.v_max,
                search_lo=det.search_lo, search_hi=det.search_hi,
            )
            return ResolvedDetector(det.label, det.kind, params)
        f_mut, f_cr = CALIBRATED_DE[init][rho_key]
        params = DeParams(
            f_mut=det.f_mut if det.f_mut is not None else f_mut,
            f_cr=det.f_cr if det.f_cr is not None else f_cr,
            n_ind=n_pop, n_gen=iters,
            search_lo=det.search_lo, search_hi=det.search_hi,
        )
        return ResolvedDetector(det.label, det.kind, params)
    except ValueError as exc:
        raise ConfigError(f"detector {det.label}: {exc}") from exc


@dataclass(frozen=True)
class SimulationConfig:
    n_t: int = 4
    n_r: int = 4
    n_subcarriers: int = 64
    m_order: int = 4
    rho_list: tuple = (0.0, 0.5, 0.9)
    ebn0_db_list: tuple = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0)
    detectors: tuple = ()
    max_trials: int = 1_000_000
    target_bit_errors: int = 200
    master_seed: int = 1

    def __post_init__(self):
        if min(self.n_t, self.n_r, self.n_subcarriers, self.m_order,
               self.max_trials, self.target_bit_errors) < 1:
            raise ConfigError("all counts must be >= 1")
        if self.n_r != self.n_t:
            raise ConfigError(f"n_r = {self.n_r} != n_t = {self.n_t}: "
                              "only square arrays are simulated")
        check_square_qam(self.m_order)
        if not self.detectors:
            raise ConfigError("detector list must not be empty")
        if not self.rho_list or not self.ebn0_db_list:
            raise ConfigError("rho_list and ebn0_db_list must not be empty")
        for rho in self.rho_list:
            for ebn0 in self.ebn0_db_list:
                check_operating_point(ebn0, rho)

    @property
    def bits_per_vector(self) -> int:
        return self.n_t * int(math.log2(self.m_order))

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        d = dict(d)
        dets = tuple(DetectorConfig.from_dict(x) for x in d.pop("detectors", []))
        allowed = {"n_t", "n_r", "n_subcarriers", "m_order", "rho_list",
                   "ebn0_db_list", "max_trials", "target_bit_errors", "master_seed"}
        unknown = set(d) - allowed
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "rho_list" in d:
            d["rho_list"] = tuple(float(r) for r in d["rho_list"])
        if "ebn0_db_list" in d:
            d["ebn0_db_list"] = tuple(float(e) for e in d["ebn0_db_list"])
        try:
            return cls(detectors=dets, **d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        d = asdict(self)
        d["rho_list"] = list(self.rho_list)
        d["ebn0_db_list"] = list(self.ebn0_db_list)
        d["detectors"] = [asdict(x) for x in self.detectors]
        return d

    @classmethod
    def from_json_file(cls, path) -> "SimulationConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


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

    def to_row(self) -> list:
        return [self.detector, repr(self.ebn0_db), repr(self.rho), self.trials,
                self.bit_errors, repr(self.ber), repr(self.ci95_halfwidth),
                repr(self.mean_iterations), repr(self.flops_per_subcarrier)]


CSV_COLUMNS = ("detector", "ebn0_db", "rho", "trials", "bit_errors", "ber",
               "ci95", "mean_iterations", "flops_per_subcarrier")


def binomial_ci95_halfwidth(errors: int, n: int) -> float:
    if n == 0:
        return 0.0
    p = errors / n
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def detector_flops(config: SimulationConfig, res: ResolvedDetector) -> float:
    inp = complexity.FlopFormulaInput(
        n_t=config.n_t, n_r=config.n_r,
        n_pop=max(res.population, 1), iters=max(res.iterations, 1),
        m_order=config.m_order,
    )
    return float(complexity.flops_detector(res.label, inp))


def _ebkey(ebn0_db: float) -> int:
    ebn0_db = float(ebn0_db)
    if math.isinf(ebn0_db):  # noiseless operating point
        return 1 << 62 if ebn0_db > 0 else -(1 << 62)
    return int(round(ebn0_db * 1000.0))


def _rhokey(rho: float) -> int:
    return int(round(float(rho) * 10000.0))


# ---------------------------------------------------------------------------
# Frame simulation
# ---------------------------------------------------------------------------

def _frame_channel_and_rx(config: SimulationConfig, const: Constellation,
                          sqrt_r, ebn0_db: float, rho: float, frame: int):
    """Draw one frame: bits, channel stack, received grid (detector-neutral)."""
    n_sc = config.n_subcarriers
    trial_rng = RngStream(config.master_seed).substream(
        "trial", _ebkey(ebn0_db), _rhokey(rho), frame)
    nbits = n_sc * config.bits_per_vector
    bits = trial_rng.integers(0, 2, nbits)
    spec = CorrelationSpec(rho=rho, n_antennas=config.n_t)
    realization = generate_channel(trial_rng, spec, n_sc, sqrt_r=sqrt_r)
    hs = realization.per_subcarrier                       # (n_sc, n_r, n_t)
    frame_tx = map_bits(bits, config.n_t, const)
    clean = np.einsum("nrt,tn->nr", hs, frame_tx.symbols)
    noise = NoiseSpec.from_ebn0(ebn0_db, config.m_order)
    ys = add_awgn(trial_rng, clean, noise.sigma2)
    return bits, hs, ys, noise


def _detect_frame(res: ResolvedDetector, config: SimulationConfig,
                  const: Constellation, hs, ys, noise: NoiseSpec,
                  det_rng: RngStream, checkpoints=(), want_trace=False):
    """Decisions for one frame.

    Returns (grids dict, failed mask, trace or None). The grids dict maps
    checkpoint -> (n_sc, n_t) grid, which demap_symbols slices; key None
    is the final output.
    """
    heuristic, linear = DETECTORS[res.kind]
    n_sc = hs.shape[0]
    if heuristic is None and linear is None:  # ML
        out = np.stack([ml_detect(hs[n], ys[n], const) for n in range(n_sc)])
        return {None: out}, np.zeros(n_sc, dtype=bool), None
    if linear is not None:
        w, failed = linear_weights(linear, hs, noise.sigma2)
        soft = apply_equalizer(w, ys)
        if heuristic is None:
            return {None: soft}, failed, None
        if failed.any():
            log.warning("%s: %d subcarriers lost their linear seed",
                        res.label, int(failed.sum()))
    sys = realify(hs, ys)
    if linear is None:
        runner = run_swarm if heuristic == "pso" else run_population
        run = runner(det_rng, sys, res.params, None, const, checkpoints)
    else:  # a lost seed is the zero vector, since its W rows are zero
        run = run_hybrid(det_rng, sys, realify_vec(soft), res.params, const, checkpoints)
    out = dict(run.checkpoint_symbols)
    out[None] = run.symbols
    # the heuristic decides every vector, lost seeds included
    return out, np.zeros(n_sc, dtype=bool), run.trace if want_trace else None


def _bits_for_grid(grid, const: Constellation, tx_bits, bits_per_vector: int,
                   failed) -> np.ndarray:
    """Per-bit error mask for one hard-decision grid against the sent bits."""
    rx_bits = demap_symbols(grid, const)
    errors = rx_bits != tx_bits
    if failed is not None and failed.any():
        errors = errors.reshape(-1, bits_per_vector)
        errors[failed] = True  # erasure counts every bit of the vector
        errors = errors.ravel()
    return errors


@dataclass
class FrameBatchResult:
    vectors: int = 0
    nbits: int = 0
    errors: dict = field(default_factory=dict)        # (det, checkpoint) -> int
    discordance: dict = field(default_factory=dict)   # (col_a, col_b) -> [a_only, b_only]
    trace: np.ndarray | None = None


def _simulate_frames(config: SimulationConfig, detectors, ebn0_db: float,
                     rho: float, frame_lo: int, frame_hi: int,
                     checkpoints=(), pairs=(), want_trace=False) -> FrameBatchResult:
    """Simulate frames [frame_lo, frame_hi) for all detectors at one point.

    `pairs` lists ((det_label, checkpoint), (det_label, checkpoint)) column
    pairs whose bitwise error discordance should be accumulated.
    """
    const = square_qam(config.m_order)
    spec = CorrelationSpec(rho=rho, n_antennas=config.n_t)
    sqrt_r = None if rho == 0.0 else correlation_sqrt(spec)
    out = FrameBatchResult()
    for key in [(d.label, cp) for d in detectors for cp in list(checkpoints) + [None]]:
        out.errors[key] = 0
    for pair in pairs:
        out.discordance[pair] = [0, 0]
    for frame in range(frame_lo, frame_hi):
        bits, hs, ys, noise = _frame_channel_and_rx(config, const, sqrt_r,
                                                    ebn0_db, rho, frame)
        masks = {}
        for res in detectors:
            det_rng = RngStream(config.master_seed).substream(
                "det", res.label, _ebkey(ebn0_db), _rhokey(rho), frame)
            grids, failed, trace = _detect_frame(
                res, config, const, hs, ys, noise, det_rng, checkpoints,
                want_trace=want_trace and frame == frame_lo)
            for cp, grid in grids.items():
                mask = _bits_for_grid(grid, const, bits, config.bits_per_vector,
                                      failed if cp is None else None)
                masks[(res.label, cp)] = mask
                out.errors[(res.label, cp)] = out.errors.get((res.label, cp), 0) \
                    + int(mask.sum())
            if trace is not None and out.trace is None:
                out.trace = trace
        for pair in pairs:
            a, b = masks[pair[0]], masks[pair[1]]
            out.discordance[pair][0] += int(np.sum(a & ~b))
            out.discordance[pair][1] += int(np.sum(b & ~a))
        out.vectors += config.n_subcarriers
        out.nbits += bits.size
    return out


def _simulate_frames_task(args) -> FrameBatchResult:
    return _simulate_frames(*args)


def _run_batches(config: SimulationConfig, detectors, ebn0_db, rho,
                 total_frames: int, checkpoints=(), pairs=(), workers: int = 1,
                 stop_errors: int | None = None, want_trace=False) -> FrameBatchResult:
    """Run frames in fixed batches, optionally in parallel, merging by sum.

    The stop check (on the final-output error count of the first detector)
    happens only between complete batches, so results are identical for
    any worker count.
    """
    if total_frames < 1:
        raise ConfigError("need at least one symbol vector per point")
    merged = FrameBatchResult()
    merged.errors = {}
    merged.discordance = {p: [0, 0] for p in pairs}
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        frame = 0
        while frame < total_frames:
            hi = min(frame + BATCH_FRAMES, total_frames)
            chunks = []
            if executor is None:
                chunks.append(_simulate_frames(config, detectors, ebn0_db, rho,
                                               frame, hi, checkpoints, pairs,
                                               want_trace and frame == 0))
            else:
                step = math.ceil((hi - frame) / workers)
                tasks = []
                for lo in range(frame, hi, step):
                    tasks.append((config, detectors, ebn0_db, rho, lo,
                                  min(lo + step, hi), checkpoints, pairs,
                                  want_trace and lo == 0))
                chunks.extend(executor.map(_simulate_frames_task, tasks))
            for chunk in chunks:
                merged.vectors += chunk.vectors
                merged.nbits += chunk.nbits
                for key, val in chunk.errors.items():
                    merged.errors[key] = merged.errors.get(key, 0) + val
                for key, val in chunk.discordance.items():
                    acc = merged.discordance[key]
                    acc[0] += val[0]
                    acc[1] += val[1]
                if chunk.trace is not None and merged.trace is None:
                    merged.trace = chunk.trace
            frame = hi
            if stop_errors is not None:
                first = (detectors[0].label, None)
                if merged.errors.get(first, 0) >= stop_errors:
                    break
    finally:
        if executor is not None:
            executor.shutdown()
    return merged


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def run_ber_point(config: SimulationConfig, detector: DetectorConfig,
                  ebn0_db: float, rho: float, workers: int = 1) -> BerRecord:
    """Measure one (detector, Eb/N0, rho) operating point.

    Stops after max_trials symbol vectors or target_bit_errors bit errors,
    whichever comes first (checked on batch boundaries).
    """
    res = resolve_detector(detector, rho)
    total_frames = math.ceil(config.max_trials / config.n_subcarriers)
    merged = _run_batches(config, [res], ebn0_db, rho, total_frames,
                          workers=workers, stop_errors=config.target_bit_errors)
    errors = merged.errors[(res.label, None)]
    ber = errors / merged.nbits if merged.nbits else 0.0
    return BerRecord(
        detector=res.label, ebn0_db=float(ebn0_db), rho=float(rho),
        trials=merged.vectors, bit_errors=errors, ber=ber,
        ci95_halfwidth=binomial_ci95_halfwidth(errors, merged.nbits),
        mean_iterations=float(res.iterations),
        flops_per_subcarrier=detector_flops(config, res),
    )


def run_sweep(config: SimulationConfig, workers: int = 1) -> list[BerRecord]:
    """Cartesian sweep over detectors x Eb/N0 x rho; one record per triple."""
    records = []
    for det in config.detectors:
        for ebn0 in config.ebn0_db_list:
            for rho in config.rho_list:
                records.append(run_ber_point(config, det, ebn0, rho, workers))
    return records


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
    """Run several detectors over the same n_vectors trials (no early stop)."""
    resolved = [resolve_detector(d, rho) for d in detectors]
    labels = [r.label for r in resolved]
    if len(set(labels)) != len(labels):
        raise ConfigError("paired runs need distinct detector labels")
    total_frames = math.ceil(n_vectors / config.n_subcarriers)
    col_pairs = tuple(((a, None), (b, None)) for a, b in pairs)
    merged = _run_batches(config, resolved, ebn0_db, rho, total_frames,
                          pairs=col_pairs, workers=workers)
    return PairedResult(
        labels=labels, vectors=merged.vectors, nbits=merged.nbits,
        errors={lab: merged.errors[(lab, None)] for lab in labels},
        discordance={(a, b): tuple(merged.discordance[((a, None), (b, None))])
                     for a, b in pairs},
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
    trace: np.ndarray | None = None


def convergence_study(config: SimulationConfig, detector: DetectorConfig,
                      ebn0_list, max_iters: int, rho: float = 0.0,
                      n_vectors: int | None = None, iteration_pairs=(),
                      workers: int = 1, want_trace: bool = False) -> ConvergenceStudy:
    """BER as a function of the iteration budget, one run per Eb/N0.

    A single run with budget max_iters is snapshotted at every iteration;
    snapshots are equivalent to separate runs because the update rules
    never look at the remaining budget. For hybrids, iteration 0 is the
    bare linear detector.
    """
    base = replace(detector, iters=max_iters)
    checkpoints = tuple(range(0, max_iters + 1))
    for ebn0 in ebn0_list:
        check_operating_point(ebn0, rho)
    n_vectors = n_vectors if n_vectors is not None else config.max_trials
    total_frames = math.ceil(n_vectors / config.n_subcarriers)
    rows = []
    discordance = {}
    trace = None
    nbits = 0
    for ebn0 in ebn0_list:
        res = resolve_detector(base, rho)
        col_pairs = tuple(((res.label, a), (res.label, b)) for a, b in iteration_pairs)
        merged = _run_batches(config, [res], ebn0, rho, total_frames,
                              checkpoints=checkpoints, pairs=col_pairs,
                              workers=workers, want_trace=want_trace)
        nbits = merged.nbits
        for it in checkpoints:
            errs = merged.errors[(res.label, it)]
            rows.append(ConvergenceRecord(res.label, float(ebn0), float(rho), it,
                                          merged.vectors, errs,
                                          errs / merged.nbits))
        for a, b in iteration_pairs:
            discordance[(float(ebn0), a, b)] = tuple(
                merged.discordance[((res.label, a), (res.label, b))])
        if merged.trace is not None and trace is None:
            trace = merged.trace
    return ConvergenceStudy(rows, nbits, discordance, trace)


# ---------------------------------------------------------------------------
# Coordinate-descent parameter calibration
# ---------------------------------------------------------------------------

PSO_DEFAULT_GRIDS = {
    "c1": tuple(np.arange(0.5, 4.01, 0.5)),
    "c2": tuple(np.arange(0.5, 4.01, 0.5)),
    "w0": tuple(np.arange(1.0, 3.51, 0.5)),
}
DE_DEFAULT_GRIDS = {
    "f_mut": tuple(np.round(np.arange(0.6, 2.001, 0.1), 10)),
    "f_cr": tuple(np.round(np.arange(0.5, 0.901, 0.1), 10)),
}


@dataclass(frozen=True)
class CalibrationPlan:
    """Coordinate descent schedule: vary one parameter at a time.

    Every candidate evaluation runs until min_error_events bit errors or
    max_vectors trials. Ties pick the smaller candidate value.
    """

    parameter_order: tuple
    grids: dict
    start: dict
    ebn0_db: float = 24.0
    rho: float = 0.0
    min_error_events: int = 50
    max_vectors: int = 200_000

    def __post_init__(self):
        check_operating_point(self.ebn0_db, self.rho)
        for name in self.parameter_order:
            if name not in self.grids or not len(self.grids[name]):
                raise ConfigError(f"parameter {name!r} has no candidate grid")
            if name not in self.start:
                raise ConfigError(f"parameter {name!r} has no start value")


def default_calibration_plan(kind: str, **overrides) -> CalibrationPlan:
    heuristic = DETECTORS[kind].heuristic if kind in DETECTORS else None
    if heuristic == "pso":
        base = dict(parameter_order=("c1", "c2", "w0"), grids=PSO_DEFAULT_GRIDS,
                    start=dict(zip(("c1", "c2", "w0"), PSO_START)))
    elif heuristic == "de":
        base = dict(parameter_order=("f_mut", "f_cr"), grids=DE_DEFAULT_GRIDS,
                    start=dict(zip(("f_mut", "f_cr"), DE_START)))
    else:
        raise ConfigError(f"calibration applies to heuristic detectors, not {kind!r}")
    base.update(overrides)
    return CalibrationPlan(**base)


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

    def evaluate(params: dict) -> tuple[float, BerRecord]:
        key = tuple(sorted(params.items()))
        if key not in cache:
            det = replace(detector, **params)
            cache[key] = run_ber_point(eval_config, det, plan.ebn0_db, plan.rho,
                                       workers=workers)
        rec = cache[key]
        return rec.ber, rec

    current = dict(plan.start)
    start_ber, _ = evaluate(current)
    evaluations = []
    for name in plan.parameter_order:
        candidates = sorted(set(float(c) for c in plan.grids[name]) | {current[name]})
        best_value, best_ber = None, math.inf
        for cand in candidates:
            trial = dict(current)
            trial[name] = cand
            ber, rec = evaluate(trial)
            evaluations.append(CalibrationEvaluation(name, cand, ber,
                                                     rec.bit_errors, rec.trials))
            if ber < best_ber:  # strict: first (smallest) candidate wins ties
                best_value, best_ber = cand, ber
        current[name] = best_value
    final_ber, _ = evaluate(current)
    return CalibrationResult(detector.label, current, final_ber, start_ber,
                             evaluations)


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def write_text_atomic(path, text: str) -> None:
    """Write via a temp file and rename, so outputs are never partial."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def records_to_csv(records, config: SimulationConfig) -> str:
    buf = io.StringIO()
    echo = json.dumps(config.to_dict(), sort_keys=True)
    buf.write(f"# config {echo}\n")
    buf.write(f"# note {SEQUENTIAL_STOP_NOTE}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.to_row())
    return buf.getvalue()


def records_to_json(records, config: SimulationConfig) -> str:
    payload = {
        "config": config.to_dict(),
        "seed": config.master_seed,
        "note": SEQUENTIAL_STOP_NOTE,
        "records": [asdict(rec) for rec in records],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def convergence_rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("detector", "ebn0_db", "rho", "iteration", "trials",
                     "bit_errors", "ber"))
    for r in rows:
        writer.writerow([r.detector, repr(r.ebn0_db), repr(r.rho), r.iteration,
                         r.trials, r.bit_errors, repr(r.ber)])
    return buf.getvalue()


def fitness_traces_to_csv(detector: str, trace: np.ndarray) -> str:
    """Per-iteration best-fitness rows (detector, trial, iteration, fitness)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("detector", "trial", "iteration", "fitness"))
    trace = np.atleast_2d(trace)
    for trial in range(trace.shape[0]):
        for it in range(trace.shape[1]):
            writer.writerow([detector, trial, it, repr(float(trace[trial, it]))])
    return buf.getvalue()


def calibration_to_csv(result: CalibrationResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("detector", "parameter", "candidate", "ber", "bit_errors",
                     "trials"))
    for ev in result.evaluations:
        writer.writerow([result.detector, ev.parameter, repr(ev.candidate),
                         repr(ev.ber), ev.bit_errors, ev.trials])
    return buf.getvalue()


def complexity_rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n_t", "detector", "flops"))
    for n_t, kind, flops in rows:
        writer.writerow([n_t, kind, repr(flops) if isinstance(flops, float) else flops])
    return buf.getvalue()
