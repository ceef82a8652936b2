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
and refinement experiments get their statistical power. It also lets all
detectors of a point share one frame loop. A batch of BATCH_FRAMES frames
is cut into one task per worker. Each frame draws on its own trial
substream, in the order bits, channel normals, noise normals (none at
Eb/N0 = +inf); the task then builds its channel stack, symbol grid, clean
signal and noise once, over all of its frames on the system axis
(channel.generate_channel and add_awgn take the task's streams), and that
stack equals the frames built one at a time, bit for bit. One linear
stage (detectors.linear_stage) then computes every linear kind the
point's active detectors need, MF, ZF and MMSE together, for all of the
task's subcarriers, and the bare linear detectors, ML and one demap of
their outputs run once over that stack. PSO, DE and the hybrids run frame
by frame, each frame on its own detector substream and its slice of the
linear seed. The flop ledger still charges each linear kind its own model
count.
Every system's result depends on that system alone, and results are
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
operating point's correlation index (see CALIBRATED_* tables below). A
field the detector's kind does not read is a configuration error.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import io
import json
import logging
import math
import numbers
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import complexity
from .channel import CorrelationSpec, add_awgn, generate_channel
from .complexity import DETECTORS
from .detectors import ML_CANDIDATE_LIMIT, apply_equalizer, linear_stage, ml_detect
from .heuristics import DeParams, PsoParams, check_integers, run_heuristic
from .ofdm import Constellation, demap_symbols, is_square_qam, map_bits, noise_variance, square_qam
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

CALIBRATED_DE = {
    "random": {0.0: (0.6, 0.6), 0.5: (0.8, 0.6), 0.9: (1.8, 0.8)},
    "mf":     {0.0: (2.0, 0.8), 0.5: (2.0, 0.7), 0.9: (2.0, 0.9)},
    "mmse":   {0.0: (1.7, 0.6), 0.5: (2.0, 0.7), 0.9: (2.0, 0.8)},
}

# heuristic -> (parameter class, calibrated table); the class's TUNED names
# the table's columns.
HEURISTICS = {"pso": (PsoParams, CALIBRATED_PSO), "de": (DeParams, CALIBRATED_DE)}

SEQUENTIAL_STOP_NOTE = (
    "points stopped at target_bit_errors use a sequential rule; the BER "
    "estimate carries the standard sequential-test bias caveat"
)


class ConfigError(ValueError):
    """Invalid simulation configuration."""


def check_rho(rho: float) -> None:
    """Reject a correlation index outside [0, 1], NaN included."""
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"rho {rho} outside [0, 1]")


def check_operating_point(ebn0_db: float, rho: float, m_order: int) -> None:
    """Reject an operating point the model cannot simulate: an Eb/N0
    whose noise variance is not a finite double (ofdm.noise_variance; the
    noiseless +inf has variance 0), or rho outside [0, 1]."""
    try:
        noise_variance(ebn0_db, m_order)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    check_rho(rho)


def check_square_qam(m: int) -> None:
    """Only square QAM is simulated: m_order must be a power of 4."""
    if not is_square_qam(m):
        raise ConfigError(f"m_order {m} is not a power of 4: only square QAM is simulated")


def _inf_from_text(value):
    """A config value with "inf", which outputs write for +inf
    (_inf_as_text), read back as +inf."""
    return math.inf if value == "inf" else value


def _nearest_rho_key(rho: float) -> float:
    return min((0.0, 0.5, 0.9), key=lambda r: abs(r - rho))


@dataclass(frozen=True)
class DetectorConfig:
    """One detector selection; None fields resolve to calibrated defaults.

    A kind reads the fields of its heuristic's parameter class and no
    others; any other field must keep its default.
    """

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
        heuristic, linear = DETECTORS[self.kind]
        used = {f.name for f in fields(HEURISTICS[heuristic][0])} if heuristic else set()
        if linear:  # a seeded start never reads the search box
            used -= {"search_lo", "search_hi"}
        unused = [f.name for f in fields(self)[1:]  # after kind
                  if f.name not in used and getattr(self, f.name) != f.default]
        if unused:
            raise ConfigError(f"detector {self.label} does not use {unused}")

    @property
    def label(self) -> str:
        return self.kind.upper()

    @classmethod
    def from_dict(cls, d: dict) -> "DetectorConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"detectors entries must be JSON objects, got {d!r}")
        d = dict(d)
        kind = str(d.pop("kind", "")).lower()
        if "v_max" in d:
            d["v_max"] = _inf_from_text(d["v_max"])
        unknown = set(d) - {f.name for f in fields(cls)}
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
        return self.params.iters if self.params is not None else 0


def resolve_detector(det: DetectorConfig, rho: float) -> ResolvedDetector:
    """Bind calibrated defaults for this correlation index.

    ML is rejected at rho = 1: every channel is then rank one, so many
    candidates tie exactly and the pick among them is decided by rounding.
    """
    heuristic, linear = DETECTORS[det.kind]
    if det.kind == "ml" and rho == 1.0:
        raise ConfigError("detector ML at rho = 1: every channel is rank one, so candidates "
                          "tie exactly and rounding picks among them")
    if heuristic is None:
        return ResolvedDetector(det.label, det.kind)
    cls, table = HEURISTICS[heuristic]
    values = dict(zip(cls.TUNED, table[linear or "random"][_nearest_rho_key(rho)]))
    values["iters"] = DEFAULT_HYBRID_ITERS if linear else DEFAULT_RANDOM_ITERS
    for f in fields(cls):
        if getattr(det, f.name) is not None:
            values[f.name] = getattr(det, f.name)
    try:
        return ResolvedDetector(det.label, det.kind, cls(**values))
    except ValueError as exc:
        raise ConfigError(f"detector {det.label}: {exc}") from exc


def _number_tuple(name: str, values) -> tuple:
    """A JSON list of numbers as a tuple of floats; anything else is rejected."""
    if not isinstance(values, (list, tuple)) or not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(float(v) for v in values)


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
        try:
            check_integers(self, ("n_t", "n_r", "n_subcarriers", "m_order",
                                  "max_trials", "target_bit_errors", "master_seed"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if min(self.n_t, self.n_r, self.n_subcarriers, self.m_order,
               self.max_trials, self.target_bit_errors) < 1:
            raise ConfigError("all counts must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.n_r != self.n_t:
            raise ConfigError(f"n_r = {self.n_r} != n_t = {self.n_t}: "
                              "only square arrays are simulated")
        check_square_qam(self.m_order)
        if not self.detectors:
            raise ConfigError("detector list must not be empty")
        if (any(det.kind == "ml" for det in self.detectors)
                and self.m_order ** self.n_t > ML_CANDIDATE_LIMIT):
            raise ConfigError(f"detector ML: search space m_order**n_t = "
                              f"{self.m_order}**{self.n_t} exceeds {ML_CANDIDATE_LIMIT} candidates")
        if not self.rho_list or not self.ebn0_db_list:
            raise ConfigError("rho_list and ebn0_db_list must not be empty")
        for rho in self.rho_list:
            for ebn0 in self.ebn0_db_list:
                check_operating_point(ebn0, rho, self.m_order)
            for det in self.detectors:  # bad parameters fail here, not mid-sweep
                resolve_detector(det, rho)

    @property
    def bits_per_vector(self) -> int:
        return self.n_t * int(math.log2(self.m_order))

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be a JSON object, got {d!r}")
        d = dict(d)
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if isinstance(d.get("ebn0_db_list"), list):
            d["ebn0_db_list"] = [_inf_from_text(v) for v in d["ebn0_db_list"]]
        for name in ("rho_list", "ebn0_db_list"):
            if name in d:
                d[name] = _number_tuple(name, d[name])
        dets = d.pop("detectors", [])
        if not isinstance(dets, (list, tuple)):
            raise ConfigError(f"detectors must be a list of objects, got {dets!r}")
        try:
            dets = tuple(DetectorConfig.from_dict(x) for x in dets)
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
        n_pop=getattr(res.params, "n_pop", 1), iters=res.iterations,
        m_order=config.m_order,
    )
    return float(complexity.flops_detector(res.label, inp))


def _ebkey(ebn0_db: float) -> int:
    ebn0_db = float(ebn0_db)
    if ebn0_db == math.inf:  # noiseless operating point
        return 1 << 62
    return int(round(ebn0_db * 1000.0))


def _rhokey(rho: float) -> int:
    return int(round(float(rho) * 10000.0))


# ---------------------------------------------------------------------------
# Frame simulation
# ---------------------------------------------------------------------------

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
                  checkpoints, linear):
    """Estimates of one detector for a stack of systems: a task's stacked
    frames for the bare linear detectors and ML, one frame for PSO, DE
    and the hybrids.

    Returns (grids dict, failed mask, trace or None). The grids dict maps
    checkpoint -> (n_sys, n_t) grid, which demap_symbols slices; key None
    is the final output. Only the heuristics have a fitness trace.
    `linear` is the stack's (soft estimates, failed mask) of the
    detector's linear kind, from the task's one linear stage, or None
    for a detector without one.
    """
    heuristic = DETECTORS[res.kind].heuristic
    n_sys = hs.shape[0]
    if heuristic is None:
        if linear is None:  # ML
            return {None: ml_detect(hs, ys, const)}, np.zeros(n_sys, dtype=bool), None
        soft, failed = linear
        return {None: soft}, failed, None
    # a lost seed is the zero vector, since its W rows are zero
    seed = realify_vec(linear[0]) if linear is not None else None
    run = run_heuristic(det_rng, realify(hs, ys), res.params, seed, checkpoints)
    out = dict(run.checkpoint_estimates)
    out[None] = run.estimate
    # the heuristic decides every vector, lost seeds included
    return out, np.zeros(n_sys, dtype=bool), run.trace


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

    Each frame is drawn from its own trial substream, and the task's
    frames are built as one stack on the system axis (_draw_task): the
    linear stage, each kind's
    equalizer, the bare linear detectors and ML, and one demap of their
    outputs run once over the whole stack. PSO, DE and the hybrids run
    frame by frame, each frame on its own detector substream and its
    slice of the linear seed, with one demap of that frame's grids.
    Every system's result depends on that system alone, so no count
    depends on how frames are grouped into calls.
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

    def columns(i, det_grids, failed):
        return [((i, cp), grid, failed if cp is None else None) for cp, grid in det_grids.items()]

    stacked = []
    for i, res in detectors:
        if DETECTORS[res.kind].heuristic is None:
            det_grids, failed, _ = _detect_frame(res, config, const, hs, ys, None, checkpoints,
                                                 linear.get(DETECTORS[res.kind].linear))
            stacked += columns(i, det_grids, failed)
    count(stacked, bits)
    searched = [(i, res) for i, res in detectors if DETECTORS[res.kind].heuristic]
    for f, frame in enumerate(frames):
        rows = slice(f * n_sc, (f + 1) * n_sc)
        frame_columns = []
        for i, res in searched:
            kind = DETECTORS[res.kind].linear
            seed = None
            if kind is not None:
                seed = linear[kind][0][rows], linear[kind][1][rows]
                if seed[1].any():
                    log.warning("%s: %d subcarriers lost their linear seed "
                                "(Eb/N0 %r dB, rho %r, frame %d)", res.label,
                                int(seed[1].sum()), ebn0_db, rho, frame)
            det_rng = det_root.substream(res.label, *point_key, frame)
            det_grids, failed, trace = _detect_frame(
                res, config, const, hs[rows], ys[rows], det_rng, checkpoints, seed)
            frame_columns += columns(i, det_grids, failed)
            if frame == 0 and out.trace is None:
                out.trace = trace
        count(frame_columns, bits[f * nbits:(f + 1) * nbits])
    for pair in pairs:
        a, b = (np.concatenate(masks[key]) for key in pair)
        out.discordance[pair] = [int(np.sum(a & ~b)), int(np.sum(b & ~a))]
    for i, _ in detectors:
        out.vectors[i] = len(frames) * n_sc
    return out


# glibc mallopt parameters, and the values an engine process fixes them at.
# Fixing them turns off glibc's dynamic thresholds, under which a task's few
# MB of temporaries were trimmed and re-faulted on every op. 32 MB is the
# largest mmap threshold glibc takes on a 64-bit host.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
HEAP_TRIM_THRESHOLD = 256 << 20
HEAP_MMAP_THRESHOLD = 32 << 20
_heap_fixed = False


@functools.cache
def _blas_thread_calls():
    """(set, get) of the thread count of numpy's bundled OpenBLAS, or None
    where numpy bundles no library that exports them."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return setter, getter
    return None


@functools.cache
def _glibc_mallopt():
    """glibc's mallopt, or None where the C library is not glibc."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    if getattr(libc, "gnu_get_libc_version", None) is None:
        return None
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def _fix_heap() -> None:
    """Fix glibc's heap thresholds, once per process. glibc cannot report
    them, so they stay set for the rest of the process."""
    global _heap_fixed
    if not _heap_fixed:
        _heap_fixed = True
        mallopt = _glibc_mallopt()
        if mallopt is not None:
            mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
            mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)


def _pin_worker() -> None:
    """One BLAS thread and fixed heap thresholds; as the pool initializer,
    the engine's runtime policy for a worker's life."""
    _fix_heap()
    blas = _blas_thread_calls()
    if blas is not None:
        blas[0](1)


@contextlib.contextmanager
def _runtime_policy():
    """Run the block under _pin_worker's policy and put the caller's BLAS
    thread count back after it.

    A task's products are small enough that a second OpenBLAS thread only
    spins, and a --workers pool then pays that CPU once per worker; the
    worker processes are the engine's only parallelism. Either half is a
    no-op where its symbol is missing.
    """
    blas = _blas_thread_calls()
    before = None if blas is None else blas[1]()
    _pin_worker()
    try:
        yield
    finally:
        if before is not None:
            blas[0](before)


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


def _run_batches(config: SimulationConfig, detectors, ebn0_db, rho,
                 total_frames: int, workers: int, run, checkpoints=(), pairs=(),
                 stop_errors: int | None = None) -> FrameBatchResult:
    """Run frames in fixed batches, split over the workers, merging by sum.

    `detectors` lists (position, ResolvedDetector) pairs. Each batch is
    cut into one frame range per worker and handed to `run`, the map of a
    _worker_map block. With `stop_errors`, a detector leaves once its
    final-output errors reach it; the check happens only between complete
    batches, so results are identical for any worker count.
    """
    if total_frames < 1:
        raise ConfigError("need at least one symbol vector per point")
    merged = FrameBatchResult()
    active = tuple(detectors)
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
    return merged


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def _ber_records(config: SimulationConfig, detectors, ebn0_db: float, rho: float,
                 workers: int, run) -> list[BerRecord]:
    """One record per detector at one operating point, all on one frame loop.

    Each detector stops on its own after max_trials symbol vectors or
    target_bit_errors bit errors, whichever comes first (checked on batch
    boundaries). Trials run in whole frames, so max_trials rounds up to
    ceil(max_trials / n_subcarriers) frames.
    """
    resolved = [resolve_detector(d, rho) for d in detectors]
    total_frames = math.ceil(config.max_trials / config.n_subcarriers)
    merged = _run_batches(config, list(enumerate(resolved)), ebn0_db, rho, total_frames,
                          workers=workers, run=run, stop_errors=config.target_bit_errors)
    records = []
    for i, res in enumerate(resolved):
        errors = merged.errors[(i, None)]
        nbits = merged.vectors[i] * config.bits_per_vector
        records.append(BerRecord(
            detector=res.label, ebn0_db=float(ebn0_db), rho=float(rho),
            trials=merged.vectors[i], bit_errors=errors, ber=errors / nbits,
            ci95_halfwidth=binomial_ci95_halfwidth(errors, nbits),
            mean_iterations=float(res.iterations),
            flops_per_subcarrier=detector_flops(config, res),
        ))
    return records


def run_ber_point(config: SimulationConfig, detector: DetectorConfig,
                  ebn0_db: float, rho: float, workers: int = 1) -> BerRecord:
    """Measure one (detector, Eb/N0, rho) operating point.

    Stops after max_trials symbol vectors or target_bit_errors bit errors,
    whichever comes first (checked on batch boundaries).
    """
    check_operating_point(ebn0_db, rho, config.m_order)
    with _worker_map(workers) as run:
        return _ber_records(config, [detector], ebn0_db, rho, workers, run)[0]


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
    check_operating_point(ebn0_db, rho, config.m_order)
    resolved = [resolve_detector(d, rho) for d in detectors]
    labels = [r.label for r in resolved]
    position = {label: i for i, label in enumerate(labels)}
    if len(position) != len(labels):
        raise ConfigError("paired runs need distinct detector labels")
    total_frames = math.ceil(n_vectors / config.n_subcarriers)
    col_pairs = tuple(((position[a], None), (position[b], None)) for a, b in pairs)
    with _worker_map(workers) as run:
        merged = _run_batches(config, list(enumerate(resolved)), ebn0_db, rho,
                              total_frames, pairs=col_pairs, workers=workers, run=run)
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
    erases and the hybrid decides from the zero vector. Only heuristic
    kinds have iterations. n_vectors (default: config.max_trials) rounds
    up to ceil(n_vectors / n_subcarriers) whole frames.
    """
    if DETECTORS[detector.kind].heuristic is None:
        raise ConfigError(f"convergence applies to heuristic detectors, not {detector.kind!r}")
    base = replace(detector, iters=max_iters)
    checkpoints = tuple(range(0, max_iters + 1))
    for ebn0 in ebn0_list:
        check_operating_point(ebn0, rho, config.m_order)
    n_vectors = n_vectors if n_vectors is not None else config.max_trials
    total_frames = math.ceil(n_vectors / config.n_subcarriers)
    res = resolve_detector(base, rho)
    col_pairs = tuple(((0, a), (0, b)) for a, b in iteration_pairs)
    rows = []
    discordance = {}
    trace = None
    nbits = 0
    with _worker_map(workers) as run:
        for ebn0 in ebn0_list:
            merged = _run_batches(config, [(0, res)], ebn0, rho, total_frames,
                                  checkpoints=checkpoints, pairs=col_pairs,
                                  workers=workers, run=run)
            vectors = merged.vectors[0]
            nbits = vectors * config.bits_per_vector
            for it in checkpoints:
                errs = merged.errors[(0, it)]
                rows.append(ConvergenceRecord(res.label, float(ebn0), float(rho), it,
                                              vectors, errs, errs / nbits))
            for (a, b), cols in zip(iteration_pairs, col_pairs):
                discordance[(float(ebn0), a, b)] = tuple(merged.discordance[cols])
            if trace is None:
                trace = merged.trace
    return ConvergenceStudy(rows, nbits, discordance, trace)


# ---------------------------------------------------------------------------
# Coordinate-descent parameter calibration
# ---------------------------------------------------------------------------

# Candidate grid and start value of every tuned parameter, by name.
DEFAULT_GRIDS = {
    "c1": tuple(np.arange(0.5, 4.01, 0.5)),
    "c2": tuple(np.arange(0.5, 4.01, 0.5)),
    "w0": tuple(np.arange(1.0, 3.51, 0.5)),
    "f_mut": tuple(np.round(np.arange(0.6, 2.001, 0.1), 10)),
    "f_cr": tuple(np.round(np.arange(0.5, 0.901, 0.1), 10)),
}
CALIBRATION_START = {"c1": 2.0, "c2": 2.0, "w0": 1.0, "f_mut": 1.0, "f_cr": 0.5}


@dataclass(frozen=True)
class CalibrationPlan:
    """Coordinate descent schedule: vary one parameter at a time.

    Every candidate evaluation runs until min_error_events bit errors or
    max_vectors trials. Ties pick the smaller candidate value. calibrate
    checks the operating point against its config's m_order.
    """

    parameter_order: tuple
    grids: dict
    start: dict
    ebn0_db: float = 24.0
    rho: float = 0.0
    min_error_events: int = 50
    max_vectors: int = 200_000

    def __post_init__(self):
        for name in self.parameter_order:
            if name not in self.grids or not len(self.grids[name]):
                raise ConfigError(f"parameter {name!r} has no candidate grid")
            if name not in self.start:
                raise ConfigError(f"parameter {name!r} has no start value")


def default_calibration_plan(kind: str, **overrides) -> CalibrationPlan:
    heuristic = DETECTORS[kind].heuristic if kind in DETECTORS else None
    if heuristic is None:
        raise ConfigError(f"calibration applies to heuristic detectors, not {kind!r}")
    names = HEURISTICS[heuristic][0].TUNED
    base = dict(parameter_order=names, grids={n: DEFAULT_GRIDS[n] for n in names},
                start={n: CALIBRATION_START[n] for n in names})
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
    check_operating_point(plan.ebn0_db, plan.rho, config.m_order)
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


def _inf_as_text(value):
    """`value` with every +inf float, the noiseless Eb/N0, as the string
    "inf", which is how the CSV rows write it and the config loader reads
    it back."""
    if isinstance(value, float) and value == math.inf:
        return "inf"
    if isinstance(value, dict):
        return {key: _inf_as_text(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_inf_as_text(v) for v in value]
    return value


def _json_text(payload, **kwargs) -> str:
    """Standard JSON: +inf goes in as "inf", and any other non-finite float
    raises ValueError rather than writing a token strict parsers reject."""
    return json.dumps(_inf_as_text(payload), allow_nan=False, sort_keys=True, **kwargs)


def records_to_csv(records, config: SimulationConfig) -> str:
    echo = _json_text(config.to_dict())
    return _csv_text(CSV_COLUMNS, (rec.to_row() for rec in records),
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
    return _csv_text(("detector", "ebn0_db", "rho", "iteration", "trials", "bit_errors", "ber"),
                     ([r.detector, repr(r.ebn0_db), repr(r.rho), r.iteration, r.trials,
                       r.bit_errors, repr(r.ber)] for r in rows))


def fitness_traces_to_csv(detector: str, trace: np.ndarray) -> str:
    """Per-iteration best-fitness rows (detector, trial, iteration, fitness)."""
    trace = np.atleast_2d(trace)
    return _csv_text(("detector", "trial", "iteration", "fitness"),
                     ([detector, trial, it, repr(float(trace[trial, it]))]
                      for trial in range(trace.shape[0]) for it in range(trace.shape[1])))


def calibration_to_csv(result: CalibrationResult) -> str:
    return _csv_text(("detector", "parameter", "candidate", "ber", "bit_errors", "trials"),
                     ([result.detector, ev.parameter, repr(ev.candidate), repr(ev.ber),
                       ev.bit_errors, ev.trials] for ev in result.evaluations))


def complexity_rows_to_csv(rows) -> str:
    return _csv_text(("n_t", "detector", "flops"),
                     ([n_t, kind, repr(flops) if isinstance(flops, float) else flops]
                      for n_t, kind, flops in rows))
