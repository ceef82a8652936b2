"""Simulation configuration: the JSON schema, its load-time checks and the
calibrated heuristic defaults.

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

A detector field that is null means the same as one left out: it picks up
its default, which for the tuned coefficients is the calibrated value for
the operating point's correlation index (CALIBRATED_* below). A field the
detector's kind does not read, set to anything but null or its default,
is a configuration error.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .complexity import DETECTORS
from .detectors import ML_CANDIDATE_LIMIT
from .heuristics import DeParams, HeuristicParams, PsoParams, check_integers
from .ofdm import is_square_qam, noise_variance

DEFAULT_HYBRID_ITERS = 15
DEFAULT_RANDOM_ITERS = 100

# Calibrated heuristic parameters per initialization and correlation index
# (coordinate-descent outcome at Eb/N0 = 24 dB). A point takes the row of
# the nearest rho; a tie goes to the row listed first.
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


def _inf_as_text(value):
    """`value` with every +inf float, the noiseless Eb/N0, as the string
    "inf", which is how the outputs write it and _inf_from_text reads it
    back."""
    if isinstance(value, float) and value == math.inf:
        return "inf"
    if isinstance(value, dict):
        return {key: _inf_as_text(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_inf_as_text(v) for v in value]
    return value


def _inf_from_text(value):
    """A config value with "inf", which outputs write for +inf
    (_inf_as_text), read back as +inf."""
    return math.inf if value == "inf" else value


@dataclass(frozen=True)
class DetectorConfig:
    """One detector selection; None fields resolve to calibrated defaults.

    A kind reads the fields of its heuristic's parameter class and no
    others; any other field must be None or keep its default.
    """

    kind: str
    n_pop: int | None = None
    iters: int | None = None
    c1: float | None = None
    c2: float | None = None
    w0: float | None = None
    f_mut: float | None = None
    f_cr: float | None = None
    v_max: float | None = PsoParams.v_max
    search_lo: float | None = HeuristicParams.search_lo
    search_hi: float | None = HeuristicParams.search_hi

    def __post_init__(self):
        if self.kind not in DETECTORS:
            raise ConfigError(f"unknown detector kind {self.kind!r}")
        heuristic, linear = DETECTORS[self.kind]
        used = {f.name for f in fields(HEURISTICS[heuristic][0])} if heuristic else set()
        if linear:  # a seeded start never reads the search box
            used -= {"search_lo", "search_hi"}
        unused = [f.name for f in fields(self)[1:]  # after kind
                  if f.name not in used and getattr(self, f.name) not in (None, f.default)]
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
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown detector fields: {sorted(unknown)}")
        # null is left out, so the field keeps its default and echoes it
        d = {name: value for name, value in d.items() if value is not None}
        if "v_max" in d:
            d["v_max"] = _inf_from_text(d["v_max"])
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
    rows = table[linear or "random"]
    values = dict(zip(cls.TUNED, rows[min(rows, key=lambda r: abs(r - rho))]))
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
        return asdict(self)

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
