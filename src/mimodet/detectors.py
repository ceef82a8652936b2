"""Linear MIMO detectors and the exhaustive maximum-likelihood search.

Linear detection is x_soft = W y with

    MF:   W = H^H
    ZF:   W = (H^H H)^-1 H^H
    MMSE: W = (H^H H + (N0/Es) I)^-1 H^H

followed by nearest-point slicing (see ofdm.demap_symbols). The MF output
is deliberately not column-normalized: quadrant slicing of square QAM is
scale-invariant per real axis. ML detection enumerates every candidate
symbol vector and minimizes ||y - H x||^2.
"""

from __future__ import annotations

import numpy as np

from .complexity import FlopCounter, charge
from .linalg import invert_lu
from .ofdm import Constellation

# Refuse ML searches beyond this many candidates.
ML_CANDIDATE_LIMIT = 1 << 20


def mf_equalizer(h: np.ndarray) -> np.ndarray:
    """Matched filter, W = H^H. The Hermitian itself costs no flops."""
    return np.asarray(h).conj().T


def zf_equalizer(h: np.ndarray) -> np.ndarray:
    """Zero forcing via the left pseudo-inverse.

    Raises linalg.SingularMatrixError for rank-deficient H; callers count
    the affected vector as a detection erasure.
    """
    h = np.asarray(h)
    n_rx, n_tx = h.shape
    gram = h.conj().T @ h
    w = invert_lu(gram) @ h.conj().T
    charge(FlopCounter.add_matmat, 2 * n_tx, 2 * n_tx, 2 * n_rx)
    charge(FlopCounter.add_lu_inversion, 2 * n_tx)
    charge(FlopCounter.add_matmat, 2 * n_tx, 2 * n_rx, 2 * n_tx)
    return w


def mmse_equalizer(h: np.ndarray, n0_over_es: float) -> np.ndarray:
    """MMSE equalizer; reduces to ZF when the noise-to-signal ratio is zero."""
    if n0_over_es < 0:
        raise ValueError("n0_over_es must be >= 0")
    h = np.asarray(h)
    n_rx, n_tx = h.shape
    gram = h.conj().T @ h + n0_over_es * np.eye(n_tx)
    w = invert_lu(gram) @ h.conj().T
    charge(FlopCounter.add_matmat, 2 * n_tx, 2 * n_tx, 2 * n_rx)
    charge(FlopCounter.add, 4 * n_tx * n_tx + 2 * n_tx)  # regularizer scale + add
    charge(FlopCounter.add_lu_inversion, 2 * n_tx)
    charge(FlopCounter.add_matmat, 2 * n_tx, 2 * n_rx, 2 * n_tx)
    return w


def apply_equalizer(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Soft estimate W y. Slicing is the demapper's job, not done here."""
    y = np.asarray(y)
    n_tx, n_rx = w.shape
    if y.shape[-1] != n_rx:
        raise ValueError(f"observation length {y.shape[-1]} != {n_rx}")
    charge(FlopCounter.add_matvec, 2 * n_tx, 2 * n_rx)
    return (w @ y[..., None])[..., 0] if y.ndim > 1 else w @ y


_candidate_cache: dict[tuple, np.ndarray] = {}


def candidate_matrix(constellation: Constellation, n_tx: int) -> np.ndarray:
    """All M**n_tx candidate vectors as columns, lexicographic by point index.

    Column c holds the candidate whose antenna-i point index is digit i of
    c in base M, most significant digit first, so np.argmin over columns
    breaks ties toward the lexicographically smallest candidate.
    """
    m = constellation.order
    total = m ** n_tx
    if total > ML_CANDIDATE_LIMIT:
        raise ValueError(f"search space {m}**{n_tx} exceeds {ML_CANDIDATE_LIMIT} candidates")
    key = (n_tx, constellation.points.tobytes())
    cached = _candidate_cache.get(key)
    if cached is None:
        idx = np.arange(total)
        digits = np.empty((n_tx, total), dtype=int)
        for row in range(n_tx - 1, -1, -1):
            digits[row] = idx % m
            idx = idx // m
        cached = constellation.points[digits]
        _candidate_cache[key] = cached
    return cached


def ml_detect(h: np.ndarray, y: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Exhaustive minimum-distance detection over all symbol vectors."""
    h = np.asarray(h)
    y = np.asarray(y)
    n_rx, n_tx = h.shape
    cands = candidate_matrix(constellation, n_tx)
    dist = np.abs(y[:, None] - h @ cands) ** 2
    charge(FlopCounter.add_fitness_evals, cands.shape[1], n_tx, n_rx)
    best = int(np.argmin(dist.sum(axis=0)))
    return cands[:, best].copy()
