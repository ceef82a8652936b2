"""Linear MIMO detectors and the exhaustive maximum-likelihood search.

Linear detection is x_soft = W y with

    MF:   W = H^H
    ZF:   W = (H^H H)^-1 H^H
    MMSE: W = (H^H H + (N0/Es) I)^-1 H^H

computed for a whole stack of channels at once (linear_weights), followed
by nearest-point slicing (see ofdm.demap_symbols). The MF output is
deliberately not column-normalized: quadrant slicing of square QAM is
scale-invariant per real axis. ML detection enumerates every candidate
symbol vector and minimizes ||y - H x||^2.
"""

from __future__ import annotations

import numpy as np

from .complexity import FlopCounter, charge
from .linalg import invert_hermitian
from .ofdm import Constellation

# Refuse ML searches beyond this many candidates.
ML_CANDIDATE_LIMIT = 1 << 20


def linear_weights(kind: str, hs: np.ndarray, n0_over_es: float) -> tuple[np.ndarray, np.ndarray]:
    """Equalizer stack W (..., n_t, n_r) of "mf", "zf" or "mmse" for the
    channel stack hs (..., n_r, n_t); n0_over_es is read by MMSE only.

    Returns (w, failed). ZF and MMSE flag every system whose Gram matrix
    linalg.invert_hermitian rejects, and return zero W for it; callers
    count such a vector as a detection erasure. MF never fails, and the
    Hermitian itself costs no flops.
    """
    if kind not in ("mf", "zf", "mmse"):
        raise ValueError(f"unknown linear detector {kind!r}")
    hs = np.asarray(hs)
    hh = np.conj(np.swapaxes(hs, -1, -2))
    if kind == "mf":
        return hh, np.zeros(hs.shape[:-2], dtype=bool)
    if kind == "mmse" and n0_over_es < 0:
        raise ValueError("n0_over_es must be >= 0")
    n_rx, n_tx = hs.shape[-2:]
    gram = hh @ hs
    if kind == "mmse":
        gram = gram + n0_over_es * np.eye(n_tx)
    inv, failed = invert_hermitian(gram)
    for _ in range(failed.size):
        charge(FlopCounter.add_matmat, 2 * n_tx, 2 * n_tx, 2 * n_rx)
        if kind == "mmse":
            charge(FlopCounter.add, 4 * n_tx * n_tx + 2 * n_tx)  # regularizer scale + add
        charge(FlopCounter.add_lu_inversion, 2 * n_tx)
        charge(FlopCounter.add_matmat, 2 * n_tx, 2 * n_rx, 2 * n_tx)
    w = inv @ hh
    w[failed] = 0.0  # also where a non-finite H would leave 0 * inf
    return w, failed


def apply_equalizer(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Soft estimates W y for W (..., n_t, n_r) and y (..., n_r), broadcast
    over the leading axes. Slicing is the demapper's job, not done here."""
    w = np.asarray(w)
    y = np.asarray(y)
    n_tx, n_rx = w.shape[-2:]
    if y.shape[-1] != n_rx:
        raise ValueError(f"observation length {y.shape[-1]} != {n_rx}")
    soft = (w @ y[..., None])[..., 0]
    for _ in range(soft.size // n_tx):
        charge(FlopCounter.add_matvec, 2 * n_tx, 2 * n_rx)
    return soft


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
