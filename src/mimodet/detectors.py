"""Linear MIMO detectors and the exhaustive maximum-likelihood search.

Linear detection is x_soft = W y with

    MF:   W = H^H
    ZF:   W = (H^H H)^-1 H^H
    MMSE: W = (H^H H + (N0/Es) I)^-1 H^H

computed for a whole stack of channels at once. linear_stage computes
every linear kind a stack needs in one pass: one H^H, one Gram, and one
stacked inverse for ZF and MMSE together; one kind's (W, failed) pair is
linear_stage({kind}, hs, n0_over_es)[kind]. The flop ledger still
charges each kind its own model count. The detectors return the soft
estimate; ofdm.demap_symbols, the only slicer, turns it into bits and
states the tie rule. The MF output is deliberately not column-normalized:
quadrant slicing of square QAM is scale-invariant per real axis.

ML detection (ml_detect) enumerates every candidate symbol vector and
minimizes ||y - H c||^2, for a whole stack of systems at once. It scores
in the real domain (realdomain.realify) with G = H_r^T H_r and
b = H_r^T y_r per system: c^T G c - 2 b^T c equals ||y - H c||^2 - ||y||^2,
and it is the dot product of the system's coefficient row
[G_kk, 2 G_kl (k < l), -2 b_k] with the candidate's monomial column
[c_k^2, c_k c_l, c_k] (44 entries at 4x4). So one (rows x K) @ (K x block)
matrix product scores a chunk of systems against a block of up to
ML_BLOCK candidates, with rows x block at most ML_SCORES, and a running
argmin over the blocks lets a later block win only on a strictly smaller
score: ties go to the lowest candidate index of candidate_matrix. Each
system's row of scores depends on that system alone (a one-system chunk
is scored as two rows, since a one-row product rounds differently), so a
stack's decisions do not depend on how many systems it holds. A system
with a non-finite coefficient gets candidate 0. The flop ledger charges
each system M^n_t fitness evaluations, the model count of the search, not
the arithmetic of the matrix product.
"""

from __future__ import annotations

import functools

import numpy as np

from .complexity import DETECTORS, charge, fitness_eval_flops, flops_primitive
from .linalg import invert_hermitian
from .ofdm import Constellation
from .realdomain import realify

# Refuse ML searches beyond this many candidates.
ML_CANDIDATE_LIMIT = 1 << 20
# Candidates ml_detect scores per matrix product, up to ML_CANDIDATE_LIMIT.
ML_BLOCK = 4096
# Score entries one product may hold (1 MB): 512 systems of a 256-candidate
# search, 32 against a full block. ml_detect scores a larger stack in
# chunks of systems, so its temporaries stay bounded whatever the number
# of systems. On perfbench's linear_ml_sweep (2-core x86-64, glibc 2.36), a
# 1024-system chunk (2 MB) raised peak RSS by about 10%, and 256 systems
# (512 KB) made glibc trim and re-fault about 5 MB of heap per task. Both
# were measured under glibc's dynamic heap thresholds, which engine runs
# now fix (runtime._runtime_policy), so the re-faulting no longer bears on
# the size.
ML_SCORES = 32 * ML_BLOCK


# The kinds linear_stage computes: the linear part of every registered detector.
LINEAR_KINDS = tuple(dict.fromkeys(family.linear for family in DETECTORS.values()
                                   if family.linear))


def linear_stage(kinds, hs: np.ndarray, n0_over_es: float) -> dict:
    """Equalizer stacks W (..., n_t, n_r) of the linear kinds `kinds`
    ("mf", "zf", "mmse") for the channel stack hs (..., n_r, n_t), as
    {kind: (w, failed)}; n0_over_es is read by MMSE only.

    The Gram H^H H is formed once, and the ZF and MMSE Grams are
    written into one preallocated (kind, ..., n_t, n_t) stack, inverted in
    one invert_hermitian call and multiplied by H^H in one product. Each
    system's result depends on that system and kind alone, so the stage
    returns the bytes a single-kind call does, for a stack of any size.
    MF's W is H^H itself, the conjugate of a transposed view, never copied
    into a stack: apply_equalizer's rounding depends on its layout.
    ZF and MMSE use their own C-contiguous H^H, built only when one of them
    is asked for, in both the Gram and the W product: BLAS multiplies
    C-contiguous operands faster than transposed ones and gives the same
    bytes, and an MMSE-only stage still holds a single H^H.

    ZF and MMSE flag every system whose Gram matrix
    linalg.invert_hermitian rejects, and return zero W for it; callers
    count such a vector as a detection erasure. The rule is the exact
    eigenvalue test lambda_min / lambda_max <= RCOND_FLOOR, but a Gram
    whose inverse bounds its condition number below CERTIFIED_COND skips
    it. An exactly singular Gram leaves the stack without an inverse, so
    every finite Gram of either kind then takes the exact test
    (invert_hermitian's one fallback). MF never fails, and the Hermitian
    itself costs no flops. The flop ledger charges each kind its model
    count per system, as if it ran alone: the shared Gram earns no credit.
    """
    unknown = [kind for kind in kinds if kind not in LINEAR_KINDS]
    if unknown:
        raise ValueError(f"unknown linear detector {unknown[0]!r}")
    hs = np.asarray(hs)
    out = {}
    if "mf" in kinds:
        out["mf"] = np.conj(np.swapaxes(hs, -1, -2)), np.zeros(hs.shape[:-2], dtype=bool)
    inverted = [kind for kind in ("zf", "mmse") if kind in kinds]
    if not inverted:
        return out
    if "mmse" in inverted and n0_over_es < 0:
        raise ValueError("n0_over_es must be >= 0")
    n_rx, n_tx = hs.shape[-2:]
    hh = np.conj(np.swapaxes(hs, -1, -2), order="C")
    grams = np.empty((len(inverted),) + hs.shape[:-2] + (n_tx, n_tx),
                     dtype=np.result_type(hs, np.float64))
    with np.errstate(invalid="ignore"):  # a non-finite H is flagged below
        np.matmul(hh, hs, out=grams[0])
    if "mmse" in inverted:
        np.add(grams[0], n0_over_es * np.eye(n_tx), out=grams[-1])
    inv, failed = invert_hermitian(grams)
    del grams  # freed before W is formed, which bounds the stage's peak memory
    with np.errstate(invalid="ignore"):  # 0 * inf on the flagged systems
        w = inv @ hh
    w[failed] = 0.0  # also where a non-finite H would leave 0 * inf
    per_system = (flops_primitive("matmat", m=2 * n_tx, p=2 * n_tx, q=2 * n_rx)
                  + flops_primitive("lu_inversion", q=2 * n_tx)
                  + flops_primitive("matmat", m=2 * n_tx, p=2 * n_rx, q=2 * n_tx))
    for k, kind in enumerate(inverted):
        cost = per_system + (4 * n_tx * n_tx + 2 * n_tx if kind == "mmse" else 0)  # regularizer
        charge(failed[k].size * cost)
        out[kind] = w[k], failed[k, ...]
    return out


def apply_equalizer(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Soft estimates W y for W (..., n_t, n_r) and y (..., n_r), broadcast
    over the leading axes. Slicing is the demapper's job, not done here."""
    w = np.asarray(w)
    y = np.asarray(y)
    n_tx, n_rx = w.shape[-2:]
    if y.shape[-1] != n_rx:
        raise ValueError(f"observation length {y.shape[-1]} != {n_rx}")
    soft = (w @ y[..., None])[..., 0]
    charge(soft.size // n_tx * flops_primitive("matvec", m=2 * n_tx, q=2 * n_rx))
    return soft


_candidate_cache: dict[tuple, np.ndarray] = {}
# Monomial matrices of searches that fit one ML_BLOCK, by candidate key;
# a larger search rebuilds its blocks, so it never holds more than one.
_monomial_cache: dict[tuple, np.ndarray] = {}


def candidate_matrix(constellation: Constellation, n_tx: int) -> np.ndarray:
    """All M**n_tx candidate vectors as columns, lexicographic by point index.

    Column c holds the candidate whose antenna-i point index is digit i of
    c in base M, most significant digit first, so ml_detect, which breaks
    ties toward the lowest column, picks the lexicographically smallest.
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


@functools.cache  # np.triu_indices costs more than a 256-candidate block's scoring
def _pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (k, l), k < l, of a dim-dimensional real vector, read-only."""
    iu, ju = np.triu_indices(dim, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _monomials(c: np.ndarray) -> np.ndarray:
    """Monomial columns [c_k^2; c_k c_l (k < l); c_k] of real candidates c (dim, k)."""
    iu, ju = _pairs(c.shape[0])
    return np.concatenate([c * c, c[iu] * c[ju], c])


def _block_monomials(constellation: Constellation, n_tx: int, start: int) -> np.ndarray:
    """Monomial columns of candidate_matrix's block [start, start + ML_BLOCK)
    in the real domain; cached, read-only, when that block is the whole
    search."""
    key = (n_tx, constellation.points.tobytes())
    cached = _monomial_cache.get(key)
    if cached is not None:
        return cached
    cands = candidate_matrix(constellation, n_tx)
    block = cands[:, start:start + ML_BLOCK]
    mono = _monomials(np.concatenate([block.real, block.imag]))
    if cands.shape[1] <= ML_BLOCK:
        mono.flags.writeable = False
        _monomial_cache[key] = mono
    return mono


def _ml_coefficients(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficient rows [G_kk, 2 G_kl (k < l), -2 b_k] of the systems
    h (n, n_r, n_t), y (n, n_r), with G = H_r^T H_r and b = H_r^T y_r.

    G is formed from a C-contiguous copy of H_r^T: BLAS multiplies it
    several times faster than the transposed view and gives the same
    bytes. b stays on the view: with a contiguous H_r^T the matrix-vector
    product takes another BLAS path, whose bits differ."""
    real = realify(h, y)
    ht = np.swapaxes(real.h, -1, -2)
    g = np.ascontiguousarray(ht) @ real.h
    b = (ht @ real.y[..., None])[..., 0]
    iu, ju = _pairs(real.dim)
    return np.concatenate([np.diagonal(g, axis1=-2, axis2=-1), 2 * g[..., iu, ju], -2 * b],
                          axis=-1)


def _ml_block_best(coef: np.ndarray, mono: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and value of each coefficient row's smallest score against
    one block's monomials; the scores die with the call."""
    if len(coef) == 1:  # a one-row product rounds differently from a chunk's
        idx, score = _ml_block_best(np.repeat(coef, 2, axis=0), mono)
        return idx[:1], score[:1]
    scores = coef @ mono
    idx = np.argmin(scores, axis=1)
    return idx, np.take_along_axis(scores, idx[:, None], axis=1)[:, 0]


def ml_detect(h: np.ndarray, y: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Exhaustive minimum-distance detection over all symbol vectors.

    h is (..., n_r, n_t) and y (..., n_r), with the same leading axes; the
    result is the (..., n_t) stack of decisions, scored as the module
    docstring describes. Systems go through in chunks of
    ML_SCORES // block, from the real-domain system to each block's
    scores, so only the coefficient rows grow with the stack; each
    block's monomials are built once per call.
    """
    h = np.asarray(h)
    y = np.asarray(y)
    n_rx, n_tx = h.shape[-2:]
    if y.shape != h.shape[:-1]:
        raise ValueError(f"channel {h.shape} does not match observation {y.shape}")
    cands = candidate_matrix(constellation, n_tx)
    total = cands.shape[1]
    batch = y.shape[:-1]
    h = h.reshape(-1, n_rx, n_tx)
    y = y.reshape(-1, n_rx)
    n_sys = len(h)
    charge(n_sys * total * fitness_eval_flops(n_tx, n_rx), n_sys * total)
    rows = ML_SCORES // min(total, ML_BLOCK)
    chunks = [slice(lo, lo + rows) for lo in range(0, n_sys, rows)]
    dim = 2 * n_tx
    coef = np.empty((n_sys, 2 * dim + dim * (dim - 1) // 2))  # _ml_coefficients' rows
    for chunk in chunks:
        coef[chunk] = _ml_coefficients(h[chunk], y[chunk])
    best = np.zeros(n_sys, dtype=np.intp)
    best_score = np.full(n_sys, np.inf)
    for start in range(0, total, ML_BLOCK):
        mono = _block_monomials(constellation, n_tx, start)
        for chunk in chunks:
            idx, score = _ml_block_best(coef[chunk], mono)
            win = score < best_score[chunk]  # strictly: an equal later score keeps the earlier index
            best[chunk][win] = idx[win] + start
            best_score[chunk][win] = score[win]
    best[~np.isfinite(coef).all(axis=1)] = 0
    return cands[:, best].T.reshape(batch + (n_tx,))
