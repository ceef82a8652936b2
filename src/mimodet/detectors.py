"""Linear MIMO detectors and the exhaustive maximum-likelihood search.

Every detector here reads the normal equations of a system y = H x + z:
the Gram G = H^H H and the matched-filter output b = H^H y. Linear
detection is

    MF:   x_soft = b
    ZF:   x_soft = G^-1 b
    MMSE: x_soft = (G + (N0/Es) I)^-1 b

which is W y for the usual W = H^H, (H^H H)^-1 H^H and so on, without
forming W. linear_stage forms what a whole stack of systems needs in one
pass: one conjugate of H, one b, one Gram, and one stacked inverse for
ZF and MMSE together; apply_equalizer turns the stage into one kind's
soft estimates. The flop ledger still charges each kind its own model
count, W product included. The detectors return the soft estimate;
ofdm.demap_symbols, the only slicer, turns it into bits and states the
tie rule. The MF output is deliberately not column-normalized: quadrant
slicing of square QAM is scale-invariant per real axis.

ML detection (ml_detect) enumerates every candidate symbol vector and
minimizes ||y - H c||^2, for a whole stack of systems at once, from the
same G and b: c^H G c - 2 Re(b^H c) equals ||y - H c||^2 - ||y||^2. That
is the dot product of the system's coefficient row
[G_kk, 2 Re G_kl, -2 Im G_kl (k < l), -2 Re b_k, -2 Im b_k], which
linear_stage builds, with the candidate's monomial column
[|c_k|^2, Re(c_k* c_l), Im(c_k* c_l), Re c_k, Im c_k] (n_t^2 + 2 n_t = 24
entries at 4x4). So one (rows x K) @ (K x block) matrix product scores
a chunk of systems against a block of up to ML_BLOCK candidates, with
rows x block at most ML_SCORES, and a running argmin over the blocks
lets a later block win only on a strictly smaller score: ties go to the
lowest candidate index of candidate_matrix.
Each system's row of scores depends on that system alone (a one-system
chunk is scored as two rows, since a one-row product rounds
differently), so a stack's decisions do not depend on how many systems
it holds. A system with a non-finite coefficient gets candidate 0. The
flop ledger charges each system M^n_t fitness evaluations, the model
count of the search, not the arithmetic of the matrix product.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .complexity import DETECTORS, charge, fitness_eval_flops, flops_primitive
from .linalg import invert_hermitian
from .ofdm import Constellation

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


# The linear part of every registered detector.
LINEAR_KINDS = tuple(dict.fromkeys(family.linear for family in DETECTORS.values()
                                   if family.linear))
# The kinds linear_stage serves: the linear kinds, and ML, whose rows it builds from the Gram.
STAGE_KINDS = LINEAR_KINDS + ("ml",)


class LinearStage(NamedTuple):
    """What linear_stage forms for a stack of systems y = H x + z."""

    matched: np.ndarray          # b = H^H y (..., n_t), the matched filter
    ml_rows: np.ndarray | None   # ML's coefficient rows (..., n_t^2 + 2 n_t), for ML only
    equalizers: dict             # kind -> (Gram inverse, or None for MF; failed flags)
    n_rx: int                    # receive antennas, which the flop models read


def linear_stage(kinds, hs: np.ndarray, ys: np.ndarray, n0_over_es: float) -> LinearStage:
    """The normal equations of the channel stack hs (..., n_r, n_t) and
    observations ys (..., n_r), and the equalizers of `kinds`, a subset of
    STAGE_KINDS ("mf", "zf", "mmse", "ml"); n0_over_es is read by MMSE
    only. apply_equalizer and ml_detect read the result.

    H is conjugated once. MF's operand H^H is the transposed view of that
    conjugate, and b is its product with y; that product's rounding
    depends on the operand's layout, so b is formed from the view, never
    from a copy. The Gram is formed, only when ZF, MMSE or ML is asked
    for, from a C-contiguous copy of H^H: BLAS multiplies it faster than
    the transposed view and gives the same bytes. ML's coefficient rows
    are built from that Gram and b (_ml_rows) before MMSE adds its
    regularizer. The ZF and MMSE Grams share one preallocated
    (kind, ..., n_t, n_t) stack, inverted in one invert_hermitian call,
    and the stage keeps no Gram. Each system's result depends on that
    system and kind alone, so the stage returns the bytes a single-kind
    call does, for a stack of any size.

    ZF and MMSE flag every system whose Gram matrix
    linalg.invert_hermitian rejects; apply_equalizer returns zero soft
    estimates for it, and callers count such a vector as a detection
    erasure. The rule is the exact eigenvalue test
    lambda_min / lambda_max <= RCOND_FLOOR, but a Gram whose inverse
    bounds its condition number below CERTIFIED_COND skips it. An exactly
    singular Gram leaves the stack without an inverse, so every finite
    Gram of either kind then takes the exact test (invert_hermitian's one
    fallback). MF never fails. The flop ledger charges each linear kind
    its model count per system, as if it ran alone: the Gram inverse
    times H^H that the model counts is charged though never formed, and
    the shared Gram earns no credit. ML is charged by its search.
    """
    unknown = [kind for kind in kinds if kind not in STAGE_KINDS]
    if unknown:
        raise ValueError(f"unknown linear stage kind {unknown[0]!r}")
    if "mmse" in kinds and n0_over_es < 0:
        raise ValueError("n0_over_es must be >= 0")
    hs = np.asarray(hs)
    ys = np.asarray(ys)
    if ys.shape != hs.shape[:-1]:
        raise ValueError(f"channel {hs.shape} does not match observation {ys.shape}")
    n_rx, n_tx = hs.shape[-2:]
    n_sys = int(np.prod(hs.shape[:-2], dtype=int))
    hh = np.swapaxes(np.conj(hs), -1, -2)
    with np.errstate(invalid="ignore"):  # a non-finite H is flagged below
        matched = (hh @ ys[..., None])[..., 0]
    matvec = flops_primitive("matvec", m=2 * n_tx, q=2 * n_rx)  # the model's W y
    equalizers = {}
    if "mf" in kinds:
        equalizers["mf"] = None, np.zeros(hs.shape[:-2], dtype=bool)
        charge(n_sys * matvec)
    inverted = [kind for kind in ("zf", "mmse") if kind in kinds]
    if not inverted and "ml" not in kinds:
        return LinearStage(matched, None, equalizers, n_rx)
    grams = np.empty((max(len(inverted), 1),) + hs.shape[:-2] + (n_tx, n_tx),
                     dtype=np.result_type(hs, np.float64))
    with np.errstate(invalid="ignore"):
        np.matmul(np.ascontiguousarray(hh), hs, out=grams[0])
    del hh  # the conjugate is freed before the inverse, which bounds the stage's peak memory
    ml_rows = _ml_rows(grams[0], matched) if "ml" in kinds else None
    if "mmse" in kinds:
        np.add(grams[0], n0_over_es * np.eye(n_tx), out=grams[-1])
    if inverted:
        inv, failed = invert_hermitian(grams)
        per_system = (flops_primitive("matmat", m=2 * n_tx, p=2 * n_tx, q=2 * n_rx)
                      + flops_primitive("lu_inversion", q=2 * n_tx)
                      + flops_primitive("matmat", m=2 * n_tx, p=2 * n_rx, q=2 * n_tx)
                      + matvec)
        for k, kind in enumerate(inverted):
            cost = per_system + (4 * n_tx * n_tx + 2 * n_tx if kind == "mmse" else 0)  # regularizer
            charge(n_sys * cost)
            equalizers[kind] = inv[k], failed[k, ...]
    return LinearStage(matched, ml_rows, equalizers, n_rx)


def apply_equalizer(stage: LinearStage, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Soft estimates (..., n_t) of the linear kind `kind` from its stage,
    and the stage's failed flags: MF's are b itself, ZF's and MMSE's the
    kind's Gram inverse times b, zero for every flagged system. Slicing
    is the demapper's job, not done here."""
    inv, failed = stage.equalizers[kind]
    if inv is None:
        return stage.matched, failed
    with np.errstate(invalid="ignore"):  # 0 * inf on the flagged systems
        soft = (inv @ stage.matched[..., None])[..., 0]
    soft[failed] = 0.0  # also where a non-finite H would leave 0 * inf
    return soft, failed


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
def _pairs(n_tx: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (k, l), k < l, of an n_tx-antenna vector, read-only."""
    iu, ju = np.triu_indices(n_tx, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _block_monomials(constellation: Constellation, n_tx: int, start: int) -> np.ndarray:
    """Monomial columns [|c_k|^2; Re(c_k* c_l); Im(c_k* c_l) (k < l);
    Re c_k; Im c_k] of candidate_matrix's block [start, start + ML_BLOCK);
    cached, read-only, when that block is the whole search."""
    key = (n_tx, constellation.points.tobytes())
    cached = _monomial_cache.get(key)
    if cached is not None:
        return cached
    cands = candidate_matrix(constellation, n_tx)
    c = cands[:, start:start + ML_BLOCK]
    iu, ju = _pairs(n_tx)
    cross = np.conj(c[iu]) * c[ju]
    mono = np.concatenate([c.real * c.real + c.imag * c.imag, cross.real, cross.imag,
                           c.real, c.imag])
    if cands.shape[1] <= ML_BLOCK:
        mono.flags.writeable = False
        _monomial_cache[key] = mono
    return mono


def _ml_rows(gram: np.ndarray, matched: np.ndarray) -> np.ndarray:
    """ML's coefficient rows [G_kk, 2 Re G_kl, -2 Im G_kl (k < l),
    -2 Re b_k, -2 Im b_k] of Grams G (..., n_t, n_t) and matched-filter
    outputs b (..., n_t)."""
    iu, ju = _pairs(matched.shape[-1])
    off = gram[..., iu, ju]
    return np.concatenate([np.diagonal(gram, axis1=-2, axis2=-1).real, 2 * off.real,
                           -2 * off.imag, -2 * matched.real, -2 * matched.imag], axis=-1)


def _ml_block_best(coef: np.ndarray, mono: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and value of each coefficient row's smallest score against
    one block's monomials; the scores die with the call."""
    if len(coef) == 1:  # a one-row product rounds differently from a chunk's
        idx, score = _ml_block_best(np.repeat(coef, 2, axis=0), mono)
        return idx[:1], score[:1]
    scores = coef @ mono
    idx = np.argmin(scores, axis=1)
    return idx, np.take_along_axis(scores, idx[:, None], axis=1)[:, 0]


def ml_detect(stage: LinearStage, constellation: Constellation) -> np.ndarray:
    """Exhaustive minimum-distance detection over all symbol vectors.

    `stage` is linear_stage's result for a stack with "ml" among its
    kinds, whose coefficient rows it scores; the result is the (..., n_t)
    stack of decisions, scored as the module docstring describes. The
    rows go through in chunks of ML_SCORES // block systems to each
    block's scores, so only the rows grow with the stack. Each block's
    monomials are built once per call.
    """
    if stage.ml_rows is None:
        raise ValueError("the stage holds no ML coefficient rows: ask linear_stage for 'ml'")
    n_tx = stage.matched.shape[-1]
    cands = candidate_matrix(constellation, n_tx)
    total = cands.shape[1]
    batch = stage.matched.shape[:-1]
    coef = stage.ml_rows.reshape(-1, stage.ml_rows.shape[-1])
    n_sys = len(coef)
    charge(n_sys * total * fitness_eval_flops(n_tx, stage.n_rx), n_sys * total)
    rows = ML_SCORES // min(total, ML_BLOCK)
    chunks = [slice(lo, lo + rows) for lo in range(0, n_sys, rows)]
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
