"""Dense complex matrix kernels shared by the channel model and detectors.

Matrices are plain numpy arrays (complex128 / float64). The functions here
add the contracts the simulator relies on: batched inversion that flags
singular matrices, a PSD-safe square root, and seeded Gaussian matrix draws.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream

# Reciprocal condition numbers below this are indistinguishable from
# singular in double precision.
RCOND_FLOOR = 1e-12

# Eigenvalues of a nominally PSD matrix may round slightly negative; anything
# below this is treated as genuinely indefinite.
PSD_EIG_FLOOR = -1e-10


class SingularMatrixError(ValueError):
    """Kept as a name only: perfbench/tracing.py imports it. Nothing in
    mimodet raises it; invert_hermitian flags singular matrices instead."""


def invert_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert a stack of Hermitian matrices (..., q, q) with one solve.

    Returns (inv, failed). A matrix is flagged in `failed` when it holds a
    non-finite entry or its exact 2-norm reciprocal condition number,
    min |eigenvalue| / max |eigenvalue|, is not above RCOND_FLOOR; its
    inverse is returned as zeros. Callers must treat a flag as "this
    subcarrier is erased", never as a zero result. Flagged matrices are
    replaced by I before the solve, because a stacked solve raises for the
    whole stack if a single matrix in it is singular.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    eye = np.eye(a.shape[-1], dtype=complex)
    failed = ~np.isfinite(a).all(axis=(-2, -1))
    safe = np.where(failed[..., None, None], eye, a)
    lam = np.abs(np.linalg.eigvalsh(safe))
    failed |= lam.min(axis=-1) <= RCOND_FLOOR * lam.max(axis=-1)
    inv = np.linalg.solve(np.where(failed[..., None, None], eye, a),
                          np.broadcast_to(eye, a.shape))
    inv[failed] = 0.0
    return inv, failed


def psd_sqrt(r: np.ndarray) -> np.ndarray:
    """Hermitian square root S of a PSD matrix, with S @ S.conj().T == r.

    Uses an eigendecomposition and clamps slightly negative eigenvalues to
    zero, so it stays valid where Cholesky fails (rank-deficient r, e.g.
    fully correlated antenna arrays).
    """
    r = np.asarray(r)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {r.shape}")
    if not np.allclose(r, r.conj().T, rtol=1e-10, atol=1e-10):
        raise ValueError("matrix is not Hermitian")
    eigvals, eigvecs = np.linalg.eigh(r)
    if eigvals.min() < PSD_EIG_FLOOR:
        raise ValueError(f"matrix is indefinite (min eigenvalue {eigvals.min():.3e})")
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return root @ eigvecs.conj().T


def draw_standard_complex_gaussian(rng: RngStream, rows: int, cols: int,
                                   count: int | None = None) -> np.ndarray:
    """Draw i.i.d. circularly-symmetric complex Gaussian matrices.

    Real and imaginary parts are independent N(0, 1/2), so each complex
    entry has unit total variance. With `count` given, returns a stack of
    shape (count, rows, cols) consumed from the stream in one block, which
    is the canonical draw order for multi-matrix generation.
    """
    shape = (2, rows, cols) if count is None else (2, count, rows, cols)
    parts = rng.standard_normal(shape)
    return (parts[0] + 1j * parts[1]) / np.sqrt(2.0)
