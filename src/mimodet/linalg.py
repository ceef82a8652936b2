"""Dense complex matrix kernels shared by the channel model and detectors.

Matrices are plain numpy arrays (complex128 / float64). The functions here
add the contracts the simulator relies on: batched inversion that flags
singular matrices, a PSD-safe square root, and seeded Gaussian matrix draws.

The singularity test of invert_hermitian is the exact eigenvalue rule
lambda_min / lambda_max <= RCOND_FLOOR, but it runs eigvalsh only where it
has to: a system whose inverse already proves it far from that floor, by
the Frobenius bound ||A||_F ||A^-1||_F on its condition number (valid for
any A), skips it. An exactly singular pivot leaves no inverse to prove
anything with, so it sends every finite system of its stack to eigvalsh.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream

# Reciprocal condition numbers below this are indistinguishable from
# singular in double precision.
RCOND_FLOOR = 1e-12

# A system whose bound ||A||_F ||A^-1||_F on its 2-norm condition number
# (valid for any A) is below this is certified non-singular without
# eigvalsh. The 1e3 margin covers the computed inverse's rounding error,
# about kappa * n * eps, and eigvalsh reading only the lower triangle.
CERTIFIED_COND = 1e-3 / RCOND_FLOOR

# Eigenvalues of a nominally PSD matrix may round slightly negative; anything
# below this is treated as genuinely indefinite.
PSD_EIG_FLOOR = -1e-10


class SingularMatrixError(ValueError):
    """Kept as a name only: perfbench/tracing.py imports it. Nothing in
    mimodet raises it; invert_hermitian flags singular matrices instead."""


def _fro2(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a complex (n, q, q) stack,
    as one dot product over each system's float view."""
    n, rows, cols = x.shape
    flat = np.ascontiguousarray(x).view(np.float64).reshape(n, 2 * rows * cols)
    return np.einsum("ij,ij->i", flat, flat)


def invert_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert a stack of Hermitian matrices (..., q, q) with one batched
    inverse.

    Returns (inv, failed). A matrix is flagged in `failed` when it holds a
    non-finite entry or its exact 2-norm reciprocal condition number,
    min |eigenvalue| / max |eigenvalue|, is not above RCOND_FLOOR; its
    inverse is returned as zeros. Callers must treat a flag as "this
    subcarrier is erased", never as a zero result.

    The stack is inverted first, with every non-finite matrix replaced by
    I. A system whose bound ||A||_F ||A^-1||_F, which holds for any A, is
    below CERTIFIED_COND is certified and skips the eigenvalue rule; only
    the rest go through eigvalsh. That includes any whose squared norms
    underflow or overflow, since a product that is NaN or inf never
    compares below the threshold, and a norm that flushes to zero comes
    with an infinite one on the other side. The bound never
    flags a system, so the rule itself is unchanged. If some matrix has an
    exactly singular pivot, the stacked inverse raises for the whole
    stack; then every finite system gets the eigenvalue rule, and the
    stack is inverted once more with the flagged ones replaced by I. Each
    system's inverse depends on that system alone, so both paths return
    the same bytes.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    q = a.shape[-1]
    stack = a.reshape(-1, q, q)
    eye = np.eye(q, dtype=complex)
    failed = ~np.isfinite(stack).reshape(len(stack), q * q).all(axis=1)
    safe = np.where(failed[:, None, None], eye, stack) if failed.any() else stack
    try:
        inv = np.linalg.inv(safe)
    except np.linalg.LinAlgError:
        inv = None
        unproven = ~failed
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # such a bound certifies nothing
            bound = _fro2(safe) * _fro2(inv)
        unproven = ~failed & ~(bound < CERTIFIED_COND ** 2)
    if unproven.any():
        lam = np.abs(np.linalg.eigvalsh(safe[unproven]))
        failed[unproven] = lam.min(axis=-1) <= RCOND_FLOOR * lam.max(axis=-1)
    if inv is None:
        inv = np.linalg.inv(np.where(failed[:, None, None], eye, safe))
    inv[failed] = 0.0
    return inv.reshape(a.shape), failed.reshape(a.shape[:-2])


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
