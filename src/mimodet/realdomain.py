"""Equivalent real-valued system and the heuristic fitness function.

A complex system y = H x + z is rewritten as

    [Re y]   [Re H  -Im H] [Re x]
    [Im y] = [Im H   Re H] [Im x]  + noise,

so the swarm/population heuristics can search a real vector space of
dimension 2 * n_tx. The fitness of a candidate is the squared residual
norm ||y_r - H_r zeta||^2, identical to the complex-domain residual.

All functions accept an optional leading batch axis on H_r / y_r /
candidates, which the Monte Carlo engine uses to process all subcarriers
of a frame at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexity import charge, fitness_eval_flops


@dataclass(frozen=True)
class RealSystem:
    """Real-valued detection instance (optionally a batch of them)."""

    h: np.ndarray    # (..., 2 n_rx, 2 n_tx)
    y: np.ndarray    # (..., 2 n_rx)

    @property
    def dim(self) -> int:
        """Search-space dimensionality, 2 * n_tx."""
        return self.h.shape[-1]

    @property
    def n_rx(self) -> int:
        return self.h.shape[-2] // 2

    @property
    def n_tx(self) -> int:
        return self.dim // 2


def realify_vec(x) -> np.ndarray:
    """Stack [Re x; Im x] along the last axis."""
    x = np.asarray(x)
    return np.concatenate([x.real, x.imag], axis=-1)


def complexify(v) -> np.ndarray:
    """Inverse of realify_vec."""
    v = np.asarray(v)
    if v.shape[-1] % 2:
        raise ValueError("real vector length must be even")
    half = v.shape[-1] // 2
    return v[..., :half] + 1j * v[..., half:]


def realify(h, y) -> RealSystem:
    """Build the block real representation of y = H x."""
    h = np.asarray(h)
    y = np.asarray(y)
    if h.shape[-2] != y.shape[-1]:
        raise ValueError(f"channel {h.shape} does not match observation {y.shape}")
    top = np.concatenate([h.real, -h.imag], axis=-1)
    bottom = np.concatenate([h.imag, h.real], axis=-1)
    return RealSystem(np.concatenate([top, bottom], axis=-2), realify_vec(y))


def fitness_columns(sys: RealSystem, candidates) -> np.ndarray:
    """Fitness of a column-stacked candidate set, shape (..., dim, k) -> (..., k)."""
    candidates = np.asarray(candidates)
    res = sys.h @ candidates
    np.subtract(sys.y[..., None], res, out=res)
    evals = res.size // res.shape[-2]
    charge(evals * fitness_eval_flops(sys.n_tx, sys.n_rx), evals)
    return np.einsum("...ik,...ik->...k", res, res)
