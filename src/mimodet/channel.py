"""Spatially correlated Rayleigh MIMO channel generation.

Per-subcarrier channel matrices follow the Kronecker model

    H[n] = sqrt(R_r) G[n] sqrt(R_t)^H,

where G[n] has i.i.d. unit-variance complex Gaussian entries and R_t, R_r
are the transmit/receive correlation matrices of a uniform linear array,
R[i, j] = rho^((i - j)^2). The detection experiments draw G[n]
independently per subcarrier. A frequency-selective channel built from
an exponential power delay profile reuses that draw for its taps; it is
the validation path for the per-subcarrier abstraction, checked against
the time-domain chain in `ofdm.time_domain_roundtrip`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import psd_sqrt
from .rng import RngStream


@dataclass(frozen=True)
class CorrelationSpec:
    """ULA spatial correlation: index rho in [0, 1], square N_t = N_r array."""

    rho: float
    n_antennas: int

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")


@dataclass(frozen=True)
class PdpSpec:
    """Exponential power delay profile with RMS delay spread tau_rms.

    Tap l carries power proportional to exp(-l * T_s / tau_rms) with
    T_s = 1 / bandwidth; powers are normalized to sum to one.
    """

    bandwidth: float = 20e6
    tau_rms: float = 64e-9
    n_taps: int = 8

    def __post_init__(self):
        if self.bandwidth <= 0 or self.tau_rms <= 0:
            raise ValueError("bandwidth and tau_rms must be positive")
        if self.n_taps < 1:
            raise ValueError("n_taps must be >= 1")

    def tap_powers(self) -> np.ndarray:
        sample_time = 1.0 / self.bandwidth
        p = np.exp(-np.arange(self.n_taps) * sample_time / self.tau_rms)
        return p / p.sum()


def build_correlation_matrix(spec: CorrelationSpec) -> np.ndarray:
    """Toeplitz ULA correlation matrix with entries rho^((i - j)^2)."""
    idx = np.arange(spec.n_antennas)
    exponents = (idx[:, None] - idx[None, :]) ** 2
    with np.errstate(all="ignore"):
        r = np.float_power(spec.rho, exponents)
    # 0**0 == 1 keeps the unit diagonal at rho = 0.
    return r


def correlation_sqrt(spec: CorrelationSpec) -> np.ndarray:
    """Square root of the ULA correlation matrix (real symmetric)."""
    return psd_sqrt(build_correlation_matrix(spec)).real


def _streams(rng: RngStream | Sequence[RngStream]) -> list[RngStream]:
    return [rng] if isinstance(rng, RngStream) else list(rng)


def _stream_normals(rngs: list[RngStream], shape: tuple) -> np.ndarray:
    """The (len(rngs),) + shape stack of standard normals, one draw of
    `shape` per stream, filled in place in stream order."""
    out = np.empty((len(rngs),) + shape)
    for rng, block in zip(rngs, out):
        rng.standard_normal(shape, out=block)
    return out


def generate_channel(rng: RngStream | Sequence[RngStream], spec: CorrelationSpec,
                     n_subcarriers: int, sqrt_r: np.ndarray | None = None) -> np.ndarray:
    """Draw independent correlated channel matrices, n_subcarriers per stream.

    `rng` is one stream or a sequence of them, one per frame of a task.
    Each stream draws its (2, n_subcarriers, n, n) real and imaginary
    standard normals in one call, and the result stacks the streams'
    matrices in order: (len(rng) * n_subcarriers, n_r, n_t), or
    (n_subcarriers, n_r, n_t) for one stream, which is what the
    concatenated one-stream draws give, bit for bit.

    With rho = 0 it is exactly the raw Gaussian draw G[n]
    (linalg.draw_standard_complex_gaussian); otherwise it is the matrix
    product sqrt(R) (G[n] sqrt(R)), whose association is part of the
    seeded outputs. sqrt(R) is real, so the product runs on the real and
    imaginary parts as one real stack, and the parts are combined last.
    That gives the complex formula's bits: numpy's complex division by
    sqrt(2) multiplies both parts by fl(1 / sqrt(2)), which is the scale
    applied here first, and a complex product with a real operand, whose
    imaginary part is zero, rounds as the real product does (checked
    bit for bit by the tests on OpenBLAS). A precomputed correlation
    square root may be passed to skip the eigendecomposition in tight
    Monte Carlo loops.
    """
    if n_subcarriers < 1:
        raise ValueError("n_subcarriers must be >= 1")
    rngs = _streams(rng)
    n = spec.n_antennas
    parts = _stream_normals(rngs, (2, n_subcarriers, n, n))
    parts *= 1.0 / np.sqrt(2.0)
    if spec.rho != 0.0:
        if sqrt_r is None:
            sqrt_r = correlation_sqrt(spec)
        # sqrt_r is real symmetric, so sqrt(R_t)^H == sqrt_r.
        parts = sqrt_r @ (parts @ sqrt_r)
    h = np.empty((len(rngs), n_subcarriers, n, n), dtype=complex)
    h.real = parts[:, 0]
    h.imag = parts[:, 1]
    return h.reshape(-1, n, n)


def generate_pdp_channel(rng: RngStream, spec: CorrelationSpec, pdp: PdpSpec,
                         n_subcarriers: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequency-selective channel from an exponential power delay profile.

    Returns (taps, h): the (n_taps, n_r, n_t) impulse response, each tap an
    independent correlated draw scaled by the square root of its profile
    power, and its (n_subcarriers, n_r, n_t) DFT. Per-entry subcarrier
    power stays one because tap powers are normalized.
    """
    if pdp.n_taps > n_subcarriers:
        raise ValueError("n_taps must not exceed n_subcarriers")
    taps = generate_channel(rng, spec, pdp.n_taps) * np.sqrt(pdp.tap_powers())[:, None, None]
    return taps, np.fft.fft(taps, n=n_subcarriers, axis=0)


def add_awgn(rng: RngStream | Sequence[RngStream], y_clean: np.ndarray,
             sigma2: float) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise of per-entry variance sigma2.

    With a sequence of streams, y_clean's leading axis holds one equal
    block per stream, and each stream draws its block's noise in one call,
    as a one-stream call on that block would. Noiseless (sigma2 = 0) draws
    nothing.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    y_clean = np.asarray(y_clean)
    if sigma2 == 0.0:
        return y_clean.copy()
    rngs = _streams(rng)
    block = y_clean.shape
    if len(rngs) > 1:
        if len(y_clean) % len(rngs):
            raise ValueError(f"{len(y_clean)} rows do not split into {len(rngs)} equal blocks")
        block = (len(y_clean) // len(rngs),) + block[1:]
    parts = _stream_normals(rngs, (2,) + block)
    noise = (parts[:, 0] + 1j * parts[:, 1]).reshape(y_clean.shape)
    return y_clean + np.sqrt(sigma2 / 2.0) * noise
