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

from dataclasses import dataclass

import numpy as np

from .linalg import draw_standard_complex_gaussian, psd_sqrt
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


def generate_channel(rng: RngStream, spec: CorrelationSpec, n_subcarriers: int,
                     sqrt_r: np.ndarray | None = None) -> np.ndarray:
    """Draw independent correlated channel matrices, one per subcarrier.

    Returns the (n_subcarriers, n_r, n_t) stack. With rho = 0 it is exactly
    the raw Gaussian draw G[n]; otherwise it is the matrix product
    sqrt(R) (G[n] sqrt(R)), whose rounding is part of the seeded outputs.
    A precomputed correlation square root may be passed to skip the
    eigendecomposition in tight Monte Carlo loops.
    """
    if n_subcarriers < 1:
        raise ValueError("n_subcarriers must be >= 1")
    n = spec.n_antennas
    g = draw_standard_complex_gaussian(rng, n, n, count=n_subcarriers)
    if spec.rho == 0.0:
        return g
    if sqrt_r is None:
        sqrt_r = correlation_sqrt(spec)
    # sqrt_r is real symmetric, so sqrt(R_t)^H == sqrt_r.
    return sqrt_r @ (g @ sqrt_r)


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


def add_awgn(rng: RngStream, y_clean: np.ndarray, sigma2: float) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise of per-entry variance sigma2."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    y_clean = np.asarray(y_clean)
    if sigma2 == 0.0:
        return y_clean.copy()
    parts = rng.standard_normal((2,) + y_clean.shape)
    return y_clean + np.sqrt(sigma2 / 2.0) * (parts[0] + 1j * parts[1])
