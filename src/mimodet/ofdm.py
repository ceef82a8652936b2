"""QAM mapping and the per-subcarrier OFDM transmit/receive model.

The per-subcarrier model y[n] = H[n] x[n] + z[n] is what every detector
sees. Bits map onto an (n_tx, n_subcarriers) symbol grid, one column per
subcarrier. A full time-domain path (IDFT, cyclic prefix, tap convolution,
DFT) is included to verify that the per-subcarrier abstraction is exact
when the prefix covers the channel memory.

4-QAM bit labeling (fixed wire format, must match across implementations):

    bits b1 b0  ->  symbol
    0    0      ->  (+1 + 1j) / sqrt(2)
    0    1      ->  (+1 - 1j) / sqrt(2)
    1    0      ->  (-1 + 1j) / sqrt(2)
    1    1      ->  (-1 - 1j) / sqrt(2)

i.e. the leading bit flips the real sign and the trailing bit flips the
imaginary sign. Only square QAM is built (M a power of 4): higher orders
use per-axis Gray coding with the same sign sense, the leading half of
the label on the real axis, and unit average symbol energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Constellation:
    """Square M-QAM constellation with Gray bit labels and unit mean energy."""

    order: int
    points: np.ndarray        # (M,) complex
    bit_labels: np.ndarray    # (M, log2 M) ints, row i labels points[i]

    @property
    def bits_per_symbol(self) -> int:
        return self.bit_labels.shape[1]


def _gray_levels(n_bits: int) -> np.ndarray:
    """Amplitudes for each bit pattern of one axis, Gray coded.

    Pattern value g (after Gray decode) maps to level L - 1 - 2g with
    L = 2**n_bits, so the all-zero pattern gets the most positive level.
    """
    size = 1 << n_bits
    codes = np.arange(size)
    gray = np.zeros(size, dtype=int)
    for i, c in enumerate(codes):
        g = c
        shift = 1
        while (c >> shift) > 0:
            g ^= c >> shift
            shift += 1
        gray[i] = g
    return (size - 1 - 2 * gray).astype(float)


def is_square_qam(order: int) -> bool:
    """True when order is a power of 4 (4, 16, 64, ...): a square QAM."""
    return order >= 4 and not order & (order - 1) and (order.bit_length() - 1) % 2 == 0


def square_qam(order: int) -> Constellation:
    """Build a square M-QAM constellation, M a power of 4."""
    if not is_square_qam(order):
        raise ValueError(f"order must be a power of 4, got {order}")
    k = order.bit_length() - 1
    half = k // 2
    levels = _gray_levels(half)
    labels = np.array([[int(b) for b in format(m, f"0{k}b")] for m in range(order)])
    weights = 1 << np.arange(half)[::-1]
    raw = levels[labels[:, :half] @ weights] + 1j * levels[labels[:, half:] @ weights]
    energy = np.mean(np.abs(raw) ** 2)
    return Constellation(order, raw / np.sqrt(energy), labels)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise bookkeeping for a target Eb/N0.

    Convention used throughout: unit-energy symbols per transmit stream
    under equal power allocation, log2(M) bits per symbol, so the
    per-entry complex noise variance is

        sigma2 = 1 / (log2(M) * 10**(eb_n0_db / 10)),

    and the MMSE regularizer N0/Es equals sigma2. The convention is
    echoed into simulation outputs so curves can be re-based if needed.
    """

    eb_n0_db: float
    sigma2: float

    @classmethod
    def from_ebn0(cls, eb_n0_db: float, order: int) -> "NoiseSpec":
        bits = np.log2(order)
        sigma2 = float(1.0 / (bits * 10.0 ** (eb_n0_db / 10.0)))
        return cls(eb_n0_db=float(eb_n0_db), sigma2=sigma2)


def map_bits(bits, n_tx: int, constellation: Constellation) -> np.ndarray:
    """Map a bit array onto the (n_tx, n_subcarriers) symbol grid, antenna-major
    per subcarrier."""
    bits = np.asarray(bits, dtype=int).ravel()
    bps = constellation.bits_per_symbol
    group = n_tx * bps
    if bits.size == 0 or bits.size % group:
        raise ValueError(f"bit count {bits.size} not a positive multiple of {group}")
    weights = 1 << np.arange(bps)[::-1]
    idx = bits.reshape(-1, bps) @ weights
    return constellation.points[idx].reshape(-1, n_tx).T


def demap_symbols(symbols, constellation: Constellation) -> np.ndarray:
    """Slice to the nearest constellation point and emit its bit label.

    This is the simulator's only slicer: linear, heuristic and hybrid
    estimates all reach bits through it. An estimate equidistant from
    several points goes to the first of them in `constellation.points`.

    A running argmin over the points keeps memory at O(number of
    estimates): a later point wins only on a strictly smaller distance.
    The points are finite, so an estimate's distance is NaN to every
    point or to none: either it keeps point 0, the first NaN np.argmin
    would pick, or the first smallest distance wins, as with np.argmin.
    """
    flat = np.asarray(symbols).ravel()
    points = constellation.points
    best = np.zeros(flat.shape, dtype=np.intp)
    best_dist = np.abs(flat - points[0])
    for i in range(1, len(points)):
        dist = np.abs(flat - points[i])
        best[dist < best_dist] = i
        np.minimum(best_dist, dist, out=best_dist)
    return np.take(constellation.bit_labels, best, axis=0).ravel()


def time_domain_roundtrip(taps: np.ndarray, symbols: np.ndarray, cp_len: int,
                          allow_short_cp: bool = False) -> np.ndarray:
    """Run an (n_tx, n_subcarriers) symbol grid through the full
    time-domain chain, noiseless.

    IDFT per antenna, cyclic prefix of cp_len samples, linear convolution
    with the (n_taps, n_rx, n_tx) impulse response, prefix removal, DFT.
    Returns the received (n_rx, n_subcarriers) grid, which equals
    fft(taps)[n] @ x[n] per subcarrier whenever cp_len >= n_taps - 1.
    A shorter prefix breaks that equivalence; pass allow_short_cp=True to
    compute the broken result anyway (used to demonstrate the failure).
    """
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim != 3:
        raise ValueError("taps must have shape (n_taps, n_rx, n_tx)")
    n_taps, n_rx, n_tx = taps.shape
    if symbols.ndim != 2 or symbols.shape[0] != n_tx:
        raise ValueError("tap tensor does not match the grid's antenna count")
    if cp_len < n_taps - 1 and not allow_short_cp:
        raise ValueError(f"cp_len {cp_len} shorter than channel memory {n_taps - 1}")
    n = symbols.shape[1]
    time_tx = np.fft.ifft(symbols, axis=1)
    with_cp = time_tx[:, np.arange(-cp_len, n) % n]  # cyclic, even for cp_len > n
    received = np.zeros((n_rx, n + cp_len + n_taps - 1), dtype=complex)
    for j in range(n_rx):
        for i in range(n_tx):
            received[j] += np.convolve(with_cp[i], taps[:, j, i])
    return np.fft.fft(received[:, cp_len:cp_len + n], axis=1)
