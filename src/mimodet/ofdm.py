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

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Constellation:
    """Square M-QAM constellation with Gray bit labels and unit mean energy."""

    order: int
    points: np.ndarray        # (M,) complex
    bit_labels: np.ndarray    # (M, log2 M) ints, row i labels points[i]
    levels: np.ndarray        # (L,) per-axis amplitudes, indexed by bit pattern

    @property
    def bits_per_symbol(self) -> int:
        return self.bit_labels.shape[1]


def is_square_qam(order: int) -> bool:
    """True when order is a power of 4 (4, 16, 64, ...): a square QAM."""
    return order >= 4 and not order & (order - 1) and (order.bit_length() - 1) % 2 == 0


def square_qam(order: int) -> Constellation:
    """Build a square M-QAM constellation, M a power of 4. Per axis, the
    Gray pattern j ^ (j >> 1) gets amplitude L - 1 - 2j."""
    if not is_square_qam(order):
        raise ValueError(f"order must be a power of 4, got {order}")
    half = (order.bit_length() - 1) // 2
    size = 1 << half
    j = np.arange(size)
    amplitude = np.empty(size)
    amplitude[j ^ (j >> 1)] = size - 1 - 2 * j
    m = np.arange(order)
    labels = (m[:, None] >> np.arange(2 * half)[::-1]) & 1
    raw = amplitude[m >> half] + 1j * amplitude[m & (size - 1)]
    points = raw / np.sqrt(np.mean(np.abs(raw) ** 2))
    return Constellation(order, points, labels, points[::size].real)


def noise_variance(eb_n0_db: float, order: int) -> float:
    """Per-entry complex noise variance sigma2 for a target Eb/N0.

    Convention used throughout: unit-energy symbols per transmit stream
    under equal power allocation, log2(M) bits per symbol, so

        sigma2 = 1 / (log2(M) * 10**(eb_n0_db / 10)),

    and the MMSE regularizer N0/Es equals sigma2. The convention is
    echoed into simulation outputs so curves can be re-based if needed.
    Eb/N0 = +inf is the noiseless point, sigma2 = 0. Raise ValueError
    unless sigma2 is a finite double: Eb/N0 = NaN or -inf, or a finite
    value so far from 0 dB that the power or its inverse overflows.
    """
    eb_n0_db = float(eb_n0_db)
    try:
        sigma2 = 1.0 / (math.log2(order) * 10.0 ** (eb_n0_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma2 = math.inf
    if not math.isfinite(sigma2):
        raise ValueError(f"Eb/N0 {eb_n0_db} dB outside the model: "
                         "its noise variance is not a finite double")
    return sigma2


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


def level_indices(values, levels) -> np.ndarray:
    """Index of the level nearest each real value, ties to the lower index.

    A running argmin keeps memory at O(number of values): a later level
    wins only on a strictly smaller fl(|x - l|), which is monotone in the
    exact distance, so levels can tie but never misorder. NaN keeps 0.
    Each level reuses one distance and one mask array, and the last level
    needs no running minimum after it.
    """
    values = np.asarray(values)
    best = np.zeros(values.shape, dtype=np.intp)
    best_dist = np.abs(values - levels[0])
    dist = np.empty_like(best_dist)
    closer = np.empty(values.shape, dtype=bool)
    last = len(levels) - 1
    for j in range(1, len(levels)):
        np.subtract(values, levels[j], out=dist)
        np.abs(dist, out=dist)
        np.less(dist, best_dist, out=closer)
        np.putmask(best, closer, j)
        if j < last:
            np.minimum(best_dist, dist, out=best_dist)
    return best


def demap_symbols(symbols, constellation: Constellation) -> np.ndarray:
    """Slice to the nearest constellation point and emit its bit label.

    This is the simulator's only slicer: linear, heuristic and hybrid
    estimates all reach bits through it. The rule is per axis: the real and
    imaginary parts go to their nearest levels i and q, ties to the lower
    pattern index (level_indices), and the point is i * L + q. An estimate
    with a non-finite part goes to point 0. The nearest point of square
    QAM is its pair of nearest levels, so this differs from a 2-D search
    over the M points only where its complex |x - p| (hypot) rounds two
    distances equal: near a decision boundary, or beside a part of about
    1e8 or more.
    """
    flat = np.asarray(symbols, dtype=complex).ravel()
    i, q = level_indices(flat.view(np.float64), constellation.levels).reshape(-1, 2).T
    best = i * len(constellation.levels) + q
    best[~np.isfinite(flat)] = 0
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
