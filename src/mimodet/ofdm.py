"""QAM mapping and the per-subcarrier OFDM transmit/receive model.

The per-subcarrier model y[n] = H[n] x[n] + z[n] is what every detector
sees. A full time-domain path (IDFT, cyclic prefix, tap convolution, DFT)
is included to verify that the per-subcarrier abstraction is exact when
the prefix covers the channel memory.

4-QAM bit labeling (fixed wire format, must match across implementations):

    bits b1 b0  ->  symbol
    0    0      ->  (+1 + 1j) / sqrt(2)
    0    1      ->  (+1 - 1j) / sqrt(2)
    1    0      ->  (-1 + 1j) / sqrt(2)
    1    1      ->  (-1 - 1j) / sqrt(2)

i.e. the leading bit flips the real sign and the trailing bit flips the
imaginary sign. Higher orders use per-axis Gray coding with the same
sign sense and unit average symbol energy.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .channel import _complex_token


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
    levels = np.empty(size)
    levels[...] = size - 1 - 2 * gray
    return levels


def square_qam(order: int) -> Constellation:
    """Build a square M-QAM constellation (M a power of 4 or 2 * power of 4)."""
    if order < 2 or order & (order - 1):
        raise ValueError(f"order must be a power of two >= 2, got {order}")
    k = order.bit_length() - 1
    k_i = (k + 1) // 2
    k_q = k - k_i
    lv_i = _gray_levels(k_i)
    lv_q = _gray_levels(k_q) if k_q else np.zeros(1)
    labels = np.array([[int(b) for b in format(m, f"0{k}b")] for m in range(order)])
    idx_i = labels[:, :k_i] @ (1 << np.arange(k_i)[::-1]) if k_i else np.zeros(order, int)
    idx_q = labels[:, k_i:] @ (1 << np.arange(k_q)[::-1]) if k_q else np.zeros(order, int)
    raw = lv_i[idx_i] + 1j * lv_q[idx_q]
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


@dataclass
class TxFrame:
    """Bits mapped to an N_t x N symbol grid (one column per subcarrier)."""

    bits: np.ndarray                 # flat 0/1 array
    symbols: np.ndarray              # (n_tx, n_subcarriers) complex
    power_allocation: np.ndarray     # (n_tx,) per-antenna amplitude scale

    @property
    def n_tx(self) -> int:
        return self.symbols.shape[0]

    @property
    def n_subcarriers(self) -> int:
        return self.symbols.shape[1]


def map_bits(bits, n_tx: int, constellation: Constellation,
             power_allocation: np.ndarray | None = None) -> TxFrame:
    """Map a bit array onto the transmit grid, antenna-major per subcarrier."""
    bits = np.asarray(bits, dtype=int).ravel()
    bps = constellation.bits_per_symbol
    group = n_tx * bps
    if bits.size == 0 or bits.size % group:
        raise ValueError(f"bit count {bits.size} not a positive multiple of {group}")
    weights = 1 << np.arange(bps)[::-1]
    idx = bits.reshape(-1, bps) @ weights
    symbols = constellation.points[idx].reshape(-1, n_tx).T
    if power_allocation is None:
        power_allocation = np.ones(n_tx)
    else:
        power_allocation = np.asarray(power_allocation, dtype=float)
        if power_allocation.shape != (n_tx,):
            raise ValueError("power_allocation must have one scale per antenna")
    return TxFrame(bits, symbols * power_allocation[:, None], power_allocation)


def demap_symbols(symbols, constellation: Constellation) -> np.ndarray:
    """Slice to the nearest constellation point and emit its bit label.

    This is the simulator's only slicer: linear, heuristic and hybrid
    estimates all reach bits through it. An estimate equidistant from
    several points goes to the first of them in `constellation.points`.
    """
    flat = np.asarray(symbols).ravel()
    dist = np.abs(flat[:, None] - constellation.points[None, :])
    return constellation.bit_labels[np.argmin(dist, axis=1)].ravel()


def time_domain_roundtrip(taps: np.ndarray, frame: TxFrame, cp_len: int,
                          allow_short_cp: bool = False) -> np.ndarray:
    """Run the frame through the full time-domain chain, noiseless.

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
    if n_tx != frame.n_tx:
        raise ValueError("tap tensor does not match the frame's antenna count")
    if cp_len < n_taps - 1 and not allow_short_cp:
        raise ValueError(f"cp_len {cp_len} shorter than channel memory {n_taps - 1}")
    n = frame.n_subcarriers
    time_tx = np.fft.ifft(frame.symbols, axis=1)
    with_cp = time_tx[:, np.arange(-cp_len, n) % n]  # cyclic, even for cp_len > n
    received = np.zeros((n_rx, n + cp_len + n_taps - 1), dtype=complex)
    for j in range(n_rx):
        for i in range(n_tx):
            received[j] += np.convolve(with_cp[i], taps[:, j, i])
    return np.fft.fft(received[:, cp_len:cp_len + n], axis=1)


# ---------------------------------------------------------------------------
# Frame text format, sharing the token syntax of the channel export.
#
# Line 1: <n_tx> <n_subcarriers> <order>
# Line 2: power allocation scales
# Line 3: bits as a contiguous 0/1 string
# Then one line of n_tx complex tokens per subcarrier.
# ---------------------------------------------------------------------------

def save_frame(path_or_file, frame: TxFrame, order: int) -> None:
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    fh = open(path_or_file, "w") if own else path_or_file
    try:
        fh.write(f"{frame.n_tx} {frame.n_subcarriers} {order}\n")
        fh.write(" ".join(repr(float(s)) for s in frame.power_allocation) + "\n")
        fh.write("".join(str(int(b)) for b in frame.bits) + "\n")
        for col in frame.symbols.T:
            fh.write(" ".join(_complex_token(z) for z in col) + "\n")
    finally:
        if own:
            fh.close()


def load_frame(path_or_file) -> tuple[TxFrame, int]:
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    fh = open(path_or_file) if own else path_or_file
    try:
        n_tx, n_sc, order = (int(t) for t in fh.readline().split())
        scales = np.array([float(t) for t in fh.readline().split()])
        bits = np.array([int(c) for c in fh.readline().strip()])
        symbols = np.empty((n_tx, n_sc), dtype=complex)
        for i in range(n_sc):
            symbols[:, i] = [complex(t) for t in fh.readline().split()]
    finally:
        if own:
            fh.close()
    return TxFrame(bits, symbols, scales), order


def dumps_frame(frame: TxFrame, order: int) -> str:
    buf = io.StringIO()
    save_frame(buf, frame, order)
    return buf.getvalue()


def loads_frame(text: str) -> tuple[TxFrame, int]:
    return load_frame(io.StringIO(text))
