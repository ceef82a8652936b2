"""Seeded, splittable random streams.

Every stochastic routine in this package draws from an RngStream. Streams
are keyed by a master seed plus an integer/string key path, so any
substream can be re-derived independently of execution order. Two streams
built from the same (seed, key path) produce bit-identical draw sequences
on every platform numpy supports.
"""

from __future__ import annotations

import zlib

import numpy as np

# Fixed generator. Changing it changes every simulated waveform, so it is
# part of the reproducibility contract, not a tuning knob.
ALGORITHM = "pcg64"

_MASK64 = (1 << 64) - 1


def _key_part(part) -> int:
    """Map a key component to a stable non-negative integer."""
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"stream key parts must be int or str, got {type(part).__name__}")


class RngStream:
    """A deterministic random stream identified by (seed, key path).

    Substreams derived via :meth:`substream` are statistically independent
    of each other and of the parent; deriving them commutes with execution
    order, which is what makes parallel Monte Carlo trials reproducible.
    The generator is built at the first draw, so a stream that only derives
    substreams, or never draws, costs no generator; a stream that draws late
    gives the same sequence as one that draws at once.
    """

    algorithm = ALGORITHM

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(key)
        self._gen = None

    def substream(self, *parts) -> "RngStream":
        """Derive an independent stream keyed by this stream's key + parts."""
        return RngStream(self.seed, self.key + tuple(_key_part(p) for p in parts))

    # Draw methods delegate to one numpy Generator owned by this stream.

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def uniform(self, low=0.0, high=1.0, size=None):
        """Uniform draws on [low, high) for scalar bounds.

        numpy computes low + (high - low) * u from one double u per draw,
        so on [0, 1) `Generator.random`, which returns u itself, gives the
        same values and leaves the same state, faster.
        """
        if low == 0.0 and high == 1.0:
            return self._generator().random(size)
        return self._generator().uniform(low, high, size)

    def standard_normal(self, size=None, out=None):
        """Standard normal draws; with `out`, filled in place (same values)."""
        return self._generator().standard_normal(size, out=out)

    def integers(self, low, high, size=None):
        """Integers in [low, high), matching numpy's half-open convention."""
        return self._generator().integers(low, high, size=size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self.key})"
