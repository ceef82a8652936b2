"""MIMO-OFDM detection simulation toolkit.

Linear (MF/ZF/MMSE), optimal (ML), evolutionary (PSO/DE) and hybrid
linear-heuristic detectors over spatially correlated Rayleigh channels,
with a reproducible Monte Carlo BER harness and an exact flop-count
complexity model.
"""

__version__ = "0.1.0"
