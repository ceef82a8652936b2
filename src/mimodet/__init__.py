"""MIMO-OFDM detection simulation toolkit.

Linear (MF/ZF/MMSE), optimal (ML), evolutionary (PSO/DE) and hybrid
linear-heuristic detectors over spatially correlated Rayleigh channels,
with a reproducible Monte Carlo BER harness and an exact flop-count
complexity model.
"""

from .channel import (
    CorrelationSpec,
    PdpSpec,
    add_awgn,
    build_correlation_matrix,
    generate_channel,
    generate_pdp_channel,
)
from .complexity import (
    DETECTORS,
    FlopCounter,
    FlopFormulaInput,
    complexity_sweep,
    counting,
    flops_detector,
    flops_primitive,
)
from .config import CalibrationPlan, DetectorConfig, SimulationConfig, default_calibration_plan
from .detectors import apply_equalizer, linear_stage, linear_weights, ml_detect
from .heuristics import (
    DeParams,
    PopulationState,
    PsoParams,
    SwarmState,
    de_selection,
    de_trials,
    init_population,
    init_swarm,
    pso_iterate,
    run_heuristic,
)
from .linalg import draw_standard_complex_gaussian, invert_hermitian, psd_sqrt
from .ofdm import (
    Constellation,
    demap_symbols,
    map_bits,
    noise_variance,
    square_qam,
    time_domain_roundtrip,
)
from .realdomain import RealSystem, complexify, fitness_columns, realify, realify_vec
from .rng import RngStream
from .simulate import (
    BerRecord,
    PairedResult,
    calibrate,
    convergence_study,
    run_ber_point,
    run_paired,
    run_sweep,
)

__version__ = "0.1.0"
