"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. The Monte Carlo criteria run at >= 1e5 paired symbol
vectors and take a few minutes in total; expensive runs are shared through
module-scoped fixtures.

Statistical conventions:
  - "A <= B at 95% paired confidence" is a one-sided exact binomial test on
    the discordant bits of A and B over identical trials: it passes unless
    A errs significantly more often than B.
  - "A < B" additionally requires A to err significantly less often.
  - Ratio bounds use the Katz log-ratio confidence interval.
"""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.stats import binom

from mimodet.channel import CorrelationSpec, build_correlation_matrix, correlation_sqrt
from mimodet.cli import cli_main
from mimodet.complexity import FlopFormulaInput, flops_detector
from mimodet.detectors import linear_stage, ml_detect
from mimodet.heuristics import (
    DeParams,
    PsoParams,
    de_generation,
    init_population,
    init_swarm,
    pso_iterate,
    run_heuristic,
)
from mimodet.linalg import draw_standard_complex_gaussian
from mimodet.ofdm import map_bits, square_qam, time_domain_roundtrip
from mimodet.realdomain import complexify, fitness_columns, realify, realify_vec
from mimodet.rng import RngStream
from mimodet.simulate import (
    DetectorConfig,
    SimulationConfig,
    convergence_study,
    run_paired,
)

MASTER_SEED = 20240901
N_VECTORS = 100_032          # 1563 full frames of 64 subcarriers
CONST = square_qam(4)

BASE = SimulationConfig(detectors=(DetectorConfig("mmse"),),
                        master_seed=MASTER_SEED)


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def significantly_fewer(a_only: int, b_only: int) -> bool:
    """A errs significantly less than B on discordant bits (p < 0.05)."""
    n = a_only + b_only
    return n > 0 and binom.cdf(a_only, n, 0.5) < 0.05


def not_significantly_more(a_only: int, b_only: int) -> bool:
    """Cannot reject BER(A) <= BER(B): A's excess errors are not significant."""
    n = a_only + b_only
    if n == 0:
        return True
    return binom.sf(a_only - 1, n, 0.5) >= 0.05


def katz_upper_ratio(x1: int, x2: int, n: int) -> float:
    """Upper 95% bound of (x1/n) / (x2/n)."""
    if x1 == 0:
        x1 = 0.5  # continuity correction
    if x2 == 0:
        return math.inf
    r = x1 / x2
    se = math.sqrt(max(1.0 / x1 - 1.0 / n, 0.0) + max(1.0 / x2 - 1.0 / n, 0.0))
    return r * math.exp(1.96 * se)


# ---------------------------------------------------------------------------
# Shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ordering_runs():
    """ML/MMSE/ZF/MF paired over identical trials at 8 and 12 dB, rho 0."""
    dets = [DetectorConfig(k) for k in ("ml", "mmse", "zf", "mf")]
    pairs = (("ML", "MMSE"), ("MMSE", "ZF"), ("MMSE", "MF"))
    return {ebn0: run_paired(BASE, dets, ebn0, 0.0, N_VECTORS, pairs=pairs)
            for ebn0 in (8.0, 12.0)}


@pytest.fixture(scope="module")
def hybrid_convergence():
    """PSO-MMSE / DE-MMSE iteration scans at 16 dB (criteria 3, 4, 6)."""
    out = {}
    for kind in ("pso-mmse", "de-mmse"):
        for rho in (0.0, 0.5):
            max_iters = 25 if rho == 0.0 else 15
            study = convergence_study(
                BASE, DetectorConfig(kind), [16.0], max_iters=max_iters, rho=rho,
                n_vectors=N_VECTORS,
                iteration_pairs=((0, 15), (15, 25)) if rho == 0.0 else ((0, 15),))
            out[(kind, rho)] = study
    return out


@pytest.fixture(scope="module")
def correlation_runs():
    """All ten detectors at 16 dB for rho 0 and 0.9 (criteria 5, 6)."""
    kinds = ("mf", "zf", "mmse", "ml", "pso", "de",
             "pso-mf", "pso-mmse", "de-mf", "de-mmse")
    dets = [DetectorConfig(k, iters=50) if k in ("pso", "de") else DetectorConfig(k)
            for k in kinds]
    vectors = 40_000
    out = {}
    for rho in (0.0, 0.9):
        res = run_paired(BASE, dets, 16.0, rho, vectors)
        out[rho] = res
    return out


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_flop_formula_exactness():
    checks = [
        flops_detector("MF", FlopFormulaInput(4, 4)) == 120,
        flops_detector("PSO", FlopFormulaInput(4, 4, n_pop=40, iters=1)) == 9240,
        flops_detector("DE", FlopFormulaInput(4, 4, n_pop=40, iters=1)) == 14000,
        flops_detector("ML", FlopFormulaInput(4, 4, m_order=4)) == 9_895_936,
    ]
    for n in (2, 4, 8, 16):
        inp = FlopFormulaInput(n, n)
        checks.append(flops_detector("MMSE", inp) - flops_detector("ZF", inp)
                      == 4 * n * n + 2 * n)
    ok = all(checks)
    assert _report(1, "flop formula exactness", ok, f"{sum(checks)}/{len(checks)} identities")
    assert ok


def test_criterion_2_detector_ordering(ordering_runs):
    details = []
    ok = True
    for ebn0, res in ordering_runs.items():
        ml_v_mmse = res.discordance[("ML", "MMSE")]
        mmse_v_zf = res.discordance[("MMSE", "ZF")]
        mmse_v_mf = res.discordance[("MMSE", "MF")]
        point_ok = (significantly_fewer(*ml_v_mmse)
                    and significantly_fewer(*mmse_v_zf)
                    and significantly_fewer(*mmse_v_mf))
        ok &= point_ok
        details.append(
            f"{ebn0}dB: ML {res.ber('ML'):.2e} <= MMSE {res.ber('MMSE'):.2e} "
            f"<= ZF {res.ber('ZF'):.2e}, MF {res.ber('MF'):.2e}")
    assert _report(2, "detector ordering", ok, "; ".join(details))
    assert ok


def test_criterion_3_hybrid_refinement(hybrid_convergence):
    ok = True
    details = []
    for kind in ("pso-mmse", "de-mmse"):
        for rho in (0.0, 0.5):
            study = hybrid_convergence[(kind, rho)]
            # recorded as (iter0-only errors, iter15-only errors)
            linear_only, hybrid_only = study.discordance[(16.0, 0, 15)]
            point_ok = not_significantly_more(hybrid_only, linear_only)
            ok &= point_ok
            ber0 = next(r.ber for r in study.rows if r.iteration == 0)
            ber15 = next(r.ber for r in study.rows if r.iteration == 15)
            details.append(f"{kind} rho={rho}: linear {ber0:.2e} -> 15 iters {ber15:.2e}")
    assert _report(3, "hybrid refinement (<= linear seed)", ok, "; ".join(details))
    assert ok


def test_criterion_4_convergence_stagnation(hybrid_convergence):
    ok = True
    details = []
    for kind in ("pso-mmse", "de-mmse"):
        study = hybrid_convergence[(kind, 0.0)]
        e15 = next(r.bit_errors for r in study.rows if r.iteration == 15)
        e25 = next(r.bit_errors for r in study.rows if r.iteration == 25)
        ratio = e25 / e15 if e15 else 1.0
        point_ok = ratio >= 0.9 or katz_upper_ratio(e25, e15, study.nbits) >= 0.9
        ok &= point_ok
        details.append(f"{kind}: BER(25)/BER(15) = {ratio:.3f}")
    assert _report(4, "convergence stagnation after 15 iterations", ok,
                   "; ".join(details))
    assert ok


def test_criterion_5_correlation_degradation(correlation_runs):
    r0, r9 = correlation_runs[0.0], correlation_runs[0.9]
    nbits = r0.nbits
    ok = True
    details = []
    for label in r0.labels:
        e0, e9 = r0.errors[label], r9.errors[label]
        p0, p9 = e0 / nbits, e9 / r9.nbits
        pooled = (e0 + e9) / (nbits + r9.nbits)
        se = math.sqrt(max(pooled * (1 - pooled), 1e-12) * (1 / nbits + 1 / r9.nbits))
        z = (p9 - p0) / se if se else 0.0
        point_ok = z > 1.645
        ok &= point_ok
        details.append(f"{label} {p0:.1e}->{p9:.1e}")
    assert _report(5, "correlation degrades every detector", ok, "; ".join(details))
    assert ok


def test_criterion_6_initialization_speedup(hybrid_convergence, correlation_runs):
    rand = correlation_runs[0.0]
    target_p = rand.errors["PSO"] / rand.nbits
    target_upper = target_p + 1.96 * math.sqrt(target_p * (1 - target_p) / rand.nbits)
    study = hybrid_convergence[("pso-mmse", 0.0)]
    needed = None
    for r in sorted(study.rows, key=lambda r: r.iteration):
        if r.ber <= target_upper:
            needed = r.iteration
            break
    ok = needed is not None and needed <= 25
    assert _report(6, "linear seeding reaches random-init BER early", ok,
                   f"PSO(random, 50 iters) BER {target_p:.2e}; "
                   f"PSO-MMSE matches it at iteration {needed}")
    assert ok


def test_criterion_7_oracle_equivalence():
    rng = RngStream(MASTER_SEED)
    ml_ok = True
    for i in range(1000):
        h = draw_standard_complex_gaussian(rng.substream("h", i), 4, 4)
        x = CONST.points[rng.substream("x", i).integers(0, 4, 4)]
        z = 0.35 * draw_standard_complex_gaussian(rng.substream("z", i), 4, 1)[:, 0]
        y = h @ x + z
        best, best_val = None, np.inf
        for cand in itertools.product(CONST.points, repeat=4):
            cand = np.array(cand)
            val = np.sum(np.abs(y - h @ cand) ** 2)
            if val < best_val:
                best, best_val = cand, val
        if not np.array_equal(ml_detect(h, y, CONST), best):
            ml_ok = False
            break
    fit_ok = True
    worst = 0.0
    for i in range(1000):
        h = draw_standard_complex_gaussian(rng.substream("fh", i), 4, 4)
        y = draw_standard_complex_gaussian(rng.substream("fy", i), 4, 1)[:, 0]
        cand = rng.substream("fc", i).standard_normal(8)
        sys = realify(h, y)
        real_val = fitness_columns(sys, cand[:, None])[0]
        complex_val = float(np.sum(np.abs(y - h @ complexify(cand)) ** 2))
        err = abs(real_val - complex_val) / max(1.0, complex_val)
        worst = max(worst, err)
        fit_ok &= err <= 1e-12
    ok = ml_ok and fit_ok
    assert _report(7, "oracle equivalence", ok,
                   f"ML exact on 1000 instances: {ml_ok}; "
                   f"fitness real/complex max rel err {worst:.1e}")
    assert ok


def test_criterion_8_structural_invariants():
    rng = RngStream(MASTER_SEED + 1)
    checks = {}

    h = draw_standard_complex_gaussian(rng.substream("h"), 4, 4)
    y = draw_standard_complex_gaussian(rng.substream("y"), 4, 1)[:, 0]
    sys = realify(h, y)

    # PSO global-best monotonicity and velocity clamping
    params = PsoParams(c1=3.5, c2=0.5, w0=2.0, n_pop=20, iters=1, v_max=1.0)
    state = init_swarm(rng.substream("swarm"), params, None, sys)
    mono, clamp = True, True
    prev = state.gb_fitness
    for i in range(30):
        pso_iterate(rng.substream("it", i), state, params, sys)
        mono &= state.gb_fitness <= prev
        clamp &= float(np.abs(state.velocities).max()) <= 1.0
        prev = state.gb_fitness
    checks["pso monotone"] = mono
    checks["velocity clamp"] = clamp

    # DE per-individual monotonicity
    de_params = DeParams(f_mut=0.8, f_cr=0.7, n_pop=12, iters=1)
    pop = init_population(rng.substream("pop"), de_params, None, sys)
    de_mono = True
    for g in range(25):
        before = pop.fitness_cache.copy()
        de_generation(rng.substream("gen", g), pop, de_params, sys)
        de_mono &= bool(np.all(pop.fitness_cache <= before))
    checks["de monotone"] = de_mono

    # seed-membership dominance
    seed_vec = realify_vec(CONST.points[rng.substream("sx").integers(0, 4, 4)])
    run = run_heuristic(rng.substream("hyb"), sys,
                        PsoParams(c1=3.5, c2=0.5, w0=2.0, n_pop=15, iters=15), seed_vec)
    seed_fit = fitness_columns(sys, seed_vec[:, None])[0]
    checks["seed dominance"] = bool(run.trace[-1] <= seed_fit * (1 + 1e-12))

    # ZF multiply-back and MMSE -> ZF limit
    zf_ok, limit_ok = True, True
    for i in range(25):
        hh = draw_standard_complex_gaussian(rng.substream("zf", i), 4, 4)
        w = linear_stage({"zf"}, hh, 0.0)["zf"][0]
        zf_ok &= float(np.abs(w @ hh - np.eye(4)).max()) < 1e-9
        limit_ok &= float(np.abs(linear_stage({"mmse"}, hh, 0.0)["mmse"][0] - w).max()) < 1e-9
    checks["zf multiply-back"] = zf_ok
    checks["mmse->zf limit"] = limit_ok

    # Kronecker covariance at 1e5 samples, 0.02 entrywise
    spec = CorrelationSpec(rho=0.5, n_antennas=4)
    sqrt_r = correlation_sqrt(spec)
    g = draw_standard_complex_gaussian(rng.substream("cov"), 4, 4, count=100_000)
    hs = np.einsum("ij,njk,kl->nil", sqrt_r, g, sqrt_r)
    vecs = hs.transpose(0, 2, 1).reshape(100_000, 16)
    cov = (vecs[:, :, None] * vecs[:, None, :].conj()).mean(axis=0)
    r_mat = build_correlation_matrix(spec)
    cov_err = float(np.max(np.abs(cov - np.kron(r_mat, r_mat))))
    checks["kronecker covariance"] = cov_err < 0.02

    # cyclic prefix time/frequency equivalence to 1e-10
    bits = rng.substream("bits").integers(0, 2, 64 * 4 * 2)
    symbols = map_bits(bits, 4, CONST)
    taps = draw_standard_complex_gaussian(rng.substream("taps"), 4, 4, count=8)
    taps = taps * np.sqrt(np.linspace(1.0, 0.05, 8))[:, None, None]
    grid = time_domain_roundtrip(taps, symbols, cp_len=16)
    hf = np.fft.fft(taps, n=64, axis=0)
    direct = np.einsum("nrt,tn->rn", hf, symbols)
    cp_err = float(np.max(np.abs(grid - direct)))
    checks["cp equivalence"] = cp_err < 1e-10

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    assert _report(8, "structural invariants", ok,
                   f"kron err {cov_err:.3f}, cp err {cp_err:.1e}"
                   + (f"; failed: {failed}" if failed else ""))
    assert ok


def test_criterion_9_determinism(tmp_path):
    config = {
        "n_t": 4, "n_r": 4, "n_subcarriers": 64, "m_order": 4,
        "rho_list": [0.0, 0.5], "ebn0_db_list": [8.0],
        "max_trials": 2048, "target_bit_errors": 1_000_000,
        "master_seed": 31337,
        "detectors": [{"kind": "mmse"}, {"kind": "pso-mmse", "iters": 10, "n_pop": 20}],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"{name}.csv"
        rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out),
                       "--workers", str(workers)])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    assert _report(9, "byte-identical determinism across runs and workers", ok,
                   f"{len(outputs[0])} bytes")
    assert ok
