import hashlib
import json
import logging
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimodet.channel import CorrelationSpec, correlation_sqrt
from mimodet.complexity import DETECTORS
from mimodet.config import (
    CALIBRATED_DE,
    CALIBRATED_PSO,
    CalibrationPlan,
    ConfigError,
    DetectorConfig,
    SimulationConfig,
    default_calibration_plan,
    resolve_detector,
)
from mimodet.heuristics import DeParams, PsoParams
from mimodet.linalg import draw_standard_complex_gaussian, invert_hermitian
from mimodet.ofdm import map_bits, noise_variance, square_qam
from mimodet.rng import RngStream
from mimodet.simulate import (
    BerRecord,
    FrameBatchResult,
    _simulate_frames,
    calibrate,
    convergence_study,
    records_to_csv,
    records_to_json,
    run_ber_point,
    run_paired,
    run_sweep,
    write_text_atomic,
)
from mimodet import runtime
from mimodet import simulate as sim

QUICK = dict(max_trials=2048, target_bit_errors=10_000, master_seed=99)


def _config(*kinds, **overrides):
    kw = dict(QUICK)
    kw.update(overrides)
    return SimulationConfig(detectors=tuple(DetectorConfig(k) for k in kinds), **kw)


class TestConfig:
    def test_round_trip(self):
        cfg = _config("mmse", "pso-mmse")
        back = SimulationConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_empty_detectors_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(detectors=())

    def test_bad_rho_rejected(self):
        with pytest.raises(ConfigError):
            _config("mmse", rho_list=(1.5,))

    @pytest.mark.parametrize("rho, ebn0", [(math.nan, 8.0), (-0.1, 8.0),
                                           (0.0, -math.inf), (0.0, math.nan),
                                           (0.0, -4000.0), (0.0, 3500.0)])
    def test_operating_point_outside_model_rejected(self, rho, ebn0):
        with pytest.raises(ConfigError):
            _config("mmse", rho_list=(rho,), ebn0_db_list=(ebn0,))

    def test_noiseless_point_accepted(self):
        assert _config("mmse", ebn0_db_list=(math.inf,)).ebn0_db_list == (math.inf,)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict({"detectors": [{"kind": "zf"}], "bogus": 1})

    @pytest.mark.parametrize("det", [{"kind": "de", "n_pop": 3},
                                     {"kind": "pso-mmse", "iters": -1},
                                     {"kind": "de-mf", "f_cr": 1.5},
                                     {"kind": "de", "c1": 3},
                                     {"kind": "de-mmse", "v_max": 1.0},
                                     {"kind": "pso-mf", "f_mut": 0.5},
                                     {"kind": "mmse", "iters": 50},
                                     {"kind": "ml", "n_pop": 3},
                                     {"kind": "zf", "search_hi": 2.0},
                                     {"kind": "de", "search_lo": 1, "search_hi": -1},
                                     {"kind": "pso", "n_pop": 40.5},
                                     {"kind": "de-mf", "iters": 2.5},
                                     {"kind": "pso", "c1": math.nan},
                                     {"kind": "pso-mmse", "w0": math.inf},
                                     {"kind": "de", "search_lo": -math.inf},
                                     {"kind": "pso", "v_max": math.nan},
                                     {"kind": "pso-mmse", "search_lo": -5.0},
                                     {"kind": "de-mf", "search_hi": 5.0},
                                     {"kind": "pso", "c1": True},
                                     {"kind": "de", "f_mut": True},
                                     {"kind": "pso-mf", "v_max": True},
                                     {"kind": "pso", "search_hi": True},
                                     {"kind": "de-mmse", "f_cr": "0.5"}])
    def test_bad_detector_parameters_rejected_at_load(self, det):
        # every detector is resolved at every rho of the config, so a bad
        # entry fails here, not when its first point runs; a field the
        # kind does not read is rejected even where its value would be valid
        # (a hybrid starts from its seed, so it never reads the search box)
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict({"detectors": [{"kind": "mmse"}, det],
                                        "rho_list": [0.0, 0.9]})

    @pytest.mark.parametrize("det", [{"kind": "mmse", "v_max": None},
                                     {"kind": "de", "v_max": None},
                                     {"kind": "de-mf", "search_lo": None},
                                     {"kind": "mmse", "c1": None},
                                     {"kind": "pso", "search_lo": None},
                                     {"kind": "pso", "v_max": None}])
    def test_null_field_means_unset(self, det):
        # JSON null is "not set" for every field, read or not by the kind:
        # the config equals, resolves and echoes as the one that leaves it out
        cfg = SimulationConfig.from_dict({"detectors": [det]})
        unset = SimulationConfig.from_dict({"detectors": [{"kind": det["kind"]}]})
        assert cfg == unset
        assert cfg.to_dict() == unset.to_dict()
        assert resolve_detector(cfg.detectors[0], 0.5) == \
            resolve_detector(DetectorConfig(det["kind"]), 0.5)

    @pytest.mark.parametrize("field", ["n_subcarriers", "max_trials", "target_bit_errors"])
    def test_count_below_one_rejected(self, field):
        with pytest.raises(ConfigError, match="all counts must be >= 1"):
            _config("mmse", **{field: 0})

    @pytest.mark.parametrize("field", ["rho_list", "ebn0_db_list"])
    def test_empty_operating_point_list_rejected(self, field):
        with pytest.raises(ConfigError, match="must not be empty"):
            _config("mmse", **{field: ()})

    @pytest.mark.parametrize("field", [{"master_seed": 1.5}, {"master_seed": True},
                                       {"max_trials": 100.5}, {"target_bit_errors": 1.5},
                                       {"n_subcarriers": 64.0}, {"n_t": 4.0, "n_r": 4.0},
                                       {"m_order": 4.0}, {"rho_list": "09"},
                                       {"rho_list": 0.5}, {"ebn0_db_list": [8, "x"]},
                                       {"ebn0_db_list": [8, None]}, {"rho_list": [True]},
                                       {"detectors": ["mmse"]}, {"detectors": "mmse"},
                                       {"detectors": 5}])
    def test_mistyped_field_rejected_at_load(self, field):
        # counts and the seed are integers (bool and 4.0 are not), the
        # operating-point lists are lists of numbers, detectors are objects
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict({"detectors": [{"kind": "mmse"}], **field})

    @pytest.mark.parametrize("detectors", ["mmse", {"kind": "mmse"}])
    def test_detectors_not_a_list_rejected(self, detectors):
        # a string or an object is not iterated entry by entry: the error
        # names the field
        with pytest.raises(ConfigError, match="detectors must be a list of objects, got"):
            SimulationConfig.from_dict({"detectors": detectors})

    def test_non_object_config_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict([1, 2])

    def test_infinite_v_max_accepted(self):
        # v_max = inf turns the velocity clamp off
        cfg = SimulationConfig.from_dict({"detectors": [{"kind": "pso", "v_max": math.inf}]})
        assert resolve_detector(cfg.detectors[0], 0.0).params.v_max == math.inf

    def test_detector_fields_are_the_heuristics_fields(self):
        # each detector field reaches a parameter class, so none can be
        # accepted and then silently ignored
        det_fields = {f.name for f in fields(DetectorConfig)} - {"kind"}
        assert det_fields == {f.name for f in fields(PsoParams)} | {f.name for f in fields(DeParams)}

    def test_unknown_detector_field_rejected(self):
        with pytest.raises(ConfigError):
            DetectorConfig.from_dict({"kind": "pso", "velocity": 3})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            DetectorConfig(kind="svd")

    def test_rectangular_array_rejected(self):
        # channels are drawn n_t x n_t; an n_r != n_t config would simulate
        # a different array than the one its flops are charged for
        with pytest.raises(ConfigError, match="n_r"):
            _config("mmse", n_t=2, n_r=4)
        with pytest.raises(ConfigError, match="n_r"):
            SimulationConfig.from_dict({"detectors": [{"kind": "zf"}], "n_t": 4, "n_r": 2})

    @pytest.mark.parametrize("m_order", [2, 6, 8, 32])
    def test_non_square_qam_rejected(self, m_order):
        with pytest.raises(ConfigError, match="m_order"):
            _config("mmse", m_order=m_order)

    @pytest.mark.parametrize("m_order", [4, 16, 64])
    def test_square_qam_accepted(self, m_order):
        assert _config("mmse", m_order=m_order).m_order == m_order

    def test_ml_search_beyond_the_candidate_limit_rejected(self):
        # 4**10 candidates is exactly the limit, 4**11 is past it
        assert _config("ml", n_t=10, n_r=10).n_t == 10
        with pytest.raises(ConfigError, match="ML"):
            _config("mmse", "ml", n_t=11, n_r=11)
        assert _config("mmse", n_t=11, n_r=11).n_t == 11


class TestResolve:
    def test_linear_has_no_params(self):
        res = resolve_detector(DetectorConfig("zf"), 0.5)
        assert res.kind == "zf" and res.params is None
        assert res.iterations == 0

    def test_calibrated_pso_lookup(self):
        res = resolve_detector(DetectorConfig("pso-mmse"), 0.5)
        c1, c2, w0 = CALIBRATED_PSO["mmse"][0.5]
        assert (res.params.c1, res.params.c2, res.params.w0) == (c1, c2, w0)
        assert res.params.iters == 15  # hybrid default budget

    def test_calibrated_de_lookup_nearest_rho(self):
        res = resolve_detector(DetectorConfig("de"), 0.85)
        f_mut, f_cr = CALIBRATED_DE["random"][0.9]
        assert (res.params.f_mut, res.params.f_cr) == (f_mut, f_cr)
        assert res.params.iters == 100  # random-init default budget

    def test_overrides_win(self):
        det = DetectorConfig("pso", c1=1.25, iters=7, n_pop=11)
        res = resolve_detector(det, 0.0)
        assert res.params.c1 == 1.25 and res.params.iters == 7 and res.params.n_pop == 11

    def test_invalid_params_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            resolve_detector(DetectorConfig("de", f_mut=3.0), 0.0)
        with pytest.raises(ConfigError):
            resolve_detector(DetectorConfig("pso", n_pop=1), 0.0)

    def test_ml_rejected_at_full_correlation(self):
        # rho = 1 makes every channel rank one: ML candidates tie exactly
        with pytest.raises(ConfigError, match="ML"):
            resolve_detector(DetectorConfig("ml"), 1.0)
        with pytest.raises(ConfigError, match="ML"):
            _config("ml", rho_list=(0.0, 1.0))
        assert resolve_detector(DetectorConfig("ml"), 0.99).kind == "ml"
        assert resolve_detector(DetectorConfig("zf"), 1.0).kind == "zf"


class TestRunBerPoint:
    @pytest.mark.parametrize("ebn0, rho", [(math.nan, 0.0), (-math.inf, 0.0),
                                           (8.0, 1.5), (8.0, math.nan)])
    @pytest.mark.parametrize("entry", ["run_ber_point", "run_paired", "convergence_study",
                                       "calibrate"])
    def test_operating_point_outside_model_rejected(self, entry, ebn0, rho, monkeypatch):
        # every entry point rejects the point before any frame runs;
        # convergence_study checks all its points first, so a bad later one
        # fails before the good first one runs
        def no_frames(*args, **kwargs):
            raise AssertionError("a frame ran before the point was rejected")

        monkeypatch.setattr(sim, "_simulate_frames", no_frames)
        cfg = _config("mmse")
        with pytest.raises(ConfigError):
            if entry == "run_ber_point":
                run_ber_point(cfg, cfg.detectors[0], ebn0, rho)
            elif entry == "run_paired":
                run_paired(cfg, cfg.detectors, ebn0, rho, n_vectors=64)
            elif entry == "convergence_study":
                convergence_study(cfg, DetectorConfig("pso-mmse"), [8.0, ebn0], 2, rho=rho,
                                  n_vectors=64)
            else:
                plan = default_calibration_plan("pso", ebn0_db=ebn0, rho=rho)
                calibrate(plan, cfg, DetectorConfig("pso"))

    @pytest.mark.parametrize("case", ["pair_label_not_run", "pair_iteration_past_budget",
                                      "pair_iteration_negative", "no_ebn0_points"])
    def test_malformed_request_rejected(self, case, monkeypatch):
        # a pair naming a detector or an iteration the run does not have,
        # and an empty Eb/N0 list, fail before any frame runs
        def no_frames(*args, **kwargs):
            raise AssertionError("a frame ran before the request was rejected")

        monkeypatch.setattr(sim, "_simulate_frames", no_frames)
        cfg = _config("mmse")
        hybrid = DetectorConfig("pso-mmse")
        with pytest.raises(ConfigError):
            if case == "pair_label_not_run":
                run_paired(cfg, cfg.detectors, 8.0, 0.0, n_vectors=64, pairs=(("MMSE", "ML"),))
            elif case == "no_ebn0_points":
                convergence_study(cfg, hybrid, [], 2, n_vectors=64)
            else:
                late = 3 if case == "pair_iteration_past_budget" else -1
                convergence_study(cfg, hybrid, [8.0], 2, n_vectors=64,
                                  iteration_pairs=((0, late),))

    def test_zf_noiseless_is_error_free(self):
        cfg = _config("zf", max_trials=1000)
        rec = run_ber_point(cfg, cfg.detectors[0], float("inf"), 0.0)
        assert rec.bit_errors == 0
        assert rec.ber == 0.0
        assert rec.trials >= 1000

    def test_deterministic(self):
        cfg = _config("mmse")
        a = run_ber_point(cfg, cfg.detectors[0], 8.0, 0.0)
        b = run_ber_point(cfg, cfg.detectors[0], 8.0, 0.0)
        assert a == b

    def test_worker_count_invariance(self):
        cfg = _config("mmse", max_trials=1024)
        a = run_ber_point(cfg, cfg.detectors[0], 6.0, 0.0, workers=1)
        b = run_ber_point(cfg, cfg.detectors[0], 6.0, 0.0, workers=3)
        assert a == b

    def test_early_stop_on_target_errors(self):
        cfg = _config("mf", max_trials=500_000, target_bit_errors=50)
        rec = run_ber_point(cfg, cfg.detectors[0], 4.0, 0.0)
        assert rec.bit_errors >= 50
        assert rec.trials < 500_000

    def test_record_fields(self):
        cfg = _config("mmse")
        rec = run_ber_point(cfg, cfg.detectors[0], 8.0, 0.0)
        assert rec.detector == "MMSE"
        assert rec.ber == rec.bit_errors / (rec.trials * cfg.bits_per_vector)
        assert rec.ci95_halfwidth > 0
        assert rec.flops_per_subcarrier > 0

    def test_zero_budget_hybrid_costs_its_seed(self):
        # a seeded zero-budget run is its linear decision, and it runs
        # nothing else, so it costs exactly its seed's flops
        cfg = SimulationConfig(
            detectors=(DetectorConfig("mmse"), DetectorConfig("pso-mmse", iters=0),
                       DetectorConfig("de-mmse", iters=0), DetectorConfig("mf"),
                       DetectorConfig("pso-mf", iters=0), DetectorConfig("de-mf", iters=0)),
            rho_list=(0.5,), ebn0_db_list=(8.0,), **dict(QUICK, max_trials=64))
        recs = {r.detector: r for r in run_sweep(cfg)}
        for hybrid in ("PSO-MMSE", "DE-MMSE", "PSO-MF", "DE-MF"):
            seed = recs[hybrid.split("-")[1]]
            assert recs[hybrid].flops_per_subcarrier == seed.flops_per_subcarrier
            assert recs[hybrid].bit_errors == seed.bit_errors

    def test_full_correlation_zf_counts_erasures(self):
        # rho = 1 gives a rank-one channel; ZF fails on every subcarrier and
        # each failure counts as a full-vector erasure
        cfg = _config("zf", max_trials=128)
        rec = run_ber_point(cfg, cfg.detectors[0], 20.0, 1.0)
        assert rec.ber == 1.0


def _oracle_frame(cfg, const, ebn0_db, rho, frame):
    """One frame drawn and built alone with the complex formulas: bits,
    then channel normals, then noise normals on the frame's trial stream."""
    rng = RngStream(cfg.master_seed).substream("trial", sim._ebkey(ebn0_db),
                                               sim._rhokey(rho), frame)
    bits = rng.integers(0, 2, cfg.n_subcarriers * cfg.bits_per_vector)
    hs = draw_standard_complex_gaussian(rng, cfg.n_t, cfg.n_t, count=cfg.n_subcarriers)
    if rho != 0.0:
        sqrt_r = correlation_sqrt(CorrelationSpec(rho, cfg.n_t))
        hs = sqrt_r @ (hs @ sqrt_r)  # complex product, sqrt_r promoted
    clean = np.einsum("nrt,tn->nr", hs, map_bits(bits, cfg.n_t, const))
    sigma2 = noise_variance(ebn0_db, cfg.m_order)
    if sigma2 == 0.0:
        return bits, hs, clean.copy()
    parts = rng.standard_normal((2,) + clean.shape)
    return bits, hs, clean + np.sqrt(sigma2 / 2.0) * (parts[0] + 1j * parts[1])


def _task(cfg, ebn0_db, rho, frames):
    return sim._draw_task(cfg, square_qam(cfg.m_order), ebn0_db, rho, frames)


class TestFrameChannel:
    """A task's frames through the per-subcarrier model y[n] = H[n] x[n] + z[n]."""

    def _frame(self, ebn0_db, frame=3):
        cfg = _config("mmse")
        bits, hs, ys, sigma2 = _task(cfg, ebn0_db, 0.0, range(frame, frame + 1))
        clean = np.einsum("nrt,tn->nr", hs, map_bits(bits, cfg.n_t, square_qam(cfg.m_order)))
        return clean, ys, sigma2

    def test_noiseless_is_channel_times_symbols(self):
        clean, ys, sigma2 = self._frame(float("inf"))
        assert sigma2 == 0.0
        assert np.array_equal(ys, clean)

    def test_noise_statistics(self):
        # 10 log10(2) dB gives sigma2 = 1 / (2 * 2) = 0.25 per complex entry
        devs = []
        for frame in range(160):  # 160 x 64 x 4 = 40 960 noise entries
            clean, ys, sigma2 = self._frame(10 * math.log10(2.0), frame)
            devs.append(ys - clean)
        assert sigma2 == pytest.approx(0.25)
        assert abs(np.mean(np.abs(np.concatenate(devs)) ** 2) - 0.25) < 0.01

    # The stacked build must give the bits of frames drawn and built one at
    # a time with the complex formulas. The explicit examples pin the cases
    # where the 1/sqrt(2) scale, moved after the correlation product, or a
    # reordered draw would change bits.
    @settings(max_examples=60, deadline=None)
    @given(rho=st.sampled_from([0.0, 0.3, 0.9, 1.0]), ebn0_db=st.sampled_from([8.0, math.inf]),
           n_t=st.sampled_from([2, 4]), n_sc=st.sampled_from([1, 3, 64]),
           lo=st.integers(0, 40), n_frames=st.integers(1, 5))
    @example(rho=0.9, ebn0_db=8.0, n_t=4, n_sc=64, lo=0, n_frames=5)
    @example(rho=0.3, ebn0_db=math.inf, n_t=2, n_sc=64, lo=7, n_frames=3)
    @example(rho=0.0, ebn0_db=8.0, n_t=2, n_sc=1, lo=0, n_frames=2)
    def test_stacked_draw_is_per_frame_oracle(self, rho, ebn0_db, n_t, n_sc, lo, n_frames):
        cfg = _config("mmse", n_t=n_t, n_r=n_t, n_subcarriers=n_sc,
                      rho_list=(rho,), ebn0_db_list=(ebn0_db,))
        frames = range(lo, lo + n_frames)
        bits, hs, ys, _ = _task(cfg, ebn0_db, rho, frames)
        want = [_oracle_frame(cfg, square_qam(cfg.m_order), ebn0_db, rho, f) for f in frames]
        for got, parts in zip((bits, hs, ys), zip(*want)):
            expect = np.concatenate(parts)
            assert got.dtype == expect.dtype
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()


class TestRunSweep:
    def test_one_row_per_triple(self):
        cfg = _config("zf", "mmse", ebn0_db_list=(4.0, 8.0), rho_list=(0.0, 0.5),
                      max_trials=256)
        records = run_sweep(cfg)
        keys = [(r.detector, r.ebn0_db, r.rho) for r in records]
        assert len(keys) == 8
        assert len(set(keys)) == 8

    def test_monotone_in_snr(self):
        cfg = _config("mmse", max_trials=6000, ebn0_db_list=(2.0, 10.0),
                      rho_list=(0.0,))
        records = run_sweep(cfg)
        by_ebn0 = {r.ebn0_db: r.ber for r in records}
        assert by_ebn0[10.0] < by_ebn0[2.0]

    def test_correlation_degrades(self):
        cfg = _config("mmse", max_trials=6000, ebn0_db_list=(10.0,),
                      rho_list=(0.0, 0.9))
        records = run_sweep(cfg)
        by_rho = {r.rho: r.ber for r in records}
        assert by_rho[0.9] > by_rho[0.0]


class TestPaired:
    def test_shared_trials_give_identical_baselines(self):
        cfg = _config("mmse")
        res = run_paired(cfg, [DetectorConfig("mmse"), DetectorConfig("zf")],
                         8.0, 0.0, n_vectors=2048, pairs=(("MMSE", "ZF"),))
        rec = run_ber_point(cfg, DetectorConfig("mmse"), 8.0, 0.0)
        # same trial substreams, same vector count -> identical error totals
        assert res.errors["MMSE"] == rec.bit_errors
        d_mmse, d_zf = res.discordance[("MMSE", "ZF")]
        assert res.errors["ZF"] - res.errors["MMSE"] == d_zf - d_mmse

    def test_duplicate_labels_rejected(self):
        cfg = _config("mmse")
        with pytest.raises(ConfigError):
            run_paired(cfg, [DetectorConfig("zf"), DetectorConfig("zf")],
                       8.0, 0.0, n_vectors=64)

    def test_empty_detector_list_rejected_before_any_frame(self, monkeypatch):
        import mimodet.simulate as sim

        def no_frames(*args, **kwargs):
            raise AssertionError("a frame ran for an empty detector list")

        monkeypatch.setattr(sim, "_simulate_frames", no_frames)
        with pytest.raises(ConfigError, match="at least one detector"):
            run_paired(_config("mmse"), [], 8.0, 0.0, n_vectors=64)

    def test_zero_vectors_rejected(self):
        cfg = _config("mmse")
        with pytest.raises(ConfigError):
            run_paired(cfg, [DetectorConfig("mmse")], 8.0, 0.0, n_vectors=0)
        with pytest.raises(ConfigError):
            convergence_study(cfg, DetectorConfig("pso-mmse"), [8.0], max_iters=1,
                              n_vectors=0)

    def test_ml_at_full_correlation_rejected(self):
        cfg = _config("mmse")
        with pytest.raises(ConfigError, match="ML"):
            run_paired(cfg, [DetectorConfig("zf"), DetectorConfig("ml")], 8.0, 1.0,
                       n_vectors=64)

    def test_one_stacked_inverse_per_task(self, monkeypatch):
        # a task's frames share one linear stage: ZF and MMSE, every frame
        import mimodet.detectors as det
        calls = []

        def counting_invert(a):
            calls.append(a.shape)
            return invert_hermitian(a)

        monkeypatch.setattr(det, "invert_hermitian", counting_invert)
        cfg = _config("mmse")
        dets = [DetectorConfig(k) for k in ("zf", "mmse", "pso-mmse")]
        run_paired(cfg, dets, 8.0, 0.5, n_vectors=2 * cfg.n_subcarriers)  # two frames
        assert calls == [(2, 2 * cfg.n_subcarriers, cfg.n_t, cfg.n_t)]

    def test_lost_seed_warning_names_its_frame(self, caplog):
        # rho = 1 without noise loses the MMSE seed on every subcarrier
        cfg = _config("pso-mmse", n_subcarriers=16)
        with caplog.at_level(logging.WARNING, logger="mimodet.simulate"):
            run_paired(cfg, [DetectorConfig("pso-mmse", iters=1, n_pop=4)], math.inf, 1.0,
                       n_vectors=32)
        lost = [r for r in caplog.records if "lost their linear seed" in r.msg]
        assert [r.args[:2] for r in lost] == [("PSO-MMSE", 16)] * 2
        assert [r.getMessage() for r in lost] == [
            f"PSO-MMSE: 16 subcarriers lost their linear seed (Eb/N0 inf dB, rho 1.0, frame {f})"
            for f in (0, 1)]

    # Frames are keyed by index and merged by sum, so how a batch is split
    # over worker processes cannot change any count.
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), frames=st.sampled_from([1, 2, 5]),
           rho=st.sampled_from([0.0, 0.9]))
    def test_worker_count_invariance(self, seed, frames, rho):
        cfg = _config("mmse", master_seed=seed)
        dets = [DetectorConfig(k) for k in ("mmse", "ml", "pso-mf")]
        pairs = (("MMSE", "ML"), ("ML", "PSO-MF"))
        runs = [run_paired(cfg, dets, 8.0, rho, n_vectors=frames * cfg.n_subcarriers,
                           pairs=pairs, workers=workers) for workers in (1, 2, 3)]
        for res in runs[1:]:
            assert res.errors == runs[0].errors
            assert res.discordance == runs[0].discordance


class TestTaskSplit:
    """A task stacks its frames for the linear stage, ML and their demap;
    every system's result depends on that system alone, so a task equals
    the merge of its frames run one by one, which is what makes outputs
    independent of how batches are split over workers."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lo=st.integers(0, 3), frames=st.integers(2, 4),
           n_t=st.sampled_from([2, 4]), n_sc=st.sampled_from([1, 3, 8]),
           rho=st.sampled_from([0.0, 0.9, 1.0]), ebn0=st.sampled_from([8.0, math.inf]))
    def test_task_equals_merged_single_frames(self, seed, lo, frames, n_t, n_sc, rho, ebn0):
        kinds = [k for k in DETECTORS if not (k == "ml" and rho == 1.0)]
        cfg = SimulationConfig(n_t=n_t, n_r=n_t, n_subcarriers=n_sc, master_seed=seed,
                               detectors=(DetectorConfig("mmse"),))
        small = dict(iters=3, n_pop=5)  # heuristic budget
        dets = list(enumerate(
            resolve_detector(DetectorConfig(k, **(small if DETECTORS[k].heuristic else {})), rho)
            for k in kinds))
        col = {res.kind: i for i, res in dets}
        pairs = (((col["mmse"], None), (col["pso-mmse"], 0)),
                 ((col["mf"], None), (col["de-mf"], 3)),
                 ((col["pso"], 1), (col["de"], None)),
                 ((col["zf"], None), (col["ml" if "ml" in col else "mmse"], None)))
        checkpoints = (0, 1, 3)
        whole = _simulate_frames(cfg, dets, ebn0, rho, lo, lo + frames, checkpoints, pairs)
        merged = FrameBatchResult()
        for frame in range(lo, lo + frames):
            merged.merge(_simulate_frames(cfg, dets, ebn0, rho, frame, frame + 1,
                                          checkpoints, pairs))
        assert whole.vectors == merged.vectors
        assert dict(whole.errors) == dict(merged.errors)
        assert whole.discordance == merged.discordance
        if lo == 0:
            assert whole.trace.tobytes() == merged.trace.tobytes()
        else:
            assert whole.trace is None and merged.trace is None


class TestConvergence:
    # At rho = 1 and no noise the MF estimates of many vectors lie exactly on
    # a decision boundary, so iteration 0 matches MF only if both are sliced
    # the same way.
    @pytest.mark.parametrize("hybrid, linear, ebn0, rho", [
        ("pso-mmse", "mmse", 12.0, 0.0),
        ("pso-mf", "mf", math.inf, 1.0),
    ])
    def test_budget_zero_equals_linear(self, hybrid, linear, ebn0, rho):
        cfg = _config(hybrid)
        study = convergence_study(cfg, DetectorConfig(hybrid), [ebn0],
                                  max_iters=3, rho=rho, n_vectors=1024)
        iter0 = next(r for r in study.rows if r.iteration == 0)
        bare = run_paired(cfg, [DetectorConfig(linear)], ebn0, rho, n_vectors=1024)
        assert iter0.bit_errors == bare.errors[linear.upper()]

    @pytest.mark.parametrize("kind", ["mmse", "ml"])
    def test_non_heuristic_rejected(self, kind):
        # a kind without a heuristic has no iterations to report
        with pytest.raises(ConfigError):
            convergence_study(_config(kind), DetectorConfig(kind), [8.0],
                              max_iters=3, n_vectors=64)

    def test_rows_cover_all_iterations(self):
        cfg = _config("de-mmse")
        study = convergence_study(cfg, DetectorConfig("de-mmse"), [8.0],
                                  max_iters=4, n_vectors=256)
        assert [r.iteration for r in study.rows] == list(range(5))

    def test_trace_capture(self):
        cfg = _config("pso")
        study = convergence_study(cfg, DetectorConfig("pso", iters=5), [8.0],
                                  max_iters=5, n_vectors=128)
        assert study.trace is not None
        assert study.trace.shape == (cfg.n_subcarriers, 6)

    def test_iteration_pair_discordance(self):
        # bits wrong only at a minus bits wrong only at b is a's error count
        # minus b's, per Eb/N0 and pair
        cfg = _config("pso")
        pairs = ((0, 4), (1, 2), (4, 0))
        study = convergence_study(cfg, DetectorConfig("pso", n_pop=8), [4.0, 8.0],
                                  max_iters=4, n_vectors=2 * cfg.n_subcarriers,
                                  iteration_pairs=pairs)
        errors = {(r.ebn0_db, r.iteration): r.bit_errors for r in study.rows}
        assert set(study.discordance) == {(e, a, b) for e in (4.0, 8.0) for a, b in pairs}
        for (ebn0, a, b), (a_only, b_only) in study.discordance.items():
            assert a_only - b_only == errors[(ebn0, a)] - errors[(ebn0, b)]
        assert study.discordance[(8.0, 0, 4)][::-1] == study.discordance[(8.0, 4, 0)]
        assert study.discordance[(8.0, 0, 4)][0] > 0


class TestGolden:
    """Pinned outputs of the seeded engine (4x4, 64 subcarriers, 4-QAM,
    8 dB, rho 0.5, default detector parameters).

    Every draw and every floating-point operation of the detectors feeds
    these numbers, so a change that alters the draw order or the
    arithmetic order fails here. Such a change updates the values on
    purpose and says so in CHANGES.md.
    """

    CONFIG = SimulationConfig(detectors=(DetectorConfig("mmse"),), master_seed=2024)
    CONVERGENCE = {
        "pso-mmse": ([43, 43, 43, 43, 43, 43],
                     "27bffaa14b7c13ebb59dd0ced4be531b83e0f3c510ac6af3a1852efc11d9f767"),
        "de-mf": ([214, 265, 351, 386, 393, 407],
                  "e371f132890e944f7304476f5e21e8c92d32c891f981493d0a68d0f2cd0815f6"),
    }
    PAIRED = {"PSO": 155, "DE": 118, "PSO-MF": 379, "DE-MMSE": 43}

    @pytest.mark.parametrize("kind", sorted(CONVERGENCE))
    def test_convergence_study(self, kind):
        study = convergence_study(self.CONFIG, DetectorConfig(kind), [8.0], max_iters=5,
                                  rho=0.5, n_vectors=128)  # 2 frames
        errors, trace_sha = self.CONVERGENCE[kind]
        assert [r.bit_errors for r in study.rows] == errors
        trace = np.ascontiguousarray(study.trace, dtype="<f8")
        assert hashlib.sha256(trace.tobytes()).hexdigest() == trace_sha

    def test_run_paired(self):
        dets = [DetectorConfig(k.lower()) for k in self.PAIRED]
        paired = run_paired(self.CONFIG, dets, 8.0, 0.5, n_vectors=128)
        assert paired.errors == self.PAIRED

    # Two batches of 16 frames x 16 subcarriers. MMSE and PSO-MMSE at rho 0
    # run to max_trials, every other point passes 60 errors in batch 1; the
    # two DE entries share a label, so they share their random streams.
    SWEEP = SimulationConfig.from_dict({
        "n_subcarriers": 16, "rho_list": [0.0, 0.9], "ebn0_db_list": [8.0],
        "max_trials": 512, "target_bit_errors": 60, "master_seed": 2024,
        "detectors": [{"kind": "mmse"}, {"kind": "pso-mmse", "iters": 4}, {"kind": "ml"},
                      {"kind": "de", "iters": 2}, {"kind": "de", "iters": 6}]})
    SWEEP_RECORDS = [  # (detector, rho, trials, bit errors), detector-major
        ("MMSE", 0.0, 512, 58), ("MMSE", 0.9, 256, 374),
        ("PSO-MMSE", 0.0, 512, 58), ("PSO-MMSE", 0.9, 256, 380),
        ("ML", 0.0, 512, 0), ("ML", 0.9, 256, 65),
        ("DE", 0.0, 256, 402), ("DE", 0.9, 256, 705),
        ("DE", 0.0, 256, 293), ("DE", 0.9, 256, 705),
    ]
    # PSO (3 iterations, 8 particles) at 8 dB, rho 0.5: a candidate below
    # 625 errors after batch 1 runs batch 2.
    PLAN = CalibrationPlan(parameter_order=("c1", "w0"),
                           grids={"c1": (1.0, 3.0), "w0": (1.0, 2.0)},
                           start={"c1": 2.0, "w0": 1.5}, ebn0_db=8.0, rho=0.5,
                           min_error_events=625, max_vectors=512)
    CALIBRATION = [  # (parameter, candidate, bit errors, trials)
        ("c1", 1.0, 632, 256), ("c1", 2.0, 630, 256), ("c1", 3.0, 629, 256),
        ("w0", 1.0, 1224, 512), ("w0", 1.5, 629, 256), ("w0", 2.0, 1251, 512),
    ]

    def _calibrate(self, workers=1):
        return calibrate(self.PLAN, self.SWEEP, DetectorConfig("pso", iters=3, n_pop=8),
                         workers=workers)

    def test_run_sweep(self):
        records = run_sweep(self.SWEEP)
        assert [(r.detector, r.rho, r.trials, r.bit_errors) for r in records] == \
            self.SWEEP_RECORDS
        assert {r.ebn0_db for r in records} == {8.0}

    def test_calibrate(self):
        result = self._calibrate()
        assert [(e.parameter, e.candidate, e.bit_errors, e.trials)
                for e in result.evaluations] == self.CALIBRATION
        assert result.final_params == {"c1": 3.0, "w0": 1.0}

    def test_worker_count_invariance(self):
        assert run_sweep(self.SWEEP, workers=2) == run_sweep(self.SWEEP)
        assert self._calibrate(workers=2) == self._calibrate()

    def test_one_pool_per_sweep(self, monkeypatch):
        import mimodet.simulate as sim
        started = []

        class CountingPool(sim.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", CountingPool)
        run_sweep(self.SWEEP, workers=2)
        assert len(started) == 1
        run_sweep(self.SWEEP)
        assert len(started) == 1  # one worker starts no pool


class TestPoolImport:
    """The process-pool stack loads on the first pool, not with the engine."""

    SCRIPT = """
        import json, sys
        from mimodet import simulate as sim
        from mimodet.cli import cli_main
        from mimodet.simulate import (DetectorConfig, SimulationConfig, convergence_study,
                                      run_paired)

        POOL = ("concurrent.futures.process", "multiprocessing")
        cfg = SimulationConfig(detectors=(DetectorConfig("mmse"), DetectorConfig("pso-mmse")),
                               n_subcarriers=16, ebn0_db_list=(8.0,), rho_list=(0.0, 0.5),
                               max_trials=512, master_seed=5)
        with open("c.json", "w") as fh:
            json.dump(cfg.to_dict(), fh)
        run_paired(cfg, [DetectorConfig("mmse"), DetectorConfig("zf")], 8.0, 0.5, n_vectors=64)
        convergence_study(cfg, DetectorConfig("pso-mmse"), [8.0], max_iters=2, n_vectors=64)
        rcs = [cli_main(["simulate", "--config", "c.json", "--workers", "1", "--out", "1.csv"])]
        serial = [m for m in POOL if m in sys.modules]
        rcs.append(cli_main(["simulate", "--config", "c.json", "--workers", "2", "--out", "2.csv"]))
        pooled = [m for m in POOL if m in sys.modules]
        from concurrent.futures import ProcessPoolExecutor
        print(json.dumps({"rcs": rcs, "serial": serial, "pooled": pooled,
                          "stored": vars(sim).get("ProcessPoolExecutor") is ProcessPoolExecutor}))
    """

    def test_loaded_by_the_first_pool(self, tmp_path):
        src = Path(sim.__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(self.SCRIPT)],
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {"rcs": [0, 0], "serial": [],
                        "pooled": ["concurrent.futures.process", "multiprocessing"],
                        "stored": True}
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


BLAS = runtime._blas_thread_calls()
needs_blas = pytest.mark.skipif(BLAS is None,
                                reason="numpy bundles no OpenBLAS with a thread-count call")


def _blas_threads(_=None) -> int:
    return BLAS[1]()


@needs_blas
class TestRuntimePolicy:
    """Engine entry points run on one BLAS thread and give the caller's
    count back; pool workers run on one thread for their life."""

    @pytest.fixture(autouse=True)
    def caller_threads(self):
        # Two threads, so that the caller's count differs from the policy's
        # on any host.
        set_threads, get_threads = BLAS
        before = get_threads()
        set_threads(2)
        yield 2
        set_threads(before)

    @pytest.fixture
    def seen(self, monkeypatch):
        """Thread counts read inside ml_detect and linear_stage."""
        seen = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                seen.append(_blas_threads())
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(sim, "ml_detect", recording(sim.ml_detect))
        monkeypatch.setattr(sim, "linear_stage", recording(sim.linear_stage))
        return seen

    def test_entry_points_run_on_one_thread(self, seen, caller_threads):
        run_paired(_config("ml"), [DetectorConfig("ml"), DetectorConfig("mmse")], 8.0, 0.5,
                   n_vectors=128)
        run_sweep(_config("ml", max_trials=128, ebn0_db_list=(8.0,), rho_list=(0.0,)))
        convergence_study(_config("pso-mmse"), DetectorConfig("pso-mmse"), [8.0],
                          max_iters=2, n_vectors=64)
        assert len(seen) == 5 and set(seen) == {1}
        assert _blas_threads() == caller_threads

    def test_caller_count_back_after_a_raise(self, monkeypatch, caller_threads):
        def fail(*args, **kwargs):
            assert _blas_threads() == 1
            raise RuntimeError("detector failed")

        monkeypatch.setattr(sim, "ml_detect", fail)
        with pytest.raises(RuntimeError, match="detector failed"):
            run_paired(_config("ml"), [DetectorConfig("ml")], 8.0, 0.5, n_vectors=64)
        assert _blas_threads() == caller_threads

    def test_pool_workers_run_on_one_thread(self, monkeypatch):
        # Spawned workers start from the library's default count, not from
        # the parent's, so only the pool initializer can set theirs.
        spawn = multiprocessing.get_context("spawn")

        class SpawnPool(sim.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, mp_context=spawn, **kwargs)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", SpawnPool)
        with sim._worker_map(2) as run:
            assert list(run(_blas_threads, range(4))) == [1] * 4

    def test_outputs_unchanged_without_the_library_calls(self, monkeypatch, caller_threads):
        monkeypatch.setattr(runtime, "_blas_thread_calls", lambda: None)
        monkeypatch.setattr(runtime, "_glibc_mallopt", lambda: None)
        monkeypatch.setattr(runtime, "_fix_heap", cache(runtime._fix_heap.__wrapped__))
        for workers in (1, 2):
            records = run_sweep(TestGolden.SWEEP, workers=workers)
            assert [(r.detector, r.rho, r.trials, r.bit_errors) for r in records] == \
                TestGolden.SWEEP_RECORDS
        assert _blas_threads() == caller_threads  # untouched

    @pytest.mark.skipif(runtime._glibc_mallopt() is None, reason="needs glibc's mallopt")
    def test_steady_state_sweep_stays_off_the_page_fault_path(self):
        # perfbench's sweep_cli op: under glibc's dynamic thresholds each
        # such sweep re-faulted about 18,000 pages of heap; with the fixed
        # thresholds, under 10 on a 2-core x86-64 host.
        resource = pytest.importorskip("resource")
        config = SimulationConfig.from_dict({
            "rho_list": [0.0, 0.9], "ebn0_db_list": [8.0, 16.0],
            "max_trials": 2 * 1024, "target_bit_errors": 400, "master_seed": 1,
            "detectors": [{"kind": "mmse"}, {"kind": "pso-mmse"}]})
        run_sweep(config)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(2):
            run_sweep(config)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 2
        assert faults < 2000


class TestCalibrate:
    def test_single_candidate_returned(self):
        cfg = _config("pso")
        plan = CalibrationPlan(parameter_order=("c1",), grids={"c1": (3.0,)},
                               start={"c1": 3.0}, ebn0_db=8.0, rho=0.0,
                               min_error_events=5, max_vectors=256)
        result = calibrate(plan, cfg, DetectorConfig("pso", iters=5, n_pop=8))
        assert result.final_params == {"c1": 3.0}

    def test_tie_breaks_to_smaller_value(self):
        # a zero-iteration hybrid ignores its parameters entirely, so every
        # candidate ties and the smaller value must win
        cfg = _config("pso-mmse")
        plan = CalibrationPlan(parameter_order=("c1",),
                               grids={"c1": (3.5, 1.5, 2.5)},
                               start={"c1": 2.5}, ebn0_db=8.0, rho=0.0,
                               min_error_events=5, max_vectors=256)
        result = calibrate(plan, cfg, DetectorConfig("pso-mmse", iters=0, n_pop=8))
        assert result.final_params == {"c1": 1.5}

    def test_greedy_descent_never_worsens(self):
        cfg = _config("pso")
        plan = default_calibration_plan(
            "pso", ebn0_db=8.0, rho=0.0, min_error_events=25, max_vectors=4096)
        # thin the default grids to keep the unit test quick
        plan = CalibrationPlan(parameter_order=("c1", "c2", "w0"),
                               grids={"c1": (2.0, 4.0), "c2": (0.5, 2.0),
                                      "w0": (1.0, 1.5)},
                               start=plan.start, ebn0_db=8.0, rho=0.0,
                               min_error_events=25, max_vectors=4096)
        det = DetectorConfig("pso", iters=10, n_pop=12)
        result = calibrate(plan, cfg, det)
        assert result.final_ber <= result.start_ber
        assert result.start_ber > 0
        evaluated = {(e.parameter, e.candidate) for e in result.evaluations}
        assert ("c1", 2.0) in evaluated and ("c1", 4.0) in evaluated
        # every logged BER is backed by at least the configured error count
        assert all(e.bit_errors >= plan.min_error_events for e in result.evaluations)

    def test_default_plan_start_values(self):
        pso_plan = default_calibration_plan("pso")
        assert pso_plan.start == {"c1": 2.0, "c2": 2.0, "w0": 1.0}
        assert pso_plan.ebn0_db == 24.0
        de_plan = default_calibration_plan("de")
        assert de_plan.start == {"f_mut": 1.0, "f_cr": 0.5}

    def test_rejects_non_heuristic(self):
        with pytest.raises(ConfigError):
            default_calibration_plan("mmse")

    @pytest.mark.parametrize("grids, start, missing", [
        ({"c1": (1.0,)}, {"c1": 1.0, "w0": 1.0}, "no candidate grid"),
        ({"c1": (1.0,), "w0": ()}, {"c1": 1.0, "w0": 1.0}, "no candidate grid"),
        ({"c1": (1.0,), "w0": (1.0,)}, {"c1": 1.0}, "no start value"),
    ])
    def test_plan_without_grid_or_start_rejected(self, grids, start, missing):
        with pytest.raises(ConfigError, match=f"'w0' has {missing}"):
            CalibrationPlan(parameter_order=("c1", "w0"), grids=grids, start=start)


class TestWriters:
    def _records(self):
        return [BerRecord("MMSE", 8.0, 0.0, 1024, 17, 17 / 8192,
                          0.00088, 0.0, 4138.666666666667)]

    def test_csv_round_trip_fields(self):
        cfg = _config("mmse")
        text = records_to_csv(self._records(), cfg)
        lines = text.splitlines()
        assert lines[0].startswith("# config ")
        header = lines[2].split(",")
        assert header == ["detector", "ebn0_db", "rho", "trials", "bit_errors",
                          "ber", "ci95", "mean_iterations", "flops_per_subcarrier"]
        assert lines[3].split(",")[0] == "MMSE"

    def test_json_contains_echo(self):
        cfg = _config("mmse")
        payload = json.loads(records_to_json(self._records(), cfg))
        assert payload["config"]["master_seed"] == 99
        assert payload["records"][0]["detector"] == "MMSE"

    @staticmethod
    def _strict_loads(text):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")
        return json.loads(text, parse_constant=reject)

    def test_noiseless_point_is_standard_json_and_loads_back(self):
        cfg = _config("mmse", "pso", ebn0_db_list=(math.inf, 8.0))
        cfg = replace(cfg, detectors=(cfg.detectors[0], DetectorConfig("pso", v_max=math.inf)))
        records = [replace(self._records()[0], ebn0_db=math.inf)]
        payload = self._strict_loads(records_to_json(records, cfg))
        assert payload["config"]["ebn0_db_list"] == ["inf", 8.0]
        assert payload["records"][0]["ebn0_db"] == "inf"
        assert SimulationConfig.from_dict(payload["config"]) == cfg
        echo = records_to_csv(records, cfg).splitlines()[0].removeprefix("# config ")
        assert SimulationConfig.from_dict(self._strict_loads(echo)) == cfg
        assert records_to_csv(records, cfg).splitlines()[3].split(",")[1] == "inf"

    def test_other_non_finite_output_raises(self):
        records = [replace(self._records()[0], ber=math.nan)]
        with pytest.raises(ValueError):
            records_to_json(records, _config("mmse"))

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.csv"
        write_text_atomic(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers
        # the umask sets the mode, as for a file that open() creates
        with open(tmp_path / "plain.csv", "w") as fh:
            fh.write("hello\n")
        assert target.stat().st_mode == (tmp_path / "plain.csv").stat().st_mode

    def test_golden_bytes(self):
        # floats are written as their repr, +inf as "inf" and ints as ints
        cfg = _config("mmse", ebn0_db_list=(math.inf, 8.0), rho_list=(0.0, 0.9))
        records = [BerRecord("MMSE", 8.0, 0.9, 1024, 17, 17 / 8192, 0.0008901113882917124,
                             0.0, 4138.666666666667),
                   BerRecord("MMSE", math.inf, 0.0, 64, 0, 0.0, 0.0, 0.0, 346.6666666666667)]
        assert records_to_csv(records, cfg) == (
            '# config {"detectors": [{"c1": null, "c2": null, "f_cr": null, "f_mut": null, '
            '"iters": null, "kind": "mmse", "n_pop": null, "search_hi": 1.0, "search_lo": -1.0, '
            '"v_max": 2.0, "w0": null}], "ebn0_db_list": ["inf", 8.0], "m_order": 4, '
            '"master_seed": 99, "max_trials": 2048, "n_r": 4, "n_subcarriers": 64, "n_t": 4, '
            '"rho_list": [0.0, 0.9], "target_bit_errors": 10000}\n'
            "# note points stopped at target_bit_errors use a sequential rule; the BER "
            "estimate carries the standard sequential-test bias caveat\n"
            "detector,ebn0_db,rho,trials,bit_errors,ber,ci95,mean_iterations,flops_per_subcarrier\n"
            "MMSE,8.0,0.9,1024,17,0.0020751953125,0.0008901113882917124,0.0,4138.666666666667\n"
            "MMSE,inf,0.0,64,0,0.0,0.0,0.0,346.6666666666667\n")
        rows = [sim.ConvergenceRecord("PSO-MMSE", 16.0, 0.5, 0, 128, 3, 3 / 1024),
                sim.ConvergenceRecord("PSO-MMSE", math.inf, 0.5, 1, 128, 0, 0.0)]
        assert sim.convergence_rows_to_csv(rows) == (
            "detector,ebn0_db,rho,iteration,trials,bit_errors,ber\n"
            "PSO-MMSE,16.0,0.5,0,128,3,0.0029296875\n"
            "PSO-MMSE,inf,0.5,1,128,0,0.0\n")
        trace = np.array([[2.5, 1 / 3], [0.1, 1e-20]])
        assert sim.fitness_traces_to_csv("DE", trace) == (
            "detector,trial,iteration,fitness\n"
            "DE,0,0,2.5\nDE,0,1,0.3333333333333333\nDE,1,0,0.1\nDE,1,1,1e-20\n")
        assert sim.complexity_rows_to_csv([(2, "MMSE", 346.6666666666667), (2, "ML", 12032)]) == (
            "n_t,detector,flops\n2,MMSE,346.6666666666667\n2,ML,12032\n")
