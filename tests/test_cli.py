import json
import tracemalloc

import pytest

from mimodet import cli
from mimodet.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, cli_main
from mimodet.complexity import DETECTORS, FlopFormulaInput, flops_detector

BASE_CONFIG = {
    "n_t": 4, "n_r": 4, "n_subcarriers": 64, "m_order": 4,
    "rho_list": [0.0], "ebn0_db_list": [6.0],
    "max_trials": 512, "target_bit_errors": 100_000,
    "master_seed": 5,
    "detectors": [{"kind": "mmse"}, {"kind": "pso-mmse", "iters": 5, "n_pop": 10}],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


class TestSimulateCommand:
    def test_runs_and_writes_csv(self, config_path, tmp_path):
        out = tmp_path / "out.csv"
        rc = cli_main(["simulate", "--config", config_path, "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[2].split(",")[0] == "detector"
        assert len(lines) == 3 + 2  # two detectors, one point each

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["simulate", "--config", config_path, "--out", str(out1)]) == EXIT_OK
        assert cli_main(["simulate", "--config", config_path, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_invariance(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli_main(["simulate", "--config", config_path, "--out", str(out1), "--workers", "1"])
        cli_main(["simulate", "--config", config_path, "--out", str(out2), "--workers", "2"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, config_path, tmp_path):
        out = tmp_path / "out.json"
        rc = cli_main(["simulate", "--config", config_path, "--out", str(out),
                       "--format", "json"])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 2

    def test_json_noiseless_point_round_trip(self, tmp_path):
        # strict JSON: +inf is written as "inf", and the echoed config loads back
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, ebn0_db_list=[float("inf"), 8])))
        out = tmp_path / "out.json"
        assert cli_main(["simulate", "--config", str(path), "--out", str(out),
                         "--format", "json"]) == EXIT_OK
        assert "Infinity" not in out.read_text()
        payload = json.loads(out.read_text())
        assert [r["ebn0_db"] for r in payload["records"]] == ["inf", 8.0] * 2
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(payload["config"]))
        again = tmp_path / "again.json"
        assert cli_main(["simulate", "--config", str(echo), "--out", str(again),
                         "--format", "json"]) == EXIT_OK
        assert again.read_bytes() == out.read_bytes()

    def test_missing_config_fails(self, tmp_path, capsys):
        rc = cli_main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert rc == EXIT_CONFIG
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_config_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"detectors": []}))
        assert cli_main(["simulate", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_detector_kind_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        cfg = dict(BASE_CONFIG, detectors=[{"kind": "turbo"}])
        bad.write_text(json.dumps(cfg))
        assert cli_main(["simulate", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("fields", [
        {"n_r": 2}, {"m_order": 6}, {"m_order": 8},
        # mistyped fields fail at load, not as a seed-1 run or a traceback
        {"master_seed": 1.5}, {"master_seed": True}, {"max_trials": 100.5},
        {"target_bit_errors": 1.5}, {"n_subcarriers": 64.0}, {"n_t": 4.0, "n_r": 4.0},
        {"rho_list": "09"}, {"ebn0_db_list": [8, "x"]}, {"detectors": ["mmse"]},
        # an ML search past ML_CANDIDATE_LIMIT fails at load, not mid-sweep
        {"n_t": 12, "n_r": 12, "detectors": [{"kind": "ml"}]}])
    def test_unsimulable_config_fails(self, tmp_path, capsys, fields):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(BASE_CONFIG, **fields)))
        assert cli_main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
        assert next(iter(fields)) in capsys.readouterr().err

    def test_ml_at_full_correlation_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(BASE_CONFIG, rho_list=[0.0, 1.0],
                                       detectors=[{"kind": "mmse"}, {"kind": "ml"}])))
        assert cli_main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
        assert "ML at rho = 1" in capsys.readouterr().err

    def test_output_into_missing_directory_rejected_before_any_frame(
            self, config_path, tmp_path, monkeypatch, capsys):
        import mimodet.simulate as sim

        def no_frames(*args, **kwargs):
            raise AssertionError("a frame ran before the output path was rejected")

        monkeypatch.setattr(sim, "_simulate_frames", no_frames)
        out = tmp_path / "no" / "such" / "x.csv"
        rc = cli_main(["simulate", "--config", config_path, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert f"error: cannot write {out}" in capsys.readouterr().err

    def test_unwritable_output_is_a_config_error(self, config_path, tmp_path, capsys):
        # the path is a directory: the run completes, then the write fails
        rc = cli_main(["simulate", "--config", config_path, "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert f"error: cannot write {tmp_path}: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_seed_override_changes_output(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli_main(["simulate", "--config", config_path, "--out", str(out1)])
        cli_main(["simulate", "--config", config_path, "--out", str(out2),
                  "--seed", "77"])
        assert out1.read_bytes() != out2.read_bytes()


class TestComplexityCommand:
    def test_contains_reference_row(self, tmp_path, capsys):
        rc = cli_main(["complexity", "--nt-max", "8"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "4,MF,120.0" in lines

    def test_out_file(self, tmp_path):
        out = tmp_path / "flops.csv"
        assert cli_main(["complexity", "--nt-max", "4", "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("n_t,detector,flops")

    @pytest.mark.parametrize("flag, hybrids_zeroed", [("--iters", False),
                                                      ("--iters-hybrid", True)])
    def test_zero_budget_rows(self, capsys, flag, hybrids_zeroed):
        assert cli_main(["complexity", "--nt-max", "4", flag, "0"]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        flops = {(int(n_t), kind): float(value) for n_t, kind, value in rows}
        for (n_t, kind), value in flops.items():
            heuristic, linear = DETECTORS[kind.lower()]
            hybrid = bool(heuristic and linear)
            iters = 0 if hybrid == hybrids_zeroed else (15 if hybrid else 50)
            inp = FlopFormulaInput(n_t, n_t, n_pop=10 * n_t, iters=iters)
            assert value == float(flops_detector(kind, inp))
        for n_t in (2, 4):
            if hybrids_zeroed:  # a zero-budget hybrid costs its seed
                assert flops[n_t, "PSO-MMSE"] == flops[n_t, "DE-MMSE"] == flops[n_t, "MMSE"]
            else:
                assert flops[n_t, "PSO"] == flops[n_t, "DE"] == 0.0


class TestCalibrateCommand:
    def test_smoke(self, config_path, tmp_path):
        out = tmp_path / "calib.csv"
        rc = cli_main(["calibrate", "--config", config_path, "--detector", "pso",
                       "--ebn0", "6.0", "--min-errors", "5",
                       "--max-vectors", "256", "--out", str(out)])
        assert rc == EXIT_OK
        text = out.read_text()
        assert "final_params" in text
        assert text.splitlines()[0].split(",")[0] == "detector"

    def test_non_heuristic_rejected(self, config_path):
        rc = cli_main(["calibrate", "--config", config_path, "--detector", "zf"])
        assert rc == EXIT_CONFIG


class TestConvergenceCommand:
    def test_smoke_with_traces(self, config_path, tmp_path):
        out = tmp_path / "conv.csv"
        traces = tmp_path / "traces.csv"
        rc = cli_main(["convergence", "--config", config_path, "--detector",
                       "pso-mmse", "--max-iters", "3", "--ebn0", "8",
                       "--vectors", "128", "--out", str(out),
                       "--traces-out", str(traces)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4  # header + iterations 0..3
        trace_header = traces.read_text().splitlines()[0]
        assert trace_header == "detector,trial,iteration,fitness"

    @pytest.mark.parametrize("flag", ["--out", "--traces-out"])
    def test_output_into_missing_directory_rejected_before_any_frame(
            self, config_path, tmp_path, monkeypatch, capsys, flag):
        import mimodet.simulate as sim

        def no_frames(*args, **kwargs):
            raise AssertionError("a frame ran before the output path was rejected")

        monkeypatch.setattr(sim, "_simulate_frames", no_frames)
        missing = tmp_path / "missing" / "x.csv"
        rc = cli_main(["convergence", "--config", config_path, "--detector", "pso-mmse",
                       "--max-iters", "3", "--vectors", "64", flag, str(missing)])
        assert rc == EXIT_CONFIG
        assert f"error: cannot write {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--detector", "mmse"],
        ["--detector", "ml"],
        ["--detector", "mmse", "--max-iters", "-1"],
        ["--detector", "pso-mmse", "--max-iters", "-1"],
    ])
    def test_non_heuristic_or_negative_budget_rejected(self, config_path, args, tmp_path):
        out = tmp_path / "conv.csv"
        argv = ["convergence", "--config", config_path, "--vectors", "64",
                "--out", str(out)] + args
        assert cli_main(argv) == EXIT_CONFIG
        assert not out.exists()


class TestValidateChannelCommand:
    def test_passes(self, capsys):
        rc = cli_main(["validate-channel", "--samples", "20000"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "PASS" in out
        assert "FAIL" not in out

    def test_passes_on_a_correlated_two_antenna_array(self, capsys):
        rc = cli_main(["validate-channel", "--samples", "20000", "--rho", "0.9",
                       "--n-antennas", "2"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("PASS") == 3

    def test_rho_zero_check_compares_bits(self, monkeypatch, capsys):
        # a reference draw one rounding step off must fail the third check
        draw = cli.draw_standard_complex_gaussian
        monkeypatch.setattr(cli, "draw_standard_complex_gaussian",
                            lambda *a, **kw: draw(*a, **kw) * (1 + 2.0 ** -52))
        rc = cli_main(["validate-channel", "--samples", "20000"])
        out = capsys.readouterr().out
        assert rc == EXIT_RUNTIME
        assert out.count("PASS") == 2
        assert "raw draw bit for bit (FAIL)" in out

    def test_covariance_memory_stays_near_the_draw(self, capsys):
        # An outer product per sample took samples x n^4 complex numbers:
        # 82 MB here, 6.5 GB at the default samples with 8 antennas.
        samples, n = 20_000, 4
        draw_bytes = samples * n * n * 16
        tracemalloc.start()
        try:
            rc = cli_main(["validate-channel", "--samples", str(samples), "--rho", "0.5",
                           "--n-antennas", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out
        assert peak < 4 * draw_bytes


class TestArgumentErrors:
    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["calibrate", "--detector", "pso"],
        ["convergence", "--detector", "pso"],
    ])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, config_path, command, workers):
        argv = command[:1] + ["--config", config_path] + command[1:] + ["--workers", workers]
        assert cli_main(argv) == EXIT_CONFIG

    @pytest.mark.parametrize("command", [
        ["convergence", "--detector", "pso-mmse", "--vectors", "0"],
        ["calibrate", "--detector", "pso", "--min-errors", "0"],
        ["calibrate", "--detector", "pso", "--max-vectors", "0"],
    ])
    def test_count_below_one_rejected(self, config_path, command):
        argv = command[:1] + ["--config", config_path] + command[1:]
        assert cli_main(argv) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["complexity", "--nt-max", "0"],
        ["complexity", "--pop-factor", "0"],
        ["complexity", "--iters", "-1"],
        ["complexity", "--iters-hybrid", "-1"],
        ["complexity", "--m-order", "6"],
        ["validate-channel", "--samples", "0"],
        ["complexity", "--nt-max", "1"],
        ["validate-channel", "--n-antennas", "0"],
    ])
    def test_bad_model_argument_rejected(self, argv):
        assert cli_main(argv) == EXIT_CONFIG

    def test_smallest_nt_max_prints_only_two_antennas(self, capsys):
        assert cli_main(["complexity", "--nt-max", "2"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and {row.split(",")[0] for row in rows} == {"2"}

    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["calibrate", "--detector", "pso"],
        ["convergence", "--detector", "pso-mmse"],
        ["validate-channel"],
    ])
    def test_negative_seed_rejected(self, config_path, command, capsys):
        config = [] if command[0] == "validate-channel" else ["--config", config_path]
        argv = command[:1] + config + command[1:] + ["--seed", "-1"]
        assert cli_main(argv) == EXIT_CONFIG
        assert "numerical failure" not in capsys.readouterr().err

    def test_negative_config_seed_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(BASE_CONFIG, master_seed=-1)))
        assert cli_main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
        assert "master_seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["convergence", "--detector", "pso-mmse", "--ebn0=-inf"],
        ["convergence", "--detector", "pso-mmse", "--ebn0", "nan"],
        ["convergence", "--detector", "pso-mmse", "--rho", "1.5"],
        ["convergence", "--detector", "pso-mmse", "--rho", "nan"],
        ["calibrate", "--detector", "pso", "--ebn0=-inf"],
        ["calibrate", "--detector", "pso", "--rho", "1.5"],
        ["convergence", "--detector", "pso-mmse", "--ebn0=-4000"],
        ["convergence", "--detector", "pso-mmse", "--ebn0", "3500"],
        ["calibrate", "--detector", "pso", "--ebn0=-4000"],
        ["calibrate", "--detector", "pso", "--ebn0", "3500"],
    ])
    def test_operating_point_outside_model_rejected(self, config_path, command, capsys):
        argv = command[:1] + ["--config", config_path] + command[1:]
        assert cli_main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("rho", ["1.5", "nan", "-0.1"])
    def test_validate_channel_rho_outside_model_rejected(self, rho, capsys):
        assert cli_main(["validate-channel", "--samples", "10", "--rho", rho]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "rho" in err and "numerical failure" not in err

    def test_bad_detector_parameters_rejected_before_any_frame(self, tmp_path, monkeypatch,
                                                               capsys):
        import mimodet.simulate as sim

        def no_frames(*args, **kwargs):
            raise AssertionError("a frame ran before the config was rejected")

        monkeypatch.setattr(sim, "_simulate_frames", no_frames)
        bad = tmp_path / "bad.json"
        # an invalid value, then fields the kind does not read, then values
        # that used to fail mid-run or never
        for det in [{"kind": "de", "n_pop": 3}, {"kind": "de", "c1": 3},
                    {"kind": "mmse", "iters": 50}, {"kind": "ml", "n_pop": 3},
                    {"kind": "de", "search_lo": 1, "search_hi": -1},
                    {"kind": "pso", "n_pop": 40.5}, {"kind": "de-mmse", "iters": 2.5},
                    {"kind": "pso", "c1": float("nan")},
                    {"kind": "de", "search_lo": float("-inf")},
                    {"kind": "pso-mmse", "search_lo": -5}, {"kind": "pso", "c1": True},
                    {"kind": "de", "f_mut": True}, {"kind": "pso", "v_max": True}]:
            bad.write_text(json.dumps(dict(BASE_CONFIG, detectors=[{"kind": "zf"}, det])))
            assert cli_main(["simulate", "--config", str(bad)]) == EXIT_CONFIG, det
            assert det["kind"].upper() in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [{"ebn0_db_list": [float("-inf")]},
                                        {"ebn0_db_list": [float("nan")]},
                                        {"rho_list": [float("nan")]},
                                        {"ebn0_db_list": [-4000]},
                                        {"ebn0_db_list": [8, 3500]}])
    def test_config_point_outside_model_rejected(self, tmp_path, fields):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(BASE_CONFIG, **fields)))
        assert cli_main(["simulate", "--config", str(bad)]) == EXIT_CONFIG

    def test_noiseless_point_accepted(self, config_path, capsys):
        argv = ["convergence", "--config", config_path, "--detector", "pso-mmse",
                "--max-iters", "1", "--ebn0", "inf", "--vectors", "64"]
        assert cli_main(argv) == EXIT_OK
        assert ",inf,0.0,1,64," in capsys.readouterr().out

    def test_unknown_command(self):
        assert cli_main(["defragment"]) == EXIT_CONFIG

    def test_no_command(self):
        assert cli_main([]) == EXIT_CONFIG
