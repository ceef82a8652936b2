"""Command-line front end.

Subcommands:
    simulate          BER sweep from a JSON config file
    calibrate         coordinate-descent parameter search for one detector
    convergence       BER versus iteration budget for one detector
    complexity        closed-form flop counts versus antenna count
    validate-channel  statistical checks of the channel model

Exit codes: 0 success, 1 configuration error (or a stdout closed before
the output was written), 2 runtime numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import complexity as cx
from . import simulate as sim
from .channel import (
    CorrelationSpec,
    PdpSpec,
    build_correlation_matrix,
    generate_channel,
    generate_pdp_channel,
)
from .config import (DEFAULT_HYBRID_ITERS, DEFAULT_RANDOM_ITERS, CalibrationPlan, ConfigError,
                     DetectorConfig, SimulationConfig, check_rho, check_square_qam,
                     default_calibration_plan)
from .linalg import draw_standard_complex_gaussian
from .ofdm import map_bits, square_qam, time_domain_roundtrip
from .rng import RngStream

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mimodet",
                                     description="MIMO-OFDM detection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags of every command that runs the engine on a config file.
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--config", required=True, help="JSON configuration file")
    engine.add_argument("--seed", type=_nonnegative_int, default=None, help="override master seed")
    engine.add_argument("--out", default=None, help="output path (default: stdout)")
    engine.add_argument("--workers", type=_positive_int, default=1)

    p = sub.add_parser("simulate", parents=[engine],
                       help="run the BER sweep described by a config file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("calibrate", parents=[engine],
                       help="coordinate-descent calibration of one detector")
    p.add_argument("--detector", required=True,
                   help="heuristic detector kind, e.g. pso or de-mmse")
    p.add_argument("--ebn0", type=float, default=CalibrationPlan.ebn0_db)
    p.add_argument("--rho", type=float, default=CalibrationPlan.rho)
    p.add_argument("--min-errors", type=_positive_int, default=CalibrationPlan.min_error_events)
    p.add_argument("--max-vectors", type=_positive_int, default=CalibrationPlan.max_vectors)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("convergence", parents=[engine], help="BER versus iteration budget")
    p.add_argument("--detector", required=True)
    p.add_argument("--max-iters", type=_nonnegative_int, default=25)
    p.add_argument("--ebn0", type=float, nargs="+", default=[16.0])
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--vectors", type=_positive_int, default=None,
                   help="symbol vectors per point, rounded up to whole frames "
                        "of n_subcarriers (default: config max_trials)")
    p.add_argument("--traces-out", default=None,
                   help="also export per-iteration fitness traces of the first frame")
    p.set_defaults(handler=_cmd_convergence)

    p = sub.add_parser("complexity", help="flop formulas over antenna counts")
    p.add_argument("--nt-max", type=_int_at_least(2), default=256)
    p.add_argument("--pop-factor", type=_positive_int, default=5)
    p.add_argument("--iters", type=_nonnegative_int, default=DEFAULT_RANDOM_ITERS)
    p.add_argument("--iters-hybrid", type=_nonnegative_int, default=DEFAULT_HYBRID_ITERS)
    p.add_argument("--m-order", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_complexity)

    p = sub.add_parser("validate-channel",
                       help="Kronecker covariance and cyclic-prefix equivalence checks")
    # Below 1,000 samples the covariance tolerance nears the target's
    # largest entry, so a wrongly correlated channel could pass.
    p.add_argument("--samples", type=_int_at_least(1000), default=100_000)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--n-antennas", type=_positive_int, default=4)
    p.add_argument("--seed", type=_nonnegative_int, default=7)
    p.set_defaults(handler=_cmd_validate_channel)
    return parser


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        sim.write_text_atomic(out_path, text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc


def _check_out_dirs(args) -> None:
    """Reject an output path that is empty, is a directory, or lies in a
    missing one, before any work starts."""
    for flag, path in (("--out", getattr(args, "out", None)),
                       ("--traces-out", getattr(args, "traces_out", None))):
        if path is None:
            continue
        if not path:
            raise ConfigError(f"{flag} is an empty path")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"cannot write {path}: no such directory")


def _load_config(args) -> SimulationConfig:
    """The --config file, with --seed (when given) as its master seed."""
    config = SimulationConfig.from_json_file(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    return config


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    records = sim.run_sweep(config, workers=args.workers)
    write = sim.records_to_csv if args.format == "csv" else sim.records_to_json
    _emit(write(records, config), args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    config = _load_config(args)
    kind = args.detector.lower()
    plan = default_calibration_plan(kind, ebn0_db=args.ebn0, rho=args.rho,
                                    min_error_events=args.min_errors,
                                    max_vectors=args.max_vectors)
    result = sim.calibrate(plan, config, DetectorConfig(kind=kind),
                           workers=args.workers)
    _emit(sim.calibration_to_csv(result), args.out)
    return EXIT_OK


def _cmd_convergence(args) -> int:
    config = _load_config(args)
    det = DetectorConfig(kind=args.detector.lower())
    study = sim.convergence_study(config, det, args.ebn0, args.max_iters,
                                  rho=args.rho, n_vectors=args.vectors,
                                  workers=args.workers)
    _emit(sim.convergence_rows_to_csv(study.rows), args.out)
    if args.traces_out is not None:
        _emit(sim.fitness_traces_to_csv(det.label, study.trace), args.traces_out)
    return EXIT_OK


def _check_ml_digits(n_t: int, m_order: int) -> None:
    """Reject a table whose exact ML count at n_t has more digits than
    Python writes (sys.get_int_max_str_digits(); 0, or Python before
    3.10.7, means no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # M^(2 n_t) = 2^bits alone passes 10^limit from 4 * limit bits on.
    bits = 2 * n_t * (m_order.bit_length() - 1)
    if limit and (bits >= 4 * limit or cx.flops_detector(
            "ml", cx.FlopFormulaInput(n_t, n_t, m_order=m_order)) >= 10 ** limit):
        raise ConfigError(f"ML's flop count at n_t = {n_t}, m_order {m_order} has more than "
                          f"{limit} digits, Python's int-to-string limit")


def _cmd_complexity(args) -> int:
    check_square_qam(args.m_order)
    nt_values = [2]
    while nt_values[-1] * 2 <= args.nt_max:
        nt_values.append(nt_values[-1] * 2)
    _check_ml_digits(nt_values[-1], args.m_order)
    rows = cx.complexity_sweep(nt_values, pop_factor=args.pop_factor,
                               iters=args.iters, iters_hybrid=args.iters_hybrid,
                               m_order=args.m_order)
    _emit(sim.complexity_rows_to_csv(rows), args.out)
    return EXIT_OK


def _cmd_validate_channel(args) -> int:
    check_rho(args.rho)
    rng = RngStream(args.seed)
    spec = CorrelationSpec(rho=args.rho, n_antennas=args.n_antennas)
    n = args.n_antennas

    # Sample covariance of vec(H) against the Kronecker target R_t (x) R_r.
    # Its error falls as 1/sqrt(samples): the tolerance is 0.02 at 100,000.
    h = generate_channel([rng.substream("cov")], spec, args.samples)
    vecs = h.transpose(0, 2, 1).reshape(args.samples, n * n)  # column-major vec
    cov = vecs.T @ vecs.conj() / args.samples
    target = np.kron(build_correlation_matrix(spec), build_correlation_matrix(spec))
    cov_err = float(np.max(np.abs(cov - target)))
    cov_tol = 0.02 * np.sqrt(100_000 / args.samples)
    cov_ok = cov_err < cov_tol
    print(f"kronecker-covariance max entry error {cov_err:.4f} "
          f"({'PASS' if cov_ok else 'FAIL'}, tolerance {cov_tol:.3g} at {args.samples} samples)")

    # Cyclic prefix: the time-domain chain over the PDP channel's taps must
    # equal the per-subcarrier model over its DFT.
    n_sc, cp_len = 64, 16
    bits = rng.substream("cp").integers(0, 2, n_sc * n * 2)
    symbols = map_bits(bits, n, square_qam(4))
    taps, hf = generate_pdp_channel(rng.substream("taps"), spec, PdpSpec(), n_sc)
    grid = time_domain_roundtrip(taps, symbols, cp_len)
    direct = np.einsum("nrt,tn->rn", hf, symbols)
    cp_err = float(np.max(np.abs(grid - direct)))
    cp_ok = cp_err < 1e-10
    print(f"cyclic-prefix equivalence max error {cp_err:.3e} "
          f"({'PASS' if cp_ok else 'FAIL'}, tolerance 1e-10)")

    # rho = 0 returns the raw draws, bit for bit.
    flat = generate_channel([rng.substream("flat")], CorrelationSpec(0.0, n), 8)
    raw = draw_standard_complex_gaussian(rng.substream("flat"), n, n, count=8)
    flat_ok = flat.tobytes() == raw.tobytes()
    print(f"rho = 0 channel equals the raw draw bit for bit ({'PASS' if flat_ok else 'FAIL'})")

    return EXIT_OK if (cov_ok and cp_ok and flat_ok) else EXIT_RUNTIME


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        _check_out_dirs(args)
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`mimodet ... | head -1`). As Python's
        # SIGPIPE note advises, point stdout at devnull so the flush at exit
        # cannot raise again, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_CONFIG
    sys.exit(code)


if __name__ == "__main__":
    main()
