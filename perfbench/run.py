"""mimodet benchmark: detector-vector throughput per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the engine is imported from
``src/``. One client sends ops in a closed loop (the next op starts when
the previous one returns) for at least ``--seconds`` seconds, in whole
cycles over the workload's grid points. Every op's output is checked (see
workloads.py), bit-error totals are compared with ``reference.json``, and
the first op is re-run untimed and must give identical counts.

``--trace 0`` prints the end-to-end metrics. The gated throughput,
``vectors_per_ref``, counts detector-vector decisions per "ref": the
time one run of a fixed reference kernel takes in the same run. After
each op the kernel runs for a twentieth of that op's time, so its mean
tracks the host's speed over the whole run. On a shared host whose speed
drifts by up to 2x over tens of seconds, this ratio measures the program,
while the wall-clock rate, printed beside it as ``vectors_per_s`` and not
gated, measures the host as well. ``setup_s`` is likewise the median
set-up time scaled to a nominal host speed at which one ref takes 1 ms;
its wall-clock median is printed as ``setup_wall_s``.

``--trace 1`` runs every op twice, untraced and then traced, and prints
per-layer metrics from spans recorded around the engine's public
functions (tracing.py); per-layer counts and times are per traced op.
It also reconciles the fitness evaluations with the closed-form model
and checks the zero-call predictions. For ``sweep_cli`` it adds one
sweep with ``--workers`` equal to the CPU count, whose CSV must match
the serial one byte for byte.

BLAS thread variables are recorded, never set: pinning them would hide
the oversubscription of the process pool.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record,
with the environment stamp, goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import ALL_WORKLOADS, Engine, OpResult, derive_seed, within_tolerance  # noqa: E402

SETUP_SAMPLES = 3          # set-ups per run; setup_s is their median
REF_SHARE = 0.05           # reference-kernel time after each op, as a share of the op's
REF_NOMINAL_S = 0.001      # one ref at the nominal host speed that setup_s is quoted at
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (no engine, broken set-up)."""


def load_engine() -> Engine:
    src = ROOT / "src"
    if not (src / "mimodet" / "__init__.py").is_file():
        raise BenchError(f"no engine source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mimodet.cli as cli
    import mimodet.complexity as cx
    import mimodet.simulate as sim
    if not Path(sim.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"mimodet imported from {sim.__file__}, not from {src}")
    return Engine(sim=sim, cli=cli, cx=cx)


def run_op(wl, eng, ctx, point, seed, **kw):
    """One op, timed; an exception makes it a failed op, not a crash."""
    start = time.perf_counter()
    try:
        res = wl.op(eng, ctx, point, seed, **kw)
    except Exception as exc:
        res = OpResult(problem="".join(traceback.format_exception_only(exc)).strip())
    return res, time.perf_counter() - start


def setup(wl, seed: int, workdir: str):
    """Import, config construction and one warm-up op; returns seconds."""
    start = time.perf_counter()
    eng = load_engine()
    ctx = wl.prepare(eng, workdir)
    res, _ = run_op(wl, eng, ctx, wl.points[0], derive_seed(seed, wl.name, "warmup"))
    if res.problem:
        raise BenchError(f"warm-up op failed: {res.problem}")
    return eng, ctx, time.perf_counter() - start


def setup_in_subprocess(wl, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", wl.name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def blas_threads() -> dict:
    """Thread count of each bundled OpenBLAS, as the library reports it."""
    import ctypes

    import numpy as np
    import scipy
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[f"{pkg.__name__}:{Path(path).name}"] = fn()
                    break
    return out


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` reports them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def env_stamp(seed: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    commit = "unknown"  # benchmark checkouts need not be git repositories
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": vendor,
        "blas_threads": blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# Checks shared by both modes
# ---------------------------------------------------------------------------

def add_counts(total: dict, counts: dict) -> None:
    for key, (errors, bits) in counts.items():
        acc = total.setdefault(key, [0, 0])
        acc[0] += errors
        acc[1] += bits


def reference_misses(wl, totals: dict) -> list:
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)[wl.name]
    misses = []
    for key, (errors, bits) in sorted(totals.items()):
        if key not in ref:
            misses.append(f"{key}: no reference")
        elif not within_tolerance(errors, bits, *ref[key]):
            misses.append(f"{key}: {errors}/{bits} vs reference {ref[key][0]}/{ref[key][1]}")
    return misses


def tail(latencies: list):
    """(percentile, value) with at least ten samples beyond it, or None."""
    n = len(latencies)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------

def make_reference_kernel():
    """Fixed work that shares no code with mimodet, in the engine's mix.

    Batched 4x4 solves through numpy and a Python arithmetic loop: small
    numpy calls and interpreter steps are what the engine's ops are made
    of, so the host's speed changes move both alike. numpy is imported
    here, after set-up, so that set-up time still includes its import.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 4, 4)) + 4 * np.eye(4)
    b = rng.standard_normal((64, 4, 1))

    def kernel() -> float:
        acc = 0.0
        for _ in range(10):
            acc += float(np.linalg.solve(a, b).sum())
            for j in range(500):
                acc += j * 0.5
        return acc
    return kernel


def time_reference(kernel, budget_s: float):
    """Run `kernel` until `budget_s` has passed, at least once.

    Returns (runs, seconds).
    """
    runs, start = 0, time.perf_counter()
    while True:
        kernel()
        runs += 1
        spent = time.perf_counter() - start
        if spent >= budget_s:
            return runs, spent


def closed_loop(wl, seconds: float, step):
    """Call step(i, point) in whole grid cycles until `seconds` have passed."""
    start = time.perf_counter()
    i = 0
    while True:
        step(i, wl.points[i % len(wl.points)])
        i += 1
        if i % len(wl.points) == 0 and time.perf_counter() - start >= seconds:
            return time.perf_counter() - start


def measure(wl, eng, ctx, seed, seconds, setup_samples) -> dict:
    ops = []
    kernel = make_reference_kernel()
    ref = [0, 0.0]   # reference-kernel runs and seconds

    def step(i, point):
        res, dt = run_op(wl, eng, ctx, point, derive_seed(seed, wl.name, i))
        ops.append((point, res, dt))
        runs, spent = time_reference(kernel, REF_SHARE * dt)
        ref[0] += runs
        ref[1] += spent

    closed_loop(wl, seconds, step)
    latencies = [dt for _, _, dt in ops]
    failed = [res.problem for _, res, _ in ops if res.problem]
    totals = {}
    for _, res, _ in ops:
        add_counts(totals, res.counts)
    misses = reference_misses(wl, totals)
    first_point, first, _ = ops[0]
    again, _ = run_op(wl, eng, ctx, first_point, derive_seed(seed, wl.name, 0))
    repeat_ok = again.counts == first.counts and again.csv == first.csv and not again.problem
    decisions = sum(res.decisions for _, res, _ in ops if not res.problem)
    op_s = sum(latencies)
    ref_s = ref[1] / ref[0]
    setup_wall_s = statistics.median(setup_samples)
    metrics = {
        "vectors_per_ref": (decisions / op_s * ref_s, "1/ref"),
        # Scaled to the nominal host speed, as the host's speed drifts between runs.
        "setup_s": (setup_wall_s * REF_NOMINAL_S / ref_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "vectors_per_ref": f"{decisions} decisions in {op_s:.3f} s of {len(ops)} ops; "
                           f"one ref = {ref_s * 1000:.4f} ms, mean of {ref[0]} kernel runs",
        "setup_s": f"median of {len(setup_samples)} set-ups, "
                   + ", ".join(f"{s:.3f}" for s in setup_samples)
                   + f" s of wall time, x {REF_NOMINAL_S * 1000:g} ms / {ref_s * 1000:.4f} ms",
        "peak_rss_mb": "benchmark process",
    }
    # Wall-clock rates and latencies are reported but not gated: on a
    # shared host they follow the host's speed, and their spread over
    # ten runs reached the largest bound the benchmark may set.
    extra = {"op_latencies_s": latencies,
             "vectors_per_s": {"value": decisions / op_s, "unit": "1/s",
                               "note": f"{decisions} decisions in {op_s:.3f} s"},
             "ref_ms": {"value": ref_s * 1000.0, "unit": "ms",
                        "note": f"mean of {ref[0]} reference-kernel runs"},
             "setup_wall_s": {"value": setup_wall_s, "unit": "s",
                              "note": f"median of {len(setup_samples)} set-ups"},
             "op_p50_ms": {"value": statistics.median(latencies) * 1000.0, "unit": "ms",
                           "percentile": 50.0, "samples": len(ops)}}
    t = tail(latencies)
    if t is not None:
        extra["op_tail_ms"] = {"value": t[1] * 1000.0, "unit": "ms", "percentile": t[0],
                               "samples": len(ops), "beyond": 10}
    return {
        "attempted": len(ops) + 1,
        "failed": len(failed) + (0 if repeat_ok else 1),
        "correct": not failed and not misses and repeat_ok,
        "metrics": metrics, "notes": notes, "extra": extra,
        "checks": {"failed_ops": failed[:10], "reference_misses": misses,
                   "first_op_repeats": repeat_ok},
    }


def traced(wl, eng, ctx, seed, seconds) -> dict:
    from tracing import Tracer, per_layer_metrics
    tracer = Tracer()
    ops = []

    def step(i, point):
        op_seed = derive_seed(seed, wl.name, i)
        plain, dt_plain = run_op(wl, eng, ctx, point, op_seed)
        with tracer:
            res, dt = run_op(wl, eng, ctx, point, op_seed)
        ops.append((plain, dt_plain, res, dt))

    closed_loop(wl, seconds, step)
    problems = [x.problem for p, _, r, _ in ops for x in (p, r) if x.problem]
    mismatched = sum(1 for p, _, r, _ in ops if p.counts != r.counts or p.csv != r.csv)
    n = len(ops)
    traced_s = sum(dt for *_, dt in ops)
    traced_rate = sum(r.decisions for _, _, r, _ in ops) / traced_s
    plain_rate = sum(p.decisions for p, *_ in ops) / sum(dt for _, dt, _, _ in ops)
    layer = per_layer_metrics(tracer, n)
    model_flops = sum(r.model_flops for _, _, r, _ in ops)
    layer["complexity.model_flops"] = (model_flops / n, "flop/op")
    layer["complexity.model_mflops_per_s"] = (model_flops / traced_s / 1e6, "Mflop/s")
    layer["trace.vectors_per_s_ratio"] = (traced_rate / plain_rate if plain_rate else 0.0, "ratio")

    predicted = sum(r.fitness_evals for _, _, r, _ in ops)
    measured = tracer.counts["realdomain.fitness_evals"]
    reconcile = [] if measured == predicted else [
        f"fitness evals {measured:.0f}, closed form implies {predicted}"]
    reconcile += [f"{name} ran {tracer.calls[name]} times, predicted 0"
                  for name in wl.zero_calls if tracer.calls[name]]

    parallel = {}
    if wl.name == "sweep_cli":
        parallel = parallel_sweep(wl, eng, ctx, tracer, ops[0], seed, layer)
        problems += parallel.pop("problems")
    return {
        "attempted": 2 * n + (1 if parallel else 0),
        "failed": len(problems) + mismatched,
        "correct": not problems and not mismatched and not reconcile,
        "metrics": layer,
        "notes": {name: f"{n} traced ops" for name in layer},
        "extra": {"parallel_sweep": parallel, "plain_vectors_per_s": plain_rate,
                  "traced_vectors_per_s": traced_rate},
        "checks": {"failed_ops": problems[:10], "traced_vs_plain_mismatches": mismatched,
                   "reconciliation": reconcile},
        "first_op_spans": tracer.first_op_spans,
    }


def parallel_sweep(wl, eng, ctx, tracer, first, seed, layer) -> dict:
    """Traced re-run of the first sweep with one worker process per CPU.

    Pool metrics and the parallel efficiency come from this sweep alone;
    its CSV must equal the serial one byte for byte.
    """
    _, _, serial, serial_s = first
    workers = max(2, nproc())
    tracer.reset()
    with tracer:
        res, dt = run_op(wl, eng, ctx, None, derive_seed(seed, wl.name, 0), workers=workers)
    problems = [res.problem] if res.problem else []
    if res.csv != serial.csv:
        problems.append(f"--workers {workers} CSV differs from --workers 1")
    layer["simulate.pool_starts"] = (tracer.counts["simulate.pool_starts"], "count/op")
    layer["simulate.pool_start_s"] = (tracer.total_s["pool.start"], "s/op")
    layer["simulate.pool_wait_s"] = (tracer.total_s["pool.wait"], "s/op")
    layer["simulate.parallel_efficiency"] = (serial_s / (workers * dt), "ratio")
    return {"workers": workers, "serial_s": serial_s, "parallel_s": dt,
            "csv_identical": res.csv == serial.csv, "problems": problems}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = ALL_WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(setup(wl, args.seed, str(workdir))[2])
            return 0
        # Extra set-ups run first, in fresh processes, before this process
        # starts any BLAS threads of its own.
        samples = [] if args.trace else [setup_in_subprocess(wl, args.seed)
                                         for _ in range(SETUP_SAMPLES - 1)]
        eng, ctx, own = setup(wl, args.seed, str(workdir))
        samples.append(own)
        if args.trace:
            result = traced(wl, eng, ctx, args.seed, args.seconds)
        else:
            result = measure(wl, eng, ctx, args.seed, args.seconds, samples)
        result["env"] = env_stamp(args.seed)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.update(workload=wl.name, seconds=args.seconds, trace=args.trace)
    for name, (value, unit) in result["metrics"].items():
        print(f"{wl.name} {name} = {value:.6g} {unit} ({result['notes'][name]})")
    for name, info in result["extra"].items():
        if isinstance(info, dict) and "percentile" in info:
            print(f"{wl.name} {name} = {info['value']:.6g} {info['unit']} "
                  f"(p{info['percentile']:.1f} of {info['samples']} ops, not gated)")
        elif isinstance(info, dict) and "note" in info:
            print(f"{wl.name} {name} = {info['value']:.6g} {info['unit']} "
                  f"({info['note']}, not gated)")
    print(f"{wl.name} checks: {json.dumps(result['checks'])}")
    print(f"{wl.name} env: {json.dumps(result['env'])}")
    path = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({k: v for k, v in result.items() if k != "notes"}, fh, indent=1, default=list)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
