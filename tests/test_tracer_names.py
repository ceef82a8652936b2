"""The engine names perfbench's tracer patches.

perfbench/tracing.py wraps engine functions by module attribute, and it
skips a name the engine no longer has without a word: the layer's metrics
then read 0 while the benchmark still reports a correct run. These are
the names it patches today; a refactor that moves one must move the
tracer with it.
"""

import importlib.util
from pathlib import Path

import mimodet.heuristics as heu
import mimodet.simulate as sim
from mimodet.rng import RngStream

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

PATCHED = (
    [(sim, name) for name in (
        "run_paired", "convergence_study", "run_sweep", "run_ber_point", "_detect_frame",
        "generate_channel", "map_bits", "demap_symbols", "realify", "apply_equalizer",
        "ml_detect", "records_to_csv", "write_text_atomic", "ProcessPoolExecutor")]
    + [(sim.SimulationConfig, "from_json_file")]
    + [(heu, name) for name in (
        "init_swarm", "init_population", "fitness_columns", "pso_iterate", "de_generation")]
    + [(RngStream, name) for name in ("__init__", "uniform", "standard_normal", "integers")]
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_engine_name():
    assert len(PATCHED) == 24
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        live = {(owner, attr) for owner, attr, _ in tracer._patches}
    finally:
        tracer.uninstall()
    assert [pair for pair in PATCHED if pair not in live] == []
