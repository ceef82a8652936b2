"""Spans and counts recorded around mimodet's public functions.

The tracer patches module attributes where the engine looks them up (for
example ``mimodet.simulate.generate_channel``, not
``mimodet.channel.generate_channel``) and restores them on exit. Nothing
inside ``src/mimodet`` is changed. Spans are kept in memory per op and
folded into per-name aggregates when the op ends; the raw spans of the
first traced op are kept for the result file.

Forked pool workers inherit the patches but their spans die with them, so
a parallel sweep contributes only the spans of the parent process.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import time
from collections import defaultdict

EQUALIZERS = ("mf_equalizer", "zf_equalizer", "mmse_equalizer")
DRAWS = ("uniform", "standard_normal", "integers")
KINDS = ("MF", "ZF", "MMSE", "ML", "PSO", "DE", "PSO-MF", "PSO-MMSE", "DE-MF", "DE-MMSE")


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a list of ``[name, start, end, parent, tag]`` with
    ``parent`` the index of the enclosing span or -1.
    """
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [(s[2] - s[1]) - covered_length(s[1], s[2], children[i])
            for i, s in enumerate(spans)]


class _SeedFallbackHandler(logging.Handler):
    """Counts subcarriers that lost their linear seed, from simulate's log."""

    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if "lost their linear seed" in str(record.msg):
            self.tracer.counts["simulate.seed_fallbacks"] += int(record.args[1])


class Tracer:
    """Records spans and counts of one op while entered as a context.

    Entering installs the patches and leaving removes them and folds the
    op into the aggregates, so code outside the context runs unpatched.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.calls = defaultdict(int)      # name -> span count
        self.total_s = defaultdict(float)  # name -> summed duration
        self.self_s = defaultdict(float)   # name -> summed self time
        self.kind_vectors = defaultdict(int)
        self.kind_s = defaultdict(float)
        self.first_op_spans = None
        self._patches = []

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str, tag=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, tag])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def reset(self) -> None:
        """Drop the aggregates, keeping the first op's spans."""
        first = self.first_op_spans
        self.__init__()
        self.first_op_spans = first

    def end_op(self) -> None:
        """Fold the current op's spans into the aggregates."""
        spans, self.spans, self.stack = self.spans, [], []
        if self.first_op_spans is None:
            self.first_op_spans = spans
        for s, own in zip(spans, self_times(spans)):
            name = s[0]
            self.calls[name] += 1
            self.total_s[name] += s[2] - s[1]
            self.self_s[name] += own
            if name == "simulate.detect_frame":
                kind, vectors = s[4]
                self.kind_vectors[kind] += vectors
                self.kind_s[kind] += s[2] - s[1]

    # -- patching -----------------------------------------------------------

    def wrap(self, fn, name, tag=None, before=None, after=None, raises=None):
        """Span-recording wrapper.

        ``before``/``after`` run outside the span, so their bookkeeping is
        not charged to the layer. ``raises`` is an (exception, count key)
        pair counted each time ``fn`` raises that exception.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            idx = tracer.open(name, tag(*args, **kwargs) if tag else None)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if raises and isinstance(exc, raises[0]):
                    tracer.counts[raises[1]] += 1
                raise
            finally:
                tracer.close(idx)
            if after:
                after(state, out, *args, **kwargs)
            return out
        return wrapper

    def patch(self, owner, attr, name, **hooks) -> None:
        # A class's own __dict__ shows a classmethod as such; getattr would
        # hand back a bound method that cannot be restored as it was.
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:  # the engine no longer has it: report zero
            return
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, **hooks))
        else:
            replacement = self.wrap(original, name, **hooks)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import mimodet.detectors as det
        import mimodet.heuristics as heu
        import mimodet.rng as rng
        import mimodet.simulate as sim
        import numpy as np
        from mimodet.linalg import SingularMatrixError

        p = self.patch
        for attr in ("run_paired", "convergence_study", "run_sweep", "run_ber_point"):
            p(sim, attr, "simulate." + attr)
        p(sim, "_detect_frame", "simulate.detect_frame",
          tag=lambda res, config, const, hs, *a, **k: (res.label, hs.shape[0]))
        p(sim, "generate_channel", "channel.generate_channel")
        p(sim, "map_bits", "ofdm.map_bits")
        p(sim, "demap_symbols", "ofdm.demap_symbols")
        p(sim, "realify", "realdomain.realify")
        for attr in EQUALIZERS:
            p(sim, attr, "detectors.equalize")
        p(sim, "apply_equalizer", "detectors.apply_equalizer")
        p(sim, "ml_detect", "detectors.ml_detect")
        for owner in (sim, heu):
            p(owner, "run_swarm", "heuristics.run_swarm")
            p(owner, "run_population", "heuristics.run_population")
        p(sim, "run_hybrid", "heuristics.run_hybrid")
        p(sim, "records_to_csv", "cli.write")
        p(sim, "write_text_atomic", "cli.write")
        p(sim.SimulationConfig, "from_json_file", "cli.config_load")
        p(det, "invert_lu", "linalg.invert_lu",
          raises=(SingularMatrixError, "linalg.singular"))
        p(heu, "init_swarm", "heuristics.init")
        p(heu, "init_population", "heuristics.init")
        p(heu, "hard_decision", "heuristics.hard_decision")
        p(heu, "fitness_columns", "realdomain.fitness_columns",
          after=lambda state, out, *a, **k: self._count("realdomain.fitness_evals", out.size))
        p(heu, "pso_iterate", "heuristics.pso_iterate",
          before=lambda rng_, state, *a, **k: state.pb_fitness.copy(),
          after=lambda old, state, *a, **k: self._ratio(
              "pso_pb", int(np.count_nonzero(state.pb_fitness < old)), old.size))
        p(heu, "de_generation", "heuristics.de_generation",
          before=lambda rng_, pop, *a, **k: pop.individuals.copy(),
          after=lambda old, pop, *a, **k: self._ratio(
              "de_accept", int(np.count_nonzero((pop.individuals != old).any(axis=-2))),
              old.size // old.shape[-2]))
        p(rng.RngStream, "__init__", "rng.substream")
        for attr in DRAWS:
            p(rng.RngStream, attr, "rng.draw",
              after=self._count_de_integers if attr == "integers" else None)
        self._patch_pool(sim)
        handler = _SeedFallbackHandler(self)
        sim.log.addHandler(handler)
        self._patches.append((sim.log, None, handler))

    def _patch_pool(self, sim) -> None:
        tracer = self
        base = sim.ProcessPoolExecutor

        class TracedPool(base):
            """Times pool creation plus the first submission, which forks the
            workers, as start; result gathering and shutdown as wait."""

            def __init__(self, *args, **kwargs):
                self._traced_started = False
                tracer.counts["simulate.pool_starts"] += 1
                with tracer.span("pool.start"):
                    super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                with tracer.span("pool.wait" if self._traced_started else "pool.start"):
                    results = super().map(fn, *iterables, **kwargs)
                self._traced_started = True
                with tracer.span("pool.wait"):
                    return list(results)

            def shutdown(self, *args, **kwargs):
                with tracer.span("pool.wait"):
                    return super().shutdown(*args, **kwargs)

        sim.ProcessPoolExecutor = TracedPool
        self._patches.append((sim, "ProcessPoolExecutor", base))

    def _count(self, key, n) -> None:
        self.counts[key] += n

    def _ratio(self, key, hits, attempts) -> None:
        self.counts[key + ".hits"] += hits
        self.counts[key + ".attempts"] += attempts

    def _count_de_integers(self, state, out, *args, **kwargs) -> None:
        if self.inside("heuristics.de_generation"):
            self.counts["heuristics.de_integers"] += 1

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if attr is None:
                owner.removeHandler(original)
            else:
                setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self.end_op()
        return False


def per_layer_metrics(tr: Tracer, n_ops: int) -> dict:
    """Per-layer metrics as name -> (value, unit); counts and times per op.

    A ``.s`` time is the summed duration of the function's spans, children
    included; ``simulate.self_s`` is the time in simulate's own code with
    every traced child removed. Metrics of code that did not run are 0.
    """
    def calls(name):
        return (tr.calls[name] / n_ops, "count/op")

    def secs(*names):
        return (sum(tr.total_s[n] for n in names) / n_ops, "s/op")

    def per_op(key):
        return (tr.counts[key] / n_ops, "count/op")

    def ratio(key):
        attempts = tr.counts[key + ".attempts"]
        return (tr.counts[key + ".hits"] / attempts if attempts else 0.0, "ratio")

    m = {
        "rng.substreams": calls("rng.substream"),
        "rng.substream_s": secs("rng.substream"),
        "rng.draws": calls("rng.draw"),
        "rng.draw_s": secs("rng.draw"),
        "channel.generate_channel.calls": calls("channel.generate_channel"),
        "channel.generate_channel.s": secs("channel.generate_channel"),
        "ofdm.map_bits.s": secs("ofdm.map_bits"),
        "ofdm.demap_symbols.calls": calls("ofdm.demap_symbols"),
        "ofdm.demap_symbols.s": secs("ofdm.demap_symbols"),
        "linalg.invert_lu.calls": calls("linalg.invert_lu"),
        "linalg.invert_lu.s": secs("linalg.invert_lu"),
        "linalg.singular": per_op("linalg.singular"),
        "detectors.equalize.calls": calls("detectors.equalize"),
        "detectors.equalize.s": secs("detectors.equalize", "detectors.apply_equalizer"),
        "detectors.ml_detect.calls": calls("detectors.ml_detect"),
        "detectors.ml_detect.s": secs("detectors.ml_detect"),
        "realdomain.realify.s": secs("realdomain.realify"),
        "realdomain.fitness_columns.calls": calls("realdomain.fitness_columns"),
        "realdomain.fitness_columns.s": secs("realdomain.fitness_columns"),
        "realdomain.fitness_evals": per_op("realdomain.fitness_evals"),
        "heuristics.init.s": secs("heuristics.init"),
        "heuristics.pso_iterate.calls": calls("heuristics.pso_iterate"),
        "heuristics.pso_iterate.s": secs("heuristics.pso_iterate"),
        "heuristics.de_generation.calls": calls("heuristics.de_generation"),
        "heuristics.de_generation.s": secs("heuristics.de_generation"),
        "heuristics.hard_decision.calls": calls("heuristics.hard_decision"),
        "heuristics.hard_decision.s": secs("heuristics.hard_decision"),
        # _mutation_indices draws once and the crossover once; any further
        # integers draw inside a generation is a rejection redraw.
        "heuristics.mutation_redraws": (
            (tr.counts["heuristics.de_integers"] - 2 * tr.calls["heuristics.de_generation"])
            / n_ops, "count/op"),
        "heuristics.de_accept_ratio": ratio("de_accept"),
        "heuristics.pso_pb_improve_ratio": ratio("pso_pb"),
        "simulate.self_s": (sum(v for k, v in tr.self_s.items() if k.startswith("simulate."))
                            / n_ops, "s/op"),
        "simulate.seed_fallbacks": per_op("simulate.seed_fallbacks"),
        "simulate.pool_starts": (0.0, "count/op"),
        "simulate.pool_start_s": (0.0, "s/op"),
        "simulate.pool_wait_s": (0.0, "s/op"),
        "simulate.parallel_efficiency": (0.0, "ratio"),
        "cli.config_load_s": secs("cli.config_load"),
        "cli.write_s": secs("cli.write"),
    }
    for kind in KINDS:
        busy = tr.kind_s[kind]
        m[f"detect.{kind}.vectors_per_s"] = (tr.kind_vectors[kind] / busy if busy else 0.0, "1/s")
    return m
