"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py

The smoke runs use the real op sizes with ``--seconds 0``, i.e. one cycle
over each workload's grid points, and take a few minutes in all.
"""

import json

import pytest
import run
from tracing import covered_length, self_times
from workloads import ALL_WORKLOADS, WORKLOADS, derive_seed, heuristic_evals, within_tolerance

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_is_parent_minus_covered_child_intervals():
    spans = [
        ["op", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 2.0, 5.0, 0, None],    # overlaps a: [1, 5] covered once
        ["c", 7.0, 8.0, 0, None],
        ["d", 9.0, 12.0, 0, None],   # runs past the parent: only [9, 10] counts
        ["a.x", 1.5, 2.5, 1, None],  # grandchild: charged to a, not to op
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2:] == pytest.approx([3.0, 1.0, 3.0, 1.0])


def test_covered_length_edge_cases():
    assert covered_length(0.0, 1.0, []) == 0.0
    assert covered_length(0.0, 1.0, [(2.0, 3.0)]) == 0.0
    assert covered_length(0.0, 4.0, [(0.0, 1.0), (1.0, 2.0)]) == pytest.approx(2.0)
    assert covered_length(0.0, 4.0, [(0.5, 3.5), (1.0, 2.0)]) == pytest.approx(3.0)


def test_tolerance_accepts_equal_rates_and_rejects_doubled_ones():
    assert within_tolerance(300, 65536, 600, 131072)
    assert within_tolerance(0, 8192, 3, 131072)
    assert not within_tolerance(1200, 65536, 600, 131072)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    pct, value = run.tail(list(range(30)))
    assert (pct, value) == (pytest.approx(100 * 20 / 30), 19)


def test_closed_form_fitness_evaluations():
    assert heuristic_evals("PSO", 50) == 40 * 51
    assert heuristic_evals("de-mmse", 25) == 40 * 51
    assert heuristic_evals("MMSE", 0) == 0


def test_reference_timing_runs_the_kernel_at_least_once():
    kernel = run.make_reference_kernel()
    assert kernel() == kernel()
    runs, spent = run.time_reference(kernel, 0.0)
    assert runs == 1 and spent > 0.0
    runs, spent = run.time_reference(kernel, 0.02)
    assert runs >= 1 and spent >= 0.02


def test_op_seeds_are_a_function_of_the_workload_seed():
    assert derive_seed(1, "w", 0) == derive_seed(1, "w", 0)
    assert derive_seed(1, "w", 0) != derive_seed(2, "w", 0)


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(ALL_WORKLOADS))
def test_smoke(name, trace, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"], result
    assert result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
