"""Tests of the benchmark itself: tracer arithmetic, wrapper removal, tiny
runs of every workload, and failure counting.

Run from the root of the repository:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import lensfib  # noqa: E402
import measure  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import CLI_COMMANDS, WORKLOADS  # noqa: E402

# Small enough for a test, large enough to reach every subcommand of ``cli``.
TINY = {"roundtrip": 40, "classify_census": 40, "enumerate": 2, "cli": 60}


def lensfib_bindings() -> dict:
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if module is not None and (name == "lensfib" or name.startswith("lensfib."))
        for attr, obj in vars(module).items()
    }


def test_self_time_of_a_synthetic_tree():
    #   0 root [0, 100]
    #   1   a  [10, 40]      2   b [30, 60]   (overlaps a: union 10..60)
    #   3     a1 [15, 25]
    #   4   c  [90, 120]     (clipped to the root: 90..100)
    parent = [-1, 0, 0, 1, 0]
    start = [0, 10, 30, 15, 90]
    end = [100, 40, 60, 25, 120]
    assert self_times(parent, start, end) == [100 - 50 - 10, 30 - 10, 30, 10, 30]


def test_windows_cut_consecutive_ops_and_drop_the_rest():
    assert measure.windows(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5]]
    assert measure.windows([5, 6], 50) == [[5, 6]]


def test_window_figures_are_medians_over_windows():
    # Five windows of 100 ops, 1..100 ns; the third is slowed tenfold by a
    # burst and does not move any figure.
    calm = list(range(1, 101))
    latencies = calm * 2 + [10 * v for v in calm] + calm * 2
    rate, p50, tail = measure.window_figures(latencies, 100)
    assert rate == 100 / (sum(calm) / 1e9)
    assert p50 == 50.5
    # Ten samples, 91..100, lie beyond the tail.
    assert tail == 90


def test_tail_of_a_window_too_small_for_ten_samples_beyond_is_its_maximum():
    assert measure.tail_beyond(100) == 10
    assert measure.tail_beyond(5) == 0
    assert measure.window_figures([3, 1, 2], 50)[2] == 3


def test_tracer_sees_nested_calls_and_restores_every_binding():
    before = lensfib_bindings()
    snf = lensfib.pi1.smith_normal_form
    complement = lensfib.construct.unimodular_complement
    with Tracer(measure.LAYER_MODULES, measure.NOTES) as tracer:
        assert lensfib.pi1.smith_normal_form is not snf
        assert lensfib.construct.unimodular_complement is not complement
        tracer.begin_op(0)
        fib = lensfib.construct_fibration(lensfib.LensSpace(7, 2), 5, 2).fibration
        lensfib.first_homology(fib)
        tracer.end_op()
        spans = tracer.take()
    assert lensfib_bindings() == before
    names = [spans.names[i] for i in spans.name]
    parents = {names[i]: names[spans.parent[i]] for i in range(len(names)) if spans.parent[i] >= 0}
    assert parents["exact_arith.unimodular_complement"] == "construct.construct_fibration"
    assert parents["exact_arith.smith_normal_form"] == "pi1.first_homology"
    assert all(e >= s for s, e in zip(spans.start, spans.end))


def test_traced_run_removes_its_wrappers():
    before = lensfib_bindings()
    measure.traced(WORKLOADS["roundtrip"], seed=2, seconds=0, import_runs=1, corpus=5)
    assert lensfib_bindings() == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_has_no_failures_and_traced_digest_matches(name):
    w = WORKLOADS[name]
    n = TINY[name]
    plain = measure.end_to_end(w, seed=7, seconds=0, setup_runs=1, cold=1,
                               min_ops=n, digest_ops=n)
    assert plain["failed"] == 0 and plain["attempted"] >= n
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert list(plain["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    traced = measure.traced(w, seed=7, seconds=0, import_runs=1, corpus=n)
    assert traced["failed"] == 0
    assert list(traced["metrics"]) == [m["name"] for m in declared["per_layer"]]
    assert traced["digest"] == plain["digest"]
    assert traced["info"]["trace_ops"] == n


def test_cli_mix_covers_every_subcommand_and_the_error_path():
    cases = list(islice(WORKLOADS["cli"].cases(random.Random(1)), 2000))
    assert {c.argv[1] for c in cases} == set(CLI_COMMANDS)
    bad = sum(c.exit_code == 1 for c in cases)
    assert 0.05 < bad / len(cases) < 0.15


def test_corrupted_expectation_counts_as_failure():
    rt = WORKLOADS["roundtrip"]
    census = WORKLOADS["classify_census"]
    cli = WORKLOADS["cli"]
    rt_case = next(c for c in rt.cases(random.Random(3)) if c.p > 2)
    census_case = next(census.cases(random.Random(3)))
    cli_case = next(cli.cases(random.Random(3)))
    corrupted = [
        (rt, rt_case._replace(q=(rt_case.q + 1) % rt_case.p)),
        (census, census_case._replace(classes=3)),
        (cli, cli_case._replace(exit_code=1 - cli_case.exit_code)),
        # The op itself raises: a zero weight is a domain error.
        (rt, rt_case._replace(a20=0)),
    ]
    for w, case in corrupted:
        tally = measure.Tally()
        tally.run(w, case)
        assert (tally.attempted, tally.failed) == (1, 1), case


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.xfail(strict=True, reason="smith_normal_form's intermediate entries outgrow "
                   "the integer guard on some non-orientable lists with four pairs")
def test_known_defect_homology_of_four_pair_nonorientable_list():
    fib = lensfib.parse("M(-2;(14,31),(-26,-51),(26,27),(5,-22))")
    assert lensfib.first_homology(fib)
