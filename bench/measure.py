"""Timed runs of one workload: end to end with tracing off, or traced.

Import this module only once ``lensfib`` is importable from the checkout
(``run.py`` sees to that).  Every op is timed on its own with
``perf_counter_ns`` and checked by the workload's oracle right after, outside
the timed region; an op that raises or fails its check counts as failed and
never stops the run.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from collections.abc import Sequence
from itertools import islice
from pathlib import Path

import lensfib
import lensfib.construct

from tracer import OP, Spans, Tracer, self_times
from workloads import Workload, run_cli

SRC = Path(lensfib.__file__).resolve().parent.parent
LAYERS = ("exact_arith", "seifert", "construct", "recognize", "pi1", "classify", "cli")
LAYER_MODULES = tuple(importlib.import_module(f"lensfib.{name}") for name in LAYERS)
# Results kept with their spans: the class count of an enumeration, the exit
# code of a CLI call.
NOTES = {"classify.enumerate_fibrations": len, "cli.run": lambda code: code}
# Bound before any tracer wraps it, so its cache statistics stay readable.
GLUING = lensfib.construct.gluing_choice

# Samples beyond the tail latency of a window of ops.
TAIL_BEYOND = 10
SETUP_RUNS = 15
COLD_CALLS = 8
IMPORT_RUNS = 5


class Tally:
    """Latencies, failures and the digest of a sequence of ops."""

    def __init__(self, digest_ops: int = 0):
        self.latencies_ns = array("q")
        self.failed = 0
        self.digest_ops = digest_ops
        self.digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def run(self, w: Workload, case, tracer: Tracer | None = None) -> None:
        index = len(self.latencies_ns)
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter_ns()
        try:
            out = w.op(case)
        except Exception as exc:
            out = exc
        self.latencies_ns.append(time.perf_counter_ns() - start)
        if tracer is not None:
            tracer.end_op()
        if isinstance(out, Exception):
            ok, text = False, f"raised {type(out).__name__}: {out}"
        else:
            try:
                ok, text = w.check(case, out), w.digest_text(out)
            except Exception as exc:
                ok, text = False, f"check raised {type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
        if index < self.digest_ops:
            self.digest.update(text.encode() + b"\n")

    def ops_per_s(self) -> float:
        return len(self.latencies_ns) / (sum(self.latencies_ns) / 1e9)


def windows(latencies_ns: Sequence[int], size: int) -> list[Sequence[int]]:
    """The latencies cut into windows of ``size`` consecutive ops; leftover
    ops at the end are dropped, and a run shorter than a window is one
    window."""
    size = max(1, min(size, len(latencies_ns)))
    return [latencies_ns[i:i + size] for i in range(0, len(latencies_ns) - size + 1, size)]


def tail_beyond(size: int) -> int:
    """Samples beyond the tail latency of a window of ``size`` ops:
    ``TAIL_BEYOND``, or none in a window too small to leave that many."""
    return TAIL_BEYOND if size > TAIL_BEYOND else 0


def window_figures(latencies_ns: Sequence[int], size: int) -> tuple[float, float, float]:
    """(ops per second, median latency in ns, tail latency in ns), each the
    median over windows of ``size`` ops of that window's figure.  The tail of
    a window is its latency with ``tail_beyond(size)`` samples beyond it.

    On a shared host the CPU can run at speeds about 1.4 times apart, each
    for seconds to minutes (seen on a two-vCPU VM).  A window mostly falls
    within one speed, so the median over windows follows the speed the run
    spent most of its time at, and a burst of interference that slows a
    few windows does not move it."""
    rates, medians, tails = [], [], []
    for win in windows(latencies_ns, size):
        ordered = sorted(win)
        rates.append(len(win) / (sum(win) / 1e9))
        medians.append(statistics.median(ordered))
        tails.append(ordered[len(ordered) - 1 - tail_beyond(len(ordered))])
    return statistics.median(rates), statistics.median(medians), statistics.median(tails)


# --- child interpreters ----------------------------------------------------


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_child_env(), cwd=SRC.parent,
                          capture_output=True, text=True, timeout=120, check=False)


_SETUP_CODE = """\
import time
t = time.perf_counter()
import {module}
t = time.perf_counter() - t
import lensfib
print(repr(t), lensfib.__file__)
"""


def setup_seconds(module: str, runs: int) -> list[float]:
    """Import times of ``module`` in fresh interpreters, after one unrecorded
    run that leaves the bytecode cache filled."""
    times = []
    for i in range(runs + 1):
        proc = _child(["-c", _SETUP_CODE.format(module=module)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        value, path = proc.stdout.split()
        if Path(path).resolve().parent.parent != SRC:
            raise RuntimeError(f"set-up child imported lensfib from {path}")
        if i:
            times.append(float(value))
    return times


def import_times(module: str, runs: int) -> tuple[float, float]:
    """Median (cumulative import time of ``module``, summed self time of the
    lensfib modules) from ``python -X importtime``, in seconds."""
    cumulative, own = [], []
    for _ in range(runs):
        proc = _child(["-X", "importtime", "-c", f"import {module}"])
        if proc.returncode != 0:
            raise RuntimeError(f"import child failed: {proc.stderr.strip()}")
        total = mine = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "lensfib" or name.startswith("lensfib."):
                mine += int(self_us)
            if name == module:
                total = int(cum_us)
        cumulative.append(total / 1e6)
        own.append(mine / 1e6)
    return statistics.median(cumulative), statistics.median(own)


def cold_calls(w: Workload, seed: int, count: int) -> tuple[list[float], int]:
    """Wall times in ms of ``python -m lensfib.cli`` on the workload's first
    cases, one child at a time, and how many failed: each must print exactly
    what the in-process call prints."""
    times, failed = [], 0
    for case in islice(w.cases(random.Random(seed)), count):
        argv = w.cli_argv(case)
        expected = run_cli(argv)
        start = time.perf_counter()
        proc = _child(["-m", "lensfib.cli", *argv])
        times.append((time.perf_counter() - start) * 1e3)
        if expected[0] != getattr(case, "exit_code", 0) or (proc.returncode, proc.stdout) != expected:
            failed += 1
    return times, failed


def warm_up(w: Workload, seed: int) -> Tally:
    warm = Tally()
    for case in islice(w.cases(random.Random(f"warmup:{seed}")), w.warmup):
        warm.run(w, case)
    return warm


# --- the two kinds of run --------------------------------------------------


def end_to_end(w: Workload, seed: int, seconds: float, *, setup_runs: int = SETUP_RUNS,
               cold: int = COLD_CALLS, min_ops: int | None = None,
               digest_ops: int | None = None) -> dict:
    """Closed loop over the seeded stream for ``seconds`` and at least
    ``min_ops`` ops, with tracing off."""
    min_ops = w.min_ops if min_ops is None else min_ops
    setup = setup_seconds(w.setup_module, setup_runs)
    cold_ms, cold_failed = cold_calls(w, seed, cold)
    warm = warm_up(w, seed)
    tally = Tally(w.corpus if digest_ops is None else digest_ops)
    stream = w.cases(random.Random(seed))
    deadline = time.perf_counter() + seconds
    while tally.attempted < min_ops:
        tally.run(w, next(stream))
    # Peak memory after a fixed number of ops: lensfib's gluing cache is
    # unbounded, so a faster program would otherwise read as a larger one.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while time.perf_counter() < deadline:
        tally.run(w, next(stream))
    size = min(w.window, tally.attempted)
    rate, p50_ns, tail_ns = window_figures(tally.latencies_ns, size)
    attempted = tally.attempted + warm.attempted + len(cold_ms)
    failed = tally.failed + warm.failed + cold_failed
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": tally.digest.hexdigest(),
        "metrics": {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (rate, "1/s"),
            "op_p50_us": (p50_ns / 1e3, "us"),
            "op_tail_us": (tail_ns / 1e3, "us"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
        "info": {
            "cold_call_p50_ms": statistics.median(cold_ms),
            "ops": tally.attempted,
            "fail_ratio": f"{failed}/{attempted}",
            "op_tail_percentile": round(100 * (1 - tail_beyond(size) / size), 2),
            "op_tail_samples_beyond": tail_beyond(size),
            "window_ops": size,
            "windows": tally.attempted // size,
            "setup_runs": len(setup),
            "cold_calls": len(cold_ms),
        },
    }


def layer_metrics(spans: Spans, ops: int, cache_hits: int, cache_misses: int) -> dict:
    """Per-layer counts, which repeat exactly, and times of one traced pass,
    each as (value, unit)."""
    selfs = self_times(spans.parent, spans.start, spans.end)
    names = spans.names
    calls, self_ns, errors = Counter(), Counter(), Counter()
    fn_calls, fn_self, fn_total = Counter(), Counter(), Counter()
    in_enum = bytearray(len(spans))
    classes = attempts = cli_failures = 0
    for i in range(len(spans)):
        qual = names[spans.name[i]]
        if qual == OP:
            continue
        layer = qual.split(".", 1)[0]
        parent = spans.parent[i]
        calls[layer] += 1
        self_ns[layer] += selfs[i]
        fn_calls[qual] += 1
        fn_self[qual] += selfs[i]
        fn_total[qual] += spans.end[i] - spans.start[i]
        if spans.raised[i] and spans.layer(parent) != layer:
            errors[layer] += 1
        in_enum[i] = qual == "classify.enumerate_fibrations" or in_enum[parent]
        if qual == "classify.enumerate_fibrations" and i in spans.notes:
            classes += spans.notes[i]
        elif qual in ("construct.construct_fibration", "construct.construct_s2xs1") and in_enum[i]:
            attempts += 1
        elif qual == "cli.run" and spans.notes.get(i, 0) != 0:
            cli_failures += 1
    lookups = cache_hits + cache_misses
    return {
        "exact_arith.snf.calls": (fn_calls["exact_arith.smith_normal_form"], "count"),
        "exact_arith.snf.self_s": (fn_self["exact_arith.smith_normal_form"] / 1e9, "s"),
        "exact_arith.calls": (calls["exact_arith"], "count"),
        "exact_arith.self_s": (self_ns["exact_arith"] / 1e9, "s"),
        "seifert.parse.self_s": (fn_self["seifert.parse"] / 1e9, "s"),
        "seifert.normalize.calls": (fn_calls["seifert.normalize"], "count"),
        "seifert.normalize_per_op": (fn_calls["seifert.normalize"] / ops, "count/op"),
        "seifert.self_s": (self_ns["seifert"] / 1e9, "s"),
        "seifert.errors": (errors["seifert"], "count"),
        "construct.calls": (calls["construct"], "count"),
        "construct.self_s": (self_ns["construct"] / 1e9, "s"),
        "construct.gluing_cache_hit_ratio": (cache_hits / lookups if lookups else 0.0, "ratio"),
        "classify.enumerate.yield_ratio": (classes / attempts if attempts else 0.0, "ratio"),
        "classify.self_s": (self_ns["classify"] / 1e9, "s"),
        "recognize.calls": (calls["recognize"], "count"),
        "recognize.self_s": (self_ns["recognize"] / 1e9, "s"),
        "pi1.calls": (calls["pi1"], "count"),
        "pi1.self_s": (self_ns["pi1"] / 1e9, "s"),
        "cli.calls": (calls["cli"], "count"),
        "cli.self_s": (self_ns["cli"] / 1e9, "s"),
        "cli.build_parser_s": (fn_total["cli.build_parser"] / 1e9, "s"),
        "cli.errors": (errors["cli"] + cli_failures, "count"),
    }


def traced(w: Workload, seed: int, seconds: float, *, import_runs: int = IMPORT_RUNS,
           corpus: int | None = None, spans_path: Path | None = None) -> dict:
    """Rounds of the workload's first ``corpus`` cases, each run once with
    tracing off and once on, until ``seconds`` have passed.  Each pass starts
    with the gluing cache empty, as a fresh process would.  Counts come from
    the first traced pass and repeat exactly; times are medians over rounds."""
    corpus = w.corpus if corpus is None else corpus
    cases = list(islice(w.cases(random.Random(seed)), corpus))
    imports = import_times(w.setup_module, import_runs)
    warm = warm_up(w, seed)
    attempted, failed = warm.attempted, warm.failed
    rounds, ratios, digests = [], [], set()
    first_spans = None
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        passes = []
        for tracing in (False, True):
            GLUING.cache_clear()
            tally = Tally(corpus)
            if tracing:
                with Tracer(LAYER_MODULES, NOTES) as tracer:
                    for case in cases:
                        tally.run(w, case, tracer)
                spans = tracer.take()
            else:
                for case in cases:
                    tally.run(w, case)
            passes.append(tally)
            attempted += tally.attempted
            failed += tally.failed
            digests.add(tally.digest.hexdigest())
        info = GLUING.cache_info()
        rounds.append(layer_metrics(spans, corpus, info.hits, info.misses))
        ratios.append(passes[1].ops_per_s() / passes[0].ops_per_s())
        if first_spans is None:
            first_spans = spans
        del spans
    if spans_path is not None:
        first_spans.write_csv(spans_path)
    metrics = {}
    for name, (value, unit) in rounds[0].items():
        if unit == "s":
            value = statistics.median(r[name][0] for r in rounds)
        metrics[name] = (value, unit)
    metrics["import.cumulative_s"] = (imports[0], "s")
    metrics["import.lensfib_self_s"] = (imports[1], "s")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    # Traced and untraced passes that disagree on the outputs are a failure.
    failed += len(digests) != 1
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": digests.pop() if len(digests) == 1 else "mismatch",
        "metrics": metrics,
        "info": {"trace_ops": corpus, "rounds": len(rounds), "spans": len(first_spans),
                 "fail_ratio": f"{failed}/{attempted}"},
    }
