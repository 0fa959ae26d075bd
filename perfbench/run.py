"""satgraph benchmark: drives ``satgraph.cli.run`` in-process.

    python3 perfbench/run.py --workload exact_clique --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  One closed-loop client sends
one query at a time and waits for its answer.  Every answer is compared
with ``perfbench/reference.json``.

``--trace 0`` reports the end-to-end metrics, with times also counted in
reference loops sampled during the work (see probe.py).  ``--trace 1``
alternates untraced repetitions with ones that have spans around every
layer boundary (see tracing.py), both at ``--workers 1``, and reports the
per-layer metrics.  The line before the last is a full record with the
run conditions and plain-second timings; the last line is the summary.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from checks import differences, tail_percentile
from probe import SpeedProbe
from tracing import (PER_LAYER_UNITS, MissingBoundary, Tracer, installed,
                     layer_metrics)
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Modules the boundary table and the workloads use.
MODULES = ("cli", "search", "saturation", "constructions", "staropt",
           "bounds", "graph", "patterns")
MIN_REPS = 3          # fewest timed repetitions of an untraced run
MAX_FAILURE_NOTES = 5

UNITS = {"solve_loops": "loops", "query_p50_loops": "loops", "setup_s": "s",
         "setup_loops": "loops", "peak_rss_rise_mb": "MB", **PER_LAYER_UNITS}


class SetupError(RuntimeError):
    pass


def import_satgraph():
    """Import every satgraph module afresh from ``ROOT/src``."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules
                 if m == "satgraph" or m.startswith("satgraph.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("satgraph")
        mods = {m: importlib.import_module(f"satgraph.{m}") for m in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import satgraph from {src}: {exc}") from exc
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"satgraph was imported from {pkg.__file__}, "
                         f"not from {src}")
    return types.SimpleNamespace(**mods), mods


def setup(workload, seed: int, workers: int):
    """Import satgraph and build the workload's inputs, under the speed
    probe.  Returns the time taken, without the probe's own, and the mean
    reference-loop time sampled meanwhile."""
    probe = SpeedProbe()
    with probe:
        base = probe.spent
        t0 = time.perf_counter()
        sat, mods = import_satgraph()
        queries = workload.build(sat, seed, workers)
        elapsed = time.perf_counter() - t0 - (probe.spent - base)
    ids = [q.id for q in queries]
    if len(set(ids)) != len(ids):
        raise SetupError(f"{workload.name}: duplicate query ids")
    return elapsed, probe.loop_s, sat, mods, queries


def clear_memo(sat) -> None:
    # A query must not be answered by a memo that an earlier query or
    # repetition filled: a fresh CLI process starts with an empty memo.
    # A package without the memo has nothing to clear.
    clear = getattr(sat.search, "clear_cache", None)
    if clear is not None:
        clear()


def answer(code, out: str):
    """The comparable answer of one query: exit code and result."""
    if not isinstance(code, int):
        return {"exit": None, "error": code}
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"exit": code, "error": "no JSON report on stdout"}
    return {"exit": code, "result": report.get("result", report)}


def check(outputs, reference) -> list[str]:
    failures = []
    for query, code, out in outputs:
        got = answer(code, out)
        expected = reference.get(query.id)
        if expected is None:
            failures.append(f"{query.id}: no reference answer")
            continue
        diff = differences(expected, got)
        if diff:
            failures.append(f"{query.id}: " + "; ".join(diff[:3]))
    return failures


def run_once(sat, queries, reference, tracer=None, probed=False):
    """One timed repetition of the query list, each query from an empty
    memo.

    With ``probed``, the repetition runs under the speed probe and the
    probe's own time is taken out of every time.  Returns the
    repetition's time, the per-query latencies, the mean reference-loop
    time (None unless probed) and the wrong answers, which are checked
    after the timed region."""
    if tracer is not None:
        tracer.reset()
    probe = SpeedProbe()
    outputs, latencies = [], []
    with probe if probed else nullcontext():
        base = probe.spent
        t0 = time.perf_counter()
        for query in queries:
            clear_memo(sat)
            out = io.StringIO()
            spent = probe.spent
            q0 = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = sat.cli.run(list(query.argv))
            except Exception:
                code = traceback.format_exc(limit=-3)
            latencies.append(time.perf_counter() - q0 - (probe.spent - spent))
            outputs.append((query, code, out.getvalue()))
        elapsed = time.perf_counter() - t0 - (probe.spent - base)
    loop_s = probe.loop_s if probe.count else None
    return elapsed, latencies, loop_s, check(outputs, reference)


def max_rss_kib() -> int:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def rss_rise_mb(rise_kib: int) -> float:
    """``rise_kib``, how far the first repetition lifted this process's
    peak resident set above its level after set-up, plus the largest
    worker child's peak.  Forked workers share pages with this process,
    so the sum is an upper bound on the memory the workload needed.  Later
    repetitions are left out: re-imports and a warm allocator would blur
    the figure.  The first repetition runs its queries in id order, since
    the peak depends on the order and must not depend on the seed."""
    kib = rise_kib + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def conditions(workload, seed: int, seconds: int, trace: bool) -> dict:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "git_commit": _git_commit(),
            "workload": workload.name,
            "workers": 1 if trace else workload.workers,
            "seed": seed,
            "seconds": seconds,
            "trace": trace}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """What one benchmark run accumulates."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds
        self.reps: list[float] = []
        self.latencies: list[float] = []
        self.loops: list[float] = []           # repetition / reference loop
        self.query_loops: list[float] = []     # query latency / reference loop
        self.loop_s: list[float] = []
        self.failures: list[str] = []

    def more(self, min_reps: int) -> bool:
        return len(self.reps) < min_reps or time.perf_counter() < self.deadline

    def add(self, elapsed, latencies, loop_s, failures) -> None:
        self.reps.append(elapsed)
        self.latencies.extend(latencies)
        self.failures.extend(failures)
        if loop_s is not None:
            self.loop_s.append(loop_s)
            self.loops.append(elapsed / loop_s)
            self.query_loops.extend(t / loop_s for t in latencies)


def end_to_end(workload, seed, reference, seconds):
    """Each repetition starts with a fresh set-up, as a new CLI process
    would; spreading the set-ups over the run makes their median steadier."""
    run, setups, setup_loops, rises = Run(seconds), [], [], []
    while run.more(MIN_REPS):
        elapsed, loop_s, sat, _, queries = setup(workload, seed,
                                                 workload.workers)
        setups.append(elapsed)
        setup_loops.append(elapsed / loop_s)
        if not run.reps:
            queries = sorted(queries, key=lambda q: q.id)
        before = max_rss_kib()
        run.add(*run_once(sat, queries, reference, probed=True))
        rises.append(max_rss_kib() - before)
    p99 = tail_percentile(run.latencies, 99)
    metrics = {
        "solve_loops": statistics.median(run.loops),
        "query_p50_loops": statistics.median(run.query_loops),
        "setup_s": statistics.median(setups),
        "setup_loops": statistics.median(setup_loops),
        "peak_rss_rise_mb": rss_rise_mb(rises[0]),
    }
    extra = {"queries_per_repetition": len(queries),
             "solve_s": statistics.median(run.reps),
             "query_p50_ms": statistics.median(run.latencies) * 1e3,
             "query_p99_ms": None if p99 is None else p99 * 1e3,
             "query_samples": len(run.latencies),
             "reference_loop_us": statistics.median(run.loop_s) * 1e6,
             "solve_s_samples": run.reps, "solve_loops_samples": run.loops,
             "setup_s_samples": setups, "setup_loops_samples": setup_loops,
             "rss_rise_kib_per_repetition": rises}
    return metrics, run, extra


def traced(workload, seed, reference, seconds):
    """Untraced and traced repetitions alternate, both at --workers 1, so
    that both see the same machine load.  Neither runs the speed probe:
    its samples would land in the layers' spans."""
    *_, sat, mods, queries = setup(workload, seed, 1)
    plain, run, rows = Run(seconds), Run(seconds), []
    tracer = Tracer()
    while run.more(1):
        plain.add(*run_once(sat, queries, reference))
        with installed(tracer, mods):
            run.add(*run_once(sat, queries, reference, tracer))
        rows.append(layer_metrics(tracer))
    # median_low keeps counts whole: they repeat exactly across repetitions.
    metrics = {key: statistics.median_low(row[key] for row in rows)
               for key in rows[0]}
    untraced_s = statistics.median(plain.reps)
    metrics["search.classes_per_s"] = metrics["search.classes"] / untraced_s
    metrics["trace.overhead_ratio"] = \
        statistics.median(run.reps) / untraced_s - 1
    run.latencies += plain.latencies
    run.failures += plain.failures
    extra = {"queries_per_repetition": len(queries),
             "untraced_solve_s_samples": plain.reps,
             "traced_solve_s_samples": run.reps}
    return metrics, run, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        reference = json.loads(REFERENCE.read_text())[workload.name]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: no reference answers: {exc!r}", file=sys.stderr)
        return 2
    try:
        measure = traced if trace else end_to_end
        metrics, run, extra = measure(workload, args.seed, reference,
                                      args.seconds)
    except (OSError, SetupError, MissingBoundary) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for note in run.failures[:MAX_FAILURE_NOTES]:
        print(f"perfbench: wrong answer: {note}", file=sys.stderr)
    attempted, failed = len(run.latencies), len(run.failures)
    out_metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in metrics.items()}
    record = {"conditions": conditions(workload, args.seed, args.seconds,
                                       trace),
              "fail_ratio": failed / attempted, **extra,
              "metrics": out_metrics}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
