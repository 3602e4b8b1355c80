#!/usr/bin/env python3
"""The repository benchmark: GSimJoin workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload aids-join-t1 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` first measures untraced for half the time, then installs
the span wrappers (``spans.py``) and measures again, reporting the
per-layer metrics and ``trace.overhead_frac``.  ``--smoke`` shrinks
every input so a run takes seconds; ``--workload all`` runs each
workload in turn.  Metric names and units are checked against
``BENCHMARK.json`` before the result line is printed.

Output: one ``{"env": ...}`` line, one ``{"detail": ...}`` line, then
the result object as the last line of standard output.  The exit code
is 0 when every operation was correct, 1 when one was not, 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups before the first operation; more follow during the run.
SETUP_REPS = 3
#: Tolerated gap between the summed self times and the operation wall.
SUM_TOLERANCE = 0.02
#: Operations a phase makes at least, whatever ``--seconds`` says.
MIN_OPS = 2


def percentile(values: List[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100); 0 when empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """p95 when at least ten samples lie beyond it, else the median.

    On the index workload ~9% of operations are queries that rebuild the
    columnar store after an add: p95 sits inside that group, where p90
    would sit on its edge and p99 on the few slowest GED queries.
    """
    return 95.0 if n * 0.05 >= 10 else 50.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Measurement:
    """Latencies, failures and stage statistics of one measured phase."""

    def __init__(self) -> None:
        self.latency_ms: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.stats: List[Any] = []

    @property
    def all_ms(self) -> List[float]:
        return [x for xs in self.latency_ms.values() for x in xs]


def timed(fn: Callable[[], Any]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def measure(workload: Any, seconds: float, setup_s: List[float],
            tracer: Any = None) -> Measurement:
    """Run operations for ``seconds`` (whole passes where required)."""
    m = Measurement()
    if workload.needs_setup():
        setup_s.append(timed(workload.setup))
    started = time.perf_counter()
    for op in workload.ops():
        elapsed = time.perf_counter() - started
        done = m.attempted >= MIN_OPS and elapsed >= seconds
        if op.kind == "setup":
            if done:
                break
            setup_s.append(timed(workload.setup))
            continue
        if not workload.passes:
            if done:
                break
            gc.collect()
        t0 = time.perf_counter()
        try:
            result = tracer.root("op", op.run) if tracer else op.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            m.attempted += 1
            m.failed += 1
            continue
        dt = time.perf_counter() - t0
        m.attempted += 1
        m.latency_ms[op.kind].append(dt * 1e3)
        if not op.check(result):
            m.failed += 1
        stats = getattr(result, "stats", None)
        if stats is not None:
            m.stats.append(stats)
    extra = getattr(workload, "stats", None)
    if extra is not None:
        m.stats.append(extra)
    return m


def end_to_end(m: Measurement, setup_s: List[float]) -> Dict[str, Tuple[float, str]]:
    lat = m.all_ms
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_ms": (percentile(lat, 50), "ms"),
        "op_tail_ms": (percentile(lat, tail_percentile(len(lat))), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def detail(m: Measurement) -> Dict[str, float]:
    """Per-kind latencies (a join, a query, an add)."""
    lat = m.latency_ms
    return {
        "join_s": percentile(lat.get("join", []), 50) / 1e3,
        "query_p50_ms": percentile(lat.get("query", []), 50),
        "query_p99_ms": percentile(lat.get("query", []), 99),
        "add_p50_ms": percentile(lat.get("add", []), 50),
        "add_p90_ms": percentile(lat.get("add", []), 90),
        "joins": len(lat.get("join", [])),
        "queries": len(lat.get("query", [])),
        "adds": len(lat.get("add", [])),
    }


_FILTER_STAGES = {
    "global_label": "global-label-filter",
    "count": "count-filter",
    "local_label": "local-label-filter",
}


def pass_rates(stats_list: List[Any]) -> Dict[str, float]:
    """Filter pass rates from the program's own stage rows."""
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for stats in stats_list:
        for row in stats.stages:
            totals[row.name][0] += row.input
            totals[row.name][1] += row.survivors
    out = {}
    for short, stage in _FILTER_STAGES.items():
        inp, surv = totals[stage]
        out[short] = surv / inp if inp else 0.0
    return out


def per_layer(tracer: Any, plain: Measurement, traced: Measurement) -> Dict[str, Tuple[float, str]]:
    n = max(tracer.roots, 1)
    s, c = tracer.span_s, tracer.counts

    def per_op(x: float) -> float:
        return x / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    rates = pass_rates(traced.stats)
    out: Dict[str, Tuple[float, str]] = {
        "grams.extract_s": (per_op(s["grams.extract"]), "s/op"),
        "grams.extract_calls": (per_op(c["grams.extract_calls"]), "count/op"),
        "grams.grams_emitted": (per_op(c["grams.grams_emitted"]), "count/op"),
        "grams.us_per_gram": (ratio(s["grams.extract"] * 1e6, c["grams.grams_emitted"]), "us/gram"),
        "grams.extract_per_graph": (
            statistics.fmean(tracer.extract_per_graph) if tracer.extract_per_graph else 0.0,
            "ratio",
        ),
        "vocab.build_s": (per_op(s["vocab.build"]), "s/op"),
        "vocab.sort_s": (per_op(s["vocab.sort"]), "s/op"),
        "vocab.keys": (per_op(c["vocab.keys"]), "count/op"),
        "prefix.s": (per_op(s["prefix"]), "s/op"),
        "prefix.total_length": (per_op(c["prefix.total_length"]), "count/op"),
        "prefix.unprunable": (per_op(c["prefix.unprunable"]), "count/op"),
        "invidx.add_s": (per_op(s["invidx.add"]), "s/op"),
        "invidx.postings": (per_op(c["invidx.postings"]), "count/op"),
        "invidx.bytes": (per_op(c["invidx.bytes"]), "B/op"),
        "probe.s": (per_op(s["probe"]), "s/op"),
        "probe.encounters": (per_op(c["probe.encounters"]), "count/op"),
        "probe.cand1": (per_op(c["probe.cand1"]), "count/op"),
        "probe.yield": (ratio(c["probe.cand1"], c["probe.encounters"]), "ratio"),
        "columnar.build_s": (per_op(s["columnar.build"]), "s/op"),
        "columnar.builds": (per_op(c["columnar.builds"]), "count/op"),
        "batch.s": (per_op(s["batch"]), "s/op"),
        "batch.blocks": (per_op(c["batch.blocks"]), "count/op"),
    }
    for short in _FILTER_STAGES:
        out[f"filter.{short}.s"] = (per_op(s[f"filter.{short}"]), "s/op")
        out[f"filter.{short}.pass_rate"] = (rates[short], "ratio")
    out.update({
        "ged.s": (per_op(s["ged"]), "s/op"),
        "ged.calls": (per_op(c["ged.calls"]), "count/op"),
        "ged.expansions": (per_op(c["ged.expansions"]), "count/op"),
        "ged.call_p50_ms": (percentile(tracer.ged_ms, 50), "ms/call"),
        "ged.call_p99_ms": (percentile(tracer.ged_ms, 99), "ms/call"),
        "ged.yield": (ratio(c["ged.results"], c["ged.calls"]), "ratio"),
        "ged.compile_s": (per_op(s["ged.compile"]), "s/op"),
        "ged.memo_hit_rate": (ratio(c["ged.memo_hits"], c["ged.lookups"]), "ratio"),
        "ged.compiled.s": (per_op(s["ged.compiled"]), "s/op"),
        "ged.compiled.calls": (per_op(tracer.calls["ged.compiled"]), "count/op"),
        "io.load_s": (per_op(s["io.load"]), "s/op"),
        "io.graphs_parsed": (per_op(c["io.graphs_parsed"]), "count/op"),
        "shard.write_s": (per_op(s["shard.write"]), "s/op"),
        "shard.combos": (per_op(c["shard.combos"]), "count/op"),
        "shard.prepare_s": (per_op(s["prepare"]), "s/op"),
        "journal.append_s": (per_op(s["journal.append"]), "s/op"),
        "journal.fsyncs": (per_op(c["journal.fsyncs"]), "count/op"),
        "pool.s": (per_op(s["pool"]), "s/op"),
        "pool.chunks": (per_op(c["pool.chunks"]), "count/op"),
        "pool.retries": (per_op(c["pool.retries"]), "count/op"),
        "driver.other_s": (per_op(tracer.self_s["op"]), "s/op"),
    })
    # Self times of every span (the root's self time is driver.other_s)
    # must add up to the operation wall measured outside the tracer.
    outer = sum(traced.all_ms) / 1e3
    summed = sum(tracer.self_s.values())
    out["trace.sum_err_frac"] = (abs(summed - outer) / outer if outer else 0.0, "frac")
    base = percentile(plain.all_ms, 50)
    out["trace.overhead_frac"] = (
        percentile(traced.all_ms, 50) / base - 1.0 if base else 0.0, "frac",
    )
    d = detail(plain)
    out["join_s"] = (d["join_s"], "s/op")
    for key in ("query_p50_ms", "query_p99_ms", "add_p50_ms", "add_p90_ms"):
        out[key] = (d[key], "ms/op")
    total = plain.attempted + traced.attempted
    out["failed_frac"] = ((plain.failed + traced.failed) / total if total else 1.0, "frac")
    return out


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    import multiprocessing

    from repro import GSimJoinOptions
    from repro.engine.batch import resolve_batch

    try:
        import numpy  # noqa: F401

        have_numpy = True
    except ImportError:
        have_numpy = False
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": have_numpy,
        "batch": resolve_batch(GSimJoinOptions()),
        "start_method": multiprocessing.get_start_method(),
    }


def declared_metrics(trace: bool) -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        config = json.load(f)
    return {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}


def run_one(args: argparse.Namespace, name: str) -> int:
    from spans import Instrumentation, Tracer
    from workloads import WORKLOADS

    args.workload = name
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"{name}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        print(json.dumps({"env": environment(args)}), flush=True)
        workload = WORKLOADS[name](args.seed, args.smoke, scratch)
        setup_s: List[float] = []
        for _ in range(SETUP_REPS):
            setup_s.append(timed(workload.setup))
        if args.trace:
            plain = measure(workload, args.seconds / 2, setup_s)
            tracer = Tracer()
            with Instrumentation(tracer):
                traced = measure(workload, args.seconds / 2, setup_s, tracer)
            values = per_layer(tracer, plain, traced)
            phases = [plain, traced]
            bad_sum = values["trace.sum_err_frac"][0] > SUM_TOLERANCE
            if bad_sum:
                print(f"perfbench: traced spans miss the op wall by "
                      f"{values['trace.sum_err_frac'][0]:.2%}", file=sys.stderr)
        else:
            plain = measure(workload, args.seconds, setup_s)
            values = end_to_end(plain, setup_s)
            phases = [plain]
            bad_sum = False
        print(json.dumps({"detail": detail(plain)}), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    declared = declared_metrics(bool(args.trace))
    emitted = {k: unit for k, (_v, unit) in values.items()}
    if emitted != declared:
        print(f"perfbench: emitted metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(declared) - set(emitted))}, "
              f"extra {sorted(set(emitted) - set(declared))}, units "
              f"{sorted(k for k in emitted if k in declared and emitted[k] != declared[k])}",
              file=sys.stderr)
        return 2
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = attempted > 0 and failed == 0 and not bad_sum
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()},
    }), flush=True)
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: check that every metric is emitted")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        status = max(status, run_one(args, name))
    return status


if __name__ == "__main__":
    sys.exit(main())
