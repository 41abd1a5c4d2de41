"""Run one workload in this process and build its result.

Untraced: one untimed verify at weylgeom's default seed gives the precision
headroom and warms caches; then calls are timed until the run's seconds have
passed.  Traced: a fixed unit of work (one verify call, or ``TRACE_ROUNDS``
rounds of dump requests) runs alternately without and with the tracer until
the seconds have passed; counts must repeat exactly between traced passes.

Every time is scaled to reference speed by the :class:`speed.SpeedProbe`
that ``worker.py`` keeps running for the whole process.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy

import weylgeom
import workloads
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer metric name suffix -> (source, scale, divisor).
_LAYER_SUFFIXES = (
    (".self_ms_per_point", "self", 1000.0, "points"),
    (".ms_per_point", "self", 1000.0, "points"),
    (".calls_per_point", "count", 1.0, "points"),
    (".constructed_per_point", "count", 1.0, "points"),
    (".ms", "total", 1000.0, "calls"),
)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_verify_calls(workload, probe: SpeedProbe, seconds: float, outcome) -> tuple[list, list]:
    scaled, raw, k = [], [], 0
    begin = time.perf_counter()
    while len(scaled) < 2 or time.perf_counter() - begin < seconds:
        start, end, text = workload.call(workload.seeds[k])
        k += 1
        scaled.append(probe.scaled(start, end))
        raw.append(end - start)
        outcome.add(workload.check(text))
    return scaled, raw


def timed_dump_calls(workload, probe: SpeedProbe, positions, outcome, seconds: float = 0.0) -> tuple[list, list]:
    """Send the requests at ``positions``, then more while time remains."""
    scaled, raw = [], []
    begin = time.perf_counter()
    position = -1
    for position in positions:
        index, start, end, code, text = workload.request(position)
        scaled.append(probe.scaled(start, end))
        raw.append(end - start)
        outcome.add(workload.check(index, code, text))
    while time.perf_counter() - begin < seconds:
        position += 1
        index, start, end, code, text = workload.request(position)
        scaled.append(probe.scaled(start, end))
        raw.append(end - start)
        outcome.add(workload.check(index, code, text))
    return scaled, raw


def anchor_headroom(workload, outcome) -> tuple[float, float, str]:
    """Untimed verify at weylgeom's default seed: headroom, and a warm-up."""
    verify = workload.anchor if isinstance(workload, workloads.DumpWorkload) else workload
    _, _, text = verify.call(workloads.ANCHOR_SEED)
    outcome.add(verify.check(text))
    return workloads.headroom(json.loads(text))


def run_untraced(workload, probe: SpeedProbe, seconds: float, outcome) -> tuple[dict, dict]:
    digits, use, where = anchor_headroom(workload, outcome)
    if isinstance(workload, workloads.DumpWorkload):
        n = len(workload.order)
        timed_dump_calls(workload, probe, range(n - workloads.ROUND, n), outcome)  # warm-up round
        scaled, raw = timed_dump_calls(workload, probe, range(workloads.MIN_TIMED_REQUESTS), outcome, seconds)
    else:
        scaled, raw = timed_verify_calls(workload, probe, seconds, outcome)
    metrics = {
        "latency_ms_p50": 1000.0 * statistics.median(scaled),
        "latency_ms_p95": 1000.0 * percentile(scaled, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "headroom_digits": digits,
    }
    info = {
        "timed_calls": len(scaled),
        "raw_wall_ms_p50": 1000.0 * statistics.median(raw),
        "raw_wall_ms_p95": 1000.0 * percentile(raw, 95),
        "tolerance_use_max": use,
        "worst_row": where,
    }
    return metrics, info


def run_unit(workload, outcome, probe: SpeedProbe | None = None, tracer: Tracer | None = None) -> tuple[float, int]:
    """One fixed unit of work; returns its time in calls and the number of calls.

    The time is scaled to reference speed when a probe is given.
    """
    def timed(start, end):
        return probe.scaled(start, end) if probe is not None else end - start

    if isinstance(workload, workloads.DumpWorkload):
        calls = workloads.TRACE_ROUNDS * workloads.ROUND
        busy = 0.0
        for position in range(calls):
            if tracer is not None:
                tracer.group = f"request{position}"
            index, start, end, code, text = workload.request(position)
            busy += timed(start, end)
            outcome.add(workload.check(index, code, text))
        return busy, calls
    if tracer is not None:
        tracer.group = "call0"
    start, end, text = workload.call(workload.seeds[0])
    outcome.add(workload.check(text))
    return timed(start, end), 1


def layer_values(names: list[str], tracer: Tracer, first: int, counts, calls: int) -> dict:
    """Per-layer metrics of the traced pass whose spans start at index ``first``."""
    own, total = tracer.self_times(first)
    bundles = [s for s in tracer.spans[first:] if s[0] == "curvature.build_bundle"]
    divisors = {"points": max(1, len(bundles)), "calls": calls}
    sources = {"self": own, "total": total, "count": counts}
    values = {"cli.points_skipped": float(sum(1 for s in bundles if s[5]))}
    for name in names:
        if name in values or name == "trace.overhead_frac":
            continue
        if name == "identities.suite.ms_per_point":
            values[name] = 1000.0 * total["identities.suite"] / divisors["points"]
            continue
        for suffix, source, scale, divisor in _LAYER_SUFFIXES:
            if name.endswith(suffix):
                values[name] = scale * sources[source][name[: -len(suffix)]] / divisors[divisor]
                break
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
    return values


def run_traced(workload, probe: SpeedProbe, seconds: float, outcome, names: list[str]) -> tuple[dict, dict]:
    run_unit(workload, outcome)  # warm-up
    tracer = Tracer()
    plain, traced, passes, count_sets = [], [], [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        plain.append(run_unit(workload, outcome, probe)[0])
        first, before = len(tracer.spans), tracer.counts.copy()
        with tracer.installed():
            busy, calls = run_unit(workload, outcome, probe, tracer)
        traced.append(busy)
        counts = tracer.counts - before
        count_sets.append(dict(counts))
        passes.append(layer_values(names, tracer, first, counts, calls))
    if any(c != count_sets[0] for c in count_sets):
        outcome.failed += 1
        outcome.problems.append("traced passes of one unit gave different counts")
    metrics = {}
    for name in names:
        if name == "trace.overhead_frac":
            metrics[name] = statistics.median(traced) / statistics.median(plain) - 1.0
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    tracer.write(HERE / "out" / f"trace_{workload.name}.json")
    return metrics, {"traced_passes": len(traced), "spans": len(tracer.spans)}


def run(workload, seconds: float, trace: bool, probe: SpeedProbe) -> dict:
    """Measure ``workload`` (already built) and return the worker's result record."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload.load_reference()
    outcome = workloads.Outcome()
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, info = run_traced(workload, probe, seconds, outcome, names)
    else:
        metrics, info = run_untraced(workload, probe, seconds, outcome)
    info.update(
        weylgeom=str(Path(weylgeom.__file__).resolve()),
        python=platform.python_version(),
        numpy=numpy.__version__,
        nproc=len(os.sched_getaffinity(0)),
        threads={k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        probe_samples=len(probe.durations),
        probe_ms_median=1000.0 * statistics.median(probe.durations),
    )
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "info": info,
        "problems": outcome.problems,
    }
