"""weylgeom benchmark: one command, one workload, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalog_default --seed 1 --seconds 45 --trace 0

Workloads: ``catalog_default`` and ``single_point_dump`` are in
``BENCHMARK.json``; ``twisted_n7`` runs the same way but is not gated (see
``spec.json``).  With ``--trace 0`` the result holds the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, and the spans
are written to ``perfbench/out/trace_<workload>.json``.

The workload runs in one child process with BLAS/OpenMP pinned to one thread
and the checkout's ``src`` first on ``PYTHONPATH``.  ``setup_s`` is the median
over that process and ``SETUP_PROBES`` more fresh processes that only import
weylgeom and build the workload's inputs.  Times are in reference seconds
(see ``speed.py``).  The last line of stdout is the
result; lines before it name each metric with its unit and record the
environment.  The exit code is 0 only when every output was correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(args: list[str], deadline: float) -> tuple[int, dict | None, str]:
    """Run ``worker.py`` with ``args``; returns its exit code, result and stderr."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return 1, None, "worker timed out"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main(argv=None) -> int:
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="weylgeom benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=int, help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "weylgeom" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write(f"perfbench: no weylgeom checkout at {ROOT} (src/weylgeom or BENCHMARK.json missing)\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            code, probe, err = run_worker(base + ["--setup-only"], deadline)
            if code != 0 or probe is None:
                sys.stderr.write(err)
                sys.stderr.write("perfbench: set-up probe failed\n")
                return 1
            setup.append(probe["setup_s"])
    code, result, err = run_worker(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
    )
    sys.stderr.write(err)
    if result is None:
        sys.stderr.write(f"perfbench: workload {args.workload} produced no result (exit {code})\n")
        return 1
    src = (ROOT / "src").resolve()
    if not Path(result["info"]["weylgeom"]).is_relative_to(src):
        sys.stderr.write(f"perfbench: weylgeom was imported from {result['info']['weylgeom']}, not {src}\n")
        return 1
    for problem in result["problems"]:
        sys.stderr.write(f"perfbench: wrong output: {problem}\n")

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup + [result["setup_s"]])
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    info = dict(result["info"], workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                failed_frac=result["failed"] / max(1, result["attempted"]), setup_samples=len(setup) + 1)
    print("env " + json.dumps(info, sort_keys=True))
    for name, entry in reported.items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
