"""Workload process: time the set-up, run one workload, print one JSON line.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and the
checkout's ``src`` first on ``PYTHONPATH``.  The speed probe starts before
weylgeom is imported, so ``setup_s`` (importing weylgeom and building the
workload's inputs) is scaled to reference speed like every other time.
"""

import argparse
import json
import sys
import time

from speed import SpeedProbe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="report setup_s and exit")
    args = parser.parse_args(argv)

    with SpeedProbe() as probe:
        start = time.perf_counter()
        import runner
        import workloads

        workload = workloads.make(args.workload, args.seed)
        setup_s = probe.scaled(start, time.perf_counter())
        if args.setup_only:
            result = {}
        else:
            result = runner.run(workload, args.seconds, bool(args.trace), probe)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0 if result.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main())
