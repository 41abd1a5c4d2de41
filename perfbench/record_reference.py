"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, with the program at a commit whose outputs
are known to be right::

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes ``perfbench/reference/<workload>.json``:

* ``rows``: the ``(model, identity_id, verdict, points_tested)`` rows of the
  workload's verify config at ``ANCHOR_SEED``, confirmed identical at
  ``CONFIRM_SEEDS`` (the benchmark samples new points on every call);
* for ``single_point_dump`` also ``shapes`` (model, n, field, variance and
  component shape per request kind) and ``dumps``, the two weighted sums of
  :func:`workloads.fingerprint` for every request of the pool.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

CONFIRM_SEEDS = (1, 7, 2718)


def verify_rows(workload: workloads.VerifyWorkload) -> list[list]:
    rows = None
    for seed in (workloads.ANCHOR_SEED, *CONFIRM_SEEDS):
        _, _, text = workload.call(seed)
        record = json.loads(text)
        if record["exit_code"] != 0 or record["warnings"] or record["errors"]:
            raise SystemExit(f"{workload.name}: seed {seed} does not verify cleanly")
        got = workloads.report_rows(record)
        if rows is not None and got != rows:
            raise SystemExit(f"{workload.name}: rows at seed {seed} differ from the anchor seed")
        rows = got
    return rows


def dump_reference(workload: workloads.DumpWorkload) -> tuple[dict, list]:
    shapes, dumps = {}, []
    for request in workload.pool:
        index, _, _, code, text = workload.send(request.index)
        if code != 0:
            raise SystemExit(f"dump {index} exited {code}")
        record = json.loads(text)
        shapes.setdefault(request.kind, workloads.dump_shape(record))
        sums, _ = workloads.fingerprint(record)
        dumps.append([float(x) for x in sums])
    return shapes, dumps


def main() -> None:
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, seed=0)
        verify = workload.anchor if isinstance(workload, workloads.DumpWorkload) else workload
        reference = {"anchor_seed": workloads.ANCHOR_SEED, "confirm_seeds": list(CONFIRM_SEEDS), "rows": verify_rows(verify)}
        if isinstance(workload, workloads.DumpWorkload):
            reference["pool_seed"] = workloads.POOL_SEED
            reference["shapes"], reference["dumps"] = dump_reference(workload)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, separators=(",", ":"))
            handle.write("\n")
        print(f"wrote {path} ({len(reference['rows'])} rows)")


if __name__ == "__main__":
    main()
