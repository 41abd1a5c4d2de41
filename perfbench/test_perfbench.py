"""Tests of the benchmark itself: exact counts and a correctness gate that bites.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import runner  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 5


def _loaded(name: str):
    workload = workloads.make(name, SEED)
    workload.load_reference()
    return workload


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    workload = _loaded(name)
    outcome = workloads.Outcome()
    tracer = Tracer()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    passes = []
    for _ in range(2):
        first, before = len(tracer.spans), tracer.counts.copy()
        with tracer.installed():
            _, calls = runner.run_unit(workload, outcome, tracer=tracer)
        counts = tracer.counts - before
        values = runner.layer_values(names, tracer, first, counts, calls)
        counted = {k: v for k, v in values.items() if "ms" not in k.rsplit(".", 1)[-1]}
        passes.append((dict(counts), counted))
    assert outcome.failed == 0, outcome.problems
    assert passes[0] == passes[1]
    assert passes[0][0]["numpy.einsum"] > 0
    # The tracer restores every function it patched.
    assert np.einsum.__module__ == "numpy"
    assert workloads.cli.build_bundle.__module__ == "weylgeom.curvature"


def test_gate_catches_flipped_verdict_and_twin_scale():
    workload = _loaded("twisted_n7")
    _, _, text = workload.call(SEED)
    assert workload.check(text).failed == 0

    flipped = json.loads(text)
    row = next(r for r in flipped["reports"] if r["model"] == "twisted_generic_n7" and r["verdict"] == "pass")
    row["verdict"] = "fail"
    assert workload.check(json.dumps(flipped)).failed >= 1

    shifted = json.loads(text)
    twin = max((r for r in shifted["reports"] if r["model"] == "custom_diagonal_n7"), key=lambda r: r["scale"])
    twin["scale"] *= 1.0 + 1e-9
    assert workload.check(json.dumps(shifted)).failed == 1


def test_gate_catches_perturbed_dump_component():
    workload = _loaded("single_point_dump")
    request = next(r for r in workload.pool if r.n == 6 and r.field == "nablaC")
    index, _, _, code, text = workload.send(request.index)
    assert workload.check(index, code, text).failed == 0

    record = json.loads(text)
    values = np.array(record["components"])
    where = np.unravel_index(np.argmax(np.abs(values)), values.shape)

    nudged = values.copy()
    nudged[where] = np.nextafter(nudged[where], np.inf)
    assert workload.check(index, code, json.dumps(dict(record, components=nudged.tolist()))).failed == 0

    perturbed = values.copy()
    perturbed[where] *= 1.0 + 1e-7
    assert workload.check(index, code, json.dumps(dict(record, components=perturbed.tolist()))).failed == 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_default", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
