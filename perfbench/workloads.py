"""Benchmark workloads: their inputs, their calls and their correctness checks.

Every workload drives weylgeom only through its public CLI layer:
``cli.run`` plus ``cli.serialize_structured`` for a verification run, and
``cli.main(["tensor-dump", ...])`` with stdout captured for a single-point
dump.  weylgeom sees only the generated ``RunConfig`` or argv; the workload
seed never reaches it except as the config's sampling seed.

* ``catalog_default``: the default config (9 catalog models x 50 points),
  i.e. what a user runs.  Identities and bundle building share the time.
* ``twisted_n7``: n = 7 twisted model, the non-twisted negative control, and
  a ``custom_diagonal`` that spells the twisted metric in the expression
  grammar.  Arrays reach n^6 entries, so jets and curvature kernels dominate.
  Runnable by hand but not in ``BENCHMARK.json`` (see ``spec.json``).
* ``single_point_dump``: a closed loop with one caller sending tensor-dump
  requests, rotating eight fields over four models with n = 4..6.  Only
  ``build_bundle`` and report encoding run; the identity suite never does.

Correctness: a verification run must exit 0 with no warnings or errors, and
its ``(model, identity_id, verdict, points_tested)`` rows must equal the
reference recorded by ``record_reference.py``.  Each dump must match the
reference fingerprint of its request (see :func:`fingerprint`).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from weylgeom import cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Precision headroom is read from one run at fixed points: weylgeom's own
# default seed.  The worst residual over sampled points is rounding noise and
# varies by a factor of ~8 between seeds, so only fixed points make it
# comparable between two versions of the program.
ANCHOR_SEED = 42

# Relative tolerance for comparing dumps with their reference, in float64
# units: wide enough for a reordered sum, far below any real error.
DUMP_RTOL = 4096 * float(np.finfo(np.float64).eps)

DUMP_FIELDS = ("phi", "E", "xi", "ricci", "weyl", "nablaC", "divC", "gamma")
DUMP_MODELS = (
    ("twisted_n4", 4),
    ("grw_product_spheres", 5),
    ("twisted_generic", 5),
    ("twisted_generic", 6),
)
# One round sends every (model, field) pair once, in a seeded order, so every
# run has the same request mix; the slowest pair (nablaC at n = 6) is 1/32 of
# the requests and the 95th percentile falls inside the second slowest.
ROUND = len(DUMP_MODELS) * len(DUMP_FIELDS)
POOL_ROUNDS = 160
POOL_SEED = 20180105
# The traced unit of the dump workload and the fewest requests an untraced run
# times, so that at least ten samples lie beyond the 95th percentile.
TRACE_ROUNDS = 12
MIN_TIMED_REQUESTS = 256


def _twisted_expression(dep: int) -> str:
    # Same metric as twisted_generic(alpha=0.2, beta=0.1, eps=0.05): f^2 times
    # a fiber entry that depends on the next spatial coordinate, cyclically.
    return f"exp(0.4*t + 0.2*t*sin(x1))*(1 + 0.05*cos(x{dep}))"


def twisted_n7_models() -> list[dict]:
    n = 7
    g_diag = ["-1"] + [_twisted_expression(1 + mu % (n - 1)) for mu in range(1, n)]
    return [
        {"name": "twisted_generic", "n": n, "parameters": {"alpha": 0.2, "beta": 0.1, "eps": 0.05}},
        {"name": "non_twisted_perturbed", "n": n, "parameters": {"delta": 0.1}},
        {"name": "custom_diagonal", "n": n, "parameters": {"g_diag": g_diag, "expected_class": "twisted"}},
    ]


def _call_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


@dataclass
class Outcome:
    """Operations checked and how many of them were wrong, with reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def report_rows(record: dict) -> list[list]:
    return [
        [row["model"], row["identity_id"], row["verdict"], row["points_tested"]]
        for row in record["reports"]
    ]


def check_verify_record(record: dict, reference_rows: list[list], points: int) -> Outcome:
    """Compare one parsed structured report with the recorded rows.

    A failure is a skipped point, a model error, a row with ``ok`` false, or
    a row whose verdict or point count differs from the reference (a missing
    or extra row counts once).
    """
    expected = {(m, i): (v, p) for m, i, v, p in reference_rows}
    got = {(m, i): (v, p) for m, i, v, p in report_rows(record)}
    models = {m for m, _, _, _ in reference_rows}
    out = Outcome(attempted=len(expected) + len(models) * points)
    for key in sorted(expected.keys() | got.keys()):
        if expected.get(key) != got.get(key):
            out.failed += 1
            out.problems.append(f"row {key}: expected {expected.get(key)}, got {got.get(key)}")
    not_ok = [(r["model"], r["identity_id"]) for r in record["reports"] if not r["ok"]]
    out.failed += len(not_ok)
    out.problems.extend(f"row {key}: ok is false" for key in not_ok)
    out.failed += len(record["warnings"]) + len(record["errors"])
    out.problems.extend(record["warnings"] + record["errors"])
    if record["exit_code"] != 0:
        out.failed += 1
        out.problems.append(f"exit code {record['exit_code']}")
    out.failed = min(out.failed, out.attempted)
    return out


def check_twin_models(record: dict, first: str, second: str) -> Outcome:
    """``second`` is ``first`` written another way: verdicts and scales agree."""
    rows = {(r["model"], r["identity_id"]): r for r in record["reports"]}
    out = Outcome()
    for (model, identity_id), row in sorted(rows.items()):
        if model != first:
            continue
        out.attempted += 1
        twin = rows.get((second, identity_id))
        same = (
            twin is not None
            and twin["verdict"] == row["verdict"]
            and abs(twin["scale"] - row["scale"]) <= DUMP_RTOL * max(1.0, abs(row["scale"]))
        )
        if not same:
            out.failed += 1
            out.problems.append(f"{second}/{identity_id} differs from {first}")
    return out


# ---------------------------------------------------------------------------
# Verification workloads
# ---------------------------------------------------------------------------


class VerifyWorkload:
    """Repeated ``verify`` runs; each timed call samples its own points."""

    def __init__(self, name: str, models: list[dict], points: int, seed: int, twins=None):
        self.name = name
        self.models = models
        self.points = points
        self.twins = twins
        self.seeds = _call_seeds(seed, 1000)
        self.reference_rows: list[list] | None = None

    def config(self, seed: int) -> cli.RunConfig:
        return cli.RunConfig(
            models=[dict(entry) for entry in self.models],
            points=self.points,
            seed=seed,
            output_format="structured",
        )

    def load_reference(self) -> None:
        self.reference_rows = load_reference(self.name)["rows"]

    def call(self, seed: int) -> tuple[float, float, str]:
        """One user-visible verify: run the suite and encode the report.

        Returns the start and end clock readings and the report text.
        """
        config = self.config(seed)
        start = time.perf_counter()
        text = cli.serialize_structured(cli.run(config))
        return start, time.perf_counter(), text

    def check(self, text: str) -> Outcome:
        record = json.loads(text)
        out = check_verify_record(record, self.reference_rows, self.points)
        if self.twins:
            out.add(check_twin_models(record, *self.twins))
        return out


# ---------------------------------------------------------------------------
# Single-point dump workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DumpRequest:
    index: int
    model: str
    n: int
    field: str
    point: tuple[float, ...]

    @property
    def kind(self) -> str:
        return f"{self.model}/{self.n}/{self.field}"

    def argv(self) -> list[str]:
        coords = ",".join(repr(x) for x in self.point)
        return ["tensor-dump", self.field, "--model", self.model, "--n", str(self.n), "--point", coords]


def dump_pool() -> list[DumpRequest]:
    """Every request the dump workload can send, each at its own chart point.

    Entry ``r * ROUND + c`` belongs to round ``r`` and pairs model
    ``c % 4`` with field ``c // 4``.  Points come from a fixed seed so that
    each entry has a recorded reference.
    """
    from weylgeom.models import builtin_model

    bounds = {spec: builtin_model(*spec).bounds for spec in DUMP_MODELS}
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for index in range(POOL_ROUNDS * ROUND):
        c = index % ROUND
        model, n = DUMP_MODELS[c % len(DUMP_MODELS)]
        lo, hi = np.array(bounds[(model, n)]).T
        point = lo + (hi - lo) * rng.random(n)
        pool.append(DumpRequest(index, model, n, DUMP_FIELDS[c // len(DUMP_MODELS)], tuple(map(float, point))))
    return pool


_WEIGHTS: dict[int, np.ndarray] = {}


def _weights(size: int) -> np.ndarray:
    # Two fixed projections: positive weights, and the same weights with
    # random signs.  Every weight has magnitude >= 0.5, so a change to any
    # single component moves both projections.
    if size not in _WEIGHTS:
        rng = np.random.default_rng(size)
        w = rng.uniform(0.5, 1.5, size)
        _WEIGHTS[size] = np.stack([w, w * rng.choice([-1.0, 1.0], size)])
    return _WEIGHTS[size]


def fingerprint(record: dict) -> tuple[np.ndarray, np.ndarray]:
    """Two weighted sums of the dumped components, and their absolute sizes.

    Storing every component of every pool request would take tens of
    megabytes.  The weights have magnitude in [0.5, 1.5], so a change to any
    single component beyond ``DUMP_RTOL`` of the tensor's size moves a sum.
    """
    values = np.ravel(np.asarray(record.get("components", record.get("value")), dtype=float))
    w = _weights(values.size)
    return w @ values, np.abs(w) @ np.abs(values)


def dump_shape(record: dict) -> list:
    return [record["model"], record["n"], record["field"], record.get("variance"), list(np.shape(record.get("components", [])))]


class DumpWorkload:
    """Closed loop, one caller: one tensor-dump request at a time."""

    name = "single_point_dump"

    def __init__(self, seed: int):
        self.pool = dump_pool()
        rng = np.random.default_rng(seed)
        order = []
        for r in rng.permutation(POOL_ROUNDS):
            order.extend(int(r) * ROUND + int(c) for c in rng.permutation(ROUND))
        self.order = order
        self.reference: dict | None = None
        self.anchor = VerifyWorkload(
            "single_point_dump",
            [{"name": m, "n": n} for m, n in DUMP_MODELS],
            points=20,
            seed=ANCHOR_SEED,
        )

    def load_reference(self) -> None:
        self.reference = load_reference(self.name)
        self.anchor.reference_rows = self.reference["rows"]

    def request(self, position: int) -> tuple[int, float, float, int, str]:
        """Send the request at ``position`` of the seeded order (wrapping)."""
        return self.send(self.order[position % len(self.order)])

    def send(self, index: int) -> tuple[int, float, float, int, str]:
        """Send pool request ``index``.

        Returns the index, the start and end clock readings, the exit code and
        the captured stdout.
        """
        buffer = io.StringIO()
        argv = self.pool[index].argv()
        with contextlib.redirect_stdout(buffer):
            start = time.perf_counter()
            code = cli.main(argv)
            end = time.perf_counter()
        return index, start, end, code, buffer.getvalue()

    def check(self, index: int, code: int, text: str) -> Outcome:
        out = Outcome(attempted=1)
        request = self.pool[index]
        try:
            record = json.loads(text)
            shape = dump_shape(record)
            sums, sizes = fingerprint(record)
            point_ok = record["point"] == list(request.point)
        except (ValueError, KeyError, TypeError) as err:
            out.failed, out.problems = 1, [f"dump {index}: unreadable output ({err})"]
            return out
        expected = np.asarray(self.reference["dumps"][index])
        close = np.all(np.abs(sums - expected) <= DUMP_RTOL * np.maximum(1.0, sizes))
        if code != 0 or not point_ok or shape != self.reference["shapes"][request.kind] or not close:
            out.failed = 1
            out.problems.append(f"dump {index} ({request.kind}): exit {code}, output differs from reference")
        return out


def make(name: str, seed: int):
    """Build a workload's inputs: the config or the request list."""
    if name == "catalog_default":
        return VerifyWorkload(name, cli.default_config().models, 50, seed)
    if name == "twisted_n7":
        return VerifyWorkload(name, twisted_n7_models(), 60, seed, twins=("twisted_generic_n7", "custom_diagonal_n7"))
    if name == "single_point_dump":
        return DumpWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("catalog_default", "twisted_n7", "single_point_dump")


def headroom(record: dict) -> tuple[float, float, str]:
    """Precision headroom of a report: digits, the tolerance use, its row.

    The tolerance use is the largest ``max_residual / (tolerance * max(1,
    scale))`` over pass rows; the digits are its negative base-10 logarithm.
    """
    use, where = 0.0, "none"
    for row in record["reports"]:
        if row["verdict"] != "pass":
            continue
        ratio = row["max_residual"] / (row["tolerance"] * max(1.0, row["scale"]))
        if ratio > use:
            use, where = ratio, f"{row['model']}/{row['identity_id']}"
    if use <= 0.0:
        raise ValueError("no pass row has a nonzero residual; headroom is undefined")
    return -math.log10(use), use, where
