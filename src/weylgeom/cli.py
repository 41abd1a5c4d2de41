"""Command-line entry point: run the identity suite, dump fields, list models.

Exit codes: 0 when every applicable identity matches its expectation
(including the negative-control expected failures), 1 on any unexpected
verdict or model evaluation error, 2 on configuration or usage errors.

The structured output format is stable JSON with one record per
(model, identity): identity_id, paper_ref, model, n, points_tested,
max_residual, scale, tolerance, verdict, plus the expectation bookkeeping
(expected, ok) and any measured extras.  Fixed-seed runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import numbers
import os
import re
import reprlib
import sys
from dataclasses import dataclass, field as dataclass_field, fields, replace
from typing import Iterator

import numpy as np

from . import __version__
from .curvature import FIELD_VARIANCE, CurvatureBundle, build_bundle, expand_pairs
from .identities import (
    GROUPS,
    NOT_APPLICABLE,
    REGISTRY,
    expected_verdict,
    registry_ids,
    run_model_suite,
)
from .models import CATALOG_NAMES, MetricModel, builtin_model, check_dimension, default_model_specs
from .models import is_finite_real, model_dimensions, sample_points

__all__ = [
    "RunConfig",
    "CHUNK_ELEMENTS",
    "MAX_POINTS",
    "chunk_size",
    "load_config",
    "default_config",
    "run",
    "main",
    "entrypoint",
]

# Element budget of one chunk of points built together.  The largest arrays
# (third metric derivatives, ∂B and the Weyl kernel's products while a chunk
# is built) hold n**5 entries per point, so a chunk has at most
# CHUNK_ELEMENTS // n**5 points: 256 at n = 4, 83 at n = 5, 33 at n = 6.  A
# sample is split evenly into the fewest chunks this cap allows (see
# _chunk_edges): 50 points are one chunk at n = 4 and 5, two of 25 at n = 6.
# ∇C in the bundle holds n**3 n(n-1)/2.  The fixed cost of a chunk, not its
# array size, sets the run time; larger chunks hold more memory at once.
CHUNK_ELEMENTS = 2**18

# Most sampled points per model.  Bundles are streamed a chunk at a time
# from build to suite, so memory grows with the sample only by the per-point
# residual arrays kept for the reports (under 1 kB a point); the bound caps
# the run time, about 2 ms a point at n = 7.
MAX_POINTS = 10_000

_MODEL_KEYS = {"name", "n", "parameters", "label"}
_FORMATS = ("text", "structured")

# A --point coordinate: a plain decimal number, or a non-finite word that the
# chart-coordinate check then rejects.  float() alone would also read "1_0"
# and non-ASCII digits.
_COORDINATE = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|nan|inf|infinity)", re.IGNORECASE)

# Bundle fields that tensor-dump may print (every field but the chart
# points and the dimension), plus short aliases.
_DUMP_FIELDS = tuple(f.name for f in fields(CurvatureBundle) if f.name not in ("points", "n"))
_FIELD_ALIASES = {
    "phi": "hubble_rate",
    "E": "electric",
    "xi": "raychaudhuri_scalar",
    "v": "hubble_gradient_up",
    "C": "weyl",
    "nablaC": "nabla_weyl",
    "divC": "div_weyl",
    "scalarR": "scalar_curvature",
    "gamma": "christoffel",
}


@dataclass
class RunConfig:
    """Validated inputs of one verification run."""

    models: list[dict]
    points: int = 50
    seed: int = 42
    tolerances: dict = dataclass_field(default_factory=dict)
    output_format: str = "text"
    output_path: str | None = None


def default_config() -> RunConfig:
    models = [
        {"name": name, "n": n, "parameters": params}
        for name, n, params in default_model_specs()
    ]
    return RunConfig(models=models)


def _check_int(value, name: str, low: int) -> None:
    """Reject anything but an integer >= low (JSON booleans included)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {reprlib.repr(value)}")


def _check_tolerance(identity_id: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"tolerance for {identity_id} must be a number, got {reprlib.repr(value)}")
    if not (is_finite_real(value) and value > 0):
        raise ValueError(
            f"tolerance for {identity_id} must be finite and positive, got {reprlib.repr(value)}"
        )


def _validate_config(config: RunConfig) -> RunConfig:
    _check_int(config.points, "points", 1)
    if config.points > MAX_POINTS:
        raise ValueError(f"points must be at most {MAX_POINTS}, got {reprlib.repr(config.points)}")
    _check_int(config.seed, "seed", 0)
    if config.output_format not in _FORMATS:
        raise ValueError(f"output_format must be one of {_FORMATS}")
    if config.output_path is not None and not isinstance(config.output_path, str):
        raise ValueError(f"output_path must be a file path string, got {config.output_path!r}")
    if not isinstance(config.tolerances, dict):
        raise ValueError("tolerances must be an object mapping identity ids to numbers")
    unknown = set(config.tolerances) - set(registry_ids())
    if unknown:
        raise ValueError(f"unknown identity ids in tolerances: {sorted(unknown)}")
    for identity_id, value in config.tolerances.items():
        _check_tolerance(identity_id, value)
    if not isinstance(config.models, list):
        raise ValueError("models must be a list of model entries")
    if not config.models:
        raise ValueError("models must list at least one model entry")
    for entry in config.models:
        if not isinstance(entry, dict):
            raise ValueError(f"every model entry must be an object, got {entry!r}")
        extra = set(entry) - _MODEL_KEYS
        if extra:
            raise ValueError(f"unknown model-entry fields: {sorted(extra)}")
        if "name" not in entry:
            raise ValueError("every model entry needs a 'name'")
        if not isinstance(entry["name"], str):
            raise ValueError(f"model-entry 'name' must be a string, got {entry['name']!r}")
        if entry.get("n") is not None:
            check_dimension(entry["n"], what="model dimension n")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise ValueError(f"model-entry 'label' must be a string, got {label!r}")
        if label == "":
            raise ValueError("model-entry 'label' must not be empty")
        parameters = entry.get("parameters") or {}
        if not isinstance(parameters, dict):
            raise ValueError(f"model-entry 'parameters' must be an object, got {parameters!r}")
    return config


def _parse_int(text: str) -> int:
    """A JSON integer literal, or a ValueError that says why it is unreadable
    (Python converts at most 4300 digits)."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"an integer of {len(text.lstrip('-'))} digits is too long to read") from None


def _flag_int(text: str) -> int:
    """An integer flag value (--points, --seed, --n): ASCII digits, with an
    optional leading minus that the range checks then reject.  int() alone
    would also read "1_0", " 7 " and non-ASCII digits.  A rejected value is
    a usage error that names the flag, worded as argparse words a value
    int() rejects."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return _parse_int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON run config; unknown fields are rejected.

    A file that is not JSON, or holds an unreadable integer or nesting too
    deep to read, is an error that names the file.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_int=_parse_int)
        except (ValueError, RecursionError) as err:
            raise ValueError(f"{path}: {err}") from None
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    unknown = set(data) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return _validate_config(replace(default_config(), **data))


# ---------------------------------------------------------------------------
# Verification run
# ---------------------------------------------------------------------------


def _labelled_models(entries: list[dict]) -> list[tuple[str, MetricModel]]:
    """Each model entry built, with its report label (the model's own label
    unless the entry names one); labels must be unique."""
    labelled = []
    for entry in entries:
        try:
            model = builtin_model(entry["name"], entry.get("n"), entry.get("parameters"))
        except ValueError as err:
            raise ValueError(f"bad model entry {entry['name']!r}: {err}") from err
        unknown = model.expected_failures - set(registry_ids())
        if unknown:
            raise ValueError(f"unknown identity ids in expected_failures: {sorted(unknown)}")
        labelled.append((entry.get("label") or model.label, model))
    labels = [label for label, _ in labelled]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"model labels must be unique; repeated: {repeated}")
    return labelled


def chunk_size(n: int) -> int:
    """Most points per chunk for dimension n (see ``CHUNK_ELEMENTS``)."""
    return max(1, CHUNK_ELEMENTS // n**5)


def _chunk_edges(count: int, n: int) -> list[int]:
    """Where the chunks of a sample of ``count`` points start, and where the
    last one stops: the fewest chunks of at most ``chunk_size(n)`` points,
    with sizes that differ by at most one.  An empty sample has no chunk."""
    chunks = -(-count // chunk_size(n))
    return [count * k // chunks for k in range(chunks + 1)] if chunks else [0]


def _collect_bundles(
    model: MetricModel, points: np.ndarray, warnings: list[str]
) -> Iterator[CurvatureBundle]:
    """Bundles of a model's sampled points, built a chunk at a time and
    yielded as they are built; none is kept.  Each is yielded straight from
    its build, so this frame holds no bundle while the next one is built.

    A chunk that fails is rebuilt one point at a time, so only the points
    that fail are skipped (each with a warning); after the last chunk,
    skipping 5% or more of the sample is a model error.  An empty ``points``
    array yields nothing, and the identity suite rejects it.
    """
    skipped = 0
    edges = _chunk_edges(len(points), model.n)
    for start, stop in zip(edges, edges[1:]):
        chunk = points[start:stop]
        try:
            yield build_bundle(model, chunk)
        except ValueError:
            for point in chunk:
                try:
                    yield build_bundle(model, point[None])
                except ValueError as err:
                    skipped += 1
                    warnings.append(f"{model.label}: skipped point {point.tolist()}: {err}")
    if skipped and skipped / len(points) >= 0.05:
        raise RuntimeError(
            f"{model.label}: {skipped}/{len(points)} sampled points failed to evaluate"
        )


def run(config: RunConfig) -> dict:
    """Execute a verification run; returns the full result record.

    The record contains one row per (model, identity), sorted by model label
    then identity id, plus run metadata, warnings, errors and the exit code.
    """
    _validate_config(config)
    rows: list[dict] = []
    warnings: list[str] = []
    errors: list[str] = []
    for label, model in sorted(_labelled_models(config.models), key=lambda pair: pair[0]):
        try:
            points = sample_points(model, config.points, config.seed)
            bundles = _collect_bundles(model, points, warnings)
            reports = run_model_suite(model, bundles, config.tolerances)
        except (RuntimeError, ValueError) as err:
            errors.append(str(err))
            continue
        for report in reports:
            expected = expected_verdict(model, report)
            rows.append(
                {
                    "model": label,
                    "n": model.n,
                    "expected": expected,
                    "ok": report.verdict == expected,
                    **report.to_dict(),
                }
            )
    exit_code = 0 if all(row["ok"] for row in rows) and not errors else 1
    return {
        "run": {
            "package": "weylgeom",
            "version": __version__,
            "points": config.points,
            "seed": config.seed,
        },
        "reports": rows,
        "warnings": warnings,
        "errors": errors,
        "exit_code": exit_code,
    }


def serialize_structured(result: dict) -> str:
    return json.dumps(result, indent=2, sort_keys=True) + "\n"


def _emit(text: str) -> None:
    """Write ``text`` to stdout and flush it.  A reader that closed the pipe
    early (``weylgeom models-list | head -1``) ends the output quietly: stdout
    is pointed at the null device, so neither the rest of this command's
    output nor the flush at exit reports the closed pipe."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def render_text(result: dict) -> str:
    lines = [
        "weylgeom identity verification "
        f"(points={result['run']['points']}, seed={result['run']['seed']})",
    ]
    by_model: dict[str, list[dict]] = {}
    for row in result["reports"]:
        by_model.setdefault(row["model"], []).append(row)
    group_of = {check.identity_id: check.group for check in REGISTRY}
    for model_label in sorted(by_model):
        model_rows = by_model[model_label]
        lines.append("")
        lines.append(f"model {model_label} (n={model_rows[0]['n']})")
        for group in GROUPS:
            group_rows = [r for r in model_rows if group_of[r["identity_id"]] == group]
            if not group_rows:
                continue
            lines.append(f"  [{group}]")
            for row in group_rows:
                if row["verdict"] == NOT_APPLICABLE:
                    mark = "N/A  "
                elif row["ok"]:
                    mark = "PASS " if row["verdict"] == "pass" else "XFAIL"
                else:
                    mark = "FAIL "
                lines.append(
                    f"    {mark} {row['identity_id']:<32} "
                    f"resid={row['max_residual']:.3e} scale={row['scale']:.3e} "
                    f"tol={row['tolerance']:.1e} pts={row['points_tested']}"
                )
                lines.append(f"           {row['paper_ref']}")
    if result["warnings"]:
        lines.append("")
        lines.extend(f"warning: {w}" for w in result["warnings"])
    if result["errors"]:
        lines.append("")
        lines.extend(f"error: {e}" for e in result["errors"])
    lines.append("")
    lines.append(f"exit code {result['exit_code']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _flag_json(flag: str, key: str, value: str):
    """The ``VALUE`` of a ``KEY=VALUE`` flag read as JSON, as the same value in a
    config is; raises ``json.JSONDecodeError`` for text that is not JSON, and a
    ``ValueError`` that names the flag and key for JSON it cannot read."""
    try:
        return json.loads(value, parse_int=_parse_int)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{flag} {key}: {err}") from None


def _parse_tolerance_flags(pairs: list[str]) -> dict:
    """``--tolerance ID=VALUE`` flags: each ``VALUE`` is read as JSON, so the
    numbers a config's ``tolerances`` rejects are rejected here too."""
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"--tolerance expects ID=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        try:
            out[key.strip()] = _flag_json("--tolerance", key.strip(), value)
        except json.JSONDecodeError:
            raise ValueError(f"--tolerance ID=VALUE needs a number for VALUE, got {item!r}") from None
    return out


def _parse_param_flags(pairs: list[str]) -> dict:
    """``--param KEY=VALUE`` flags as model parameters: each ``VALUE`` is read as
    in a config's ``parameters`` (JSON), or as a bare string if it is not JSON."""
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"--param expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        try:
            out[key.strip()] = _flag_json("--param", key.strip(), value)
        except json.JSONDecodeError:
            out[key.strip()] = value
    return out


def _entry_selectors(entry: dict) -> set[str]:
    """The values of ``verify --model`` that select a model entry: its name,
    its explicit label and the label of the model it builds."""
    selectors = {entry["name"], entry.get("label")} - {None}
    try:
        selectors.add(builtin_model(entry["name"], entry.get("n"), entry.get("parameters")).label)
    except ValueError:
        pass  # run() reports the broken entry if the filter keeps it
    return selectors


def cmd_verify(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else default_config()
    if args.points is not None:
        config.points = args.points
    if args.seed is not None:
        config.seed = args.seed
    if args.format is not None:
        config.output_format = args.format
    if args.output is not None:
        config.output_path = args.output
    if args.tolerance:
        config.tolerances.update(_parse_tolerance_flags(args.tolerance))
    if args.model:
        wanted = set(args.model)
        selectors = [_entry_selectors(entry) for entry in config.models]
        missing = wanted.difference(*selectors)
        if missing:
            raise ValueError(f"--model filter does not match any configured model: {sorted(missing)}")
        config.models = [
            entry for entry, names in zip(config.models, selectors) if wanted & names
        ]

    result = run(config)
    text = (
        serialize_structured(result)
        if config.output_format == "structured"
        else render_text(result)
    )
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        _emit(text)
    return int(result["exit_code"])


def cmd_tensor_dump(args: argparse.Namespace) -> int:
    field_name = _FIELD_ALIASES.get(args.field, args.field)
    if field_name not in _DUMP_FIELDS:
        raise ValueError(
            f"unknown field {args.field!r}; choose from {', '.join(_DUMP_FIELDS)} "
            f"or aliases {', '.join(_FIELD_ALIASES)}"
        )
    model = builtin_model(args.model, args.n, _parse_param_flags(args.param))
    items = args.point.split(",")
    if not all(_COORDINATE.fullmatch(x) for x in items):
        raise ValueError(f"--point expects comma-separated numbers, got {args.point!r}")
    point = np.array([float(x) for x in items])
    if point.size != model.n:
        raise ValueError(f"--point needs {model.n} coordinates for {model.label}, got {point.size}")
    value = getattr(build_bundle(model, point[None], (field_name,)), field_name)[0]
    if field_name == "nabla_weyl":  # held at the pairs l < m of its last slot pair
        value = expand_pairs(value)
    record: dict = {
        "model": model.label,
        "n": model.n,
        "point": point.tolist(),
        "field": field_name,
    }
    if value.ndim == 0:
        record["value"] = float(value)
        text = json.dumps(record, indent=2, sort_keys=True)
    else:
        variance = FIELD_VARIANCE.get(field_name)
        record["variance"] = None if variance is None else list(variance)
        # "components" sorts before every other key, so it opens the object.
        rest = json.dumps(record, indent=2, sort_keys=True)
        text = '{\n  "components": ' + _json_float_array(value, 1) + "," + rest[1:]
    _emit(text + "\n")
    return 0


def _json_float_array(value: np.ndarray, depth: int) -> str:
    """``value`` as ``json.dumps(value.tolist(), indent=2)`` writes it when
    nested ``depth`` levels deep, built straight from the flat array.

    ``json`` spells a finite float as ``float.__repr__`` does (the shortest
    round-trip form); ``build_bundle`` rejects non-finite fields, so this
    never meets the NaN and Infinity spellings.  Each distinct magnitude is
    spelled once and the sign is written as a ``-`` prefix, since
    ``repr(-x) == "-" + repr(x)`` for every finite float; the sign bit is
    read apart from the magnitude, so -0.0 stays apart from 0.0.  The text
    interleaves the spellings with the separators of
    :func:`_json_separators`.  Every axis must be non-empty.
    """
    flat = np.ascontiguousarray(value, dtype=np.float64).ravel()
    magnitudes, inverse = np.unique(np.abs(flat), return_inverse=True)
    spellings = list(map(float.__repr__, magnitudes.tolist()))
    table = np.array(spellings + ["-" + s for s in spellings], dtype=object)
    parts = list(_json_separators(value.shape, depth))
    parts[1::2] = table[inverse + len(spellings) * np.signbit(flat)].tolist()
    return "".join(parts)


@functools.lru_cache(maxsize=64)
def _json_separators(shape: tuple, depth: int) -> tuple:
    """The text around the entries of a ``json.dumps(indent=2)`` array of
    ``shape`` nested ``depth`` levels deep, as ``(opening, None, sep, None,
    ..., None, closing)``: one ``None`` slot per entry.

    Between entries ``i - 1`` and ``i``, the last ``k`` axes roll over (``i``
    is a multiple of the product of the last ``k`` sizes); the separator
    closes those ``k`` lists and opens ``k`` new ones."""
    last = depth + len(shape)

    def opening(k):
        return "".join("[\n" + "  " * level for level in range(last - k + 1, last + 1))

    def closing(k):
        return "".join("\n" + "  " * (level - 1) + "]" for level in range(last, last - k, -1))

    table = [closing(k) + ",\n" + "  " * (last - k) + opening(k) for k in range(len(shape))]
    size = int(np.prod(shape))
    index = np.arange(1, size)
    rolled = np.zeros(size - 1, dtype=np.intp)
    block = 1
    for axis_size in reversed(shape[1:]):
        block *= axis_size
        rolled += index % block == 0
    parts = [None] * (2 * size + 1)
    parts[0] = opening(len(shape))
    parts[2:-1:2] = [table[k] for k in rolled.tolist()]
    parts[-1] = closing(len(shape))
    return tuple(parts)


def cmd_models_list(args: argparse.Namespace) -> int:
    lines = []
    for name in CATALOG_NAMES:
        dims = f"n={model_dimensions(name)}"
        if name == "custom_diagonal":
            lines.append(f"{name}  [class declared by config]  {dims}")
            lines.append(
                "    user-defined diagonal metric from the expression grammar "
                "(entries over t, x1.., exp/log/sin/cos/pow)"
            )
            continue
        model = builtin_model(name)
        lines.append(f"{name}  [{model.expected_class}]  {dims}")
        lines.append(f"    {model.description}")
        if model.parameters:
            defaults = ", ".join(f"{k}={v}" for k, v in sorted(model.parameters.items()))
            lines.append(f"    defaults: {defaults}")
    _emit("".join(line + "\n" for line in lines))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error on one line,
    ``error: <message>``, and exits 2, without argparse's usage block.
    Subparsers are built from the same class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and then reused (parsing keeps no state in it)."""
    parser = _Parser(
        prog="weylgeom",
        description="verify curvature identities of twisted space-time metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the identity suite and report residuals")
    verify.add_argument("--config", help="JSON run config path")
    verify.add_argument("--points", type=_flag_int, help="sampled chart points per model")
    verify.add_argument("--seed", type=_flag_int, help="sampling seed")
    verify.add_argument("--format", choices=_FORMATS, help="output format")
    verify.add_argument("--output", help="write the report to a file instead of stdout")
    verify.add_argument(
        "--model",
        action="append",
        help="restrict to the model entries with this name or label, e.g. rw_flat or rw_flat_n6 (repeatable)",
    )
    verify.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="ID=VALUE",
        help="override one identity tolerance (repeatable)",
    )
    verify.set_defaults(func=cmd_verify)

    dump = sub.add_parser("tensor-dump", help="print one bundle field at one chart point")
    dump.add_argument("field", help="bundle field name (aliases: phi, E, xi, v, C, nablaC, divC, scalarR, gamma)")
    dump.add_argument("--model", required=True, help="catalog model name")
    dump.add_argument("--n", type=_flag_int, help="dimension (model default when omitted)")
    dump.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    dump.add_argument(
        "--point",
        required=True,
        help="comma-separated chart coordinates, t first; write --point=-0.5,... when t is negative",
    )
    dump.set_defaults(func=cmd_tensor_dump)

    models = sub.add_parser("models-list", help="print the metric catalog")
    models.set_defaults(func=cmd_models_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
