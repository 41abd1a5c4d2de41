"""Spans and counts around weylgeom's public layer functions, patched from outside.

Each function is replaced where its caller looks it up (``cli.build_bundle``,
``curvature.christoffel_from_jets``, ``identities.evaluate_check``,
``MetricModel.metric_jets``, ...), so the program itself is unchanged.  A span
records (name, start, end, parent span, group); spans stay in memory until
:meth:`Tracer.write`.  Counters record calls only, since they fire tens of
thousands of times per run.
"""

from __future__ import annotations

import contextlib
import json
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np

from weylgeom import cli, curvature, identities, jets, models, tensors

_CURVATURE_KERNELS = ("christoffel_from_jets", "riemann_ricci_scalar", "weyl", "covariant_derivative")


class Tracer:
    """Collects spans and call counts while :meth:`installed` is active."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, group, raised].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.group = ""
        self._stack: list[int] = []
        self._points = 0

    def _span(self, owner, attr: str, name, group=None) -> None:
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name(args) if callable(name) else name
            if group is not None:
                tag = group(args)
            else:
                tag = spans[parent][4] if parent >= 0 else self.group
            record = [label, clock(), 0.0, parent, tag, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                return original(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = clock()
                stack.pop()

        setattr(owner, attr, wrapper)

    def _count(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def _point_group(self, args) -> str:
        self._points += 1
        return f"{self.group}/{args[0].label}/point{self._points}"

    @contextlib.contextmanager
    def installed(self):
        """Patch the layer functions, and restore every original on exit."""
        json_proxy = types.ModuleType("json")
        json_proxy.__dict__.update(vars(json))
        targets = [
            (cli, "json"),
            (cli, "sample_points"),
            (cli, "build_bundle"),
            (cli, "run_model_suite"),
            (models.MetricModel, "metric_jets"),
            (identities, "evaluate_check"),
            (identities, "max_abs"),
            (identities, "norm_squared"),
            (np, "einsum"),
            (tensors.TensorValue, "__post_init__"),
            (jets.Jet3, "__post_init__"),
        ] + [(curvature, kernel) for kernel in _CURVATURE_KERNELS]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr in targets]
        try:
            cli.json = json_proxy
            self._span(json_proxy, "dumps", "cli.encode")
            self._span(cli, "sample_points", "models.sample_points")
            self._span(cli, "build_bundle", "curvature.build_bundle", group=self._point_group)
            self._span(cli, "run_model_suite", "identities.suite", group=lambda args: f"{self.group}/{args[0].label}")
            self._span(models.MetricModel, "metric_jets", "models.metric_jets")
            self._span(identities, "evaluate_check", lambda args: f"identities.{args[0].identity_id}")
            for kernel in _CURVATURE_KERNELS:
                self._span(curvature, kernel, f"curvature.{kernel}")
            self._count(identities, "max_abs", "identities.max_abs")
            self._count(identities, "norm_squared", "identities.norm_squared")
            self._count(np, "einsum", "numpy.einsum")
            self._count(tensors.TensorValue, "__post_init__", "tensors.TensorValue")
            self._count(jets.Jet3, "__post_init__", "jets.Jet3")
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self, first: int = 0) -> tuple[Counter, Counter]:
        """Per name, from span ``first`` on: self seconds and total seconds.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on one thread.
        """
        spans = self.spans
        child = Counter()
        for name, start, end, parent, _, _ in spans[first:]:
            if parent >= first:
                child[parent] += end - start
        own, total = Counter(), Counter()
        for i, (name, start, end, _, _, _) in enumerate(spans[first:], start=first):
            own[name] += end - start - child[i]
            total[name] += end - start
        return own, total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "group", "raised"], "spans": self.spans}, handle)
