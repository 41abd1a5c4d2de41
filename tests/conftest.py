"""Shared fixtures and independent numerical oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from weylgeom import build_bundle, builtin_model, sample_points
from weylgeom.cli import _chunk_edges
from weylgeom.models import default_model_specs

SEED = 42
SUITE_POINTS = 50


def fd_partial(f, x, dirs, h=1e-3):
    """Nested central finite differences of a scalar function of coordinates.

    ``dirs`` lists the coordinate indices to differentiate against (repeats
    allowed).  Truncation error is O(h^2); this is the independent oracle the
    jet arithmetic is checked against.
    """
    if not dirs:
        return f(x)
    d, rest = dirs[0], dirs[1:]
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[d] += h
    xm[d] -= h
    return (fd_partial(f, xp, rest, h) - fd_partial(f, xm, rest, h)) / (2.0 * h)


def fd_tensor_partials(field_fn, x, h=1e-3):
    """Central-difference first derivatives of an array-valued field.

    Returns an array with the derivative index first, matching the layout of
    the analytic coordinate-derivative arrays.
    """
    x = np.asarray(x, dtype=float)
    base = np.asarray(field_fn(x))
    out = np.zeros((x.size,) + base.shape)
    for p in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[p] += h
        xm[p] -= h
        out[p] = (np.asarray(field_fn(xp)) - np.asarray(field_fn(xm))) / (2.0 * h)
    return out


def chunked_bundles(model, points):
    """Bundles of ``points`` built a chunk at a time, as the CLI builds them."""
    edges = _chunk_edges(len(points), model.n)
    return [build_bundle(model, points[start:stop]) for start, stop in zip(edges, edges[1:])]


def point_count(bundles):
    return sum(len(b.points) for b in bundles)


@pytest.fixture(scope="session")
def suite_data():
    """Bundles for every default model at the acceptance sampling settings."""
    data = {}
    for name, n, params in default_model_specs():
        model = builtin_model(name, n, params)
        points = sample_points(model, SUITE_POINTS, SEED)
        data[model.label] = (model, chunked_bundles(model, points))
    return data


@pytest.fixture(scope="session")
def small_bundles():
    """A few points per model for unit-level checks."""
    data = {}
    for name, n, params in default_model_specs():
        model = builtin_model(name, n, params)
        points = sample_points(model, 6, SEED)
        data[model.label] = (model, chunked_bundles(model, points))
    return data
