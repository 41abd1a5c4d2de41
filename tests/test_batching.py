"""Chunked evaluation against the same points evaluated one at a time.

Every array of a bundle built for a chunk of points, and every pointwise
``(residual, scale)``, must equal what the same point gives alone, within 64
units of float64 roundoff: room for a contraction that sums in another
order (the accumulation order of einsum and of the BLAS matrix products
behind ``@`` depends on the shapes they iterate over).

Bundle components are compared relative to ``max(1, |x|)``.  A residual, and
the scale of an identity whose sides vanish analytically (the master
recurrence on a Weyl-flat metric), is rounding noise of terms built from the
bundle; its size is set by those terms, not by itself, so it is compared
relative to ``max(1, |x|, M)`` with M the largest bundle component at that
point.
"""

import dataclasses

import numpy as np
import pytest

from weylgeom import build_bundle, builtin_model, cli, sample_points
from weylgeom.identities import REGISTRY, _Chunk
from weylgeom.models import default_model_specs
from weylgeom.tensors import max_abs

RTOL = 64 * np.finfo(np.float64).eps
POINTS = 7
CHUNK_POINTS = 3  # chunks of 2, 2 and 3 points

ARRAY_FIELDS = [f.name for f in dataclasses.fields(cli.CurvatureBundle) if f.name != "n"]


def _close(batched, alone, magnitude=1.0):
    return np.all(np.abs(batched - alone) <= RTOL * np.maximum(magnitude, np.abs(alone)))


def _stacked(bundles, name):
    return np.concatenate([getattr(b, name) for b in bundles])


def _evaluated(bundles, check):
    pairs = [check.point_fn(_Chunk(b)) for b in bundles]
    return np.concatenate([r for r, _ in pairs]), np.concatenate([s for _, s in pairs])


@pytest.mark.parametrize("spec", default_model_specs(), ids=lambda spec: f"{spec[0]}_n{spec[1]}")
def test_chunked_equals_alone_and_reverses(monkeypatch, spec):
    name, n, params = spec
    model = builtin_model(name, n, params)
    monkeypatch.setattr(cli, "CHUNK_ELEMENTS", CHUNK_POINTS * n**5)
    points = sample_points(model, POINTS, 11)
    warnings = []
    chunked = list(cli._collect_bundles(model, points, warnings))
    assert warnings == [] and [len(b.points) for b in chunked] == [2, 2, 3]
    alone = [build_bundle(model, p[None]) for p in points]
    reversed_chunks = list(cli._collect_bundles(model, points[::-1].copy(), warnings))

    for field in ARRAY_FIELDS:
        batched, single = _stacked(chunked, field), _stacked(alone, field)
        assert batched.shape == single.shape, field
        assert _close(batched, single), field
        assert _close(_stacked(reversed_chunks, field)[::-1], single), field

    magnitude = np.maximum(1.0, [max(max_abs(getattr(b, f)) for f in ARRAY_FIELDS) for b in alone])
    for check in (c for c in REGISTRY if c.point_fn is not None):
        want = _evaluated(alone, check)
        for got in (_evaluated(chunked, check), tuple(x[::-1] for x in _evaluated(reversed_chunks, check))):
            assert _close(got[0], want[0], magnitude), check.identity_id
            assert _close(got[1], want[1], magnitude), check.identity_id
