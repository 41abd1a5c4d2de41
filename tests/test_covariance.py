"""Chart covariance: every bundle field transforms as the tensor it is.

A model is pulled back through a chart map x = φ(y) that keeps t up to a
translation, x^0 = y^0 + c, and moves the spatial coordinates by an affine
map plus a quadratic one about the centre m of the sampling box:

    x^s = m^s + Σ_j A_sj (y^j - m^j) + Σ_jk Q_sjk (y^j - m^j)(y^k - m^k),

with j, k spatial.  The pulled-back metric g'_ab(y) = J^i_a J^k_b g_ik(φ(y)),
J^i_a = ∂x^i/∂y^a, is formed with jet arithmetic, so it is exact, and not
diagonal even when g is.  Since no x^s depends on y^0, ∂/∂y^0 = ∂/∂x^0: the
comoving field u = ∂_t of the pulled-back model is the original one.

So ``build_bundle`` of the pulled-back model at y must equal the tensor
transform of ``build_bundle`` of the model at φ(y), slot by slot as
``FIELD_VARIANCE`` declares: a lower slot takes J, an upper slot J⁻¹.  This
shares no index convention with the code it checks: a transposed or
mis-slotted index in any kernel breaks it, where the catalog's diagonal
metrics would hide it.

Each field must match within RTOL of max(1, |field|, M) at each point, with M
the largest component of any field there: a field formed from larger terms
carries their roundoff.  Flat RW's C and ∇C vanish, but are formed from R
and ∂R; at n = 5 and 6 they and the fields formed from them read up to
2.1e-13 (∇C), where M reaches 122, which is at most 3.0e-15 of M.  On the
other seven specs every field reads at most 1.7e-15 of max(1, |field|).
"""

import dataclasses

import numpy as np
import pytest

from weylgeom import build_bundle, builtin_model
from weylgeom.curvature import FIELD_VARIANCE, expand_pairs
from weylgeom.models import default_model_specs
from weylgeom.tensors import max_abs

RTOL = 1e-13
POINTS = 2
# (A noise, Q noise, time shift c): two spatial maps, and the second with a
# time translation on top.
MAPS = {"small": (0.05, 0.02, 0.0), "large": (0.2, 0.05, 0.0), "large-shifted": (0.2, 0.05, 0.3)}
# y is sampled this fraction of the box's half-width about its centre, less
# the time shift, so that φ(y) stays inside the box: the sphere model is
# ill-conditioned near its poles.
SPREAD = 0.35


def _chart_map(n, a_noise, q_noise, seed):
    """The spatial map's A and Q, about the identity."""
    rng = np.random.default_rng(seed)
    lin = np.eye(n - 1) + a_noise * rng.uniform(-1.0, 1.0, (n - 1, n - 1))
    quad = q_noise * rng.uniform(-1.0, 1.0, (n - 1, n - 1, n - 1))
    return lin, quad


def _pulled_back(model, lin, quad, shift):
    """The model in the chart y, with x = φ(y) as in the module docstring."""
    n = model.n
    centre = np.array([np.mean(b) for b in model.bounds])

    def entries(yj):
        dy = [yj[j] - centre[j] for j in range(1, n)]
        x = [yj[0] + shift]
        # jac[s][j] = ∂x^s/∂y^j for spatial s, j (0-based over the spatial axes).
        jac = []
        for s in range(n - 1):
            x_s = centre[s + 1]
            row = []
            for j in range(n - 1):
                x_s = x_s + lin[s, j] * dy[j]
                d = lin[s, j]
                for k in range(n - 1):
                    x_s = x_s + quad[s, j, k] * (dy[j] * dy[k])
                    d = d + (quad[s, j, k] + quad[s, k, j]) * dy[k]
                row.append(d)
            x.append(x_s)
            jac.append(row)
        jacobian = [[1.0] + [0.0] * (n - 1)] + [[0.0] + row for row in jac]
        g = model.entries(x)
        full = {}
        for (i, k), value in g.items():
            full[i, k] = full[k, i] = value
        pulled = {}
        for a in range(n):
            for b in range(a, n):
                total = 0.0
                for (i, k), value in full.items():
                    total = total + jacobian[i][a] * jacobian[k][b] * value
                pulled[a, b] = total
        return pulled

    def chart_map(y):
        dy = y[:, 1:] - centre[1:]
        spatial = centre[1:] + dy @ lin.T + np.einsum("sjk,pj,pk->ps", quad, dy, dy)
        jac = np.zeros((len(y), n, n))
        jac[:, 0, 0] = 1.0
        jac[:, 1:, 1:] = lin + np.einsum("sjk,pk->psj", quad + np.swapaxes(quad, 1, 2), dy)
        return np.column_stack([y[:, 0] + shift, spatial]), jac

    return dataclasses.replace(model, entries=entries), chart_map


def _transformed(field, variance, jac):
    """``field`` (one point) with each lower slot contracted with J and each
    upper one with J⁻¹."""
    jac_inv = np.linalg.inv(jac)
    for slot, kind in enumerate(variance):
        # T'_..a.. = T_..i.. J^i_a;  T'^..a.. = (J⁻¹)^a_i T^..i..
        factor = jac if kind == "d" else jac_inv.T
        field = np.moveaxis(np.tensordot(field, factor, axes=([slot], [0])), -1, slot)
    return field


def _y_points(model, shift, seed):
    lo, hi = np.array(model.bounds).T
    centre, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    rng = np.random.default_rng(seed)
    y = centre + SPREAD * half * rng.uniform(-1.0, 1.0, (POINTS, model.n))
    y[:, 0] -= shift
    return y


@pytest.mark.parametrize("chart", sorted(MAPS))
@pytest.mark.parametrize("spec", default_model_specs(), ids=lambda spec: f"{spec[0]}_n{spec[1]}")
def test_every_field_transforms_as_a_tensor(spec, chart):
    model = builtin_model(*spec)
    a_noise, q_noise, shift = MAPS[chart]
    seed = sorted(MAPS).index(chart) + 10 * model.n
    pulled, chart_map = _pulled_back(model, *_chart_map(model.n, a_noise, q_noise, seed), shift)
    y = _y_points(model, shift, seed)
    x, jac = chart_map(y)
    lo, hi = np.array(model.bounds).T
    assert np.all((lo < x) & (x < hi)), "φ(y) must stay inside the sampling box"
    # The map is genuinely non-diagonal: the pulled-back metric is too.
    moved, original = build_bundle(pulled, y), build_bundle(model, x)
    assert np.abs(moved.g[:, 1, 2]).min() > 1e-2
    largest = np.max([max_abs(getattr(moved, name), per_point=True) for name in FIELD_VARIANCE], axis=0)
    for name, variance in FIELD_VARIANCE.items():
        got, want = getattr(moved, name), getattr(original, name)
        if name == "nabla_weyl":
            got, want = expand_pairs(got), expand_pairs(want)
        for p in range(POINTS):
            expected = _transformed(want[p], variance, jac[p])
            bound = RTOL * max(1.0, max_abs(expected), largest[p])
            assert max_abs(got[p] - expected) <= bound, (name, p)
