"""Curvature pipeline: metric jets -> connection -> curvature -> Weyl.

Everything is assembled analytically from the metric's third-order Taylor
data, so first derivatives of the Weyl tensor (and hence its covariant
derivative and divergence) come out at machine precision.

Conventions (validated by the identity suite during bring-up):

* signature (-, +, ..., +), chart time coordinate first;
* ``Γ^a_bc = (1/2) g^ad (∂_b g_dc + ∂_c g_db - ∂_d g_bc)``;
* ``R^a_bcd = ∂_c Γ^a_db - ∂_d Γ^a_cb + Γ^a_ce Γ^e_db - Γ^a_de Γ^e_cb``;
* ``R_bd = R^a_bad``, ``R = g^bd R_bd`` (unit two-sphere blocks come out with
  ``R_θφθφ = sin²θ > 0``);
* Weyl: ``C_jklm = R_jklm - (g_jl R_km - g_jm R_kl + g_km R_jl - g_kl R_jm)/(n-2)
  + R (g_jl g_km - g_jm g_kl)/((n-1)(n-2))`` for n >= 4.

The comoving velocity, its covariant derivative, the expansion-type scalar
``hubble_rate = (∇_k u^k)/(n-1)``, the electric part of the Weyl tensor and
the traceless "Weyl remainder" tensor (Weyl minus its electric-part
reconstruction) are bundled alongside, since the identity suite consumes all
of them at every sampled point.

Every kernel works on arrays with leading point axes (written ``...`` in the
index notation below), so one call evaluates a whole chunk of points; see
:class:`CurvatureBundle` for the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .models import ChartPoint, MetricJets, MetricModel
from .tensors import DOWN, UP, kulkarni_nomizu

__all__ = [
    "Connection",
    "Curvature",
    "WeylData",
    "CurvatureBundle",
    "FIELD_VARIANCE",
    "christoffel_from_jets",
    "riemann_ricci_scalar",
    "weyl",
    "covariant_derivative",
    "weyl_remainder_tensor",
    "build_bundle",
]

_LETTERS = "abcde"


@dataclass(frozen=True, eq=False)
class Connection:
    """Inverse metric and Christoffel symbols with coordinate derivatives.

    ``gamma[..., a, b, c] = Γ^a_bc`` (exactly symmetric in b, c),
    ``d_gamma[..., p, a, b, c] = ∂_p Γ``, ``d2_gamma[..., p, q, a, b, c] = ∂_p ∂_q Γ``.
    """

    g_inv: np.ndarray
    d_g_inv: np.ndarray
    d2_g_inv: np.ndarray
    gamma: np.ndarray
    d_gamma: np.ndarray
    d2_gamma: np.ndarray


@dataclass(frozen=True, eq=False)
class Curvature:
    """Covariant Riemann tensor, Ricci tensor and scalar, with ∂ data
    (derivative index first after the point axes)."""

    riemann: np.ndarray
    d_riemann: np.ndarray
    ricci: np.ndarray
    d_ricci: np.ndarray
    scalar: np.ndarray
    d_scalar: np.ndarray


@dataclass(frozen=True, eq=False)
class WeylData:
    """Covariant Weyl tensor and its coordinate derivatives."""

    weyl: np.ndarray
    d_weyl: np.ndarray


def christoffel_from_jets(mj: MetricJets) -> Connection:
    """Christoffel symbols with first and second coordinate derivatives."""
    try:
        g_inv = np.linalg.inv(mj.value)
    except np.linalg.LinAlgError:
        raise ValueError("singular metric") from None
    dg, d2g, d3g = mj.d1, mj.d2, mj.d3

    # Matrix products over the (a, b) slots, broadcast over derivative slots:
    # ∂_p g⁻¹ = -g⁻¹ ∂_p g g⁻¹ and
    # ∂_p ∂_q g⁻¹ = -(∂_q g⁻¹ ∂_p g g⁻¹ + g⁻¹ ∂_p g ∂_q g⁻¹ + g⁻¹ ∂_p ∂_q g g⁻¹),
    # whose middle term is the transpose of the first.
    gi1 = g_inv[..., None, :, :]
    gi2 = g_inv[..., None, None, :, :]
    dg_gi = dg @ gi1
    d_g_inv = -(gi1 @ dg_gi)
    cross = d_g_inv[..., None, :, :, :] @ dg_gi[..., :, None, :, :]
    d2_g_inv = -(cross + np.swapaxes(cross, -1, -2) + gi2 @ d2g @ gi2)

    k = np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg
    dk = np.einsum("...pbdc->...pdbc", d2g) + np.einsum("...pcdb->...pdbc", d2g) - d2g
    d2k = np.einsum("...pqbdc->...pqdbc", d3g) + np.einsum("...pqcdb->...pqdbc", d3g) - d3g

    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", g_inv, k)
    d_gamma = 0.5 * (
        np.einsum("...pad,...dbc->...pabc", d_g_inv, k)
        + np.einsum("...ad,...pdbc->...pabc", g_inv, dk)
    )
    # ∂_p g⁻¹ ∂_q k + ∂_q g⁻¹ ∂_p k is one product plus its (p, q) exchange.
    # The sum accumulates in place, like the other n**5-per-point sums, to
    # bound the temporaries a chunk holds.
    mixed = np.einsum("...pad,...qdbc->...pqabc", d_g_inv, dk)
    d2_gamma = np.einsum("...pqad,...dbc->...pqabc", d2_g_inv, k)
    d2_gamma += mixed
    d2_gamma += mixed.swapaxes(-5, -4)
    del mixed
    d2_gamma += np.einsum("...ad,...pqdbc->...pqabc", g_inv, d2k)
    d2_gamma *= 0.5
    return Connection(g_inv, d_g_inv, d2_g_inv, gamma, d_gamma, d2_gamma)


def riemann_ricci_scalar(mj: MetricJets, conn: Connection) -> Curvature:
    """Covariant Riemann tensor, Ricci tensor, curvature scalar and their ∂'s."""
    gamma, d_gamma, d2_gamma = conn.gamma, conn.d_gamma, conn.d2_gamma
    r_up = (
        np.einsum("...cadb->...abcd", d_gamma)
        - np.einsum("...dacb->...abcd", d_gamma)
        + np.einsum("...ace,...edb->...abcd", gamma, gamma)
        - np.einsum("...ade,...ecb->...abcd", gamma, gamma)
    )
    # Sums of n**5-per-point terms accumulate in place, so a chunk holds one
    # temporary of that size at a time.
    d_r_up = np.einsum("...pcadb->...pabcd", d2_gamma) - np.einsum("...pdacb->...pabcd", d2_gamma)
    d_r_up += np.einsum("...pace,...edb->...pabcd", d_gamma, gamma)
    d_r_up += np.einsum("...ace,...pedb->...pabcd", gamma, d_gamma)
    d_r_up -= np.einsum("...pade,...ecb->...pabcd", d_gamma, gamma)
    d_r_up -= np.einsum("...ade,...pecb->...pabcd", gamma, d_gamma)
    riemann = np.einsum("...ae,...ebcd->...abcd", mj.value, r_up)
    d_riemann = np.einsum("...pae,...ebcd->...pabcd", mj.d1, r_up)
    d_riemann += np.einsum("...ae,...pebcd->...pabcd", mj.value, d_r_up)
    ricci = np.einsum("...abad->...bd", r_up)
    d_ricci = np.einsum("...pabad->...pbd", d_r_up)
    scalar = np.einsum("...bd,...bd->...", conn.g_inv, ricci)
    d_scalar = np.einsum("...pbd,...bd->...p", conn.d_g_inv, ricci) + np.einsum(
        "...bd,...pbd->...p", conn.g_inv, d_ricci
    )
    return Curvature(riemann, d_riemann, ricci, d_ricci, scalar, d_scalar)


def weyl(mj: MetricJets, curv: Curvature) -> WeylData:
    """Totally traceless part of the Riemann tensor, with coordinate ∂'s."""
    n = mj.n
    if n < 4:
        raise ValueError("Weyl undefined for n < 4")
    g, dg = mj.value, mj.d1
    ric, d_ric = curv.ricci, curv.d_ricci

    # s_jklm = g_jl R_km - g_jm R_kl + g_km R_jl - g_kl R_jm and
    # w2_jklm = g_jl g_km - g_jm g_kl are a product A_jklm = a_jl b_km with
    # l, m and then j, k exchanged; so are their derivatives (slot p first).
    def exchange_lm(a):
        return a - a.swapaxes(-1, -2)

    def exchange_lm_jk(a):
        b = exchange_lm(a)
        return b - b.swapaxes(-4, -3)

    s = exchange_lm_jk(np.einsum("...jl,...km->...jklm", g, ric))
    d_s = np.einsum("...pjl,...km->...pjklm", dg, ric)
    d_s += np.einsum("...jl,...pkm->...pjklm", g, d_ric)
    d_s = exchange_lm_jk(d_s)
    w2 = exchange_lm(np.einsum("...jl,...km->...jklm", g, g))
    d_w2 = np.einsum("...pjl,...km->...pjklm", dg, g)
    d_w2 += np.einsum("...jl,...pkm->...pjklm", g, dg)
    d_w2 = exchange_lm(d_w2)
    c1 = 1.0 / (n - 2)
    c2 = 1.0 / ((n - 1) * (n - 2))
    scalar = curv.scalar[..., None, None, None, None]
    weyl_c = curv.riemann - c1 * s + c2 * scalar * w2
    # d_weyl = ∂Riemann - c1 ∂s + c2 (∂R w2 + R ∂w2), accumulated in place.
    d_s *= c1
    d_weyl_c = curv.d_riemann - d_s
    del d_s
    d_w2 *= scalar[..., None]
    scalar_term = np.einsum("...p,...jklm->...pjklm", curv.d_scalar, w2)
    scalar_term += d_w2
    scalar_term *= c2
    d_weyl_c += scalar_term
    return WeylData(weyl_c, d_weyl_c)


def covariant_derivative(
    variance: Sequence[str], components: np.ndarray, d1: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """One covariant derivative of a tensor with the given slot ``variance``;
    the new slot (first after the point axes) is covariant.

    ``d1`` holds the coordinate derivatives of ``components`` with the
    derivative index first after the point axes: ``d1[..., p, ...] = ∂_p T``.
    Signs follow variance: ``+Γ`` corrections for up slots, ``-Γ`` for down
    slots.
    """
    rank = len(variance)
    if d1 is None:
        raise ValueError("missing coordinate-derivative data for covariant derivative")
    if rank > len(_LETTERS):
        raise ValueError("rank too large for covariant derivative")
    comp = np.asarray(components, dtype=float)
    nabla = np.array(d1, dtype=float)
    idx = _LETTERS[:rank]
    for slot, flag in enumerate(variance):
        src = idx[:slot] + "z" + idx[slot + 1 :]
        if flag == DOWN:
            nabla -= np.einsum(f"...zp{idx[slot]},...{src}->...p{idx}", gamma, comp)
        else:
            nabla += np.einsum(f"...{idx[slot]}pz,...{src}->...p{idx}", gamma, comp)
    return nabla


def weyl_remainder_tensor(
    g: np.ndarray, u_down: np.ndarray, weyl_c: np.ndarray, electric: np.ndarray, n: int
) -> np.ndarray:
    """Weyl tensor minus its electric-part reconstruction.

    Subtracts the Kulkarni-Nomizu products of the electric tensor with
    ``u⊗u`` (weight (n-2)/(n-3)) and with the metric (weight 1/(n-3)) from
    the Weyl tensor.  The result is a totally traceless generalized curvature
    tensor annihilated by u; it vanishes identically in n = 4.
    """
    uu = u_down[..., :, None] * u_down[..., None, :]
    return (
        weyl_c
        - ((n - 2.0) / (n - 3.0)) * kulkarni_nomizu(uu, electric)
        - (1.0 / (n - 3.0)) * kulkarni_nomizu(g, electric)
    )


@dataclass(frozen=True, eq=False)
class CurvatureBundle:
    """Every curvature quantity the identity suite needs, at a chunk of points.

    Layout: every field except ``n`` is a plain ``float64`` array whose first
    axis is the point axis, of length P (the chunk size); row ``k`` belongs
    to the chart point ``points[k]``.  The remaining axes are tensor slots in
    the order of the field's name, covariant or contravariant as listed in
    :data:`FIELD_VARIANCE`; scalar fields have shape ``(P,)``.  Coordinate
    derivatives put the derivative index first after the point axis
    (``d_christoffel[k, p, a, b, c] = ∂_p Γ^a_bc``), and covariant
    derivatives put the new covariant slot there
    (``nabla_weyl[k, p, j, l, m, s] = ∇_p C_jlms``).

    Chunks: the command-line runner builds a model's bundles a chunk of
    points at a time, with ``P = max(1, CHUNK_ELEMENTS // n**5)`` (see
    :mod:`weylgeom.cli`), since the largest field (``nabla_weyl``) and the
    largest intermediates hold n**5 entries per point.  A single-point
    evaluation is a chunk of one.
    """

    points: np.ndarray
    n: int
    g: np.ndarray
    g_inv: np.ndarray
    christoffel: np.ndarray
    d_christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar_curvature: np.ndarray
    weyl: np.ndarray
    nabla_weyl: np.ndarray
    div_weyl: np.ndarray
    u_down: np.ndarray
    u_up: np.ndarray
    nabla_u_down: np.ndarray
    nabla_u_up: np.ndarray
    hubble_rate: np.ndarray
    d_hubble_rate: np.ndarray
    electric: np.ndarray
    nabla_electric: np.ndarray
    div_electric: np.ndarray
    weyl_remainder: np.ndarray
    raychaudhuri_scalar: np.ndarray
    hubble_gradient_up: np.ndarray


# Slot variance of each tensor-valued bundle field ("u" up, "d" down), after
# the point axis.  Fields absent here (Christoffel symbols, coordinate
# derivatives, the point coordinates) are not tensors; scalars have "".
FIELD_VARIANCE = {
    "g": "dd",
    "g_inv": "uu",
    "riemann": "dddd",
    "ricci": "dd",
    "scalar_curvature": "",
    "weyl": "dddd",
    "nabla_weyl": "ddddd",
    "div_weyl": "ddd",
    "u_down": "d",
    "u_up": "u",
    "nabla_u_down": "dd",
    "nabla_u_up": "du",
    "hubble_rate": "",
    "electric": "dd",
    "nabla_electric": "ddd",
    "div_electric": "d",
    "weyl_remainder": "dddd",
    "raychaudhuri_scalar": "",
    "hubble_gradient_up": "u",
}


def build_bundle(model: MetricModel, points: ChartPoint) -> CurvatureBundle:
    """Assemble the full curvature bundle of a model at points of shape (P, n).

    Raises ``ValueError`` if any point fails a check (non-finite coordinates
    or components, non-Lorentzian or singular metric, jet domain errors, an
    asymmetric Kulkarni-Nomizu factor); callers that must skip single points
    re-run a failed chunk one point at a time.
    """
    coords = np.asarray(points, dtype=float)
    n = model.n
    if coords.ndim != 2:
        raise ValueError(f"points must have shape (P, {n}), got shape {coords.shape}")
    mj = model.metric_jets(coords)
    conn = christoffel_from_jets(mj)
    curv = riemann_ricci_scalar(mj, conn)
    wd = weyl(mj, curv)
    gamma = conn.gamma

    u = model.u_up
    u_up = np.broadcast_to(u, coords.shape)
    u_down = mj.value @ u
    nabla_u_down = covariant_derivative((DOWN,), u_down, mj.d1 @ u, gamma)
    nabla_u_up = covariant_derivative((UP,), u_up, np.zeros(coords.shape + (n,)), gamma)

    hubble = np.trace(nabla_u_up, axis1=-2, axis2=-1) / (n - 1)
    d_hubble = np.einsum("...pkke,e->...p", conn.d_gamma, u) / (n - 1)

    electric = np.einsum("j,m,...jklm->...kl", u, u, wd.weyl)
    d_electric = np.einsum("j,m,...pjklm->...pkl", u, u, wd.d_weyl)
    nabla_electric = covariant_derivative((DOWN, DOWN), electric, d_electric, gamma)
    div_electric = np.einsum("...ps,...pis->...i", conn.g_inv, nabla_electric)

    nabla_weyl = covariant_derivative((DOWN,) * 4, wd.weyl, wd.d_weyl, gamma)
    div_weyl = np.einsum("...ps,...pikms->...ikm", conn.g_inv, nabla_weyl)

    remainder = weyl_remainder_tensor(mj.value, u_down, wd.weyl, electric, n)

    raychaudhuri = (n - 1) * (d_hubble @ u + hubble * hubble)
    proj = conn.g_inv + np.multiply.outer(u, u)
    hubble_grad_up = np.einsum("...ab,...b->...a", proj, d_hubble)

    bundle = CurvatureBundle(
        points=coords,
        n=n,
        g=mj.value,
        g_inv=conn.g_inv,
        christoffel=gamma,
        d_christoffel=conn.d_gamma,
        riemann=curv.riemann,
        ricci=curv.ricci,
        scalar_curvature=curv.scalar,
        weyl=wd.weyl,
        nabla_weyl=nabla_weyl,
        div_weyl=div_weyl,
        u_down=u_down,
        u_up=u_up,
        nabla_u_down=nabla_u_down,
        nabla_u_up=nabla_u_up,
        hubble_rate=hubble,
        d_hubble_rate=d_hubble,
        electric=electric,
        nabla_electric=nabla_electric,
        div_electric=div_electric,
        weyl_remainder=remainder,
        raychaudhuri_scalar=raychaudhuri,
        hubble_gradient_up=hubble_grad_up,
    )
    for f in fields(bundle):
        value = getattr(bundle, f.name)
        if isinstance(value, np.ndarray) and not np.isfinite(value).all():
            raise ValueError(f"non-finite tensor components in {f.name}")
    return bundle
