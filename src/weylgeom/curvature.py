"""Curvature pipeline: metric jets -> connection -> curvature -> Weyl.

Everything is assembled analytically from the metric's Taylor data, so
first derivatives of the Weyl tensor (and hence its covariant derivative and
divergence) come out at machine precision.  Every field but ∇C, div C, ∇E
and div E depends on the metric's 2-jet only, so :func:`build_bundle` reads
third metric derivatives only when one of those four is asked for.

Conventions (validated by the identity suite during bring-up):

* signature (-, +, ..., +), chart time coordinate first;
* ``Γ_dbc = (∂_b g_dc + ∂_c g_db - ∂_d g_bc) / 2``, ``Γ^a_bc = g^ad Γ_dbc``;
* ``R^a_bcd = ∂_c Γ^a_db - ∂_d Γ^a_cb + Γ^a_ce Γ^e_db - Γ^a_de Γ^e_cb``, built
  covariant: ``R_abcd = ∂_c Γ_adb - ∂_d Γ_acb + Γ_ead Γ^e_cb - Γ_eac Γ^e_db``,
  whose ∂ needs ∂³g, Γ and ∂Γ only;
* ``R_bd = g^ac R_abcd = R^a_bad``, ``R = g^bd R_bd`` (unit two-sphere blocks
  come out with ``R_θφθφ = sin²θ > 0``);
* Weyl: ``C_jklm = R_jklm - (g_jl R_km - g_jm R_kl + g_km R_jl - g_kl R_jm)/(n-2)
  + R (g_jl g_km - g_jm g_kl)/((n-1)(n-2))`` for n >= 4; :func:`weyl` forms it
  as ``R + g ∧ S``, S the Schouten tensor, with :func:`.tensors.kulkarni_nomizu`.

No ∂Riemann array is formed.  Riemann is the (c, d) exchange
``R_abcd = (B_abcd - B_abdc) / 2`` of a tensor B that one matrix product
gives (see :func:`riemann_ricci_scalar`); :func:`weyl` adds the metric terms
to ∂B in ∂B's own layout and takes one exchange to reach ∂C.

The comoving velocity, its covariant derivative, the expansion-type scalar
``hubble_rate = (∇_k u^k)/(n-1)``, the electric part of the Weyl tensor and
the traceless "Weyl remainder" tensor (Weyl minus its electric-part
reconstruction) are bundled alongside, since the identity suite consumes all
of them at every sampled point.

Every kernel works on arrays with leading point axes (written ``...`` in the
index notation below), so one call evaluates a whole chunk of points; see
:class:`CurvatureBundle` for the layout.

Contraction layout: every sum over an index is a matrix product (``@``) on
reshaped views, with the summed index as the inner dimension and the other
slots flattened into rows or columns.  The point axes and the derivative
slots (p, q) are batch axes of ``@``, or join the rows when they belong to
the factor that is not broadcast.  Index permutations and outer products,
which sum nothing, stay ``np.einsum`` views and broadcasts.  A product that
fills an n**5 array writes it in the layout that the next elementwise step
reads, so most such steps run over contiguous memory; the (c, d) exchanges
and the permuted views of ∂³g cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Collection, Iterator, Sequence

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
    "electric_reconstruction",
    "build_bundle",
]

@dataclass(frozen=True, eq=False)
class Connection:
    """Inverse metric and Christoffel symbols of both kinds, with first
    coordinate derivatives.

    ``gamma[..., a, b, c] = Γ^a_bc`` and ``gamma_low[..., d, b, c] = Γ_dbc =
    g_da Γ^a_bc`` (both exactly symmetric in b, c); ``d_gamma[..., p, a, b, c]
    = ∂_p Γ^a_bc`` and ``d_gamma_low[..., p, d, b, c] = ∂_p Γ_dbc``.
    """

    g_inv: np.ndarray
    d_g_inv: np.ndarray
    gamma: np.ndarray
    d_gamma: np.ndarray
    gamma_low: np.ndarray
    d_gamma_low: np.ndarray


@dataclass(frozen=True, eq=False)
class Curvature:
    """Covariant Riemann tensor, Ricci tensor and scalar, with ∂ data
    (derivative index first after the point axes; ``None`` without ∂³g).

    The ∂ data of Riemann is ∂B, not ∂Riemann: ``d_b[..., p, b, c, a, d] =
    ∂_p B_abcd``, in the layout of its matrix product, where ``R_abcd =
    (B_abcd - B_abdc) / 2`` (see :func:`riemann_ricci_scalar`).  B is not
    antisymmetric in (a, b).
    """

    riemann: np.ndarray
    d_b: np.ndarray | None
    ricci: np.ndarray
    d_ricci: np.ndarray | None
    scalar: np.ndarray
    d_scalar: np.ndarray | None


@dataclass(frozen=True, eq=False)
class WeylData:
    """Covariant Weyl tensor and its coordinate derivatives (``None``
    without ∂B)."""

    weyl: np.ndarray
    d_weyl: np.ndarray | None


def christoffel_from_jets(mj: MetricJets) -> Connection:
    """Christoffel symbols of both kinds with their first coordinate derivatives."""
    try:
        g_inv = np.linalg.inv(mj.value)
    except np.linalg.LinAlgError:
        raise ValueError("singular metric") from None
    dg, d2g = mj.d1, mj.d2

    # ∂_p g⁻¹ = -g⁻¹ ∂_p g g⁻¹: matrix products over the (a, b) slots,
    # broadcast over p.
    gi1 = g_inv[..., None, :, :]
    d_g_inv = -(gi1 @ (dg @ gi1))

    # First kind: Γ_dbc = (∂_b g_dc + ∂_c g_db - ∂_d g_bc) / 2, and its ∂_p.
    gamma_low = np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg
    gamma_low *= 0.5
    d_gamma_low = np.einsum("...pbdc->...pdbc", d2g) + np.einsum("...pcdb->...pdbc", d2g) - d2g
    d_gamma_low *= 0.5

    # Second kind: Γ = g⁻¹ Γ_low and its ∂_p by the product rule, each term one
    # matrix product over d: (b, c) flatten into the columns, p either joins
    # the rows of ∂g⁻¹ or stays a batch axis.
    lead, n = g_inv.shape[:-2], mj.n
    low_cols = gamma_low.reshape(lead + (n, n * n))
    gamma = (g_inv @ low_cols).reshape(gamma_low.shape)
    d_gamma = (d_g_inv.reshape(lead + (n * n, n)) @ low_cols).reshape(d_gamma_low.shape)
    d_gamma += (gi1 @ d_gamma_low.reshape(lead + (n, n, n * n))).reshape(d_gamma_low.shape)
    return Connection(g_inv, d_g_inv, gamma, d_gamma, gamma_low, d_gamma_low)


def _exchange_cd(b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(B_abcd - B_abdc) / 2``, C-ordered, from B held as ``b[..., b, c, a, d]``;
    written into ``out`` (a new array by default), which must not overlap ``b``."""
    out = np.subtract(np.einsum("...bcad->...abcd", b), np.einsum("...bdac->...abcd", b), out=out)
    return np.multiply(out, 0.5, out=out)


def _trace_ac(b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g^ac (B_abcd - B_abdc) / 2`` as ``[..., b, d]`` from B held as
    ``b[..., b, c, a, d]``, for symmetric ``g[..., a, c]`` broadcasting
    against b's leading axes.  Each term sums two adjacent slots of ``b``."""
    n = b.shape[-1]
    first = g.reshape(g.shape[:-2] + (1, 1, n * n)) @ b.reshape(b.shape[:-4] + (n, n * n, n))
    second = b.reshape(b.shape[:-4] + (n * n, n * n)) @ g.reshape(g.shape[:-2] + (n * n, 1))
    return 0.5 * (first[..., 0, :] - second.reshape(second.shape[:-2] + (n, n)))


def riemann_ricci_scalar(mj: MetricJets, conn: Connection) -> Curvature:
    """Covariant Riemann tensor, Ricci tensor, curvature scalar and, when
    ``mj`` holds ∂³g, their ∂'s."""
    lead, n = conn.gamma.shape[:-3], mj.n
    third = mj.d3 is not None
    # R_abcd = A_abcd - A_abdc with A_abcd = ∂_c Γ_adb + Γ^e_bc Γ_ead.  Less
    # its term g_ab,cd / 2, which is symmetric in (c, d), 2A is B_abcd =
    # g_ad,bc - g_bd,ac + 2 Γ^e_bc Γ_ead, and R_abcd = (B_abcd - B_abdc) / 2.
    # B is held as B[b, c, a, d]: its product is one matrix product over e
    # with rows (b, c) and columns (a, d), and its ∂²g part is the jet itself
    # less a view.  ∂_p B follows by the product rule, with ∂³g in place of
    # ∂²g: one matrix product over (e, e') of [∂_p Γ^e_bc, Γ^e'_bc] and
    # [2 Γ_ead; 2 ∂_p Γ_e'ad], with p a batch axis.
    # Without ∂³g the ∂ half is skipped.  With it, value and ∂ steps
    # interleave in one fixed order: the order of the large allocations moves
    # the peak memory of a verify.
    rows = np.swapaxes(conn.gamma.reshape(lead + (n, n * n)), -1, -2)
    cols = 2.0 * conn.gamma_low.reshape(lead + (n, n * n))
    if third:
        d_rows = np.swapaxes(conn.d_gamma.reshape(lead + (n, n, n * n)), -1, -2)
        d_cols = 2.0 * conn.d_gamma_low.reshape(lead + (n, n, n * n))
    b = (rows @ cols).reshape(lead + (n,) * 4)
    held = [(b, mj.d2)]
    if third:
        d_b = (
            np.concatenate((d_rows, np.broadcast_to(rows[..., None, :, :], d_rows.shape)), axis=-1)
            @ np.concatenate((np.broadcast_to(cols[..., None, :, :], d_cols.shape), d_cols), axis=-2)
        ).reshape(lead + (n,) * 5)
        held.append((d_b, mj.d3))
    for array, jet in held:
        array += jet
        array -= np.einsum("...cabd->...bcad", jet)
    # Ricci R_bd = g^ac R_abcd, taken from B; its ∂_p by the product rule.
    g_inv, d_g_inv = conn.g_inv, conn.d_g_inv
    ricci = _trace_ac(b, g_inv)
    if third:
        d_ricci = _trace_ac(d_b, g_inv[..., None, :, :])
        d_ricci += _trace_ac(b[..., None, :, :, :, :], d_g_inv)
    ricci_col = ricci.reshape(lead + (n * n, 1))
    g_inv_col = g_inv.reshape(lead + (n * n, 1))
    scalar = (np.swapaxes(g_inv_col, -1, -2) @ ricci_col)[..., 0, 0]
    if not third:
        return Curvature(_exchange_cd(b), None, ricci, None, scalar, None)
    d_scalar = (
        d_g_inv.reshape(lead + (n, n * n)) @ ricci_col
        + d_ricci.reshape(lead + (n, n * n)) @ g_inv_col
    )[..., 0]
    return Curvature(_exchange_cd(b), d_b, ricci, d_ricci, scalar, d_scalar)


def weyl(mj: MetricJets, curv: Curvature) -> WeylData:
    """Totally traceless part of the Riemann tensor, with its coordinate ∂'s
    when ``curv`` holds ∂B.  Neither input array is written."""
    n = mj.n
    if n < 4:
        raise ValueError("Weyl undefined for n < 4")
    g, dg = mj.value, mj.d1
    # C = R + g ∧ S, with S the Schouten tensor (R_km - R g_km / (2(n-1))) / (n-2)
    # and ∧ the Kulkarni-Nomizu product of tensors.kulkarni_nomizu: the module
    # docstring's formula with its two metric terms folded into one.  Without
    # ∂B the ∂ half is skipped.  With it, value and ∂ steps interleave in one
    # fixed order, as in riemann_ricci_scalar.
    third = curv.d_b is not None
    c = 0.5 / (n - 1)
    scalar = curv.scalar[..., None, None]
    schouten = (curv.ricci - c * scalar * g) / (n - 2)
    if third:
        d_scalar = curv.d_scalar[..., None, None]
        d_schouten = curv.d_ricci - c * (d_scalar * g[..., None, :, :] + scalar[..., None] * dg)
        d_schouten /= n - 2

    # kulkarni_nomizu returns a new array, so R is added in place.
    weyl_c = kulkarni_nomizu(g, schouten)
    weyl_c += curv.riemann
    if not third:
        return WeylData(weyl_c, None)
    # ∂C is formed from ∂B, not from ∂Riemann.  W_abcd = ∂B_abcd
    # + 2 ∂(g_bc S_ad - g_ac S_bd), held as ∂B is, has (W_abcd - W_abdc) / 2
    # = ∂R_abcd - ∂(g ∧ S)_abcd = ∂C_abcd: one exchange, as for Riemann.
    # Each metric term is one matrix product over its two product-rule terms
    # [∂_p g, g] and [2 S; 2 ∂_p S], written in ∂B's layout [..., p, b, c, a, d]
    # so that W is summed with every operand contiguous: 2 ∂_p(g_bc S_ad) with
    # rows (b, c) and columns (a, d), 2 ∂_p(g_ac S_bd) batched over b with
    # rows (c, a) and columns d.  The exchange goes into the products' buffer.
    # W, dropped on return, is allocated before that buffer, which is
    # returned: the other order cost about 4k more minor faults and 4-6%
    # more time per default verify (where glibc places the arrays).
    lead, nn = g.shape[:-2], n * n
    rows = np.stack((dg.reshape(lead + (n, nn)), np.broadcast_to(g.reshape(lead + (1, nn)), lead + (n, nn))), axis=-1)
    cols = 2.0 * np.stack((np.broadcast_to(schouten.reshape(lead + (1, nn)), lead + (n, nn)), d_schouten.reshape(lead + (n, nn))), axis=-2)
    w = np.empty(curv.d_b.shape)
    term = np.matmul(rows, cols).reshape(w.shape)
    np.add(curv.d_b, term, out=w)
    by_b = cols.reshape(lead + (n, 2, n, n)).swapaxes(-3, -2)
    np.matmul(rows[..., None, :, :], by_b, out=term.reshape(lead + (n, n, nn, n)))
    w -= term
    return WeylData(weyl_c, _exchange_cd(w, out=term))


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
    if d1 is None:
        raise ValueError("missing coordinate-derivative data for covariant derivative")
    comp = np.asarray(components, dtype=float)
    d1 = np.asarray(d1, dtype=float)
    if not variance:
        return d1.copy()
    lead, n = gamma.shape[:-3], gamma.shape[-1]
    rank = len(variance)
    # For each p, Γ as a matrix [a, z] that contracts the slot: Γ^z_pa for a
    # down slot, Γ^a_pz for an up slot.
    down, up = np.moveaxis(gamma, -3, -1), np.swapaxes(gamma, -3, -2)
    # Each slot's Γ-term is built in one scratch buffer in the layout of the
    # result, [..., p, pre, a, post] with pre and post the slots before and
    # after it, so every combine is contiguous; the first is combined with d1
    # into the result, the others in place.  The term is the matrix product
    # [a, z] @ [z, post], batched over (p, pre); for the last slot it is taken
    # transposed, [pre, z] @ [z, a], batched over p only.
    term = np.empty(lead + (n,) * (rank + 1))
    nabla = np.empty_like(d1)
    for slot, flag in enumerate(variance):
        pre, post = n**slot, n ** (rank - 1 - slot)
        matrix = down if flag == DOWN else up
        if post == 1:
            np.matmul(comp.reshape(lead + (1, pre, n)), np.swapaxes(matrix, -1, -2), out=term.reshape(lead + (n, pre, n)))
        else:
            out = term.reshape(lead + (n, pre, n, post))
            np.matmul(matrix[..., :, None, :, :], comp.reshape(lead + (1, pre, n, post)), out=out)
        (np.subtract if flag == DOWN else np.add)(nabla if slot else d1, term, out=nabla)
    return nabla


def electric_reconstruction(g: np.ndarray, u_down: np.ndarray, electric: np.ndarray, n: int) -> np.ndarray:
    """The electric-part reconstruction ``h ∧ E`` of the Weyl tensor, with
    ``h = (n-2)/(n-3) u⊗u + 1/(n-3) g``: by bilinearity of the
    Kulkarni-Nomizu product, the paper's ``(n-2)/(n-3) (u⊗u) ∧ E
    + 1/(n-3) g ∧ E`` in one product.  The Weyl remainder is ``C - h ∧ E``,
    a totally traceless generalized curvature tensor annihilated by u; it
    vanishes identically in n = 4, where ``h = 2 u⊗u + g``."""
    h = (n - 2.0) / (n - 3.0) * (u_down[..., :, None] * u_down[..., None, :]) + g / (n - 3.0)
    return kulkarni_nomizu(h, electric)


@dataclass(frozen=True, eq=False)
class CurvatureBundle:
    """Every curvature quantity the identity suite needs, at a chunk of points.

    Layout: every field except ``n`` is a plain ``float64`` array (or
    ``None`` when :func:`build_bundle` did not need it) whose first axis is
    the point axis, of length P (the chunk size); row ``k`` belongs to the
    chart point ``points[k]``.  The remaining axes are tensor slots in the
    order of the field's name, covariant or contravariant as listed in
    :data:`FIELD_VARIANCE`; scalar fields have shape ``(P,)``.  Derivatives
    put the derivative index first after the point axis: the coordinate
    derivative ``d_hubble_rate[k, p] = ∂_p φ``, and the new covariant slot of
    ``nabla_weyl[k, p, j, l, m, s] = ∇_p C_jlms``.

    Chunks: the command-line runner builds a model's bundles a chunk of
    points at a time, with ``P = max(1, CHUNK_ELEMENTS // n**5)`` (see
    :mod:`weylgeom.cli`), since the largest field (``nabla_weyl``) and the
    largest intermediates hold n**5 entries per point.  Each bundle is
    measured by the identity suite and dropped once the next one is built,
    so a run holds at most two at once, whatever its sample size.  A
    single-point evaluation is a chunk of one.
    """

    points: np.ndarray
    n: int
    g: np.ndarray
    g_inv: np.ndarray
    christoffel: np.ndarray
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


_FIELDS = tuple(f.name for f in fields(CurvatureBundle))

# The fields that need the metric's 3-jet: those of the derivative stage.
_THIRD_ORDER_FIELDS = frozenset({"nabla_weyl", "div_weyl", "nabla_electric", "div_electric"})


def _stages(model: MetricModel, coords: np.ndarray, order: int) -> Iterator[dict]:
    """The bundle's fields at points of shape (P, n), one stage at a time in
    dependency order: the jets and connection (with u, φ, ξ and v), the
    Riemann tensor and its traces, the Weyl tensor with E, the Weyl
    remainder, then the covariant derivatives.  The metric jets have the
    given order; at order 2 no ∂ data is formed past ∂Γ, so the derivative
    stage needs order 3.  Kernel data the next stage needs (∂Γ, ∂B, ∂C, ...)
    stays in this generator's frame."""
    n = model.n
    mj = model.metric_jets(coords, order=order)
    conn = christoffel_from_jets(mj)
    gamma = conn.gamma

    u = model.u_up
    u_up = np.broadcast_to(u, coords.shape)
    u_down = mj.value @ u
    nabla_u_down = covariant_derivative((DOWN,), u_down, mj.d1 @ u, gamma)
    nabla_u_up = covariant_derivative((UP,), u_up, np.zeros(coords.shape + (n,)), gamma)

    hubble = np.trace(nabla_u_up, axis1=-2, axis2=-1) / (n - 1)
    d_hubble = np.trace(conn.d_gamma, axis1=-3, axis2=-2) @ u / (n - 1)
    proj = conn.g_inv + np.multiply.outer(u, u)
    yield dict(
        points=coords,
        n=n,
        g=mj.value,
        g_inv=conn.g_inv,
        christoffel=gamma,
        u_down=u_down,
        u_up=u_up,
        nabla_u_down=nabla_u_down,
        nabla_u_up=nabla_u_up,
        hubble_rate=hubble,
        d_hubble_rate=d_hubble,
        raychaudhuri_scalar=(n - 1) * (d_hubble @ u + hubble * hubble),
        hubble_gradient_up=(proj @ d_hubble[..., None])[..., 0],
    )

    curv = riemann_ricci_scalar(mj, conn)
    mj = replace(mj, d2=None, d3=None)  # ∂²g and ∂³g are not needed again
    yield dict(riemann=curv.riemann, ricci=curv.ricci, scalar_curvature=curv.scalar)

    wd = weyl(mj, curv)
    del curv  # ∂B is not needed again
    # E_kl = u^j C_jklm u^m: u contracted into the last slot, then the first.
    lead = coords.shape[:1]
    electric = u @ (wd.weyl.reshape(lead + (n**3, n)) @ u).reshape(lead + (n, n * n))
    electric = electric.reshape(lead + (n, n))
    yield dict(weyl=wd.weyl, electric=electric)

    yield dict(weyl_remainder=wd.weyl - electric_reconstruction(mj.value, u_down, electric, n))

    d_electric = u @ (wd.d_weyl.reshape(lead + (n**4, n)) @ u).reshape(lead + (n, n, n * n))
    d_electric = d_electric.reshape(lead + (n,) * 3)
    nabla_electric = covariant_derivative((DOWN, DOWN), electric, d_electric, gamma)
    # Divergences g^ps ∇_p T_...s: for each p, T's last slot times row p of g⁻¹,
    # then the sum over p.
    g_inv_rows = conn.g_inv[..., None]
    div_electric = (nabla_electric @ g_inv_rows).sum(axis=-3)[..., 0]

    nabla_weyl = covariant_derivative((DOWN,) * 4, wd.weyl, wd.d_weyl, gamma)
    div_weyl = (nabla_weyl.reshape(lead + (n, n**3, n)) @ g_inv_rows).sum(axis=-3)
    yield dict(
        nabla_weyl=nabla_weyl,
        div_weyl=div_weyl.reshape(lead + (n,) * 3),
        nabla_electric=nabla_electric,
        div_electric=div_electric,
    )


def build_bundle(
    model: MetricModel, points: ChartPoint, fields: Collection[str] = _FIELDS
) -> CurvatureBundle:
    """Assemble the curvature bundle of a model at points of shape (P, n).

    Only the stages up to the last one that ``fields`` (default: every
    field) depends on are run (see :func:`_stages`); the fields of later
    stages are ``None``.  The metric jets are of order 3 when ``fields``
    names ∇C, div C, ∇E or div E, and of order 2 otherwise, so no ∂B or ∂C
    is formed for the others.  Raises ``ValueError`` for an unknown field
    name, and if any point fails a check in the stages run (non-finite
    coordinates or components of any field built or of the metric jets
    read, non-Lorentzian or singular metric, jet domain errors, an
    asymmetric Kulkarni-Nomizu factor); callers that must skip single
    points re-run a failed chunk one point at a time.
    """
    coords = np.asarray(points, dtype=float)
    if coords.ndim != 2:
        raise ValueError(f"points must have shape (P, {model.n}), got shape {coords.shape}")
    wanted = set(fields)
    unknown = wanted.difference(_FIELDS)
    if unknown:
        raise ValueError(f"unknown bundle fields: {sorted(unknown)}")
    built: dict = {}
    for stage in _stages(model, coords, 3 if wanted & _THIRD_ORDER_FIELDS else 2):
        built.update(stage)
        if wanted <= built.keys():
            break
    for name in _FIELDS:
        if isinstance(built.get(name), np.ndarray) and not np.isfinite(built[name]).all():
            raise ValueError(f"non-finite tensor components in {name}")
    return CurvatureBundle(**{name: built.get(name) for name in _FIELDS})
