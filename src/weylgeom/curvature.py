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
to ∂B in ∂B's own buffer and gathers ∂C from that sum at the pairs c < d.

Pair layout: ∂C and ∇C are antisymmetric in their last slot pair, so they
are held only at its N = n(n-1)/2 pairs l < m, in the order of
``np.triu_indices(n, 1)``, as one last axis of length N (0.375 of the n**5
entries at n = 4).  :func:`covariant_derivative` treats such a pair as one
slot (the flag :data:`PAIR`), whose Γ-term is the connection induced on
2-forms; :func:`expand_pairs` writes the full (l, m) block back and
:func:`gather_pairs` reads a full block at its pairs.  R, C, h ∧ E and the
remainder keep their n**4 entries, since the suite reads them often and
cheaply; its recurrences gather them at the pairs once per chunk, and
:func:`kulkarni_nomizu_pairs` forms a Kulkarni-Nomizu product there.  ∂B
keeps n**5, since c and d sit on opposite sides of its matrix product.  The n**5 arrays of one build are ∂³g, ∂B (whose buffer then
holds W) and the buffer of :func:`weyl`'s metric-term products, and at most
two of them are alive at once.

The comoving velocity, its covariant derivative, the expansion-type scalar
``hubble_rate = (∇_k u^k)/(n-1)``, the electric part of the Weyl tensor, its
reconstruction h ∧ E (see :func:`electric_reconstruction`) and the
traceless "Weyl remainder" tensor (Weyl minus that reconstruction) are
bundled alongside, since the identity suite consumes all of them at every
sampled point.

Every kernel works on arrays with leading point axes (written ``...`` in the
index notation below), so one call evaluates a whole chunk of points; see
:class:`CurvatureBundle` for the layout.

Contraction layout: every sum over an index is a matrix product (``@``) on
reshaped views, with the summed index as the inner dimension and the other
slots flattened into rows or columns.  The point axes and the derivative
slots (p, q) are batch axes of ``@``, or join the rows when they belong to
the factor that is not broadcast.  Index permutations and outer products,
which sum nothing, stay ``np.einsum`` views and broadcasts.  A contraction
with the velocity u = ∂_t sums nothing either: it reads index 0 of the slot
(see :attr:`.models.MetricModel.u_up`).  A product that
fills an n**5 array writes it in the layout that the next elementwise step
reads, so most such steps run over contiguous memory; the (c, d) exchange
of Riemann and the permuted views of ∂³g cannot.  Pair-layout steps read
their entries through index tables built once per n, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cache
from typing import Collection, Iterator, NamedTuple, Sequence

import numpy as np

from .models import ChartPoint, MetricJets, MetricModel
from .tensors import DOWN, UP, check_symmetric_factors, kulkarni_nomizu

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
    "PAIR",
    "expand_pairs",
    "gather_pairs",
    "time_column",
    "kulkarni_nomizu_pairs",
    "reconstruction_factor",
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
    without ∂B), the latter in the pair layout: ``d_weyl[..., p, a, b, q] =
    ∂_p C_abcd`` at the q-th pair c < d."""

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


def _exchange_cd(b: np.ndarray) -> np.ndarray:
    """``(B_abcd - B_abdc) / 2``, a new C-ordered array, from B held as
    ``b[..., b, c, a, d]``."""
    out = np.einsum("...bcad->...abcd", b) - np.einsum("...bdac->...abcd", b)
    return np.multiply(out, 0.5, out=out)


# The flag of a covariant slot pair held at its pairs l < m (see the module
# docstring), in a variance passed to covariant_derivative.
PAIR = "p"


class _PairTables(NamedTuple):
    """Index tables of the pair layout for one n.  ``expand``, ``vector`` and
    ``connection`` index an axis laid out as :func:`_signed` lays it out, so
    one gather reads an entry, its negative or zero."""

    # [q]: the flat offset l n + m of the q-th pair l < m in an n×n block.
    pairs: np.ndarray
    # [l, m]: the pair (l, m) for l < m, its negative for l > m, zero for l = m.
    expand: np.ndarray
    # [(l, m), k]: v_m for k = l, -v_l for k = m, zero otherwise; reads
    # Σ_s T_..ls v^s off a vector v, as V[(l, s), k] summed over the pairs.
    vector: np.ndarray
    # [p, (l, m), (a, b)]: the matrix of the connection induced on 2-forms,
    # ∇_p ω_lm = ∂_p ω_lm - Σ_ab M_p[lm, ab] ω_ab with M_p[lm, ab] =
    # δ_bm Γ^a_pl - δ_am Γ^b_pl + δ_al Γ^b_pm - δ_bl Γ^a_pm, read off Γ^a_bc
    # flattened.  Off the diagonal at most one term is non-zero; on it the
    # table holds Γ^l_pl, and ``trace`` [p, (l, m)] locates Γ^m_pm.
    connection: np.ndarray
    trace: np.ndarray
    # [s, a, b, (c, d)]: flat offsets in an n**4 block held as [b, c, a, d] of
    # B_abcd (s = 0) and B_abdc (s = 1).
    exchange: np.ndarray


@cache
def _pair_tables(n: int) -> _PairTables:
    """The pair layout's index tables for dimension n, built on first use."""
    l, m = np.triu_indices(n, 1)
    count = len(l)
    expand = np.full((n, n), 2 * count)
    expand[l, m], expand[m, l] = np.arange(count), count + np.arange(count)
    vector = np.full((count, n), 2 * n)
    vector[np.arange(count), l], vector[np.arange(count), m] = m, n + l
    # Γ^a_bc sits at a n² + b n + c, and its negative n³ further on.
    nn, n3 = n * n, n**3
    single = np.full((count, count), -1)
    for row, (x, y) in enumerate(zip(l, m)):
        for col, (a, b) in enumerate(zip(l, m)):
            if b == y:
                single[row, col] = a * nn + x
            elif a == y:
                single[row, col] = n3 + b * nn + x
            elif a == x:
                single[row, col] = b * nn + y
            elif b == x:
                single[row, col] = n3 + a * nn + y
    p = n * np.arange(n)
    connection = np.where(single < 0, 2 * n3, single + p[:, None, None])
    trace = p[:, None] + (nn + 1) * m
    a, b = np.arange(n)[:, None, None], np.arange(n)[None, :, None]
    exchange = np.stack((b * n3 + l * nn + a * n + m, b * n3 + m * nn + a * n + l))
    tables = _PairTables(l * n + m, expand, vector, connection, trace, exchange)
    for table in tables:
        table.setflags(write=False)
    return tables


def _signed(x: np.ndarray) -> np.ndarray:
    """``x``, ``0.0 - x`` and one ``0.0`` along the last axis (length k becomes
    2k + 1), the layout that the tables of :class:`_PairTables` index."""
    return np.concatenate((x, 0.0 - x, np.zeros(x.shape[:-1] + (1,))), axis=-1)


def _pair_dimension(t: np.ndarray) -> int:
    """n, from the N = n(n-1)/2 pairs on the last axis of ``t``."""
    return (math.isqrt(8 * t.shape[-1] + 1) + 1) // 2


def expand_pairs(t: np.ndarray) -> np.ndarray:
    """The full (l, m) block of a tensor antisymmetric in its last slot pair
    and held at the pairs l < m on its last axis: a new array with two axes of
    length n in place of that one, holding ``0.0 - t`` at (m, l) and ``0.0``
    on l = m (so no -0.0 that ``t`` does not hold)."""
    return np.take(_signed(t), _pair_tables(_pair_dimension(t)).expand, axis=-1)


def time_column(t: np.ndarray) -> np.ndarray:
    """The column m = 0 of the full (l, m) block of a tensor held as
    :func:`expand_pairs` reads it: ``T_..l0``, that last slot contracted with
    u = ∂_t.  It is ``0.0 - T_..[0l]`` at the pairs (0, l), which come first
    in the pair layout, and ``0.0`` at l = 0: a new array with an axis of
    length n in place of the pair axis."""
    n = _pair_dimension(t)
    column = np.zeros(t.shape[:-1] + (n,))
    np.subtract(0.0, t[..., : n - 1], out=column[..., 1:])
    return column


def gather_pairs(t: np.ndarray) -> np.ndarray:
    """The entries l < m of a tensor's last slot pair, on one last axis in
    the pair layout: the inverse of :func:`expand_pairs` on a tensor
    antisymmetric in that pair."""
    n = t.shape[-1]
    return np.take(t.reshape(t.shape[:-2] + (n * n,)), _pair_tables(n).pairs, axis=-1)


def kulkarni_nomizu_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`.tensors.kulkarni_nomizu` in the pair layout, shape
    ``(..., n, n, N)``: ``h_ikq = a_im b_kl - a_il b_km`` at the q-th pair
    l < m, less h with i and k exchanged.  These are that kernel's products
    and differences in its order, so the result equals its product gathered
    at the pairs bit for bit; it raises on an asymmetric factor where that
    kernel raises."""
    check_symmetric_factors(a, b)
    l, m = np.divmod(_pair_tables(a.shape[-1]).pairs, a.shape[-1])
    h = a[..., :, None, m] * b[..., None, :, l]
    h -= a[..., :, None, l] * b[..., None, :, m]
    return h - np.swapaxes(h, -3, -2)


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
    # ∂²g: for each p, one matrix product over (e, e') of [∂_p Γ^e_bc, Γ^e'_bc]
    # and [2 Γ_ead; 2 ∂_p Γ_e'ad], written into ∂B's block p.  The two
    # operands hold one p at a time, 2 n**3 entries each per point, so no
    # operand of n**4 entries per point is alive beside ∂B and ∂³g, the
    # peak of this stage.
    # Without ∂³g the ∂ half is skipped.  With it, value and ∂ steps
    # interleave in one fixed order: the order of the large allocations moves
    # the peak memory of a verify.
    rows = np.swapaxes(conn.gamma.reshape(lead + (n, n * n)), -1, -2)
    cols = 2.0 * conn.gamma_low.reshape(lead + (n, n * n))
    b = (rows @ cols).reshape(lead + (n,) * 4)
    held = [(b, mj.d2)]
    if third:
        d_rows = np.swapaxes(conn.d_gamma.reshape(lead + (n, n, n * n)), -1, -2)
        d_low = conn.d_gamma_low.reshape(lead + (n, n, n * n))
        left, right = np.empty(lead + (n * n, 2 * n)), np.empty(lead + (2 * n, n * n))
        left[..., n:], right[..., :n, :] = rows, cols
        d_b = np.empty(lead + (n,) * 5)
        blocks = d_b.reshape(lead + (n, n * n, n * n))
        for p in range(n):
            left[..., :n] = d_rows[..., p, :, :]
            np.multiply(d_low[..., p, :, :], 2.0, out=right[..., n:, :])
            np.matmul(left, right, out=blocks[..., p, :, :])
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
    when ``curv`` holds ∂B.  ``curv.d_b`` is consumed: the Weyl sum W is
    formed in its buffer, so it holds no ∂B on return.  No other input array
    is written."""
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
    # = ∂R_abcd - ∂(g ∧ S)_abcd = ∂C_abcd, gathered at the pairs c < d only.
    # Each metric term is one matrix product over its two product-rule terms
    # [∂_p g, g] and [2 S; 2 ∂_p S], written in ∂B's layout [..., p, b, c, a, d]
    # so that W is summed with every operand contiguous: 2 ∂_p(g_bc S_ad) with
    # rows (b, c) and columns (a, d), 2 ∂_p(g_ac S_bd) batched over b with
    # rows (c, a) and columns d.  W is summed in ∂B's own buffer, which the
    # caller does not read again.
    lead, nn = g.shape[:-2], n * n
    rows = np.stack((dg.reshape(lead + (n, nn)), np.broadcast_to(g.reshape(lead + (1, nn)), lead + (n, nn))), axis=-1)
    cols = 2.0 * np.stack((np.broadcast_to(schouten.reshape(lead + (1, nn)), lead + (n, nn)), d_schouten.reshape(lead + (n, nn))), axis=-2)
    w = curv.d_b
    term = np.matmul(rows, cols).reshape(w.shape)
    w += term
    by_b = cols.reshape(lead + (n, 2, n, n)).swapaxes(-3, -2)
    np.matmul(rows[..., None, :, :], by_b, out=term.reshape(lead + (n, n, nn, n)))
    w -= term
    # Each n**4 block of W (one p) gives ∂_p C_ab[cd] by two flat gathers, so
    # the returned ∂C is a compact array and the products' buffer is freed.
    del term
    blocks = w.reshape(lead + (n, nn * nn))
    first, second = _pair_tables(n).exchange
    d_weyl = np.take(blocks, first, axis=-1)
    d_weyl -= np.take(blocks, second, axis=-1)
    d_weyl *= 0.5
    return WeylData(weyl_c, d_weyl)


def covariant_derivative(
    variance: Sequence[str], components: np.ndarray, d1: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """One covariant derivative of a tensor with the given slot ``variance``;
    the new slot (first after the point axes) is covariant.

    ``d1`` holds the coordinate derivatives of ``components`` with the
    derivative index first after the point axes: ``d1[..., p, ...] = ∂_p T``.
    Signs follow variance: ``+Γ`` corrections for up slots, ``-Γ`` for down
    slots and for a :data:`PAIR` slot, an antisymmetric covariant pair held
    on one axis at its pairs l < m (see the module docstring).
    """
    if d1 is None:
        raise ValueError("missing coordinate-derivative data for covariant derivative")
    comp = np.asarray(components, dtype=float)
    d1 = np.asarray(d1, dtype=float)
    if not variance:
        return d1.copy()
    lead, n = gamma.shape[:-3], gamma.shape[-1]
    # For each p, Γ as a matrix [a, z] that contracts the slot: Γ^z_pa for a
    # down slot, Γ^a_pz for an up slot, and for a pair slot the N×N matrix of
    # the connection induced on 2-forms, gathered from Γ with its diagonal's
    # second term added through a strided view.
    matrices = {DOWN: np.moveaxis(gamma, -3, -1), UP: np.swapaxes(gamma, -3, -2)}
    sizes = [n] * len(variance)
    if PAIR in variance:
        tables, pairs = _pair_tables(n), n * (n - 1) // 2
        flat = gamma.reshape(lead + (n**3,))
        induced = np.take(_signed(flat), tables.connection, axis=-1)
        induced.reshape(lead + (n, pairs * pairs))[..., :: pairs + 1] += np.take(flat, tables.trace, axis=-1)
        matrices[PAIR] = induced
        sizes = [pairs if flag == PAIR else n for flag in variance]
    # Each slot's Γ-term is built in one scratch buffer in the layout of the
    # result, [..., p, pre, a, post] with pre and post the slots before and
    # after it, so every combine is contiguous; the first is combined with d1
    # into the result, the others in place.  The term is the matrix product
    # [a, z] @ [z, post], batched over (p, pre); for the last slot it is taken
    # transposed, [pre, z] @ [z, a], batched over p only.
    term = np.empty(d1.shape)
    nabla = np.empty_like(d1)
    for slot, flag in enumerate(variance):
        pre, size, post = math.prod(sizes[:slot]), sizes[slot], math.prod(sizes[slot + 1 :])
        matrix = matrices[flag]
        if post == 1:
            np.matmul(comp.reshape(lead + (1, pre, size)), np.swapaxes(matrix, -1, -2), out=term.reshape(lead + (n, pre, size)))
        else:
            out = term.reshape(lead + (n, pre, size, post))
            np.matmul(matrix[..., :, None, :, :], comp.reshape(lead + (1, pre, size, post)), out=out)
        (np.add if flag == UP else np.subtract)(nabla if slot else d1, term, out=nabla)
    return nabla


def reconstruction_factor(g: np.ndarray, u_down: np.ndarray, n: int) -> np.ndarray:
    """``h = (n-2)/(n-3) u⊗u + 1/(n-3) g``, the factor of the electric-part
    reconstruction ``h ∧ E`` (see :func:`electric_reconstruction`)."""
    return (n - 2.0) / (n - 3.0) * (u_down[..., :, None] * u_down[..., None, :]) + g / (n - 3.0)


def electric_reconstruction(g: np.ndarray, u_down: np.ndarray, electric: np.ndarray, n: int) -> np.ndarray:
    """The electric-part reconstruction ``h ∧ E`` of the Weyl tensor, with
    ``h = (n-2)/(n-3) u⊗u + 1/(n-3) g``: by bilinearity of the
    Kulkarni-Nomizu product, the paper's ``(n-2)/(n-3) (u⊗u) ∧ E
    + 1/(n-3) g ∧ E`` in one product.  The Weyl remainder is ``C - h ∧ E``,
    a totally traceless generalized curvature tensor annihilated by u; it
    vanishes identically in n = 4, where ``h = 2 u⊗u + g``."""
    return kulkarni_nomizu(reconstruction_factor(g, u_down, n), electric)


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
    ``nabla_weyl[k, p, j, l, q] = ∇_p C_jlms``.  ``nabla_weyl`` alone is held
    in the pair layout (see the module docstring): its last axis ``q`` runs
    over the N = n(n-1)/2 pairs m < s, so its shape is (P, n, n, n, N);
    :func:`expand_pairs` gives the full (P, n, n, n, n, n) tensor that
    :data:`FIELD_VARIANCE` describes.

    Chunks: the command-line runner builds a model's bundles a chunk of
    points at a time, splitting a sample into the fewest chunks of at most
    ``max(1, CHUNK_ELEMENTS // n**5)`` points, with sizes that differ by at
    most one (see :mod:`weylgeom.cli`), since the largest intermediates (∂³g,
    ∂B and the Weyl kernel's products) hold n**5 entries per point.  Each
    bundle is measured by the identity suite and dropped before the next one
    is built, so a run holds one at a time, whatever its sample size.  A
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
    electric_reconstruction: np.ndarray
    weyl_remainder: np.ndarray
    raychaudhuri_scalar: np.ndarray
    hubble_gradient_up: np.ndarray


# Slot variance of each tensor-valued bundle field ("u" up, "d" down), after
# the point axis.  Fields absent here (Christoffel symbols, coordinate
# derivatives, the point coordinates) are not tensors; scalars have "".
# "nabla_weyl" names the expanded tensor, the n**5 entries that tensor-dump
# prints, not the pair layout the bundle holds.
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
    "electric_reconstruction": "dddd",
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
    Riemann tensor and its traces, the Weyl tensor with E, the electric
    reconstruction h ∧ E with the Weyl remainder, then the covariant
    derivatives.  The metric jets have the given order; at order 2 no ∂ data
    is formed past ∂Γ, so the derivative stage needs order 3.  Kernel data
    the next stage needs (∂Γ, ∂B, ∂C, ...) stays in this generator's frame."""
    n = model.n
    mj = model.metric_jets(coords, order=order)
    conn = christoffel_from_jets(mj)
    gamma = conn.gamma

    # u = ∂_t (see MetricModel.u_up), so each contraction with u reads index
    # 0 of the slot: u_a = g_a0 with ∂_p u_a = ∂_p g_a0, ∇_p u^a = Γ^a_p0,
    # ∂_p φ from ∂_p Γ^a_a0, and E_kl = C_0kl0 below.  Adding 0.0 turns a
    # -0.0 into the 0.0 that a sum over the slot would give.  Γ, ∂Γ and C
    # hold no -0.0 today: Γ and ∂Γ are matrix products, which sum from +0.0,
    # and C adds R, which is built on one; x + y is -0.0 only when both are,
    # and x - y only when x is.  Their additions keep the reads safe if a
    # kernel ever forms them another way.
    u = model.u_up
    u_up = np.broadcast_to(u, coords.shape)
    u_down = mj.value[..., 0] + 0.0
    nabla_u_down = covariant_derivative((DOWN,), u_down, mj.d1[..., 0] + 0.0, gamma)
    nabla_u_up = np.swapaxes(gamma[..., 0], -1, -2) + 0.0

    hubble = np.trace(nabla_u_up, axis1=-2, axis2=-1) / (n - 1)
    d_hubble = (np.trace(conn.d_gamma[..., 0], axis1=-2, axis2=-1) + 0.0) / (n - 1)
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
        raychaudhuri_scalar=(n - 1) * (d_hubble[..., 0] + hubble * hubble),
        hubble_gradient_up=(proj @ d_hubble[..., None])[..., 0],
    )

    curv = riemann_ricci_scalar(mj, conn)
    mj = replace(mj, d2=None, d3=None)  # ∂²g and ∂³g are not needed again
    yield dict(riemann=curv.riemann, ricci=curv.ricci, scalar_curvature=curv.scalar)

    wd = weyl(mj, curv)
    del curv  # weyl consumed ∂B; its buffer, which held W, is freed
    electric = wd.weyl[..., 0, :, :, 0] + 0.0
    yield dict(weyl=wd.weyl, electric=electric)

    reconstruction = electric_reconstruction(mj.value, u_down, electric, n)
    yield dict(electric_reconstruction=reconstruction, weyl_remainder=wd.weyl - reconstruction)

    # ∂C and ∇C are held at the pairs l < m of their last slot pair.
    d_electric = time_column(wd.d_weyl[..., 0, :, :])
    nabla_electric = covariant_derivative((DOWN, DOWN), electric, d_electric, gamma)
    # Divergences g^ps ∇_p T_...s: for each p, T's last slot times row p of g⁻¹,
    # then the sum over p.  For ∇C that row v = g^p. is contracted into the
    # pair, Σ_m T_..lm v^m, as one matrix product with the (N, n) table
    # V[(l, m), k] = δ_kl v_m - δ_km v_l over the pairs.
    div_electric = (nabla_electric @ conn.g_inv[..., None]).sum(axis=-3)[..., 0]

    nabla_weyl = covariant_derivative((DOWN, DOWN, PAIR), gather_pairs(wd.weyl), wd.d_weyl, gamma)
    g_inv_pairs = np.take(_signed(conn.g_inv), _pair_tables(n).vector, axis=-1)
    lead = coords.shape[:1]
    div_weyl = (nabla_weyl.reshape(lead + (n, n * n, -1)) @ g_inv_pairs).sum(axis=-3)
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
