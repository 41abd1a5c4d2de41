"""Identity suite: every verified statement as a numerical residual.

Each registry entry pins one identity: a stable ``identity_id``, the formula
it checks (``paper_ref``, printed next to the result for auditability), a
relative tolerance, and what it measures.  A pointwise evaluator takes one
curvature bundle (a chunk of P points) and returns ``(residual, scale)`` as
two arrays of shape ``(P,)``, where ``scale`` is the magnitude of the
dominant contributing term at each point; a report passes iff
``max_residual <= tolerance * max(1, scale)`` at the worst point in that
relative sense.  Hypotheses are measured, not assumed: a conditional check
(the divergence-free consequences) is a pointwise check that also records
the per-point maxima its hypothesis names, and an if-and-only-if check
records only such maxima.  A check whose hypothesis fails on a model is
reported ``not-applicable`` with the measured magnitudes attached, never
asserted.  One rule (``_is_zero``) judges every measured hypothesis.

A model's suite is one pass over its chunks, then one judge per report.  The
pass builds a view of each chunk (``_Chunk``), which forwards its bundle's
fields, the electric-part reconstruction h ∧ E of the Weyl tensor among them
(one Kulkarni-Nomizu product, see :func:`.curvature.electric_reconstruction`),
and computes each shared block at most once: transports along u, the squared
norms, and the per-point maxima ``max_<name>`` of any field or block.  Every
applicable check measures its per-point arrays on that view
(``evaluate_check``), and the view is dropped, with its bundle, before the
next chunk's bundle is built, so one chunk's bundle and blocks at most are
alive.  Each report is then judged from its check's arrays over all chunks
(``_report``).

Checks whose residual pattern repeats itself up to sign are evaluated on
its independent components only, from index tables built once per n
(``_cyclic_triples``).  ``weyl_compatibility`` and
``weyl_bianchi_contraction`` read the C(n,3) triples i < j < k of their
cyclic sums (20 of 216 at n = 6), ``lovelock_n4`` the 16 entries
a < b < c, r < s < t of its 4096, and ``remainder_traceless`` the one trace
g^ac T_abcd of six.  The other entries repeat these only if C, ∇C and
D = ∇_p C^p are antisymmetric in their first pair, which is not so by
construction (the Riemann tensor is lowered on its first index), so those
checks measure that antisymmetry themselves and count it as residual:
max|C_jk.. + C_kj..| for the first two, max|∇_p C_jk.. + ∇_p C_kj..| and
max|D_jk. + D_kj.| for the Bianchi check.  The remainder's other traces
follow from its pair antisymmetry and pair exchange, which
``remainder_curvature_symmetries`` measures.

∇C comes held at the pairs l < m of its last slot pair (see
:mod:`.curvature`), antisymmetric there by construction.  Its per-point
maximum and first-pair defect are read off that array as it is; the Bianchi
check expands its gather at the triples to the full (l, m) block, since it
measures the symmetric part of its right side there.  The recurrences run
at the pairs: u^p ∇_p C is ∇_0 C as held, and C, h ∧ E and the remainder are
gathered at the pairs once per chunk, with h ∧ E's transport formed there
by :func:`.curvature.kulkarni_nomizu_pairs`.  Every term is exactly
antisymmetric in (l, m), with zeros on l = m, so their maxima are those of
the full blocks.

Every model's velocity is u = ∂_t (see :attr:`.models.MetricModel.u_up`), so
a contraction with u reads index 0 of its slot: C_jklm u^m is C_jkl0, and
u^p ∇_p T is ∇_0 T.

The negative-control model declares which identities it is expected to fail;
the runner treats an expected failure as a success of the suite's
discriminating power.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .curvature import (
    CurvatureBundle,
    expand_pairs,
    gather_pairs,
    kulkarni_nomizu_pairs,
    reconstruction_factor,
    time_column,
)
from .models import TORSE_CLASSES, MetricModel
from .tensors import generalized_curvature_check, kulkarni_nomizu, max_abs, norm_squared, raise_all

__all__ = [
    "IdentityReport",
    "IdentityCheck",
    "REGISTRY",
    "registry_ids",
    "evaluate_check",
    "run_model_suite",
    "expected_verdict",
]

# Relative threshold below which a measured tensor counts as zero when
# deciding whether a conditional identity's hypothesis holds.
HYPOTHESIS_RTOL = 1e-8

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(eq=True)
class IdentityReport:
    """Per-identity verification record."""

    identity_id: str
    paper_ref: str
    points_tested: int
    max_residual: float
    scale: float
    tolerance: float
    verdict: str
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report's fields as a dict, with its own copy of ``extras``."""
        return dict(vars(self), extras=dict(self.extras))


# ---------------------------------------------------------------------------
# Shared per-chunk pieces
# ---------------------------------------------------------------------------

PointPairs = tuple[np.ndarray, np.ndarray]


def _pmax(x: np.ndarray) -> np.ndarray:
    """Largest absolute component at each point of a chunk."""
    return max_abs(x, per_point=True)


def _pair(lhs: np.ndarray, rhs: np.ndarray) -> PointPairs:
    return _pmax(lhs - rhs), np.maximum(_pmax(lhs), _pmax(rhs))


def _slots(x: np.ndarray, rank: int) -> np.ndarray:
    """Per-point scalars ``x`` with ``rank`` unit axes, to scale a tensor."""
    return x.reshape(x.shape + (1,) * rank)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def _into_last(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``t_...m v^m``: the vectors ``v`` (P, n) contracted into the last slot of ``t``."""
    points, n = v.shape
    return (t.reshape(points, -1, n) @ v[:, :, None]).reshape(t.shape[:-1])


def _wedge(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The antisymmetric pair ``wedge(v, t)_ikm = v_i t_km - v_k t_im``."""
    vt = v[..., :, None, None] * t[..., None, :, :]
    return vt - np.swapaxes(vt, -3, -2)


@cache
def _cyclic_triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The C(n,3) index triples i < j < k under the three cyclic shifts
    (i, j, k), (k, i, j), (j, k, i), built on first use: arrays ``a, b, c`` of
    shape (3, C(n,3)) with row s the s-th shift, so row 0 is the triples."""
    i, j, k = np.array(list(itertools.combinations(range(n), 3))).T
    tables = (np.stack([i, k, j]), np.stack([j, i, k]), np.stack([k, j, i]))
    for table in tables:
        table.setflags(write=False)
    return tables


def _sum_shifts(terms: np.ndarray) -> np.ndarray:
    """A pattern's sum over the cyclic shifts of its triples: ``terms`` holds
    the pattern at the three shifts on axis 1 (as ``_cyclic_triples`` lists
    them), summed in that order."""
    return terms[:, 0] + terms[:, 1] + terms[:, 2]


def _first_pair_defect(t: np.ndarray, slot: int) -> np.ndarray:
    """max |t_..jk.. + t_..kj..| at each point, over the pair at ``slot``
    and ``slot + 1`` after the point axis (as its largest and least entry,
    which spares an n**5 temporary for the absolute values)."""
    s = (t + np.swapaxes(t, slot, slot + 1)).reshape(len(t), -1)
    return np.maximum(s.max(axis=1), -s.min(axis=1))


class _Chunk:
    """One chunk's bundle fields, forwarded, and the quantities several
    evaluators use, each computed at most once while the view lives.
    ``max_<name>`` is the per-point maximum of a field or shared quantity.
    A contraction with u = ∂_t is a view of the field at index 0, and the
    recurrences are held at the pairs l < m of their last slot pair."""

    def __init__(self, b: CurvatureBundle) -> None:
        self.b = b

    def __getattr__(self, name: str):
        if name.startswith("max_"):
            value = self.__dict__[name] = _pmax(getattr(self, name[4:]))
            return value
        return getattr(self.b, name)

    @cached_property
    def acceleration(self) -> np.ndarray:
        """u^p ∇_p u_a (zero exactly when u is torse-forming)."""
        return self.b.nabla_u_down[:, 0]

    @cached_property
    def electric_along_u(self) -> np.ndarray:
        """u^p ∇_p E_kl."""
        return self.b.nabla_electric[:, 0]

    @cached_property
    def weyl_u(self) -> np.ndarray:
        """C_jklm u^m."""
        return self.b.weyl[..., 0]

    @cached_property
    def weyl_first_pair_defect(self) -> np.ndarray:
        """max |C_jklm + C_kjlm| at each point.  Not zero by construction:
        the Riemann tensor is lowered on its first index."""
        return _first_pair_defect(self.b.weyl, 1)

    @cached_property
    def weyl_sq(self) -> np.ndarray:
        return norm_squared(self.b.weyl, self.b.g_inv)

    @cached_property
    def electric_sq(self) -> np.ndarray:
        return norm_squared(self.b.electric, self.b.g_inv)

    @cached_property
    def remainder_sq(self) -> np.ndarray:
        return norm_squared(self.b.weyl_remainder, self.b.g_inv)

    @cached_property
    def recurrences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The Weyl-remainder transport u^p ∇_p Γ and its decay 2φ Γ, and both
        sides of the master recurrence as stated, each held at the pairs
        l < m of its last slot pair (see :mod:`.curvature`).

        Γ = C - h ∧ E with h = (n-2)/(n-3) u⊗u + 1/(n-3) g, so by the product
        rule and ∇g = 0 the transport is u^p ∇_p C - (u^p ∇_p h) ∧ E
        - h ∧ u^p ∇_p E, where u^p ∇_p h = (n-2)/(n-3) (a⊗u + u⊗a) and a is
        the acceleration.  The Kulkarni-Nomizu product is bilinear, so the
        master recurrence's right side, (n-2)[u^p ∇_p + 2φ](u⊗u ∧ E)
        + [u^p ∇_p + 2φ](g ∧ E) as the paper states it, is
        (n-3) [u^p ∇_p + 2φ](h ∧ E).
        """
        b = self.b
        n = b.n
        u, acc = b.u_down, self.acceleration
        weyl_along_u = b.nabla_weyl[:, 0]
        d_h = (n - 2.0) / (n - 3.0) * (_outer(acc, u) + _outer(u, acc))
        d_reconstruction = kulkarni_nomizu_pairs(d_h, b.electric)
        d_reconstruction += kulkarni_nomizu_pairs(reconstruction_factor(b.g, u, n), self.electric_along_u)
        transport = weyl_along_u - d_reconstruction

        two_phi = _slots(2.0 * b.hubble_rate, 3)
        lhs = (n - 3.0) * (weyl_along_u + two_phi * gather_pairs(b.weyl))
        rhs = (n - 3.0) * (d_reconstruction + two_phi * gather_pairs(b.electric_reconstruction))
        return transport, two_phi * gather_pairs(b.weyl_remainder), lhs, rhs


# ---------------------------------------------------------------------------
# Pointwise evaluators: chunk view (P points) -> (residual, scale), each (P,)
# ---------------------------------------------------------------------------


def _torse_forming(b: _Chunk) -> PointPairs:
    rhs = _slots(b.hubble_rate, 2) * (b.g + _outer(b.u_down, b.u_down))
    residual, scale = _pair(b.nabla_u_down, rhs)
    u_norm = np.abs(b.u_down[:, 0] + 1.0)
    return np.maximum(residual, u_norm), scale


def _weyl_compatibility(b: _Chunk) -> PointPairs:
    """The cyclic sum u_i C_jklm u^m + (its shifts i -> j -> k) on the triples
    i < j < k only.  Given C_jklm = -C_kjlm it is totally antisymmetric in
    (i, j, k), so the other triples repeat these up to sign and those with a
    repeated index vanish; that first-pair antisymmetry is measured instead,
    as ``weyl_first_pair_defect``."""
    i, j, k = _cyclic_triples(b.n)
    terms = b.u_down[:, i, None] * b.weyl_u[:, j, k]
    return np.maximum(_pmax(_sum_shifts(terms)), b.weyl_first_pair_defect), b.max_weyl


def _electric_contraction(b: _Chunk) -> PointPairs:
    return _pair(b.weyl_u, -_wedge(b.u_down, b.electric))


def _ricci_form(b: _Chunk) -> PointPairs:
    n = b.n
    u = b.u_down
    xi = b.raychaudhuri_scalar
    r = b.scalar_curvature
    v_down = _into_last(b.g, b.hubble_gradient_up)
    rhs = (
        _slots((r - n * xi) / (n - 1), 2) * _outer(u, u)
        + _slots((r - xi) / (n - 1), 2) * b.g
        + (n - 2) * (_outer(u, v_down) + _outer(v_down, u) - b.electric)
    )
    return _pair(b.ricci, rhs)


def _hubble_gradient_spacelike(b: _Chunk) -> PointPairs:
    v = b.hubble_gradient_up
    return np.abs(_into_last(v, b.u_down)), _pmax(v)


def _lovelock_n4(b: _Chunk) -> PointPairs:
    """The nine-term sum on a < b < c and r < s < t only.  It is the cyclic
    sum over (a, b, c) of g_ar C_bcst + g_at C_bcrs + g_as C_bctr, itself a
    cyclic sum over (r, s, t), so it is totally antisymmetric in both triples
    given the pair antisymmetries of C: 16 of n**6 = 4096 entries at n = 4
    carry the identity.  The first-pair antisymmetry is measured instead, as
    ``weyl_first_pair_defect``; the second pair's is exact up to rounding,
    since the Riemann and Weyl kernels antisymmetrize (c, d) explicitly."""
    g, c = b.g, b.weyl
    triples = _cyclic_triples(b.n)
    # (i, j, k) stands for (a, b, c) at its three shifts; (r, s, t) for the
    # triples across a last axis.
    i, j, k = (x[:, :, None] for x in triples)
    r, s, t = (x[0] for x in triples)
    terms = g[:, i, r] * c[:, j, k, s, t] + g[:, i, t] * c[:, j, k, r, s] + g[:, i, s] * c[:, j, k, t, r]
    residual = np.maximum(_pmax(_sum_shifts(terms)), b.weyl_first_pair_defect)
    return residual, b.max_g * b.max_weyl


def _quarter_trace_n4(b: _Chunk) -> PointPairs:
    c = b.weyl
    rows = (len(c), -1, b.n)  # (abc, r) per point
    t = np.swapaxes(c.reshape(rows), -1, -2) @ raise_all(c, b.g_inv).reshape(rows)
    return _pair(t, _slots(0.25 * b.weyl_sq, 2) * np.eye(b.n))


def _reconstruction_n4(b: _Chunk) -> PointPairs:
    c, u = b.weyl, b.u_down
    # u^m contracted into each slot of C, times u carrying that slot's index.
    u_terms = (
        np.einsum("...a,...bcd->...abcd", u, c[:, 0])
        + np.einsum("...b,...acd->...abcd", u, c[:, :, 0])
        + np.einsum("...c,...abd->...abcd", u, c[:, :, :, 0])
        + np.einsum("...d,...abc->...abcd", u, c[..., 0])
    )
    return _pair(c, kulkarni_nomizu(b.g, b.electric) - u_terms)


def _electric_rep_n4(b: _Chunk) -> PointPairs:
    """At n = 4, h = 2 u⊗u + g: the paper's pattern is the reconstruction."""
    return _pair(b.weyl, b.electric_reconstruction)


def _weyl_sq_8_electric_sq(b: _Chunk) -> PointPairs:
    c2, e2 = b.weyl_sq, b.electric_sq
    return np.abs(c2 - 8.0 * e2), np.abs(c2)


def _remainder_curvature_symmetries(b: _Chunk) -> PointPairs:
    residuals = generalized_curvature_check(b.weyl_remainder)
    scale = np.maximum(b.max_weyl, b.max_weyl_remainder)
    return np.max(list(residuals.values()), axis=0), scale


def _remainder_traceless(b: _Chunk) -> PointPairs:
    """The one independent trace g^ac T_abcd of the remainder T.  The other
    five follow from T's pair antisymmetry and pair exchange, which
    ``remainder_curvature_symmetries`` measures."""
    t = b.weyl_remainder
    n = b.n
    # g^ac contracted into the slot pair (a, c), both moved to the end.
    moved = np.moveaxis(t, (1, 3), (-2, -1)).reshape(len(t), n, n, n * n)
    traced = _into_last(moved, b.g_inv.reshape(len(t), n * n))
    return _pmax(traced), np.maximum(b.max_weyl, b.max_weyl_remainder)


def _remainder_u_annihilation(b: _Chunk) -> PointPairs:
    t = b.weyl_remainder
    worst = np.max([_pmax(t[:, 0]), _pmax(t[:, :, 0]), _pmax(t[:, :, :, 0]), _pmax(t[..., 0])], axis=0)
    return worst, np.maximum(b.max_weyl, b.max_weyl_remainder)


def _remainder_recurrence(b: _Chunk) -> PointPairs:
    transport, decay = b.recurrences[:2]
    return _pair(transport, -decay)


def _remainder_vanishes_n4(b: _Chunk) -> PointPairs:
    return b.max_weyl_remainder, b.max_weyl


def _remainder_scalar_relation(b: _Chunk) -> PointPairs:
    c2, e2, t2 = b.weyl_sq, b.electric_sq, b.remainder_sq
    coeff = 4.0 * (b.n - 2.0) / (b.n - 3.0)
    scale = np.maximum(np.maximum(np.abs(c2), np.abs(t2)), coeff * np.abs(e2))
    return np.abs(t2 - c2 + coeff * e2), scale


def _weyl_scalar_positivity(b: _Chunk) -> PointPairs:
    c2, e2, t2 = b.weyl_sq, b.electric_sq, b.remainder_sq
    residual = np.maximum(np.maximum(0.0, -c2), np.maximum(-e2, -t2))
    scale = np.maximum(np.maximum(np.abs(c2), np.abs(e2)), np.abs(t2))
    return residual, scale


def _bianchi_contraction(b: _Chunk) -> PointPairs:
    """Both sides of the contracted Bianchi identity on the triples i < j < k
    only.  Each side sums a pattern over the cyclic shifts i -> j -> k:
    ∇_i C_jklm on the left, (g_jm D_kil + g_kl D_jim)/(n-3) on the right.
    Given the first-pair antisymmetry of ∇C (∇_p C_jklm = -∇_p C_kjlm) and of
    D (D_jkl = -D_kjl), and g symmetric, the difference is totally
    antisymmetric in (i, j, k), so the other triples repeat these up to sign
    and those with a repeated index vanish.  Both antisymmetries are measured
    instead, and count as residual.  ∇C is held at the pairs l < m of (l, m);
    the left side's cyclic sum is formed there and expanded to the full
    (l, m) block, so every (l, m) entry is measured.  The right side's cyclic
    sum is one matrix product per triple (:func:`_bianchi_tables`)."""
    n, g, dv = b.n, b.g, b.div_weyl
    i, j, k = _cyclic_triples(n)
    rows, cols = _bianchi_tables(n)
    lhs = expand_pairs(_sum_shifts(b.nabla_weyl[:, i, j, k]))
    flat = np.concatenate((dv.reshape(len(dv), -1), g.reshape(len(g), -1)), axis=1)
    rhs = np.take(flat, rows, axis=1) @ np.take(flat, cols, axis=1)
    residual = np.maximum(_pmax(lhs - rhs / (n - 3.0)), _first_pair_defect(b.nabla_weyl, 2))
    return np.maximum(residual, _first_pair_defect(dv, 1)), b.max_nabla_weyl


@cache
def _bianchi_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in a point's D = div C and g, raveled and concatenated, of
    the factors of the six terms g_jm D_kil and g_kl D_jim over the three
    cyclic shifts of each triple (as :func:`_cyclic_triples` lists them):
    ``rows`` of shape (C(n,3), n, 6) holds [D_kil, g_kl] at l, and ``cols``
    of shape (C(n,3), 6, n) holds [g_jm, D_jim] at m, so their matrix product
    is the cyclic sum of g_jm D_kil + g_kl D_jim at (l, m)."""
    i, j, k = (index[..., None] for index in _cyclic_triples(n))
    slot, g_at = np.arange(n), n**3 + np.arange(n)
    rows = np.stack(((k * n + i) * n + slot, k * n + g_at), axis=-1)
    cols = np.stack((j * n + g_at, (j * n + i) * n + slot), axis=-1)
    # (shift, triple, slot, factor) -> (triple, slot, 2 shift + factor) and
    # (triple, 2 shift + factor, slot).
    rows = rows.transpose(1, 2, 0, 3).reshape(len(rows[0]), n, 6)
    cols = cols.transpose(1, 0, 3, 2).reshape(len(cols[0]), 6, n)
    for table in (rows, cols):
        table.setflags(write=False)
    return rows, cols


def _divergence_formula(b: _Chunk) -> PointPairs:
    n = b.n
    u = b.u_down
    e = b.electric
    ne = b.nabla_electric

    antisym = _wedge(u, e)
    d_antisym = _wedge(b.acceleration, e) + _wedge(u, b.electric_along_u)
    grad_term = (n - 3.0) * (ne - np.swapaxes(ne, -3, -2))
    transport_term = (n - 2.0) * (d_antisym + 2.0 * _slots(b.hubble_rate, 3) * antisym)
    proj_term = _wedge(b.div_electric, 2.0 * _outer(u, u) + b.g)
    rhs = grad_term + transport_term + proj_term
    lhs = b.div_weyl
    residual = _pmax(lhs - rhs)
    scale = np.max([_pmax(lhs), _pmax(grad_term), _pmax(transport_term), _pmax(proj_term)], axis=0)
    return residual, scale


def _master_recurrence(b: _Chunk) -> PointPairs:
    return _pair(*b.recurrences[2:])


def _master_recurrence_consistency(b: _Chunk) -> PointPairs:
    transport, decay, lhs, rhs = b.recurrences
    return _pair(lhs - rhs, (b.n - 3.0) * (transport + decay))


def _divfree_point(b: _Chunk) -> PointPairs:
    return b.max_div_weyl, b.max_nabla_weyl


def _divfree_corollary_point(b: _Chunk) -> PointPairs:
    de = b.electric_along_u
    decay = _slots(b.hubble_rate * (b.n - 1.0), 2) * b.electric
    residual = np.maximum(b.max_div_electric, _pmax(de + decay))
    scale = np.maximum(b.max_nabla_electric, _pmax(decay))
    return residual, scale


def _electric_gradient_recurrence_point(b: _Chunk) -> PointPairs:
    phi = _slots(b.hubble_rate, 3)
    ne = b.nabla_electric
    lhs = ne - np.swapaxes(ne, -3, -2)
    rhs = (b.n - 2.0) * phi * _wedge(b.u_down, b.electric)
    return _pair(lhs, rhs)


def _weyl_u_recurrence_point(b: _Chunk) -> PointPairs:
    # u^p ∇_p (C_jklm u^m) by the product rule: (u^p ∇_p C_jklm) u^m + C_jklm u^p ∇_p u^m,
    # whose first term is ∇_0 C_jkl0.
    transport = time_column(b.nabla_weyl[:, 0]) + _into_last(b.weyl, b.nabla_u_up[:, 0])
    decay = _slots(b.hubble_rate * (b.n - 1.0), 3) * b.weyl_u
    return _pair(transport, -decay)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _always(model: MetricModel) -> bool:
    return True


def _torse_class(model: MetricModel) -> bool:
    return model.expected_class in TORSE_CLASSES


def _n4(model: MetricModel) -> bool:
    return model.n == 4


def _torse_class_n4(model: MetricModel) -> bool:
    return _torse_class(model) and model.n == 4


@dataclass(frozen=True)
class IdentityCheck:
    """One registry identity and what it measures on each chunk.

    ``point_fn`` gives a residual and a scale at each point.  A ``hypothesis``
    ``(measured, reference, *logged)`` makes the check conditional: it applies
    only if ``measured`` vanishes relative to ``reference`` at every point,
    and otherwise reports the maxima of every quantity named.  An ``iff``
    check ``((lhs, rhs), scale_by)`` has no ``point_fn``: both sides must
    vanish together or neither, each judged against the largest ``scale_by``
    maximum.
    """

    identity_id: str
    paper_ref: str
    group: str
    tolerance: float
    applies: Callable[[MetricModel], bool] = _always
    point_fn: Callable[[_Chunk], PointPairs] | None = None
    hypothesis: tuple[str, ...] = ()
    iff: tuple[tuple[str, str], tuple[str, ...]] | None = None

    @property
    def maxima(self) -> tuple[str, ...]:
        """The quantities whose per-point maxima the check measures."""
        if self.iff is None:
            return self.hypothesis
        return tuple(dict.fromkeys(self.iff[0] + self.iff[1]))


REGISTRY: tuple[IdentityCheck, ...] = (
    IdentityCheck(
        "torse_forming",
        "∇_i u_j = φ (g_ij + u_i u_j), u_k u^k = -1",
        "kinematics",
        1e-9,
        point_fn=_torse_forming,
    ),
    IdentityCheck(
        "weyl_compatibility",
        "(u_i C_jklm + u_j C_kilm + u_k C_ijlm) u^m = 0",
        "weyl-electric structure",
        1e-9,
        point_fn=_weyl_compatibility,
    ),
    IdentityCheck(
        "electric_contraction",
        "C_jklm u^m = u_k E_jl - u_j E_kl",
        "weyl-electric structure",
        1e-9,
        _torse_class,
        point_fn=_electric_contraction,
    ),
    IdentityCheck(
        "electric_contraction_iff",
        "C_jklm u^m = 0  ⇔  E_jk = 0",
        "weyl-electric structure",
        1e-9,
        _torse_class,
        iff=(("weyl_u", "electric"), ("weyl",)),
    ),
    IdentityCheck(
        "ricci_form",
        "R_jk = (R - nξ)/(n-1) u_j u_k + (R - ξ)/(n-1) g_jk + (n-2)(u_j v_k + u_k v_j - E_jk)",
        "ricci structure",
        1e-9,
        _torse_class,
        point_fn=_ricci_form,
    ),
    IdentityCheck(
        "hubble_gradient_spacelike",
        "v^k = (g^km + u^k u^m) ∇_m φ satisfies v_k u^k = 0",
        "ricci structure",
        1e-11,
        _torse_class,
        point_fn=_hubble_gradient_spacelike,
    ),
    IdentityCheck(
        "lovelock_n4",
        "0 = g_ar C_bcst + g_br C_cast + g_cr C_abst + g_at C_bcrs + g_bt C_cars "
        "+ g_ct C_abrs + g_as C_bctr + g_bs C_catr + g_cs C_abtr   (n = 4)",
        "four-dimensional algebra",
        1e-10,
        _n4,
        point_fn=_lovelock_n4,
    ),
    IdentityCheck(
        "quarter_trace_n4",
        "C_abcr C^abcs = (1/4) δ_r^s C²   (n = 4)",
        "four-dimensional algebra",
        1e-10,
        _n4,
        point_fn=_quarter_trace_n4,
    ),
    IdentityCheck(
        "reconstruction_n4",
        "C_abcd = -u^m (u_a C_mbcd + u_b C_amcd + u_c C_abmd + u_d C_abcm) "
        "+ g_ad E_bc - g_bd E_ac - g_ac E_bd + g_bc E_ad   (n = 4, unit timelike u)",
        "four-dimensional algebra",
        1e-9,
        _n4,
        point_fn=_reconstruction_n4,
    ),
    IdentityCheck(
        "electric_rep_n4",
        "C_abcd = 2(u_a u_d E_bc - u_a u_c E_bd + u_b u_c E_ad - u_b u_d E_ac) "
        "+ g_ad E_bc - g_ac E_bd + g_bc E_ad - g_bd E_ac   (n = 4, torse-forming u)",
        "four-dimensional algebra",
        1e-9,
        _n4,
        point_fn=_electric_rep_n4,
    ),
    IdentityCheck(
        "weyl_sq_8_electric_sq_n4",
        "C² = 8 E²   (n = 4, torse-forming u)",
        "four-dimensional algebra",
        1e-9,
        _torse_class_n4,
        point_fn=_weyl_sq_8_electric_sq,
    ),
    IdentityCheck(
        "electric_iff_n4",
        "C_abcd = 0  ⇔  E_ab = 0   (n = 4, torse-forming u)",
        "four-dimensional algebra",
        1e-9,
        _torse_class_n4,
        iff=(("weyl", "electric"), ("weyl", "electric")),
    ),
    IdentityCheck(
        "remainder_curvature_symmetries",
        "the Weyl remainder has the algebraic symmetries of a curvature tensor "
        "(pair antisymmetry, pair exchange, first Bianchi)",
        "weyl remainder",
        1e-10,
        _torse_class,
        point_fn=_remainder_curvature_symmetries,
    ),
    IdentityCheck(
        "remainder_traceless",
        "every single trace of the Weyl remainder vanishes",
        "weyl remainder",
        1e-10,
        _torse_class,
        point_fn=_remainder_traceless,
    ),
    IdentityCheck(
        "remainder_u_annihilation",
        "the Weyl remainder contracted with u^m on any slot vanishes",
        "weyl remainder",
        1e-10,
        _torse_class,
        point_fn=_remainder_u_annihilation,
    ),
    IdentityCheck(
        "remainder_recurrence",
        "u^p ∇_p (Weyl remainder) = -2φ (Weyl remainder)",
        "weyl remainder",
        1e-8,
        _torse_class,
        point_fn=_remainder_recurrence,
    ),
    IdentityCheck(
        "remainder_vanishes_n4",
        "the Weyl remainder is identically zero in n = 4",
        "weyl remainder",
        1e-9,
        _torse_class_n4,
        point_fn=_remainder_vanishes_n4,
    ),
    IdentityCheck(
        "remainder_scalar_relation",
        "(remainder)² = C² - 4 (n-2)/(n-3) E²",
        "weyl remainder",
        1e-9,
        _torse_class,
        point_fn=_remainder_scalar_relation,
    ),
    IdentityCheck(
        "weyl_scalar_positivity",
        "C² = 4 (n-2)/(n-3) E² + (remainder)² ≥ 0, E² ≥ 0, (remainder)² ≥ 0",
        "weyl remainder",
        1e-10,
        _torse_class,
        point_fn=_weyl_scalar_positivity,
    ),
    IdentityCheck(
        "weyl_bianchi_contraction",
        "∇_i C_jklm + ∇_j C_kilm + ∇_k C_ijlm = (g_jm D_kil + g_km D_ijl + g_im D_jkl "
        "+ g_kl D_jim + g_il D_kjm + g_jl D_ikm)/(n-3)  with  D_abc = ∇_p C_abc^p",
        "derivative identities",
        1e-8,
        point_fn=_bianchi_contraction,
    ),
    IdentityCheck(
        "weyl_divergence_formula",
        "∇_p C_ikm^p = (n-3)(∇_i E_km - ∇_k E_im) + (n-2)[u^p ∇_p (u_i E_km - u_k E_im) "
        "+ 2φ (u_i E_km - u_k E_im)] + (2u_k u_m + g_km) ∇_p E_i^p - (2u_i u_m + g_im) ∇_p E_k^p",
        "derivative identities",
        1e-8,
        point_fn=_divergence_formula,
    ),
    IdentityCheck(
        "master_recurrence",
        "(n-3)(u^p ∇_p C_iklm + 2φ C_iklm) = (n-2)[u^p ∇_p + 2φ](u⊗u ∧ E)_iklm "
        "+ [u^p ∇_p + 2φ](g ∧ E)_iklm",
        "derivative identities",
        1e-8,
        _torse_class,
        point_fn=_master_recurrence,
    ),
    IdentityCheck(
        "master_recurrence_consistency",
        "the master recurrence equals (n-3) times the Weyl-remainder recurrence "
        "after regrouping",
        "derivative identities",
        1e-9,
        _torse_class,
        point_fn=_master_recurrence_consistency,
    ),
    IdentityCheck(
        "electric_zero_implies_divfree",
        "u_m C_jkl^m = 0  ⟹  ∇_m C_jkl^m = 0",
        "divergence-free consequences",
        1e-8,
        _torse_class,
        point_fn=_divfree_point,
        hypothesis=("electric", "weyl", "div_weyl"),
    ),
    IdentityCheck(
        "divfree_corollary",
        "∇_p C_jkl^p = 0  ⟹  ∇_p E^pk = 0  and  u^p ∇_p E_km = -φ (n-1) E_km",
        "divergence-free consequences",
        1e-8,
        _torse_class,
        point_fn=_divfree_corollary_point,
        hypothesis=("div_weyl", "nabla_weyl"),
    ),
    IdentityCheck(
        "electric_gradient_recurrence",
        "∇_i E_km - ∇_k E_im = (n-2) φ (u_i E_km - u_k E_im)  when  ∇_p C_jkl^p = 0",
        "divergence-free consequences",
        1e-8,
        _torse_class,
        point_fn=_electric_gradient_recurrence_point,
        hypothesis=("div_weyl", "nabla_weyl"),
    ),
    IdentityCheck(
        "weyl_u_recurrence",
        "∇_m C_jkl^m = 0  ⟹  u^p ∇_p (u_m C_jkl^m) = -φ (n-1) u_m C_jkl^m",
        "divergence-free consequences",
        1e-8,
        _torse_class,
        point_fn=_weyl_u_recurrence_point,
        hypothesis=("div_weyl", "nabla_weyl"),
    ),
)

# Report groups, in the order the registry first lists them.
GROUPS = tuple(dict.fromkeys(check.group for check in REGISTRY))


def registry_ids() -> tuple[str, ...]:
    return tuple(check.identity_id for check in REGISTRY)


def evaluate_check(check: IdentityCheck, chunk: _Chunk) -> dict[str, np.ndarray]:
    """Measure one applicable check on one chunk view: the per-point maxima
    ``max_<name>`` of the quantities it names and, for a pointwise check, its
    ``residual`` and ``scale``; every array has shape ``(P,)``."""
    arrays = {f"max_{name}": getattr(chunk, f"max_{name}") for name in check.maxima}
    if check.point_fn is not None:
        arrays["residual"], arrays["scale"] = check.point_fn(chunk)
    return arrays


def _is_zero(value: float, scale: float) -> bool:
    """The hypothesis rule: a maximum counts as zero below HYPOTHESIS_RTOL * max(1, scale)."""
    return value < HYPOTHESIS_RTOL * max(1.0, scale)


def _report(
    check: IdentityCheck,
    model: MetricModel,
    measured: Sequence[dict[str, np.ndarray]],
    tolerance: float | None,
) -> IdentityReport:
    """Judge: one check's report from its per-chunk arrays, concatenated over
    the chunks.  The verdict rule lives here and nowhere else."""
    tol = check.tolerance if tolerance is None else float(tolerance)
    unmet = IdentityReport(check.identity_id, check.paper_ref, 0, 0.0, 0.0, tol, NOT_APPLICABLE)
    if not check.applies(model):
        return unmet
    if not measured:
        raise ValueError("at least one curvature bundle is required")
    arrays = {key: np.concatenate([m[key] for m in measured]) for key in measured[0]}
    points = len(next(iter(arrays.values())))
    largest = {f"max_{name}": float(np.max(arrays[f"max_{name}"])) for name in check.maxima}
    extras = {}
    if check.iff is not None:
        (lhs, rhs), scale_by = check.iff
        scale = max(largest[f"max_{name}"] for name in scale_by)
        extras = {key: largest[key] for key in (f"max_{lhs}", f"max_{rhs}")}
        lhs_zero, rhs_zero = (_is_zero(value, scale) for value in extras.values())
        residual = 0.0 if lhs_zero == rhs_zero else max(extras.values())
    else:
        if check.hypothesis:
            extras = {f"max_{name}": largest[f"max_{name}"] for name in check.hypothesis[:2]}
            if not _is_zero(*extras.values()):
                unmet.extras = largest
                return unmet
        # The first point with the largest residual / max(1, scale).
        k = int(np.argmax(arrays["residual"] / np.maximum(1.0, arrays["scale"])))
        residual, scale = float(arrays["residual"][k]), float(arrays["scale"][k])
    verdict = PASS if residual <= tol * max(1.0, scale) else FAIL
    return IdentityReport(check.identity_id, check.paper_ref, points, residual, scale, tol, verdict, extras)


def run_model_suite(
    model: MetricModel,
    bundles: Iterable[CurvatureBundle],
    tolerances: dict[str, float] | None = None,
) -> list[IdentityReport]:
    """All registry identities for one model, sorted by identity_id.

    ``bundles`` is iterated once, so it may be a generator that builds each
    chunk's bundle only when the suite asks for it."""
    overrides = tolerances or {}
    unknown = set(overrides) - set(registry_ids())
    if unknown:
        raise ValueError(f"unknown identity ids in tolerance overrides: {sorted(unknown)}")
    # Every applicable check measures a chunk on that chunk's view, which is
    # dropped, with its bundle, before the next is built, so only one chunk's
    # bundle and shared quantities are alive at once; each report is then
    # judged over all the chunks.
    applicable = [check for check in REGISTRY if check.applies(model)]
    measured: dict[str, list] = {check.identity_id: [] for check in applicable}
    for chunk in map(_Chunk, bundles):
        for check in applicable:
            measured[check.identity_id].append(evaluate_check(check, chunk))
        del chunk
    reports = [
        _report(check, model, measured.get(check.identity_id, []), overrides.get(check.identity_id))
        for check in REGISTRY
    ]
    return sorted(reports, key=lambda r: r.identity_id)


def expected_verdict(model: MetricModel, report: IdentityReport) -> str:
    """What the catalog expects this report's verdict to be."""
    if report.verdict == NOT_APPLICABLE:
        return NOT_APPLICABLE
    return FAIL if report.identity_id in model.expected_failures else PASS
