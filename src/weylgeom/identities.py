"""Identity suite: every verified statement as a numerical residual.

Each registry entry pins one identity: a stable ``identity_id``, the formula
it checks (``paper_ref``, printed next to the result for auditability), a
relative tolerance, and an evaluator.  Pointwise evaluators take one
curvature bundle (a chunk of P points) and return ``(residual, scale)`` as
two arrays of shape ``(P,)``, where ``scale`` is the magnitude of the
dominant contributing term at each point; a report passes iff
``max_residual <= tolerance * max(1, scale)`` at the worst point in that
relative sense.  Collection evaluators (the if-and-only-if checks and the
divergence-free consequences) look at all sampled points of a model at once,
because their hypotheses are measured, not assumed: checks whose hypotheses
fail on a model are reported ``not-applicable`` with the measured magnitudes
attached, never asserted.

The evaluators share a few building blocks: the Kulkarni-Nomizu blocks
(u⊗u) ∧ E and g ∧ E of the Weyl decomposition, the antisymmetric pair
u_i E_km - u_k E_im (``_wedge``), transports along u, and the squared norms.
Each is computed at most once per chunk view (``_Chunk``), which forwards its
bundle's fields, so an evaluator reads a field or a shared block alike.  The
code that evaluates a chunk owns its view: ``run_model_suite`` builds one per
chunk, runs every pointwise check on it and drops it before the next, so one
chunk's blocks at most are alive; ``evaluate_check``, ``_largest`` and
``_conditional`` wrap a bare bundle only for the one expression that uses
it, so the collection checks recompute the few blocks they name.  One rule
(``_is_zero``) judges every measured hypothesis.

The negative-control model declares which identities it is expected to fail;
the runner treats an expected failure as a success of the suite's
discriminating power.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .curvature import CurvatureBundle
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
    "report_ok",
    "POINT_EVALUATORS",
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


def _into_first(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``v^p t_p...``: the vectors ``v`` (P, n) contracted into the first slot
    of ``t`` after the point axis, as one product per point."""
    points, n = v.shape
    return (v[:, None, :] @ t.reshape(points, n, -1)).reshape(t.shape[:1] + t.shape[2:])


def _into_last(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``t_...m v^m``: the vectors ``v`` (P, n) contracted into the last slot of ``t``."""
    points, n = v.shape
    return (t.reshape(points, -1, n) @ v[:, :, None]).reshape(t.shape[:-1])


def _wedge(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The antisymmetric pair ``wedge(v, t)_ikm = v_i t_km - v_k t_im``."""
    vt = v[..., :, None, None] * t[..., None, :, :]
    return vt - np.swapaxes(vt, -3, -2)


def _cyclic_sum(t: np.ndarray) -> np.ndarray:
    """``t`` summed over the cyclic shifts of its first three slots after the
    point axis: out_ijk... = t_ijk... + t_jki... + t_kij..."""
    shifted = np.moveaxis(t, 3, 1)
    return t + shifted + np.moveaxis(shifted, 3, 1)


class _Chunk:
    """One chunk's bundle fields, forwarded, and the quantities several
    evaluators use, each computed at most once while the view lives."""

    def __init__(self, b: CurvatureBundle) -> None:
        self.b = b

    def __getattr__(self, name: str):
        return getattr(self.b, name)

    @cached_property
    def acceleration(self) -> np.ndarray:
        """u^p ∇_p u_a (zero exactly when u is torse-forming)."""
        return _into_first(self.b.u_up, self.b.nabla_u_down)

    @cached_property
    def electric_along_u(self) -> np.ndarray:
        """u^p ∇_p E_kl."""
        return _into_first(self.b.u_up, self.b.nabla_electric)

    @cached_property
    def weyl_u(self) -> np.ndarray:
        """C_jklm u^m."""
        return _into_last(self.b.weyl, self.b.u_up)

    @cached_property
    def weyl_along_u(self) -> np.ndarray:
        """u^p ∇_p C_jklm."""
        return _into_first(self.b.u_up, self.b.nabla_weyl)

    @cached_property
    def kn_uu(self) -> np.ndarray:
        """The Kulkarni-Nomizu block (u⊗u) ∧ E of the Weyl decomposition."""
        return kulkarni_nomizu(_outer(self.b.u_down, self.b.u_down), self.b.electric)

    @cached_property
    def kn_g(self) -> np.ndarray:
        """The Kulkarni-Nomizu block g ∧ E of the Weyl decomposition."""
        return kulkarni_nomizu(self.b.g, self.b.electric)

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
    def recurrences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Weyl-remainder transport u^p ∇_p Γ, and both sides of the
        master recurrence as stated.

        The transport is assembled by the product rule from ∇(Weyl), ∇E and
        ∇u through the two Kulkarni-Nomizu blocks (u⊗u) ∧ E and g ∧ E.
        """
        b = self.b
        n = b.n
        u, e, acc = b.u_down, b.electric, self.acceleration
        de = self.electric_along_u
        uu = _outer(u, u)
        duu = _outer(acc, u) + _outer(u, acc)
        d_kn_uu = kulkarni_nomizu(duu, e) + kulkarni_nomizu(uu, de)
        d_kn_g = kulkarni_nomizu(b.g, de)
        k_uu, k_g = (n - 2.0) / (n - 3.0), 1.0 / (n - 3.0)
        transport = self.weyl_along_u - k_uu * d_kn_uu - k_g * d_kn_g

        two_phi = _slots(2.0 * b.hubble_rate, 4)
        lhs = (n - 3.0) * (self.weyl_along_u + two_phi * b.weyl)
        rhs = (n - 2.0) * (d_kn_uu + two_phi * self.kn_uu) + (d_kn_g + two_phi * self.kn_g)
        return transport, lhs, rhs


def _view(b: CurvatureBundle | _Chunk) -> _Chunk:
    """``b`` itself if it is a chunk view, else a new view of the bundle."""
    return b if isinstance(b, _Chunk) else _Chunk(b)


def _on_bundle(point_fn: Callable[[_Chunk], PointPairs]) -> Callable[[CurvatureBundle], PointPairs]:
    """``point_fn`` for a bare bundle, through a view of its own."""
    return lambda b: point_fn(_view(b))


# ---------------------------------------------------------------------------
# Pointwise evaluators: chunk view (P points) -> (residual, scale), each (P,)
# ---------------------------------------------------------------------------


def _torse_forming(b: _Chunk) -> PointPairs:
    rhs = _slots(b.hubble_rate, 2) * (b.g + _outer(b.u_down, b.u_down))
    residual, scale = _pair(b.nabla_u_down, rhs)
    u_norm = np.abs(_into_last(b.u_down, b.u_up) + 1.0)
    return np.maximum(residual, u_norm), scale


def _weyl_compatibility(b: _Chunk) -> PointPairs:
    # The three terms are u_i C_jklm u^m and its cyclic shifts i -> j -> k.
    pattern = np.einsum("...i,...jkl->...ijkl", b.u_down, b.weyl_u)
    return _pmax(_cyclic_sum(pattern)), _pmax(b.weyl)


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
    g = b.g
    c = b.weyl
    # The nine terms are the three below and their cyclic shifts a -> b -> c.
    pattern = (
        np.einsum("...ar,...bcst->...abcrst", g, c)
        + np.einsum("...at,...bcrs->...abcrst", g, c)
        + np.einsum("...as,...bctr->...abcrst", g, c)
    )
    return _pmax(_cyclic_sum(pattern)), _pmax(g) * _pmax(c)


def _quarter_trace_n4(b: _Chunk) -> PointPairs:
    c = b.weyl
    rows = (len(c), -1, b.n)  # (abc, r) per point
    t = np.swapaxes(c.reshape(rows), -1, -2) @ raise_all(c, b.g_inv).reshape(rows)
    return _pair(t, _slots(0.25 * b.weyl_sq, 2) * np.eye(b.n))


def _reconstruction_n4(b: _Chunk) -> PointPairs:
    c = b.weyl
    letters = "abcd"
    # u^m contracted into each slot of C, times u carrying that slot's index.
    u_terms = 0.0
    for slot, s in enumerate(letters):
        rest = letters.replace(s, "")
        q = _into_last(np.moveaxis(c, 1 + slot, -1), b.u_up)
        u_terms = u_terms + np.einsum(f"...{s},...{rest}->...{letters}", b.u_down, q)
    return _pair(c, b.kn_g - u_terms)


def _electric_rep_n4(b: _Chunk) -> PointPairs:
    return _pair(b.weyl, 2.0 * b.kn_uu + b.kn_g)


def _weyl_sq_8_electric_sq(b: _Chunk) -> PointPairs:
    c2, e2 = b.weyl_sq, b.electric_sq
    return np.abs(c2 - 8.0 * e2), np.abs(c2)


def _remainder_curvature_symmetries(b: _Chunk) -> PointPairs:
    residuals = generalized_curvature_check(b.weyl_remainder)
    scale = np.maximum(_pmax(b.weyl), _pmax(b.weyl_remainder))
    return np.max(list(residuals.values()), axis=0), scale


def _remainder_traceless(b: _Chunk) -> PointPairs:
    t = b.weyl_remainder
    n = b.n
    g_inv = b.g_inv.reshape(len(t), n * n)
    worst = np.zeros(len(t))
    for pair in itertools.combinations((1, 2, 3, 4), 2):
        # g^sr contracted into the slot pair (s, r), both moved to the end.
        traced = _into_last(np.moveaxis(t, pair, (-2, -1)).reshape(len(t), n, n, n * n), g_inv)
        worst = np.maximum(worst, _pmax(traced))
    return worst, np.maximum(_pmax(b.weyl), _pmax(t))


def _remainder_u_annihilation(b: _Chunk) -> PointPairs:
    t = b.weyl_remainder
    worst = np.zeros(len(t))
    for slot in (1, 2, 3, 4):
        worst = np.maximum(worst, _pmax(_into_last(np.moveaxis(t, slot, -1), b.u_up)))
    return worst, np.maximum(_pmax(b.weyl), _pmax(t))


def _remainder_recurrence(b: _Chunk) -> PointPairs:
    transport = b.recurrences[0]
    decay = _slots(2.0 * b.hubble_rate, 4) * b.weyl_remainder
    return _pmax(transport + decay), np.maximum(_pmax(transport), _pmax(decay))


def _remainder_vanishes_n4(b: _Chunk) -> PointPairs:
    return _pmax(b.weyl_remainder), _pmax(b.weyl)


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
    nc = b.nabla_weyl
    g = b.g
    dv = b.div_weyl
    # Both sides sum a pattern over the cyclic shifts i -> j -> k: ∇_i C_jklm
    # on the left, (g_jm D_kil + g_kl D_jim)/(n-3) on the right.
    pattern = nc - (
        np.einsum("...jm,...kil->...ijklm", g, dv) + np.einsum("...kl,...jim->...ijklm", g, dv)
    ) / (b.n - 3.0)
    return _pmax(_cyclic_sum(pattern)), _pmax(nc)


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
    _, lhs, rhs = b.recurrences
    return _pair(lhs, rhs)


def _master_recurrence_consistency(b: _Chunk) -> PointPairs:
    transport, lhs, rhs = b.recurrences
    decay = _slots(2.0 * b.hubble_rate, 4) * b.weyl_remainder
    return _pair(lhs - rhs, (b.n - 3.0) * (transport + decay))


def _divfree_point(b: _Chunk) -> PointPairs:
    return _pmax(b.div_weyl), _pmax(b.nabla_weyl)


def _divfree_corollary_point(b: _Chunk) -> PointPairs:
    de = b.electric_along_u
    decay = _slots(b.hubble_rate * (b.n - 1.0), 2) * b.electric
    residual = np.maximum(_pmax(b.div_electric), _pmax(de + decay))
    scale = np.maximum(_pmax(b.nabla_electric), _pmax(decay))
    return residual, scale


def _electric_gradient_recurrence_point(b: _Chunk) -> PointPairs:
    phi = _slots(b.hubble_rate, 3)
    ne = b.nabla_electric
    lhs = ne - np.swapaxes(ne, -3, -2)
    rhs = (b.n - 2.0) * phi * _wedge(b.u_down, b.electric)
    return _pair(lhs, rhs)


def _weyl_u_recurrence_point(b: _Chunk) -> PointPairs:
    # u^p ∇_p (C_jklm u^m) by the product rule: (u^p ∇_p C_jklm) u^m + C_jklm u^p ∇_p u^m.
    acc_up = _into_first(b.u_up, b.nabla_u_up)
    transport = _into_last(b.weyl_along_u, b.u_up) + _into_last(b.weyl, acc_up)
    decay = _slots(b.hubble_rate * (b.n - 1.0), 3) * b.weyl_u
    return _pmax(transport + decay), np.maximum(_pmax(transport), _pmax(decay))


# ---------------------------------------------------------------------------
# Collection evaluators: (model, bundles) -> EvalResult
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    applicable: bool
    residual: float = 0.0
    scale: float = 0.0
    points: int = 0
    extras: dict = field(default_factory=dict)


def _worst_point(pairs: Sequence[PointPairs]) -> EvalResult:
    """The first point with the largest ``residual / max(1, scale)``."""
    residual = np.concatenate([r for r, _ in pairs])
    scale = np.concatenate([s for _, s in pairs])
    k = int(np.argmax(residual / np.maximum(1.0, scale)))
    return EvalResult(True, float(residual[k]), float(scale[k]), len(residual))


def _largest(bundles: Sequence[CurvatureBundle], name: str) -> float:
    """Largest absolute component of a bundle field or shared quantity over all points."""
    return max(max_abs(getattr(_view(b), name)) for b in bundles)


def _is_zero(value: float, scale: float) -> bool:
    """The hypothesis rule: a maximum counts as zero below HYPOTHESIS_RTOL * max(1, scale)."""
    return value < HYPOTHESIS_RTOL * max(1.0, scale)


def _hypothesis(bundles, measured: str, reference: str) -> tuple[bool, dict]:
    """Whether ``measured`` vanishes at every point relative to ``reference``,
    with both maxima as extras (``max_<name>``)."""
    value, scale = _largest(bundles, measured), _largest(bundles, reference)
    return _is_zero(value, scale), {f"max_{measured}": value, f"max_{reference}": scale}


def _conditional(point_fn, measured: str, reference: str, unmet_extras: tuple[str, ...] = ()):
    """A pointwise check that runs only where its hypothesis, ``measured``
    vanishing relative to ``reference``, holds; otherwise it is not applicable
    and the maxima of ``unmet_extras`` join the measured extras."""

    def run(bundles: Sequence[CurvatureBundle]) -> EvalResult:
        holds, extras = _hypothesis(bundles, measured, reference)
        if not holds:
            extras.update((f"max_{name}", _largest(bundles, name)) for name in unmet_extras)
            return EvalResult(False, extras=extras)
        result = _worst_point([point_fn(_view(b)) for b in bundles])
        result.extras = extras
        return result

    return run


def _iff(sides: tuple[str, str], scale_by: tuple[str, ...]):
    """Both ``sides`` vanish together or neither does, each judged by the
    hypothesis rule against the largest of the ``scale_by`` maxima."""

    def run(bundles: Sequence[CurvatureBundle]) -> EvalResult:
        largest = {name: _largest(bundles, name) for name in dict.fromkeys(sides + scale_by)}
        scale = max(largest[name] for name in scale_by)
        lhs_zero, rhs_zero = (_is_zero(largest[name], scale) for name in sides)
        residual = 0.0 if lhs_zero == rhs_zero else max(largest[name] for name in sides)
        points = sum(len(b.points) for b in bundles)
        return EvalResult(True, residual, scale, points, {f"max_{s}": largest[s] for s in sides})

    return run


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
    identity_id: str
    paper_ref: str
    group: str
    tolerance: float
    applies: Callable[[MetricModel], bool] = _always
    point_fn: Callable[[_Chunk], PointPairs] | None = None
    collection_fn: Callable[[Sequence[CurvatureBundle]], EvalResult] | None = None


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
        collection_fn=_iff(("weyl_u", "electric"), scale_by=("weyl",)),
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
        collection_fn=_iff(("weyl", "electric"), scale_by=("weyl", "electric")),
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
        collection_fn=_conditional(_divfree_point, "electric", "weyl", unmet_extras=("div_weyl",)),
    ),
    IdentityCheck(
        "divfree_corollary",
        "∇_p C_jkl^p = 0  ⟹  ∇_p E^pk = 0  and  u^p ∇_p E_km = -φ (n-1) E_km",
        "divergence-free consequences",
        1e-8,
        _torse_class,
        collection_fn=_conditional(_divfree_corollary_point, "div_weyl", "nabla_weyl"),
    ),
    IdentityCheck(
        "electric_gradient_recurrence",
        "∇_i E_km - ∇_k E_im = (n-2) φ (u_i E_km - u_k E_im)  when  ∇_p C_jkl^p = 0",
        "divergence-free consequences",
        1e-8,
        _torse_class,
        collection_fn=_conditional(_electric_gradient_recurrence_point, "div_weyl", "nabla_weyl"),
    ),
    IdentityCheck(
        "weyl_u_recurrence",
        "∇_m C_jkl^m = 0  ⟹  u^p ∇_p (u_m C_jkl^m) = -φ (n-1) u_m C_jkl^m",
        "divergence-free consequences",
        1e-8,
        _torse_class,
        collection_fn=_conditional(_weyl_u_recurrence_point, "div_weyl", "nabla_weyl"),
    ),
)

# Report groups, in the order the registry first lists them.
GROUPS = tuple(dict.fromkeys(check.group for check in REGISTRY))

# Pointwise evaluators exposed for tests that need per-point residuals; each
# takes a bundle.
POINT_EVALUATORS: dict[str, Callable[[CurvatureBundle], PointPairs]] = {
    check.identity_id: _on_bundle(check.point_fn) for check in REGISTRY if check.point_fn is not None
}


def registry_ids() -> tuple[str, ...]:
    return tuple(check.identity_id for check in REGISTRY)


def evaluate_check(
    check: IdentityCheck,
    model: MetricModel,
    bundles: Sequence[CurvatureBundle],
    tolerance: float | None = None,
) -> IdentityReport:
    """Evaluate one identity over a model's bundles (chunks of sampled points,
    or their views) and build its report; the verdict rule lives here and
    nowhere else."""
    if not bundles:
        raise ValueError("at least one curvature bundle is required")
    tol = check.tolerance if tolerance is None else float(tolerance)
    if not check.applies(model):
        result = EvalResult(False)
    elif check.collection_fn is not None:
        result = check.collection_fn(bundles)
    else:
        result = _worst_point([check.point_fn(_view(b)) for b in bundles])
    if not result.applicable:
        verdict = NOT_APPLICABLE
    elif result.residual <= tol * max(1.0, result.scale):
        verdict = PASS
    else:
        verdict = FAIL
    return IdentityReport(
        check.identity_id,
        check.paper_ref,
        result.points,
        result.residual,
        result.scale,
        tol,
        verdict,
        extras=result.extras,
    )


def run_model_suite(
    model: MetricModel,
    bundles: Sequence[CurvatureBundle],
    tolerances: dict[str, float] | None = None,
) -> list[IdentityReport]:
    """All registry identities for one model, sorted by identity_id."""
    overrides = tolerances or {}
    unknown = set(overrides) - set(registry_ids())
    if unknown:
        raise ValueError(f"unknown identity ids in tolerance overrides: {sorted(unknown)}")
    # Pointwise checks that apply run a chunk at a time, all of them on one
    # chunk's view, which is dropped before the next is built, so only one
    # chunk's shared quantities are alive at once; every other check sees all
    # the chunks in one call.
    chunked = [check for check in REGISTRY if check.point_fn is not None and check.applies(model)]
    per_chunk: dict[str, list[IdentityReport]] = {check.identity_id: [] for check in chunked}
    for b in bundles:
        chunk = _Chunk(b)
        for check in chunked:
            report = evaluate_check(check, model, [chunk], overrides.get(check.identity_id))
            per_chunk[check.identity_id].append(report)
        del chunk  # the last one too: the collection checks build their own
    reports = [
        _merged(per_chunk[check.identity_id])
        if check.identity_id in per_chunk
        else evaluate_check(check, model, bundles, overrides.get(check.identity_id))
        for check in REGISTRY
    ]
    return sorted(reports, key=lambda r: r.identity_id)


def _merged(reports: Sequence[IdentityReport]) -> IdentityReport:
    """One pointwise check's report from its per-chunk reports: the chunk
    holding the worst point (the first on ties, as in ``_worst_point``),
    with every chunk's points counted.  Its verdict is that point's."""
    worst = max(reports, key=lambda r: r.max_residual / max(1.0, r.scale))
    return replace(worst, points_tested=sum(r.points_tested for r in reports))


def expected_verdict(model: MetricModel, report: IdentityReport) -> str:
    """What the catalog expects this report's verdict to be."""
    if report.verdict == NOT_APPLICABLE:
        return NOT_APPLICABLE
    return FAIL if report.identity_id in model.expected_failures else PASS


def report_ok(model: MetricModel, report: IdentityReport) -> bool:
    """True when the verdict matches the catalog's expectation."""
    return report.verdict == expected_verdict(model, report)
