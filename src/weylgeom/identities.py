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

The negative-control model declares which identities it is expected to fail;
the runner treats an expected failure as a success of the suite's
discriminating power.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
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
    "default_tolerances",
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
        return {
            "identity_id": self.identity_id,
            "paper_ref": self.paper_ref,
            "points_tested": self.points_tested,
            "max_residual": self.max_residual,
            "scale": self.scale,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IdentityReport":
        return cls(
            identity_id=data["identity_id"],
            paper_ref=data["paper_ref"],
            points_tested=int(data["points_tested"]),
            max_residual=float(data["max_residual"]),
            scale=float(data["scale"]),
            tolerance=float(data["tolerance"]),
            verdict=data["verdict"],
            extras=dict(data.get("extras", {})),
        )


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


def _cyclic(t: np.ndarray) -> np.ndarray:
    """``t`` with its first three slots shifted cyclically: out_ijk... = t_jki...

    ``t`` has one point axis and at least three slots after it."""
    return np.moveaxis(t, 3, 1)


class _Shared:
    """Quantities several evaluators use, each computed at most once per chunk.

    Holds its bundle through a weak proxy, so the cache entry in ``_SHARED``
    goes away with the bundle.
    """

    def __init__(self, b: CurvatureBundle) -> None:
        self.b = weakref.proxy(b)

    @cached_property
    def acceleration(self) -> np.ndarray:
        """u^p ∇_p u_a (zero exactly when u is torse-forming)."""
        return np.einsum("...p,...pa->...a", self.b.u_up, self.b.nabla_u_down)

    @cached_property
    def electric_along_u(self) -> np.ndarray:
        """u^p ∇_p E_kl."""
        return np.einsum("...p,...pkl->...kl", self.b.u_up, self.b.nabla_electric)

    @cached_property
    def weyl_u(self) -> np.ndarray:
        """C_jklm u^m."""
        return np.einsum("...jklm,...m->...jkl", self.b.weyl, self.b.u_up)

    @cached_property
    def weyl_along_u(self) -> np.ndarray:
        """u^p ∇_p C_jklm."""
        return np.einsum("...p,...pjklm->...jklm", self.b.u_up, self.b.nabla_weyl)

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
        rhs = (n - 2.0) * (d_kn_uu + two_phi * kulkarni_nomizu(uu, e)) + (
            d_kn_g + two_phi * kulkarni_nomizu(b.g, e)
        )
        return transport, lhs, rhs


# Keyed weakly by bundle: every evaluate_check call on one chunk finds the same
# entry without callers passing it along, and it is dropped with the chunk.
_SHARED: "weakref.WeakKeyDictionary[CurvatureBundle, _Shared]" = weakref.WeakKeyDictionary()


def _shared(b: CurvatureBundle) -> _Shared:
    """The shared quantities of one chunk, created on first use."""
    shared = _SHARED.get(b)
    if shared is None:
        shared = _SHARED[b] = _Shared(b)
    return shared


# ---------------------------------------------------------------------------
# Pointwise evaluators: bundle (P points) -> (residual, scale), each (P,)
# ---------------------------------------------------------------------------


def _torse_forming(b: CurvatureBundle) -> PointPairs:
    u = b.u_down
    lhs = b.nabla_u_down
    rhs = _slots(b.hubble_rate, 2) * (b.g + _outer(u, u))
    residual, scale = _pair(lhs, rhs)
    u_norm = np.abs(np.einsum("...a,...a->...", u, b.u_up) + 1.0)
    return np.maximum(residual, u_norm), scale


def _weyl_compatibility(b: CurvatureBundle) -> PointPairs:
    u = b.u_down
    cu = _shared(b).weyl_u
    cyc = (
        np.einsum("...i,...jkl->...ijkl", u, cu)
        + np.einsum("...j,...kil->...ijkl", u, cu)
        + np.einsum("...k,...ijl->...ijkl", u, cu)
    )
    return _pmax(cyc), _pmax(b.weyl)


def _electric_contraction(b: CurvatureBundle) -> PointPairs:
    u = b.u_down
    e = b.electric
    rhs = np.einsum("...k,...jl->...jkl", u, e) - np.einsum("...j,...kl->...jkl", u, e)
    return _pair(_shared(b).weyl_u, rhs)


def _ricci_form(b: CurvatureBundle) -> PointPairs:
    n = b.n
    u = b.u_down
    xi = b.raychaudhuri_scalar
    r = b.scalar_curvature
    v_down = np.einsum("...ab,...b->...a", b.g, b.hubble_gradient_up)
    rhs = (
        _slots((r - n * xi) / (n - 1), 2) * _outer(u, u)
        + _slots((r - xi) / (n - 1), 2) * b.g
        + (n - 2) * (_outer(u, v_down) + _outer(v_down, u) - b.electric)
    )
    return _pair(b.ricci, rhs)


def _hubble_gradient_spacelike(b: CurvatureBundle) -> PointPairs:
    v = b.hubble_gradient_up
    return np.abs(np.einsum("...a,...a->...", v, b.u_down)), _pmax(v)


def _lovelock_n4(b: CurvatureBundle) -> PointPairs:
    g = b.g
    c = b.weyl
    # The nine terms are the three below and their cyclic shifts a -> b -> c.
    pattern = (
        np.einsum("...ar,...bcst->...abcrst", g, c)
        + np.einsum("...at,...bcrs->...abcrst", g, c)
        + np.einsum("...as,...bctr->...abcrst", g, c)
    )
    total = pattern + _cyclic(pattern) + _cyclic(_cyclic(pattern))
    return _pmax(total), _pmax(g) * _pmax(c)


def _quarter_trace_n4(b: CurvatureBundle) -> PointPairs:
    c = b.weyl
    c_up = raise_all(c, b.g_inv)
    c2 = np.einsum("...abcd,...abcd->...", c, c_up)
    t = np.einsum("...abcr,...abcs->...rs", c, c_up)
    return _pair(t, _slots(0.25 * c2, 2) * np.eye(b.n))


def _reconstruction_n4(b: CurvatureBundle) -> PointPairs:
    u_up = b.u_up
    u = b.u_down
    g = b.g
    c = b.weyl
    e = b.electric
    q0 = np.einsum("...m,...mbcd->...bcd", u_up, c)
    q1 = np.einsum("...m,...amcd->...acd", u_up, c)
    q2 = np.einsum("...m,...abmd->...abd", u_up, c)
    q3 = np.einsum("...m,...abcm->...abc", u_up, c)
    recon = -(
        np.einsum("...a,...bcd->...abcd", u, q0)
        + np.einsum("...b,...acd->...abcd", u, q1)
        + np.einsum("...c,...abd->...abcd", u, q2)
        + np.einsum("...d,...abc->...abcd", u, q3)
    ) + (
        np.einsum("...ad,...bc->...abcd", g, e)
        - np.einsum("...bd,...ac->...abcd", g, e)
        - np.einsum("...ac,...bd->...abcd", g, e)
        + np.einsum("...bc,...ad->...abcd", g, e)
    )
    return _pair(c, recon)


def _electric_rep_n4(b: CurvatureBundle) -> PointPairs:
    u = b.u_down
    g = b.g
    e = b.electric
    rep = 2.0 * (
        np.einsum("...a,...d,...bc->...abcd", u, u, e)
        - np.einsum("...a,...c,...bd->...abcd", u, u, e)
        + np.einsum("...b,...c,...ad->...abcd", u, u, e)
        - np.einsum("...b,...d,...ac->...abcd", u, u, e)
    ) + (
        np.einsum("...ad,...bc->...abcd", g, e)
        - np.einsum("...ac,...bd->...abcd", g, e)
        + np.einsum("...bc,...ad->...abcd", g, e)
        - np.einsum("...bd,...ac->...abcd", g, e)
    )
    return _pair(b.weyl, rep)


def _weyl_sq_8_electric_sq(b: CurvatureBundle) -> PointPairs:
    shared = _shared(b)
    c2, e2 = shared.weyl_sq, shared.electric_sq
    return np.abs(c2 - 8.0 * e2), np.abs(c2)


def _remainder_curvature_symmetries(b: CurvatureBundle) -> PointPairs:
    residuals = generalized_curvature_check(b.weyl_remainder)
    scale = np.maximum(_pmax(b.weyl), _pmax(b.weyl_remainder))
    return np.max(list(residuals.values()), axis=0), scale


def _remainder_traceless(b: CurvatureBundle) -> PointPairs:
    gi = b.g_inv
    t = b.weyl_remainder
    letters = "iklm"
    worst = np.zeros(len(t))
    for a in range(4):
        for bb in range(a + 1, 4):
            spec = f"...{letters[a]}{letters[bb]},...{letters}->..." + "".join(
                letters[s] for s in range(4) if s not in (a, bb)
            )
            worst = np.maximum(worst, _pmax(np.einsum(spec, gi, t)))
    return worst, np.maximum(_pmax(b.weyl), _pmax(t))


def _remainder_u_annihilation(b: CurvatureBundle) -> PointPairs:
    u = b.u_up
    t = b.weyl_remainder
    letters = "iklm"
    worst = np.zeros(len(t))
    for slot in range(4):
        spec = f"...{letters[slot]},...{letters}->..." + letters.replace(letters[slot], "")
        worst = np.maximum(worst, _pmax(np.einsum(spec, u, t)))
    return worst, np.maximum(_pmax(b.weyl), _pmax(t))


def _remainder_recurrence(b: CurvatureBundle) -> PointPairs:
    transport = _shared(b).recurrences[0]
    decay = _slots(2.0 * b.hubble_rate, 4) * b.weyl_remainder
    return _pmax(transport + decay), np.maximum(_pmax(transport), _pmax(decay))


def _remainder_vanishes_n4(b: CurvatureBundle) -> PointPairs:
    return _pmax(b.weyl_remainder), _pmax(b.weyl)


def _remainder_scalar_relation(b: CurvatureBundle) -> PointPairs:
    n = b.n
    shared = _shared(b)
    c2, e2, t2 = shared.weyl_sq, shared.electric_sq, shared.remainder_sq
    coeff = 4.0 * (n - 2.0) / (n - 3.0)
    scale = np.maximum(np.maximum(np.abs(c2), np.abs(t2)), coeff * np.abs(e2))
    return np.abs(t2 - c2 + coeff * e2), scale


def _weyl_scalar_positivity(b: CurvatureBundle) -> PointPairs:
    shared = _shared(b)
    c2, e2, t2 = shared.weyl_sq, shared.electric_sq, shared.remainder_sq
    residual = np.maximum(np.maximum(0.0, -c2), np.maximum(-e2, -t2))
    scale = np.maximum(np.maximum(np.abs(c2), np.abs(e2)), np.abs(t2))
    return residual, scale


def _bianchi_contraction(b: CurvatureBundle) -> PointPairs:
    n = b.n
    nc = b.nabla_weyl
    g = b.g
    dv = b.div_weyl
    # Both sides sum a pattern over the cyclic shifts i -> j -> k: ∇_i C_jklm
    # on the left, (g_jm D_kil + g_kl D_jim)/(n-3) on the right.
    pattern = nc - (
        np.einsum("...jm,...kil->...ijklm", g, dv) + np.einsum("...kl,...jim->...ijklm", g, dv)
    ) / (n - 3.0)
    residual = pattern + _cyclic(pattern) + _cyclic(_cyclic(pattern))
    return _pmax(residual), _pmax(nc)


def _divergence_formula(b: CurvatureBundle) -> PointPairs:
    n = b.n
    shared = _shared(b)
    phi = _slots(b.hubble_rate, 3)
    u = b.u_down
    e = b.electric
    ne = b.nabla_electric
    de = shared.electric_along_u
    acc = shared.acceleration
    div_e = b.div_electric
    g = b.g

    antisym = np.einsum("...i,...km->...ikm", u, e) - np.einsum("...k,...im->...ikm", u, e)
    d_antisym = (
        np.einsum("...i,...km->...ikm", acc, e)
        + np.einsum("...i,...km->...ikm", u, de)
        - np.einsum("...k,...im->...ikm", acc, e)
        - np.einsum("...k,...im->...ikm", u, de)
    )
    grad_term = (n - 3.0) * (ne - np.einsum("...kim->...ikm", ne))
    transport_term = (n - 2.0) * (d_antisym + 2.0 * phi * antisym)
    proj_term = np.einsum("...k,...m,...i->...ikm", u, u, div_e) * 2.0 + np.einsum(
        "...km,...i->...ikm", g, div_e
    ) - np.einsum("...i,...m,...k->...ikm", u, u, div_e) * 2.0 - np.einsum(
        "...im,...k->...ikm", g, div_e
    )
    rhs = grad_term + transport_term + proj_term
    lhs = b.div_weyl
    residual = _pmax(lhs - rhs)
    scale = np.max([_pmax(lhs), _pmax(grad_term), _pmax(transport_term), _pmax(proj_term)], axis=0)
    return residual, scale


def _master_recurrence(b: CurvatureBundle) -> PointPairs:
    _, lhs, rhs = _shared(b).recurrences
    return _pair(lhs, rhs)


def _master_recurrence_consistency(b: CurvatureBundle) -> PointPairs:
    transport, lhs, rhs = _shared(b).recurrences
    master_residual = lhs - rhs
    recurrence_residual = transport + _slots(2.0 * b.hubble_rate, 4) * b.weyl_remainder
    regrouped = (b.n - 3.0) * recurrence_residual
    return _pair(master_residual, regrouped)


def _divfree_corollary_point(b: CurvatureBundle) -> PointPairs:
    n = b.n
    de = _shared(b).electric_along_u
    decay = _slots(b.hubble_rate * (n - 1.0), 2) * b.electric
    residual = np.maximum(_pmax(b.div_electric), _pmax(de + decay))
    scale = np.maximum(_pmax(b.nabla_electric), _pmax(decay))
    return residual, scale


def _electric_gradient_recurrence_point(b: CurvatureBundle) -> PointPairs:
    n = b.n
    phi = _slots(b.hubble_rate, 3)
    u = b.u_down
    e = b.electric
    ne = b.nabla_electric
    lhs = ne - np.einsum("...kim->...ikm", ne)
    antisym = np.einsum("...i,...km->...ikm", u, e) - np.einsum("...k,...im->...ikm", u, e)
    rhs = (n - 2.0) * phi * antisym
    return _pair(lhs, rhs)


def _weyl_u_recurrence_point(b: CurvatureBundle) -> PointPairs:
    n = b.n
    shared = _shared(b)
    # u^p ∇_p (C_jklm u^m) by the product rule: (u^p ∇_p C_jklm) u^m + C_jklm u^p ∇_p u^m.
    acc_up = np.einsum("...p,...pm->...m", b.u_up, b.nabla_u_up)
    transport = np.einsum("...jklm,...m->...jkl", shared.weyl_along_u, b.u_up) + np.einsum(
        "...jklm,...m->...jkl", b.weyl, acc_up
    )
    decay = _slots(b.hubble_rate * (n - 1.0), 3) * shared.weyl_u
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


def _pointwise_result(fn, bundles: Sequence[CurvatureBundle]) -> EvalResult:
    return _worst_point([fn(b) for b in bundles])


def _largest(values) -> float:
    return max(max_abs(v) for v in values)


def _electric_contraction_iff(model, bundles) -> EvalResult:
    max_cu = _largest(_shared(b).weyl_u for b in bundles)
    max_e = _largest(b.electric for b in bundles)
    max_c = _largest(b.weyl for b in bundles)
    threshold = HYPOTHESIS_RTOL * max(1.0, max_c)
    ok = (max_cu < threshold) == (max_e < threshold)
    residual = 0.0 if ok else max(max_cu, max_e)
    return EvalResult(
        True,
        residual,
        max_c,
        sum(len(b.points) for b in bundles),
        extras={"max_weyl_u": max_cu, "max_electric": max_e},
    )


def _electric_iff_n4(model, bundles) -> EvalResult:
    max_c = _largest(b.weyl for b in bundles)
    max_e = _largest(b.electric for b in bundles)
    threshold = HYPOTHESIS_RTOL * max(1.0, max_c, max_e)
    ok = (max_c < threshold) == (max_e < threshold)
    residual = 0.0 if ok else max(max_c, max_e)
    return EvalResult(
        True,
        residual,
        max(max_c, max_e),
        sum(len(b.points) for b in bundles),
        extras={"max_weyl": max_c, "max_electric": max_e},
    )


def _electric_hypothesis_holds(bundles) -> tuple[bool, dict]:
    max_e = _largest(b.electric for b in bundles)
    max_c = _largest(b.weyl for b in bundles)
    holds = max_e < HYPOTHESIS_RTOL * max(1.0, max_c)
    return holds, {"max_electric": max_e, "max_weyl": max_c}


def _divfree_hypothesis_holds(bundles) -> tuple[bool, dict]:
    max_div = _largest(b.div_weyl for b in bundles)
    max_nc = _largest(b.nabla_weyl for b in bundles)
    holds = max_div < HYPOTHESIS_RTOL * max(1.0, max_nc)
    return holds, {"max_div_weyl": max_div, "max_nabla_weyl": max_nc}


def _electric_zero_implies_divfree(model, bundles) -> EvalResult:
    holds, extras = _electric_hypothesis_holds(bundles)
    if not holds:
        ev = EvalResult(False, extras=extras)
        ev.extras["max_div_weyl"] = _largest(b.div_weyl for b in bundles)
        return ev
    result = _worst_point([(_pmax(b.div_weyl), _pmax(b.nabla_weyl)) for b in bundles])
    result.extras = extras
    return result


def _conditional_on_divfree(point_fn):
    def run(model, bundles) -> EvalResult:
        holds, extras = _divfree_hypothesis_holds(bundles)
        if not holds:
            return EvalResult(False, extras=extras)
        result = _pointwise_result(point_fn, bundles)
        result.extras.update(extras)
        return result

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
    applies: Callable[[MetricModel], bool]
    point_fn: Callable[[CurvatureBundle], PointPairs] | None = None
    collection_fn: Callable[[MetricModel, Sequence[CurvatureBundle]], EvalResult] | None = None


REGISTRY: tuple[IdentityCheck, ...] = (
    IdentityCheck(
        "torse_forming",
        "∇_i u_j = φ (g_ij + u_i u_j), u_k u^k = -1",
        "kinematics",
        1e-9,
        _always,
        point_fn=_torse_forming,
    ),
    IdentityCheck(
        "weyl_compatibility",
        "(u_i C_jklm + u_j C_kilm + u_k C_ijlm) u^m = 0",
        "weyl-electric structure",
        1e-9,
        _always,
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
        collection_fn=_electric_contraction_iff,
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
        collection_fn=_electric_iff_n4,
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
        _always,
        point_fn=_bianchi_contraction,
    ),
    IdentityCheck(
        "weyl_divergence_formula",
        "∇_p C_ikm^p = (n-3)(∇_i E_km - ∇_k E_im) + (n-2)[u^p ∇_p (u_i E_km - u_k E_im) "
        "+ 2φ (u_i E_km - u_k E_im)] + (2u_k u_m + g_km) ∇_p E_i^p - (2u_i u_m + g_im) ∇_p E_k^p",
        "derivative identities",
        1e-8,
        _always,
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
        collection_fn=_electric_zero_implies_divfree,
    ),
    IdentityCheck(
        "divfree_corollary",
        "∇_p C_jkl^p = 0  ⟹  ∇_p E^pk = 0  and  u^p ∇_p E_km = -φ (n-1) E_km",
        "divergence-free consequences",
        1e-8,
        _torse_class,
        collection_fn=_conditional_on_divfree(_divfree_corollary_point),
    ),
    IdentityCheck(
        "electric_gradient_recurrence",
        "∇_i E_km - ∇_k E_im = (n-2) φ (u_i E_km - u_k E_im)  when  ∇_p C_jkl^p = 0",
        "divergence-free consequences",
        1e-8,
        _torse_class,
        collection_fn=_conditional_on_divfree(_electric_gradient_recurrence_point),
    ),
    IdentityCheck(
        "weyl_u_recurrence",
        "∇_m C_jkl^m = 0  ⟹  u^p ∇_p (u_m C_jkl^m) = -φ (n-1) u_m C_jkl^m",
        "divergence-free consequences",
        1e-8,
        _torse_class,
        collection_fn=_conditional_on_divfree(_weyl_u_recurrence_point),
    ),
)

GROUPS = (
    "kinematics",
    "weyl-electric structure",
    "ricci structure",
    "four-dimensional algebra",
    "weyl remainder",
    "derivative identities",
    "divergence-free consequences",
)

_BY_ID = {check.identity_id: check for check in REGISTRY}

# Pointwise evaluators exposed for tests that need per-point residuals.
POINT_EVALUATORS: dict[str, Callable[[CurvatureBundle], PointPairs]] = {
    check.identity_id: check.point_fn for check in REGISTRY if check.point_fn is not None
}


def registry_ids() -> tuple[str, ...]:
    return tuple(check.identity_id for check in REGISTRY)


def default_tolerances() -> dict[str, float]:
    return {check.identity_id: check.tolerance for check in REGISTRY}


def evaluate_check(
    check: IdentityCheck,
    model: MetricModel,
    bundles: Sequence[CurvatureBundle],
    tolerance: float | None = None,
) -> IdentityReport:
    """Evaluate one identity over a model's bundles (chunks of sampled points)
    and build its report; the verdict rule lives here and nowhere else."""
    if not bundles:
        raise ValueError("at least one curvature bundle is required")
    tol = check.tolerance if tolerance is None else float(tolerance)
    if not check.applies(model):
        return IdentityReport(check.identity_id, check.paper_ref, 0, 0.0, 0.0, tol, NOT_APPLICABLE)
    if check.collection_fn is not None:
        result = check.collection_fn(model, bundles)
    else:
        result = _pointwise_result(check.point_fn, bundles)
    if not result.applicable:
        return IdentityReport(
            check.identity_id,
            check.paper_ref,
            0,
            0.0,
            0.0,
            tol,
            NOT_APPLICABLE,
            extras=result.extras,
        )
    verdict = PASS if result.residual <= tol * max(1.0, result.scale) else FAIL
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
    unknown = set(overrides) - set(_BY_ID)
    if unknown:
        raise ValueError(f"unknown identity ids in tolerance overrides: {sorted(unknown)}")
    reports = [
        evaluate_check(check, model, bundles, overrides.get(check.identity_id))
        for check in REGISTRY
    ]
    return sorted(reports, key=lambda r: r.identity_id)


def expected_verdict(model: MetricModel, report: IdentityReport) -> str:
    """What the catalog expects this report's verdict to be."""
    if report.verdict == NOT_APPLICABLE:
        return NOT_APPLICABLE
    return FAIL if report.identity_id in model.expected_failures else PASS


def report_ok(model: MetricModel, report: IdentityReport) -> bool:
    """True when the verdict matches the catalog's expectation."""
    return report.verdict == expected_verdict(model, report)
