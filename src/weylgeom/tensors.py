"""Dense multilinear algebra on component arrays.

The curvature pipeline keeps every tensor as a plain ``float64`` array with
leading point axes (see :class:`weylgeom.curvature.CurvatureBundle`); the
array functions here (:func:`kulkarni_nomizu`,
:func:`generalized_curvature_check`, :func:`raise_all`, :func:`norm_squared`,
:func:`max_abs`) accept such leading axes and work point by point.

:class:`TensorValue` is a single-point array of shape ``(n,)*rank`` plus one
up/down flag per slot.  Its contraction is deliberately restricted to
mixed-variance slot pairs, and :func:`raise_lower` flips one slot's variance
with an explicit metric, which keeps index bookkeeping auditable where
variance matters to the caller.

Values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UP",
    "DOWN",
    "TensorValue",
    "contract",
    "raise_lower",
    "kulkarni_nomizu",
    "check_symmetric_factors",
    "generalized_curvature_check",
    "raise_all",
    "norm_squared",
    "max_abs",
]

UP = "u"
DOWN = "d"

_COND_LIMIT = 1e14


def _normalize_variance(variance) -> tuple[str, ...]:
    flags = tuple(variance)
    if not all(f in (UP, DOWN) for f in flags):
        raise ValueError(f"variance flags must be {UP!r} or {DOWN!r}, got {flags!r}")
    return flags


@dataclass(frozen=True, eq=False)
class TensorValue:
    """Dense component array of rank <= 5 with per-slot variance.

    Parameters
    ----------
    n : int
        Chart dimension.
    variance : sequence of {"u", "d"}
        One flag per slot; the string ``"dd"`` is accepted for rank 2, etc.
    components : array_like
        Dense array of shape ``(n,)*rank``; must be finite everywhere.
    """

    n: int
    variance: tuple[str, ...]
    components: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "variance", _normalize_variance(self.variance))
        comp = np.array(self.components, dtype=float)
        if self.rank > 5:
            raise ValueError("rank > 5 is not supported")
        if comp.shape != (self.n,) * self.rank:
            raise ValueError(
                f"components shape {comp.shape} does not match (n,)*rank = {(self.n,) * self.rank}"
            )
        if not np.all(np.isfinite(comp)):
            raise ValueError("non-finite tensor components")
        comp.flags.writeable = False
        object.__setattr__(self, "components", comp)

    @property
    def rank(self) -> int:
        return len(self.variance)

    @classmethod
    def of(cls, components, variance, n: int | None = None) -> "TensorValue":
        """Build a TensorValue, inferring n from the array shape when possible."""
        comp = np.asarray(components, dtype=float)
        flags = _normalize_variance(variance)
        if n is None:
            if comp.ndim == 0:
                raise ValueError("scalar TensorValue needs an explicit n")
            n = comp.shape[0]
        return cls(n=int(n), variance=flags, components=comp)


def max_abs(t: np.ndarray, per_point: bool = False) -> float | np.ndarray:
    """Largest absolute component; 0 for an empty array.

    With ``per_point``, ``t`` has one leading point axis and the result holds
    one maximum per point (shape ``(P,)``).
    """
    comp = np.asarray(t)
    if per_point:
        return np.abs(comp).reshape(len(comp), -1).max(axis=1)
    return float(np.max(np.abs(comp))) if comp.size else 0.0


def contract(t: TensorValue, slot_a: int, slot_b: int) -> TensorValue:
    """Sum over a paired (up, down) slot pair; rank drops by two.

    Only mixed-variance contraction is allowed: callers raise or lower first
    when they mean a metric contraction.
    """
    r = t.rank
    if slot_a == slot_b:
        raise ValueError("contraction slots must differ")
    for s in (slot_a, slot_b):
        if not 0 <= s < r:
            raise ValueError(f"slot {s} out of range for rank {r}")
    if t.variance[slot_a] == t.variance[slot_b]:
        raise ValueError("variance mismatch: contraction needs one up and one down slot")
    comp = np.trace(t.components, axis1=slot_a, axis2=slot_b)
    variance = tuple(f for i, f in enumerate(t.variance) if i not in (slot_a, slot_b))
    return TensorValue(n=t.n, variance=variance, components=comp)


def _check_metric_like(g: TensorValue, direction: str) -> None:
    want = (DOWN, DOWN) if direction == DOWN else (UP, UP)
    if g.variance != want:
        raise ValueError(
            f"metric argument must have variance {want} for direction {direction!r}"
        )
    cond = np.linalg.cond(g.components)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise ValueError("singular metric")


def raise_lower(t: TensorValue, slot: int, g: TensorValue, direction: str) -> TensorValue:
    """Flip one slot's variance with the metric.

    ``direction="u"`` raises a down slot and expects the inverse metric
    (up, up); ``direction="d"`` lowers an up slot and expects the metric
    (down, down).
    """
    if direction not in (UP, DOWN):
        raise ValueError(f"direction must be {UP!r} or {DOWN!r}")
    if not 0 <= slot < t.rank:
        raise ValueError(f"slot {slot} out of range for rank {t.rank}")
    if t.variance[slot] == direction:
        raise ValueError(f"slot {slot} already has variance {direction!r}")
    _check_metric_like(g, direction)
    moved = np.tensordot(g.components, t.components, axes=(1, slot))
    comp = np.moveaxis(moved, 0, slot)
    variance = tuple(direction if i == slot else f for i, f in enumerate(t.variance))
    return TensorValue(n=t.n, variance=variance, components=comp)


def check_symmetric_factors(a: np.ndarray, b: np.ndarray) -> None:
    """Raise ``ValueError`` if either factor of a Kulkarni-Nomizu product is
    asymmetric in its last two axes beyond 1e-10 anywhere."""
    for t in (a, b):
        if max_abs(t - np.swapaxes(t, -1, -2)) > 1e-10:
            raise ValueError("asymmetric factor")


def kulkarni_nomizu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu product of two symmetric covariant rank-2 tensors.

    ``a`` and ``b`` have shape ``(..., n, n)``; the leading axes broadcast.
    Sign pattern, with index pairs (i, k) and (l, m)::

        (a ^ b)_iklm = a_im b_kl - a_km b_il - a_il b_km + a_kl b_im

    The result carries all generalized-curvature-tensor symmetries.  It is a
    new C-ordered array: the function's own outer-product buffer, which
    receives the final exchange.  Neither factor is written.  Raises
    ``ValueError`` if either factor is asymmetric beyond 1e-10 anywhere.
    """
    check_symmetric_factors(a, b)
    # a_im b_kl - a_il b_km, then the same with i and k exchanged.  The outer
    # product is taken over the flattened pairs (i, m) and (k, l), then viewed
    # with its slots in (i, k, l, m) order.  Once read into ``half`` its
    # buffer is free, and takes the result in C order.
    n = a.shape[-1]
    outer = a.reshape(a.shape[:-2] + (n * n, 1)) * b.reshape(b.shape[:-2] + (1, n * n))
    half = np.moveaxis(outer.reshape(outer.shape[:-2] + (n,) * 4), -3, -1)
    half = half - np.swapaxes(half, -1, -2)
    return np.subtract(half, np.swapaxes(half, -3, -4), out=outer.reshape(half.shape))


def generalized_curvature_check(c: np.ndarray) -> dict[str, np.ndarray]:
    """Max-abs residuals of the algebraic curvature symmetries of a (0,4) tensor.

    ``c`` has shape ``(..., n, n, n, n)``; each residual has the leading
    shape (one value per point).  Diagnostic only: asymmetric inputs yield
    large residuals, not errors.
    """
    if c.ndim < 4 or len(set(c.shape[-4:])) != 1:
        raise ValueError("generalized curvature check needs a rank-4 tensor")

    def worst(x):
        return np.max(np.abs(x), axis=(-4, -3, -2, -1))

    return {
        "antisym_first_pair": worst(c + np.swapaxes(c, -4, -3)),
        "antisym_second_pair": worst(c + np.swapaxes(c, -2, -1)),
        "pair_exchange": worst(c - np.einsum("...iklm->...lmik", c)),
        "first_bianchi": worst(
            c + np.einsum("...iklm->...klim", c) + np.einsum("...iklm->...likm", c)
        ),
    }


def raise_all(t: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Every slot of a covariant tensor raised with the inverse metric.

    ``g_inv`` has shape ``(..., n, n)`` and ``t`` the same leading axes
    followed by ``rank >= 2`` slots.  One slot is raised at a time, from the
    last to the first, each as a matrix product on the tensor in its own
    layout: the last slot is ``[pre, a] @ g⁻¹``, and a slot with ``post``
    slots after it is ``g⁻¹ @ [pre, a, post]``, batched over ``pre``.  Every
    operand is C-contiguous and the result is a new C-ordered array.
    """
    lead = g_inv.shape[:-2]
    n = g_inv.shape[-1]
    rank = t.ndim - len(lead)
    if rank < 2:
        raise ValueError("raise_all needs a tensor of rank >= 2")
    out = t.reshape(lead + (-1, n)) @ g_inv
    g = g_inv[..., None, :, :]
    for slot in range(rank - 2, -1, -1):
        post = n ** (rank - 1 - slot)
        out = g @ out.reshape(lead + (-1, n, post))
    return out.reshape(t.shape)


def norm_squared(t: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Full self-contraction of a covariant tensor, every slot raised with
    ``g_inv``: one value per point (the leading axes of ``g_inv``), the sum
    taken as one matrix product per point.  May take either sign for a
    Lorentzian metric."""
    lead = g_inv.shape[:-2]
    dual = raise_all(t, g_inv)
    return (t.reshape(lead + (1, -1)) @ dual.reshape(lead + (-1, 1)))[..., 0, 0]
