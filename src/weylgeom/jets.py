"""Forward-mode Taylor jets: exact mixed partials of chart functions to order 3.

A :class:`Jet3` carries the value of a scalar function of the chart
coordinates together with *all* of its partial derivatives through third
order.  Arithmetic and elementary functions propagate that data exactly
(truncated Taylor arithmetic), which is what lets the curvature pipeline
consume third metric derivatives at machine precision.  No numerical
differentiation happens anywhere in the library; finite differences exist
only in the test suite, as an independent oracle.

Derivative layout: ``d1[..., i] = ∂_i f``, ``d2[..., i, j] = ∂_i ∂_j f``,
``d3[..., i, j, k] = ∂_i ∂_j ∂_k f`` (raw partials, not Taylor coefficients).
The leading axes ``...`` are the shape of ``value``: empty for a jet at one
point, ``(P,)`` for a jet evaluated at P chart points at once.  A constant
jet has no leading axes and broadcasts against a batched one.  ``d2`` and
``d3`` are exactly symmetric: every rule below is written as a manifestly
symmetric combination, so symmetry survives to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Jet3", "variables", "constant", "exp", "log", "sin", "cos", "power"]


_SYM_INDEX_CACHE: dict[int, tuple[np.ndarray, ...]] = {}


def _sym_indices(n: int) -> tuple[np.ndarray, ...]:
    """Sorted index grids used to canonicalize d2/d3 storage per entry."""
    if n not in _SYM_INDEX_CACHE:
        i2 = np.sort(np.indices((n, n)), axis=0)
        i3 = np.sort(np.indices((n, n, n)), axis=0)
        _SYM_INDEX_CACHE[n] = (i2[0], i2[1], i3[0], i3[1], i3[2])
    return _SYM_INDEX_CACHE[n]


@dataclass(frozen=True, eq=False)
class Jet3:
    """Value and all partial derivatives through order 3 of a scalar function.

    Symmetry of d2 and d3 is exact: every entry is stored from its
    index-sorted representative on write, so reordering floating-point sums
    in the arithmetic rules can never break it.
    """

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray

    def __post_init__(self) -> None:
        value = np.asarray(self.value, dtype=float)
        d1 = np.asarray(self.d1, dtype=float)
        d2 = np.asarray(self.d2, dtype=float)
        d3 = np.asarray(self.d3, dtype=float)
        n = d1.shape[-1] if d1.ndim else -1
        lead = value.shape
        if d1.shape != lead + (n,) or d2.shape != lead + (n, n) or d3.shape != lead + (n, n, n):
            raise ValueError(
                "jet derivative arrays must have shapes (..., n), (..., n,n), (..., n,n,n)"
            )
        a2, b2, a3, b3, c3 = _sym_indices(n)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2[..., a2, b2])
        object.__setattr__(self, "d3", d3[..., a3, b3, c3])

    @property
    def n(self) -> int:
        """Number of chart variables."""
        return self.d1.shape[-1]

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other) -> "Jet3":
        if isinstance(other, Jet3):
            if other.n != self.n:
                raise ValueError("jets have different numbers of variables")
            return other
        return constant(float(other), self.n)

    def __add__(self, other) -> "Jet3":
        o = self._lift(other)
        return Jet3(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return Jet3(-self.value, -self.d1, -self.d2, -self.d3)

    def __sub__(self, other) -> "Jet3":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Jet3":
        return (-self) + other

    def __mul__(self, other) -> "Jet3":
        if not isinstance(other, Jet3):
            c = float(other)
            return Jet3(c * self.value, c * self.d1, c * self.d2, c * self.d3)
        o = self._lift(other)
        a1, b1 = self.value[..., None], o.value[..., None]
        a2, b2 = a1[..., None], b1[..., None]
        cross = self.d1[..., :, None] * o.d1[..., None, :]
        d2 = self.d2 * b2 + o.d2 * a2 + cross + cross.swapaxes(-1, -2)
        d3 = (
            self.d3 * b2[..., None]
            + o.d3 * a2[..., None]
            + _sym_2_1(self.d2, o.d1)
            + _sym_2_1(o.d2, self.d1)
        )
        return Jet3(self.value * o.value, self.d1 * b1 + o.d1 * a1, d2, d3)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet3":
        o = self._lift(other)
        return self * _reciprocal(o)

    def __rtruediv__(self, other) -> "Jet3":
        return _reciprocal(self) * other

    def __pow__(self, exponent) -> "Jet3":
        return power(self, exponent)


def _sym_2_1(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric rank-3 combination m_ij v_k + m_ik v_j + m_jk v_i."""
    t = m[..., :, :, None] * v[..., None, None, :]
    t_ikj = t.swapaxes(-1, -2)
    return t + t_ikj + t_ikj.swapaxes(-2, -3)


def _compose(u: Jet3, f0, f1, f2, f3) -> Jet3:
    """Chain rule through order 3 for F(u) given F, F', F'', F''' at u.value."""
    outer2 = u.d1[..., :, None] * u.d1[..., None, :]
    outer3 = outer2[..., None] * u.d1[..., None, None, :]
    g1, g2, g3 = (np.asarray(f)[..., None] for f in (f1, f2, f3))
    return Jet3(
        f0,
        g1 * u.d1,
        g2[..., None] * outer2 + g1[..., None] * u.d2,
        g3[..., None, None] * outer3
        + g2[..., None, None] * _sym_2_1(u.d2, u.d1)
        + g1[..., None, None] * u.d3,
    )


def _reciprocal(u: Jet3) -> Jet3:
    if np.any(u.value == 0.0):
        raise ValueError("jet division singularity")
    w = 1.0 / u.value
    return _compose(u, w, -w * w, 2.0 * w**3, -6.0 * w**4)


# -- constructors ----------------------------------------------------------


def constant(value: float, n: int) -> Jet3:
    """Jet of a constant: all derivatives vanish (no leading point axes)."""
    return Jet3(float(value), np.zeros(n), np.zeros((n, n)), np.zeros((n, n, n)))


def variables(coords) -> list[Jet3]:
    """Coordinate jets: the i-th jet has value ``coords[..., i]`` and d1 = e_i.

    ``coords`` of shape ``(n,)`` gives jets at one point; shape ``(P, n)``
    gives jets at P points, with a leading point axis.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[-1]
    lead = coords.shape[:-1]
    out = []
    for i in range(n):
        d1 = np.zeros(lead + (n,))
        d1[..., i] = 1.0
        out.append(Jet3(coords[..., i], d1, np.zeros(lead + (n, n)), np.zeros(lead + (n, n, n))))
    return out


# -- elementary functions ---------------------------------------------------


def exp(u: Jet3) -> Jet3:
    e = np.exp(u.value)
    return _compose(u, e, e, e, e)


def log(u: Jet3) -> Jet3:
    if np.any(u.value <= 0.0):
        raise ValueError("log domain violation: jet value must be positive")
    w = 1.0 / u.value
    return _compose(u, np.log(u.value), w, -w * w, 2.0 * w**3)


def sin(u: Jet3) -> Jet3:
    s, c = np.sin(u.value), np.cos(u.value)
    return _compose(u, s, c, -s, -c)


def cos(u: Jet3) -> Jet3:
    s, c = np.sin(u.value), np.cos(u.value)
    return _compose(u, c, -s, -c, s)


def power(u: Jet3, exponent: float) -> Jet3:
    """u**p with the direct derivative formulas.

    Integer exponents are valid for any base (negative bases included, zero
    base for p >= 3); fractional exponents require a positive base.
    """
    p = float(exponent)
    x = u.value
    if p.is_integer():
        p_int = int(p)
        if p_int < 3 and np.any(x == 0.0):
            raise ValueError("power domain violation: zero base needs integer exponent >= 3")
        coeffs = [1.0, p, p * (p - 1.0), p * (p - 1.0) * (p - 2.0)]
        vals = [c * x ** (p_int - k) if c != 0.0 else np.zeros_like(x) for k, c in enumerate(coeffs)]
        return _compose(u, *vals)
    if np.any(x <= 0.0):
        raise ValueError("power domain violation: fractional exponent needs positive base")
    return _compose(
        u,
        x**p,
        p * x ** (p - 1.0),
        p * (p - 1.0) * x ** (p - 2.0),
        p * (p - 1.0) * (p - 2.0) * x ** (p - 3.0),
    )
