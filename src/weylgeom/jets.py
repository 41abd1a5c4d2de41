"""Forward-mode Taylor jets: exact mixed partials of chart functions to order 3.

A :class:`Jet3` carries the value of a scalar function of the chart
coordinates together with *all* of its partial derivatives through third
order.  Arithmetic and elementary functions propagate that data exactly
(truncated Taylor arithmetic), which is what lets the curvature pipeline
consume third metric derivatives at machine precision.  No numerical
differentiation happens anywhere in the library; finite differences exist
only in the test suite, as an independent oracle.

Storage: ``coeffs[..., m]`` is the Taylor coefficient of the m-th monomial
of degree <= 3 in the n chart variables, ``f(x + h) = sum_m coeffs[m] h^m``.
Monomials are index-sorted tuples ordered by degree, then lexically:
``()``, ``(0,)``, ..., ``(n-1,)``, ``(0, 0)``, ``(0, 1)``, ..., ``(n-1, n-1)``,
``(0, 0, 0)``, ..., ``(n-1, n-1, n-1)`` -- C(n+3, 3) of them (35, 56, 84 and
120 at n = 4, 5, 6, 7).  A sum is one array add; a product gathers the
coefficient pairs whose degrees sum to at most 3 and folds them onto their
target monomial with ``np.add.reduceat``; a function of a jet is its Taylor
polynomial in ``u - u(x)``.

The raw partials are read-only accessors in the layout ``d1[..., i] = ∂_i f``,
``d2[..., i, j] = ∂_i ∂_j f``, ``d3[..., i, j, k] = ∂_i ∂_j ∂_k f``: each entry
is the coefficient of its index-sorted monomial α times α! (the product of
the factorials of the index multiplicities; 1, 2 or 6).  ``d2`` and ``d3`` are
therefore exactly symmetric: every permutation of an index reads the same
stored number.  The leading axes ``...`` are empty for a jet at one point and
``(P,)`` for a jet evaluated at P chart points at once.  A constant jet has
no leading axes and broadcasts against a batched one.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = ["Jet3", "variables", "constant", "exp", "log", "sin", "cos", "power"]


@dataclass(frozen=True)
class Basis:
    """Index tables of the degree <= 3 monomials in n variables.

    ``partials[k]`` and ``weights[k]`` map the raw order-k partials, flattened
    over their n**k index tuples in lexical order, to the position of the
    index-sorted monomial and its α!.  ``left``, ``right`` and ``starts`` list
    every ordered pair of monomials whose product has degree <= 3, grouped by
    product monomial, for ``np.add.reduceat``.
    """

    size: int
    partials: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray


def _readonly(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@functools.cache
def basis(n: int) -> Basis:
    """The monomial tables for n variables, built on first use."""
    monomials = [m for k in range(4) for m in itertools.combinations_with_replacement(range(n), k)]
    position = {m: i for i, m in enumerate(monomials)}
    factorials = np.array([math.prod(map(math.factorial, Counter(m).values())) for m in monomials])
    partials, weights = [], []
    for k in range(4):
        grid = [position[tuple(sorted(idx))] for idx in itertools.product(range(n), repeat=k)]
        partials.append(_readonly(grid, np.intp))
        weights.append(_readonly(factorials[grid], float))
    left, right, starts = [], [], []
    for target in monomials:
        starts.append(len(left))
        divisors = {sub for r in range(len(target) + 1) for sub in itertools.combinations(target, r)}
        for alpha in sorted(divisors, key=lambda m: (len(m), m)):
            beta = tuple(sorted((Counter(target) - Counter(alpha)).elements()))
            left.append(position[alpha])
            right.append(position[beta])
    return Basis(
        size=len(monomials),
        partials=tuple(partials),
        weights=tuple(weights),
        left=_readonly(left, np.intp),
        right=_readonly(right, np.intp),
        starts=_readonly(starts, np.intp),
    )


def _times(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of the truncated product of two coefficient arrays."""
    t = basis(n)
    return np.add.reduceat(a[..., t.left] * b[..., t.right], t.starts, axis=-1)


def _constant_coeffs(value: float, n: int) -> np.ndarray:
    coeffs = np.zeros(basis(n).size)
    coeffs[0] = value
    return coeffs


@dataclass(frozen=True, eq=False)
class Jet3:
    """Taylor coefficients through order 3 of a scalar function of n variables.

    ``coeffs`` has shape ``(..., C(n+3, 3))``, one coefficient per monomial in
    the order of :func:`basis`.
    """

    coeffs: np.ndarray
    n: int

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim == 0 or coeffs.shape[-1] != basis(self.n).size:
            raise ValueError(
                f"jet coefficients must have shape (..., {basis(self.n).size}) for n = {self.n}, "
                f"got {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_partials(cls, value, d1, d2, d3) -> "Jet3":
        """The jet with these raw partials, read from the index-sorted entries."""
        parts = [np.asarray(part, dtype=float) for part in (value, d1, d2, d3)]
        lead = parts[0].shape
        n = parts[1].shape[-1] if parts[1].ndim else 0
        if any(part.shape != lead + (n,) * k for k, part in enumerate(parts)):
            raise ValueError(
                "jet derivative arrays must have shapes (..., n), (..., n,n), (..., n,n,n)"
            )
        t = basis(n)
        coeffs = []
        for k, part in enumerate(parts):
            # In lexical order an index-sorted tuple comes first among its permutations.
            _, first = np.unique(t.partials[k], return_index=True)
            coeffs.append(part.reshape(lead + (-1,))[..., first] / t.weights[k][first])
        return cls(np.concatenate(coeffs, axis=-1), n)

    # -- raw partials ------------------------------------------------------

    def _partials(self, k: int) -> np.ndarray:
        t = basis(self.n)
        flat = self.coeffs[..., t.partials[k]] * t.weights[k]
        return flat.reshape(self.coeffs.shape[:-1] + (self.n,) * k)

    @property
    def value(self) -> np.ndarray:
        return self.coeffs[..., 0]

    @property
    def d1(self) -> np.ndarray:
        return self.coeffs[..., 1 : self.n + 1]

    @property
    def d2(self) -> np.ndarray:
        return self._partials(2)

    @property
    def d3(self) -> np.ndarray:
        return self._partials(3)

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other) -> np.ndarray:
        if isinstance(other, Jet3):
            if other.n != self.n:
                raise ValueError("jets have different numbers of variables")
            return other.coeffs
        return _constant_coeffs(float(other), self.n)

    def __add__(self, other) -> "Jet3":
        return Jet3(self.coeffs + self._lift(other), self.n)

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return Jet3(-self.coeffs, self.n)

    def __sub__(self, other) -> "Jet3":
        return Jet3(self.coeffs - self._lift(other), self.n)

    def __rsub__(self, other) -> "Jet3":
        return Jet3(self._lift(other) - self.coeffs, self.n)

    def __mul__(self, other) -> "Jet3":
        if not isinstance(other, Jet3):
            return Jet3(float(other) * self.coeffs, self.n)
        return Jet3(_times(self.coeffs, self._lift(other), self.n), self.n)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet3":
        divisor = other if isinstance(other, Jet3) else constant(float(other), self.n)
        return self * _reciprocal(divisor)

    def __rtruediv__(self, other) -> "Jet3":
        return _reciprocal(self) * other

    def __pow__(self, exponent) -> "Jet3":
        return power(self, exponent)


def _compose(u: Jet3, f0, f1, f2, f3) -> Jet3:
    """F(u) from F, F', F'', F''' at u.value: f0 + f1 h + f2/2 h² + f3/6 h³, h = u - u(x)."""
    h = u.coeffs.copy()
    h[..., 0] = 0.0
    h2 = _times(h, h, u.n)
    h3 = _times(h2, h, u.n)
    g1, g2, g3 = (np.asarray(f)[..., None] for f in (f1, 0.5 * f2, f3 / 6.0))
    coeffs = g1 * h + g2 * h2 + g3 * h3
    coeffs[..., 0] = f0
    return Jet3(coeffs, u.n)


def _reciprocal(u: Jet3) -> Jet3:
    if np.any(u.value == 0.0):
        raise ValueError("jet division singularity")
    w = 1.0 / u.value
    return _compose(u, w, -w * w, 2.0 * w**3, -6.0 * w**4)


# -- constructors ----------------------------------------------------------


def constant(value: float, n: int) -> Jet3:
    """Jet of a constant: all derivatives vanish (no leading point axes)."""
    return Jet3(_constant_coeffs(value, n), n)


def variables(coords) -> list[Jet3]:
    """Coordinate jets: the i-th jet has value ``coords[..., i]`` and d1 = e_i.

    ``coords`` of shape ``(n,)`` gives jets at one point; shape ``(P, n)``
    gives jets at P points, with a leading point axis.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[-1]
    out = []
    for i in range(n):
        coeffs = np.zeros(coords.shape[:-1] + (basis(n).size,))
        coeffs[..., 0] = coords[..., i]
        coeffs[..., 1 + i] = 1.0
        out.append(Jet3(coeffs, n))
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

    Integer exponents are valid for any base, except a negative exponent at a
    zero base; fractional exponents require a positive base.
    """
    p = float(exponent)
    x = u.value
    if p.is_integer():
        p_int = int(p)
        if p_int < 0 and np.any(x == 0.0):
            raise ValueError("power domain violation: a negative integer exponent is singular at a zero base")
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
