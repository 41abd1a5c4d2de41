"""Forward-mode Taylor jets: exact mixed partials of chart functions to order 3.

A :class:`Jet3` carries the value of a scalar function of the chart
coordinates together with *all* of its partial derivatives through its
order, 3 or 2.  Arithmetic and elementary functions propagate that data
exactly (truncated Taylor arithmetic), which is what lets the curvature
pipeline consume third metric derivatives at machine precision.  No
numerical differentiation happens anywhere in the library; finite
differences exist only in the test suite, as an independent oracle.

Storage: ``coeffs[..., m]`` is the Taylor coefficient of the m-th monomial
of degree <= order in the n chart variables, ``f(x + h) = sum_m coeffs[m] h^m``.
Monomials are index-sorted tuples ordered by degree, then lexically:
``()``, ``(0,)``, ..., ``(n-1,)``, ``(0, 0)``, ``(0, 1)``, ..., ``(n-1, n-1)``,
``(0, 0, 0)``, ..., ``(n-1, n-1, n-1)``.  Order 3 has C(n+3, 3) of them (35,
56, 84 and 120 at n = 4, 5, 6, 7); order 2 has the first C(n+2, 2) (15, 21,
28 and 36).  Every jet carries the :class:`Basis` of its n and order, and
jets combine only with jets of the same table.  A sum is one array add; a
product gathers the coefficient pairs whose degrees sum to at most the order
and folds them onto their target monomial with ``np.add.reduceat``; a
function of a jet is its Taylor polynomial in ``u - u(x)``.  A constant is
a number, not a jet: a number combines with a jet as a constant function
does, and a function of a number is a number.

A jet that is an affine function ``c x_i + a`` of one coordinate carries
that coordinate as its ``axis``: :func:`variables` tags each coordinate jet,
and multiplying by, adding or subtracting a finite number, dividing by a
finite non-zero one (a scaling by its reciprocal, if that is finite), or
negating, keeps the tag, while every other operation drops it.  A function
of a tagged jet has nonzero coefficients on 1, x_i, x_i² and x_i³ only,
written directly, with no product of jets; those coefficients are bit for
bit the ones the general composition gives, since they are formed from the
same factors in the same order.

An order-2 jet is bit for bit the first C(n+2, 2) coefficients of the
order-3 jet computed the same way: a target monomial's product pairs, and
their order, do not depend on the jet order, and the cubic term of a
function of a jet changes its degree-3 monomials only.

The raw partials are read-only accessors in the layout ``d1[..., i] = ∂_i f``,
``d2[..., i, j] = ∂_i ∂_j f``, ``d3[..., i, j, k] = ∂_i ∂_j ∂_k f`` (order 3
only): each entry is the coefficient of its index-sorted monomial α times α!
(the product of the factorials of the index multiplicities; 1, 2 or 6).
``d2`` and ``d3`` are therefore exactly symmetric: every permutation of an
index reads the same stored number.  The leading axes ``...`` are empty for
a jet at one point and ``(P,)`` for a jet evaluated at P chart points at
once.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Jet3", "variables", "reciprocal", "exp", "log", "sin", "cos", "power"]


@dataclass(frozen=True)
class Basis:
    """Index tables of the degree <= ``order`` monomials in ``n`` variables.

    ``top`` is the position of the first monomial of degree ``order``.
    ``partials[k]`` and ``weights[k]`` (k <= order) map the raw order-k
    partials, flattened over their n**k index tuples in lexical order, to the
    position of the index-sorted monomial and its α!.  ``left``, ``right``
    and ``starts`` list every ordered pair of monomials whose product has
    degree <= order, grouped by product monomial, for ``np.add.reduceat``.
    """

    n: int
    order: int
    size: int
    top: int
    partials: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray
    powers: np.ndarray


def _readonly(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@functools.cache
def basis(n: int, order: int) -> Basis:
    """The monomial tables for n variables at order 3 or 2, built on first use."""
    if order not in (2, 3):
        raise ValueError(f"jet order must be 2 or 3, got {order!r}")
    monomials = [m for k in range(order + 1) for m in itertools.combinations_with_replacement(range(n), k)]
    position = {m: i for i, m in enumerate(monomials)}
    factorials = np.array([math.prod(map(math.factorial, Counter(m).values())) for m in monomials])
    partials, weights = [], []
    for k in range(order + 1):
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
        n=n,
        order=order,
        size=len(monomials),
        top=math.comb(n + order - 1, order - 1),
        partials=tuple(partials),
        weights=tuple(weights),
        left=_readonly(left, np.intp),
        right=_readonly(right, np.intp),
        starts=_readonly(starts, np.intp),
        powers=_readonly([[position[(i,) * k] for k in range(1, order + 1)] for i in range(n)], np.intp),
    )


def _times(a: np.ndarray, b: np.ndarray, t: Basis) -> np.ndarray:
    """Coefficients of the truncated product of two coefficient arrays."""
    return np.add.reduceat(a[..., t.left] * b[..., t.right], t.starts, axis=-1)


@dataclass(frozen=True, eq=False)
class Jet3:
    """Taylor coefficients through order 3 or 2 of a scalar function of n variables.

    ``table`` is the :class:`Basis` of the jet's n and order,
    ``basis(n, order)``, and ``coeffs`` has shape ``(..., table.size)``:
    C(n+3, 3) coefficients at order 3 and C(n+2, 2) at order 2, one per
    monomial in the table's order.  ``axis`` is i when the jet is known to be
    ``c x_i + a`` (see the module docstring), and ``None`` otherwise.
    """

    coeffs: np.ndarray
    table: Basis = field(repr=False)
    axis: int | None = None

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape[-1:] != (self.table.size,):
            shape = f"(..., {self.table.size}) for n = {self.n} at order {self.table.order}"
            raise ValueError(f"jet coefficients must have shape {shape}, got {coeffs.shape}")
        if coeffs is not self.coeffs:
            object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.table.n

    # -- raw partials ------------------------------------------------------

    def _partials(self, k: int) -> np.ndarray:
        t = self.table
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
        if self.table.order < 3:
            raise ValueError("an order-2 jet has no third partials")
        return self._partials(3)

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients of ``self`` and of ``other``: a jet of the same n
        and order, or a number, whose jet is constant."""
        t = self.table
        if not isinstance(other, Jet3):
            constant = np.zeros(t.size)
            constant[0] = float(other)
            return self.coeffs, constant
        if (other.n, other.table.order) != (self.n, t.order):
            pair = f"n = {self.n} at order {t.order} and of n = {other.n} at order {other.table.order}"
            raise ValueError(f"jets of {pair} do not combine")
        return self.coeffs, other.coeffs

    def _kept(self, other) -> int | None:
        """The axis a sum, difference or product with ``other`` keeps: this
        jet's when ``other`` is a finite number."""
        if self.axis is None or isinstance(other, Jet3) or not math.isfinite(float(other)):
            return None
        return self.axis

    def __add__(self, other) -> "Jet3":
        a, b = self._lift(other)
        return Jet3(a + b, self.table, self._kept(other))

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return Jet3(-self.coeffs, self.table, self.axis)

    def __sub__(self, other) -> "Jet3":
        a, b = self._lift(other)
        return Jet3(a - b, self.table, self._kept(other))

    def __rsub__(self, other) -> "Jet3":
        a, b = self._lift(other)
        return Jet3(b - a, self.table, self._kept(other))

    def __mul__(self, other) -> "Jet3":
        if not isinstance(other, Jet3):
            return Jet3(float(other) * self.coeffs, self.table, self._kept(other))
        return Jet3(_times(*self._lift(other), self.table), self.table)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet3":
        return self * reciprocal(other)

    def __rtruediv__(self, other) -> "Jet3":
        return reciprocal(self) * other

    def __pow__(self, exponent) -> "Jet3":
        return power(self, exponent)


def _value(u: Jet3 | float) -> np.ndarray:
    """A jet's value, or a number as ``np.float64``, which overflows to inf."""
    return u.value if isinstance(u, Jet3) else np.float64(u)


def _compose(u: Jet3 | float, f0, f1, f2, f3) -> Jet3 | float:
    """F(u) from F, F', F'', F''' at u.value: f0 + f1 h + f2/2 h² + f3/6 h³, h = u - u(x);
    a number u gives the number f0.

    h³ (order 3 only) starts at degree 3, and its lower entries are exact
    zeros.  They are set to -0.0, which leaves every entry it is added to as
    it is (-0.0 + -0.0 is -0.0), so the lower entries are those of the
    order-2 jet bit for bit.

    For a jet tagged with an axis i, h = c x_i, so h² = c² x_i² and h³ = c³ x_i³:
    the three coefficients are written directly, as f1 c, (f2/2) c² and
    (f3/6)(c² c), the products in the order the general case forms them."""
    if not isinstance(u, Jet3):
        return float(f0)
    t = u.table
    if u.axis is not None:
        c = u.coeffs[..., 1 + u.axis]
        c2 = c * c
        coeffs = np.zeros(u.coeffs.shape)
        coeffs[..., 0] = f0
        powers = t.powers[u.axis]
        coeffs[..., powers[0]] = f1 * c
        coeffs[..., powers[1]] = 0.5 * f2 * c2
        if t.order == 3:
            coeffs[..., powers[2]] = f3 / 6.0 * (c2 * c)
        return Jet3(coeffs, t)
    h = u.coeffs.copy()
    h[..., 0] = 0.0
    h2 = _times(h, h, t)
    h3 = _times(h2, h, t) if t.order == 3 else None
    g1, g2, g3 = (np.asarray(f)[..., None] for f in (f1, 0.5 * f2, f3 / 6.0))
    coeffs = g1 * h + g2 * h2
    if h3 is not None:
        cubic = g3 * h3
        cubic[..., : t.top] = -0.0
        coeffs = coeffs + cubic
    coeffs[..., 0] = f0
    return Jet3(coeffs, t)


def reciprocal(u: Jet3 | float) -> Jet3 | float:
    """1/u of a jet, or of a number, which stays a number; a zero value raises.
    A number is divided in Python floats, which give inf past the float range."""
    value = u.value if isinstance(u, Jet3) else float(u)
    if np.any(value == 0.0):
        raise ValueError("jet division singularity")
    w = 1.0 / value
    return _compose(u, w, -w * w, 2.0 * w**3, -6.0 * w**4) if isinstance(u, Jet3) else w


def variables(coords, order: int = 3) -> list[Jet3]:
    """Coordinate jets of the given order: the i-th jet has value
    ``coords[..., i]``, d1 = e_i and axis i.

    ``coords`` of shape ``(n,)`` gives jets at one point; shape ``(P, n)``
    gives jets at P points, with a leading point axis.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[-1]
    table = basis(n, order)
    out = []
    for i in range(n):
        coeffs = np.zeros(coords.shape[:-1] + (table.size,))
        coeffs[..., 0] = coords[..., i]
        coeffs[..., 1 + i] = 1.0
        out.append(Jet3(coeffs, table, i))
    return out


# -- elementary functions: a jet gives a jet, a number a number -------------


def exp(u: Jet3 | float) -> Jet3 | float:
    e = np.exp(_value(u))
    return _compose(u, e, e, e, e)


def log(u: Jet3 | float) -> Jet3 | float:
    x = _value(u)
    if np.any(x <= 0.0):
        raise ValueError("log domain violation: jet value must be positive")
    w = 1.0 / x
    return _compose(u, np.log(x), w, -w * w, 2.0 * w**3)


def sin(u: Jet3 | float) -> Jet3 | float:
    s, c = np.sin(_value(u)), np.cos(_value(u))
    return _compose(u, s, c, -s, -c)


def cos(u: Jet3 | float) -> Jet3 | float:
    s, c = np.sin(_value(u)), np.cos(_value(u))
    return _compose(u, c, -s, -c, s)


def power(u: Jet3 | float, exponent: float) -> Jet3 | float:
    """u**p with the direct derivative formulas.

    Integer exponents are valid for any base, except a negative exponent at a
    zero base; fractional exponents require a positive base.
    """
    p = float(exponent)
    x = _value(u)
    if p.is_integer():
        if p < 0 and np.any(x == 0.0):
            raise ValueError("power domain violation: a negative integer exponent is singular at a zero base")
        e = int(p)
    elif np.any(x <= 0.0):
        raise ValueError("power domain violation: fractional exponent needs positive base")
    else:
        e = p
    # A zero coefficient (p = 0, 1 or 2) gives a zero term, even where x**(e - k) is infinite.
    coeffs = [1.0, p, p * (p - 1.0), p * (p - 1.0) * (p - 2.0)]
    return _compose(u, *(c * x ** (e - k) if c != 0.0 else np.zeros_like(x) for k, c in enumerate(coeffs)))
