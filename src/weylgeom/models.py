"""Catalog of explicit chart-level metrics and deterministic point sampling.

Every model is a named, parameterized recipe that produces third- or
second-order Taylor data (:class:`~weylgeom.jets.Jet3`) for each metric
component at a chart point, together with a declared comoving velocity
field ``u^a = (1, 0, ..., 0)`` and an ``expected_class`` tag that the
identity suite uses to decide which checks are assertions, which are
expected failures, and which do not apply.
A model's metric is one function of the coordinate jets that returns each
stored component as a jet, or as a number when it is constant; a factor
several components share (a scale factor f²) is a local value in it,
computed once per call.

The chart convention is ``x^0 = t`` first, signature (-, +, ..., +).  Block
models take the form ``ds^2 = -dt^2 + f(t, x)^2 g*_{mu nu}(x) dx^mu dx^nu``;
the negative control breaks that block structure with an off-diagonal term.

User-defined diagonal metrics can be declared in a run config through the
``custom_diagonal`` catalog entry: each diagonal component is an expression
over ``t, x1, ..., x{n-1}`` using ``+ - * / **``, ``exp``, ``log``, ``sin``,
``cos`` and ``pow``, compiled through a whitelisted AST walk (no code
execution).
"""

from __future__ import annotations

import ast
import functools
import json
import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import jets
from .jets import Jet3
from .tensors import _COND_LIMIT

__all__ = [
    "ChartPoint",
    "MetricJets",
    "MetricModel",
    "builtin_model",
    "sample_points",
    "evaluate_metric_jets",
    "coordinate_names",
    "compile_expression",
    "CATALOG_NAMES",
    "MODEL_CLASSES",
    "default_model_specs",
    "check_dimension",
    "model_dimensions",
    "is_finite_real",
]

# A chart point is a plain 1-D float array, x^0 = t first; P points stack
# into a (P, n) array.
ChartPoint = np.ndarray

MODEL_CLASSES = ("minkowski", "rw", "grw", "twisted", "non_twisted")

# Classes on which the comoving velocity is torse-forming by construction.
TORSE_CLASSES = frozenset({"minkowski", "rw", "grw", "twisted"})

# Identities the built-in negative control is expected to fail.  Only the
# torse-forming failure is definitional for the non_twisted class; the other
# three are measured properties of that specific perturbation (a custom
# control may, e.g., still have a purely electric Weyl tensor).
NEGATIVE_CONTROL_EXPECTED_FAILURES = frozenset(
    {
        "torse_forming",
        "weyl_compatibility",
        "weyl_divergence_formula",
        "electric_rep_n4",
    }
)

EntryFn = Callable[[Sequence[Jet3]], Jet3 | float]

MetricFn = Callable[[Sequence[Jet3]], dict[tuple[int, int], Jet3 | float]]


@dataclass(frozen=True, eq=False)
class MetricJets:
    """Metric components and their coordinate derivatives at one or more points.

    ``value[..., a, b] = g_ab``, ``d1[..., p, a, b] = ∂_p g_ab``,
    ``d2[..., p, q, a, b] = ∂_p ∂_q g_ab``,
    ``d3[..., p, q, r, a, b] = ∂_p ∂_q ∂_r g_ab``; the leading axes ``...``
    are those of the chart points (none for one point, ``(P,)`` for P).
    All arrays are exactly symmetric in (a, b) and in the derivative slots.
    ``d3`` is ``None`` for jets of order 2.
    """

    n: int
    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray | None


@dataclass(frozen=True, eq=False)
class MetricModel:
    """Named, parameterized chart-level metric producing jet data per point.

    ``entries(xj)`` maps each stored component (a, b) to its jet at the
    coordinate jets ``xj``, of their order, or to a number when the
    component is constant; (b, a) mirrors an off-diagonal component, and an
    absent component is zero.
    """

    name: str
    n: int
    parameters: dict
    expected_class: str
    entries: MetricFn
    bounds: tuple[tuple[float, float], ...]
    description: str
    expected_failures: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.expected_class not in MODEL_CLASSES:
            raise ValueError(f"unknown expected_class {self.expected_class!r}")
        if len(self.bounds) != self.n:
            raise ValueError("one sampling interval per coordinate is required")

    @property
    def label(self) -> str:
        suffix = f"_n{self.n}"
        return self.name if self.name.endswith(suffix) else self.name + suffix

    @property
    def u_up(self) -> np.ndarray:
        """Declared comoving velocity components (chart-constant): u = ∂_t,
        ``(1, 0, ..., 0)`` in every model.  The bundle kernels and the identity
        suite rely on this: each contraction with u reads index 0 of its slot
        (u_a = g_a0, E_kl = C_0kl0, u^p ∇_p T = ∇_0 T)."""
        u = np.zeros(self.n)
        u[0] = 1.0
        return u

    def metric_jets(self, points: ChartPoint, order: int = 3) -> MetricJets:
        """Evaluate all g_ab jets of the given order (3 or 2) at one point
        ``(n,)`` or at points ``(P, n)``.

        Raises ``ValueError`` naming the first point whose coordinates or
        metric components (through the order's partials) are not finite, as
        :func:`evaluate_metric_jets` checks them on its weighted coefficient
        stack, or whose metric has not exactly one negative eigenvalue ("not
        Lorentzian"), or is singular: an eigenvalue of 0, or too
        ill-conditioned to invert reliably.
        """
        mj = evaluate_metric_jets(self.entries, self.n, points, order)
        coords = np.reshape(points, (-1, self.n))
        eigvals = np.linalg.eigvalsh(mj.value).reshape(-1, self.n)
        magnitudes = np.abs(eigvals)
        smallest = magnitudes.min(axis=1)
        # An eigenvalue of exactly 0 makes the metric singular, as a tiny one
        # does, whatever the signs of the others: the conditioning check
        # names such a point.
        lorentzian = (np.sum(eigvals < 0.0, axis=1) == 1) | (smallest == 0.0)
        if not lorentzian.all():
            bad = coords[np.argmin(lorentzian)].tolist()
            raise ValueError(f"metric signature is not Lorentzian at point {bad}")
        # For a symmetric matrix the 2-norm condition number is the ratio of
        # the largest to the smallest eigenvalue magnitude.
        conditioned = (magnitudes.max(axis=1) <= _COND_LIMIT * smallest) & (smallest > 0.0)
        if not conditioned.all():
            bad = coords[np.argmin(conditioned)].tolist()
            raise ValueError(f"singular metric at point {bad}")
        return mj


def coordinate_names(n: int) -> tuple[str, ...]:
    """Chart coordinate names in order: ``t, x1, ..., x{n-1}``."""
    return ("t",) + tuple(f"x{i}" for i in range(1, n))


def evaluate_metric_jets(entries: MetricFn, n: int, points: ChartPoint, order: int = 3) -> MetricJets:
    """Evaluate a metric's jets of the given order (3 or 2) at one point
    ``(n,)`` or at points ``(P, n)``.

    ``entries`` runs once per call, on the coordinate jets of all points, so
    a factor that several of its components share is computed once.  A
    component that is a number is that value with zero partials at every
    point.  The components' Taylor coefficients are stacked once, each
    monomial's row times its α!, beside one zero column; each order of
    partials is then one gather from that stack, writing every component to
    (a, b) and exactly mirrored to (b, a); at order 2, ``d3`` is ``None``.

    Raises ``ValueError`` naming the coordinate when a coordinate is not
    finite (before ``entries`` runs), and naming the first point whose
    weighted stack holds a value that is not finite: every partial is one
    entry of that stack or an exact 0.0, so those are the points with a
    non-finite metric component through the order's partials.
    """
    coords = np.asarray(points, dtype=float)
    if coords.ndim not in (1, 2) or coords.shape[-1] != n:
        raise ValueError(f"point must have {n} coordinates, got shape {coords.shape}")
    rows = coords.reshape(-1, n)
    if not np.isfinite(rows).all():
        row, col = np.argwhere(~np.isfinite(rows))[0]
        raise ValueError(
            f"chart coordinate {coordinate_names(n)[col]} = {rows[row, col]} is not finite "
            f"at point {rows[row].tolist()}"
        )
    lead = coords.shape[:-1]
    # A component that overflows or leaves its domain, or whose weighted
    # coefficient overflows, is rejected below point by point; numpy's
    # warnings would only repeat that on stderr.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        components = entries(jets.variables(coords, order))
        factorials, gathers = _partial_gathers(n, order, tuple(components))
        # Column k of `stack` holds the Taylor coefficients of the k-th
        # component; the last column stays 0.0.
        stack = np.zeros(lead + (len(factorials), len(components) + 1))
        for k, component in enumerate(components.values()):
            if isinstance(component, Jet3):
                stack[..., k] = component.coeffs
            else:
                stack[..., 0, k] = component
        stack *= factorials[:, None]
    finite = np.isfinite(stack).reshape(len(rows), -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite metric components at point {rows[np.argmin(finite)].tolist()}")
    flat = stack.reshape(lead + (-1,))
    orders = [
        np.take(flat, index, axis=-1).reshape(lead + (n,) * (k + 2)) for k, index in enumerate(gathers)
    ]
    return MetricJets(n, *orders, *[None] * (3 - order))


@functools.cache
def _partial_gathers(
    n: int, order: int, keys: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The α! of each monomial of ``jets.basis(n, order)``, and for each order
    k <= ``order`` the flat positions in :func:`evaluate_metric_jets`'s stack
    (a row per monomial, a column per key, then the zero column) of the
    order-k partials in the layout (index tuple, a, b): the stored component
    at (a, b) and at (b, a) for each key (a, b), the zero column elsewhere."""
    table = jets.basis(n, order)
    factorials = np.empty(table.size)
    width = len(keys) + 1
    column = np.full((n, n), len(keys))
    for k, (a, b) in enumerate(keys):
        column[a, b] = column[b, a] = k
    gathers = []
    for monomials, weights in zip(table.partials, table.weights):
        factorials[monomials] = weights
        gathers.append((monomials[:, None, None] * width + column).ravel())
    for array in (factorials, *gathers):
        array.setflags(write=False)
    return factorials, tuple(gathers)


def sample_points(model: MetricModel, count: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random chart points inside the model's domain.

    Returns an array of shape ``(count, n)``; row k is the k-th point.
    """
    if count < 1:
        raise ValueError("empty sample")
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in model.bounds])
    hi = np.array([b[1] for b in model.bounds])
    return lo + (hi - lo) * rng.random((count, model.n))


# ---------------------------------------------------------------------------
# Expression grammar for user-defined diagonal metrics
# ---------------------------------------------------------------------------

_ALLOWED_CALLS = {"exp": jets.exp, "log": jets.log, "sin": jets.sin, "cos": jets.cos}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    # As a jet divides: a times 1/b, and a zero b raises ValueError, not ZeroDivisionError.
    ast.Div: lambda a, b: a * jets.reciprocal(b),
}

# Deepest nesting a metric expression may have, in syntax-tree levels.
# Compiling and evaluating it recurse once per level, so the bound keeps both
# well inside Python's recursion limit (a 600-term sum nests 600 levels deep).
MAX_EXPRESSION_DEPTH = 700


def _depth(tree: ast.Expression) -> int:
    """The nesting depth of an expression, measured level by level."""
    depth, level = 0, [tree.body]
    while level:
        depth, level = depth + 1, [child for node in level for child in ast.iter_child_nodes(node)]
    return depth


def compile_expression(source: str, n: int) -> EntryFn:
    """Compile one metric-entry expression into a closure over the
    coordinate jets.

    The closure returns a jet, or a number when the expression is constant:
    a literal, and a function or power of a number, stays a number.

    The grammar admits numeric literals (not ``True`` or ``False``; an integer
    too large for a float is infinite), the names ``t`` and ``x1 .. x{n-1}``,
    the operators ``+ - * / **`` (exponents must be numeric literals), unary
    minus, and calls to ``exp``, ``log``, ``sin``, ``cos``, ``pow``.
    Anything else, or nesting deeper than ``MAX_EXPRESSION_DEPTH``, is rejected.
    """
    names = {name: i for i, name in enumerate(coordinate_names(n))}
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as err:
        raise ValueError(f"invalid metric expression {source!r}: {err}") from None
    except RecursionError:
        tree = None
    if tree is None or _depth(tree) > MAX_EXPRESSION_DEPTH:
        shown = source if len(source) <= 60 else source[:57] + "..."
        raise ValueError(f"metric expression {shown!r} nests deeper than {MAX_EXPRESSION_DEPTH} levels")

    def build(node: ast.AST) -> Callable[[Sequence[Jet3]], Jet3 | float]:
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            c = _literal(node, f"non-numeric literal in metric expression {source!r}")
            return lambda xj: c
        if isinstance(node, ast.Name):
            if node.id not in names:
                raise ValueError(f"unknown name {node.id!r} in metric expression {source!r}")
            idx = names[node.id]
            return lambda xj: xj[idx]
        # Operands, power bases and function arguments are taken as they are,
        # so a number stays a number.
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = build(node.operand)
            sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
            return lambda xj: sign * inner(xj)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            left, right = build(node.left), build(node.right)
            op = _BINOPS[type(node.op)]
            return lambda xj: op(left(xj), right(xj))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pow":
            if len(node.args) != 2 or node.keywords:
                raise ValueError(f"pow() takes exactly two arguments in {source!r}")
            node = ast.BinOp(node.args[0], ast.Pow(), node.args[1])
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base = build(node.left)
            expo = _literal(node.right, f"exponent must be a numeric literal in metric expression {source!r}")
            return lambda xj: jets.power(base(xj), expo)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fname = node.func.id
            if fname in _ALLOWED_CALLS and len(node.args) == 1 and not node.keywords:
                fn = _ALLOWED_CALLS[fname]
                arg = build(node.args[0])
                return lambda xj: fn(arg(xj))
            raise ValueError(f"unsupported call {fname!r} in metric expression {source!r}")
        raise ValueError(
            f"unsupported syntax {type(node).__name__} in metric expression {source!r}"
        )

    return build(tree)


def _literal(node: ast.AST, message: str) -> float:
    """A numeric literal, or a negated one, as a float (±inf past the float
    range); anything else, a bool included, raises ``ValueError(message)``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_literal(node.operand, message)
    if not (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
        raise ValueError(message)
    try:
        return float(node.value)
    except OverflowError:  # an integer literal has no sign: its minus is a UnaryOp
        return math.inf


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

_T_BOUNDS = (0.1, 2.0)
_SPATIAL_BOUNDS = (-1.2, 1.2)
_ANGLE_BOUNDS = (0.3, math.pi - 0.3)


def is_finite_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, of finite magnitude.
    The comparison is False for NaN too, and exact for an integer too large
    for a float."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


def _number(params: dict, key: str, default: float) -> float:
    """The finite real parameter ``key``, or ``default`` when it is absent.

    Booleans, strings and non-finite values are rejected, not converted.
    """
    value = params.get(key, default)
    if not is_finite_real(value):
        raise ValueError(f"parameter {key!r} must be a finite number, got {reprlib.repr(value)}")
    return float(value)


# The dimensions the catalog builds: the paper's statements hold for n > 3.
DIMENSIONS = range(4, 8)


def _span(dimensions: range) -> str:
    """``4..7`` for a range of dimensions, ``5`` for a single one."""
    return f"{dimensions[0]}..{dimensions[-1]}" if len(dimensions) > 1 else str(dimensions[0])


def check_dimension(n, dimensions: range = DIMENSIONS, what: str = "dimension n") -> int:
    """``n`` as an ``int`` when it is an integer (not a bool) in ``dimensions``;
    anything else, a float such as 5.0 or a string such as ``"5"`` included,
    is a ``ValueError`` naming ``what``."""
    if isinstance(n, numbers.Integral) and not isinstance(n, bool) and int(n) in dimensions:
        return int(n)
    bound = f"an integer in {_span(dimensions)}" if len(dimensions) > 1 else _span(dimensions)
    raise ValueError(f"{what} must be {bound}, got {reprlib.repr(n)}")


def _minkowski(n: int, params: dict) -> MetricModel:
    def entries(xj: Sequence[Jet3]) -> dict:
        return {(0, 0): -1.0, **{(mu, mu): 1.0 for mu in range(1, n)}}

    return MetricModel(
        name="minkowski",
        n=n,
        parameters={},
        expected_class="minkowski",
        entries=entries,
        bounds=(_T_BOUNDS,) + (_SPATIAL_BOUNDS,) * (n - 1),
        description="flat metric diag(-1, 1, ..., 1)",
    )


_RW_SCALE_CHOICES = ("exp", "power", "one_plus_t2")


def _rw_flat(n: int, params: dict) -> MetricModel:
    choice = params.get("f", "exp")
    if choice not in _RW_SCALE_CHOICES:
        raise ValueError(f"rw_flat scale choice must be one of {_RW_SCALE_CHOICES}")
    used: dict = {"f": choice}
    if choice == "exp":
        h = _number(params, "H", 0.3)
        used["H"] = h
        scale_sq: EntryFn = lambda xj: jets.exp((2.0 * h) * xj[0])
    elif choice == "power":
        k = _number(params, "k", 2.0)
        used["k"] = k
        scale_sq = lambda xj: jets.power(xj[0], 2.0 * k)
    else:
        scale_sq = lambda xj: jets.power(1.0 + xj[0] * xj[0], 2)

    def entries(xj: Sequence[Jet3]) -> dict:
        f_sq = scale_sq(xj)
        return {(0, 0): -1.0, **{(mu, mu): f_sq for mu in range(1, n)}}

    return MetricModel(
        name="rw_flat",
        n=n,
        parameters=used,
        expected_class="rw",
        entries=entries,
        bounds=(_T_BOUNDS,) + (_SPATIAL_BOUNDS,) * (n - 1),
        description="spatially flat expanding metric -dt^2 + f(t)^2 dx^2 (zero Weyl tensor)",
    )


def _grw_product_spheres(n: int, params: dict) -> MetricModel:
    r1 = _number(params, "r1", 1.0)
    r2 = _number(params, "r2", 1.0)
    h = _number(params, "H", 0.3)
    if r1 <= 0 or r2 <= 0:
        raise ValueError("sphere radii must be positive")

    def entries(xj: Sequence[Jet3]) -> dict:
        f_sq = jets.exp((2.0 * h) * xj[0])
        g11, g33 = r1 * r1 * f_sq, r2 * r2 * f_sq
        return {
            (0, 0): -1.0,
            (1, 1): g11,
            (2, 2): g11 * jets.power(jets.sin(xj[1]), 2),
            (3, 3): g33,
            (4, 4): g33 * jets.power(jets.sin(xj[3]), 2),
        }

    return MetricModel(
        name="grw_product_spheres",
        n=n,
        parameters={"r1": r1, "r2": r2, "H": h},
        expected_class="grw",
        entries=entries,
        bounds=(_T_BOUNDS,) + (_ANGLE_BOUNDS,) * 4,
        description=(
            "time-only scale factor exp(H t) over a product-of-two-spheres fiber; "
            "with r1 = r2 the fiber is Einstein, so the electric Weyl part vanishes "
            "while the Weyl tensor does not"
        ),
    )


def _twisted_entries(n: int, alpha: float, beta: float, eps: float) -> MetricFn:
    # Fiber entry mu depends on the *next* spatial coordinate (cyclically).
    # A diagonal metric whose entries each depend on their own coordinate is
    # flat (a coordinate stretch of Euclidean space), which would make the
    # fiber conformally flat and the Weyl-remainder checks vacuous; the
    # shifted dependence keeps the fiber genuinely curved.
    def entries(xj: Sequence[Jet3]) -> dict:
        t, x1 = xj[0], xj[1]
        f_sq = jets.exp(2.0 * (alpha * t + beta * t * jets.sin(x1)))
        spatial = {(mu, mu): f_sq * (1.0 + eps * jets.cos(xj[1 + mu % (n - 1)])) for mu in range(1, n)}
        return {(0, 0): -1.0, **spatial}

    return entries


def _twisted_parameters(params: dict) -> tuple[float, float, float]:
    """The twisted family's alpha, beta and eps, with |eps| < 0.9 (a positive fiber)."""
    alpha = _number(params, "alpha", 0.2)
    beta = _number(params, "beta", 0.1)
    eps = _number(params, "eps", 0.05)
    if not -0.9 < eps < 0.9:
        raise ValueError("fiber perturbation eps must keep the metric Riemannian (|eps| < 0.9)")
    return alpha, beta, eps


def _twisted_generic(n: int, params: dict) -> MetricModel:
    alpha, beta, eps = _twisted_parameters(params)
    return MetricModel(
        name="twisted_generic",
        n=n,
        parameters={"alpha": alpha, "beta": beta, "eps": eps},
        expected_class="twisted",
        entries=_twisted_entries(n, alpha, beta, eps),
        bounds=(_T_BOUNDS,) + (_SPATIAL_BOUNDS,) * (n - 1),
        description=(
            "genuinely twisted metric: non-separable scale factor "
            "f = exp(alpha t + beta t sin(x1)) over a curved diagonal fiber "
            "g*_mm = 1 + eps cos(x_{m+1}) (cyclic coordinate dependence)"
        ),
    )


def _twisted_n4(n: int, params: dict) -> MetricModel:
    return replace(
        _twisted_generic(n, params),
        name="twisted_n4",
        description="four-dimensional member of the twisted family",
    )


def _non_twisted_perturbed(n: int, params: dict) -> MetricModel:
    delta = _number(params, "delta", 0.1)
    alpha, beta, eps = _twisted_parameters(params)
    twisted = _twisted_entries(n, alpha, beta, eps)

    # The off-block perturbation must depend on a coordinate other than x1:
    # delta*sin(x1) dt dx1 is an exact form, absorbable into a time
    # redefinition, and would violate the torse-forming condition only at
    # order delta^2.  delta*sin(x2) dt dx1 is non-integrable and gives the
    # declared velocity O(delta) vorticity at almost every point.
    def entries(xj: Sequence[Jet3]) -> dict:
        return {**twisted(xj), (0, 1): delta * jets.sin(xj[2])}

    return MetricModel(
        name="non_twisted_perturbed",
        n=n,
        parameters={"delta": delta, "alpha": alpha, "beta": beta, "eps": eps},
        expected_class="non_twisted",
        entries=entries,
        bounds=(_T_BOUNDS,) + (_SPATIAL_BOUNDS,) * (n - 1),
        description=(
            "negative control: twisted metric plus an off-block term g_01 = delta sin(x2), "
            "so the comoving velocity acquires vorticity and is no longer torse-forming"
        ),
        expected_failures=NEGATIVE_CONTROL_EXPECTED_FAILURES,
    )


def _diagonal_entry(entry, index: int, n: int) -> EntryFn:
    """The ``g_diag`` entry at ``index``: an expression string, compiled, or
    a finite number (not a bool), that constant.  Anything else raises
    ``ValueError`` naming the position and what the entry is (``true``,
    ``false`` and ``null`` in their JSON spelling)."""
    if isinstance(entry, str):
        return compile_expression(entry, n)
    if is_finite_real(entry):
        value = float(entry)
        return lambda xj: value
    if entry is None or isinstance(entry, bool):
        got = json.dumps(entry)
    elif isinstance(entry, numbers.Real):
        got = "a number that is not finite"
    else:
        got = f"a {type(entry).__name__}"
    raise ValueError(
        f"custom_diagonal g_diag[{index}] must be an expression string or a finite number, got {got}"
    )


def _custom_diagonal(n: int, params: dict) -> MetricModel:
    exprs = params.get("g_diag")
    if not isinstance(exprs, (list, tuple)) or len(exprs) != n:
        raise ValueError("custom_diagonal needs a list 'g_diag' of n expression strings or numbers")
    expected_class = params.get("expected_class", "twisted")
    compiled = [_diagonal_entry(entry, index, n) for index, entry in enumerate(exprs)]
    used = {"g_diag": list(exprs), "expected_class": expected_class}
    if "expected_failures" in params:
        declared = params["expected_failures"]
        if not isinstance(declared, (list, tuple)) or not all(isinstance(i, str) for i in declared):
            raise ValueError(
                f"'expected_failures' must be a list of identity ids, got {declared!r}"
            )
        expected_failures = frozenset(declared)
        used["expected_failures"] = sorted(expected_failures)
    else:
        # Failing the torse-forming check is what "non_twisted" means; any
        # further expected failures are model knowledge the user declares.
        expected_failures = (
            frozenset({"torse_forming"}) if expected_class == "non_twisted" else frozenset()
        )
    return MetricModel(
        name="custom_diagonal",
        n=n,
        parameters=used,
        expected_class=expected_class,
        entries=lambda xj: {(i, i): fn(xj) for i, fn in enumerate(compiled)},
        bounds=(_T_BOUNDS,) + (_SPATIAL_BOUNDS,) * (n - 1),
        description="user-defined diagonal metric from the expression grammar",
        expected_failures=expected_failures,
    )


# Each catalog entry: its builder, the dimension it builds when none is
# given (None: the entry must name one) and the dimensions it can build.
_BUILDERS: dict[str, tuple[Callable[[int, dict], MetricModel], int | None, range]] = {
    "minkowski": (_minkowski, 4, DIMENSIONS),
    "rw_flat": (_rw_flat, 4, DIMENSIONS),
    "grw_product_spheres": (_grw_product_spheres, 5, range(5, 6)),
    "twisted_generic": (_twisted_generic, 5, DIMENSIONS),
    "twisted_n4": (_twisted_n4, 4, range(4, 5)),
    "non_twisted_perturbed": (_non_twisted_perturbed, 4, DIMENSIONS),
    "custom_diagonal": (_custom_diagonal, None, DIMENSIONS),
}

CATALOG_NAMES = tuple(_BUILDERS)


def model_dimensions(name: str) -> str:
    """The dimensions the catalog model ``name`` builds: ``4..7`` or ``5``."""
    return _span(_BUILDERS[name][2])


def builtin_model(name: str, n: int | None = None, parameters: dict | None = None) -> MetricModel:
    """Instantiate a catalog model by name.

    Raises ``ValueError`` for unknown names, a dimension the model does not
    build (see :func:`check_dimension`), invalid parameters, or parameter
    keys the model does not read (each builder records the keys it reads in
    the model's ``parameters``).
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown model {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    build, default_n, dimensions = _BUILDERS[name]
    if n is None and default_n is None:
        raise ValueError(f"{name} requires an explicit dimension n")
    n = check_dimension(default_n if n is None else n, dimensions, f"{name} dimension n")
    params = dict(parameters or {})
    model = build(n, params)
    unread = sorted(set(params) - set(model.parameters))
    if unread:
        raise ValueError(
            f"unknown parameters {unread} for {name}; it reads {sorted(model.parameters)}"
        )
    return model


def default_model_specs() -> list[tuple[str, int, dict]]:
    """Model instances exercised by the default verification run."""
    return [
        ("minkowski", 4, {}),
        ("rw_flat", 4, {"f": "exp", "H": 0.3}),
        ("rw_flat", 5, {"f": "one_plus_t2"}),
        ("rw_flat", 6, {"f": "power", "k": 2.0}),
        ("grw_product_spheres", 5, {"r1": 1.0, "r2": 1.0, "H": 0.3}),
        ("twisted_n4", 4, {"alpha": 0.2, "beta": 0.1}),
        ("twisted_generic", 5, {"alpha": 0.2, "beta": 0.1, "eps": 0.05}),
        ("twisted_generic", 6, {"alpha": 0.2, "beta": 0.1, "eps": 0.05}),
        ("non_twisted_perturbed", 4, {"delta": 0.1}),
    ]
