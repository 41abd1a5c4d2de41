"""Metric jets against an independent symbolic oracle.

Each metric entry is written out again from the model's formula as a sympy
expression, differentiated symbolically through third order and evaluated at
30 digits at two chart points, each coordinate converted exactly to the
rational its float stands for.  ``metric_jets`` must agree
in value, d1, d2 and d3 to 1e-13 relative to the largest exact entry of
each order.
"""

import itertools

import numpy as np
import pytest

from weylgeom import builtin_model
from weylgeom.models import coordinate_names, default_model_specs

sympy = pytest.importorskip("sympy")

RELATIVE = 1e-13
CUSTOM_EXPRESSIONS = [
    "-exp(0.2*t)",
    "pow(1 + t**2, 1.5) * (1 + 0.1*sin(x1)*x2**2)",
    "log(2 + cos(x1)) / (3 + x2*x3)",
    "exp(0.3*t) * (2 - x3)**-2",
]


def _symbolic_entries(model, x):
    """The metric entries of a catalog model as sympy expressions."""
    p = {k: sympy.Float(v) for k, v in model.parameters.items() if isinstance(v, float)}
    t, n = x[0], model.n
    if model.name == "minkowski":
        return {(a, a): -1 if a == 0 else 1 for a in range(n)}
    if model.name == "rw_flat":
        scale = {
            "exp": lambda: sympy.exp(2 * p["H"] * t),
            "power": lambda: t ** (2 * p["k"]),
            "one_plus_t2": lambda: (1 + t**2) ** 2,
        }[model.parameters["f"]]()
        return {(0, 0): -1, **{(m, m): scale for m in range(1, n)}}
    if model.name == "grw_product_spheres":
        scale = sympy.exp(2 * p["H"] * t)
        r1, r2 = p["r1"] ** 2 * scale, p["r2"] ** 2 * scale
        return {
            (0, 0): -1,
            (1, 1): r1,
            (2, 2): r1 * sympy.sin(x[1]) ** 2,
            (3, 3): r2,
            (4, 4): r2 * sympy.sin(x[3]) ** 2,
        }
    if model.name == "custom_diagonal":
        names = dict(zip(coordinate_names(n), x))
        return {(a, a): sympy.sympify(src, locals=names) for a, src in enumerate(model.parameters["g_diag"])}
    # The twisted family: f^2 (1 + eps cos(x_{m+1})) with cyclic m+1 in 1..n-1.
    f_sq = sympy.exp(2 * (p["alpha"] * t + p["beta"] * t * sympy.sin(x[1])))
    entries = {(0, 0): -1}
    for m in range(1, n):
        entries[(m, m)] = f_sq * (1 + p["eps"] * sympy.cos(x[1 + m % (n - 1)]))
    if model.name == "non_twisted_perturbed":
        entries[(0, 1)] = p["delta"] * sympy.sin(x[2])
    return entries


def _exact_jets(model, point):
    """Value and raw partials through order 3 of every g_ab, at 30 digits."""
    n = model.n
    x = sympy.symbols(coordinate_names(n))
    at = {xi: sympy.Rational(v) for xi, v in zip(x, point)}
    orders = [np.zeros((n,) * k + (n, n)) for k in range(4)]
    for (a, b), expr in _symbolic_entries(model, x).items():
        derivative = {(): sympy.sympify(expr)}
        for k in range(1, 4):
            for mono in itertools.combinations_with_replacement(range(n), k):
                derivative[mono] = sympy.diff(derivative[mono[:-1]], x[mono[-1]])
        for k, order in enumerate(orders):
            for idx in itertools.product(range(n), repeat=k):
                exact = float(derivative[tuple(sorted(idx))].evalf(30, subs=at))
                order[idx + (a, b)] = order[idx + (b, a)] = exact
    return orders


def _points(model):
    """Two chart points inside the model's bounds."""
    lo = np.array([b[0] for b in model.bounds])
    hi = np.array([b[1] for b in model.bounds])
    fractions = np.array([[5, 9, 3, 11, 7, 13, 6], [12, 4, 10, 6, 14, 2, 9]]) / 16.0
    return lo + (hi - lo) * fractions[:, : model.n]


def _models():
    specs = [builtin_model(name, n, params) for name, n, params in default_model_specs()]
    custom = builtin_model("custom_diagonal", 4, {"g_diag": CUSTOM_EXPRESSIONS})
    return specs + [custom]


@pytest.mark.parametrize("model", _models(), ids=lambda m: m.label)
def test_metric_jets_match_symbolic_derivatives(model):
    for point in _points(model):
        mj = model.metric_jets(point)
        for k, (got, exact) in enumerate(zip((mj.value, mj.d1, mj.d2, mj.d3), _exact_jets(model, point))):
            scale = np.max(np.abs(exact))
            err = np.max(np.abs(got - exact))
            assert err <= RELATIVE * scale, f"{model.label} order {k} at {point}: {err:.3e} vs scale {scale:.3e}"
