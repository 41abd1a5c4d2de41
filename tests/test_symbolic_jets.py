"""Metric jets and curvature against independent symbolic oracles.

Each metric entry is written out again from the model's formula as a sympy
expression, differentiated symbolically through third order and evaluated at
30 digits at two chart points, each coordinate converted exactly to the
rational its float stands for.  ``metric_jets`` must agree
in value, d1, d2 and d3 to 1e-13 relative to the largest exact entry of
each order.

The same 30-digit jets feed a textbook curvature computation in mpmath, one
component at a time by the second-kind route (Γ, ∂Γ and ∂∂Γ, then R^a_bcd
and its lowering).  The kernels' Riemann and Ricci tensors and their ∂'s
must agree with it to 1e-12 relative to each field's largest entry.
"""

import itertools

import numpy as np
import pytest

from weylgeom import builtin_model
from weylgeom.curvature import christoffel_from_jets, riemann_ricci_scalar
from weylgeom.models import coordinate_names, default_model_specs

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

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


def _exact_jets(model, point, number=float):
    """Value and raw partials through order 3 of every g_ab, evaluated at 30
    digits and converted by ``number`` (``mpmath.mpf`` keeps the digits, in
    arrays of dtype object)."""
    n = model.n
    x = sympy.symbols(coordinate_names(n))
    at = {xi: sympy.Rational(v) for xi, v in zip(x, point)}
    dtype = float if number is float else object
    orders = [np.zeros((n,) * k + (n, n), dtype=dtype) for k in range(4)]
    for (a, b), expr in _symbolic_entries(model, x).items():
        derivative = {(): sympy.sympify(expr)}
        for k in range(1, 4):
            for mono in itertools.combinations_with_replacement(range(n), k):
                derivative[mono] = sympy.diff(derivative[mono[:-1]], x[mono[-1]])
        for k, order in enumerate(orders):
            for idx in itertools.product(range(n), repeat=k):
                exact = number(derivative[tuple(sorted(idx))].evalf(30, subs=at))
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


def _textbook_curvature(g, dg, d2g, d3g):
    """R_abcd, ∂_p R_abcd, R_bd and ∂_p R_bd from exact jets, in mpmath loops:
    Γ^a_bc = g^ad (g_db,c + g_dc,b - g_bc,d) / 2 with its first and second
    partials, R^a_bcd = ∂_c Γ^a_db - ∂_d Γ^a_cb + Γ^a_ce Γ^e_db - Γ^a_de Γ^e_cb,
    R_abcd = g_ae R^e_bcd and R_bd = R^a_bad."""
    n = len(g)
    r = range(n)
    inverse = mpmath.matrix(g.tolist()) ** -1
    gi = np.array([[inverse[a, b] for b in r] for a in r], dtype=object)
    dgi = np.empty((n,) * 3, dtype=object)
    d2gi = np.empty((n,) * 4, dtype=object)
    for p, a, b in itertools.product(r, r, r):
        dgi[p, a, b] = -mpmath.fsum(gi[a, e] * dg[p, e, f] * gi[f, b] for e in r for f in r)
    for p, q, a, b in itertools.product(r, r, r, r):
        d2gi[p, q, a, b] = -mpmath.fsum(
            dgi[q, a, e] * dg[p, e, f] * gi[f, b]
            + gi[a, e] * dg[p, e, f] * dgi[q, f, b]
            + gi[a, e] * d2g[p, q, e, f] * gi[f, b]
            for e in r
            for f in r
        )

    def k(d, b, c):  # 2 Γ_dbc
        return dg[b, d, c] + dg[c, d, b] - dg[d, b, c]

    def dk(p, d, b, c):
        return d2g[p, b, d, c] + d2g[p, c, d, b] - d2g[p, d, b, c]

    def d2k(p, q, d, b, c):
        return d3g[p, q, b, d, c] + d3g[p, q, c, d, b] - d3g[p, q, d, b, c]

    gamma = np.empty((n,) * 3, dtype=object)
    d_gamma = np.empty((n,) * 4, dtype=object)
    d2_gamma = np.empty((n,) * 5, dtype=object)
    for a, b, c in itertools.product(r, r, r):
        gamma[a, b, c] = mpmath.fsum(gi[a, d] * k(d, b, c) for d in r) / 2
        for p in r:
            d_gamma[p, a, b, c] = mpmath.fsum(dgi[p, a, d] * k(d, b, c) + gi[a, d] * dk(p, d, b, c) for d in r) / 2
            for q in r:
                d2_gamma[p, q, a, b, c] = (
                    mpmath.fsum(
                        d2gi[p, q, a, d] * k(d, b, c)
                        + dgi[p, a, d] * dk(q, d, b, c)
                        + dgi[q, a, d] * dk(p, d, b, c)
                        + gi[a, d] * d2k(p, q, d, b, c)
                        for d in r
                    )
                    / 2
                )

    r_up = np.empty((n,) * 4, dtype=object)
    d_r_up = np.empty((n,) * 5, dtype=object)
    for a, b, c, d in itertools.product(r, r, r, r):
        r_up[a, b, c, d] = d_gamma[c, a, d, b] - d_gamma[d, a, c, b] + mpmath.fsum(
            gamma[a, c, e] * gamma[e, d, b] - gamma[a, d, e] * gamma[e, c, b] for e in r
        )
        for p in r:
            d_r_up[p, a, b, c, d] = d2_gamma[p, c, a, d, b] - d2_gamma[p, d, a, c, b] + mpmath.fsum(
                d_gamma[p, a, c, e] * gamma[e, d, b]
                + gamma[a, c, e] * d_gamma[p, e, d, b]
                - d_gamma[p, a, d, e] * gamma[e, c, b]
                - gamma[a, d, e] * d_gamma[p, e, c, b]
                for e in r
            )
    riemann = np.empty((n,) * 4, dtype=object)
    d_riemann = np.empty((n,) * 5, dtype=object)
    for a, b, c, d in itertools.product(r, r, r, r):
        riemann[a, b, c, d] = mpmath.fsum(g[a, e] * r_up[e, b, c, d] for e in r)
        for p in r:
            d_riemann[p, a, b, c, d] = mpmath.fsum(
                dg[p, a, e] * r_up[e, b, c, d] + g[a, e] * d_r_up[p, e, b, c, d] for e in r
            )
    ricci = np.array([[mpmath.fsum(r_up[a, b, a, d] for a in r) for d in r] for b in r], dtype=object)
    d_ricci = np.array(
        [[[mpmath.fsum(d_r_up[p, a, b, a, d] for a in r) for d in r] for b in r] for p in r], dtype=object
    )
    return riemann, d_riemann, ricci, d_ricci


@pytest.mark.parametrize(
    "name, n", [("twisted_generic", 5), ("non_twisted_perturbed", 4)], ids=["twisted_generic_n5", "non_twisted_perturbed_n4"]
)
def test_curvature_matches_30_digit_textbook_oracle(name, n):
    model = builtin_model(name, n)
    point = _points(model)[0]
    with mpmath.workdps(30):
        exact = _textbook_curvature(*_exact_jets(model, point, mpmath.mpf))
    mj = model.metric_jets(point)
    curv = riemann_ricci_scalar(mj, christoffel_from_jets(mj))
    for field, want in zip(("riemann", "d_riemann", "ricci", "d_ricci"), exact):
        want = want.astype(float)
        scale = np.max(np.abs(want))
        err = np.max(np.abs(getattr(curv, field) - want))
        assert scale > 0.01, field
        assert err <= 1e-12 * scale, f"{model.label} {field}: {err:.3e} vs scale {scale:.3e}"
