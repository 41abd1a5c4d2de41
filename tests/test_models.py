"""Metric catalog, sampling determinism, and the expression grammar."""

import numpy as np
import pytest

from weylgeom import builtin_model, sample_points
from weylgeom.curvature import christoffel_from_jets, riemann_ricci_scalar
from weylgeom.models import (
    CATALOG_NAMES,
    MetricModel,
    compile_expression,
    default_model_specs,
    evaluate_metric_jets,
    model_dimensions,
)
from weylgeom import jets


def test_catalog_names():
    for name in (
        "minkowski",
        "rw_flat",
        "grw_product_spheres",
        "twisted_generic",
        "twisted_n4",
        "non_twisted_perturbed",
    ):
        assert name in CATALOG_NAMES


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        builtin_model("schwarzschild")


def test_minkowski_values_and_derivatives():
    m = builtin_model("minkowski", 4)
    mj = m.metric_jets(np.array([1.0, 0.2, -0.4, 0.9]))
    assert np.array_equal(mj.value, np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert not mj.d1.any() and not mj.d2.any() and not mj.d3.any()


def test_rw_flat_exponential_scale_derivatives():
    h = 0.3
    m = builtin_model("rw_flat", 4, {"f": "exp", "H": h})
    t = 0.8
    mj = m.metric_jets(np.array([t, 0.1, 0.2, 0.3]))
    expected = np.exp(2 * h * t)
    for mu in range(1, 4):
        assert abs(mj.value[mu, mu] - expected) < 1e-13
        assert abs(mj.d1[0, mu, mu] - 2 * h * expected) < 1e-13
        assert abs(mj.d2[0, 0, mu, mu] - (2 * h) ** 2 * expected) < 1e-13
        assert abs(mj.d3[0, 0, 0, mu, mu] - (2 * h) ** 3 * expected) < 1e-12
        assert np.max(np.abs(mj.d1[1:, mu, mu])) == 0.0


def test_rw_flat_power_and_polynomial_scales():
    m = builtin_model("rw_flat", 4, {"f": "power", "k": 2.0})
    t = 1.3
    mj = m.metric_jets(np.array([t, 0.0, 0.0, 0.0]))
    assert abs(mj.value[1, 1] - t**4) < 1e-12
    assert abs(mj.d1[0, 1, 1] - 4 * t**3) < 1e-12
    m2 = builtin_model("rw_flat", 4, {"f": "one_plus_t2"})
    mj2 = m2.metric_jets(np.array([t, 0.0, 0.0, 0.0]))
    assert abs(mj2.value[1, 1] - (1 + t * t) ** 2) < 1e-12


def test_rw_flat_rejects_unknown_scale_choice():
    with pytest.raises(ValueError, match="scale choice"):
        builtin_model("rw_flat", 4, {"f": "sinh"})


def test_sampling_is_deterministic():
    m = builtin_model("twisted_generic", 5)
    a = sample_points(m, 10, 42)
    b = sample_points(m, 10, 42)
    c = sample_points(m, 10, 43)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_empty_sample_rejected():
    m = builtin_model("minkowski", 4)
    with pytest.raises(ValueError, match="empty sample"):
        sample_points(m, 0, 1)


def test_all_models_lorentzian_at_sampled_points():
    for name, n, params in default_model_specs():
        m = builtin_model(name, n, params)
        for p in sample_points(m, 25, 11):
            mj = m.metric_jets(p)  # raises if the signature is wrong
            eigvals = np.linalg.eigvalsh(mj.value)
            assert np.sum(eigvals < 0) == 1


def test_velocity_normalization_at_sampled_points():
    for name, n, params in default_model_specs():
        m = builtin_model(name, n, params)
        for p in sample_points(m, 10, 3):
            g = m.metric_jets(p).value
            u = m.u_up
            assert abs(u @ g @ u + 1.0) < 1e-12


def test_every_model_moves_along_the_time_direction():
    # curvature._stages and the identity suite read every contraction with u
    # at index 0 (u_a = g_a0, E_kl = C_0kl0, u^p ∇_p C = ∇_0 C, ...), which
    # holds only while u^a = (1, 0, ..., 0) in every model.
    for name in CATALOG_NAMES:
        first, _, last = model_dimensions(name).partition("..")
        for n in range(int(first), int(last or first) + 1):
            params = {"g_diag": ["-1"] + ["1"] * (n - 1)} if name == "custom_diagonal" else {}
            u = builtin_model(name, n, params).u_up
            assert u.shape == (n,) and np.array_equal(u, np.eye(n)[0]), (
                f"{name} n={n}: u^a = {u}; the bundle and the identity suite read "
                "each contraction with u at index 0, so u must be ∂_t"
            )


def test_block_form_for_torse_classes():
    for name, n, params in default_model_specs():
        m = builtin_model(name, n, params)
        if m.expected_class == "non_twisted":
            continue
        for p in sample_points(m, 5, 9):
            g = m.metric_jets(p).value
            assert g[0, 0] == -1.0
            assert np.max(np.abs(g[0, 1:])) == 0.0


def test_grw_fiber_is_einstein_for_equal_radii():
    # Run the curvature pipeline on the four-dimensional Riemannian fiber
    # itself: a product of two unit spheres has Ricci = g (Einstein constant
    # 1/r^2 with r = 1).
    def entries(xj):
        return {
            (0, 0): 1.0,
            (1, 1): jets.power(jets.sin(xj[0]), 2),
            (2, 2): 1.0,
            (3, 3): jets.power(jets.sin(xj[2]), 2),
        }

    for point in ([0.7, 1.1, 1.2, 0.9], [1.2, 0.5, 0.8, 1.4]):
        mj = evaluate_metric_jets(entries, 4, np.array(point))
        curv = riemann_ricci_scalar(mj, christoffel_from_jets(mj))
        assert np.max(np.abs(curv.ricci - mj.value)) < 1e-12


@pytest.mark.parametrize(
    "name, n, params",
    [
        ("twisted_generic", 6, {}),
        ("non_twisted_perturbed", 4, {}),
        ("grw_product_spheres", 5, {}),
        ("rw_flat", 6, {"f": "exp"}),
    ],
)
def test_shared_scale_factor_runs_once_per_call(monkeypatch, name, n, params):
    # Each of these models has one exp, in the scale factor f^2 that its
    # spatial entries share.
    model = builtin_model(name, n, params)
    points = sample_points(model, 3, 11)
    calls = []
    exp = jets.exp
    monkeypatch.setattr(jets, "exp", lambda u: calls.append(u) or exp(u))
    evaluate_metric_jets(model.entries, n, points)
    assert len(calls) == 1
    evaluate_metric_jets(model.entries, n, points)
    assert len(calls) == 2


def test_metric_jets_do_not_depend_on_an_earlier_call():
    model = builtin_model("twisted_generic", 6)
    points = sample_points(model, 8, 3)
    chunk_a, chunk_b = points[:4], points[4:]
    model.metric_jets(chunk_a)
    after_a = model.metric_jets(chunk_b)
    fresh = builtin_model("twisted_generic", 6).metric_jets(chunk_b)
    for order in ("value", "d1", "d2", "d3"):
        assert np.array_equal(getattr(after_a, order), getattr(fresh, order))


def _mixed_constant_model() -> MetricModel:
    """A metric whose entries mix numbers with the coordinate jets."""

    def entries(xj):
        two, half = 2.0, 0.5
        return {
            (0, 0): -1.0,
            (0, 1): half * jets.cos(xj[2]) * 0.1,
            (1, 1): two + half * xj[1] * xj[0],
            (2, 2): jets.exp(half * xj[2]) / two,
            (3, 3): two - jets.sin(xj[3]) * half,
        }

    return MetricModel(
        name="mixed_constants",
        n=4,
        parameters={},
        expected_class="non_twisted",
        entries=entries,
        bounds=((0.1, 2.0),) + ((-1.2, 1.2),) * 3,
        description="numbers combined with coordinate jets",
    )


def _order_cases() -> list[MetricModel]:
    models = [builtin_model(name, n, params) for name, n, params in default_model_specs()]
    models += [builtin_model("twisted_generic", 7), builtin_model("non_twisted_perturbed", 6)]
    # Over most of the interval 0.5*x1 + 2 lies in the second quadrant, where
    # a cubic term added to the lower monomials of sin would turn its -0.0
    # partials (in t, x2, x3, x4) into 0.0.
    g_diag = [
        "-1",
        "sin(0.5*x1 + 2)",
        "(2 + log(3 + t*x2))/(1.5 + cos(x3))",
        "pow(1 + t*t, 1.5) + x1**2",
        "(1 + 0.1*x4)**-2*exp(-t) + cos(-x2)**2/(2 + x3)",
    ]
    models.append(builtin_model("custom_diagonal", 5, {"g_diag": g_diag}))
    return models + [_mixed_constant_model()]


@pytest.mark.parametrize("model", _order_cases(), ids=lambda model: model.label)
def test_order_two_jets_are_the_order_three_jets_without_d3(model):
    points = sample_points(model, 40, 5)
    for at in (points, points[7]):
        third, second = model.metric_jets(at), model.metric_jets(at, order=2)
        assert second.d3 is None and third.d3.shape == third.d2.shape[:-2] + (model.n,) * 3
        for order in ("value", "d1", "d2"):
            assert getattr(second, order).tobytes() == getattr(third, order).tobytes(), order


@pytest.mark.parametrize("model", _order_cases(), ids=lambda model: model.label)
def test_metric_jets_are_each_components_own_partials(model):
    # metric_jets gathers every order from one weighted coefficient stack;
    # each component's partials must be its jet's own, bit for bit, at (a, b)
    # and at (b, a), and every other entry 0.0 (not -0.0).
    n, points = model.n, sample_points(model, 12, 3)
    for at in (points, points[4]):
        lead = at.shape[:-1]
        for order in (2, 3):
            got = model.metric_jets(at, order)
            components = model.entries(jets.variables(at, order))
            for k, name in enumerate(("value", "d1", "d2", "d3")[: order + 1]):
                want = np.zeros(lead + (n,) * (k + 2))
                for (a, b), component in components.items():
                    if isinstance(component, jets.Jet3):
                        partial = getattr(component, name)
                    else:
                        partial = component if k == 0 else 0.0
                    want[..., a, b] = want[..., b, a] = partial
                assert getattr(got, name).tobytes() == want.tobytes(), (order, name)


@pytest.mark.parametrize("model", _order_cases(), ids=lambda model: model.label)
def test_metric_jets_are_the_same_from_untagged_coordinates(model):
    # A function of one coordinate is composed without jet products when its
    # argument carries the coordinate's axis; with the axes dropped every
    # composition goes through them.  Nonzero coefficients agree bit for bit.
    points = sample_points(model, 6, 2)
    for at in (points, points[1]):
        tagged = jets.variables(at)
        untagged = [jets.Jet3(x.coeffs, x.table) for x in tagged]
        got, want = model.entries(tagged), model.entries(untagged)
        assert got.keys() == want.keys()
        for key in got:
            # A constant component is a number either way.
            coeffs = [getattr(entry[key], "coeffs", entry[key]) for entry in (got, want)]
            assert np.array_equal(*coeffs), key


def test_grw_requires_five_dimensions():
    with pytest.raises(ValueError, match="grw_product_spheres dimension n must be 5, got 6"):
        builtin_model("grw_product_spheres", 6)
    with pytest.raises(ValueError, match="radii"):
        builtin_model("grw_product_spheres", 5, {"r1": -1.0})


def test_twisted_n4_pins_dimension():
    assert builtin_model("twisted_n4").n == 4
    with pytest.raises(ValueError, match="twisted_n4 dimension n must be 4, got 5"):
        builtin_model("twisted_n4", 5)


def test_dimension_range_enforced():
    with pytest.raises(ValueError, match="4..7"):
        builtin_model("twisted_generic", 3)
    with pytest.raises(ValueError, match="4..7"):
        builtin_model("minkowski", 8)


@pytest.mark.parametrize(
    "name, n",
    [("rw_flat", 4.7), ("rw_flat", "5"), ("rw_flat", True), ("rw_flat", 5.0), ("grw_product_spheres", 5.9)],
)
def test_a_dimension_that_is_not_an_integer_is_rejected(name, n):
    with pytest.raises(ValueError, match=f"{name} dimension n must be"):
        builtin_model(name, n)


def test_a_numpy_integer_dimension_builds_the_model():
    model = builtin_model("rw_flat", np.int64(5))
    assert model.n == 5 and type(model.n) is int and model.label == "rw_flat_n5"


def test_each_model_builds_exactly_the_dimensions_it_lists():
    for name in CATALOG_NAMES:
        first, _, last = model_dimensions(name).partition("..")
        listed = range(int(first), int(last or first) + 1)
        for n in range(2, 10):
            params = {"g_diag": ["-1"] + ["1"] * (n - 1)} if name == "custom_diagonal" else {}
            if n in listed:
                assert builtin_model(name, n, params).n == n
            else:
                with pytest.raises(ValueError, match=f"{name} dimension n must be"):
                    builtin_model(name, n, params)


# -- expression grammar -----------------------------------------------------


def test_compiled_expression_matches_builtin_jets():
    n = 4
    expr = compile_expression("exp(2*(0.2*t + 0.1*t*sin(x1)))*(1 + 0.05*cos(x2))", n)
    model = builtin_model("twisted_generic", n)
    point = np.array([0.9, 0.4, -0.7, 1.1])
    xj = jets.variables(point)
    got = expr(xj)
    want = model.entries(xj)[(1, 1)]
    assert abs(got.value - want.value) < 1e-14
    assert np.max(np.abs(got.d1 - want.d1)) < 1e-14
    assert np.max(np.abs(got.d2 - want.d2)) < 1e-14
    assert np.max(np.abs(got.d3 - want.d3)) < 1e-13


def test_grammar_supports_pow_call_and_operator():
    xj = jets.variables(np.array([1.2, 0.5]))
    a = compile_expression("pow(t, 3) + x1**2", 2)(xj)
    assert abs(a.value - (1.2**3 + 0.25)) < 1e-14
    # An integer power of a zero base is the repeated product.
    at_zero = jets.variables(np.array([1.2, 0.0]))
    squared = compile_expression("1 + x1**2", 2)(at_zero)
    assert np.array_equal(squared.coeffs, compile_expression("1 + x1*x1", 2)(at_zero).coeffs)


# When every literal operand was a constant jet, these made 3, 5, 2, 2 and 3 products.
_LITERAL_OPERANDS = ("exp(0.6*t)", "exp(t/2)", "exp(2 - t)", "exp(1 + t)", "cos(0.5*x1 + 1)")


@pytest.fixture
def products(monkeypatch):
    """The argument tuples of every jet product made while the test runs."""
    made, times = [], jets._times
    monkeypatch.setattr(jets, "_times", lambda *args: made.append(args) or times(*args))
    return made


@pytest.mark.parametrize("source", _LITERAL_OPERANDS)
def test_a_literal_operand_makes_no_jet_product(products, source):
    # A literal stays a number, so the coordinate keeps its axis through the
    # scaling and shifting, and the function of it composes without products.
    compile_expression(source, 4)(jets.variables(np.array([0.9, 0.4, -0.7, 1.1])))
    assert not products


def test_a_number_divided_by_a_number_is_scaled_by_its_reciprocal():
    # As a jet divides.  3 / 5 rounds to 0.6, one unit in the last place below 3 * (1 / 5).
    xj = jets.variables(np.array([0.9, 0.4, -0.7, 1.1]))
    assert compile_expression("3/5", 4)(xj) == 3 * (1 / 5) != 3 / 5


# Each entry calls functions of constants; each such call gives a number.
_CONSTANT_CALLS = ["-exp(0)", "exp(2)*exp(0.6*t)*(1 + 0.1*cos(x2))", "pow(2, 2)*(1 + t**2)", "sin(1) + x1**2"]


def _table_cases() -> list[MetricModel]:
    models = [builtin_model(name, n, params) for name, n, params in default_model_specs()]
    return models + [builtin_model("custom_diagonal", 4, {"g_diag": _CONSTANT_CALLS})]


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("model", _table_cases(), ids=lambda model: model.label)
def test_every_jet_of_a_metric_evaluation_has_the_table_of_its_order(monkeypatch, model, order):
    tables, post_init = [], jets.Jet3.__post_init__

    def recorded(jet):
        post_init(jet)
        tables.append(jet.table)

    monkeypatch.setattr(jets.Jet3, "__post_init__", recorded)
    model.metric_jets(sample_points(model, 3, 4), order=order)
    assert len(tables) >= model.n
    assert all(table is jets.basis(model.n, order) for table in tables)


def test_a_function_of_a_number_is_a_number(products):
    xj = jets.variables(np.array([0.9, 0.4]))
    scaled = compile_expression("exp(2)*t", 2)(xj)
    assert scaled.axis == 0 and not products
    assert np.array_equal(scaled.coeffs, (float(np.exp(2.0)) * xj[0]).coeffs)
    constant = compile_expression("pow(2, 2) + sin(1) - exp(0)", 2)(xj)
    assert type(constant) is float and constant == 4.0 + float(np.sin(1.0)) - 1.0


def test_the_twisted_twin_makes_24_jet_products(products):
    # The expression-grammar spelling of twisted_generic at n = 7, as the
    # twisted_n7 benchmark workload gives it.  The built-in model makes 9
    # products; the twin forms the shared factor once per entry.
    n = 7
    g_diag = ["-1"] + [f"exp(0.4*t + 0.2*t*sin(x1))*(1 + 0.05*cos(x{1 + mu % (n - 1)}))" for mu in range(1, n)]
    model = builtin_model("custom_diagonal", n, {"g_diag": g_diag, "expected_class": "twisted"})
    model.metric_jets(sample_points(model, 4, 1))
    assert len(products) == 24


def test_grammar_rejects_unknown_names_and_calls():
    with pytest.raises(ValueError, match="unknown name"):
        compile_expression("y + 1", 4)
    with pytest.raises(ValueError, match="unknown name"):
        compile_expression("x9", 4)  # out of range for n=4
    with pytest.raises(ValueError, match="unsupported call"):
        compile_expression("__import__('os')", 4)
    with pytest.raises(ValueError, match="unsupported call"):
        compile_expression("tan(t)", 4)
    with pytest.raises(ValueError, match="unsupported syntax"):
        compile_expression("[1,2]", 4)
    with pytest.raises(ValueError, match="exponent must be a numeric literal"):
        compile_expression("t**x1", 4)
    with pytest.raises(ValueError, match="invalid metric expression"):
        compile_expression("exp(", 4)
    # A bool is not a number, as a literal or as an exponent.
    with pytest.raises(ValueError, match="non-numeric literal"):
        compile_expression("True*t + 1", 4)
    with pytest.raises(ValueError, match="exponent must be a numeric literal"):
        compile_expression("t**True", 4)
    # An integer literal too large for a float reads as ±inf, so its metric
    # is non-finite at every point, not an OverflowError.
    huge = "1" + "0" * 400
    for entry in (f"{huge}*t", f"t**{huge}", f"-{huge} + t"):
        model = builtin_model("custom_diagonal", 4, {"g_diag": ["-1", entry, "1", "1"]})
        with pytest.raises(ValueError, match="non-finite metric components"):
            model.metric_jets(np.array([0.5, 0.1, 0.2, 0.3]))


def test_custom_diagonal_model_runs_like_rw():
    h = 0.3
    exprs = ["-1"] + [f"exp({2 * h}*t)"] * 3
    custom = builtin_model("custom_diagonal", 4, {"g_diag": exprs, "expected_class": "rw"})
    reference = builtin_model("rw_flat", 4, {"f": "exp", "H": h})
    point = np.array([0.7, 0.1, 0.2, 0.3])
    assert np.allclose(
        custom.metric_jets(point).value, reference.metric_jets(point).value, atol=1e-14
    )
    assert custom.expected_class == "rw"


def test_custom_diagonal_validation():
    with pytest.raises(ValueError, match="g_diag"):
        builtin_model("custom_diagonal", 4, {"g_diag": ["-1", "1"]})
    with pytest.raises(ValueError, match="explicit dimension"):
        builtin_model("custom_diagonal", None, {"g_diag": ["-1"] * 4})
