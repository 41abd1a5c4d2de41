"""Jet arithmetic against analytic values and the finite-difference oracle."""

import itertools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fd_partial
from weylgeom import jets


def _random_jet(rng, n):
    """An order-3 jet in n variables with random Taylor coefficients and a
    value in [0.5, 2]."""
    table = jets.basis(n, 3)
    coeffs = rng.normal(size=table.size)
    coeffs[0] = rng.uniform(0.5, 2.0)
    return jets.Jet3(coeffs, table)


def test_square_of_coordinate():
    (x,) = jets.variables([3.0])
    sq = x * x
    assert sq.value == 9.0
    assert sq.d1[0] == 6.0
    assert sq.d2[0, 0] == 2.0
    assert sq.d3[0, 0, 0] == 0.0


def test_reciprocal_roundtrip_is_constant_one():
    t, x = jets.variables([0.7, 1.3])
    f = jets.exp(0.3 * t) * (1.0 + 0.2 * jets.sin(x))
    one = (1.0 / f) * f
    assert abs(one.value - 1.0) < 1e-14
    assert np.max(np.abs(one.d1)) < 1e-14
    assert np.max(np.abs(one.d2)) < 1e-14
    assert np.max(np.abs(one.d3)) < 1e-14


def test_product_partials_match_finite_differences():
    # f = sin(x1), g = exp(x2); all partials of f*g through order 3.
    point = np.array([0.6, 0.4])

    def value(x):
        return np.sin(x[0]) * np.exp(x[1])

    t, x = jets.variables(point)
    prod = jets.sin(t) * jets.exp(x)
    for dirs in itertools.product(range(2), repeat=1):
        fd = fd_partial(value, point, list(dirs))
        assert abs(prod.d1[dirs] - fd) <= 1e-6 * max(1.0, abs(fd))
    for dirs in itertools.product(range(2), repeat=2):
        fd = fd_partial(value, point, list(dirs))
        assert abs(prod.d2[dirs] - fd) <= 1e-6 * max(1.0, abs(fd))
    for dirs in itertools.product(range(2), repeat=3):
        fd = fd_partial(value, point, list(dirs))
        assert abs(prod.d3[dirs] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_exp_of_zero_jet_is_constant_one():
    table = jets.basis(3, 3)
    z = jets.Jet3(np.zeros(table.size), table)
    e = jets.exp(z)
    assert e.value == 1.0
    assert np.all(e.d1 == 0.0) and np.all(e.d2 == 0.0) and np.all(e.d3 == 0.0)


def test_third_derivative_of_exp_product_vs_oracle():
    point = np.array([0.3, 0.7])
    x1, x2 = jets.variables(point)
    f = jets.exp(x1 * x2)

    def value(x):
        return np.exp(x[0] * x[1])

    for dirs in itertools.product(range(2), repeat=3):
        fd = fd_partial(value, point, list(dirs))
        assert abs(f.d3[dirs] - fd) <= 1e-5 * max(1.0, abs(fd))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_log_exp_roundtrip(seed):
    rng = np.random.default_rng(seed)
    a = _random_jet(rng, 3)
    back = jets.log(jets.exp(a))
    assert abs(back.value - a.value) < 1e-13
    assert np.max(np.abs(back.d1 - a.d1)) < 1e-13
    assert np.max(np.abs(back.d2 - a.d2)) < 1e-12
    assert np.max(np.abs(back.d3 - a.d3)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_derivative_symmetry_is_exact(seed):
    rng = np.random.default_rng(seed)
    a = _random_jet(rng, 3)
    b = _random_jet(rng, 3)
    for j in (a * b, a / b, jets.sin(a) * jets.cos(b), jets.exp(0.3 * a)):
        assert np.array_equal(j.d2, j.d2.T)
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(j.d3, np.transpose(j.d3, perm))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_product_rule_first_order(seed):
    rng = np.random.default_rng(seed)
    a = _random_jet(rng, 4)
    b = _random_jet(rng, 4)
    prod = a * b
    expected = a.d1 * b.value + b.d1 * a.value
    assert np.allclose(prod.d1, expected, rtol=0, atol=1e-14 * max(1.0, np.max(np.abs(expected))))


def test_division_by_zero_value_jet():
    t, = jets.variables([0.0])
    with pytest.raises(ValueError, match="jet division singularity"):
        1.0 / t


def test_log_domain_error_names_function():
    with pytest.raises(ValueError, match="log"):
        jets.log(jets.variables([-1.0, 0.0])[0])


def test_fractional_power_domain_error():
    with pytest.raises(ValueError, match="power"):
        jets.power(jets.variables([-2.0, 0.0])[0], 0.5)


def test_integer_power_matches_repeated_multiplication():
    rng = np.random.default_rng(5)
    a = _random_jet(rng, 3)
    p3 = jets.power(a, 3)
    ref = a * a * a
    assert abs(p3.value - ref.value) < 1e-12
    assert np.allclose(p3.d3, ref.d3, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_integer_power_of_a_zero_base_is_the_repeated_product(p):
    x, y = jets.variables(np.array([0.0, 0.4]))
    base = x * jets.exp(y)  # value exactly 0, nonzero partials through d3
    assert base.value == 0.0
    want = [1.0 + 0.0 * base, base, base * base, base * base * base][p]
    got = jets.power(base, p)
    for order in ("value", "d1", "d2", "d3"):
        assert np.array_equal(getattr(got, order), getattr(want, order))


def test_negative_integer_power_of_a_zero_base_raises():
    x, _ = jets.variables(np.array([0.0, 0.4]))
    with pytest.raises(ValueError, match="negative integer exponent is singular at a zero base"):
        jets.power(x, -1)


def test_mismatched_variable_counts_rejected():
    # Jets combine only at one n and one order; a number combines with any jet.
    x2, x3 = jets.variables([0.3, 0.7])[0], jets.variables([0.3, 0.7, 0.1])[0]
    x2_order_2 = jets.variables([0.3, 0.7], order=2)[0]
    for combine in (operator.add, operator.sub, operator.mul):
        for a, b in ((x2, x3), (x3, x2), (x2, x2_order_2), (x2_order_2, x2)):
            with pytest.raises(ValueError, match="do not combine"):
                combine(a, b)
        assert combine(x2, jets.variables([0.5, 0.2])[1]).table is x2.table
        assert combine(x2_order_2, 2.0).table is x2_order_2.table


def test_coefficients_must_fill_the_table():
    table = jets.basis(3, 3)
    assert jets.Jet3(np.zeros((2, table.size)), table).n == 3
    for shape in ((jets.basis(3, 2).size,), (table.size, 2), ()):
        with pytest.raises(ValueError, match=re.escape(f"shape (..., {table.size}) for n = 3 at order 3")):
            jets.Jet3(np.zeros(shape), table)


@pytest.mark.parametrize(
    "fn, arg, want",
    [
        (jets.exp, 2.0, math.exp(2.0)),
        (jets.log, 3.0, math.log(3.0)),
        (jets.sin, 1.0, math.sin(1.0)),
        (jets.cos, 0.5, math.cos(0.5)),
        (lambda u: jets.power(u, 3), 2.0, 8.0),
        (lambda u: jets.power(u, 1.5), 4.0, 8.0),
        (jets.reciprocal, 4.0, 0.25),
    ],
)
def test_a_number_in_gives_a_number_out(fn, arg, want):
    got = fn(arg)
    assert type(got) is float and got == want


def test_a_number_overflows_to_inf_as_a_jet_value_does():
    # Read as np.float64, not as a Python float, whose ** raises OverflowError.
    with np.errstate(over="ignore"):
        assert jets.power(1e200, 2) == math.inf == jets.exp(1e3)
    assert jets.reciprocal(5e-324) == math.inf


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: jets.log(-1.0), "log domain violation"),
        (lambda: jets.log(0.0), "log domain violation"),
        (lambda: jets.power(-2.0, 0.5), "fractional exponent needs positive base"),
        (lambda: jets.power(0.0, -1), "negative integer exponent is singular at a zero base"),
        (lambda: jets.reciprocal(0.0), "^jet division singularity$"),
        (lambda: jets.reciprocal(-0.0), "^jet division singularity$"),
    ],
)
def test_numbers_raise_the_domain_errors_of_jets(call, message):
    with pytest.raises(ValueError, match=message):
        call()


_COMPOSED = {
    "exp": jets.exp,
    "log": jets.log,
    "sin": jets.sin,
    "cos": jets.cos,
    "power": lambda u: jets.power(u, 2.5),
    "integer-power": lambda u: jets.power(u, 3),
    "reciprocal": lambda u: 1.0 / u,
}

# Affine functions of one coordinate, each with the sign of the coordinates
# that keeps its value positive (log and the fractional power need it).
_ONE_COORDINATE = {
    "x": (lambda x: x, 1.0),
    "c*x": (lambda x: 0.7 * x, 1.0),
    "x+a": (lambda x: x + 1.5, 1.0),
    "-x": (lambda x: -x, -1.0),
}


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("batched", [False, True], ids=["one-point", "batched"])
@pytest.mark.parametrize("form", _ONE_COORDINATE)
@pytest.mark.parametrize("name", _COMPOSED)
def test_a_function_of_one_coordinate_needs_no_jet_product(monkeypatch, name, form, batched, order):
    build, sign = _ONE_COORDINATE[form]
    rng = np.random.default_rng(3)
    coords = sign * rng.uniform(0.3, 1.2, (4, 3) if batched else (3,))
    fn = _COMPOSED[name]
    tagged = build(jets.variables(coords, order)[1])
    assert tagged.axis == 1
    # The same jet without its axis is composed through jet products.
    want = fn(jets.Jet3(tagged.coeffs, tagged.table))
    products = []
    monkeypatch.setattr(jets, "_times", lambda *args: products.append(args))
    got = fn(tagged)
    assert not products
    assert got.axis is None and got.coeffs.shape == want.coeffs.shape
    # Equal values (nonzero ones bit for bit; a zero may differ in its sign).
    assert np.array_equal(got.coeffs, want.coeffs)
    # Every coefficient but those of 1, x1, x1², x1³ is zero.
    assert not np.delete(got.coeffs, [0, *jets.basis(3, order).powers[1]], axis=-1).any()


def test_an_axis_survives_finite_numbers_only():
    x, y = jets.variables(np.array([0.3, 0.7]))
    assert (x.axis, y.axis) == (0, 1)
    for kept in (2.0 * x, x * 2.0, x + 1.0, 1.0 + x, x - 1.0, 1.0 - x, -x, -(3.0 * x + 1.0), x / 2.0, x / -3):
        assert kept.axis == 0
    # Dividing by a number scales by its reciprocal, bit for bit as x * (1/c).
    assert np.array_equal((x / 3.0).coeffs, (x * (1.0 / 3.0)).coeffs)
    with np.errstate(invalid="ignore"):
        dropped = (x * y, x * x, x + y, x - x, x * np.inf, x + np.nan, 1.0 - np.inf * x, x / 5e-324, jets.exp(x))
    for jet in dropped:
        assert jet.axis is None
    for zero in (0.0, -0.0, 0):
        with pytest.raises(ValueError, match="^jet division singularity$"):
            x / zero
