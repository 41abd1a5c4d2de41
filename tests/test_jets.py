"""Jet arithmetic against analytic values and the finite-difference oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fd_partial
from weylgeom import jets


def _random_jet(rng, n):
    return jets.Jet3.from_partials(
        rng.uniform(0.5, 2.0),
        rng.normal(size=n),
        _sym2(rng.normal(size=(n, n))),
        _sym3(rng.normal(size=(n, n, n))),
    )


def _sym2(a):
    return 0.5 * (a + a.T)


def _sym3(a):
    out = np.zeros_like(a)
    for perm in itertools.permutations(range(3)):
        out += np.transpose(a, perm)
    return out / 6.0


def test_from_partials_round_trips():
    rng = np.random.default_rng(9)
    n = 4
    # Exactly symmetric partials at three points: each entry copied from
    # its index-sorted representative.
    i2, i3 = np.sort(np.indices((n, n)), axis=0), np.sort(np.indices((n, n, n)), axis=0)
    parts = [
        rng.normal(size=(3,)),
        rng.normal(size=(3, n)),
        rng.normal(size=(3, n, n))[:, i2[0], i2[1]],
        rng.normal(size=(3, n, n, n))[:, i3[0], i3[1], i3[2]],
    ]
    jet = jets.Jet3.from_partials(*parts)
    assert np.array_equal(jet.value, parts[0])
    assert np.array_equal(jet.d1, parts[1])
    # Coefficients are partials / α!; α! = 2 divides exactly, α! = 6 may round.
    assert np.array_equal(jet.d2, parts[2])
    assert np.allclose(jet.d3, parts[3], rtol=4 * np.finfo(float).eps, atol=0.0)


def test_from_partials_reads_the_index_sorted_entries():
    d2 = np.arange(9.0).reshape(3, 3)
    d3 = np.arange(27.0).reshape(3, 3, 3)
    jet = jets.Jet3.from_partials(1.0, np.zeros(3), d2, d3)
    for idx in itertools.product(range(3), repeat=2):
        assert jet.d2[idx] == d2[tuple(sorted(idx))]
    for idx in itertools.product(range(3), repeat=3):
        assert jet.d3[idx] == pytest.approx(d3[tuple(sorted(idx))], rel=1e-15)


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
    z = jets.constant(0.0, 3)
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
        jets.constant(1.0, 1) / t


def test_log_domain_error_names_function():
    with pytest.raises(ValueError, match="log"):
        jets.log(jets.constant(-1.0, 2))


def test_fractional_power_domain_error():
    with pytest.raises(ValueError, match="power"):
        jets.power(jets.constant(-2.0, 2), 0.5)


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
    want = [jets.constant(1.0, 2), base, base * base, base * base * base][p]
    got = jets.power(base, p)
    for order in ("value", "d1", "d2", "d3"):
        assert np.array_equal(getattr(got, order), getattr(want, order))


def test_negative_integer_power_of_a_zero_base_raises():
    x, _ = jets.variables(np.array([0.0, 0.4]))
    with pytest.raises(ValueError, match="negative integer exponent is singular at a zero base"):
        jets.power(x, -1)


def test_mismatched_variable_counts_rejected():
    with pytest.raises(ValueError, match="different numbers of variables"):
        jets.constant(1.0, 2) + jets.constant(1.0, 3)


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
    want = fn(jets.Jet3(tagged.coeffs, tagged.n))
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
