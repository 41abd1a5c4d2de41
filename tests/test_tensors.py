"""Tensor-core operations against brute-force and round-trip oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylgeom.tensors import (
    DOWN,
    UP,
    TensorValue,
    contract,
    generalized_curvature_check,
    kulkarni_nomizu,
    max_abs,
    norm_squared,
    raise_all,
    raise_lower,
)

MINKOWSKI = np.diag([-1.0, 1.0, 1.0, 1.0])


def _random_tensor(rng, n, variance):
    return TensorValue.of(rng.normal(size=(n,) * len(variance)), variance)


def _random_lorentzian_metric(rng, n):
    # Well-conditioned perturbation of the flat metric.
    a = 0.15 * rng.normal(size=(n, n))
    return TensorValue.of(np.diag([-1.0] + [1.0] * (n - 1)) + 0.5 * (a + a.T), (DOWN, DOWN))


def test_kronecker_trace():
    delta = TensorValue.of(np.eye(4), (UP, DOWN))
    assert float(contract(delta, 0, 1).components) == 4.0


def test_unit_timelike_contraction():
    u_up = np.array([1.0, 0.0, 0.0, 0.0])
    u_down = MINKOWSKI @ u_up
    t = TensorValue.of(np.multiply.outer(u_up, u_down), (UP, DOWN))
    assert float(contract(t, 0, 1).components) == -1.0


def test_contract_matches_brute_force_loop():
    rng = np.random.default_rng(0)
    t = _random_tensor(rng, 3, (UP, DOWN, DOWN, UP))
    got = contract(t, 0, 2).components
    n = 3
    expected = np.zeros((n, n))
    for b in range(n):
        for d in range(n):
            expected[b, d] = sum(t.components[a, b, a, d] for a in range(n))
    assert np.allclose(got, expected, atol=1e-14)


def test_contract_requires_mixed_variance():
    t = TensorValue.of(np.eye(4), (DOWN, DOWN))
    with pytest.raises(ValueError, match="variance mismatch"):
        contract(t, 0, 1)


def test_contract_slot_validation():
    t = TensorValue.of(np.eye(4), (UP, DOWN))
    with pytest.raises(ValueError, match="out of range"):
        contract(t, 0, 5)
    with pytest.raises(ValueError, match="slots must differ"):
        contract(t, 1, 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_contract_is_linear(seed):
    rng = np.random.default_rng(seed)
    t = _random_tensor(rng, 4, (UP, DOWN, DOWN))
    s = _random_tensor(rng, 4, (UP, DOWN, DOWN))
    a, b = rng.normal(), rng.normal()
    combo = TensorValue.of(a * t.components + b * s.components, t.variance)
    lhs = contract(combo, 0, 2).components
    rhs = a * contract(t, 0, 2).components + b * contract(s, 0, 2).components
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_raise_lower_roundtrip_minkowski():
    rng = np.random.default_rng(1)
    t = _random_tensor(rng, 4, (DOWN, DOWN, DOWN))
    g = TensorValue.of(MINKOWSKI, (DOWN, DOWN))
    g_inv = TensorValue.of(np.linalg.inv(MINKOWSKI), (UP, UP))
    up = raise_lower(t, 1, g_inv, UP)
    back = raise_lower(up, 1, g, DOWN)
    assert max_abs(back.components - t.components) < 1e-13
    assert back.variance == t.variance


def test_raise_minkowski_velocity():
    g_inv = TensorValue.of(np.linalg.inv(MINKOWSKI), (UP, UP))
    u_down = TensorValue.of(np.array([-1.0, 0.0, 0.0, 0.0]), (DOWN,))
    u_up = raise_lower(u_down, 0, g_inv, UP)
    assert np.allclose(u_up.components, [1.0, 0.0, 0.0, 0.0])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_raise_lower_roundtrip_generic_metric(seed):
    rng = np.random.default_rng(seed)
    g = _random_lorentzian_metric(rng, 4)
    g_inv = TensorValue.of(np.linalg.inv(g.components), (UP, UP))
    t = _random_tensor(rng, 4, (DOWN, DOWN))
    for slot in range(2):
        back = raise_lower(raise_lower(t, slot, g_inv, UP), slot, g, DOWN)
        assert max_abs(back.components - t.components) < 1e-12


def test_raise_lower_rejects_singular_metric():
    g_bad = TensorValue.of(np.diag([0.0, 1.0, 1.0, 1.0]), (UP, UP))
    t = TensorValue.of(np.zeros(4), (DOWN,))
    with pytest.raises(ValueError, match="singular metric"):
        raise_lower(t, 0, g_bad, UP)


def test_raise_lower_variance_checks():
    g = TensorValue.of(MINKOWSKI, (DOWN, DOWN))
    t = TensorValue.of(np.zeros(4), (DOWN,))
    with pytest.raises(ValueError, match="already has variance"):
        raise_lower(t, 0, g, DOWN)
    with pytest.raises(ValueError, match="variance"):
        raise_lower(t, 0, g, UP)  # inverse metric required for raising


def test_kulkarni_nomizu_zero_factor():
    zero = np.zeros((4, 4))
    e = np.diag([0.0, 1.0, 2.0, 3.0])
    assert max_abs(kulkarni_nomizu(zero, e)) == 0.0


def test_kulkarni_nomizu_sign_pattern_term_by_term():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    a = 0.5 * (a + a.T)
    b = rng.normal(size=(4, 4))
    b = 0.5 * (b + b.T)
    prod = kulkarni_nomizu(a, b)
    for i, k, l, m in itertools.product(range(4), repeat=4):
        expected = a[i, m] * b[k, l] - a[k, m] * b[i, l] - a[i, l] * b[k, m] + a[k, l] * b[i, m]
        assert abs(prod[i, k, l, m] - expected) < 1e-14
    # A leading point axis gives each point its own product.
    batched = kulkarni_nomizu(np.stack([a, b]), np.stack([b, a]))
    assert np.array_equal(batched[0], prod)
    assert np.array_equal(batched[1], kulkarni_nomizu(b, a))
    # An unbatched factor broadcasts against a batched one.  The product is
    # written into the function's own buffer: a new C-ordered array that
    # shares no memory with a factor, which is left unchanged.
    g, e = np.diag([-1.0, 1.0, 2.0, 3.0]), np.stack([a, b, a + b])
    for x, y in ((g, e), (e, g), (e, np.swapaxes(e, -1, -2))):
        before = x.copy(), y.copy()
        prod = kulkarni_nomizu(x, y)
        assert np.array_equal(x, before[0]) and np.array_equal(y, before[1])
        assert prod.shape == (3, 4, 4, 4, 4) and prod.flags.c_contiguous
        assert not np.shares_memory(prod, x) and not np.shares_memory(prod, y)
        for k, (x_k, y_k) in enumerate(zip(*np.broadcast_arrays(x, y))):
            assert np.array_equal(prod[k], kulkarni_nomizu(x_k, y_k))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_kulkarni_nomizu_is_generalized_curvature(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 5))
    a_t = 0.5 * (a + a.T)
    b_t = 0.5 * (b + b.T)
    residuals = generalized_curvature_check(kulkarni_nomizu(a_t, b_t))
    scale = max(1.0, max_abs(a_t) * max_abs(b_t))
    assert max(residuals.values()) < 1e-12 * scale


def test_kulkarni_nomizu_rejects_asymmetric_factor():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="asymmetric factor"):
        kulkarni_nomizu(a, a)


def test_generalized_curvature_check_is_diagnostic():
    rng = np.random.default_rng(4)
    residuals = generalized_curvature_check(rng.normal(size=(4,) * 4))
    assert all(v > 0.1 for v in residuals.values())  # reported, not raised


def test_norm_squared_zero_tensor():
    z = np.zeros((4, 4, 4))
    assert norm_squared(z, np.linalg.inv(MINKOWSKI)) == 0.0


def test_norm_squared_of_metric_is_dimension():
    rng = np.random.default_rng(6)
    for n in (4, 5, 6):
        g = _random_lorentzian_metric(rng, n).components
        assert abs(norm_squared(g, np.linalg.inv(g)) - n) < 1e-10


def test_norm_squared_two_ways_agree():
    rng = np.random.default_rng(7)
    g = _random_lorentzian_metric(rng, 4)
    g_inv = TensorValue.of(np.linalg.inv(g.components), (UP, UP))
    t = _random_tensor(rng, 4, (DOWN, DOWN, DOWN))
    fast = norm_squared(t.components, g_inv.components)
    # A leading point axis gives one value per point.
    pair = norm_squared(np.stack([t.components, 2.0 * t.components]), np.stack([g_inv.components] * 2))
    assert pair[0] == fast and abs(pair[1] - 4.0 * fast) <= 1e-12 * max(1.0, abs(fast))
    # Slot-by-slot raising through the public op, then a full overlap sum.
    dual = t
    for slot in range(3):
        dual = raise_lower(dual, slot, g_inv, UP)
    slow = float(np.sum(t.components * dual.components))
    assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))
    # Independent brute-force loop with explicit metric factors.
    gi = np.linalg.inv(g.components)
    brute = 0.0
    n = 4
    for idx in itertools.product(range(n), repeat=3):
        for jdx in itertools.product(range(n), repeat=3):
            brute += (
                t.components[idx]
                * gi[idx[0], jdx[0]]
                * gi[idx[1], jdx[1]]
                * gi[idx[2], jdx[2]]
                * t.components[jdx]
            )
    assert abs(fast - brute) <= 1e-10 * max(1.0, abs(brute))


_EPS_BOUND = 64 * np.finfo(np.float64).eps


def _einsum_raise_all(t, g_inv):
    """Every slot of t (one point axis first) raised at once by einsum."""
    letters = "abcde"[: t.ndim - 1]
    raised = "vwxyz"[: t.ndim - 1]
    factors = ",".join(f"p{a}{r}" for a, r in zip(letters, raised))
    return np.einsum(f"p{letters},{factors}->p{raised}", t, *[g_inv] * len(letters), optimize=True)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_raise_all_and_norm_squared_match_einsum_oracle(n, rank):
    rng = np.random.default_rng(10 * n + rank)
    points = 3
    g = np.stack([_random_lorentzian_metric(rng, n).components for _ in range(points)])
    g_inv = np.linalg.inv(g)
    t = rng.uniform(-1.0, 1.0, (points,) + (n,) * rank)
    before = t.copy()
    want = _einsum_raise_all(t, g_inv)
    got = raise_all(t, g_inv)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.all(np.abs(got - want) <= _EPS_BOUND * np.maximum(1.0, np.abs(want)))
    # The full contraction is a sum of n**rank products: its rounding scale
    # is the sum of their magnitudes.
    products = (t * want).reshape(points, -1)
    magnitude = np.abs(products).sum(axis=1)
    norms = norm_squared(t, g_inv)
    assert norms.shape == (points,)
    assert np.all(np.abs(norms - products.sum(axis=1)) <= _EPS_BOUND * np.maximum(1.0, magnitude))
    assert np.array_equal(t, before)

    # A view that is not C-contiguous: every other point of a longer batch,
    # and the slots of a transposed array.
    wide, wide_inv = np.concatenate([t, t])[::2], np.concatenate([g_inv, g_inv])[::2]
    assert not wide.flags.c_contiguous
    assert np.array_equal(raise_all(wide, wide_inv), raise_all(wide.copy(), wide_inv.copy()))
    flipped = np.swapaxes(t, 1, -1)
    assert not flipped.flags.c_contiguous
    got = raise_all(flipped, g_inv)
    want = _einsum_raise_all(flipped, g_inv)
    assert got.flags.c_contiguous
    assert np.all(np.abs(got - want) <= _EPS_BOUND * np.maximum(1.0, np.abs(want)))
    assert np.array_equal(t, before)


def test_components_must_be_finite():
    bad = np.zeros((4, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        TensorValue.of(bad, (DOWN, DOWN))


def test_shape_and_rank_validation():
    with pytest.raises(ValueError, match="shape"):
        TensorValue(n=4, variance=(DOWN,), components=np.zeros((3,)))
    with pytest.raises(ValueError, match="rank > 5"):
        TensorValue(n=2, variance=(DOWN,) * 6, components=np.zeros((2,) * 6))


def test_components_are_immutable():
    t = TensorValue.of(np.eye(4), (DOWN, DOWN))
    with pytest.raises(ValueError):
        t.components[0, 0] = 5.0
