"""Curvature pipeline against analytic, finite-difference and symmetry oracles."""

import numpy as np
import pytest

from conftest import fd_tensor_partials
from weylgeom import build_bundle, builtin_model, sample_points
from weylgeom import jets
from weylgeom.curvature import (
    christoffel_from_jets,
    covariant_derivative,
    riemann_ricci_scalar,
    weyl,
)
from weylgeom.models import MetricModel, evaluate_metric_jets
from weylgeom.tensors import (
    DOWN,
    UP,
    TensorValue,
    contract,
    generalized_curvature_check,
    max_abs,
    raise_lower,
)


def _pointwise_below(residual, reference, rtol):
    """Every point's max |residual| is below rtol * max(1, max |reference|)."""
    limit = rtol * np.maximum(1.0, max_abs(reference, per_point=True))
    return np.all(max_abs(residual, per_point=True) < limit)


def test_minkowski_bundle_is_flat():
    m = builtin_model("minkowski", 4)
    b = build_bundle(m, np.array([[0.5, 0.1, -0.2, 0.9]]))
    assert max_abs(b.christoffel) == 0.0
    assert max_abs(b.d_christoffel) == 0.0
    assert max_abs(b.riemann) == 0.0
    assert max_abs(b.weyl) == 0.0
    assert max_abs(b.nabla_weyl) == 0.0
    assert max_abs(b.div_weyl) == 0.0
    assert b.hubble_rate[0] == 0.0
    assert max_abs(b.electric) == 0.0
    assert max_abs(b.weyl_remainder) == 0.0


def test_rw_flat_christoffel_analytic():
    h = 0.3
    m = builtin_model("rw_flat", 4, {"f": "exp", "H": h})
    t = 0.9
    conn = christoffel_from_jets(m.metric_jets(np.array([t, 0.4, -0.2, 0.7])))
    f = np.exp(h * t)
    df = h * f
    for mu in range(1, 4):
        assert abs(conn.gamma[0, mu, mu] - f * df) < 1e-12
        for nu in range(1, 4):
            expected = (df / f) if mu == nu else 0.0
            assert abs(conn.gamma[mu, 0, nu] - expected) < 1e-13
    # Exact lower-index symmetry by construction.
    assert np.array_equal(conn.gamma, conn.gamma.transpose(0, 2, 1))


def test_rw_flat_expansion_and_scalar_curvature():
    h = 0.3
    m = builtin_model("rw_flat", 4, {"f": "exp", "H": h})
    b = build_bundle(m, np.array([[1.0, 0.2, -0.3, 0.5]]))
    assert abs(b.hubble_rate[0] - h) < 1e-12
    assert abs(b.scalar_curvature[0] - 4 * 3 * h * h) < 1e-11
    # Einstein form of the Ricci tensor on the exponential scale factor.
    assert max_abs(b.ricci - 3 * h * h * b.g) < 1e-11


def test_unit_sphere_block_curvature():
    # Pure two-sphere metric diag(1, sin^2 theta): the pipeline runs on any
    # dimension up to the Weyl step.
    entries = {
        (0, 0): lambda xj: jets.constant(1.0, 2),
        (1, 1): lambda xj: jets.power(jets.sin(xj[0]), 2),
    }
    for theta in (0.7, 1.1, 2.0):
        mj = evaluate_metric_jets(entries, 2, np.array([theta, 0.4]))
        conn = christoffel_from_jets(mj)
        assert abs(conn.gamma[0, 1, 1] - (-np.sin(theta) * np.cos(theta))) < 1e-13
        curv = riemann_ricci_scalar(mj, conn)
        assert abs(curv.riemann[0, 1, 0, 1] - np.sin(theta) ** 2) < 1e-12
        assert abs(curv.scalar - 2.0) < 1e-11  # unit sphere
        with pytest.raises(ValueError, match="Weyl undefined"):
            weyl(mj, curv)


def test_metric_compatibility(small_bundles):
    model, bundles = small_bundles["twisted_generic_n5"]
    for b in bundles:
        mj = model.metric_jets(b.points)
        nabla_g = covariant_derivative((DOWN, DOWN), mj.value, mj.d1, b.christoffel)
        assert max_abs(nabla_g) < 1e-11


def test_covariant_derivative_of_constant_scalar_is_zero():
    m = builtin_model("twisted_generic", 5)
    b = build_bundle(m, sample_points(m, 1, 0))
    nabla = covariant_derivative((), np.full(1, 3.7), np.zeros((1, 5)), b.christoffel)
    assert max_abs(nabla) == 0.0


def test_covariant_derivative_requires_derivative_data():
    m = builtin_model("minkowski", 4)
    b = build_bundle(m, np.array([[0.1, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="missing coordinate-derivative data"):
        covariant_derivative((DOWN,), np.zeros((1, 4)), None, b.christoffel)


def test_second_bianchi_identity(small_bundles):
    model, bundles = small_bundles["twisted_generic_n5"]
    for b in bundles:
        # The bundle keeps no ∂Riemann; the kernels give it.
        mj = model.metric_jets(b.points)
        curv = riemann_ricci_scalar(mj, christoffel_from_jets(mj))
        nr = covariant_derivative((DOWN,) * 4, curv.riemann, curv.d_riemann, b.christoffel)
        cyc = nr + np.einsum("...cabde->...eabcd", nr) + np.einsum("...dabec->...eabcd", nr)
        assert _pointwise_below(cyc, nr, 1e-9)


def test_weyl_single_traces_vanish(small_bundles):
    for label, (model, bundles) in small_bundles.items():
        for b in bundles:
            gi = b.g_inv
            c = b.weyl
            letters = "iklm"
            for a in range(4):
                for bb in range(a + 1, 4):
                    out = "".join(letters[s] for s in range(4) if s not in (a, bb))
                    spec = f"...{letters[a]}{letters[bb]},...{letters}->...{out}"
                    assert _pointwise_below(np.einsum(spec, gi, c), c, 1e-10), label


def test_bundle_invariants(small_bundles):
    for label, (model, bundles) in small_bundles.items():
        for b in bundles:
            riemann_residuals = generalized_curvature_check(b.riemann)
            worst = np.max(list(riemann_residuals.values()), axis=0)
            assert np.all(worst < 1e-10 * np.maximum(1.0, max_abs(b.riemann, per_point=True))), label
            assert _pointwise_below(b.ricci - np.swapaxes(b.ricci, -1, -2), b.ricci, 1e-11)
            e = b.electric
            assert _pointwise_below(e - np.swapaxes(e, -1, -2), e, 1e-11)
            assert _pointwise_below(np.einsum("...kl,...l->...k", e, b.u_up), e, 1e-11)


def test_weyl_mixed_trace_via_contract_and_brute_force(small_bundles):
    # Raise the first Weyl slot and contract it against the last: the result
    # must vanish, and the contraction op must agree with an explicit loop.
    model, bundles = small_bundles["twisted_generic_n5"]
    b = bundles[0]
    weyl_c = TensorValue.of(b.weyl[0], (DOWN,) * 4)
    mixed = raise_lower(weyl_c, 0, TensorValue.of(b.g_inv[0], (UP, UP)), UP)
    traced = contract(mixed, 0, 3)
    assert max_abs(traced) < 1e-12 * max(1.0, max_abs(weyl_c))
    n = b.n
    brute = np.zeros((n, n))
    for k in range(n):
        for l in range(n):
            brute[k, l] = sum(mixed.components[a, k, l, a] for a in range(n))
    assert max_abs(traced.components - brute) < 1e-14


def test_electric_raise_lower_roundtrip_on_twisted_metric(small_bundles):
    model, bundles = small_bundles["twisted_generic_n5"]
    for b in bundles:
        for k in range(len(b.points)):
            electric = TensorValue.of(b.electric[k], (DOWN, DOWN))
            mixed = raise_lower(electric, 1, TensorValue.of(b.g_inv[k], (UP, UP)), UP)
            back = raise_lower(mixed, 1, TensorValue.of(b.g[k], (DOWN, DOWN)), DOWN)
            assert max_abs(back.components - electric.components) < 1e-12 * max(
                1.0, max_abs(electric)
            )


def test_divergence_two_contraction_routes_agree(small_bundles):
    model, bundles = small_bundles["twisted_generic_n5"]
    for b in bundles:
        for k in range(len(b.points)):
            direct = b.div_weyl[k]
            nabla_weyl = TensorValue.of(b.nabla_weyl[k], (DOWN,) * 5)
            raised = raise_lower(nabla_weyl, 4, TensorValue.of(b.g_inv[k], (UP, UP)), UP)
            via_ops = contract(raised, 0, 4).components
            assert max_abs(direct - via_ops) < 1e-11 * max(1.0, max_abs(direct))


def test_mixed_weyl_conformal_invariance():
    # C^a_bcd is unchanged when the full metric is rescaled by Omega^2,
    # including a position-dependent Omega.
    n = 5
    base = builtin_model("twisted_generic", n)

    def scaled_model(omega_sq):
        entries = {
            key: (lambda f: lambda xj: omega_sq(xj) * f(xj))(fn)
            for key, fn in base.entries.items()
        }
        return MetricModel(
            name="conformal_variant",
            n=n,
            parameters={},
            expected_class="twisted",
            entries=entries,
            bounds=base.bounds,
            description="",
        )

    variants = [
        scaled_model(lambda xj: jets.constant(2.7, len(xj))),
        scaled_model(lambda xj: jets.exp(0.1 * xj[0] + 0.05 * xj[1])),
    ]
    points = sample_points(base, 3, 7)
    b0 = build_bundle(base, points)
    ref = np.einsum("...ae,...ebcd->...abcd", b0.g_inv, b0.weyl)
    for variant in variants:
        b1 = build_bundle(variant, points)
        mixed = np.einsum("...ae,...ebcd->...abcd", b1.g_inv, b1.weyl)
        assert _pointwise_below(mixed - ref, ref, 1e-9)


def test_bundle_construction_is_deterministic():
    m = builtin_model("twisted_generic", 5)
    p = sample_points(m, 1, 5)
    b1 = build_bundle(m, p)
    b2 = build_bundle(m, p)
    assert np.array_equal(b1.weyl, b2.weyl)
    assert np.array_equal(b1.nabla_weyl, b2.nabla_weyl)
    assert np.array_equal(b1.hubble_rate, b2.hubble_rate)
    assert np.array_equal(b1.scalar_curvature, b2.scalar_curvature)


def test_singular_metric_raises():
    entries = {
        (0, 0): lambda xj: jets.constant(-1.0, 4),
        (1, 1): lambda xj: jets.constant(0.0, 4),
        (2, 2): lambda xj: jets.constant(1.0, 4),
        (3, 3): lambda xj: jets.constant(1.0, 4),
    }
    mj = evaluate_metric_jets(entries, 4, np.zeros(4))
    with pytest.raises(ValueError, match="singular metric"):
        christoffel_from_jets(mj)


def test_non_lorentzian_signature_rejected():
    m = builtin_model("minkowski", 4)
    euclid = {
        key: (lambda xj: jets.constant(1.0, 4)) for key in m.entries
    }
    bad = MetricModel(
        name="euclidean",
        n=4,
        parameters={},
        expected_class="minkowski",
        entries=euclid,
        bounds=m.bounds,
        description="",
    )
    with pytest.raises(ValueError, match="not Lorentzian"):
        bad.metric_jets(np.zeros(4))


def test_nabla_u_matches_finite_differences():
    # Cross-check the connection assembly: FD the covector field u_a(x) and
    # correct with the center-point Christoffels.
    m = builtin_model("twisted_generic", 5)
    u_up = m.u_up

    def u_down_at(x):
        return m.metric_jets(x).value @ u_up

    for p in sample_points(m, 3, 13):
        b = build_bundle(m, p[None])
        d_u_fd = fd_tensor_partials(u_down_at, p)
        nabla_fd = d_u_fd - np.einsum("epa,e->pa", b.christoffel[0], b.u_down[0])
        exact = b.nabla_u_down[0]
        assert max_abs(nabla_fd - exact) < 1e-6 * max(1.0, max_abs(exact))


def test_weyl_divergence_matches_finite_differences():
    # FD the Weyl field itself, assemble the covariant derivative with the
    # center connection, contract, and compare with the jet-analytic route.
    for model_name, n in (("twisted_generic", 5), ("grw_product_spheres", 5)):
        m = builtin_model(model_name, n)

        def weyl_at(x):
            return build_bundle(m, x[None]).weyl[0]

        for p in sample_points(m, 3, 17):
            b = build_bundle(m, p[None])
            d_weyl_fd = fd_tensor_partials(weyl_at, p)
            nabla_fd = covariant_derivative((DOWN,) * 4, b.weyl[0], d_weyl_fd, b.christoffel[0])
            div_fd = np.einsum("ps,pikms->ikm", b.g_inv[0], nabla_fd)
            scale = max(1.0, max_abs(b.nabla_weyl))
            assert max_abs(nabla_fd - b.nabla_weyl[0]) < 2e-5 * scale
            assert max_abs(div_fd - b.div_weyl[0]) < 2e-5 * scale
