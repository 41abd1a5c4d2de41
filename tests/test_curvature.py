"""Curvature pipeline against analytic, finite-difference and symmetry oracles."""

import numpy as np
import pytest

from conftest import fd_tensor_partials
from weylgeom import build_bundle, builtin_model, sample_points
from weylgeom import jets
from weylgeom.curvature import (
    Curvature,
    _exchange_cd,
    christoffel_from_jets,
    covariant_derivative,
    electric_reconstruction,
    riemann_ricci_scalar,
    weyl,
)
from weylgeom.models import MetricModel, default_model_specs, evaluate_metric_jets
from weylgeom.tensors import (
    DOWN,
    UP,
    TensorValue,
    contract,
    generalized_curvature_check,
    kulkarni_nomizu,
    max_abs,
    raise_lower,
)


def _pointwise_below(residual, reference, rtol):
    """Every point's max |residual| is below rtol * max(1, max |reference|)."""
    limit = rtol * np.maximum(1.0, max_abs(reference, per_point=True))
    return np.all(max_abs(residual, per_point=True) < limit)


def test_minkowski_bundle_is_flat():
    m = builtin_model("minkowski", 4)
    points = np.array([[0.5, 0.1, -0.2, 0.9]])
    b = build_bundle(m, points)
    assert max_abs(b.christoffel) == 0.0
    assert max_abs(christoffel_from_jets(m.metric_jets(points)).d_gamma) == 0.0
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
    def entries(xj):
        return {(0, 0): jets.constant(1.0, 2), (1, 1): jets.power(jets.sin(xj[0]), 2)}

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
        # The bundle keeps no ∂Riemann; it is formed from the kernel's ∂B.
        mj = model.metric_jets(b.points)
        curv = riemann_ricci_scalar(mj, christoffel_from_jets(mj))
        nr = covariant_derivative((DOWN,) * 4, curv.riemann, _exchange_cd(curv.d_b), b.christoffel)
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
    assert max_abs(traced.components) < 1e-12 * max(1.0, max_abs(weyl_c.components))
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
                1.0, max_abs(electric.components)
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
        def entries(xj):
            return {key: omega_sq(xj) * g for key, g in base.entries(xj).items()}

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
    def entries(xj):
        return {(a, a): jets.constant(g, 4) for a, g in enumerate((-1.0, 0.0, 1.0, 1.0))}

    mj = evaluate_metric_jets(entries, 4, np.zeros(4))
    with pytest.raises(ValueError, match="singular metric"):
        christoffel_from_jets(mj)


def test_non_lorentzian_signature_rejected():
    m = builtin_model("minkowski", 4)
    bad = MetricModel(
        name="euclidean",
        n=4,
        parameters={},
        expected_class="minkowski",
        entries=lambda xj: {(a, a): jets.constant(1.0, 4) for a in range(4)},
        bounds=m.bounds,
        description="",
    )
    with pytest.raises(ValueError, match="not Lorentzian"):
        bad.metric_jets(np.zeros(4))


def test_weyl_at_high_curvature_fails_only_on_the_metric():
    # weyl() forms g ∧ S with kulkarni_nomizu, which rejects a factor whose
    # asymmetry exceeds 1e-10.  S grows with the curvature, yet its rounding
    # asymmetry must never trip that check: a point either gives C or fails
    # on its metric.
    cases = [("grw_product_spheres", 5, {"r1": 0.01})] * 10
    for value in np.geomspace(1.0, 250.0, 10):
        cases += [
            ("rw_flat", 4, {"H": value}),
            ("twisted_generic", 6, {"alpha": value}),
            ("non_twisted_perturbed", 5, {"alpha": value}),
        ]
    built = 0
    for seed, (name, n, params) in enumerate(cases):
        model = builtin_model(name, n, params)
        try:
            build_bundle(model, sample_points(model, 1, seed), fields=("weyl",))
        except ValueError as err:
            assert str(err).startswith(("singular metric", "non-finite metric components")), (name, params)
        else:
            built += 1
    assert built >= len(cases) // 2


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


# ---------------------------------------------------------------------------
# The matrix-product kernels against the einsum formulas they replaced
# ---------------------------------------------------------------------------

ORACLE_RTOL = 64 * np.finfo(np.float64).eps

# Covariant-derivative variances: ranks 1-4, up and down slots mixed.
ORACLE_VARIANCES = ["u", "d", "ud", "du", "dud", "uud", "dddd", "udud", "duuu"]


def _einsum_d2_g_inv(mj, g_inv, d_g_inv):
    """∂_p ∂_q g⁻¹ = -(∂_q g⁻¹ ∂_p g g⁻¹ + g⁻¹ ∂_p g ∂_q g⁻¹ + g⁻¹ ∂_p ∂_q g g⁻¹)."""
    dg, d2g = mj.d1, mj.d2
    return -(
        np.einsum("...qae,...pef,...fb->...pqab", d_g_inv, dg, g_inv)
        + np.einsum("...ae,...pef,...qfb->...pqab", g_inv, dg, d_g_inv)
        + np.einsum("...ae,...pqef,...fb->...pqab", g_inv, d2g, g_inv)
    )


def _einsum_connection(mj, g_inv, d_g_inv, d2_g_inv):
    """Γ, ∂Γ, ∂∂Γ (second kind) from the metric jets and g⁻¹ with its derivatives."""
    dg, d2g, d3g = mj.d1, mj.d2, mj.d3
    k = np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg
    dk = np.einsum("...pbdc->...pdbc", d2g) + np.einsum("...pcdb->...pdbc", d2g) - d2g
    d2k = np.einsum("...pqbdc->...pqdbc", d3g) + np.einsum("...pqcdb->...pqdbc", d3g) - d3g
    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", g_inv, k)
    d_gamma = 0.5 * (
        np.einsum("...pad,...dbc->...pabc", d_g_inv, k) + np.einsum("...ad,...pdbc->...pabc", g_inv, dk)
    )
    mixed = np.einsum("...pad,...qdbc->...pqabc", d_g_inv, dk)
    d2_gamma = 0.5 * (
        np.einsum("...pqad,...dbc->...pqabc", d2_g_inv, k)
        + mixed
        + mixed.swapaxes(-5, -4)
        + np.einsum("...ad,...pqdbc->...pqabc", g_inv, d2k)
    )
    return gamma, d_gamma, d2_gamma


def _einsum_curvature(mj, g_inv, d_g_inv, gamma, d_gamma, d2_gamma):
    """Riemann, Ricci, scalar curvature and their ∂'s by the second-kind route:
    R^a_bcd from Γ, ∂Γ, ∂∂Γ, then lowered with g and ∂g."""
    r_up = (
        np.einsum("...cadb->...abcd", d_gamma)
        - np.einsum("...dacb->...abcd", d_gamma)
        + np.einsum("...ace,...edb->...abcd", gamma, gamma)
        - np.einsum("...ade,...ecb->...abcd", gamma, gamma)
    )
    d_r_up = (
        np.einsum("...pcadb->...pabcd", d2_gamma)
        - np.einsum("...pdacb->...pabcd", d2_gamma)
        + np.einsum("...pace,...edb->...pabcd", d_gamma, gamma)
        + np.einsum("...ace,...pedb->...pabcd", gamma, d_gamma)
        - np.einsum("...pade,...ecb->...pabcd", d_gamma, gamma)
        - np.einsum("...ade,...pecb->...pabcd", gamma, d_gamma)
    )
    riemann = np.einsum("...ae,...ebcd->...abcd", mj.value, r_up)
    d_riemann = np.einsum("...pae,...ebcd->...pabcd", mj.d1, r_up) + np.einsum(
        "...ae,...pebcd->...pabcd", mj.value, d_r_up
    )
    ricci = np.einsum("...abad->...bd", r_up)
    d_ricci = np.einsum("...pabad->...pbd", d_r_up)
    scalar = np.einsum("...bd,...bd->...", g_inv, ricci)
    d_scalar = np.einsum("...pbd,...bd->...p", d_g_inv, ricci) + np.einsum(
        "...bd,...pbd->...p", g_inv, d_ricci
    )
    return riemann, d_riemann, ricci, d_ricci, scalar, d_scalar


def _einsum_weyl(mj, curv, d_riemann):
    """C = Riemann - s/(n-2) + R w2/((n-1)(n-2)) and ∂C by the product rule from
    ``d_riemann``, with s_jklm = g_jl R_km - g_jm R_kl + g_km R_jl - g_kl R_jm,
    w2_jklm = g_jl g_km - g_jm g_kl."""
    n = mj.n
    g, dg, ric, d_ric = mj.value, mj.d1, curv.ricci, curv.d_ricci

    def exchange_lm(t):
        return t - t.swapaxes(-1, -2)

    def exchange_lm_jk(t):
        t = exchange_lm(t)
        return t - t.swapaxes(-4, -3)

    s = exchange_lm_jk(np.einsum("...jl,...km->...jklm", g, ric))
    d_s = exchange_lm_jk(
        np.einsum("...pjl,...km->...pjklm", dg, ric) + np.einsum("...jl,...pkm->...pjklm", g, d_ric)
    )
    w2 = exchange_lm(np.einsum("...jl,...km->...jklm", g, g))
    d_w2 = exchange_lm(
        np.einsum("...pjl,...km->...pjklm", dg, g) + np.einsum("...jl,...pkm->...pjklm", g, dg)
    )
    c1, c2 = 1.0 / (n - 2), 1.0 / ((n - 1) * (n - 2))
    r = curv.scalar[..., None, None, None, None]
    weyl_c = curv.riemann - c1 * s + c2 * r * w2
    d_weyl_c = (
        d_riemann
        - c1 * d_s
        + c2 * (np.einsum("...p,...jklm->...pjklm", curv.d_scalar, w2) + r[..., None] * d_w2)
    )
    return weyl_c, d_weyl_c


def _einsum_covariant_derivative(variance, comp, d1, gamma):
    letters = "abcd"[: len(variance)]
    nabla = np.array(d1, dtype=float)
    for slot, flag in enumerate(variance):
        src = letters[:slot] + "z" + letters[slot + 1 :]
        if flag == DOWN:
            nabla -= np.einsum(f"...zp{letters[slot]},...{src}->...p{letters}", gamma, comp)
        else:
            nabla += np.einsum(f"...{letters[slot]}pz,...{src}->...p{letters}", gamma, comp)
    return nabla


def _oracle_close(got, want, magnitude=1.0):
    assert got.shape == want.shape
    return np.all(np.abs(got - want) <= ORACLE_RTOL * np.maximum(magnitude, np.abs(want)))


@pytest.mark.parametrize("spec", default_model_specs(), ids=lambda spec: f"{spec[0]}_n{spec[1]}")
def test_kernels_match_einsum_oracle(spec):
    name, n, params = spec
    model = builtin_model(name, n, params)
    points = sample_points(model, 4, 3)
    mj = model.metric_jets(points)
    conn = christoffel_from_jets(mj)
    d2_g_inv = _einsum_d2_g_inv(mj, conn.g_inv, conn.d_g_inv)
    gamma, d_gamma, d2_gamma = _einsum_connection(mj, conn.g_inv, conn.d_g_inv, d2_g_inv)
    assert _oracle_close(conn.gamma, gamma), "gamma"
    assert _oracle_close(conn.d_gamma, d_gamma), "d_gamma"
    assert _oracle_close(conn.gamma_low, np.einsum("...da,...abc->...dbc", mj.value, gamma)), "gamma_low"
    want = np.einsum("...pda,...abc->...pdbc", mj.d1, gamma) + np.einsum("...da,...pabc->...pdbc", mj.value, d_gamma)
    assert _oracle_close(conn.d_gamma_low, want), "d_gamma_low"

    # The kernel builds the covariant tensor from first-kind symbols; the
    # oracle takes the second-kind route through ∂∂Γ and lowers the index.
    # The kernel holds ∂B, whose (c, d) exchange is ∂Riemann.
    curv = riemann_ricci_scalar(mj, conn)
    d_riemann = _exchange_cd(curv.d_b)
    want = _einsum_curvature(mj, conn.g_inv, conn.d_g_inv, gamma, d_gamma, d2_gamma)
    got = (curv.riemann, d_riemann, curv.ricci, curv.d_ricci, curv.scalar, curv.d_scalar)
    names = ("riemann", "d_riemann", "ricci", "d_ricci", "scalar", "d_scalar")
    for field, value, expected in zip(names, got, want):
        assert _oracle_close(value, expected), field

    # weyl() folds the two metric terms into one product with the Schouten
    # tensor, another grouping of the sum.  Where C vanishes analytically
    # (rw_flat is conformally flat) both sides are rounding noise of the
    # Riemann terms, so the bound also scales with M, the point's largest
    # component of Riemann or ∂Riemann.
    wd = weyl(mj, curv)
    want = _einsum_weyl(mj, curv, d_riemann)
    m = np.maximum(max_abs(curv.riemann, per_point=True), max_abs(d_riemann, per_point=True))
    assert _oracle_close(wd.weyl, want[0], np.maximum(1.0, m)[:, None, None, None, None])
    assert _oracle_close(wd.d_weyl, want[1], np.maximum(1.0, m)[:, None, None, None, None, None])

    rng = np.random.default_rng(n)
    for variance in ORACLE_VARIANCES:
        shape = (len(points),) + (n,) * len(variance)
        comp = rng.uniform(-1.0, 1.0, shape)
        d1 = rng.uniform(-1.0, 1.0, shape[:1] + (n,) + shape[1:])
        got = covariant_derivative(variance, comp, d1, conn.gamma)
        want = _einsum_covariant_derivative(variance, comp, d1, conn.gamma)
        assert _oracle_close(got, want), variance


def test_weyl_derivative_keeps_a_first_pair_defect_of_its_input():
    # C is R + g ∧ S and ∂C is formed from ∂B without passing through
    # ∂Riemann, so a Riemann tensor and a ∂B whose first pairs are not
    # antisymmetric must give the C and ∂C, and the first-pair defects, that
    # the einsum formula gives from them.
    model = builtin_model("twisted_generic", 5)
    mj = model.metric_jets(sample_points(model, 3, 2))
    curv = riemann_ricci_scalar(mj, christoffel_from_jets(mj))
    rng = np.random.default_rng(5)
    riemann = rng.uniform(-1.0, 1.0, curv.riemann.shape)
    d_b = rng.uniform(-1.0, 1.0, curv.d_b.shape)
    synthetic = Curvature(riemann, d_b, curv.ricci, curv.d_ricci, curv.scalar, curv.d_scalar)
    wd = weyl(mj, synthetic)
    want_weyl, want_d_weyl = _einsum_weyl(mj, synthetic, _exchange_cd(d_b))
    for got, want, source in ((wd.weyl, want_weyl, riemann), (wd.d_weyl, want_d_weyl, d_b)):
        m = np.maximum(1.0, max_abs(source, per_point=True)).reshape((-1,) + (1,) * (got.ndim - 1))
        assert _oracle_close(got, want, m)
        defect, want_defect = (max_abs(t + t.swapaxes(-4, -3), per_point=True) for t in (got, want))
        assert np.all(want_defect > 0.1)
        assert np.all(np.abs(defect - want_defect) <= ORACLE_RTOL * want_defect)


def test_weyl_and_covariant_derivative_leave_their_inputs_alone():
    # Both kernels fill scratch buffers in place; none of them may be an input.
    model = builtin_model("twisted_generic", 6)
    mj = model.metric_jets(sample_points(model, 3, 5))
    conn = christoffel_from_jets(mj)
    curv = riemann_ricci_scalar(mj, conn)
    riemann, d_b = curv.riemann.copy(), curv.d_b.copy()
    wd = weyl(mj, curv)
    assert np.array_equal(curv.riemann, riemann) and np.array_equal(curv.d_b, d_b)
    assert not np.shares_memory(wd.weyl, curv.riemann)
    assert not np.shares_memory(wd.d_weyl, curv.d_b)

    rng = np.random.default_rng(0)
    for variance in ("", "d", "u", "du", "dddd"):
        shape = (3,) + (6,) * len(variance)
        comp = rng.uniform(-1.0, 1.0, shape)
        d1 = rng.uniform(-1.0, 1.0, shape[:1] + (6,) + shape[1:])
        comp_before, d1_before = comp.copy(), d1.copy()
        nabla = covariant_derivative(variance, comp, d1, conn.gamma)
        assert np.array_equal(comp, comp_before) and np.array_equal(d1, d1_before), variance
        assert not np.shares_memory(nabla, d1), variance


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_electric_reconstruction_is_the_paper_form(n):
    # h ∧ E with h = (n-2)/(n-3) u⊗u + 1/(n-3) g is the paper's two
    # Kulkarni-Nomizu blocks, (n-2)/(n-3) (u⊗u) ∧ E + 1/(n-3) g ∧ E.
    rng = np.random.default_rng(n)
    g, e = (x + np.swapaxes(x, -1, -2) for x in rng.normal(size=(2, 5, n, n)))
    u = rng.normal(size=(5, n))
    got = electric_reconstruction(g, u, e, n)
    uu = u[:, :, None] * u[:, None, :]
    want = (n - 2) / (n - 3) * kulkarni_nomizu(uu, e) + 1 / (n - 3) * kulkarni_nomizu(g, e)
    assert _oracle_close(got, want)
