"""Identity evaluators: positive models, the negative control, and reports."""

import dataclasses
import itertools
import types
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylgeom import build_bundle, builtin_model, curvature, identities, sample_points
from weylgeom.curvature import electric_reconstruction, expand_pairs, gather_pairs
from weylgeom.models import default_model_specs
from weylgeom.identities import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    REGISTRY,
    GROUPS,
    IdentityReport,
    expected_verdict,
    registry_ids,
    run_model_suite,
    _wedge,
)
from weylgeom.tensors import kulkarni_nomizu, max_abs

_BY_ID = {check.identity_id: check for check in REGISTRY}

# run_model_suite's reports for each list of bundles, keyed by identity id.
# The entry holds its list, so no later list can reuse its id.
_SUITES = {}


def _suite(model, bundles):
    if id(bundles) not in _SUITES:
        reports = run_model_suite(model, bundles)
        _SUITES[id(bundles)] = (bundles, model, {r.identity_id: r for r in reports})
    cached, cached_model, reports = _SUITES[id(bundles)]
    assert cached is bundles and cached_model is model
    return reports


def _report(identity_id, model, bundles):
    return _suite(model, bundles)[identity_id]


def _reports(ids, model, bundles):
    return [_report(i, model, bundles) for i in ids]


def _group(group, model, bundles):
    """Reports of every registry check in ``group``, keyed by identity id."""
    return {i: r for i, r in _suite(model, bundles).items() if _BY_ID[i].group == group}


def _point(identity_id, b):
    """A pointwise check's (residual, scale) on one bundle, through a view of its own."""
    return _BY_ID[identity_id].point_fn(identities._Chunk(b))


# Static manifest: every identity the suite must cover, with its exact anchor.
# A registry entry without a manifest row (or vice versa) is a defect.
MANIFEST = {
    "torse_forming": "∇_i u_j = φ (g_ij + u_i u_j), u_k u^k = -1",
    "weyl_compatibility": "(u_i C_jklm + u_j C_kilm + u_k C_ijlm) u^m = 0",
    "electric_contraction": "C_jklm u^m = u_k E_jl - u_j E_kl",
    "electric_contraction_iff": "C_jklm u^m = 0  ⇔  E_jk = 0",
    "ricci_form": (
        "R_jk = (R - nξ)/(n-1) u_j u_k + (R - ξ)/(n-1) g_jk "
        "+ (n-2)(u_j v_k + u_k v_j - E_jk)"
    ),
    "hubble_gradient_spacelike": "v^k = (g^km + u^k u^m) ∇_m φ satisfies v_k u^k = 0",
    "lovelock_n4": (
        "0 = g_ar C_bcst + g_br C_cast + g_cr C_abst + g_at C_bcrs + g_bt C_cars "
        "+ g_ct C_abrs + g_as C_bctr + g_bs C_catr + g_cs C_abtr   (n = 4)"
    ),
    "quarter_trace_n4": "C_abcr C^abcs = (1/4) δ_r^s C²   (n = 4)",
    "reconstruction_n4": (
        "C_abcd = -u^m (u_a C_mbcd + u_b C_amcd + u_c C_abmd + u_d C_abcm) "
        "+ g_ad E_bc - g_bd E_ac - g_ac E_bd + g_bc E_ad   (n = 4, unit timelike u)"
    ),
    "electric_rep_n4": (
        "C_abcd = 2(u_a u_d E_bc - u_a u_c E_bd + u_b u_c E_ad - u_b u_d E_ac) "
        "+ g_ad E_bc - g_ac E_bd + g_bc E_ad - g_bd E_ac   (n = 4, torse-forming u)"
    ),
    "weyl_sq_8_electric_sq_n4": "C² = 8 E²   (n = 4, torse-forming u)",
    "electric_iff_n4": "C_abcd = 0  ⇔  E_ab = 0   (n = 4, torse-forming u)",
    "remainder_curvature_symmetries": (
        "the Weyl remainder has the algebraic symmetries of a curvature tensor "
        "(pair antisymmetry, pair exchange, first Bianchi)"
    ),
    "remainder_traceless": "every single trace of the Weyl remainder vanishes",
    "remainder_u_annihilation": "the Weyl remainder contracted with u^m on any slot vanishes",
    "remainder_recurrence": "u^p ∇_p (Weyl remainder) = -2φ (Weyl remainder)",
    "remainder_vanishes_n4": "the Weyl remainder is identically zero in n = 4",
    "remainder_scalar_relation": "(remainder)² = C² - 4 (n-2)/(n-3) E²",
    "weyl_scalar_positivity": (
        "C² = 4 (n-2)/(n-3) E² + (remainder)² ≥ 0, E² ≥ 0, (remainder)² ≥ 0"
    ),
    "weyl_bianchi_contraction": (
        "∇_i C_jklm + ∇_j C_kilm + ∇_k C_ijlm = (g_jm D_kil + g_km D_ijl + g_im D_jkl "
        "+ g_kl D_jim + g_il D_kjm + g_jl D_ikm)/(n-3)  with  D_abc = ∇_p C_abc^p"
    ),
    "weyl_divergence_formula": (
        "∇_p C_ikm^p = (n-3)(∇_i E_km - ∇_k E_im) + (n-2)[u^p ∇_p (u_i E_km - u_k E_im) "
        "+ 2φ (u_i E_km - u_k E_im)] + (2u_k u_m + g_km) ∇_p E_i^p "
        "- (2u_i u_m + g_im) ∇_p E_k^p"
    ),
    "master_recurrence": (
        "(n-3)(u^p ∇_p C_iklm + 2φ C_iklm) = (n-2)[u^p ∇_p + 2φ](u⊗u ∧ E)_iklm "
        "+ [u^p ∇_p + 2φ](g ∧ E)_iklm"
    ),
    "master_recurrence_consistency": (
        "the master recurrence equals (n-3) times the Weyl-remainder recurrence "
        "after regrouping"
    ),
    "electric_zero_implies_divfree": "u_m C_jkl^m = 0  ⟹  ∇_m C_jkl^m = 0",
    "divfree_corollary": (
        "∇_p C_jkl^p = 0  ⟹  ∇_p E^pk = 0  and  u^p ∇_p E_km = -φ (n-1) E_km"
    ),
    "electric_gradient_recurrence": (
        "∇_i E_km - ∇_k E_im = (n-2) φ (u_i E_km - u_k E_im)  when  ∇_p C_jkl^p = 0"
    ),
    "weyl_u_recurrence": (
        "∇_m C_jkl^m = 0  ⟹  u^p ∇_p (u_m C_jkl^m) = -φ (n-1) u_m C_jkl^m"
    ),
}


def test_registry_matches_manifest_exactly():
    assert set(registry_ids()) == set(MANIFEST)
    for check in REGISTRY:
        assert check.paper_ref == MANIFEST[check.identity_id]
        assert check.tolerance > 0
        assert check.group in GROUPS
        # Every check measures residuals at points, except the iff checks.
        assert (check.point_fn is None) == (check.iff is not None)


def test_minkowski_everything_trivially_zero(small_bundles):
    model, bundles = small_bundles["minkowski_n4"]
    for report in run_model_suite(model, bundles):
        if report.verdict == NOT_APPLICABLE:
            continue
        assert report.verdict == PASS
        assert report.max_residual < 1e-12


def test_torse_forming_on_twisted(small_bundles):
    model, bundles = small_bundles["twisted_generic_n5"]
    report = _report("torse_forming", model, bundles)
    assert report.verdict == PASS
    assert report.max_residual < 1e-9 * max(1.0, report.scale)


def test_torse_forming_negative_control(small_bundles):
    model, bundles = small_bundles["non_twisted_perturbed_n4"]
    report = _report("torse_forming", model, bundles)
    assert report.verdict == FAIL
    assert report.max_residual > 1e-3
    assert expected_verdict(model, report) == FAIL
    assert report.verdict == expected_verdict(model, report)


def test_weyl_compatibility(small_bundles):
    twisted_model, twisted = small_bundles["twisted_generic_n5"]
    assert _report("weyl_compatibility", twisted_model, twisted).verdict == PASS
    model, control = small_bundles["non_twisted_perturbed_n4"]
    bad = _report("weyl_compatibility", model, control)
    assert bad.verdict == FAIL
    assert bad.verdict == expected_verdict(model, bad)


def test_electric_contraction_and_iff(small_bundles):
    contraction = ("electric_contraction", "electric_contraction_iff")
    twisted_model, twisted = small_bundles["twisted_generic_n5"]
    eq, iff = _reports(contraction, twisted_model, twisted)
    assert eq.verdict == PASS and iff.verdict == PASS
    # Nontrivial on the twisted model: both sides of the contraction nonzero.
    assert iff.extras["max_weyl_u"] > 1e-4 and iff.extras["max_electric"] > 1e-4

    grw_model, grw = small_bundles["grw_product_spheres_n5"]
    eq_g, iff_g = _reports(contraction, grw_model, grw)
    assert eq_g.verdict == PASS and iff_g.verdict == PASS
    # Both sides vanish while the Weyl tensor itself does not.
    assert iff_g.extras["max_weyl_u"] < 1e-9 and iff_g.extras["max_electric"] < 1e-10
    assert iff_g.scale > 1e-3


def test_ricci_decomposition(small_bundles):
    for label in ("twisted_n4", "twisted_generic_n5", "rw_flat_n4"):
        model, bundles = small_bundles[label]
        form, spacelike = _reports(("ricci_form", "hubble_gradient_spacelike"), model, bundles)
        assert form.verdict == PASS, label
        assert spacelike.verdict == PASS, label
    # The expansion gradient separates twisted from warped-only models.
    _, twisted = small_bundles["twisted_generic_n5"]
    assert max(max_abs(b.hubble_gradient_up) for b in twisted) > 1e-4
    _, rw = small_bundles["rw_flat_n4"]
    assert max(max_abs(b.hubble_gradient_up) for b in rw) < 1e-12
    _, grw = small_bundles["grw_product_spheres_n5"]
    assert max(max_abs(b.hubble_gradient_up) for b in grw) < 1e-12


def test_four_dim_identities_on_twisted_n4(small_bundles):
    model, bundles = small_bundles["twisted_n4"]
    reports = _group("four-dimensional algebra", model, bundles)
    assert len(reports) == 6
    for r in reports.values():
        assert r.verdict == PASS, r.identity_id


def test_four_dim_identities_on_negative_control(small_bundles):
    model, bundles = small_bundles["non_twisted_perturbed_n4"]
    reports = _group("four-dimensional algebra", model, bundles)
    # Purely algebraic statements hold for any metric and any unit timelike u.
    assert reports["lovelock_n4"].verdict == PASS
    assert reports["quarter_trace_n4"].verdict == PASS
    assert reports["reconstruction_n4"].verdict == PASS
    # The electric representation genuinely needs the torse-forming condition.
    assert reports["electric_rep_n4"].verdict == FAIL


def test_four_dim_identities_not_applicable_elsewhere(small_bundles):
    model, bundles = small_bundles["twisted_generic_n5"]
    reports = _group("four-dimensional algebra", model, bundles)
    assert len(reports) == 6
    assert all(r.verdict == NOT_APPLICABLE for r in reports.values())


def test_remainder_suite_twisted_n5_nontrivial(small_bundles):
    model, bundles = small_bundles["twisted_generic_n5"]
    reports = _group("weyl remainder", model, bundles)
    # remainder_vanishes_n4 is the one n = 4 statement of the group.
    assert reports.pop("remainder_vanishes_n4").verdict == NOT_APPLICABLE
    assert len(reports) == 6
    assert all(r.verdict == PASS for r in reports.values())
    assert max(max_abs(b.weyl_remainder) for b in bundles) > 1e-3


def test_remainder_vanishes_on_twisted_n4(small_bundles):
    model, bundles = small_bundles["twisted_n4"]
    reports = _group("weyl remainder", model, bundles)
    assert reports["remainder_vanishes_n4"].verdict == PASS
    assert reports["remainder_vanishes_n4"].max_residual < 1e-9


def test_remainder_equals_weyl_on_grw(small_bundles):
    # Vanishing electric part collapses the remainder construction onto the
    # Weyl tensor itself, and the recurrence still holds.
    model, bundles = small_bundles["grw_product_spheres_n5"]
    for b in bundles:
        assert max_abs(b.weyl_remainder - b.weyl) < 1e-10
    reports = _group("weyl remainder", model, bundles)
    assert reports["remainder_recurrence"].verdict == PASS


def test_bianchi_contraction_unconditional(small_bundles):
    for label in ("twisted_generic_n5", "non_twisted_perturbed_n4", "grw_product_spheres_n5"):
        model, bundles = small_bundles[label]
        report = _report("weyl_bianchi_contraction", model, bundles)
        assert report.verdict == PASS, label
        assert report.max_residual < 1e-8 * max(1.0, report.scale)


# Oracles: the cyclic-sum checks over every index combination, as full n**5
# and n**6 patterns, and all six single traces of the remainder.  The suite
# evaluates only the independent components of each.


def _full_cyclic_sum(t):
    """out_ijk... = t_ijk... + t_kij... + t_jki..., over the first three slots."""
    shifted = np.moveaxis(t, 3, 1)
    return t + shifted + np.moveaxis(shifted, 3, 1)


def _oracle_weyl_compatibility(b):
    weyl_u = np.einsum("...jklm,...m->...jkl", b.weyl, b.u_up)
    pattern = np.einsum("...i,...jkl->...ijkl", b.u_down, weyl_u)
    return max_abs(_full_cyclic_sum(pattern), per_point=True)


def _oracle_lovelock(b):
    g, c = b.g, b.weyl
    pattern = (
        np.einsum("...ar,...bcst->...abcrst", g, c)
        + np.einsum("...at,...bcrs->...abcrst", g, c)
        + np.einsum("...as,...bctr->...abcrst", g, c)
    )
    return max_abs(_full_cyclic_sum(pattern), per_point=True)


def _full_pairs(t, n):
    """``t`` held at the pairs l < m of its last slot pair (in the order of
    ``np.triu_indices``), written out as the antisymmetric (l, m) block."""
    l, m = np.triu_indices(n, 1)
    full = np.zeros(t.shape[:-1] + (n, n))
    full[..., l, m], full[..., m, l] = t, -t
    return full


def _oracle_bianchi(b):
    g, dv = b.g, b.div_weyl
    pattern = _full_pairs(b.nabla_weyl, b.n) - (
        np.einsum("...jm,...kil->...ijklm", g, dv) + np.einsum("...kl,...jim->...ijklm", g, dv)
    ) / (b.n - 3.0)
    return max_abs(_full_cyclic_sum(pattern), per_point=True)


def _oracle_remainder_traceless(b):
    t, n = b.weyl_remainder, b.n
    g_inv = b.g_inv.reshape(len(t), n * n, 1)
    traces = [
        np.moveaxis(t, pair, (-2, -1)).reshape(len(t), n * n, n * n) @ g_inv
        for pair in itertools.combinations((1, 2, 3, 4), 2)
    ]
    return np.max([max_abs(x, per_point=True) for x in traces], axis=0)


_ORACLES = {
    "weyl_compatibility": _oracle_weyl_compatibility,
    "lovelock_n4": _oracle_lovelock,
    "weyl_bianchi_contraction": _oracle_bianchi,
    "remainder_traceless": _oracle_remainder_traceless,
}


def _antisymmetric(x, *slots):
    """``x`` made exactly antisymmetric in each pair (s, s + 1) of ``slots``."""
    for s in slots:
        x = x - np.swapaxes(x, s, s + 1)
    return x


def _random_chunk(n, points=3, seed=0):
    """Random fields with the exact pair symmetries the suite relies on, but
    satisfying none of the identities; ∇C is held at the pairs l < m of its
    last slot pair, as the bundle holds it, and u^a is ∂_t, as in every
    model, since the suite reads each contraction with u at index 0."""
    rng = np.random.default_rng(seed + n)
    g = rng.normal(size=(points, n, n))
    g_inv = rng.normal(size=(points, n, n))
    remainder = _antisymmetric(rng.normal(size=(points,) + (n,) * 4), 1, 3)
    chunk = types.SimpleNamespace(
        n=n,
        g=g + np.swapaxes(g, 1, 2),
        g_inv=g_inv + np.swapaxes(g_inv, 1, 2),
        u_down=rng.normal(size=(points, n)),
        u_up=np.broadcast_to(np.eye(n)[0], (points, n)),
        weyl=_antisymmetric(rng.normal(size=(points,) + (n,) * 4), 1, 3),
        nabla_weyl=_antisymmetric(rng.normal(size=(points,) + (n,) * 3 + (n * (n - 1) // 2,)), 2),
        div_weyl=_antisymmetric(rng.normal(size=(points,) + (n,) * 3), 1),
        weyl_remainder=remainder + np.einsum("...abcd->...cdab", remainder),
    )
    # E and ∇_p E_km symmetric in (k, m); div E is the bundle's contraction
    # g^ps ∇_p E_ks of that ∇E, since no identity relates the two.
    electric = rng.normal(size=(points, n, n))
    nabla_electric = rng.normal(size=(points, n, n, n))
    chunk.electric = electric + np.swapaxes(electric, -1, -2)
    chunk.nabla_electric = nabla_electric + np.swapaxes(nabla_electric, -1, -2)
    chunk.div_electric = np.einsum("...ps,...pks->...k", chunk.g_inv, chunk.nabla_electric)
    chunk.nabla_u_up = rng.normal(size=(points, n, n))
    chunk.hubble_rate = rng.normal(size=points)
    return chunk


@pytest.mark.parametrize("identity_id", sorted(_ORACLES))
@pytest.mark.parametrize("n", [4, 5, 6])
def test_independent_components_match_the_full_pattern_oracle(identity_id, n):
    b = _random_chunk(n)
    residual, _ = _point(identity_id, b)
    expected = _ORACLES[identity_id](identities._Chunk(b))
    assert np.all(expected > 1.0)  # the random fields violate the identity
    np.testing.assert_allclose(residual, expected, rtol=1e-15, atol=0.0)


def _pmax(x):
    return max_abs(x, per_point=True)


def _oracle_divfree_corollary(b):
    # ∇_p E^pk = 0  and  u^p ∇_p E_km = -φ (n-1) E_km
    div_e = np.einsum("...ps,...pks->...k", b.g_inv, b.nabla_electric)
    along_u = np.einsum("...p,...pkm->...km", b.u_up, b.nabla_electric)
    decay = np.einsum("...,...km->...km", b.hubble_rate * (b.n - 1), b.electric)
    residual = np.maximum(_pmax(div_e), _pmax(along_u + decay))
    return residual, np.maximum(_pmax(b.nabla_electric), _pmax(decay))


def _oracle_electric_gradient_recurrence(b):
    # ∇_i E_km - ∇_k E_im = (n-2) φ (u_i E_km - u_k E_im)
    lhs = b.nabla_electric - np.einsum("...kim->...ikm", b.nabla_electric)
    u_e = np.einsum("...i,...km->...ikm", b.u_down, b.electric)
    rhs = np.einsum("...,...ikm->...ikm", b.hubble_rate * (b.n - 2), u_e - np.einsum("...kim->...ikm", u_e))
    return _pmax(lhs - rhs), np.maximum(_pmax(lhs), _pmax(rhs))


def _oracle_weyl_u_recurrence(b):
    # u^p ∇_p (u_m C_jkl^m) = -φ (n-1) u_m C_jkl^m, with ∇_p u^m a field of its
    # own: (u^p ∇_p C_jklm) u^m + C_jklm u^p ∇_p u^m.
    u = b.u_up
    transport = np.einsum("...p,...pjklm,...m->...jkl", u, _full_pairs(b.nabla_weyl, b.n), u)
    transport += np.einsum("...jklm,...p,...pm->...jkl", b.weyl, u, b.nabla_u_up)
    decay = np.einsum("...,...jklm,...m->...jkl", b.hubble_rate * (b.n - 1), b.weyl, u)
    return _pmax(transport + decay), np.maximum(_pmax(transport), _pmax(decay))


_PAIR_ORACLES = {
    "divfree_corollary": _oracle_divfree_corollary,
    "electric_gradient_recurrence": _oracle_electric_gradient_recurrence,
    "weyl_u_recurrence": _oracle_weyl_u_recurrence,
}


@pytest.mark.parametrize("identity_id", sorted(_PAIR_ORACLES))
@pytest.mark.parametrize("n", [4, 5, 6])
def test_divergence_free_consequences_match_their_einsum_formula(identity_id, n):
    # Residual and scale both: a wrong sign or factor (n ± 1, n ± 2) in a
    # term moves one of them.  These checks are not-applicable off their
    # hypothesis, so no report on a catalog model sees such a defect.
    b = _random_chunk(n)
    residual, scale = _point(identity_id, b)
    expected_residual, expected_scale = _PAIR_ORACLES[identity_id](b)
    assert np.all(expected_residual > 1.0)  # the random fields violate the identity
    np.testing.assert_allclose(residual, expected_residual, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(scale, expected_scale, rtol=1e-13, atol=0.0)


def _first_pair_symmetric(n, j, k, *rest, pairs=False):
    """A unit tensor symmetric in its first pair (j, k); with two more slots
    it is antisymmetric in them, as a curvature tensor's last pair is, and
    with ``pairs`` held at their pairs l < m, as ∇C's last pair is."""
    e = np.zeros((n,) * (2 + len(rest)))
    e[(j, k) + rest] = e[(k, j) + rest] = 1.0
    if len(rest) == 2:
        e[(j, k) + rest[::-1]] = e[(k, j) + rest[::-1]] = -1.0
    if pairs:
        l, m = np.triu_indices(n, 1)
        e = e[..., l, m]
    return e


_CHECKS_READING = {
    "weyl": ("weyl_compatibility", "lovelock_n4"),
    "nabla_weyl": ("weyl_bianchi_contraction",),
    "div_weyl": ("weyl_bianchi_contraction",),
}


@pytest.mark.parametrize("pair", [(1, 1), (1, 2)], ids=["repeated-index", "distinct"])
@pytest.mark.parametrize("field", sorted(_CHECKS_READING))
def test_a_first_pair_antisymmetry_defect_fails_the_cyclic_checks(small_bundles, field, pair):
    # The suite reads only the triples i < j < k of each cyclic sum, which
    # never put one index in both slots of a pair; it measures the pair
    # antisymmetry those sums assume on its own, so a defect of 1e-6 there,
    # even on the diagonal the triples never see, fails the check.
    model, bundles = small_bundles["twisted_n4"]
    # The defect broadcasts over the leading axes: every point, and every p of ∇_p C.
    rest = (3,) if field == "div_weyl" else (2, 3)
    defect = _first_pair_symmetric(model.n, *pair, *rest, pairs=field == "nabla_weyl")
    broken = [dataclasses.replace(b, **{field: getattr(b, field) + 1e-6 * defect}) for b in bundles]
    for identity_id in _CHECKS_READING[field]:
        assert _report(identity_id, model, bundles).verdict == PASS
        report = _report(identity_id, model, broken)
        assert report.verdict == FAIL, identity_id
        assert report.max_residual >= 1e-6


def test_divergence_formula(small_bundles):
    for label in ("twisted_n4", "twisted_generic_n5", "twisted_generic_n6"):
        model, bundles = small_bundles[label]
        assert _report("weyl_divergence_formula", model, bundles).verdict == PASS, label
    model, control = small_bundles["non_twisted_perturbed_n4"]
    bad = _report("weyl_divergence_formula", model, control)
    assert bad.verdict == FAIL
    assert bad.verdict == expected_verdict(model, bad)


def test_master_recurrence_and_consistency(small_bundles):
    for label in ("twisted_generic_n5", "twisted_generic_n6", "grw_product_spheres_n5"):
        model, bundles = small_bundles[label]
        master, consistency = _reports(("master_recurrence", "master_recurrence_consistency"), model, bundles)
        assert master.verdict == PASS, label
        assert consistency.verdict == PASS, label
        assert consistency.max_residual < 1e-9 * max(1.0, consistency.scale)


def _along_u(b, t):
    """u^p t_p... by einsum, with the bundle's u^p."""
    return np.einsum("xp,xp...->x...", b.u_up, t)


def _n4_recurrences(b):
    """The suite's recurrence arrays as full n**4 tensors, from u^p ∇_p C
    expanded to its (l, m) block: transport, decay, and both master sides."""
    n, u = b.n, b.u_down
    weyl_along_u = expand_pairs(_along_u(b, b.nabla_weyl))
    acc = _along_u(b, b.nabla_u_down)
    d_h = (n - 2.0) / (n - 3.0) * (np.einsum("xa,xb->xab", acc, u) + np.einsum("xa,xb->xab", u, acc))
    d_reconstruction = kulkarni_nomizu(d_h, b.electric) + electric_reconstruction(b.g, u, _along_u(b, b.nabla_electric), n)
    two_phi = 2.0 * b.hubble_rate[:, None, None, None, None]
    lhs = (n - 3.0) * (weyl_along_u + two_phi * b.weyl)
    rhs = (n - 3.0) * (d_reconstruction + two_phi * b.electric_reconstruction)
    return weyl_along_u - d_reconstruction, two_phi * b.weyl_remainder, lhs, rhs


def test_recurrences_equal_the_n4_formulas_at_the_pairs(small_bundles):
    # The suite runs the recurrences at the pairs l < m that ∇C holds; every
    # term is exactly antisymmetric in (l, m), so nothing is lost, and each
    # array must be the n**4 formula gathered at the pairs, bit for bit.
    for label, (model, bundles) in small_bundles.items():
        for b in bundles:
            chunk = identities._Chunk(b)
            for got, want in zip(chunk.recurrences, _n4_recurrences(b)):
                assert got.tobytes() == gather_pairs(want).tobytes(), label
                assert np.array_equal(max_abs(got, per_point=True), max_abs(want, per_point=True)), label
            # weyl_u_recurrence reads the (l, 0) column of u^p ∇_p C.
            n = b.n
            weyl_along_u = expand_pairs(_along_u(b, b.nabla_weyl))
            acc_up = _along_u(b, b.nabla_u_up)
            transport = np.einsum("xjklm,xm->xjkl", weyl_along_u, b.u_up) + identities._into_last(b.weyl, acc_up)
            decay = (b.hubble_rate * (n - 1.0))[:, None, None, None] * np.einsum("xjklm,xm->xjkl", b.weyl, b.u_up)
            residual, scale = _point("weyl_u_recurrence", b)
            assert np.array_equal(residual, max_abs(transport + decay, per_point=True)), label
            assert np.array_equal(scale, np.maximum(max_abs(transport, per_point=True), max_abs(decay, per_point=True)))


def _control_ratios(n: int, identity_ids) -> dict[str, np.ndarray]:
    """Residual / (tolerance · max(1, scale)) of each check at every point of
    the non-torse-forming control (20 points, seed 42)."""
    model = builtin_model("non_twisted_perturbed", n)
    b = build_bundle(model, sample_points(model, 20, 42))
    ratios = {}
    for identity_id in identity_ids:
        residual, scale = _point(identity_id, b)
        ratios[identity_id] = residual / (_BY_ID[identity_id].tolerance * np.maximum(1.0, scale))
    return ratios


@pytest.mark.parametrize("n", [5, 6])
def test_recurrences_still_discriminate_on_the_negative_control(n):
    # On the non-torse-forming control the suite does not apply these checks,
    # but their pointwise residuals must stay far above the pass line at
    # every point (about 0.008 and 0.016 for the first two at n = 5; the
    # least ratio reads 3.4e5).  weyl_scalar_positivity fails at its worst
    # point (3.2e7 and 4.1e7) but holds at some points.
    checks = ("remainder_recurrence", "master_recurrence", "electric_contraction", "ricci_form", "remainder_u_annihilation")
    ratios = _control_ratios(n, checks + ("weyl_scalar_positivity",))
    for identity_id in checks:
        assert np.all(ratios[identity_id] > 1e3), identity_id
    assert ratios["weyl_scalar_positivity"].max() > 1e3


@pytest.mark.parametrize("n", [5, 6])
def test_construction_checks_hold_off_the_hypothesis(n):
    # These hold for any metric: the first four by the construction of E,
    # h ∧ E and v, master_recurrence_consistency because both of its sides
    # are built from the same h ∧ E, and the contracted Bianchi identity as
    # a textbook fact.  So a pass of them tests the code, not the paper's
    # hypothesis.  The control reads at most 7.4e-8, 2.2e-6, 4.3e-6, 5.2e-9,
    # 2.6e-8 and 4.2e-8 of the allowance.
    checks = (
        "hubble_gradient_spacelike",
        "remainder_curvature_symmetries",
        "remainder_traceless",
        "remainder_scalar_relation",
        "master_recurrence_consistency",
        "weyl_bianchi_contraction",
    )
    for identity_id, ratio in _control_ratios(n, checks).items():
        assert np.all(ratio <= 1.0), identity_id


def test_divergence_free_suite_on_witness(small_bundles):
    model, bundles = small_bundles["grw_product_spheres_n5"]
    reports = _group("divergence-free consequences", model, bundles)
    witness = reports["electric_zero_implies_divfree"]
    assert witness.verdict == PASS
    assert witness.extras["max_electric"] < 1e-10
    assert max(max_abs(b.weyl) for b in bundles) > 1e-3
    for name in ("divfree_corollary", "electric_gradient_recurrence", "weyl_u_recurrence"):
        assert reports[name].verdict == PASS, name


def test_divergence_free_suite_not_applicable_on_twisted(small_bundles):
    model, bundles = small_bundles["twisted_generic_n5"]
    reports = _group("divergence-free consequences", model, bundles)
    for name, report in reports.items():
        assert report.verdict == NOT_APPLICABLE, name
    # Hypotheses fail measurably, and the measurements are logged.
    assert reports["electric_zero_implies_divfree"].extras["max_electric"] > 1e-4
    assert reports["divfree_corollary"].extras["max_div_weyl"] > 1e-3


# Verdict and extras keys of every check with a hypothesis or an iff, on a model where it runs
# and on one where it does not (by model class, or by a measured hypothesis).
COLLECTION_REPORTS = {
    "electric_contraction_iff": (
        ("twisted_generic_n5", PASS, {"max_electric", "max_weyl_u"}),
        ("non_twisted_perturbed_n4", NOT_APPLICABLE, set()),
    ),
    "electric_iff_n4": (
        ("twisted_n4", PASS, {"max_electric", "max_weyl"}),
        ("twisted_generic_n5", NOT_APPLICABLE, set()),
    ),
    "electric_zero_implies_divfree": (
        ("grw_product_spheres_n5", PASS, {"max_electric", "max_weyl"}),
        ("twisted_generic_n5", NOT_APPLICABLE, {"max_div_weyl", "max_electric", "max_weyl"}),
    ),
    "divfree_corollary": (
        ("grw_product_spheres_n5", PASS, {"max_div_weyl", "max_nabla_weyl"}),
        ("twisted_generic_n5", NOT_APPLICABLE, {"max_div_weyl", "max_nabla_weyl"}),
    ),
    "electric_gradient_recurrence": (
        ("rw_flat_n5", PASS, {"max_div_weyl", "max_nabla_weyl"}),
        ("twisted_n4", NOT_APPLICABLE, {"max_div_weyl", "max_nabla_weyl"}),
    ),
    "weyl_u_recurrence": (
        ("grw_product_spheres_n5", PASS, {"max_div_weyl", "max_nabla_weyl"}),
        ("twisted_generic_n6", NOT_APPLICABLE, {"max_div_weyl", "max_nabla_weyl"}),
    ),
}


def test_collection_checks_verdicts_and_extras(small_bundles):
    assert set(COLLECTION_REPORTS) == {c.identity_id for c in REGISTRY if c.hypothesis or c.iff}
    for identity_id, cases in COLLECTION_REPORTS.items():
        for label, verdict, extras in cases:
            model, bundles = small_bundles[label]
            report = _report(identity_id, model, bundles)
            assert report.verdict == verdict, (identity_id, label)
            assert set(report.extras) == extras, (identity_id, label)
            points = 0 if verdict == NOT_APPLICABLE else 6
            assert report.points_tested == points, (identity_id, label)
            assert all(np.isfinite(v) and v >= 0.0 for v in report.extras.values())


def test_kulkarni_nomizu_matches_n4_paper_patterns():
    # The paper_refs of electric_rep_n4 and reconstruction_n4 spell out
    # 2 (u⊗u)∧E + g∧E and g∧E index by index; the evaluators use the product,
    # electric_rep_n4 as the electric reconstruction h∧E, h = 2 u⊗u + g at n = 4.
    rng = np.random.default_rng(11)
    u = rng.normal(size=4)
    g = rng.normal(size=(4, 4))
    g = g + g.T
    e = rng.normal(size=(4, 4))
    e = e + e.T
    kn_uu = kulkarni_nomizu(np.outer(u, u), e)
    kn_g = kulkarni_nomizu(g, e)
    rep = 2.0 * kn_uu + kn_g
    recon = electric_reconstruction(g, u, e, 4)
    for a, b, c, d in itertools.product(range(4), repeat=4):
        uu_part = (
            u[a] * u[d] * e[b, c]
            - u[a] * u[c] * e[b, d]
            + u[b] * u[c] * e[a, d]
            - u[b] * u[d] * e[a, c]
        )
        g_rep = g[a, d] * e[b, c] - g[a, c] * e[b, d] + g[b, c] * e[a, d] - g[b, d] * e[a, c]
        g_recon = g[a, d] * e[b, c] - g[b, d] * e[a, c] - g[a, c] * e[b, d] + g[b, c] * e[a, d]
        assert abs(rep[a, b, c, d] - (2.0 * uu_part + g_rep)) < 1e-13
        assert abs(recon[a, b, c, d] - (2.0 * uu_part + g_rep)) < 1e-13
        assert abs(kn_g[a, b, c, d] - g_recon) < 1e-13


@pytest.mark.parametrize("name, n, limit", [("twisted_generic", 5, 4), ("twisted_generic", 6, 4), ("twisted_n4", 4, 5)])
def test_each_reconstruction_block_is_built_once(monkeypatch, name, n, limit):
    # A chunk's Kulkarni-Nomizu products: C = R + g∧S and h∧E in the bundle,
    # which hands h∧E on as a field; the two halves of its transport, at the
    # pairs, and, at n = 4, reconstruction_n4's own g∧E in the suite.
    model = builtin_model(name, n)
    calls = []

    def counting(kernel):
        def counted(a, b):
            calls.append(None)
            return kernel(a, b)

        return counted

    monkeypatch.setattr(curvature, "kulkarni_nomizu", counting(kulkarni_nomizu))
    monkeypatch.setattr(identities, "kulkarni_nomizu", counting(kulkarni_nomizu))
    monkeypatch.setattr(identities, "kulkarni_nomizu_pairs", counting(curvature.kulkarni_nomizu_pairs))
    run_model_suite(model, [build_bundle(model, sample_points(model, 3, 1))])
    assert len(calls) <= limit


def test_wedge_matches_divergence_formula_patterns():
    # weyl_divergence_formula's paper_ref writes u_i E_km - u_k E_im and
    # (2u_k u_m + g_km) ∇_p E_i^p - (2u_i u_m + g_im) ∇_p E_k^p index by index.
    rng = np.random.default_rng(12)
    u = rng.normal(size=(2, 5))
    d = rng.normal(size=(2, 5))
    g = rng.normal(size=(2, 5, 5))
    e = rng.normal(size=(2, 5, 5))
    antisym = _wedge(u, e)
    proj = _wedge(d, 2.0 * np.einsum("...k,...m->...km", u, u) + g)
    for p, i, k, m in itertools.product(range(2), range(5), range(5), range(5)):
        assert antisym[p, i, k, m] == u[p, i] * e[p, k, m] - u[p, k] * e[p, i, m]
        expected = (2.0 * u[p, k] * u[p, m] + g[p, k, m]) * d[p, i] - (
            2.0 * u[p, i] * u[p, m] + g[p, i, m]
        ) * d[p, k]
        assert abs(proj[p, i, k, m] - expected) < 1e-13


def test_report_roundtrip():
    report = IdentityReport(
        identity_id="torse_forming",
        paper_ref=MANIFEST["torse_forming"],
        points_tested=50,
        max_residual=1.25e-13,
        scale=2.5,
        tolerance=1e-9,
        verdict=PASS,
        extras={"max_electric": 0.25},
    )
    assert IdentityReport(**report.to_dict()) == report


def test_verdict_matches_relative_tolerance_rule(small_bundles):
    for label, (model, bundles) in small_bundles.items():
        for report in _suite(model, bundles).values():
            if report.verdict == NOT_APPLICABLE:
                continue
            should_pass = report.max_residual <= report.tolerance * max(1.0, report.scale)
            assert (report.verdict == PASS) == should_pass


def test_unknown_tolerance_override_rejected(small_bundles):
    model, bundles = small_bundles["minkowski_n4"]
    with pytest.raises(ValueError, match="unknown identity ids"):
        run_model_suite(model, bundles, {"no_such_identity": 1e-3})


def test_tolerance_override_changes_verdict(small_bundles):
    model, bundles = small_bundles["twisted_generic_n5"]
    tight = run_model_suite(model, bundles, {"weyl_divergence_formula": 1e-18})
    report = next(r for r in tight if r.identity_id == "weyl_divergence_formula")
    assert report.verdict == FAIL
    assert report.verdict != expected_verdict(model, report)


def test_point_evaluators_exposed_for_all_pointwise_checks():
    pointwise = {check.identity_id for check in REGISTRY if check.point_fn is not None}
    iff = {check.identity_id for check in REGISTRY if check.iff is not None}
    assert iff == {"electric_contraction_iff", "electric_iff_n4"}
    assert pointwise == set(registry_ids()) - iff
    # A conditional check is pointwise, with a hypothesis.
    assert _BY_ID["divfree_corollary"].hypothesis and "divfree_corollary" in pointwise


def test_suite_reports_are_sorted(small_bundles):
    model, bundles = small_bundles["twisted_n4"]
    reports = run_model_suite(model, bundles)
    ids = [r.identity_id for r in reports]
    assert ids == sorted(ids)
    assert len(ids) == len(REGISTRY)


@pytest.mark.parametrize("spec", default_model_specs(), ids=lambda spec: f"{spec[0]}_n{spec[1]}")
def test_suite_keeps_one_chunks_shared_blocks_and_the_same_reports(monkeypatch, spec):
    # Six chunks of a few points each; whenever any check, the ones with a
    # hypothesis or an iff included, reads a bundle field, at most one chunk
    # view may hold shared blocks, none may outlive the suite, and the reports
    # must be exactly what each check's own report over all chunks gives.
    model = builtin_model(*spec)
    points = sample_points(model, 17, 5)
    bundles = [build_bundle(model, points[i : i + 3]) for i in range(0, len(points), 3)]

    def alone(check):
        # The check measured and judged by itself, on fresh views of every chunk.
        if not check.applies(model):
            return identities._report(check, model, [], None)
        measured = [identities.evaluate_check(check, identities._Chunk(b)) for b in bundles]
        return identities._report(check, model, measured, None)

    expected = sorted(map(alone, REGISTRY), key=lambda r: r.identity_id)

    live = weakref.WeakSet()
    holding = []

    class Tracked(identities._Chunk):
        def __init__(self, b):
            super().__init__(b)
            live.add(self)

        def __getattr__(self, name):
            # Every view's dict holds its bundle; more entries are shared blocks.
            holding.append(sum(len(vars(view)) > 1 for view in live))
            return super().__getattr__(name)

    monkeypatch.setattr(identities, "_Chunk", Tracked)
    assert run_model_suite(model, bundles) == expected
    assert holding and max(holding) == 1
    assert len(live) == 0


@pytest.mark.parametrize("name", ["grw_product_spheres", "twisted_generic"])
def test_suite_measures_each_applicable_check_once_per_chunk(monkeypatch, name):
    # The benchmark times each identity by wrapping the module-level
    # evaluate_check, so the suite must call it by that name, positionally
    # with the check first, once per applicable check and chunk.  The largest
    # |∇C| at each point is measured once per chunk view, whichever checks
    # read it (the hypothesis of three divergence-free checks and a scale).
    model = builtin_model(name, 5)
    points = sample_points(model, 7, 3)
    bundles = [build_bundle(model, points[i : i + 3]) for i in range(0, len(points), 3)]
    calls, nabla_maxima = Counter(), Counter()
    measure, largest = identities.evaluate_check, identities.max_abs

    def counted_measure(*args):
        check, chunk = args
        assert check in REGISTRY
        calls[check.identity_id, id(chunk.b)] += 1
        return measure(check, chunk)

    def counted_max_abs(t, per_point=False):
        nabla_maxima.update(id(b) for b in bundles if t is b.nabla_weyl)
        return largest(t, per_point)

    monkeypatch.setattr(identities, "evaluate_check", counted_measure)
    monkeypatch.setattr(identities, "max_abs", counted_max_abs)
    run_model_suite(model, bundles)
    applicable = [check.identity_id for check in REGISTRY if check.applies(model)]
    assert calls == Counter({(i, id(b)): 1 for i in applicable for b in bundles})
    assert nabla_maxima == Counter({id(b): 1 for b in bundles})


# Property tests: each expected verdict follows from the paper's hypotheses,
# on both sides of the measured hypothesis of the conditional checks.
_DIVFREE_CONSEQUENCES = ("electric_zero_implies_divfree", "divfree_corollary", "electric_gradient_recurrence")


def _sampled(name, n, params):
    model = builtin_model(name, n, params)
    return model, [build_bundle(model, sample_points(model, 3, 7))]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(r=st.floats(0.5, 2.0), h=st.floats(-0.6, 0.6))
def test_einstein_fibre_meets_the_divergence_free_hypotheses(r, h):
    # Equal radii make the product-of-spheres fibre Einstein, so E = 0: the
    # theorem gives ∇_m C_jkl^m = 0, and with it the corollaries.
    model, bundles = _sampled("grw_product_spheres", 5, {"r1": r, "r2": r, "H": h})
    for identity_id in _DIVFREE_CONSEQUENCES:
        assert _report(identity_id, model, bundles).verdict == PASS, identity_id


@settings(max_examples=8, deadline=None, derandomize=True)
@given(r=st.floats(0.5, 2.0), ratio=st.floats(1.3, 2.0), h=st.floats(-0.6, 0.6))
def test_non_einstein_fibre_leaves_the_theorem_not_applicable(r, ratio, h):
    # Unequal radii: the fibre is not Einstein, E ≠ 0, so the theorem's
    # hypothesis fails measurably.
    model, bundles = _sampled("grw_product_spheres", 5, {"r1": r, "r2": r * ratio, "H": h})
    report = _report("electric_zero_implies_divfree", model, bundles)
    assert report.verdict == NOT_APPLICABLE
    assert report.extras["max_electric"] > 1e-3


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["shear", "acceleration"]),
    a=st.floats(-0.5, 0.5),
    b=st.floats(0.2, 0.6),
)
def test_shear_or_acceleration_fails_torse_forming(kind, a, b):
    # Per-axis scale rates a, a + b, a (shear), or a lapse exp(b x1) that
    # depends on position (acceleration): either way u is not torse-forming.
    if kind == "shear":
        g_diag = ["-1", f"exp({2 * a!r}*t)", f"exp({2 * (a + b)!r}*t)", f"exp({2 * a!r}*t)"]
    else:
        g_diag = [f"-exp({2 * b!r}*x1)", f"exp({2 * a!r}*t)", f"exp({2 * a!r}*t)", f"exp({2 * a!r}*t)"]
    model, bundles = _sampled("custom_diagonal", 4, {"g_diag": g_diag})
    report = _report("torse_forming", model, bundles)
    assert report.verdict == FAIL
    assert report.max_residual > 1e-2


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([4, 5]),
    abc=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
    d=st.lists(st.floats(-0.4, 0.4), min_size=4, max_size=4),
)
def test_random_twisted_metrics_pass_every_applicable_check(n, abc, d):
    # ds² = -dt² + f(t, x)² g*_mm(x) (dx^m)² with g*_mm ≥ 0.3: the comoving u
    # is shear-, vorticity- and acceleration-free, so every identity the
    # paper proves under those hypotheses holds wherever it applies.
    a, b, c = abc
    f_sq = f"exp(2*({a!r}*t + {b!r}*t*sin(x1) + {c!r}*t**2*cos(x2)))"

    def x(k):  # the spatial coordinates, cyclically
        return f"x{1 + (k - 1) % (n - 1)}"

    fibre = [f"(1 + 0.3*cos({x(m + 1)}) + {d[m - 1]!r}*sin({x(m + 2)})**2)" for m in range(1, n)]
    model, bundles = _sampled("custom_diagonal", n, {"g_diag": ["-1"] + [f"{f_sq}*{g}" for g in fibre]})
    for report in run_model_suite(model, bundles):
        assert report.verdict in (PASS, NOT_APPLICABLE), (report.identity_id, report.verdict)
