"""Acceptance gate: one test per criterion, at the pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Sampling is 50 points per model at seed 42 throughout.
"""

import json
import time

import numpy as np
import pytest

from conftest import SEED, SUITE_POINTS, fd_partial, point_count
from weylgeom import jets
from weylgeom.cli import default_config, main, run, serialize_structured
from weylgeom.identities import NOT_APPLICABLE, PASS, REGISTRY, _Chunk, run_model_suite
from weylgeom.models import compile_expression
from weylgeom.tensors import max_abs

TWISTED_CLASS_LABELS = (
    "minkowski_n4",
    "rw_flat_n4",
    "rw_flat_n5",
    "rw_flat_n6",
    "grw_product_spheres_n5",
    "twisted_n4",
    "twisted_generic_n5",
    "twisted_generic_n6",
)
N4_LABELS = ("minkowski_n4", "rw_flat_n4", "twisted_n4", "non_twisted_perturbed_n4")


@pytest.fixture(scope="session")
def suite_reports(suite_data):
    out = {}
    for label, (model, bundles) in suite_data.items():
        out[label] = {r.identity_id: r for r in run_model_suite(model, bundles)}
    return out


def _assert_pass(report, tolerance, label):
    __tracebackhide__ = True
    assert report.verdict == PASS, f"{label}: {report.identity_id} verdict {report.verdict}"
    assert report.tolerance == tolerance, f"{label}: {report.identity_id} tolerance drifted"
    assert report.max_residual <= tolerance * max(1.0, report.scale), (
        f"{label}: {report.identity_id} residual {report.max_residual:.3e} "
        f"exceeds {tolerance:.0e} (scale {report.scale:.3e})"
    )


def test_criterion_01_torse_forming(suite_data):
    check = next(c for c in REGISTRY if c.identity_id == "torse_forming")

    def fn(b):
        return check.point_fn(_Chunk(b))

    for label in ("rw_flat_n4", "grw_product_spheres_n5", "twisted_generic_n5", "twisted_n4"):
        _, bundles = suite_data[label]
        assert point_count(bundles) == SUITE_POINTS
        for b in bundles:
            residual, scale = fn(b)
            assert np.all(residual < 1e-9 * np.maximum(1.0, scale)), label
    _, control = suite_data["non_twisted_perturbed_n4"]
    exceedances = sum(int(np.sum(fn(b)[0] > 1e-3)) for b in control)
    assert exceedances >= 0.9 * point_count(control)
    print(
        "[PASS] criterion 1: torse-forming residual < 1e-9 on the four positive models; "
        f"negative control exceeds 1e-3 at {exceedances}/{point_count(control)} points"
    )


def test_criterion_02_unconditional_twisted_identities(suite_reports):
    for label in TWISTED_CLASS_LABELS:
        reports = suite_reports[label]
        _assert_pass(reports["weyl_compatibility"], 1e-9, label)
        _assert_pass(reports["electric_contraction"], 1e-9, label)
        _assert_pass(reports["ricci_form"], 1e-9, label)
        _assert_pass(reports["hubble_gradient_spacelike"], 1e-11, label)
    print(
        "[PASS] criterion 2: Weyl compatibility, electric contraction and the Ricci "
        "form hold at 1e-9 relative on all torse-class models, n in {4, 5, 6}"
    )


def test_criterion_03_four_dimensional_algebra(suite_reports):
    for label in N4_LABELS:
        reports = suite_reports[label]
        _assert_pass(reports["lovelock_n4"], 1e-10, label)
        _assert_pass(reports["quarter_trace_n4"], 1e-10, label)
        _assert_pass(reports["reconstruction_n4"], 1e-9, label)
    twisted = suite_reports["twisted_n4"]
    _assert_pass(twisted["electric_rep_n4"], 1e-9, "twisted_n4")
    _assert_pass(twisted["weyl_sq_8_electric_sq_n4"], 1e-9, "twisted_n4")
    print(
        "[PASS] criterion 3: n=4 algebra (six-index identity, quarter-trace, "
        "reconstruction) on every n=4 model; electric representation and C^2 = 8E^2 "
        "on the twisted n=4 model"
    )


def test_criterion_04_weyl_remainder(suite_data, suite_reports):
    for label in ("twisted_generic_n5", "twisted_generic_n6"):
        reports = suite_reports[label]
        _assert_pass(reports["remainder_curvature_symmetries"], 1e-10, label)
        _assert_pass(reports["remainder_traceless"], 1e-10, label)
        _assert_pass(reports["remainder_u_annihilation"], 1e-10, label)
        _assert_pass(reports["remainder_recurrence"], 1e-8, label)
        _, bundles = suite_data[label]
        assert max(max_abs(b.weyl_remainder) for b in bundles) > 1e-3, label
    _assert_pass(suite_reports["twisted_n4"]["remainder_vanishes_n4"], 1e-9, "twisted_n4")
    for label in TWISTED_CLASS_LABELS:
        _assert_pass(suite_reports[label]["remainder_scalar_relation"], 1e-9, label)
        _assert_pass(suite_reports[label]["weyl_scalar_positivity"], 1e-10, label)
    print(
        "[PASS] criterion 4: Weyl-remainder symmetries/traces/u-annihilation at 1e-10, "
        "recurrence at 1e-8 (nontrivial at n=5,6), n=4 vanishing at 1e-9, scalar "
        "relation at 1e-9, squared scalars nonnegative"
    )


def test_criterion_05_bianchi_contraction_everywhere(suite_reports):
    for label, reports in suite_reports.items():
        _assert_pass(reports["weyl_bianchi_contraction"], 1e-8, label)
    print(
        "[PASS] criterion 5: the contracted-Bianchi identity for the Weyl tensor "
        "holds at 1e-8 relative on every model, negative control included"
    )


def test_criterion_06_divergence_formula(suite_reports):
    for label in (
        "rw_flat_n4",
        "rw_flat_n5",
        "rw_flat_n6",
        "grw_product_spheres_n5",
        "twisted_n4",
        "twisted_generic_n5",
        "twisted_generic_n6",
    ):
        _assert_pass(suite_reports[label]["weyl_divergence_formula"], 1e-8, label)
    control = suite_reports["non_twisted_perturbed_n4"]["weyl_divergence_formula"]
    assert control.verdict == "fail"
    assert control.max_residual > control.tolerance * max(1.0, control.scale)
    print(
        "[PASS] criterion 6: Weyl divergence formula at 1e-8 relative on torse-class "
        "models for n in {4, 5, 6}; fails on the negative control as required"
    )


def test_criterion_07_master_recurrence(suite_reports):
    for label in TWISTED_CLASS_LABELS:
        _assert_pass(suite_reports[label]["master_recurrence"], 1e-8, label)
        _assert_pass(suite_reports[label]["master_recurrence_consistency"], 1e-9, label)
    print(
        "[PASS] criterion 7: master recurrence at 1e-8 relative on torse-class models, "
        "consistent with the remainder recurrence after regrouping at 1e-9"
    )


def test_criterion_08_divergence_free_witness(suite_data, suite_reports):
    _, bundles = suite_data["grw_product_spheres_n5"]
    assert point_count(bundles) == SUITE_POINTS
    max_e = max(max_abs(b.electric) for b in bundles)
    max_c = max(max_abs(b.weyl) for b in bundles)
    max_div = max(max_abs(b.div_weyl) for b in bundles)
    assert max_e < 1e-10
    assert max_c > 1e-3
    assert max_div < 1e-8
    reports = suite_reports["grw_product_spheres_n5"]
    for name in ("electric_zero_implies_divfree", "divfree_corollary", "electric_gradient_recurrence", "weyl_u_recurrence"):
        report = reports[name]
        assert report.verdict == PASS, name
        assert report.max_residual <= 1e-8 * max(1.0, report.scale), name
    print(
        "[PASS] criterion 8: product-spheres witness has max|E| = "
        f"{max_e:.1e} < 1e-10, max|C| = {max_c:.1e} > 1e-3, max|divC| = {max_div:.1e} "
        "< 1e-8; divergence-free corollaries hold at 1e-8"
    )


def _random_expression(rng, depth, n):
    if depth == 0 or rng.random() < 0.2:
        choices = ["t"] + [f"x{i}" for i in range(1, n)]
        if rng.random() < 0.25:
            return f"{rng.uniform(0.3, 1.3):.3f}"
        return choices[rng.integers(len(choices))]
    kind = rng.integers(8)
    a = _random_expression(rng, depth - 1, n)
    if kind <= 2:
        b = _random_expression(rng, depth - 1, n)
        return [f"({a} + {b})", f"({a} - {b})", f"({a} * {b})"][kind]
    if kind == 3:
        b = _random_expression(rng, depth - 1, n)
        return f"({a} / (2.5 + sin({b})))"
    if kind == 4:
        return f"exp(0.4*sin({a}))"
    if kind == 5:
        return f"log(2.6 + cos({a}))"
    if kind == 6:
        return f"cos({a})"
    return f"({a})**2"


def test_criterion_09_jet_partials_vs_finite_differences():
    rng = np.random.default_rng(SEED)
    n = 3
    checked = 0
    for _ in range(20):
        source = _random_expression(rng, 3, n)
        compiled = compile_expression(source, n)
        point = rng.uniform(0.25, 0.85, size=n)
        xj = jets.variables(point)
        # A constant expression compiles to a number: its partials are zero.
        jet = compiled(xj) + 0.0 * xj[0]

        def value(x, _c=compiled):
            result = _c(jets.variables(x))
            return getattr(result, "value", result)

        for order, array in ((1, jet.d1), (2, jet.d2), (3, jet.d3)):
            it = np.ndindex(*(n,) * order)
            for idx in it:
                fd = fd_partial(value, point, list(idx), h=1e-3)
                assert abs(array[idx] - fd) <= 1e-5 * max(1.0, abs(array[idx])), (
                    f"{source} partial {idx}"
                )
                checked += 1
    print(
        f"[PASS] criterion 9: {checked} jet partials (orders 1-3) of 20 randomized "
        "composites match central finite differences at relative 1e-5, step 1e-3"
    )


def test_criterion_10_determinism_and_plumbing(tmp_path):
    # Full default run: every applicable identity passes, expected failures
    # are honored, and the run finishes at desk scale.
    start = time.perf_counter()
    result = run(default_config())
    elapsed = time.perf_counter() - start
    assert result["exit_code"] == 0
    assert elapsed < 60.0
    assert json.loads(serialize_structured(result)) == result

    # Byte-identical fixed-seed CLI runs.
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for p in paths:
        code = main(
            [
                "verify",
                "--points",
                "12",
                "--seed",
                str(SEED),
                "--format",
                "structured",
                "--output",
                str(p),
            ]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()

    # Exit-code contract: 1 for an unexpected verdict, 2 for config errors.
    assert (
        main(
            [
                "verify",
                "--points",
                "3",
                "--model",
                "twisted_n4",
                "--tolerance",
                "weyl_divergence_formula=1e-18",
            ]
        )
        == 1
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_field": 1}))
    assert main(["verify", "--config", str(bad)]) == 2
    assert main(["no-such-subcommand"]) == 2
    print(
        "[PASS] criterion 10: default run exits 0 in "
        f"{elapsed:.1f}s, structured reports round-trip, fixed-seed runs are "
        "byte-identical, exit codes 0/1/2 honored"
    )
