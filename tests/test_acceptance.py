"""Acceptance battery: every quantitative exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` for one pass/fail line per
criterion; `entwit reproduce` prints the same battery from the CLI.
"""

import numpy as np
import pytest

from entwit import reproduce, witness
from entwit.families import _family_weights
from entwit.reproduce import (
    check_bell_orthonormality,
    check_certifications,
    check_closed_form_coefficients,
    check_crossing_equality,
    check_crossing_sign_flip,
    check_detection_boundary,
    check_detection_endpoints,
    check_embedding,
    check_gamma0_measures,
    check_horodecki_pt_classes,
    check_nearest_ppt,
    check_pt_sign_changes,
    check_sampler_floor,
    check_spectrum_closed_form,
    check_total_minimum_closed_form,
    check_total_minimum_scan,
)

SEED = 20240901


def _report(criterion, results):
    if not isinstance(results, list):
        results = [results]
    for result in results:
        print(f"criterion {criterion}: {result.line()}")
        assert result.passed, result.line()


def test_criterion_01_total_minimum():
    _report(1, [check_total_minimum_closed_form(), check_total_minimum_scan()])


def test_criterion_02_coefficient_crossing():
    _report(2, [check_crossing_equality(), check_crossing_sign_flip()])


def test_criterion_03_detection_boundary():
    _report(3, check_detection_boundary())


def test_criterion_04_detection_endpoints():
    _report(4, check_detection_endpoints())


def test_criterion_05_horodecki_pt_classification():
    _report(5, [check_horodecki_pt_classes(), check_pt_sign_changes()])


def test_criterion_06_embedding():
    _report(6, check_embedding())


def test_criterion_07_gamma0_measures():
    _report(7, check_gamma0_measures(SEED))


def test_criterion_08_certifications():
    _report(8, check_certifications())


def test_criterion_09_sampler_floor():
    _report(9, check_sampler_floor(samples=100000, seed=SEED))


def test_criterion_10_closed_form_coefficients():
    _report(10, check_closed_form_coefficients())


def test_criterion_11_nearest_ppt_oracle():
    _report(11, check_nearest_ppt(SEED))


def test_criterion_12_spectrum_and_bell_basis():
    _report(12, [check_spectrum_closed_form(SEED), check_bell_orthonormality()])


# Each stacked check still catches a fault in the formula it cross-checks:
# the formula is perturbed past the check's unchanged tolerance.


def _shift_c2(coefficients):
    def faulty(gamma, lam):
        coeff = coefficients(gamma, lam)
        return coeff._replace(c2=coeff.c2 + 1e-9)
    return faulty


def _shift_nearest_point(nearest, shift):
    def faulty(alpha, beta):
        measure, region_one, near_alpha, near_beta = nearest(alpha, beta)
        return measure, region_one, near_alpha + shift, near_beta
    return faulty


def _shift_measures(measures):
    def faulty(alpha, beta):
        d_one, d_two = measures(alpha, beta)
        return d_one + 1e-11, d_two + 1e-11
    return faulty


@pytest.mark.parametrize("owner, name, fault, check", [
    (reproduce, "line_witness_coefficients", _shift_c2,
     check_closed_form_coefficients),
    (reproduce, "_gamma0_nearest",
     lambda formula: _shift_nearest_point(formula, 1e-11),
     lambda: check_gamma0_measures(SEED)),
    (witness, "_measure_values", _shift_measures,
     lambda: check_gamma0_measures(SEED)),
    (reproduce, "_gamma0_nearest",
     lambda formula: _shift_nearest_point(formula, 1e-5),
     lambda: check_nearest_ppt(SEED)),
    (reproduce, "simplex_spectrum",
     lambda formula: lambda params: formula(params) + 1e-11,
     lambda: check_spectrum_closed_form(SEED)),
], ids=["closed_form_coefficients", "gamma0_measures-nearest_point",
        "gamma0_measures-measure", "nearest_ppt_gamma0", "spectrum_closed_form"])
def test_stacked_check_fails_on_injected_fault(owner, name, fault, check,
                                               monkeypatch):
    assert check().passed
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    result = check()
    assert not result.passed, result.line()
    assert result.deviation > result.tolerance


def _region_points_one_at_a_time(rng, region, count):
    # the reference draw: one (alpha, beta) pair per step until count accepted
    points = []
    while len(points) < count:
        alpha = rng.uniform(-1 / 6, 1.0)
        beta = rng.uniform(-1 / 3, 1.0)
        if _family_weights(alpha, beta, 0.0).min() < -1e-10:
            continue
        d_one, d_two = witness._measure_values(alpha, beta)
        own, other = (d_one, d_two) if region == "I" else (d_two, d_one)
        if own > 1e-6 >= max(other, 0):
            points.append((alpha, beta))
    return np.array(points).T


@pytest.mark.parametrize("seed", [5, 7, SEED])
def test_region_points_in_blocks_equal_one_pair_at_a_time(seed):
    blocked, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for region, count in [("I", 100), ("II", 100), ("I", 1), ("II", 150)]:
        alpha, beta = reproduce._random_region_points(blocked, region, count)
        want = _region_points_one_at_a_time(reference, region, count)
        assert np.array_equal(np.stack([alpha, beta]), want)
        assert blocked.bit_generator.state == reference.bit_generator.state


def _bisect_fixed(f, lo, hi, iters):
    positive_lo = f(lo) > 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        same_side = (f(mid) > 0) == positive_lo
        lo = np.where(same_side, mid, lo)
        hi = np.where(same_side, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("lo, hi", [
    ([0.5, 0.0, -3.0], [2.0, 0.75, 0.25]),  # sign changes
    ([2.0, -1.0], [3.0, -0.5]),  # no sign change: same side throughout
    ([3.0], [2.0]),  # reversed bracket
    (0.5, 2.0),  # scalar bracket
])
def test_bisect_stops_with_the_roots_of_all_halvings(lo, hi):
    calls = []

    def f(x):
        calls.append(1)
        return np.cos(x) - 0.3 * x

    lo, hi = np.array(lo), np.array(hi)
    roots = reproduce._bisect(f, lo, hi, 80)
    early = len(calls)
    assert np.array_equal(roots, _bisect_fixed(f, lo, hi, 80))
    assert early < 81
