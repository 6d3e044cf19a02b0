"""Acceptance battery: every quantitative exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` for one pass/fail line per
criterion; `entwit reproduce` prints the same battery from the CLI.
"""

import types

import numpy as np
import pytest

from entwit import classify_ppt, horodecki_state, reproduce, witness
from entwit.families import _family_weights
from entwit.witness import DETECTION_GAMMA
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


def _imaginary_projector(projector):
    # a Hermitian imaginary part, which the real eigensolve would drop
    def faulty(d, idx):
        entries = projector(d, idx).entries.copy()
        if tuple(idx) == (1, 0):
            entries[0, 1] += 1e-11j
            entries[1, 0] -= 1e-11j
        return types.SimpleNamespace(entries=entries)
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
    (reproduce, "bell_projector", _imaginary_projector,
     lambda: check_spectrum_closed_form(SEED)),
], ids=["closed_form_coefficients", "gamma0_measures-nearest_point",
        "gamma0_measures-measure", "nearest_ppt_gamma0", "spectrum_closed_form",
        "spectrum_closed_form-imaginary_part"])
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


def test_bisect_root_does_not_depend_on_the_bracket():
    # x * x * x - 2 is monotone in floating point for x >= 0, so every
    # bracket that holds its sign change ends on one pair of adjacent floats,
    # from widths of 1000 down to two ulps
    def f(x):
        return x * x * x - 2.0

    root = 2.0 ** (1 / 3)
    ulp = np.spacing(root)
    lo = np.array([0.0, 1.0, 1.25, root - 1e-9, root - 8 * ulp, root - ulp])
    hi = np.array([1e3, 2.0, 1.26, root + 1e-9, root + 8 * ulp, root + ulp])
    roots = reproduce._bisect(f, lo, hi, 80)
    alone = [reproduce._bisect(f, a, b, 80) for a, b in zip(lo, hi)]
    assert np.array_equal(roots, alone)
    assert (roots == roots[0]).all()
    assert abs(roots[0] - root) <= ulp


def _wide_lambda_roots(gammas):
    # the scan's roots bisected from the bracket [0.05, 2] at every gamma
    moduli = reproduce._coeff_moduli(gammas)
    return reproduce._bisect(lambda lams: np.maximum(*moduli(lams)) - 1.0,
                             np.full_like(gammas, 0.05),
                             np.full_like(gammas, 2.0), 80)


def test_scan_roots_equal_those_of_wide_brackets(monkeypatch):
    # the grid and the crossing, as the check bisects them
    seen = []
    bisect_roots = reproduce._bisect_lambda_roots

    def spy(gammas):
        seen.append(gammas)
        return bisect_roots(gammas)

    monkeypatch.setattr(reproduce, "_bisect_lambda_roots", spy)
    result = check_total_minimum_scan()
    assert result.passed
    assert result.computed == "0.8750000000000002"
    grid, crossing = seen
    assert np.array_equal(grid, np.linspace(DETECTION_GAMMA, 3 / 7, 10000))
    assert abs(crossing - witness.CROSSING_GAMMA) <= 1e-15
    for gammas in seen:
        roots, held = bisect_roots(gammas)
        assert held.all()
        assert np.array_equal(roots, _wide_lambda_roots(gammas))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lambda_roots_equal_those_of_wide_brackets(seed):
    gammas = np.random.default_rng(seed).uniform(DETECTION_GAMMA, 3 / 7,
                                                 100_000)
    roots, held = reproduce._bisect_lambda_roots(gammas)
    assert held.all()
    assert np.array_equal(roots, _wide_lambda_roots(gammas))


def test_total_minimum_scan_fails_where_a_bracket_misses_its_root(monkeypatch):
    # moduli that scale as 1/lambda^2 put each root at the square root of
    # the bracket's centre: the check names the first grid gamma whose
    # bracket misses it, where the wide bracket's root lies outside
    moduli = reproduce._coeff_moduli

    def squared(gammas):
        inner = moduli(gammas)
        return lambda lams: tuple(m / lams for m in inner(lams))

    monkeypatch.setattr(reproduce, "_coeff_moduli", squared)
    result = check_total_minimum_scan()
    assert not result.passed
    prefix = "no root in the bracket at gamma="
    assert result.computed.startswith(prefix), result.computed
    grid = np.linspace(DETECTION_GAMMA, 3 / 7, 10000)
    centre = np.maximum(*squared(grid)(1.0))
    lo, hi = centre * (1 - 2.0 ** -50), centre * (1 + 2.0 ** -50)
    roots = _wide_lambda_roots(grid)
    missed = np.flatnonzero((roots < lo) | (roots > hi))
    assert missed.size
    assert float(result.computed[len(prefix):]) == grid[missed[0]]


def test_pt_sign_changes_read_no_sign_at_round_off(monkeypatch):
    # the PT minimum vanishes exactly at b = 1 and 4; every value the check
    # reads, at its bracket ends and at each midpoint, stays far above
    # round-off, so no sign it reads depends on the eigensolver
    seen = []
    minima = reproduce._min_pt_eig_b

    def spy(b):
        values = minima(b)
        seen.append(values)
        return values

    monkeypatch.setattr(reproduce, "_min_pt_eig_b", spy)
    result = check_pt_sign_changes()
    assert result.passed
    assert result.computed == "(0.9999999999, 4.0000000001)"
    assert len(seen) > 20
    assert min(np.abs(values).min() for values in seen) > 1e-12


def test_pt_sign_changes_equal_on_real_and_complex_states(monkeypatch):
    real = check_pt_sign_changes()
    states = reproduce._family_states
    monkeypatch.setattr(reproduce, "_family_states",
                        lambda *params: states(*params).astype(complex))
    assert check_pt_sign_changes() == real


def test_min_pt_eig_b_rows_equal_classify_ppt():
    b = np.concatenate([np.linspace(0.0, 5.0, 41), [0.99, 1.02, 3.98, 4.01]])
    stacked = reproduce._min_pt_eig_b(b)
    for k, value in enumerate(b):
        verdict = classify_ppt(horodecki_state(value))
        assert verdict.min_pt_eigenvalue == stacked[k], value
