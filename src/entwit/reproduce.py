"""Threshold-reproduction battery.

Every quantitative claim the library rests on is re-derived here through an
independent route (bisection against closed forms, numeric eigensolves
against formulas, sampling against certificates) and reported as a
CheckResult.  The acceptance test suite and the `reproduce` CLI command both
run this battery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import hs_inner, hs_norm, identity
from .weyl import bell_projector
from .families import (
    SimplexParams,
    horodecki_state,
    horodecki_to_simplex,
    simplex_spectrum,
    simplex_state,
)
from .witness import (
    CROSSING_GAMMA,
    DETECTION_GAMMA,
    certify_witness,
    detection_profile,
    horodecki_detection_range,
    hs_measure_gamma0,
    line_witness,
    line_witness_coefficients,
    nearest_separable_gamma0,
    region_witnesses,
    _measure_values,
)
from .ppt import SamplerConfig, classify_ppt, min_separable_expectation, nearest_ppt

__all__ = ["CheckResult", "run_battery"]

LAMBDA_MIN_TOTAL = 0.875


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    target: str
    computed: str
    tolerance: float
    deviation: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name}: target={self.target} "
                f"computed={self.computed} tol={self.tolerance:g}")


def _check(name, deviation, tolerance, target, computed) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(deviation <= tolerance),
        target=str(target),
        computed=str(computed),
        tolerance=float(tolerance),
        deviation=float(deviation),
    )


def _check_flag(name, ok, target, computed) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(ok),
        target=str(target),
        computed=str(computed),
        tolerance=0.0,
        deviation=0.0 if ok else 1.0,
    )


def _coeff_moduli(gammas: np.ndarray, lams: np.ndarray):
    # coefficient moduli of the line witness, vectorized over the grid
    denom = 7.0 * lams * (1.0 + 3.0 * gammas ** 2)
    f1 = 8.0 / denom
    f2 = 2.0 * np.sqrt(1.0 + 147.0 * gammas ** 2) / denom
    return f1, f2


def _bisect(f, lo, hi, iters: int):
    """Sign change of f in [lo, hi] after `iters` halvings; elementwise."""
    positive_lo = f(lo) > 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        same_side = (f(mid) > 0) == positive_lo
        lo = np.where(same_side, mid, lo)
        hi = np.where(same_side, hi, mid)
    return 0.5 * (lo + hi)


def _bisect_lambda_roots(gammas, which: str = "max", iters: int = 80):
    """Per-gamma root of |coefficient| = 1 in lambda, by bisection."""
    pick = {"max": np.maximum, "f1": lambda f1, f2: f1,
            "f2": lambda f1, f2: f2}[which]
    return _bisect(lambda lams: pick(*_coeff_moduli(gammas, lams)) - 1.0,
                   np.full_like(gammas, 0.05), np.full_like(gammas, 2.0), iters)


def check_total_minimum_closed_form() -> CheckResult:
    computed = detection_profile(CROSSING_GAMMA).lambda_min
    dev = abs(computed - LAMBDA_MIN_TOTAL)
    return _check("total_minimum_closed_form", dev, 1e-12,
                  LAMBDA_MIN_TOTAL, computed)


def check_total_minimum_scan(points: int = 10000) -> CheckResult:
    """Grid scan plus bisection, using only the coefficient moduli.

    The minimum of max(root_1, root_2) over gamma sits at the kink where the
    two root curves cross, so the grid minimum is refined by bisecting the
    root difference on the bracketing grid interval.
    """
    gammas = np.linspace(DETECTION_GAMMA, 3 / 7, points)
    roots = _bisect_lambda_roots(gammas)
    best = int(np.argmin(roots))
    scan_min = float(roots[best])

    def root_gap(gamma):
        return (_bisect_lambda_roots(gamma, "f1")
                - _bisect_lambda_roots(gamma, "f2"))

    lo = gammas[max(best - 1, 0)]
    hi = gammas[min(best + 1, points - 1)]
    if root_gap(hi) * root_gap(lo) < 0:
        crossing = _bisect(root_gap, lo, hi, 60)
        scan_min = min(scan_min, float(_bisect_lambda_roots(crossing)))
    dev = abs(scan_min - LAMBDA_MIN_TOTAL)
    return _check("total_minimum_scan", dev, 1e-6, LAMBDA_MIN_TOTAL, scan_min)


def check_crossing_equality() -> CheckResult:
    profile = detection_profile(CROSSING_GAMMA)
    dev = abs(profile.lambda_1 - profile.lambda_2)
    return _check("crossing_equality", dev, 1e-12, 0.0, dev)


def check_crossing_sign_flip(eps: float = 1e-6) -> CheckResult:
    below = detection_profile(CROSSING_GAMMA - eps)
    above = detection_profile(CROSSING_GAMMA + eps)
    ok = (below.lambda_1 - below.lambda_2 > 0) and (
        above.lambda_1 - above.lambda_2 < 0)
    return _check_flag("crossing_sign_flip", ok,
                       "lambda_1-lambda_2 flips sign",
                       f"below={below.lambda_1 - below.lambda_2:.3e}, "
                       f"above={above.lambda_1 - above.lambda_2:.3e}")


def check_detection_boundary(eps: float = 1e-6) -> CheckResult:
    inside = detection_profile(DETECTION_GAMMA + eps).detects
    outside = detection_profile(DETECTION_GAMMA - eps).detects
    ok = inside and not outside
    return _check_flag("detection_boundary", ok,
                       "detects iff |gamma| > 1/sqrt(21)",
                       f"at +eps: {inside}, at -eps: {outside}")


def _b_excess(b: float) -> float:
    # max coefficient modulus of the line witness at lambda = 1, minus 1
    coeff = line_witness_coefficients((5.0 - 2.0 * b) / 7.0, 1.0)
    return max(abs(coeff.c1), abs(coeff.c2)) - 1.0


def check_detection_endpoints() -> CheckResult:
    root = math.sqrt(21.0)
    targets = ((15.0 - root) / 6.0, (15.0 + root) / 6.0)
    bisected = (_bisect(_b_excess, 1.0, 2.5, 80),
                _bisect(_b_excess, 2.5, 4.0, 80))
    (low_iv, high_iv) = horodecki_detection_range()
    dev = max(
        abs(bisected[0] - targets[0]),
        abs(bisected[1] - targets[1]),
        abs(low_iv[1] - targets[0]),
        abs(high_iv[0] - targets[1]),
    )
    return _check("detection_endpoints_b", dev, 1e-9,
                  f"({targets[0]:.10f}, {targets[1]:.10f})",
                  f"({bisected[0]:.10f}, {bisected[1]:.10f})")


def check_horodecki_pt_classes() -> CheckResult:
    expectations = [(b, "NPT") for b in (0.0, 0.5, 0.99)] + \
        [(b, "PPT") for b in (1.0, 2.0, 3.0, 4.0)] + \
        [(b, "NPT") for b in (4.01, 4.5, 5.0)]
    wrong = [
        (b, want, classify_ppt(horodecki_state(b)).label)
        for b, want in expectations
        if classify_ppt(horodecki_state(b)).label != want
    ]
    return _check_flag("horodecki_pt_classes", not wrong,
                       "NPT <1, PPT [1,4], NPT >4", wrong or "all as stated")


def _min_pt_eig_b(b: float) -> float:
    return classify_ppt(horodecki_state(b)).min_pt_eigenvalue


def check_pt_sign_changes() -> CheckResult:
    signs_ok = (_min_pt_eig_b(0.99) < 0 < _min_pt_eig_b(1.01)
                and _min_pt_eig_b(4.01) < 0 < _min_pt_eig_b(3.99))
    if not signs_ok:
        return _check_flag("pt_sign_changes", False, "(1, 4)",
                           "no sign change inside brackets")
    # 25 halvings take the 0.02 brackets below a width of 1e-9
    root_low = _bisect(lambda b: -_min_pt_eig_b(b), 0.99, 1.01, 25)
    root_high = _bisect(lambda b: -_min_pt_eig_b(b), 3.99, 4.01, 25)
    dev = max(abs(root_low - 1.0), abs(root_high - 4.0))
    return _check("pt_sign_changes", dev, 1e-8, "(1, 4)",
                  f"({root_low:.10f}, {root_high:.10f})")


def check_embedding(points: int = 51) -> CheckResult:
    worst = 0.0
    for b in np.linspace(0.0, 5.0, points):
        state = simplex_state(horodecki_to_simplex(b))
        worst = max(worst, hs_norm(state.op - horodecki_state(b).op))
    return _check("embedding_residual", worst, 1e-12, 0.0, worst)


def _random_region_points(rng, region: str, count: int):
    points = []
    while len(points) < count:
        alpha = rng.uniform(-1 / 6, 1.0)
        beta = rng.uniform(-1 / 3, 1.0)
        state = simplex_state(SimplexParams(alpha, beta, 0.0))
        if not state.valid:
            continue
        d_one, d_two = _measure_values(alpha, beta)
        if region == "I" and d_one > 1e-6 >= max(d_two, 0):
            points.append((alpha, beta))
        elif region == "II" and d_two > 1e-6 >= max(d_one, 0):
            points.append((alpha, beta))
    return points


def check_gamma0_measures(seed: int, per_region: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    witness_one, witness_two = region_witnesses()
    worst = 0.0
    for region, witness in (("I", witness_one), ("II", witness_two)):
        for alpha, beta in _random_region_points(rng, region, per_region):
            rho = simplex_state(SimplexParams(alpha, beta, 0.0)).density()
            nearest, found_region = nearest_separable_gamma0(alpha, beta)
            measure, measure_region = hs_measure_gamma0(alpha, beta)
            if not (found_region == region == measure_region):
                return _check_flag("gamma0_measures", False, region,
                                   f"region mismatch at ({alpha}, {beta})")
            sigma = simplex_state(nearest).density()
            worst = max(
                worst,
                abs(measure - hs_norm(sigma.op - rho.op)),
                abs(measure + hs_inner(rho, witness.op).real),
            )
    return _check("gamma0_measures", worst, 1e-12, 0.0, worst)


def _detection_gammas(count_per_sign: int = 10):
    magnitudes = np.linspace(DETECTION_GAMMA + 1e-3, 3 / 7, count_per_sign)
    return np.concatenate([-magnitudes[::-1], magnitudes])


def check_certifications() -> list[CheckResult]:
    results = []
    witness_one, witness_two = region_witnesses()
    regions_ok = (certify_witness(witness_one).certified
                  and certify_witness(witness_two).certified)
    results.append(_check_flag("region_witnesses_certified", regions_ok,
                               "both certified", regions_ok))

    gammas = _detection_gammas()
    at_threshold = []
    below_threshold = []
    for gamma in gammas:
        lam_min = detection_profile(gamma).lambda_min
        witness, _ = line_witness(gamma, lam_min)
        at_threshold.append(certify_witness(witness).certified)
        witness_below, _ = line_witness(gamma, 0.9 * lam_min)
        certificate = certify_witness(witness_below)
        below_threshold.append(
            not certificate.certified and certificate.max_abs_c > 1.0)
    results.append(_check_flag(
        "line_witnesses_certified", all(at_threshold),
        f"{len(gammas)} certified", f"{sum(at_threshold)} certified"))
    results.append(_check_flag(
        "line_witnesses_below_threshold_fail", all(below_threshold),
        "all fail with max|c| > 1", f"{sum(below_threshold)} fail"))
    return results


def check_sampler_floor(samples: int, seed: int) -> CheckResult:
    """Lowest separable expectation of the battery's witnesses, >= -1e-9.

    The two region witnesses and the line witnesses at lambda_min share one
    seeded pool of `samples` product states and one batched seesaw from the
    lowest states of each (`min_separable_expectation`).
    """
    witnesses = list(region_witnesses())
    for gamma in _detection_gammas():
        lam_min = detection_profile(gamma).lambda_min
        witness, _ = line_witness(gamma, lam_min)
        witnesses.append(witness)
    config = SamplerConfig(seed=seed, count=samples)
    floor = float(min_separable_expectation(witnesses, config).min())
    deviation = max(0.0, -floor)
    return _check("sampler_floor", deviation, 1e-9,
                  ">= -1e-9", floor)


def check_closed_form_coefficients() -> CheckResult:
    gammas = np.concatenate([
        np.linspace(-3 / 7, -1 / 7 - 1e-3, 10),
        np.linspace(1 / 7 + 1e-3, 3 / 7, 10),
    ])
    lams = np.linspace(0.1, 0.95, 20)
    worst = 0.0
    for gamma in gammas:
        for lam in lams:
            witness, coeff = line_witness(gamma, lam)
            certificate = certify_witness(witness)
            if not certificate.in_certifiable_form:
                return _check_flag("closed_form_coefficients", False,
                                   "in certifiable form",
                                   f"off-form at gamma={gamma}, lambda={lam}")
            table = certificate.c_table
            dev = abs(certificate.a - coeff.a)
            for n in range(3):
                for m in (1, 2):
                    dev = max(dev, abs(table[n, m] - coeff.c1))
            dev = max(dev, abs(table[1, 0] - coeff.c2),
                      abs(table[2, 0] - np.conj(coeff.c2)))
            worst = max(worst, dev)
    return _check("closed_form_coefficients", worst, 1e-10, 0.0, worst)


def check_nearest_ppt(seed: int, count: int = 20) -> CheckResult:
    rng = np.random.default_rng(seed)
    points = _random_region_points(rng, "I", (count + 1) // 2) + \
        _random_region_points(rng, "II", count // 2)
    worst = 0.0
    for alpha, beta in points:
        rho = simplex_state(SimplexParams(alpha, beta, 0.0)).density()
        result = nearest_ppt(rho)
        if not result.converged:
            return _check_flag("nearest_ppt_gamma0", False,
                               "converged", f"stalled at ({alpha}, {beta})")
        analytic, _ = nearest_separable_gamma0(alpha, beta)
        target = simplex_state(analytic).density()
        worst = max(worst, hs_norm(result.state.op - target.op))
    return _check("nearest_ppt_gamma0", worst, 1e-6, 0.0, worst)


def check_spectrum_closed_form(seed: int, count: int = 1000) -> CheckResult:
    """`simplex_spectrum` against eigvalsh of the family formula, built
    here from `bell_projector` terms rather than from the Bell weights."""
    params = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 3))
    alpha, beta, gamma = params.T[:, :, None, None]
    p = {(n, m): bell_projector(3, (n, m)).entries
         for n in range(3) for m in range(3)}
    mats = ((1.0 - alpha - beta - gamma) / 9.0 * np.eye(9) + alpha * p[0, 0]
            + beta / 2.0 * (p[1, 0] + p[2, 0])
            + gamma / 3.0 * (p[0, 1] + p[1, 1] + p[2, 1]))
    numeric = np.linalg.eigvalsh(mats)
    worst = max(float(np.abs(simplex_spectrum(w) - spectrum).max())
                for w, spectrum in zip(params, numeric))
    return _check("spectrum_closed_form", worst, 1e-12, 0.0, worst)


def check_bell_orthonormality() -> CheckResult:
    projectors = [bell_projector(3, (n, m)).op for n in range(3) for m in range(3)]
    worst = 0.0
    total = None
    for i, p in enumerate(projectors):
        total = p if total is None else total + p
        for j, q in enumerate(projectors):
            overlap = hs_inner(p, q).real
            worst = max(worst, abs(overlap - (1.0 if i == j else 0.0)))
    worst = max(worst, float(np.abs(total.entries - identity(3, 3).entries).max()))
    return _check("bell_orthonormality", worst, 1e-12, 0.0, worst)


def run_battery(samples: int = 100000, seed: int = 20240901) -> list[CheckResult]:
    """All threshold checks, in reporting order."""
    results = [
        check_total_minimum_closed_form(),
        check_total_minimum_scan(),
        check_crossing_equality(),
        check_crossing_sign_flip(),
        check_detection_boundary(),
        check_detection_endpoints(),
        check_horodecki_pt_classes(),
        check_pt_sign_changes(),
        check_embedding(),
        check_gamma0_measures(seed),
    ]
    results.extend(check_certifications())
    results.append(check_sampler_floor(samples, seed))
    results.append(check_closed_form_coefficients())
    results.append(check_nearest_ppt(seed))
    results.append(check_spectrum_closed_form(seed))
    results.append(check_bell_orthonormality())
    return results
