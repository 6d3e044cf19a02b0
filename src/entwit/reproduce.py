"""Threshold-reproduction battery.

Every quantitative claim the library rests on is re-derived here through an
independent route (bisection against closed forms, numeric eigensolves
against formulas, sampling against certificates) and reported as a
CheckResult.  The acceptance test suite and the `reproduce` CLI command both
run this battery.

Checks that cover many witnesses or states run them as 9x9 stacks,
through the batch kernels whose single-item calls are the public functions
(`certify_witness`, `line_witness`, `nearest_ppt`, `DensityMatrix`), so each
row is bit for bit what that call returns.  Every state a check builds
passes the density-matrix gates, and the report of a given seed and sample
count is byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import (PSD_TOL, BipartiteOperator, _density_gate, _hs_norms,
                        hs_inner, identity)
from .weyl import bell_projector, max_entangled
from .families import (
    simplex_spectrum,
    _bell_diagonal,
    _family_pt_minimum,
    _family_weights,
    _horodecki_params,
)
from .witness import (
    CROSSING_GAMMA,
    DETECTION_GAMMA,
    detection_profile,
    horodecki_detection_range,
    line_witness_coefficients,
    region_witnesses,
    _certify_stack,
    _gamma0_nearest,
    _line_pair,
    _measure_values,
    _tangent_traces,
)
from .ppt import (
    SamplerConfig,
    min_separable_expectation,
    _dykstra,
    _min_pt_eigenvalues,
)

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
    """A pass/fail check: deviation 0 or 1 against tolerance 0."""
    return _check(name, 0.0 if ok else 1.0, 0.0, target, computed)


def _coeff_moduli(gammas: np.ndarray, lams: np.ndarray):
    # coefficient moduli of the line witness, vectorized over the grid
    denom = 7.0 * lams * (1.0 + 3.0 * gammas ** 2)
    f1 = 8.0 / denom
    f2 = 2.0 * np.sqrt(1.0 + 147.0 * gammas ** 2) / denom
    return f1, f2


def _bisect(f, lo, hi, iters: int):
    """Sign change of f in [lo, hi] after `iters` halvings; elementwise.

    A halving that moves no bracket leaves every later one where it is, so
    the loop stops there with the roots of all `iters` halvings.  A bracket
    without a sign change moves its low end up to the high one, as a loop of
    `iters` halvings would.
    """
    positive_lo = f(lo) > 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        same_side = (f(mid) > 0) == positive_lo
        next_lo = np.where(same_side, mid, lo)
        next_hi = np.where(same_side, hi, mid)
        if np.array_equal(next_lo, lo) and np.array_equal(next_hi, hi):
            break
        lo, hi = next_lo, next_hi
    return 0.5 * (lo + hi)


def _bisect_lambda_roots(gammas):
    """Per-gamma root of max |coefficient| = 1 in lambda, by bisection."""
    return _bisect(lambda lams: np.maximum(*_coeff_moduli(gammas, lams)) - 1.0,
                   np.full_like(gammas, 0.05), np.full_like(gammas, 2.0), 80)


def check_total_minimum_closed_form() -> CheckResult:
    computed = detection_profile(CROSSING_GAMMA).lambda_min
    dev = abs(computed - LAMBDA_MIN_TOTAL)
    return _check("total_minimum_closed_form", dev, 1e-12,
                  LAMBDA_MIN_TOTAL, computed)


def check_total_minimum_scan() -> CheckResult:
    """Grid scan plus bisection, using only the coefficient moduli.

    The minimum of max(root_1, root_2) over gamma sits at the kink where the
    two root curves cross, so the grid minimum is refined by bisecting the
    root difference on the bracketing grid interval.  Both moduli scale as
    1/lambda, so that difference is f_1(gamma, 1) - f_2(gamma, 1).
    """
    gammas = np.linspace(DETECTION_GAMMA, 3 / 7, 10000)
    roots = _bisect_lambda_roots(gammas)
    best = int(np.argmin(roots))
    scan_min = float(roots[best])

    def root_gap(gamma):
        return np.subtract(*_coeff_moduli(gamma, 1.0))

    lo = gammas[max(best - 1, 0)]
    hi = gammas[min(best + 1, len(gammas) - 1)]
    if root_gap(hi) * root_gap(lo) < 0:
        crossing = _bisect(root_gap, lo, hi, 60)
        scan_min = min(scan_min, float(_bisect_lambda_roots(crossing)))
    dev = abs(scan_min - LAMBDA_MIN_TOTAL)
    return _check("total_minimum_scan", dev, 1e-6, LAMBDA_MIN_TOTAL, scan_min)


def check_crossing_equality() -> CheckResult:
    profile = detection_profile(CROSSING_GAMMA)
    dev = abs(profile.lambda_1 - profile.lambda_2)
    return _check("crossing_equality", dev, 1e-12, 0.0, dev)


def check_crossing_sign_flip() -> CheckResult:
    below = detection_profile(CROSSING_GAMMA - 1e-6)
    above = detection_profile(CROSSING_GAMMA + 1e-6)
    ok = (below.lambda_1 - below.lambda_2 > 0) and (
        above.lambda_1 - above.lambda_2 < 0)
    return _check_flag("crossing_sign_flip", ok,
                       "lambda_1-lambda_2 flips sign",
                       f"below={below.lambda_1 - below.lambda_2:.3e}, "
                       f"above={above.lambda_1 - above.lambda_2:.3e}")


def check_detection_boundary() -> CheckResult:
    inside = detection_profile(DETECTION_GAMMA + 1e-6).detects
    outside = detection_profile(DETECTION_GAMMA - 1e-6).detects
    ok = inside and not outside
    return _check_flag("detection_boundary", ok,
                       "detects iff |gamma| > 1/sqrt(21)",
                       f"at +eps: {inside}, at -eps: {outside}")


def _b_excess(b):
    # max coefficient modulus of the line witness at lambda = 1, minus 1
    coeff = line_witness_coefficients((5.0 - 2.0 * b) / 7.0, 1.0)
    return np.maximum(np.abs(coeff.c1), np.abs(coeff.c2)) - 1.0


def check_detection_endpoints() -> CheckResult:
    root = math.sqrt(21.0)
    targets = ((15.0 - root) / 6.0, (15.0 + root) / 6.0)
    bisected = _bisect(_b_excess, np.array([1.0, 2.5]), np.array([2.5, 4.0]),
                       80)
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
    """PT classes of 10 Horodecki states from the 9x9 eigensolve, whose
    minima must also equal the family's closed form within 1e-12."""
    b = np.array([0.0, 0.5, 0.99, 1.0, 2.0, 3.0, 4.0, 4.01, 4.5, 5.0])
    want = np.where((1.0 <= b) & (b <= 4.0), "PPT", "NPT")
    min_pt_eig = _min_pt_eig_b(b)
    label = np.where(min_pt_eig < -PSD_TOL, "NPT", "PPT")
    bad = want != label
    wrong = list(zip(b[bad].tolist(), want[bad].tolist(), label[bad].tolist()))
    closed_form = np.abs(min_pt_eig
                         - _family_pt_minimum(*_horodecki_params(b))).max()
    if closed_form > 1e-12:
        wrong.append(f"closed-form PT minimum off by {closed_form:.3e}")
    return _check_flag("horodecki_pt_classes", not wrong,
                       "NPT <1, PPT [1,4], NPT >4", wrong or "all as stated")


def _min_pt_eig_b(b: np.ndarray) -> np.ndarray:
    """Minimum PT eigenvalue of the Horodecki state at each b, from one
    stacked 9x9 eigensolve."""
    return _min_pt_eigenvalues(_family_states(*_horodecki_params(b)), 3, 3)


def check_pt_sign_changes() -> CheckResult:
    below, above, past, before = _min_pt_eig_b(np.array([0.99, 1.01, 4.01,
                                                         3.99]))
    if not (below < 0 < above and past < 0 < before):
        return _check_flag("pt_sign_changes", False, "(1, 4)",
                           "no sign change inside brackets")
    # 25 halvings take the 0.02 brackets below a width of 1e-9
    root_low, root_high = _bisect(lambda b: -_min_pt_eig_b(b),
                                  np.array([0.99, 3.99]),
                                  np.array([1.01, 4.01]), 25)
    dev = max(abs(root_low - 1.0), abs(root_high - 4.0))
    return _check("pt_sign_changes", dev, 1e-8, "(1, 4)",
                  f"({root_low:.10f}, {root_high:.10f})")


def check_embedding() -> CheckResult:
    """The family member at `horodecki_to_simplex(b)` against rho_b =
    2/7 |phi+><phi+| + b/7 sigma+ + (5-b)/7 sigma-, with sigma+ uniform on
    |01>, |12>, |20> and sigma- on |10>, |21>, |02>."""
    phi = max_entangled(3)
    b = np.linspace(0.0, 5.0, 51)
    cycles = np.zeros((len(b), 9))
    cycles[:, [1, 5, 6]] = (b / 21)[:, None]
    cycles[:, [3, 7, 2]] = ((5 - b) / 21)[:, None]
    rho_b = 2 / 7 * np.outer(phi, phi) + cycles[:, :, None] * np.eye(9)
    states = _family_states(*_horodecki_params(b))
    worst = float(np.linalg.norm(states - rho_b, axis=(1, 2)).max())
    return _check("embedding_residual", worst, 1e-12, 0.0, worst)


#: Candidate (alpha, beta) pairs drawn at a time by `_random_region_points`.
_REGION_DRAW = 1024


def _random_region_points(rng, region: str, count: int):
    """(alpha, beta) arrays of `count` seeded valid points of the gamma = 0
    slice whose own region distance exceeds 1e-6 and whose other one does not.

    The points, and the state of `rng` afterwards, are those of drawing one
    pair at a time until `count` are accepted: candidates are drawn and
    tested `_REGION_DRAW` at a time, and the last block is redrawn from its
    saved state up to the pair that completes the count.
    """
    low, high = (-1 / 6, -1 / 3), (1.0, 1.0)
    alpha, beta = [], []
    found = 0
    while found < count:
        state = rng.bit_generator.state
        pairs = rng.uniform(low, high, (_REGION_DRAW, 2))
        valid = _family_weights(*pairs.T, 0.0).min(axis=1) >= -PSD_TOL
        d_one, d_two = _measure_values(*pairs.T)
        own, other = (d_one, d_two) if region == "I" else (d_two, d_one)
        hits = np.flatnonzero(valid & (own > 1e-6) & (np.maximum(other, 0) <= 1e-6))
        if found + len(hits) >= count:
            hits = hits[:count - found]
            rng.bit_generator.state = state
            rng.uniform(low, high, (hits[-1] + 1, 2))
        alpha.append(pairs[hits, 0])
        beta.append(pairs[hits, 1])
        found += len(hits)
    return np.concatenate(alpha), np.concatenate(beta)


def _family_states(alpha, beta, gamma) -> np.ndarray:
    """The family states at parameter arrays as an (N, 9, 9) stack, each
    through the gates of `DensityMatrix`."""
    mats = _bell_diagonal(_family_weights(alpha, beta, gamma))
    _density_gate(mats)
    return mats


def check_gamma0_measures(seed: int) -> CheckResult:
    """The closed-form gamma = 0 measure against the 9x9 norm distance to
    the closed-form nearest point and against minus the region witness
    value, at 100 seeded NPT points of each region (`_gamma0_nearest`)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for region, witness in zip(("I", "II"), region_witnesses()):
        alpha, beta = _random_region_points(rng, region, 100)
        measure, region_one, near_alpha, near_beta = _gamma0_nearest(alpha,
                                                                     beta)
        npt = _family_pt_minimum(alpha, beta, 0.0) < -PSD_TOL
        wrong = np.flatnonzero(~npt | (region_one != (region == "I")))
        if wrong.size:
            k = wrong[0]
            return _check_flag("gamma0_measures", False, region,
                               f"region mismatch at ({alpha[k]}, {beta[k]})")
        rho = _family_states(alpha, beta, 0.0)
        sigma = _family_states(near_alpha, near_beta, 0.0)
        values = np.vecdot(rho.reshape(-1, 81), witness.op.entries.ravel())
        worst = max(worst, float(np.abs(measure - _hs_norms(sigma - rho)).max()),
                    float(np.abs(measure + values.real).max()))
    return _check("gamma0_measures", worst, 1e-12, 0.0, worst)


@lru_cache(maxsize=None)
def _threshold_lines() -> tuple[np.ndarray, np.ndarray]:
    """(gammas, lambda_min) of the line witnesses at 20 detecting gammas,
    10 of each sign, as read-only arrays."""
    magnitudes = np.linspace(DETECTION_GAMMA + 1e-3, 3 / 7, 10)
    gammas = np.concatenate([-magnitudes[::-1], magnitudes])
    lams = np.array([detection_profile(gamma).lambda_min for gamma in gammas])
    for array in (gammas, lams):
        array.setflags(write=False)
    return gammas, lams


def _line_operators(gammas: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The line witnesses at (gammas[k], lams[k]) as an (N, 9, 9) stack,
    from their Bell traces."""
    return _bell_diagonal(_tangent_traces(*_line_pair(gammas, lams))[0])


def check_certifications() -> list[CheckResult]:
    """One certification of the two region witnesses, the line witnesses at
    lambda_min (those the sampler probes) and at 0.9 lambda_min."""
    gammas, lams = _threshold_lines()
    mats = np.concatenate([
        [witness.op.entries for witness in region_witnesses()],
        _line_operators(np.tile(gammas, 2), np.concatenate([lams, 0.9 * lams])),
    ])
    stack = _certify_stack(mats, 3, 3)
    regions_ok = bool(stack.certified[:2].all())
    at_threshold = stack.certified[2:2 + len(gammas)]
    below = slice(2 + len(gammas), None)
    below_threshold = ~stack.certified[below] & (stack.max_abs_c[below] > 1.0)
    return [
        _check_flag("region_witnesses_certified", regions_ok,
                    "both certified", regions_ok),
        _check_flag("line_witnesses_certified", at_threshold.all(),
                    f"{len(gammas)} certified",
                    f"{int(at_threshold.sum())} certified"),
        _check_flag("line_witnesses_below_threshold_fail",
                    below_threshold.all(), "all fail with max|c| > 1",
                    f"{int(below_threshold.sum())} fail"),
    ]


def check_sampler_floor(samples: int, seed: int) -> CheckResult:
    """Lowest separable expectation of the battery's witnesses, >= -1e-9.

    The two region witnesses and the line witnesses at lambda_min share one
    seeded pool of `samples` product states and one batched seesaw from the
    lowest states of each (`min_separable_expectation`).
    """
    witnesses = list(region_witnesses())
    witnesses += [BipartiteOperator(3, 3, mat)
                  for mat in _line_operators(*_threshold_lines())]
    config = SamplerConfig(seed=seed, count=samples)
    floor = float(min_separable_expectation(witnesses, config).min())
    deviation = max(0.0, -floor)
    return _check("sampler_floor", deviation, 1e-9,
                  ">= -1e-9", floor)


def check_closed_form_coefficients() -> CheckResult:
    """Certificates of the line witnesses, whose operators are built from
    Bell weights, against the closed-form a, c1 and c2, on a 20 x 20 grid
    of gamma and lambda."""
    gammas = np.concatenate([
        np.linspace(-3 / 7, -1 / 7 - 1e-3, 10),
        np.linspace(1 / 7 + 1e-3, 3 / 7, 10),
    ])
    lams = np.linspace(0.1, 0.95, 20)
    gammas, lams = (grid.ravel() for grid in np.meshgrid(gammas, lams,
                                                          indexing="ij"))
    stack = _certify_stack(_line_operators(gammas, lams), 3, 3)
    off_form = np.flatnonzero(~stack.in_certifiable_form)
    if off_form.size:
        k = off_form[0]
        return _check_flag("closed_form_coefficients", False,
                           "in certifiable form",
                           f"off-form at gamma={gammas[k]}, lambda={lams[k]}")
    coeff = line_witness_coefficients(gammas, lams)
    table = stack.c_table
    worst = max(
        float(np.abs(stack.a - coeff.a).max()),
        float(np.abs(table[:, :, 1:] - coeff.c1[:, None, None]).max()),
        float(np.abs(table[:, 1, 0] - coeff.c2).max()),
        float(np.abs(table[:, 2, 0] - np.conj(coeff.c2)).max()),
    )
    return _check("closed_form_coefficients", worst, 1e-10, 0.0, worst)


def check_nearest_ppt(seed: int) -> CheckResult:
    """Dykstra's nearest PPT states of 10 seeded NPT points of each
    gamma = 0 region, run as one stack, against the closed-form nearest
    points (`_gamma0_nearest`)."""
    rng = np.random.default_rng(seed)
    alpha, beta = np.concatenate([_random_region_points(rng, "I", 10),
                                  _random_region_points(rng, "II", 10)], axis=1)
    runs = _dykstra(_family_states(alpha, beta, 0.0), 3, 3, PSD_TOL, 10000)
    stalled = np.flatnonzero(~runs.converged)
    if stalled.size:
        k = stalled[0]
        return _check_flag("nearest_ppt_gamma0", False,
                           "converged", f"stalled at ({alpha[k]}, {beta[k]})")
    _density_gate(runs.states)
    _, _, near_alpha, near_beta = _gamma0_nearest(alpha, beta)
    target = _family_states(near_alpha, near_beta, 0.0)
    worst = float(_hs_norms(runs.states - target).max())
    return _check("nearest_ppt_gamma0", worst, 1e-6, 0.0, worst)


def check_spectrum_closed_form(seed: int) -> CheckResult:
    """`simplex_spectrum` against eigvalsh of the family formula, built
    here from `bell_projector` terms rather than from the Bell weights."""
    params = np.random.default_rng(seed).uniform(-1.0, 1.0, (1000, 3))
    alpha, beta, gamma = params.T[:, :, None, None]
    p = {(n, m): bell_projector(3, (n, m)).entries
         for n in range(3) for m in range(3)}
    mats = ((1.0 - alpha - beta - gamma) / 9.0 * np.eye(9) + alpha * p[0, 0]
            + beta / 2.0 * (p[1, 0] + p[2, 0])
            + gamma / 3.0 * (p[0, 1] + p[1, 1] + p[2, 1]))
    numeric = np.linalg.eigvalsh(mats)
    worst = float(np.abs(simplex_spectrum(params) - numeric).max())
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
