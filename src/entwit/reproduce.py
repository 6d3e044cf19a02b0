"""Threshold-reproduction battery.

Every quantitative claim the library rests on is re-derived here through an
independent route (bisection against closed forms, numeric eigensolves
against formulas, sampling against certificates) and reported as a
CheckResult.  The acceptance test suite and the `reproduce` CLI command both
run this battery.

Checks that cover many witnesses or states run them as 9x9 stacks,
through the batch kernels whose single-item calls are the public functions
(`certify_witness`, `line_witness`, `nearest_ppt`, `DensityMatrix`), so each
row is bit for bit what that call returns.  The sampler floor probes the
witnesses' 9x9 operators with `min_separable_expectation`, as
`witness-check` does, and the nearest-PPT check runs Dykstra on Bell
weights next to its 9x9 stack.  Every state a check builds passes the
density-matrix gates, and the report of a given seed and sample count is
byte-stable.  A Bell-diagonal state is gated on its Bell weights, which
are its spectrum (`_bell_gate`): the family states and the Bell-space
Dykstra output take no eigensolve to be gated.  The matrix-space Dykstra
output is gated through its eigensolve (`_density_gate`).

Family states and the witnesses of family states are real symmetric 9x9
matrices, built from the 27 entries that their Bell weights touch
(`_bell_diagonal`; for the states, the matrices of `simplex_state`), so
the partial-transpose eigensolves, both projections of the matrix-space
Dykstra run and the probe's tables are real arithmetic, and each row is
still bit for bit the public call on that state; the spectrum cross-check
diagonalizes the real part of its matrices.  No bisection reads a sign
where its function is 0 to round-off: the PT sign changes are bisected
from off-centre brackets (`check_pt_sign_changes`), so the printed roots
do not depend on the eigensolver.

The threshold scan bisects each of its 10 000 roots from a bracket a few
ulps wide around the value that the 1/lambda scaling of the coefficient
moduli predicts, bit for bit the lambda_min that `lambda-scan` prints: the
scan, the threshold lines and `detection_profile` read one closed form,
`witness._line_moduli`.  Where a bracket does not hold its root, the check
fails and names the gamma; it never widens the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import (PSD_TOL, BipartiteOperator, _density_gate,
                        _hs_norms, hs_inner, identity)
from .weyl import bell_projector, max_entangled
from .families import (
    simplex_spectrum,
    _bell_diagonal,
    _bell_gate,
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
    _detection_profiles,
    _gamma0_nearest,
    _line_moduli,
    _line_pair,
    _measure_values,
    _tangent_traces,
)
from .ppt import (
    _BELL_SPACE,
    SamplerConfig,
    _dykstra,
    _matrix_space,
    _min_pt_eigenvalues,
    min_separable_expectation,
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


def _bisect(f, lo, hi, iters: int):
    """Sign change of f in [lo, hi] after `iters` halvings; elementwise.

    A halving that moves no bracket leaves every later one where it is, so
    the loop stops there with the roots of all `iters` halvings.  A bracket
    without a sign change moves its low end up to the high one, as a loop of
    `iters` halvings would.

    A bracket that holds the sign change ends on the two adjacent floats
    that straddle it, once `iters` halvings suffice.  Where the sign of f is
    monotone in floating point there is one such pair, so the root does not
    depend on the starting bracket: a bracket a few ulps wide gives, bit for
    bit, the root of a wide one.
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
    """Per-gamma root of max |coefficient| = 1 in lambda, by bisection of the
    moduli of `witness._line_moduli`, and whether each bracket held it.

    Both moduli scale as 1/lambda, so the root is their larger value at
    lambda = 1, bit for bit the lambda_min of `detection_profile`.  Each
    bracket is that value times 1 -+ 2^-50, about 8 ulps either side, and
    holds its root when the excess max |coefficient| - 1 is positive at its
    low end and not at its high one.  The excess is a monotone float
    expression in lambda (products and quotients of positive numbers), so
    where a bracket holds, its root is bit for bit that of a bracket from
    0.05 to 2 (`_bisect`), in 5 halvings instead of about 54.  Where a
    bracket does not hold, its root means nothing.
    """
    def excess(lams):
        return np.maximum(*_line_moduli(gammas, lams)) - 1.0

    guess = np.maximum(*_line_moduli(gammas, 1.0))
    lo, hi = guess * (1.0 - 2.0 ** -50), guess * (1.0 + 2.0 ** -50)
    held = (excess(lo) > 0) & (excess(hi) <= 0)
    return _bisect(excess, lo, hi, 80), held


def check_total_minimum_closed_form() -> CheckResult:
    computed = detection_profile(CROSSING_GAMMA).lambda_min
    dev = abs(computed - LAMBDA_MIN_TOTAL)
    return _check("total_minimum_closed_form", dev, 1e-12,
                  LAMBDA_MIN_TOTAL, computed)


def _unbracketed(gamma) -> CheckResult:
    """The failed scan, at a gamma whose bracket does not hold its root."""
    return _check_flag("total_minimum_scan", False, LAMBDA_MIN_TOTAL,
                       f"no root in the bracket at gamma={float(gamma)!r}")


def check_total_minimum_scan() -> CheckResult:
    """Grid scan plus bisection, using only the coefficient moduli
    (`witness._line_moduli`, which `detection_profile` also reads).

    The minimum of max(root_1, root_2) over gamma sits at the kink where the
    two root curves cross, so the grid minimum is refined by bisecting the
    root difference on the bracketing grid interval.  Both moduli scale as
    1/lambda, so that difference is f_1(gamma, 1) - f_2(gamma, 1), and each
    root is bisected from a bracket a few ulps around its value at
    lambda = 1 (`_bisect_lambda_roots`).  Where a bracket does not hold its
    root, the scaling is broken and the check fails at the first such gamma.
    """
    gammas = np.linspace(DETECTION_GAMMA, 3 / 7, 10000)
    roots, held = _bisect_lambda_roots(gammas)
    if not held.all():
        return _unbracketed(gammas[~held][0])
    best = int(np.argmin(roots))
    scan_min = float(roots[best])

    def root_gap(gamma):
        return np.subtract(*_line_moduli(gamma, 1.0))

    lo = gammas[max(best - 1, 0)]
    hi = gammas[min(best + 1, len(gammas) - 1)]
    if root_gap(hi) * root_gap(lo) < 0:
        crossing = _bisect(root_gap, lo, hi, 60)
        root, held = _bisect_lambda_roots(crossing)
        if not held:
            return _unbracketed(crossing)
        scan_min = min(scan_min, float(root))
    dev = abs(scan_min - LAMBDA_MIN_TOTAL)
    return _check("total_minimum_scan", dev, 1e-6, LAMBDA_MIN_TOTAL, scan_min)


def check_crossing_equality() -> CheckResult:
    profile = detection_profile(CROSSING_GAMMA)
    dev = abs(profile.lambda_1 - profile.lambda_2)
    return _check("crossing_equality", dev, 1e-12, 0.0, dev)


def check_crossing_sign_flip() -> CheckResult:
    lambda_1, lambda_2, _, _ = _detection_profiles(
        CROSSING_GAMMA + np.array([-1e-6, 1e-6]))
    below, above = (lambda_1 - lambda_2).tolist()
    return _check_flag("crossing_sign_flip", below > 0 > above,
                       "lambda_1-lambda_2 flips sign",
                       f"below={below:.3e}, above={above:.3e}")


def check_detection_boundary() -> CheckResult:
    inside, outside = _detection_profiles(
        DETECTION_GAMMA + np.array([1e-6, -1e-6]))[3].tolist()
    return _check_flag("detection_boundary", inside and not outside,
                       "detects iff |gamma| > 1/sqrt(21)",
                       f"at +eps: {inside}, at -eps: {outside}")


def _b_excess(b):
    # max coefficient modulus of the line witness at lambda = 1, minus 1
    return np.maximum(*_line_moduli(_horodecki_params(b).gamma, 1.0)) - 1.0


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
    """The sign changes of the Horodecki PT minimum at b = 1 and 4, bisected
    from [0.99, 1.02] and [3.98, 4.01].

    The PT minimum vanishes exactly at the roots, so a midpoint on a root
    would read the sign of round-off, which depends on the eigensolver
    (real or complex LAPACK).  The brackets are off-centre: no midpoint of
    the 25 halvings comes within 2.9e-10 of a root, and the PT minimum the
    bisection reads is at least 8.5e-12 in magnitude, far above round-off.
    """
    lo, hi = np.array([0.99, 3.98]), np.array([1.02, 4.01])
    below, before, above, past = _min_pt_eig_b(np.concatenate([lo, hi]))
    if not (below < 0 < above and past < 0 < before):
        return _check_flag("pt_sign_changes", False, "(1, 4)",
                           "no sign change inside brackets")
    # 25 halvings take the 0.03 brackets below a width of 1e-9
    root_low, root_high = _bisect(lambda b: -_min_pt_eig_b(b), lo, hi, 25)
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
    """The family states at parameter arrays as a real (N, 9, 9) stack,
    the matrices of `simplex_state`, each through the gates of a density
    matrix read from its Bell weights (`_bell_gate`): no eigensolve."""
    weights = _family_weights(alpha, beta, gamma)
    _bell_gate(weights)
    return _bell_diagonal(weights)


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
    lams = _detection_profiles(gammas)[2]
    for array in (gammas, lams):
        array.setflags(write=False)
    return gammas, lams


def _line_operators(gammas: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The line witnesses at (gammas[k], lams[k]) as a real (N, 9, 9)
    stack, from their Bell traces."""
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

    The two region witnesses and the 20 line witnesses at lambda_min, the
    operators `check_certifications` certifies first, are probed by one
    call of `min_separable_expectation` on `samples` product states, as
    `witness-check` probes one operator; that function describes the probe.
    The floor is an upper bound on each witness's separable minimum, so the
    check can catch a non-witness but never prove witness-hood.
    """
    witnesses = [*region_witnesses(),
                 *(BipartiteOperator(3, 3, mat)
                   for mat in _line_operators(*_threshold_lines()))]
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
    gamma = 0 region against the closed-form nearest points
    (`_gamma0_nearest`), run as one stack of 9x9 matrices and as one stack
    of Bell weights; the deviation is the worse of the two.  The output
    states pass the density gates: the matrices through their eigensolve
    (`_density_gate`), the weights as their spectrum (`_bell_gate`)."""
    rng = np.random.default_rng(seed)
    alpha, beta = np.concatenate([_random_region_points(rng, "I", 10),
                                  _random_region_points(rng, "II", 10)], axis=1)
    _, _, near_alpha, near_beta = _gamma0_nearest(alpha, beta)
    worst = 0.0
    for space, points, target, gate in (
            (_matrix_space(3, 3), _family_states(alpha, beta, 0.0),
             _family_states(near_alpha, near_beta, 0.0), _density_gate),
            (_BELL_SPACE, _family_weights(alpha, beta, 0.0),
             _family_weights(near_alpha, near_beta, 0.0), _bell_gate)):
        runs = _dykstra(space, points, PSD_TOL, 10000)
        stalled = np.flatnonzero(~runs.converged)
        if stalled.size:
            k = stalled[0]
            return _check_flag("nearest_ppt_gamma0", False, "converged",
                               f"stalled at ({alpha[k]}, {beta[k]})")
        gate(runs.states)
        worst = max(worst, float(space.norms(runs.states - target).max()))
    return _check("nearest_ppt_gamma0", worst, 1e-6, 0.0, worst)


def check_spectrum_closed_form(seed: int) -> CheckResult:
    """`simplex_spectrum` against eigvalsh of the family formula, built
    here from `bell_projector` terms rather than from the Bell weights.

    The formula's four terms (the identity, P00, P10 + P20 and
    P01 + P11 + P21) are real, as `simplex_state` builds the family
    (`_bell_diagonal`), so the matrices are formed and diagonalized
    from their real parts; the largest imaginary entry the terms drop
    counts towards the deviation."""
    params = np.random.default_rng(seed).uniform(-1.0, 1.0, (1000, 3))
    alpha, beta, gamma = params.T[:, :, None, None]
    p = {(n, m): bell_projector(3, (n, m)).entries
         for n in range(3) for m in range(3)}
    terms = np.stack([np.eye(9), p[0, 0], p[1, 0] + p[2, 0],
                      p[0, 1] + p[1, 1] + p[2, 1]])
    one, p00, pair, triple = terms.real
    mats = ((1.0 - alpha - beta - gamma) / 9.0 * one + alpha * p00
            + beta / 2.0 * pair + gamma / 3.0 * triple)
    numeric = np.linalg.eigvalsh(mats)
    worst = max(float(np.abs(simplex_spectrum(params) - numeric).max()),
                float(np.abs(terms.imag).max()))
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
