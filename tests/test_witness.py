import math

import numpy as np
import pytest

from entwit import (
    CROSSING_GAMMA,
    DETECTION_GAMMA,
    GeometricWitness,
    SamplerConfig,
    SimplexParams,
    certify_witness,
    classify_ppt,
    detection_profile,
    geometric_witness,
    horodecki_detection_range,
    horodecki_state,
    hs_inner,
    hs_measure_gamma0,
    hs_norm,
    line_witness,
    line_witness_coefficients,
    maximally_mixed,
    min_separable_expectation,
    nearest_separable_gamma0,
    region_witnesses,
    simplex_state,
    tensor,
    weyl_expand,
    weyl_operator,
)
from entwit import reproduce
from entwit.operators import BipartiteOperator
from entwit.weyl import _weyl_coefficients
from entwit.witness import (_certify_stack, _gamma0_nearest, _line_moduli,
                            _line_pair, _tangent_traces)


def u_combos():
    # the two Weyl sums entering the closed-form slice witnesses
    u1 = np.zeros((9, 9), dtype=complex)
    for n in range(3):
        for m in (1, 2):
            u1 += tensor(weyl_operator(3, (n, m)), weyl_operator(3, (-n, m))).entries
    u2i = tensor(weyl_operator(3, (1, 0)), weyl_operator(3, (-1, 0))).entries
    u2ii = tensor(weyl_operator(3, (2, 0)), weyl_operator(3, (-2, 0))).entries
    return u1, u2i, u2ii


def closed_form_region_witnesses():
    u1, u2i, u2ii = u_combos()
    scale = 1 / (6 * math.sqrt(2))
    c_one = scale * (2 * np.eye(9) - u1 - (u2i + u2ii))
    c_two = scale * (2 * np.eye(9) + u1 - (u2i + u2ii))
    return c_one, c_two


def random_valid_pair(rng):
    while True:
        a = simplex_state(SimplexParams(*rng.uniform(-0.1, 0.5, 3)))
        b = simplex_state(SimplexParams(*rng.uniform(-0.1, 0.5, 3)))
        if a.valid and b.valid and hs_norm(a.op - b.op) > 1e-6:
            return a.density(), b.density()


def test_geometric_witness_tangency_and_violation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sigma, rho = random_valid_pair(rng)
        dist = hs_norm(sigma.op - rho.op)
        normalized = geometric_witness(sigma, rho, normalize=True)
        assert normalized.op.is_hermitian()
        assert normalized.normalization == pytest.approx(dist)
        assert abs(hs_inner(sigma, normalized.op)) < 1e-10
        assert hs_inner(rho, normalized.op).real == pytest.approx(-dist, abs=1e-10)
        raw = geometric_witness(sigma, rho, normalize=False)
        assert raw.normalization == 1.0
        assert hs_inner(rho, raw.op).real == pytest.approx(-dist**2, abs=1e-10)


def test_geometric_witness_rejects_equal_states():
    rho = maximally_mixed(3, 3)
    with pytest.raises(ValueError):
        geometric_witness(rho, rho)


def test_region_witness_one_matches_closed_form():
    sigma = simplex_state(SimplexParams(0.25, 0, 0)).density()
    rho = simplex_state(SimplexParams(0.5, 0, 0)).density()
    witness = geometric_witness(sigma, rho, normalize=True)
    c_one, _ = closed_form_region_witnesses()
    assert np.abs(witness.op.entries - c_one).max() < 1e-12


def test_region_witnesses_match_closed_forms():
    witness_one, witness_two = region_witnesses()
    c_one, c_two = closed_form_region_witnesses()
    assert np.abs(witness_one.op.entries - c_one).max() < 1e-12
    assert np.abs(witness_two.op.entries - c_two).max() < 1e-12
    # normalized by the state distance, not to unit norm
    assert hs_norm(witness_one.op) == pytest.approx(math.sqrt(1.5))
    assert hs_norm(witness_two.op) == pytest.approx(math.sqrt(1.5))


def test_family_witnesses_are_real_like_geometric_witness():
    # a witness of two family states is real, whether it is built from
    # their Bell weights or from their simplex_state matrices
    built = [(witness, True) for witness in region_witnesses()]
    for gamma in (-3 / 7, -0.3, 0.25, 3 / 7):
        for lam in (0.4, 0.9 * detection_profile(gamma).lambda_min):
            built.append((line_witness(gamma, lam)[0], False))
    for witness, normalize in built:
        from_matrices = geometric_witness(witness.reference, witness.target,
                                          normalize=normalize)
        assert witness.op.entries.dtype == np.float64
        assert from_matrices.op.entries.dtype == np.float64
        assert np.abs(witness.op.entries
                      - from_matrices.op.entries).max() < 1e-14


def test_region_witness_expectations():
    witness_one, _ = region_witnesses()
    rho = simplex_state(SimplexParams(0.5, 0, 0)).density()
    assert hs_inner(rho, witness_one.op).real == pytest.approx(-math.sqrt(2) / 6)
    mixed = maximally_mixed(3, 3)
    assert hs_inner(mixed, witness_one.op).real == pytest.approx(math.sqrt(2) / 6)
    border = simplex_state(SimplexParams(0.25, 0, 0)).density()
    assert abs(hs_inner(border, witness_one.op).real) < 1e-12


def test_mixed_state_nonnegative_on_nearest_witnesses():
    rng = np.random.default_rng(11)
    mixed = maximally_mixed(3, 3)
    for _ in range(10):
        alpha, beta = rng.uniform(0.3, 0.9), rng.uniform(-0.2, 0.2)
        state = simplex_state(SimplexParams(alpha, beta, 0))
        if not state.valid:
            continue
        try:
            nearest, _ = nearest_separable_gamma0(alpha, beta)
        except ValueError:
            continue
        witness = geometric_witness(simplex_state(nearest).density(),
                                    state.density())
        assert hs_inner(mixed, witness.op).real >= -1e-12


def test_certify_region_witness():
    witness_one, witness_two = region_witnesses()
    certificate = certify_witness(witness_one)
    assert certificate.certified and certificate.in_certifiable_form
    assert certificate.a == pytest.approx(1 / (6 * math.sqrt(2)))
    magnitudes = np.abs(certificate.c_table)
    assert magnitudes[0, 0] == 0.0
    assert np.allclose(np.sort(magnitudes.ravel())[1:], np.ones(8), atol=1e-12)
    assert certify_witness(witness_two).certified


def test_certify_identity_trivially():
    certificate = certify_witness(BipartiteOperator(3, 3, np.eye(9)))
    assert certificate.certified
    assert certificate.a == pytest.approx(0.5)
    assert certificate.max_abs_c < 1e-14


def test_certify_rejects_non_hermitian():
    mat = np.zeros((9, 9), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(ValueError):
        certify_witness(BipartiteOperator(3, 3, mat))


def test_certify_generic_hermitian_off_form():
    rng = np.random.default_rng(13)
    raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    certificate = certify_witness(BipartiteOperator(3, 3, raw + raw.conj().T))
    assert not certificate.in_certifiable_form
    assert certificate.off_form_residual > 1e-6


def reference_certificate(op):
    # the per-pair reading of the coefficient table, one (n, m) at a time
    coeffs = weyl_expand(op).coeffs
    d = coeffs.shape[0]
    id_coeff = coeffs[0, 0, 0, 0]
    a = id_coeff.real / (d - 1)
    c_table = np.zeros((d, d), dtype=complex)
    off_form = abs(id_coeff.imag)
    for n in range(d):
        for m in range(d):
            partner = ((-n) % d, m)
            if (n, m) != (0, 0) and a > 0:
                c_table[n, m] = coeffs[n, m][partner] / a
            off = np.abs(coeffs[n, m])
            off[partner] = 0.0
            off_form = max(off_form, off.max())
    return a, c_table, off_form


def test_certify_matches_per_pair_reference():
    rng = np.random.default_rng(61)
    raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    ops = [w.op for w in region_witnesses()]
    ops += [line_witness(gamma, lam)[0].op
            for gamma in (-0.4, -0.2, 0.3) for lam in (0.5, 0.95)]
    ops += [BipartiteOperator(3, 3, raw + raw.conj().T),
            BipartiteOperator(3, 3, -np.eye(9))]
    for op in ops:
        certificate = certify_witness(op)
        a, c_table, off_form = reference_certificate(op)
        assert abs(certificate.a - a) <= 1e-15
        assert np.abs(certificate.c_table - c_table).max() <= 1e-15
        assert abs(certificate.off_form_residual - off_form) <= 1e-15


def test_certify_scaled_region_witness_absolute_zero_tol():
    # the off-form residual grows with the scale and meets the absolute
    # zero_tol = 1e-12 between 10^4 and 10^5
    op = region_witnesses()[0].op
    op = (op + op.dagger()) / 2
    for k in range(9):
        certificate = certify_witness(10.0 ** k * op)
        assert certificate.certified == (k <= 4), k
        assert certificate.in_certifiable_form == (k <= 4), k


def _battery_line_grids():
    """(gammas, lambdas) of the battery's line witnesses: the 20 at
    lambda_min, the 20 at 0.9 lambda_min and the 400 of the
    `closed_form_coefficients` grid."""
    gammas, lams = reproduce._threshold_lines()
    grid = np.meshgrid(np.concatenate([np.linspace(-3 / 7, -1 / 7 - 1e-3, 10),
                                       np.linspace(1 / 7 + 1e-3, 3 / 7, 10)]),
                       np.linspace(0.1, 0.95, 20), indexing="ij")
    return [(gammas, lams), (gammas, 0.9 * lams),
            (grid[0].ravel(), grid[1].ravel())]


def _battery_witnesses():
    """The 442 operators the battery certifies: the 42 of `certifications`
    and the 400 of the `closed_form_coefficients` grid."""
    return np.concatenate(
        [[w.op.entries for w in region_witnesses()]]
        + [reproduce._line_operators(*grid) for grid in _battery_line_grids()])


@pytest.mark.parametrize("which", range(3))
def test_line_operator_rows_equal_line_witness(which):
    gammas, lams = _battery_line_grids()[which]
    rows = reproduce._line_operators(gammas, lams)
    for k, (gamma, lam) in enumerate(zip(gammas, lams)):
        assert np.array_equal(rows[k], line_witness(gamma, lam)[0].op.entries), k


def test_tangent_traces_of_a_stack_equal_single_pairs():
    gammas, lams = np.concatenate(
        [np.stack(grid) for grid in _battery_line_grids()], axis=1)
    references, anchors = _line_pair(gammas, lams)
    traces, dist = _tangent_traces(references, anchors)
    normalized, _ = _tangent_traces(references, anchors, normalize=True)
    for k in range(len(gammas)):
        pair = [SimplexParams(*(float(x[k]) for x in params))
                for params in (references, anchors)]
        single, single_dist = _tangent_traces(*pair)
        assert np.array_equal(traces[k], single), k
        assert dist[k] == single_dist, k
        assert np.array_equal(normalized[k],
                              _tangent_traces(*pair, normalize=True)[0]), k


def test_certify_stack_rows_equal_single_certificates():
    rng = np.random.default_rng(29)
    raw = rng.standard_normal((12, 9, 9)) + 1j * rng.standard_normal((12, 9, 9))
    off = tensor(weyl_operator(3, (1, 0)), weyl_operator(3, (1, 0))).entries
    w_one = region_witnesses()[0].op.entries
    battery = _battery_witnesses()
    assert len(battery) == 442
    mats = np.concatenate([
        battery,
        raw + raw.conj().swapaxes(1, 2),
        [np.eye(9) + off + off.conj().T],
        [10.0 ** k * w_one for k in range(-8, 9)],
    ])
    stack = _certify_stack(mats, 3, 3)
    coeffs = _weyl_coefficients(mats, 3, 3)
    assert stack.certified[:2].all() and not stack.in_certifiable_form[442:454].any()
    for i, mat in enumerate(mats):
        single = certify_witness(BipartiteOperator(3, 3, mat))
        assert single.in_certifiable_form == stack.in_certifiable_form[i], i
        assert single.certified == stack.certified[i], i
        assert single.a == stack.a[i], i
        assert single.max_abs_c == stack.max_abs_c[i], i
        assert single.off_form_residual == stack.off_form_residual[i], i
        assert np.array_equal(single.c_table, stack.c_table[i]), i
        assert np.array_equal(
            weyl_expand(BipartiteOperator(3, 3, mat)).coeffs.reshape(9, 9),
            coeffs[i]), i


def test_certify_stack_rejects_any_non_hermitian_operator():
    mats = np.stack([np.eye(9, dtype=complex)] * 3)
    mats[1, 0, 1] += 1.1e-10
    with pytest.raises(ValueError, match="Hermitian"):
        _certify_stack(mats, 3, 3)


def test_operator_wrappers_coerce_alike():
    rho = simplex_state(SimplexParams(0.5, 0.0, 0.0)).density()
    wrapped = [rho.op, rho,
               GeometricWitness(op=rho.op, reference=rho, target=rho)]
    config = SamplerConfig(seed=3, count=200)
    certificates = [certify_witness(x).to_dict() for x in wrapped]
    expansions = [weyl_expand(x).coeffs for x in wrapped]
    minima = [min_separable_expectation(x, config) for x in wrapped]
    assert certificates[1:] == certificates[:-1]
    assert all(np.array_equal(e, expansions[0]) for e in expansions)
    assert minima[1:] == minima[:-1]
    for fn in (certify_witness, weyl_expand,
               lambda x: min_separable_expectation(x, config)):
        with pytest.raises(TypeError):
            fn(rho.entries)


def test_nearest_separable_gamma0_examples():
    nearest, region = nearest_separable_gamma0(0.5, 0.0)
    assert region == "I"
    assert nearest.alpha == pytest.approx(0.25) and nearest.beta == 0.0
    nearest, region = nearest_separable_gamma0(0.0, 0.8)
    assert region == "II"
    assert nearest.alpha == pytest.approx(1 / 12)
    assert nearest.beta == pytest.approx(7 / 15)
    # returned points are PPT states
    for params in [nearest]:
        state = simplex_state(params)
        assert state.valid
        assert classify_ppt(state.density()).label == "PPT"


def test_nearest_separable_gamma0_rejections():
    state = simplex_state(SimplexParams(0.2, 0.1, 0))
    assert classify_ppt(state.density()).label == "PPT"
    with pytest.raises(ValueError):
        nearest_separable_gamma0(0.2, 0.1)
    with pytest.raises(ValueError):
        nearest_separable_gamma0(-0.5, 0.0)  # not a state


def test_hs_measure_gamma0_values():
    measure, region = hs_measure_gamma0(0.5, 0.0)
    assert region == "I" and measure == pytest.approx(math.sqrt(2) / 6)
    measure, region = hs_measure_gamma0(0.0, 0.8)
    assert region == "II" and measure == pytest.approx(math.sqrt(2) / 6)
    measure, region = hs_measure_gamma0(0.25 + 0.1 / 8, 0.1)  # tangent point
    assert region == "separable" and measure == 0.0


def test_hs_measure_gamma0_equals_distance_and_violation():
    rng = np.random.default_rng(17)
    witness_one, witness_two = region_witnesses()
    points = []
    while len(points) < 20:
        alpha = rng.uniform(-1 / 6, 1.0)
        beta = rng.uniform(-1 / 3, 1.0)
        state = simplex_state(SimplexParams(alpha, beta, 0))
        if not state.valid:
            continue
        try:
            nearest, region = nearest_separable_gamma0(alpha, beta)
        except ValueError:
            continue
        measure, _ = hs_measure_gamma0(alpha, beta)
        sigma = simplex_state(nearest).density()
        assert measure == pytest.approx(hs_norm(sigma.op - state.op), abs=1e-12)
        witness = witness_one if region == "I" else witness_two
        assert measure == pytest.approx(-hs_inner(state.op, witness.op).real,
                                        abs=1e-12)
        points.append((alpha, beta, measure, region, nearest))
    # the closed forms on all points at once give the one-point values
    alphas, betas = np.array([point[:2] for point in points]).T
    measures, region_one, near_alphas, near_betas = _gamma0_nearest(alphas,
                                                                    betas)
    for i, (_, _, measure, region, nearest) in enumerate(points):
        assert measures[i] == measure and region_one[i] == (region == "I")
        assert (near_alphas[i], near_betas[i]) == nearest[:2]


def test_line_witness_coefficient_values():
    coeff = line_witness_coefficients(-1 / 7, 1.0)
    assert abs(coeff.c1) == pytest.approx(14 / 13)  # 8/(7*(1+3/49)) > 1
    coeff = line_witness_coefficients(0.3, 0.95)
    assert max(abs(coeff.c1), abs(coeff.c2)) == pytest.approx(
        8 / (7 * 0.95 * 1.27))
    assert max(abs(coeff.c1), abs(coeff.c2)) < 1.0
    with pytest.raises(ValueError):
        line_witness_coefficients(0.3, 0.0)


def test_line_witness_coefficients_tie_to_the_moduli():
    # c1 is minus |c1| bit for bit; |c2| is the modulus of the complex c2 up
    # to the rounding of np.abs
    gammas, lams = np.meshgrid(np.linspace(-3 / 7, 3 / 7, 61),
                               np.linspace(0.05, 1.0, 40))
    coeff = line_witness_coefficients(gammas, lams)
    modulus_1, modulus_2 = _line_moduli(gammas, lams)
    assert np.array_equal(coeff.c1, -modulus_1)
    assert (np.abs(np.abs(coeff.c2) - modulus_2)
            <= 4 * np.spacing(modulus_2)).all()
    assert line_witness_coefficients(0.3, 0.95).c1 == -_line_moduli(0.3, 0.95)[0]


def test_line_witness_matches_raw_construction():
    rng = np.random.default_rng(19)
    for _ in range(15):
        sign = rng.choice([-1.0, 1.0])
        gamma = sign * rng.uniform(1 / 7 + 1e-3, 3 / 7)
        lam = rng.uniform(0.05, 0.99)
        witness, _ = line_witness(gamma, lam)
        anchor = horodecki_state((5 - 7 * gamma) / 2)
        rho_lam = lam * anchor.entries + (1 - lam) / 9 * np.eye(9)
        diff = rho_lam - anchor.entries
        shift = np.vdot(rho_lam, diff).real
        raw = diff - shift * np.eye(9)
        assert np.abs(witness.op.entries - raw).max() < 1e-14
        assert hs_inner(anchor, witness.op).real == pytest.approx(
            -hs_norm(witness.reference.op - anchor.op) ** 2, abs=1e-10)


def test_line_witness_window_and_segment_validation():
    with pytest.raises(ValueError):
        line_witness(0.1, 0.9)  # |gamma| <= 1/7
    with pytest.raises(ValueError):
        line_witness(0.5, 0.9)  # |gamma| > 3/7
    with pytest.raises(ValueError):
        line_witness(-2 / 7, 0.0)
    with pytest.raises(ValueError):
        line_witness(-2 / 7, 1.2)


def test_line_witness_degenerates_at_segment_end():
    witness, coeff = line_witness(-2 / 7, 1.0)
    assert hs_norm(witness.op) == 0.0
    assert coeff.a == 0.0
    assert not certify_witness(witness).certified


def test_line_witness_certification_threshold():
    gamma = CROSSING_GAMMA
    profile = detection_profile(gamma)
    witness, _ = line_witness(gamma, profile.lambda_min)
    certificate = certify_witness(witness)
    assert certificate.certified
    assert certificate.max_abs_c == pytest.approx(1.0, abs=1e-9)
    below, _ = line_witness(gamma, 0.5)
    certificate = certify_witness(below)
    assert not certificate.certified
    assert certificate.max_abs_c == pytest.approx(profile.lambda_min / 0.5)


def test_detection_profile_crossing():
    profile = detection_profile(CROSSING_GAMMA)
    assert profile.lambda_1 == pytest.approx(7 / 8, abs=1e-12)
    assert profile.lambda_2 == pytest.approx(7 / 8, abs=1e-12)
    assert profile.lambda_min == pytest.approx(0.875, abs=1e-12)
    assert profile.detects


def test_detection_profile_boundary_and_edge():
    boundary = detection_profile(DETECTION_GAMMA)
    assert boundary.lambda_1 == pytest.approx(1.0, abs=1e-12)
    assert detection_profile(DETECTION_GAMMA + 1e-9).detects
    assert not detection_profile(DETECTION_GAMMA - 1e-9).detects
    edge = detection_profile(3 / 7)
    assert edge.lambda_min == pytest.approx(edge.lambda_2)
    assert edge.lambda_2 == pytest.approx(
        2 * math.sqrt(28) * 7 / 76)  # f2 dominates past the crossing
    assert edge.detects


def test_detection_profile_symmetric_and_validated():
    plus = detection_profile(0.3)
    minus = detection_profile(-0.3)
    assert plus.lambda_min == pytest.approx(minus.lambda_min)
    with pytest.raises(ValueError):
        detection_profile(0.0)
    with pytest.raises(ValueError):
        detection_profile(0.6)


def test_coefficient_moduli_decrease_in_lambda():
    for gamma in np.linspace(0.05, 3 / 7, 9):
        lams = np.linspace(0.1, 1.0, 30)
        f1 = [abs(line_witness_coefficients(gamma, lam).c1) for lam in lams]
        f2 = [abs(line_witness_coefficients(gamma, lam).c2) for lam in lams]
        assert all(np.diff(f1) < 0)
        assert all(np.diff(f2) < 0)


def test_lambda_roots_crossing_structure():
    for gamma in np.linspace(DETECTION_GAMMA + 1e-4, CROSSING_GAMMA - 1e-4, 20):
        profile = detection_profile(gamma)
        assert profile.lambda_1 > profile.lambda_2
    for gamma in np.linspace(CROSSING_GAMMA + 1e-4, 3 / 7, 20):
        profile = detection_profile(gamma)
        assert profile.lambda_1 < profile.lambda_2


def test_horodecki_detection_range():
    (low_lo, low_hi), (high_lo, high_hi) = horodecki_detection_range()
    assert low_lo == 1.0 and high_hi == 4.0
    assert low_hi == pytest.approx((15 - math.sqrt(21)) / 6)
    assert high_lo == pytest.approx((15 + math.sqrt(21)) / 6)
    for b, expected in [(1.5, True), (2.2, False), (3.0, False), (3.5, True)]:
        gamma = (5 - 2 * b) / 7
        assert detection_profile(gamma).detects is expected
