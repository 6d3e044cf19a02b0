import numpy as np
import pytest

from entwit import (
    SimplexParams,
    bell_projector,
    classify_ppt,
    gamma_slice_point,
    hermitian_spectrum,
    horodecki_state,
    horodecki_to_simplex,
    hs_norm,
    line_state,
    max_entangled,
    maximally_mixed,
    simplex_spectrum,
    simplex_state,
    weyl_expand,
)
from entwit.families import _bell_diagonal, _family_weights


def reference_horodecki(b):
    # built directly from computational-basis kets
    phi = max_entangled(3)
    rho = 2 / 7 * np.outer(phi, phi.conj())
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        rho[3 * i + j, 3 * i + j] += b / 21
    for i, j in [(1, 0), (2, 1), (0, 2)]:
        rho[3 * i + j, 3 * i + j] += (5 - b) / 21
    return rho


def test_simplex_state_corners():
    assert hs_norm(simplex_state(SimplexParams(0, 0, 0)).op
                   - maximally_mixed(3, 3).op) < 1e-14
    assert hs_norm(simplex_state(SimplexParams(1, 0, 0)).op
                   - bell_projector(3, (0, 0)).op) < 1e-14


def test_simplex_state_matches_horodecki_at_gamma0():
    state = simplex_state(SimplexParams(1 / 6, -5 / 21, 0))
    assert hs_norm(state.op - horodecki_state(2.5).op) < 1e-12


def test_simplex_state_always_unit_trace():
    rng = np.random.default_rng(3)
    for _ in range(50):
        state = simplex_state(SimplexParams(*rng.uniform(-2, 2, 3)))
        assert state.op.trace().real == pytest.approx(1)


def test_simplex_state_invalid_flagged_not_rejected():
    state = simplex_state(SimplexParams(-0.5, 0, 0))
    assert not state.valid
    assert state.min_eigenvalue < 0
    with pytest.raises(ValueError):
        state.density()
    valid = simplex_state(SimplexParams(0.3, 0.1, -0.1))
    assert valid.valid
    valid.density()  # should not raise


def test_simplex_spectrum_examples():
    assert np.allclose(simplex_spectrum(SimplexParams(0, 0, 0)), np.full(9, 1 / 9))
    assert np.allclose(simplex_spectrum(SimplexParams(1, 0, 0)),
                       [0] * 8 + [1], atol=1e-15)
    spec = simplex_spectrum(SimplexParams(0.5, 0, 0))
    assert spec[-1] == pytest.approx(0.5 + 0.5 / 9)       # 0.5556
    assert np.allclose(spec[:8], np.full(8, 0.5 / 9))     # 0.0556


def test_simplex_spectrum_matches_numeric():
    rng = np.random.default_rng(19)
    for _ in range(300):
        params = SimplexParams(*rng.uniform(-1, 1, 3))
        closed = simplex_spectrum(params)
        numeric = hermitian_spectrum(simplex_state(params).op)
        assert np.abs(closed - numeric).max() < 1e-12


def test_simplex_state_is_bell_diagonal():
    rng = np.random.default_rng(23)
    mask = np.zeros((3, 3, 3, 3), dtype=bool)
    for n in range(3):
        for m in range(3):
            mask[n, m, (-n) % 3, m] = True
    for _ in range(20):
        state = simplex_state(SimplexParams(*rng.uniform(-0.3, 0.3, 3)))
        coeffs = weyl_expand(state.op).coeffs
        assert np.abs(coeffs[~mask]).max() < 1e-12


def test_bell_diagonal_equals_family_formula():
    # the README formula, term by term, against the matrix of the weights;
    # the box reaches well outside the valid states
    params = np.random.default_rng(47).uniform(-1.0, 1.0, (250, 3))
    p = {(n, m): bell_projector(3, (n, m)).entries
         for n in range(3) for m in range(3)}
    stack = _bell_diagonal(_family_weights(*params.T))
    valid = 0
    for (alpha, beta, gamma), mat in zip(params, stack):
        formula = ((1 - alpha - beta - gamma) / 9 * np.eye(9)
                   + alpha * p[0, 0] + beta / 2 * (p[1, 0] + p[2, 0])
                   + gamma / 3 * (p[0, 1] + p[1, 1] + p[2, 1]))
        single = _bell_diagonal(_family_weights(alpha, beta, gamma))
        assert np.abs(single - formula).max() <= 1e-15
        assert np.abs(mat - formula).max() <= 1e-15
        valid += simplex_state(SimplexParams(alpha, beta, gamma)).valid
    assert 0 < valid < len(params)


def test_horodecki_state_structure():
    for b in (0.0, 1.3, 2.5, 4.0, 5.0):
        assert np.abs(horodecki_state(b).entries - reference_horodecki(b)).max() < 1e-14


def test_horodecki_range_validation():
    with pytest.raises(ValueError):
        horodecki_state(-0.1)
    with pytest.raises(ValueError):
        horodecki_state(5.1)
    with pytest.raises(ValueError):
        horodecki_to_simplex(5.2)


def test_horodecki_ppt_windows():
    assert classify_ppt(horodecki_state(2.5)).label == "PPT"
    assert classify_ppt(horodecki_state(0.0)).label == "NPT"
    assert classify_ppt(horodecki_state(5.0)).label == "NPT"


def test_horodecki_pt_boundary_bisection():
    def min_pt(b):
        return classify_ppt(horodecki_state(b)).min_pt_eigenvalue

    for lo, hi, root in [(0.5, 1.5, 1.0), (3.5, 4.5, 4.0)]:
        flo = min_pt(lo)
        assert flo * min_pt(hi) < 0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if (min_pt(mid) < 0) == (flo < 0):
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - root) < 1e-8


def test_horodecki_to_simplex_instances():
    assert horodecki_to_simplex(2.5) == pytest.approx((1 / 6, -5 / 21, 0))
    assert horodecki_to_simplex(3.0) == pytest.approx((1 / 7, -2 / 7, -1 / 7))
    assert horodecki_to_simplex(4.0) == pytest.approx((2 / 21, -8 / 21, -3 / 7))


def test_embedding_identity():
    for b in np.linspace(0, 5, 50):
        params = horodecki_to_simplex(b)
        assert hs_norm(simplex_state(params).op - horodecki_state(b).op) < 1e-12


def test_line_state_endpoints():
    rho = horodecki_state(3.5)
    assert hs_norm(line_state(rho, 0.0).op - maximally_mixed(3, 3).op) < 1e-14
    assert hs_norm(line_state(rho, 1.0).op - rho.op) == 0.0
    mid = line_state(rho, 0.5)
    assert np.allclose(mid.entries, 0.5 * rho.entries + 0.5 * np.eye(9) / 9)


def test_line_state_rejects_outside_segment():
    rho = horodecki_state(3.5)
    with pytest.raises(ValueError):
        line_state(rho, -0.01)
    with pytest.raises(ValueError):
        line_state(rho, 1.01)


def test_gamma_slice_point_values():
    # gamma = -3/7 endpoint
    assert gamma_slice_point(4.0) == pytest.approx((2 / 21, -8 / 21))
    # gamma = -0.3 corresponds to b = 3.55
    alpha, beta = gamma_slice_point(3.55)
    assert alpha == pytest.approx(0.7 / 6)
    assert beta == pytest.approx(-7.1 / 21)


def test_gamma_slice_point_window():
    with pytest.raises(ValueError):
        gamma_slice_point(3.0)  # gamma = -1/7 is outside [-3/7, -1/7)
    with pytest.raises(ValueError):
        gamma_slice_point(4.5)
    # the two formulas agree on the whole line, window or not
    for b in np.linspace(0, 5, 21):
        params = horodecki_to_simplex(b)
        gamma = params.gamma
        assert params.alpha == pytest.approx((1 + gamma) / 6, abs=1e-12)
        assert params.beta == pytest.approx((-5 + 7 * gamma) / 21, abs=1e-12)


def test_gamma_slice_point_consistent_with_embedding():
    for b in np.linspace(3.001, 4.0, 25):
        alpha, beta = gamma_slice_point(b)
        params = horodecki_to_simplex(b)
        assert abs(alpha - params.alpha) < 1e-12
        assert abs(beta - params.beta) < 1e-12
