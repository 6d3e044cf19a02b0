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
    max_entangled,
    maximally_mixed,
    simplex_spectrum,
    simplex_state,
    weyl_expand,
)
from entwit.families import (_bell_diagonal, _bell_gate, _family_weights,
                             _horodecki_params)
from entwit.operators import PSD_TOL, TRACE_TOL, _density_gate
from entwit.reproduce import _threshold_lines
from entwit.weyl import _bell_stack
from entwit.witness import _line_pair, _region_traces, _tangent_traces


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
    rows = rng.uniform(-1, 1, (300, 3))
    stacked = simplex_spectrum(rows)
    for params, row in zip(rows, stacked):
        closed = simplex_spectrum(SimplexParams(*params))
        assert np.array_equal(closed, row)
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


def _real_family_params():
    """Seeded parameters in a box that holds every valid state, points of
    the gamma = 0 slice, and the Horodecki line with b = 1 and 4."""
    rng = np.random.default_rng(59)
    b = np.concatenate([np.linspace(0.0, 5.0, 51), [1.0, 4.0, 0.99, 4.01]])
    return np.concatenate([
        rng.uniform(-0.5, 1.0, (2500, 3)),
        np.column_stack([rng.uniform(-0.5, 1.0, (200, 2)), np.zeros(200)]),
        np.column_stack(_horodecki_params(b)),
    ])


def _complex_bell_sum(weights):
    # sum_k w_k P_k in complex arithmetic over all 81 entries of each P_k,
    # w_0 P_0 first and then one term at a time in index order
    projectors = _bell_stack(3)
    mats = weights[..., 0, None, None] * projectors[0]
    for k in range(1, 9):
        mats = mats + weights[..., k, None, None] * projectors[k]
    return mats


def test_simplex_state_is_real():
    # the imaginary parts of each conjugate Bell pair cancel exactly, so
    # dropping them loses nothing
    params = _real_family_params()
    complex_mats = _complex_bell_sum(_family_weights(*params.T))
    assert not complex_mats.imag.any()
    for p, mat in zip(params, complex_mats):
        entries = simplex_state(p).op.entries
        assert entries.dtype == np.float64
        assert np.array_equal(entries, mat.real)
    for b in (0.0, 1.0, 2.5, 4.0, 5.0):
        entries = horodecki_state(b).entries
        assert entries.dtype == np.float64
        assert np.array_equal(entries, simplex_state(
            horodecki_to_simplex(b)).op.entries)


def _untouched():
    # the 54 entries that no P_k touches
    return ~_bell_stack(3).any(axis=0)


def _assert_untouched_positive_zero(mats):
    for part in (mats.real, mats.imag):
        untouched = part[..., _untouched()]
        assert not untouched.any() and not np.signbit(untouched).any()


def test_bell_diagonal_is_real_exactly_when_the_sum_is_real():
    # weights that differ on a conjugate pair P_{1,m}, P_{2,m} stay complex;
    # the entries that no P_k touches are +0.0 (the sum's may be -0.0)
    weights = np.random.default_rng(5).dirichlet(np.ones(9), 20)
    normal = np.random.default_rng(71).standard_normal((300, 9))
    for w in (weights[0], weights, normal):
        mats = _bell_diagonal(w)
        assert mats.dtype == np.complex128
        assert np.array_equal(mats, _complex_bell_sum(w))
        _assert_untouched_positive_zero(mats)
    # family weights, the battery's witness traces and negative weights set
    # equal on each pair: float64, the real part of the complex sum
    normal[:, 6:] = normal[:, 3:6]
    pair_equal = [_family_weights(*_real_family_params().T),
                  np.concatenate([
                      np.array(_region_traces()),
                      _tangent_traces(*_line_pair(*_threshold_lines()))[0]]),
                  normal]
    for w in pair_equal + [row for stack in pair_equal for row in stack[:5]]:
        mats = _bell_diagonal(w)
        expected = _complex_bell_sum(w)
        assert not expected.imag.any()
        assert mats.dtype == np.float64 and mats.flags.c_contiguous
        assert np.array_equal(mats, expected.real)
        _assert_untouched_positive_zero(mats)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="Bell weights must be finite"):
            _bell_diagonal(_family_weights(0.2, 0.1, bad))
        with pytest.raises(ValueError, match="Bell weights must be finite"):
            simplex_state(SimplexParams(bad, 0.0, 0.0))


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


def test_bell_diagonal_stack_rows_equal_single_builds():
    # a row of a stack is bit for bit the matrix of its weights alone, for
    # family weights (real, as simplex_state builds them) and for arbitrary
    # weights
    params = np.random.default_rng(61).uniform(-1.0, 1.0, (200, 3))
    stack = _bell_diagonal(_family_weights(*params.T))
    assert stack.dtype == np.float64 and stack.flags.c_contiguous
    for p, mat in zip(params, stack):
        assert np.array_equal(simplex_state(p).op.entries, mat)
    weights = np.random.default_rng(62).standard_normal((50, 9))
    stack = _bell_diagonal(weights)
    assert stack.shape == (50, 9, 9)
    for w, mat in zip(weights, stack):
        assert np.array_equal(_bell_diagonal(w), mat)


def _bits(mats):
    # the float64 words of an array, so that -0.0 and +0.0 differ
    return np.ascontiguousarray(mats).view(np.uint64)


def _family_weights_with_zeros():
    # corners and edges of the family where some weights are exactly 0,
    # and the Horodecki state at b = 0, whose weights on P02, P12, P22 are
    edges = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3],
                      [-0.5, 0.0, 0.0], [0.0, 0.0, -1.0]])
    params = np.concatenate([_real_family_params(), edges])
    return _family_weights(*params.T)


def test_bell_diagonal_is_the_dense_sum_bit_for_bit_on_family_weights():
    weights = _family_weights_with_zeros()
    assert (weights == 0).any()
    mats = _bell_diagonal(weights)
    dense = _complex_bell_sum(weights)
    assert not dense.imag.any()
    assert mats.dtype == np.float64 and mats.flags.c_contiguous
    assert np.array_equal(_bits(mats), _bits(dense.real))
    for w, mat in zip(weights[::97], mats[::97]):
        assert np.array_equal(_bits(_bell_diagonal(w)), _bits(mat))


def test_bell_diagonal_is_exactly_hermitian():
    rng = np.random.default_rng(79)
    pair_equal = rng.standard_normal((100, 9))
    pair_equal[:, 6:] = pair_equal[:, 3:6]
    for weights in (_family_weights_with_zeros(), pair_equal):
        mats = _bell_diagonal(weights)
        assert (mats == mats.swapaxes(-1, -2)).all()
    # on weights unequal on a conjugate pair, off the diagonal; on it, the
    # sum keeps the imaginary round-off of the projectors' diagonals, at
    # most one ulp of 1/3 (0 where complex products are not fused)
    off_diagonal = ~np.eye(9, dtype=bool)
    diagonal_round_off = np.abs(np.diagonal(_bell_stack(3), axis1=1,
                                            axis2=2).imag).max()
    assert diagonal_round_off <= np.spacing(1 / 3)
    for weights in (rng.standard_normal((100, 9)),
                    rng.dirichlet(np.ones(9), 40)):
        mats = _bell_diagonal(weights)
        adjoint = mats.conj().swapaxes(-1, -2)
        assert (mats == adjoint)[:, off_diagonal].all()
        diagonal = np.diagonal(mats, axis1=1, axis2=2)
        # three terms, and room for their rounding
        assert (np.abs(diagonal.imag) <= 4 * diagonal_round_off
                * np.abs(weights).max(axis=1, keepdims=True)).all()


def _gate_messages(weights):
    # the message of each gate on one state, or None where it passes
    messages = []
    for gate in (lambda: _bell_gate(weights[None]),
                 lambda: _density_gate(_bell_diagonal(weights[None]))):
        try:
            gate()
            messages.append(None)
        except ValueError as exc:
            messages.append(str(exc))
    return messages


def test_bell_gate_raises_the_messages_of_the_density_gate():
    # one weight, e = (1 - alpha - beta - gamma)/9 on P02, P12 and P22,
    # just below -PSD_TOL
    below = _family_weights(1.0 + 1.8e-9, 0.0, 0.0)
    assert below.min() < -PSD_TOL
    bell, dense = _gate_messages(below)
    assert bell == dense == ("not positive semidefinite: min eigenvalue "
                             "-2.000e-10 < -1e-10")
    # the trace off 1 by far more than TRACE_TOL; where the weights' sum
    # and the matrix trace round alike, the messages agree to the digit
    for weights in (_family_weights(0.5, 0.25, 0.0) * 1.5,
                    np.full(9, 1 / 9) * (1 + 1e-9)):
        assert abs(weights.sum() - 1.0) > TRACE_TOL
        bell, dense = _gate_messages(weights)
        assert bell == dense and bell.startswith("trace is")
    # a valid state passes, and the gate returns its minimum weight
    weights = _family_weights(*_real_family_params().T)
    weights = weights[weights.min(axis=1) >= 0][:50]
    assert np.array_equal(_bell_gate(weights), weights.min(axis=1))


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
