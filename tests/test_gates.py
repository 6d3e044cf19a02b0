"""Each threshold gate pinned at its value: one input just inside, one just
outside.  The values are written out here, not read from the library, so a
changed constant fails these tests."""

import math

import numpy as np
import pytest

from entwit import (
    DETECTION_GAMMA,
    BipartiteOperator,
    DensityMatrix,
    SimplexParams,
    certify_witness,
    classify_ppt,
    detection_profile,
    hermitian_spectrum,
    line_witness,
    line_witness_coefficients,
    simplex_state,
    tensor,
    weyl_operator,
)
from entwit.atlas import (classify_point, classify_weights, lambda_scan,
                          slice_sweep)

# the last gamma inside the anchor window |gamma| <= 3/7 + 1e-12, and the
# first outside it
WINDOW_EDGE = 3 / 7 + 1e-12
PAST_WINDOW = math.nextafter(WINDOW_EDGE, 1.0)


def skewed(mat, defect):
    """`mat` with entry (0, 1) raised by `defect`: max |A - A^dag| grows by
    exactly `defect`, trace and (to first order) spectrum stay."""
    mat = np.array(mat, dtype=complex)
    mat[0, 1] += defect
    return BipartiteOperator(3, 3, mat)


def test_density_matrix_hermiticity_gate_at_1e_12():
    DensityMatrix(skewed(np.eye(9) / 9, 0.9e-12))
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(skewed(np.eye(9) / 9, 1.1e-12))


@pytest.mark.parametrize("gate", [hermitian_spectrum, certify_witness],
                         ids=["hermitian_spectrum", "certify_witness"])
def test_operator_hermiticity_gate_at_1e_10(gate):
    gate(skewed(np.eye(9), 0.9e-10))
    with pytest.raises(ValueError, match="Hermitian"):
        gate(skewed(np.eye(9), 1.1e-10))


def test_certification_zero_tolerance_at_1e_12():
    # U_{1,0} (x) U_{1,0} pairs with nothing: its coefficient is off-form
    off = tensor(weyl_operator(3, (1, 0)), weyl_operator(3, (1, 0)))
    off = off + off.dagger()
    for scale, in_form in ((0.99e-12, True), (1.01e-12, False)):
        certificate = certify_witness(BipartiteOperator(3, 3, np.eye(9))
                                      + scale * off)
        assert certificate.in_certifiable_form is in_form, scale
        assert certificate.certified is in_form, scale


def test_certification_slack_at_one_plus_1e_12():
    # 2*1 + c (U_{0,1} (x) U_{0,1} + h.c.) is in form with a = 1, max|c| = c
    pair = tensor(weyl_operator(3, (0, 1)), weyl_operator(3, (0, 1)))
    pair = pair + pair.dagger()
    for excess, certified in ((0.9e-12, True), (1.1e-12, False)):
        op = 2 * BipartiteOperator(3, 3, np.eye(9)) + (1 + excess) * pair
        certificate = certify_witness(op)
        assert certificate.in_certifiable_form
        assert certificate.certified is certified, excess


def test_classify_ppt_gate_at_psd_tol():
    # (1 - alpha)/9 * 1 + alpha P00 has min PT eigenvalue (1 - 4 alpha)/9
    for depth, label in ((0.9e-10, "PPT"), (1.1e-10, "NPT")):
        alpha = (1 + 9 * depth) / 4
        verdict = classify_ppt(simplex_state(SimplexParams(alpha, 0, 0))
                               .density())
        assert verdict.min_pt_eigenvalue == pytest.approx(-depth, rel=1e-4)
        assert verdict.label == label, depth


@pytest.mark.parametrize("sign", [1, -1])
def test_line_witness_window_edges(sign):
    line_witness(sign * WINDOW_EDGE, 0.9)
    with pytest.raises(ValueError, match="anchor windows"):
        line_witness(sign * PAST_WINDOW, 0.9)
    line_witness(sign * math.nextafter(1 / 7, 1.0), 0.9)
    with pytest.raises(ValueError, match="anchor windows"):
        line_witness(sign / 7, 0.9)


@pytest.mark.parametrize("sign", [1, -1])
def test_detection_profile_window_edge(sign):
    assert detection_profile(sign * WINDOW_EDGE).detects
    with pytest.raises(ValueError, match="anchor window"):
        detection_profile(sign * PAST_WINDOW)


@pytest.mark.parametrize("call, named", [
    (lambda: detection_profile(math.nan), "gamma=nan"),
    (lambda: detection_profile(-math.inf), "gamma=-inf"),
    (lambda: lambda_scan(math.nan, 0.3, 3), "gamma=nan"),
    (lambda: line_witness_coefficients(0.3, math.nan), "lambda=nan"),
    (lambda: line_witness_coefficients(0.3, math.inf), "lambda=inf"),
    (lambda: line_witness_coefficients(math.nan, 0.5), "gamma=nan"),
], ids=["profile-nan", "profile-inf", "scan-nan", "coefficients-lambda-nan",
        "coefficients-lambda-inf", "coefficients-gamma-nan"])
def test_non_finite_gamma_and_lambda_rejected(call, named):
    with pytest.raises(ValueError, match=f"^{named} is not finite$"):
        call()


@pytest.mark.parametrize("params, named", [
    ((0.1, 0.1, math.nan), "gamma=nan"),
    ((math.inf, 0.0, 0.0), "alpha=inf"),
    ((0.1, -math.inf, 0.3), "beta=-inf"),
])
def test_classify_point_rejects_non_finite_parameters(params, named):
    # as simplex_state does, instead of labelling the point invalid
    with pytest.raises(ValueError, match=f"^{named} is not finite$"):
        classify_point(params)
    with pytest.raises(ValueError, match="Bell weights must be finite"):
        simplex_state(params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_classify_weights_rejects_non_finite_weights(bad):
    # one bad row used to sink the whole batch in the 3x3 eigensolve, with
    # a LinAlgError instead of a ValueError
    weights = np.full((3, 9), 1 / 9)
    weights[1, 4] = bad
    with pytest.raises(ValueError, match=f"^weights={bad} is not finite$"):
        classify_weights(weights)


@pytest.mark.parametrize("sign", [1, -1])
def test_slice_line_column_at_window_edges(sign):
    def has_line(gamma):
        return "line" in slice_sweep(gamma, 2).columns.witness_values

    assert not has_line(sign * DETECTION_GAMMA)
    assert has_line(sign * (DETECTION_GAMMA + 1e-9))
    assert has_line(sign * 3 / 7)
    assert has_line(sign * WINDOW_EDGE)
    assert not has_line(sign * PAST_WINDOW)


@pytest.mark.parametrize("sign", [1, -1])
def test_line_lambda_override_at_one_seventh(sign):
    inside = SimplexParams(0.1, 0.0, sign * math.nextafter(1 / 7, 1.0))
    assert "line" in classify_point(inside, line_lambda=0.9).witness_values
    with pytest.raises(ValueError, match="anchor windows"):
        classify_point(SimplexParams(0.1, 0.0, sign / 7), line_lambda=0.9)
